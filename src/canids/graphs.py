"""Sliding-window graph construction from CAN frame streams.

Each window of W consecutive frames becomes one graph: nodes are the
distinct CAN IDs (ordered by first appearance), edges link the IDs of
consecutive frames (self-edges included) with multiplicity weights, and
node features are [can_id/2047, count/W, mean payload byte/255]. Edge
weights over a window always sum to W-1.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, NoReturn, Sequence

import numpy as np

from .canlog import CanFrame, FrameBlock, Label, MAX_STD_ID, checked_frame, frame_blocks
from .errors import ConfigError, ParseError, StateError, open_ascii, quoted
from .floattext import joined, repr_rows

CACHE_MAGIC = "canids-graph-cache v1"
_CHUNK_CHARS = 1 << 20  # load_graph_cache reads whole lines about this many characters at a time
_REPEATED_ID = "node ID listed twice in one window"
_WRITE_WINDOWS = 1 << 10  # save_graph_cache lays out the records of this many windows at once
_NEWLINE = ord("\n")
_GROUP_FRAMES = 1 << 18  # build_block_windows builds windows with about this many frame positions at once


@dataclass
class WindowGraph:
    node_ids: list[int]
    node_features: np.ndarray  # (num_nodes, 3) float64
    edge_src: np.ndarray  # (num_edges,) int64, node indices
    edge_dst: np.ndarray
    edge_weight: np.ndarray  # (num_edges,) float64 occurrence counts
    label: int
    window_start_index: int

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    def edges(self) -> list[tuple[int, int, float]]:
        return list(zip(self.edge_src.tolist(), self.edge_dst.tolist(), self.edge_weight.tolist()))


def build_windows(
    frames: Iterable[CanFrame],
    window_size: int,
    stride: int | None = None,
    directed: bool = True,
) -> Iterator[WindowGraph]:
    """Yield one WindowGraph per window position 0, stride, 2*stride, ...

    The trailing partial window is discarded. ``stride`` defaults to
    ``window_size`` (non-overlapping windows); stride=1 gives the fully
    overlapped stream used for online scoring; its directed windows are
    updated one frame at a time (``_stride_one_windows``). With
    ``directed=False`` transition counts are accumulated on unordered ID
    pairs instead. Every other window is built by ``build_block_windows``
    from the ``frame_blocks`` of ``frames``, the columns of a FrameLog as
    they are. A frame whose ID, DLC or payload bytes are not
    integers in range raises ParseError naming its position.
    """
    stride = _checked_stride(window_size, stride)
    if stride == 1 and directed:
        yield from _stride_one_windows(frames, window_size)
        return
    blocks = (block for _, block in frame_blocks(frames))
    yield from build_block_windows(blocks, window_size, stride, directed)


def _checked_stride(window_size: int, stride: int | None) -> int:
    """``stride`` (``window_size`` if None), after checking both."""
    if window_size < 2:
        raise ConfigError(f"window_size must be >= 2, got {quoted(str(window_size), marks=False)}")
    if stride is None:
        stride = window_size
    if not 1 <= stride <= window_size:
        window_size, stride = (quoted(str(n), marks=False) for n in (window_size, stride))
        raise ConfigError(f"stride must be in [1, {window_size}], got {stride}")
    return stride


def build_block_windows(
    blocks: Iterable[FrameBlock],
    window_size: int,
    stride: int | None = None,
    directed: bool = True,
) -> Iterator[WindowGraph]:
    """The windows build_windows gives for the frames of consecutive FrameBlocks, built with array ops.

    A window that straddles two blocks is built when the later one comes.
    A block's windows are built in groups of about _GROUP_FRAMES frame
    positions (``_group_windows``).
    """
    w = window_size
    stride = _checked_stride(w, stride)
    group = max(1, _GROUP_FRAMES // w)  # windows per group
    # can_id, payload sum, DLC and attack flag of each frame from the next window's start on
    columns = [np.empty(0, dtype=np.int64)] * 3 + [np.empty(0, dtype=bool)]
    offset = 0  # the frame index of their first frame
    for block in blocks:
        new = (block.can_id, _payload_sums(block.payload), block.dlc, block.attack)
        columns = [np.concatenate(pair) for pair in zip(columns, new)]
        count = max(0, (len(columns[0]) - w) // stride + 1)
        for at in range(0, count, group):
            starts = np.arange(at, min(at + group, count)) * stride
            yield from _group_windows(columns, starts, w, directed, offset)
        columns = [c[count * stride :] for c in columns]
        offset += count * stride


def _payload_sums(payload: np.ndarray) -> np.ndarray:
    """The byte sum of each row of an (n, 8) uint8 payload, as int64, by adding its columns: exact, and
    faster than ``payload.sum(axis=1)``, which reduces each 8-byte row on its own."""
    total = payload[:, 0].astype(np.int64)
    for column in payload.T[1:]:
        total += column
    return total


def _group_windows(columns, starts: np.ndarray, w: int, directed: bool, offset: int) -> list[WindowGraph]:
    """The windows of ``w`` frames of ``columns`` at ``starts`` (their frame indexes less ``offset``).

    Each (window, CAN ID) pair is one node key and each (window, source
    node, destination node) pair one edge key. The first position of a key
    orders the nodes and edges of its window by first appearance, and
    ``bincount`` over the keys sums the payload bytes and DLCs. Features are
    computed with the same float operations as ``_graph``, so the bits are
    the same.
    """
    can_id, payload_sum, dlc, attack = columns
    k = len(starts)
    frame = (starts[:, None] + np.arange(w)).ravel()  # of each (window, position)
    window = np.repeat(np.arange(k), w)
    keys, first, inverse, counts = np.unique(
        window * (MAX_STD_ID + 1) + can_id[frame], return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)  # nodes by window, then first appearance
    node = np.empty_like(order)
    node[order] = np.arange(len(order))
    node = node[inverse]  # of each (window, position)
    keys = keys[order]
    node_ids = keys % (MAX_STD_ID + 1)
    node_at = np.searchsorted(keys // (MAX_STD_ID + 1), np.arange(k + 1))  # each window's first node
    payload_n = np.bincount(node, weights=dlc[frame])
    mean_payload = np.bincount(node, weights=payload_sum[frame])
    np.divide(mean_payload, payload_n, out=mean_payload, where=payload_n > 0)
    feats = np.stack([node_ids / MAX_STD_ID, counts[order] / w, mean_payload / 255.0], axis=1)

    local = (node - node_at[window]).reshape(k, w)  # node index within its window
    src, dst = local[:, :-1], local[:, 1:]
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    edge_keys = (window.reshape(k, w)[:, 1:] * w + src) * w + dst
    edge_keys, first, edge_counts = np.unique(edge_keys, return_index=True, return_counts=True)
    order = np.argsort(first)  # edges by window, then first appearance
    edge_keys = edge_keys[order]
    edge_at = np.searchsorted(edge_keys // (w * w), np.arange(k + 1))
    edge_src, edge_dst, wts = edge_keys // w % w, edge_keys % w, edge_counts[order].astype(np.float64)

    node_ids = node_ids.tolist()
    labels = attack[frame].reshape(k, w).any(axis=1).tolist()
    node_at, edge_at = node_at.tolist(), edge_at.tolist()
    return [
        WindowGraph(node_ids[a:b], feats[a:b], edge_src[c:d], edge_dst[c:d], wts[c:d], int(label), offset + start)
        for a, b, c, d, label, start in zip(
            node_at, node_at[1:], edge_at, edge_at[1:], labels, starts.tolist()
        )
    ]


def _graph(node_ids, counts, payload_sum, payload_n, edge_counts, w, label, start) -> WindowGraph:
    """A WindowGraph from per-node integer tallies and the {(src, dst): count} edges, in order."""
    n = len(node_ids)
    feats = np.empty((n, 3), dtype=np.float64)
    for j, cid in enumerate(node_ids):
        mean_payload = payload_sum[j] / payload_n[j] if payload_n[j] else 0.0
        feats[j, 0] = cid / MAX_STD_ID
        feats[j, 1] = counts[j] / w
        feats[j, 2] = mean_payload / 255.0
    src = np.fromiter((k[0] for k in edge_counts), dtype=np.int64, count=len(edge_counts))
    dst = np.fromiter((k[1] for k in edge_counts), dtype=np.int64, count=len(edge_counts))
    wts = np.fromiter(edge_counts.values(), dtype=np.float64, count=len(edge_counts))
    return WindowGraph(node_ids, feats, src, dst, wts, label, start)


def _stride_one_windows(frames: Iterable[CanFrame], w: int) -> Iterator[WindowGraph]:
    """Directed stride-1 windows, each updated from the last: one frame enters, the oldest leaves.

    For each CAN ID and each transition (ID a, then ID b) the window keeps
    the positions where it occurs, oldest first. First-appearance order is
    then a sort by oldest position, and the tallies are integers, so each
    window equals the one ``build_block_windows`` builds from its frames alone.
    """
    attack = Label.ATTACK
    window: deque = deque()  # (can_id, payload sum, dlc, is attack), oldest first
    ids: dict[int, list] = {}  # can_id -> [positions, payload sum, dlc sum]
    moves: dict[tuple[int, int], deque] = {}  # (a, b) -> positions of a
    attacks = 0
    prev = None
    for pos, frame in enumerate(frames):
        _, can_id, dlc, payload, label = checked_frame(pos, frame)
        can_id, dlc = int(can_id), int(dlc)  # a numpy int would wrap in the sums and be kept as a node ID
        rec = (can_id, sum(bytes(payload)), dlc, label == attack)
        window.append(rec)
        tally = ids.get(can_id)
        if tally is None:
            tally = ids[can_id] = [deque(), 0, 0]
        tally[0].append(pos)
        tally[1] += rec[1]
        tally[2] += dlc
        if prev is not None:
            moves.setdefault((prev, can_id), deque()).append(pos - 1)
        prev = can_id
        attacks += rec[3]
        if len(window) < w:
            continue

        node_ids = sorted(ids, key=lambda cid: ids[cid][0][0])
        index = {cid: j for j, cid in enumerate(node_ids)}
        tallies = [ids[cid] for cid in node_ids]
        edge_counts = {
            (index[a], index[b]): len(moves[(a, b)]) for a, b in sorted(moves, key=lambda m: moves[m][0])
        }
        yield _graph(
            node_ids, [len(t[0]) for t in tallies], [t[1] for t in tallies], [t[2] for t in tallies],
            edge_counts, w, int(attacks > 0), pos + 1 - w,
        )

        old_id, old_sum, old_dlc, old_attack = window.popleft()
        tally = ids[old_id]
        tally[0].popleft()
        if tally[0]:
            tally[1] -= old_sum
            tally[2] -= old_dlc
        else:
            del ids[old_id]
        move = (old_id, window[0][0])
        moves[move].popleft()
        if not moves[move]:
            del moves[move]
        attacks -= old_attack


def feature_stats(graphs: Sequence[WindowGraph]) -> dict:
    """Dataset summary: node/edge count ranges and the attack-window fraction."""
    if not graphs:
        raise StateError("feature_stats needs at least one graph")
    nodes = np.array([g.num_nodes for g in graphs], dtype=np.float64)
    edges = np.array([g.num_edges for g in graphs], dtype=np.float64)
    labels = np.array([g.label for g in graphs], dtype=np.float64)
    return {
        "num_graphs": len(graphs),
        "nodes_min": float(nodes.min()),
        "nodes_mean": float(nodes.mean()),
        "nodes_max": float(nodes.max()),
        "edges_min": float(edges.min()),
        "edges_mean": float(edges.mean()),
        "edges_max": float(edges.max()),
        "attack_fraction": float(labels.mean()),
    }


def save_graph_cache(graphs: Iterable[WindowGraph], path) -> int:
    """Write graphs to the line-oriented cache format. Returns graph count.

    Format (ints via str, floats via repr, so reload is bit-exact):
        canids-graph-cache v1
        graph <window_start_index> <label> <num_nodes> <num_edges>
        node <can_id> <feat0> <feat1> <feat2>     x num_nodes
        edge <src> <dst> <weight>                 x num_edges

    The graphs are written _WRITE_WINDOWS at a time (``_window_records``).
    """
    graphs = iter(graphs)
    count = 0
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC.encode() + b"\n")
        while group := list(itertools.islice(graphs, _WRITE_WINDOWS)):
            fh.write(_window_records(group))
            count += len(group)
    return count


def _window_records(graphs: list[WindowGraph]) -> bytes:
    """The records of ``graphs``, in order. Each window's graph record is formatted on its own; the
    node and edge records of all of them are laid out by ``joined``, each field's texts from
    ``_text_rows``, and a window's records are slices of their bytes, which end at their newlines."""
    node_ids = np.array([cid for g in graphs for cid in g.node_ids], dtype=np.int64)
    feats = np.concatenate([g.node_features.ravel() for g in graphs], dtype=np.float64).reshape(-1, 3)
    src, dst = (np.concatenate([getattr(g, name) for g in graphs], dtype=np.int64) for name in ("edge_src", "edge_dst"))
    wts = np.concatenate([g.edge_weight for g in graphs], dtype=np.float64)
    ints, id_feats, counts = _number_texts()
    other = _text_rows(feats[:, 1:].ravel())  # the other two features of each node, in turn
    nodes = joined(b"node ", _text_rows(node_ids, ints), b" ", _text_rows(feats[:, 0], id_feats), b" ",
                   other[0::2], b" ", other[1::2], b"\n")
    edges = joined(b"edge ", _text_rows(src, ints), b" ", _text_rows(dst, ints), b" ", _text_rows(wts, counts), b"\n")
    sizes = [(len(g.node_ids), len(g.edge_src)) for g in graphs]
    at = np.cumsum([(0, 0), *sizes], axis=0)  # each window's first node and edge record
    starts = [np.concatenate(([0], np.flatnonzero(text == _NEWLINE) + 1)) for text in (nodes, edges)]
    node_at, edge_at = (start.take(first).tolist() for start, first in zip(starts, at.T))
    nodes, edges = memoryview(nodes), memoryview(edges)
    parts = []
    for g, (n, e), a, b, c, d in zip(graphs, sizes, node_at, node_at[1:], edge_at, edge_at[1:]):
        parts += (f"graph {g.window_start_index} {g.label} {n} {e}\n".encode(), nodes[a:b], edges[c:d])
    return b"".join(parts)


def _text_rows(values: np.ndarray, table: _NumberTexts | None = None) -> np.ndarray:
    """The text of each int64 or float64 of ``values`` (``str`` of an int, ``repr`` of a float) as the
    NUL-padded rows of a uint8 array: the rows of ``table`` if every value is one of its values, bit
    for bit (not -0.0 for 0.0, nor a nan); else each distinct float's ``repr_rows``, or each int's ``str``."""
    if table is not None:
        # the table's values are evenly spaced: a value can only be the one a whole number of steps away
        first, step, top = table.values[0], table.values[1] - table.values[0], table.values[-1]
        at = np.rint((np.fmin(np.fmax(values, first), top) - first) / step).astype(np.intp)  # nan to 0
        if (table.values.take(at).view(np.uint64) == values.view(np.uint64)).all():
            return table.rows.take(at, axis=0)
    if values.dtype.kind == "i":
        texts = np.array(list(map(str, values.tolist())), dtype="S")
        return texts.view(np.uint8).reshape(len(texts), texts.itemsize)
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)  # 0.0 and -0.0 apart
    return repr_rows(distinct.view(np.float64)).take(inverse, axis=0)


def load_graph_cache(path) -> list[WindowGraph]:
    """Read a cache written by save_graph_cache, checking every record.

    The grammar, one record per line (``\\n`` or ``\\r\\n`` line ends)::

        canids-graph-cache v1
        graph <start> <label> <num_nodes> <num_edges>
        node <can_id> <f0> <f1> <f2>        x num_nodes of the graph record above
        edge <src> <dst> <weight>           x num_edges of the graph record above

    A record line starts with its tag and a space: no whitespace before the
    tag, no tab after it. The fields after the tag are separated by
    whitespace, and nothing else is on the line. Integers are read as
    ``int()`` and floats as ``float()`` read them. The values must hold:
    start, num_nodes and num_edges >= 0; label 0 or 1; can_id in
    [0, MAX_STD_ID] and not repeated within its window; features finite;
    src and dst in [0, num_nodes) of their window; weight finite and > 0.
    The first line that breaks a rule raises ParseError with its line
    number (a wrong or missing first line is line 1); a window cut short by
    the end of the file names the line after the last.

    Lines are read about 1 MB at a time. Python reads only the ``graph``
    records; the node and edge records of a chunk are checked and converted
    column by column, and each window's arrays are slices of its chunk's.
    """
    with open_ascii(path) as fh:
        header = fh.readline().strip()
        if header != CACHE_MAGIC:
            raise ParseError(f"{path}: not a graph cache (header {quoted(header)})", line=1)
        graphs: list[WindowGraph] = []
        lineno = 2  # of lines[0]
        lines: list[str] = []  # read, not yet decoded: always starts at a graph record
        while chunk := fh.readlines(_CHUNK_CHARS):
            lines += chunk
            used = _decode_windows(lines, lineno, path, graphs)
            del lines[:used]
            lineno += used
        if lines:  # a window cut short by the end of the file
            _raise_first_bad_line(lines, lineno, path)
    return graphs


def _decode_windows(lines: list[str], lineno: int, path, graphs: list[WindowGraph]) -> int:
    """Append the whole windows at the front of ``lines`` to ``graphs``; returns the lines they span."""
    heads: list[tuple[int, int, int, int]] = []
    node_lines: list[str] = []
    edge_lines: list[str] = []
    pos, end = 0, len(lines)
    try:
        while pos < end:
            head = _graph_record(lines[pos])
            edges_at = pos + 1 + head[2]
            stop = edges_at + head[3]
            if stop > end:  # the window goes on in the next chunk
                # check what is here, so that a count too large fails now, not at the end of the file
                _node_columns(lines[pos + 1 : min(edges_at, end)], 0)
                _edge_columns(lines[edges_at:end], head[2])
                break
            node_lines += lines[pos + 1 : edges_at]
            edge_lines += lines[edges_at:stop]
            heads.append(head)
            pos = stop
        node_ids, feats = _node_columns(node_lines, np.repeat(np.arange(len(heads)), [h[2] for h in heads]))
        src, dst, wts = _edge_columns(edge_lines, np.repeat([h[2] for h in heads], [h[3] for h in heads]))
    except (ValueError, OverflowError):
        _raise_first_bad_line(lines, lineno, path)
    a = b = 0
    for start, label, n, e in heads:
        graphs.append(WindowGraph(node_ids[a : a + n], feats[a : a + n], src[b : b + e], dst[b : b + e],
                                  wts[b : b + e], label, start))
        a += n
        b += e
    return pos


def _raise_first_bad_line(lines: list[str], lineno: int, path) -> NoReturn:
    """Raise ParseError at the first bad line of ``lines`` (numbered from ``lineno``, starting at a
    graph record), checking one record at a time. A window cut short names the line after the last."""
    pos = 0
    try:
        while pos < len(lines):
            _, _, n, e = _graph_record(lines[pos])
            seen: set[int] = set()
            for tag, count in (("node", n), ("edge", e)):
                for _ in range(count):
                    pos += 1
                    if pos == len(lines):
                        raise ValueError(f"expected {tag} record")
                    if tag == "node":
                        (can_id,), _ = _node_columns(lines[pos : pos + 1], 0)
                        if can_id in seen:
                            raise ValueError(f"{_REPEATED_ID}, got {can_id}")
                        seen.add(can_id)
                    else:
                        _edge_columns(lines[pos : pos + 1], n)
            pos += 1
    except (ValueError, OverflowError) as exc:
        message = _shown(exc, lines[pos] if pos < len(lines) else "")  # past the end: a window cut short
        raise ParseError(f"{path}: {message}", line=lineno + pos) from None
    raise ParseError(f"{path}: bad graph cache record")  # the column checks are the line checks: not reached


def _shown(exc: Exception, line: str) -> str:
    """The message of ``exc``, raised reading ``line``, with the token of the line that it quotes after its
    first ": " (as int() and float() quote the text they cannot read) shown as errors.quoted shows it."""
    head, sep, tail = str(exc).partition(": ")
    token = next((t for t in line.split() if tail and repr(t).startswith(tail)), None)
    return f"{head}: {quoted(token)}" if sep and token is not None else str(exc)


def _graph_record(line: str) -> tuple[int, int, int, int]:
    """(start, label, num_nodes, num_edges) of a graph record; ValueError names the rule it breaks."""
    parts = line.split()
    if len(parts) != 5 or not line.startswith("graph "):
        raise ValueError(f"expected graph record, got {quoted(line.strip())}")
    start, label, n, e = map(int, parts[1:])
    if start < 0 or n < 0 or e < 0:
        raise ValueError(f"window start, node and edge counts must be >= 0, got {quoted(line.strip())}")
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {quoted(str(label), marks=False)}")
    return start, label, n, e


def _record_tokens(lines: list[str], tag: str, width: int) -> list[str]:
    """The tokens of ``lines``, in order, so that field ``c`` of each record is ``tokens[c::width]``;
    ValueError unless each line is one record of ``width`` tokens that starts with ``tag`` and a space."""
    text = "".join(lines)
    tokens = text.split()
    k = len(lines)
    if k and not (
        len(tokens) == width * k
        and tokens[::width].count(tag) == k
        and text.startswith(tag + " ")
        and text.count("\n" + tag + " ") == k - 1
    ):
        raise ValueError(f"expected {tag} record")
    return tokens


def _node_columns(lines: list[str], window) -> tuple[list[int], np.ndarray]:
    """The CAN IDs (Python ints) and the (k, 3) features of k node records; ``window`` is each one's window."""
    ints, id_feats, _ = _number_tables()
    tokens = _record_tokens(lines, "node", 5)
    ids = _column(tokens[1::5], ints, np.int64)
    feats = np.empty((len(ids), 3))
    feats[:, 0] = _column(tokens[2::5], id_feats, np.float64)
    feats[:, 1] = np.array(tokens[3::5], dtype=np.float64)
    feats[:, 2] = np.array(tokens[4::5], dtype=np.float64)
    _require((ids >= 0) & (ids <= MAX_STD_ID), ids, f"node ID must be in [0, {MAX_STD_ID}]")
    _require(np.isfinite(feats), feats, "node features must be finite")
    keys = np.sort(window * (MAX_STD_ID + 1) + ids)  # one key per (window, ID) pair
    _require(keys[1:] != keys[:-1], keys[1:] % (MAX_STD_ID + 1), _REPEATED_ID)
    return ids.tolist(), feats


def _edge_columns(lines: list[str], window_nodes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sources, destinations and weights of edge records; ``window_nodes`` is each one's node count."""
    ints, _, counts = _number_tables()
    tokens = _record_tokens(lines, "edge", 4)
    src = _column(tokens[1::4], ints, np.int64)
    dst = _column(tokens[2::4], ints, np.int64)
    wts = _column(tokens[3::4], counts, np.float64)
    _require((src >= 0) & (src < window_nodes), src, "edge source must be in [0, num_nodes)")
    _require((dst >= 0) & (dst < window_nodes), dst, "edge destination must be in [0, num_nodes)")
    _require((wts > 0.0) & (wts < math.inf), wts, "edge weight must be finite and > 0")  # prepare_graph takes log
    return src, dst, wts


class _NumberTexts(NamedTuple):
    values: np.ndarray  # ascending, int64 or float64
    rows: np.ndarray  # (len(values), width) uint8: the text of each value, NUL-padded


@functools.cache
def _number_texts() -> tuple[_NumberTexts, _NumberTexts, _NumberTexts]:
    """Number texts that save_graph_cache always spells one way: ``str(i)`` of every 11-bit CAN ID, which
    also covers every node index (below its window's count of distinct IDs); the ``repr`` of each ID
    feature ``i / MAX_STD_ID``; and the ``repr`` of each integral edge count up to MAX_STD_ID, ``f"{k}.0"``.
    Built on first use, as they take a few ms."""
    ids = np.arange(MAX_STD_ID + 1)
    return tuple(_NumberTexts(values, _text_rows(values)) for values in (ids, ids / MAX_STD_ID, ids[1:].astype(float)))


@functools.cache
def _number_tables() -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
    """The texts of ``_number_texts``, each with its value (a Python int or float), for the reader."""
    return tuple(dict(zip(map(bytes.decode, rows.view(f"S{rows.shape[1]}")[:, 0].tolist()), values.tolist()))
                 for values, rows in _number_texts())


def _column(texts: list[str], table: dict, dtype) -> np.ndarray:
    """``np.array(texts, dtype=dtype)``, looked up in ``table`` when it holds every text. A table's value is
    the one its text converts to, so only the time changes; a text it lacks sends the column through
    ``np.array``, which reads or rejects it as before."""
    try:
        return np.fromiter(map(table.__getitem__, texts), dtype=dtype, count=len(texts))
    except KeyError:
        return np.array(texts, dtype=dtype)


def _require(ok: np.ndarray, values: np.ndarray, rule: str):
    if not ok.all():
        raise ValueError(f"{rule}, got {values[~ok][0]}")
