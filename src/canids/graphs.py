"""Sliding-window graph construction from CAN frame streams.

Each window of W consecutive frames becomes one graph: nodes are the
distinct CAN IDs (ordered by first appearance), edges link the IDs of
consecutive frames (self-edges included) with multiplicity weights, and
node features are [can_id/2047, count/W, mean payload byte/255]. Edge
weights over a window always sum to W-1.
"""

from __future__ import annotations

import itertools
import math
import struct
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .canlog import CanFrame, FrameBlock, Label, MAX_STD_ID, checked_frame, frame_blocks
from .errors import ConfigError, DimensionError, ParseError, StateError, quoted, read_columns

CACHE_MAGIC = b"canids-graph-cache v2\n"
_TEXT_CACHE = ("canids-graph-cache v1", "a text graph cache (canids-graph-cache v1); rebuild it with build-graphs")
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
    node, destination node) pair one edge key. ``_groups`` numbers the keys
    by first appearance, which orders the nodes and edges of each window,
    and ``bincount`` over the node numbers sums the payload bytes and DLCs.
    Features are computed with the same float operations as ``_graph``, so
    the bits are the same.
    """
    can_id, payload_sum, dlc, attack = columns
    k = len(starts)
    frame = (starts[:, None] + np.arange(w)).ravel()  # of each (window, position)
    window = np.repeat(np.arange(k), w)
    keys, counts, node = _groups(window * (MAX_STD_ID + 1) + can_id[frame], inverse=True)
    node_ids = keys % (MAX_STD_ID + 1)
    node_at = np.searchsorted(keys // (MAX_STD_ID + 1), np.arange(k + 1))  # each window's first node
    payload_n = np.bincount(node, weights=dlc[frame])
    mean_payload = np.bincount(node, weights=payload_sum[frame])
    np.divide(mean_payload, payload_n, out=mean_payload, where=payload_n > 0)
    feats = np.stack([node_ids / MAX_STD_ID, counts / w, mean_payload / 255.0], axis=1)

    local = (node - node_at[window]).reshape(k, w)  # node index within its window
    src, dst = local[:, :-1], local[:, 1:]
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    radix = min(w, MAX_STD_ID + 1)  # a window has at most this many nodes
    edge_keys, edge_counts = _groups(((window.reshape(k, w)[:, 1:] * radix + src) * radix + dst).ravel())
    edge_at = np.searchsorted(edge_keys // (radix * radix), np.arange(k + 1))
    edge_src, edge_dst, wts = edge_keys // radix % radix, edge_keys % radix, edge_counts.astype(np.float64)

    node_ids = node_ids.tolist()
    labels = attack[frame].reshape(k, w).any(axis=1).tolist()
    node_at, edge_at = node_at.tolist(), edge_at.tolist()
    return [
        WindowGraph(node_ids[a:b], feats[a:b], edge_src[c:d], edge_dst[c:d], wts[c:d], int(label), offset + start)
        for a, b, c, d, label, start in zip(
            node_at, node_at[1:], edge_at, edge_at[1:], labels, starts.tolist()
        )
    ]


def _groups(keys: np.ndarray, inverse: bool = False):
    """The distinct values of the non-negative int64 ``keys`` in order of first appearance, the count of
    each and, if ``inverse``, the group (an index into them) of each key: what ``np.unique`` with
    ``return_index``, ``return_counts`` and ``return_inverse`` gives, reordered by first index.

    Each key is packed with its position, ``key << bits | position`` (``bits`` the bit length of the last
    position). No two packed values are equal, so one sort of them, numpy's unstable SIMD sort included,
    is the stable sort of the keys, and one pass over the positions orders the groups by their first.
    The packed values fit an int64 while every key < 2**(63 - bits); larger keys take a stable argsort.
    ``_group_windows``' keys never do: its k windows of w frames hold at most 2**18 positions unless
    k = 1, its node keys are < k * 2**11 and its edge keys < k * min(w, 2**11)**2, so the packed values
    stay below 2**48 for every w <= 2**18 and below 2**63 for every w < 2**41.
    """
    n = len(keys)
    bits = max(n - 1, 0).bit_length()
    if n and int(keys.max()) >> (63 - bits):
        position = np.argsort(keys, kind="stable")
        keys = keys[position]
    else:
        packed = np.sort(keys << bits | np.arange(n))
        keys, position = packed >> bits, packed & ((1 << bits) - 1)
    new = np.empty(n, dtype=bool)  # at the first key of each group, in sorted order
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, n))
    first = position[starts]  # of each group in sorted order, its first position
    index = np.empty(n, dtype=np.int64)  # at each first position, its group's index in sorted order
    index[first] = np.arange(len(first))
    is_first = np.zeros(n, dtype=bool)
    is_first[first] = True
    order = index[np.flatnonzero(is_first)]  # the groups in order of first appearance
    if not inverse:
        return keys[starts[order]], sizes[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    group = np.empty(n, dtype=np.int64)
    group[position] = np.repeat(rank, sizes)
    return keys[starts[order]], sizes[order], group


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


def save_graph_cache(graphs: Sequence[WindowGraph], path) -> int:
    """Write a sequence of graphs to the binary cache that load_graph_cache reads. Returns graph count.

    The ASCII line ``canids-graph-cache v2``, the counts of windows k, nodes
    n and edges e (three little-endian int64s), then the columns of every
    window in order, each one array of all the windows' values:
    ``[start, label, num_nodes, num_edges]`` (k, 4) int64, the CAN IDs (n,)
    int64, the features (n, 3) float64, the edge sources and destinations
    (e,) int64 each and the weights (e,) float64, all little-endian. The
    counts come before the columns, so the graphs are a sequence (a list),
    not an iterator; each column is made as it is written. Every window's
    columns are checked before the file is opened: DimensionError naming the
    window (from 0) and the shapes unless its features are (num_nodes, 3)
    and its sources, destinations and weights (num_edges,).
    """
    k, n, e = len(graphs), 0, 0  # len(): an iterator is refused before any of it is read
    for i, g in enumerate(graphs):
        nodes, edges = g.num_nodes, g.num_edges
        try:
            shapes = g.node_features.shape, g.edge_src.shape, g.edge_dst.shape, g.edge_weight.shape
        except AttributeError:  # a column given as a list: np.shape is slower than .shape
            shapes = np.shape(g.node_features), np.shape(g.edge_src), np.shape(g.edge_dst), np.shape(g.edge_weight)
        if shapes != ((nodes, 3), (edges,), (edges,), (edges,)):
            raise DimensionError(f"window {i}: node_features must be {(nodes, 3)} and edge_src, edge_dst and "
                                 f"edge_weight {(edges,)}, got {', '.join(map(str, shapes))}")
        n, e = n + nodes, e + edges
    heads = ((g.window_start_index, g.label, g.num_nodes, g.num_edges) for g in graphs)
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<3q", k, n, e))
        fh.write(np.fromiter(itertools.chain.from_iterable(heads), dtype="<i8", count=4 * k))
        fh.write(np.fromiter(itertools.chain.from_iterable(g.node_ids for g in graphs), dtype="<i8", count=n))
        for name, empty in (("node_features", np.empty((0, 3), "<f8")), ("edge_src", np.empty(0, "<i8")),
                            ("edge_dst", np.empty(0, "<i8")), ("edge_weight", np.empty(0, "<f8"))):
            fh.write(np.concatenate([empty, *(getattr(g, name) for g in graphs)], dtype=empty.dtype))
    return k


def load_graph_cache(path) -> list[WindowGraph]:
    """Read a cache written by save_graph_cache, checking every window.

    The file must be exactly as long as its counts say, or no array is
    made. The values must hold: start, num_nodes and num_edges >= 0, and
    the windows' counts sum to the header's; label 0 or 1; can_id in [0,
    MAX_STD_ID] and not repeated within its window; features finite; src
    and dst in [0, num_nodes) of their window; weight finite and > 0. A
    broken rule raises ParseError naming the window (its index in the file,
    from 0) and the value. Each window's arrays are aligned, native and
    writable views of one array that holds the file's columns.
    """
    _, (heads, ids, feats, src, dst, wts) = read_columns(path, CACHE_MAGIC, "graph cache", _TEXT_CACHE, _cache_header)
    _check_windows(path, heads, ids, feats, src, dst, wts)
    node_ids = ids.tolist()
    # each window's first node and edge, kept as arrays: lists of Python ints would add to the load's peak
    node_at, edge_at = (np.concatenate(([0], np.cumsum(counts))) for counts in heads[:, 2:].T)
    starts, labels = heads[:, 0].tolist(), heads[:, 1].tolist()
    return [
        WindowGraph(node_ids[a:b], feats[a:b], src[c:d], dst[c:d], wts[c:d], label, start)
        for start, label, a, b, c, d in zip(starts, labels, node_at, node_at[1:], edge_at, edge_at[1:])
    ]


def _cache_header(path, fh, size):
    """The three counts of a cache and the (dtype, shape) of its columns, for ``read_columns``."""
    counts = fh.read(24)
    if len(counts) < 24:
        raise ParseError(f"{path}: graph cache cut short in its counts, {size} bytes")
    k, n, e = struct.unpack("<3q", counts)
    columns = [(np.int64, (k, 4)), (np.int64, (n,)), (np.float64, (n, 3)), *[(np.int64, (e,))] * 2, (np.float64, (e,))]
    return None, columns, f"{k} windows, {n} nodes and {e} edges do not fill the cache's {size} bytes"


def _check_windows(path, heads, ids, feats, src, dst, wts):
    """ParseError naming the first rule of load_graph_cache that the columns of a cache break, if any."""
    windows = np.arange(len(heads))
    _require(heads[:, 0] >= 0, heads[:, 0], windows, path, "window start must be >= 0")
    _require((heads[:, 1] == 0) | (heads[:, 1] == 1), heads[:, 1], windows, path, "label must be 0 or 1")
    _require(heads[:, 2:] >= 0, heads[:, 2:], windows, path, "node and edge counts must be >= 0")
    nodes, edges = (sum(counts.tolist()) for counts in heads[:, 2:].T)  # Python ints: no int64 wrap
    if (nodes, edges) != (len(ids), len(src)):
        raise ParseError(f"{path}: the windows hold {nodes} nodes and {edges} edges, the header says {len(ids)} "
                         f"and {len(src)}")
    node_window = np.repeat(windows, heads[:, 2])
    _require((ids >= 0) & (ids <= MAX_STD_ID), ids, node_window, path, f"node ID must be in [0, {MAX_STD_ID}]")
    keys = node_window * (MAX_STD_ID + 1) + ids
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():  # a repeat: name the first key whose group came before it
        group = _groups(keys, inverse=True)[2]  # numbered in order of first appearance
        first = np.ones(len(ids), dtype=bool)
        first[1:] = group[1:] > np.maximum.accumulate(group)[:-1]
        _require(first, ids, node_window, path, "node ID listed twice in one window")
    _require(np.isfinite(feats), feats, node_window, path, "node features must be finite")
    edge_window = np.repeat(windows, heads[:, 3])
    window_nodes = heads[:, 2].take(edge_window)
    _require((src >= 0) & (src < window_nodes), src, edge_window, path, "edge source must be in [0, num_nodes)")
    _require((dst >= 0) & (dst < window_nodes), dst, edge_window, path, "edge destination must be in [0, num_nodes)")
    _require((wts > 0.0) & (wts < math.inf), wts, edge_window, path, "edge weight must be finite and > 0")


def _require(ok: np.ndarray, values: np.ndarray, windows: np.ndarray, path, rule: str):
    """ParseError naming the window (``windows`` by row) and the value of the first False of ``ok``, if any."""
    if not ok.all():
        at = np.unravel_index(ok.argmin(), ok.shape)
        raise ParseError(f"{path}: window {windows[at[0]]}: {rule}, got {values[at]}")
