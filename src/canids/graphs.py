"""Sliding-window graph construction from CAN frame streams.

Each window of W consecutive frames becomes one graph: nodes are the
distinct CAN IDs (ordered by first appearance), edges link the IDs of
consecutive frames (self-edges included) with multiplicity weights, and
node features are [can_id/2047, count/W, mean payload byte/255]. Edge
weights over a window always sum to W-1.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .canlog import CanFrame, Label, MAX_STD_ID
from .errors import ConfigError, ParseError, StateError, open_ascii

CACHE_MAGIC = "canids-graph-cache v1"


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
    pairs instead.
    """
    if window_size < 2:
        raise ConfigError(f"window_size must be >= 2, got {window_size}")
    if stride is None:
        stride = window_size
    if not 1 <= stride <= window_size:
        raise ConfigError(f"stride must be in [1, {window_size}], got {stride}")

    if stride == 1 and directed:
        yield from _stride_one_windows(frames, window_size)
        return
    # one record per frame, made as it enters the buffer: at stride 1 each
    # frame sits in W windows, and its record is all a window reads of it
    buf: list[tuple[int, int, int, bool]] = []
    start = 0
    attack = Label.ATTACK
    for _, can_id, dlc, payload, label in frames:
        buf.append((can_id, sum(payload), dlc, label == attack))
        if len(buf) == window_size:
            yield _window_to_graph(buf, start, directed)
            del buf[:stride]
            start += stride


def _window_to_graph(
    window: Sequence[tuple[int, int, int, bool]], start: int, directed: bool
) -> WindowGraph:
    """One graph from the (can_id, payload sum, dlc, is attack) records of a window."""
    w = len(window)
    index: dict[int, int] = {}
    counts: list[int] = []
    payload_sum: list[int] = []
    payload_n: list[int] = []
    seq: list[int] = []  # node index of each frame
    for can_id, psum, dlc, _ in window:
        j = index.get(can_id)
        if j is None:
            j = len(index)
            index[can_id] = j
            counts.append(0)
            payload_sum.append(0)
            payload_n.append(0)
        counts[j] += 1
        payload_sum[j] += psum
        payload_n[j] += dlc
        seq.append(j)

    edge_counts: dict[tuple[int, int], int] = {}
    for key in zip(seq[:-1], seq[1:]):
        if not directed and key[0] > key[1]:
            key = (key[1], key[0])
        edge_counts[key] = edge_counts.get(key, 0) + 1

    label = int(any(rec[3] for rec in window))
    return _graph(list(index), counts, payload_sum, payload_n, edge_counts, w, label, start)


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
    window equals the one ``_window_to_graph`` builds from its frames alone.
    """
    attack = Label.ATTACK
    window: deque = deque()  # (can_id, payload sum, dlc, is attack), oldest first
    ids: dict[int, list] = {}  # can_id -> [positions, payload sum, dlc sum]
    moves: dict[tuple[int, int], deque] = {}  # (a, b) -> positions of a
    attacks = 0
    prev = None
    for pos, (_, can_id, dlc, payload, label) in enumerate(frames):
        rec = (can_id, sum(payload), dlc, label == attack)
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

    Format (floats via repr, reload is bit-exact):
        canids-graph-cache v1
        graph <window_start_index> <label> <num_nodes> <num_edges>
        node <can_id> <feat0> <feat1> <feat2>     x num_nodes
        edge <src> <dst> <weight>                 x num_edges
    """
    n = 0
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CACHE_MAGIC + "\n")
        for g in graphs:
            # tolist() gives Python ints and floats: one conversion per array, one write per window
            feats = g.node_features.tolist()
            edges = zip(g.edge_src.tolist(), g.edge_dst.tolist(), g.edge_weight.tolist())
            lines = [f"graph {g.window_start_index} {g.label} {g.num_nodes} {g.num_edges}\n"]
            lines += [f"node {cid} {f0!r} {f1!r} {f2!r}\n" for cid, (f0, f1, f2) in zip(g.node_ids, feats)]
            lines += [f"edge {s} {d} {w!r}\n" for s, d, w in edges]
            fh.write("".join(lines))
            n += 1
    return n


def load_graph_cache(path) -> list[WindowGraph]:
    """Read a cache written by save_graph_cache; a malformed record raises ParseError with its line number."""
    with open_ascii(path) as fh:
        header = fh.readline().strip()
        if header != CACHE_MAGIC:
            raise ParseError(f"{path}: not a graph cache (header {header!r})")
        graphs: list[WindowGraph] = []
        lineno = 1
        line = fh.readline()
        lineno += 1
        inf = math.inf  # a local: the edge loop below runs once per edge
        try:
            while line:
                parts = line.split()
                if len(parts) != 5 or parts[0] != "graph":
                    raise ParseError(f"expected graph record, got {line.strip()!r}", line=lineno)
                start, label, n_nodes, n_edges = (int(x) for x in parts[1:])
                node_ids: list[int] = []
                feats = np.empty((n_nodes, 3), dtype=np.float64)
                for j in range(n_nodes):
                    parts = fh.readline().split()
                    lineno += 1
                    if len(parts) != 5 or parts[0] != "node":
                        raise ParseError("expected node record", line=lineno)
                    node_ids.append(int(parts[1]))
                    feats[j] = [float(parts[2]), float(parts[3]), float(parts[4])]
                src = np.empty(n_edges, dtype=np.int64)
                dst = np.empty(n_edges, dtype=np.int64)
                wts = np.empty(n_edges, dtype=np.float64)
                for k in range(n_edges):
                    parts = fh.readline().split()
                    lineno += 1
                    if len(parts) != 4 or parts[0] != "edge":
                        raise ParseError("expected edge record", line=lineno)
                    weight = float(parts[3])
                    if not 0.0 < weight < inf:  # prepare_graph takes log(weight)
                        raise ParseError(f"edge weight must be finite and > 0, got {parts[3]}", line=lineno)
                    src[k], dst[k], wts[k] = int(parts[1]), int(parts[2]), weight
                graphs.append(WindowGraph(node_ids, feats, src, dst, wts, label, start))
                line = fh.readline()
                lineno += 1
        except UnicodeDecodeError:
            raise  # open_ascii names the line
        except ValueError as exc:
            raise ParseError(f"{path}: bad graph cache record ({exc})", line=lineno) from None
    return graphs
