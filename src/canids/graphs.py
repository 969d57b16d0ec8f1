"""Sliding-window graph construction from CAN frame streams.

Each window of W consecutive frames becomes one graph: nodes are the
distinct CAN IDs (ordered by first appearance), edges link the IDs of
consecutive frames (self-edges included) with multiplicity weights, and
node features are [can_id/2047, count/W, mean payload byte/255]. Edge
weights over a window always sum to W-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .canlog import CanFrame, Label, MAX_STD_ID
from .errors import ConfigError, ParseError, StateError

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
    overlapped stream used for online scoring. With ``directed=False``
    transition counts are accumulated on unordered ID pairs instead.
    """
    if window_size < 2:
        raise ConfigError(f"window_size must be >= 2, got {window_size}")
    if stride is None:
        stride = window_size
    if not 1 <= stride <= window_size:
        raise ConfigError(f"stride must be in [1, {window_size}], got {stride}")

    buf: list[CanFrame] = []
    start = 0
    for frame in frames:
        buf.append(frame)
        if len(buf) == window_size:
            yield _window_to_graph(buf, start, directed)
            del buf[:stride]
            start += stride


def _window_to_graph(window: Sequence[CanFrame], start: int, directed: bool) -> WindowGraph:
    w = len(window)
    index: dict[int, int] = {}
    counts: list[int] = []
    payload_sum: list[int] = []
    payload_n: list[int] = []
    for f in window:
        j = index.get(f.can_id)
        if j is None:
            j = len(index)
            index[f.can_id] = j
            counts.append(0)
            payload_sum.append(0)
            payload_n.append(0)
        counts[j] += 1
        payload_sum[j] += sum(f.payload)
        payload_n[j] += f.dlc

    node_ids = list(index.keys())
    n = len(node_ids)
    feats = np.empty((n, 3), dtype=np.float64)
    for j, cid in enumerate(node_ids):
        mean_payload = payload_sum[j] / payload_n[j] if payload_n[j] else 0.0
        feats[j, 0] = cid / MAX_STD_ID
        feats[j, 1] = counts[j] / w
        feats[j, 2] = mean_payload / 255.0

    edge_counts: dict[tuple[int, int], int] = {}
    for a, b in zip(window[:-1], window[1:]):
        key = (index[a.can_id], index[b.can_id])
        if not directed and key[0] > key[1]:
            key = (key[1], key[0])
        edge_counts[key] = edge_counts.get(key, 0) + 1

    src = np.fromiter((k[0] for k in edge_counts), dtype=np.int64, count=len(edge_counts))
    dst = np.fromiter((k[1] for k in edge_counts), dtype=np.int64, count=len(edge_counts))
    wts = np.fromiter(edge_counts.values(), dtype=np.float64, count=len(edge_counts))

    label = int(any(f.label == Label.ATTACK for f in window))
    return WindowGraph(node_ids, feats, src, dst, wts, label, start)


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
            fh.write(f"graph {g.window_start_index} {g.label} {g.num_nodes} {g.num_edges}\n")
            for j, cid in enumerate(g.node_ids):
                f0, f1, f2 = (float(v) for v in g.node_features[j])
                fh.write(f"node {cid} {f0!r} {f1!r} {f2!r}\n")
            for s, d, w in zip(g.edge_src, g.edge_dst, g.edge_weight):
                fh.write(f"edge {int(s)} {int(d)} {float(w)!r}\n")
            n += 1
    return n


def load_graph_cache(path) -> list[WindowGraph]:
    """Read a cache written by save_graph_cache; a malformed record raises ParseError with its line number."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != CACHE_MAGIC:
            raise ParseError(f"{path}: not a graph cache (header {header!r})")
        graphs: list[WindowGraph] = []
        lineno = 1
        line = fh.readline()
        lineno += 1
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
                    src[k], dst[k], wts[k] = int(parts[1]), int(parts[2]), float(parts[3])
                graphs.append(WindowGraph(node_ids, feats, src, dst, wts, label, start))
                line = fh.readline()
                lineno += 1
        except ValueError as exc:
            raise ParseError(f"{path}: bad graph cache record ({exc})", line=lineno) from None
    return graphs
