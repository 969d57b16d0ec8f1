"""Multi-head graph attention classifier with jumping-knowledge readout.

Message passing runs along edge direction (predecessor frame to successor
frame). Per head, attention logits over a node's in-neighbors are
softmax-normalized and used to mix the neighbors' projected features.
Edge multiplicity enters as a +log(weight) bias on the attention logit,
so repeated transitions attract proportionally more attention. Hidden
layers concatenate heads; the final layer aggregates per config. The
readout is jumping knowledge: each layer's output is mean-pooled over each
graph's nodes, and the pooled vectors of all layers are concatenated and
fed to a 2-logit softmax head. A batch of windows runs as one
disjoint-union graph (``GraphBatch``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError, StateError, quoted_value, require_finite, require_int
from .graphs import WindowGraph
from .losses import cross_entropy
from .metrics import Metrics
from .optim import Adam, Param, ParamModel, checked_step, derive_seed
from .tensor import Tensor, no_grad

IN_DIM = 3  # [normalized id, frequency, mean payload]


@dataclass(frozen=True)
class GatConfig:
    num_layers: int
    attn_heads: int
    hidden_channels: int
    head_agg: str = "average"  # final-layer head aggregation: average | concat
    leaky_slope: float = 0.2
    role: str = "custom"

    def __post_init__(self):
        for name in ("num_layers", "attn_heads", "hidden_channels"):
            require_int(name, getattr(self, name), 1)
        require_finite("leaky_slope", self.leaky_slope)
        if self.head_agg not in ("average", "concat"):
            raise ConfigError(f"head_agg must be average or concat, got {quoted_value(self.head_agg)}")

    @classmethod
    def teacher(cls) -> "GatConfig":
        return cls(num_layers=5, attn_heads=8, hidden_channels=32, role="teacher")

    @classmethod
    def student(cls) -> "GatConfig":
        return cls(num_layers=2, attn_heads=4, hidden_channels=16, role="student")

    def param_shapes(self) -> dict[str, tuple]:
        """The classifier's name -> shape table, in init order."""
        shapes: dict[str, tuple] = {}
        for layer, (d_in, agg, _) in enumerate(_layer_plan(self)):
            shapes.update(layer_shapes(f"conv{layer}", d_in, self.attn_heads, self.hidden_channels, agg))
        shapes["head.weight"] = (jk_width(self), 2)
        shapes["head.bias"] = (2,)
        return shapes


@dataclass
class GraphBatch:
    """Window graphs as one disjoint union: node rows concatenated, edges offset per graph.

    A single window is a batch of one. ``src``/``dst`` are the attention
    edges: the window's edges plus a weight-1 self-loop on every node with
    no in-edge, so every node has at least one attention target.
    ``edge_src``/``edge_dst`` are the observed edges alone, which the VGAE
    reconstructs.
    """

    graphs: tuple  # the WindowGraphs, in batch order
    x: Tensor  # (num_nodes, IN_DIM)
    src: np.ndarray
    dst: np.ndarray
    log_w: np.ndarray  # (len(src), 1), added to attention logits
    edge_src: np.ndarray
    edge_dst: np.ndarray
    node_ids: np.ndarray  # (num_nodes,) int64 CAN IDs
    graph_index: np.ndarray  # (num_nodes,) batch position of each node's graph
    node_counts: np.ndarray  # (num_graphs,)

    @property
    def num_graphs(self) -> int:
        return len(self.graphs)

    @functools.cached_property
    def src_index(self) -> T.SegmentIndex:
        """``src`` with the segment-sum keys that every attention layer over this batch shares."""
        return T.SegmentIndex(self.src)

    @functools.cached_property
    def dst_index(self) -> T.SegmentIndex:
        """``dst`` with the segment-sum keys that every attention layer over this batch shares."""
        return T.SegmentIndex(self.dst)

    @functools.cached_property
    def graph_segments(self) -> T.SegmentIndex:
        """``graph_index`` with the segment-sum keys that the readout's per-layer pooling shares."""
        return T.SegmentIndex(self.graph_index)

    @property
    def num_nodes(self) -> int:
        return len(self.graph_index)

    @property
    def window_starts(self) -> list[int]:
        return [g.window_start_index for g in self.graphs]

    @property
    def graph(self) -> WindowGraph:
        """The window of a batch of one."""
        if len(self.graphs) != 1:
            raise StateError(f"expected a batch of one window, got {len(self.graphs)}")
        return self.graphs[0]

    @classmethod
    def concat(cls, batches) -> "GraphBatch":
        batches = list(batches)
        if len(batches) == 1:
            return batches[0]
        offsets = np.cumsum([0] + [b.num_nodes for b in batches[:-1]])
        firsts = np.cumsum([0] + [b.num_graphs for b in batches[:-1]])

        def joined(name, shifts=None):
            parts = [getattr(b, name) for b in batches]
            if shifts is not None:
                parts = [part + shift for part, shift in zip(parts, shifts)]
            return np.concatenate(parts)

        return cls(
            graphs=tuple(g for b in batches for g in b.graphs),
            x=Tensor(np.concatenate([b.x.values for b in batches])),
            src=joined("src", offsets),
            dst=joined("dst", offsets),
            log_w=joined("log_w"),
            edge_src=joined("edge_src", offsets),
            edge_dst=joined("edge_dst", offsets),
            node_ids=joined("node_ids"),
            graph_index=joined("graph_index", firsts),
            node_counts=joined("node_counts"),
        )


def prepare_graph(graph: WindowGraph) -> GraphBatch:
    """One window as a batch of one."""
    n = graph.num_nodes
    if n == 0:
        raise StateError("empty graph")
    src, dst, w = graph.edge_src, graph.edge_dst, graph.edge_weight
    # in a batch, an out-of-range index would silently point into a neighbouring graph
    if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise DimensionError(f"window {graph.window_start_index}: edge index out of range for {n} nodes")
    in_deg = np.bincount(dst, minlength=n)
    isolated = np.flatnonzero(in_deg == 0)
    if isolated.size:
        src = np.concatenate([src, isolated])
        dst = np.concatenate([dst, isolated])
        w = np.concatenate([w, np.ones(isolated.size)])
    return GraphBatch(
        graphs=(graph,),
        x=Tensor(graph.node_features),
        src=src,
        dst=dst,
        log_w=np.log(w)[:, None],
        edge_src=graph.edge_src,
        edge_dst=graph.edge_dst,
        node_ids=np.asarray(graph.node_ids, dtype=np.int64),
        graph_index=np.zeros(n, dtype=np.int64),
        node_counts=np.array([n], dtype=np.int64),
    )


def as_batch(graph) -> GraphBatch:
    """A GraphBatch passes through; a WindowGraph becomes a batch of one."""
    return graph if isinstance(graph, GraphBatch) else prepare_graph(graph)


def train_epochs(graphs, params, epochs: int, batch_size: int, lr: float, shuffle_rng, batch_loss):
    """The epoch loop of both trainers: Adam over ``params``, yielding each epoch's mean loss.

    Each epoch shuffles the windows with ``shuffle_rng`` and steps once per
    GraphBatch of ``batch_size`` on ``batch_loss(batch, members)``, the mean
    over its windows at positions ``members`` of ``graphs``. Leaving the loop
    stops training. Raises StateError on a non-finite loss or gradient norm.
    """
    preps = [as_batch(g) for g in graphs]
    opt = Adam(list(params), lr=lr)
    order = np.arange(len(preps))
    for epoch in range(epochs):
        shuffle_rng.shuffle(order)
        total = 0.0
        for step, lo in enumerate(range(0, len(order), batch_size)):
            members = order[lo : lo + batch_size]
            batch = GraphBatch.concat(preps[i] for i in members)
            opt.zero_grad()
            loss = batch_loss(batch, members)
            checked_step(opt, loss, lambda: f"epoch {epoch}, batch {step}, windows {batch.window_starts}")
            total += loss.item() * len(members)
        yield total / len(order)


def layer_shapes(name: str, d_in: int, heads: int, d_head: int, agg: str) -> dict[str, tuple]:
    """One attention layer's entries of a model's table, in ``GatLayerParams`` order."""
    return {
        f"{name}.weight": (d_in, heads * d_head),
        f"{name}.att_src": (heads, d_head),
        f"{name}.att_dst": (heads, d_head),
        f"{name}.bias": (heads * d_head if agg == "concat" else d_head,),
    }


class GatLayerParams(NamedTuple):
    """One attention layer's parameters, looked up in the table once, at construction."""

    weight: Param  # (d_in, heads * d_head)
    att_src: Param  # (heads, d_head)
    att_dst: Param  # (heads, d_head)
    bias: Param  # (heads * d_head,) for concat, (d_head,) for average

    @classmethod
    def of(cls, table: dict[str, Param], name: str) -> "GatLayerParams":
        return cls(*(table[f"{name}.{part}"] for part in cls._fields))


def gat_layer(
    h: Tensor,
    prep: GraphBatch,
    params: GatLayerParams,
    heads: int,
    d_head: int,
    slope: float,
    agg: str = "concat",
) -> Tensor:
    """One attention convolution: ELU(aggregate(alpha * Wh))."""
    n = prep.num_nodes
    wh = (h @ params.weight.tensor).reshape((n, heads, d_head))
    out, _ = T.graph_attention(
        wh, params.att_src.tensor, params.att_dst.tensor, prep.log_w, prep.src_index, prep.dst_index, slope
    )  # (n, heads, d_head)
    if agg == "concat":
        out = out.reshape((n, heads * d_head))
    else:
        out = out.mean(axis=1)
    return T.elu(out + params.bias.tensor)


def _layer_plan(config: GatConfig) -> list[tuple[int, str, int]]:
    """(input width, aggregation, output width) per layer; hidden layers always concat."""
    plan = []
    d_in = IN_DIM
    for layer in range(config.num_layers):
        agg = config.head_agg if layer == config.num_layers - 1 else "concat"
        d_out = config.hidden_channels * (config.attn_heads if agg == "concat" else 1)
        plan.append((d_in, agg, d_out))
        d_in = d_out
    return plan


def jk_width(config: GatConfig) -> int:
    return sum(d_out for _, _, d_out in _layer_plan(config))


class GatClassifier(ParamModel):
    kind = "gat"
    config_type = GatConfig

    def __init__(self, config: GatConfig, seed: int = 0, param_values: dict | None = None):
        super().__init__(config, derive_seed(seed, 11), param_values)
        plan = _layer_plan(config)
        self.layers = [(GatLayerParams.of(self.table, f"conv{i}"), agg) for i, (_, agg, _) in enumerate(plan)]

    def forward(self, batch: GraphBatch):
        """Per graph of the batch: (attack probability, 2 logits, embedding).

        Shapes (num_graphs,), (num_graphs, 2) and (num_graphs, jk_width).
        """
        cfg = self.config
        h = batch.x
        per_layer = []
        for layer_params, agg in self.layers:
            h = gat_layer(h, batch, layer_params, cfg.attn_heads, cfg.hidden_channels, cfg.leaky_slope, agg)
            per_layer.append(h)
        # graph-level vectors, exported for projection: mean pooling commutes with the jumping-knowledge
        # concatenation entry for entry, so each layer is pooled and the pooled rows are concatenated
        embedding = T.segment_mean_concat(per_layer, batch.graph_segments, batch.node_counts)
        logits = T.linear(embedding, self.table["head.weight"].tensor, self.table["head.bias"].tensor)
        prob = T.softmax(logits, axis=-1)[:, 1]
        return prob, logits, embedding

    def predict_prob(self, batch: GraphBatch) -> float:
        """Attack probability of a batch of one."""
        with no_grad():
            prob, _, _ = self.forward(batch)
        return prob.item()

    def embed(self, batch: GraphBatch) -> np.ndarray:
        """(num_graphs, jk_width) graph embeddings."""
        with no_grad():
            _, _, emb = self.forward(batch)
        return emb.values


@dataclass
class TrainingLog:
    epoch_losses: list[float] = field(default_factory=list)
    val_f1: list[float] = field(default_factory=list)
    best_epoch: int = -1


def train_supervised(
    graphs,
    labels,
    config: GatConfig,
    seed: int,
    epochs: int = 50,
    batch_size: int = 64,
    lr: float = 1e-2,
    val_graphs=None,
    patience: int = 10,
    loss_fn=None,
) -> tuple[GatClassifier, TrainingLog]:
    """Train a classifier on mean per-batch BCE through train_epochs.

    With ``val_graphs``, stops early once F1 against their labels has not
    improved for ``patience`` epochs and restores the best parameters; the
    stop is deferred until 2*patience epochs have run, so a model still on
    its initial plateau is not cut off just before it starts to learn.
    ``loss_fn(model, batch, labels)`` gives the mean loss over the batch's
    windows; overriding it is how distillation reuses this loop.
    """
    labels = np.array([int(l) for l in labels], dtype=np.int64)
    present = set(labels.tolist())
    if present != {0, 1}:
        missing = sorted({0, 1} - present)
        raise ConfigError(f"training data lacks class(es) {missing}; need both labels")
    if val_graphs is not None:
        val_batch = GraphBatch.concat(as_batch(g) for g in val_graphs)
        val_truths = [g.label for g in val_graphs]

    model = GatClassifier(config, seed=seed)
    if loss_fn is None:
        # BCE of the attack probability, evaluated on the 2-logit softmax via
        # cross-entropy: identical objective, bounded gradients (p - onehot)
        def loss_fn(mdl, batch, batch_labels):
            _, logits, _ = mdl.forward(batch)
            return cross_entropy(logits, batch_labels)

    log, best_values = TrainingLog(), None
    losses = train_epochs(
        graphs, model.params(), epochs, batch_size, lr, derive_seed(seed, 12),
        lambda batch, members: loss_fn(model, batch, labels[members]),
    )
    for epoch, loss in enumerate(losses):
        log.epoch_losses.append(loss)
        if val_graphs is None:
            continue
        with no_grad():
            probs, _, _ = model.forward(val_batch)
        log.val_f1.append(Metrics.from_pairs(val_truths, [1 if p >= 0.5 else 0 for p in probs.values]).f1)
        if log.val_f1[-1] > max(log.val_f1[:-1], default=-1.0):
            log.best_epoch, best_values = epoch, {k: v.copy() for k, v in model.param_values().items()}
        elif epoch - log.best_epoch >= patience and epoch + 1 >= 2 * patience:
            break

    if best_values is not None:
        for p in model.params():
            p.tensor.values = best_values[p.name]
    return model, log
