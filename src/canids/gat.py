"""Multi-head graph attention classifier with jumping-knowledge readout.

Message passing runs along edge direction (predecessor frame to successor
frame). Per head, attention logits over a node's in-neighbors are
softmax-normalized and used to mix the neighbors' projected features.
Edge multiplicity enters as a +log(weight) bias on the attention logit,
so repeated transitions attract proportionally more attention. Hidden
layers concatenate heads; the final layer aggregates per config. Every
layer output is concatenated per node (jumping knowledge), mean-pooled
over each graph's nodes, and fed to a 2-logit softmax head. A batch of
windows runs as one disjoint-union graph (``GraphBatch``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint, validate_params
from .errors import ConfigError, DimensionError, StateError
from .graphs import WindowGraph
from .losses import cross_entropy
from .optim import Adam, Param, check_unique_names, checked_step, derive_seed, glorot_uniform
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
        if self.num_layers < 1 or self.attn_heads < 1 or self.hidden_channels < 1:
            raise ConfigError("num_layers, attn_heads, hidden_channels must be >= 1")
        if self.head_agg not in ("average", "concat"):
            raise ConfigError(f"head_agg must be average or concat, got {self.head_agg!r}")

    @classmethod
    def teacher(cls) -> "GatConfig":
        return cls(num_layers=5, attn_heads=8, hidden_channels=32, role="teacher")

    @classmethod
    def student(cls) -> "GatConfig":
        return cls(num_layers=2, attn_heads=4, hidden_channels=16, role="student")

    def to_dict(self) -> dict:
        return {
            "num_layers": self.num_layers,
            "attn_heads": self.attn_heads,
            "hidden_channels": self.hidden_channels,
            "head_agg": self.head_agg,
            "leaky_slope": self.leaky_slope,
            "role": self.role,
        }

    @classmethod
    def from_dict(cls, d) -> "GatConfig":
        return cls(**d)


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
    log_w: Tensor  # (len(src), 1), added to attention logits
    edge_src: np.ndarray
    edge_dst: np.ndarray
    id_buckets: np.ndarray  # can_id modulo bucket count, for the VGAE decoder
    graph_index: np.ndarray  # (num_nodes,) batch position of each node's graph
    node_counts: np.ndarray  # (num_graphs,)

    @property
    def num_graphs(self) -> int:
        return len(self.graphs)

    @property
    def num_nodes(self) -> int:
        return len(self.graph_index)

    @property
    def node_offsets(self) -> np.ndarray:
        """Row of each graph's first node."""
        return np.cumsum(self.node_counts) - self.node_counts

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
            log_w=Tensor(np.concatenate([b.log_w.values for b in batches])),
            edge_src=joined("edge_src", offsets),
            edge_dst=joined("edge_dst", offsets),
            id_buckets=joined("id_buckets"),
            graph_index=joined("graph_index", firsts),
            node_counts=joined("node_counts"),
        )


def prepare_graph(graph: WindowGraph, id_bucket_count: int = 256) -> GraphBatch:
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
        log_w=Tensor(np.log(w)[:, None]),
        edge_src=graph.edge_src,
        edge_dst=graph.edge_dst,
        id_buckets=np.asarray(graph.node_ids, dtype=np.int64) % id_bucket_count,
        graph_index=np.zeros(n, dtype=np.int64),
        node_counts=np.array([n], dtype=np.int64),
    )


def as_batch(graph, id_bucket_count: int = 256) -> GraphBatch:
    """A GraphBatch passes through; a WindowGraph becomes a batch of one."""
    return graph if isinstance(graph, GraphBatch) else prepare_graph(graph, id_bucket_count)


@dataclass
class GatLayerParams:
    weight: Param  # (d_in, heads * d_head)
    att_src: Param  # (heads, d_head)
    att_dst: Param  # (heads, d_head)
    bias: Param  # (heads * d_head,) for concat, (d_head,) for average

    def all(self) -> list[Param]:
        return [self.weight, self.att_src, self.att_dst, self.bias]


def init_gat_layer(rng, name: str, d_in: int, heads: int, d_head: int, agg: str) -> GatLayerParams:
    d_out = heads * d_head
    return GatLayerParams(
        weight=Param(f"{name}.weight", Tensor(glorot_uniform(rng, (d_in, d_out), d_in, d_out), requires_grad=True)),
        att_src=Param(f"{name}.att_src", Tensor(glorot_uniform(rng, (heads, d_head), d_head, 1), requires_grad=True)),
        att_dst=Param(f"{name}.att_dst", Tensor(glorot_uniform(rng, (heads, d_head), d_head, 1), requires_grad=True)),
        bias=Param(f"{name}.bias", Tensor(np.zeros(d_out if agg == "concat" else d_head), requires_grad=True)),
    )


def gat_layer(
    h: Tensor,
    prep: GraphBatch,
    params: GatLayerParams,
    heads: int,
    d_head: int,
    slope: float,
    agg: str = "concat",
    collect_attention: list | None = None,
) -> Tensor:
    """One attention convolution: ELU(aggregate(alpha * Wh))."""
    n = prep.num_nodes
    e = len(prep.src)
    wh = (h @ params.weight.tensor).reshape((n, heads, d_head))
    wh_src = T.gather_rows(wh, prep.src)
    wh_dst = T.gather_rows(wh, prep.dst)
    logits = (wh_src * params.att_src.tensor).sum(axis=2) + (
        wh_dst * params.att_dst.tensor
    ).sum(axis=2)
    logits = T.leaky_relu(logits, slope) + prep.log_w  # (e, heads)

    # per-(destination, head) max, detached, for a stable softmax
    peak = np.full((n, heads), -np.inf)
    np.maximum.at(peak, prep.dst, logits.values)
    exp_l = T.exp(logits - peak[prep.dst])
    denom = T.scatter_add_rows(exp_l, prep.dst, n)
    alpha = exp_l / T.gather_rows(denom, prep.dst)
    if collect_attention is not None:
        collect_attention.append((alpha.values.copy(), prep.dst.copy(), n))

    msg = wh_src * alpha.reshape((e, heads, 1))
    out = T.scatter_add_rows(msg, prep.dst, n)  # (n, heads, d_head)
    if agg == "concat":
        out = out.reshape((n, heads * d_head))
    else:
        out = out.mean(axis=1)
    return T.elu(out + params.bias.tensor)


def _layer_plan(config: GatConfig, in_dim: int = IN_DIM) -> list[tuple[int, str]]:
    """(input width, aggregation) per layer; hidden layers always concat."""
    plan = []
    d_in = in_dim
    for layer in range(config.num_layers):
        final = layer == config.num_layers - 1
        agg = config.head_agg if final else "concat"
        plan.append((d_in, agg))
        d_in = config.hidden_channels * (config.attn_heads if agg == "concat" else 1)
    return plan


def jk_width(config: GatConfig) -> int:
    return sum(
        config.hidden_channels * (config.attn_heads if agg == "concat" else 1)
        for _, agg in _layer_plan(config)
    )


def expected_param_shapes(config: GatConfig, in_dim: int = IN_DIM) -> dict[str, tuple]:
    shapes: dict[str, tuple] = {}
    k, hc = config.attn_heads, config.hidden_channels
    for layer, (d_in, agg) in enumerate(_layer_plan(config, in_dim)):
        name = f"conv{layer}"
        shapes[f"{name}.weight"] = (d_in, k * hc)
        shapes[f"{name}.att_src"] = (k, hc)
        shapes[f"{name}.att_dst"] = (k, hc)
        shapes[f"{name}.bias"] = (k * hc,) if agg == "concat" else (hc,)
    shapes["head.weight"] = (jk_width(config), 2)
    shapes["head.bias"] = (2,)
    return shapes


def count_params(config: GatConfig, in_dim: int = IN_DIM) -> int:
    """Exact trainable-scalar count for the instantiated architecture."""
    return sum(
        int(np.prod(shape)) for shape in expected_param_shapes(config, in_dim).values()
    )


class GatClassifier:
    def __init__(self, config: GatConfig, seed: int = 0, param_values: dict | None = None):
        self.config = config
        rng = derive_seed(seed, 11)
        self.layers: list[GatLayerParams] = []
        for layer, (d_in, agg) in enumerate(_layer_plan(config)):
            self.layers.append(
                init_gat_layer(rng, f"conv{layer}", d_in, config.attn_heads, config.hidden_channels, agg)
            )
        jk = jk_width(config)
        self.head_weight = Param("head.weight", Tensor(glorot_uniform(rng, (jk, 2), jk, 2), requires_grad=True))
        self.head_bias = Param("head.bias", Tensor(np.zeros(2), requires_grad=True))
        check_unique_names(self.params())
        if param_values is not None:
            validate_params(param_values, expected_param_shapes(config), "gat")
            for p in self.params():
                p.tensor.values = np.array(param_values[p.name], dtype=np.float64)

    def params(self) -> list[Param]:
        out: list[Param] = []
        for layer in self.layers:
            out.extend(layer.all())
        out.extend([self.head_weight, self.head_bias])
        return out

    def param_values(self) -> dict[str, np.ndarray]:
        return {p.name: p.tensor.values for p in self.params()}

    def forward(self, batch: GraphBatch, collect_attention: list | None = None):
        """Per graph of the batch: (attack probability, 2 logits, embedding).

        Shapes (num_graphs,), (num_graphs, 2) and (num_graphs, jk_width).
        """
        cfg = self.config
        h = batch.x
        per_layer = []
        for layer_params, (_, agg) in zip(self.layers, _layer_plan(cfg)):
            h = gat_layer(
                h, batch, layer_params, cfg.attn_heads, cfg.hidden_channels,
                cfg.leaky_slope, agg, collect_attention,
            )
            per_layer.append(h)
        jk = per_layer[0] if len(per_layer) == 1 else T.concat(per_layer, axis=1)
        # graph-level vectors, exported for projection
        embedding = T.segment_mean(jk, batch.graph_index, batch.node_counts)
        logits = embedding @ self.head_weight.tensor + self.head_bias.tensor
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

    def save(self, path):
        save_checkpoint(path, "gat", self.config.to_dict(), self.param_values())

    @classmethod
    def load(cls, path) -> "GatClassifier":
        kind, config, params = load_checkpoint(path)
        if kind != "gat":
            raise StateError(f"{path}: expected a gat checkpoint, found {kind!r}")
        return cls(GatConfig.from_dict(config), param_values=params)


def _binary_f1(truths, preds) -> float:
    tp = sum(1 for t, p in zip(truths, preds) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(truths, preds) if t == 0 and p == 1)
    fn = sum(1 for t, p in zip(truths, preds) if t == 1 and p == 0)
    return 2.0 * tp / (2.0 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0


@dataclass
class TrainingLog:
    epoch_losses: list[float] = field(default_factory=list)
    val_f1: list[float] = field(default_factory=list)
    best_epoch: int = -1
    seconds: float = 0.0


def train_supervised(
    graphs,
    labels,
    config: GatConfig,
    seed: int,
    epochs: int = 50,
    batch_size: int = 64,
    lr: float = 1e-2,
    val_graphs=None,
    val_labels=None,
    patience: int = 10,
    loss_fn=None,
    grad_clip: float | None = 5.0,
    min_epochs: int | None = None,
) -> tuple[GatClassifier, TrainingLog]:
    """Train a classifier with Adam on mean per-batch BCE.

    Each mini-batch is one GraphBatch and takes one forward and backward
    pass. With a validation set, stops early once validation F1 has not
    improved for ``patience`` epochs and restores the best parameters; the
    stop is deferred until ``min_epochs`` (default 2*patience) so a model
    still on its initial plateau is not cut off just before it starts to
    learn. ``loss_fn(model, batch, labels)`` gives the mean loss over the
    batch's windows; overriding it is how distillation reuses this loop.
    Raises StateError on a non-finite loss or gradient norm.
    """
    if min_epochs is None:
        min_epochs = 2 * patience
    labels = np.array([int(l) for l in labels], dtype=np.int64)
    present = set(labels.tolist())
    if present != {0, 1}:
        missing = sorted({0, 1} - present)
        raise ConfigError(f"training data lacks class(es) {missing}; need both labels")
    preps = [as_batch(g) for g in graphs]
    val_batch = None
    if val_graphs is not None:
        val_batch = GraphBatch.concat(as_batch(g) for g in val_graphs)
        val_truths = [int(l) for l in val_labels]

    model = GatClassifier(config, seed=seed)
    opt = Adam(model.params(), lr=lr)
    shuffle_rng = derive_seed(seed, 12)
    if loss_fn is None:
        # BCE of the attack probability, evaluated on the 2-logit softmax via
        # cross-entropy: identical objective, bounded gradients (p - onehot)
        def loss_fn(mdl, batch, batch_labels):
            _, logits, _ = mdl.forward(batch)
            return cross_entropy(logits, batch_labels)

    log = TrainingLog()
    t0 = time.perf_counter()
    best_f1, best_values, best_epoch, since_best = -1.0, None, -1, 0
    order = np.arange(len(preps))
    for epoch in range(epochs):
        shuffle_rng.shuffle(order)
        total = 0.0
        for step, lo in enumerate(range(0, len(order), batch_size)):
            members = order[lo : lo + batch_size]
            batch = GraphBatch.concat(preps[i] for i in members)
            opt.zero_grad()
            loss = loss_fn(model, batch, labels[members])
            checked_step(opt, loss, grad_clip, lambda: f"epoch {epoch}, batch {step}, windows {batch.window_starts}")
            total += loss.item() * len(members)
        log.epoch_losses.append(total / len(order))

        if val_batch is not None:
            with no_grad():
                probs, _, _ = model.forward(val_batch)
            preds = [1 if p >= 0.5 else 0 for p in probs.values]
            f1 = _binary_f1(val_truths, preds)
            log.val_f1.append(f1)
            if f1 > best_f1:
                best_f1, best_epoch, since_best = f1, epoch, 0
                best_values = {k: v.copy() for k, v in model.param_values().items()}
            else:
                since_best += 1
                if since_best >= patience and epoch + 1 >= min_epochs:
                    break

    if best_values is not None:
        for p in model.params():
            p.tensor.values = best_values[p.name]
        log.best_epoch = best_epoch
    log.seconds = time.perf_counter() - t0
    return model, log
