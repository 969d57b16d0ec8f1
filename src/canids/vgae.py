"""Variational graph autoencoder for anomaly scoring of CAN windows.

The encoder stacks attention convolutions (shared with the classifier)
and two parallel linear heads for the per-node Gaussian posterior. Three
decoders reconstruct the window: an inner-product head for adjacency, a
small perceptron for the node features, and a bucketed CAN-ID predictor.
Their per-term mean errors combine into the composite anomaly score
alpha*E_node + beta*E_neighbor + gamma*E_CAN_ID.

Trained on benign windows only; attack windows then reconstruct poorly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint, validate_params
from .errors import ConfigError, StateError
from .gat import GatLayerParams, GraphBatch, as_batch, gat_layer, init_gat_layer, IN_DIM
from .losses import bce_terms, cross_entropy_terms, kl_gaussian_standard
from .optim import Adam, Param, check_unique_names, checked_step, derive_seed, glorot_uniform
from .tensor import Tensor, no_grad

LOG_SIGMA_CLAMP = 10.0  # keeps KL finite on degenerate one-node graphs

# stream tags for derived seeds
_SEED_INIT, _SEED_NOISE, _SEED_NEG_TRAIN, _SEED_SHUFFLE, _SEED_NEG_SCORE = 31, 32, 33, 34, 35


@dataclass(frozen=True)
class VgaeConfig:
    num_layers: int
    attn_heads: int
    hidden_channels: int
    latent_dim: int
    role: str = "custom"
    id_buckets: int = 256

    def __post_init__(self):
        if self.num_layers < 2:
            raise ConfigError("VGAE needs num_layers >= 2 (conv stack plus posterior heads)")
        if self.latent_dim < 1 or self.attn_heads < 1 or self.hidden_channels < 1:
            raise ConfigError("latent_dim, attn_heads, hidden_channels must be >= 1")
        if self.id_buckets < 2:
            raise ConfigError("id_buckets must be >= 2")

    @classmethod
    def teacher(cls) -> "VgaeConfig":
        return cls(num_layers=3, attn_heads=4, hidden_channels=32, latent_dim=16, role="teacher")

    @classmethod
    def student(cls) -> "VgaeConfig":
        return cls(num_layers=2, attn_heads=2, hidden_channels=16, latent_dim=8, role="student")

    def to_dict(self) -> dict:
        return {
            "num_layers": self.num_layers,
            "attn_heads": self.attn_heads,
            "hidden_channels": self.hidden_channels,
            "latent_dim": self.latent_dim,
            "role": self.role,
            "id_buckets": self.id_buckets,
        }

    @classmethod
    def from_dict(cls, d) -> "VgaeConfig":
        return cls(**d)


@dataclass(frozen=True)
class CompositeWeights:
    alpha: float = 1.0  # node feature term
    beta: float = 20.0  # neighborhood term
    gamma: float = 0.3  # CAN-ID term

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ConfigError("composite weights must be non-negative")


def combine_errors(weights: CompositeWeights, e_node: float, e_neighbor: float, e_canid: float) -> float:
    """The composite anomaly score: alpha*E_node + beta*E_neighbor + gamma*E_CAN_ID."""
    return weights.alpha * e_node + weights.beta * e_neighbor + weights.gamma * e_canid


@dataclass
class LatentState:
    mu: Tensor  # (num_nodes, latent_dim)
    log_sigma: Tensor
    z: Tensor


@dataclass
class DecodedGraph:
    z: Tensor  # (n, latent_dim); edges are decoded from it pair by pair
    features: Tensor  # (n, 3) in (0, 1)
    id_logits: Tensor  # (n, id_buckets)

    def edge_probabilities(self, src, dst) -> Tensor:
        """sigmoid(z[src] . z[dst]): the inner-product decoder read at the given pairs only."""
        return T.sigmoid((T.gather_rows(self.z, src) * T.gather_rows(self.z, dst)).sum(axis=1))


def expected_param_shapes(config: VgaeConfig, in_dim: int = IN_DIM) -> dict[str, tuple]:
    k, hc, lat = config.attn_heads, config.hidden_channels, config.latent_dim
    shapes: dict[str, tuple] = {}
    d_in = in_dim
    for layer in range(config.num_layers - 1):
        shapes[f"enc{layer}.weight"] = (d_in, k * hc)
        shapes[f"enc{layer}.att_src"] = (k, hc)
        shapes[f"enc{layer}.att_dst"] = (k, hc)
        shapes[f"enc{layer}.bias"] = (k * hc,)
        d_in = k * hc
    shapes["mu.weight"] = (d_in, lat)
    shapes["mu.bias"] = (lat,)
    shapes["log_sigma.weight"] = (d_in, lat)
    shapes["log_sigma.bias"] = (lat,)
    for head, width in (("feat", 3), ("canid", config.id_buckets)):
        shapes[f"dec_{head}.w1"] = (lat, hc)
        shapes[f"dec_{head}.b1"] = (hc,)
        shapes[f"dec_{head}.w2"] = (hc, width)
        shapes[f"dec_{head}.b2"] = (width,)
    return shapes


def count_params(config: VgaeConfig, in_dim: int = IN_DIM) -> int:
    return sum(int(np.prod(s)) for s in expected_param_shapes(config, in_dim).values())


class VgaeModel:
    def __init__(self, config: VgaeConfig, seed: int = 0, param_values: dict | None = None):
        self.config = config
        rng = derive_seed(seed, _SEED_INIT)
        k, hc, lat = config.attn_heads, config.hidden_channels, config.latent_dim
        self.enc_layers: list[GatLayerParams] = []
        d_in = IN_DIM
        for layer in range(config.num_layers - 1):
            self.enc_layers.append(init_gat_layer(rng, f"enc{layer}", d_in, k, hc, "concat"))
            d_in = k * hc
        self._linear = {}
        for name, (fi, fo) in {
            "mu": (d_in, lat),
            "log_sigma": (d_in, lat),
        }.items():
            self._linear[f"{name}.weight"] = Param(
                f"{name}.weight", Tensor(glorot_uniform(rng, (fi, fo), fi, fo), requires_grad=True)
            )
            self._linear[f"{name}.bias"] = Param(f"{name}.bias", Tensor(np.zeros(fo), requires_grad=True))
        for head, width in (("feat", 3), ("canid", config.id_buckets)):
            self._linear[f"dec_{head}.w1"] = Param(
                f"dec_{head}.w1", Tensor(glorot_uniform(rng, (lat, hc), lat, hc), requires_grad=True)
            )
            self._linear[f"dec_{head}.b1"] = Param(f"dec_{head}.b1", Tensor(np.zeros(hc), requires_grad=True))
            self._linear[f"dec_{head}.w2"] = Param(
                f"dec_{head}.w2", Tensor(glorot_uniform(rng, (hc, width), hc, width), requires_grad=True)
            )
            self._linear[f"dec_{head}.b2"] = Param(f"dec_{head}.b2", Tensor(np.zeros(width), requires_grad=True))
        check_unique_names(self.params())
        if param_values is not None:
            validate_params(param_values, expected_param_shapes(config), "vgae")
            for p in self.params():
                p.tensor.values = np.array(param_values[p.name], dtype=np.float64)

    def params(self) -> list[Param]:
        out: list[Param] = []
        for layer in self.enc_layers:
            out.extend(layer.all())
        out.extend(self._linear.values())
        return out

    def param_values(self) -> dict[str, np.ndarray]:
        return {p.name: p.tensor.values for p in self.params()}

    def _lin(self, name: str, x: Tensor) -> Tensor:
        return x @ self._linear[f"{name}.weight"].tensor + self._linear[f"{name}.bias"].tensor

    def prepare(self, graph) -> GraphBatch:
        return as_batch(graph, self.config.id_buckets)

    def encode(self, prep: GraphBatch, training: bool = False, rng=None, noise=None) -> LatentState:
        """Posterior parameters for every node; z is sampled only in training.

        The posterior noise of a batch is one draw of (num_nodes, latent_dim),
        which is the per-window draws in batch order.
        """
        cfg = self.config
        h = prep.x
        for layer in self.enc_layers:
            h = gat_layer(h, prep, layer, cfg.attn_heads, cfg.hidden_channels, 0.2, "concat")
        mu = self._lin("mu", h)
        log_sigma = T.clamp(self._lin("log_sigma", h), -LOG_SIGMA_CLAMP, LOG_SIGMA_CLAMP)
        if training:
            if noise is None:
                if rng is None:
                    raise StateError("training-mode encode needs an rng for the posterior sample")
                noise = rng.standard_normal(mu.shape)
            z = mu + T.exp(log_sigma) * noise
        else:
            z = mu
        return LatentState(mu=mu, log_sigma=log_sigma, z=z)

    def decode_adjacency(self, z: Tensor) -> Tensor:
        """Symmetric n x n matrix of edge probabilities sigmoid(z_i . z_j), for the adjacency_l2 ablation."""
        return T.sigmoid(z @ z.T)

    def decode_features(self, z: Tensor) -> tuple[Tensor, Tensor]:
        """Single-hidden-layer heads: node features in (0,1) and ID-bucket logits."""
        lin = self._linear
        hidden = T.elu(z @ lin["dec_feat.w1"].tensor + lin["dec_feat.b1"].tensor)
        features = T.sigmoid(hidden @ lin["dec_feat.w2"].tensor + lin["dec_feat.b2"].tensor)
        hidden_id = T.elu(z @ lin["dec_canid.w1"].tensor + lin["dec_canid.b1"].tensor)
        id_logits = hidden_id @ lin["dec_canid.w2"].tensor + lin["dec_canid.b2"].tensor
        return features, id_logits

    def decode(self, z: Tensor) -> DecodedGraph:
        features, id_logits = self.decode_features(z)
        return DecodedGraph(z, features, id_logits)

    def elbo_loss(self, prep: GraphBatch, latent: LatentState, decoded: DecodedGraph, neg_rng) -> Tensor:
        """Mean over the batch's windows of edge BCE + feature MSE + ID CE + KL/n.

        Each window's negative edges are drawn from ``neg_rng`` in batch order.
        """
        e_node, e_neighbor, e_canid = reconstruction_terms(prep, decoded, itertools.repeat(neg_rng))
        kl = T.segment_mean(
            kl_gaussian_standard(latent.mu, latent.log_sigma, axis=1), prep.graph_index, prep.node_counts
        )
        return (e_neighbor + e_node + e_canid + kl).mean()

    def reconstruction_errors(self, prep, seed: int) -> tuple[float, float, float]:
        """(E_node, E_neighbor, E_CAN_ID) of one window at inference (z = mu, no sampling).

        The neighborhood term is the mean BCE of the decoded edge
        probabilities over the window's observed edges plus an equal count
        of non-edges sampled from a per-window stream derived from ``seed``.
        """
        prep = self.prepare(prep)
        rng = derive_seed(seed, _SEED_NEG_SCORE, prep.graph.window_start_index)
        with no_grad():
            latent = self.encode(prep, training=False)
            terms = reconstruction_terms(prep, self.decode(latent.z), [rng])
        return tuple(t.item() for t in terms)

    def composite_error(self, prep, weights: CompositeWeights = CompositeWeights(), seed: int = 0) -> float:
        e_node, e_neighbor, e_canid = self.reconstruction_errors(prep, seed)
        return combine_errors(weights, e_node, e_neighbor, e_canid)

    def adjacency_l2(self, prep) -> float:
        """Frobenius norm of (binary adjacency - decoded adjacency), for ablation."""
        prep = self.prepare(prep)
        g = prep.graph
        with no_grad():
            latent = self.encode(prep, training=False)
            adj = self.decode_adjacency(latent.z).values
        a = np.zeros((g.num_nodes, g.num_nodes))
        a[g.edge_src, g.edge_dst] = 1.0
        return float(np.linalg.norm(a - adj))

    def score(self, prep, weights: CompositeWeights, seed: int, score_mode: str = "composite") -> float:
        if score_mode == "composite":
            return self.composite_error(prep, weights, seed)
        if score_mode == "adjacency_l2":
            return self.adjacency_l2(prep)
        raise ConfigError(f"unknown score_mode {score_mode!r}")

    def reconstruction_rank(
        self,
        graphs,
        weights: CompositeWeights = CompositeWeights(),
        seed: int = 0,
        score_mode: str = "composite",
        scores=None,
    ):
        """Normal-labeled graphs sorted by descending anomaly score.

        Ties break by window_start_index ascending, so ranking a ranked
        list is a no-op.
        """
        graphs = list(graphs)
        if not graphs:
            raise StateError("reconstruction_rank: empty input")
        raw = [g.graph if isinstance(g, GraphBatch) else g for g in graphs]
        bad = [g.window_start_index for g in raw if g.label != 0]
        if bad:
            raise ConfigError(f"reconstruction_rank expects normal windows; attack at {bad[:5]}")
        if scores is None:
            scores = [self.score(g, weights, seed, score_mode) for g in graphs]
        order = sorted(range(len(graphs)), key=lambda i: (-scores[i], raw[i].window_start_index))
        return [graphs[i] for i in order]

    def save(self, path):
        save_checkpoint(path, "vgae", self.config.to_dict(), self.param_values())

    @classmethod
    def load(cls, path) -> "VgaeModel":
        kind, config, params = load_checkpoint(path)
        if kind != "vgae":
            raise StateError(f"{path}: expected a vgae checkpoint, found {kind!r}")
        return cls(VgaeConfig.from_dict(config), param_values=params)


def write_error_components_csv(model: VgaeModel, graphs, path, weights: CompositeWeights = CompositeWeights(), seed: int = 0):
    """Per-window error breakdown for score-distribution analysis."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("window_start_index,e_node,e_neighbor,e_can_id,composite\n")
        for g in graphs:
            e_node, e_neighbor, e_canid = model.reconstruction_errors(g, seed)
            composite = combine_errors(weights, e_node, e_neighbor, e_canid)
            fh.write(f"{g.window_start_index},{e_node!r},{e_neighbor!r},{e_canid!r},{composite!r}\n")


def reconstruction_terms(batch: GraphBatch, decoded: DecodedGraph, neg_rngs) -> tuple[Tensor, Tensor, Tensor]:
    """Per-window (E_node, E_neighbor, E_CAN_ID) of a batch, each of shape (num_graphs,).

    E_node is the feature MSE and E_CAN_ID the ID-bucket cross-entropy, both
    averaged over the window's nodes. E_neighbor is the BCE of the decoded
    edge probabilities averaged over the window's observed edges and as many
    non-edges, drawn from the window's entry of ``neg_rngs`` in batch order.
    """
    seg, counts = batch.graph_index, batch.node_counts
    src, dst, edge_seg = [batch.edge_src], [batch.edge_dst], [seg[batch.edge_src]]
    for k, (g, offset, rng) in enumerate(zip(batch.graphs, batch.node_offsets, neg_rngs)):
        neg_src, neg_dst = sample_non_edges(g.num_nodes, g.edge_src, g.edge_dst, len(g.edge_src), rng)
        src.append(neg_src + offset)
        dst.append(neg_dst + offset)
        edge_seg.append(np.full(len(neg_src), k, dtype=np.int64))
    edge_seg = np.concatenate(edge_seg)
    targets = np.zeros(len(edge_seg))
    targets[: len(batch.edge_src)] = 1.0
    probs = decoded.edge_probabilities(np.concatenate(src), np.concatenate(dst))
    e_neighbor = T.segment_mean(
        bce_terms(probs, targets), edge_seg, np.bincount(edge_seg, minlength=batch.num_graphs)
    )
    e_node = T.segment_mean(((decoded.features - batch.x.values) ** 2).mean(axis=1), seg, counts)
    e_canid = T.segment_mean(cross_entropy_terms(decoded.id_logits, batch.id_buckets), seg, counts)
    return e_node, e_neighbor, e_canid


def sample_non_edges(n: int, edge_src, edge_dst, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``count`` uniform (i, j) pairs absent from the edge set."""
    if count <= 0 or n * n <= len(edge_src):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    edge_keys = np.asarray(edge_src, dtype=np.int64) * n + np.asarray(edge_dst, dtype=np.int64)
    out_s, out_d, got = [], [], 0
    for _ in range(20):
        cand = rng.integers(0, n, size=(2, max(2 * count, 8)))
        keep = ~np.isin(cand[0] * n + cand[1], edge_keys)
        s, d = cand[0][keep], cand[1][keep]
        take = min(count - got, len(s))
        out_s.append(s[:take])
        out_d.append(d[:take])
        got += take
        if got >= count:
            break
    return np.concatenate(out_s), np.concatenate(out_d)


def train_vgae(
    graphs,
    config: VgaeConfig,
    seed: int,
    epochs: int = 20,
    lr: float = 3e-3,
    batch_size: int = 32,
    extra_loss_fn=None,
    extra_params=(),
    grad_clip: float | None = 5.0,
) -> tuple[VgaeModel, list[float]]:
    """Stage-1 training on benign windows only; returns per-epoch mean loss.

    Each mini-batch is one GraphBatch and takes one forward and backward
    pass. ``extra_loss_fn(batch, latent) -> Tensor`` hooks distillation
    terms into the objective as a mean over the batch's windows; any
    parameters it owns go in ``extra_params``. Raises StateError on a
    non-finite loss or gradient norm.
    """
    graphs = list(graphs)
    if not graphs:
        raise StateError("train_vgae: no graphs")
    attacked = [g for g in graphs if (g.graph.label if isinstance(g, GraphBatch) else g.label) != 0]
    if attacked:
        raise ConfigError("train_vgae: attack-labeled windows in training set; stage 1 is normal-only")
    model = VgaeModel(config, seed=seed)
    preps = [model.prepare(g) for g in graphs]
    opt = Adam(list(model.params()) + list(extra_params), lr=lr)
    noise_rng = derive_seed(seed, _SEED_NOISE)
    neg_rng = derive_seed(seed, _SEED_NEG_TRAIN)
    shuffle_rng = derive_seed(seed, _SEED_SHUFFLE)

    losses: list[float] = []
    order = np.arange(len(preps))
    for epoch in range(epochs):
        shuffle_rng.shuffle(order)
        total = 0.0
        for step, lo in enumerate(range(0, len(order), batch_size)):
            batch = GraphBatch.concat(preps[i] for i in order[lo : lo + batch_size])
            opt.zero_grad()
            latent = model.encode(batch, training=True, rng=noise_rng)
            loss = model.elbo_loss(batch, latent, model.decode(latent.z), neg_rng)
            if extra_loss_fn is not None:
                loss = loss + extra_loss_fn(batch, latent)
            checked_step(opt, loss, grad_clip, lambda: f"epoch {epoch}, batch {step}, windows {batch.window_starts}")
            total += loss.item() * batch.num_graphs
        losses.append(total / len(order))
    return model, losses
