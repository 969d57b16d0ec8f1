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
from .errors import ConfigError, StateError, quoted_value, require_int
from .gat import GatLayerParams, GraphBatch, as_batch, gat_layer, layer_shapes, train_epochs, IN_DIM
from .losses import bce_terms, cross_entropy_terms, kl_gaussian_standard
from .optim import ParamModel, derive_seed
from .tensor import Tensor, no_grad

LOG_SIGMA_CLAMP = 10.0  # keeps KL finite on degenerate one-node graphs
SCORE_CHUNK = 64  # windows per batched scoring pass
SCORE_MODES = ("composite", "adjacency_l2")

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
        require_int("num_layers", self.num_layers, 2)  # conv stack plus posterior heads
        for name in ("attn_heads", "hidden_channels", "latent_dim"):
            require_int(name, getattr(self, name), 1)
        require_int("id_buckets", self.id_buckets, 2)

    @classmethod
    def teacher(cls) -> "VgaeConfig":
        return cls(num_layers=3, attn_heads=4, hidden_channels=32, latent_dim=16, role="teacher")

    @classmethod
    def student(cls) -> "VgaeConfig":
        return cls(num_layers=2, attn_heads=2, hidden_channels=16, latent_dim=8, role="student")

    def param_shapes(self) -> dict[str, tuple]:
        """The autoencoder's name -> shape table, in init order."""
        k, hc, lat = self.attn_heads, self.hidden_channels, self.latent_dim
        shapes: dict[str, tuple] = {}
        d_in = IN_DIM
        for layer in range(self.num_layers - 1):
            shapes.update(layer_shapes(f"enc{layer}", d_in, k, hc, "concat"))
            d_in = k * hc
        for head in ("mu", "log_sigma"):
            shapes[f"{head}.weight"] = (d_in, lat)
            shapes[f"{head}.bias"] = (lat,)
        for head, width in (("feat", 3), ("canid", self.id_buckets)):
            shapes[f"dec_{head}.w1"] = (lat, hc)
            shapes[f"dec_{head}.b1"] = (hc,)
            shapes[f"dec_{head}.w2"] = (hc, width)
            shapes[f"dec_{head}.b2"] = (width,)
        return shapes


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


class VgaeModel(ParamModel):
    kind = "vgae"
    config_type = VgaeConfig

    def __init__(self, config: VgaeConfig, seed: int = 0, param_values: dict | None = None):
        super().__init__(config, derive_seed(seed, _SEED_INIT), param_values)
        self.enc_layers = [GatLayerParams.of(self.table, f"enc{layer}") for layer in range(config.num_layers - 1)]

    def _lin(self, x: Tensor, weight: str, bias: str) -> Tensor:
        return T.linear(x, self.table[weight].tensor, self.table[bias].tensor)

    def encode(self, prep: GraphBatch, training: bool = False, rng=None) -> LatentState:
        """Posterior parameters for every node; z is sampled only in training.

        The posterior noise of a batch is one draw of (num_nodes, latent_dim),
        which is the per-window draws in batch order.
        """
        h = self._trunk(prep)
        mu = self._lin(h, "mu.weight", "mu.bias")
        log_sigma = T.clamp(self._lin(h, "log_sigma.weight", "log_sigma.bias"), -LOG_SIGMA_CLAMP, LOG_SIGMA_CLAMP)
        if training:
            if rng is None:
                raise StateError("training-mode encode needs an rng for the posterior sample")
            z = mu + T.exp(log_sigma) * rng.standard_normal(mu.shape)
        else:
            z = mu
        return LatentState(mu=mu, log_sigma=log_sigma, z=z)

    def _trunk(self, prep: GraphBatch) -> Tensor:
        """The attention stack that both posterior heads read."""
        cfg = self.config
        h = prep.x
        for layer in self.enc_layers:
            h = gat_layer(h, prep, layer, cfg.attn_heads, cfg.hidden_channels, 0.2, "concat")
        return h

    def posterior_mean(self, prep: GraphBatch) -> Tensor:
        """``encode(prep).mu`` alone: the trunk and the mu head, without the log_sigma head."""
        return self._lin(self._trunk(prep), "mu.weight", "mu.bias")

    def decode(self, z: Tensor) -> tuple[Tensor, Tensor]:
        """The single-hidden-layer heads: (n, 3) node features in (0, 1) and (n, id_buckets) ID logits."""
        hidden = T.elu(self._lin(z, "dec_feat.w1", "dec_feat.b1"))
        features = T.sigmoid(self._lin(hidden, "dec_feat.w2", "dec_feat.b2"))
        hidden_id = T.elu(self._lin(z, "dec_canid.w1", "dec_canid.b1"))
        id_logits = self._lin(hidden_id, "dec_canid.w2", "dec_canid.b2")
        return features, id_logits

    def elbo_loss(self, prep: GraphBatch, latent: LatentState, neg_rng) -> Tensor:
        """Mean over the batch's windows of edge BCE + feature MSE + ID CE + KL/n, decoding ``latent.z``.

        Each window's non-edges come from ``neg_rng`` in batch order.
        """
        decoded = self.decode(latent.z)
        e_node, e_neighbor, e_canid = reconstruction_terms(prep, latent.z, decoded, itertools.repeat(neg_rng))
        kl = T.segment_mean(
            kl_gaussian_standard(latent.mu, latent.log_sigma, axis=1), prep.graph_index, prep.node_counts
        )
        return (e_neighbor + e_node + e_canid + kl).mean()

    def error_terms(self, batch, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(E_node, E_neighbor, E_CAN_ID) of ``batch`` at inference, each of shape (num_graphs,).

        One posterior_mean -> decode -> reconstruction_terms pass with z = mu,
        no sampling. Each window's non-edges come from its own stream,
        derive_seed(seed, _SEED_NEG_SCORE, window_start_index), so a
        window's entries equal its batch-of-one entries bit for bit.
        """
        batch = as_batch(batch)
        run = _without_one_row_products(batch)
        rngs = [derive_seed(seed, _SEED_NEG_SCORE, start) for start in run.window_starts]
        with no_grad():
            z = self.posterior_mean(run)
            terms = reconstruction_terms(run, z, self.decode(z), rngs)
        return tuple(t.values[: batch.num_graphs] for t in terms)

    def score_batch(
        self, graphs, weights: CompositeWeights = CompositeWeights(), seed: int = 0, score_mode: str = "composite"
    ) -> list[float]:
        """One anomaly score per window of ``graphs``, each equal bit for bit to its batch-of-one score.

        ``graphs`` holds windows or their prepared batches of one, scored in
        GraphBatches of at most SCORE_CHUNK windows. ``composite`` combines
        error_terms; ``adjacency_l2`` is the Frobenius norm of (binary
        adjacency - decoded adjacency) per window, for ablation, with the
        per-edge decoder read at all n x n pairs.
        """
        if score_mode not in SCORE_MODES:
            raise ConfigError(f"unknown score_mode {quoted_value(score_mode)}")
        preps = [as_batch(g) for g in graphs]
        scores = []
        for lo in range(0, len(preps), SCORE_CHUNK):
            batch = GraphBatch.concat(preps[lo : lo + SCORE_CHUNK])
            if score_mode == "composite":
                terms = self.error_terms(batch, seed)
                scores += [combine_errors(weights, *e) for e in zip(*(t.tolist() for t in terms))]
                continue
            with no_grad():
                z = self.posterior_mean(_without_one_row_products(batch)).values
            for g, row in zip(batch.graphs, np.cumsum(batch.node_counts) - batch.node_counts):
                n = g.num_nodes
                rows, cols = np.divmod(np.arange(n * n), n)
                adj = T.sigmoid_inner_product(z[row : row + n], rows, cols).values.reshape(n, n)
                a = np.zeros((n, n))
                a[g.edge_src, g.edge_dst] = 1.0
                scores.append(float(np.linalg.norm(a - adj)))
        return scores

    def score(self, prep, weights: CompositeWeights, seed: int, score_mode: str = "composite") -> float:
        return self.score_batch([prep], weights, seed, score_mode)[0]

    def reconstruction_rank(
        self,
        graphs,
        weights: CompositeWeights = CompositeWeights(),
        seed: int = 0,
        score_mode: str = "composite",
    ):
        """Normal-labeled graphs sorted by descending anomaly score.

        Ties break by window_start_index ascending, so ranking a ranked
        list is a no-op.
        """
        graphs = list(graphs)
        if not graphs:
            raise StateError("reconstruction_rank: empty input")
        bad = [g.window_start_index for g in graphs if g.label != 0]
        if bad:
            raise ConfigError(f"reconstruction_rank expects normal windows; attack at {bad[:5]}")
        scores = self.score_batch(graphs, weights, seed, score_mode)
        order = sorted(range(len(graphs)), key=lambda i: (-scores[i], graphs[i].window_start_index))
        return [graphs[i] for i in order]


def _without_one_row_products(batch: GraphBatch) -> GraphBatch:
    """``batch``, or two copies of it when it has a single node row.

    A one-row matmul takes BLAS's gemv path, whose bits differ from the same
    row inside a gemm; a lone one-node window scored as two copies keeps the
    bits it gets inside any larger batch. Callers keep the first copy's rows.
    """
    return GraphBatch.concat([batch, batch]) if batch.num_nodes == 1 else batch


def reconstruction_terms(batch: GraphBatch, z: Tensor, decoded, neg_rngs) -> tuple[Tensor, Tensor, Tensor]:
    """Per-window (E_node, E_neighbor, E_CAN_ID) of a batch, each of shape (num_graphs,).

    ``decoded`` is ``VgaeModel.decode(z)``. E_node is the feature MSE and
    E_CAN_ID the ID-bucket cross-entropy, both averaged over the window's
    nodes. E_neighbor is the BCE of the edge probabilities sigmoid(z[i] . z[j])
    averaged over the window's observed edges and as many non-edges, drawn
    from the window's entry of ``neg_rngs`` in batch order.
    """
    features, id_logits = decoded
    seg, counts = batch.graph_index, batch.node_counts
    src, dst, edge_seg = [batch.edge_src], [batch.edge_dst], [seg[batch.edge_src]]
    offset = 0  # row of the window's first node
    for k, (g, rng) in enumerate(zip(batch.graphs, neg_rngs)):
        neg_src, neg_dst = sample_non_edges(g.num_nodes, g.edge_src, g.edge_dst, len(g.edge_src), rng)
        src.append(neg_src + offset)
        dst.append(neg_dst + offset)
        edge_seg.append(np.full(len(neg_src), k, dtype=np.int64))
        offset += g.num_nodes
    edge_seg = np.concatenate(edge_seg)
    targets = np.zeros(len(edge_seg))
    targets[: len(batch.edge_src)] = 1.0
    probs = T.sigmoid_inner_product(z, np.concatenate(src), np.concatenate(dst))
    e_neighbor = T.segment_mean(
        bce_terms(probs, targets), edge_seg, np.bincount(edge_seg, minlength=batch.num_graphs)
    )
    e_node = T.segment_mean(((features - batch.x.values) ** 2).mean(axis=1), seg, counts)
    buckets = batch.node_ids % id_logits.shape[1]  # the ID decoder's classes
    e_canid = T.segment_mean(cross_entropy_terms(id_logits, buckets), seg, counts)
    return e_node, e_neighbor, e_canid


def sample_non_edges(n: int, edge_src, edge_dst, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``count`` uniform (i, j) pairs absent from the edge set, self-pairs included.

    Pairs are drawn with replacement, so a window with fewer non-edge cells
    than ``count`` repeats them: asked for as many pairs as its 19 edges,
    a 5-node window draws 19 pairs from its 6 non-edge cells. Fewer than
    ``count`` come back only when 20 rounds of draws do not find them.
    """
    if count <= 0 or n * n <= len(edge_src):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # pairs travel as flat cells i * n + j
    present = np.zeros(n * n, dtype=bool)
    present[np.asarray(edge_src, dtype=np.int64) * n + np.asarray(edge_dst, dtype=np.int64)] = True
    kept, got = [], 0
    for _ in range(20):
        cand = rng.integers(0, n, size=(2, max(2 * count, 8)))
        cells = cand[0] * n + cand[1]
        cells = cells[~present[cells]][: count - got]
        kept.append(cells)
        got += len(cells)
        if got >= count:
            break
    return np.divmod(np.concatenate(kept), n)


def train_vgae(
    graphs,
    config: VgaeConfig,
    seed: int,
    epochs: int = 20,
    lr: float = 3e-3,
    batch_size: int = 32,
    extra_loss_fn=None,
    extra_params=(),
) -> tuple[VgaeModel, list[float]]:
    """Stage-1 training on benign windows only, through train_epochs; returns per-epoch mean loss.

    ``extra_loss_fn(batch, latent) -> Tensor`` hooks distillation terms
    into the objective as a mean over the batch's windows; any parameters
    it owns go in ``extra_params``.
    """
    graphs = list(graphs)
    if not graphs:
        raise StateError("train_vgae: no graphs")
    if any(g.label != 0 for g in graphs):
        raise ConfigError("train_vgae: attack-labeled windows in training set; stage 1 is normal-only")
    model = VgaeModel(config, seed=seed)
    noise_rng = derive_seed(seed, _SEED_NOISE)
    neg_rng = derive_seed(seed, _SEED_NEG_TRAIN)

    def batch_loss(batch, _members):
        latent = model.encode(batch, training=True, rng=noise_rng)
        loss = model.elbo_loss(batch, latent, neg_rng)
        return loss if extra_loss_fn is None else loss + extra_loss_fn(batch, latent)

    shuffle_rng = derive_seed(seed, _SEED_SHUFFLE)
    losses = train_epochs(graphs, [*model.params(), *extra_params], epochs, batch_size, lr, shuffle_rng, batch_loss)
    return model, list(losses)
