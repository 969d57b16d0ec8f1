"""Disjoint-union batches against the per-window path they replace.

A batch of N windows must give the mean of the N batch-of-one losses and
the same gradients (to float reordering), for every training objective,
at both model presets. The finite-difference checks of the acceptance
suite are repeated here on batched losses with the same tolerance.
"""

import functools

import numpy as np
import pytest

from canids import tensor as T
from canids.distill import KdConfig, LatentProjection, kd_classifier_loss, kd_latent_loss
from canids.errors import StateError
from canids.gat import GatClassifier, GatConfig, GraphBatch, prepare_graph, train_supervised
from canids.graphs import build_windows
from canids.losses import cross_entropy
from canids.synth import EcuSpec, generate_synthetic_log
from canids.tensor import Tensor, no_grad
from canids.vgae import LatentState, VgaeConfig, VgaeModel, train_vgae
from helpers import model_gradient_error, robust_gradient_error

LOSS_TOL = 1e-12
GRAD_TOL = 1e-10
PRESETS = ["teacher", "student"]


def loss_and_grads(params, build):
    for p in params:
        p.tensor.zero_grad()
    loss = build()
    loss.backward()
    return loss.item(), [np.zeros_like(p.tensor.values) if p.tensor.grad is None else p.tensor.grad.copy() for p in params]


def mean_of_singles(preps, term):
    """(1/N) * sum of term(i, batch of one i): the objective of the per-window loop."""
    return functools.reduce(T.add, (term(i, prep) for i, prep in enumerate(preps))) / float(len(preps))


def assert_equivalent(params, batched, per_window):
    loss_b, grads_b = loss_and_grads(params, batched)
    loss_s, grads_s = loss_and_grads(params, per_window)
    assert abs(loss_b - loss_s) <= LOSS_TOL
    worst = max(float(np.max(np.abs(gb - gs), initial=0.0)) for gb, gs in zip(grads_b, grads_s))
    assert worst <= GRAD_TOL


@pytest.fixture(scope="module")
def windows(mixed_graphs):
    # attack windows of every kind plus benign ones, in stream order
    attacks = [g for g in mixed_graphs if g.label == 1][::7][:4]
    normals = [g for g in mixed_graphs if g.label == 0][::9][:4]
    return attacks + normals


@pytest.mark.parametrize("preset", PRESETS)
def test_gat_cross_entropy_batch_equals_mean_of_singles(windows, preset):
    model = GatClassifier(getattr(GatConfig, preset)(), seed=3)
    preps = [prepare_graph(g) for g in windows]
    labels = np.array([g.label for g in windows])
    batch = GraphBatch.concat(preps)

    def batched():
        return cross_entropy(model.forward(batch)[1], labels)

    def per_window():
        return mean_of_singles(preps, lambda i, p: cross_entropy(model.forward(p)[1], int(labels[i])))

    assert_equivalent(model.params(), batched, per_window)


@pytest.mark.parametrize("preset", PRESETS)
def test_kd_classifier_loss_batch_equals_mean_of_singles(windows, preset):
    teacher = GatClassifier(GatConfig.teacher(), seed=4)
    student = GatClassifier(getattr(GatConfig, preset)(), seed=5)
    preps = [prepare_graph(g) for g in windows]
    labels = np.array([g.label for g in windows])
    with no_grad():
        teacher_logits = [teacher.forward(p)[1].values[0] for p in preps]
    batch = GraphBatch.concat(preps)
    kd = KdConfig()

    def batched():
        return kd_classifier_loss(student.forward(batch)[1], np.stack(teacher_logits), labels, kd)

    def per_window():
        return mean_of_singles(
            preps, lambda i, p: kd_classifier_loss(student.forward(p)[1], teacher_logits[i][None], int(labels[i]), kd)
        )

    assert_equivalent(student.params(), batched, per_window)


@pytest.mark.parametrize("preset", PRESETS)
def test_vgae_elbo_batch_equals_mean_of_singles(benign_graphs, preset):
    model = VgaeModel(getattr(VgaeConfig, preset)(), seed=6)
    preps = [prepare_graph(g) for g in benign_graphs[:8]]
    batch = GraphBatch.concat(preps)

    def batched():
        # one noise draw and one negative stream for the whole batch
        latent = model.encode(batch, training=True, rng=np.random.default_rng(1))
        return model.elbo_loss(batch, latent, np.random.default_rng(2))

    def per_window():
        noise_rng, neg_rng = np.random.default_rng(1), np.random.default_rng(2)

        def term(_, prep):
            latent = model.encode(prep, training=True, rng=noise_rng)
            return model.elbo_loss(prep, latent, neg_rng)

        return mean_of_singles(preps, term)

    assert_equivalent(model.params(), batched, per_window)


@pytest.mark.parametrize("preset", PRESETS)
def test_latent_hint_batch_equals_mean_of_singles(benign_graphs, preset):
    teacher = VgaeModel(VgaeConfig.teacher(), seed=7)
    student = VgaeModel(getattr(VgaeConfig, preset)(), seed=8)
    projection = LatentProjection(student.config.latent_dim, teacher.config.latent_dim, seed=9)
    graphs = benign_graphs[10:18]
    preps = [prepare_graph(g) for g in graphs]
    with no_grad():
        teacher_latents = [teacher.encode(prepare_graph(g)) for g in graphs]
    joined = LatentState(
        mu=Tensor(np.concatenate([t.mu.values for t in teacher_latents])),
        log_sigma=Tensor(np.concatenate([t.log_sigma.values for t in teacher_latents])),
        z=None,
    )
    batch = GraphBatch.concat(preps)
    params = student.params() + projection.params()

    def batched():
        return kd_latent_loss(student.encode(batch), joined, projection, batch)

    def per_window():
        return mean_of_singles(
            preps, lambda i, p: kd_latent_loss(student.encode(p), teacher_latents[i], projection, p)
        )

    assert_equivalent(params, batched, per_window)


def test_batch_of_one_forward_is_per_graph_row(windows):
    # each row of a batched forward matches that window's batch of one
    model = GatClassifier(GatConfig.student(), seed=10)
    preps = [prepare_graph(g) for g in windows]
    with no_grad():
        prob, logits, emb = model.forward(GraphBatch.concat(preps))
        for i, p in enumerate(preps):
            one_prob, one_logits, one_emb = model.forward(p)
            assert abs(prob.values[i] - one_prob.item()) <= 1e-12
            assert np.max(np.abs(logits.values[i] - one_logits.values[0])) <= 1e-12
            assert np.max(np.abs(emb.values[i] - one_emb.values[0])) <= 1e-12


def test_concat_offsets_edges_and_graph_index(windows):
    preps = [prepare_graph(g) for g in windows[:3]]
    batch = GraphBatch.concat(preps)
    assert batch.num_graphs == 3 and batch.num_nodes == sum(g.num_nodes for g in windows[:3])
    assert batch.node_counts.tolist() == [g.num_nodes for g in windows[:3]]
    offsets = np.cumsum(batch.node_counts) - batch.node_counts
    for k, (p, offset) in enumerate(zip(preps, offsets)):
        rows = np.flatnonzero(batch.graph_index == k)
        assert rows.tolist() == list(range(offset, offset + p.num_nodes))
        own = (batch.graph_index[batch.src] == k)
        assert np.array_equal(batch.src[own] - offset, p.src)
        assert np.array_equal(batch.dst[own] - offset, p.dst)
    with pytest.raises(StateError):
        batch.graph


# ---------------------------------------------------------------- finite differences


@pytest.fixture(scope="module")
def small_batch():
    ecus = [EcuSpec(0x110, 0.002, 11), EcuSpec(0x220, 0.003, 22), EcuSpec(0x330, 0.005, 33)]
    frames = generate_synthetic_log(ecus, 2.0, rng_seed=9)
    return list(build_windows(iter(frames), 30))[:3]


def test_batched_gradient_checks(small_batch):
    worst = 0.0
    tiny_vgae = VgaeConfig(2, 2, 4, 3, id_buckets=16)
    tiny_gat = GatConfig(2, 2, 3)
    labels = np.array([0, 1, 0])
    for i in range(3):
        gat = GatClassifier(tiny_gat, seed=i)
        batch = GraphBatch.concat(prepare_graph(g) for g in small_batch)
        worst = max(worst, model_gradient_error(gat.params(), lambda: cross_entropy(gat.forward(batch)[1], labels)))

        vgae = VgaeModel(tiny_vgae, seed=i)
        vbatch = GraphBatch.concat(prepare_graph(g) for g in small_batch)

        def elbo():
            latent = vgae.encode(vbatch, training=True, rng=np.random.default_rng(1000 + i))
            return vgae.elbo_loss(vbatch, latent, np.random.default_rng(2000 + i))

        worst = max(worst, model_gradient_error(vgae.params(), elbo))

        gen = np.random.Generator(np.random.PCG64(3000 + i))
        s, t = gen.normal(size=(3, 2)), gen.normal(size=(3, 2))
        worst = max(worst, robust_gradient_error(lambda a: kd_classifier_loss(a, t, labels, KdConfig()), [s]))

        proj = LatentProjection(2, 3, seed=i)
        n = vbatch.num_nodes
        student = LatentState(Tensor(gen.normal(size=(n, 2))), Tensor(gen.normal(size=(n, 2)) * 0.2), None)
        teacher = LatentState(Tensor(gen.normal(size=(n, 3))), Tensor(gen.normal(size=(n, 3)) * 0.2), None)
        worst = max(worst, model_gradient_error(proj.params(), lambda: kd_latent_loss(student, teacher, proj, vbatch)))
    assert worst < 1e-4


# ---------------------------------------------------------------- non-finite guards


def _root(t):
    """0 in value, infinite in gradient: d sqrt(x)/dx at x = 0."""
    return T.pow_scalar(t - t.values, 0.5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fault", ["loss", "gradient"])
def test_train_supervised_stops_on_non_finite(mixed_graphs, fault):
    graphs = mixed_graphs[:30]

    def loss_fn(model, batch, labels):
        _, logits, _ = model.forward(batch)
        if fault == "loss":
            return cross_entropy(logits, labels) * np.nan
        return cross_entropy(logits, labels) + _root(logits).sum()

    with pytest.raises(StateError, match=f"non-finite {fault}.*epoch 0, batch 0, windows \\[") as info:
        train_supervised(graphs, [g.label for g in graphs], GatConfig.student(), seed=1, epochs=2, loss_fn=loss_fn)
    starts = {g.window_start_index for g in graphs}
    named = [int(x) for x in str(info.value).split("windows [")[1].rstrip("]").split(",")]
    assert set(named) <= starts and len(named) == len(graphs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fault", ["loss", "gradient"])
def test_train_vgae_stops_on_non_finite(benign_graphs, fault):
    def extra(batch, latent):
        if fault == "loss":
            return latent.mu.sum() * np.inf
        return _root(latent.mu).sum()

    with pytest.raises(StateError, match=f"non-finite {fault}.*epoch 0, batch 0, windows \\["):
        train_vgae(benign_graphs[:20], VgaeConfig.student(), seed=1, epochs=1, batch_size=8, extra_loss_fn=extra)
