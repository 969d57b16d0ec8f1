import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import tensor as T
from canids.errors import ConfigError, StateError
from canids.gat import GraphBatch, prepare_graph
from canids.graphs import WindowGraph
from canids.optim import count_params
from canids.tensor import Tensor
from canids.vgae import (
    CompositeWeights,
    VgaeConfig,
    VgaeModel,
    combine_errors,
    sample_non_edges,
    train_vgae,
)
from helpers import model_gradient_error, one_id_window

TINY = VgaeConfig(num_layers=2, attn_heads=2, hidden_channels=4, latent_dim=3, id_buckets=16)


def one_node_graph():
    return WindowGraph(
        [5], np.array([[0.1, 1.0, 0.4]]), np.array([0]), np.array([0]), np.array([99.0]), 0, 0
    )


def test_encode_shapes_one_node():
    model = VgaeModel(TINY, seed=1)
    latent = model.encode(prepare_graph(one_node_graph()))
    assert latent.mu.shape == (1, 3)
    assert latent.log_sigma.shape == (1, 3)


def test_inference_z_equals_mu(benign_graphs):
    model = VgaeModel(TINY, seed=1)
    latent = model.encode(prepare_graph(benign_graphs[0]))
    assert np.array_equal(latent.z.values, latent.mu.values)


def test_training_sample_deterministic(benign_graphs):
    model = VgaeModel(TINY, seed=1)
    prep = prepare_graph(benign_graphs[0])
    za = model.encode(prep, training=True, rng=np.random.default_rng(3)).z.values
    zb = model.encode(prep, training=True, rng=np.random.default_rng(3)).z.values
    assert np.array_equal(za, zb)
    assert not np.array_equal(za, model.encode(prep).z.values)


def test_encoder_shape_depends_only_on_node_count(benign_graphs, mixed_graphs):
    model = VgaeModel(TINY, seed=2)
    for g in [benign_graphs[0], mixed_graphs[0], mixed_graphs[-1]]:
        latent = model.encode(prepare_graph(g))
        assert latent.mu.shape == (g.num_nodes, TINY.latent_dim)


def decoded_adjacency(z):
    """The edge decoder read at every (i, j) pair of z's rows, as an n x n matrix."""
    n = z.shape[0]
    rows, cols = np.divmod(np.arange(n * n), n)
    return T.sigmoid_inner_product(Tensor(z), rows, cols).values.reshape(n, n)


def test_decode_adjacency_contract():
    adj = decoded_adjacency(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert adj[0, 1] == 0.5  # orthogonal latents
    adj = decoded_adjacency(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert abs(adj[0, 1] - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12

    rng = np.random.Generator(np.random.PCG64(4))
    adj = decoded_adjacency(rng.standard_normal((6, 3)))
    assert np.max(np.abs(adj - adj.T)) <= 1e-12
    assert np.all((adj > 0) & (adj < 1))


@pytest.mark.parametrize("config", [VgaeConfig.teacher(), VgaeConfig.student()], ids=["teacher", "student"])
def test_adjacency_l2_matches_dense_formula(config, mixed_graphs):
    """adjacency_l2 reads the per-edge decoder; the dense sigmoid(z @ z.T) is the reference here."""
    model = VgaeModel(config, seed=3)
    for g in mixed_graphs[::25] + [one_node_graph()]:
        prep = prepare_graph(g)
        z = model.posterior_mean(prep).values
        a = np.zeros((g.num_nodes, g.num_nodes))
        a[g.edge_src, g.edge_dst] = 1.0
        want = float(np.linalg.norm(a - 1.0 / (1.0 + np.exp(-(z @ z.T)))))
        assert abs(model.score(g, CompositeWeights(), 0, "adjacency_l2") - want) <= 1e-12 * want


def test_decode_features_contract(benign_graphs):
    model = VgaeModel(VgaeConfig(2, 2, 16, 8, id_buckets=256), seed=1)
    prep = prepare_graph(benign_graphs[0])
    latent = model.encode(prep)
    feats, id_logits = model.decode(latent.z)
    n = benign_graphs[0].num_nodes
    assert feats.shape == (n, 3)
    assert id_logits.shape == (n, 256)
    assert np.all((feats.values > 0) & (feats.values < 1))
    feats2, _ = model.decode(latent.z)
    assert np.array_equal(feats.values, feats2.values)


def test_elbo_near_zero_for_perfect_reconstruction():
    # two self-looped nodes: the inner-product decode is near 1 on the
    # self-edges (z_i . z_i = 400) and near 0 on the non-edges (-400)
    g = WindowGraph(
        [5, 9],
        np.array([[0.2, 0.5, 0.3], [0.6, 0.5, 0.1]]),
        np.array([0, 1]),
        np.array([0, 1]),
        np.array([2.0, 1.0]),
        0,
        0,
    )
    model = VgaeModel(VgaeConfig(2, 2, 4, 3, id_buckets=16), seed=1)
    prep = prepare_graph(g)
    n = 2
    z = np.array([[20.0, 0.0, 0.0], [-20.0, 0.0, 0.0]])
    id_logits = np.full((n, 16), -1000.0)
    id_logits[np.arange(n), prep.node_ids % 16] = 1000.0
    latent = type(model.encode(prep))(
        mu=Tensor(np.zeros((n, 3))), log_sigma=Tensor(np.zeros((n, 3))), z=Tensor(z)
    )
    # made-up decoder heads: the features exactly, the right ID bucket at logit +1000
    model.decode = lambda _z: (Tensor(g.node_features.copy()), Tensor(id_logits))
    loss = model.elbo_loss(prep, latent, np.random.default_rng(0)).item()
    assert 0.0 <= loss < 1e-5


def test_elbo_finite_on_random_init(mixed_graphs):
    big = max(mixed_graphs, key=lambda g: g.num_nodes)
    model = VgaeModel(VgaeConfig.student(), seed=3)
    prep = prepare_graph(big)
    latent = model.encode(prep, training=True, rng=np.random.default_rng(1))
    loss = model.elbo_loss(prep, latent, np.random.default_rng(2))
    assert np.isfinite(loss.item())


def test_elbo_gradients_on_five_node_graphs(benign_graphs):
    five = next(g for g in benign_graphs if g.num_nodes >= 3)
    model = VgaeModel(TINY, seed=4)
    prep = prepare_graph(five)

    def loss():
        latent = model.encode(prep, training=True, rng=np.random.default_rng(6))
        return model.elbo_loss(prep, latent, np.random.default_rng(7))

    assert model_gradient_error(model.params(), loss) < 1e-4


def test_training_loss_decreases(benign_graphs):
    model, losses = train_vgae(benign_graphs[:100], VgaeConfig.student(), seed=5, epochs=20)
    assert len(losses) == 20
    # stochastic ELBO: strict decrease over the run, early mean above late mean
    assert losses[-1] < losses[0]
    assert np.mean(losses[-5:]) < np.mean(losses[:5])


def test_train_rejects_attack_windows(mixed_graphs):
    with pytest.raises(ConfigError):
        train_vgae(mixed_graphs, VgaeConfig.student(), seed=1, epochs=1)


def test_composite_weighting_exact():
    assert combine_errors(CompositeWeights(), 1.0, 1.0, 1.0) == 21.3
    assert combine_errors(CompositeWeights(0.0, 0.0, 0.0), 3.2, 9.9, 4.4) == 0.0
    with pytest.raises(ConfigError):
        CompositeWeights(alpha=-0.1)


def test_composite_score_deterministic_and_monotone_in_beta(benign_graphs):
    model = VgaeModel(TINY, seed=6)
    g = benign_graphs[0]
    a = model.score(g, CompositeWeights(), 9)
    b = model.score(g, CompositeWeights(), 9)
    assert a == b and a >= 0.0
    assert a == combine_errors(CompositeWeights(), *(t[0] for t in model.error_terms(g, 9)))
    higher = model.score(g, CompositeWeights(beta=25.0), 9)
    assert higher > a  # E_neighbor is a BCE, always > 0
    assert model.score(g, CompositeWeights(0.0, 0.0, 0.0), 9) == 0.0


def test_score_modes(benign_graphs):
    model = VgaeModel(TINY, seed=6)
    g = benign_graphs[0]
    assert model.score(g, CompositeWeights(), 1, "adjacency_l2") == model.score_batch([g], score_mode="adjacency_l2")[0]
    with pytest.raises(ConfigError):
        model.score(g, CompositeWeights(), 1, "nope")


def test_reconstruction_rank_semantics(benign_graphs, monkeypatch):
    model = VgaeModel(TINY, seed=7)
    graphs = benign_graphs[:3]

    def fixed_scores(*scores):
        table = {g.window_start_index: s for g, s in zip(graphs, scores)}
        monkeypatch.setattr(model, "score_batch", lambda gs, *args: [table[g.window_start_index] for g in gs])

    fixed_scores(0.1, 5.0, 2.0)
    ranked = model.reconstruction_rank(graphs)
    assert [g.window_start_index for g in ranked] == [
        graphs[1].window_start_index,
        graphs[2].window_start_index,
        graphs[0].window_start_index,
    ]
    # equal scores: stream order preserved
    fixed_scores(1.0, 1.0, 1.0)
    ranked = model.reconstruction_rank(graphs)
    assert ranked == graphs
    # idempotent on a ranked list
    monkeypatch.undo()
    once = model.reconstruction_rank(graphs, seed=1)
    twice = model.reconstruction_rank(once, seed=1)
    assert once == twice
    with pytest.raises(StateError):
        model.reconstruction_rank([])


def test_reconstruction_rank_rejects_attacks(mixed_graphs):
    model = VgaeModel(TINY, seed=7)
    attacked = [g for g in mixed_graphs if g.label == 1]
    with pytest.raises(ConfigError):
        model.reconstruction_rank(attacked)


def test_sample_non_edges_avoids_edges():
    rng = np.random.default_rng(8)
    src = np.array([0, 1, 2])
    dst = np.array([1, 2, 0])
    s, d = sample_non_edges(4, src, dst, 6, rng)
    assert len(s) == 6
    edges = set(zip(src.tolist(), dst.tolist()))
    assert all((a, b) not in edges for a, b in zip(s.tolist(), d.tolist()))
    # complete graph: nothing to sample
    s, d = sample_non_edges(1, np.array([0]), np.array([0]), 5, rng)
    assert len(s) == 0


def isin_sample_non_edges(n, edge_src, edge_dst, count, rng):
    """The sampler's rejection loop with np.isin on every attempt."""
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


@st.composite
def edge_sets(draw):
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(n)]
    # a full graph, with or without repeated edges, or any subset
    chosen = draw(st.one_of(
        st.just(pairs),
        st.lists(st.sampled_from(pairs), min_size=len(pairs), max_size=len(pairs) + 3).map(lambda e: pairs + e),
        st.lists(st.sampled_from(pairs), max_size=3 * len(pairs)),
    ))
    src = np.array([i for i, _ in chosen], dtype=np.int64)
    dst = np.array([j for _, j in chosen], dtype=np.int64)
    return n, src, dst, draw(st.integers(0, 12)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(edge_sets())
def test_sample_non_edges_equals_isin_reference(case):
    n, src, dst, count, seed = case
    got = sample_non_edges(n, src, dst, count, np.random.default_rng(seed))
    expected = isin_sample_non_edges(n, src, dst, count, np.random.default_rng(seed))
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_checkpoint_round_trip(tmp_path, benign_graphs):
    model = VgaeModel(TINY, seed=9)
    p = tmp_path / "vgae.ckpt"
    model.save(p)
    clone = VgaeModel.load(p)
    g = benign_graphs[0]
    assert model.score(g, CompositeWeights(), 3) == clone.score(g, CompositeWeights(), 3)
    assert count_params(TINY) == sum(v.size for v in clone.param_values().values())


def isolated_node_window():
    # node 2 has no in-edge and node 3 no edge at all: both get a self-loop
    rng = np.random.Generator(np.random.PCG64(8))
    return WindowGraph(
        [0x110, 0x220, 0x330, 0x3A0], rng.uniform(0, 1, size=(4, 3)),
        np.array([0, 1, 2, 0]), np.array([1, 0, 1, 0]), np.array([3.0, 1.0, 2.0, 1.0]), 0, 0,
    )


@pytest.mark.parametrize("config", [VgaeConfig.teacher(), VgaeConfig.student()], ids=["teacher", "student"])
def test_scoring_decodes_the_posterior_mean_of_encode(mixed_graphs, config):
    model = VgaeModel(config, seed=6)
    decoded_z = []
    decode = model.decode

    def capture(z):
        decoded_z.append(z.values)
        return decode(z)

    model.decode = capture
    windows = [isolated_node_window(), one_node_graph(), mixed_graphs[0], mixed_graphs[-1]]
    for g in windows:
        prep = prepare_graph(g)
        assert model.posterior_mean(prep).values.tobytes() == model.encode(prep).mu.values.tobytes()
        # a lone one-node window is scored as two copies of itself, so that no product has one row
        scored = GraphBatch.concat([prep, prep]) if g.num_nodes == 1 else prep
        model.error_terms(prep, seed=3)
        assert decoded_z[-1].tobytes() == model.encode(scored).mu.values.tobytes()
    assert len(decoded_z) == len(windows)


@pytest.mark.parametrize("score_mode", ["composite", "adjacency_l2"])
@pytest.mark.parametrize("config", [VgaeConfig.teacher(), VgaeConfig.student()], ids=["teacher", "student"])
def test_random_batch_splits_score_each_window_as_alone(mixed_graphs, config, score_mode):
    model = VgaeModel(config, seed=4)
    windows = mixed_graphs[::3] + [one_id_window(10**6), isolated_node_window()]
    alone = [model.score(g, CompositeWeights(), 5, score_mode) for g in windows]
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(3):
        order = rng.permutation(len(windows))
        cuts = np.sort(rng.choice(np.arange(1, len(windows)), size=5, replace=False))
        for part in np.split(order, cuts):
            batch = GraphBatch.concat(prepare_graph(windows[i]) for i in part)
            got = model.score_batch([batch], CompositeWeights(), 5, score_mode)
            assert got == [alone[i] for i in part]  # float equality: bit for bit
    assert model.score_batch(windows, CompositeWeights(), 5, score_mode) == alone
