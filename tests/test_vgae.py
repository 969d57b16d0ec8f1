import math

import numpy as np
import pytest

from canids.errors import ConfigError, StateError
from canids.gat import prepare_graph
from canids.graphs import WindowGraph
from canids.optim import seeded_rng
from canids.tensor import Tensor
from canids.vgae import (
    CompositeWeights,
    DecodedGraph,
    VgaeConfig,
    VgaeModel,
    combine_errors,
    count_params,
    expected_param_shapes,
    sample_non_edges,
    train_vgae,
    write_error_components_csv,
)
from helpers import model_gradient_error

TINY = VgaeConfig(num_layers=2, attn_heads=2, hidden_channels=4, latent_dim=3, id_buckets=16)


def one_node_graph():
    return WindowGraph(
        [5], np.array([[0.1, 1.0, 0.4]]), np.array([0]), np.array([0]), np.array([99.0]), 0, 0
    )


def test_encode_shapes_one_node():
    model = VgaeModel(TINY, seed=1)
    latent = model.encode(model.prepare(one_node_graph()))
    assert latent.mu.shape == (1, 3)
    assert latent.log_sigma.shape == (1, 3)


def test_inference_z_equals_mu(benign_graphs):
    model = VgaeModel(TINY, seed=1)
    latent = model.encode(model.prepare(benign_graphs[0]))
    assert np.array_equal(latent.z.values, latent.mu.values)


def test_training_sample_deterministic(benign_graphs):
    model = VgaeModel(TINY, seed=1)
    prep = model.prepare(benign_graphs[0])
    za = model.encode(prep, training=True, rng=seeded_rng(3)).z.values
    zb = model.encode(prep, training=True, rng=seeded_rng(3)).z.values
    assert np.array_equal(za, zb)
    assert not np.array_equal(za, model.encode(prep).z.values)


def test_encoder_shape_depends_only_on_node_count(benign_graphs, mixed_graphs):
    model = VgaeModel(TINY, seed=2)
    for g in [benign_graphs[0], mixed_graphs[0], mixed_graphs[-1]]:
        latent = model.encode(model.prepare(g))
        assert latent.mu.shape == (g.num_nodes, TINY.latent_dim)


def test_decode_adjacency_contract():
    model = VgaeModel(TINY, seed=1)
    z = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    adj = model.decode_adjacency(z).values
    assert adj[0, 1] == 0.5  # orthogonal latents
    z = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
    adj = model.decode_adjacency(z).values
    assert abs(adj[0, 1] - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12

    rng = np.random.Generator(np.random.PCG64(4))
    z = Tensor(rng.standard_normal((6, 3)))
    adj = model.decode_adjacency(z).values
    assert np.max(np.abs(adj - adj.T)) <= 1e-12
    assert np.all((adj > 0) & (adj < 1))


def test_decode_features_contract(benign_graphs):
    model = VgaeModel(VgaeConfig(2, 2, 16, 8, id_buckets=256), seed=1)
    prep = model.prepare(benign_graphs[0])
    latent = model.encode(prep)
    feats, id_logits = model.decode_features(latent.z)
    n = benign_graphs[0].num_nodes
    assert feats.shape == (n, 3)
    assert id_logits.shape == (n, 256)
    assert np.all((feats.values > 0) & (feats.values < 1))
    feats2, _ = model.decode_features(latent.z)
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
    prep = model.prepare(g)
    n = 2
    z = np.array([[20.0, 0.0, 0.0], [-20.0, 0.0, 0.0]])
    id_logits = np.full((n, 16), -1000.0)
    id_logits[np.arange(n), prep.id_buckets] = 1000.0
    decoded = DecodedGraph(Tensor(z), Tensor(g.node_features.copy()), Tensor(id_logits))
    latent = type(model.encode(prep))(
        mu=Tensor(np.zeros((n, 3))), log_sigma=Tensor(np.zeros((n, 3))), z=Tensor(z)
    )
    loss = model.elbo_loss(prep, latent, decoded, seeded_rng(0)).item()
    assert 0.0 <= loss < 1e-5


def test_elbo_finite_on_random_init(mixed_graphs):
    big = max(mixed_graphs, key=lambda g: g.num_nodes)
    model = VgaeModel(VgaeConfig.student(), seed=3)
    prep = model.prepare(big)
    latent = model.encode(prep, training=True, rng=seeded_rng(1))
    loss = model.elbo_loss(prep, latent, model.decode(latent.z), seeded_rng(2))
    assert np.isfinite(loss.item())


def test_elbo_gradients_on_five_node_graphs(benign_graphs):
    five = next(g for g in benign_graphs if g.num_nodes >= 3)
    model = VgaeModel(TINY, seed=4)
    prep = model.prepare(five)
    noise_rng = seeded_rng(5)

    def loss():
        noise = seeded_rng(6).standard_normal((five.num_nodes, TINY.latent_dim))
        latent = model.encode(prep, training=True, noise=noise)
        return model.elbo_loss(prep, latent, model.decode(latent.z), seeded_rng(7))

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


def test_composite_error_deterministic_and_monotone_in_beta(benign_graphs):
    model = VgaeModel(TINY, seed=6)
    g = benign_graphs[0]
    a = model.composite_error(g, CompositeWeights(), seed=9)
    b = model.composite_error(g, CompositeWeights(), seed=9)
    assert a == b and a >= 0.0
    higher = model.composite_error(g, CompositeWeights(beta=25.0), seed=9)
    assert higher > a  # E_neighbor is a BCE, always > 0
    assert model.composite_error(g, CompositeWeights(0.0, 0.0, 0.0), seed=9) == 0.0


def test_score_modes(benign_graphs):
    model = VgaeModel(TINY, seed=6)
    g = benign_graphs[0]
    assert model.score(g, CompositeWeights(), 1, "adjacency_l2") == model.adjacency_l2(g)
    with pytest.raises(ConfigError):
        model.score(g, CompositeWeights(), 1, "nope")


def test_reconstruction_rank_semantics(benign_graphs):
    model = VgaeModel(TINY, seed=7)
    graphs = benign_graphs[:3]
    ranked = model.reconstruction_rank(graphs, scores=[0.1, 5.0, 2.0])
    assert [g.window_start_index for g in ranked] == [
        graphs[1].window_start_index,
        graphs[2].window_start_index,
        graphs[0].window_start_index,
    ]
    # equal scores: stream order preserved
    ranked = model.reconstruction_rank(graphs, scores=[1.0, 1.0, 1.0])
    assert ranked == graphs
    # idempotent on a ranked list
    scores = [model.composite_error(g, seed=1) for g in graphs]
    once = model.reconstruction_rank(graphs, seed=1, scores=scores)
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
    rng = seeded_rng(8)
    src = np.array([0, 1, 2])
    dst = np.array([1, 2, 0])
    s, d = sample_non_edges(4, src, dst, 6, rng)
    assert len(s) == 6
    edges = set(zip(src.tolist(), dst.tolist()))
    assert all((a, b) not in edges for a, b in zip(s.tolist(), d.tolist()))
    # complete graph: nothing to sample
    s, d = sample_non_edges(1, np.array([0]), np.array([0]), 5, rng)
    assert len(s) == 0


def test_checkpoint_round_trip(tmp_path, benign_graphs):
    model = VgaeModel(TINY, seed=9)
    p = tmp_path / "vgae.ckpt"
    model.save(p)
    clone = VgaeModel.load(p)
    g = benign_graphs[0]
    assert model.composite_error(g, seed=3) == clone.composite_error(g, seed=3)
    assert count_params(TINY) == sum(
        int(np.prod(s)) for s in expected_param_shapes(TINY).values()
    )


def test_error_components_csv(tmp_path, benign_graphs):
    model = VgaeModel(TINY, seed=9)
    p = tmp_path / "errors.csv"
    write_error_components_csv(model, benign_graphs[:4], p, seed=2)
    lines = p.read_text().splitlines()
    assert lines[0] == "window_start_index,e_node,e_neighbor,e_can_id,composite"
    assert len(lines) == 5
    first = lines[1].split(",")
    e_node, e_neighbor, e_canid, composite = (float(x) for x in first[1:])
    assert composite == combine_errors(CompositeWeights(), e_node, e_neighbor, e_canid)
