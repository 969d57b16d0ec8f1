import numpy as np
import pytest

from canids import tensor as T
from canids.checkpoint import load_checkpoint
from canids.errors import ConfigError, DimensionError, StateError
from canids.gat import (
    GatClassifier,
    GatConfig,
    count_params,
    gat_layer,
    init_gat_layer,
    jk_width,
    prepare_graph,
    train_supervised,
)
from canids.graphs import WindowGraph, build_windows
from canids.optim import seeded_rng
from canids.tensor import Tensor
from helpers import model_gradient_error, random_frames


def make_graph(node_ids, feats, edges, label=0, start=0):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges], dtype=np.float64)
    return WindowGraph(node_ids, np.asarray(feats, dtype=np.float64), src, dst, w, label, start)


def random_graph(rng, max_nodes=12):
    frames = random_frames(rng, int(rng.integers(5, 80)), rng.choice(2048, size=max_nodes, replace=False))
    return next(iter(build_windows(iter(frames), len(frames))))


def permute_graph(g, perm):
    """perm[old_index] = new_index, edges reindexed consistently."""
    n = g.num_nodes
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    return WindowGraph(
        node_ids=[g.node_ids[inv[j]] for j in range(n)],
        node_features=g.node_features[inv],
        edge_src=perm[g.edge_src],
        edge_dst=perm[g.edge_dst],
        edge_weight=g.edge_weight.copy(),
        label=g.label,
        window_start_index=g.window_start_index,
    )


def test_single_self_edge_attention_is_one():
    g = make_graph([5], [[0.1, 1.0, 0.4]], [(0, 0, 1.0)])
    prep = prepare_graph(g)
    rng = seeded_rng(0)
    params = init_gat_layer(rng, "l", 3, 2, 4, "concat")
    attn = []
    out = gat_layer(Tensor(g.node_features), prep, params, 2, 4, 0.2, "concat", attn)
    alpha, dst, n = attn[0]
    assert np.allclose(alpha, 1.0)
    # softmax of a singleton is 1, so the output is ELU(W h + bias)
    wh = g.node_features @ params.weight.tensor.values + params.bias.tensor.values
    assert np.allclose(out.values, np.where(wh > 0, wh, np.expm1(wh)))


def test_attention_rows_sum_to_one():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(10):
        g = random_graph(rng)
        prep = prepare_graph(g)
        model = GatClassifier(GatConfig(num_layers=3, attn_heads=2, hidden_channels=4), seed=1)
        attn = []
        model.forward(prep, collect_attention=attn)
        assert len(attn) == 3
        for alpha, dst, n in attn:
            sums = np.zeros((n, alpha.shape[1]))
            np.add.at(sums, dst, alpha)
            assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_isolated_node_gets_self_loop():
    # node 1 has no in-edge; prepare_graph adds (1, 1, w=1)
    g = make_graph([5, 9], [[0.1, 0.5, 0.2], [0.9, 0.5, 0.3]], [(1, 0, 3.0)])
    prep = prepare_graph(g)
    assert (1, 1) in set(zip(prep.src.tolist(), prep.dst.tolist()))


def test_layer_gradient_on_random_graph():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(5):
        g = random_graph(rng)
        prep = prepare_graph(g)
        params = init_gat_layer(seeded_rng(3), "l", 3, 2, 3, "concat")

        def loss():
            out = gat_layer(Tensor(g.node_features), prep, params, 2, 3, 0.2, "concat")
            return (out**2).mean()

        assert model_gradient_error(params.all(), loss) < 1e-4


def test_forward_contract(mixed_graphs):
    cfg = GatConfig(num_layers=3, attn_heads=2, hidden_channels=4)
    model = GatClassifier(cfg, seed=2)
    prep = prepare_graph(mixed_graphs[0])
    prob, logits, emb = model.forward(prep)
    assert 0.0 < prob.item() < 1.0
    soft = T.softmax(logits, axis=-1).values
    assert abs(soft.sum() - 1.0) <= 1e-12
    assert prob.shape == (1,) and logits.shape == (1, 2)
    assert emb.shape == (1, jk_width(cfg))


def test_jk_width_is_sum_of_layer_widths():
    cfg = GatConfig.teacher()
    # 4 hidden concat layers of heads*hidden, one averaged final layer
    assert jk_width(cfg) == 4 * 8 * 32 + 32
    assert jk_width(GatConfig.student()) == 4 * 16 + 16


def test_permutation_invariance(mixed_graphs):
    rng = np.random.Generator(np.random.PCG64(11))
    model = GatClassifier(GatConfig(num_layers=2, attn_heads=2, hidden_channels=4), seed=3)
    for g in mixed_graphs[:10]:
        prep = prepare_graph(g)
        base, _, _ = model.forward(prep)
        perm = rng.permutation(g.num_nodes)
        shuffled = prepare_graph(permute_graph(g, perm))
        permuted, _, _ = model.forward(shuffled)
        assert abs(base.item() - permuted.item()) <= 1e-9


def test_empty_graph_rejected():
    g = make_graph([], np.zeros((0, 3)), [])
    with pytest.raises(StateError):
        prepare_graph(g)


@pytest.mark.parametrize("edge", [(-1, 0), (0, -1), (2, 0), (0, 2)])
def test_edge_index_out_of_range_rejected(edge):
    g = make_graph([5, 9], [[0.1, 0.5, 0.2], [0.9, 0.5, 0.3]], [(0, 1, 1.0), (*edge, 1.0)])
    with pytest.raises(DimensionError, match="out of range"):
        prepare_graph(g)


def test_count_params_matches_checkpoint_and_presets(tmp_path):
    teacher_n = count_params(GatConfig.teacher())
    student_n = count_params(GatConfig.student())
    assert student_n / teacher_n <= 0.05
    assert count_params(GatConfig(5, 8, 64)) > teacher_n  # monotone in hidden width

    model = GatClassifier(GatConfig.student(), seed=4)
    assert sum(v.size for v in model.param_values().values()) == student_n
    p = tmp_path / "gat.ckpt"
    model.save(p)
    _, _, params = load_checkpoint(p)
    assert sum(v.size for v in params.values()) == student_n


def test_checkpoint_round_trip_and_validation(tmp_path, mixed_graphs):
    model = GatClassifier(GatConfig.student(), seed=5)
    p = tmp_path / "gat.ckpt"
    model.save(p)
    clone = GatClassifier.load(p)
    prep = prepare_graph(mixed_graphs[0])
    assert model.predict_prob(prep) == clone.predict_prob(prep)

    # shape tampering is rejected
    kind, cfg, params = load_checkpoint(p)
    params["head.bias"] = np.zeros(3)
    with pytest.raises(StateError):
        GatClassifier(GatConfig.student(), param_values=params)


def test_train_fits_separable_data(mixed_graphs):
    graphs = mixed_graphs[:50]
    labels = [g.label for g in graphs]
    assert 0 < sum(labels) < 50
    model, log = train_supervised(graphs, labels, GatConfig.student(), seed=6, epochs=30, batch_size=32)
    preds = [1 if model.predict_prob(prepare_graph(g)) >= 0.5 else 0 for g in graphs]
    assert preds == labels  # training accuracy 1.0
    # loss roughly non-increasing: plateaus allowed, no sustained growth
    assert log.epoch_losses[-1] < log.epoch_losses[0]
    assert min(log.epoch_losses) <= log.epoch_losses[0]


def test_train_same_seed_identical(mixed_graphs):
    graphs = mixed_graphs[:30]
    labels = [g.label for g in graphs]
    m1, _ = train_supervised(graphs, labels, GatConfig.student(), seed=9, epochs=3)
    m2, _ = train_supervised(graphs, labels, GatConfig.student(), seed=9, epochs=3)
    for a, b in zip(m1.params(), m2.params()):
        assert np.array_equal(a.tensor.values, b.tensor.values)


def test_single_class_rejected(benign_graphs):
    labels = [g.label for g in benign_graphs[:10]]
    with pytest.raises(ConfigError, match="1"):
        train_supervised(benign_graphs[:10], labels, GatConfig.student(), seed=1)


def test_gradient_through_full_stack(mixed_graphs):
    from canids.losses import cross_entropy

    model = GatClassifier(GatConfig(num_layers=2, attn_heads=2, hidden_channels=3), seed=8)
    prep = prepare_graph(mixed_graphs[1])

    def loss():
        _, logits, _ = model.forward(prep)
        return cross_entropy(logits, 1)

    assert model_gradient_error(model.params(), loss) < 1e-4
