import dataclasses
import functools

import numpy as np
import pytest

from canids import tensor as T
from canids.checkpoint import load_checkpoint
from canids.errors import ConfigError, DimensionError, StateError
from canids.gat import (
    GatClassifier,
    GatConfig,
    GatLayerParams,
    GraphBatch,
    gat_layer,
    jk_width,
    layer_shapes,
    prepare_graph,
    train_supervised,
)
from canids.graphs import WindowGraph, build_windows
from canids.metrics import Metrics
from canids.optim import count_params, init_params
from canids.tensor import Tensor
from helpers import model_gradient_error, one_id_window, random_frames, record_attention


def make_graph(node_ids, feats, edges, label=0, start=0):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges], dtype=np.float64)
    return WindowGraph(node_ids, np.asarray(feats, dtype=np.float64), src, dst, w, label, start)


def random_graph(rng, max_nodes=12):
    frames = random_frames(rng, int(rng.integers(5, 80)), rng.choice(2048, size=max_nodes, replace=False))
    return next(iter(build_windows(iter(frames), len(frames))))


def init_layer(rng, d_in, heads, d_head, agg):
    """One attention layer's parameters, built the way a model builds them."""
    return GatLayerParams.of(init_params(rng, layer_shapes("l", d_in, heads, d_head, agg)), "l")


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


def test_single_self_edge_attention_is_one(monkeypatch):
    g = make_graph([5], [[0.1, 1.0, 0.4]], [(0, 0, 1.0)])
    prep = prepare_graph(g)
    rng = np.random.default_rng(0)
    params = init_layer(rng, 3, 2, 4, "concat")
    attn = record_attention(monkeypatch)
    out = gat_layer(Tensor(g.node_features), prep, params, 2, 4, 0.2, "concat")
    alpha, dst, n = attn[0]
    assert np.allclose(alpha, 1.0)
    # softmax of a singleton is 1, so the output is ELU(W h + bias)
    wh = g.node_features @ params.weight.tensor.values + params.bias.tensor.values
    assert np.allclose(out.values, np.where(wh > 0, wh, np.expm1(wh)))


def test_attention_rows_sum_to_one(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(5))
    attn = record_attention(monkeypatch)
    for _ in range(10):
        g = random_graph(rng)
        prep = prepare_graph(g)
        model = GatClassifier(GatConfig(num_layers=3, attn_heads=2, hidden_channels=4), seed=1)
        attn.clear()
        model.forward(prep)
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
        params = init_layer(np.random.default_rng(3), 3, 2, 3, "concat")

        def loss():
            out = gat_layer(Tensor(g.node_features), prep, params, 2, 3, 0.2, "concat")
            return (out**2).mean()

        assert model_gradient_error(list(params), loss) < 1e-4


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


@pytest.mark.parametrize(
    "field, value",
    [("num_layers", "2"), ("num_layers", 2.0), ("attn_heads", True), ("hidden_channels", 0),
     ("leaky_slope", "0.2"), ("leaky_slope", float("nan"))],
)
def test_config_field_types_are_checked(field, value):
    with pytest.raises(ConfigError, match=field):
        dataclasses.replace(GatConfig.student(), **{field: value})


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


def test_val_f1_is_metrics_f1(mixed_graphs):
    graphs, val = mixed_graphs[:50], mixed_graphs[50:110]
    truths = [g.label for g in val]
    assert 0 < sum(truths) < len(val)
    model, log = train_supervised(
        graphs, [g.label for g in graphs], GatConfig.student(), seed=6, epochs=6,
        val_graphs=val, patience=6,
    )
    # the best epoch's parameters are restored, so the model reproduces that epoch's F1
    with T.no_grad():
        probs, _, _ = model.forward(GraphBatch.of(val))
    preds = [1 if p >= 0.5 else 0 for p in probs.values]
    assert log.val_f1[log.best_epoch] == Metrics.from_pairs(truths, preds).f1
    assert log.val_f1[log.best_epoch] == max(log.val_f1)


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


def concat_then_pool_forward(model, batch):
    """``forward`` with the readout's first formulation: every layer's output concatenated per node
    into one (nodes, jk_width) array, then mean-pooled per window."""
    cfg = model.config
    h, per_layer = batch.x, []
    for layer_params, agg in model.layers:
        h = gat_layer(h, batch, layer_params, cfg.attn_heads, cfg.hidden_channels, cfg.leaky_slope, agg)
        per_layer.append(h)
    jk = per_layer[0] if len(per_layer) == 1 else T.concat(per_layer, axis=1)
    embedding = T.segment_mean(jk, batch.graph_index, batch.node_counts)
    logits = T.linear(embedding, model.table["head.weight"].tensor, model.table["head.bias"].tensor)
    return T.softmax(logits, axis=-1)[:, 1], logits, embedding


READOUT_CONFIGS = {
    "teacher": GatConfig.teacher(),
    "student": GatConfig.student(),
    "concat": GatConfig(num_layers=3, attn_heads=2, hidden_channels=4, head_agg="concat"),
    "one-layer": GatConfig(num_layers=1, attn_heads=3, hidden_channels=2),
}


@pytest.mark.parametrize("name", READOUT_CONFIGS)
def test_per_layer_pooling_equals_concat_then_pool_bitwise(mixed_graphs, name):
    config = READOUT_CONFIGS[name]
    isolated = make_graph([5, 9, 12], [[0.1, 0.5, 0.2], [0.9, 0.5, 0.3], [0.4, 0.1, 0.8]], [(1, 0, 3.0)])
    edgeless = make_graph([7], [[0.3, 0.2, 0.6]], [])
    graphs = [mixed_graphs[0], one_id_window(100), isolated, *mixed_graphs[3:40:9], edgeless]
    batch = GraphBatch.of(graphs)
    # one-node windows, and nodes whose only attention edge is the added self-loop
    assert (batch.node_counts == 1).sum() == 2 and len(batch.src) > len(batch.edge_src)
    model = GatClassifier(config, seed=5)
    rng = np.random.default_rng(9)
    weights = [rng.normal(size=(batch.num_graphs,) + shape) for shape in ((), (2,), (jk_width(config),))]
    results = []
    for forward in (model.forward, lambda b: concat_then_pool_forward(model, b)):
        for p in model.params():
            p.tensor.zero_grad()
        outputs = forward(batch)
        functools.reduce(T.add, ((out * w).sum() for out, w in zip(outputs, weights))).backward()
        results.append([out.values for out in outputs] + [p.tensor.grad for p in model.params()])
    got, want = results
    assert len(got) == len(want) == 3 + len(model.params())
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
