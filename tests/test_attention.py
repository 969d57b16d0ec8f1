"""The fused attention op against the per-edge composition it replaced.

``per_edge_gat_layer`` builds the same convolution from per-edge tape
ops. The forward of ``tensor.graph_attention`` must give the same bits;
its closed-form backward must agree with the tape's to rounding.
"""

import dataclasses
import functools

import numpy as np
import pytest

from canids import gat, tensor as T, vgae
from canids.gat import GatClassifier, GatConfig, GraphBatch, prepare_graph
from canids.graphs import WindowGraph
from canids.losses import cross_entropy
from canids.tensor import Tensor
from canids.vgae import VgaeConfig, VgaeModel
from helpers import record_attention


def per_edge_gat_layer(h, prep, params, heads, d_head, slope, agg="concat", attention=None):
    """Reference attention convolution composed of per-edge tape ops.

    The form ``gat.gat_layer`` had before attention became the single
    ``tensor.graph_attention`` op: per-edge logits from gathered
    (E, heads, d) features, and the segment softmax and message sum as
    separate ops, each differentiated by the tape. Each call appends
    (alpha, dst, n) to ``attention``, as ``helpers.record_attention`` does.
    """
    n = prep.num_nodes
    e = len(prep.src)
    wh = (h @ params.weight.tensor).reshape((n, heads, d_head))
    wh_src = T.gather_rows(wh, prep.src)
    wh_dst = T.gather_rows(wh, prep.dst)
    logits = (wh_src * params.att_src.tensor).sum(axis=2) + (wh_dst * params.att_dst.tensor).sum(axis=2)
    logits = T.leaky_relu(logits, slope) + prep.log_w  # (e, heads)
    peak = np.full((n, heads), -np.inf)
    np.maximum.at(peak, prep.dst, logits.values)
    exp_l = T.exp(logits - peak[prep.dst])
    denom = T.scatter_add_rows(exp_l, prep.dst, n)
    alpha = exp_l / T.gather_rows(denom, prep.dst)
    if attention is not None:
        attention.append((alpha.values.copy(), prep.dst.copy(), n))
    msg = wh_src * alpha.reshape((e, heads, 1))
    out = T.scatter_add_rows(msg, prep.dst, n)
    out = out.reshape((n, heads * d_head)) if agg == "concat" else out.mean(axis=1)
    return T.elu(out + params.bias.tensor)


PRESETS = {
    "teacher": (GatConfig.teacher(), VgaeConfig.teacher()),
    "student": (GatConfig.student(), VgaeConfig.student()),
}


def isolated_node_graph(start):
    # node 2 has no in-edge and node 3 no edge at all: both get a self-loop
    rng = np.random.Generator(np.random.PCG64(start))
    return WindowGraph(
        [0x110, 0x220, 0x330, 0x3A0], rng.uniform(0, 1, size=(4, 3)),
        np.array([0, 1, 2, 0]), np.array([1, 0, 1, 0]), np.array([3.0, 1.0, 2.0, 1.0]), 0, start,
    )


def batches(mixed_graphs):
    return {
        "mixed": GraphBatch.concat(prepare_graph(g) for g in mixed_graphs[::40][:12]),
        "isolated": GraphBatch.concat(
            [prepare_graph(isolated_node_graph(s)) for s in range(3)] + [prepare_graph(mixed_graphs[1])]
        ),
    }


def run(forward, params, batch, oracle, monkeypatch, module):
    """Outputs, per-layer alphas and gradients of params and node features, through ``gat.gat_layer``
    or, with ``oracle``, through ``per_edge_gat_layer`` in its place."""
    with monkeypatch.context() as patch:
        if oracle:
            attention = []
            patch.setattr(module, "gat_layer", functools.partial(per_edge_gat_layer, attention=attention))
        else:
            attention = record_attention(patch)
        x = Tensor(batch.x.values.copy(), requires_grad=True)
        batch = dataclasses.replace(batch, x=x)
        for p in params:
            p.tensor.zero_grad()
        out = forward(batch)
        (out * out).sum().backward()
    grads = {p.name: p.tensor.grad.copy() for p in params}
    grads["h"] = x.grad.copy()
    return out.values.copy(), [alpha for alpha, _, _ in attention], grads


def assert_equivalent(fused, oracle):
    out, alphas, grads = fused
    out_ref, alphas_ref, grads_ref = oracle
    assert out.tobytes() == out_ref.tobytes()
    assert len(alphas) == len(alphas_ref)
    for a, a_ref in zip(alphas, alphas_ref):
        assert a.tobytes() == a_ref.tobytes()
    assert grads.keys() == grads_ref.keys()
    overall = max(np.abs(g).max() for g in grads_ref.values())
    for name, g_ref in grads_ref.items():
        # an att_dst gradient is exactly zero when each node's in-edges share a
        # leaky branch (softmax shift invariance); there both sides are rounding
        # noise, so the scale has a floor relative to the whole model's gradient
        scale = max(np.abs(g_ref).max(), 1e-3 * overall)
        assert np.abs(grads[name] - g_ref).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("batch_name", ["mixed", "isolated"])
def test_gat_forward_and_gradients_match_per_edge_oracle(mixed_graphs, monkeypatch, preset, batch_name):
    batch = batches(mixed_graphs)[batch_name]
    model = GatClassifier(PRESETS[preset][0], seed=3)

    def forward(b):
        return model.forward(b)[1]

    fused = run(forward, model.params(), batch, False, monkeypatch, gat)
    oracle = run(forward, model.params(), batch, True, monkeypatch, gat)
    assert_equivalent(fused, oracle)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("batch_name", ["mixed", "isolated"])
def test_vgae_encoder_matches_per_edge_oracle(mixed_graphs, monkeypatch, preset, batch_name):
    batch = batches(mixed_graphs)[batch_name]
    model = VgaeModel(PRESETS[preset][1], seed=4)
    params = [p for p in model.params() if p.name.startswith("enc")]

    def forward(b):
        latent = model.encode(b)
        return T.concat([latent.mu, latent.log_sigma], axis=1)

    fused = run(forward, params, batch, False, monkeypatch, vgae)
    oracle = run(forward, params, batch, True, monkeypatch, vgae)
    assert_equivalent(fused, oracle)


def test_teacher_batch_loss_tape_is_small(mixed_graphs):
    # one op per attention layer and per dense layer; the per-edge composition built about 150 tape nodes
    batch = GraphBatch.concat(prepare_graph(g) for g in mixed_graphs[:16])
    model = GatClassifier(GatConfig.teacher(), seed=1)
    _, logits, _ = model.forward(batch)
    loss = cross_entropy(logits, np.array([g.label for g in batch.graphs]))
    assert len(T._toposort(loss)) <= 58
