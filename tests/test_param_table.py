"""Table-built parameters against the hand-written initialisers they replaced.

``reference_*`` are the per-model constructors the models had before every
parameter came from one name -> shape table: the same derived seed streams,
the same draw order and the same Glorot fans. Each model built from its
table must give the same names in the same order, and the same bits.
"""

import numpy as np
import pytest

from canids.distill import LatentProjection
from canids.gat import IN_DIM, GatClassifier, GatConfig
from canids.optim import count_params, derive_seed, glorot_uniform
from canids.vgae import VgaeConfig, VgaeModel

SEEDS = [0, 1, 7, 201]


def reference_gat_layer(rng, name, d_in, heads, d_head, agg):
    d_out = heads * d_head
    return [
        (f"{name}.weight", glorot_uniform(rng, (d_in, d_out), d_in, d_out)),
        (f"{name}.att_src", glorot_uniform(rng, (heads, d_head), d_head, 1)),
        (f"{name}.att_dst", glorot_uniform(rng, (heads, d_head), d_head, 1)),
        (f"{name}.bias", np.zeros(d_out if agg == "concat" else d_head)),
    ]


def reference_gat(config, seed):
    rng = derive_seed(seed, 11)
    k, hc = config.attn_heads, config.hidden_channels
    out, d_in, jk = [], IN_DIM, 0
    for layer in range(config.num_layers):
        agg = config.head_agg if layer == config.num_layers - 1 else "concat"
        out += reference_gat_layer(rng, f"conv{layer}", d_in, k, hc, agg)
        d_in = k * hc if agg == "concat" else hc
        jk += d_in
    out.append(("head.weight", glorot_uniform(rng, (jk, 2), jk, 2)))
    out.append(("head.bias", np.zeros(2)))
    return out


def reference_vgae(config, seed):
    rng = derive_seed(seed, 31)
    k, hc, lat = config.attn_heads, config.hidden_channels, config.latent_dim
    out, d_in = [], IN_DIM
    for layer in range(config.num_layers - 1):
        out += reference_gat_layer(rng, f"enc{layer}", d_in, k, hc, "concat")
        d_in = k * hc
    for name in ("mu", "log_sigma"):
        out.append((f"{name}.weight", glorot_uniform(rng, (d_in, lat), d_in, lat)))
        out.append((f"{name}.bias", np.zeros(lat)))
    for head, width in (("feat", 3), ("canid", config.id_buckets)):
        out.append((f"dec_{head}.w1", glorot_uniform(rng, (lat, hc), lat, hc)))
        out.append((f"dec_{head}.b1", np.zeros(hc)))
        out.append((f"dec_{head}.w2", glorot_uniform(rng, (hc, width), hc, width)))
        out.append((f"dec_{head}.b2", np.zeros(width)))
    return out


def reference_projection(student_dim, teacher_dim, seed):
    rng = derive_seed(seed, 41)
    out = []
    for name in ("mu", "ls"):
        out.append((f"proj.{name}_weight", glorot_uniform(rng, (student_dim, teacher_dim), student_dim, teacher_dim)))
        out.append((f"proj.{name}_bias", np.zeros(teacher_dim)))
    return out


GAT_CONFIGS = {
    "teacher": GatConfig.teacher(),
    "student": GatConfig.student(),
    "concat": GatConfig(num_layers=3, attn_heads=2, hidden_channels=5, head_agg="concat"),
}
VGAE_CONFIGS = {"teacher": VgaeConfig.teacher(), "student": VgaeConfig.student()}


def assert_same_params(params, reference):
    assert [p.name for p in params] == [name for name, _ in reference]
    for p, (name, values) in zip(params, reference):
        assert p.tensor.values.shape == values.shape, name
        assert p.tensor.values.tobytes() == values.tobytes(), name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", sorted(GAT_CONFIGS))
def test_gat_params_match_reference_init(preset, seed):
    config = GAT_CONFIGS[preset]
    reference = reference_gat(config, seed)
    assert_same_params(GatClassifier(config, seed=seed).params(), reference)
    assert count_params(config) == sum(values.size for _, values in reference)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", sorted(VGAE_CONFIGS))
def test_vgae_params_match_reference_init(preset, seed):
    config = VGAE_CONFIGS[preset]
    reference = reference_vgae(config, seed)
    assert_same_params(VgaeModel(config, seed=seed).params(), reference)
    assert count_params(config) == sum(values.size for _, values in reference)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", [(8, 16), (3, 5)])
def test_projection_params_match_reference_init(dims, seed):
    assert_same_params(LatentProjection(*dims, seed=seed).params(), reference_projection(*dims, seed))
