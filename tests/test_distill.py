import math
import sys
from pathlib import Path

import numpy as np
import pytest

from canids import distill
from canids.distill import (
    KdConfig,
    LatentProjection,
    distill_pipeline,
    kd_classifier_loss,
    kd_latent_loss,
    soften,
)
from canids.errors import ConfigError, DimensionError, StateError
from canids.gat import GatClassifier, GatConfig
from canids.losses import cross_entropy, kl_categorical
from canids.pipeline import PipelineOptions, run_two_stage
from canids.tensor import Tensor
from canids.vgae import LatentState, VgaeConfig, VgaeModel
from helpers import batch_of_one, model_gradient_error

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import spans  # noqa: E402

RNG = np.random.Generator(np.random.PCG64(31))


def test_soften_symmetry_and_tau_one():
    assert np.allclose(soften(np.array([0.0, 0.0]), 3.7).values, [0.5, 0.5])
    logits = np.array([1.0, -0.5, 0.2])
    ordinary = np.exp(logits) / np.exp(logits).sum()
    assert np.max(np.abs(soften(logits, 1.0).values - ordinary)) < 1e-12


def test_soften_analytic():
    p = soften(np.array([2.0, 0.0]), 2.0).values
    expected = math.exp(1.0) / (math.exp(1.0) + 1.0)
    assert abs(p[0] - expected) < 1e-4 and abs(p[0] - 0.7311) < 1e-4
    assert abs(p.sum() - 1.0) <= 1e-12


def test_raising_tau_flattens():
    logits = np.array([2.0, -1.0, 0.3])
    last = 1.0
    for tau in (1.0, 2.0, 4.0, 8.0):
        peak = soften(logits, tau).values.max()
        assert peak < last
        last = peak


def test_soften_rejects_bad_tau():
    with pytest.raises(ConfigError):
        soften(np.array([1.0, 0.0]), 0.0)
    with pytest.raises(ConfigError):
        KdConfig(temperature=-1.0)
    with pytest.raises(ConfigError):
        KdConfig(hard_weight=1.5)
    for tau in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="temperature"):
            KdConfig(temperature=tau)
        with pytest.raises(ConfigError, match="temperature"):
            soften(np.array([1.0, 0.0]), tau)


def test_kd_loss_endpoints_and_linearity():
    s = np.array([1.2, -0.4])
    t = np.array([0.8, 0.1])
    # alpha=0, student == teacher: pure KL of identical softened dists
    zero = kd_classifier_loss(s, s.copy(), 1, KdConfig(hard_weight=0.0)).item()
    assert abs(zero) < 1e-10
    # alpha=1 reduces exactly to supervised CE
    hard = kd_classifier_loss(s, t, 1, KdConfig(hard_weight=1.0)).item()
    assert abs(hard - cross_entropy(Tensor(s), 1).item()) < 1e-12
    # linear interpolation in alpha
    lo = kd_classifier_loss(s, t, 1, KdConfig(hard_weight=0.0)).item()
    mid = kd_classifier_loss(s, t, 1, KdConfig(hard_weight=0.3)).item()
    assert abs(mid - (0.3 * hard + 0.7 * lo)) < 1e-12


def test_kd_loss_nonnegative_random():
    for _ in range(50):
        s, t = RNG.normal(size=2), RNG.normal(size=2)
        v = kd_classifier_loss(s, t, int(RNG.integers(0, 2)), KdConfig()).item()
        assert v >= -1e-12


def test_kd_loss_scales_soft_term_by_tau_sq():
    s = np.array([1.2, -0.4])
    t = np.array([0.8, 0.1])
    on = kd_classifier_loss(s, t, 0, KdConfig(hard_weight=0.0, temperature=4.0)).item()
    soft = kl_categorical(soften(s, 4.0), soften(t, 4.0)).item()
    assert abs(on - 16.0 * soft) < 1e-12


def test_kd_loss_arity_mismatch():
    with pytest.raises(DimensionError):
        kd_classifier_loss(np.zeros(2), np.zeros(3), 0, KdConfig())


def test_latent_loss_zero_for_identical_after_projection():
    proj = LatentProjection(3, 3, seed=1)
    eye = np.eye(3)
    proj.table["proj.mu_weight"].tensor.values = eye.copy()
    proj.table["proj.ls_weight"].tensor.values = eye.copy()
    proj.table["proj.mu_bias"].tensor.values = np.zeros(3)
    proj.table["proj.ls_bias"].tensor.values = np.zeros(3)
    mu, ls = Tensor(RNG.normal(size=(4, 3))), Tensor(RNG.normal(size=(4, 3)) * 0.1)
    student = LatentState(mu=mu, log_sigma=ls, z=mu)
    teacher = LatentState(mu=Tensor(mu.values.copy()), log_sigma=Tensor(ls.values.copy()), z=mu)
    assert abs(kd_latent_loss(student, teacher, proj, batch_of_one(4)).item()) < 1e-12


def test_latent_loss_nonnegative_and_node_mismatch():
    proj = LatentProjection(2, 3, seed=2)
    for _ in range(25):
        student = LatentState(
            mu=Tensor(RNG.normal(size=(5, 2))), log_sigma=Tensor(RNG.normal(size=(5, 2)) * 0.3), z=None
        )
        teacher = LatentState(
            mu=Tensor(RNG.normal(size=(5, 3))), log_sigma=Tensor(RNG.normal(size=(5, 3)) * 0.3), z=None
        )
        assert kd_latent_loss(student, teacher, proj, batch_of_one(5)).item() >= -1e-12
    bad = LatentState(mu=Tensor(np.zeros((4, 3))), log_sigma=Tensor(np.zeros((4, 3))), z=None)
    good = LatentState(mu=Tensor(np.zeros((5, 2))), log_sigma=Tensor(np.zeros((5, 2))), z=None)
    with pytest.raises(DimensionError):
        kd_latent_loss(good, bad, proj, batch_of_one(5))


def test_latent_loss_gradient_through_projection():
    proj = LatentProjection(2, 3, seed=3)
    student = LatentState(
        mu=Tensor(RNG.normal(size=(4, 2))), log_sigma=Tensor(RNG.normal(size=(4, 2)) * 0.2), z=None
    )
    teacher = LatentState(
        mu=Tensor(RNG.normal(size=(4, 3))), log_sigma=Tensor(RNG.normal(size=(4, 3)) * 0.2), z=None
    )
    batch = batch_of_one(4)
    err = model_gradient_error(proj.params(), lambda: kd_latent_loss(student, teacher, proj, batch))
    assert err < 1e-4


@pytest.fixture(scope="module")
def small_distill(mixed_graphs_module):
    from canids.gat import train_supervised
    from canids.vgae import train_vgae

    train_graphs = mixed_graphs_module
    opts = PipelineOptions(vgae_epochs=4, gat_epochs=8, patience=8)
    part = train_graphs[: int(len(train_graphs) * 0.8)]
    teacher_vgae, _ = train_vgae(
        [g for g in part if g.label == 0], VgaeConfig.teacher(), seed=1, epochs=4
    )
    teacher_gat, _ = train_supervised(
        part, [g.label for g in part], GatConfig.teacher(), seed=1, epochs=8
    )
    result = distill_pipeline(
        train_graphs, teacher_vgae, teacher_gat,
        VgaeConfig.student(), GatConfig.student(),
        KdConfig(), seed=5, options=opts,
    )
    return teacher_vgae, teacher_gat, result, train_graphs, opts


@pytest.fixture(scope="module")
def mixed_graphs_module():
    from canids.graphs import build_windows
    from canids.synth import AttackKind, AttackSpec, EcuSpec, generate_synthetic_log

    ecus = [EcuSpec(0x100, 0.01, 1), EcuSpec(0x200, 0.013, 2), EcuSpec(0x50, 0.02, 3)]
    attacks = [
        AttackSpec(AttackKind.DOS, 8.0, 2.0, 800.0),
        AttackSpec(AttackKind.DOS, 30.0, 2.0, 800.0),
        AttackSpec(AttackKind.FUZZING, 20.0, 2.0, 400.0),
    ]
    frames = generate_synthetic_log(ecus, 36.0, attacks, rng_seed=6)
    return list(build_windows(iter(frames), 100))


def test_distill_pipeline_report(small_distill):
    teacher_vgae, teacher_gat, result, _, _ = small_distill
    r = result.report
    assert r["teacher_checksums_unchanged"] is True
    assert r["params"]["gat_ratio"] <= 0.05
    assert r["params"]["gat_student"] < r["params"]["gat_teacher"]
    assert r["params"]["vgae_student"] < r["params"]["vgae_teacher"]
    assert len(r["training"]["vgae_epoch_losses"]) == 4


def test_an_empty_test_set_is_refused_before_any_training(small_distill, monkeypatch):
    teacher_vgae, teacher_gat, _, train_graphs, opts = small_distill
    monkeypatch.setattr(distill, "train_stages", lambda *args, **kwargs: pytest.fail("trained"))
    with pytest.raises(StateError, match="^distill: no test windows to evaluate on$"):
        distill_pipeline(
            train_graphs, teacher_vgae, teacher_gat,
            VgaeConfig.student(), GatConfig.student(),
            KdConfig(), seed=5, options=opts, test_graphs=[],
        )


def test_distill_deterministic(small_distill):
    teacher_vgae, teacher_gat, result, train_graphs, opts = small_distill
    again = distill_pipeline(
        train_graphs, teacher_vgae, teacher_gat,
        VgaeConfig.student(), GatConfig.student(),
        KdConfig(), seed=5, options=opts,
    )
    for a, b in zip(result.student_gat.params(), again.student_gat.params()):
        assert np.array_equal(a.tensor.values, b.tensor.values)
    for a, b in zip(result.student_vgae.params(), again.student_vgae.params()):
        assert np.array_equal(a.tensor.values, b.tensor.values)


def test_distill_teacher_metrics_equal_run_two_stage(small_distill, mixed_graphs):
    # the teachers are the models run_two_stage trained; both runs score the same test stream
    _, _, _, test_graphs, opts = small_distill
    run = run_two_stage(
        mixed_graphs, test_graphs, VgaeConfig.student(), GatConfig.student(), seed=5, options=opts
    )
    kd = distill_pipeline(
        mixed_graphs, run.vgae_model, run.gat_model,
        VgaeConfig.student(), GatConfig.student(),
        KdConfig(), seed=5, options=opts, test_graphs=test_graphs,
    )
    assert kd.report["metrics"]["teacher"] == run.report["metrics"]
    assert kd.report["undersampling"] == run.report["undersampling"]


def test_distill_runs_under_the_benchmark_teacher_hook(small_distill, mixed_graphs):
    # Tracer.watch_teacher reads args[0].graph, which only a batch of one has:
    # every teacher encode and forward of a distillation must get one window
    teacher_vgae, teacher_gat, _, test_graphs, opts = small_distill
    tracer = spans.Tracer()
    tracer.watch_teacher(teacher_vgae, teacher_gat)
    try:
        result = distill_pipeline(
            mixed_graphs, teacher_vgae, teacher_gat,
            VgaeConfig.student(), GatConfig.student(),
            KdConfig(), seed=5, options=opts, test_graphs=test_graphs,
        )
    finally:
        tracer.unwatch_teacher(teacher_vgae, teacher_gat)
    assert result.report["metrics"]["teacher"]["gat_only"] is not None
    assert tracer.summary()["distill.teacher"][2] > 0
