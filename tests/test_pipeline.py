import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids.errors import ConfigError, StateError
from canids.gat import GatConfig
from canids.pipeline import (
    Metrics,
    PipelineOptions,
    ScoredWindow,
    calibrate_vgae,
    chronological_split,
    evaluate,
    fuse,
    read_scores_csv,
    roc_auc,
    run_two_stage,
    undersample,
    write_scores_csv,
)
from canids.vgae import VgaeConfig
from helpers import confusion_oracle


def test_undersample_keeps_rank_prefix():
    normals = [f"n{i}" for i in range(1000)]
    attacks = [f"a{i}" for i in range(100)]
    sel = undersample(normals, attacks, 4.0)
    assert sel.selected_normals == normals[:400]
    assert sel.attacks == attacks
    assert sel.achieved_ratio == 4.0


def test_undersample_clamps_when_few_normals():
    sel = undersample([f"n{i}" for i in range(300)], [f"a{i}" for i in range(100)], 4.0)
    assert len(sel.selected_normals) == 300
    assert sel.achieved_ratio == 3.0


def test_undersample_size_formula():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(50):
        n, a = int(rng.integers(0, 50)), int(rng.integers(1, 20))
        ratio = float(rng.uniform(0.5, 6.0))
        sel = undersample(list(range(n)), list(range(a)), ratio)
        want = min(int(np.ceil(ratio * a)), n)
        assert len(sel.selected_normals) + len(sel.attacks) == want + a


def test_undersample_errors():
    with pytest.raises(StateError, match="skip undersampling"):
        undersample(["n"], [], 4.0)
    with pytest.raises(ConfigError):
        undersample(["n"], ["a"], 0.0)


def test_calibration_endpoints_and_monotonicity():
    scores = list(np.linspace(0.0, 10.0, 200))
    cal = calibrate_vgae(scores)
    q50, q995 = np.quantile(scores, 0.5), np.quantile(scores, 0.995)
    assert cal(q50) == 0.0
    assert cal(q995) == 1.0
    assert cal(q995 + 5.0) == 1.0
    assert cal(q50 - 5.0) == 0.0
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(20):
        s = rng.uniform(0, 100, size=50)
        c = calibrate_vgae(s)
        xs = np.sort(rng.uniform(-10, 110, size=30))
        ys = [c(x) for x in xs]
        assert all(b >= a for a, b in zip(ys, ys[1:]))


def test_calibration_degenerate_and_minimum_count():
    with pytest.warns(UserWarning):
        cal = calibrate_vgae([1.0] * 25)
    assert cal(0.5) == 0.0 and cal(99.0) == 0.0
    with pytest.raises(ConfigError):
        calibrate_vgae([1.0] * 19)


def test_fuse_exact_default_weights():
    assert fuse(0.0, 1.0) == 0.85
    assert fuse(1.0, 0.0) == 0.15
    for p in (0.0, 0.25, 0.5, 1.0):
        assert fuse(p, p) == p


def test_fuse_validation():
    with pytest.raises(ConfigError):
        fuse(0.5, 0.5, 0.5, 0.6)
    with pytest.raises(ConfigError):
        fuse(1.5, 0.0)


@given(st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=50, deadline=None)
def test_fuse_stays_in_unit_interval(a, b):
    assert 0.0 <= fuse(a, b) <= 1.0


def scored(truth, fused, gat=0.0):
    return ScoredWindow(0, 0.0, 0.0, gat, fused, int(fused >= 0.5), truth)


def test_evaluate_all_correct():
    rows = [scored(1, 0.9), scored(0, 0.1), scored(1, 0.8)]
    m = evaluate(rows)
    assert m.accuracy == 1.0 and m.f1 == 1.0


def test_evaluate_balanced_confusion():
    rows = [scored(1, 0.9), scored(0, 0.9), scored(1, 0.1), scored(0, 0.1)]
    m = evaluate(rows)
    assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 1)
    assert m.precision == m.recall == m.f1 == m.accuracy == 0.5


def test_evaluate_against_confusion_oracle():
    rng = np.random.Generator(np.random.PCG64(5))
    truths = rng.integers(0, 2, size=1000).tolist()
    probs = rng.uniform(0, 1, size=1000)
    rows = [scored(t, p) for t, p in zip(truths, probs)]
    m = evaluate(rows)
    ref = confusion_oracle(truths, [1 if p >= 0.5 else 0 for p in probs])
    assert (m.tp, m.fp, m.tn, m.fn) == (ref["tp"], ref["fp"], ref["tn"], ref["fn"])
    assert m.accuracy == ref["accuracy"]
    assert m.precision == ref["precision"]
    assert m.recall == ref["recall"]
    assert m.f1 == ref["f1"]


def test_metrics_degenerate_cases():
    m = Metrics.from_counts(0, 0, 10, 5)
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0


def test_roc_auc():
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5
    with pytest.raises(StateError):
        roc_auc([0.5], [1])


def test_chronological_split():
    graphs = list(range(10))
    train, val = chronological_split(graphs, 0.2)
    assert train == list(range(8)) and val == [8, 9]
    with pytest.raises(ConfigError):
        chronological_split(graphs, 1.0)


def test_scores_csv_round_trip(tmp_path):
    rows = [
        ScoredWindow(0, 14.25, 0.1, 0.9, 0.78, 1, 1),
        ScoredWindow(100, 13.031249, 0.0, 0.02, 0.017, 0, 0),
    ]
    p = tmp_path / "scores.csv"
    write_scores_csv(rows, p)
    assert read_scores_csv(p) == rows


QUICK = PipelineOptions(vgae_epochs=3, gat_epochs=6, patience=6)


def test_run_two_stage_deterministic(mixed_graphs):
    train = mixed_graphs[: int(len(mixed_graphs) * 0.75)]
    test = mixed_graphs[int(len(mixed_graphs) * 0.75) :]
    a = run_two_stage(train, test, VgaeConfig.student(), GatConfig.student(), seed=3, options=QUICK)
    b = run_two_stage(train, test, VgaeConfig.student(), GatConfig.student(), seed=3, options=QUICK)
    assert a.report["metrics"] == b.report["metrics"]
    assert a.scored == b.scored
    assert a.report["mode"] == "two-stage"
    assert a.report["metrics"]["gat_only"] is not None
    for s in a.scored:
        w_a, w_g = QUICK.fusion_weights
        assert s.fused_prob == w_a * s.vgae_prob + w_g * s.gat_prob
        assert s.predicted == (1 if s.fused_prob >= QUICK.threshold else 0)


def test_run_two_stage_vgae_only_fallback(benign_graphs, mixed_graphs):
    test = mixed_graphs[-60:]
    result = run_two_stage(
        benign_graphs, test, VgaeConfig.student(), GatConfig.student(), seed=4, options=QUICK
    )
    assert result.report["mode"] == "vgae-only"
    assert result.gat_model is None
    assert result.report["metrics"]["gat_only"] is None
    for s in result.scored:
        assert s.fused_prob == s.vgae_prob


def test_run_two_stage_report_structure(mixed_graphs):
    train = mixed_graphs[: int(len(mixed_graphs) * 0.75)]
    test = mixed_graphs[int(len(mixed_graphs) * 0.75) :]
    r = run_two_stage(train, test, VgaeConfig.student(), GatConfig.student(), seed=5, options=QUICK).report
    assert r["headline_metric"] == "gat_only"
    assert r["undersampling"]["normals_kept"] >= 1
    assert r["lineage"]["vgae_train_windows_all_benign"] is True
    assert r["dataset"]["test_windows"] == len(test)
    assert set(r["metrics"]) == {"gat_only", "fused"}


def _scoring_models():
    from canids.gat import GatClassifier
    from canids.pipeline import VgaeCalibration
    from canids.vgae import VgaeModel

    return VgaeModel(VgaeConfig.student(), seed=11), GatClassifier(GatConfig.student(), seed=12), VgaeCalibration(0.5, 4.0)


def test_score_windows_list_equals_one_call_per_window(mixed_graphs):
    from canids.pipeline import score_windows

    vgae_model, gat_model, calibration = _scoring_models()
    graphs = mixed_graphs[::5]
    together = score_windows(vgae_model, gat_model, calibration, graphs, 3, QUICK)
    alone = [score_windows(vgae_model, gat_model, calibration, [g], 3, QUICK)[0] for g in graphs]
    assert together == alone  # dataclass equality: every float bit for bit


def test_score_windows_prepares_each_window_once(mixed_graphs, monkeypatch):
    from canids import gat, pipeline, vgae

    vgae_model, gat_model, calibration = _scoring_models()
    calls = []
    original = gat.prepare_graph

    def counting(*args, **kwargs):
        calls.append(args[0].window_start_index)
        return original(*args, **kwargs)

    for module in (gat, pipeline, vgae):
        if getattr(module, "prepare_graph", None) is original:
            monkeypatch.setattr(module, "prepare_graph", counting)
    graphs = mixed_graphs[:12]
    pipeline.score_windows(vgae_model, gat_model, calibration, graphs, 3, QUICK)
    assert calls == [g.window_start_index for g in graphs]
