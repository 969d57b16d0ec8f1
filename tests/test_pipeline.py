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
from helpers import confusion_oracle, one_id_window


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


def test_undersample_ratio_whose_product_overflows_keeps_every_normal():
    # 1e308 * 100 attacks is inf, which int() cannot take
    sel = undersample([f"n{i}" for i in range(300)], [f"a{i}" for i in range(100)], 1e308)
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
    with pytest.raises(ConfigError, match="ratio must be > 0, got nan"):
        undersample(["n"], ["a"], float("nan"))


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


def test_fuse_rejects_negative_weight():
    # weights summing to 1 with one negative would push the fused score out of [0, 1]
    with pytest.raises(ConfigError, match="non-negative"):
        fuse(0.7, 0.1, -0.5, 1.5)


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


def looped_roc_auc(scores, labels) -> float:
    """roc_auc with its tied ranks assigned run by run in a Python loop, as first written."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    pos, neg = int((labels == 1).sum()), int((labels == 0).sum())
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - pos * (pos + 1) / 2.0) / (pos * neg))


@pytest.mark.parametrize("decimals", [None, 2, 1, 0])
def test_roc_auc_equals_looped_ranks_bitwise(decimals):
    rng = np.random.default_rng(17)
    for size in (2, 3, 10, 501):
        for _ in range(20):
            scores = rng.normal(size=size)
            if decimals is not None:  # rounding makes runs of tied scores
                scores = np.round(scores, decimals)
            labels = rng.permutation(np.arange(size) % 2)
            got, want = roc_auc(scores, labels), looped_roc_auc(scores, labels)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
    graphs.insert(len(graphs) // 2, one_id_window(10**6))  # one node: no one-row products alone or in a batch
    together = score_windows(vgae_model, gat_model, calibration, graphs, 3, QUICK)
    alone = [score_windows(vgae_model, gat_model, calibration, [g], 3, QUICK)[0] for g in graphs]
    assert together == alone  # dataclass equality: every float bit for bit


def test_score_windows_builds_one_chunk_and_one_batch_of_one_per_window(mixed_graphs, monkeypatch):
    from canids import pipeline
    from canids.gat import GraphBatch
    from canids.vgae import SCORE_CHUNK

    vgae_model, gat_model, calibration = _scoring_models()
    built = []  # the window starts of each batch built
    of = GraphBatch.of

    def counting(cls, windows):
        windows = tuple(windows)
        built.append([g.window_start_index for g in windows])
        return of(windows)

    monkeypatch.setattr(GraphBatch, "of", classmethod(counting))
    graphs = mixed_graphs[: SCORE_CHUNK + 6]
    starts = [g.window_start_index for g in graphs]
    pipeline.score_windows(vgae_model, gat_model, calibration, graphs, 3, QUICK)
    chunks = [starts[:SCORE_CHUNK], starts[SCORE_CHUNK:]]
    assert built == [chunks[0], *([s] for s in chunks[0]), chunks[1], *([s] for s in chunks[1])]
    built.clear()
    pipeline.score_windows(vgae_model, gat_model, calibration, graphs[:1], 3, QUICK)
    assert built == [starts[:1]]  # a call of one window builds its batch of one once, for both models


def test_report_cli_matches_run_two_stage(mixed_graphs, tmp_path, capsys):
    import json

    from canids.cli import main
    from canids.graphs import save_graph_cache

    train = mixed_graphs[: int(len(mixed_graphs) * 0.75)]
    test = mixed_graphs[int(len(mixed_graphs) * 0.75) :]
    result = run_two_stage(train, test, VgaeConfig.student(), GatConfig.student(), seed=3, options=QUICK)
    save_graph_cache(train, tmp_path / "train.cache")
    save_graph_cache(test, tmp_path / "test.cache")
    result.vgae_model.save(tmp_path / "vgae.ckpt")
    result.gat_model.save(tmp_path / "gat.ckpt")
    code = main([
        "report", "--train-graphs", str(tmp_path / "train.cache"), "--test-graphs", str(tmp_path / "test.cache"),
        "--vgae", str(tmp_path / "vgae.ckpt"), "--gat", str(tmp_path / "gat.ckpt"),
        "--seed", "3", "--out-dir", str(tmp_path / "run"),
    ])
    capsys.readouterr()
    assert code == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["metrics"] == result.report["metrics"]
    assert report["undersampling"] == result.report["undersampling"]
    assert report["calibration"] == {"q_mid": result.calibration.q_mid, "q_high": result.calibration.q_high}
    assert read_scores_csv(tmp_path / "run" / "scores.csv") == result.scored


def _golden_stream():
    """Student-preset models trained briefly, and the stride-1 windows of a short attacked stream."""
    from canids import gat, vgae
    from canids.graphs import build_windows
    from canids.synth import AttackKind, AttackSpec, EcuSpec, generate_synthetic_log

    ecus = [EcuSpec(0x110, 0.002, 11), EcuSpec(0x220, 0.003, 22), EcuSpec(0x330, 0.005, 33), EcuSpec(0x150, 0.011, 55)]
    train = list(build_windows(generate_synthetic_log(ecus, 4.0, [AttackSpec(AttackKind.DOS, 2.0, 0.2, 3000.0)], rng_seed=61), 100))
    normals = [g for g in train if g.label == 0][:24]
    brief = normals + [g for g in train if g.label == 1][:8]
    vgae_model, _ = vgae.train_vgae(normals, VgaeConfig.student(), 5, epochs=1, batch_size=8)
    gat_model, _ = gat.train_supervised(brief, [g.label for g in brief], GatConfig.student(), 5, epochs=1, batch_size=8)
    attacks = [AttackSpec(AttackKind.FUZZING, 0.25, 0.02, 2000.0), AttackSpec(AttackKind.SPOOFING, 0.32, 0.02, 1500.0, target_id=0x220)]
    stream = list(build_windows(generate_synthetic_log(ecus, 0.4, attacks, rng_seed=62), 100, 1))
    return vgae_model, gat_model, stream


def _sha256_of_params(*models):
    import hashlib

    digest = hashlib.sha256()
    for model in models:
        for name, values in sorted(model.param_values().items()):
            digest.update(name.encode() + values.tobytes())
    return digest.hexdigest()


# sha256 of the ScoredWindow rows and of the trained parameters below; they pin every float of
# training and batch-of-one scoring bit for bit, and move if an op's float work is reordered
GOLDEN_PARAMS_SHA256 = "ee9ce72f1024687e0bd42bda2a3c51f263351ed84bca10102c58f8d4d36fbdfd"
GOLDEN_SCORES_SHA256 = "d31d23b83364ae7e14bae1689329e669d5c20ffc8b7f68a8958c066e247a2eaa"


def test_golden_stream_scores_and_trained_parameters():
    import hashlib

    from canids.pipeline import VgaeCalibration, score_windows

    vgae_model, gat_model, stream = _golden_stream()
    assert len(stream) > 200 and {g.label for g in stream} == {0, 1}
    rows = [score_windows(vgae_model, gat_model, VgaeCalibration(15.0, 16.5), [g], 9, QUICK)[0] for g in stream]
    text = "\n".join(repr(r) for r in rows)
    assert _sha256_of_params(vgae_model, gat_model) == GOLDEN_PARAMS_SHA256
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SCORES_SHA256


def _digests(models, rows, report: dict) -> tuple[str, str, str]:
    """sha256 of the models' parameters, of the ScoredWindow rows, and of the report's JSON
    without ``timings`` (wall clock) and ``kd`` (the KD config echo)."""
    import hashlib
    import json

    kept = {k: v for k, v in report.items() if k not in ("timings", "kd")}
    return (
        _sha256_of_params(*models),
        hashlib.sha256("\n".join(repr(r) for r in rows).encode()).hexdigest(),
        hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest(),
    )


# (params, scored rows, report) digests of run_two_stage (two-stage and VGAE-only) and of
# distill_pipeline with test graphs; they pin the orchestration's outputs bit for bit at one
# BLAS thread (conftest.py pins it), since the GAT weight gradients' bits depend on the count
GOLDEN_RUNS_SHA256 = {
    "two-stage": (
        "44da3c844adf15109105c1abf494123fe079c1cacd9c0bab843d303998416882",
        "61b61625fffee0dae22225003ac47676219df0551f782e860b7bf12ce6c5646e",
        "2db1bed3aa21a05a639acc36fed507cfc7c004620c2bd94ead0c54cd6366c52c",
    ),
    "vgae-only": (
        "358f33966ddc594aee2ad6266ef8ebb275f4d440278d45adf9e1448122098336",
        "1317815cb70598bc76e43f69d1c0526cc4ca099e9703a0f758c120c74cab5323",
        "9143891a492b3398004005a63e71e7b6ab807ed5694d54f703451919cd365579",
    ),
    "distill": (
        "2f7a3bb488a07bb8fc2d4436fe2df8c0be8142e815ac70cfd6c8adbce0f3ab45",
        "d8ac2e987edb968c80ea9359e447e498d4c209fcde53b2834847ad22ebae5246",
        "df4d29ec9a972b958ed44cb1575eefa9acd4c8480a22e0f7f20c7053e3ba76f1",
    ),
}


def test_golden_two_stage_and_distill(benign_graphs, mixed_graphs):
    from types import SimpleNamespace

    from canids.distill import KdConfig, distill_pipeline

    train, test = mixed_graphs[:190], mixed_graphs[190:]
    opts = PipelineOptions(vgae_epochs=2, gat_epochs=8, patience=2)
    student = VgaeConfig.student(), GatConfig.student()
    two = run_two_stage(train, test, *student, seed=21, options=opts)
    solo = run_two_stage(benign_graphs, test, *student, seed=22, options=opts)
    kd = distill_pipeline(train, two.vgae_model, two.gat_model, *student, KdConfig(), 23, opts, test)
    projection = SimpleNamespace(param_values=lambda: {n: p.tensor.values for n, p in kd.projection.table.items()})
    got = {
        "two-stage": _digests([two.vgae_model, two.gat_model], two.scored, two.report),
        "vgae-only": _digests([solo.vgae_model], solo.scored, solo.report),
        "distill": _digests([kd.student_vgae, kd.student_gat, projection], kd.scored_student, kd.report),
    }
    assert (two.report["mode"], solo.report["mode"]) == ("two-stage", "vgae-only")
    # the report fields that bench/workloads.py reads
    for report in (two.report, kd.report):
        assert report["undersampling"]["achieved_ratio"] > 0
    assert two.report["metrics"]["gat_only"]["f1"] >= 0 and two.report["vgae_separation"]["auc"] >= 0
    assert kd.report["teacher_checksums_unchanged"] is True
    assert kd.report["metrics"]["teacher"]["gat_only"] == two.report["metrics"]["gat_only"]
    assert kd.report["metrics"]["student"]["gat_only"]["f1"] >= 0
    assert got == GOLDEN_RUNS_SHA256


def test_unknown_score_mode_fails_before_training(mixed_graphs, monkeypatch):
    from canids import distill, pipeline, vgae

    def never(*args, **kwargs):
        raise AssertionError("train_vgae reached")

    for module in (distill, pipeline, vgae):
        if getattr(module, "train_vgae", None) is vgae.train_vgae:
            monkeypatch.setattr(module, "train_vgae", never)
    with pytest.raises(ConfigError, match="score_mode 'bogus'"):
        run_two_stage(
            mixed_graphs[:80], mixed_graphs[80:100], VgaeConfig.student(), GatConfig.student(), 3,
            PipelineOptions(score_mode="bogus"),
        )
    for mode in ("composite", "adjacency_l2"):
        assert PipelineOptions(score_mode=mode).score_mode == mode


def test_distill_without_attack_windows_fails_before_training(benign_graphs, monkeypatch):
    from canids import distill, pipeline, vgae
    from canids.distill import KdConfig, distill_pipeline
    from canids.gat import GatClassifier
    from canids.vgae import VgaeModel

    def never(*args, **kwargs):
        raise AssertionError("train_vgae reached")

    for module in (distill, pipeline, vgae):
        if getattr(module, "train_vgae", None) is vgae.train_vgae:
            monkeypatch.setattr(module, "train_vgae", never)
    teacher = VgaeModel(VgaeConfig.student(), seed=1), GatClassifier(GatConfig.student(), seed=2)
    with pytest.raises(StateError, match="no attack windows"):
        distill_pipeline(benign_graphs[:60], *teacher, VgaeConfig.student(), GatConfig.student(), KdConfig(), 3)


def test_too_few_validation_normals_fail_before_training(mixed_graphs, monkeypatch):
    """run_two_stage, and distill_pipeline given test graphs, count the validation split's normals before any
    stage trains and refuse too few with calibrate_vgae's error; distill_pipeline without test graphs
    calibrates nothing, so it goes on to train."""
    from canids import distill, pipeline
    from canids.distill import KdConfig, distill_pipeline
    from canids.gat import GatClassifier
    from canids.vgae import VgaeModel

    class Trained(Exception):
        pass

    def trained(*args, **kwargs):
        raise Trained

    for module in (distill, pipeline):
        monkeypatch.setattr(module, "train_stages", trained)
    train, test = mixed_graphs[:80], mixed_graphs[80:100]
    normals = sum(g.label == 0 for g in chronological_split(train, PipelineOptions().val_frac)[1])
    assert normals < 20 and any(g.label for g in chronological_split(train, PipelineOptions().val_frac)[0])
    refused = f"^calibration needs >= 20 validation-normal scores, got {normals}$"
    students = VgaeConfig.student(), GatConfig.student()
    teacher = VgaeModel(VgaeConfig.student(), seed=1), GatClassifier(GatConfig.student(), seed=2)
    with pytest.raises(ConfigError, match=refused):
        run_two_stage(train, test, *students, 3)
    with pytest.raises(ConfigError, match=refused):
        distill_pipeline(train, *teacher, *students, KdConfig(), 3, test_graphs=test)
    with pytest.raises(Trained):
        distill_pipeline(train, *teacher, *students, KdConfig(), 3)
    with pytest.raises(ConfigError, match=refused):
        calibrate_vgae(np.zeros(normals))
