"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criteria
share one 200k-frame synthetic benchmark (5 ECUs, DoS + fuzzing + spoofing
segments, about 10% attack windows) built once per session.
"""

import time

import numpy as np
import pytest

from canids.distill import KdConfig, LatentProjection, distill_pipeline, kd_classifier_loss, kd_latent_loss
from canids.gat import GatClassifier, GatConfig, gat_layer, prepare_graph
from canids.graphs import build_windows
from canids.losses import cross_entropy
from canids.optim import count_params
from canids.pipeline import Metrics, fuse, run_two_stage
from canids.synth import AttackKind, AttackSpec, EcuSpec, generate_synthetic_log
from canids.tensor import Tensor
from canids.vgae import CompositeWeights, VgaeConfig, VgaeModel, combine_errors
from helpers import (
    CHAIN_SYNTH,
    brute_force_windows,
    confusion_oracle,
    model_gradient_error,
    batch_of_one,
    random_frames,
    record_attention,
    robust_gradient_error,
)
from test_gat import init_layer, permute_graph

ECUS = [
    EcuSpec(0x110, 0.002, 11),
    EcuSpec(0x220, 0.003, 22),
    EcuSpec(0x330, 0.005, 33),
    EcuSpec(0x3A0, 0.007, 44),
    EcuSpec(0x150, 0.011, 55),
]
TRAIN_ATTACKS = [
    AttackSpec(AttackKind.DOS, 15.0, 1.5, 1500.0),
    AttackSpec(AttackKind.FUZZING, 45.0, 1.5, 700.0),
    AttackSpec(AttackKind.SPOOFING, 75.0, 2.0, 600.0, target_id=0x220),
    AttackSpec(AttackKind.DOS, 100.0, 1.0, 1500.0),
    AttackSpec(AttackKind.FUZZING, 120.0, 1.5, 700.0),
    AttackSpec(AttackKind.SPOOFING, 135.0, 1.5, 600.0, target_id=0x220),
]
TEST_ATTACKS = [
    AttackSpec(AttackKind.DOS, 8.0, 1.0, 1500.0),
    AttackSpec(AttackKind.FUZZING, 18.0, 1.2, 700.0),
    AttackSpec(AttackKind.SPOOFING, 30.0, 1.2, 600.0, target_id=0x220),
]
SEED = 42


def report_line(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def benchmark_graphs():
    train_frames = generate_synthetic_log(ECUS, 150.0, TRAIN_ATTACKS, rng_seed=1001)
    test_frames = generate_synthetic_log(ECUS, 40.0, TEST_ATTACKS, rng_seed=2002)
    assert len(train_frames) + len(test_frames) > 200_000
    train = list(build_windows(iter(train_frames), 100))
    test = list(build_windows(iter(test_frames), 100))
    frac = sum(g.label for g in train) / len(train)
    assert 0.05 <= frac <= 0.15, f"benchmark attack-window fraction {frac}"
    return train, test


@pytest.fixture(scope="module")
def teacher_run(benchmark_graphs):
    train, test = benchmark_graphs
    t0 = time.perf_counter()
    result = run_two_stage(train, test, VgaeConfig.teacher(), GatConfig.teacher(), seed=SEED)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def distill_run(benchmark_graphs, teacher_run):
    train, test = benchmark_graphs
    result, _ = teacher_run
    return distill_pipeline(
        train, result.vgae_model, result.gat_model,
        VgaeConfig.student(), GatConfig.student(),
        KdConfig(), seed=SEED, test_graphs=test,
    )


def test_criterion_01_graph_builder_oracle():
    rng = np.random.Generator(np.random.PCG64(4242))
    t0 = time.perf_counter()
    worst_feat = 0.0
    for _ in range(1000):
        length = int(rng.integers(2, 301))
        alphabet = rng.choice(2048, size=int(rng.integers(1, 21)), replace=False)
        frames = random_frames(rng, length, alphabet)
        w = int(rng.integers(2, min(length, 120) + 1))
        stride = int(rng.integers(1, w + 1))
        mine = list(build_windows(iter(frames), w, stride))
        ref = brute_force_windows(frames, w, stride)
        assert len(mine) == len(ref)
        for g, (start, (node_ids, feats, edges, label)) in zip(mine, ref):
            assert g.node_ids == node_ids
            worst_feat = max(worst_feat, float(np.max(np.abs(g.node_features - feats), initial=0.0)))
            assert {(s, d): wt for s, d, wt in g.edges()} == edges
            assert g.label == label and g.window_start_index == start
            assert g.edge_weight.sum() == w - 1
    elapsed = time.perf_counter() - t0
    ok = worst_feat <= 1e-12 and elapsed < 30.0
    report_line(
        "crit-01 graph-builder-oracle", ok,
        f"1000 sequences, max feature diff {worst_feat:.2e}, {elapsed:.1f}s < 30s",
    )


def test_criterion_02_gradient_checks():
    from test_losses_optim import LOSS_CASES
    from test_tensor import OP_CASES

    rng = np.random.Generator(np.random.PCG64(777))
    t0 = time.perf_counter()
    worst = 0.0
    for name, (build, make) in {**OP_CASES, **LOSS_CASES}.items():
        for _ in range(20):
            worst = max(worst, robust_gradient_error(build, make()))

    frames = generate_synthetic_log(ECUS[:3], 2.0, rng_seed=9)
    small_graphs = list(build_windows(iter(frames), 30))[:20]
    tiny_vgae = VgaeConfig(2, 2, 4, 3, id_buckets=16)
    tiny_gat = GatConfig(2, 2, 3)

    # composite: one GAT layer
    for i in range(20):
        g = small_graphs[i % len(small_graphs)]
        prep = prepare_graph(g)
        params = init_layer(np.random.default_rng(i), 3, 2, 3, "concat")
        worst = max(worst, model_gradient_error(
            list(params),
            lambda: (gat_layer(Tensor(g.node_features), prep, params, 2, 3, 0.2, "concat") ** 2).mean(),
        ))

    # composite: VGAE encoder and full ELBO
    for i in range(20):
        g = small_graphs[i % len(small_graphs)]
        model = VgaeModel(tiny_vgae, seed=i)
        prep = prepare_graph(g)

        def encoder_loss():
            latent = model.encode(prep)
            return (latent.mu**2).mean() + (latent.log_sigma**2).mean()

        def elbo():
            latent = model.encode(prep, training=True, rng=np.random.default_rng(1000 + i))
            return model.elbo_loss(prep, latent, np.random.default_rng(2000 + i))

        worst = max(worst, model_gradient_error(model.params(), encoder_loss))
        worst = max(worst, model_gradient_error(model.params(), elbo))

    # composite: full GAT classifier under supervised CE
    for i in range(20):
        g = small_graphs[i % len(small_graphs)]
        model = GatClassifier(tiny_gat, seed=i)
        prep = prepare_graph(g)

        def gat_loss():
            _, logits, _ = model.forward(prep)
            return cross_entropy(logits, i % 2)

        worst = max(worst, model_gradient_error(model.params(), gat_loss))

    # composite: KD losses
    four_nodes = batch_of_one(4)
    for i in range(20):
        gen = np.random.Generator(np.random.PCG64(3000 + i))
        s, t = gen.normal(size=2), gen.normal(size=2)
        worst = max(worst, robust_gradient_error(
            lambda a: kd_classifier_loss(a, t, i % 2, KdConfig()), [s]
        ))
        proj = LatentProjection(2, 3, seed=i)
        from canids.vgae import LatentState

        student = LatentState(Tensor(gen.normal(size=(4, 2))), Tensor(gen.normal(size=(4, 2)) * 0.2), None)
        teacher = LatentState(Tensor(gen.normal(size=(4, 3))), Tensor(gen.normal(size=(4, 3)) * 0.2), None)
        worst = max(worst, model_gradient_error(
            proj.params(), lambda: kd_latent_loss(student, teacher, proj, four_nodes)
        ))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 120.0
    report_line(
        "crit-02 gradient-checks", ok,
        f"worst rel error {worst:.2e} < 1e-4, {elapsed:.1f}s < 120s",
    )


def test_criterion_03_attention_and_permutation(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(31337))
    model = GatClassifier(GatConfig(num_layers=3, attn_heads=2, hidden_channels=4), seed=5)
    worst_sum, worst_perm = 0.0, 0.0
    attn = record_attention(monkeypatch)
    for _ in range(100):
        length = int(rng.integers(10, 120))
        alphabet = rng.choice(2048, size=int(rng.integers(2, 16)), replace=False)
        frames = random_frames(rng, length, alphabet)
        g = next(iter(build_windows(iter(frames), length)))
        prep = prepare_graph(g)
        attn.clear()
        base, _, _ = model.forward(prep)
        for alpha, dst, n in attn:
            sums = np.zeros((n, alpha.shape[1]))
            np.add.at(sums, dst, alpha)
            worst_sum = max(worst_sum, float(np.max(np.abs(sums - 1.0))))
        perm = rng.permutation(g.num_nodes)
        permuted, _, _ = model.forward(prepare_graph(permute_graph(g, perm)))
        worst_perm = max(worst_perm, abs(base.item() - permuted.item()))
    ok = worst_sum <= 1e-12 and worst_perm <= 1e-9
    report_line(
        "crit-03 attention-normalization-and-permutation", ok,
        f"max |sum(alpha)-1| {worst_sum:.2e} <= 1e-12, max perm drift {worst_perm:.2e} <= 1e-9",
    )


def test_criterion_04_synthetic_end_to_end_teacher(teacher_run):
    result, elapsed = teacher_run
    m = result.report["metrics"]["gat_only"]
    ok = m["f1"] >= 0.95 and m["accuracy"] >= 0.98 and elapsed < 900.0
    report_line(
        "crit-04 end-to-end-teacher", ok,
        f"GAT-only F1 {m['f1']:.4f} >= 0.95, acc {m['accuracy']:.4f} >= 0.98, {elapsed:.0f}s < 900s",
    )


def test_criterion_05_vgae_separation(teacher_run):
    result, _ = teacher_run
    sep = result.report["vgae_separation"]
    ok = sep["auc"] >= 0.80 and sep["mean_score_attack"] > sep["mean_score_benign"]
    report_line(
        "crit-05 vgae-separation", ok,
        f"AUC {sep['auc']:.4f} >= 0.80, attack mean {sep['mean_score_attack']:.3f} > "
        f"benign mean {sep['mean_score_benign']:.3f}",
    )


def test_criterion_06_undersampling_exactness(benchmark_graphs, teacher_run):
    train, _ = benchmark_graphs
    result, _ = teacher_run
    sel = result.selection
    cut = int(round(len(train) * 0.8))
    normals = [g for g in train[:cut] if g.label == 0]
    attacks = [g for g in train[:cut] if g.label == 1]
    expected_keep = min(int(np.ceil(4.0 * len(attacks))), len(normals))
    ranked = result.vgae_model.reconstruction_rank(normals, CompositeWeights(), seed=SEED)
    prefix = [g.window_start_index for g in ranked[:expected_keep]]
    got = [g.window_start_index for g in sel.selected_normals]
    ok = len(sel.selected_normals) == expected_keep and got == prefix
    report_line(
        "crit-06 undersampling-exactness", ok,
        f"kept {len(sel.selected_normals)} == min(4*{len(attacks)}, {len(normals)}), exact rank prefix",
    )


def test_criterion_07_kd_compression(teacher_run, distill_run):
    teacher_result, _ = teacher_run
    ratio = count_params(GatConfig.student()) / count_params(GatConfig.teacher())
    teacher_f1 = distill_run.report["metrics"]["teacher"]["gat_only"]["f1"]
    student_f1 = distill_run.report["metrics"]["student"]["gat_only"]["f1"]
    gap = abs(teacher_f1 - student_f1)
    ok = ratio <= 0.05 and gap <= 0.02 and distill_run.report["teacher_checksums_unchanged"]
    report_line(
        "crit-07 kd-compression", ok,
        f"param ratio {ratio:.4f} <= 0.05, |F1 student - teacher| = "
        f"|{student_f1:.4f} - {teacher_f1:.4f}| = {gap:.4f} <= 0.02",
    )


def test_criterion_08_fusion(teacher_run):
    result, _ = teacher_run
    exact = fuse(0.0, 1.0) == 0.85 and fuse(1.0, 0.0) == 0.15
    f1_fused = result.report["metrics"]["fused"]["f1"]
    f1_gat = result.report["metrics"]["gat_only"]["f1"]
    gap = abs(f1_fused - f1_gat)
    ok = exact and gap <= 0.02
    report_line(
        "crit-08 fusion", ok,
        f"fuse(0,1)=0.85 and fuse(1,0)=0.15 exactly: {exact}; |F1 gap| {gap:.4f} <= 0.02",
    )


def test_criterion_09_composite_weighting(teacher_run, benchmark_graphs):
    exact = combine_errors(CompositeWeights(), 1.0, 1.0, 1.0) == 21.3
    result, _ = teacher_run
    _, test = benchmark_graphs
    g = test[0]
    base = result.vgae_model.score(g, CompositeWeights(beta=20.0), SEED)
    bumped = result.vgae_model.score(g, CompositeWeights(beta=21.0), SEED)
    ok = exact and bumped > base
    report_line(
        "crit-09 composite-weighting", ok,
        f"unit terms -> 21.3 exactly: {exact}; beta 20->21 raises score "
        f"{base:.4f} -> {bumped:.4f}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    import json

    from canids.cli import main

    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(CHAIN_SYNTH))

    def chain(root):
        root.mkdir()
        cmds = [
            ["synth", "--config", str(cfg), "--seed", "7", "--out", str(root / "train.csv")],
            ["synth", "--config", str(cfg), "--seed", "8", "--out", str(root / "test.csv")],
            ["build-graphs", "--in", str(root / "train.csv"), "--window", "100", "--out", str(root / "train.cache")],
            ["build-graphs", "--in", str(root / "test.csv"), "--window", "100", "--out", str(root / "test.cache")],
            ["train-vgae", "--graphs", str(root / "train.cache"), "--preset", "student",
             "--seed", "7", "--vgae-epochs", "6", "--out", str(root / "vgae.ckpt")],
            ["undersample", "--graphs", str(root / "train.cache"), "--vgae", str(root / "vgae.ckpt"),
             "--ratio", "4", "--seed", "7", "--out", str(root / "stage2.cache")],
            ["train-gat", "--graphs", str(root / "stage2.cache"), "--val-graphs", str(root / "train.cache"),
             "--preset", "student", "--seed", "7", "--gat-epochs", "12", "--out", str(root / "gat.ckpt")],
            ["report", "--train-graphs", str(root / "train.cache"), "--test-graphs", str(root / "test.cache"),
             "--vgae", str(root / "vgae.ckpt"), "--gat", str(root / "gat.ckpt"),
             "--seed", "7", "--out-dir", str(root / "run")],
        ]
        for cmd in cmds:
            assert main(cmd) == 0, f"subcommand failed: {cmd[0]}"
        return (root / "run" / "scores.csv").read_bytes()

    first = chain(tmp_path / "one")
    second = chain(tmp_path / "two")
    ok = first == second and len(first) > 0
    report_line(
        "crit-10 cli-chain-determinism", ok,
        f"two full chains, scores.csv byte-identical ({len(first)} bytes)",
    )


def test_criterion_11_metrics_oracle():
    rng = np.random.Generator(np.random.PCG64(8888))
    truths = rng.integers(0, 2, size=1000).tolist()
    preds = rng.integers(0, 2, size=1000).tolist()
    m = Metrics.from_pairs(truths, preds)
    ref = confusion_oracle(truths, preds)
    ok = (
        (m.tp, m.fp, m.tn, m.fn) == (ref["tp"], ref["fp"], ref["tn"], ref["fn"])
        and m.accuracy == ref["accuracy"]
        and m.precision == ref["precision"]
        and m.recall == ref["recall"]
        and m.f1 == ref["f1"]
    )
    report_line(
        "crit-11 metrics-oracle", ok,
        "accuracy/precision/recall/F1 equal brute-force confusion oracle on 1000 pairs",
    )
