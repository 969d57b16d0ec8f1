import json

import numpy as np
import pytest

from canids.cli import main
from canids.graphs import load_graph_cache
from canids.pipeline import ScoredWindow, write_scores_csv
from helpers import confusion_oracle

SYNTH_CFG = {
    "duration": 60.0,
    "ecus": [
        {"can_id": 256, "period": 0.004, "payload_seed": 1},
        {"can_id": 512, "period": 0.007, "payload_seed": 2},
        {"can_id": 80, "period": 0.012, "payload_seed": 3},
    ],
    "attacks": [
        {"kind": "dos", "start": 8.0, "duration": 1.5, "rate": 800.0},
        {"kind": "fuzzing", "start": 25.0, "duration": 1.5, "rate": 400.0},
        {"kind": "dos", "start": 40.0, "duration": 1.5, "rate": 800.0},
        {"kind": "fuzzing", "start": 52.0, "duration": 1.5, "rate": 400.0},
    ],
}


@pytest.fixture()
def synth_cfg(tmp_path):
    p = tmp_path / "synth.json"
    p.write_text(json.dumps(SYNTH_CFG))
    return p


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_synth_deterministic(tmp_path, synth_cfg, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, out, _ = run_cli(capsys, "synth", "--config", synth_cfg, "--seed", 7, "--out", a)
    assert code == 0
    assert json.loads(out)["frames"] > 0
    code, _, _ = run_cli(capsys, "synth", "--config", synth_cfg, "--seed", 7, "--out", b)
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    # different seed differs
    c = tmp_path / "c.csv"
    run_cli(capsys, "synth", "--config", synth_cfg, "--seed", 8, "--out", c)
    assert a.read_bytes() != c.read_bytes()


def test_build_graphs_window_too_small_is_usage_error(tmp_path, synth_cfg, capsys):
    log = tmp_path / "log.csv"
    run_cli(capsys, "synth", "--config", synth_cfg, "--seed", 1, "--out", log)
    code, _, err = run_cli(
        capsys, "build-graphs", "--in", log, "--window", 1, "--out", tmp_path / "g.cache"
    )
    assert code == 2
    assert "canids-error category=usage" in err


def test_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "build-graphs", "--in", tmp_path / "absent.csv", "--out", tmp_path / "g.cache"
    )
    assert code == 2
    assert "category=usage" in err


def test_malformed_log_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,0316,8,nope\n")
    code, _, err = run_cli(capsys, "build-graphs", "--in", bad, "--out", tmp_path / "g.cache")
    assert code == 1
    assert "category=parse" in err


def test_ingest_generic_normalizes(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("0.5,316,2,aa,bb,T\n0.6,100,2,7f,01,R\n")
    out = tmp_path / "norm.csv"
    code, stdout, _ = run_cli(
        capsys, "ingest", raw, "--format", "generic",
        "--column-map", "timestamp=0,id=1,dlc=2,data=3,label=5",
        "--attack-markers", "T",
        "--out", out,
    )
    assert code == 0
    assert json.loads(stdout) == {
        "frames": 2, "attack_frames": 1, "distinct_ids": 2, "out": str(out),
    }
    assert out.read_text() == "0.5,0316,2,aa,bb,T\n0.6,0100,2,7f,01,R\n"


def test_ingest_car_hacking_summary(tmp_path, synth_cfg, capsys):
    log = tmp_path / "log.csv"
    run_cli(capsys, "synth", "--config", synth_cfg, "--seed", 2, "--out", log)
    code, out, _ = run_cli(capsys, "ingest", log)
    assert code == 0
    summary = json.loads(out)
    assert summary["frames"] > 0 and summary["attack_frames"] > 0


def test_evaluate_matches_hand_computed(tmp_path, capsys):
    rng = np.random.Generator(np.random.PCG64(6))
    truths = rng.integers(0, 2, size=200).tolist()
    fused = rng.uniform(0, 1, size=200).tolist()
    rows = [
        ScoredWindow(i, 0.0, 0.0, fused[i], fused[i], int(fused[i] >= 0.5), truths[i])
        for i in range(200)
    ]
    p = tmp_path / "scores.csv"
    write_scores_csv(rows, p)
    code, out, _ = run_cli(capsys, "evaluate", "--scores", p)
    assert code == 0
    got = json.loads(out)["fused"]
    ref = confusion_oracle(truths, [1 if f >= 0.5 else 0 for f in fused])
    for key in ("accuracy", "precision", "recall", "f1"):
        assert got[key] == ref[key]


def test_lock_file_blocks_concurrent_writer(tmp_path, synth_cfg, capsys):
    out = tmp_path / "x.csv"
    (tmp_path / ".canids.lock").write_text("12345")
    code, _, err = run_cli(capsys, "synth", "--config", synth_cfg, "--seed", 1, "--out", out)
    assert code == 1
    assert "category=state" in err
    (tmp_path / ".canids.lock").unlink()
    code, _, _ = run_cli(capsys, "synth", "--config", synth_cfg, "--seed", 1, "--out", out)
    assert code == 0
    assert not (tmp_path / ".canids.lock").exists()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """synth -> build-graphs -> train-vgae -> undersample -> train-gat chain."""
    root = tmp_path_factory.mktemp("chain")
    cfg = root / "synth.json"
    cfg.write_text(json.dumps(SYNTH_CFG))
    assert main(["synth", "--config", str(cfg), "--seed", "7", "--out", str(root / "train.csv")]) == 0
    assert main(["synth", "--config", str(cfg), "--seed", "8", "--out", str(root / "test.csv")]) == 0
    for name in ("train", "test"):
        assert main([
            "build-graphs", "--in", str(root / f"{name}.csv"),
            "--window", "100", "--out", str(root / f"{name}.cache"),
        ]) == 0
    assert main([
        "train-vgae", "--graphs", str(root / "train.cache"), "--preset", "student",
        "--seed", "7", "--vgae-epochs", "6", "--out", str(root / "vgae.ckpt"),
    ]) == 0
    assert main([
        "undersample", "--graphs", str(root / "train.cache"), "--vgae", str(root / "vgae.ckpt"),
        "--ratio", "4", "--seed", "7", "--out", str(root / "stage2.cache"),
    ]) == 0
    assert main([
        "train-gat", "--graphs", str(root / "stage2.cache"), "--val-graphs", str(root / "train.cache"),
        "--preset", "student", "--seed", "7", "--gat-epochs", "20", "--out", str(root / "gat.ckpt"),
    ]) == 0
    return root


def test_chain_report_and_artifacts(small_run, capsys):
    root = small_run
    code = main([
        "report", "--train-graphs", str(root / "train.cache"), "--test-graphs", str(root / "test.cache"),
        "--vgae", str(root / "vgae.ckpt"), "--gat", str(root / "gat.ckpt"),
        "--seed", "7", "--out-dir", str(root / "run"),
    ])
    capsys.readouterr()
    assert code == 0
    assert (root / "run" / "scores.csv").is_file()
    report = json.loads((root / "run" / "report.json").read_text())
    assert set(report["metrics"]) == {"gat_only", "fused"}
    manifest = json.loads((root / "run" / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert "scores" in manifest["artifacts"]
    assert not (root / "run" / ".canids.lock").exists()


def test_undersample_selects_rank_prefix(small_run, capsys):
    from canids.vgae import VgaeModel

    root = small_run
    model = VgaeModel.load(root / "vgae.ckpt")
    full = load_graph_cache(root / "train.cache")
    cut = int(round(len(full) * 0.8))
    normals = [g for g in full[:cut] if g.label == 0]
    attacks = [g for g in full[:cut] if g.label == 1]
    ranked = model.reconstruction_rank(normals, seed=7)
    stage2 = load_graph_cache(root / "stage2.cache")
    keep = min(int(np.ceil(4.0 * len(attacks))), len(normals))
    expected = [g.window_start_index for g in ranked[:keep]]
    got_normals = [g.window_start_index for g in stage2 if g.label == 0]
    assert got_normals == expected


def test_export_embeddings(small_run, capsys):
    root = small_run
    code = main([
        "export-embeddings", "--graphs", str(root / "test.cache"),
        "--gat", str(root / "gat.ckpt"), "--seed", "7", "--out", str(root / "emb.csv"),
    ])
    capsys.readouterr()
    assert code == 0
    lines = (root / "emb.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["window_start_index", "label"]
    n_graphs = len(load_graph_cache(root / "test.cache"))
    assert len(lines) == n_graphs + 1
    from canids.gat import GatConfig, jk_width

    assert len(header) - 2 == jk_width(GatConfig.student())


def test_run_config_supplies_defaults(small_run, tmp_path, capsys):
    root = small_run
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "seed": 7,
        "train-graphs": str(root / "train.cache"),
        "test-graphs": str(root / "test.cache"),
        "vgae": str(root / "vgae.ckpt"),
        "gat": str(root / "gat.ckpt"),
        "out-dir": str(tmp_path / "run"),
        "fusion-weights": [0.15, 0.85],
    }))
    code, out, _ = run_cli(capsys, "report", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 7
    assert report["fusion_weights"] == [0.15, 0.85]
    assert report["params"]["gat"] > 0
    # explicit flags beat the file
    code, out, _ = run_cli(capsys, "report", "--config", cfg, "--out-dir", tmp_path / "run2")
    assert code == 0
    assert (tmp_path / "run2" / "scores.csv").is_file()
    # bad config file is a usage/config failure
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "report", "--config", bad)
    assert code == 2 and "category=config" in err


def test_distill_cli(small_run, capsys):
    root = small_run
    code = main([
        "distill", "--graphs", str(root / "train.cache"), "--test-graphs", str(root / "test.cache"),
        "--teacher-vgae", str(root / "vgae.ckpt"), "--teacher-gat", str(root / "gat.ckpt"),
        "--tau", "4.0", "--alpha", "0.5", "--seed", "7",
        "--vgae-epochs", "4", "--gat-epochs", "10",
        "--out-dir", str(root / "kd"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["teacher_checksums_unchanged"] is True
    assert (root / "kd" / "student-vgae.ckpt").is_file()
    assert (root / "kd" / "student-gat.ckpt").is_file()
    assert (root / "kd" / "scores.csv").is_file()
    assert report["metrics"]["student"]["gat_only"]["f1"] >= 0.0


def _tamper(src, dst, line_prefix, edit):
    """Copy src to dst with ``edit`` applied to the first line starting with line_prefix; returns its 1-based number."""
    lines = src.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith(line_prefix))
    lines[at] = edit(lines[at])
    dst.write_text("".join(lines))
    return at + 1


def _row_after_param(src, dst, edit):
    """Edit the first value row of the first parameter record."""
    lines = src.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("param ")) + 1
    lines[at] = edit(lines[at])
    dst.write_text("".join(lines))
    return at + 1


@pytest.mark.parametrize(
    "edit",
    [lambda row: " ".join(row.split()[:-1]) + "\n", lambda row: row.replace(row.split()[0], "x1.5", 1)],
    ids=["short-row", "non-numeric"],
)
def test_bad_checkpoint_row_is_parse_error(small_run, tmp_path, capsys, edit):
    bad = tmp_path / "vgae.ckpt"
    lineno = _row_after_param(small_run / "vgae.ckpt", bad, edit)
    code, _, err = run_cli(
        capsys, "undersample", "--graphs", small_run / "train.cache", "--vgae", bad,
        "--ratio", 4, "--seed", 7, "--out", tmp_path / "stage2.cache",
    )
    assert code == 1
    assert err.startswith("canids-error category=parse") and f"line {lineno}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "prefix, edit",
    [
        ("node ", lambda line: line.replace(line.split()[2], "0.x", 1)),
        ("edge ", lambda line: line.replace(line.split()[1], "one", 1)),
        ("graph ", lambda line: line.replace(line.split()[3], "3.5", 1)),
    ],
    ids=["node-feature", "edge-index", "graph-count"],
)
def test_bad_graph_cache_field_is_parse_error(small_run, tmp_path, capsys, prefix, edit):
    bad = tmp_path / "train.cache"
    lineno = _tamper(small_run / "train.cache", bad, prefix, edit)
    code, _, err = run_cli(
        capsys, "train-vgae", "--graphs", bad, "--preset", "student",
        "--seed", 7, "--vgae-epochs", 1, "--out", tmp_path / "vgae.ckpt",
    )
    assert code == 1
    assert err.startswith("canids-error category=parse") and f"line {lineno}:" in err
