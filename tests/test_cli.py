import argparse
import contextlib
import io
import json
import math
import random
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids.cli import _output_lock, build_parser, main
from canids.errors import ConfigError, StateError
from canids.graphs import load_graph_cache, save_graph_cache
from canids.pipeline import SCORES_HEADER, PipelineOptions, ScoredWindow, write_scores_csv
from helpers import confusion_oracle

COMMANDS = list(build_parser().canids_subparsers)
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


@pytest.mark.parametrize("window", [10**5, 10**30])  # the second does not fit an int64
def test_build_graphs_window_longer_than_the_log_is_config_error(tmp_path, capsys, window):
    log, out = tmp_path / "log.csv", tmp_path / "g.cache"
    log.write_text("".join(f"{k / 10!r},0316,2,aa,bb,R\n" for k in range(50)))
    code, stdout, err = run_cli(capsys, "build-graphs", "--in", log, "--window", window, "--out", out)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.endswith(f"canids-error category=config message={log}: fewer than {window} frames; no windows\n")


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


@pytest.mark.parametrize("row", ["3.0,-7ff,2,aa,bb,R", "3.0,0316,2,-1,aa,R", "3.0,0316,2,aa,1ff,R"])
def test_out_of_range_log_value_is_parse_error(tmp_path, capsys, row):
    log = tmp_path / "log.csv"
    log.write_text(f"1.0,0316,2,aa,bb,R\n2.0,0100,1,7f,T\n{row}\n4.0,0316,2,aa,bb,R\n")
    out = tmp_path / "g.cache"
    code, stdout, err = run_cli(capsys, "build-graphs", "--in", log, "--window", 2, "--out", out)
    assert code == 1 and stdout == ""
    errors = [line for line in err.splitlines() if line.startswith("canids-error")]
    assert len(errors) == 1
    assert errors[0].startswith("canids-error category=parse") and "line 3:" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("row", ["1_2.5,0316,2,aa,bb,R", "3.0 ,0316,2,aa,bb,R", "+3,0316,2,aa,bb,R", "3.0,0316,+2,aa,bb,R", "3.0,0316, 2 ,aa,bb,R", "3.0,0316,0_2,aa,bb,R"])
@pytest.mark.parametrize("command", ["build-graphs", "ingest-generic"])
def test_non_decimal_timestamp_or_dlc_is_parse_error(tmp_path, capsys, command, row):
    log = tmp_path / "log.csv"
    log.write_text(f"1.0,0316,2,aa,bb,R\n2.0,0100,2,7f,00,T\n{row}\n4.0,0316,2,aa,bb,R\n")
    out = tmp_path / "out"
    if command == "build-graphs":
        argv = ["build-graphs", "--in", log, "--window", 2, "--out", out]
    else:
        argv = ["ingest", log, "--format", "generic", "--column-map", "timestamp=0,id=1,dlc=2,data=3,label=5", "--out", out]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    errors = [line for line in err.splitlines() if line.startswith("canids-error")]
    assert len(errors) == 1 and "Traceback" not in err
    assert errors[0].startswith("canids-error category=parse message=line 3: bad ")
    assert not out.exists()


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


def test_ingest_generic_documented_column_map_example_works(tmp_path, capsys):
    ingest = build_parser(["ingest"]).canids_subparsers["ingest"]
    example = next(a.help for a in ingest._actions if a.dest == "column_map")
    raw = tmp_path / "raw.csv"
    raw.write_text("0.5,316,2,aa,bb,0,0,0,0,0,0,T\n0.6,100,8,7f,01,02,03,04,05,06,07,R\n")
    code, _, err = run_cli(capsys, "ingest", raw, "--format", "generic", "--column-map", "nonsense")
    assert code == 2 and err.rstrip().endswith(f"expected {example}")
    out = tmp_path / "norm.csv"
    code, stdout, _ = run_cli(capsys, "ingest", raw, "--format", "generic", "--column-map", example, "--out", out)
    assert code == 0 and json.loads(stdout)["frames"] == 2
    assert out.read_text() == "0.5,0316,2,aa,bb,T\n0.6,0100,8,7f,01,02,03,04,05,06,07,R\n"


@pytest.mark.parametrize("column_map", ["timestamp=0,id=1,dlc=2,data=-1,label=5", "timestamp=0,id=-5,dlc=2,data=3,label=5"])
def test_ingest_generic_negative_column_index_is_config_error(tmp_path, capsys, column_map):
    raw = tmp_path / "raw.csv"
    raw.write_text("1.0,316,2,aa,bb,R\n")
    out = tmp_path / "norm.csv"
    code, stdout, err = run_cli(capsys, "ingest", raw, "--format", "generic", "--column-map", column_map, "--out", out)
    assert code == 2 and stdout == "" and "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("canids-error")]
    assert len(errors) == 1 and errors[0].startswith("canids-error category=config") and ">= 0" in errors[0]
    assert not out.exists()


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


GOOD_SCORES_ROW = "300,1,0.5,0.25,0.75,0.675,1"


@pytest.mark.parametrize(
    "row",
    [
        "300,x,0.5,0.25,0.75,0.675,1",
        "300,1,0.5,0.25,high,0.675,1",
        "3e2,1,0.5,0.25,0.75,0.675,1",
        "300,1,0.5,nan,0.75,0.675,1",
        "300,1,0.5,0.25,inf,0.675,1",
        "300,1,0.5,0.25,0.75,1.5,1",
        "300,1,0.5,-0.25,0.75,0.675,1",
        "300,7,0.5,0.25,0.75,0.675,1",
        "300,1,0.5,0.25,0.75,0.675,2",
    ],
    ids=[
        "truth-non-numeric", "prob-non-numeric", "start-non-integer", "prob-nan", "prob-inf",
        "prob-above-one", "prob-negative", "truth-7", "predicted-2",
    ],
)
def test_bad_scores_row_is_parse_error(tmp_path, capsys, row):
    p = tmp_path / "scores.csv"
    p.write_text(f"{SCORES_HEADER}\n{GOOD_SCORES_ROW}\n{row}\n{GOOD_SCORES_ROW}\n")
    code, out, err = run_cli(capsys, "evaluate", "--scores", p)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("canids-error category=parse") and "line 3:" in lines[0]


def test_good_scores_rows_evaluate(tmp_path, capsys):
    p = tmp_path / "scores.csv"
    p.write_text(f"{SCORES_HEADER}\n{GOOD_SCORES_ROW}\n300,0,-2.5,0.0,1.0,0.85,1\n")
    code, out, _ = run_cli(capsys, "evaluate", "--scores", p)
    assert code == 0
    assert json.loads(out)["fused"]["precision"] == 0.5


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


def test_lock_error_says_whether_holder_is_running(tmp_path):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    lock = tmp_path / ".canids.lock"
    for pid, state in ((os.getpid(), "is still running"), (child.pid, "is not running")):
        lock.write_text(str(pid))
        with pytest.raises(StateError, match=f"PID {pid} {state}"):
            with _output_lock(tmp_path):
                pass
        assert lock.read_text() == str(pid)  # never reclaimed


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
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["versions"]["blas"] == f"{blas['name']} {blas['version']}"
    assert manifest["versions"]["blas_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
    assert not (root / "run" / ".canids.lock").exists()


def test_cli_chain_equals_train_stages(small_run, tmp_path):
    from canids.gat import GatConfig
    from canids.pipeline import PipelineOptions, chronological_split, train_stages
    from canids.vgae import VgaeConfig

    opts = PipelineOptions(vgae_epochs=6, gat_epochs=20)
    train_part, val_part = chronological_split(load_graph_cache(small_run / "train.cache"), opts.val_frac)
    stages = train_stages(train_part, val_part, VgaeConfig.student(), GatConfig.student(), 7, opts)
    for name, model in (("vgae.ckpt", stages.vgae), ("gat.ckpt", stages.gat)):
        model.save(tmp_path / name)
        assert (tmp_path / name).read_bytes() == (small_run / name).read_bytes(), name
    selected = stages.selection.selected_normals + stages.selection.attacks
    stage2 = load_graph_cache(small_run / "stage2.cache")
    assert [g.window_start_index for g in stage2] == [g.window_start_index for g in selected]


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


@pytest.mark.parametrize("weight", ["0.0", "-1.0", "nan", "inf"])
def test_bad_edge_weight_is_parse_error(small_run, tmp_path, capsys, weight):
    bad = tmp_path / "train.cache"
    lineno = _tamper(
        small_run / "train.cache", bad, "edge ", lambda line: " ".join(line.split()[:3] + [weight]) + "\n"
    )
    code, _, err = run_cli(
        capsys, "train-vgae", "--graphs", bad, "--preset", "student",
        "--seed", 7, "--vgae-epochs", 1, "--out", tmp_path / "vgae.ckpt",
    )
    assert code == 1
    assert err.startswith("canids-error category=parse") and f"line {lineno}:" in err
    assert "Traceback" not in err


def _with_field(index, value):
    return lambda line: " ".join(line.split()[:index] + [value] + line.split()[index + 1 :]) + "\n"


@pytest.mark.parametrize(
    "prefix, edit, rule",
    [
        ("graph ", _with_field(2, "7"), "label must be 0 or 1"),
        ("node ", _with_field(2, "nan"), "node features must be finite"),
        ("node ", _with_field(1, "-5"), "node ID must be in"),
        ("edge ", _with_field(1, "57"), "edge source must be in"),
    ],
    ids=["label-7", "nan-feature", "negative-id", "edge-source-57"],
)
@pytest.mark.parametrize("command", ["train-vgae", "train-gat"])
def test_out_of_range_graph_cache_value_is_parse_error(small_run, tmp_path, capsys, command, prefix, edit, rule):
    bad = tmp_path / "graphs.cache"
    if command == "train-vgae":
        lineno = _tamper(small_run / "train.cache", bad, prefix, edit)
        argv = [command, "--graphs", bad, "--vgae-epochs", 1]
    else:
        lineno = _tamper(small_run / "stage2.cache", bad, prefix, edit)
        argv = [command, "--graphs", bad, "--val-graphs", small_run / "train.cache", "--gat-epochs", 1]
    out = tmp_path / "model.ckpt"
    code, _, err = run_cli(capsys, *argv, "--preset", "student", "--seed", 7, "--out", out)
    assert code == 1
    _only_parse_error(err, lineno, bad)
    assert rule in err
    assert not out.exists()


def test_negative_fusion_weight_is_config_error(small_run, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "report", "--train-graphs", small_run / "train.cache", "--test-graphs", small_run / "test.cache",
        "--vgae", small_run / "vgae.ckpt", "--gat", small_run / "gat.ckpt", "--seed", 7,
        "--fusion-weights=-0.5,1.5", "--out-dir", tmp_path / "run",
    )
    assert code == 2
    assert err.startswith("canids-error category=config") and "non-negative" in err
    assert not (tmp_path / "run" / "scores.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["undersample", "report"])
def test_non_finite_checkpoint_value_is_parse_error(small_run, tmp_path, capsys, command, value):
    bad = tmp_path / "vgae.ckpt"
    lineno = _row_after_param(
        small_run / "vgae.ckpt", bad, lambda row: " ".join(value for _ in row.split()) + "\n"
    )
    if command == "undersample":
        argv = ["--graphs", small_run / "train.cache", "--out", tmp_path / "stage2.cache"]
    else:
        argv = [
            "--train-graphs", small_run / "train.cache", "--test-graphs", small_run / "test.cache",
            "--gat", small_run / "gat.ckpt", "--out-dir", tmp_path / "run",
        ]
    code, _, err = run_cli(capsys, command, "--vgae", bad, "--seed", 7, *argv)
    assert code == 1
    assert err.startswith("canids-error category=parse") and f"line {lineno}:" in err
    assert "Traceback" not in err


def _only_parse_error(err, lineno, path):
    """The stderr of a run that failed on ``path``: one parse line naming the file and line, no traceback."""
    lines = [line for line in err.splitlines() if line.startswith("canids-error")]
    assert len(lines) == 1 and "Traceback" not in err
    assert lines[0].startswith("canids-error category=parse")
    assert f"line {lineno}:" in lines[0] and str(path) in lines[0]


def _edit_config(edit):
    """A checkpoint-header edit: ``edit`` applied to the parsed config, written back as JSON."""
    def apply(line):
        word, kind, config = line.split(maxsplit=2)
        return f"{word} {kind} {json.dumps(edit(json.loads(config)))}\n"

    return apply


BAD_CONFIG_EDITS = {
    "unknown-key": _edit_config(lambda cfg: {"bogus": 1, **cfg}),
    "string-int": _edit_config(lambda cfg: {**cfg, "num_layers": str(cfg["num_layers"])}),
    "not-an-object": _edit_config(lambda cfg: [1, 2]),
}


@pytest.mark.parametrize(
    "kind, edit",
    [(kind, edit) for kind in ("gat", "vgae") for edit in BAD_CONFIG_EDITS.values()]
    + [("gat", _edit_config(lambda cfg: {**cfg, "leaky_slope": "x"}))],
    ids=[f"{kind}-{name}" for kind in ("gat", "vgae") for name in BAD_CONFIG_EDITS] + ["gat-string-slope"],
)
def test_bad_checkpoint_config_is_parse_error(small_run, tmp_path, capsys, kind, edit):
    bad = tmp_path / f"{kind}.ckpt"
    lineno = _tamper(small_run / f"{kind}.ckpt", bad, "model ", edit)
    assert lineno == 2
    if kind == "gat":
        argv = ["export-embeddings", "--graphs", small_run / "test.cache", "--gat", bad, "--out", tmp_path / "emb.csv"]
    else:
        argv = ["undersample", "--graphs", small_run / "train.cache", "--vgae", bad, "--out", tmp_path / "stage2.cache"]
    code, _, err = run_cli(capsys, *argv, "--seed", 7)
    assert code == 1
    _only_parse_error(err, lineno, bad)


BAD_TRAINING_OPTIONS = [
    ("train-vgae", "vgae_epochs", 0),
    ("train-vgae", "vgae_batch", 0),
    ("train-vgae", "vgae_lr", float("nan")),
    ("train-vgae", "vgae_lr", 0.0),
    ("train-gat", "gat_epochs", 0),
    ("train-gat", "gat_batch", -2),
    ("train-gat", "gat_lr", float("inf")),
    ("train-gat", "patience", -1),
]
# argparse itself rejects a fractional value of an integer flag, so these go by config file only
FRACTIONAL_INT_OPTIONS = [
    ("train-vgae", "vgae_epochs", 1.5),
    ("train-gat", "gat_batch", 2.5),
    ("train-gat", "patience", 1.5),
]


@pytest.mark.parametrize(
    "route, command, flag, value",
    [("flag", *case) for case in BAD_TRAINING_OPTIONS]
    + [("config", *case) for case in BAD_TRAINING_OPTIONS + FRACTIONAL_INT_OPTIONS],
)
def test_bad_training_option_is_config_error(small_run, tmp_path, capsys, route, command, flag, value):
    out = tmp_path / "model.ckpt"
    if command == "train-vgae":
        argv = [command, "--graphs", small_run / "train.cache"]
    else:
        argv = [command, "--graphs", small_run / "stage2.cache", "--val-graphs", small_run / "train.cache"]
    argv += ["--preset", "student", "--seed", 7, "--out", out]
    if route == "flag":
        argv.append(f"--{flag.replace('_', '-')}={value}")
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({flag: value}))
        argv += ["--config", cfg]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("canids-error category=config") and flag in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, route, seed",
    [
        ("synth", "flag", -1),
        ("train-vgae", "flag", -1),
        ("undersample", "flag", -1),
        ("train-vgae", "config", 1.5),
        ("build-graphs", "config", 1.5),
    ],
)
def test_bad_seed_is_config_error(small_run, tmp_path, capsys, command, route, seed):
    out = tmp_path / "out"
    argv = {
        "synth": ["--config", small_run / "synth.json"],
        "build-graphs": ["--in", small_run / "train.csv"],
        "train-vgae": ["--graphs", small_run / "train.cache", "--preset", "student"],
        "undersample": ["--graphs", small_run / "train.cache", "--vgae", small_run / "vgae.ckpt"],
    }[command]
    argv = [command, *argv, "--out", out]
    if route == "flag":
        argv += ["--seed", seed]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": seed}))
        argv += ["--config", cfg]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and not out.exists()
    assert err.startswith("canids-error category=config") and err.count("\n") == 1 and "seed" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "7"])
def test_bad_threshold_is_config_error(tmp_path, capsys, value):
    scores = tmp_path / "scores.csv"
    rows = [ScoredWindow(0, 3.0, 0.5, 0.9, 0.84, 1, 1), ScoredWindow(100, 1.0, 0.0, 0.1, 0.085, 0, 0)]
    write_scores_csv(rows, scores)
    code, out, err = run_cli(capsys, "evaluate", "--scores", scores, f"--threshold={value}")
    assert code == 2 and out == ""
    assert err.startswith("canids-error category=config") and err.count("\n") == 1 and "threshold" in err
    with pytest.raises(ConfigError, match="threshold"):
        PipelineOptions(threshold=float(value))


def test_non_finite_tau_fails_before_training(small_run, tmp_path, capsys):
    out = tmp_path / "kd"
    code, _, err = run_cli(
        capsys, "distill", "--graphs", small_run / "train.cache",
        "--teacher-vgae", small_run / "vgae.ckpt", "--teacher-gat", small_run / "gat.ckpt",
        "--tau", "nan", "--seed", 7, "--out-dir", out,
    )
    assert code == 2 and not out.exists()
    assert err.startswith("canids-error category=config") and err.count("\n") == 1 and "temperature" in err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("build-graphs", "window", None),
        ("build-graphs", "window", {"a": 1}),
        ("build-graphs", "window", "100"),
        ("build-graphs", "window", True),
        ("build-graphs", "stride", [1, 2]),
        ("build-graphs", "undirected", "no"),
        ("build-graphs", "undirected", 1),
        ("build-graphs", "out", 5),
        ("train-vgae", "vgae-lr", "0.01"),
        ("train-vgae", "vgae_epochs", False),
    ],
)
def test_wrongly_typed_run_config_value_is_config_error(small_run, tmp_path, capsys, command, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    inputs = {"build-graphs": ["--in", small_run / "train.csv"], "train-vgae": ["--graphs", small_run / "train.cache"]}
    code, stdout, err = run_cli(capsys, command, *inputs[command], "--config", cfg, "--out", out)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("canids-error category=config") and err.count("\n") == 1 and repr(key) in err


def test_run_config_boolean_equals_flag(small_run, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"undirected": True, "window": 50}))
    by_file, by_flag = tmp_path / "file.cache", tmp_path / "flag.cache"
    assert run_cli(capsys, "build-graphs", "--in", small_run / "train.csv", "--config", cfg, "--out", by_file)[0] == 0
    code, _, _ = run_cli(
        capsys, "build-graphs", "--in", small_run / "train.csv", "--undirected", "--window", 50, "--out", by_flag
    )
    assert code == 0 and by_file.read_bytes() == by_flag.read_bytes()


@pytest.mark.parametrize("command, graphs", [("train-vgae", "train.cache"), ("train-gat", "stage2.cache")])
def test_unknown_preset_in_run_config_is_usage_error(small_run, tmp_path, capsys, command, graphs):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "huge"}))
    out = tmp_path / "model.ckpt"
    code, _, err = run_cli(capsys, command, "--config", cfg, "--graphs", small_run / graphs, "--out", out)
    assert code == 2 and not out.exists()
    assert err.startswith("canids-error category=usage") and "'huge'" in err


@pytest.mark.parametrize(
    "command, config",
    [
        ("ingest", {"format": "bogus", "column_map": "timestamp=0,id=1,dlc=2,data=3,label=5"}),
        ("train-vgae", {"score_mode": "bogus"}),
        ("train-vgae", {"score-mode": ["composite", "adjacency_l2"]}),
        ("train-gat", {"preset": "huge"}),
    ],
)
def test_run_config_value_outside_choices_is_usage_error(small_run, tmp_path, capsys, command, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    inputs = {"ingest": [small_run / "train.csv"], "train-vgae": ["--graphs", small_run / "train.cache"],
              "train-gat": ["--graphs", small_run / "stage2.cache"]}
    code, stdout, err = run_cli(capsys, command, *inputs[command], "--config", cfg, "--out", out)
    key = next(iter(config))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("canids-error category=usage") and err.count("\n") == 1 and repr(key) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "{log}", "--format", "bogus"],
        ["build-graphs", "--in", "{log}", "--window", "abc", "--out", "{out}"],
        ["build-graphs", "--in", "{log}"],
        ["train-vgae", "--graphs", "{log}", "--preset", "huge", "--out", "{out}"],
        ["train-vgae", "--graphs", "{log}", "--score-mode", "bogus", "--out", "{out}"],
        ["evaluate", "--scores", "{log}", "--threshold", "half"],
        ["evaluate", "--scores", "{log}", "--bogus"],
        ["bogus-command"],
        [],
    ],
)
def test_argparse_errors_are_usage_errors(tmp_path, capsys, argv):
    log, out = tmp_path / "log.csv", tmp_path / "out"
    log.write_text("1.0,0316,2,aa,bb,R\n")
    code, stdout, err = run_cli(capsys, *(a.format(log=log, out=out) for a in argv))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("canids-error category=usage message=canids") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["build-graphs", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0 and capsys.readouterr().out


# stdout, stderr and exit code of each argument list, as the parser that built all ten subparsers on
# every call gave them
GOLDEN_HELP = json.loads((Path(__file__).parent / "golden_cli_help.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_HELP, ids=lambda case: " ".join(case["argv"]) or "no arguments")
def test_help_version_and_usage_errors_match_golden_text(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text at the terminal's width
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["code"], case["stdout"], case["stderr"])


def test_build_parser_builds_only_the_invoked_subparser():
    assert list(build_parser(["build-graphs", "--in", "x"]).canids_subparsers) == ["build-graphs"]
    assert len(COMMANDS) == 10
    for argv in ([], ["--help"], ["--version"], ["bogus"], ["-x", "build-graphs"]):
        assert list(build_parser(argv).canids_subparsers) == COMMANDS


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["build-graphs", "ingest-generic"])
def test_non_finite_timestamp_is_parse_error(tmp_path, capsys, command, value):
    log = tmp_path / "log.csv"
    # after a nan, 1.0 must not pass as a non-decreasing timestamp either
    log.write_text(f"5.0,0316,2,aa,bb,R\n6.0,0100,2,7f,00,T\n{value},0316,2,aa,bb,R\n1.0,0316,2,aa,bb,R\n")
    out = tmp_path / "out"
    if command == "build-graphs":
        argv = ["build-graphs", "--in", log, "--window", 2, "--out", out]
    else:
        argv = ["ingest", log, "--format", "generic", "--column-map", "timestamp=0,id=1,dlc=2,data=3,label=5", "--out", out]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    lines = [line for line in err.splitlines() if line.startswith("canids-error")]
    assert len(lines) == 1 and lines[0].startswith("canids-error category=parse")
    assert "line 3:" in lines[0] and "non-finite timestamp" in lines[0]
    assert not out.exists()


def _with_non_ascii(line):
    return line.rstrip("\n") + "é\n"  # written as two UTF-8 bytes, neither of them ASCII


def test_non_ascii_log_is_parse_error(tmp_path, synth_cfg, capsys):
    log = tmp_path / "log.csv"
    run_cli(capsys, "synth", "--config", synth_cfg, "--seed", 1, "--out", log)
    lines = log.read_text().splitlines(keepends=True)
    lines[4000] = lines[4000].replace(",R", ",éR")  # past the decoder's first read-ahead chunk
    log.write_text("".join(lines))
    code, stdout, err = run_cli(capsys, "build-graphs", "--in", log, "--out", tmp_path / "g.cache")
    assert code == 1 and stdout == ""
    _only_parse_error(err, 4001, log)


def test_non_ascii_graph_cache_is_parse_error(small_run, tmp_path, capsys):
    bad = tmp_path / "train.cache"
    lines = (small_run / "train.cache").read_text().splitlines(keepends=True)
    lines[3000] = _with_non_ascii(lines[3000])
    bad.write_text("".join(lines))
    code, _, err = run_cli(
        capsys, "train-vgae", "--graphs", bad, "--preset", "student",
        "--seed", 7, "--vgae-epochs", 1, "--out", tmp_path / "vgae.ckpt",
    )
    assert code == 1
    _only_parse_error(err, 3001, bad)


def test_non_ascii_checkpoint_is_parse_error(small_run, tmp_path, capsys):
    bad = tmp_path / "vgae.ckpt"
    lineno = _row_after_param(small_run / "vgae.ckpt", bad, _with_non_ascii)
    code, _, err = run_cli(
        capsys, "undersample", "--graphs", small_run / "train.cache", "--vgae", bad,
        "--ratio", 4, "--seed", 7, "--out", tmp_path / "stage2.cache",
    )
    assert code == 1
    _only_parse_error(err, lineno, bad)


def test_non_ascii_scores_file_is_parse_error(tmp_path, capsys):
    p = tmp_path / "scores.csv"
    p.write_text(f"{SCORES_HEADER}\n{GOOD_SCORES_ROW}\n{_with_non_ascii(GOOD_SCORES_ROW)}{GOOD_SCORES_ROW}\n")
    code, out, err = run_cli(capsys, "evaluate", "--scores", p)
    assert code == 1 and out == ""
    _only_parse_error(err, 3, p)


# (artifact, edit of its lines, the line the error must name)
BAD_HEADERS = {
    "cache-wrong-magic": ("train.cache", lambda lines: ["canids-graph-cache v2\n"] + lines[1:], 1),
    "cache-no-magic": ("train.cache", lambda lines: lines[1:], 1),
    "cache-empty": ("train.cache", lambda lines: [], 1),
    "checkpoint-wrong-magic": ("vgae.ckpt", lambda lines: ["canids-checkpoint v0\n"] + lines[1:], 1),
    "checkpoint-empty": ("vgae.ckpt", lambda lines: [], 1),
    "checkpoint-no-model-line": ("vgae.ckpt", lambda lines: lines[:1] + lines[2:], 2),
    "checkpoint-model-line-cut": ("vgae.ckpt", lambda lines: lines[:1] + ["model vgae\n"] + lines[2:], 2),
    "scores-wrong-header": ("scores.csv", lambda lines: ["window_start_index,truth\n"] + lines[1:], 1),
    "scores-empty": ("scores.csv", lambda lines: [], 1),
}


@pytest.mark.parametrize("artifact, edit, lineno", BAD_HEADERS.values(), ids=BAD_HEADERS)
def test_bad_header_names_its_line(small_run, tmp_path, capsys, artifact, edit, lineno):
    bad = tmp_path / artifact
    if artifact == "scores.csv":
        lines = [f"{SCORES_HEADER}\n", f"{GOOD_SCORES_ROW}\n"]
    else:
        lines = (small_run / artifact).read_text().splitlines(keepends=True)
    bad.write_text("".join(edit(lines)))
    argv = {
        "train.cache": ["train-vgae", "--graphs", bad, "--preset", "student", "--out", tmp_path / "v.ckpt"],
        "vgae.ckpt": ["undersample", "--graphs", small_run / "train.cache", "--vgae", bad, "--out", tmp_path / "s2"],
        "scores.csv": ["evaluate", "--scores", bad],
    }[artifact]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    _only_parse_error(err, lineno, bad)


def test_undecodable_config_is_config_error(small_run, tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_bytes(b'{"seed": 7\xff}')
    code, _, err = run_cli(capsys, "synth", "--config", bad, "--seed", 1, "--out", tmp_path / "log.csv")
    assert code == 2 and err.startswith("canids-error category=config")
    code, _, err = run_cli(
        capsys, "train-vgae", "--config", bad, "--graphs", small_run / "train.cache", "--out", tmp_path / "v.ckpt"
    )
    assert code == 2 and err.startswith("canids-error category=config")


# ---------------------------------------------------------------- checkpoint and scores mutation sweep

ARTIFACT_MUTATIONS = ("truncate", "flip", "drop", "copy", "blank", "swap", "nan", "1e309", "-inf", "1_0", "+1", "é", "")


def mutate_artifact(rng: random.Random, text: str, kind: str, sep: str) -> bytes:
    """One mutation of a checkpoint's or scores file's text: a cut, a flipped bit, a dropped, copied or
    blanked line, two swapped ``sep``-separated fields, a repeated ``param`` record, or a field replaced
    by ``nan``, ``1e309``, ``-inf``, ``1_0``, ``+1``, ``é`` or nothing."""
    if kind == "truncate":
        return text[: rng.randrange(len(text))].encode()
    if kind == "flip":
        data = bytearray(text.encode())
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(data)
    lines = text.split("\n")[:-1]
    k = rng.randrange(len(lines))
    fields = lines[k].split(sep)
    if kind == "param":  # a whole record again, before another record or the end marker
        heads = [i for i, line in enumerate(lines) if line.startswith("param ") or line == "end"]
        at = rng.randrange(len(heads) - 1)
        record = lines[heads[at] : heads[at + 1]]
        to = rng.choice(heads[at + 1 :])
        lines[to:to] = record
    elif kind == "drop":
        del lines[k]
    elif kind == "copy":
        lines.insert(rng.randrange(len(lines) + 1), lines[k])
    elif kind == "blank":
        lines[k] = ""
    elif kind == "swap" and len(fields) > 1:
        i, j = rng.sample(range(len(fields)), 2)
        fields[i], fields[j] = fields[j], fields[i]
        lines[k] = sep.join(fields)
    elif kind != "swap":
        fields[rng.randrange(len(fields))] = kind
        lines[k] = sep.join(fields)
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_checkpoint_and_scores_mutation_sweep(small_run, tmp_path, capsys):
    """Every mutant of a VGAE checkpoint, a GAT checkpoint and a scores file exits 0, or 1 or 2 with one
    canids-error line and no traceback, in undersample, export-embeddings and evaluate."""
    cache = tmp_path / "few.cache"
    save_graph_cache(load_graph_cache(small_run / "train.cache")[:60], cache)
    scores = tmp_path / "scores.csv"
    write_scores_csv([ScoredWindow(i * 100, 0.5 * i, i / 9, 1 - i / 9, 0.5, i % 2, i // 5) for i in range(10)], scores)
    bad, out = tmp_path / "bad", tmp_path / "out"
    commands = {
        "vgae.ckpt": (" ", ["undersample", "--graphs", cache, "--vgae", bad, "--ratio", 4, "--out", out]),
        "gat.ckpt": (" ", ["export-embeddings", "--graphs", cache, "--gat", bad, "--out", out]),
        "scores.csv": (",", ["evaluate", "--scores", bad]),
    }
    rng = random.Random(2026)
    exits = []
    for artifact, (sep, argv) in commands.items():
        text = (scores if artifact == "scores.csv" else small_run / artifact).read_text()
        bad.write_text(text)
        assert run_cli(capsys, *argv)[0] == 0, artifact
        kinds = ARTIFACT_MUTATIONS + (("param",) if artifact.endswith(".ckpt") else ())
        for kind in kinds * 4:
            bad.write_bytes(mutate_artifact(rng, text, kind, sep))
            out.unlink(missing_ok=True)
            code, _, err = run_cli(capsys, *argv)
            exits.append(code)
            # a repeated record is never read past; the writers write no "_" and no "+" sign
            assert code == 1 or kind not in ("param", "1_0", "+1"), (artifact, kind, err)
            if code != 0:
                assert code in (1, 2) and "Traceback" not in err, (artifact, kind, err)
                assert sum(line.startswith("canids-error") for line in err.splitlines()) == 1, (artifact, kind, err)
                assert not out.exists()
                assert str(bad) in err or kind not in ("truncate", "blank"), (artifact, kind, err)
    assert len(exits) == 164 and 0 in exits and 1 in exits


# ---------------------------------------------------------------- run-config property test

# flags whose range has an upper end below 10**30, or excludes zero; every numeric flag rejects negatives
BOUNDED_INTS = {"window", "stride", "id_base"}
AT_MOST_ONE = {"val_frac", "threshold", "alpha"}
ABOVE_ZERO = {"val_frac", "vgae_lr", "gat_lr", "ratio", "tau"}
NUMBER_STRINGS = st.sampled_from(["nan", "inf", "100", "0.5", "1e309", "-1", ""]) | st.text(max_size=6)
OBJECTS = st.dictionaries(st.text(max_size=3), st.integers() | st.none(), max_size=2)
NOT_A_NUMBER = st.none() | st.booleans() | NUMBER_STRINGS | st.lists(st.integers(), max_size=3) | OBJECTS
NEGATIVE_INTS = st.integers(max_value=-1) | st.just(-(10**30))
NON_FINITE = st.sampled_from([float("inf"), float("-inf"), float("nan")])


def bad_value(action) -> st.SearchStrategy:
    """Values of a run-config key that its subcommand must reject: a wrong JSON type for the flag, or a
    number outside the flag's range."""
    name = action.dest
    if isinstance(action, argparse._StoreTrueAction):
        return st.none() | st.integers() | st.floats() | NUMBER_STRINGS | st.lists(st.booleans(), max_size=2) | OBJECTS
    if action.type is int:
        big = st.just(10**30) if name in BOUNDED_INTS else st.nothing()
        return NOT_A_NUMBER | st.floats() | st.just(-0.0) | NEGATIVE_INTS | big
    if action.type is float:
        big = st.just(10**30) if name in AT_MOST_ONE else st.nothing()
        zero = st.sampled_from([0, 0.0, -0.0]) if name in ABOVE_ZERO else st.nothing()
        return NOT_A_NUMBER | NON_FINITE | NEGATIVE_INTS | st.floats(max_value=-1e-300) | big | zero
    wrong_type = st.none() | st.booleans() | st.integers() | st.floats() | OBJECTS
    if action.choices is not None:
        return wrong_type | st.text(max_size=8).filter(lambda s: s not in action.choices)
    if name == "fusion_weights":
        return wrong_type | st.sampled_from(["nan,1", "1,nan", "inf,0", "1e309,0", "-0.5,1.5", "0.5", "1,0,0", "a,b"])
    return wrong_type  # a path or a string that only the flag itself reads


def config_text(values: dict) -> str:
    """``values`` as a JSON object, with infinities written ``1e309`` and ``-1e309``."""
    def text(value):
        if isinstance(value, float) and math.isinf(value):
            return "1e309" if value > 0 else "-1e309"
        return json.dumps(value)

    return "{" + ", ".join(f"{json.dumps(key)}: {text(value)}" for key, value in values.items()) + "}"


@pytest.fixture(scope="module")
def run_inputs(small_run):
    """Valid arguments of every subcommand that takes a run config, each with the path it writes."""
    root = small_run
    generic = root / "generic.csv"
    generic.write_text("".join(f"{k / 10!r},316,2,aa,bb,x,x,x,x,x,x,R\n" for k in range(20)))
    scores = root / "property-scores.csv"
    write_scores_csv([ScoredWindow(i * 100, 0.5 * i, i / 9, 1 - i / 9, 0.5, i % 2, i // 5) for i in range(10)], scores)
    inputs = {
        "ingest": [generic, "--format", "generic", "--column-map", "timestamp=0,id=1,dlc=2,data=3,label=11"],
        "build-graphs": ["--in", root / "train.csv"],
        "train-vgae": ["--graphs", root / "train.cache"],
        "undersample": ["--graphs", root / "train.cache", "--vgae", root / "vgae.ckpt"],
        "train-gat": ["--graphs", root / "stage2.cache"],
        "distill": ["--graphs", root / "train.cache", "--teacher-vgae", root / "vgae.ckpt",
                    "--teacher-gat", root / "gat.ckpt"],
        "evaluate": ["--scores", scores],
        "export-embeddings": ["--graphs", root / "train.cache", "--gat", root / "gat.ckpt"],
        "report": ["--train-graphs", root / "train.cache", "--test-graphs", root / "test.cache",
                   "--vgae", root / "vgae.ckpt", "--gat", root / "gat.ckpt"],
    }
    runs = {}
    for command, argv in inputs.items():
        out = root / f"property-{command}.out"
        flag = {"distill": "--out-dir", "report": "--out-dir", "evaluate": None}.get(command, "--out")
        runs[command] = ([command, *map(str, argv), *((flag, str(out)) if flag else ())], out)
    return runs


# synth takes no run config: its --config is the traffic generator's
@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "synth"])
def test_bad_run_config_values_fail_with_one_error_line(run_inputs, command):
    argv, out = run_inputs[command]
    flags = [a for a in build_parser([command]).canids_subparsers[command]._actions
             if a.option_strings and a.dest not in ("help", "run_config")]
    cfg = out.with_suffix(".json")

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def check(data):
        chosen = data.draw(st.lists(st.sampled_from(flags), min_size=1, max_size=3, unique_by=lambda a: a.dest))
        values = {a.option_strings[0][2:] if data.draw(st.booleans()) else a.dest: data.draw(bad_value(a))
                  for a in chosen}
        cfg.write_text(config_text(values))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--config", str(cfg)])
        err = stderr.getvalue()
        assert code in (1, 2) and stdout.getvalue() == "" and not out.exists(), (values, err)
        errors = [line for line in err.splitlines() if line.startswith("canids-error category=")]
        assert "Traceback" not in err and len(errors) == 1, (values, err)

    check()
