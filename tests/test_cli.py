import contextlib
import dataclasses
import io
import json
import math
import random
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import cli, distill, floattext
from canids.checkpoint import MAGIC
from canids.cli import _output_lock, build_parser, main
from canids.errors import ConfigError, StateError
from canids.gat import GatClassifier, jk_width
from canids.graphs import load_graph_cache, save_graph_cache
from canids.pipeline import SCORES_HEADER, PipelineOptions, ScoredWindow, write_scores_csv
from helpers import CHAIN_SYNTH, cache_columns, checkpoint_bytes, checkpoint_parts, confusion_oracle, edited_cache

COMMANDS = list(cli.COMMANDS)
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


@pytest.mark.parametrize(
    "edit",
    [
        {"duration": "1_0", "ecus": [{"can_id": "2_56", "period": "1_0e-2", "payload_seed": True}]},
        {"duration": "60"},
        {"duration": float("nan")},
        {"duration": 10**400},
        {"ecus": [{"can_id": 256.0, "period": 0.004, "payload_seed": 1}]},
        {"ecus": [{"can_id": 256, "period": "0.004", "payload_seed": 1}]},
        {"ecus": [{"can_id": 256, "period": 0.004, "payload_seed": True}]},
        {"ecus": [{"can_id": 256, "period": 0.004, "payload_seed": -1}]},
        {"ecus": [{"can_id": 256, "period": 0.004, "payload_seed": 1, "dlc": False}]},
        {"attacks": [{"kind": "dos", "start": "8", "duration": 1.5, "rate": 800.0}]},
        {"attacks": [{"kind": "spoofing", "start": 8.0, "duration": 1.5, "rate": 800.0, "target_id": "256"}]},
        # numbers out of a CAN frame's range
        {"ecus": [{"can_id": 256, "period": 0.004, "payload_seed": 1, "dlc": 12}]},
        {"attacks": [{"kind": "spoofing", "start": 8.0, "duration": 1.5, "rate": 800.0, "target_id": 5000}]},
        # a log with no time in it
        {"duration": 0, "attacks": []},
        {"duration": -5, "attacks": []},
    ],
)
def test_synth_config_numbers_must_be_json_numbers(tmp_path, capsys, edit):
    cfg, out = tmp_path / "synth.json", tmp_path / "log.csv"
    cfg.write_text(json.dumps({**SYNTH_CFG, **edit}))
    code, stdout, err = run_cli(capsys, "synth", "--config", cfg, "--out", out)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("canids-error category=config") and err.count("\n") == 1 and str(cfg) in err


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


@pytest.mark.parametrize("kind", ["a directory", "below a file", "two below a file"])
def test_an_output_path_that_cannot_be_written_is_usage_error(small_run, tmp_path, capsys, kind):
    """An --out that is a directory, or that lies below a regular file, ends in one usage line, exit code
    2 and no temp file, also for train-vgae, whose output is written after training."""
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    out = {"a directory": tmp_path / "adir", "below a file": tmp_path / "afile" / "v.out",
           "two below a file": tmp_path / "afile" / "sub" / "v.out"}[kind]
    for argv in (["build-graphs", "--in", small_run / "train.csv", "--window", 100],
                 ["train-vgae", "--graphs", small_run / "train.cache", "--preset", "student", "--vgae-epochs", 1]):
        code, stdout, err = run_cli(capsys, *argv, "--out", out)
        assert code == 2 and stdout == "" and "Traceback" not in err, err
        assert err.splitlines()[-1].startswith("canids-error category=usage message=output ")
        assert sum(line.startswith("canids-error") for line in err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "afile"]


@pytest.mark.parametrize("out", ["", "."])
def test_an_output_path_without_a_name_is_usage_error(small_run, tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_cli(capsys, "build-graphs", "--in", small_run / "train.csv", "--window", 100, "--out", out)
    assert code == 2 and stdout == "" and "Traceback" not in err, err
    assert err.splitlines()[-1].startswith("canids-error category=usage message=output path ")
    assert list(tmp_path.iterdir()) == []


def test_a_failed_write_leaves_no_temp_file(tmp_path):
    from canids.cli import _atomic

    def fail(tmp):
        Path(tmp).write_text("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic(tmp_path / "out.cache", fail)
    assert list(tmp_path.iterdir()) == []


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
    example = next(keywords["help"] for flag, keywords in cli.COMMANDS["ingest"].options if flag == "--column-map")
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


@pytest.mark.parametrize(
    "route, value",
    [
        ("config", {"id_base": -1, "column_map": "x"}),
        ("config", {"id_base": 37}),
        ("config", {"column_map": "timestamp=0,id=1"}),
        ("flag", ["--id-base", "1"]),
        ("flag", ["--column-map", "timestamp=0,id=-1,dlc=2,data=3,label=5"]),
        ("flag", ["--column-map", "nonsense"]),
    ],
)
def test_ingest_generic_options_are_checked_with_either_format(tmp_path, capsys, route, value):
    log, out = tmp_path / "log.csv", tmp_path / "norm.csv"
    log.write_text("1.0,0316,2,aa,bb,R\n")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(value))
    options = ["--config", cfg] if route == "config" else value
    code, stdout, err = run_cli(capsys, "ingest", log, "--format", "car-hacking", *options, "--out", out)
    assert code == 2 and stdout == "" and not out.exists() and "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("canids-error category=")]) == 1


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
    from canids.pipeline import PipelineOptions, Timings, chronological_split, train_stages
    from canids.vgae import VgaeConfig

    opts = PipelineOptions(vgae_epochs=6, gat_epochs=20)
    train_part, val_part = chronological_split(load_graph_cache(small_run / "train.cache"), opts.val_frac)
    stages = train_stages(train_part, val_part, VgaeConfig.student(), GatConfig.student(), 7, opts, Timings())
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


def test_undersample_with_a_huge_ratio_keeps_every_benign_window(small_run, tmp_path, capsys):
    out = tmp_path / "stage2.cache"
    code, _, err = run_cli(
        capsys, "undersample", "--graphs", small_run / "train.cache", "--vgae", small_run / "vgae.ckpt",
        "--ratio", "1e308", "--seed", 7, "--out", out,
    )
    assert code == 0 and "Traceback" not in err
    full = load_graph_cache(small_run / "train.cache")
    train_part = full[: int(round(len(full) * 0.8))]
    benign = sorted(g.window_start_index for g in train_part if g.label == 0)
    assert sorted(g.window_start_index for g in load_graph_cache(out) if g.label == 0) == benign


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


def test_export_embeddings_of_an_empty_cache_writes_the_header(small_run, tmp_path, capsys):
    cache, out = tmp_path / "empty.cache", tmp_path / "emb.csv"
    save_graph_cache([], cache)
    gat = small_run / "gat.ckpt"
    code, stdout, _ = run_cli(capsys, "export-embeddings", "--graphs", cache, "--gat", gat, "--out", out)
    assert code == 0 and json.loads(stdout)["windows"] == 0
    width = jk_width(GatClassifier.load(gat).config)
    assert out.read_text() == "window_start_index,label," + ",".join(f"e{i}" for i in range(width)) + "\n"


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


def test_distill_with_too_few_validation_normals_fails_before_training(small_run, tmp_path, capsys, monkeypatch):
    """The first 80 windows of the crit-10 chain's seed-7 training cache leave 12 normals among their 16
    validation windows: distill with test graphs ends in calibrate_vgae's config line before either student
    trains, and without test graphs, which it does not calibrate for, it trains."""
    cfg, log, train, out = tmp_path / "synth.json", tmp_path / "train.csv", tmp_path / "train.cache", tmp_path / "kd"
    cfg.write_text(json.dumps(CHAIN_SYNTH))
    assert run_cli(capsys, "synth", "--config", cfg, "--seed", 7, "--out", log)[0] == 0
    assert run_cli(capsys, "build-graphs", "--in", log, "--window", 100, "--out", train)[0] == 0
    save_graph_cache(load_graph_cache(train)[:80], train)
    argv = ["distill", "--graphs", train, "--teacher-vgae", small_run / "vgae.ckpt", "--teacher-gat",
            small_run / "gat.ckpt", "--vgae-epochs", 1, "--gat-epochs", 1, "--out-dir", out]
    with monkeypatch.context() as patched:
        patched.setattr(distill, "train_stages", lambda *args, **kwargs: pytest.fail("trained"))
        code, stdout, err = run_cli(capsys, *argv, "--test-graphs", small_run / "test.cache")
    assert (code, stdout) == (2, "") and not out.exists()
    assert err.splitlines()[-1] == ("canids-error category=config message=calibration needs >= 20 validation-normal "
                                    "scores, got 12")
    assert run_cli(capsys, *argv)[0] == 0 and (out / "student-gat.ckpt").is_file()


def _with_model(src, dst, edit):
    """Copy the checkpoint src to dst with ``edit`` applied to its model line's text after "model "."""
    model, table, values = checkpoint_parts(src.read_bytes())
    dst.write_bytes(checkpoint_bytes(edit(model), table, values))


def _cache_error(err, path, text):
    """The stderr of a run that failed on the graph cache ``path``: one parse line, naming the file, that
    holds ``text``; no traceback."""
    lines = [line for line in err.splitlines() if line.startswith("canids-error")]
    assert len(lines) == 1 and "Traceback" not in err, err
    assert lines[0].startswith(f"canids-error category=parse message={path}: ") and text in lines[0], lines[0]


@pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf])
def test_bad_edge_weight_is_parse_error(small_run, tmp_path, capsys, weight):
    bad = tmp_path / "train.cache"
    bad.write_bytes(edited_cache((small_run / "train.cache").read_bytes(), [("weight", 0, weight)]))
    code, _, err = run_cli(
        capsys, "train-vgae", "--graphs", bad, "--preset", "student",
        "--seed", 7, "--vgae-epochs", 1, "--out", tmp_path / "vgae.ckpt",
    )
    assert code == 1
    _cache_error(err, bad, f"window 0: edge weight must be finite and > 0, got {weight}")


@pytest.mark.parametrize(
    "edit, rule",
    [
        (("heads", 4 * 3 + 1, 7), "window 3: label must be 0 or 1, got 7"),
        (("feats", 3 * 1 + 2, math.nan), "window 0: node features must be finite, got nan"),
        (("ids", 0, -5), "window 0: node ID must be in [0, 2047], got -5"),
        (("src", 0, 57), "window 0: edge source must be in [0, num_nodes), got 57"),
    ],
    ids=["label-7", "nan-feature", "negative-id", "edge-source-57"],
)
@pytest.mark.parametrize("command", ["train-vgae", "train-gat"])
def test_out_of_range_graph_cache_value_is_parse_error(small_run, tmp_path, capsys, command, edit, rule):
    bad = tmp_path / "graphs.cache"
    if command == "train-vgae":
        bad.write_bytes(edited_cache((small_run / "train.cache").read_bytes(), [edit]))
        argv = [command, "--graphs", bad, "--vgae-epochs", 1]
    else:
        bad.write_bytes(edited_cache((small_run / "stage2.cache").read_bytes(), [edit]))
        argv = [command, "--graphs", bad, "--val-graphs", small_run / "train.cache", "--gat-epochs", 1]
    out = tmp_path / "model.ckpt"
    code, _, err = run_cli(capsys, *argv, "--preset", "student", "--seed", 7, "--out", out)
    assert code == 1
    _cache_error(err, bad, rule)
    assert not out.exists()


@pytest.mark.parametrize("windows", [0, 1])
def test_validation_cache_too_small_to_split_is_state_error(small_run, tmp_path, capsys, windows):
    """A --val-graphs cache of 0 or 1 windows leaves no validation windows after the split: one state
    error line before any training, no traceback."""
    val = tmp_path / "val.cache"
    save_graph_cache(load_graph_cache(small_run / "train.cache")[:windows], val)
    out = tmp_path / "gat.ckpt"
    code, stdout, err = run_cli(capsys, "train-gat", "--graphs", small_run / "stage2.cache", "--val-graphs", val,
                                "--preset", "student", "--seed", 7, "--out", out)
    assert code == 1 and stdout == "" and not out.exists()
    assert err == f"canids-error category=state message={val}: {windows} windows; early stopping needs at least 2\n"


def test_only_the_float_text_writers_build_the_float_tables(small_run, tmp_path, capsys):
    """floattext's tables cost a few ms on first use in a process. Each subcommand of the chain, run with the
    tables unbuilt, builds them only if it writes floats as text: synth and ingest --out (a log's timestamps)
    and export-embeddings. Caches and checkpoints are binary, and scores.csv is written by repr."""
    run, out = small_run, tmp_path
    chain = {
        "synth": ["--config", run / "synth.json", "--seed", 7, "--out", out / "log.csv"],
        "ingest": [run / "test.csv"],
        "ingest --out": [run / "test.csv", "--out", out / "ingested.csv"],
        "build-graphs": ["--in", run / "test.csv", "--window", 100, "--out", out / "test.cache"],
        "train-vgae": ["--graphs", run / "train.cache", "--preset", "student", "--vgae-epochs", 1, "--out",
                       out / "vgae.ckpt"],
        "undersample": ["--graphs", run / "train.cache", "--vgae", out / "vgae.ckpt", "--out", out / "stage2.cache"],
        "train-gat": ["--graphs", out / "stage2.cache", "--val-graphs", run / "train.cache", "--preset", "student",
                      "--gat-epochs", 1, "--out", out / "gat.ckpt"],
        "report": ["--train-graphs", run / "train.cache", "--test-graphs", out / "test.cache", "--vgae",
                   out / "vgae.ckpt", "--gat", out / "gat.ckpt", "--out-dir", out / "run"],
        "evaluate": ["--scores", out / "run" / "scores.csv"],
        "distill": ["--graphs", run / "train.cache", "--test-graphs", out / "test.cache", "--teacher-vgae",
                    out / "vgae.ckpt", "--teacher-gat", out / "gat.ckpt", "--vgae-epochs", 1, "--gat-epochs", 1,
                    "--out-dir", out / "kd"],
        "export-embeddings": ["--graphs", out / "test.cache", "--gat", out / "kd" / "student-gat.ckpt", "--out",
                              out / "emb.csv"],
    }
    built = []
    for name, argv in chain.items():
        floattext._tables.cache_clear()
        assert run_cli(capsys, name.split()[0], *argv)[0] == 0, name
        if floattext._tables.cache_info().misses:
            built.append(name)
    assert built == ["synth", "ingest --out", "export-embeddings"]


def test_negative_fusion_weight_is_config_error(small_run, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "report", "--train-graphs", small_run / "train.cache", "--test-graphs", small_run / "test.cache",
        "--vgae", small_run / "vgae.ckpt", "--gat", small_run / "gat.ckpt", "--seed", 7,
        "--fusion-weights=-0.5,1.5", "--out-dir", tmp_path / "run",
    )
    assert code == 2
    assert err.startswith("canids-error category=config") and "non-negative" in err
    assert not (tmp_path / "run" / "scores.csv").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("command", ["undersample", "report"])
def test_non_finite_checkpoint_value_is_parse_error(small_run, tmp_path, capsys, command, value):
    bad = tmp_path / "vgae.ckpt"
    model, table, values = checkpoint_parts((small_run / "vgae.ckpt").read_bytes())
    at = math.prod(table[0][1]) + 1  # the second value of the second param
    bad.write_bytes(checkpoint_bytes(model, table, values[:at] + [value] + values[at + 1 :]))
    if command == "undersample":
        argv = ["--graphs", small_run / "train.cache", "--out", tmp_path / "stage2.cache"]
    else:
        argv = [
            "--train-graphs", small_run / "train.cache", "--test-graphs", small_run / "test.cache",
            "--gat", small_run / "gat.ckpt", "--out-dir", tmp_path / "run",
        ]
    code, _, err = run_cli(capsys, command, "--vgae", bad, "--seed", 7, *argv)
    assert code == 1
    assert err == f"canids-error category=parse message={bad}: param {table[1][0]!r} has a non-finite value, {value}\n"


def _only_parse_error(err, lineno, path):
    """The stderr of a run that failed on ``path``: one parse line naming the file and line, no traceback."""
    lines = [line for line in err.splitlines() if line.startswith("canids-error")]
    assert len(lines) == 1 and "Traceback" not in err
    assert lines[0].startswith("canids-error category=parse")
    assert f"line {lineno}:" in lines[0] and str(path) in lines[0]


def _edit_config(edit):
    """A checkpoint-header edit: ``edit`` applied to the parsed config, written back as JSON."""
    def apply(model):
        kind, config = model.split(maxsplit=1)
        return f"{kind} {json.dumps(edit(json.loads(config)))}"

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
    _with_model(small_run / f"{kind}.ckpt", bad, edit)
    if kind == "gat":
        argv = ["export-embeddings", "--graphs", small_run / "test.cache", "--gat", bad, "--out", tmp_path / "emb.csv"]
    else:
        argv = ["undersample", "--graphs", small_run / "train.cache", "--vgae", bad, "--out", tmp_path / "stage2.cache"]
    code, _, err = run_cli(capsys, *argv, "--seed", 7)
    assert code == 1
    _only_parse_error(err, 2, bad)


DEEP_JSON = "[" * 200_000 + "]" * 200_000  # deeper than the json parser's recursion reaches
HUGE_INT = "1" * 5000  # more digits than int() converts


@pytest.mark.parametrize(
    "reader, text",
    [
        ("synth", DEEP_JSON),
        ("synth", json.dumps(SYNTH_CFG).replace("60.0", HUGE_INT)),
        ("run-config", DEEP_JSON),
        ("run-config", f'{{"threshold": {HUGE_INT}}}'),
        ("checkpoint", DEEP_JSON),
    ],
    ids=["synth-deep", "synth-huge-int", "run-config-deep", "run-config-huge-int", "checkpoint-deep"],
)
def test_unreadable_json_ends_in_its_readers_error(small_run, tmp_path, capsys, reader, text):
    """JSON nested too deep for the parser, or holding an integer longer than int() reads: a config is a
    config error naming the file (exit 2), a checkpoint's model line a parse error at line 2 (exit 1)."""
    bad = tmp_path / "bad"
    if reader == "checkpoint":
        _with_model(small_run / "gat.ckpt", bad, lambda model: f"gat {text}")
        argv = ["export-embeddings", "--graphs", small_run / "test.cache", "--gat", bad, "--out", tmp_path / "emb.csv"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        _only_parse_error(err, 2, bad)
        return
    bad.write_text(text)
    if reader == "synth":
        argv = ["synth", "--config", bad, "--out", tmp_path / "log.csv"]
    else:
        argv = ["evaluate", "--scores", tmp_path / "scores.csv", "--config", bad]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "Traceback" not in err
    assert err.startswith(f"canids-error category=config message={bad}: invalid JSON") and err.count("\n") == 1


LONG_DLC = "0" * 5000 + "8"  # DLC 8, in more digits than int() converts: the row goes to the line loop
GENERIC = ["--format", "generic", "--column-map", "timestamp=0,id=1,dlc=2,data=3,label=4", "--id-base", "10"]


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("log.csv", f"0.0,0316,2,aa,bb,R\n0.1,0316,{LONG_DLC},{'00,' * 8}R\n", ["build-graphs", "--window", 2]),
        ("log.csv", f"0.0,0316,2,aa,bb,R\n0.1,0316,{LONG_DLC},{'00,' * 8}R\n", ["ingest"]),
        ("log.csv", f"0.0,790,1,ff,T\n0.1,{HUGE_INT},1,ff,T\n", ["ingest", *GENERIC]),
        ("scores.csv", f"{SCORES_HEADER}\n{HUGE_INT},0,0.5,0.5,0.5,0.5,0\n", ["evaluate"]),
    ],
    ids=["build-graphs-dlc", "ingest-dlc", "generic-id-base-10", "scores-window-start"],
)
def test_integer_field_longer_than_int_reads_is_parse_error(tmp_path, capsys, name, text, argv):
    """A decimal field of more digits than int() converts is the reader's ParseError at its line."""
    p = tmp_path / name
    p.write_text(text)
    flag = {"build-graphs": "--in", "ingest": None, "evaluate": "--scores"}[argv[0]]
    where = [flag, p] if flag else [p]
    out = ["--out", tmp_path / "out"] if argv[0] == "build-graphs" else []
    code, _, err = run_cli(capsys, argv[0], *where, *argv[1:], *out)
    assert code == 1
    lines = [line for line in err.splitlines() if line.startswith("canids-error")]
    assert len(lines) == 1 and "Traceback" not in err
    assert lines[0].startswith("canids-error category=parse message=line 2: ")
    assert name != "scores.csv" or str(p) in lines[0]


LONG_ID = "1" * 5000  # hex digits, which int() reads at any length: the ID is read, then found too wide
CAR_HACKING_MAP = ["--format", "generic", "--column-map", "timestamp=0,id=1,dlc=2,data=3,label=5"]


@pytest.mark.parametrize(
    "name, text, argv, shown",
    [
        ("log.csv", f"0.0,0316,2,aa,bb,R\n0.1,{LONG_ID},2,aa,bb,R\n", ["ingest"], "CAN ID 1111"),
        ("log.csv", f"0.0,0316,2,aa,bb,R\n0.1,{LONG_ID},2,aa,bb,R\n", ["ingest", *CAR_HACKING_MAP], "CAN ID 1111"),
        ("log.csv", f"0.0,0316,2,aa,bb,R\n0.1,0316,{'9' * 300},aa,bb,R\n", ["ingest"], "DLC 9999"),
        ("log.csv", f"0.0,0316,2,aa,bb,R\n0.1,0316,{'x' * 300},aa,bb,R\n", ["build-graphs"], "bad DLC 'xxxx"),
        ("scores.csv", f"{SCORES_HEADER}\n{'x' * 10_000}\n", ["evaluate"], "bad scores row 'xxxx"),
        ("scores.csv", f"{SCORES_HEADER}\n0,0,{'x' * 9_990},0.5,0.5,0.5,0\n", ["evaluate"], "scores row '0,0,xxxx"),
    ],
    ids=["car-hacking-id", "generic-id", "dlc", "build-graphs-dlc", "scores-row", "scores-field"],
)
def test_error_lines_cut_a_long_field_and_give_its_length(tmp_path, capsys, name, text, argv, shown):
    """A field or row longer than the quote bound is shown by its head and its length: one short line."""
    p = tmp_path / name
    p.write_text(text)
    flag = {"build-graphs": "--in", "ingest": None, "evaluate": "--scores"}[argv[0]]
    where = [flag, p] if flag else [p]
    out = ["--out", tmp_path / "out", "--window", 2] if argv[0] == "build-graphs" else []
    code, _, err = run_cli(capsys, argv[0], *where, *argv[1:], *out)
    [line] = [line for line in err.splitlines() if line.startswith("canids-error")]
    length = len(text.splitlines()[1]) if name == "scores.csv" else 300 if "DLC" in shown else 5000
    assert code == 1 and line.startswith("canids-error category=parse message=line 2: ")
    assert shown in line and f"... ({length} characters)" in line and len(line.encode()) < 300, line



# name -> (graph cache or checkpoint, the file around a text x given the VGAE checkpoint's (model, table,
# values), the character x repeats, the line for x of 3)
LONG_TEXT_CASES = {
    "cache-header": ("cache", lambda x, ckpt: f"{x}\n".encode(), "h", "{p}: not a graph cache (header 'hhh')"),
    "checkpoint-header": ("ckpt", lambda x, ckpt: f"{x}\n".encode(), "h",
                          "{p}: not a canids checkpoint (header 'hhh')"),
    "param-twice": ("ckpt", lambda x, ckpt: checkpoint_bytes(ckpt[0], [[x, [0]], *ckpt[1], [x, [0]]], ckpt[2]), "p",
                    "line 3: {p}: param 'ppp' listed twice"),
    "param-shape": ("ckpt", lambda x, ckpt: checkpoint_bytes(ckpt[0], [[x, [1.0]], *ckpt[1]], [1.0, *ckpt[2]]), "p",
                    "line 3: {p}: param 'ppp' has a shape that is not a list of ints >= 0"),
    "param-nan": ("ckpt", lambda x, ckpt: checkpoint_bytes(ckpt[0], [[x, [1]], *ckpt[1]], [math.nan, *ckpt[2]]), "p",
                  "{p}: param 'ppp' has a non-finite value, nan"),
    "model-kind": ("ckpt", lambda x, ckpt: checkpoint_bytes(f"{x} {{}}", *ckpt[1:]), "m",
                   "{p}: expected a vgae checkpoint, found 'mmm'"),
    "model-config": (
        "ckpt", lambda x, ckpt: checkpoint_bytes(f'vgae {{"{x}": 1}}', *ckpt[1:]), "m",
        "line 2: {p}: bad vgae config (VgaeConfig.__init__() got an unexpected keyword argument 'mmm')",
    ),
    "extra-param": ("ckpt", lambda x, ckpt: checkpoint_bytes(ckpt[0], [*ckpt[1], [x, [1]]], [*ckpt[2], 1.0]), "e",
                    "vgae checkpoint mismatch: missing=[] unexpected=['eee']"),
}


@pytest.mark.parametrize("size", [3, 4000])
@pytest.mark.parametrize("case", list(LONG_TEXT_CASES))
def test_cache_and_checkpoint_errors_cut_a_long_text(small_run, tmp_path, capsys, case, size):
    """A graph cache or VGAE checkpoint that quotes a long header, record, name, shape or number gives one
    line under 300 bytes that cuts the text and gives its length; with a 3-character text the line is
    the one the readers gave before they bounded the text."""
    kind, make, char, short = LONG_TEXT_CASES[case]
    p = tmp_path / f"bad.{kind}"
    p.write_bytes(make(char * size, checkpoint_parts((small_run / "vgae.ckpt").read_bytes())))
    if kind == "cache":
        argv = ["train-vgae", "--graphs", p, "--preset", "student", "--vgae-epochs", 1]
    else:
        argv = ["undersample", "--graphs", small_run / "train.cache", "--vgae", p]
    code, _, err = run_cli(capsys, *argv, "--out", tmp_path / "out")
    [line] = [line for line in err.splitlines() if line.startswith("canids-error")]
    category = "state" if case in ("model-kind", "extra-param") else "parse"
    assert code == 1 and line.startswith(f"canids-error category={category} message="), line
    if size == 3:
        assert line == f"canids-error category={category} message={short.format(p=p)}"
    else:
        assert "characters)" in line and len(line.encode()) < 300, line

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
        ("undersample", {"score_mode": "bogus"}),
        ("undersample", {"score-mode": ["composite", "adjacency_l2"]}),
        ("train-gat", {"preset": "huge"}),
    ],
)
def test_run_config_value_outside_choices_is_usage_error(small_run, tmp_path, capsys, command, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    inputs = {"ingest": [small_run / "train.csv"],
              "undersample": ["--graphs", small_run / "train.cache", "--vgae", small_run / "vgae.ckpt"],
              "train-gat": ["--graphs", small_run / "stage2.cache"]}
    code, stdout, err = run_cli(capsys, command, *inputs[command], "--config", cfg, "--out", out)
    key = next(iter(config))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("canids-error category=usage") and err.count("\n") == 1 and repr(key) in err


PIPELINE_FLAGS = [flag for flag, keywords in cli.COMMANDS["distill"].options
                  if cli.option_dest(flag, keywords) in {f.name for f in dataclasses.fields(PipelineOptions)}]


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, (_, _, options) in cli.COMMANDS.items()
     for flag in PIPELINE_FLAGS if flag not in {option[0] for option in options}],
)
def test_pipeline_flag_a_subcommand_does_not_read_is_usage_error(tmp_path, capsys, command, flag):
    """A pipeline option is declared only by the subcommands whose stages read it; elsewhere it is an
    unrecognized argument, rejected before any input file is read."""
    argv, absent = [command], tmp_path / "absent"  # the value of every required argument
    for name, keywords in cli.COMMANDS[command].options:
        if not name.startswith("--"):
            argv.append(absent)
        elif keywords.get("required"):
            argv += [name, absent]
    code, stdout, err = run_cli(capsys, *argv, f"{flag}=1")
    assert code == 2 and stdout == "" and not any(tmp_path.iterdir())
    assert err == f"canids-error category=usage message=canids: unrecognized arguments: {flag}=1\n"


@pytest.mark.parametrize("route", ["flag", "config"])
def test_train_gat_val_frac_without_val_graphs_is_usage_error(small_run, tmp_path, capsys, route):
    """train-gat's --val-frac only splits the --val-graphs cache; without that cache it is refused, not
    silently ignored."""
    out, cfg = tmp_path / "gat.ckpt", tmp_path / "run.json"
    cfg.write_text(json.dumps({"val_frac": 0.5}))
    given = ["--val-frac", 0.5] if route == "flag" else ["--config", cfg]
    code, stdout, err = run_cli(
        capsys, "train-gat", "--graphs", small_run / "stage2.cache", "--preset", "student", "--seed", 7,
        "--gat-epochs", 1, *given, "--out", out,
    )
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("canids-error category=usage") and "--val-graphs" in err and len(err.splitlines()) == 1


def test_every_run_fills_one_timings_schema(small_run, tmp_path, capsys):
    """run_two_stage, distill_pipeline, report.json and manifest.json of report and distill, and the stdout
    of synth, build-graphs, train-vgae, undersample and train-gat all time a run as {"<stage>_seconds",
    "total_seconds"}, with a key for each stage that ran and no other; a manifest repeats its report's block."""
    from canids.distill import KdConfig, distill_pipeline
    from canids.gat import GatClassifier, GatConfig
    from canids.pipeline import run_two_stage
    from canids.vgae import VgaeConfig, VgaeModel

    root = small_run
    train, test = load_graph_cache(root / "train.cache"), load_graph_cache(root / "test.cache")
    opts, student = PipelineOptions(vgae_epochs=1, gat_epochs=1), (VgaeConfig.student(), GatConfig.student())
    teacher = VgaeModel.load(root / "vgae.ckpt"), GatClassifier.load(root / "gat.ckpt")
    benign = [g for g in train if g.label == 0]
    blocks = {
        "run_two_stage": (run_two_stage(train, test, *student, 7, opts), "vgae select gat score"),
        "run_two_stage vgae-only": (run_two_stage(benign, test, *student, 7, opts), "vgae score"),
        "distill_pipeline": (distill_pipeline(train, *teacher, *student, KdConfig(), 7, opts), "vgae select gat"),
    }
    blocks = {name: (result.report["timings"], stages) for name, (result, stages) in blocks.items()}
    brief = ["--preset", "student", "--seed", 7, "--vgae-epochs", 1]
    code, out, _ = run_cli(capsys, "train-vgae", "--graphs", root / "train.cache", *brief, "--out", tmp_path / "v")
    assert code == 0
    blocks["train-vgae stdout"] = (json.loads(out)["timings"], "vgae")
    code, out, _ = run_cli(capsys, "train-gat", "--graphs", root / "stage2.cache", "--preset", "student",
                           "--seed", 7, "--gat-epochs", 1, "--out", tmp_path / "g")
    assert code == 0
    blocks["train-gat stdout"] = (json.loads(out)["timings"], "gat")
    code, out, _ = run_cli(capsys, "build-graphs", "--in", root / "train.csv", "--window", 100, "--out", tmp_path / "c")
    assert code == 0 and json.loads(out)["num_graphs"] == len(train)
    blocks["build-graphs stdout"] = (json.loads(out)["timings"], "build write")
    code, out, _ = run_cli(capsys, "synth", "--config", root / "synth.json", "--seed", 7, "--out", tmp_path / "l")
    assert code == 0 and (tmp_path / "l").read_bytes() == (root / "train.csv").read_bytes()
    blocks["synth stdout"] = (json.loads(out)["timings"], "generate write")
    code, out, _ = run_cli(capsys, "undersample", "--graphs", root / "train.cache", "--vgae", root / "vgae.ckpt",
                           "--seed", 7, "--out", tmp_path / "s")
    assert code == 0
    blocks["undersample stdout"] = (json.loads(out)["timings"], "select write")
    graphs = ["--test-graphs", root / "test.cache", "--seed", 7]
    assert run_cli(capsys, "report", "--train-graphs", root / "train.cache", *graphs, "--vgae", root / "vgae.ckpt",
                   "--gat", root / "gat.ckpt", "--out-dir", tmp_path / "report")[0] == 0
    assert run_cli(capsys, "distill", "--graphs", root / "train.cache", *graphs, "--teacher-vgae", root / "vgae.ckpt",
                   "--teacher-gat", root / "gat.ckpt", "--vgae-epochs", 1, "--gat-epochs", 1,
                   "--out-dir", tmp_path / "distill")[0] == 0
    for command, stages in (("report", "score"), ("distill", "vgae select gat score")):
        report = json.loads((tmp_path / command / "report.json").read_text())
        assert json.loads((tmp_path / command / "manifest.json").read_text())["timings"] == report["timings"]
        blocks[f"{command} report.json"] = (report["timings"], stages)
    for name, (block, stages) in blocks.items():
        stage_keys = [f"{stage}_seconds" for stage in stages.split()]
        assert set(block) == {*stage_keys, "total_seconds"}, name
        assert all(type(v) is float and v >= 0.0 for v in block.values()), name
        assert sum(block[key] for key in stage_keys) <= block["total_seconds"], name


def test_run_config_key_of_an_undeclared_option_is_skipped(small_run, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gat_epochs": 3}))
    argv = ["train-vgae", "--graphs", small_run / "train.cache", "--preset", "student", "--seed", 7,
            "--vgae-epochs", 2]
    assert run_cli(capsys, *argv, "--out", tmp_path / "plain.ckpt")[0] == 0
    assert run_cli(capsys, *argv, "--config", cfg, "--out", tmp_path / "configured.ckpt")[0] == 0
    assert (tmp_path / "configured.ckpt").read_bytes() == (tmp_path / "plain.ckpt").read_bytes()


def test_last_run_config_is_the_one_applied_and_recorded(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    write_scores_csv([ScoredWindow(0, 3.0, 0.5, 0.9, 0.84, 1, 1), ScoredWindow(100, 1.0, 0.0, 0.1, 0.085, 0, 0)],
                     scores)
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps({"threshold": "x"}))
    good.write_text(json.dumps({"threshold": 0.95}))
    argv = ["evaluate", "--scores", str(scores), "--config", str(bad), f"--config={good}"]
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(stdout)["threshold"] == 0.95
    args = build_parser(argv, cli._run_config_defaults(argv)).parse_args(argv)
    assert (args.run_config, args.threshold) == (str(good), 0.95)
    code, stdout, err = run_cli(capsys, "evaluate", "--scores", scores, "--config", good, "--config", bad)
    assert code == 2 and stdout == ""
    assert err.startswith("canids-error category=config") and err.count("\n") == 1 and str(bad) in err


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
        ["evaluate", "--scores", "{log}", "--conf", "{log}"],  # an abbreviation is not the flag
        ["evaluate", "--scores", "{log}", "--thresh", "0.5"],
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


# stdout, stderr and exit code of each argument list at COLUMNS=80. To re-record cases after a deliberate
# change of their text, run this from the repository root with each changed case's argument list; the
# other entries stay byte-identical:
#
#   COLUMNS=80 PYTHONPATH=src python - 'train-vgae --help' 'report --help' <<'EOF'
#   import contextlib, io, json, sys
#   from canids.cli import main
#   path = "tests/golden_cli_help.json"
#   cases = json.load(open(path))
#   for case in cases:
#       if " ".join(case["argv"]) in sys.argv[1:]:
#           out, err = io.StringIO(), io.StringIO()
#           with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
#               try:
#                   code = main(case["argv"])
#               except SystemExit as exc:
#                   code = exc.code
#           case.update(code=code, stdout=out.getvalue(), stderr=err.getvalue())
#   open(path, "w").write(json.dumps(cases, indent=1))
#   EOF
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
    # the usage line lists the subcommands the parser has
    assert "{build-graphs}" in build_parser(["build-graphs", "--in", "x"]).format_usage()
    assert len(COMMANDS) == 10
    for argv in ([], ["--help"], ["--version"], ["bogus"], ["-x", "build-graphs"]):
        assert "{" + ",".join(COMMANDS) + "}" in build_parser(argv).format_usage()


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
    data = (small_run / "train.cache").read_bytes()
    bad.write_bytes(data.replace(b"graph-cache", "graph-cach\u00e9".encode(), 1))
    code, _, err = run_cli(
        capsys, "train-vgae", "--graphs", bad, "--preset", "student",
        "--seed", 7, "--vgae-epochs", 1, "--out", tmp_path / "vgae.ckpt",
    )
    assert code == 1
    _cache_error(err, bad, "not a graph cache (header 'canids-graph-cach\\\\xc3\\\\xa9 v2')")


def test_non_ascii_checkpoint_is_parse_error(small_run, tmp_path, capsys):
    bad = tmp_path / "vgae.ckpt"
    _with_model(small_run / "vgae.ckpt", bad, lambda model: model + "\u00e9")
    code, _, err = run_cli(
        capsys, "undersample", "--graphs", small_run / "train.cache", "--vgae", bad,
        "--ratio", 4, "--seed", 7, "--out", tmp_path / "stage2.cache",
    )
    assert code == 1
    _only_parse_error(err, 2, bad)


def test_non_ascii_scores_file_is_parse_error(tmp_path, capsys):
    p = tmp_path / "scores.csv"
    p.write_text(f"{SCORES_HEADER}\n{GOOD_SCORES_ROW}\n{_with_non_ascii(GOOD_SCORES_ROW)}{GOOD_SCORES_ROW}\n")
    code, out, err = run_cli(capsys, "evaluate", "--scores", p)
    assert code == 1 and out == ""
    _only_parse_error(err, 3, p)


# (artifact, edit of its bytes, the line the error must name: none for a checkpoint's first line)
BAD_HEADERS = {
    "checkpoint-wrong-magic": ("vgae.ckpt", lambda data: b"canids-checkpoint v0" + data[data.index(b"\n") :], None),
    "checkpoint-empty": ("vgae.ckpt", lambda data: b"", None),
    "checkpoint-no-model-line": ("vgae.ckpt", lambda data: MAGIC + data[data.index(b"\nparams ") + 1 :], 2),
    "checkpoint-model-line-cut": ("vgae.ckpt", lambda data: MAGIC + b"model vgae" + data[data.index(b"\nparams ") :],
                                  2),
    "scores-wrong-header": ("scores.csv", lambda data: b"window_start_index,truth" + data[data.index(b"\n") :], 1),
    "scores-empty": ("scores.csv", lambda data: b"", 1),
}


@pytest.mark.parametrize("artifact, edit, lineno", BAD_HEADERS.values(), ids=BAD_HEADERS)
def test_bad_header_names_its_line(small_run, tmp_path, capsys, artifact, edit, lineno):
    bad = tmp_path / artifact
    if artifact == "scores.csv":
        bad.write_bytes(edit(f"{SCORES_HEADER}\n{GOOD_SCORES_ROW}\n".encode()))
        argv = ["evaluate", "--scores", bad]
    else:
        bad.write_bytes(edit((small_run / artifact).read_bytes()))
        argv = ["undersample", "--graphs", small_run / "train.cache", "--vgae", bad, "--out", tmp_path / "s2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    if lineno is None:
        assert err.startswith(f"canids-error category=parse message={bad}: not a canids checkpoint (header ")
        assert err.count("\n") == 1
    else:
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


# ---------------------------------------------------------------- scores mutation sweep

SCORES_MUTATIONS = ("truncate", "flip", "drop", "copy", "blank", "swap", "nan", "1e309", "-inf", "1_0", "+1", "é", "")


def mutate_scores(rng: random.Random, text: str, kind: str) -> bytes:
    """One mutation of a scores file's text: a cut, a flipped bit, a dropped, copied or blanked line, two
    swapped fields, or a field replaced by ``nan``, ``1e309``, ``-inf``, ``1_0``, ``+1``, ``é`` or nothing."""
    if kind == "truncate":
        return text[: rng.randrange(len(text))].encode()
    if kind == "flip":
        data = bytearray(text.encode())
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(data)
    lines = text.split("\n")[:-1]
    k = rng.randrange(len(lines))
    fields = lines[k].split(",")
    if kind == "drop":
        del lines[k]
    elif kind == "copy":
        lines.insert(rng.randrange(len(lines) + 1), lines[k])
    elif kind == "blank":
        lines[k] = ""
    elif kind == "swap":
        i, j = rng.sample(range(len(fields)), 2)
        fields[i], fields[j] = fields[j], fields[i]
        lines[k] = ",".join(fields)
    else:
        fields[rng.randrange(len(fields))] = kind
        lines[k] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_scores_mutation_sweep(tmp_path, capsys):
    """Every mutant of a scores file exits 0, or 1 or 2 with one canids-error line and no traceback, in
    evaluate."""
    scores, bad = tmp_path / "scores.csv", tmp_path / "bad"
    write_scores_csv([ScoredWindow(i * 100, 0.5 * i, i / 9, 1 - i / 9, 0.5, i % 2, i // 5) for i in range(10)], scores)
    text = scores.read_text()
    bad.write_text(text)
    assert run_cli(capsys, "evaluate", "--scores", bad)[0] == 0
    rng = random.Random(2026)
    exits = []
    for kind in SCORES_MUTATIONS * 4:
        bad.write_bytes(mutate_scores(rng, text, kind))
        code, _, err = run_cli(capsys, "evaluate", "--scores", bad)
        exits.append(code)
        assert code == 1 or kind not in ("1_0", "+1"), (kind, err)  # the writer writes no "_" and no "+" sign
        if code != 0:
            assert code in (1, 2) and "Traceback" not in err, (kind, err)
            assert sum(line.startswith("canids-error") for line in err.splitlines()) == 1, (kind, err)
            assert str(bad) in err or kind not in ("truncate", "blank"), (kind, err)
    assert len(exits) == 52 and 0 in exits and 1 in exits


# ---------------------------------------------------------------- checkpoint mutation sweep


def checkpoint_mutations(rng: random.Random, data: bytes) -> dict:
    """name -> a mutant of the binary checkpoint ``data`` that its loader must refuse: bit flips where any flip
    breaks a rule (the first line, a param name, a shape's digits), cuts, a value that is not finite, a shape
    of 10^12 values, a name repeated, missing or unexpected, the other model kind, a bad config, a text
    checkpoint of the version before, and wrong or non-ASCII first lines."""
    model, table, values = checkpoint_parts(data)
    kind, config = model.split(maxsplit=1)
    i, j = rng.sample(range(len(table)), 2)
    name, shape = table[i]
    # the bits of a param's name (less its quotes) and of its shape (less its brackets) in the params line:
    # every flip there changes a name or a size, or breaks the JSON
    quoted_name, dims = json.dumps(name), json.dumps(shape)
    at = data.index(f"{quoted_name}, {dims}".encode())
    name_bits = range(8, 8 * (len(quoted_name) - 1))
    shape_bits = range(8 * (len(quoted_name) + 3), 8 * (len(quoted_name) + 1 + len(dims)))
    sizes = [math.prod(dims) for _, dims in table]
    first = sum(sizes[:j])
    others = [entry for k, entry in enumerate(table) if k != j]
    without = values[:first] + values[first + sizes[j] :]
    layers = json.dumps({**json.loads(config), "num_layers": 10**9})
    return {
        "flip-magic": _flip(rng, data, 0, range(8 * (data.index(b"\n") + 1))),
        "flip-name": _flip(rng, data, at, name_bits),
        "flip-shape": _flip(rng, data, at, shape_bits),
        "cut": data[: rng.randrange(len(data))],
        "extra-byte": data + bytes([rng.randrange(256)]),
        "non-finite": checkpoint_bytes(model, table, values[:first] + [rng.choice([math.nan, math.inf, -math.inf])]
                                       + values[first + 1 :]),
        "shape-10^12": checkpoint_bytes(model, [*table[:i], [name, [10**6, 10**6]], *table[i + 1 :]], values),
        "name-twice": checkpoint_bytes(model, [*table[:j], [name, table[j][1]], *table[j + 1 :]], values),
        "name-missing": checkpoint_bytes(model, others, without),
        "name-unexpected": checkpoint_bytes(model, [*table, ["extra", [2]]], values + [1.0, 2.0]),
        "other-kind": checkpoint_bytes(f"{'gat' if kind == 'vgae' else 'vgae'} {config}", table, values),
        "config": checkpoint_bytes(f"{kind} {json.dumps({**json.loads(config), 'bogus': 1})}", table, values),
        "num-layers-10^9": checkpoint_bytes(f"{kind} {layers}", table, values),
        "text-v1": f"canids-checkpoint v1\nmodel {model}\nparam {name} 1\n1.0\nend\n".encode(),
        "wrong-magic": b"canids-checkpoint v3" + data[data.index(b"\n") :],
        "no-magic": data[data.index(b"\n") + 1 :],
        "non-ascii": checkpoint_bytes(model + "\u00e9", table, values),
        "empty": b"",
    }


# the kinds of mutant, in the order checkpoint_mutations makes them
CHECKPOINT_MUTANTS = [
    "flip-magic", "flip-name", "flip-shape", "cut", "extra-byte", "non-finite", "shape-10^12", "name-twice",
    "name-missing", "name-unexpected", "other-kind", "config", "num-layers-10^9", "text-v1", "wrong-magic",
    "no-magic", "non-ascii", "empty",
]
# (command, the checkpoint it reads from the mutants); every other input comes from the small run
CHECKPOINT_READERS = [("undersample", "vgae"), ("report", "vgae"), ("report", "gat"), ("distill", "vgae"),
                      ("distill", "gat"), ("export-embeddings", "gat")]


@pytest.fixture(scope="module")
def checkpoint_mutants(small_run):
    """Two rounds of every kind of mutant of the small run's VGAE and GAT checkpoints, by model kind."""
    rng = random.Random(12)
    mutants = {kind: [checkpoint_mutations(rng, (small_run / f"{kind}.ckpt").read_bytes()) for _ in range(2)]
               for kind in ("vgae", "gat")}
    assert all(list(round) == CHECKPOINT_MUTANTS for rounds in mutants.values() for round in rounds)
    return mutants


@pytest.mark.parametrize("name", CHECKPOINT_MUTANTS)
@pytest.mark.parametrize("command, kind", CHECKPOINT_READERS, ids=[f"{c}-{k}" for c, k in CHECKPOINT_READERS])
def test_checkpoint_mutation_sweep(small_run, checkpoint_mutants, tmp_path, capsys, command, kind, name):
    """Both mutants of one kind, read by one subcommand that reads a checkpoint, end in one canids-error line
    of category parse (naming the checkpoint) or state, exit 1, no traceback and no output."""
    bad, out = tmp_path / "bad.ckpt", tmp_path / "out"
    run = small_run
    checkpoints = {"vgae": run / "vgae.ckpt", "gat": run / "gat.ckpt", kind: bad}
    argv = {
        "undersample": ["--graphs", run / "train.cache", "--vgae", checkpoints["vgae"], "--out", out],
        "report": ["--train-graphs", run / "train.cache", "--test-graphs", run / "test.cache", "--vgae",
                   checkpoints["vgae"], "--gat", checkpoints["gat"], "--out-dir", out],
        "distill": ["--graphs", run / "train.cache", "--teacher-vgae", checkpoints["vgae"], "--teacher-gat",
                    checkpoints["gat"], "--out-dir", out],
        "export-embeddings": ["--graphs", run / "test.cache", "--gat", checkpoints["gat"], "--out", out],
    }[command]
    for mutants in checkpoint_mutants[kind]:
        bad.write_bytes(mutants[name])
        started = time.perf_counter()
        code, stdout, err = run_cli(capsys, command, *argv, "--seed", 7)
        seconds = time.perf_counter() - started
        assert code == 1 and stdout == "" and not out.exists() and "Traceback" not in err, err
        [line] = [line for line in err.splitlines() if line.startswith("canids-error")]
        assert line.startswith(("canids-error category=parse", "canids-error category=state")), line
        assert str(bad) in line or "category=state" in line, line
        assert name != "shape-10^12" or seconds < 0.5, seconds  # refused before anything is made


# ---------------------------------------------------------------- graph-cache mutation sweep


def _flip(rng, data: bytes, at: int, bits: range) -> bytes:
    """``data`` with one bit flipped, from ``bits`` counted from the lowest bit of the byte at ``at``: of the
    little-endian value at ``at``."""
    bit = rng.choice(bits)
    out = bytearray(data)
    out[at + bit // 8] ^= 1 << bit % 8
    return bytes(out)


def cache_mutations(rng: random.Random, data: bytes) -> dict:
    """name -> a mutant of the binary graph cache ``data`` that its loader must refuse: bit flips where any flip
    breaks a rule, cuts, header counts too large, negative or 10^12, a value that breaks each per-window rule,
    a text cache of the version before, and wrong or non-ASCII headers."""
    magic = data[: data.index(b"\n") + 1]
    columns = cache_columns(data)
    heads, ids = columns["heads"][0], columns["ids"][0]
    k, n, e = counts = struct.unpack_from("<3q", data, columns["counts"][0])
    window = rng.randrange(k)
    node, edge = rng.randrange(n), rng.randrange(e)
    which = rng.randrange(3)
    head = struct.unpack_from(f"<{4 * k}q", data, heads)
    twice = rng.choice([w for w in range(k) if head[4 * w + 2] >= 2])  # a window of two nodes or more
    first = sum(head[2 : 4 * twice : 4])  # its first node
    edits = {
        "counts-larger": ("counts", which, counts[which] + rng.randint(1, 9)),
        "counts-negative": ("counts", which, -rng.randint(1, 10**6)),
        "counts-10^12": ("counts", 0, 10**12),
        "start": ("heads", 4 * window, -rng.randint(1, 100)),
        "label": ("heads", 4 * window + 1, rng.choice([2, 7, -1])),
        "node-count": ("heads", 4 * window + 2, -1),
        "edge-count-sum": ("heads", 4 * window + 3, rng.randint(k + e, 10**6)),
        "id-range": ("ids", node, rng.choice([-1, 2048, 10**9])),
        "id-twice": ("ids", first + 1, struct.unpack_from("<q", data, ids + 8 * first)[0]),
        "feature": ("feats", rng.randrange(3 * n), rng.choice([math.nan, math.inf, -math.inf])),
        "source": ("src", edge, rng.choice([-1, 10**6])),
        "destination": ("dst", edge, rng.choice([-1, 10**6])),
        "weight": ("weight", edge, rng.choice([0.0, -0.0, -1.0, math.nan, math.inf])),
    }
    return {
        "flip-header": _flip(rng, data, rng.randrange(0, heads - 8), range(8 * 8)),
        "flip-node-count": _flip(rng, data, heads + 32 * window + 16, range(64)),
        "flip-id": _flip(rng, data, ids + 8 * node, range(11, 64)),
        "cut": data[: rng.randrange(len(data))],
        "extra-byte": data + bytes([rng.randrange(256)]),
        **{name: edited_cache(data, [edit]) for name, edit in edits.items()},
        "text-v1": b"canids-graph-cache v1\ngraph 0 0 1 0\nnode 256 0.125 1.0 0.5\n",
        "wrong-magic": b"canids-graph-cache v3\n" + data[len(magic) :],
        "no-magic": data[len(magic) :],
        "non-ascii": "canids-graph-cach\u00e9 v2\n".encode() + data[len(magic) :],
        "empty": b"",
    }


# the kinds of mutant, in the order cache_mutations makes them
CACHE_MUTANTS = [
    "flip-header", "flip-node-count", "flip-id", "cut", "extra-byte", "counts-larger", "counts-negative",
    "counts-10^12", "start", "label", "node-count", "edge-count-sum", "id-range", "id-twice", "feature", "source",
    "destination", "weight", "text-v1", "wrong-magic", "no-magic", "non-ascii", "empty",
]
CACHE_READERS = ["train-vgae", "undersample", "train-gat", "report", "distill", "export-embeddings"]


def cache_reader_argv(command: str, run: Path, bad: Path, out: Path) -> list:
    """The arguments of ``command`` reading the graph cache ``bad``, every other input from ``run``."""
    return {
        "train-vgae": ["--graphs", bad, "--preset", "student", "--vgae-epochs", 1, "--out", out],
        "undersample": ["--graphs", bad, "--vgae", run / "vgae.ckpt", "--out", out],
        "train-gat": ["--graphs", run / "stage2.cache", "--val-graphs", bad, "--preset", "student", "--out", out],
        "report": ["--train-graphs", run / "train.cache", "--test-graphs", bad, "--vgae", run / "vgae.ckpt",
                   "--gat", run / "gat.ckpt", "--out-dir", out],
        "distill": ["--graphs", bad, "--teacher-vgae", run / "vgae.ckpt", "--teacher-gat", run / "gat.ckpt",
                    "--out-dir", out],
        "export-embeddings": ["--graphs", bad, "--gat", run / "gat.ckpt", "--out", out],
    }[command]


@pytest.fixture(scope="module")
def cache_mutants(small_run):
    """Two rounds of every kind of mutant of the small run's training cache."""
    rng = random.Random(11)
    data = (small_run / "train.cache").read_bytes()
    rounds = [cache_mutations(rng, data) for _ in range(2)]
    assert all(list(mutants) == CACHE_MUTANTS for mutants in rounds)
    return rounds


@pytest.mark.parametrize("name", CACHE_MUTANTS)
@pytest.mark.parametrize("command", CACHE_READERS)
def test_graph_cache_mutation_sweep(small_run, cache_mutants, tmp_path, capsys, command, name):
    """Both mutants of one kind, read by one subcommand that reads a cache, end in one canids-error line of
    category parse that names the cache, exit 1, no traceback and no output."""
    bad, out = tmp_path / "bad.cache", tmp_path / "out"
    argv = cache_reader_argv(command, small_run, bad, out)
    for mutants in cache_mutants:
        bad.write_bytes(mutants[name])
        started = time.perf_counter()
        code, stdout, err = run_cli(capsys, command, *argv, "--seed", 7)
        seconds = time.perf_counter() - started
        assert code == 1 and stdout == "" and not out.exists(), err
        _cache_error(err, bad, "")
        assert name != "counts-10^12" or seconds < 0.5, seconds  # refused before anything is made


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
LONG_TEXT = st.just("x" * 5000)  # an error line quotes it cut short, as CUT_X
CUT_X = f"{'x' * 64!r}... (5000 characters)"


def bad_value(flag: str, keywords: dict) -> st.SearchStrategy:
    """Values of a run-config key that its subcommand must reject: a wrong JSON type for the flag, or a
    number outside the flag's range; an oversized string for any flag that does not take a string."""
    name, choices = cli.option_dest(flag, keywords), keywords.get("choices")
    if keywords.get("action") == "store_true":
        return (st.none() | st.integers() | st.floats() | NUMBER_STRINGS | st.lists(st.booleans(), max_size=2) | OBJECTS
                | LONG_TEXT)
    if keywords.get("type") is int:
        big = st.just(10**30) if name in BOUNDED_INTS else st.nothing()
        return NOT_A_NUMBER | st.floats() | st.just(-0.0) | NEGATIVE_INTS | big | LONG_TEXT
    if keywords.get("type") is float:
        big = st.just(10**30) if name in AT_MOST_ONE else st.nothing()
        zero = st.sampled_from([0, 0.0, -0.0]) if name in ABOVE_ZERO else st.nothing()
        return (NOT_A_NUMBER | NON_FINITE | st.just(10**400) | NEGATIVE_INTS | st.floats(max_value=-1e-300) | big | zero
                | LONG_TEXT)
    wrong_type = st.none() | st.booleans() | st.integers() | st.floats() | OBJECTS
    if choices is not None:
        return wrong_type | st.text(max_size=8).filter(lambda s: s not in choices) | LONG_TEXT
    if name == "fusion_weights":
        bad = st.sampled_from(["nan,1", "1,nan", "inf,0", "1e309,0", "-0.5,1.5", "0.5", "1,0,0", "a,b"]) | LONG_TEXT
        return wrong_type | bad
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
    """Valid arguments of every subcommand that takes a run config, each with the path it writes; ingest
    with each format."""
    root = small_run
    generic = root / "generic.csv"
    generic.write_text("".join(f"{k / 10!r},316,2,aa,bb,x,x,x,x,x,x,R\n" for k in range(20)))
    scores = root / "property-scores.csv"
    write_scores_csv([ScoredWindow(i * 100, 0.5 * i, i / 9, 1 - i / 9, 0.5, i % 2, i // 5) for i in range(10)], scores)
    inputs = {
        "ingest": [generic, "--format", "generic", "--column-map", "timestamp=0,id=1,dlc=2,data=3,label=11"],
        "ingest-car-hacking": [root / "train.csv", "--format", "car-hacking"],
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
    for name, argv in inputs.items():
        command, out = name.removesuffix("-car-hacking"), root / f"property-{name}.out"
        flag = {"distill": "--out-dir", "report": "--out-dir", "evaluate": None}.get(command, "--out")
        runs[name] = ([command, *map(str, argv), *((flag, str(out)) if flag else ())], out)
    return runs


# synth takes no run config: its --config is the traffic generator's
@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "synth"] + ["ingest-car-hacking"])
def test_bad_run_config_values_fail_with_one_error_line(run_inputs, command):
    argv, out = run_inputs[command]
    flags = [option for option in cli.COMMANDS[argv[0]].options if option[0].startswith("--")]
    cfg = out.with_suffix(".json")

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def check(data):
        chosen = data.draw(st.lists(st.sampled_from(flags), min_size=1, max_size=3, unique_by=lambda o: o[0]))
        values = {flag[2:] if data.draw(st.booleans()) else cli.option_dest(flag, keywords):
                  data.draw(bad_value(flag, keywords)) for flag, keywords in chosen}
        cfg.write_text(config_text(values))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--config", str(cfg)])
        err = stderr.getvalue()
        assert code in (1, 2) and stdout.getvalue() == "" and not out.exists(), (values, err)
        errors = [line for line in err.splitlines() if line.startswith("canids-error category=")]
        assert "Traceback" not in err and len(errors) == 1, (values, err)
        assert all(len(line.encode()) < 300 for line in err.splitlines()), (values, err)

    check()


def test_long_run_config_value_is_cut_short(run_inputs, capsys):
    argv, out = run_inputs["undersample"]
    cfg = out.with_suffix(".json")
    cfg.write_text(json.dumps({"ratio": "x" * 5000}))
    code, stdout, err = run_cli(capsys, *argv, "--config", cfg)
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"canids-error category=config message={cfg}: run config key 'ratio' must be a number, got {CUT_X}\n"


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("ingest", "--column-map", "x" * 5000, f"usage message=bad --column-map {CUT_X}; "),
        ("report", "--fusion-weights", "x" * 5000, f"usage message=bad --fusion-weights {CUT_X}; "),
        # int() reads at most 4,300 digits: argparse itself rejects a longer --window
        ("build-graphs", "--window", "9" * 4000,
         f"config message={{path}}: fewer than {'9' * 64}... (4000 characters) frames"),
    ],
    ids=["column-map", "fusion-weights", "window"],
)
def test_long_flag_value_is_cut_short(run_inputs, capsys, command, flag, value, message):
    argv, out = run_inputs[command]
    code, stdout, err = run_cli(capsys, *argv, flag, value)
    assert code == 2 and stdout == "" and not out.exists()
    [line] = [line for line in err.splitlines() if line.startswith("canids-error")]
    log = argv[argv.index("--in") + 1] if "--in" in argv else None  # the one message that names a file
    assert line.startswith("canids-error category=" + message.format(path=log)) and len(line.encode()) < 300, line


@pytest.mark.parametrize(
    "command, args, message",
    [
        ("build-graphs", ["--window", "x" * 3000],
         f"canids build-graphs: argument --window: invalid int value: {'x' * 64!r}... (3000 characters)"),
        ("build-graphs", ["--window=" + "x" * 3000],
         f"canids build-graphs: argument --window: invalid int value: {'x' * 64!r}... (3000 characters)"),
        # a flag that undersample lacks: argparse echoes the rest of the command line as it is
        ("undersample", ["--fusion-weights", "x" * 5000],
         f"canids: unrecognized arguments: --fusion-weights {'x' * 64}... (5000 characters)"),
        ("undersample", ["--fusion-weights=" + "x" * 5000],
         f"canids: unrecognized arguments: --fusion-weights={'x' * 47}... (5017 characters)"),
    ],
    ids=["invalid-int", "invalid-int-joined", "unrecognized", "unrecognized-joined"],
)
def test_long_value_in_argparse_message_is_cut_short(run_inputs, capsys, command, args, message):
    argv, out = run_inputs[command]
    code, stdout, err = run_cli(capsys, *argv, *args)
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"canids-error category=usage message={message}\n"


@pytest.mark.parametrize(
    "command, flag, prefix",
    [("train-vgae", "--preset", "canids train-vgae: argument --preset"), (None, None, "canids: argument command")],
    ids=["preset", "subcommand"],
)
def test_long_invalid_choice_is_cut_short(run_inputs, capsys, command, flag, prefix):
    argv = [*run_inputs[command][0], flag] if command else []
    code, stdout, err = run_cli(capsys, *argv, "x" * 3000)
    assert code == 2 and stdout == ""
    # the list of choices after the value is argparse's own text, which differs between Python versions
    assert err.startswith(f"canids-error category=usage message={prefix}: invalid choice: {'x' * 64!r}... (3000 characters)")
    assert err.count("\n") == 1 and "x" * 65 not in err, err


def test_long_synth_config_value_is_cut_short(tmp_path, capsys):
    cfg, out = tmp_path / "synth.json", tmp_path / "log.csv"
    cfg.write_text(json.dumps({**SYNTH_CFG, "ecus": [{"can_id": 256, "period": "x" * 5000, "payload_seed": 1}]}))
    code, stdout, err = run_cli(capsys, "synth", "--config", cfg, "--out", out)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("canids-error category=config") and "... (5000 characters)" in err
    assert err.count("\n") == 1 and len(err.encode()) < 300, err


def test_checkpoint_mismatch_names_a_few_params_and_counts_them(small_run, tmp_path, capsys):
    model, table, values = checkpoint_parts((small_run / "vgae.ckpt").read_bytes())
    p = tmp_path / "extra.ckpt"
    p.write_bytes(checkpoint_bytes(model, [[f"x{i}", [1]] for i in range(2000)] + table, [1.0] * 2000 + values))
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "undersample", "--graphs", small_run / "train.cache", "--vgae", p, "--out", out)
    assert code == 1 and stdout == "" and not out.exists()
    assert err == ("canids-error category=state message=vgae checkpoint mismatch: missing=[] "
                   "unexpected=['x0', 'x1', 'x10', ...] (2000 names)\n")
