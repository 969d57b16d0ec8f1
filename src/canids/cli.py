"""Command-line entry point.

One subcommand per pipeline stage. Progress goes to stderr; stdout carries
only machine-readable JSON. All randomness flows from --seed. Outputs are
written to a temp file and atomically renamed, and a lock file serializes
writers per output directory. Exit codes: 0 success, 2 usage/config
error, 1 runtime failure; failures print one parsable line:

    canids-error category=<category> message=<text>
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .canlog import decode_car_hacking_csv, parse_car_hacking_csv, parse_generic_labeled_csv, write_car_hacking_csv
from .distill import KdConfig, distill_pipeline
from .errors import CanidsError, ConfigError, StateError, UsageError, require_int
from .gat import GatClassifier, GatConfig, prepare_graph
from .graphs import build_block_windows, feature_stats, load_graph_cache, save_graph_cache
from .pipeline import (
    PipelineOptions,
    chronological_split,
    metrics_block,
    read_scores_csv,
    report_fields,
    score_split,
    select_stage2,
    train_gat_stage,
    train_vgae_stage,
    undersample,
    write_scores_csv,
)
from .synth import generate_synthetic_log, load_synth_config
from .vgae import SCORE_MODES, VgaeConfig, VgaeModel


def _progress(msg: str):
    print(msg, file=sys.stderr)


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


@contextlib.contextmanager
def _output_lock(directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    lock = directory / ".canids.lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        holder = _lock_holder(lock)
        raise StateError(f"another canids process holds {lock} ({holder}); remove it if stale") from None
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock)


def _lock_holder(lock: Path) -> str:
    """Whether the PID recorded in a held lock file is still running; the lock itself is left alone."""
    try:
        pid = int(lock.read_text().strip())
    except (OSError, ValueError):
        pid = 0
    if pid <= 0:
        return "no PID recorded"
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return f"PID {pid} is not running"
    except PermissionError:
        pass  # the process exists but belongs to another user
    return f"PID {pid} is still running"


def _atomic(path: Path, write_fn):
    tmp = path.with_name(f".tmp-{path.name}")
    write_fn(tmp)
    os.replace(tmp, path)


def _write_json(path: Path, obj):
    _atomic(path, lambda tmp: Path(tmp).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n"))


def _write_with_lock(path, write_fn):
    path = Path(path)
    with _output_lock(path.parent if path.parent != Path("") else Path(".")):
        _atomic(path, write_fn)


def _parse_column_map(text: str) -> dict[str, int]:
    out = {}
    try:
        for part in text.split(","):
            name, idx = part.split("=")
            out[name.strip()] = int(idx)
    except ValueError:
        raise UsageError(f"bad --column-map {text!r}; expected timestamp=0,id=1,dlc=2,data=3,label=11") from None
    return out


def _parse_fusion_weights(text: str) -> tuple[float, float]:
    try:
        w_a, w_g = (float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad --fusion-weights {text!r}; expected like 0.15,0.85") from None
    return w_a, w_g


def _options_from_args(args) -> PipelineOptions:
    """PipelineOptions from every field that has a flag and was given one."""
    kwargs = {}
    for f in dataclasses.fields(PipelineOptions):
        val = getattr(args, f.name, None)
        if val is not None:
            kwargs[f.name] = val
    if "fusion_weights" in kwargs:
        kwargs["fusion_weights"] = _parse_fusion_weights(kwargs["fusion_weights"])
    return PipelineOptions(**kwargs)


def _write_run(args, out_dir: Path, checkpoints: dict, scored, report: dict, seconds: float):
    """Under ``out_dir``'s lock: ``<name>.ckpt`` per checkpoint, scores.csv unless ``scored`` is None,
    report.json and manifest.json."""
    artifacts = {}
    with _output_lock(out_dir):
        for name, model in checkpoints.items():
            path = out_dir / f"{name}.ckpt"
            _atomic(path, model.save)
            artifacts[name.replace("-", "_")] = str(path)
        if scored is not None:
            _atomic(out_dir / "scores.csv", lambda tmp: write_scores_csv(scored, tmp))
            artifacts["scores"] = str(out_dir / "scores.csv")
        _write_json(out_dir / "report.json", report)
        artifacts["report"] = str(out_dir / "report.json")
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        _write_json(out_dir / "manifest.json", {
            "command": args.command,
            "config": {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None},
            "seed": args.seed,
            "artifacts": artifacts,
            "timings": {"seconds": seconds},
            "versions": {
                "canids": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}",
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            },
        })


def cmd_synth(args) -> int:
    cfg_path = _require_file(args.config, "generator config")
    cfg = load_synth_config(cfg_path)
    _progress(f"synthesizing {cfg.duration}s of traffic from {len(cfg.ecus)} ECUs, seed {args.seed}")
    frames = generate_synthetic_log(cfg.ecus, cfg.duration, cfg.attacks, rng_seed=args.seed)
    _write_with_lock(args.out, lambda tmp: write_car_hacking_csv(frames, tmp))
    attacks = sum(1 for f in frames if f.label == 1)
    _emit({"frames": len(frames), "attack_frames": attacks, "out": str(args.out)})
    return 0


def cmd_ingest(args) -> int:
    path = _require_file(args.path, "input log")
    if args.format == "car-hacking":
        frames = parse_car_hacking_csv(path)
    else:
        if not args.column_map:
            raise UsageError("generic format requires --column-map")
        markers = frozenset(args.attack_markers.split(","))
        frames = parse_generic_labeled_csv(
            path, _parse_column_map(args.column_map), attack_markers=markers, id_base=args.id_base
        )
    frames = list(frames)
    summary = {
        "frames": len(frames),
        "attack_frames": sum(1 for f in frames if f.label == 1),
        "distinct_ids": len({f.can_id for f in frames}),
    }
    if args.out:
        _write_with_lock(args.out, lambda tmp: write_car_hacking_csv(frames, tmp))
        summary["out"] = str(args.out)
    _emit(summary)
    return 0


def cmd_build_graphs(args) -> int:
    path = _require_file(args.infile, "input log")
    if args.window < 2:
        raise UsageError(f"--window must be >= 2, got {args.window}")
    stride = args.stride if args.stride is not None else args.window
    if not 1 <= stride <= args.window:
        raise UsageError(f"--stride must be in [1, {args.window}], got {stride}")
    _progress(f"building window graphs (W={args.window}, stride={stride}) from {path}")
    blocks = decode_car_hacking_csv(path)
    graphs = list(build_block_windows(blocks, args.window, stride, directed=not args.undirected))
    if not graphs:
        raise ConfigError(f"{path}: fewer than {args.window} frames; no windows")
    _write_with_lock(args.out, lambda tmp: save_graph_cache(graphs, tmp))
    _emit(feature_stats(graphs))
    return 0


def cmd_train_vgae(args) -> int:
    cache = _require_file(args.graphs, "graph cache")
    graphs = load_graph_cache(cache)
    opts = _options_from_args(args)
    train_part, _ = chronological_split(graphs, opts.val_frac)
    config = getattr(VgaeConfig, args.preset)()
    benign = sum(1 for g in train_part if g.label == 0)
    _progress(f"stage 1: training {args.preset} VGAE on {benign} benign windows")
    t0 = time.perf_counter()
    model, losses = train_vgae_stage(train_part, config, args.seed, opts)
    _write_with_lock(args.out, model.save)
    _emit({
        "checkpoint": str(args.out),
        "train_windows": benign,
        "epochs": len(losses),
        "first_loss": losses[0],
        "final_loss": losses[-1],
        "seconds": time.perf_counter() - t0,
    })
    return 0


def cmd_undersample(args) -> int:
    cache = _require_file(args.graphs, "graph cache")
    ckpt = _require_file(args.vgae, "VGAE checkpoint")
    graphs = load_graph_cache(cache)
    opts = _options_from_args(args)
    model = VgaeModel.load(ckpt)
    train_part, _ = chronological_split(graphs, opts.val_frac)
    _progress("ranking the training split's benign windows by reconstruction error")
    selection = select_stage2(model, train_part, args.seed, opts)
    stage2 = selection.selected_normals + selection.attacks
    _write_with_lock(args.out, lambda tmp: save_graph_cache(stage2, tmp))
    _emit({"out": str(args.out), **selection.summary()})
    return 0


def cmd_train_gat(args) -> int:
    cache = _require_file(args.graphs, "stage-2 graph cache")
    stage2 = load_graph_cache(cache)
    opts = _options_from_args(args)
    val_part = None
    if args.val_graphs:
        full = load_graph_cache(_require_file(args.val_graphs, "validation graph cache"))
        _, val_part = chronological_split(full, opts.val_frac)
    config = getattr(GatConfig, args.preset)()
    _progress(f"stage 2: training {args.preset} GAT on {len(stage2)} windows")
    t0 = time.perf_counter()
    model, log = train_gat_stage(stage2, val_part, config, args.seed, opts)
    _write_with_lock(args.out, model.save)
    _emit({
        "checkpoint": str(args.out),
        "epochs_run": len(log.epoch_losses),
        "final_loss": log.epoch_losses[-1],
        "best_val_f1": max(log.val_f1) if log.val_f1 else None,
        "seconds": time.perf_counter() - t0,
    })
    return 0


def cmd_distill(args) -> int:
    train_cache = _require_file(args.graphs, "training graph cache")
    teacher_vgae = VgaeModel.load(_require_file(args.teacher_vgae, "teacher VGAE checkpoint"))
    teacher_gat = GatClassifier.load(_require_file(args.teacher_gat, "teacher GAT checkpoint"))
    train_graphs = load_graph_cache(train_cache)
    test_graphs = None
    if args.test_graphs:
        test_graphs = load_graph_cache(_require_file(args.test_graphs, "test graph cache"))
    kd = KdConfig(temperature=args.tau, hard_weight=args.alpha)
    opts = _options_from_args(args)
    out_dir = Path(args.out_dir)
    _progress(f"distilling students (tau={args.tau}, alpha={args.alpha}, seed={args.seed})")
    t0 = time.perf_counter()
    result = distill_pipeline(
        train_graphs, teacher_vgae, teacher_gat,
        VgaeConfig.student(), GatConfig.student(),
        kd, seed=args.seed, options=opts, test_graphs=test_graphs,
    )
    students = {"student-vgae": result.student_vgae, "student-gat": result.student_gat}
    _write_run(args, out_dir, students, result.scored_student, result.report, time.perf_counter() - t0)
    _emit(result.report)
    return 0


def cmd_evaluate(args) -> int:
    scores = read_scores_csv(_require_file(args.scores, "scores file"))
    _emit({**metrics_block(scores, args.threshold), "threshold": args.threshold})
    return 0


def cmd_export_embeddings(args) -> int:
    cache = _require_file(args.graphs, "graph cache")
    model = GatClassifier.load(_require_file(args.gat, "GAT checkpoint"))
    graphs = load_graph_cache(cache)

    def write(tmp):
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            width = None
            for g in graphs:
                emb = model.embed(prepare_graph(g))[0]
                if width is None:
                    width = len(emb)
                    fh.write("window_start_index,label," + ",".join(f"e{i}" for i in range(width)) + "\n")
                fh.write(f"{g.window_start_index},{g.label}," + ",".join(repr(float(v)) for v in emb) + "\n")

    _write_with_lock(args.out, write)
    _emit({"out": str(args.out), "windows": len(graphs)})
    return 0


def cmd_report(args) -> int:
    train_graphs = load_graph_cache(_require_file(args.train_graphs, "training graph cache"))
    test_graphs = load_graph_cache(_require_file(args.test_graphs, "test graph cache"))
    vgae_model = VgaeModel.load(_require_file(args.vgae, "VGAE checkpoint"))
    gat_model = GatClassifier.load(_require_file(args.gat, "GAT checkpoint"))
    opts = _options_from_args(args)
    out_dir = Path(args.out_dir)
    t0 = time.perf_counter()

    train_part, val_part = chronological_split(train_graphs, opts.val_frac)
    train_attacks = [g for g in train_part if g.label == 1]
    # run_two_stage's undersampling on these graphs; only its counts are reported
    selection = None
    if train_attacks:
        train_normals = [g for g in train_part if g.label == 0]
        selection = undersample(train_normals, train_attacks, opts.ratio)
    _progress(f"calibrating on validation normals, scoring {len(test_graphs)} test windows")
    calibration, scored, metrics = score_split(vgae_model, gat_model, val_part, test_graphs, args.seed, opts)
    report = {
        **report_fields(args.seed, metrics, vgae_model.config, gat_model.config, selection, opts),
        "test_windows": len(test_graphs),
        "calibration": {"q_mid": calibration.q_mid, "q_high": calibration.q_high},
        "timings": {"seconds": time.perf_counter() - t0},
    }
    _write_run(args, out_dir, {}, scored, report, report["timings"]["seconds"])
    _emit(report)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and subparsers) whose errors raise UsageError instead of printing usage and exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for the argument list ``argv``. When ``argv`` starts with a subcommand's name, that
    subcommand's subparser is the only one, so that parse_args reads no other subcommand's arguments;
    otherwise (help, version, no or an unknown subcommand, an option before it) every subcommand has one,
    and ``canids --help`` lists each by its help."""
    command = _invoked_command(argv)
    only = command if argv and argv[0] == command else None
    parser = _Parser(prog="canids", description=__doc__)
    parser.add_argument("--version", action="version", version=f"canids {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}
    parser.canids_subparsers = subparsers

    def add_command(name, **kw):
        """The subparser of ``name`` if it is ``command``, else None."""
        if only is not None and name != only:
            return None
        p = sub.add_parser(name, **kw)
        subparsers[name] = p
        if name != command:
            return None
        if name != "synth":  # synth's --config is the traffic generator config
            p.add_argument(
                "--config", dest="run_config", default=None,
                help="JSON run config supplying defaults for any flag of this subcommand",
            )
        return p

    def common(p, out=True):
        p.add_argument("--seed", type=int, default=0, help="root of all randomness")
        if out:
            p.add_argument("--out", required=True, help="output path")

    def training_flags(p):
        p.add_argument("--val-frac", dest="val_frac", type=float, default=None)
        p.add_argument("--vgae-epochs", dest="vgae_epochs", type=int, default=None)
        p.add_argument("--vgae-lr", dest="vgae_lr", type=float, default=None)
        p.add_argument("--vgae-batch", dest="vgae_batch", type=int, default=None)
        p.add_argument("--gat-epochs", dest="gat_epochs", type=int, default=None)
        p.add_argument("--gat-batch", dest="gat_batch", type=int, default=None)
        p.add_argument("--gat-lr", dest="gat_lr", type=float, default=None)
        p.add_argument("--patience", type=int, default=None)
        p.add_argument("--ratio", type=float, default=None, help="normal-to-attack undersampling ratio")
        p.add_argument("--score-mode", dest="score_mode", choices=SCORE_MODES, default=None)
        p.add_argument("--threshold", type=float, default=None)
        p.add_argument("--fusion-weights", dest="fusion_weights", default=None, help="anomaly,gat e.g. 0.15,0.85")

    if p := add_command("synth", help="generate a labeled synthetic CAN log"):
        p.add_argument("--config", required=True, help="JSON generator config")
        common(p)
        p.set_defaults(func=cmd_synth)

    if p := add_command("ingest", help="parse a CAN log and emit the canonical CSV layout"):
        p.add_argument("path")
        p.add_argument("--format", choices=["car-hacking", "generic"], default="car-hacking")
        p.add_argument("--column-map", dest="column_map", help="timestamp=0,id=1,dlc=2,data=3,label=11")
        p.add_argument("--attack-markers", dest="attack_markers", default="T,1")
        p.add_argument("--id-base", dest="id_base", type=int, default=16)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="optional normalized output CSV")
        p.set_defaults(func=cmd_ingest)

    if p := add_command("build-graphs", help="turn a log into a window-graph cache"):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--window", type=int, default=100)
        p.add_argument("--stride", type=int, default=None)
        p.add_argument("--undirected", action="store_true")
        common(p)
        p.set_defaults(func=cmd_build_graphs)

    if p := add_command("train-vgae", help="stage 1: train the autoencoder on benign windows"):
        p.add_argument("--graphs", required=True)
        p.add_argument("--preset", choices=["teacher", "student"], default="teacher")
        training_flags(p)
        common(p)
        p.set_defaults(func=cmd_train_vgae)

    if p := add_command("undersample", help="select hardest normals at the target ratio"):
        p.add_argument("--graphs", required=True)
        p.add_argument("--vgae", required=True)
        training_flags(p)
        common(p)
        p.set_defaults(func=cmd_undersample)

    if p := add_command("train-gat", help="stage 2: train the classifier on the selected set"):
        p.add_argument("--graphs", required=True)
        p.add_argument("--val-graphs", dest="val_graphs", help="full training cache for validation split")
        p.add_argument("--preset", choices=["teacher", "student"], default="teacher")
        training_flags(p)
        common(p)
        p.set_defaults(func=cmd_train_gat)

    if p := add_command("distill", help="re-run both stages with students learning from teachers"):
        p.add_argument("--graphs", required=True)
        p.add_argument("--test-graphs", dest="test_graphs")
        p.add_argument("--teacher-vgae", dest="teacher_vgae", required=True)
        p.add_argument("--teacher-gat", dest="teacher_gat", required=True)
        p.add_argument("--tau", type=float, default=4.0)
        p.add_argument("--alpha", type=float, default=0.5)
        training_flags(p)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", dest="out_dir", required=True)
        p.set_defaults(func=cmd_distill)

    if p := add_command("evaluate", help="metrics from a scores.csv"):
        p.add_argument("--scores", required=True)
        p.add_argument("--threshold", type=float, default=0.5)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=cmd_evaluate)

    if p := add_command("export-embeddings", help="graph-level embeddings as CSV for projection tools"):
        p.add_argument("--graphs", required=True)
        p.add_argument("--gat", required=True)
        common(p)
        p.set_defaults(func=cmd_export_embeddings)

    if p := add_command("report", help="calibrate, score the test stream, and write scores + report"):
        p.add_argument("--train-graphs", dest="train_graphs", required=True)
        p.add_argument("--test-graphs", dest="test_graphs", required=True)
        p.add_argument("--vgae", required=True)
        p.add_argument("--gat", required=True)
        training_flags(p)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", dest="out_dir", required=True)
        p.set_defaults(func=cmd_report)

    if not subparsers:  # an unknown subcommand: argparse's error lists every one
        return build_parser()
    return parser


def _invoked_command(argv) -> str | None:
    """The subcommand an argument list names: its first token that is not an option."""
    return next((tok for tok in argv if not tok.startswith("-")), None)


def _run_config_value(path, key: str, action, value):
    """A run-config value checked against its flag's JSON type and choices; a list for a string flag is
    comma-joined."""
    if isinstance(action, argparse._StoreTrueAction):
        ok, kind = isinstance(value, bool), "a boolean"
    elif action.type is int:
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif action.type is float:
        ok, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    else:
        ok, kind = isinstance(value, (str, list)), "a string"
    if not ok:
        raise ConfigError(f"{path}: run config key {key!r} must be {kind}, got {value!r}")
    value = ",".join(str(v) for v in value) if isinstance(value, list) else value
    if action.choices is not None and value not in action.choices:
        # the same category as argparse's own choices error on the command line
        raise UsageError(f"{path}: run config key {key!r} must be one of {', '.join(action.choices)}, got {value!r}")
    return value


def _apply_run_config(parser, argv):
    """Install a run-config file's values as defaults for one subcommand.

    Precedence stays: explicit flags beat the file, the file beats the
    built-in defaults. Keys are flag names with dashes or underscores;
    values must carry their JSON type (numbers as numbers).
    """
    cmd = _invoked_command(argv)
    if cmd == "synth" or cmd not in parser.canids_subparsers:
        return
    cfg_path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            cfg_path = argv[i + 1]
            break
        if tok.startswith("--config="):
            cfg_path = tok.split("=", 1)[1]
            break
    if cfg_path is None:
        return
    path = _require_file(cfg_path, "run config")
    try:
        raw = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: run config must be a JSON object")
    sp = parser.canids_subparsers[cmd]
    # each action by its dest and by its flag's name (``in`` for ``--in``, whose dest is ``infile``)
    actions = {name.lstrip("-").replace("-", "_"): a for a in sp._actions for name in (a.dest, *a.option_strings)}
    defaults = {}
    for key, value in raw.items():
        action = actions.get(key.replace("-", "_"))
        if action is None or action.dest in ("help", "run_config", "command", "func"):
            continue
        defaults[action.dest] = _run_config_value(path, key, action, value)
        action.required = False
    sp.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv)
    try:
        _apply_run_config(parser, argv)
        args = parser.parse_args(argv)
        # a run config's seed skips argparse's type
        require_int("seed", args.seed, 0)
        return args.func(args)
    except CanidsError as exc:
        print(f"canids-error category={exc.category} message={exc}", file=sys.stderr)
        return 2 if exc.category in ("usage", "config") else 1
    except FileNotFoundError as exc:
        print(f"canids-error category=usage message={exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
