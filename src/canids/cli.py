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
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .canlog import check_generic_options, decode_car_hacking_csv, decode_generic_labeled_csv, read_frame_log
from .canlog import write_car_hacking_csv
from .distill import KdConfig, distill_pipeline
from .errors import CanidsError, ConfigError, StateError, UsageError, quoted, quoted_value, read_json, require_int
from .floattext import joined, repr_rows
from .gat import GatClassifier, GatConfig, jk_width, prepare_graph
from .graphs import block_window_columns, feature_stats, load_graph_cache, save_graph_cache
from .pipeline import (
    PipelineOptions,
    Timings,
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
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):  # it, or a directory above it, is a file
        raise UsageError(f"output directory {directory} is not a directory") from None
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
    """``write_fn`` writes a temp file beside ``path``, which is then renamed to ``path``. If either step
    fails, the temp file is removed."""
    tmp = path.with_name(f".tmp-{path.name}")
    try:
        write_fn(tmp)
        try:
            os.replace(tmp, path)
        except IsADirectoryError:
            raise UsageError(f"output path {path} is a directory") from None
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj):
    _atomic(path, lambda tmp: Path(tmp).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n"))


def _write_with_lock(path, write_fn):
    path = Path(path)
    if not path.name:  # "", "." or "/"
        raise UsageError(f"output path {str(path)!r} is a directory")
    with _output_lock(path.parent if path.parent != Path("") else Path(".")):
        _atomic(path, write_fn)


def _parse_column_map(text: str) -> dict[str, int]:
    out = {}
    try:
        for part in text.split(","):
            name, idx = part.split("=")
            out[name.strip()] = int(idx)
    except ValueError:
        raise UsageError(f"bad --column-map {quoted(text)}; expected timestamp=0,id=1,dlc=2,data=3,label=11") from None
    return out


def _parse_fusion_weights(text: str) -> tuple[float, float]:
    try:
        w_a, w_g = (float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad --fusion-weights {quoted(text)}; expected like 0.15,0.85") from None
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


def _write_run(args, out_dir: Path, checkpoints: dict, scored, report: dict):
    """Under ``out_dir``'s lock: ``<name>.ckpt`` per checkpoint, scores.csv unless ``scored`` is None,
    report.json and manifest.json, which repeats the report's ``timings``."""
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
            "timings": report["timings"],
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
    timings = Timings()
    with timings.stage("generate"):
        frames = generate_synthetic_log(cfg.ecus, cfg.duration, cfg.attacks, rng_seed=args.seed)
    with timings.stage("write"):
        _write_with_lock(args.out, lambda tmp: write_car_hacking_csv(frames, tmp))
    attacks = int(frames.block.attack.sum())
    _emit({"frames": len(frames), "attack_frames": attacks, "out": str(args.out), "timings": timings.block()})
    return 0


def cmd_ingest(args) -> int:
    path = _require_file(args.path, "input log")
    # checked whatever the format, so that no generic-format option is silently ignored
    column_map = _parse_column_map(args.column_map) if args.column_map else None
    check_generic_options(column_map, args.id_base)
    if args.format == "car-hacking":
        blocks = decode_car_hacking_csv(path)
    elif column_map is None:
        raise UsageError("generic format requires --column-map")
    else:
        blocks = decode_generic_labeled_csv(path, column_map, frozenset(args.attack_markers.split(",")), args.id_base)
    log = read_frame_log(blocks)
    summary = {
        "frames": len(log),
        "attack_frames": int(log.block.attack.sum()),
        "distinct_ids": len(np.unique(log.block.can_id)),
    }
    if args.out:
        _write_with_lock(args.out, lambda tmp: write_car_hacking_csv(log, tmp))
        summary["out"] = str(args.out)
    _emit(summary)
    return 0


def cmd_build_graphs(args) -> int:
    path = _require_file(args.infile, "input log")
    if args.window < 2:
        raise UsageError(f"--window must be >= 2, got {quoted(str(args.window), marks=False)}")
    stride = args.stride if args.stride is not None else args.window
    if not 1 <= stride <= args.window:
        window, stride = (quoted(str(n), marks=False) for n in (args.window, stride))
        raise UsageError(f"--stride must be in [1, {window}], got {stride}")
    _progress(f"building window graphs (W={args.window}, stride={stride}) from {path}")
    timings = Timings()
    with timings.stage("build"):  # decoding and window building, interleaved block by block
        blocks = decode_car_hacking_csv(path)
        # the windows as the builder's column groups, written and summarized as they are: no WindowGraphs
        groups = list(block_window_columns(blocks, args.window, stride, directed=not args.undirected))
    if not groups:
        raise ConfigError(f"{path}: fewer than {quoted(str(args.window), marks=False)} frames; no windows")
    with timings.stage("write"):
        _write_with_lock(args.out, lambda tmp: save_graph_cache(groups, tmp))
    _emit({**feature_stats(groups), "timings": timings.block()})
    return 0


def cmd_train_vgae(args) -> int:
    graphs = load_graph_cache(_require_file(args.graphs, "graph cache"))
    opts = _options_from_args(args)
    train_part, _ = chronological_split(graphs, opts.val_frac)
    config = getattr(VgaeConfig, args.preset)()
    benign = sum(1 for g in train_part if g.label == 0)
    _progress(f"stage 1: training {args.preset} VGAE on {benign} benign windows")
    timings = Timings()
    with timings.stage("vgae"):
        model, losses = train_vgae_stage(train_part, config, args.seed, opts)
    _write_with_lock(args.out, model.save)
    _emit({
        "checkpoint": str(args.out),
        "train_windows": benign,
        "epochs": len(losses),
        "first_loss": losses[0],
        "final_loss": losses[-1],
        "timings": timings.block(),
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
    timings = Timings()
    with timings.stage("select"):
        selection = select_stage2(model, train_part, args.seed, opts)
    stage2 = selection.selected_normals + selection.attacks
    with timings.stage("write"):
        _write_with_lock(args.out, lambda tmp: save_graph_cache(stage2, tmp))
    _emit({"out": str(args.out), **selection.summary(), "timings": timings.block()})
    return 0


def cmd_train_gat(args) -> int:
    if args.val_frac is not None and not args.val_graphs:
        raise UsageError("--val-frac splits the --val-graphs cache; it needs --val-graphs")
    stage2 = load_graph_cache(_require_file(args.graphs, "stage-2 graph cache"))
    opts = _options_from_args(args)
    val_part = None
    if args.val_graphs:
        full = load_graph_cache(_require_file(args.val_graphs, "validation graph cache"))
        _, val_part = chronological_split(full, opts.val_frac)
        if not val_part:  # the split keeps a window for validation from 2 windows up
            raise StateError(f"{args.val_graphs}: {len(full)} windows; early stopping needs at least 2")
    config = getattr(GatConfig, args.preset)()
    _progress(f"stage 2: training {args.preset} GAT on {len(stage2)} windows")
    timings = Timings()
    with timings.stage("gat"):
        model, log = train_gat_stage(stage2, val_part, config, args.seed, opts)
    _write_with_lock(args.out, model.save)
    _emit({
        "checkpoint": str(args.out),
        "epochs_run": len(log.epoch_losses),
        "final_loss": log.epoch_losses[-1],
        "best_val_f1": max(log.val_f1) if log.val_f1 else None,
        "timings": timings.block(),
    })
    return 0


def cmd_distill(args) -> int:
    train_graphs = load_graph_cache(_require_file(args.graphs, "training graph cache"))
    teacher_vgae = VgaeModel.load(_require_file(args.teacher_vgae, "teacher VGAE checkpoint"))
    teacher_gat = GatClassifier.load(_require_file(args.teacher_gat, "teacher GAT checkpoint"))
    test_graphs = None
    if args.test_graphs:
        test_graphs = load_graph_cache(_require_file(args.test_graphs, "test graph cache"))
    kd = KdConfig(temperature=args.tau, hard_weight=args.alpha)
    opts = _options_from_args(args)
    _progress(f"distilling students (tau={args.tau}, alpha={args.alpha}, seed={args.seed})")
    result = distill_pipeline(
        train_graphs, teacher_vgae, teacher_gat,
        VgaeConfig.student(), GatConfig.student(),
        kd, seed=args.seed, options=opts, test_graphs=test_graphs,
    )
    students = {"student-vgae": result.student_vgae, "student-gat": result.student_gat}
    _write_run(args, Path(args.out_dir), students, result.scored_student, result.report)
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
    width = jk_width(model.config)

    def write(tmp):
        embeddings = np.array([model.embed(prepare_graph(g))[0] for g in graphs]).reshape(len(graphs), width)
        # a row per window: its start and label, then each value's text and a comma, or the last a newline
        texts = repr_rows(embeddings)
        heads = np.array([b"%d,%d," % (g.window_start_index, g.label) for g in graphs], dtype=np.bytes_)
        leads = np.zeros(len(texts), dtype=heads.dtype)  # a window's head before its first value
        leads[::width] = heads
        ends = np.full((len(texts), 1), ord(","), dtype=np.uint8)
        ends[width - 1 :: width] = ord("\n")
        with open(tmp, "wb") as fh:
            fh.write(("window_start_index,label," + ",".join(f"e{i}" for i in range(width)) + "\n").encode())
            fh.write(joined(leads.view(np.uint8).reshape(len(texts), heads.itemsize), texts, ends).tobytes())

    _write_with_lock(args.out, write)
    _emit({"out": str(args.out), "windows": len(graphs)})
    return 0


def cmd_report(args) -> int:
    train_graphs = load_graph_cache(_require_file(args.train_graphs, "training graph cache"))
    test_graphs = load_graph_cache(_require_file(args.test_graphs, "test graph cache"))
    vgae_model = VgaeModel.load(_require_file(args.vgae, "VGAE checkpoint"))
    gat_model = GatClassifier.load(_require_file(args.gat, "GAT checkpoint"))
    opts = _options_from_args(args)
    timings = Timings()

    train_part, val_part = chronological_split(train_graphs, opts.val_frac)
    train_attacks = [g for g in train_part if g.label == 1]
    # run_two_stage's undersampling on these graphs; only its counts are reported
    selection = None
    if train_attacks:
        train_normals = [g for g in train_part if g.label == 0]
        selection = undersample(train_normals, train_attacks, opts.ratio)
    _progress(f"calibrating on validation normals, scoring {len(test_graphs)} test windows")
    with timings.stage("score"):
        calibration, scored, metrics = score_split(vgae_model, gat_model, val_part, test_graphs, args.seed, opts)
    report = {
        **report_fields(args.seed, metrics, vgae_model.config, gat_model.config, selection, opts),
        "test_windows": len(test_graphs),
        "calibration": {"q_mid": calibration.q_mid, "q_high": calibration.q_high},
        "timings": timings.block(),
    }
    _write_run(args, Path(args.out_dir), {}, scored, report)
    _emit(report)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and subparsers) whose errors raise UsageError instead of printing usage and exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")

    def parse_args(self, args=None, namespace=None):
        try:
            return super().parse_args(args, namespace)
        except UsageError as exc:
            raise UsageError(_cut_values(str(exc), sys.argv[1:] if args is None else args)) from None


def _cut_values(message: str, argv) -> str:
    """argparse's ``message`` with each command-line value it echoes, by its repr or as it is, cut short as
    ``quoted`` cuts a field. A value is a whole token or the text after the ``=`` of one."""
    values = {part for tok in argv for part in (tok, tok.partition("=")[2])}
    for value in sorted(values, key=len, reverse=True):
        if quoted(value, marks=False) != value:
            message = message.replace(repr(value), quoted(value)).replace(value, quoted(value, marks=False))
    return message


# a subcommand: its function, its help, and its options in help order as (flag, add_argument keywords)
Command = NamedTuple("Command", [("func", Callable[[argparse.Namespace], int]), ("help", str), ("options", tuple)])
REQUIRED = {"required": True}
SEED = (("--seed", {"type": int, "default": 0}),)
COMMON = (("--seed", {"type": int, "default": 0, "help": "root of all randomness"}),
          ("--out", {"required": True, "help": "output path"}))
PRESET = ("--preset", {"choices": ["teacher", "student"], "default": "teacher"})
# the PipelineOptions flags, grouped by the stage function that reads them
VAL_FRAC = (("--val-frac", {"type": float}),)
VGAE_TRAINING = (("--vgae-epochs", {"type": int}), ("--vgae-lr", {"type": float}), ("--vgae-batch", {"type": int}))
GAT_TRAINING = (("--gat-epochs", {"type": int}), ("--gat-batch", {"type": int}), ("--gat-lr", {"type": float}),
                ("--patience", {"type": int}))
SELECTION = (("--ratio", {"type": float, "help": "normal-to-attack undersampling ratio"}),
             ("--score-mode", {"choices": SCORE_MODES}))
SCORING = (("--threshold", {"type": float}), ("--fusion-weights", {"help": "anomaly,gat e.g. 0.15,0.85"}))
# every subcommand but synth, whose --config is the traffic generator config, takes a run config first
RUN_CONFIG = ("--config", {"dest": "run_config",
                           "help": "JSON run config supplying defaults for any flag of this subcommand"})

COMMANDS = {
    "synth": Command(cmd_synth, "generate a labeled synthetic CAN log", (
        ("--config", {"required": True, "help": "JSON generator config"}), *COMMON)),
    "ingest": Command(cmd_ingest, "parse a CAN log and emit the canonical CSV layout", (
        ("path", {}),
        ("--format", {"choices": ["car-hacking", "generic"], "default": "car-hacking"}),
        ("--column-map", {"help": "timestamp=0,id=1,dlc=2,data=3,label=11"}),
        ("--attack-markers", {"default": "T,1"}),
        ("--id-base", {"type": int, "default": 16}),
        *SEED, ("--out", {"help": "optional normalized output CSV"}))),
    "build-graphs": Command(cmd_build_graphs, "turn a log into a window-graph cache", (
        ("--in", {"dest": "infile", "required": True}),
        ("--window", {"type": int, "default": 100}),
        ("--stride", {"type": int}), ("--undirected", {"action": "store_true"}),
        *COMMON)),
    "train-vgae": Command(cmd_train_vgae, "stage 1: train the autoencoder on benign windows", (
        ("--graphs", REQUIRED), PRESET, *VAL_FRAC, *VGAE_TRAINING, *COMMON)),
    "undersample": Command(cmd_undersample, "select hardest normals at the target ratio", (
        ("--graphs", REQUIRED), ("--vgae", REQUIRED), *VAL_FRAC, *SELECTION, *COMMON)),
    "train-gat": Command(cmd_train_gat, "stage 2: train the classifier on the selected set", (
        ("--graphs", REQUIRED), ("--val-graphs", {"help": "full training cache for validation split"}), PRESET,
        *VAL_FRAC, *GAT_TRAINING, *COMMON)),
    "distill": Command(cmd_distill, "re-run both stages with students learning from teachers", (
        ("--graphs", REQUIRED), ("--test-graphs", {}), ("--teacher-vgae", REQUIRED), ("--teacher-gat", REQUIRED),
        ("--tau", {"type": float, "default": KdConfig.temperature}),
        ("--alpha", {"type": float, "default": KdConfig.hard_weight}),
        *VAL_FRAC, *VGAE_TRAINING, *GAT_TRAINING, *SELECTION, *SCORING, *SEED, ("--out-dir", REQUIRED))),
    "evaluate": Command(cmd_evaluate, "metrics from a scores.csv", (
        ("--scores", REQUIRED), ("--threshold", {"type": float, "default": PipelineOptions.threshold}), *SEED)),
    "export-embeddings": Command(cmd_export_embeddings, "graph-level embeddings as CSV for projection tools", (
        ("--graphs", REQUIRED), ("--gat", REQUIRED), *COMMON)),
    "report": Command(cmd_report, "calibrate, score the test stream, and write scores + report", (
        ("--train-graphs", REQUIRED), ("--test-graphs", REQUIRED), ("--vgae", REQUIRED), ("--gat", REQUIRED),
        *VAL_FRAC, *SELECTION, *SCORING, *SEED, ("--out-dir", REQUIRED))),
}


def option_dest(flag: str, keywords: dict) -> str:
    """An option's attribute, as argparse derives it: ``infile`` for ``--in``, ``val_frac`` for ``--val-frac``."""
    return keywords.get("dest", flag.lstrip("-").replace("-", "_"))


def build_parser(argv=(), defaults=None) -> argparse.ArgumentParser:
    """The parser for the argument list ``argv``, with ``defaults`` (by dest) as the invoked subcommand's
    defaults; an option given one is optional. When ``argv`` starts with a subcommand's name, that subcommand's
    subparser is the only one, so that parse_args reads no other subcommand's arguments; otherwise (help,
    version, no or an unknown subcommand, an option before it) every subcommand has one, listed by ``--help``."""
    command = _invoked_command(argv)
    only = command if argv and argv[0] == command and command in COMMANDS else None
    defaults = defaults or {}
    parser = _Parser(prog="canids", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"canids {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, options) in COMMANDS.items():
        if only is not None and name != only:
            continue
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        if name != command:
            continue
        for flag, keywords in options if name == "synth" else (RUN_CONFIG, *options):
            action = p.add_argument(flag, **keywords)
            if action.dest in defaults:
                action.default, action.required = defaults[action.dest], False
        p.set_defaults(func=func)
    return parser


def _invoked_command(argv) -> str | None:
    """The subcommand an argument list names: its first token that is not an option."""
    return next((tok for tok in argv if not tok.startswith("-")), None)


def _run_config_value(path, key: str, keywords: dict, value):
    """A run-config value checked against its flag's JSON type and choices; a list for a string flag is
    comma-joined."""
    if keywords.get("action") == "store_true":
        ok, kind = isinstance(value, bool), "a boolean"
    elif keywords.get("type") is int:
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif keywords.get("type") is float:
        ok, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    else:
        ok, kind = isinstance(value, (str, list)), "a string"
    if not ok:
        raise ConfigError(f"{path}: run config key {key!r} must be {kind}, got {quoted_value(value)}")
    value = ",".join(str(v) for v in value) if isinstance(value, list) else value
    if (choices := keywords.get("choices")) is not None and value not in choices:
        # the same category as argparse's own choices error on the command line
        raise UsageError(
            f"{path}: run config key {key!r} must be one of {', '.join(choices)}, got {quoted_value(value)}"
        )
    return value


def _run_config_defaults(argv) -> dict:
    """The defaults, by dest, that the run-config file of ``argv``'s last ``--config`` (the one argparse
    records) gives the invoked subcommand.

    Precedence stays: explicit flags beat the file, the file beats the
    built-in defaults. Keys are flag names with dashes or underscores, or
    dests (``infile`` for ``--in``); values must carry their JSON type
    (numbers as numbers).
    """
    cmd = _invoked_command(argv)
    if cmd == "synth" or cmd not in COMMANDS:
        return {}
    cfg_path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            cfg_path = argv[i + 1]
        elif tok.startswith("--config="):
            cfg_path = tok.split("=", 1)[1]
    if cfg_path is None:
        return {}
    path = _require_file(cfg_path, "run config")
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: run config must be a JSON object")
    options = {name: option for option in COMMANDS[cmd].options
               for name in (option[0].lstrip("-").replace("-", "_"), option_dest(*option))}
    defaults = {}
    for key, value in raw.items():
        if (option := options.get(key.replace("-", "_"))) is not None:
            defaults[option_dest(*option)] = _run_config_value(path, key, option[1], value)
    return defaults


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser(argv, _run_config_defaults(argv)).parse_args(argv)
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
