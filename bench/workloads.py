"""Inputs, phases and output checks of the canids benchmark.

Every run goes through the same phases on inputs drawn from
``canids.synth`` with the run's seed:

- set-up: synthesize a training log, a test log and a short stream log,
  build the window graphs of the first two at stride=W, write all three
  as Car-Hacking CSV, and train the student-preset VGAE and GAT briefly
  for the stream, then save, reload and calibrate them;
- train: ``pipeline.run_two_stage`` with the teacher presets, then
  ``distill.distill_pipeline`` with the student presets;
- stream: the set-up's models score the stream log at stride=1, one
  window at a time, as its frames are parsed, pass after pass;
- ingest: ``canids build-graphs`` on the training log CSV, then the cache
  is read back.

The host's speed drifts (see ``hostspeed``), so every timed piece of
work is scaled to a fixed host speed measured by a probe between the
pieces: each stretch of a training call (between two calls that end an
optimizer step, a forward pass or a VGAE score), each stream window, each
build-graphs run and each cache read-back. Stream and ingest run in
slices before, between and after the training calls, and their figures
are medians over repeats of identical work. Each phase counts the
operations it attempted and the ones whose outputs failed a check.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import itertools
import json
import math
import statistics
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from canids import canlog, cli, distill, gat, graphs, optim, pipeline, synth, vgae
from canids.gat import GatClassifier, GatConfig
from canids.synth import AttackKind, AttackSpec, EcuSpec
from canids.vgae import VgaeConfig, VgaeModel

WINDOW = 100

# the acceptance fixture's bus: five ECUs, about 1,267 frames/s
ECUS = (
    EcuSpec(0x110, 0.002, 11),
    EcuSpec(0x220, 0.003, 22),
    EcuSpec(0x330, 0.005, 33),
    EcuSpec(0x3A0, 0.007, 44),
    EcuSpec(0x150, 0.011, 55),
)
TRAIN_LOG_S = 16.0
TEST_LOG_S = 16.0
STREAM_LOG_S = 0.85
# one burst of each kind before the 80% validation cut, one of each after it
TRAIN_ATTACKS = (
    AttackSpec(AttackKind.DOS, 1.5, 0.10, 3000.0),
    AttackSpec(AttackKind.FUZZING, 5.0, 0.13, 2000.0),
    AttackSpec(AttackKind.SPOOFING, 9.0, 0.15, 1500.0, target_id=0x220),
    AttackSpec(AttackKind.DOS, 13.9, 0.20, 3000.0),
    AttackSpec(AttackKind.FUZZING, 14.6, 0.20, 2000.0),
    AttackSpec(AttackKind.SPOOFING, 15.3, 0.20, 1500.0, target_id=0x220),
)
TEST_ATTACKS = (
    AttackSpec(AttackKind.DOS, 2.0, 0.5, 3000.0),
    AttackSpec(AttackKind.FUZZING, 6.0, 0.5, 2000.0),
    AttackSpec(AttackKind.SPOOFING, 10.0, 0.5, 1500.0, target_id=0x220),
)
STREAM_ATTACKS = (
    AttackSpec(AttackKind.DOS, 0.10, 0.02, 3000.0),
    AttackSpec(AttackKind.FUZZING, 0.24, 0.02, 2000.0),
    AttackSpec(AttackKind.SPOOFING, 0.38, 0.02, 1500.0, target_id=0x220),
)

# Fixed epoch counts, patience above them: every commit takes the same
# number of optimizer steps. Both schedules end on the F1 plateau.
TEACHER_OPTIONS = pipeline.PipelineOptions(
    vgae_epochs=8, vgae_batch=16, gat_epochs=16, gat_batch=8, gat_lr=3e-3, patience=17
)
STUDENT_OPTIONS = pipeline.PipelineOptions(
    vgae_epochs=8, vgae_batch=16, gat_epochs=35, gat_batch=16, gat_lr=2e-2, patience=36
)
SLICES = 3  # stream and ingest slices: before the teacher run, after it, after the distillation
STREAM_SLICE_PASSES = 2  # stream passes per slice when stream is not the workload
INGEST_SLICE_RUNS = 4  # build-graphs runs per slice when ingest is not the workload
CACHE_LOADS = 5  # read-backs per build-graphs run; one load takes about 15 ms
SAMPLE_EVERY = 97  # stream windows re-scored in one batch call for the equality check


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.extend(problems[:3])


def median_sum(repeats: list) -> float:
    """Sum over the pieces of a sequence of each piece's median over repeats of the sequence."""
    return float(np.median(np.asarray(repeats), axis=0).sum())


@dataclass
class StreamModels:
    vgae: VgaeModel
    gat: GatClassifier
    calibration: pipeline.VgaeCalibration


@dataclass
class Inputs:
    train_frames: list
    test_frames: list
    stream_frames: list
    train_graphs: list
    test_graphs: list
    train_csv: Path
    stream_csv: Path
    models: StreamModels


def make_stream_models(train_graphs: list, seed: int, workdir: Path, tally: Tally) -> StreamModels:
    """Student presets trained for one epoch, then put through round_trip_models.

    The stream measures scoring speed and checks verdicts, neither of which
    depends on how well the models were trained.
    """
    train_part, _ = pipeline.chronological_split(train_graphs, STUDENT_OPTIONS.val_frac)
    normals = [g for g in train_part if g.label == 0][:32]
    brief = normals + [g for g in train_part if g.label == 1][:8]
    trained_vgae, _ = vgae.train_vgae(normals, VgaeConfig.student(), seed, epochs=1, batch_size=16)
    trained_gat, _ = gat.train_supervised(
        brief, [g.label for g in brief], GatConfig.student(), seed, epochs=1, batch_size=16
    )
    return round_trip_models(trained_vgae, trained_gat, train_graphs, seed, workdir, tally)


def round_trip_models(vgae_model, gat_model, train_graphs, seed: int, workdir: Path, tally: Tally) -> StreamModels:
    """Save with .save(), reload with .load(), calibrate on the validation normals."""
    opts = STUDENT_OPTIONS
    vgae_path, gat_path = workdir / "stream-vgae.ckpt", workdir / "stream-gat.ckpt"
    vgae_model.save(vgae_path)
    gat_model.save(gat_path)
    loaded_vgae = VgaeModel.load(vgae_path)
    loaded_gat = GatClassifier.load(gat_path)
    _, val_part = pipeline.chronological_split(train_graphs, opts.val_frac)
    calibration = pipeline.calibrate_vgae(
        [loaded_vgae.score(g, opts.composite_weights, seed, opts.score_mode) for g in val_part if g.label == 0],
        *opts.calibration_quantiles,
    )
    problems = []
    for saved, loaded in ((vgae_model, loaded_vgae), (gat_model, loaded_gat)):
        before, after = saved.param_values(), loaded.param_values()
        if before.keys() != after.keys() or any(before[k].tobytes() != after[k].tobytes() for k in before):
            problems.append("stream: checkpoint round trip changed parameters")
    tally.record(problems)
    return StreamModels(loaded_vgae, loaded_gat, calibration)


def make_inputs(seed: int, workdir: Path, tally: Tally) -> Inputs:
    train_frames = synth.generate_synthetic_log(ECUS, TRAIN_LOG_S, TRAIN_ATTACKS, rng_seed=(seed, 1))
    test_frames = synth.generate_synthetic_log(ECUS, TEST_LOG_S, TEST_ATTACKS, rng_seed=(seed, 2))
    stream_frames = synth.generate_synthetic_log(ECUS, STREAM_LOG_S, STREAM_ATTACKS, rng_seed=(seed, 3))
    train_csv, stream_csv = workdir / "train.csv", workdir / "stream.csv"
    canlog.write_car_hacking_csv(train_frames, train_csv)
    canlog.write_car_hacking_csv(stream_frames, stream_csv)
    train_graphs = list(graphs.build_windows(train_frames, WINDOW))
    return Inputs(
        train_frames,
        test_frames,
        stream_frames,
        train_graphs,
        list(graphs.build_windows(test_frames, WINDOW)),
        train_csv,
        stream_csv,
        make_stream_models(train_graphs, seed, workdir, tally),
    )


def setup(seed: int, workdir: Path, tally: Tally, speed) -> tuple[Inputs, "Ticks"]:
    """Build the inputs in workdir; returns them and the Ticks that timed it."""
    workdir.mkdir(exist_ok=True)
    gc.collect()
    with Ticks(speed) as ticks:
        inputs = make_inputs(seed, workdir, tally)
    return inputs, ticks


# ---------------------------------------------------------------- train


class Ticks:
    """Time of a block of work, raw and scaled by a ``hostspeed.HostSpeed``.

    While entered, ``Adam.step``, ``VgaeModel.score`` and
    ``GatClassifier.forward`` are wrapped on their classes; each return
    ends a stretch of work of a few to a few tens of milliseconds. Each
    stretch is scaled by the last probe, and the host is probed again
    between stretches; probing is left out of the time.
    """

    HOOKS = ((optim.Adam, "step"), (VgaeModel, "score"), (GatClassifier, "forward"))

    def __init__(self, speed):
        self.speed = speed
        self.raw_s = 0.0
        self.stretches = array("d")  # scaled
        self._start = 0.0
        self._saved = []

    @property
    def scaled_s(self) -> float:
        return sum(self.stretches)

    def _lap(self):
        seconds = time.perf_counter() - self._start
        self.raw_s += seconds
        self.stretches.append(self.speed.scaled(seconds))
        self.speed.maybe_probe()
        self._start = time.perf_counter()

    def _wrap(self, fn):
        @functools.wraps(fn)
        def ticked(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._lap()
            return out

        return ticked

    def __enter__(self):
        for cls, attr in self.HOOKS:
            original = vars(cls)[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original))
        self.speed.probe()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._lap()
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()


@dataclass
class TrainResult:
    teacher: pipeline.RunResult
    student: distill.DistillResult
    teacher_ticks: Ticks
    distill_ticks: Ticks

    def metrics(self) -> dict:
        teacher_f1 = self.teacher.report["metrics"]["gat_only"]["f1"]
        student_f1 = self.student.report["metrics"]["student"]["gat_only"]["f1"]
        return {
            "teacher_s": self.teacher_ticks.scaled_s,
            "distill_s": self.distill_ticks.scaled_s,
            "teacher_f1": teacher_f1,
            "student_f1": student_f1,
            "kd_retention": student_f1 / teacher_f1,
            "vgae_auc": self.teacher.report["vgae_separation"]["auc"],
        }


def train(inputs: Inputs, seed: int, tally: Tally, speed, between, tracer=None) -> TrainResult:
    """Teacher two-stage run, then distillation, each timed under Ticks; ``between()`` runs after each."""
    gc.collect()
    with Ticks(speed) as teacher_ticks:
        teacher = pipeline.run_two_stage(
            inputs.train_graphs, inputs.test_graphs,
            VgaeConfig.teacher(), GatConfig.teacher(), seed, TEACHER_OPTIONS,
        )
    between()
    gc.collect()
    with Ticks(speed) as distill_ticks:
        if tracer is not None:
            tracer.watch_teacher(teacher.vgae_model, teacher.gat_model)
        try:
            student = distill.distill_pipeline(
                inputs.train_graphs, teacher.vgae_model, teacher.gat_model,
                VgaeConfig.student(), GatConfig.student(), distill.KdConfig(),
                seed, STUDENT_OPTIONS, inputs.test_graphs,
            )
        finally:
            if tracer is not None:
                tracer.unwatch_teacher(teacher.vgae_model, teacher.gat_model)
    between()

    problems = []
    for role, report in (("teacher", teacher.report), ("student", student.report)):
        if report["undersampling"]["achieved_ratio"] != 4.0:
            problems.append(f"train: {role} achieved_ratio {report['undersampling']['achieved_ratio']} != 4.0")
    if student.report["teacher_checksums_unchanged"] is not True:
        problems.append("train: teacher parameters changed during distillation")
    if student.report["metrics"]["teacher"]["gat_only"] != teacher.report["metrics"]["gat_only"]:
        problems.append("train: distillation re-scored the teacher differently")
    result = TrainResult(teacher, student, teacher_ticks, distill_ticks)
    if not all(map(math.isfinite, result.metrics().values())):
        problems.append("train: non-finite metric")
    tally.record(problems)
    return result


def train_shape(result: TrainResult, inputs: Inputs) -> dict:
    """Stage-2 sizes, epochs and optimizer steps of both training runs."""
    train_part, _ = pipeline.chronological_split(inputs.train_graphs, TEACHER_OPTIONS.val_frac)
    normals = sum(1 for g in train_part if g.label == 0)
    out = {}
    for role, opts, report in (
        ("teacher", TEACHER_OPTIONS, result.teacher.report),
        ("student", STUDENT_OPTIONS, result.student.report),
    ):
        block = report["undersampling"]
        stage2 = block["normals_kept"] + block["attacks"]
        out[role] = {
            "vgae_windows": normals,
            "vgae_epochs": opts.vgae_epochs,
            "vgae_steps": opts.vgae_epochs * math.ceil(normals / opts.vgae_batch),
            "stage2_windows": stage2,
            "gat_epochs": opts.gat_epochs,
            "gat_steps": opts.gat_epochs * math.ceil(stage2 / opts.gat_batch),
        }
    return out


# ---------------------------------------------------------------- stream


class Stream:
    """Online scoring of the stream log at stride=1, one whole pass at a time.

    Each window goes to ``score_windows`` alone as soon as it exists.
    Latency runs from pulling the frame that completes a window to that
    window's verdict; the first window of a pass, which pulls W frames,
    is left out of it. A window's stretch runs from the previous verdict
    (or the opening of the log) to its own. Both are scaled by the last
    probe and kept per window and pass; the metrics take each window's
    median over the passes. Every pass must give the first pass's
    verdicts.
    """

    def __init__(self, inputs: Inputs, seed: int, tally: Tally, speed):
        self.inputs, self.seed, self.tally, self.speed = inputs, seed, tally, speed
        self.latencies: list[array] = []  # per pass, scaled
        self.stretches: list[array] = []  # per pass, scaled
        self.raw_s: list[float] = []  # per pass
        self.first_rows: list = []

    @property
    def passes(self) -> int:
        return len(self.stretches)

    def run(self, deadline: float | None = None, max_passes: int | None = None):
        """Whole passes until the deadline has passed or max_passes are done."""
        for done in itertools.count(1):
            self.run_pass()
            if (deadline is not None and time.perf_counter() >= deadline) or (max_passes is not None and done >= max_passes):
                return

    def run_pass(self):
        models = self.inputs.models
        first = not self.first_rows
        latencies, stretches, raw_s = array("d"), array("d"), 0.0
        gc.collect()
        self.speed.probe()
        start = time.perf_counter()
        frames = canlog.parse_car_hacking_csv(self.inputs.stream_csv)
        pending = graphs.build_windows(frames, WINDOW, 1)
        try:
            for index in itertools.count():
                t0 = time.perf_counter()
                window = next(pending, None)
                if window is None:
                    break
                rows = pipeline.score_windows(
                    models.vgae, models.gat, models.calibration, [window], self.seed, STUDENT_OPTIONS
                )
                t1 = time.perf_counter()
                raw_s += t1 - start
                stretches.append(self.speed.scaled(t1 - start))
                latencies.append(self.speed.scaled(t1 - t0))
                problems = []
                if len(rows) != 1 or rows[0].window_start_index != index:
                    problems.append(f"stream: window {index} did not get exactly one verdict")
                elif not all(0.0 <= p <= 1.0 for p in (rows[0].vgae_prob, rows[0].gat_prob, rows[0].fused_prob)):
                    problems.append(f"stream: window {index} has a probability outside [0, 1]")
                elif not first and (index >= len(self.first_rows) or rows[0] != self.first_rows[index]):
                    problems.append(f"stream: window {index} scored differently from the first pass")
                if first:
                    self.first_rows.append(rows[0] if len(rows) == 1 else None)
                self.tally.record(problems)
                self.speed.maybe_probe()
                start = time.perf_counter()
        finally:
            pending.close()
            frames.close()
        if not first and index != len(self.first_rows):
            self.tally.record([f"stream: a pass gave {index} windows, the first {len(self.first_rows)}"])
            return
        self.latencies.append(latencies)
        self.stretches.append(stretches)
        self.raw_s.append(raw_s)

    def check_sample(self):
        """Rows scored one window at a time equal one score_windows call over prebuilt windows."""
        frames = self.inputs.stream_frames
        starts = range(0, len(self.first_rows), SAMPLE_EVERY)
        prebuilt = []
        for start in starts:
            window = next(graphs.build_windows(frames[start : start + WINDOW], WINDOW))
            window.window_start_index = start
            prebuilt.append(window)
        models = self.inputs.models
        batch = pipeline.score_windows(
            models.vgae, models.gat, models.calibration, prebuilt, self.seed, STUDENT_OPTIONS
        )
        for start, again in zip(starts, batch):
            row = self.first_rows[start]
            self.tally.record([] if row == again else [f"stream: window {start} scores differently in a batch call"])

    def metrics(self) -> dict:
        """Windows of a pass over the sum of their median stretches; percentiles of their median latencies."""
        latency = np.median(np.asarray(self.latencies), axis=0)[1:]
        return {
            "stream_windows_per_s": len(self.first_rows) / median_sum(self.stretches),
            "stream_latency_ms_p50": 1e3 * float(np.median(latency)),
            "stream_latency_ms_p99": 1e3 * float(np.percentile(latency, 99)),
        }


def stream_shape(inputs: Inputs) -> dict:
    """Stride-1 windows of the stream log."""
    windows = list(graphs.build_windows(inputs.stream_frames, WINDOW, 1))
    return {
        "frames": len(inputs.stream_frames),
        "frame_rate_per_s": _frame_rate(inputs.stream_frames),
        "stride_1": _window_stats(windows),
    }


# ---------------------------------------------------------------- ingest


def _same_graph(a, b) -> bool:
    return (
        a.node_ids == b.node_ids
        and a.label == b.label
        and a.window_start_index == b.window_start_index
        and all(
            x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in (
                (a.node_features, b.node_features),
                (a.edge_src, b.edge_src),
                (a.edge_dst, b.edge_dst),
                (a.edge_weight, b.edge_weight),
            )
        )
    )


class Ingest:
    """``canids build-graphs`` on the training log at stride=W, then the cache read back CACHE_LOADS times."""

    def __init__(self, inputs: Inputs, seed: int, workdir: Path, tally: Tally, speed):
        self.inputs, self.tally, self.speed = inputs, tally, speed
        self.cache = workdir / "train.graphs"
        self.argv = ["build-graphs", "--in", str(inputs.train_csv), "--out", str(self.cache),
                     "--window", str(WINDOW), "--seed", str(seed)]
        self.frames = len(inputs.train_frames)
        self.windows = (self.frames - WINDOW) // WINDOW + 1
        self.cli_s: list[float] = []  # scaled
        self.load_s: list[float] = []
        self.cli_raw_s: list[float] = []
        self.load_raw_s: list[float] = []

    def run(self, deadline: float | None = None, max_runs: int | None = None):
        gc.collect()
        for runs in itertools.count(1):
            stdout, stderr = io.StringIO(), io.StringIO()
            self.speed.maybe_probe()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(self.argv)
            seconds = time.perf_counter() - t0
            self.cli_raw_s.append(seconds)
            self.cli_s.append(self.speed.scaled(seconds))
            loaded = []
            for _ in range(CACHE_LOADS if code == 0 else 0):
                self.speed.maybe_probe()
                t0 = time.perf_counter()
                loaded = graphs.load_graph_cache(self.cache)
                seconds = time.perf_counter() - t0
                self.load_raw_s.append(seconds)
                self.load_s.append(self.speed.scaled(seconds))

            problems = []
            if code != 0:
                problems.append(f"ingest: build-graphs exited {code}: {stderr.getvalue().strip()[-200:]}")
            elif json.loads(stdout.getvalue())["num_graphs"] != self.windows or len(loaded) != self.windows:
                problems.append(f"ingest: expected {self.windows} windows, got {len(loaded)}")
            elif any(g.edge_weight.sum() != WINDOW - 1 for g in loaded):
                problems.append(f"ingest: a window's edge weights do not sum to {WINDOW - 1}")
            elif not all(_same_graph(a, b) for a, b in zip(loaded, self.inputs.train_graphs)):
                problems.append("ingest: reloaded graphs differ from build_windows on the same log")
            self.tally.record(problems)
            if (deadline is not None and time.perf_counter() >= deadline) or (max_runs is not None and runs >= max_runs):
                return

    def metrics(self) -> dict:
        """Over the median scaled build-graphs run and the median scaled read-back."""
        return {
            "ingest_frames_per_s": self.frames / statistics.median(self.cli_s),
            "cache_load_windows_per_s": self.windows / statistics.median(self.load_s),
        }


# ---------------------------------------------------------------- shape


def _frame_rate(frames: list) -> float:
    return len(frames) / (frames[-1].timestamp - frames[0].timestamp)


def _window_stats(windows: list) -> dict:
    nodes = [g.num_nodes for g in windows]
    edges = [g.num_edges for g in windows]
    return {
        "windows": len(windows),
        "attack_window_share": sum(g.label for g in windows) / len(windows),
        "nodes_mean": float(np.mean(nodes)),
        "nodes_max": int(max(nodes)),
        "edges_mean": float(np.mean(edges)),
        "edges_max": int(max(edges)),
    }


def log_shape(frames: list, windows: list) -> dict:
    return {
        "frames": len(frames),
        "attack_frames": sum(1 for f in frames if f.label == canlog.Label.ATTACK),
        "frame_rate_per_s": _frame_rate(frames),
        "stride_w": _window_stats(windows),
    }
