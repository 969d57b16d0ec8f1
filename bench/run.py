"""Run one workload of the canids benchmark and print its metrics.

    python3 bench/run.py --workload {stream,ingest} --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports canids from ``src/``. With
``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric instead, taken from a traced repeat of the workload's
closed loop. The lines before it are a JSON report: environment,
workload shape, every check that failed and, when traced, the self time,
inclusive time and call count of every span. bench/README.md describes
the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import os

# one BLAS thread: numpy links threaded OpenBLAS, and the run must keep to its cores
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import json
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("stream", "ingest")

UNITS = {
    "setup_s": "s",
    "teacher_s": "s",
    "distill_s": "s",
    "teacher_f1": "score",
    "student_f1": "score",
    "kd_retention": "ratio",
    "vgae_auc": "score",
    "stream_windows_per_s": "windows/s",
    "stream_latency_ms_p50": "ms",
    "stream_latency_ms_p99": "ms",
    "ingest_frames_per_s": "frames/s",
    "cache_load_windows_per_s": "windows/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="picks the synthetic inputs and the model seeds")
    parser.add_argument("--seconds", type=int, required=True, help="length of the workload's closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_num_threads": os.environ["OMP_NUM_THREADS"],
    }


def _spread(values) -> list[float]:
    return [min(values), statistics.median(values), max(values)]


def measure(args, workdir: Path, report: dict, tally, tracer=None) -> dict:
    """End-to-end metrics of one run; with a tracer, the distillation teacher is spanned too.

    A traced run does not probe the host's speed: probes would land in the spans.
    """
    import workloads as wl
    from hostspeed import HostSpeed

    speed = HostSpeed(enabled=tracer is None)
    inputs, ticks = wl.setup(args.seed, workdir, tally, speed)
    setups = [ticks]
    stream = wl.Stream(inputs, args.seed, tally, speed)
    ingest = wl.Ingest(inputs, args.seed, workdir, tally, speed)

    def run_slice():
        """Set-up once more, then one slice of stream and of ingest; the workload's own
        phase gets its share of --seconds."""
        setups.append(wl.setup(args.seed, workdir / "again", tally, speed)[1])
        for name, phase, fixed in (
            ("stream", stream, wl.STREAM_SLICE_PASSES),
            ("ingest", ingest, wl.INGEST_SLICE_RUNS),
        ):
            if args.workload == name:
                phase.run(time.perf_counter() + args.seconds / wl.SLICES)
            else:
                phase.run(None, fixed)

    run_slice()
    trained = wl.train(inputs, args.seed, tally, speed, run_slice, tracer)
    stream.check_sample()

    metrics = {
        "setup_s": statistics.median(t.scaled_s for t in setups),
        **trained.metrics(), **stream.metrics(), **ingest.metrics(),
    }
    report["shape"] = {
        "train_log": wl.log_shape(inputs.train_frames, inputs.train_graphs),
        "test_log": wl.log_shape(inputs.test_frames, inputs.test_graphs),
        "stream_log": wl.stream_shape(inputs),
        "training": wl.train_shape(trained, inputs),
    }
    # raw wall times beside the scaled ones the metrics take
    report["runs"] = {
        "kd_gap": abs(metrics["teacher_f1"] - metrics["student_f1"]),
        "probe_readings": len(speed.readings),
        "probe_s": speed.probe_s,
        "probe_slowness_min_median_max": _spread(speed.readings) if speed.readings else None,
        "setup_raw_s": [t.raw_s for t in setups],
        "setup_scaled_s": [t.scaled_s for t in setups],
        "teacher_raw_s": trained.teacher_ticks.raw_s,
        "teacher_stretches": len(trained.teacher_ticks.stretches),
        "distill_raw_s": trained.distill_ticks.raw_s,
        "distill_stretches": len(trained.distill_ticks.stretches),
        "stream_passes": stream.passes,
        "stream_pass_raw_s": stream.raw_s,
        "stream_pass_scaled_s": [sum(s) for s in stream.stretches],
        "ingest_runs": len(ingest.cli_s),
        "ingest_cli_raw_s": ingest.cli_raw_s,
        "ingest_cli_scaled_s": ingest.cli_s,
        "cache_loads": len(ingest.load_s),
        "cache_load_raw_s_min_median_max": _spread(ingest.load_raw_s),
    }
    return {k: (v, UNITS[k]) for k, v in metrics.items()}


def measure_traced(args, workdir: Path, report: dict, tally) -> dict:
    """Per-layer metrics: one run untraced, then the same run with every layer spanned.

    Every run goes through every phase, so each layer is measured on every
    workload; the workload sets the mix. The tracing overhead compares the
    raw wall time of the teacher run and the distillation, the phases whose
    work is fixed: stream and ingest run for a set time whether traced or not.
    """
    from spans import Tracer

    def training_s(runs: dict) -> float:
        return runs["teacher_raw_s"] + runs["distill_raw_s"]

    untraced_report = {}
    report["untraced"] = {k: v for k, (v, _) in measure(args, workdir, untraced_report, tally).items()}
    tracer = Tracer()
    tracer.install()
    try:
        measure(args, workdir, report, tally, tracer)
    finally:
        tracer.uninstall()
    untraced, traced = training_s(untraced_report["runs"]), training_s(report["runs"])

    metrics = tracer.per_layer()
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    report["spans"] = len(tracer.span_name)
    report["layers"] = {
        name: {"self_s": self_s, "total_s": total_s, "calls": calls}
        for name, (self_s, total_s, calls) in sorted(tracer.summary().items(), key=lambda kv: -kv[1][0])
    }
    return metrics


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "canids" / "__init__.py").is_file():
        print(f"bench: no canids package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }
    from workloads import Tally

    tally = Tally()
    try:
        metrics = (measure_traced if args.trace else measure)(args, workdir, report, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    report["failures"] = tally.errors
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
