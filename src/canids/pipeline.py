"""Two-stage orchestration: VGAE scoring and undersampling, then GAT.

Stage 1 trains the autoencoder on the chronologically-first 80% of
training windows, benign only, and ranks those normals by anomaly score.
The hardest-to-reconstruct normals (a 4:1 normal-to-attack ratio) plus
all attack windows form the Stage-2 classifier training set. Validation
normals calibrate the VGAE score into a probability so it can be fused
with the classifier output; the test stream is scored exactly once, at
the end.
"""

from __future__ import annotations

import contextlib
import re
import time
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ParseError, StateError, open_ascii, quoted, quoted_value
from .errors import require_finite, require_int, require_probability
from .floattext import DECIMAL
from .gat import GatClassifier, GatConfig, TrainingLog, prepare_graph, train_supervised
from .metrics import Metrics, roc_auc
from .optim import count_params
from .vgae import SCORE_MODES, CompositeWeights, VgaeConfig, VgaeModel, train_vgae


@dataclass
class ScoredWindow:
    window_start_index: int
    vgae_score: float
    vgae_prob: float
    gat_prob: float
    fused_prob: float
    predicted: int
    truth: int


@dataclass
class UndersampleResult:
    selected_normals: list
    attacks: list
    requested_ratio: float
    achieved_ratio: float

    def summary(self) -> dict:
        """The counts a report shows for this selection."""
        return {
            "requested_ratio": self.requested_ratio,
            "achieved_ratio": self.achieved_ratio,
            "normals_kept": len(self.selected_normals),
            "attacks": len(self.attacks),
        }


def undersample(ranked_normals, attack_graphs, ratio: float) -> UndersampleResult:
    """Keep the ceil(ratio * |attacks|) hardest normals plus every attack.

    ``ranked_normals`` must already be sorted hardest-first (the output of
    reconstruction_rank); the kept normals are exactly its prefix.
    """
    if not ratio > 0:  # NaN fails it too
        raise ConfigError(f"undersample ratio must be > 0, got {quoted(str(ratio), marks=False)}")
    ranked_normals = list(ranked_normals)
    attack_graphs = list(attack_graphs)
    if not attack_graphs:
        raise StateError(
            "undersample: no attack windows in the training split; "
            "skip undersampling and run the VGAE-only anomaly mode"
        )
    want = ratio * len(attack_graphs)  # compared before int(): a huge ratio keeps every normal
    keep = len(ranked_normals) if want >= len(ranked_normals) else int(np.ceil(want))
    return UndersampleResult(
        selected_normals=ranked_normals[:keep],
        attacks=attack_graphs,
        requested_ratio=ratio,
        achieved_ratio=keep / len(attack_graphs),
    )


@dataclass(frozen=True)
class VgaeCalibration:
    """Maps raw anomaly scores into [0, 1] via validation-normal quantiles."""

    q_mid: float
    q_high: float
    degenerate: bool = False

    def __call__(self, score: float) -> float:
        if self.degenerate:
            return 0.0
        return float(np.clip((score - self.q_mid) / (self.q_high - self.q_mid), 0.0, 1.0))


def calibrate_vgae(scores, q_lo: float = 0.50, q_hi: float = 0.995) -> VgaeCalibration:
    scores = np.asarray(list(scores), dtype=np.float64)
    check_calibration_count(scores.size)
    mid, high = float(np.quantile(scores, q_lo)), float(np.quantile(scores, q_hi))
    if high <= mid:
        warnings.warn("degenerate VGAE score distribution; calibrated probability is constant 0")
        return VgaeCalibration(mid, high, degenerate=True)
    return VgaeCalibration(mid, high)


def check_calibration_count(normals: int):
    """ConfigError unless calibrate_vgae has enough validation-normal scores, ``normals``, to calibrate on."""
    if normals < 20:
        raise ConfigError(f"calibration needs >= 20 validation-normal scores, got {normals}")


def fuse(vgae_prob: float, gat_prob: float, w_anomaly: float = 0.15, w_gat: float = 0.85) -> float:
    """Convex score-level fusion of the calibrated anomaly and classifier probabilities."""
    if not (min(w_anomaly, w_gat) >= 0.0 and abs(w_anomaly + w_gat - 1.0) <= 1e-9):  # nan fails both
        w_anomaly, w_gat = (quoted(str(w), marks=False) for w in (w_anomaly, w_gat))
        raise ConfigError(f"fusion weights must be non-negative and sum to 1, got {w_anomaly} + {w_gat}")
    if not (0.0 <= vgae_prob <= 1.0 and 0.0 <= gat_prob <= 1.0):
        raise ConfigError("fusion inputs must be probabilities in [0, 1]")
    return w_anomaly * vgae_prob + w_gat * gat_prob


def evaluate(scored: list[ScoredWindow], threshold: float = 0.5) -> Metrics:
    """Binary metrics at the given threshold on fused probability; attack is positive."""
    require_probability("threshold", threshold)
    if not scored:
        raise StateError("evaluate: no scored windows")
    preds = [1 if s.fused_prob >= threshold else 0 for s in scored]
    return Metrics.from_pairs([s.truth for s in scored], preds)


def metrics_block(scored: list[ScoredWindow], threshold: float, with_gat: bool = True) -> dict:
    """GAT-only and fused metrics side by side; ``gat_only`` is None without a classifier."""
    fused = evaluate(scored, threshold)
    gat_only = None
    if with_gat:
        preds = [1 if s.gat_prob >= threshold else 0 for s in scored]
        gat_only = Metrics.from_pairs([s.truth for s in scored], preds).to_dict()
    return {"gat_only": gat_only, "fused": fused.to_dict()}


@dataclass(frozen=True)
class PipelineOptions:
    val_frac: float = 0.2
    ratio: float = 4.0
    threshold: float = 0.5
    fusion_weights: tuple = (0.15, 0.85)  # (anomaly, gat)
    composite_weights: CompositeWeights = field(default_factory=CompositeWeights)
    score_mode: str = "composite"
    calibration_quantiles: tuple = (0.50, 0.995)
    vgae_epochs: int = 20
    vgae_lr: float = 3e-3
    vgae_batch: int = 32
    gat_epochs: int = 50
    gat_batch: int = 64
    gat_lr: float = 1e-2  # smaller rates stall at the class base rate on these tiny models
    patience: int = 10

    def __post_init__(self):
        # bad values fail before any training
        for name in ("vgae_epochs", "vgae_batch", "gat_epochs", "gat_batch"):
            require_int(name, getattr(self, name), 1)
        require_int("patience", self.patience, 0)
        if not 0.0 < self.val_frac < 1.0:
            raise ConfigError(f"val_frac must be in (0, 1), got {quoted(str(self.val_frac), marks=False)}")
        require_finite("ratio", self.ratio, positive=True)
        for name in ("vgae_lr", "gat_lr"):
            require_finite(name, getattr(self, name), positive=True)
        require_probability("threshold", self.threshold)
        fuse(0.0, 0.0, *self.fusion_weights)
        if self.score_mode not in SCORE_MODES:
            mode = quoted_value(self.score_mode)
            raise ConfigError(f"unknown score_mode {mode} (expected one of {', '.join(SCORE_MODES)})")


def chronological_split(graphs, val_frac: float):
    """Leading (1 - val_frac) for training, trailing for validation.

    Windows are kept in stream order; shuffling here would leak overlapping
    windows across the boundary.
    """
    graphs = list(graphs)
    if not 0.0 < val_frac < 1.0:
        raise ConfigError(f"val_frac must be in (0, 1), got {quoted(str(val_frac), marks=False)}")
    cut = int(round(len(graphs) * (1.0 - val_frac)))
    cut = max(1, min(cut, len(graphs) - 1))
    return graphs[:cut], graphs[cut:]


@dataclass
class RunResult:
    report: dict
    scored: list[ScoredWindow]
    vgae_model: VgaeModel
    gat_model: GatClassifier | None
    calibration: VgaeCalibration
    selection: UndersampleResult | None = None


def score_windows(
    vgae_model: VgaeModel,
    gat_model: GatClassifier | None,
    calibration: VgaeCalibration,
    graphs,
    seed: int,
    options: PipelineOptions,
) -> list[ScoredWindow]:
    """Score a stream with frozen models and fuse per the configured weights.

    The windows ``graphs``, a sequence, are scored in the GraphBatches of
    VgaeModel.score_chunks, each window's score equal bit for bit to its
    batch-of-one score. The GAT scores each window in a batch of one,
    because the benchmark's teacher hook (``bench/spans.py``,
    ``Tracer.watch_teacher``) reads a batch of one; for a call of one
    window that is its chunk, so it is built once.
    """
    w_a, w_g = (1.0, 0.0) if gat_model is None else options.fusion_weights  # (1, 0): VGAE-only anomaly mode
    scored = []
    for batch, raws in vgae_model.score_chunks(graphs, options.composite_weights, seed, options.score_mode):
        for g, raw in zip(batch.graphs, raws):
            v_prob, g_prob = calibration(raw), 0.0
            if gat_model is not None:
                g_prob = gat_model.predict_prob(batch if batch.num_graphs == 1 else prepare_graph(g))
            fused = fuse(v_prob, g_prob, w_a, w_g)
            predicted = 1 if fused >= options.threshold else 0
            scored.append(ScoredWindow(g.window_start_index, raw, v_prob, g_prob, fused, predicted, g.label))
    return scored


def score_split(
    vgae_model: VgaeModel,
    gat_model: GatClassifier | None,
    val_part,
    test_graphs,
    seed: int,
    options: PipelineOptions,
) -> tuple[VgaeCalibration, list[ScoredWindow], dict]:
    """The shared end of every run: calibrate, score the test stream, report.

    The VGAE score is calibrated on ``val_part``'s benign windows, the test
    windows are scored once with the frozen models, and the GAT-only and
    fused metrics come back as one block.
    """
    calibration = calibrate_vgae(
        vgae_model.score_batch(
            [g for g in val_part if g.label == 0], options.composite_weights, seed, options.score_mode
        ),
        *options.calibration_quantiles,
    )
    scored = score_windows(vgae_model, gat_model, calibration, test_graphs, seed, options)
    return calibration, scored, metrics_block(scored, options.threshold, gat_model is not None)


def report_fields(
    seed: int,
    metrics: dict,
    vgae_config: VgaeConfig,
    gat_config: GatConfig | None,
    selection: UndersampleResult | None,
    options: PipelineOptions,
) -> dict:
    """The report.json fields that run_two_stage and the ``report`` command both write."""
    return {
        "seed": seed,
        "headline_metric": "gat_only" if gat_config is not None else "fused",
        "metrics": metrics,
        "params": {
            "vgae": count_params(vgae_config),
            "gat": count_params(gat_config) if gat_config is not None else None,
        },
        "undersampling": selection.summary() if selection is not None else None,
        "fusion_weights": list(options.fusion_weights),
        "threshold": options.threshold,
    }


class Timings(dict):
    """``<stage>_seconds`` of each stage run under ``stage(name)``; the package's one reader of the clock."""

    def __init__(self):
        super().__init__()
        self.start = time.perf_counter()

    @contextlib.contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        yield
        self[f"{name}_seconds"] = time.perf_counter() - start

    def block(self) -> dict:
        """A run's ``timings`` entry: the stages that ran, and ``total_seconds`` since the Timings was made."""
        return {**self, "total_seconds": time.perf_counter() - self.start}


class Stages(NamedTuple):
    """What train_stages trained; the stage-2 fields are None when the split has no attack windows."""

    vgae: VgaeModel
    vgae_losses: list[float]
    selection: UndersampleResult | None
    gat: GatClassifier | None
    gat_log: TrainingLog | None

    def training(self) -> dict:
        """The per-epoch block of a run's report; the GAT lists are empty without stage 2."""
        log = self.gat_log or TrainingLog()
        return {"vgae_epoch_losses": self.vgae_losses, "gat_epoch_losses": log.epoch_losses, "gat_val_f1": log.val_f1}


def train_vgae_stage(
    train_part, vgae_config: VgaeConfig, seed: int, options: PipelineOptions, extra_loss=None, extra_params=()
) -> tuple[VgaeModel, list[float]]:
    """Stage 1: the VGAE trained on ``train_part``'s benign windows; the extras go to train_vgae's."""
    normals = [g for g in train_part if g.label == 0]
    if not normals:
        raise StateError("no benign windows in the training split")
    return train_vgae(
        normals, vgae_config, seed=seed, epochs=options.vgae_epochs, lr=options.vgae_lr,
        batch_size=options.vgae_batch, extra_loss_fn=extra_loss, extra_params=extra_params,
    )


def select_stage2(vgae_model: VgaeModel, train_part, seed: int, options: PipelineOptions) -> UndersampleResult:
    """``train_part``'s benign windows ranked by the VGAE, then undersampled against its attacks."""
    ranked = vgae_model.reconstruction_rank(
        [g for g in train_part if g.label == 0], options.composite_weights, seed=seed, score_mode=options.score_mode
    )
    return undersample(ranked, [g for g in train_part if g.label == 1], options.ratio)


def train_gat_stage(
    stage2, val_part, gat_config: GatConfig, seed: int, options: PipelineOptions, loss_fn=None
) -> tuple[GatClassifier, TrainingLog]:
    """Stage 2: the GAT trained on ``stage2``, early-stopped on ``val_part`` unless it is None."""
    return train_supervised(
        stage2, [g.label for g in stage2], gat_config, seed=seed, epochs=options.gat_epochs,
        batch_size=options.gat_batch, lr=options.gat_lr, val_graphs=val_part, patience=options.patience,
        loss_fn=loss_fn,
    )


def train_stages(
    train_part, val_part, vgae_config: VgaeConfig, gat_config: GatConfig, seed: int, options: PipelineOptions,
    timings: Timings, vgae_extra_loss=None, vgae_extra_params=(), gat_loss=None,
) -> Stages:
    """The three stage functions in order: train_vgae_stage, select_stage2, train_gat_stage.

    Each is timed in ``timings`` as the stage ``vgae``, ``select`` or
    ``gat``. Stage 2 is skipped when ``train_part`` has no attack windows.
    The hooks go to train_vgae_stage (``vgae_extra_loss``,
    ``vgae_extra_params``) and train_gat_stage (``gat_loss``).
    """
    with timings.stage("vgae"):
        vgae, losses = train_vgae_stage(train_part, vgae_config, seed, options, vgae_extra_loss, vgae_extra_params)
    if not any(g.label == 1 for g in train_part):
        return Stages(vgae, losses, None, None, None)

    with timings.stage("select"):
        selection = select_stage2(vgae, train_part, seed, options)
    with timings.stage("gat"):
        stage2 = selection.selected_normals + selection.attacks
        gat, gat_log = train_gat_stage(stage2, val_part, gat_config, seed, options, gat_loss)
    return Stages(vgae, losses, selection, gat, gat_log)


def run_two_stage(
    train_graphs,
    test_graphs,
    vgae_config: VgaeConfig,
    gat_config: GatConfig,
    seed: int,
    options: PipelineOptions = PipelineOptions(),
) -> RunResult:
    """Full Fig-style run: stage 1, undersample, stage 2, calibrate, evaluate.

    Falls back to VGAE-only anomaly detection when the training split has
    no attack windows, and refuses a validation split with too few normals
    to calibrate on before any training. The returned report carries
    GAT-only and fused metrics side by side; GAT-only is the headline.
    """
    timings = Timings()
    train_graphs, test_graphs = list(train_graphs), list(test_graphs)
    train_part, val_part = chronological_split(train_graphs, options.val_frac)
    check_calibration_count(sum(g.label == 0 for g in val_part))
    stages = train_stages(train_part, val_part, vgae_config, gat_config, seed, options, timings)
    vgae_only = stages.gat is None
    with timings.stage("score"):
        calibration, scored, metrics = score_split(stages.vgae, stages.gat, val_part, test_graphs, seed, options)

    test_truths = [s.truth for s in scored]
    vgae_block = {}
    if 0 < sum(test_truths) < len(test_truths):
        raw = [s.vgae_score for s in scored]
        attack_mean = float(np.mean([r for r, t in zip(raw, test_truths) if t == 1]))
        benign_mean = float(np.mean([r for r, t in zip(raw, test_truths) if t == 0]))
        vgae_block = {
            "auc": roc_auc(raw, test_truths),
            "mean_score_attack": attack_mean,
            "mean_score_benign": benign_mean,
        }

    report = {
        **report_fields(seed, metrics, vgae_config, None if vgae_only else gat_config, stages.selection, options),
        "mode": "vgae-only" if vgae_only else "two-stage",
        "dataset": {
            "train_windows": len(train_part),
            "train_attack_windows": sum(g.label for g in train_part),
            "val_windows": len(val_part),
            "test_windows": len(test_graphs),
            "test_attack_windows": int(sum(test_truths)),
        },
        "vgae_separation": vgae_block,
        "training": stages.training(),
        "lineage": {
            "vgae_train_windows_all_benign": True,  # enforced by train_vgae
            "undersampled_normals_are_rank_prefix": not vgae_only,
            "test_scored_after_training": True,
        },
        "timings": timings.block(),
    }
    return RunResult(report, scored, stages.vgae, stages.gat, calibration, stages.selection)


SCORES_HEADER = "window_start_index,truth,vgae_score,vgae_prob,gat_prob,fused_prob,predicted"


def write_scores_csv(scored: list[ScoredWindow], path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(SCORES_HEADER + "\n")
        for s in scored:
            fh.write(
                f"{s.window_start_index},{s.truth},{s.vgae_score!r},{s.vgae_prob!r},"
                f"{s.gat_prob!r},{s.fused_prob!r},{s.predicted}\n"
            )


# a row as write_scores_csv writes it: the window start and truth, four floats as repr writes them, and
# the prediction
_is_scores_row = re.compile(rf"[0-9]+,[0-9]+(?:,(?:{DECIMAL})){{4}},[0-9]+").fullmatch


def read_scores_csv(path) -> list[ScoredWindow]:
    """The rows of a scores file; ParseError naming the file and the line of a malformed row.

    Every field must be a number in the form write_scores_csv writes it:
    the window start, ``truth`` and ``predicted`` plain decimal digits, the
    scores floats as repr writes them, with no blank inside a row. The three
    probabilities must be finite and in [0, 1], and ``truth`` and
    ``predicted`` 0 or 1.
    """
    out = []
    with open_ascii(path) as fh:
        header = fh.readline().strip()
        if header != SCORES_HEADER:
            raise ParseError(f"{path}: unexpected scores header {quoted(header)}", line=1)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            parts = line.split(",")
            if len(parts) != 7:
                raise ParseError(f"{path}: bad scores row {quoted(line)}", line=lineno)
            if not _is_scores_row(line):
                raise ParseError(f"{path}: non-numeric field in scores row {quoted(line)}", line=lineno)
            try:
                start, truth, predicted = int(parts[0]), int(parts[1]), int(parts[6])
            except ValueError:  # a field of more digits than int() converts (sys.get_int_max_str_digits())
                raise ParseError(f"{path}: integer field longer than int() reads in scores row", line=lineno) from None
            vgae_score, vgae_prob, gat_prob, fused_prob = map(float, parts[2:6])
            if truth not in (0, 1) or predicted not in (0, 1):
                got = " and ".join(quoted(str(v), marks=False) for v in (truth, predicted))
                raise ParseError(f"{path}: truth and predicted must be 0 or 1, got {got}", line=lineno)
            # NaN fails both comparisons
            if not all(0.0 <= p <= 1.0 for p in (vgae_prob, gat_prob, fused_prob)):
                message = f"probabilities must be finite and in [0, 1] in row {quoted(line)}"
                raise ParseError(f"{path}: {message}", line=lineno)
            out.append(ScoredWindow(start, vgae_score, vgae_prob, gat_prob, fused_prob, predicted, truth))
    return out
