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

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StateError
from .gat import GatClassifier, GatConfig, prepare_graph, train_supervised
from .gat import count_params as gat_count_params
from .vgae import CompositeWeights, VgaeConfig, VgaeModel, train_vgae
from .vgae import count_params as vgae_count_params


@dataclass
class ScoredWindow:
    window_start_index: int
    vgae_score: float
    vgae_prob: float
    gat_prob: float
    fused_prob: float
    predicted: int
    truth: int


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "Metrics":
        total = tp + fp + tn + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        return cls((tp + tn) / total if total else 0.0, precision, recall, f1, tp, fp, tn, fn)

    @classmethod
    def from_pairs(cls, truths, preds) -> "Metrics":
        tp = fp = tn = fn = 0
        for t, p in zip(truths, preds):
            if p == 1:
                tp, fp = (tp + 1, fp) if t == 1 else (tp, fp + 1)
            else:
                fn, tn = (fn + 1, tn) if t == 1 else (fn, tn + 1)
        return cls.from_counts(tp, fp, tn, fn)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "tp": self.tp,
            "fp": self.fp,
            "tn": self.tn,
            "fn": self.fn,
        }


@dataclass
class UndersampleResult:
    selected_normals: list
    attacks: list
    requested_ratio: float
    achieved_ratio: float


def undersample(ranked_normals, attack_graphs, ratio: float) -> UndersampleResult:
    """Keep the ceil(ratio * |attacks|) hardest normals plus every attack.

    ``ranked_normals`` must already be sorted hardest-first (the output of
    reconstruction_rank); the kept normals are exactly its prefix.
    """
    if ratio <= 0:
        raise ConfigError(f"undersample ratio must be > 0, got {ratio}")
    ranked_normals = list(ranked_normals)
    attack_graphs = list(attack_graphs)
    if not attack_graphs:
        raise StateError(
            "undersample: no attack windows in the training split; "
            "skip undersampling and run the VGAE-only anomaly mode"
        )
    want = int(np.ceil(ratio * len(attack_graphs)))
    keep = min(want, len(ranked_normals))
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
    if scores.size < 20:
        raise ConfigError(f"calibration needs >= 20 validation-normal scores, got {scores.size}")
    mid, high = float(np.quantile(scores, q_lo)), float(np.quantile(scores, q_hi))
    if high <= mid:
        warnings.warn("degenerate VGAE score distribution; calibrated probability is constant 0")
        return VgaeCalibration(mid, high, degenerate=True)
    return VgaeCalibration(mid, high)


def fuse(vgae_prob: float, gat_prob: float, w_anomaly: float = 0.15, w_gat: float = 0.85) -> float:
    """Convex score-level fusion of the calibrated anomaly and classifier probabilities."""
    if abs(w_anomaly + w_gat - 1.0) > 1e-9:
        raise ConfigError(f"fusion weights must sum to 1, got {w_anomaly} + {w_gat}")
    if not (0.0 <= vgae_prob <= 1.0 and 0.0 <= gat_prob <= 1.0):
        raise ConfigError("fusion inputs must be probabilities in [0, 1]")
    return w_anomaly * vgae_prob + w_gat * gat_prob


def evaluate(scored: list[ScoredWindow], threshold: float = 0.5) -> Metrics:
    """Binary metrics at the given threshold on fused probability; attack is positive."""
    if not scored:
        raise StateError("evaluate: no scored windows")
    preds = [1 if s.fused_prob >= threshold else 0 for s in scored]
    return Metrics.from_pairs([s.truth for s in scored], preds)


def roc_auc(scores, labels) -> float:
    """Rank-based AUC (Mann-Whitney) with tie correction."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos, neg = int((labels == 1).sum()), int((labels == 0).sum())
    if pos == 0 or neg == 0:
        raise StateError("roc_auc needs both classes")
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


def chronological_split(graphs, val_frac: float):
    """Leading (1 - val_frac) for training, trailing for validation.

    Windows are kept in stream order; shuffling here would leak overlapping
    windows across the boundary.
    """
    graphs = list(graphs)
    if not 0.0 < val_frac < 1.0:
        raise ConfigError(f"val_frac must be in (0, 1), got {val_frac}")
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

    Each window is prepared once, as a batch of one, and scored alone, so a
    window's row does not depend on the other windows of the call.
    """
    w_a, w_g = options.fusion_weights
    scored = []
    for g in graphs:
        batch = prepare_graph(g, vgae_model.config.id_buckets)
        raw = vgae_model.score(batch, options.composite_weights, seed, options.score_mode)
        v_prob = calibration(raw)
        if gat_model is not None:
            g_prob = gat_model.predict_prob(batch)
            fused = fuse(v_prob, g_prob, w_a, w_g)
        else:
            g_prob = 0.0
            fused = fuse(v_prob, g_prob, 1.0, 0.0)  # VGAE-only anomaly mode
        scored.append(
            ScoredWindow(
                window_start_index=g.window_start_index,
                vgae_score=raw,
                vgae_prob=v_prob,
                gat_prob=g_prob,
                fused_prob=fused,
                predicted=1 if fused >= options.threshold else 0,
                truth=g.label,
            )
        )
    return scored


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
    no attack windows. The returned report carries GAT-only and fused
    metrics side by side; GAT-only is the headline.
    """
    t_run = time.perf_counter()
    train_graphs, test_graphs = list(train_graphs), list(test_graphs)
    train_part, val_part = chronological_split(train_graphs, options.val_frac)
    train_normals = [g for g in train_part if g.label == 0]
    train_attacks = [g for g in train_part if g.label == 1]
    val_normals = [g for g in val_part if g.label == 0]
    if not train_normals:
        raise StateError("no benign windows in the training split")

    t0 = time.perf_counter()
    vgae_model, vgae_losses = train_vgae(
        train_normals,
        vgae_config,
        seed=seed,
        epochs=options.vgae_epochs,
        lr=options.vgae_lr,
        batch_size=options.vgae_batch,
    )
    vgae_seconds = time.perf_counter() - t0

    normal_scores = [
        vgae_model.score(g, options.composite_weights, seed, options.score_mode)
        for g in train_normals
    ]
    ranked = vgae_model.reconstruction_rank(
        train_normals,
        options.composite_weights,
        seed=seed,
        score_mode=options.score_mode,
        scores=normal_scores,
    )

    gat_model = None
    gat_log = None
    selection = None
    vgae_only = not train_attacks
    if not vgae_only:
        selection = undersample(ranked, train_attacks, options.ratio)
        stage2 = selection.selected_normals + selection.attacks
        t0 = time.perf_counter()
        gat_model, gat_log = train_supervised(
            stage2,
            [g.label for g in stage2],
            gat_config,
            seed=seed,
            epochs=options.gat_epochs,
            batch_size=options.gat_batch,
            lr=options.gat_lr,
            val_graphs=val_part,
            val_labels=[g.label for g in val_part],
            patience=options.patience,
        )
        gat_seconds = time.perf_counter() - t0
    else:
        gat_seconds = 0.0

    calibration = calibrate_vgae(
        [
            vgae_model.score(g, options.composite_weights, seed, options.score_mode)
            for g in val_normals
        ],
        *options.calibration_quantiles,
    )

    t0 = time.perf_counter()
    scored = score_windows(vgae_model, gat_model, calibration, test_graphs, seed, options)
    score_seconds = time.perf_counter() - t0

    fused_metrics = evaluate(scored, options.threshold)
    if gat_model is not None:
        gat_only_metrics = Metrics.from_pairs(
            [s.truth for s in scored],
            [1 if s.gat_prob >= options.threshold else 0 for s in scored],
        )
    else:
        gat_only_metrics = None

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
        "seed": seed,
        "mode": "vgae-only" if vgae_only else "two-stage",
        "headline_metric": "gat_only" if gat_model is not None else "fused",
        "dataset": {
            "train_windows": len(train_part),
            "train_attack_windows": len(train_attacks),
            "val_windows": len(val_part),
            "test_windows": len(test_graphs),
            "test_attack_windows": int(sum(test_truths)),
        },
        "undersampling": None
        if selection is None
        else {
            "requested_ratio": selection.requested_ratio,
            "achieved_ratio": selection.achieved_ratio,
            "normals_kept": len(selection.selected_normals),
            "attacks": len(selection.attacks),
        },
        "params": {
            "vgae": vgae_count_params(vgae_config),
            "gat": gat_count_params(gat_config) if gat_model is not None else None,
        },
        "metrics": {
            "gat_only": gat_only_metrics.to_dict() if gat_only_metrics else None,
            "fused": fused_metrics.to_dict(),
        },
        "vgae_separation": vgae_block,
        "fusion_weights": list(options.fusion_weights),
        "threshold": options.threshold,
        "training": {
            "vgae_epoch_losses": vgae_losses,
            "gat_epoch_losses": gat_log.epoch_losses if gat_log else [],
            "gat_val_f1": gat_log.val_f1 if gat_log else [],
        },
        "lineage": {
            "vgae_train_windows_all_benign": True,  # enforced by train_vgae
            "undersampled_normals_are_rank_prefix": selection is not None,
            "test_scored_after_training": True,
        },
        "timings": {
            "vgae_seconds": vgae_seconds,
            "gat_seconds": gat_seconds,
            "score_seconds": score_seconds,
            "total_seconds": time.perf_counter() - t_run,
        },
    }
    return RunResult(report, scored, vgae_model, gat_model, calibration, selection)


SCORES_HEADER = "window_start_index,truth,vgae_score,vgae_prob,gat_prob,fused_prob,predicted"


def write_scores_csv(scored: list[ScoredWindow], path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(SCORES_HEADER + "\n")
        for s in scored:
            fh.write(
                f"{s.window_start_index},{s.truth},{s.vgae_score!r},{s.vgae_prob!r},"
                f"{s.gat_prob!r},{s.fused_prob!r},{s.predicted}\n"
            )


def read_scores_csv(path) -> list[ScoredWindow]:
    from .errors import ParseError

    out = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != SCORES_HEADER:
            raise ParseError(f"{path}: unexpected scores header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 7:
                raise ParseError("bad scores row", line=lineno)
            out.append(
                ScoredWindow(
                    window_start_index=int(parts[0]),
                    truth=int(parts[1]),
                    vgae_score=float(parts[2]),
                    vgae_prob=float(parts[3]),
                    gat_prob=float(parts[4]),
                    fused_prob=float(parts[5]),
                    predicted=int(parts[6]),
                )
            )
    return out
