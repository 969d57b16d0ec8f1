"""Binary detection metrics: confusion counts, F1 and rank-based AUC; attack is positive."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import StateError


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
        return dataclasses.asdict(self)


def roc_auc(scores, labels) -> float:
    """Rank-based AUC (Mann-Whitney) with tie correction."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos, neg = int((labels == 1).sum()), int((labels == 0).sum())
    if pos == 0 or neg == 0:
        raise StateError("roc_auc needs both classes")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # each run of equal sorted scores, positions first..last, shares the rank 0.5 * (first + last) + 1
    first = np.flatnonzero(np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1])))
    last = np.append(first[1:], len(scores)) - 1
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - pos * (pos + 1) / 2.0) / (pos * neg))
