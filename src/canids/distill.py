"""Knowledge distillation: compact students learn from frozen teachers.

The classifier student matches the teacher's temperature-softened output
distribution; the autoencoder student matches the teacher's per-node
latent Gaussians through a learned linear projection from the student's
latent space into the teacher's. The whole two-stage pipeline is then
re-executed with the students, including a fresh undersampling pass
driven by the student VGAE's own scores.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError, StateError, require_finite
from .gat import GatClassifier, GatConfig, prepare_graph
from .losses import cross_entropy, kl_categorical
from .optim import Param, count_params, derive_seed, init_params
from .pipeline import PipelineOptions, chronological_split, score_split, train_stages
from .tensor import Tensor, no_grad
from .vgae import LatentState, VgaeConfig, VgaeModel


@dataclass(frozen=True)
class KdConfig:
    temperature: float = 4.0
    hard_weight: float = 0.5  # alpha: balance of ground truth vs teacher signal
    tau_squared: bool = True  # rescale the soft term by tau^2 (off for fidelity runs)

    def __post_init__(self):
        require_finite("temperature", self.temperature, positive=True)
        if not 0.0 <= self.hard_weight <= 1.0:
            raise ConfigError(f"hard_weight must be in [0, 1], got {self.hard_weight}")


def soften(logits, temperature: float) -> Tensor:
    """Temperature-scaled softmax; tau=1 is the ordinary distribution."""
    require_finite("temperature", temperature, positive=True)
    logits = T.as_tensor(logits)
    return T.softmax(logits / float(temperature), axis=-1)


def kd_classifier_loss(student_logits, teacher_logits, hard_label, cfg: KdConfig) -> Tensor:
    """alpha * CE(student, label) + (1-alpha) * tau^2 * KL(soft student || soft teacher).

    For (num_graphs, 2) logits and one label per row, the mean over rows.
    """
    student_logits = T.as_tensor(student_logits)
    teacher_logits = T.as_tensor(teacher_logits)
    if student_logits.shape != teacher_logits.shape:
        raise DimensionError(
            f"kd_classifier_loss: logit arity mismatch {student_logits.shape} vs {teacher_logits.shape}"
        )
    a, tau = cfg.hard_weight, cfg.temperature
    hard = cross_entropy(student_logits, hard_label)
    soft = kl_categorical(soften(student_logits, tau), soften(teacher_logits.detach(), tau))
    if cfg.tau_squared:
        soft = (tau * tau) * soft
    return a * hard + (1.0 - a) * soft


class LatentProjection:
    """Learned linear maps from student latent space to the teacher's."""

    def __init__(self, student_dim: int, teacher_dim: int, seed: int = 0):
        self.table = init_params(derive_seed(seed, 41), {
            "proj.mu_weight": (student_dim, teacher_dim),
            "proj.mu_bias": (teacher_dim,),
            "proj.ls_weight": (student_dim, teacher_dim),
            "proj.ls_bias": (teacher_dim,),
        })

    def params(self) -> list[Param]:
        return list(self.table.values())

    def apply(self, latent: LatentState) -> tuple[Tensor, Tensor]:
        t = self.table
        mu = latent.mu @ t["proj.mu_weight"].tensor + t["proj.mu_bias"].tensor
        log_sigma = latent.log_sigma @ t["proj.ls_weight"].tensor + t["proj.ls_bias"].tensor
        return mu, log_sigma


def kd_latent_loss(
    student_latent: LatentState, teacher_latent: LatentState, projection: LatentProjection, batch=None
) -> Tensor:
    """Per-node KL(projected student Gaussian || teacher Gaussian), node-averaged.

    With a GraphBatch, averaged over each window's nodes, then over windows.
    """
    if student_latent.mu.shape[0] != teacher_latent.mu.shape[0]:
        raise DimensionError(
            f"kd_latent_loss: node counts differ "
            f"({student_latent.mu.shape[0]} vs {teacher_latent.mu.shape[0]})"
        )
    mu_s, ls_s = projection.apply(student_latent)
    mu_t = teacher_latent.mu.detach()
    ls_t = teacher_latent.log_sigma.detach()
    # KL(N(mu_s, s^2) || N(mu_t, t^2)) per dimension, summed, then node-averaged
    var_ratio = T.exp(2.0 * (ls_s - ls_t))
    delta = (mu_s - mu_t) ** 2 * T.exp(-2.0 * ls_t)
    per_node = (ls_t - ls_s + 0.5 * (var_ratio + delta) - 0.5).sum(axis=1)
    if batch is None:
        return per_node.mean()
    return T.segment_mean(per_node, batch.graph_index, batch.node_counts).mean()


def _param_checksum(values: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(values):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(values[name]).tobytes())
    return digest.hexdigest()


@dataclass
class DistillResult:
    student_vgae: VgaeModel
    student_gat: GatClassifier
    projection: LatentProjection
    report: dict
    scored_student: list | None = None


def distill_pipeline(
    train_graphs,
    teacher_vgae: VgaeModel,
    teacher_gat: GatClassifier,
    student_vgae_config: VgaeConfig,
    student_gat_config: GatConfig,
    kd: KdConfig,
    seed: int,
    options=None,
    test_graphs=None,
) -> DistillResult:
    """Re-run both stages with students guided by the frozen teachers.

    Stage 1 trains the student VGAE with its ELBO plus (1 - alpha) times
    the latent KL to the teacher; undersampling is then recomputed from
    the student's scores. Stage 2 trains the student GAT under the
    combined soft/hard loss. A training split without attack windows
    raises StateError before any training. With ``test_graphs``, the
    report carries paired teacher/student test metrics for the
    comparison table.
    """
    opts = options or PipelineOptions()
    t_start = time.perf_counter()
    teacher_vgae_sum = _param_checksum(teacher_vgae.param_values())
    teacher_gat_sum = _param_checksum(teacher_gat.param_values())

    train_part, val_part = chronological_split(train_graphs, opts.val_frac)
    if not any(g.label == 1 for g in train_part):
        raise StateError("distill: no attack windows in the training split; stage 2 needs both classes")

    projection = LatentProjection(student_vgae_config.latent_dim, teacher_vgae.config.latent_dim, seed=seed)
    # frozen-teacher outputs per window, computed on a batch of one at first use
    teacher_latents: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    teacher_logits: dict[int, np.ndarray] = {}

    def latent_hint(batch, student_latent):
        for g in batch.graphs:
            if g.window_start_index not in teacher_latents:
                with no_grad():
                    latent = teacher_vgae.encode(teacher_vgae.prepare(g))
                teacher_latents[g.window_start_index] = (latent.mu.values, latent.log_sigma.values)
        cached = [teacher_latents[g.window_start_index] for g in batch.graphs]
        teacher = LatentState(
            mu=Tensor(np.concatenate([mu for mu, _ in cached])),
            log_sigma=Tensor(np.concatenate([ls for _, ls in cached])),
            z=None,
        )
        return (1.0 - kd.hard_weight) * kd_latent_loss(student_latent, teacher, projection, batch)

    def kd_loss(model, batch, labels):
        for g in batch.graphs:
            if g.window_start_index not in teacher_logits:
                with no_grad():
                    _, logits, _ = teacher_gat.forward(prepare_graph(g))
                teacher_logits[g.window_start_index] = logits.values[0]
        logits_t = np.stack([teacher_logits[g.window_start_index] for g in batch.graphs])
        _, s_logits, _ = model.forward(batch)
        return kd_classifier_loss(s_logits, logits_t, labels, kd)

    stages = train_stages(
        train_part, val_part, student_vgae_config, student_gat_config, seed, opts,
        vgae_extra_loss=latent_hint, vgae_extra_params=projection.params(), gat_loss=kd_loss,
    )

    if _param_checksum(teacher_vgae.param_values()) != teacher_vgae_sum:
        raise ConfigError("teacher VGAE parameters changed during distillation")
    if _param_checksum(teacher_gat.param_values()) != teacher_gat_sum:
        raise ConfigError("teacher GAT parameters changed during distillation")

    comparison = None
    scored_student = None
    if test_graphs is not None:
        _, _, teacher_metrics = score_split(teacher_vgae, teacher_gat, val_part, test_graphs, seed, opts)
        _, scored_student, student_metrics = score_split(stages.vgae, stages.gat, val_part, test_graphs, seed, opts)
        comparison = {"teacher": teacher_metrics, "student": student_metrics}

    gat_teacher_n = count_params(teacher_gat.config)
    gat_student_n = count_params(student_gat_config)
    report = {
        "seed": seed,
        "kd": dataclasses.asdict(kd),
        "params": {
            "gat_teacher": gat_teacher_n,
            "gat_student": gat_student_n,
            "gat_ratio": gat_student_n / gat_teacher_n,
            "vgae_teacher": count_params(teacher_vgae.config),
            "vgae_student": count_params(student_vgae_config),
        },
        "undersampling": stages.selection.summary(),
        "teacher_checksums_unchanged": True,
        "metrics": comparison,
        "training": stages.training(),
        "timings": {**stages.timings, "total_seconds": time.perf_counter() - t_start},
    }
    return DistillResult(stages.vgae, stages.gat, projection, report, scored_student)
