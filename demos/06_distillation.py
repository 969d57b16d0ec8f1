"""Compress both models into students that keep the teacher's behavior.

The classifier student minimizes alpha * CE(labels) +
(1-alpha) * tau^2 * KL(softened student || softened teacher); the
autoencoder student adds a latent-space KL to the teacher's per-node
Gaussians through a learned projection. The whole two-stage framework is
re-executed: the student VGAE re-ranks and re-undersamples before the
student GAT trains.
"""

from canids.distill import KdConfig, distill_pipeline
from canids.gat import GatConfig
from canids.graphs import build_windows
from canids.pipeline import PipelineOptions, run_two_stage
from canids.synth import AttackKind, AttackSpec, EcuSpec, generate_synthetic_log
from canids.vgae import VgaeConfig

ecus = [EcuSpec(0x110, 0.004, 1), EcuSpec(0x220, 0.008, 2), EcuSpec(0x330, 0.015, 3)]
train_attacks = [
    AttackSpec(AttackKind.DOS, 15.0, 2.0, 900.0),
    AttackSpec(AttackKind.FUZZING, 40.0, 2.0, 500.0),
    AttackSpec(AttackKind.DOS, 70.0, 2.0, 900.0),
    AttackSpec(AttackKind.FUZZING, 95.0, 2.0, 500.0),
]
test_attacks = [
    AttackSpec(AttackKind.DOS, 10.0, 1.5, 900.0),
    AttackSpec(AttackKind.FUZZING, 25.0, 1.5, 500.0),
]
train = list(build_windows(generate_synthetic_log(ecus, 110.0, train_attacks, rng_seed=21), 100))
test = list(build_windows(generate_synthetic_log(ecus, 35.0, test_attacks, rng_seed=22), 100))

options = PipelineOptions(vgae_epochs=25, gat_epochs=30)
print("training teachers...")
teachers = run_two_stage(train, test, VgaeConfig.teacher(), GatConfig.teacher(), seed=21, options=options)

print("distilling students (tau=4.0, alpha=0.5)...")
result = distill_pipeline(
    train,
    teachers.vgae_model,
    teachers.gat_model,
    VgaeConfig.student(),
    GatConfig.student(),
    KdConfig(temperature=4.0, hard_weight=0.5),
    seed=21,
    options=options,
    test_graphs=test,
)

r = result.report
print(f"\nclassifier parameters: teacher {r['params']['gat_teacher']:,} "
      f"-> student {r['params']['gat_student']:,} "
      f"({100 * r['params']['gat_ratio']:.2f}% of the teacher)")
print(f"teacher test F1: {r['metrics']['teacher']['gat_only']['f1']:.4f}")
print(f"student test F1: {r['metrics']['student']['gat_only']['f1']:.4f}")
print(f"teacher weights untouched: {r['teacher_checksums_unchanged']}")
