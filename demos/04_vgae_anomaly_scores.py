"""Train the autoencoder on benign windows only and score everything.

The composite anomaly score weighs three reconstruction errors:
1.0 * node-feature MSE + 20.0 * neighborhood BCE + 0.3 * CAN-ID
cross-entropy. Attack windows, which the model never saw, reconstruct
worse on all three.
"""

import numpy as np

from canids.graphs import build_windows
from canids.pipeline import roc_auc
from canids.synth import AttackKind, AttackSpec, EcuSpec, generate_synthetic_log
from canids.vgae import CompositeWeights, VgaeConfig, train_vgae

ecus = [EcuSpec(0x110, 0.004, 1), EcuSpec(0x220, 0.008, 2), EcuSpec(0x330, 0.015, 3)]
attacks = [
    AttackSpec(AttackKind.DOS, 30.0, 2.0, 900.0),
    AttackSpec(AttackKind.FUZZING, 45.0, 2.0, 500.0),
]
frames = generate_synthetic_log(ecus, 60.0, attacks, rng_seed=11)
graphs = list(build_windows(frames, 100))
benign = [g for g in graphs if g.label == 0]
print(f"{len(graphs)} windows, {len(graphs) - len(benign)} with attacks")

model, losses = train_vgae(benign[:150], VgaeConfig.student(), seed=11, epochs=30)
print(f"ELBO mean loss: {losses[0]:.3f} -> {losses[-1]:.3f} over {len(losses)} epochs")

weights = CompositeWeights()  # alpha=1.0, beta=20.0, gamma=0.3
scores = model.score_batch(graphs, weights, seed=11)
labels = [g.label for g in graphs]
att = [s for s, l in zip(scores, labels) if l == 1]
ben = [s for s, l in zip(scores, labels) if l == 0]
print(f"mean score  benign {np.mean(ben):.3f}   attack {np.mean(att):.3f}")
print(f"ROC-AUC: {roc_auc(scores, labels):.4f}")

# ranking benign windows by score picks the hardest ones for stage 2
ranked = model.reconstruction_rank(benign, weights, seed=11)
print("hardest benign windows:", [g.window_start_index for g in ranked[:5]])

# the three error terms behind the score of one benign and one attack window
for g in (benign[0], next(g for g in graphs if g.label == 1)):
    e_node, e_neighbor, e_canid = (t[0] for t in model.error_terms(g, seed=11))
    print(f"window {g.window_start_index} (label {g.label}): "
          f"E_node {e_node:.4f}  E_neighbor {e_neighbor:.4f}  E_CAN_ID {e_canid:.4f}")
