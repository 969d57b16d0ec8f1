"""Turn a frame stream into window graphs and inspect their structure.

Every 100 consecutive frames become one graph: nodes are the distinct CAN
IDs seen in the window, edges link the IDs of consecutive frames with
multiplicity weights (self-edges included), and each node carries
[id/2047, frequency, mean payload/255]. Edge weights always sum to W-1.
"""

from canids.graphs import build_windows, feature_stats
from canids.synth import AttackKind, AttackSpec, EcuSpec, generate_synthetic_log

ecus = [EcuSpec(0x110, 0.005, 1), EcuSpec(0x220, 0.010, 2), EcuSpec(0x330, 0.020, 3)]
attacks = [AttackSpec(AttackKind.DOS, 5.0, 1.0, 1000.0)]
frames = generate_synthetic_log(ecus, 12.0, attacks, rng_seed=7)

graphs = list(build_windows(frames, window_size=100))
print("dataset:", feature_stats(graphs))

benign = next(g for g in graphs if g.label == 0)
flooded = next(g for g in graphs if g.label == 1)

for tag, g in [("benign", benign), ("DoS", flooded)]:
    print(f"\n{tag} window at frame {g.window_start_index}:")
    print(f"  nodes: {[hex(i) for i in g.node_ids]}")
    print(f"  edge weight sum: {g.edge_weight.sum():.0f} (= W-1)")
    for j, cid in enumerate(g.node_ids):
        nid, freq, payload = g.node_features[j]
        print(f"  0x{cid:03x}: freq {freq:.2f}  mean payload {payload:.2f}")

# the DoS window is dominated by ID 0: one node absorbs most of the
# frequency mass and a heavy self-edge appears
heavy = max(flooded.edges(), key=lambda e: e[2])
src, dst, w = heavy
print(f"\nheaviest DoS edge: 0x{flooded.node_ids[src]:03x} -> 0x{flooded.node_ids[dst]:03x} weight {w:.0f}")
