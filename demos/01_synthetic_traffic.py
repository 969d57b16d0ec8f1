"""Generate labeled CAN traffic and look at what each attack does to it.

The generator merges periodic per-ECU schedules (with timestamp jitter)
and injects attack frames inside configured windows: DoS floods the
highest-priority ID 0, fuzzing sprays random IDs and payloads, spoofing
forges one ECU's frames with out-of-distribution payload bytes, and
replay re-emits previously recorded frames.
"""

from collections import Counter

from canids.canlog import Label, decode_generic_labeled_csv, read_frame_log, write_car_hacking_csv
from canids.synth import AttackKind, AttackSpec, EcuSpec, generate_synthetic_log

ecus = [
    EcuSpec(can_id=0x110, period=0.005, payload_seed=1),
    EcuSpec(can_id=0x220, period=0.010, payload_seed=2),
    EcuSpec(can_id=0x330, period=0.020, payload_seed=3),
]
attacks = [
    AttackSpec(AttackKind.DOS, start_time=5.0, duration=1.0, injection_rate=1000.0),
    AttackSpec(AttackKind.FUZZING, start_time=10.0, duration=1.0, injection_rate=500.0),
    AttackSpec(AttackKind.SPOOFING, start_time=15.0, duration=1.0, injection_rate=300.0, target_id=0x220),
    AttackSpec(AttackKind.REPLAY, start_time=20.0, duration=1.0, injection_rate=200.0, target_id=0x330),
]

frames = generate_synthetic_log(ecus, duration=25.0, attacks=attacks, rng_seed=7)
n_attack = sum(1 for f in frames if f.label == Label.ATTACK)
print(f"{len(frames)} frames, {n_attack} injected ({100 * n_attack / len(frames):.1f}%)")

print("\nframes per CAN ID:")
for cid, count in Counter(f.can_id for f in frames).most_common(6):
    print(f"  0x{cid:03x}: {count}")

# payload separation is what makes spoofing detectable: benign bytes stay
# low, spoofed bytes live in a disjoint high range
by_label = {Label.BENIGN: [], Label.ATTACK: []}
for f in frames:
    if f.can_id == 0x220 and f.payload:
        by_label[f.label].append(sum(f.payload) / len(f.payload))
print(f"\nmean payload byte on 0x220:  benign {sum(by_label[Label.BENIGN]) / len(by_label[Label.BENIGN]):.1f}"
      f"  spoofed {sum(by_label[Label.ATTACK]) / len(by_label[Label.ATTACK]):.1f}")

write_car_hacking_csv(frames, "demo_traffic.csv")
print("\nwrote demo_traffic.csv (canonical timestamp,ID,DLC,DATA...,flag layout)")

# other public datasets lay their columns out in other ways; decode_generic_labeled_csv reads a layout from
# its column map, here with the label first and the ID in decimal, and read_frame_log makes its blocks one log
with open("demo_traffic_generic.csv", "w") as fh:
    for f in frames:
        fields = [str(int(f.label)), repr(f.timestamp), str(f.can_id), str(f.dlc), *(f"{b:02x}" for b in f.payload)]
        fh.write(",".join(fields) + "\n")
column_map = {"label": 0, "timestamp": 1, "id": 2, "dlc": 3, "data": 4}
again = read_frame_log(decode_generic_labeled_csv("demo_traffic_generic.csv", column_map, frozenset({"1"}), id_base=10))
print(f"wrote demo_traffic_generic.csv and read back {len(again)} frames, the same: {list(again) == list(frames)}")
