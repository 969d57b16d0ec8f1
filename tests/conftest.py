import os

# one BLAS thread, set before numpy loads: trained bits depend on OpenBLAS's thread count,
# and the goldens are recorded at the count bench/run.py uses
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from canids.graphs import build_windows
from canids.synth import AttackKind, AttackSpec, EcuSpec, generate_synthetic_log

THREE_ECUS = [EcuSpec(0x100, 0.01, 1), EcuSpec(0x200, 0.013, 2), EcuSpec(0x50, 0.02, 3)]


@pytest.fixture(scope="session")
def benign_frames():
    return generate_synthetic_log(THREE_ECUS, 45.0, rng_seed=1)


@pytest.fixture(scope="session")
def benign_graphs(benign_frames):
    return list(build_windows(iter(benign_frames), 100))


@pytest.fixture(scope="session")
def mixed_frames():
    attacks = [
        AttackSpec(AttackKind.DOS, 8.0, 2.0, 800.0),
        AttackSpec(AttackKind.FUZZING, 20.0, 2.0, 400.0),
        AttackSpec(AttackKind.SPOOFING, 32.0, 2.0, 300.0, target_id=0x200),
        AttackSpec(AttackKind.DOS, 48.0, 2.0, 800.0),
        AttackSpec(AttackKind.FUZZING, 62.0, 2.0, 400.0),
        AttackSpec(AttackKind.SPOOFING, 74.0, 2.0, 300.0, target_id=0x200),
    ]
    return generate_synthetic_log(THREE_ECUS, 84.0, attacks, rng_seed=2)


@pytest.fixture(scope="session")
def mixed_graphs(mixed_frames):
    return list(build_windows(iter(mixed_frames), 100))
