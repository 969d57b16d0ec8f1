import array
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canids import canlog, graphs
from canids.canlog import CanFrame, FrameBlock, Label
from canids.errors import ConfigError, ParseError, StateError
from canids.graphs import build_block_windows, build_windows, feature_stats, load_graph_cache, save_graph_cache
from canids.synth import generate_synthetic_log
from helpers import assert_bit_identical, brute_force_windows, loop_windows, random_frames, windows_sha256

ROOT = Path(__file__).resolve().parent.parent


def frames_from_ids(ids, label_at=()):
    return [
        CanFrame(0.001 * i, cid, 2, (10, 20), Label.ATTACK if i in label_at else Label.BENIGN)
        for i, cid in enumerate(ids)
    ]


def test_abab_window_by_hand():
    # consecutive pairs: (A,B), (B,A), (A,B) -> A->B weight 2, B->A weight 1
    a, b = 100, 200
    [g] = list(build_windows(iter(frames_from_ids([a, b, a, b])), 4))
    assert g.node_ids == [a, b]
    assert g.node_features[0, 1] == 0.5 and g.node_features[1, 1] == 0.5
    edges = {(s, d): w for s, d, w in g.edges()}
    assert edges == {(0, 1): 2.0, (1, 0): 1.0}
    assert g.edge_weight.sum() == 3 == 4 - 1


def test_single_id_window_self_edge():
    [g] = list(build_windows(iter(frames_from_ids([5] * 100)), 100))
    assert g.num_nodes == 1
    assert g.node_features[0, 1] == 1.0
    assert g.edges() == [(0, 0, 99.0)]


def test_any_attack_frame_labels_window():
    [g] = list(build_windows(iter(frames_from_ids([1, 2, 3, 4], label_at={2})), 4))
    assert g.label == 1
    [g] = list(build_windows(iter(frames_from_ids([1, 2, 3, 4])), 4))
    assert g.label == 0


def test_feature_values():
    frames = [
        CanFrame(0.0, 2047, 8, (255,) * 8),
        CanFrame(0.1, 0, 0, ()),
        CanFrame(0.2, 2047, 8, (255,) * 8),
    ]
    [g] = list(build_windows(iter(frames), 3))
    assert g.node_features[0, 0] == 1.0  # id 2047 normalized
    assert g.node_features[0, 2] == 1.0  # payload all 0xff
    assert g.node_features[1, 0] == 0.0
    assert g.node_features[1, 2] == 0.0  # dlc=0 contributes nothing


def test_stride_and_trailing_partial_discarded():
    frames = frames_from_ids(list(range(10)))
    graphs = list(build_windows(iter(frames), 4, stride=3))
    assert [g.window_start_index for g in graphs] == [0, 3, 6]


def test_config_errors():
    frames = frames_from_ids([1, 2, 3])
    with pytest.raises(ConfigError):
        list(build_windows(iter(frames), 1))
    with pytest.raises(ConfigError):
        list(build_windows(iter(frames), 3, stride=0))
    with pytest.raises(ConfigError):
        list(build_windows(iter(frames), 3, stride=4))


def test_short_stream_yields_nothing():
    assert list(build_windows(iter(frames_from_ids([1, 2])), 3)) == []


def test_undirected_variant_merges_pairs():
    a, b = 100, 200
    [g] = list(build_windows(iter(frames_from_ids([a, b, a, b])), 4, directed=False))
    edges = {(s, d): w for s, d, w in g.edges()}
    assert edges == {(0, 1): 3.0}
    assert g.edge_weight.sum() == 3


def test_oracle_equivalence_on_random_streams():
    rng = np.random.Generator(np.random.PCG64(99))
    for trial in range(60):
        length = int(rng.integers(2, 301))
        alphabet = rng.choice(2048, size=int(rng.integers(1, 21)), replace=False)
        frames = random_frames(rng, length, alphabet)
        w = int(rng.integers(2, min(length, 120) + 1))
        stride = int(rng.integers(1, w + 1))
        mine = list(build_windows(iter(frames), w, stride))
        ref = brute_force_windows(frames, w, stride)
        assert len(mine) == len(ref)
        for g, (start, (node_ids, feats, edges, label)) in zip(mine, ref):
            assert g.window_start_index == start
            assert g.node_ids == node_ids
            assert np.max(np.abs(g.node_features - feats), initial=0.0) <= 1e-12
            assert {(s, d): w_ for s, d, w_ in g.edges()} == edges
            assert g.label == label
            assert g.edge_weight.sum() == w - 1
            assert abs(g.node_features[:, 1].sum() - 1.0) < 1e-12


@pytest.mark.parametrize("directed", [True, False])
def test_stride_one_windows_equal_windows_built_alone(directed):
    """Nothing carries over from one overlapping window to the next."""
    rng = np.random.Generator(np.random.PCG64(5))
    for trial in range(8):
        alphabet = rng.choice(2048, size=int(rng.integers(1, 12)), replace=False)
        frames = random_frames(rng, int(rng.integers(2, 160)), alphabet)
        w = int(rng.integers(2, min(len(frames), 60) + 1))
        windows = list(build_windows(iter(frames), w, 1, directed))
        assert len(windows) == len(frames) - w + 1
        for start, g in enumerate(windows):
            [alone] = list(build_windows(frames[start : start + w], w, directed=directed))
            assert g.window_start_index == start and alone.window_start_index == 0
            assert g.node_ids == alone.node_ids
            assert g.node_features.tobytes() == alone.node_features.tobytes()
            for name in ("edge_src", "edge_dst", "edge_weight"):
                a, b = getattr(g, name), getattr(alone, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert g.label == alone.label


def assert_same_window(a, b):
    assert a.node_ids == b.node_ids and a.label == b.label
    for name in ("node_features", "edge_src", "edge_dst", "edge_weight"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda k: st.lists(st.integers(0, k - 1), min_size=2, max_size=40)),
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
)
def test_sliding_stride_one_windows_equal_windows_built_alone(id_positions, w, seed):
    # few IDs and short windows: first appearances of IDs and of transitions move at almost every step
    rng = np.random.Generator(np.random.PCG64(seed))
    frames = [
        CanFrame(0.001 * i, 0x100 + 7 * k, dlc, tuple(int(b) for b in rng.integers(0, 256, size=dlc)), label)
        for i, k in enumerate(id_positions)
        for dlc, label in [(int(rng.integers(0, 9)), Label.ATTACK if rng.uniform() < 0.1 else Label.BENIGN)]
    ]
    windows = list(build_windows(iter(frames), w, 1))
    assert len(windows) == max(len(frames) - w + 1, 0)
    for start, g in enumerate(windows):
        [alone] = list(build_windows(frames[start : start + w], w))
        assert g.window_start_index == start
        assert_same_window(g, alone)


def test_determinism_and_first_appearance_order():
    frames = frames_from_ids([7, 3, 7, 9, 3, 7])
    [a] = list(build_windows(iter(frames), 6))
    [b] = list(build_windows(iter(frames), 6))
    assert a.node_ids == b.node_ids == [7, 3, 9]
    assert np.array_equal(a.node_features, b.node_features)


def test_feature_stats(mixed_graphs):
    stats = feature_stats(mixed_graphs)
    assert stats["num_graphs"] == len(mixed_graphs)
    assert 0 < stats["attack_fraction"] < 1
    assert stats["nodes_min"] <= stats["nodes_mean"] <= stats["nodes_max"]
    with pytest.raises(StateError):
        feature_stats([])


def test_feature_stats_label_arithmetic(benign_graphs):
    assert feature_stats(benign_graphs)["attack_fraction"] == 0.0
    two = [benign_graphs[0], benign_graphs[1]]
    two[1].label = 1
    try:
        assert feature_stats(two)["attack_fraction"] == 0.5
    finally:
        two[1].label = 0


def test_cache_round_trip(tmp_path, mixed_graphs):
    p = tmp_path / "graphs.cache"
    save_graph_cache(mixed_graphs[:40], p)
    loaded = load_graph_cache(p)
    assert len(loaded) == 40
    for a, b in zip(mixed_graphs[:40], loaded):
        assert a.node_ids == b.node_ids
        assert np.array_equal(a.node_features, b.node_features)
        assert np.array_equal(a.edge_src, b.edge_src)
        assert np.array_equal(a.edge_weight, b.edge_weight)
        assert (a.label, a.window_start_index) == (b.label, b.window_start_index)
    # save(load(x)) is byte-identical
    q = tmp_path / "again.cache"
    save_graph_cache(loaded, q)
    assert p.read_bytes() == q.read_bytes()


def test_block_builder_equals_loop_oracle_bit_for_bit():
    """build_windows, and build_block_windows over blocks of random sizes, give the loop's windows exactly."""
    rng = np.random.Generator(np.random.PCG64(14))
    for trial in range(40):
        length = int(rng.integers(0, 260))
        alphabet = rng.choice(2048, size=int(rng.integers(1, 24)), replace=False)
        frames = random_frames(rng, length, alphabet)
        w = int(rng.integers(2, 50))
        cuts = np.sort(rng.integers(0, length + 1, size=int(rng.integers(0, 6))))
        blocks = [FrameBlock.from_frames(frames[a:b]) for a, b in zip([0, *cuts], [*cuts, length])]
        for stride in sorted({1, 2, w, int(rng.integers(1, w + 1))}):
            for directed in (True, False):
                expected = loop_windows(frames, w, stride, directed)
                for got in (
                    list(build_windows(iter(frames), w, stride, directed)),
                    list(build_block_windows(iter(blocks), w, stride, directed)),
                ):
                    assert len(got) == len(expected)
                    for g, ref in zip(got, expected):
                        assert_bit_identical(g, ref)
                        assert g.edge_weight.sum() == w - 1


def test_block_builder_groups_windows(monkeypatch):
    """Windows built in several groups of one block equal the loop's."""
    monkeypatch.setattr(graphs, "_GROUP_FRAMES", 7)
    rng = np.random.Generator(np.random.PCG64(3))
    frames = random_frames(rng, 120, rng.choice(2048, size=9, replace=False))
    for stride, directed in ((1, True), (1, False), (3, True), (5, False)):
        got = list(build_block_windows([FrameBlock.from_frames(frames)], 5, stride, directed))
        expected = loop_windows(frames, 5, stride, directed)
        assert len(got) == len(expected)
        for g, ref in zip(got, expected):
            assert_bit_identical(g, ref)


def test_windows_of_more_than_2048_frames_equal_the_loop_oracle():
    """Above W = 2048 edge keys take the radix 2048, the most nodes a window can hold, not W."""
    rng = np.random.Generator(np.random.PCG64(5))
    frames = random_frames(rng, 4500, np.arange(2048))
    frames[:2048] = [f._replace(can_id=int(cid)) for f, cid in zip(frames, rng.permutation(2048))]
    for w, stride, directed in ((2100, 2100, True), (2100, 1500, False), (4400, 4400, True)):
        got = list(build_block_windows([FrameBlock.from_frames(frames)], w, stride, directed))
        expected = loop_windows(frames, w, stride, directed)
        assert len(got) == len(expected) and got[0].num_nodes == 2048
        for g, ref in zip(got, expected):
            assert_bit_identical(g, ref)


def unique_by_first(keys):
    """np.unique's distinct keys, counts and inverse, the groups renumbered in order of first appearance."""
    values, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return values[order], counts[order], rank[inverse.ravel()]


def assert_groups_as_unique(keys):
    keys = np.array(keys, dtype=np.int64)
    expected = [x.tolist() for x in unique_by_first(keys)]
    got = graphs._groups(keys, inverse=True)
    assert [x.dtype for x in got] == [np.int64] * 3 and [x.tolist() for x in got] == expected
    assert [x.tolist() for x in graphs._groups(keys)] == expected[:2]


@given(
    st.lists(st.integers(0, 30), max_size=400),
    st.sampled_from([1, 2047, 1 << 40]),
    st.lists(st.integers(0, 2**63 - 1), max_size=20),
)
@example([], 1, [])
@example([7], 1, [0])
@example([5] * 1000, 1, [2**63 - 1])
@settings(max_examples=300, deadline=None)
def test_groups_equal_unique_by_first_appearance(small, scale, large):
    """Many repeats of small or widely spaced keys, and keys anywhere in [0, 2**63); no key, one key, all
    keys equal and the largest key."""
    assert_groups_as_unique([key * scale for key in small])
    assert_groups_as_unique(large + large[::2])


@pytest.mark.parametrize("n", [2, 1000, 1 << 18])
def test_groups_at_the_packing_bound(monkeypatch, n):
    """Keys up to 2**(63 - bits) - 1 are packed with their positions and sorted; one more takes the stable
    argsort."""
    bits = (n - 1).bit_length()
    rng = np.random.Generator(np.random.PCG64(n))
    top = (1 << (63 - bits)) - 1
    keys = rng.choice([0, 1, top - 1, top], size=n)
    expected = [x.tolist() for x in unique_by_first(keys)]
    with monkeypatch.context() as m:
        m.setattr(np, "argsort", None)  # the packed sort does not call it
        assert [x.tolist() for x in graphs._groups(keys, inverse=True)] == expected
    keys[n // 2] = top + 1
    assert_groups_as_unique(keys)


def seed_201_sha256() -> str:
    """windows_sha256 of the seed-201 training log's windows at W=100 and at W=50, stride 7, undirected."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    log = generate_synthetic_log(workloads.ECUS, workloads.TRAIN_LOG_S, workloads.TRAIN_ATTACKS, rng_seed=(201, 1))
    return windows_sha256([*build_windows(log, 100), *build_windows(log, 50, 7, directed=False)])


# the x86 SIMD targets of numpy 2.4 and of earlier releases; a name numpy does not know is ignored
SIMD_OFF = "X86_V4 X86_V3 AVX512_ICL AVX512_SPR AVX512F AVX512_SKX AVX2"


def test_windows_do_not_depend_on_numpy_simd_dispatch():
    """The seed-201 windows built with numpy's x86 SIMD sorts turned off are the same bytes as those built here."""
    path = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": SIMD_OFF, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import test_graphs; print(test_graphs.seed_201_sha256())"
    off = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert off == seed_201_sha256() + "\n"


def test_block_builder_checks_window_and_stride():
    block = FrameBlock.from_frames(frames_from_ids([1, 2, 3]))
    for w, stride in ((1, None), (3, 0), (3, 4)):
        with pytest.raises(ConfigError):
            list(build_block_windows([block], w, stride))


@pytest.mark.parametrize("stride", [5, 1], ids=["block-path", "stride-one-path"])
@pytest.mark.parametrize(
    "can_id, dlc, payload, message",
    [
        (5000, 2, (1, 2), "can_id 5000 outside 11-bit range"),
        (0x10, 9, (1,) * 9, r"dlc 9 outside \[0, 8\]"),
        (0x10, 2, (1, 2, 3), "payload length 3 does not match dlc 2"),
        (0x10, 2, (1, 300), r"payload byte outside \[0, 255\]"),
    ],
    ids=["id", "dlc", "payload-length", "byte"],
)
def test_frames_out_of_range_rejected_with_their_position(monkeypatch, stride, can_id, dlc, payload, message):
    monkeypatch.setattr(canlog, "_BLOCK_FRAMES", 4)  # the bad frame is in the second block
    frames = [CanFrame(0.01 * k, 0x100 + k % 3, 2, (k, 7)) for k in range(20)]
    frames[7] = CanFrame(0.07, can_id, dlc, payload)
    with pytest.raises(ParseError, match=f"^frame 7: {message}$"):
        list(build_windows(frames, 5, stride))


def windows_or_error(frames, stride):
    try:
        return list(build_windows(frames, 4, stride)), None
    except ParseError as exc:
        return None, str(exc)


@pytest.mark.parametrize(
    "field, value, refused",
    [
        ("can_id", np.True_, "can_id {!r} is not an integer"),
        ("can_id", True, "can_id {!r} is not an integer"),
        ("can_id", np.int64(5), None),
        ("can_id", 5.0, "can_id {!r} is not an integer"),
        ("dlc", True, "dlc {!r} is not an integer"),
        ("dlc", np.True_, "dlc {!r} is not an integer"),
        ("payload", (True,), "payload byte True is not an integer"),
        ("payload", (np.True_,), "payload byte np.True_ is not an integer"),
        ("timestamp", np.float32(0.3), None),
        ("timestamp", np.True_, "timestamp {!r} is not a real number"),
        ("payload", array.array("H", [7]), None),  # its buffer holds 2 bytes a value
        ("label", 1.5, "label 1.5 is not an integer 0 or 1"),
        ("label", "x", "label 'x' is not an integer 0 or 1"),
        ("label", 2, "label 2 is not an integer 0 or 1"),
        ("label", True, "label True is not an integer 0 or 1"),
        ("label", np.int64(1), None),
    ],
    ids=["np-bool-id", "bool-id", "np-int64-id", "float-id", "bool-dlc", "np-bool-dlc", "bool-byte",
         "np-bool-byte", "np-float32-timestamp", "np-bool-timestamp", "uint16-array-payload", "float-label",
         "str-label", "label-2", "bool-label", "np-int64-label"],
)
def test_both_paths_take_or_refuse_a_frame_alike(field, value, refused):
    """A frame list goes through ``checked_frame`` alone at stride W and at stride 1: the same frame is refused
    with the same line on both, and a frame taken on both gives the same windows."""
    frames = [CanFrame(0.1 * i, 5, 1, (7,)) for i in range(10)]
    frames[3] = frames[3]._replace(**{field: value})
    (block, block_error), (stride_one, stride_one_error) = (windows_or_error(frames, stride) for stride in (4, 1))
    assert block_error == stride_one_error == (None if refused is None else f"frame 3: {refused.format(value)}")
    if refused is None:
        assert len(block) == 2 and len(stride_one) == 7
        for a, b in zip(block, stride_one[::4]):
            assert_bit_identical(a, b)


@pytest.mark.parametrize("fields", [4, 6])
def test_both_paths_refuse_a_frame_without_five_fields(fields):
    frames = [CanFrame(0.1 * i, 5, 1, (7,)) for i in range(10)]
    frames[3] = (*frames[3], 0)[:fields]
    for stride in (4, 1):
        with pytest.raises(ParseError, match=f"^frame 3: {fields} fields, not the 5 of a CanFrame$"):
            list(build_windows(frames, 4, stride))
