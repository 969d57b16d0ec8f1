"""The binary graph cache: its layout, exact round trips, and one ParseError for each rule its loader checks.

A cache is the line ``canids-graph-cache v2``, three little-endian int64
counts (windows k, nodes n, edges e) and six little-endian columns: the
(k, 4) int64 ``[start, label, num_nodes, num_edges]`` of each window, the
(n,) int64 CAN IDs, the (n, 3) float64 features, the (e,) int64 sources
and destinations and the (e,) float64 weights. The layout is checked here
against ``struct``, not numpy.
"""

import contextlib
import io
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import canlog, cli, graphs
from canids.canlog import decode_car_hacking_csv, read_frame_log, write_car_hacking_csv
from canids.errors import DimensionError, ParseError
from canids.graphs import (CACHE_MAGIC, WindowColumns, WindowGraph, block_window_columns, build_windows, feature_stats,
                           load_graph_cache, save_graph_cache, window_columns)
from helpers import assert_bit_identical, edited_cache, log_of, random_frames

HEADER = len(CACHE_MAGIC) + 24  # the header line and the three counts
NONE = np.empty(0, dtype=np.int64)


def small_windows():
    """Windows the builder could not make but the loader takes: -0.0 and subnormal features, a window with
    no edges and one with no nodes. 4 windows, 6 nodes, 5 edges."""
    return [
        WindowGraph([790, 256, 80], np.array([[0.38593063019052267, 0.5, 1 / 3], [0.12506106497313143, 1 / 3, -0.0],
                                              [0.03908158280410356, 1 / 6, 5e-324]]),
                    np.array([0, 1, 0, 2]), np.array([1, 0, 2, 2]), np.array([2.0, 1.0, 1.0, 1.0]), 1, 0),
        WindowGraph([2047], np.array([[1.0, 1.0, 1e-310]]), np.array([0]), np.array([0]), np.array([5.0]), 0, 6),
        WindowGraph([0, 5], np.array([[0.0, 0.5, 0.25], [-0.0, 0.5, -0.0]]), NONE, NONE, np.empty(0), 0, 12),
        WindowGraph([], np.empty((0, 3)), NONE, NONE, np.empty(0), 1, 18),
    ]


K, N, E = 4, 6, 5  # windows, nodes and edges of the small cache


def assert_same_graphs(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_bit_identical(a, b)


def small_cache(path, edits=()) -> bytes:
    """Write the small cache to ``path`` with each (column, flat index, value) of ``edits`` written over it."""
    assert save_graph_cache(small_windows(), path) == K
    data = edited_cache(path.read_bytes(), edits)
    path.write_bytes(data)
    return data


def with_counts(data: bytes, k, n, e) -> bytes:
    return edited_cache(data, [("counts", 0, k), ("counts", 1, n), ("counts", 2, e)])


def error_of(path) -> str:
    with pytest.raises(ParseError) as err:
        load_graph_cache(path)
    assert err.value.line is None  # a binary cache has no lines
    return str(err.value)


# ---------------------------------------------------------------- layout and round trips


# the columns of the small cache, as the loader's rules name them
SMALL_COLUMNS = {
    "heads": [0, 1, 3, 4, 6, 0, 1, 1, 12, 0, 2, 0, 18, 1, 0, 0],
    "ids": [790, 256, 80, 2047, 0, 5],
    "feats": [f for g in small_windows() for row in g.node_features.tolist() for f in row],
    "src": [0, 1, 0, 2, 0],
    "dst": [1, 0, 2, 2, 0],
    "weight": [2.0, 1.0, 1.0, 1.0, 5.0],
}


def layout(heads, ids, feats, src, dst, weight) -> bytes:
    """The bytes of a cache of these columns, packed by struct."""
    counts = (len(heads) // 4, len(ids), len(src))
    fmt = f"<3q{len(heads)}q{len(ids)}q{len(feats)}d{len(src)}q{len(dst)}q{len(weight)}d"
    return CACHE_MAGIC + struct.pack(fmt, *counts, *heads, *ids, *feats, *src, *dst, *weight)


def test_layout(tmp_path):
    p = tmp_path / "g.cache"
    assert save_graph_cache(small_windows(), p) == K
    assert CACHE_MAGIC == b"canids-graph-cache v2\n" and p.read_bytes() == layout(**SMALL_COLUMNS)


def test_edited_cache_writes_over_one_value_of_a_column():
    """The helper through which the rule tests break a cache."""
    for column, values in SMALL_COLUMNS.items():
        edited = {**SMALL_COLUMNS, column: values[:-1] + [9]}
        assert edited_cache(layout(**SMALL_COLUMNS), [(column, len(values) - 1, 9)]) == layout(**edited), column


@pytest.mark.parametrize(
    "window, stride, directed, frames_used",
    [(100, 100, True, slice(None)), (100, 1, True, slice(1500, 3500)), (100, 100, False, slice(None)),
     (50, 7, False, slice(None))],
    ids=["W100", "stride-1", "undirected", "W50-stride7-undirected"],
)
def test_built_caches_round_trip(tmp_path, mixed_frames, window, stride, directed, frames_used):
    """Caches as build-graphs writes them, with attack windows; a loaded cache saves to the same bytes."""
    built = list(build_windows(iter(mixed_frames[frames_used]), window, stride, directed))
    p, q = tmp_path / "g.cache", tmp_path / "again.cache"
    assert save_graph_cache(built, p) == len(built) and {g.label for g in built} == {0, 1}
    loaded = load_graph_cache(p)
    assert_same_graphs(loaded, built)
    save_graph_cache(loaded, q)
    assert q.read_bytes() == p.read_bytes()


def test_hand_made_windows_round_trip(tmp_path):
    """-0.0 and subnormal features, a window with no edges and one with no nodes, bit for bit."""
    p = tmp_path / "g.cache"
    small_cache(p)
    loaded = load_graph_cache(p)
    assert_same_graphs(loaded, small_windows())
    assert np.signbit(loaded[2].node_features[1]).tolist() == [True, False, True]
    assert loaded[0].node_features[2, 2] == 5e-324 and loaded[3].num_nodes == 0 and loaded[2].num_edges == 0


def window_of(ids, feature_rows, dst, start=0):
    """A window of these node IDs and feature rows, sources [0, 1], these destinations and weights 1, its edge
    columns given as lists."""
    return WindowGraph(ids, np.zeros((feature_rows, 3)), [0, 1], dst, [1.0, 1.0], 0, start)


@pytest.mark.parametrize(
    "windows, error",
    [
        # without the check the pair wrote a file that loaded, one feature row moved from window 0 to window 1
        ([window_of([1, 2], 3, [1, 0]), window_of([1, 2, 3], 2, [1, 0], 5)],
         r"window 0: node_features must be \(2, 3\) and .* \(2,\), got \(3, 3\), \(2,\), \(2,\), \(2,\)$"),
        ([window_of([1, 2, 3], 2, [1, 0], 5)], r"window 0: node_features must be \(3, 3\) .*, got \(2, 3\), "),
        ([WindowGraph([1, 2], np.zeros((2, 3)), np.array([0, 1]), np.array([1]), np.ones(2), 0, 0)],
         r"window 0: .*, got \(2, 3\), \(2,\), \(1,\), \(2,\)$"),
        ([WindowGraph([1, 2], np.zeros((2, 4)), np.array([0, 1]), np.array([1, 0]), np.ones((2, 1)), 0, 0)],
         r"window 0: .*, got \(2, 4\), \(2,\), \(2,\), \(2, 1\)$"),
    ],
    ids=["rows-moved", "one-short-window", "short-destinations", "wide-columns"],
)
def test_writer_refuses_columns_that_disagree_with_the_counts(tmp_path, windows, error):
    p = tmp_path / "g.cache"
    with pytest.raises(DimensionError, match=error):
        save_graph_cache(windows, p)
    assert not p.exists()


def test_writer_refuses_an_iterator_before_reading_it(tmp_path):
    p, drawn = tmp_path / "g.cache", iter(small_windows())
    with pytest.raises(TypeError):
        save_graph_cache(drawn, p)
    assert not p.exists() and len(list(drawn)) == K


def test_empty_cache_round_trips(tmp_path):
    p = tmp_path / "g.cache"
    assert save_graph_cache([], p) == 0
    assert p.read_bytes() == CACHE_MAGIC + bytes(24)
    assert load_graph_cache(p) == []


def test_loaded_arrays_are_native_and_writable(tmp_path, mixed_graphs):
    p = tmp_path / "g.cache"
    save_graph_cache(mixed_graphs[:30], p)
    for g in load_graph_cache(p):
        assert all(type(cid) is int for cid in g.node_ids)
        for name, dtype in (("node_features", np.float64), ("edge_src", np.int64), ("edge_dst", np.int64),
                            ("edge_weight", np.float64)):
            x = getattr(g, name)
            assert x.dtype == dtype and x.dtype.isnative and x.flags.writeable and x.flags.aligned, name
        g.edge_weight[:] = 1.0  # the views can be written


@st.composite
def windows(draw):
    """Up to 5 windows of up to 4 nodes and 5 edges: any finite features (0.0 and -0.0, subnormals and the
    largest floats among them), any finite weight > 0, any start."""
    out = []
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(0, 4))
        e = draw(st.integers(0, 5)) if n else 0
        ends = st.lists(st.integers(0, max(n - 1, 0)), min_size=e, max_size=e)
        floats = st.floats(allow_nan=False, allow_infinity=False)
        out.append(WindowGraph(
            node_ids=draw(st.lists(st.integers(0, 2047), min_size=n, max_size=n, unique=True)),
            node_features=np.array(draw(st.lists(floats, min_size=3 * n, max_size=3 * n))).reshape(n, 3),
            edge_src=np.array(draw(ends), dtype=np.int64),
            edge_dst=np.array(draw(ends), dtype=np.int64),
            edge_weight=np.array(draw(st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False), min_size=e,
                                               max_size=e)), dtype=np.float64),
            label=draw(st.integers(0, 1)),
            window_start_index=draw(st.integers(0, 2**63 - 1)),
        ))
    return out


@given(windows())
@settings(max_examples=200, deadline=None)
def test_any_valid_windows_round_trip(tmp_path_factory, drawn):
    p = tmp_path_factory.mktemp("cache") / "g.cache"
    assert save_graph_cache(drawn, p) == len(drawn)
    assert_same_graphs(load_graph_cache(p), drawn)


# ---------------------------------------------------------------- the loader's rules, one window each

RULES = [
    # (edits, window, rule, the value shown)
    ([("heads", 4 * 1 + 0, -6)], 1, "window start must be >= 0", "-6"),
    ([("heads", 4 * 0 + 1, 7)], 0, "label must be 0 or 1", "7"),
    ([("heads", 4 * 3 + 1, -1)], 3, "label must be 0 or 1", "-1"),
    ([("heads", 4 * 2 + 2, -2)], 2, "node and edge counts must be >= 0", "-2"),
    ([("heads", 4 * 1 + 3, -1)], 1, "node and edge counts must be >= 0", "-1"),
    ([("ids", 0, -5)], 0, "node ID must be in [0, 2047]", "-5"),
    ([("ids", 3, 2048)], 1, "node ID must be in [0, 2047]", "2048"),
    ([("ids", 1, 790)], 0, "node ID listed twice in one window", "790"),
    ([("ids", 5, 0)], 2, "node ID listed twice in one window", "0"),
    ([("ids", 5, 0), ("ids", 1, 790)], 0, "node ID listed twice in one window", "790"),
    ([("feats", 3 * 1 + 0, math.nan)], 0, "node features must be finite", "nan"),
    ([("feats", 3 * 5 + 2, -math.inf)], 2, "node features must be finite", "-inf"),
    ([("src", 0, 57)], 0, "edge source must be in [0, num_nodes)", "57"),
    ([("src", 4, 1)], 1, "edge source must be in [0, num_nodes)", "1"),
    ([("dst", 2, 3)], 0, "edge destination must be in [0, num_nodes)", "3"),
    ([("dst", 4, -1)], 1, "edge destination must be in [0, num_nodes)", "-1"),
    ([("weight", 0, 0.0)], 0, "edge weight must be finite and > 0", "0.0"),
    ([("weight", 3, -0.0)], 0, "edge weight must be finite and > 0", "-0.0"),
    ([("weight", 1, -1.0)], 0, "edge weight must be finite and > 0", "-1.0"),
    ([("weight", 4, math.nan)], 1, "edge weight must be finite and > 0", "nan"),
    ([("weight", 2, math.inf)], 0, "edge weight must be finite and > 0", "inf"),
    # counts moved between windows keep the sums: window 0 then has 2 nodes, and an edge from its third
    ([("heads", 4 * 0 + 2, 2), ("heads", 4 * 2 + 2, 3)], 0, "edge source must be in [0, num_nodes)", "2"),
]


@pytest.mark.parametrize("edits, window, rule, shown", RULES)
def test_each_rule_names_its_window_and_value(tmp_path, edits, window, rule, shown):
    p = tmp_path / "g.cache"
    small_cache(p, edits)
    assert error_of(p) == f"{p}: window {window}: {rule}, got {shown}"


def test_an_id_may_repeat_in_another_window(tmp_path):
    p = tmp_path / "g.cache"
    small_cache(p, [("ids", 3, 790)])
    assert load_graph_cache(p)[1].node_ids == [790]


def test_window_counts_must_sum_to_the_header(tmp_path):
    p = tmp_path / "g.cache"
    small_cache(p, [("heads", 4 * 0 + 2, 4)])
    assert error_of(p) == f"{p}: the windows hold 7 nodes and 5 edges, the header says 6 and 5"
    small_cache(p, [("heads", 4 * 3 + 3, 1)])
    assert error_of(p) == f"{p}: the windows hold 6 nodes and 6 edges, the header says 6 and 5"


# ---------------------------------------------------------------- header and size


def test_counts_must_fill_the_file_exactly(tmp_path):
    p = tmp_path / "g.cache"
    data = small_cache(p)
    size = len(data)
    for k, n, e in ((K + 1, N, E), (K, N + 1, E), (K, N, E - 1), (-1, N, E), (K, -4, E + 16), (K, N, -(2**63))):
        p.write_bytes(with_counts(data, k, n, e))
        assert error_of(p) == f"{p}: {k} windows, {n} nodes and {e} edges do not fill the cache's {size} bytes"
    for cut in (data[: HEADER - 1], CACHE_MAGIC):
        p.write_bytes(cut)
        assert error_of(p) == f"{p}: graph cache cut short in its counts, {len(cut)} bytes"


def test_every_bit_flip_and_cut_loads_or_is_a_parse_error(tmp_path):
    """No change of one bit, and no cut, of a small cache ends in anything but its graphs or a ParseError."""
    p = tmp_path / "g.cache"
    data = small_cache(p)
    refused = 0
    for at in range(len(data)):
        for bit in range(8):
            flipped = bytearray(data)
            flipped[at] ^= 1 << bit
            p.write_bytes(flipped)
            try:
                load_graph_cache(p)
            except ParseError:
                refused += 1
    for end in range(len(data)):
        p.write_bytes(data[:end])
        with pytest.raises(ParseError):
            load_graph_cache(p)
    assert refused > len(data) * 8 // 3  # most flips of the header, counts, heads and IDs are refused


# ---------------------------------------------------------------- memory


def test_memory_peaks_hold_no_second_copy_of_the_cache(tmp_path, mixed_frames):
    """Saving 20,000 stride-1 windows at W=4 holds one column at a time, and loading them holds the file
    once: the loaded windows' arrays are views of it, not copies beside it."""
    built = list(build_windows(iter(mixed_frames[:20_003]), 4, 1))
    p = tmp_path / "big.cache"
    tracemalloc.start()
    try:
        assert save_graph_cache(built, p) == 20_000
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = load_graph_cache(p)
        retained, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = p.stat().st_size
    assert size > 3_000_000
    # all the columns at once would be the file's size; a copy of the file's bytes beside the loaded columns
    # would leave a transient of the file's size
    assert save_peak < 0.75 * size, (save_peak, size)
    assert load_peak - retained < 0.5 * size, (load_peak, retained, size)
    assert_same_graphs(loaded, built)


# ---------------------------------------------------------------- build-graphs writes the builder's columns


def build_graphs(log, out, w, stride, directed) -> tuple[int, str]:
    """The exit code and stdout of ``canids build-graphs`` on ``log``."""
    argv = ["build-graphs", "--in", str(log), "--out", str(out), "--window", str(w), "--stride", str(stride)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--undirected"] * (not directed))
    return code, stdout.getvalue()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_build_graphs_writes_what_the_windows_of_build_windows_write(tmp_path_factory, data):
    """build-graphs writes the builder's column groups as they are. Its cache bytes and its stdout, less
    timings, equal what save_graph_cache and feature_stats give for the WindowGraphs that build_windows builds
    from the same log, with blocks and groups so small that windows straddle both."""
    w = data.draw(st.integers(2, 12), label="window")
    stride = data.draw(st.sampled_from(sorted({1, min(3, w), w})), label="stride")
    directed = data.draw(st.booleans(), label="directed")
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**32 - 1), label="seed")))
    alphabet = rng.choice(2048, size=data.draw(st.integers(1, 12)), replace=False)
    frames = random_frames(rng, data.draw(st.integers(w, 150), label="frames"), alphabet)
    root = tmp_path_factory.mktemp("routes")
    log, got, expected = root / "log.csv", root / "got.cache", root / "expected.cache"
    write_car_hacking_csv(log_of(frames), log)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(canlog, "_BLOCK_CHARS", data.draw(st.integers(16, 400), label="block chars"))
        patch.setattr(graphs, "_GROUP_FRAMES", data.draw(st.integers(1, 60), label="group frames"))
        windows = list(build_windows(read_frame_log(decode_car_hacking_csv(log)), w, stride, directed))
        save_graph_cache(windows, expected)
        code, stdout = build_graphs(log, got, w, stride, directed)
    assert code == 0 and got.read_bytes() == expected.read_bytes()
    printed = json.loads(stdout)
    del printed["timings"]
    assert printed == json.loads(json.dumps(feature_stats(windows)))


def test_build_graphs_cuts_no_window_and_saves_once(tmp_path, monkeypatch):
    """Inside build-graphs no WindowGraph is made, and save_graph_cache writes every group in one call."""
    rng = np.random.Generator(np.random.PCG64(8))
    log, out = tmp_path / "log.csv", tmp_path / "out.cache"
    write_car_hacking_csv(log_of(random_frames(rng, 400, rng.choice(2048, size=9, replace=False))), log)
    monkeypatch.setattr(canlog, "_BLOCK_CHARS", 512)
    monkeypatch.setattr(graphs, "_GROUP_FRAMES", 40)

    def refused(*args, **kwargs):
        raise AssertionError("a WindowGraph was made")

    monkeypatch.setattr(graphs, "cut_windows", refused)
    monkeypatch.setattr(WindowGraph, "__init__", refused)
    saved = []
    save = cli.save_graph_cache
    monkeypatch.setattr(cli, "save_graph_cache", lambda windows, path: saved.append(list(windows)) or save(windows, path))
    code, stdout = build_graphs(log, out, 10, 3, True)
    assert code == 0
    [groups] = saved
    assert len(groups) > 1 and all(isinstance(group, WindowColumns) for group in groups)
    assert sum(len(group.heads) for group in groups) == json.loads(stdout)["num_graphs"] == (400 - 10) // 3 + 1
    monkeypatch.undo()
    assert load_graph_cache(out)  # a cache the loader takes


def test_window_columns_of_sets_are_those_of_their_windows():
    """The columns of a sequence of WindowColumns are those of the windows cut from them, joined set by set;
    a lone set's own arrays are handed over, and a set whose columns disagree is refused before the counts."""
    rng = np.random.Generator(np.random.PCG64(4))
    block = log_of(random_frames(rng, 300, rng.choice(2048, size=7, replace=False))).block
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "_GROUP_FRAMES", 50)
        sets = list(block_window_columns([block], 6, 2, False))
    windows = [g for columns in sets for g in graphs.cut_windows(*columns)]
    assert len(sets) > 1
    for got, expected in zip(window_columns(sets), window_columns(windows), strict=True):
        assert got == expected if isinstance(got, tuple) else np.array_equal(got, expected) and got.dtype == expected.dtype
    assert feature_stats(sets) == feature_stats(windows)
    assert all(got is own for got, own in zip(list(window_columns(sets[:1]))[1:], sets[0], strict=True))
    short = sets[1]._replace(edge_dst=sets[1].edge_dst[:-1])
    (k, _), (n,), (e,) = short.heads.shape, short.node_ids.shape, short.edge_src.shape
    shapes = re.escape(f"got {(k, 4)}, {(n,)}, {(n, 3)}, {(e,)}, {(e - 1,)}, {(e,)}")
    with pytest.raises(DimensionError, match=f"^window set 1: .*{shapes}$"):
        next(window_columns([sets[0], short]))
    moved = sets[0]._replace(heads=sets[0].heads + [0, 0, 1, -1])
    with pytest.raises(DimensionError, match="^window set 0: "):
        next(window_columns([moved]))
