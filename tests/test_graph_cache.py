"""The bulk graph-cache loader against the line-at-a-time loader it replaced.

``reference_load_graph_cache`` is that loader, kept unchanged as an oracle:
on every valid cache the two return equal graphs (the same node IDs as
Python ints, the same array bytes and dtypes, the same labels and starts),
and on every malformed one both raise ParseError at the same line. The
rules the bulk loader added on top (value ranges, an ID listed once per
window, the tag followed by one space, line 1 for a bad header) are tested
separately, and the mutation sweep carves them out.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import graphs
from canids.errors import ParseError, open_ascii
from canids.graphs import CACHE_MAGIC, WindowGraph, build_windows, load_graph_cache, save_graph_cache
from helpers import per_value_save_graph_cache


def reference_load_graph_cache(path) -> list[WindowGraph]:
    """Read a cache written by save_graph_cache; a malformed record raises ParseError with its line number."""
    with open_ascii(path) as fh:
        header = fh.readline().strip()
        if header != CACHE_MAGIC:
            raise ParseError(f"{path}: not a graph cache (header {header!r})")
        graphs: list[WindowGraph] = []
        lineno = 1
        line = fh.readline()
        lineno += 1
        inf = math.inf  # a local: the edge loop below runs once per edge
        try:
            while line:
                parts = line.split()
                if len(parts) != 5 or parts[0] != "graph":
                    raise ParseError(f"expected graph record, got {line.strip()!r}", line=lineno)
                start, label, n_nodes, n_edges = (int(x) for x in parts[1:])
                node_ids: list[int] = []
                feats = np.empty((n_nodes, 3), dtype=np.float64)
                for j in range(n_nodes):
                    parts = fh.readline().split()
                    lineno += 1
                    if len(parts) != 5 or parts[0] != "node":
                        raise ParseError("expected node record", line=lineno)
                    node_ids.append(int(parts[1]))
                    feats[j] = [float(parts[2]), float(parts[3]), float(parts[4])]
                src = np.empty(n_edges, dtype=np.int64)
                dst = np.empty(n_edges, dtype=np.int64)
                wts = np.empty(n_edges, dtype=np.float64)
                for k in range(n_edges):
                    parts = fh.readline().split()
                    lineno += 1
                    if len(parts) != 4 or parts[0] != "edge":
                        raise ParseError("expected edge record", line=lineno)
                    weight = float(parts[3])
                    if not 0.0 < weight < inf:  # prepare_graph takes log(weight)
                        raise ParseError(f"edge weight must be finite and > 0, got {parts[3]}", line=lineno)
                    src[k], dst[k], wts[k] = int(parts[1]), int(parts[2]), weight
                graphs.append(WindowGraph(node_ids, feats, src, dst, wts, label, start))
                line = fh.readline()
                lineno += 1
        except UnicodeDecodeError:
            raise  # open_ascii names the line
        except ValueError as exc:
            raise ParseError(f"{path}: bad graph cache record ({exc})", line=lineno) from None
    return graphs


def assert_same_graphs(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.node_ids == b.node_ids and all(type(cid) is int for cid in a.node_ids)
        assert (a.label, a.window_start_index) == (b.label, b.window_start_index)
        for name in ("node_features", "edge_src", "edge_dst", "edge_weight"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


def outcome(loader, path):
    """The loaded graphs, or the line number of the ParseError (None if it names no line)."""
    try:
        return loader(path)
    except ParseError as exc:
        return exc.line


# a cache the builder could not write but the grammar allows: a window with no edges, one with no nodes
SMALL = (
    f"{CACHE_MAGIC}\n"
    "graph 0 1 3 4\n"
    "node 790 0.38593063019052267 0.5 0.3333333333333333\n"
    "node 256 0.12506106497313143 0.3333333333333333 0.0\n"
    "node 80 0.03908158280410356 0.16666666666666666 1.0\n"
    "edge 0 1 2.0\n"
    "edge 1 0 1.0\n"
    "edge 0 2 1.0\n"
    "edge 2 2 1.0\n"
    "graph 6 0 1 1\n"
    "node 2047 1.0 1.0 1e-300\n"
    "edge 0 0 5.0\n"
    "graph 12 0 2 0\n"
    "node 0 0.0 0.5 0.25\n"
    "node 5 0.002442598925256473 0.5 -0.0\n"
    "graph 18 1 0 0\n"
)

# read lines one at a time, a few at a time, and about 1 MB at a time
CHUNKS = [1, 64, graphs._CHUNK_CHARS]


@pytest.fixture(params=CHUNKS, ids=lambda c: f"chunk{c}")
def chunk_chars(request, monkeypatch):
    monkeypatch.setattr(graphs, "_CHUNK_CHARS", request.param)
    return request.param


@pytest.mark.parametrize(
    "stride, directed, frames_used",
    [(100, True, slice(None)), (1, True, slice(1500, 3500)), (100, False, slice(None))],
    ids=["stride-W", "stride-1", "undirected"],
)
def test_built_caches_load_as_reference(tmp_path, monkeypatch, mixed_frames, stride, directed, frames_used):
    """Caches as build-graphs writes them: at stride W, at stride 1 (with attack windows) and undirected."""
    p = tmp_path / "g.cache"
    built = list(build_windows(iter(mixed_frames[frames_used]), 100, stride, directed))
    assert save_graph_cache(built, p) == len(built) and {g.label for g in built} == {0, 1}
    want = reference_load_graph_cache(p)
    assert_same_graphs(want, built)
    for chunk in CHUNKS:
        monkeypatch.setattr(graphs, "_CHUNK_CHARS", chunk)
        assert_same_graphs(load_graph_cache(p), want)


@pytest.mark.parametrize(
    "text",
    [
        f"{CACHE_MAGIC}\n",
        f"{CACHE_MAGIC}\r\n",
        SMALL,
        SMALL.replace("\n", "\r\n"),
        SMALL.rstrip("\n"),
        SMALL.replace("node 0 0.0", "node  0   0.0").replace("\n", " \n"),
    ],
    ids=["header-only", "header-only-crlf", "small", "crlf", "no-final-newline", "extra-spaces"],
)
def test_hand_written_caches_load_as_reference(tmp_path, chunk_chars, text):
    p = tmp_path / "g.cache"
    p.write_bytes(text.encode())
    want = reference_load_graph_cache(p)
    assert len(want) == (0 if text.strip() == CACHE_MAGIC else 4)
    assert_same_graphs(load_graph_cache(p), want)


def small_mutations():
    """(name, lines of the mutated cache) for every mutation of SMALL that the sweep tries."""
    lines = SMALL.splitlines(keepends=True)
    for i in range(len(lines) + 1):
        yield f"truncate-after-{i}", lines[:i]
    for i in range(len(lines)):
        yield f"drop-{i}", lines[:i] + lines[i + 1 :]
        yield f"duplicate-{i}", lines[: i + 1] + lines[i:]
    yield "trailing-blank-line", lines + ["\n"]
    for i, line in enumerate(lines[1:], start=1):
        tokens = line.split()

        def edited(new_tokens):
            return lines[:i] + [" ".join(new_tokens) + "\n"] + lines[i + 1 :]

        for j in range(len(tokens) - 1):
            swapped = list(tokens)
            swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
            yield f"swap-{i}-{j}", edited(swapped)
        for j in range(len(tokens)):
            yield f"remove-token-{i}-{j}", edited(tokens[:j] + tokens[j + 1 :])
            if j:
                yield f"non-numeric-{i}-{j}", edited(tokens[:j] + ["x1"] + tokens[j + 1 :])
        yield f"add-token-{i}", edited(tokens + ["1"])
        yield f"insert-token-{i}", edited(tokens[:1] + ["1"] + tokens[1:])
        for tag in ("graph", "node", "edge", "nodes"):
            if tag != tokens[0]:
                yield f"tag-{tag}-{i}", edited([tag] + tokens[1:])
        if tokens[0] == "edge":
            for weight in ("0.0", "inf"):
                yield f"weight-{weight}-{i}", edited(tokens[:3] + [weight])


def test_mutated_caches_fail_at_the_reference_line(tmp_path, chunk_chars):
    p = tmp_path / "g.cache"
    failures = 0
    for name, lines in small_mutations():
        p.write_text("".join(lines))
        want = outcome(reference_load_graph_cache, p)
        if name.startswith("swap-"):
            i = int(name.split("-")[1])
            tokens = lines[i].split()
            if tokens[0] == "graph" and tokens[2] not in ("0", "1"):
                want = i + 1  # a label outside {0, 1} is a new rule; the reference reads it as a label
        if lines[:1] != [f"{CACHE_MAGIC}\n"]:
            want = 1  # the reference names no line for a wrong or missing header
        if name.startswith("duplicate-"):
            i = int(name.split("-")[1])
            if lines[i].startswith("node ") and lines[i + 2].startswith("node "):
                want = i + 2  # a repeated ID is a new rule: the copy fails, not a record after it
        got = outcome(load_graph_cache, p)
        if isinstance(want, list):
            assert isinstance(got, list), f"{name}: ParseError at line {got}, the reference loads it"
            assert_same_graphs(got, want)
        else:
            assert got == want, name
            failures += 1
    assert failures > 150  # most mutations break the cache


@pytest.mark.parametrize(
    "edit",
    [
        lambda line: line.replace(line.split()[2], "x1", 1),
        lambda line: "",
        lambda line: line + line,
        lambda line: line.split()[0] + "\n",
    ],
    ids=["non-numeric", "drop", "duplicate", "tag-only"],
)
def test_bad_line_after_many_chunks_fails_at_the_reference_line(tmp_path, monkeypatch, mixed_graphs, edit):
    monkeypatch.setattr(graphs, "_CHUNK_CHARS", 4096)
    p = tmp_path / "g.cache"
    save_graph_cache(mixed_graphs, p)
    lines = p.read_text().splitlines(keepends=True)
    assert len("".join(lines)) > 30 * 4096
    for at in (len(lines) // 2 - 1, len(lines) // 2, len(lines) - 1):
        bad = lines[:at] + [edit(lines[at])] + lines[at + 1 :]
        p.write_text("".join(bad))
        want = outcome(reference_load_graph_cache, p)
        assert isinstance(want, int) and want >= at + 1
        assert outcome(load_graph_cache, p) == want


def test_too_large_count_fails_before_the_rest_is_read(tmp_path, monkeypatch, mixed_graphs):
    monkeypatch.setattr(graphs, "_CHUNK_CHARS", 4096)
    p = tmp_path / "g.cache"
    save_graph_cache(mixed_graphs, p)
    lines = p.read_text().splitlines(keepends=True)
    lines[1] = "graph 0 0 100000 0\n"  # the window's edge records would be read as nodes
    p.write_text("".join(lines))
    want = outcome(reference_load_graph_cache, p)
    assert isinstance(want, int)
    tracemalloc.start()
    try:
        assert outcome(load_graph_cache, p) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.stat().st_size, peak  # reading the rest would hold every line


@pytest.mark.parametrize(
    "line_index, line, rule, accepted_before",
    [
        (1, "graph 0 7 3 4", "label must be 0 or 1", True),
        (1, "graph -6 1 3 4", "must be >= 0", True),
        (12, "graph 12 0 -2 0", "must be >= 0", False),
        (12, "graph 12 0 2 -1", "must be >= 0", False),
        (2, "node -5 0.38593063019052267 0.5 0.3333333333333333", "node ID must be in [0, 2047]", True),
        (10, "node 2048 1.0 1.0 1e-300", "node ID must be in [0, 2047]", True),
        (3, "node 256 nan 0.3333333333333333 0.0", "node features must be finite", True),
        (4, "node 80 0.03908158280410356 0.16666666666666666 -inf", "node features must be finite", True),
        (5, "edge 57 1 2.0", "edge source must be in [0, num_nodes)", True),
        (7, "edge 3 2 1.0", "edge source must be in [0, num_nodes)", True),
        (8, "edge 2 3 1.0", "edge destination must be in [0, num_nodes)", True),
        (11, "edge 0 -1 5.0", "edge destination must be in [0, num_nodes)", True),
        (1, " graph 0 1 3 4", "expected graph record", True),
        (2, "  node 790 0.38593063019052267 0.5 0.3333333333333333", "expected node record", True),
        (6, "\tedge 1 0 1.0", "expected edge record", True),
        (9, "graph\t6 0 1 1", "expected graph record", True),
        (10, "node\t2047 1.0 1.0 1e-300", "expected node record", True),
        (11, "edge\t0 0 5.0", "expected edge record", True),
        (3, "node 790 0.12506106497313143 0.3333333333333333 0.0", "node ID listed twice in one window", True),
        (14, "node 0 0.002442598925256473 0.5 -0.0", "node ID listed twice in one window", True),
    ],
)
def test_new_rules_name_the_line(tmp_path, chunk_chars, line_index, line, rule, accepted_before):
    lines = SMALL.splitlines(keepends=True)
    lines[line_index] = line + "\n"
    p = tmp_path / "g.cache"
    p.write_text("".join(lines))
    with pytest.raises(ParseError, match=re.escape(rule)) as err:
        load_graph_cache(p)
    assert err.value.line == line_index + 1
    assert isinstance(outcome(reference_load_graph_cache, p), list) == accepted_before


def test_memory_peak_close_to_reference(tmp_path, mixed_frames):
    p = tmp_path / "big.cache"
    assert save_graph_cache(build_windows(iter(mixed_frames[:20_003]), 4, 1), p) == 20_000
    assert p.stat().st_size > 2 * graphs._CHUNK_CHARS
    loaded, peaks = {}, {}
    for name, loader in (("reference", reference_load_graph_cache), ("bulk", load_graph_cache)):
        tracemalloc.start()
        try:
            loaded[name] = loader(p)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["bulk"] <= 1.5 * peaks["reference"], peaks
    assert_same_graphs(loaded["bulk"], loaded["reference"])


# ---------------------------------------------------------------- the writer

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308, 1e16,
                  1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 1.0]


# one value that the writer's number tables lack, put in a window whose other values they all hold
TABLE_BREAKS = ["id-0-feature--0.0", "feature-ulp-off", "weight-0.5", "weight-2048", "weight-1e16", "nan-feature",
                "id-4095"]


@st.composite
def cache_graphs(draw):
    """A few windows as the builder makes them, with ID features ``id / 2047`` (IDs 0 and 2047 among the
    drawn ones) and integral weights in 1..2047, the texts of the writer's tables; and now and then a window
    that breaks the tables in one value (TABLE_BREAKS). The other two features are drawn from one small
    pool of finite floats, so that windows share values; the pool mixes 0.0 and -0.0, subnormals, 1e16 and
    the largest floats."""
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=1, max_size=8))

    def floats(k):
        return draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))

    windows = []
    for start in range(draw(st.integers(0, 5))):
        n = draw(st.integers(0, 4))
        e = draw(st.integers(0, 5)) if n else 0
        ends = st.lists(st.integers(0, n - 1), min_size=e, max_size=e) if n else st.just([])
        ids = draw(st.lists(st.one_of(st.sampled_from([0, 2047]), st.integers(0, 2047)), min_size=n, max_size=n,
                            unique=True))
        feats = np.array(floats(3 * n), dtype=np.float64).reshape(n, 3)
        feats[:, 0] = np.array(ids, dtype=np.int64) / 2047
        weights = np.array(draw(st.lists(st.integers(1, 2047), min_size=e, max_size=e)), dtype=np.float64)
        brk = draw(st.sampled_from(TABLE_BREAKS + [None] * 10)) if n else None
        if brk == "id-0-feature--0.0":
            if 0 not in ids:
                ids[0] = 0
            feats[ids.index(0), 0] = -0.0
        elif brk == "feature-ulp-off":
            feats[0, 0] = np.nextafter(feats[0, 0], draw(st.sampled_from([-np.inf, np.inf])))
        elif brk == "nan-feature":
            feats[0, draw(st.integers(0, 2))] = np.nan
        elif brk == "id-4095":
            ids[0] = 4095
            feats[0, 0] = 4095 / 2047
        elif brk is not None and e:
            weights[draw(st.integers(0, e - 1))] = {"weight-0.5": 0.5, "weight-2048": 2048.0, "weight-1e16": 1e16}[brk]
        windows.append(WindowGraph(
            node_ids=ids,
            node_features=feats,
            edge_src=np.array(draw(ends), dtype=np.int64),
            edge_dst=np.array(draw(ends), dtype=np.int64),
            edge_weight=weights,
            label=draw(st.integers(0, 1)),
            window_start_index=10 * start,
        ))
    return windows


@given(cache_graphs(), st.sampled_from([1, 2, graphs._WRITE_WINDOWS]))
@settings(max_examples=300, deadline=None)
def test_writer_writes_the_bytes_of_a_per_value_repr_writer(tmp_path_factory, windows, group):
    """Windows written a group at a time: a group's column takes the tables' texts or, if they lack one of its
    values, the formatter's."""
    root = tmp_path_factory.mktemp("writer")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_WRITE_WINDOWS", group)
        assert save_graph_cache(iter(windows), root / "got.cache") == len(windows)
    per_value_save_graph_cache(windows, root / "want.cache")
    assert (root / "got.cache").read_bytes() == (root / "want.cache").read_bytes()


@pytest.mark.parametrize(
    "window, stride, directed, frames_used",
    [(100, 100, True, slice(None)), (50, 7, False, slice(None)), (100, 1, True, slice(1500, 3500))],
    ids=["W100", "W50-stride7-undirected", "stride-1"],
)
def test_built_caches_match_the_per_value_writer(tmp_path, mixed_frames, window, stride, directed, frames_used):
    """Caches as build-graphs writes them, whose IDs, ID features and weights are all table texts."""
    built = list(build_windows(iter(mixed_frames[frames_used]), window, stride, directed))
    save_graph_cache(built, tmp_path / "got.cache")
    per_value_save_graph_cache(built, tmp_path / "want.cache")
    assert (tmp_path / "got.cache").read_bytes() == (tmp_path / "want.cache").read_bytes()


def test_cache_longer_than_a_write_group_matches_the_per_value_writer(tmp_path, monkeypatch, mixed_graphs):
    """Windows written 7 at a time, one group with a weight that the tables lack."""
    monkeypatch.setattr(graphs, "_WRITE_WINDOWS", 7)
    windows = list(mixed_graphs[:40])
    odd = windows[10]
    windows[10] = WindowGraph(odd.node_ids, odd.node_features, odd.edge_src, odd.edge_dst,
                              np.concatenate([[0.5], odd.edge_weight[1:]]), odd.label, odd.window_start_index)
    assert save_graph_cache(iter(windows), tmp_path / "got.cache") == 40
    per_value_save_graph_cache(windows, tmp_path / "want.cache")
    assert (tmp_path / "got.cache").read_bytes() == (tmp_path / "want.cache").read_bytes()
    assert b" 0.5\n" in (tmp_path / "got.cache").read_bytes()


def test_floats_of_both_forms_match_the_per_value_writer(tmp_path):
    """Distinct floats that repr writes with an exponent, and those it writes without."""
    window = WindowGraph([1, 2], np.array([[1e-05, 0.5, 1e16], [2.5e-310, 1.5e20, 1e-4]]), np.array([0, 1]),
                         np.array([1, 0]), np.array([3.0, 9999999999999998.0]), 1, 0)
    save_graph_cache([window, window], tmp_path / "got.cache")
    per_value_save_graph_cache([window, window], tmp_path / "want.cache")
    assert (tmp_path / "got.cache").read_bytes() == (tmp_path / "want.cache").read_bytes()
    assert "node 1 1e-05 0.5 1e+16\n" in (tmp_path / "got.cache").read_text()


def test_zero_and_negative_zero_keep_their_own_text(tmp_path):
    window = WindowGraph([1, 2], np.array([[0.0, -0.0, 0.0], [-0.0, 5e-324, -0.0]]), np.array([0, 1]),
                         np.array([1, 0]), np.array([-0.0, 0.0]), 0, 0)
    save_graph_cache([window], tmp_path / "z.cache")
    assert (tmp_path / "z.cache").read_text().splitlines()[1:] == [
        "graph 0 0 2 2", "node 1 0.0 -0.0 0.0", "node 2 -0.0 5e-324 -0.0", "edge 0 1 -0.0", "edge 1 0 0.0"]


# ---------------------------------------------------------------- the reader's number tables

# texts that the writer never writes for an ID, a node index or an edge count, and so that the tables lack;
# each converts (or fails to) as np.array converts it
ODD_TEXTS = ["05", "+5", "1_0", "2048", "1e0", "3.00", "-0.0", "2048.0", "-0", "x1", "nan", "0.0", "1.5"]


@st.composite
def table_texts(draw, table: dict):
    """A text of ``table``, or one that the tables lack: an odd text, or a key of ``table`` with one digit changed."""
    keys = list(table)
    key = keys[draw(st.integers(0, len(keys) - 1))]
    kind = draw(st.sampled_from(["table"] * 8 + ["odd", "digit"]))
    if kind == "odd":
        return draw(st.sampled_from(ODD_TEXTS))
    digits = [k for k, c in enumerate(key) if c.isdigit()]
    if kind == "digit" and digits:
        at = draw(st.sampled_from(digits))
        return key[:at] + draw(st.sampled_from("0123456789")) + key[at + 1 :]
    return key


@st.composite
def table_caches(draw):
    """A cache text whose IDs, node indexes, ID features and edge weights mix texts of the reader's tables
    with texts that they lack."""
    ints, id_feats, counts = graphs._number_tables()
    lines = [CACHE_MAGIC]
    for start in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 4))
        e = draw(st.integers(0, 4)) if n else 0
        lines.append(f"graph {10 * start} {draw(st.integers(0, 1))} {n} {e}")
        indexes = {str(i): i for i in range(n)}
        for _ in range(n):
            lines.append(f"node {draw(table_texts(ints))} {draw(table_texts(id_feats))} 0.25 0.5")
        for _ in range(e):
            lines.append(f"edge {draw(table_texts(indexes))} {draw(table_texts(indexes))} "
                         f"{draw(table_texts(counts))}")
    return "\n".join(lines) + "\n"


def test_number_tables_hold_the_texts_that_str_and_repr_spell():
    """The reader's tables, which are the writer's texts, hold ``str`` of each CAN ID, the ``repr`` of each
    ID feature and the text of each integral edge count from 1, in that order."""
    ids = range(2048)
    want = ({str(i): i for i in ids}, {repr(i / 2047): i / 2047 for i in ids}, {f"{k}.0": float(k) for k in ids[1:]})
    for got, table in zip(graphs._number_tables(), want):
        assert list(got.items()) == list(table.items())
        assert all(type(value) is type(table[text]) for text, value in got.items())


def test_every_table_value_takes_the_table_text(monkeypatch):
    """The writer finds each value of a table in it, in any order: no float of a table goes to the formatter."""
    tables = graphs._number_texts()
    monkeypatch.setattr(graphs, "repr_rows", None)  # the formatter of the values outside the tables
    for table in tables:
        order = np.random.default_rng(0).permutation(len(table.values))
        assert graphs._text_rows(table.values[order], table).tobytes() == table.rows[order].tobytes()


def test_number_tables_hold_what_their_texts_convert_to():
    for table, dtype in zip(graphs._number_tables(), (np.int64, np.float64, np.float64)):
        got = np.array(list(table.values()), dtype=dtype)
        assert np.array(list(table), dtype=dtype).tobytes() == got.tobytes()


@given(table_caches(), st.sampled_from(CHUNKS))
@settings(max_examples=300, deadline=None)
def test_tables_change_no_loaded_graph_and_no_error(tmp_path_factory, text, chunk):
    """Loading with the reader's number tables and with empty tables gives the same graphs, or the same
    ParseError at the same line."""
    p = tmp_path_factory.mktemp("tables") / "g.cache"
    p.write_text(text)

    def load():
        try:
            return load_graph_cache(p)
        except ParseError as exc:
            return str(exc), exc.line

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_CHUNK_CHARS", chunk)
        with_tables = load()
        mp.setattr(graphs, "_number_tables", lambda: ({}, {}, {}))
        without = load()
    if isinstance(without, tuple):
        assert with_tables == without
    else:
        assert_same_graphs(with_tables, without)
