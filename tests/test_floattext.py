"""floattext.repr_rows against repr, value by value; floattext.joined against a per-row join; the tables."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import floattext
from canids.floattext import joined, repr_rows


def lines(values) -> bytes:
    """The texts of ``repr_rows``, a newline after each."""
    rows = repr_rows(values)
    text = np.concatenate((rows, np.full((len(rows), 1), ord("\n"), dtype=np.uint8)), axis=1)
    return text[text != 0].tobytes()


def reference(values) -> bytes:
    """``repr(float(v))`` of each value, a newline after each."""
    return "".join(f"{v!r}\n" for v in np.asarray(values, dtype=np.float64).ravel().tolist()).encode()


def assert_reprs(values):
    rows = repr_rows(values)
    assert rows.dtype == np.uint8 and rows.ndim == 2 and rows.shape[1] >= 1
    assert len(rows) == np.size(values)
    # NUL-padded to the longest text: a row's text is followed by NULs only
    ends = np.count_nonzero(rows, axis=1)
    assert (rows[np.arange(rows.shape[1]) >= ends[:, None]] == 0).all()
    assert rows.shape[1] == max(1, ends.max(initial=0))
    assert lines(values) == reference(values)


@given(st.lists(st.floats(), max_size=60))
@settings(max_examples=300, deadline=None)
def test_any_floats(values):
    """nan, both infinities, subnormals and -0.0 included: st.floats() draws them all."""
    assert_reprs(np.array(values, dtype=np.float64))


def test_special_values():
    assert_reprs([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 8e-323, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 0.1, -0.1, 1.0, -1.0, 1.5, 0.3, 2 / 3])


def test_powers_of_two_and_their_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_reprs(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    assert_reprs(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))


def test_the_edges_of_the_positional_form():
    """repr writes 1e-4 <= |x| < 1e16 without exponent: each edge and a few ulps on each side, and the
    integers around 2^53, where consecutive floats are 1 and 2 apart."""
    edges = []
    for edge in (1e-4, 1e16, 9999999999999998.0, 2.0**53):
        ulps = [edge]
        for _ in range(4):
            ulps = [np.nextafter(ulps[0], 0.0), *ulps, np.nextafter(ulps[-1], np.inf)]
        edges += ulps
    edges = np.array(edges)
    assert_reprs(np.concatenate([edges, -edges, 2.0**53 + np.arange(-3000, 3000)]))


def test_a_million_values_in_the_positional_range():
    """Random bit patterns whose binary exponent spans 2^-15 .. 2^54, both signs."""
    rng = np.random.Generator(np.random.PCG64(33))
    n = 1 << 20
    exponent = rng.integers(1023 - 15, 1023 + 55, n).astype(np.uint64)
    bits = rng.integers(0, 1 << 52, n, dtype=np.uint64) | (exponent << np.uint64(52))
    bits |= rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63)
    values = bits.view(np.float64)
    assert lines(values) == reference(values)


def test_shapes():
    assert repr_rows(np.empty(0)).shape == (0, 1)
    assert bytes(repr_rows(2.5)[0]) == b"2.5"
    assert lines(np.array([[1.0, -2.0], [0.25, 1e20]])) == b"1.0\n-2.0\n0.25\n1e+20\n"


def test_digit_tables_hold_the_texts_that_percent_04d_writes():
    texts = [b"%04d" % i for i in range(10000)]
    tables = floattext._tables()
    assert tables.groups.tobytes() == b"".join(texts)
    assert tables.zeros.tolist() == [len(text) - len(text.rstrip(b"0")) for text in texts]


texts = st.binary(max_size=6).map(lambda text: text.replace(b"\0", b"a"))


@st.composite
def fields(draw):
    """One to six fields of the same rows: a constant text (bytes) or a text per row (a list); the first is
    a list, so that the rows are known."""
    per_row = st.lists(texts, min_size=(n := draw(st.integers(0, 5))), max_size=n)
    return [draw(per_row), *draw(st.lists(st.one_of(texts, per_row), max_size=5))]


@given(fields())
@settings(max_examples=200, deadline=None)
def test_joined_is_each_rows_texts_one_after_another(fields):
    """Each text per row goes in as an array, NUL-padded to the field's longest."""
    rows = len(fields[0])

    def padded(field):
        width = max(map(len, field), default=0)
        return np.array([list(text.ljust(width, b"\0")) for text in field], dtype=np.uint8).reshape(rows, width)

    got = joined(*(field if isinstance(field, bytes) else padded(field) for field in fields))
    assert got.dtype == np.uint8 and got.ndim == 1
    expected = [b"".join(field if isinstance(field, bytes) else field[r] for field in fields) for r in range(rows)]
    assert got.tobytes() == b"".join(expected)
