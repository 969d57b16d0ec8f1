"""The text of many float64 values at once, for the writers of logs and embeddings: ``repr_rows``
writes each value's ``repr``, ``joined`` lays out the writers' rows of texts, and ``DECIMAL`` and
``is_decimal`` are the grammar of what ``repr`` writes, against which the readers check a float's text.

``repr_rows`` finds each value's shortest round-trip digits with
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
in the form of Java's ``DoubleToDecimal``, over uint64 arrays. numpy has
no 128-bit integer, so each 64 x 64 -> 128-bit product is built from
32-bit limbs. The digits are laid out as ``repr`` lays out a value whose
decimal point falls at -3..16 (about 1e-4 <= |x| < 1e16): a gather from
a row of the value's 17 digits and the characters "-", "." and "0".
Zeros, subnormals, non-finite values and the values ``repr`` writes with
an exponent take ``float.__repr__`` one at a time. This also keeps the
text exact where Schubfach's digits differ from ``repr``'s (a subnormal
such as 8e-323, which Schubfach spells 7.9e-323).
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

import numpy as np

_U64 = np.uint64
_M32, _M63 = _U64((1 << 32) - 1), _U64((1 << 63) - 1)
_HIDDEN = _U64(1 << 52)  # the implicit leading bit of a normal significand
_E16 = _U64(10**16)
_E8 = _U64(10**8)
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of the powers of ten 10^-k that Schubfach scales by
# the columns of a source row: NUL, "-", "." and "0", then "000" and the 17 digits of a value
_SIGN, _DOT, _ZERO, _FIRST_DIGIT = 1, 2, 3, 7
_SOURCE = np.frombuffer(b"\0-.0", dtype=np.uint32)[0]
_LEAST_POINT, _MOST_POINT = -3, 16  # the decimal points (0.d1d2... x 10^point) that repr writes without exponent
_POINTS = _MOST_POINT - _LEAST_POINT + 1
_CHUNK = 1 << 13  # values formatted at a time: the arrays of a chunk stay in cache
# what repr(float) writes: an optional "-", digits with at most one ".", an optional exponent;
# each string matches one way only, so a failing match does not backtrack over its digits.
# "nan", "inf" and "-inf" pass here so that the range check names them as non-finite
DECIMAL = r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:e[-+]?[0-9]+)?|nan|-?inf"
is_decimal = re.compile(DECIMAL).fullmatch


class _Tables(NamedTuple):
    """Per biased exponent and spacing (index ``2 * exponent + irregular``): Schubfach's shift ``h`` and
    its 126-bit power of ten ``g = g1 * 2^63 + g0``, as the rows h, g1's 32-bit limbs, g1 and g0's limbs;
    and the decimal exponent ``k``. Then, by number below 10,000, its text as "%04d" writes it and how
    many zeros that text ends with; and the source columns and length of each row kind's text."""

    scaling: np.ndarray  # (6, 4096) uint64
    k: np.ndarray  # (4096,) int64
    groups: np.ndarray  # (10000,) uint32: the four characters of a text
    zeros: np.ndarray  # (10000,) uint8: 4 for 0
    layout: np.ndarray  # (kinds, 24) uint8: the source column of each character
    length: np.ndarray  # (kinds,): the characters of each kind


@functools.cache
def _tables() -> _Tables:
    """Built on first use, as they take a few ms."""
    # the 617 g(k) = floor(10^-k / 2^r) + 1 with 2^125 <= 10^-k / 2^r < 2^126, for every k the exponents need
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        g.append(((10**-k << -r if r < 0 else 10**-k >> r) if k <= 0 else (1 << -r) // 10**k) + 1)
    g = np.array([(v >> 63, v & ((1 << 63) - 1)) for v in g], dtype=_U64)
    q = np.arange(2048, dtype=np.int64) - 1075  # of each biased exponent: the value is c * 2^q
    # regular spacing; and irregular, for c = 2^52 with an exponent above the least
    k = np.stack([_flog10pow2(q), np.where(q > -1074, _flog10pow2(q, three_quarters=True), _flog10pow2(q))], axis=1)
    k = k.ravel()
    h = (np.repeat(q, 2) + _flog2pow10(-k) + 2).astype(_U64)
    g1, g0 = g[k - _K_MIN].T
    # "%04d" of 100 a + b is "%02d" of a, then of b; it ends with the 0s of b's text, and a's if b is 0
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
    groups = np.stack(np.broadcast_arrays(pairs[:, None], pairs), axis=-1).view(np.uint32).ravel()
    tail = (np.arange(100) % 10 == 0).astype(np.uint8) + (np.arange(100) == 0)  # the 0s that "%02d" ends with
    zeros = np.where(tail < 2, tail, 2 + tail[:, None]).ravel()
    return _Tables(np.stack([h, g1 & _M32, g1 >> _U64(32), g1, g0 & _M32, g0 >> _U64(32)]), k, groups, zeros,
                   *_layouts())


def _flog10pow2(e, three_quarters: bool = False):
    """floor(log10(2^e)), or floor(log10(3/4 * 2^e)), for |e| below about 5.4 million."""
    return (e * 661_971_961_083 - (274_743_187_321 if three_quarters else 0)) >> 41


def _flog2pow10(e):
    """floor(log2(10^e)), for |e| below about 1,000."""
    return (e * 913_124_641_741) >> 38


def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """For each row kind ``(negative * 17 + digits - 1) * _POINTS + point - _LEAST_POINT``, the source
    column of each character of repr's positional text, and its length.

    The digits of 0.d1d2... x 10^point take the decimal places point - 1 down; the text runs from place
    ``hi`` (0 for the units) down to place -1 or below, with "." after place 0, and a place without a
    digit is "0"."""
    negative, nd, point, column = np.ix_((0, 1), range(1, 18), range(_LEAST_POINT, _MOST_POINT + 1), range(24))
    hi = np.maximum(point - 1, 0)
    length = negative + hi - np.minimum(point - nd, -1) + 2
    j = column - negative  # the character of the text without its sign
    digit = point - 1 - np.where(j <= hi, hi - j, hi - j + 1)  # at the place of character j
    layout = np.where((digit >= 0) & (digit < nd), _FIRST_DIGIT + digit, _ZERO)
    layout = np.where(j == hi + 1, _DOT, np.where(j < 0, _SIGN, layout))
    return np.where(column < length, layout, 0).reshape(-1, 24).astype(np.uint8), length.reshape(-1)


def repr_rows(values) -> np.ndarray:
    """The ``repr`` text of each float64 of ``values``, flattened, as the rows of an (n, width) uint8
    array: each row its text's bytes, NUL-padded to the longest text (and at least 1 wide)."""
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    if len(x) <= _CHUNK:
        return _rows(x)
    parts = [_rows(x[at : at + _CHUNK]) for at in range(0, len(x), _CHUNK)]
    rows = np.zeros((len(x), max(part.shape[1] for part in parts)), dtype=np.uint8)
    for at, part in zip(range(0, len(x), _CHUNK), parts):
        rows[at : at + len(part), : part.shape[1]] = part
    return rows


def joined(*fields) -> np.ndarray:
    """The texts of ``fields`` side by side, row after row, as uint8 bytes. A field is an (n, w) uint8 array
    of NUL-padded texts (such as the rows of ``repr_rows``), or a ``bytes`` text that every row holds; at
    least one is an array. They fill one (n, sum of w) array, a block of columns each, and the result is
    its bytes that are not NUL, so no text may hold a NUL."""
    n = next(len(field) for field in fields if isinstance(field, np.ndarray))
    fields = [np.frombuffer(field, dtype=np.uint8) if isinstance(field, bytes) else field for field in fields]
    edges = np.cumsum([0, *(field.shape[-1] for field in fields)])  # each field's first column, then the end
    rows = np.empty((n, edges[-1]), dtype=np.uint8)
    for field, first, end in zip(fields, edges, edges[1:]):
        rows[:, first:end] = field
    return rows[rows != 0]


def _rows(x: np.ndarray) -> np.ndarray:
    """``repr_rows`` of a contiguous float64 array."""
    tab = _tables()
    bits = x.view(_U64)
    exponent = (bits >> _U64(52)) & _U64(0x7FF)
    t = bits & (_HIDDEN - _U64(1))
    irregular = t == 0
    at = ((exponent << _U64(1)) | irregular).astype(np.intp)
    h, *g = np.take(tab.scaling, at, axis=1)
    c = t | _HIDDEN
    odd = c & _U64(1)
    cb = c << _U64(2)
    vb = _rop(*g, cb << h)
    vbl = _rop(*g, (cb - _U64(2) + irregular) << h)
    vbr = _rop(*g, (cb + _U64(2)) << h)
    # the candidates s and s + 1 at 10^k, and the multiples of 10 around s; Java's DoubleToDecimal.toDecimal
    s = vb >> _U64(2)
    s1 = s + _U64(1)
    low = vbl + odd
    high = vbr - odd
    sp10 = s // _U64(10) * _U64(10)
    upin = low <= sp10 << _U64(2)
    wpin = (sp10 + _U64(10)) << _U64(2) <= high
    uin = low <= s << _U64(2)
    win = s1 << _U64(2) <= high
    mid = (s + s1) << _U64(1)
    nearer_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _U64(1)) == 0)))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + _U64(10)), np.where(nearer_s, s, s1))
    # f has 16 or 17 digits: as 17 digits d1..d17, and the decimal point of 0.d1...d17 x 10^point
    short = f < _E16
    f = np.where(short, f * _U64(10), f)
    point = tab.k.take(at) + 17 - short
    top = f // _E16
    rest = f - top * _E16
    high8 = rest // _E8
    low8 = (rest - high8 * _E8).astype(np.intp)
    high8 = high8.astype(np.intp)
    groups = [top.astype(np.intp), high8 // 10000, high8 % 10000, low8 // 10000, low8 % 10000]
    n = len(x)
    source = np.empty((n, 6), dtype=np.uint32)
    source[:, 0] = _SOURCE
    for column, group in enumerate(groups, start=1):
        np.take(tab.groups, group, out=source[:, column])
    # the digits up to the last that is not 0, from the zeros that end each group's text
    z1, z2, z3, z4 = (tab.zeros.take(group) for group in groups[1:])
    nd = 17 - np.where(z4 < 4, z4, 4 + np.where(z3 < 4, z3, 4 + np.where(z2 < 4, z2, 4 + z1)))
    kind = (np.signbit(x) * 17 + nd - 1) * _POINTS + point - _LEAST_POINT
    # an exponent of 0 (zero or subnormal) or 2047 (nan or inf), or repr's exponent form
    other = (exponent - _U64(1) >= _U64(2046)) | (point < _LEAST_POINT) | (point > _MOST_POINT)
    kind[other] = 0
    others = np.flatnonzero(other)
    texts = list(map(float.__repr__, x[others].tolist()))
    lengths = np.where(other, 0, tab.length.take(kind))
    width = max(int(lengths.max(initial=1)), max(map(len, texts), default=1))
    index = tab.layout.take(kind, axis=0)[:, :width].astype(np.intp)
    index += np.arange(0, 24 * n, 24)[:, None]
    rows = source.view(np.uint8).reshape(-1).take(index)
    if len(others):
        rows[others] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return rows


def _rop(g1_lo, g1_hi, g1, g0_lo, g0_hi, cp):
    """Schubfach's ``rop(g cp 2^-127)``: the product of g and ``cp`` < 2^59 over 2^127, rounded to odd, as
    Java's DoubleToDecimal.rop computes it."""
    cp_lo, cp_hi = cp & _M32, cp >> _U64(32)
    x1 = _mul_high(g0_lo, g0_hi, cp_lo, cp_hi)
    y1 = _mul_high(g1_lo, g1_hi, cp_lo, cp_hi)
    z = ((g1 * cp) >> _U64(1)) + x1
    return (y1 + (z >> _U64(63))) | (((z & _M63) + _M63) >> _U64(63))


def _mul_high(a_lo, a_hi, b_lo, b_hi):
    """The high 64 bits of the product of a < 2^63 and b < 2^59, from their 32-bit limbs."""
    middle = a_lo * b_hi + a_hi * b_lo + ((a_lo * b_lo) >> _U64(32))  # < 2^59 + 2^63 + 2^32
    return a_hi * b_hi + (middle >> _U64(32))
