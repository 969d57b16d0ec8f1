"""Dense float64 tensors with tape-based reverse-mode differentiation.

Sized for the models in this package: a few hundred thousand parameters,
graphs of at most a few hundred nodes. Ops build a per-forward tape of
backward closures; ``backward()`` on a scalar output accumulates exact
analytic gradients into every reachable tensor that requires them.
Gradients accumulate (never overwrite), so shared subexpressions are
handled correctly: d(x+x)/dx = 2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError

_grad_enabled = True


class no_grad:
    """Disable tape construction inside the block (frozen-model inference).

    Inside the block an op computes its forward values only: it records no
    parents and no backward closure, and what only a backward needs (a
    clamp mask, concat offsets) is computed in the backward itself. The
    values are the same bits as with the tape on.
    """

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward", "_track")

    # keep numpy from broadcasting over Tensor operands; defer to __r<op>__
    __array_ufunc__ = None

    def __init__(self, values, requires_grad=False):
        if isinstance(values, np.ndarray) and values.dtype == np.float64:
            self.values = values
        else:
            self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._track = requires_grad

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    def item(self) -> float:
        return float(self.values.item())

    def detach(self) -> "Tensor":
        return Tensor(self.values)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    def backward(self, grad=None):
        if grad is None:
            grad = np.ones_like(self.values)
        order = _toposort(self)
        _accumulate(self, np.asarray(grad, dtype=np.float64))
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # operator sugar; plain Python numbers are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, k):
        return pow_scalar(self, k)

    def __getitem__(self, key):
        return tensor_slice(self, key)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis, keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    @property
    def T(self):
        return transpose(self)


def as_tensor(x) -> Tensor:
    return x if type(x) is Tensor else Tensor(x)


def _toposort(root: Tensor) -> list[Tensor]:
    # iterative DFS: batched training graphs overflow Python recursion
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order


def _accumulate(t: Tensor, g: np.ndarray):
    # grads are replaced, never mutated in place, so sharing views is safe
    if not t._track:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


_new_tensor = object.__new__


def _make(values, parents, backward):
    """The Tensor an op returns; it records parents and backward only if the tape tracks an input.

    Built without ``Tensor.__init__``: an op's values are float64 already,
    and only a numpy scalar (a full reduction, a 0-d ufunc result) needs
    wrapping as a 0-d array.
    """
    t = _new_tensor(Tensor)
    t.values = values if type(values) is np.ndarray else np.asarray(values, dtype=np.float64)
    t.grad = None
    t.requires_grad = False
    t._parents, t._backward, t._track = (), None, False
    if _grad_enabled:
        for p in parents:
            if p._track:
                t._parents, t._backward, t._track = parents, backward, True
                break
    return t


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_v = a.values + b.values

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.values.shape))
        _accumulate(b, _unbroadcast(g, b.values.shape))

    return _make(out_v, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_v = a.values - b.values

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.values.shape))
        _accumulate(b, _unbroadcast(-g, b.values.shape))

    return _make(out_v, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_v = a.values * b.values

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.values, a.values.shape))
        _accumulate(b, _unbroadcast(g * a.values, b.values.shape))

    return _make(out_v, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_v = a.values / b.values

    def backward(g):
        _accumulate(a, _unbroadcast(g / b.values, a.values.shape))
        _accumulate(b, _unbroadcast(-g * a.values / (b.values * b.values), b.values.shape))

    return _make(out_v, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, -g)

    return _make(-a.values, (a,), backward)


def pow_scalar(a, k: float) -> Tensor:
    a = as_tensor(a)
    out_v = a.values**k

    def backward(g):
        _accumulate(a, g * k * a.values ** (k - 1))

    return _make(out_v, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    out_v = a.values @ b.values

    def backward(g):
        _accumulate(a, g @ b.values.T)
        _accumulate(b, a.values.T @ g)

    return _make(out_v, (a, b), backward)


def linear(x, w, b) -> Tensor:
    """x @ w + b for a 2-d x and a bias b of w's width, as one op.

    The same float work as ``matmul`` then ``add``, forward and backward.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {x.shape} @ {w.shape}")
    if b.shape != w.shape[1:]:
        raise DimensionError(f"linear: bias shape {b.shape} does not match {w.shape[1]} outputs")
    out_v = x.values @ w.values
    out_v += b.values

    def backward(g):
        _accumulate(b, _unbroadcast(g, b.values.shape))
        _accumulate(x, g @ w.values.T)
        _accumulate(w, x.values.T @ g)

    return _make(out_v, (x, w, b), backward)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"transpose: expected 2-d tensor, got shape {a.shape}")

    def backward(g):
        _accumulate(a, g.T)

    return _make(a.values.T, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    orig = a.values.shape

    def backward(g):
        _accumulate(a, g.reshape(orig))

    return _make(a.values.reshape(shape), (a,), backward)


def concat(tensors, axis=0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise DimensionError("concat: empty tensor list")
    out_v = np.concatenate([t.values for t in ts], axis=axis)

    def backward(g):
        offsets = np.cumsum([0] + [t.values.shape[axis] for t in ts])
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    return _make(out_v, tuple(ts), backward)


def tensor_slice(a, key) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        gx = np.zeros_like(a.values)
        np.add.at(gx, key, g)
        _accumulate(a, gx)

    return _make(a.values[key], (a,), backward)


def tensor_sum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out_v = a.values.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.values.shape).copy())

    return _make(out_v, (a,), backward)


def tensor_mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    n = a.values.size if axis is None else a.values.shape[axis]
    # the two steps ndarray.mean takes, without its argument handling
    out_v = np.add.reduce(a.values, axis, keepdims=keepdims) / n

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.values.shape) / n)

    return _make(out_v, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_v = np.exp(a.values)

    def backward(g):
        _accumulate(a, g * out_v)

    return _make(out_v, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g / a.values)

    return _make(np.log(a.values), (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_v = 1.0 / (1.0 + np.exp(-a.values))

    def backward(g):
        _accumulate(a, g * out_v * (1.0 - out_v))

    return _make(out_v, (a,), backward)


def _softmax_values(x: np.ndarray, axis) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(out_v: np.ndarray, g: np.ndarray, axis) -> np.ndarray:
    """Gradient at the input of a softmax with output ``out_v``, given the output gradient ``g``."""
    return out_v * (g - (g * out_v).sum(axis=axis, keepdims=True))


def softmax(a, axis=-1) -> Tensor:
    a = as_tensor(a)
    out_v = _softmax_values(a.values, axis)

    def backward(g):
        _accumulate(a, _softmax_grad(out_v, g, axis))

    return _make(out_v, (a,), backward)


def leaky_relu(a, slope=0.2) -> Tensor:
    a = as_tensor(a)
    mask = a.values > 0
    out_v = np.where(mask, a.values, slope * a.values)

    def backward(g):
        _accumulate(a, g * np.where(mask, 1.0, slope))

    return _make(out_v, (a,), backward)


def elu(a) -> Tensor:
    a = as_tensor(a)
    # expm1 only sees the non-positive part, where positives would overflow. Adding max(x, -0.0) leaves
    # each non-positive part as it is, -0.0 included.
    out_v = np.expm1(np.minimum(a.values, 0.0))
    out_v += np.maximum(a.values, -0.0)

    def backward(g):
        # 1 where x > 0, which is where out_v > 0; expm1(x) + 1, at most 1, elsewhere
        _accumulate(a, g * np.minimum(out_v + 1.0, 1.0))

    return _make(out_v, (a,), backward)


def clamp(a, lo, hi) -> Tensor:
    a = as_tensor(a)
    out_v = np.minimum(np.maximum(a.values, lo), hi)

    def backward(g):
        _accumulate(a, g * ((a.values >= lo) & (a.values <= hi)))

    return _make(out_v, (a,), backward)


def _segment_keys(idx: np.ndarray, width: int) -> np.ndarray:
    """The np.bincount key of each (row idx[k], column c) entry of a (len(idx), width) array."""
    return idx if width == 1 else (idx[:, None] * width + np.arange(width)).ravel()


class SegmentIndex:
    """A row index for segment sums, with its bincount keys kept per row width.

    The attention layers over one graph batch, and their backward passes,
    sum over the same edge ends at the same few widths; one SegmentIndex
    per edge end builds each key array once.
    """

    __slots__ = ("idx", "_keys")

    def __init__(self, idx):
        self.idx = np.asarray(idx, dtype=np.int64)
        self._keys = {}

    def keys(self, width: int) -> np.ndarray:
        keys = self._keys.get(width)
        if keys is None:
            keys = self._keys[width] = _segment_keys(self.idx, width)
        return keys


def _segment_sum(values: np.ndarray, idx, num_rows: int) -> np.ndarray:
    """out[i] = sum of values[k] over k with idx[k] == i, as np.add.at computes it.

    One np.bincount over (row, column) keys: each output entry starts at 0.0
    and takes its terms in k order, so the result equals np.add.at bit for bit.
    ``idx`` is an int array or a SegmentIndex.
    """
    trailing = values.shape[1:]
    width = math.prod(trailing)
    keys = idx.keys(width) if type(idx) is SegmentIndex else _segment_keys(idx, width)
    out = np.bincount(keys, weights=values.reshape(-1), minlength=num_rows * width)
    return out.reshape((num_rows,) + trailing)


def _scatter_sum(values: np.ndarray, idx, num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(idx as int64, _segment_sum(values, idx, num_rows)), with scatter_add_rows's index checks."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != (values.shape[0],):
        raise DimensionError(
            f"scatter_add_rows: index shape {idx.shape} does not match {values.shape[0]} rows"
        )
    try:
        # np.bincount rejects a negative index and the reshape a too-large one
        return idx, _segment_sum(values, idx, num_rows)
    except ValueError:
        raise DimensionError(f"scatter_add_rows: index out of range for {num_rows} rows") from None


def segment_mean(a, idx, counts) -> Tensor:
    """Per-segment mean of the rows of ``a``: segment i holds the counts[i] rows with idx == i.

    One op with the float work of scatter_add_rows followed by a division
    by the counts, forward and backward.
    """
    a = as_tensor(a)
    counts = np.asarray(counts, dtype=np.float64).reshape((-1,) + (1,) * (a.ndim - 1))
    idx, sums = _scatter_sum(a.values, idx, len(counts))

    def backward(g):
        _accumulate(a, (g / counts)[idx])

    return _make(sums / counts, (a,), backward)


def _row_index(idx, num_rows: int) -> np.ndarray:
    """``idx`` as int64, checked to index rows of a ``num_rows``-row array."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise DimensionError(f"gather_rows: index out of range for {num_rows} rows")
    return idx


def gather_rows(a, idx) -> Tensor:
    """out[k] = a[idx[k]] along axis 0."""
    a = as_tensor(a)
    idx = _row_index(idx, a.values.shape[0])
    out_v = a.values[idx]

    def backward(g):
        _accumulate(a, _segment_sum(g, idx, a.values.shape[0]))

    return _make(out_v, (a,), backward)


def sigmoid_inner_product(z, src, dst) -> Tensor:
    """out[k] = sigmoid(z[src[k]] . z[dst[k]]) for a 2-d z, as one op.

    The same float work as ``gather_rows`` twice, ``mul``, ``sum`` over
    axis 1 and ``sigmoid``, forward and backward; the backward adds the
    src rows' gradient into z before the dst rows'.
    """
    z = as_tensor(z)
    if z.ndim != 2:
        raise DimensionError(f"sigmoid_inner_product: expected 2-d rows, got shape {z.shape}")
    n = z.values.shape[0]
    src, dst = _row_index(src, n), _row_index(dst, n)
    if src.shape != dst.shape:
        raise DimensionError(f"sigmoid_inner_product: {src.shape} sources for {dst.shape} destinations")
    z_src, z_dst = z.values[src], z.values[dst]
    out_v = 1.0 / (1.0 + np.exp(-(z_src * z_dst).sum(axis=1)))

    def backward(g):
        g_dot = (g * out_v * (1.0 - out_v))[:, None]
        _accumulate(z, _segment_sum(g_dot * z_dst, src, n))
        _accumulate(z, _segment_sum(g_dot * z_src, dst, n))

    return _make(out_v, (z,), backward)


def scatter_add_rows(a, idx, num_rows: int) -> Tensor:
    """out[i] = sum over k with idx[k]==i of a[k]; out has num_rows rows."""
    a = as_tensor(a)
    idx, out_v = _scatter_sum(a.values, idx, num_rows)

    def backward(g):
        _accumulate(a, g[idx])

    return _make(out_v, (a,), backward)


def graph_attention(wh, att_src, att_dst, log_w, src, dst, slope: float):
    """Multi-head graph attention over edges src[k] -> dst[k], as one tape op.

    ``wh`` is (n, heads, d) and ``att_src``/``att_dst`` are (heads, d). Edge
    k's logit per head is leaky_relu(att_src·wh[src[k]] + att_dst·wh[dst[k]])
    + log_w[k], with ``log_w`` a constant (E, 1) bias; the scores a·wh are
    taken once per node and gathered per edge. Logits are softmax-normalized
    over each node's in-edges into alpha, and out[i] is the alpha-weighted
    sum of wh[src] over the in-edges of i (zero for a node without one).
    Returns (out (n, heads, d), alpha (E, heads) array); the backward is the
    closed-form gradient for wh, att_src and att_dst. ``src`` and ``dst``
    are int arrays or SegmentIndex objects, whose keys are then reused.
    """
    wh, att_src, att_dst = as_tensor(wh), as_tensor(att_src), as_tensor(att_dst)
    src_sums = src if type(src) is SegmentIndex else SegmentIndex(src)
    dst_sums = dst if type(dst) is SegmentIndex else SegmentIndex(dst)
    src, dst = src_sums.idx, dst_sums.idx
    x = wh.values
    if x.ndim != 3 or att_src.shape != x.shape[1:] or att_dst.shape != x.shape[1:]:
        raise DimensionError(
            f"graph_attention: expected (n, heads, d) features and (heads, d) attention vectors, "
            f"got {x.shape}, {att_src.shape}, {att_dst.shape}"
        )
    n, heads = x.shape[:2]
    pre = (x * att_src.values).sum(axis=2)[src] + (x * att_dst.values).sum(axis=2)[dst]
    positive = pre > 0
    logits = np.where(positive, pre, slope * pre) + log_w
    # per-(destination, head) max, constant, for a stable softmax
    peak = np.full((n, heads), -np.inf)
    np.maximum.at(peak, dst, logits)
    exp_l = np.exp(logits - peak[dst])
    alpha = exp_l / _segment_sum(exp_l, dst_sums, n)[dst]
    msg = x[src]
    msg *= alpha[:, :, None]
    out_v = _segment_sum(msg, dst_sums, n)

    def backward(g):
        g_dst = g[dst]
        g_alpha = np.einsum("ehd,ehd->eh", g_dst, x[src])
        # softmax over each destination's in-edges, then the leaky slope
        weighted = alpha * g_alpha
        g_pre = weighted - alpha * _segment_sum(weighted, dst_sums, n)[dst]
        g_pre[~positive] *= slope
        g_s_src = _segment_sum(g_pre, src_sums, n)
        g_s_dst = _segment_sum(g_pre, dst_sums, n)
        g_x = _segment_sum(g_dst * alpha[:, :, None], src_sums, n)
        g_x += g_s_src[:, :, None] * att_src.values
        g_x += g_s_dst[:, :, None] * att_dst.values
        _accumulate(wh, g_x)
        _accumulate(att_src, np.einsum("nh,nhd->hd", g_s_src, x))
        _accumulate(att_dst, np.einsum("nh,nhd->hd", g_s_dst, x))

    return _make(out_v, (wh, att_src, att_dst), backward), alpha


def take_per_row(a, cols) -> Tensor:
    """out[i] = a[i, cols[i]] for a 2-d tensor."""
    a = as_tensor(a)
    cols = np.asarray(cols, dtype=np.int64)
    if a.ndim != 2 or cols.shape != (a.values.shape[0],):
        raise DimensionError(
            f"take_per_row: expected ({a.values.shape[0]},) indices into shape {a.shape}"
        )
    rows = np.arange(a.values.shape[0])
    out_v = a.values[rows, cols]

    def backward(g):
        gx = np.zeros_like(a.values)
        np.add.at(gx, (rows, cols), g)
        _accumulate(a, gx)

    return _make(out_v, (a,), backward)
