"""Dense float64 tensors with tape-based reverse-mode differentiation.

Sized for the models in this package: a few hundred thousand parameters,
graphs of at most a few hundred nodes. Ops build a per-forward tape of
backward closures; ``backward()`` on a scalar output accumulates exact
analytic gradients into every reachable tensor that requires them.
Gradients accumulate (never overwrite), so shared subexpressions are
handled correctly: d(x+x)/dx = 2.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import DimensionError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (frozen-model inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward", "_track")

    # keep numpy from broadcasting over Tensor operands; defer to __r<op>__
    __array_ufunc__ = None

    def __init__(self, values, requires_grad=False, _parents=(), _backward=None):
        if isinstance(values, np.ndarray) and values.dtype == np.float64:
            self.values = values
        else:
            self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._track = requires_grad or bool(_parents)

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
    return x if isinstance(x, Tensor) else Tensor(x)


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


def _make(values, parents, backward):
    if _grad_enabled and any(p._track for p in parents):
        return Tensor(values, _parents=tuple(parents), _backward=backward)
    return Tensor(values)


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
    sizes = [t.values.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    return _make(out_v, tuple(ts), backward)


def tensor_slice(a, key) -> Tensor:
    a = as_tensor(a)
    out_v = a.values[key]
    if np.isscalar(out_v) or out_v.ndim == 0:
        out_v = np.asarray(out_v, dtype=np.float64)

    def backward(g):
        gx = np.zeros_like(a.values)
        np.add.at(gx, key, g)
        _accumulate(a, gx)

    return _make(out_v, (a,), backward)


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
    out_v = a.values.mean(axis=axis, keepdims=keepdims)
    n = a.values.size if axis is None else a.values.shape[axis]

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


def softmax(a, axis=-1) -> Tensor:
    a = as_tensor(a)
    shifted = a.values - a.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_v = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out_v).sum(axis=axis, keepdims=True)
        _accumulate(a, out_v * (g - dot))

    return _make(out_v, (a,), backward)


def leaky_relu(a, slope=0.2) -> Tensor:
    a = as_tensor(a)
    mask = a.values > 0
    out_v = np.where(mask, a.values, slope * a.values)

    def backward(g):
        _accumulate(a, g * np.where(mask, 1.0, slope))

    return _make(out_v, (a,), backward)


def elu(a, alpha=1.0) -> Tensor:
    a = as_tensor(a)
    mask = a.values > 0
    # expm1 only sees the non-positive branch; positives would overflow
    expm1 = alpha * np.expm1(np.minimum(a.values, 0.0))
    out_v = np.where(mask, a.values, expm1)

    def backward(g):
        _accumulate(a, g * np.where(mask, 1.0, expm1 + alpha))

    return _make(out_v, (a,), backward)


def clamp(a, lo, hi) -> Tensor:
    a = as_tensor(a)
    out_v = np.clip(a.values, lo, hi)
    mask = (a.values >= lo) & (a.values <= hi)

    def backward(g):
        _accumulate(a, g * mask)

    return _make(out_v, (a,), backward)


def _segment_sum(values: np.ndarray, idx: np.ndarray, num_rows: int) -> np.ndarray:
    """out[i] = sum of values[k] over k with idx[k] == i, as np.add.at computes it.

    One np.bincount over (row, column) keys: each output entry starts at 0.0
    and takes its terms in k order, so the result equals np.add.at bit for bit.
    """
    trailing = values.shape[1:]
    width = math.prod(trailing)
    keys = idx if width == 1 else (idx[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(keys, weights=values.reshape(-1), minlength=num_rows * width)
    return out.reshape((num_rows,) + trailing)


def segment_mean(a, idx, counts) -> Tensor:
    """Per-segment mean of the rows of ``a``: segment i holds the counts[i] rows with idx == i."""
    a = as_tensor(a)
    counts = np.asarray(counts, dtype=np.float64)
    return scatter_add_rows(a, idx, len(counts)) / counts.reshape((-1,) + (1,) * (a.ndim - 1))


def gather_rows(a, idx) -> Tensor:
    """out[k] = a[idx[k]] along axis 0."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.values.shape[0]):
        raise DimensionError(
            f"gather_rows: index out of range for {a.values.shape[0]} rows"
        )
    out_v = a.values[idx]

    def backward(g):
        _accumulate(a, _segment_sum(g, idx, a.values.shape[0]))

    return _make(out_v, (a,), backward)


def scatter_add_rows(a, idx, num_rows: int) -> Tensor:
    """out[i] = sum over k with idx[k]==i of a[k]; out has num_rows rows."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != (a.values.shape[0],):
        raise DimensionError(
            f"scatter_add_rows: index shape {idx.shape} does not match {a.values.shape[0]} rows"
        )
    try:
        # np.bincount rejects a negative index and the reshape a too-large one
        out_v = _segment_sum(a.values, idx, num_rows)
    except ValueError:
        raise DimensionError(f"scatter_add_rows: index out of range for {num_rows} rows") from None

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
    closed-form gradient for wh, att_src and att_dst.
    """
    wh, att_src, att_dst = as_tensor(wh), as_tensor(att_src), as_tensor(att_dst)
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
    alpha = exp_l / _segment_sum(exp_l, dst, n)[dst]
    msg = x[src]
    msg *= alpha[:, :, None]
    out_v = _segment_sum(msg, dst, n)

    def backward(g):
        g_dst = g[dst]
        g_alpha = np.einsum("ehd,ehd->eh", g_dst, x[src])
        # softmax over each destination's in-edges, then the leaky slope
        weighted = alpha * g_alpha
        g_pre = weighted - alpha * _segment_sum(weighted, dst, n)[dst]
        g_pre[~positive] *= slope
        g_s_src = _segment_sum(g_pre, src, n)
        g_s_dst = _segment_sum(g_pre, dst, n)
        g_x = _segment_sum(g_dst * alpha[:, :, None], src, n)
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
