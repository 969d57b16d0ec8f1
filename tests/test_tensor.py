import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import tensor as T
from canids.errors import DimensionError
from canids.gradcheck import relative_gradient_error
from canids.tensor import Tensor, no_grad
from helpers import assert_same_bits_as_composed

RNG = np.random.Generator(np.random.PCG64(1234))


def rand(*shape):
    return RNG.uniform(-2.0, 2.0, size=shape)


def test_sigmoid_analytic():
    x = Tensor(np.array([0.0]), requires_grad=True)
    y = T.sigmoid(x)
    y.backward()
    assert y.values[0] == 0.5
    assert x.grad[0] == 0.25


def test_softmax_single_element_and_normalization():
    assert T.softmax(Tensor(np.array([3.7])), axis=-1).values[0] == 1.0
    s = T.softmax(Tensor(rand(6, 5)), axis=1)
    assert np.max(np.abs(s.values.sum(axis=1) - 1.0)) <= 1e-12


def test_shared_subexpression_accumulates():
    x = Tensor(np.array([3.0]), requires_grad=True)
    (x + x).backward()
    assert x.grad[0] == 2.0


def test_matmul_shape_error_names_op():
    with pytest.raises(DimensionError, match="matmul"):
        T.matmul(Tensor(rand(2, 3)), Tensor(rand(2, 3)))


def test_matmul_gradient_tight():
    err = relative_gradient_error(lambda a, b: (a @ b).sum(), [rand(3, 4), rand(4, 2)])
    assert err < 1e-6


def test_no_grad_blocks_tape():
    x = Tensor(rand(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert y._backward is None and not y._track


def test_gather_scatter_bounds():
    x = Tensor(rand(4, 2))
    with pytest.raises(DimensionError):
        T.gather_rows(x, np.array([0, 4]))
    with pytest.raises(DimensionError):
        T.scatter_add_rows(x, np.array([0, 1, 2, 3]), 3)


def test_clamp_zero_gradient_outside():
    x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
    T.clamp(x, -1.0, 1.0).sum().backward()
    assert list(x.grad) == [0.0, 1.0, 0.0]


# four nodes, each with an in-edge; node 1 and node 3 keep a self-loop
ATT_SRC = np.array([0, 1, 2, 3, 3, 0, 2])
ATT_DST = np.array([1, 1, 0, 2, 3, 3, 1])
ATT_LOG_W = np.log([1.0, 2.0, 1.0, 3.0, 1.0, 1.0, 2.0])[:, None]


def attention_inputs():
    """(wh, att_src, att_dst) whose logits take both leaky branches at node 1, per head.

    If every node's in-edges were on one branch, softmax shift invariance
    would make the att_dst gradient exactly zero and leave finite
    differences nothing but rounding noise. Logits within 1e-3 of the kink
    are redrawn too.
    """
    while True:
        wh, att_src, att_dst = rand(4, 2, 3), rand(2, 3), rand(2, 3)
        pre = (wh * att_src).sum(axis=2)[ATT_SRC] + (wh * att_dst).sum(axis=2)[ATT_DST]
        node1 = pre[ATT_DST == 1]
        if (node1 > 0).any(axis=0).all() and (node1 < 0).any(axis=0).all() and np.abs(pre).min() > 1e-3:
            return [wh, att_src, att_dst]


# every differentiable op, checked against central finite differences on
# 20 random instances each (acceptance criterion, rel error < 1e-4)
OP_CASES = {
    "add": (lambda a, b: (a + b).sum(), lambda: [rand(3, 4), rand(3, 4)]),
    "add_broadcast": (lambda a, b: (a + b).sum(), lambda: [rand(3, 4), rand(4)]),
    "sub": (lambda a, b: (a - b).sum(), lambda: [rand(3, 4), rand(3, 4)]),
    "mul": (lambda a, b: (a * b).sum(), lambda: [rand(3, 4), rand(3, 4)]),
    "mul_broadcast": (lambda a, b: (a * b).sum(), lambda: [rand(5, 1), rand(5, 3)]),
    "div": (lambda a, b: (a / b).sum(), lambda: [rand(3, 4), rand(3, 4) + 3.0]),
    "neg": (lambda a: (-a).sum(), lambda: [rand(3, 4)]),
    "pow": (lambda a: (a**2).sum(), lambda: [rand(3, 4)]),
    "matmul": (lambda a, b: (a @ b).sum(), lambda: [rand(3, 4), rand(4, 2)]),
    "transpose": (lambda a: (a.T @ a).sum(), lambda: [rand(3, 4)]),
    "reshape": (lambda a: (a.reshape((2, 6)) ** 2).sum(), lambda: [rand(3, 4)]),
    "concat": (lambda a, b: T.concat([a, b], axis=1).sum(), lambda: [rand(3, 2), rand(3, 4)]),
    "slice": (lambda a: (a[1:, :2] ** 2).sum(), lambda: [rand(4, 3)]),
    "sum_axis": (lambda a: (a.sum(axis=0) ** 2).sum(), lambda: [rand(3, 4)]),
    "sum_all": (lambda a: a.sum() ** 2, lambda: [rand(3, 4)]),
    "mean_axis": (lambda a: (a.mean(axis=1) ** 2).sum(), lambda: [rand(3, 4)]),
    "mean_all": (lambda a: a.mean() ** 2, lambda: [rand(3, 4)]),
    "exp": (lambda a: T.exp(a).sum(), lambda: [rand(3, 4)]),
    "log": (lambda a: T.log(a).sum(), lambda: [rand(3, 4) + 3.0]),
    "sigmoid": (lambda a: T.sigmoid(a).sum(), lambda: [rand(3, 4)]),
    "softmax": (lambda a: (T.softmax(a, axis=1) ** 2).sum(), lambda: [rand(3, 4)]),
    "leaky_relu": (lambda a: T.leaky_relu(a, 0.2).sum(), lambda: [rand(3, 4) + 0.05]),
    "elu": (lambda a: T.elu(a).sum(), lambda: [rand(3, 4) + 0.05]),
    "clamp": (lambda a: T.clamp(a, -10.0, 10.0).sum(), lambda: [rand(3, 4)]),
    "gather_rows": (
        lambda a: (T.gather_rows(a, np.array([0, 2, 2, 1])) ** 2).sum(),
        lambda: [rand(3, 4)],
    ),
    "scatter_add_rows": (
        lambda a: (T.scatter_add_rows(a, np.array([0, 2, 2, 1]), 3) ** 2).sum(),
        lambda: [rand(4, 3)],
    ),
    "take_per_row": (
        lambda a: (T.take_per_row(a, np.array([1, 0, 3])) ** 2).sum(),
        lambda: [rand(3, 4)],
    ),
    "linear": (lambda x, w, b: (T.linear(x, w, b) ** 2).sum(), lambda: [rand(3, 4), rand(4, 2), rand(2)]),
    "segment_mean": (
        lambda a: (T.segment_mean(a, np.array([1, 0, 1, 1, 2]), np.array([1, 3, 1])) ** 2).sum(),
        lambda: [rand(5, 3)],
    ),
    "sigmoid_inner_product": (
        lambda z: (T.sigmoid_inner_product(z, np.array([0, 2, 2, 1, 3]), np.array([1, 2, 0, 1, 0])) ** 2).sum(),
        lambda: [rand(4, 3)],
    ),
    "graph_attention": (
        lambda wh, a_s, a_d: (T.graph_attention(wh, a_s, a_d, ATT_LOG_W, ATT_SRC, ATT_DST, 0.2)[0] ** 2).sum(),
        attention_inputs,
    ),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(name):
    build, make = OP_CASES[name]
    for _ in range(20):
        assert relative_gradient_error(build, make()) < 1e-4


def test_graph_attention_shape_error_names_op():
    with pytest.raises(DimensionError, match="graph_attention"):
        T.graph_attention(Tensor(rand(4, 6)), Tensor(rand(2, 3)), Tensor(rand(2, 3)), ATT_LOG_W, ATT_SRC, ATT_DST, 0.2)
    with pytest.raises(DimensionError, match="graph_attention"):
        T.graph_attention(Tensor(rand(4, 2, 3)), Tensor(rand(3, 2)), Tensor(rand(2, 3)), ATT_LOG_W, ATT_SRC, ATT_DST, 0.2)


def test_backward_grad_finite_where_values_finite():
    x = Tensor(rand(5, 3), requires_grad=True)
    out = T.elu(T.softmax(x @ Tensor(rand(3, 3)), axis=1)).sum()
    out.backward()
    assert np.all(np.isfinite(x.grad))


@st.composite
def segment_cases(draw):
    num_rows = draw(st.integers(0, 6))
    count = draw(st.integers(0, 20)) if num_rows else 0
    idx = np.array(draw(st.lists(st.integers(0, max(num_rows - 1, 0)), min_size=count, max_size=count)), dtype=np.int64)
    trailing = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False) | st.just(0.0) | st.just(-0.0)
    flat = draw(st.lists(finite, min_size=count * int(np.prod(trailing)), max_size=count * int(np.prod(trailing))))
    return np.array(flat, dtype=np.float64).reshape((count,) + trailing), idx, num_rows


@settings(max_examples=300, deadline=None)
@given(segment_cases())
def test_segment_sum_equals_add_at_bitwise(case):
    # repeated and empty segments, zero rows, 1-D to 3-D values
    values, idx, num_rows = case
    expected = np.zeros((num_rows,) + values.shape[1:])
    np.add.at(expected, idx, values)
    got = T._segment_sum(values, idx, num_rows)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("idx", [[0, -1], [0, 3]])
@pytest.mark.parametrize("trailing", [(), (2,), (2, 3)])
def test_scatter_rejects_out_of_range_index(idx, trailing):
    with pytest.raises(DimensionError, match="out of range"):
        T.scatter_add_rows(Tensor(rand(2, *trailing)), np.array(idx), 3)


def test_segment_mean_values_and_gradient():
    idx = np.array([1, 0, 1, 1, 2])
    counts = np.bincount(idx)
    x = rand(5, 3)
    got = T.segment_mean(Tensor(x), idx, counts).values
    for i in range(3):
        assert np.allclose(got[i], x[idx == i].mean(axis=0), rtol=0, atol=1e-15)
    err = relative_gradient_error(lambda a: (T.segment_mean(a, idx, counts) ** 2).sum(), [x])
    assert err < 1e-6


# Fused ops against the tape ops they replace: the same forward bits and the
# same gradient bits, and the same DimensionError messages.


def composed_segment_mean(a, idx, counts):
    counts = np.asarray(counts, dtype=np.float64)
    return T.scatter_add_rows(a, idx, len(counts)) / counts.reshape((-1,) + (1,) * (a.ndim - 1))


def composed_sigmoid_inner_product(z, src, dst):
    return T.sigmoid((T.gather_rows(z, src) * T.gather_rows(z, dst)).sum(axis=1))


@pytest.mark.parametrize("rows", [0, 1, 6])
def test_linear_equals_matmul_then_add_bitwise(rows):
    for _ in range(10):
        x, w, b = rand(rows, 5), rand(5, 7), rand(7)
        assert_same_bits_as_composed(
            T.linear, lambda x, w, b: x @ w + b, [x, w, b], rand(rows, 7)
        )


def test_linear_shape_errors():
    with pytest.raises(DimensionError, match=r"matmul: incompatible shapes \(3, 4\) @ \(5, 2\)"):
        T.linear(Tensor(rand(3, 4)), Tensor(rand(5, 2)), Tensor(rand(2)))
    with pytest.raises(DimensionError, match="matmul: incompatible shapes"):
        T.linear(Tensor(rand(4)), Tensor(rand(4, 2)), Tensor(rand(2)))
    with pytest.raises(DimensionError, match="linear: bias shape"):
        T.linear(Tensor(rand(3, 4)), Tensor(rand(4, 2)), Tensor(rand(3, 2)))


@pytest.mark.parametrize("trailing", [(), (3,), (2, 3)])
def test_segment_mean_equals_scatter_then_divide_bitwise(trailing):
    idx = np.array([1, 0, 1, 1, 2, 3, 3, 0, 1, 3, 1])
    counts = np.bincount(idx)  # 2, 5, 1 and 3 rows: not all powers of two
    for _ in range(10):
        a = rand(len(idx), *trailing) * 1e3
        assert_same_bits_as_composed(
            lambda a: T.segment_mean(a, idx, counts),
            lambda a: composed_segment_mean(a, idx, counts),
            [a],
            rand(len(counts), *trailing),
        )


@pytest.mark.parametrize("idx", [[0, -1], [0, 3]])
@pytest.mark.parametrize("trailing", [(), (2,), (2, 3)])
def test_segment_mean_index_errors_match_scatter(idx, trailing):
    a = Tensor(rand(2, *trailing))
    for fn in (T.segment_mean, composed_segment_mean):
        with pytest.raises(DimensionError, match="scatter_add_rows: index out of range for 3 rows"):
            fn(a, np.array(idx), [1, 1, 1])
        with pytest.raises(DimensionError, match=r"scatter_add_rows: index shape \(3,\) does not match 2 rows"):
            fn(a, np.array([0, 1, 2]), [1, 1, 1])


def test_sigmoid_inner_product_equals_gathered_dot_bitwise():
    # repeated pairs, self-pairs and both directions of a pair
    src = np.array([0, 2, 2, 1, 3, 3, 0, 4, 2])
    dst = np.array([1, 2, 0, 1, 0, 3, 1, 4, 4])
    for scale in (0.1, 1.0, 10.0):
        z = rand(5, 4) * scale
        assert_same_bits_as_composed(
            lambda z: T.sigmoid_inner_product(z, src, dst),
            lambda z: composed_sigmoid_inner_product(z, src, dst),
            [z],
            rand(len(src)),
        )
    # no pairs at all
    assert_same_bits_as_composed(
        lambda z: T.sigmoid_inner_product(z, src[:0], dst[:0]),
        lambda z: composed_sigmoid_inner_product(z, src[:0], dst[:0]),
        [rand(5, 4)],
        rand(0),
    )


@pytest.mark.parametrize("src, dst", [([0, 5], [1, 1]), ([0, 1], [-1, 1])])
def test_sigmoid_inner_product_index_errors_match_gather(src, dst):
    z = Tensor(rand(5, 3))
    for fn in (T.sigmoid_inner_product, composed_sigmoid_inner_product):
        with pytest.raises(DimensionError, match="gather_rows: index out of range for 5 rows"):
            fn(z, np.array(src), np.array(dst))


def masked_elu(x, g):
    """ELU and its input gradient in the masked form: the oracle of tensor.elu."""
    mask = x > 0
    out = np.expm1(np.minimum(x, 0.0))
    np.putmask(out, mask, x)
    return out, g * np.where(mask, 1.0, out + 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_elu_values_and_gradient_match_the_masked_form_bitwise(seed):
    rng = np.random.default_rng(seed)
    # zeros of both signs, subnormals, values that overflow expm1, nan and infinities among random ones
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, 800.0, -800.0, 1e308, -1e308,
               np.nan, -np.nan, np.inf, -np.inf]
    x = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.integers(-320, 300, 200), special])
    x = rng.permutation(x).reshape(-1, 5)
    g = rng.standard_normal(x.shape)
    t = Tensor(x, requires_grad=True)
    out = T.elu(t)
    with np.errstate(over="ignore"):  # the loss out * g overflows at 1e308; its gradient is g
        (out * g).sum().backward()
    want_out, want_grad = masked_elu(x, g)
    assert out.values.tobytes() == want_out.tobytes()
    assert t.grad.tobytes() == want_grad.tobytes()
