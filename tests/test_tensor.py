import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import tensor as T
from canids.errors import DimensionError
from canids.gradcheck import relative_gradient_error
from canids.tensor import Tensor, no_grad

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
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(name):
    build, make = OP_CASES[name]
    for _ in range(20):
        assert relative_gradient_error(build, make()) < 1e-4


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
