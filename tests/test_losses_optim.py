import math

import numpy as np
import pytest

from canids.errors import DimensionError
from canids.gradcheck import relative_gradient_error
from canids import tensor as T
from canids.losses import (
    PROB_EPS,
    bce_terms,
    cross_entropy,
    cross_entropy_terms,
    kl_categorical,
    kl_gaussian_standard,
)
from canids.optim import Adam, Param, clip_grad_norm, derive_seed, glorot_uniform
from canids.tensor import Tensor
from helpers import assert_same_bits_as_composed

RNG = np.random.Generator(np.random.PCG64(77))


def rand(*shape):
    return RNG.uniform(-1.5, 1.5, size=shape)


def test_bce_analytic():
    loss = bce_terms(Tensor(np.array([0.5])), np.array([1.0])).mean()
    assert abs(loss.item() - math.log(2)) < 1e-12


def test_bce_finite_at_confident_predictions():
    loss = bce_terms(Tensor(np.array([1.0, 0.0])), np.array([0.0, 1.0])).mean()
    assert np.isfinite(loss.item())


def test_kl_gaussian_zero_at_prior():
    assert kl_gaussian_standard(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 3)))).item() == 0.0


def test_kl_gaussian_nonnegative():
    for _ in range(50):
        v = kl_gaussian_standard(Tensor(rand(3, 2)), Tensor(rand(3, 2))).item()
        assert v >= -1e-12


def test_kl_categorical_identical_is_zero():
    p = np.abs(rand(4, 3)) + 0.1
    p /= p.sum(axis=1, keepdims=True)
    assert abs(kl_categorical(Tensor(p), Tensor(p.copy())).item()) < 1e-12


def test_kl_categorical_nonnegative():
    for _ in range(50):
        p = np.abs(rand(4, 3)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        q = np.abs(rand(4, 3)) + 0.05
        q /= q.sum(axis=1, keepdims=True)
        assert kl_categorical(Tensor(p), Tensor(q)).item() >= -1e-12


def test_cross_entropy_matches_log_softmax():
    logits = np.array([[2.0, 0.0]])
    expected = -math.log(math.exp(2.0) / (math.exp(2.0) + 1.0))
    assert abs(cross_entropy(Tensor(logits), [0]).item() - expected) < 1e-12


def test_loss_shape_errors():
    with pytest.raises(DimensionError):
        bce_terms(Tensor(rand(3)), np.zeros(4))
    with pytest.raises(DimensionError):
        cross_entropy(Tensor(rand(3, 4)), [0, 1])
    with pytest.raises(DimensionError):
        kl_categorical(Tensor(rand(2, 2)), Tensor(rand(2, 3)))


LOSS_CASES = {
    "bce": (lambda p: bce_terms(p, np.array([1.0, 0.0, 1.0])).mean(), lambda: [np.array([0.3, 0.6, 0.9])]),
    "mse": (lambda p: ((p - np.zeros((3, 2))) ** 2).mean(), lambda: [rand(3, 2)]),
    "cross_entropy": (lambda l: cross_entropy(l, [2, 0]), lambda: [rand(2, 4)]),
    "bce_terms": (
        lambda p: (bce_terms(p, np.array([1.0, 0.0, 0.25])) * np.array([1.0, -2.0, 0.5])).sum(),
        lambda: [np.array([0.3, 0.6, 0.9]) + rand(3) * 0.05],
    ),
    "cross_entropy_terms": (
        lambda l: (cross_entropy_terms(l, [2, 0, 3]) * np.array([1.0, -2.0, 0.5])).sum(),
        lambda: [rand(3, 4)],
    ),
    "kl_gaussian": (lambda m, s: kl_gaussian_standard(m, s), lambda: [rand(3, 2), rand(3, 2)]),
    "kl_categorical": (
        lambda a, b: kl_categorical(a, b),
        lambda: [np.abs(rand(3, 3)) + 0.1, np.abs(rand(3, 3)) + 0.1],
    ),
}


@pytest.mark.parametrize("name", sorted(LOSS_CASES))
def test_loss_gradients(name):
    build, make = LOSS_CASES[name]
    for _ in range(20):
        assert relative_gradient_error(build, make()) < 1e-4


def test_adam_single_step_hand_computed():
    # g=1, lr=0.1: m_hat=1, v_hat=1 -> theta drops by ~0.1
    p = Param("w", Tensor(np.array([1.0]), requires_grad=True))
    opt = Adam([p], lr=0.1)
    p.tensor.grad = np.array([1.0])
    opt.step()
    assert abs(p.tensor.values[0] - (1.0 - 0.1 * 1.0 / (1.0 + 1e-8))) < 1e-12


def test_adam_zero_gradient_no_change():
    p = Param("w", Tensor(np.array([2.0]), requires_grad=True))
    opt = Adam([p])
    p.tensor.grad = np.array([0.0])
    opt.step()
    assert p.tensor.values[0] == 2.0


def test_adam_deterministic_trajectories():
    def run():
        rng = np.random.default_rng(5)
        p = Param("w", Tensor(rng.standard_normal(4), requires_grad=True))
        opt = Adam([p], lr=0.05)
        for _ in range(25):
            opt.zero_grad()
            loss = (p.tensor**2).sum()
            loss.backward()
            opt.step()
        return p.tensor.values.copy()

    assert np.array_equal(run(), run())


def reference_adam(values, grads, lr=0.05, b1=0.9, b2=0.999, eps=1e-8):
    """The textbook update with fresh arrays at every step."""
    m, v = np.zeros_like(values), np.zeros_like(values)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        values = values - lr * m_hat / (np.sqrt(v_hat) + eps)
    return values


@pytest.mark.parametrize("clip", [None, 0.5])
def test_adam_in_place_moments_equal_reference_bitwise(clip):
    rng = np.random.default_rng(21)
    shapes = [(3, 4), (5,), (2, 3, 2)]
    params = [Param(f"p{i}", Tensor(rng.standard_normal(s), requires_grad=True)) for i, s in enumerate(shapes)]
    start = [p.tensor.values.copy() for p in params]
    handed_out = [p.tensor.values for p in params]
    opt = Adam(params, lr=0.05)
    applied = [[] for _ in params]
    for _ in range(5):
        for p in params:
            p.tensor.grad = rng.standard_normal(p.tensor.values.shape) * 3.0
        if clip is not None:
            clip_grad_norm(params, clip)
        for seen, p in zip(applied, params):
            seen.append(p.tensor.grad.copy())
        opt.step()
    for p, s, grads in zip(params, start, applied):
        assert p.tensor.values.tobytes() == reference_adam(s, grads).tobytes()
    # values are rebound, never updated in place
    for a, s in zip(handed_out, start):
        assert a.tobytes() == s.tobytes()


def test_default_rng_is_the_pcg64_stream():
    want = np.random.Generator(np.random.PCG64(9)).standard_normal(8)
    assert np.random.default_rng(9).standard_normal(8).tobytes() == want.tobytes()
    a = derive_seed(9, 1).standard_normal(4)
    b = derive_seed(9, 2).standard_normal(4)
    assert not np.array_equal(a, b)


def test_glorot_bounds_and_mean():
    rng = np.random.default_rng(3)
    fan_in, fan_out = 40, 60
    sample = glorot_uniform(rng, (100_000,), fan_in, fan_out)
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    assert np.all(np.abs(sample) <= bound)
    # mean of n uniform(-b, b) samples is within 3 sigma of 0
    sigma = bound / math.sqrt(3.0) / math.sqrt(sample.size)
    assert abs(sample.mean()) < 3.0 * sigma


# bce_terms and cross_entropy_terms are one op each; they must give the bits
# of the tape ops they replace, forward and backward, clamped entries included.


def composed_bce_terms(pred, target):
    p = T.clamp(pred, PROB_EPS, 1.0 - PROB_EPS)
    return T.neg(target * T.log(p) + (1.0 - target) * T.log(T.sub(1.0, p)))


def composed_cross_entropy_terms(logits, class_index):
    if logits.ndim == 1:
        logits = logits.reshape((1, -1))
    p = T.clamp(T.softmax(logits, axis=1), PROB_EPS, 1.0)
    return T.neg(T.log(T.take_per_row(p, np.atleast_1d(class_index))))


def test_bce_terms_equal_composed_ops_bitwise():
    # inside the clamp, on its bounds and beyond them at both ends
    pred = np.array([0.0, 1e-9, PROB_EPS, 0.3, 0.5, 0.97, 1.0 - PROB_EPS, 1.0 - 1e-9, 1.0])
    for target in (np.ones(9), np.zeros(9), RNG.uniform(0.0, 1.0, 9)):
        for _ in range(5):
            jitter = np.clip(pred + rand(9) * 1e-3 * (pred % 1.0 > 0.01), 0.0, 1.0)
            assert_same_bits_as_composed(
                lambda p: bce_terms(p, target), lambda p: composed_bce_terms(p, target), [jitter], rand(9)
            )


@pytest.mark.parametrize("rows", [0, 1, 5])
def test_cross_entropy_terms_equal_composed_ops_bitwise(rows):
    for scale in (1.0, 30.0):  # at 30 some probabilities fall below the clamp
        logits = rand(rows, 6) * scale
        idx = RNG.integers(0, 6, size=rows)
        assert_same_bits_as_composed(
            lambda l: cross_entropy_terms(l, idx),
            lambda l: composed_cross_entropy_terms(l, idx),
            [logits],
            rand(rows),
        )


def test_cross_entropy_terms_of_one_row_vector_bitwise():
    logits = rand(5) * 20.0
    assert_same_bits_as_composed(
        lambda l: cross_entropy_terms(l, 3), lambda l: composed_cross_entropy_terms(l, 3), [logits], rand(1)
    )


def test_fused_loss_errors():
    with pytest.raises(DimensionError, match=r"bce: shape mismatch \(3,\) vs \(4,\)"):
        bce_terms(Tensor(rand(3)), np.zeros(4))
    with pytest.raises(DimensionError, match="cross_entropy: 2 targets for 3 rows"):
        cross_entropy_terms(Tensor(rand(3, 4)), [0, 1])
    with pytest.raises(DimensionError, match="cross_entropy: class index out of range"):
        cross_entropy_terms(Tensor(rand(2, 4)), [0, 4])
    with pytest.raises(DimensionError, match="cross_entropy: class index out of range"):
        cross_entropy_terms(Tensor(rand(2, 4)), [-1, 0])
