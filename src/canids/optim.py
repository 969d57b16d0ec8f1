"""Named parameters, deterministic initialization, and Adam."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StateError
from .tensor import Tensor


@dataclass
class Param:
    name: str
    tensor: Tensor


def seeded_rng(seed) -> np.random.Generator:
    """Deterministic generator; the same seed always yields the same stream."""
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(root_seed: int, *components: int) -> np.random.Generator:
    """Independent deterministic stream keyed on (root_seed, components)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([root_seed, *components])))


def glorot_uniform(rng, shape, fan_in, fan_out) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def check_unique_names(params: list[Param]):
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate parameter names: {dup}")


def clip_grad_norm(params: list[Param], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.tensor.grad is not None:
            total += float((p.tensor.grad * p.tensor.grad).sum())
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.tensor.grad is not None:
                p.tensor.grad = p.tensor.grad * scale
    return norm


def checked_step(opt: "Adam", loss: Tensor, grad_clip: float | None, where) -> None:
    """Backward, clip and step, or StateError naming ``where()`` on a non-finite value.

    The loss is checked before backward and the global gradient norm (the
    one clip_grad_norm returns) before the step, so no update applies a
    NaN or an infinity.
    """
    value = loss.item()
    if not np.isfinite(value):
        raise StateError(f"non-finite loss {value} at {where()}")
    loss.backward()
    norm = clip_grad_norm(opt.params, np.inf if grad_clip is None else grad_clip)
    if not np.isfinite(norm):
        raise StateError(f"non-finite gradient norm {norm} at {where()}")
    opt.step()


class Adam:
    """Standard Adam with bias correction; state is one moment pair per param."""

    def __init__(self, params: list[Param], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.tensor.values) for p in params]
        self._v = [np.zeros_like(p.tensor.values) for p in params]

    def zero_grad(self):
        for p in self.params:
            p.tensor.zero_grad()

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.tensor.grad
            if g is None:
                continue
            self._m[i] = b1 * self._m[i] + (1.0 - b1) * g
            self._v[i] = b2 * self._v[i] + (1.0 - b2) * (g * g)
            m_hat = self._m[i] / (1.0 - b1**t)
            v_hat = self._v[i] / (1.0 - b2**t)
            p.tensor.values = p.tensor.values - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
