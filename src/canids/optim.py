"""Named parameters, deterministic initialization, and Adam."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint, validate_params
from .errors import ConfigError, ParseError, StateError, quoted
from .tensor import Tensor

GRAD_CLIP = 5.0  # global gradient-norm bound of every training step
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator floor


@dataclass
class Param:
    name: str
    tensor: Tensor


def derive_seed(root_seed: int, *components: int) -> np.random.Generator:
    """Independent deterministic stream keyed on (root_seed, components)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([root_seed, *components])))


def glorot_uniform(rng, shape, fan_in, fan_out) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(rng, shapes: dict[str, tuple]) -> dict[str, Param]:
    """Trainable parameters for a name -> shape table, drawn from ``rng`` in table order.

    A 2-d weight of shape (a, b) is Glorot-uniform with fans (a, b); an
    attention vector ``*.att_src`` or ``*.att_dst`` of shape (heads, d) is
    Glorot-uniform with fans (d, 1); a 1-d bias is zeros and draws nothing.
    """
    params = {}
    for name, shape in shapes.items():
        if len(shape) == 1:
            values = np.zeros(shape)
        elif name.endswith((".att_src", ".att_dst")):
            values = glorot_uniform(rng, shape, shape[1], 1)
        else:
            values = glorot_uniform(rng, shape, *shape)
        params[name] = Param(name, Tensor(values, requires_grad=True))
    return params


def count_params(config) -> int:
    """Exact trainable-scalar count of the model ``config`` describes, read from its table."""
    return sum(math.prod(shape) for shape in config.param_shapes().values())


class ParamModel:
    """A checkpointed model whose parameters are one name -> Param table.

    ``config.param_shapes()`` is the table: ``init_params`` builds a new
    model's parameters from it, and a checkpoint's names and shapes must
    match it exactly.
    Subclasses set ``kind``, the checkpoint's model kind, and
    ``config_type``, the dataclass that the checkpoint's config fields build.
    """

    kind: str
    config_type: type

    def __init__(self, config, rng, param_values: dict | None = None):
        self.config = config
        shapes = config.param_shapes()
        if param_values is None:
            self.table = init_params(rng, shapes)
        else:
            # checked before anything is allocated; a loaded model draws no init
            validate_params(param_values, shapes, self.kind)
            self.table = {
                name: Param(name, Tensor(np.array(param_values[name], dtype=np.float64), requires_grad=True))
                for name in shapes
            }

    def params(self) -> list[Param]:
        return list(self.table.values())

    def param_values(self) -> dict[str, np.ndarray]:
        return {name: p.tensor.values for name, p in self.table.items()}

    def save(self, path):
        save_checkpoint(path, self.kind, dataclasses.asdict(self.config), self.param_values())

    @classmethod
    def load(cls, path):
        """The model a checkpoint holds; a malformed config header is a ParseError naming line 2."""
        kind, config, values = load_checkpoint(path)
        if kind != cls.kind:
            raise StateError(f"{path}: expected a {cls.kind} checkpoint, found {quoted(kind)}")
        try:
            config = cls.config_type(**config)
        except (TypeError, ConfigError) as exc:
            raise ParseError(f"{path}: bad {kind} config ({quoted(str(exc), marks=False)})", line=2) from None
        if config.num_layers > len(values):  # each layer has a param: refused before the table, which grows with it
            layers = quoted(str(config.num_layers), marks=False)
            raise StateError(f"{kind} checkpoint mismatch: num_layers={layers} but only {len(values)} params")
        return cls(config, param_values=values)


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


def checked_step(opt: "Adam", loss: Tensor, where) -> None:
    """Backward, clip to GRAD_CLIP and step, or StateError naming ``where()`` on a non-finite value.

    The loss is checked before backward and the global gradient norm (the
    one clip_grad_norm returns) before the step, so no update applies a
    NaN or an infinity.
    """
    value = loss.item()
    if not np.isfinite(value):
        raise StateError(f"non-finite loss {value} at {where()}")
    loss.backward()
    norm = clip_grad_norm(opt.params, GRAD_CLIP)
    if not np.isfinite(norm):
        raise StateError(f"non-finite gradient norm {norm} at {where()}")
    opt.step()


class Adam:
    """Standard Adam with bias correction; state is one moment pair per param."""

    def __init__(self, params: list[Param], lr=1e-3):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self._m = [np.zeros_like(p.tensor.values) for p in params]
        self._v = [np.zeros_like(p.tensor.values) for p in params]

    def zero_grad(self):
        for p in self.params:
            p.tensor.zero_grad()

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.tensor.grad
            if g is None:
                continue
            # the textbook m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
            # values - lr*m_hat / (sqrt(v_hat) + eps), operation for operation,
            # in place on the moments and on two fresh buffers
            step = (1.0 - b1) * g
            m *= b1
            m += step
            denom = g * g
            denom *= 1.0 - b2
            v *= b2
            v += denom
            np.divide(m, c1, out=step)
            step *= self.lr
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            # a fresh array each step: param_values() hands out the live arrays
            p.tensor.values = np.subtract(p.tensor.values, step, out=step)
