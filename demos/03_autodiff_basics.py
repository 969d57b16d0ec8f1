"""The tensor engine underneath both models, in a few dozen lines.

Float64 arrays with a tape of backward closures. Build any expression
from the op set, call backward() on a scalar, and every parameter's
.grad holds the exact analytic gradient. The finite-difference harness
verifies that claim without touching the tape.
"""

import numpy as np

from canids import tensor as T
from canids.gradcheck import relative_gradient_error
from canids.losses import bce_terms
from canids.optim import Adam, Param
from canids.tensor import Tensor

# forward + backward through a tiny attention-ish expression
rng = np.random.default_rng(0)
x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
scores = T.softmax(x @ w, axis=1)
loss = bce_terms(scores[:, 1], np.array([1.0, 0.0, 1.0, 0.0])).mean()
loss.backward()
print("loss:", loss.item())
print("dloss/dw:\n", w.grad)

# the tape accumulates through shared subexpressions
a = Tensor(np.array([3.0]), requires_grad=True)
(a + a).backward()
print("\nd(a+a)/da =", a.grad[0], "(gradients accumulate, never overwrite)")

# independent check: central finite differences vs the tape
err = relative_gradient_error(
    lambda xx, ww: bce_terms(T.softmax(xx @ ww, axis=1)[:, 1], np.array([1.0, 0.0, 1.0, 0.0])).mean(),
    [x.values.copy(), w.values.copy()],
)
print(f"\nfinite-difference disagreement: {err:.2e}")

# Adam drives a least-squares fit, deterministically for a fixed seed
target = np.array([2.0, -1.0, 0.5])
p = Param("theta", Tensor(np.zeros(3), requires_grad=True))
opt = Adam([p], lr=0.1)
for step in range(200):
    opt.zero_grad()
    ((p.tensor - target) ** 2).sum().backward()
    opt.step()
print("\nfitted:", np.round(p.tensor.values, 6), "target:", target)
