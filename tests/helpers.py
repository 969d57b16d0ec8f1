"""Independent oracles and small utilities shared across the test suite.

The brute-force builders here deliberately share no code with the package:
they recount everything with plain dicts so the real implementations have
something honest to disagree with.
"""

import numpy as np

from canids.canlog import CanFrame, Label
from canids.gradcheck import relative_gradient_error
from canids.tensor import Tensor


def per_field_format_car_hacking_row(frame):
    """Reference Car-Hacking row: one ``f"{b:02x}"`` per payload byte, joined by commas."""
    parts = [repr(frame.timestamp), f"{frame.can_id:04x}", str(frame.dlc)]
    parts.extend(f"{b:02x}" for b in frame.payload)
    parts.append("T" if frame.label == Label.ATTACK else "R")
    return ",".join(parts)


def brute_force_window_graph(window, start_index):
    """Reference construction of one window graph from a frame list.

    Returns (node_ids, features array, {(src, dst): weight}, label).
    """
    w = len(window)
    node_ids = []
    for f in window:
        if f.can_id not in node_ids:
            node_ids.append(f.can_id)
    feats = []
    for cid in node_ids:
        occurrences = [f for f in window if f.can_id == cid]
        count = len(occurrences)
        all_bytes = [b for f in occurrences for b in f.payload]
        mean_payload = (sum(all_bytes) / len(all_bytes)) if all_bytes else 0.0
        feats.append([cid / 2047.0, count / w, mean_payload / 255.0])
    pos = {cid: i for i, cid in enumerate(node_ids)}
    edges = {}
    for a, b in zip(window, window[1:]):
        key = (pos[a.can_id], pos[b.can_id])
        edges[key] = edges.get(key, 0) + 1
    label = 1 if any(f.label == Label.ATTACK for f in window) else 0
    return node_ids, np.array(feats, dtype=np.float64), edges, label


def brute_force_windows(frames, window_size, stride):
    out = []
    start = 0
    while start + window_size <= len(frames):
        out.append((start, brute_force_window_graph(frames[start : start + window_size], start)))
        start += stride
    return out


def confusion_oracle(truths, preds):
    """Counts + metrics straight from the definitions, no shared code."""
    tp = sum(1 for t, p in zip(truths, preds) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(truths, preds) if t == 0 and p == 1)
    tn = sum(1 for t, p in zip(truths, preds) if t == 0 and p == 0)
    fn = sum(1 for t, p in zip(truths, preds) if t == 1 and p == 0)
    total = len(list(zip(truths, preds)))
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "tp": tp, "fp": fp, "tn": tn, "fn": fn,
        "accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1,
    }


def random_frames(rng, length, id_alphabet):
    """Fuzzed but valid frame sequence with non-decreasing timestamps."""
    frames = []
    t = 0.0
    for _ in range(length):
        t += float(rng.uniform(0.0, 0.01))
        dlc = int(rng.integers(0, 9))
        payload = tuple(int(b) for b in rng.integers(0, 256, size=dlc))
        label = Label.ATTACK if rng.uniform() < 0.2 else Label.BENIGN
        frames.append(CanFrame(t, int(rng.choice(id_alphabet)), dlc, payload, label))
    return frames


def robust_gradient_error(build, arrays, tolerance=1e-4):
    """Gradient error with a kink guard.

    A central-difference probe that happens to straddle an ELU/LeakyReLU
    kink reports a large error for a perfectly correct gradient; retrying
    at a different step size moves the probe off the kink. A genuinely
    wrong gradient stays wrong at every step size, so taking the min over
    step sizes never masks a real bug.
    """
    err = relative_gradient_error(build, arrays, eps=1e-6)
    if err >= tolerance:
        err = min(err, relative_gradient_error(build, arrays, eps=1e-5))
    return err


def model_gradient_error(params, build_loss, eps=None):
    """Finite-difference check of a scalar loss w.r.t. a list of Params.

    Temporarily swaps each Param's tensor for a fresh one so the analytic
    and numeric passes see exactly the values under test.
    """
    arrays = [p.tensor.values.copy() for p in params]
    saved = [p.tensor for p in params]

    def fn(*ts):
        for p, t in zip(params, ts):
            p.tensor = t if isinstance(t, Tensor) else Tensor(t)
        try:
            return build_loss()
        finally:
            for p, s in zip(params, saved):
                p.tensor = s

    if eps is not None:
        return relative_gradient_error(fn, arrays, eps=eps)
    return robust_gradient_error(fn, arrays)


def forward_and_gradients(fn, arrays, weight):
    """fn(*tensors).values and the gradient of sum(fn(*tensors) * weight) with respect to each input."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    (out * weight).sum().backward()
    return out.values, [t.grad for t in tensors]


def assert_same_bits_as_composed(fused, composed, arrays, weight):
    """A fused op gives the composed tape ops' forward values and gradients, bit for bit."""
    out, grads = forward_and_gradients(fused, arrays, weight)
    out_ref, grads_ref = forward_and_gradients(composed, arrays, weight)
    assert out.shape == out_ref.shape and out.tobytes() == out_ref.tobytes()
    for g, g_ref in zip(grads, grads_ref):
        assert g.shape == g_ref.shape and g.tobytes() == g_ref.tobytes()
