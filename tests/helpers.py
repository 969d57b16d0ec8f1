"""Independent oracles and small utilities shared across the test suite.

The brute-force builders here deliberately share no code with the package:
they recount everything with plain dicts so the real implementations have
something honest to disagree with.
"""

import hashlib
import json
import struct

import numpy as np

from canids import tensor as T
from canids.canlog import CanFrame, FrameBlock, FrameLog, Label
from canids.gat import prepare_graph
from canids.gradcheck import relative_gradient_error
from canids.graphs import WindowGraph, build_windows
from canids.tensor import Tensor


# the synth config of the quick-start chain (README, CI) and of the acceptance suite's crit-10 chain
CHAIN_SYNTH = {
    "duration": 60.0,
    "ecus": [
        {"can_id": 272, "period": 0.004, "payload_seed": 1},
        {"can_id": 544, "period": 0.007, "payload_seed": 2},
        {"can_id": 816, "period": 0.011, "payload_seed": 3},
    ],
    "attacks": [
        {"kind": "dos", "start": 10.0, "duration": 1.5, "rate": 800.0},
        {"kind": "fuzzing", "start": 28.0, "duration": 1.5, "rate": 400.0},
        {"kind": "dos", "start": 44.0, "duration": 1.5, "rate": 800.0},
        {"kind": "fuzzing", "start": 54.0, "duration": 1.5, "rate": 400.0},
    ],
}


def per_field_format_car_hacking_row(frame):
    """Reference Car-Hacking row: one ``f"{b:02x}"`` per payload byte, joined by commas."""
    parts = [repr(frame.timestamp), f"{frame.can_id:04x}", str(frame.dlc)]
    parts.extend(f"{b:02x}" for b in frame.payload)
    parts.append("T" if frame.label == Label.ATTACK else "R")
    return ",".join(parts)


def cache_columns(data: bytes) -> dict:
    """name -> (first byte, struct format) of each part of the binary graph cache ``data`` after its header
    line: ``counts`` (k, n, e), then the columns ``heads`` (4 a window: start, label, node and edge counts),
    ``ids``, ``feats`` (3 a node), ``src``, ``dst`` and ``weight``, 8 bytes a value."""
    at = data.index(b"\n") + 1
    k, n, e = struct.unpack_from("<3q", data, at)
    columns = {}
    for name, fmt, count in (("counts", "q", 3), ("heads", "q", 4 * k), ("ids", "q", n), ("feats", "d", 3 * n),
                             ("src", "q", e), ("dst", "q", e), ("weight", "d", e)):
        columns[name] = (at, fmt)
        at += 8 * count
    return columns


def edited_cache(data: bytes, edits) -> bytes:
    """The binary graph cache ``data`` with each (part, flat index, value) of ``edits`` written over it; the
    parts are those of ``cache_columns``."""
    columns = cache_columns(data)
    out = bytearray(data)
    for column, index, value in edits:
        first, fmt = columns[column]
        struct.pack_into("<" + fmt, out, first + 8 * index, value)
    return bytes(out)


def checkpoint_bytes(model: str, table: list, values) -> bytes:
    """A binary checkpoint packed by struct: the magic line, the line ``model <model>``, the params line of
    ``table`` (a list of [name, shape]) and ``values`` as little-endian float64s."""
    header = f"canids-checkpoint v2\nmodel {model}\nparams {json.dumps(table)}\n"
    return header.encode() + struct.pack(f"<{len(values)}d", *values)


def checkpoint_parts(data: bytes) -> tuple[str, list, list]:
    """(the model line's text after "model ", the param table, the values) of the binary checkpoint ``data``:
    the inverse of ``checkpoint_bytes``."""
    _, model, table, values = data.split(b"\n", 3)  # the values start after the third line end
    assert model.startswith(b"model ") and table.startswith(b"params ")
    return model[6:].decode(), json.loads(table[7:]), list(struct.unpack(f"<{len(values) // 8}d", values))


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


def loop_window_graph(window, start_index, directed=True):
    """Bit-level oracle: one WindowGraph built one frame at a time.

    The loop build_windows ran before windows were built with array ops:
    integer tallies per CAN ID in first-appearance order, a dict of
    transition counts in first-occurrence order (unordered pairs when not
    ``directed``), and features from the same float operations
    (``cid / 2047``, ``count / W``, ``(psum / pn) / 255.0``).
    """
    w = len(window)
    index, counts, payload_sum, payload_n, seq = {}, [], [], [], []
    for _, can_id, dlc, payload, _ in window:
        j = index.setdefault(can_id, len(index))
        if j == len(counts):
            counts.append(0)
            payload_sum.append(0)
            payload_n.append(0)
        counts[j] += 1
        payload_sum[j] += sum(payload)
        payload_n[j] += dlc
        seq.append(j)
    edge_counts = {}
    for key in zip(seq[:-1], seq[1:]):
        if not directed and key[0] > key[1]:
            key = (key[1], key[0])
        edge_counts[key] = edge_counts.get(key, 0) + 1
    feats = np.empty((len(index), 3), dtype=np.float64)
    for j, cid in enumerate(index):
        mean_payload = payload_sum[j] / payload_n[j] if payload_n[j] else 0.0
        feats[j] = (cid / 2047, counts[j] / w, mean_payload / 255.0)
    src = np.array([k[0] for k in edge_counts], dtype=np.int64)
    dst = np.array([k[1] for k in edge_counts], dtype=np.int64)
    wts = np.array(list(edge_counts.values()), dtype=np.float64)
    label = int(any(f.label == Label.ATTACK for f in window))
    return WindowGraph(list(index), feats, src, dst, wts, label, start_index)


def loop_windows(frames, window_size, stride, directed=True):
    return [
        loop_window_graph(frames[start : start + window_size], start, directed)
        for start in range(0, len(frames) - window_size + 1, stride)
    ]


def windows_sha256(windows) -> str:
    """A sha256 of every window's node IDs, label and start and the bytes, dtypes and shapes of its arrays."""
    digest = hashlib.sha256()
    for g in windows:
        digest.update(repr((g.node_ids, g.label, g.window_start_index)).encode())
        for x in (g.node_features, g.edge_src, g.edge_dst, g.edge_weight):
            digest.update(repr((x.dtype.str, x.shape)).encode() + x.tobytes())
    return digest.hexdigest()


def assert_bit_identical(a, b):
    """Equal node IDs, label and start, and byte-identical arrays of the same dtype and shape."""
    assert (a.node_ids, a.label, a.window_start_index) == (b.node_ids, b.label, b.window_start_index)
    assert type(a.label) is type(b.label) is int and type(a.window_start_index) is type(b.window_start_index) is int
    for name in ("node_features", "edge_src", "edge_dst", "edge_weight"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


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


def log_of(frames):
    """The FrameLog of a list of frames, which the writer takes."""
    return FrameLog(FrameBlock.from_frames(frames))


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


def one_id_window(start_index: int):
    """A window of 100 frames that all carry one CAN ID: a one-node graph, labelled benign."""
    frames = [CanFrame(0.01 * k, 0x123, 2, (k % 256, 7)) for k in range(100)]
    window = next(build_windows(frames, 100))
    window.window_start_index = start_index
    return window


def record_attention(monkeypatch) -> list:
    """Patch ``tensor.graph_attention`` to append each call's (alpha, dst, n) to the returned list."""
    calls = []
    graph_attention = T.graph_attention

    def recorded(wh, att_src, att_dst, log_w, src, dst, slope):
        out, alpha = graph_attention(wh, att_src, att_dst, log_w, src, dst, slope)
        calls.append((alpha.copy(), np.array(getattr(dst, "idx", dst)), wh.shape[0]))
        return out, alpha

    monkeypatch.setattr(T, "graph_attention", recorded)
    return calls


def batch_of_one(num_nodes: int):
    """A GraphBatch of one edgeless window of ``num_nodes`` nodes."""
    none = np.empty(0, dtype=np.int64)
    return prepare_graph(WindowGraph(list(range(num_nodes)), np.zeros((num_nodes, 3)), none, none, np.empty(0), 0, 0))
