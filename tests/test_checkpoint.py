"""The binary checkpoint: its layout, exact round trips, and one error for each rule its loader checks.

A checkpoint is the line ``canids-checkpoint v2``, the line ``model <kind>
<config JSON>``, the line ``params <JSON list of [name, shape]>`` and every
value as a little-endian float64, param by param. The layout is checked
here against ``struct`` (helpers.checkpoint_bytes), not numpy.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from canids.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from canids.errors import ParseError, StateError
from canids.gat import GatClassifier, GatConfig
from canids.vgae import VgaeConfig, VgaeModel
from helpers import checkpoint_bytes, checkpoint_parts

MODELS = [(GatClassifier, GatConfig), (VgaeModel, VgaeConfig)]


def small_checkpoint(path, table=None, values=None) -> bytes:
    """Write a checkpoint of a (2, 2) and a (3,) param to ``path``, or of ``table`` and ``values``."""
    if table is None:
        table, values = [["w", [2, 2]], ["b", [3]]], [0.5, -1.0, 2.0, 0.25, 0.0, 1e-300, -7.0]
    data = checkpoint_bytes('demo {"a": 1}', table, values)
    path.write_bytes(data)
    return data


def error_of(path, line=None) -> str:
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert err.value.line == line
    return str(err.value).removeprefix(f"line {line}: " if line else "")


# ---------------------------------------------------------------- layout and round trips


@pytest.mark.parametrize("preset", ["teacher", "student"])
@pytest.mark.parametrize("model_type, config_type", MODELS)
def test_model_checkpoints_are_the_struct_layout_and_round_trip(tmp_path, model_type, config_type, preset):
    model = model_type(getattr(config_type, preset)(), seed=3)
    p = tmp_path / "model.ckpt"
    model.save(p)
    params = model.param_values()
    table = [[name, list(arr.shape)] for name, arr in params.items()]
    values = [v for arr in params.values() for v in arr.ravel().tolist()]
    config = json.dumps(dataclasses.asdict(model.config), sort_keys=True)
    assert MAGIC == b"canids-checkpoint v2\n"
    assert p.read_bytes() == checkpoint_bytes(f"{model.kind} {config}", table, values)
    clone = model_type.load(p)
    assert clone.config == model.config
    assert all(clone.param_values()[k].tobytes() == v.tobytes() for k, v in params.items())


def test_awkward_values_and_shapes_round_trip(tmp_path):
    """-0.0, subnormals, the extremes, a (3, 0) param, a (0,) param, scalars and a non-float array."""
    rng = np.random.Generator(np.random.PCG64(5))
    params = {
        "scalar": np.float64(-0.0),
        "row": np.array([5e-324, -1.7976931348623157e308, 0.1, 1e16, 1.0, -2.5e-07, 2.2250738585072014e-308]),
        "rows": np.zeros((3, 0)),
        "none": np.zeros((0,)),
        "cube": rng.standard_normal((2, 3, 2)) * 10.0 ** rng.integers(-300, 300, (2, 3, 2)),
        "ints": np.arange(6).reshape(2, 3),
        "one": np.float64(0.1),
    }
    p = tmp_path / "awkward.ckpt"
    save_checkpoint(p, "demo", {"a": [1, "x"]}, params)
    kind, config, loaded = load_checkpoint(p)
    assert (kind, config, list(loaded)) == ("demo", {"a": [1, "x"]}, list(params))
    for name, arr in params.items():
        arr = np.asarray(arr, dtype=np.float64)
        assert loaded[name].shape == arr.shape and loaded[name].tobytes() == arr.tobytes(), name
    _, table, values = checkpoint_parts(p.read_bytes())
    assert table[:3] == [["scalar", []], ["row", [7]], ["rows", [3, 0]]] and math.copysign(1, values[0]) == -1


@pytest.mark.parametrize("shape", [(0, 2), (0, 3, 2), (3, 0), (0,), (), (1,) * 20])
def test_empty_and_scalar_shapes_round_trip(tmp_path, shape):
    path = tmp_path / "empty.ckpt"
    save_checkpoint(path, "demo", {}, {"w": np.full(shape, 2.5), "b": np.array([1.5])})
    _, _, loaded = load_checkpoint(path)
    assert loaded["w"].shape == shape and loaded["w"].size in (0, 1) and loaded["b"].tolist() == [1.5]


def test_loaded_arrays_are_native_and_writable(tmp_path):
    """Aligned too, whatever the length of the header before them."""
    p = tmp_path / "c.ckpt"
    for pad in range(8):
        small_checkpoint(p, [["w" + "x" * pad, [2, 2]], ["b", [3]]], [0.5, -1.0, 2.0, 0.25, 0.0, 1e-300, -7.0])
        _, _, params = load_checkpoint(p)
        for arr in params.values():
            assert arr.dtype == np.float64 and arr.dtype.isnative and arr.flags.writeable and arr.flags.aligned
    params["b"][0] = 9.0
    assert params["b"].tolist() == [9.0, 1e-300, -7.0]


def test_names_are_written_as_json(tmp_path):
    """A param name holds any text: the table is JSON, so a blank or a quote in a name round-trips."""
    p = tmp_path / "c.ckpt"
    save_checkpoint(p, "demo", {}, {'a "b" c': np.array([1.0]), "é": np.array([2.0])})
    assert p.read_bytes()[:-16].isascii()  # all but the two values
    assert list(load_checkpoint(p)[2]) == ['a "b" c', "é"]


# ---------------------------------------------------------------- the loader's rules


@pytest.mark.parametrize(
    "header, line, error",
    [
        ("model demo {}\n", 3, "checkpoint cut short in its header"),
        ("model demo {}", 2, "checkpoint cut short in its header"),
        ("model demo\nparams []\n", 2, "missing model header"),
        ("mode demo {}\nparams []\n", 2, "missing model header"),
        ("model demo {}\nparam []\n", 3, "missing params header"),
        ("model demo {}\nparams\n", 3, "missing params header"),
        ("model démo {}\nparams []\n", 2, "non-ASCII byte"),
        ("model demo {}\nparams [[\"é\", []]]\n", 3, "non-ASCII byte"),
        ("model demo {x}\nparams []\n", 2, "bad checkpoint header (Expecting property name enclosed in double "
                                           "quotes: line 1 column 2 (char 1))"),
        ("model demo " + "[" * 200_000 + "\nparams []\n", 2, None),
        ("model demo {}\nparams [\n", 3, "bad checkpoint header (Expecting value: line 1 column 2 (char 1))"),
        ("model demo {}\nparams {}\n", 3, "the params header is not a list of [name, shape]"),
        ("model demo {}\nparams [[\"w\", [1]], [\"b\"]]\n", 3, "params entry 1 is not [name, shape]"),
        ("model demo {}\nparams [[1, [1]]]\n", 3, "params entry 0 is not [name, shape]"),
        ("model demo {}\nparams [[\"w\", [1]], [\"w\", [1]]]\n", 3, "param 'w' listed twice"),
    ],
    ids=["no-params-line", "model-cut", "model-short", "model-word", "params-word", "params-short",
         "model-non-ascii", "params-non-ascii", "model-json", "model-deep", "params-json", "params-object",
         "entry-short", "entry-name", "name-twice"],
)
def test_each_header_rule_names_its_line(tmp_path, header, line, error):
    p = tmp_path / "c.ckpt"
    p.write_bytes(MAGIC + header.encode())
    got = error_of(p, line)
    assert got == f"{p}: {error}" if error else got.startswith(f"{p}: bad checkpoint header (")


@pytest.mark.parametrize("shape", [[1.0], [-1], [True], ["1"], [[1]], 3, None],
                         ids=["float", "negative", "bool", "string", "nested", "not-a-list", "null"])
def test_a_shape_must_be_a_list_of_ints(tmp_path, shape):
    p = tmp_path / "c.ckpt"
    small_checkpoint(p, [["b", [0]], ["w", shape]], [1.0])
    assert error_of(p, 3) == f"{p}: param 'w' has a shape that is not a list of ints >= 0"


@pytest.mark.parametrize("shape", [[2**63, 0], [2**62, 4, 0], [10**400], [2**40] * 1000, [0] * 65, [1] * 65],
                         ids=["2^63", "2^62-by-4", "10^400", "2^40000", "65-zeros", "65-ones"])
def test_a_shape_numpy_cannot_hold_is_a_parse_error(tmp_path, shape):
    p = tmp_path / "c.ckpt"
    small_checkpoint(p, [["w", shape], ["b", [1]]], [1.0])
    assert error_of(p, 3).startswith(f"{p}: param 'w' has a shape numpy cannot hold (")


def test_values_must_fill_what_the_table_needs(tmp_path):
    p = tmp_path / "c.ckpt"
    small_checkpoint(p, [["w", [2, 2]], ["b", [4]]], [1.0] * 7)
    assert error_of(p) == f"{p}: 2 params of 8 values do not fill the checkpoint's 56 bytes after its header"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at, name", [(0, "w"), (3, "w"), (4, "b"), (6, "b")])
def test_a_non_finite_value_names_its_param(tmp_path, value, at, name):
    p = tmp_path / "c.ckpt"
    values = [0.5, -1.0, 2.0, 0.25, 0.0, 1e-300, -7.0]
    values[at] = value
    small_checkpoint(p, [["e", [0]], ["w", [2, 2]], ["f", [3, 0]], ["b", [3]]], values)
    assert error_of(p) == f"{p}: param {name!r} has a non-finite value, {value}"


def test_every_bit_flip_and_cut_loads_or_is_one_error(tmp_path):
    """No change of one bit, and no cut, of a small VGAE checkpoint ends in anything but a model or the
    ParseError or StateError that the CLI prints as one canids-error line."""
    p = tmp_path / "c.ckpt"
    VgaeModel(VgaeConfig(num_layers=2, attn_heads=1, hidden_channels=1, latent_dim=1, id_buckets=2), seed=1).save(p)
    data = p.read_bytes()
    assert len(data) < 1200
    refused = 0
    for at in range(len(data)):
        for bit in range(8):
            flipped = bytearray(data)
            flipped[at] ^= 1 << bit
            p.write_bytes(flipped)
            try:
                VgaeModel.load(p)
            except (ParseError, StateError):
                refused += 1
    header = data.index(b"\n", data.index(b"\nparams ") + 1) + 1
    assert refused > header * 8 * 3 // 4  # most flips of the header lines are refused
    for end in range(len(data)):
        p.write_bytes(data[:end])
        with pytest.raises(ParseError):
            VgaeModel.load(p)


@pytest.mark.parametrize("layers, shown", [(10**9, "1000000000"), (10**400, "1" + "0" * 63 + "... (401 characters)")],
                         ids=["1e9", "1e400"])
@pytest.mark.parametrize("model_type, config_type", MODELS)
def test_more_layers_than_params_is_a_mismatch_before_the_param_table_is_built(tmp_path, monkeypatch, model_type,
                                                                               config_type, layers, shown):
    """Each layer has at least one param, so a header whose num_layers exceeds the file's params cannot
    match; building its name -> shape table first would take time and memory linear in num_layers."""
    path = tmp_path / "model.ckpt"
    model = model_type(config_type.student(), seed=3)
    model.save(path)
    header, table, values = checkpoint_parts(path.read_bytes())
    config = {**json.loads(header.split(" ", 1)[1]), "num_layers": layers}
    path.write_bytes(checkpoint_bytes(f"{model.kind} {json.dumps(config, sort_keys=True)}", table, values))
    monkeypatch.setattr(config_type, "param_shapes", lambda self: pytest.fail("param_shapes was called"))
    with pytest.raises(StateError) as info:
        model_type.load(path)
    count = len(model.param_values())
    assert str(info.value) == f"{model.kind} checkpoint mismatch: num_layers={shown} but only {count} params"
