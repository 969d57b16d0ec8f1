"""The checkpoint writer against the per-value reference writer in helpers."""

import dataclasses
import json

import numpy as np
import pytest

from canids.checkpoint import load_checkpoint, save_checkpoint
from canids.errors import ParseError, StateError
from canids.gat import GatClassifier, GatConfig
from canids.vgae import VgaeConfig, VgaeModel
from helpers import per_value_save_checkpoint


MODELS = [(GatClassifier, GatConfig), (VgaeModel, VgaeConfig)]


@pytest.mark.parametrize("preset", ["teacher", "student"])
@pytest.mark.parametrize("model_type, config_type", MODELS)
def test_model_checkpoints_match_the_reference_bytes(tmp_path, model_type, config_type, preset):
    model = model_type(getattr(config_type, preset)(), seed=3)
    got, expected = tmp_path / "got.ckpt", tmp_path / "expected.ckpt"
    model.save(got)
    per_value_save_checkpoint(expected, model.kind, dataclasses.asdict(model.config), model.param_values())
    assert got.read_bytes() == expected.read_bytes()


def test_every_shape_and_awkward_value_matches_the_reference_bytes(tmp_path):
    rng = np.random.Generator(np.random.PCG64(5))
    params = {
        "scalar": np.float64(-0.0),
        "row": np.array([5e-324, -1.7976931348623157e308, 0.1, 1e16, 1.0, -2.5e-07]),
        "matrix": rng.standard_normal((4, 3)),
        "cube": rng.standard_normal((2, 3, 2)) * 10.0 ** rng.integers(-30, 30, (2, 3, 2)),
        "ints": np.arange(6).reshape(2, 3),
    }
    got, expected = tmp_path / "got.ckpt", tmp_path / "expected.ckpt"
    save_checkpoint(got, "demo", {"a": 1}, params)
    per_value_save_checkpoint(expected, "demo", {"a": 1}, params)
    assert got.read_bytes() == expected.read_bytes()
    _, _, loaded = load_checkpoint(got)
    assert all(np.asarray(params[k], dtype=np.float64).tobytes() == loaded[k].tobytes() for k in params)


def test_values_that_repr_writes_one_at_a_time_match_the_reference_bytes(tmp_path):
    """Values below 1e-4 and from 1e16 up (repr's exponent form), zeros, subnormals and a nan, which the
    formatter hands to repr one by one, among values it lays out itself; and params with no values."""
    params = {
        "small": np.array([[1e-4, 9.999999999999999e-05, -5e-05, 1.5e-300], [0.0, -0.0, 5e-324, 0.25]]),
        "large": np.array([9999999999999998.0, 1e16, -1.5e20, 1.7976931348623157e308]),
        "nan": np.array([np.nan, 1.0, -np.inf]),
        "rows": np.zeros((3, 0)),
        "none": np.zeros((0,)),
        "scalar": np.float64(0.1),
        "tail": np.array([[2.5, -3e-20]]),
    }
    got, expected = tmp_path / "got.ckpt", tmp_path / "expected.ckpt"
    save_checkpoint(got, "demo", {}, params)
    per_value_save_checkpoint(expected, "demo", {}, params)
    assert got.read_bytes() == expected.read_bytes()
    assert b"\nparam rows 3 0\n\n\n\nparam none 0\n\nparam scalar\n0.1\n" in got.read_bytes()


@pytest.mark.parametrize("shape", [(0, 2), (0, 3, 2), (3, 0), (0,), ()])
def test_empty_and_scalar_shapes_round_trip(tmp_path, shape):
    path = tmp_path / "empty.ckpt"
    save_checkpoint(path, "demo", {}, {"w": np.zeros(shape), "b": np.array([1.5])})
    _, _, loaded = load_checkpoint(path)
    assert loaded["w"].shape == shape and loaded["b"].tolist() == [1.5]


def test_repeated_param_record_is_parse_error(tmp_path):
    path = tmp_path / "twice.ckpt"
    save_checkpoint(path, "demo", {}, {"w": np.array([[1.0, 2.0]]), "b": np.array([0.5])})
    lines = path.read_text().splitlines(keepends=True)
    assert lines[-1] == "end\n"
    path.write_text("".join(lines[:-1] + ["param w 1 2\n", "9.0 9.0\n", "end\n"]))
    with pytest.raises(ParseError, match=rf"^line {len(lines)}: .*param w listed twice"):
        load_checkpoint(path)


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
    magic, header, params = path.read_text().split("\n", 2)
    config = {**json.loads(header.split(" ", 2)[2]), "num_layers": layers}
    path.write_text(f"{magic}\nmodel {model.kind} {json.dumps(config, sort_keys=True)}\n{params}")
    monkeypatch.setattr(config_type, "param_shapes", lambda self: pytest.fail("param_shapes was called"))
    with pytest.raises(StateError) as info:
        model_type.load(path)
    count = len(model.param_values())
    assert str(info.value) == f"{model.kind} checkpoint mismatch: num_layers={shown} but only {count} params"
