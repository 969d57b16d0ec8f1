"""Every canids name the benchmark in bench/ patches or calls still exists.

bench/spans.py wraps package functions and methods by name to trace them,
and bench/workloads.py calls into the package; a refactor that renames or
re-signs one of those would break the benchmark only when it runs. This
test fails first: it resolves every ``canids`` attribute both files use and
binds every call they make on one to its signature.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

from canids import gat, pipeline, vgae  # noqa: E402
from canids.distill import DistillResult  # noqa: E402
from canids.gat import GatClassifier, prepare_graph  # noqa: E402
from canids.graphs import WindowGraph  # noqa: E402
from canids.vgae import VgaeModel  # noqa: E402


def canids_imports(tree) -> dict:
    """Local name -> canids object for every import of the package in a module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "canids":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name, None) or importlib.import_module(
                    f"{node.module}.{alias.name}"
                )
    return names


def resolve(node, names):
    """The canids object an expression like ``pipeline.PipelineOptions`` names, else None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = resolve(node.value, names)
        if owner is None:
            return None
        assert hasattr(owner, node.attr), f"{ast.unparse(node)} no longer exists"
        return getattr(owner, node.attr)
    return None


@pytest.mark.parametrize("name", ["spans.py", "workloads.py"])
def test_every_canids_attribute_and_call_resolves(name):
    tree = ast.parse((BENCH / name).read_text())
    names = canids_imports(tree)
    assert names, f"{name} imports nothing from canids"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node, names)
        if isinstance(node, ast.Call):
            target = resolve(node.func, names)
            if target is None or not callable(target):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                continue
            placeholders = [None] * len(node.args)
            keywords = {k.arg: None for k in node.keywords}
            try:
                inspect.signature(target).bind(*placeholders, **keywords)
            except TypeError as exc:
                pytest.fail(f"{name}: {ast.unparse(node)[:120]} no longer binds: {exc}")


def test_traced_functions_methods_and_generators_exist():
    for _, owner, attr in spans.FUNCTIONS:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"
    for cls, attr in [(cls, attr) for _, cls, attr in spans.METHODS] + list(workloads.Ticks.HOOKS):
        assert attr in vars(cls), f"{cls.__name__}.{attr} must be defined on the class itself"
    for _, owner, attr, _ in spans.GENERATORS:
        assert inspect.isgeneratorfunction(getattr(owner, attr)), f"{owner.__name__}.{attr}"
    # the negative-sampling span calls it with five positional arguments
    inspect.signature(vgae.sample_non_edges).bind(1, None, None, 0, None)


def test_instance_attributes_the_workloads_read():
    for cls, attrs in (
        (VgaeModel, ("score", "save", "load", "param_values", "encode")),
        (GatClassifier, ("save", "load", "param_values", "forward")),
    ):
        for attr in attrs:
            assert callable(getattr(cls, attr)), f"{cls.__name__}.{attr}"
    for cls, fields in (
        (pipeline.RunResult, {"report", "vgae_model", "gat_model"}),
        (DistillResult, {"report"}),
        (pipeline.ScoredWindow, {"window_start_index", "vgae_prob", "gat_prob", "fused_prob"}),
    ):
        assert fields <= set(inspect.signature(cls).parameters), cls.__name__


def test_teacher_calls_get_a_batch_of_one_with_its_graph():
    # watch_teacher records id(args[0].graph) for each teacher encode/forward
    g = WindowGraph([1, 2], np.array([[0.1, 0.5, 0.2], [0.3, 0.5, 0.1]]), np.array([0]), np.array([1]),
                    np.array([1.0]), 0, 0)
    assert prepare_graph(g).graph is g
    assert VgaeModel(vgae.VgaeConfig.student()).prepare(g).graph is g
    assert isinstance(prepare_graph(g), gat.GraphBatch)
