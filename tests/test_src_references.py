"""Every module-level function and class of ``canids``, and every public method of its classes, has a caller
outside the tests.

A definition counts as used when its name appears in ``src/``, ``bench/`` or
``demos/`` outside the definition itself, as a name or as a string literal that
is exactly the name (``bench/spans.py`` patches functions by name); a method
only as an attribute (``.name``). The re-exports in ``canids/__init__.py`` do
not count, and neither do the tests: code that only tests reach is dead code.
The package's calls of a few kinds each have one owner, and importing it loads
no third-party module but its declared dependencies.
"""

import ast
import os
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "canids"


def _span(node):
    return min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno


def definitions():
    """(qualified name, name, module path, first line, last line, whether a method) of each top-level function
    and class of the package and each public non-dunder method of those classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (*functions, ast.ClassDef)):
                yield node.name, node.name, path, *_span(node), False
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, functions) and not method.name.startswith("_"):
                        yield f"{node.name}.{method.name}", method.name, path, *_span(method), True


def references():
    """name -> [(path, line, whether an attribute)] of every name token and identifier-like string literal
    outside the tests."""
    found = {}
    for folder in ("src", "bench", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            with open(path, "rb") as fh:
                before = None  # the token before
                for tok in tokenize.tokenize(fh.readline):
                    name, attribute = tok.string, before is not None and before.string == "."
                    before = tok
                    if tok.type == tokenize.STRING:
                        try:
                            name = ast.literal_eval(tok.string)
                        except (ValueError, SyntaxError):  # an f-string
                            continue
                    elif tok.type != tokenize.NAME:
                        continue
                    if isinstance(name, str) and name.isidentifier():
                        found.setdefault(name, []).append((path, tok.start[0], attribute))
    return found


def test_every_definition_is_named_outside_the_tests():
    found = references()
    unused = [
        f"{path.stem}.{qualified}"
        for qualified, name, path, first, last, method in definitions()
        if all(
            (where == path and first <= line <= last) or (method and not attribute)
            for where, line, attribute in found.get(name, [])
        )
    ]
    assert unused == [], "defined in src/canids but named nowhere in src/, bench/ or demos/"


# (module, top-level definition or Class.method) that alone may hold each kind of call: one clock for every
# timings block, one epoch loop for both trainers, one timestamp-order check for every CSV layout, one float
# formatter for every writer of many floats, and one builder of model batches
SOLE_OWNERS = {
    "clock read": ("pipeline", "Timings"),
    "checked_step call": ("gat", "train_epochs"),
    "shuffle": ("gat", "train_epochs"),
    "timestamp error call": ("canlog", "_decode_block"),
    "bulk float repr": ("floattext", "_rows"),
    "NUL drop": ("floattext", "joined"),
    "GraphBatch construction": ("gat", "GraphBatch.of"),
}
CLOCK_READS = {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns", "process_time", "time_ns"}


def _owned_nodes(tree):
    """(owner, node) of every node under a top-level statement of ``tree``: the owner is the definition's
    name, ``Class.method`` within a method of a top-level class, and ``<module>`` outside every definition."""
    for top in tree.body:
        parts = top.body if isinstance(top, ast.ClassDef) else [top]
        for part in parts:
            owner = getattr(top, "name", "<module>")
            if part is not top and isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = f"{owner}.{part.name}"
            for node in ast.walk(part):
                yield owner, node


def _kind(node, owner):
    """Which SOLE_OWNERS kind an AST node is, or None; ``cls(...)`` constructs the class that owns it."""
    name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None
    if name in CLOCK_READS or (name == "time" and isinstance(node, ast.Attribute)):
        return "clock read"
    if isinstance(node, ast.Subscript) and _is_nonzero_test(node.slice, node.value):
        return "NUL drop"  # x[x != 0]
    if name == "__repr__" and isinstance(node.value, ast.Name) and node.value.id == "float":
        return "bulk float repr"  # float.__repr__, mapped or not
    if isinstance(node, ast.Call):
        called = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        if called == "checked_step":
            return "checked_step call"
        if called in ("shuffle", "permutation"):
            return "shuffle"
        if called == "_timestamp_error":
            return "timestamp error call"
        if called == "map" and node.args and getattr(node.args[0], "id", None) == "repr":
            return "bulk float repr"
        if called == "GraphBatch" or (called == "cls" and owner.startswith("GraphBatch.")):
            return "GraphBatch construction"
    return None


def _is_nonzero_test(test, value) -> bool:
    """Whether ``test`` is ``value != 0``."""
    return (isinstance(test, ast.Compare) and ast.dump(test.left) == ast.dump(value) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.NotEq) and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == 0)


def test_clock_reads_steps_shuffles_timestamp_errors_and_batches_have_one_owner_each():
    """Only ``pipeline.Timings`` reads the clock, only ``gat.train_epochs`` calls ``checked_step`` and
    shuffles, only ``canlog._decode_block`` calls ``_timestamp_error``, only ``floattext._rows``
    maps ``repr`` or names ``float.__repr__``, only ``floattext.joined`` drops NULs (``x[x != 0]``),
    and only ``gat.GraphBatch.of`` constructs a GraphBatch, so that every run has one timings path,
    both trainers one epoch loop, both CSV layouts one timestamp-order check, every writer one float
    formatter and one row layout, and every model batch one builder."""
    seen = {kind: set() for kind in SOLE_OWNERS}
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, node in _owned_nodes(ast.parse(path.read_text())):
            kind = _kind(node, owner)
            if kind is not None:
                seen[kind].add((path.stem, owner, node.lineno))
    for kind, (module, owner) in SOLE_OWNERS.items():
        # a top-level owner holds its methods too: Timings owns the clock reads of Timings.stage
        owners = {(m, ".".join(o.split(".")[: owner.count(".") + 1])) for m, o, _ in seen[kind]}
        assert owners == {(module, owner)}, f"{kind} outside {module}.{owner}: {sorted(seen[kind])}"


# the top-level packages that importing canids may load besides the standard library: pyproject.toml's
# dependencies and canids itself
DECLARED = {"numpy", "canids"}


def test_imports_load_only_the_declared_dependencies():
    """``import canids`` and ``import canids.cli``, in a fresh interpreter, load no top-level module outside
    the standard library and DECLARED, so that a new runtime dependency changes pyproject.toml and DECLARED
    together (an ``import scipy.sparse`` alone takes about as long as all of ``import canids``)."""
    code = ("import sys; before = set(sys.modules); import canids, canids.cli; "
            "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert "canids" in loaded.split()
    assert set(loaded.split()) - set(sys.stdlib_module_names) - DECLARED == set()
