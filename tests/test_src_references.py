"""Every module-level function and class of ``canids`` has a caller outside the tests.

A definition counts as used when its name appears in ``src/``, ``bench/`` or
``demos/`` outside the definition itself, as a name or as a string literal that
is exactly the name (``bench/spans.py`` patches functions by name). The
re-exports in ``canids/__init__.py`` do not count, and neither do the tests:
code that only tests reach is dead code.
"""

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "canids"


def definitions():
    """(name, module path, first line, last line) of each top-level function and class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield node.name, path, first, node.end_lineno


def references():
    """name -> [(path, line)] of every name token and identifier-like string literal outside the tests."""
    found = {}
    for folder in ("src", "bench", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            with open(path, "rb") as fh:
                for tok in tokenize.tokenize(fh.readline):
                    name = tok.string
                    if tok.type == tokenize.STRING:
                        try:
                            name = ast.literal_eval(tok.string)
                        except (ValueError, SyntaxError):  # an f-string
                            continue
                    elif tok.type != tokenize.NAME:
                        continue
                    if isinstance(name, str) and name.isidentifier():
                        found.setdefault(name, []).append((path, tok.start[0]))
    return found


def test_every_definition_is_named_outside_the_tests():
    found = references()
    unused = [
        f"{path.stem}.{name}"
        for name, path, first, last in definitions()
        if all(where == path and first <= line <= last for where, line in found.get(name, []))
    ]
    assert unused == [], "defined in src/canids but named nowhere in src/, bench/ or demos/"
