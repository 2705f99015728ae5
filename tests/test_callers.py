"""Every public name of photherm has a caller besides its own tests.

An ast walk lists each public top-level function and class of
src/photherm, and each public method of those classes. A name counts as
called where any caller file reads it, as a name or an attribute, outside
the name's own definition. The callers are the package itself, perfbench/
and the acceptance suite; the other tests are not.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "photherm"
CALLERS = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]

# "module.name" (or "module.Class.method") of a public name kept with no caller above,
# each with the reason it stays. Empty: every public name has such a caller.
ALLOWED: dict[str, str] = {}


def _definitions(path: Path):
    """The qualified name, as a tuple of parts, of each public definition in path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield (node.name,)
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield (node.name, item.name)


def _reads(node, scope=()):
    """(name, enclosing definitions) of every name and attribute read under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope += (node.name,)
    elif isinstance(node, ast.Name):
        yield node.id, scope
    elif isinstance(node, ast.Attribute):
        yield node.attr, scope
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, scope)


def test_every_public_name_has_a_caller_outside_the_tests():
    reads = [(path, name, scope) for path in CALLERS
             for name, scope in _reads(ast.parse(path.read_text()))]
    uncalled = [f"{path.stem}.{'.'.join(qual)}" for path in sorted(SRC.glob("*.py"))
                for qual in _definitions(path)
                if not any(name == qual[-1] and not (at == path and scope[:len(qual)] == qual)
                           for at, name, scope in reads)]
    assert sorted(uncalled) == sorted(ALLOWED), uncalled
