"""The public surface holds only what the program uses.

Every name in mertenslab.__all__ must resolve, and must be read somewhere
outside the package's __init__: in another module of the package, in the
acceptance tests or in perfbench. A read is a Name or an Attribute in load
context, or a string constant equal to the name (a perfbench WRAPPED key,
an oracle FUNCS entry). Definitions, import aliases and docstrings do not
count, so an export that only the other tests call fails here: delete it,
and point those tests at a brute-force oracle in tests/oracles.py.
"""

import ast
from pathlib import Path

import mertenslab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(mertenslab.__file__).resolve().parent


def _callers():
    return [*sorted(p for p in PACKAGE.glob("*.py")
                    if p.name != "__init__.py"),
            ROOT / "tests" / "test_acceptance.py",
            *sorted((ROOT / "perfbench").glob("*.py"))]


def _reads(path: Path) -> set[str]:
    """Every name the file reads: loaded Names and Attributes, and its
    string constants (a docstring never equals a bare name)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_resolves():
    missing = [n for n in mertenslab.__all__ if not hasattr(mertenslab, n)]
    assert not missing, f"exported but not defined: {missing}"


def test_every_export_has_a_caller_outside_the_other_tests():
    paths = _callers()
    assert all(p.is_file() for p in paths)
    read = set().union(*map(_reads, paths))
    unused = sorted(set(mertenslab.__all__) - read)
    assert not unused, f"exported with no caller: {unused}"
