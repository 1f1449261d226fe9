"""Every public name of helmono is used by the package, a demo or the benchmark.

A name in ``helmono.__all__`` that only tests call is a wrapper to delete or a
helper that belongs in ``tests/``.  A use is a reference to the name from
``src/helmono`` (``__init__.py`` aside), ``demos/`` or ``bench/`` outside the
name's own definition; a dotted-identifier string counts too, since the
benchmark names the functions it traces that way.  ``ALLOWED`` lists the
names kept public without such a use, each with its reason.
"""

import ast
import re
from pathlib import Path

import helmono

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "is_resonance": "the frozen acceptance suite (criterion 3) flags resonances with it",
    "inclusion_test": "the single-region form of reconstruct's pixel test, for library "
                      "callers probing any region; it counts the same matrix and its "
                      "verdict is True exactly where reconstruct's CountResult.verdict is",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.\w+)*")


def _sources():
    package = sorted((ROOT / "src" / "helmono").glob("*.py"))
    return ([p for p in package if p.name != "__init__.py"]
            + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")))


def _uses(tree: ast.AST) -> set:
    """Names referenced in the tree, outside the definition of the same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            name = node.value.split(".")[0]
        else:
            name = None
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_public_name_is_used_outside_tests():
    used = set()
    for path in _sources():
        used |= _uses(ast.parse(path.read_text(), filename=str(path)))
    unused = sorted(set(helmono.__all__) - used - set(ALLOWED))
    assert not unused, f"public names only tests use: {unused}"
    stale = sorted(name for name in ALLOWED
                   if name in used or name not in helmono.__all__)
    assert not stale, f"allowlisted names that are used or no longer public: {stale}"
