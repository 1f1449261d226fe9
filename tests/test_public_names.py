"""Every public name of helmono is used by the package, a demo or the benchmark.

A name in ``helmono.__all__`` that only tests call is a wrapper to delete or a
helper that belongs in ``tests/``.  A use is a reference to the name from
``src/helmono`` (``__init__.py`` aside), ``demos/`` or ``bench/`` outside the
name's own definition; a dotted-identifier string counts too, since the
benchmark names the functions it traces that way.  The same holds for the
fields, properties and methods of the classes in ``__all__``: a use is an
attribute read ``x.name``, or ``name`` after a dot in a dotted string.
``ALLOWED`` lists the names kept public without such a use, each with its
reason; a member is listed as ``Class.member``.
"""

import ast
import inspect
import re
import textwrap
from pathlib import Path

import helmono

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "is_resonance": "the frozen acceptance suite (criterion 3) flags resonances with it",
    "inclusion_test": "the single-region form of reconstruct's pixel test, for library "
                      "callers probing any region; it counts the same matrix and its "
                      "verdict is reconstruct's verdicts entry, None where undecided",
    "ReconstructionResult.ambiguous": "the frozen acceptance suite (criterion 5) asserts "
                                      "that no pixel is undecided with it",
    "ReconstructionResult.negative_counts": "the frozen acceptance suite (criterion 5) "
                                            "reads the far ring's count growth from it",
    "ReconstructionResult.indeterminate_counts": "the only way a library caller reads a "
                                                 "certified pixel's indeterminate count, "
                                                 "since its counts entry is None",
    "ReconstructionResult.grid": "the pixel boxes and regions that a library caller maps "
                                 "the mask and verdicts back to",
    "ResonanceError.smallest_pivot": "fault data: the pivot that tripped the resonance "
                                     "check, for a caller handling the error",
    "ResonanceError.threshold": "fault data: the bound the smallest pivot was held to",
    "SpectralAmbiguityError.offending": "fault data: the eigenvalues inside the decision "
                                        "window, to full precision",
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
    stale = sorted(name for name in ALLOWED if "." not in name
                   and (name in used or name not in helmono.__all__))
    assert not stale, f"allowlisted names that are used or no longer public: {stale}"


def _attribute_uses(tree: ast.AST) -> set:
    """Attribute names read in the tree, or named after a dot in a dotted string."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            found.update(node.value.split(".")[1:])
    return found


def _members(cls) -> set:
    """Public names the class's own body defines (fields, properties, methods,
    class attributes) and the attributes its methods set on ``self``."""
    found = set()
    for node in ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0].body:
        if isinstance(node, ast.FunctionDef):
            found.add(node.name)
            found.update(sub.attr for sub in ast.walk(node)
                         if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                         and isinstance(sub.value, ast.Name) and sub.value.id == "self")
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.add(node.target.id)
        elif isinstance(node, ast.Assign):
            found.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in found if not name.startswith("_")}


def test_every_public_member_is_used_outside_tests():
    used = set()
    for path in _sources():
        used |= _attribute_uses(ast.parse(path.read_text(), filename=str(path)))
    classes = [getattr(helmono, name) for name in helmono.__all__]
    classes = [c for c in classes
               if inspect.isclass(c) and c.__module__.startswith("helmono.")]
    members = {f"{c.__name__}.{m}": m for c in classes for m in _members(c)}
    unused = sorted(key for key, m in members.items() if m not in used and key not in ALLOWED)
    assert not unused, f"public members only tests use: {unused}"
    stale = sorted(key for key in ALLOWED
                   if "." in key and (key not in members or members[key] in used))
    assert not stale, f"allowlisted members that are used or no longer public: {stale}"
