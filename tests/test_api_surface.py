"""Every public name the package defines has a caller in the program.

A public function or class of ``src/dtc2d`` must be referenced by name
somewhere in ``src/`` or ``perfbench/`` outside its own definition: as a
variable, an attribute, an import or a string (perfbench wraps backend
methods by their names). A public method counts as referenced only through
an attribute or a string: a bare local of the same name is not a call. A
name that only tests call belongs in the tests.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dtc2d"
PROGRAM_DIRS = (ROOT / "src", ROOT / "perfbench")

# waits on the subharmonic-peak report that will call it
ALLOWED_UNREFERENCED = {"observables.fourier_spectrum"}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.AST, methods_only: bool = False) -> Counter:
    """Counts of each name referenced in ``tree``.

    With ``methods_only``, only attribute accesses and strings count, the
    two ways a method can be reached.
    """
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names[node.value] += 1
        elif methods_only:
            continue
        elif isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
    return names


def _public_definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, node, is a method) of each public def and class."""
    found = []

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, _DEFINITIONS) and not node.name.startswith("_"):
                qualified = f"{prefix}.{node.name}"
                found.append((qualified, node.name, node, in_class))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, qualified, True)

    visit(tree.body, module, False)
    return found


def unreferenced_names() -> list[str]:
    program_files = sorted(
        path for directory in PROGRAM_DIRS for path in directory.rglob("*.py")
    )
    trees = {path: ast.parse(path.read_text(), str(path)) for path in program_files}
    total = {
        methods_only: sum(
            (_references(tree, methods_only) for tree in trees.values()), Counter()
        )
        for methods_only in (False, True)
    }
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        definitions = _public_definitions(trees[path], path.stem)
        for qualified, name, node, method in definitions:
            # references inside the definition itself (recursion, a
            # classmethod naming its class) do not count
            outside = total[method][name] - _references(node, method)[name]
            if outside <= 0:
                unreferenced.append(qualified)
    return unreferenced


def test_every_public_name_has_a_caller_in_the_program():
    # equality, so an exception that gains a caller leaves the list too
    assert set(unreferenced_names()) == ALLOWED_UNREFERENCED
