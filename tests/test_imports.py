"""Every name a package module imports is used somewhere in that module,
every name it defines at top level is used by some package module, nothing
outside the standard library and mpmath is imported, and the package
namespace exports exactly the API the README documents."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import pytest

import igraphjac

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "igraphjac"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"mpmath", "igraphjac"}


def imported_names(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def foreign_imports(tree):
    """Top-level packages of the absolute imports outside ALLOWED_TOP_LEVEL."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            continue
        found.update((top, node.lineno) for top in tops if top not in ALLOWED_TOP_LEVEL)
    return found


def annotation_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def referenced_names(tree):
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in annotation_nodes(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


def defined_names(tree):
    """Top-level functions, classes and assigned constants of a module."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return names


def package_uses(module, tree):
    """(module, name) pairs one module uses: the names it reads itself and
    the names it imports from sibling modules."""
    uses = {(module, name) for name in referenced_names(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            uses |= {(node.module, alias.name) for alias in node.names}
    return uses


def unused_definitions(trees):
    """Top-level names of the given {module: tree} that no module uses."""
    used = set().union(*(package_uses(module, tree) for module, tree in trees.items()))
    return {
        f"{module}.{name}": line
        for module, tree in trees.items()
        for name, line in defined_names(tree).items()
        if (module, name) not in used
    }


def test_modules_found():
    assert {p.name for p in MODULES} >= {"asymptotics.py", "cli.py", "polyring.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = referenced_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_stdlib_and_mpmath(path):
    # numpy may be installed, but the only runtime dependency is mpmath
    foreign = foreign_imports(ast.parse(path.read_text()))
    assert not foreign, f"{path.name}: imports outside stdlib and mpmath: {foreign}"


def test_dependency_scan_flags_foreign_imports():
    tree = ast.parse(
        "import os.path, numpy as np\n"
        "from scipy.linalg import det\n"
        "from mpmath import mp\n"
        "from . import polyring\n"
        "from .errors import InvalidParams\n"
    )
    assert set(foreign_imports(tree)) == {"numpy", "scipy"}


def test_scan_sees_string_annotations():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from x import A, B\n"
        "def f(a: 'A') -> 'list[int]':\n"
        "    return a\n"
    )
    unused = set(imported_names(tree)) - referenced_names(tree)
    assert unused == {"B"}


def test_no_definition_without_a_package_caller():
    # the re-exports of __init__.py do not count: test-only code lives in tests/
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    unused = unused_definitions(trees)
    assert not unused, f"defined but used by no package module: {unused}"


def test_dense_routes_share_no_kernel_with_the_ring():
    # igraph builds the matrix both dense routes reduce; were it to reach
    # polyring, one fault in the ring kernel could pass both Jacobian routes
    seen, todo = set(), ["igraph"]
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                todo += [node.module] if node.module else [alias.name for alias in node.names]
    assert "polyring" not in seen, f"igraph reaches {sorted(seen)}"


def test_definition_scan_sees_imports_and_stores():
    trees = {
        "a": ast.parse("X = 1\nY = 2\nZ = Y\ndef f():\n    pass\ndef g():\n    pass\n"),
        "b": ast.parse("from .a import f\nf()\n"),
    }
    assert set(unused_definitions(trees)) == {"a.X", "a.Z", "a.g"}


def test_namespace_is_the_documented_api():
    public = {
        name for name, value in vars(igraphjac).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(igraphjac.__all__)
    readme = (ROOT / "README.md").read_text()
    undocumented = [name for name in igraphjac.__all__ if name not in readme]
    assert not undocumented, f"exported but not in README.md: {undocumented}"


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["g"].order == namespace["t"]
    assert "(2114, 52850, 52850, 52850)" in capsys.readouterr().out
