import ast
import sys
from pathlib import Path

import renormray


def package_modules():
    package = Path(renormray.__file__).parent
    return [(path, ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))]


def test_no_assert_statements_in_package():
    # correctness checks must raise real errors, so they still run under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in package_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_every_import_is_read():
    # an import that nothing reads is dead code; __init__.py imports to re-export
    found = []
    for path, tree in package_modules():
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def test_every_definition_is_read():
    # a top-level function or class that nothing in the package names is dead
    # code, unless __init__.py re-exports it as API
    modules = package_modules()
    known = {
        node.id if isinstance(node, ast.Name) else node.attr
        for _, tree in modules
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    known |= set(renormray.__all__)  # re-exported by __init__.py
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in modules
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in known
    ]
    assert not found, found


EXACT_LAYER = ("circle.py", "rotation.py", "towers.py", "lamination.py")


def absolute_imports(node):
    """Top-level package names an import statement loads; [] for anything else."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def test_exact_layer_imports_only_stdlib():
    # the exact layer is stdlib fractions only: no numpy, no third-party package
    found = []
    for path, tree in package_modules():
        if path.name not in EXACT_LAYER:
            continue
        for node in ast.walk(tree):
            for top in absolute_imports(node):
                if top not in sys.stdlib_module_names and top != "renormray":
                    found.append(f"{path.name}:{node.lineno} {top}")
    assert sorted(p.name for p, _ in package_modules() if p.name in EXACT_LAYER) == sorted(EXACT_LAYER)
    assert not found, found


def test_numpy_is_imported_only_inside_functions():
    # numpy costs more to import than the exact layer costs to run, so only
    # the functions that build arrays import it: `import renormray` stays light
    found = []
    for path, tree in package_modules():
        in_function = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in in_function and "numpy" in absolute_imports(node)
        ]
    assert not found, found


def test_render_attribute_stays_the_function():
    # importing the submodule must not rebind the package's re-exported name
    import renormray.render

    assert callable(renormray.render) and renormray.render.__name__ == "render"
