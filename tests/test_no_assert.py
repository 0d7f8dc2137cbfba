import ast
from pathlib import Path

import renormray


def test_no_assert_statements_in_package():
    # correctness checks must raise real errors, so they still run under python -O
    package = Path(renormray.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
