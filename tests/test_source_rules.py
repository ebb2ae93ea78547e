import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gorcheck"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a correctness check written as
    # one would silently stop running; checks must raise typed errors instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert found == []
