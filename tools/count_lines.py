"""Print each src/sternbrocot module's lines and code lines, then the totals;
then those of tests/oracles.py, the slow independent routes the tests
check the package against, and the sum of the two, so that a route moved
from the package into the oracles shows as moved, not removed; then the
number of public names in the package's `__all__`.

Code lines leave out blank lines, comment lines and docstrings. `__all__`
is read from `__init__.py` by `ast`, without importing the package.
Usage: python tools/count_lines.py
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sternbrocot"
ORACLES = ROOT / "tests" / "oracles.py"


def counts(text: str) -> tuple[int, int]:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docs.update(range(first.lineno, first.end_lineno + 1))
    lines = [line.strip() for line in text.splitlines()]
    code = [i for i, line in enumerate(lines, 1) if line and line[0] != "#" and i not in docs]
    return len(lines), len(code)


def public_names(text: str) -> list[str]:
    """The names of the module's `__all__` list."""
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            return ast.literal_eval(node.value)
    raise ValueError("no __all__")


total = [0, 0]
for module in sorted(PACKAGE.glob("*.py")):
    lines, code = counts(module.read_text(encoding="utf-8"))
    total = [total[0] + lines, total[1] + code]
    print(f"{module.name}\t{lines}\t{code}")
print(f"total\t{total[0]}\t{total[1]}")
oracles = counts(ORACLES.read_text(encoding="utf-8"))
print(f"oracles.py\t{oracles[0]}\t{oracles[1]}")
print(f"total+oracles\t{total[0] + oracles[0]}\t{total[1] + oracles[1]}")
print(f"__all__\t{len(public_names((PACKAGE / '__init__.py').read_text(encoding='utf-8')))}")
