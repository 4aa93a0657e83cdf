"""Print each src/sternbrocot module's lines and code lines, then the totals.

Code lines leave out blank lines, comment lines and docstrings.
Usage: python tools/count_lines.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sternbrocot"


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


total = [0, 0]
for module in sorted(PACKAGE.glob("*.py")):
    lines, code = counts(module.read_text(encoding="utf-8"))
    total = [total[0] + lines, total[1] + code]
    print(f"{module.name}\t{lines}\t{code}")
print(f"total\t{total[0]}\t{total[1]}")
