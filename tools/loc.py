"""Count the source lines of the package, per module and in total.

Usage: python3 tools/loc.py [DIR]    (DIR defaults to src/bq2d)

For each ``*.py`` file it prints the physical line count (what ``wc -l``
reports) and its split into code, docstring, comment and blank lines:

* docstring: every line of a module, class or function docstring, blank
  lines inside it included;
* comment: a line whose first non-blank character is ``#``;
* blank: an empty or whitespace-only line outside a docstring;
* code: every other line, so a line with code and a trailing comment is code.

The four parts add up to the line count.
"""

from __future__ import annotations

import ast
import os
import sys

COLUMNS = ("lines", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """1-based numbers of the lines that the docstrings of ``tree`` span."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(path: str) -> dict[str, int]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text, path))
    counts = dict.fromkeys(COLUMNS, 0)
    counts["lines"] = text.count("\n")
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "bq2d")
    names = sorted(name for name in os.listdir(root) if name.endswith(".py"))
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'module':<16}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name in names:
        counts = count(os.path.join(root, name))
        for c in COLUMNS:
            total[c] += counts[c]
        print(f"{name:<16}" + "".join(f"{counts[c]:>11}" for c in COLUMNS))
    print(f"{'total':<16}" + "".join(f"{total[c]:>11}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
