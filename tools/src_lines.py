"""Print the size of the package source: its ``wc -l`` line count and its
code lines, the non-blank, non-comment lines outside module, class and
function docstrings (found with ``ast``).

usage: python tools/src_lines.py [DIR]   (DIR defaults to src/a2gsounder)
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "a2gsounder"


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(lines, code lines) of one Python file."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    code = sum(1 for number, row in enumerate(text.splitlines(), 1)
               if number not in skip and row.strip() and not row.lstrip().startswith("#"))
    return text.count("\n"), code


def main(root):
    lines, code = (sum(column) for column in zip(*map(count, sorted(root.glob("*.py")))))
    print(f"{lines} lines, {code} code lines in {root}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE)
