#!/usr/bin/env python3
"""Count all lines and code lines per module of ``src/qgspectra``.

A code line holds at least one token that is not a comment and is not
part of a docstring (the first string statement of a module, class or
function); blank lines do not count.  A token spanning several lines, such
as a multi-line string that is not a docstring, counts on every line it
spans.

    python scripts/code_lines.py [PACKAGE_DIR]
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qgspectra"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """All lines and code lines of one module's source."""
    docstrings = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    args = parser.parse_args()
    total_all = total_code = 0
    print(f"{'module':<16}{'all':>7}{'code':>7}")
    for path in sorted(args.package.glob("*.py")):
        all_lines, code_lines = count(path.read_text(encoding="utf-8"))
        total_all += all_lines
        total_code += code_lines
        print(f"{path.name:<16}{all_lines:>7}{code_lines:>7}")
    print(f"{'total':<16}{total_all:>7}{total_code:>7}")


if __name__ == "__main__":
    main()
