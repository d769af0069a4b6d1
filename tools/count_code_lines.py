"""Count the code lines of the Python files under a path (default: src/).

A code line holds at least one code token: comments, blank lines and
docstrings (the leading string of a module, class or function, found with
``ast``) are left out, and a token that spans lines, such as a multi-line
string that is not a docstring, counts on every line it spans (found with
``tokenize``).  Prints one line per file and a total.

    python3 tools/count_code_lines.py [PATH]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        first = node.body[0] if isinstance(node, _SCOPES) and node.body else None
        value = first.value if isinstance(first, ast.Expr) else None
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: bytes) -> int:
    """The number of code lines in the source of one Python file."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: count_code_lines.py [PATH]", file=sys.stderr)
        return 2
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    total = 0
    for path in files:
        count = code_lines(path.read_bytes())
        total += count
        print(f"{count:6d}  {path.relative_to(root) if path != root else path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
