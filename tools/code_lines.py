"""Count the code lines of Python sources: lines that hold a token other than
a comment or a newline, less the lines of module, class and function
docstrings. Blank lines and comment-only lines do not count; each line of a
statement that spans several lines does.

    python3 tools/code_lines.py src/agd                  # total over a tree
    python3 tools/code_lines.py src/agd/training.py      # one file
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _python_files(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                yield from (os.path.join(root, f) for f in sorted(files) if f.endswith(".py"))
        else:
            yield path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    total = 0
    for path in _python_files(parser.parse_args(argv).paths):
        with open(path, encoding="utf-8") as f:
            total += count_code_lines(f.read())
    print(total)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
