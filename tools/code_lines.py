"""Count code lines under ``src/repro`` per package.

A code line is a physical line holding at least one token that is not a
comment, and that is not part of a docstring (the leading string literal
of a module, class or function body, found with ``ast``).  Blank lines
and comment-only lines are found with ``tokenize``.  Packages are the
first directory below the root; modules directly in it count as
``top-level``.

Usage: ``python3 tools/code_lines.py [ROOT]`` (default ``src/repro``
next to this script).  Prints one row per package, largest first, then
the total.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) or not node.body:
            continue
        first = node.body[0]
        if isinstance(first, ast.Expr) \
                and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path, "rb") as handle:
        source = handle.read()
    lines: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(root: str) -> dict[str, int]:
    packages: dict[str, int] = {}
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = sorted(name for name in subdirs
                            if name != "__pycache__")
        relative = os.path.relpath(directory, root)
        package = "top-level" if relative == "." \
            else relative.split(os.sep)[0]
        for name in sorted(files):
            if name.endswith(".py"):
                packages[package] = packages.get(package, 0) + \
                    code_lines(os.path.join(directory, name))
    return packages


def main(argv: list[str]) -> int:
    root = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src",
        "repro")
    packages = count(root)
    for package, lines in sorted(packages.items(),
                                 key=lambda item: (-item[1], item[0])):
        print(f"{package:<12} {lines:>6}")
    print(f"{'total':<12} {sum(packages.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
