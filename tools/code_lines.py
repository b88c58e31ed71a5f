"""Count the code lines of each ``src/qaiccc`` module.

Usage::

    python tools/code_lines.py [TREE ...]

Each tree is a checkout holding ``src/qaiccc`` (default: the tree this
script lives in).  For every tree the script prints the tree, then one
line per module of ``src/qaiccc`` with its code lines, then their total.
A code line is a line holding a token of Python code: blank lines,
comment-only lines and the lines of docstrings (the leading string of a
module, class or function, found with ``ast``) do not count.  Standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Tokens that carry no code of their own.
_LAYOUT = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
})


def code_lines(source: str) -> int:
    """Lines of ``source`` holding code, leaving out docstrings, comments and blank lines."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def tree_lines(tree: Path) -> dict[str, int]:
    """Code lines per module of ``tree``'s ``src/qaiccc``, by file name."""
    package = tree / "src" / "qaiccc"
    return {path.name: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT], metavar="TREE")
    args = parser.parse_args(argv)
    for tree in args.trees:
        counts = tree_lines(tree)
        print(tree)
        for name, count in counts.items():
            print(f"  {name:<16} {count:>6}")
        print(f"  {'total':<16} {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
