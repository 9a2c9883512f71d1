"""Logical line count of ``src/repro``, per module and in total (`make loc`).

A line counts when it carries a token that is not a comment and is not
part of a docstring or other bare string statement — ROADMAP aim 2's
"line count goes down" as a reproducible number rather than ``wc -l``.
Report only: there is no ceiling and no gate.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def logical_lines(path: Path) -> int:
    strings: set[int] = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            strings.update(range(node.lineno, node.end_lineno + 1))
    counted: set[int] = set()
    with tokenize.open(path) as handle:
        for token in tokenize.generate_tokens(handle.readline):
            if token.type not in SKIP:
                counted.update(range(token.start[0], token.end[0] + 1))
    return len(counted - strings)


def main(root: str = "src/repro") -> None:
    counts = {path: logical_lines(path) for path in sorted(Path(root).rglob("*.py"))}
    for path, count in counts.items():
        print(f"{count:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main(*sys.argv[1:2])
