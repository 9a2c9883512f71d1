"""Logical line count of ``src/repro``, per module and in total (`make loc`).

A line counts when it carries a token that is not a comment and is not
part of a docstring or other bare string statement — ROADMAP aim 2's
"line count goes down" as a reproducible number rather than ``wc -l``.

A ratchet, not just a report: the total may not exceed :data:`CEILING`
(exit status 1 when it does). Same convention as ``baselines.json`` — a
PR that legitimately grows ``src/repro`` raises the constant in the same
diff, so growth shows up in review instead of arriving silently; a PR
that shrinks the tree lowers it to the new total.

It also prints the logical-line total of ``tests/`` — a report line, not
a gate — so a PR can state its test-line delta beside its ``src`` one.
"""

import ast
import sys
import tokenize
from pathlib import Path

#: Highest allowed total for ``src/repro`` (the current total).
CEILING = 10374

#: The test tree whose total is reported beside it (no ceiling).
TESTS = "tests"

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


def total_lines(root: str) -> int:
    return sum(logical_lines(path) for path in Path(root).rglob("*.py"))


def main(root: str = "src/repro") -> int:
    counts = {path: logical_lines(path) for path in sorted(Path(root).rglob("*.py"))}
    for path, count in counts.items():
        print(f"{count:6d}  {path}")
    total = sum(counts.values())
    print(f"{total:6d}  total (ceiling {CEILING})")
    print(f"{total_lines(TESTS):6d}  {TESTS}/ total (report only, no ceiling)")
    if total > CEILING:
        print(
            f"{root} grew past the ceiling by {total - CEILING} logical lines: "
            "shrink it, or raise CEILING in benchmarks/check_loc.py in this diff",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:2]))
