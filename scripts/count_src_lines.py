#!/usr/bin/env python3
"""Line counts of the package source, src/werm/*.py.

Each line is one of four kinds, checked in this order: a docstring line
(inside the string that opens a module, class or function body, found
with ast), a blank line, a comment line (only a comment, found with
tokenize), or a code line.  Prints each module's four counts, one line
per module, then their totals; each line's counts sum to its ``wc -l``.

Usage: python scripts/count_src_lines.py [directory]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "doc", "comment", "blank")


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in one file's ``source``."""
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) and (
                isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            doc.update(range(body[0].lineno, body[0].end_lineno + 1))
    comment = set()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        kind = ("doc" if number in doc else "blank" if not line.strip()
                else "comment" if number in comment and number not in code else "code")
        counts[kind] += 1
    return counts


def line(name: str, counts: dict[str, int]) -> str:
    """``name``'s line count, then its count of each kind."""
    return f"{name} {sum(counts.values())} = " + " + ".join(f"{counts[k]} {k}" for k in KINDS)


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent / "src" / "werm"
    total = dict.fromkeys(KINDS, 0)
    for path in sorted(root.glob("*.py")):
        counts = count(path.read_text())
        print(line(path.name, counts))
        for kind, n in counts.items():
            total[kind] += n
    print(line("wc", total))


if __name__ == "__main__":
    main()
