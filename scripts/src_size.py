"""Print the size of the package source: all lines, and code lines.

Code lines are the lines left after removing blank lines, comment-only
lines and docstrings (a string literal that is a statement by itself).
They are counted with the tokenizer, so a '#' or a blank line inside a
string literal is not mistaken for a comment or a gap.

usage: python scripts/src_size.py [directory]   (default: src/)
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> set:
    """Numbers of the lines that hold code other than docstrings."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines: set = set()
    statement: list = []  # the significant tokens of the current logical line
    for tok in tokens:
        if tok.type not in LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            bare_string = len(statement) == 1 and statement[0].type == tokenize.STRING
            if not bare_string:
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return lines


def size(root: Path) -> tuple:
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        total += len(source.splitlines())
        code += len(code_lines(source))
    return total, code


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    total, code = size(root)
    print(f"{total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
