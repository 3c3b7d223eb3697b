"""Count the code-only lines of the olmsim package.

A line counts when a token other than a comment or a docstring lies on it,
so blank, comment and docstring lines are left out. A docstring is a string
token that forms a whole statement. Prints one count per module of
``src/olmsim`` and then the total:

    python3 tools/code_lines.py
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "olmsim"

#: tokens that put no code on a line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}

#: tokens after which a string token starts a statement
_STATEMENT_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    with path.open("rb") as handle:
        # comments and blank-line breaks dropped, so a string's neighbours are its code neighbours
        tokens = [t for t in tokenize.tokenize(handle.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for before, tok, after in zip(tokens, tokens[1:], tokens[2:]):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and before.type in _STATEMENT_START and after.type == tokenize.NEWLINE:
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
