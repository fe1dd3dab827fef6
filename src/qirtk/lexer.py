"""Line-oriented tokenizer for the textual IR subset.

The accepted grammar is statement-per-line, so tokens never span lines and
every token carries the 1-based line and column it started at. Comments run
from ``;`` to end of line.

One regular-expression match yields one token: leading whitespace is part
of the pattern, the kind is the index of the group that matched, and a
last catch-all group takes any other non-space character, so nothing is
skipped silently and a bad character is reported where it stands.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError

#: token forms that ``parser`` also builds its call-line pattern from:
#: an unquoted name after ``%`` or ``@`` (which ``spell_name`` quotes
#: when a name is not one), and a floating constant
NAME = r"[A-Za-z$._0-9]+"
FLOAT = r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+|0x[0-9A-Fa-f]{16}"

# The first characters of the alternatives are disjoint except FLOAT and
# INT, so the order is free apart from FLOAT before INT and the catch-all
# last; the commonest kinds come first.
_TOKEN_RE = re.compile(
    rf"""
    \s*(?:
      ([A-Za-z$._][A-Za-z$._0-9]*)
    | ([(){{}}\[\],=:*])
    | (%(?:{NAME}|"[^"]*"))
    | (@(?:{NAME}|"[^"]*"))
    | ({FLOAT})
    | (-?\d+)
    | (\#\d+)
    | ("[^"]*")
    | (;.*)
    | (\S)
    )""",
    re.VERBOSE,
)
# the kind of each numbered group above; the comment and catch-all
# groups come after them
_KINDS = (None, "WORD", "PUNCT", "LOCAL", "GLOBAL", "FLOAT", "INT", "ATTRID",
          "STRING")
_COMMENT = len(_KINDS)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def tokenize_line(text: str, line_no: int) -> list[Token]:
    tokens: list[Token] = []
    new = tuple.__new__     # skips the NamedTuple's own Python-level __new__
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group >= _COMMENT:
            if group == _COMMENT:
                break
            raise ParseError("unrecognized character", line=line_no,
                             column=m.start(group) + 1, token=m.group(group))
        tokens.append(new(Token, (_KINDS[group], m.group(group), line_no,
                                  m.start(group) + 1)))
    return tokens


def tokenize(text: str) -> list[list[Token]]:
    """Tokenize full source into one token list per nonempty line."""
    out = []
    for i, line in enumerate(text.splitlines(), start=1):
        # the parser blanks the lines it reads without the lexer
        tokens = tokenize_line(line, i) if line else None
        if tokens:
            out.append(tokens)
    return out


def bare_name(token_text: str) -> str:
    """Strip the ``%`` or ``@`` sigil (and quotes) from a reference."""
    name = token_text[1:]
    if name.startswith('"') and name.endswith('"'):
        name = name[1:-1]
    return name


_BARE_NAME = re.compile(NAME).fullmatch


def spell_name(name: str) -> str:
    """``name`` as it follows a ``%`` or ``@`` sigil, the inverse of
    ``bare_name``: bare when it is a ``NAME``, quoted otherwise."""
    return name if _BARE_NAME(name) else f'"{name}"'
