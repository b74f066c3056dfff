"""Tokenizer for the paper-style application source (section 7).

The surface syntax follows the fragment printed in the paper::

    /* Treble section */
    x0 := u@2;            /* U delayed over 2 frames */
    m  := mlt(d2, x0);
    ...
    v  = rd;

extended with the declarations the fragment presupposes (``app``,
``param``, ``input``, ``output``, ``state``, ``loop``).  Comments are
C-style ``/* ... */`` or line comments starting with ``#``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from ..errors import SourceError


class TokenKind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"       # signed decimal, possibly fractional
    ASSIGN = ":="
    EQUALS = "="
    AT = "@"
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    SEMI = ";"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int


#: One match per token: the whitespace and comments before it (group 1,
#: the only place a newline can occur), then the token itself, named
#: after its :class:`TokenKind`.  ``EOF`` matches the end of the text and
#: ``junk`` any other character, so every position matches.
_TOKEN_RE = re.compile(
    r"""
    ((?:\s+|/\*.*?\*/|\#[^\n]*)*)
    (?:
        (?P<NUMBER>-?\d+\.\d+|-?\.\d+|-?\d+)
      | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<ASSIGN>:=)
      | (?P<EQUALS>=) | (?P<AT>@) | (?P<LPAREN>\() | (?P<RPAREN>\))
      | (?P<LBRACE>\{) | (?P<RBRACE>\}) | (?P<COMMA>,) | (?P<SEMI>;)
      | (?P<EOF>\Z)
      | (?P<junk>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_KINDS = {kind.name: kind for kind in TokenKind}


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens; raises :class:`SourceError` on junk."""
    tokens: list[Token] = []
    append = tokens.append
    new = object.__new__
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(text):
        skipped = match[1]
        if "\n" in skipped:
            line += skipped.count("\n")
            line_start = match.start() + skipped.rfind("\n") + 1
        name = match.lastgroup
        column = match.end(1) - line_start + 1
        if name == "junk":
            raise SourceError(
                f"unexpected character {match[name]!r}", line, column
            )
        # Built around the frozen dataclass's __init__, which costs a
        # guarded setattr per field; the instance is the same.
        token = new(Token)
        token.__dict__.update(kind=_KINDS[name], text=match[name],
                              line=line, column=column)
        append(token)
        if name == "EOF":
            break
    return tokens
