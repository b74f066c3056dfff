"""The one-match-per-token lexer against the per-alternative regex loop.

``reference_tokenize`` below is the lexer the package shipped before
whitespace, comments and the token were folded into one match, kept
verbatim as the oracle.  Generated texts mix the token alphabet with
comments (closed and unterminated), CRLF line ends, Unicode digits
and whitespace, and junk characters; both lexers must agree on every
token's kind, text, line and column, and on every error's message,
line and column.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import audio_application
from repro.errors import SourceError
from repro.lang import Token, TokenKind, tokenize
from repro.lang.emit import emit_source

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>/\*.*?\*/|\#[^\n]*)
  | (?P<number>-?\d+\.\d+|-?\.\d+|-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<assign>:=)
  | (?P<sym>[=@(){},;])
    """,
    re.VERBOSE | re.DOTALL,
)

_SYMBOLS = {
    "=": TokenKind.EQUALS,
    "@": TokenKind.AT,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
}


def reference_tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens; raises :class:`SourceError` on junk."""
    tokens: list[Token] = []
    position = 0
    line = 1
    line_start = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            column = position - line_start + 1
            raise SourceError(
                f"unexpected character {text[position]!r}", line, column
            )
        column = match.start() - line_start + 1
        lexeme = match.group(0)
        if match.lastgroup == "number":
            tokens.append(Token(TokenKind.NUMBER, lexeme, line, column))
        elif match.lastgroup == "ident":
            tokens.append(Token(TokenKind.IDENT, lexeme, line, column))
        elif match.lastgroup == "assign":
            tokens.append(Token(TokenKind.ASSIGN, lexeme, line, column))
        elif match.lastgroup == "sym":
            tokens.append(Token(_SYMBOLS[lexeme], lexeme, line, column))
        # whitespace and comments are skipped but tracked for line numbers
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            line_start = match.start() + lexeme.rfind("\n") + 1
        position = match.end()
    tokens.append(Token(TokenKind.EOF, "", line, len(text) - line_start + 1))
    return tokens


def outcome(lexer, text: str):
    """Every token as ``(kind, text, line, column)``, or the error as
    ``(message, line, column)``."""
    try:
        return [(t.kind, t.text, t.line, t.column) for t in lexer(text)]
    except SourceError as exc:
        return ("error", str(exc), exc.line, exc.column)


PIECES = st.sampled_from([
    # the token alphabet
    "app", "loop", "x0", "_t", "mlt", "add_clip", "7", "-3", "0.25",
    "-.5", ".5", "12.", "-", ".", ":=", ":", "=", "@", "(", ")", "{",
    "}", ",", ";",
    # whitespace, line ends and comments
    " ", "  ", "\t", "\n", "\r\n", "\r", "\x0b", " ", " ",
    "/* c */", "/* a\r\nb */", "/**/", "/* open", "/", "*/", "# note",
    "#", "# x\r\n",
    # Unicode digits and letters, and junk
    "٣", "é", "$", "?", "!", "\x00", "[", "'", '"', "\\",
])


@settings(max_examples=400, deadline=None)
@given(st.lists(PIECES, max_size=40))
def test_matches_reference_on_generated_texts(pieces):
    text = "".join(pieces)
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab1-.:=@(){},;/*#\n\r \t$٣", max_size=30))
def test_matches_reference_on_character_soup(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


@pytest.mark.parametrize("text", [
    "", " ", "\n", "a", "a\n", "/* never closed", "a /* x\n y */ b",
    "x := -0.25; # tail", "v = w;\r\n", "a\n\n  $",
])
def test_matches_reference_on_edge_cases(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


def test_matches_reference_on_the_audio_application():
    text = emit_source(audio_application())
    assert tokenize(text) == reference_tokenize(text)


def test_tokens_are_ordinary_frozen_tokens():
    token = tokenize("gain")[0]
    assert token == Token(TokenKind.IDENT, "gain", 1, 1)
    assert hash(token) == hash(Token(TokenKind.IDENT, "gain", 1, 1))
    assert repr(token) == repr(Token(TokenKind.IDENT, "gain", 1, 1))
    with pytest.raises(AttributeError):
        token.text = "other"
