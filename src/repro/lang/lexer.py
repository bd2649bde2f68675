"""Tokenizer for the ``.lcd`` circuit-description language."""

from __future__ import annotations

import enum
import re
from typing import NamedTuple, cast

from repro.errors import ParseError


class TokenKind(str, enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    LBRACE = "{"
    RBRACE = "}"
    SEMI = ";"
    ARROW = "->"
    EOF = "eof"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int

    @property
    def number(self) -> float:
        if self.kind is not TokenKind.NUMBER:
            raise ParseError(
                f"expected a number, got {self.text!r}", self.line, self.column
            )
        return float(self.text)


#: One alternative per token class, tried in order at each position after
#: any run of blanks.  Identifiers start with a letter or ``_`` and go on
#: over letters, digits and ``_./[]``; numbers take an optional sign, then
#: digits and dots, then an exponent only when digits follow it.
_TOKEN = re.compile(
    r"""
    [ \t\r]*
    (?:
        (?P<newline>\n)
      | (?P<comment>(?:\#|//)[^\n]*)
      | (?P<punct>[{};]|->)
      | (?P<string>"[^"\n]*")
      | (?P<number>(?:[+-](?=[\d.])|(?=\d|\.[\d.]))[\d.]*(?:[eE][+-]?\d+)?)
      | (?P<ident>[^\W\d][\w./\[\]]*)
      | (?P<other>[^ \t\r])
    )
    """,
    re.VERBOSE,
)

_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ";": TokenKind.SEMI,
    "->": TokenKind.ARROW,
}


def _number_end(text: str, i: int) -> int:
    """Where a number starting at ``i`` ends when every ``isdigit`` counts.

    ``\\d`` matches decimal digits only; characters such as ``²`` are
    digits to :meth:`str.isdigit` but not to :func:`float`, so a number
    that runs into one is malformed.  Only non-ASCII text needs this.
    """
    n = len(text)
    j = i + 1 if text[i] in "+-" else i
    while j < n and (text[j].isdigit() or text[j] == "."):
        j += 1
    if j < n and text[j] in "eE":
        k = j + 1
        if k < n and text[k] in "+-":
            k += 1
        if k < n and text[k].isdigit():
            j = k
            while j < n and text[j].isdigit():
                j += 1
    return j


def _malformed(word: str, line: int, col: int) -> ParseError:
    return ParseError(f"malformed number {word!r}", line, col)


def tokenize(text: str) -> list[Token]:
    """Turn source text into a token list ending with an EOF token.

    Comments run from ``#`` (or ``//``) to end of line.  Numbers accept an
    optional sign, decimal point and exponent.  Strings are double-quoted
    with no escape processing (labels only).  Columns count characters
    from 1; the EOF token sits after the last token or blank, or at the
    start of a trailing comment.
    """
    tokens: list[Token] = []
    append = tokens.append
    # Token(...) through tuple.__new__, skipping NamedTuple's Python-level
    # __new__: this loop runs once per token of the file.
    new = tuple.__new__
    ident, number, string = TokenKind.IDENT, TokenKind.NUMBER, TokenKind.STRING
    # Unicode digits that float() rejects (``²``) and digit-like symbols
    # that are not letters (``½``) only occur in non-ASCII text.
    unicode = not text.isascii()
    line, line_start = 1, 0
    eof = len(text)
    for m in _TOKEN.finditer(text):
        kind = cast(str, m.lastgroup)  # every alternative is a named group
        start = m.start(kind)
        col = start - line_start + 1
        if kind == "ident":
            word = m.group(kind)
            if unicode and not (word[0].isalpha() or word[0] == "_"):
                if word[0].isdigit():
                    raise _malformed(
                        text[start : _number_end(text, start)], line, col
                    )
                raise ParseError(f"unexpected character {word[0]!r}", line, col)
            append(new(Token, (ident, word, line, col)))
        elif kind == "number":
            word = m.group(kind)
            if unicode:
                word = text[start : _number_end(text, start)]
            try:
                float(word)
            except ValueError:
                raise _malformed(word, line, col) from None
            append(new(Token, (number, word, line, col)))
        elif kind == "punct":
            word = m.group(kind)
            append(new(Token, (_PUNCT[word], word, line, col)))
        elif kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "string":
            append(new(Token, (string, m.group(kind)[1:-1], line, col)))
        elif kind == "comment":
            if m.end() == eof:
                eof = start
        else:
            ch = m.group(kind)
            if ch == '"':
                closed = text.find('"', start + 1) >= 0
                raise ParseError(
                    "newline inside string literal"
                    if closed
                    else "unterminated string literal",
                    line,
                    col,
                )
            if ch in "+-." and text[start + 1 : start + 2].isdigit():
                raise _malformed(text[start : _number_end(text, start)], line, col)
            raise ParseError(f"unexpected character {ch!r}", line, col)
    append(new(Token, (TokenKind.EOF, "", line, eof - line_start + 1)))
    return tokens
