"""Tokenizer for the kernel DSL.

One pass of a master regex produces a flat token stream; a column is
counted from the start of its line. Tensor type literals
(``tensor<16x16xf32>``) are single tokens so the parser does not have
to reassemble dimension lists. Words and numbers follow
``str.isalpha``/``isalnum``/``isdigit``, so Unicode letters and digits
count: the regex handles ASCII, and those predicates finish a token
that starts, or may continue, with a non-ASCII character.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.errors import ParseError

KEYWORDS = {"kernel", "return"}
SCALAR_TYPES = {"f32", "f64", "i32", "i64"}

# token kinds
ID = "ID"
NUMBER = "NUMBER"
TENSORTYPE = "TENSORTYPE"
KEYWORD = "KEYWORD"
SYMBOL = "SYMBOL"
EOF = "EOF"

#: Skips whitespace and comments, then matches one token; ``end``
#: matches at the end of the source.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?:
        (?P<tensor>tensor<)
      | (?P<word>[A-Za-z_]\w*)
      | (?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
      | (?P<symbol>->|[@+\-*/(){}\[\],=:<>])
      | (?P<other>.)
      | (?P<end>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_WORD_TAIL_RE = re.compile(r"\w*")
_ANGLE_RE = re.compile(r"[<>]")


@dataclass(frozen=True)
class Token:
    """One lexical token with source position (1-based)."""

    kind: str
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


def _tensor_end(source: str, position: int) -> int:
    """End of the angle-bracketed literal opening at ``position``."""
    depth = 0
    for angle in _ANGLE_RE.finditer(source, position):
        depth += 1 if angle.group() == "<" else -1
        if not depth:
            return angle.end()
    raise ParseError("unterminated tensor type literal",
                     source.count("\n") + 1, len(source) - source.rfind("\n"))


def _number_end(source: str, position: int) -> int:
    """End of the number starting at ``position``, digits by ``isdigit``."""
    seen_dot = seen_exp = False
    while position < len(source):
        char = source[position]
        after = source[position + 1:position + 3]
        if char.isdigit():
            position += 1
        elif char == "." and not seen_dot and not seen_exp:
            seen_dot = True
            position += 1
        elif char in "eE" and not seen_exp and (
            after[:1].isdigit()
            or (after[:1] in ("+", "-") and after[1:].isdigit())
        ):
            seen_exp = True
            position += 1 if after[:1].isdigit() else 2
        else:
            break
    return position


def tokenize(source: str) -> List[Token]:
    """Scan source into a token list ending in EOF."""
    tokens: List[Token] = []
    ascii_only = source.isascii()
    position = previous = line_start = 0
    line = 1
    while True:
        found = _TOKEN_RE.match(source, position)
        kind = found.lastgroup
        start, end = found.span(kind)
        # only whitespace and tensor literals span lines
        newlines = source.count("\n", previous, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", previous, start) + 1
        previous, column = start, start - line_start + 1
        text = found.group(kind)
        if kind == "word":
            kind = KEYWORD if text in KEYWORDS else ID
            tokens.append(Token(kind, text, line, column))
        elif kind == "symbol":
            tokens.append(Token(SYMBOL, text, line, column))
        elif kind == "end":
            tokens.append(Token(EOF, "", line, column))
            return tokens
        elif kind == "tensor":
            end = _tensor_end(source, end - 1)
            tokens.append(Token(TENSORTYPE, source[start:end], line, column))
        elif kind == "number":
            if not (ascii_only or source[end:end + 3].isascii()):
                end = _number_end(source, start)  # non-ASCII digits follow
            tokens.append(Token(NUMBER, source[start:end], line, column))
        elif text.isalpha():
            end = _WORD_TAIL_RE.match(source, end).end()
            tokens.append(Token(ID, source[start:end], line, column))
        elif text.isdigit() or (text == "."
                                and source[end:end + 1].isdigit()):
            end = _number_end(source, start)
            tokens.append(Token(NUMBER, source[start:end], line, column))
        else:
            raise ParseError(f"unexpected character {text!r}", line, column)
        position = end
