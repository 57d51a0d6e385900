"""Differential test: the regex scanner against the old hand scanner.

``ReferenceLexer`` is a verbatim copy of the per-character scanner the
one-pass :func:`~repro.core.dsl.lexer.tokenize` replaced. Both run on
seeded mutations of the example kernels and of generated kernels,
and must agree on every token (kind, text, line, column) and on every
``ParseError`` (message, line, column). The edit alphabet covers what
the scanners are most likely to disagree on: Unicode letters and
digits (``str.isalpha``/``isalnum``/``isdigit`` are Unicode-aware),
multi-line and unterminated ``tensor<`` literals, comments, number
forms and characters no token may start with.
"""

from __future__ import annotations

import glob
import os
import random

import pytest

from repro.core.analysis.specs import extract_kernel_sources
from repro.core.dsl.lexer import (
    EOF,
    ID,
    KEYWORD,
    KEYWORDS,
    NUMBER,
    SYMBOL,
    TENSORTYPE,
    Token,
    tokenize,
)
from repro.errors import ParseError
from tests.ir.test_roundtrip_property import _random_kernel

EXAMPLES = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples"
)

_SYMBOLS = (
    "->", "@", "+", "-", "*", "/", "(", ")", "{", "}", "[", "]",
    ",", "=", ":", "<", ">",
)


class ReferenceLexer:
    """Scans DSL source into tokens."""

    def __init__(self, source: str):
        self.source = source
        self.position = 0
        self.line = 1
        self.column = 1

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        index = self.position + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.position:self.position + count]
        for char in text:
            if char == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.position += count
        return text

    def tokens(self) -> List[Token]:
        """Scan the whole source."""
        result: List[Token] = []
        while self.position < len(self.source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
                continue
            if char == "#":
                while self._peek() not in ("", "\n"):
                    self._advance()
                continue
            line, column = self.line, self.column
            if char.isalpha() or char == "_":
                word = self._scan_word()
                if word == "tensor" and self._peek() == "<":
                    raw = self._scan_tensor_type()
                    result.append(
                        Token(TENSORTYPE, f"tensor{raw}", line, column)
                    )
                elif word in KEYWORDS:
                    result.append(Token(KEYWORD, word, line, column))
                else:
                    result.append(Token(ID, word, line, column))
                continue
            if char.isdigit() or (
                char == "." and self._peek(1).isdigit()
            ):
                result.append(Token(NUMBER, self._scan_number(),
                                    line, column))
                continue
            symbol = self._scan_symbol()
            result.append(Token(SYMBOL, symbol, line, column))
        result.append(Token(EOF, "", self.line, self.column))
        return result

    def _scan_word(self) -> str:
        start = self.position
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        return self.source[start:self.position]

    def _scan_number(self) -> str:
        start = self.position
        seen_dot = False
        seen_exp = False
        while True:
            char = self._peek()
            if char.isdigit():
                self._advance()
            elif char == "." and not seen_dot and not seen_exp:
                seen_dot = True
                self._advance()
            elif char in "eE" and not seen_exp and (
                self._peek(1).isdigit()
                or (self._peek(1) in "+-" and self._peek(2).isdigit())
            ):
                seen_exp = True
                self._advance()
                if self._peek() in "+-":
                    self._advance()
            else:
                break
        return self.source[start:self.position]

    def _scan_tensor_type(self) -> str:
        if self._peek() != "<":
            raise self._error("expected '<' after 'tensor'")
        start = self.position
        depth = 0
        while self.position < len(self.source):
            char = self._peek()
            self._advance()
            if char == "<":
                depth += 1
            elif char == ">":
                depth -= 1
                if depth == 0:
                    return self.source[start:self.position]
        raise self._error("unterminated tensor type literal")

    def _scan_symbol(self) -> str:
        for symbol in _SYMBOLS:
            if self.source.startswith(symbol, self.position):
                self._advance(len(symbol))
                return symbol
        raise self._error(f"unexpected character {self._peek()!r}")


#: Fragments inserted or substituted by the mutator.
EDITS = (
    "é", "ß", "²", "٣", "½", "Ⅻ", "x²", "1²", "٣.٣", "1e²", ".²",
    "tensor<", "tensor<4x\n<2>\nxf32>", "tensor<4x<2>", ">", "<",
    "#", "# note\n", "#\r", "1.e5", ".5", "1e-3", "1e+", "1.", "1e5e3",
    "1.2.3", ".", "e", "E+", "$", "?", "`", "\x0b", "\x0c", "\u00a0",
    "\r", "\r\n", "\n", "\t", " ", "->", "-", "_", "x", "0", "kernel",
    "return", "tensor", "@", "{", "}",
)


def _example_sources():
    sources = []
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            sources.extend(extract_kernel_sources(handle.read()))
    return sources


def _mutate(source: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 4)):
        at = rng.randint(0, len(source))
        choice = rng.random()
        if choice < 0.45:
            source = source[:at] + rng.choice(EDITS) + source[at:]
        elif choice < 0.8:
            width = rng.randint(1, 3)
            source = source[:at] + rng.choice(EDITS) + source[at + width:]
        else:
            source = source[:at] + source[at + rng.randint(1, 6):]
    return source


def _scan(scanner, source: str):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in scanner(source)]
    except ParseError as error:
        return ("ParseError", str(error), error.line, error.column)


def _reference(source: str):
    return ReferenceLexer(source).tokens()


def _assert_same(source: str) -> None:
    assert _scan(tokenize, source) == _scan(_reference, source), source


@pytest.mark.parametrize("seed", range(8))
def test_agrees_on_mutated_examples(seed):
    rng = random.Random(seed)
    sources = _example_sources()
    assert sources
    for _ in range(150):
        _assert_same(_mutate(rng.choice(sources), rng))


@pytest.mark.parametrize("seed", range(8))
def test_agrees_on_mutated_generated_kernels(seed):
    rng = random.Random(1000 + seed)
    for index in range(150):
        _assert_same(_mutate(_random_kernel(seed * 150 + index), rng))


@pytest.mark.parametrize("source", [
    "", "\n\n  ", "# only a comment", "a\r\nb", "1 2.5 1e3 2.5e-2",
    "1.e5 .5 1e-3 1.2.3 1e5e3 1e5.3 1e+ 1.", "é²٣ x² 1² 1.² 1e+² .²",
    "½", "a ¼x", "tensor<4x\n<3>>\n x", "tensor<4x\n<3>\nf32",
    "tensorx<3>", "1tensor<3> ", "a $ b", "\x0b", ". x",
    "kernel k(A: tensor<4xf32>) -> tensor<4xf32> {\n  return A\n}\n",
])
def test_agrees_on_edge_cases(source):
    _assert_same(source)


def test_errors_carry_the_reference_position():
    with pytest.raises(ParseError) as error:
        tokenize("a\n  tensor<4x\n4xf32")
    assert (error.value.line, error.value.column) == (3, 6)
    assert "unterminated tensor type literal" in str(error.value)
    with pytest.raises(ParseError) as error:
        tokenize("kernel\n  k ½")
    assert (error.value.line, error.value.column) == (2, 5)
    assert str(error.value).endswith("unexpected character '½'")
