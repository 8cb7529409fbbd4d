"""One regex-driven tokenizer behind every lexer in the tree.

A language is a *rule table*: ordered ``(kind, regex, convert)`` rows.
:class:`Scanner` compiles the table once into a single master regex
(first matching row wins, as in a hand-written ``if`` chain) and
:meth:`Scanner.scan` yields ``(kind, value, start, end)`` for each
lexeme, where ``value`` is ``convert(lexeme)`` (the lexeme itself when
``convert`` is ``None``).  Rows whose kind is ``None`` — whitespace,
comments — are matched and dropped.  At the first offset no row
matches, the scan raises ``error(text, offset)``: the language decides
what is wrong there (an unterminated string, a stray character) and
which exception class says so.

Positions are plain offsets; :func:`line_column` turns one into a
line/column pair when somebody asks — which is only ever on the error
path.  Leaf module: imports nothing from :mod:`repro`.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Sequence

Rule = tuple[str | None, str, Callable[[str], object] | None]


class Scanner:
    """A rule table compiled into one master regex."""

    def __init__(self, rules: Sequence[Rule],
                 error: Callable[[str, int], Exception]) -> None:
        self._match = re.compile("|".join(
            f"(?P<r{index}>{regex})"
            for index, (_kind, regex, _convert) in enumerate(rules))).match
        self._rules = {f"r{index}": (kind, convert)
                       for index, (kind, _regex, convert)
                       in enumerate(rules)}
        self._error = error

    def scan(self, text: str) -> Iterator[tuple[str, object, int, int]]:
        """Yield ``(kind, value, start, end)`` for each token of *text*."""
        match, rules = self._match, self._rules
        position, length = 0, len(text)
        while position < length:
            found = match(text, position)
            end = found.end() if found is not None else position
            if end == position:
                raise self._error(text, position)
            kind, convert = rules[found.lastgroup]
            if kind is not None:
                lexeme = found.group()
                yield (kind, lexeme if convert is None else convert(lexeme),
                       position, end)
            position = end


def line_column(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of *offset* in *text*."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


#: An unsigned number: ``12``, ``2.5``, ``.5``, ``1e3``, ``2E-2``.
NUMBER = r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?"


def number(lexeme: str) -> int | float:
    """The value of a :data:`NUMBER` lexeme: ``int`` unless it has a
    fraction or an exponent."""
    return int(lexeme) if lexeme.isdigit() else float(lexeme)


# ---------------------------------------------------------------------------
# Backslash-escaped strings (SPARQL, Turtle, N-Triples)
# ---------------------------------------------------------------------------

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "'": "'", "\\": "\\"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def unescape(body: str) -> str:
    """Resolve backslash escapes; an unknown one is kept verbatim."""
    if "\\" not in body:
        return body
    # Single pass: sequential str.replace would corrupt inputs like
    # '\\\\r' (an escaped backslash followed by a literal 'r').
    return _ESCAPE.sub(
        lambda match: _ESCAPES.get(match.group(1), match.group(0)), body)


def _body(quote: str, long: bool) -> str:
    """Regex of what may stand between the quotes of a string."""
    escape = r"""\\[ntr"'\\]"""
    if long:
        return rf"(?:[^{quote}\\]|{escape}|{quote}(?!{quote}{quote}))*"
    return rf"(?:[^{quote}\\\n]|{escape})*"


def escaped_string_rules(kind: str, long: bool = False) -> list[Rule]:
    """Rows for ``"…"`` and ``'…'`` strings with backslash escapes.

    *long* adds Turtle's triple-quoted forms, which may span lines.
    """
    rules: list[Rule] = []
    for quote in "\"'":
        if long:
            rules.append((kind, quote * 3 + _body(quote, True) + quote * 3,
                          lambda lexeme: unescape(lexeme[3:-3])))
        not_long = f"(?!{quote}{quote})" if long else ""
        rules.append((kind, quote + not_long + _body(quote, False) + quote,
                      lambda lexeme: unescape(lexeme[1:-1])))
    return rules


def escaped_string_fault(text: str, offset: int,
                         long: bool = False) -> tuple[str, int]:
    """Why the string opening at *offset* does not scan, and where."""
    quote = text[offset]
    long = long and text.startswith(quote * 3, offset)
    end = re.compile(_body(quote, long)).match(
        text, offset + (3 if long else 1)).end()
    if end == len(text):
        return "unterminated string literal", end
    if text[end] == "\\":
        return f"unknown escape {text[end:end + 2]}", end
    return "newline in string literal", end
