"""SQL tokenizer: a token table over :class:`repro.scanner.Scanner`.

Produces a flat token stream for the recursive-descent parser.  Keywords
are recognised case-insensitively; double-quoted identifiers preserve
case; single-quoted strings use ``''`` as the escape for a quote.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..scanner import NUMBER, Rule, Scanner, line_column, number
from .errors import SqlSyntaxError

KEYWORDS = frozenset("""
    SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET AS DISTINCT ALL
    AND OR NOT IN IS NULL LIKE BETWEEN EXISTS CASE WHEN THEN ELSE END CAST
    JOIN INNER LEFT RIGHT FULL OUTER CROSS ON UNION INTERSECT EXCEPT
    INSERT INTO VALUES UPDATE SET DELETE CREATE TABLE DROP INDEX UNIQUE
    PRIMARY KEY DEFAULT IF TRUE FALSE ASC DESC USING ANALYZE
""".split())


#: ``'…'`` with ``''`` for a quote; a closing quote is one not followed
#: by a second quote.  The ENRICH-clause table reuses this row.
STRING_RULE: Rule = ("STRING", r"'(?:[^']|'')*'(?!')",
                     lambda lexeme: lexeme[1:-1].replace("''", "'"))

#: The SQL token table.  What a string, a quoted identifier and a
#: comment are is decided here and nowhere else: the SESQL pre-passes
#: (``repro.core.parser.sesql_spans``) and the lint CLI's statement
#: splitter extend this table rather than re-deciding it.  ``WORD`` is
#: a bare word, keyword or identifier; ``PARAM`` is a ``?`` placeholder.
RULES: list[Rule] = [
    (None, r"[ \t\r\n]+|--[^\n]*|/\*(?s:.*?)\*/", None),
    STRING_RULE,
    ("IDENT", r'"(?:[^"]|"")+"(?!")',
     lambda lexeme: lexeme[1:-1].replace('""', '"')),
    ("NUMBER", NUMBER, number),
    ("WORD", r"[^\W\d]\w*", None),
    ("PARAM", r"\?", None),
    ("OP", r"\|\||<>|!=|<=|>=|/(?!\*)|[<>=+\-*%(),.;]",
     lambda lexeme: "<>" if lexeme == "!=" else lexeme),
]


def fault(text: str, offset: int) -> tuple[str, int]:
    """What fails to scan at *offset*, and the offset to report it at."""
    if text.startswith('""', offset) and not text.startswith('"""', offset):
        return "empty quoted identifier", offset + 2
    for opener, what in (("'", "string literal"),
                         ('"', "quoted identifier"),
                         ("/*", "block comment")):
        if text.startswith(opener, offset):
            return f"unterminated {what}", len(text)
    return f"unexpected character {text[offset]!r}", offset


def _error(text: str, offset: int) -> SqlSyntaxError:
    message, position = fault(text, offset)
    return SqlSyntaxError(message, position, *line_column(text, position))


_SCANNER = Scanner(RULES, _error)


@dataclass
class Token:
    type: str  # 'KEYWORD', 'IDENT', 'NUMBER', 'STRING', 'OP', 'PARAM', 'EOF'
    value: object
    position: int
    source: str = field(default="", repr=False, compare=False)

    @property
    def line(self) -> int:
        return line_column(self.source, self.position)[0]

    @property
    def column(self) -> int:
        return line_column(self.source, self.position)[1]

    def is_keyword(self, *names: str) -> bool:
        return self.type == "KEYWORD" and self.value in names

    def is_op(self, *ops: str) -> bool:
        return self.type == "OP" and self.value in ops

    def describe(self) -> str:
        if self.type == "EOF":
            return "end of input"
        return repr(self.value)


def tokenize(text: str) -> list[Token]:
    """Tokenize *text* into a list ending with an EOF token."""
    tokens: list[Token] = []
    for kind, value, start, _end in _SCANNER.scan(text):
        if kind == "WORD":
            upper = value.upper()
            kind, value = (("KEYWORD", upper) if upper in KEYWORDS
                           else ("IDENT", value))
        tokens.append(Token(kind, value, start, text))
    tokens.append(Token("EOF", None, len(text), text))
    return tokens
