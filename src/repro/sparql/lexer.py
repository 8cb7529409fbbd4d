"""SPARQL tokenizer: a token table over :class:`repro.scanner.Scanner`."""

from __future__ import annotations

from dataclasses import dataclass

from ..scanner import (NUMBER, Rule, Scanner, escaped_string_fault,
                       escaped_string_rules, number)
from .errors import SparqlSyntaxError


@dataclass
class Token:
    type: str  # var, iri, pname, string, number, word, punct, op, eof
    value: object
    position: int

    def is_word(self, *names: str) -> bool:
        return (self.type == "word"
                and str(self.value).upper() in names)

    def is_punct(self, *chars: str) -> bool:
        return self.type == "punct" and self.value in chars

    def is_op(self, *ops: str) -> bool:
        return self.type == "op" and self.value in ops

    def describe(self) -> str:
        if self.type == "eof":
            return "end of input"
        return repr(self.value)


#: Row order is the disambiguation: ``?x`` is a variable before ``?``
#: is an operator, ``<…>`` an IRI (when it looks like one) before ``<``
#: is less-than, ``.5`` a number before ``.`` is punctuation.  Dots are
#: allowed inside a name but not at its end.
_RULES: list[Rule] = [
    (None, r"[ \t\r\n]+|#[^\n]*", None),
    ("var", r"[?$]\w+", lambda lexeme: lexeme[1:]),
    ("iri", r'<[^> \t\n"{}|\\^`]*>', lambda lexeme: lexeme[1:-1]),
    *escaped_string_rules("string"),
    ("number", NUMBER, number),
    ("punct", r"[{}().;,]", None),
    ("bnode", r"_:\w*", lambda lexeme: lexeme[2:]),
    ("word", r"[^\W\d](?:[\w\-:]|\.(?=\w))*", None),
    ("op", r"&&|\|\||\^\^|!=|<=|>=|[=<>!+\-*/^|?]", None),
]


def _error(text: str, offset: int) -> SparqlSyntaxError:
    if text[offset] in "\"'":
        return SparqlSyntaxError(*escaped_string_fault(text, offset))
    return SparqlSyntaxError(
        f"unexpected character {text[offset]!r}", offset)


_SCANNER = Scanner(_RULES, _error)


def tokenize(text: str) -> list[Token]:
    tokens = [Token("pname" if kind == "word" and ":" in value else kind,
                    value, start)
              for kind, value, start, _end in _SCANNER.scan(text)]
    tokens.append(Token("eof", None, len(text)))
    return tokens
