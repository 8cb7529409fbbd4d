"""Turtle (subset) parser and serializer.

Supports: ``@prefix``/``@base`` directives, IRIs, prefixed names, the
``a`` keyword, string literals (with language tags and ``^^`` datatypes),
numeric and boolean literals, blank node labels (``_:b0``), predicate
lists (``;``), object lists (``,``) and ``#`` comments.  This covers the
knowledge bases the paper's enrichment scenarios exchange.
"""

from __future__ import annotations

from typing import Iterator

from ..scanner import (Rule, Scanner, escaped_string_fault,
                       escaped_string_rules, line_column)
from .errors import RdfParseError
from .namespace import RDF_TYPE, NamespaceManager
from .store import Triple, TripleStore
from .terms import (XSD_BOOLEAN, XSD_DOUBLE, XSD_INTEGER, XSD_STRING, BNode,
                    IRI, Literal, Term)


#: The Turtle token table.  Trailing dots of a name are the statement
#: terminator, not part of the name.
_RULES: list[Rule] = [
    (None, r"[ \t\r\n]+|#[^\n]*", None),
    ("iri", r"<[^>\n]*>", lambda lexeme: lexeme[1:-1]),
    *escaped_string_rules("string", long=True),
    ("punct", r"[.;,\[\]()]", None),
    ("at", r"@[\w\-]*", lambda lexeme: lexeme[1:]),
    ("dtype", r"\^\^", None),
    ("number", r"[+-]?(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?", None),
    ("bnode", r"_:[\w\-]*", lambda lexeme: lexeme[2:]),
    ("word", r"[\w\-.:]*[\w\-:]", None),
]


def _fault(text: str, offset: int) -> RdfParseError:
    if text[offset] in "\"'":
        message, offset = escaped_string_fault(text, offset, long=True)
    elif text[offset] == "<":
        offset = text.find("\n", offset)
        message = "newline inside IRI"
        if offset < 0:
            message, offset = "unterminated IRI", len(text)
    else:
        message = f"unexpected character {text[offset]!r}"
    return RdfParseError(message, line_column(text, offset)[0])


_SCANNER = Scanner(_RULES, _fault)


class TurtleParser:
    """Parses Turtle text into triples."""

    def __init__(self, text: str,
                 namespaces: NamespaceManager | None = None) -> None:
        self.text = text
        self._tokens = _SCANNER.scan(text)
        self._offset = 0          # end of the last token scanned
        self.namespaces = namespaces or NamespaceManager()
        self._pushed: tuple[str, str] | None = None
        self._bnodes: dict[str, BNode] = {}

    def _error(self, message: str) -> RdfParseError:
        return RdfParseError(message,
                             line_column(self.text, self._offset)[0])

    def _next(self) -> tuple[str, str]:
        """(kind, text); kinds: iri, string, punct, at, dtype, number,
        bnode, pname, word, eof."""
        if self._pushed is not None:
            token, self._pushed = self._pushed, None
            return token
        kind, value, _start, self._offset = next(
            self._tokens, ("eof", "", 0, len(self.text)))
        if kind == "word" and ":" in value:
            kind = "pname"
        return kind, value

    def _push(self, token: tuple[str, str]) -> None:
        self._pushed = token

    def parse(self) -> Iterator[Triple]:
        while True:
            kind, text = self._next()
            if kind == "eof":
                return
            if kind == "at":
                self._directive(text)
                continue
            if kind == "word" and text.upper() in ("PREFIX", "BASE"):
                self._directive(text.lower(), sparql_style=True)
                continue
            subject = self._term_from(kind, text, role="subject")
            yield from self._predicate_object_list(subject)
            kind, text = self._next()
            if kind != "punct" or text != ".":
                raise self._error(
                    f"expected '.' after statement, found {text!r}")

    def _directive(self, name: str, sparql_style: bool = False) -> None:
        if name == "prefix":
            kind, text = self._next()
            if kind != "pname" or not text.endswith(":"):
                raise self._error("expected prefix declaration")
            prefix = text[:-1]
            kind, iri = self._next()
            if kind != "iri":
                raise self._error("expected IRI in @prefix")
            self.namespaces.bind(prefix, iri)
            if not sparql_style:
                kind, text = self._next()
                if kind != "punct" or text != ".":
                    raise self._error("expected '.' after @prefix")
            return
        if name == "base":
            kind, _iri = self._next()
            if kind != "iri":
                raise self._error("expected IRI in @base")
            if not sparql_style:
                kind, text = self._next()
                if kind != "punct" or text != ".":
                    raise self._error("expected '.' after @base")
            return
        raise self._error(f"unknown directive @{name}")

    def _predicate_object_list(self, subject: Term) -> Iterator[Triple]:
        while True:
            kind, text = self._next()
            predicate = self._predicate_from(kind, text)
            while True:
                kind, text = self._next()
                obj = self._term_from(kind, text, role="object")
                yield Triple(subject, predicate, obj)
                kind, text = self._next()
                if kind == "punct" and text == ",":
                    continue
                break
            if kind == "punct" and text == ";":
                # Allow trailing ';' before '.'
                peeked = self._next()
                if peeked[0] == "punct" and peeked[1] == ".":
                    self._push(peeked)
                    return
                self._push(peeked)
                continue
            self._push((kind, text))
            return

    def _predicate_from(self, kind: str, text: str) -> IRI:
        if kind == "word" and text == "a":
            return RDF_TYPE
        if kind == "iri":
            return IRI(text)
        if kind == "pname":
            return self.namespaces.expand(text)
        raise self._error(f"expected predicate, found {text!r}")

    def _term_from(self, kind: str, text: str, role: str) -> Term:
        if kind == "iri":
            return IRI(text)
        if kind == "pname":
            return self.namespaces.expand(text)
        if kind == "bnode":
            if text not in self._bnodes:
                self._bnodes[text] = BNode(text)
            return self._bnodes[text]
        if kind == "number":
            if any(c in text for c in ".eE"):
                return Literal(float(text))
            return Literal(int(text))
        if kind == "word" and text in ("true", "false"):
            return Literal(text == "true")
        if kind == "string":
            return self._string_literal(text)
        raise self._error(f"expected {role}, found {text!r}")

    def _string_literal(self, text: str) -> Literal:
        kind, next_text = self._next()
        if kind == "at":
            return Literal(text, lang=next_text)
        if kind == "dtype":
            kind, dtype_text = self._next()
            if kind == "iri":
                datatype = dtype_text
            elif kind == "pname":
                datatype = self.namespaces.expand(dtype_text).value
            else:
                raise self._error("expected datatype IRI after ^^")
            return _typed_literal(text, datatype)
        self._push((kind, next_text))
        return Literal(text)


def _typed_literal(lexical: str, datatype: str) -> Literal:
    if datatype == XSD_INTEGER:
        return Literal(int(lexical), datatype=datatype)
    if datatype in (XSD_DOUBLE,):
        return Literal(float(lexical), datatype=datatype)
    if datatype == XSD_BOOLEAN:
        return Literal(lexical == "true", datatype=datatype)
    if datatype == XSD_STRING:
        return Literal(lexical)
    return Literal(lexical, datatype=datatype)


def parse_turtle(text: str,
                 namespaces: NamespaceManager | None = None) -> TripleStore:
    """Parse Turtle text into a fresh TripleStore."""
    store = TripleStore()
    parser = TurtleParser(text, namespaces)
    store.add_all(parser.parse())
    return store


def serialize_turtle(store: TripleStore,
                     namespaces: NamespaceManager | None = None) -> str:
    """Serialize a store to Turtle, grouping by subject."""
    manager = namespaces or NamespaceManager()
    lines = [f"@prefix {prefix}: <{base}> ."
             for prefix, base in sorted(manager.prefixes().items())]
    if lines:
        lines.append("")

    def render(term: Term) -> str:
        if isinstance(term, IRI):
            return manager.compact(term)
        return term.n3()

    by_subject: dict[Term, list[Triple]] = {}
    for triple in store.triples():
        by_subject.setdefault(triple.subject, []).append(triple)
    for subject in sorted(by_subject, key=lambda term: term.n3()):
        triples = sorted(by_subject[subject],
                         key=lambda t: (t.predicate.value, t.object.n3()))
        subject_text = render(subject)
        parts = []
        for triple in triples:
            predicate_text = ("a" if triple.predicate == RDF_TYPE
                              else render(triple.predicate))
            parts.append(f"{predicate_text} {render(triple.object)}")
        joined = " ;\n    ".join(parts)
        lines.append(f"{subject_text} {joined} .")
    return "\n".join(lines) + "\n"
