"""N-Triples parser and serializer (line-oriented exchange format)."""

from __future__ import annotations

import re
from typing import Iterator

from ..scanner import unescape
from .errors import RdfParseError
from .store import Triple, TripleStore
from .terms import BNode, IRI, Literal
from .turtle import _typed_literal

_IRI_RE = r"<([^<>\"\s]*)>"
_BNODE_RE = r"_:([A-Za-z0-9]+)"
_LITERAL_RE = (r'"((?:[^"\\]|\\.)*)"'
               r"(?:@([A-Za-z][A-Za-z0-9-]*)|\^\^<([^<>\s]*)>)?")

_LINE_RE = re.compile(
    rf"^\s*(?:{_IRI_RE}|{_BNODE_RE})"
    rf"\s+{_IRI_RE}"
    rf"\s+(?:{_IRI_RE}|{_BNODE_RE}|{_LITERAL_RE})"
    rf"\s*\.\s*$")


def parse_ntriples_lines(text: str) -> Iterator[Triple]:
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _LINE_RE.match(stripped)
        if match is None:
            raise RdfParseError(f"malformed N-Triples line: {stripped!r}",
                                number)
        (s_iri, s_bnode, predicate, o_iri, o_bnode,
         o_literal, o_lang, o_dtype) = match.groups()
        subject = IRI(s_iri) if s_iri is not None else BNode(s_bnode)
        if o_iri is not None:
            obj = IRI(o_iri)
        elif o_bnode is not None:
            obj = BNode(o_bnode)
        else:
            lexical = unescape(o_literal)
            if o_lang:
                obj = Literal(lexical, lang=o_lang)
            elif o_dtype:
                obj = _typed_literal(lexical, o_dtype)
            else:
                obj = Literal(lexical)
        yield Triple(subject, IRI(predicate), obj)


def parse_ntriples(text: str) -> TripleStore:
    store = TripleStore()
    store.add_all(parse_ntriples_lines(text))
    return store


def _canonical(term) -> str:
    """Full N-Triples rendering (no Turtle numeric/boolean shorthand)."""
    if isinstance(term, Literal):
        escaped = (term.lexical.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n").replace("\r", "\\r")
                   .replace("\t", "\\t"))
        text = f'"{escaped}"'
        if term.lang:
            return f"{text}@{term.lang}"
        from .terms import XSD_STRING
        if term.datatype and term.datatype != XSD_STRING:
            return f"{text}^^<{term.datatype}>"
        return text
    return term.n3()


def serialize_ntriples(store: TripleStore) -> str:
    lines = sorted(
        f"{_canonical(t.subject)} {_canonical(t.predicate)} "
        f"{_canonical(t.object)} ."
        for t in store.triples())
    return "\n".join(lines) + ("\n" if lines else "")
