"""RDF substrate: terms, indexed triple store, Turtle/N-Triples I/O.

This package replaces Apache Jena in the CroSSE architecture: per-user
knowledge bases are :class:`TripleView` subsets of one platform-wide
:class:`TripleStore`, queried through :mod:`repro.sparql`.
"""

from .errors import NamespaceError, RdfError, RdfParseError, RdfTermError
from .namespace import (OWL, RDF, RDF_TYPE, RDFS, SMG, XSD, Namespace,
                        NamespaceManager)
from .ntriples import parse_ntriples, serialize_ntriples
from .store import (StoreStatistics, TermDictionary, Triple, TripleStore,
                    TripleView)
from .terms import (BNode, IRI, Literal, Term, is_term, term_from_python,
                    term_sort_key)
from .turtle import parse_turtle, serialize_turtle

__all__ = [
    "IRI", "Literal", "BNode", "Term", "Triple", "TripleStore",
    "TripleView",
    "TermDictionary", "StoreStatistics",
    "Namespace", "NamespaceManager", "RDF", "RDFS", "XSD", "OWL", "SMG",
    "RDF_TYPE", "is_term", "term_from_python", "term_sort_key",
    "parse_turtle", "serialize_turtle", "parse_ntriples",
    "serialize_ntriples",
    "RdfError", "RdfTermError", "RdfParseError", "NamespaceError",
]
