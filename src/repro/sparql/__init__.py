"""SPARQL subset engine over :class:`repro.rdf.TripleStore`.

Supported forms: SELECT only (DISTINCT, ORDER BY, LIMIT/OFFSET), with
basic graph patterns, FILTER, OPTIONAL, UNION, BIND and property paths;
the parser refuses ASK, CONSTRUCT and DESCRIBE.  This is the query the
SESQL Semantic Query Module (SQM) generates against per-user knowledge
bases, and a result is one tuple of terms per solution, in projection
order (:class:`SparqlResults`).
"""

from .ast import Variable
from .errors import (FilterError, SparqlError, SparqlEvalError,
                     SparqlSyntaxError)
from .evaluator import (Evaluator, NaiveEvaluator, SparqlEngine,
                        SparqlResults)
from .parser import parse_sparql
from .planner import PatternStep, estimate_pattern, order_bgp

__all__ = [
    "SparqlEngine", "SparqlResults", "Evaluator", "NaiveEvaluator",
    "Variable", "parse_sparql", "PatternStep", "estimate_pattern",
    "order_bgp", "SparqlError", "SparqlSyntaxError", "SparqlEvalError",
    "FilterError",
]
