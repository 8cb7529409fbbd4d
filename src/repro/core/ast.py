"""SESQL abstract syntax: the six enrichment clauses of Fig. 5.

A SESQL query is a SQL query followed by ``ENRICH`` and one or more
enrichment expressions.  Four affect the SELECT clause (schema
extension/replacement and their boolean variants) and two affect the
WHERE clause (constant/variable replacement on *tagged* conditions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..relational import ast as sql_ast
from ..relational.render import bound_to, render_query


@dataclass
class SchemaExtension:
    """SCHEMAEXTENSION(attr, prop): add a column with prop-related values."""

    attr: str
    prop: str

    kind = "SCHEMAEXTENSION"
    affects = "select"


@dataclass
class SchemaReplacement:
    """SCHEMAREPLACEMENT(attr, prop): replace attr by prop-related values."""

    attr: str
    prop: str

    kind = "SCHEMAREPLACEMENT"
    affects = "select"


@dataclass
class BoolSchemaExtension:
    """BOOLSCHEMAEXTENSION(attr, prop, concept): add a boolean column that
    is true when (attr-value, prop, concept) holds in the knowledge base."""

    attr: str
    prop: str
    concept: str

    kind = "BOOLSCHEMAEXTENSION"
    affects = "select"


@dataclass
class BoolSchemaReplacement:
    """BOOLSCHEMAREPLACEMENT(attr, prop, concept): like the extension but
    replaces the attr column."""

    attr: str
    prop: str
    concept: str

    kind = "BOOLSCHEMAREPLACEMENT"
    affects = "select"


@dataclass
class ReplaceConstant:
    """REPLACECONSTANT(cond, const, prop): inside tagged condition *cond*,
    treat the non-schema constant *const* as the set of values extracted
    via *prop* (an ontology property or a stored SPARQL query name).

    The Fig. 5 grammar lists two arguments; the paper's text and Example
    4.5 use three.  We implement the three-argument form and accept the
    two-argument form ``(const, prop)`` when exactly one condition is
    tagged (the parser fills ``cond`` in).
    """

    cond: str
    constant: str
    prop: str

    kind = "REPLACECONSTANT"
    affects = "where"


@dataclass
class ReplaceVariable:
    """REPLACEVARIABLE(cond, attr, prop): inside tagged condition *cond*,
    evaluate column *attr* as the set of its prop-related values
    (existential semantics)."""

    cond: str
    attr: str
    prop: str

    kind = "REPLACEVARIABLE"
    affects = "where"


Enrichment = (SchemaExtension | SchemaReplacement | BoolSchemaExtension
              | BoolSchemaReplacement | ReplaceConstant | ReplaceVariable)


@dataclass
class TaggedCondition:
    """A WHERE-clause condition marked with ``${ <condition> : id }``."""

    cond_id: str
    text: str
    expr: sql_ast.Expr


@dataclass
class EnrichedQuery:
    """The output of the Semantic Query Parser (SQP)."""

    sql_text: str                      # cleaned SQL (tags stripped)
    query: sql_ast.SelectQuery         # parsed cleaned SQL
    enrichments: list[Enrichment] = field(default_factory=list)
    conditions: dict[str, TaggedCondition] = field(default_factory=dict)
    #: ``?`` placeholders in ``sql_text``; a statement with any is a
    #: prepared template, run only once bound.
    parameter_count: int = 0
    #: The values bound to the query's ``Param`` nodes, in order — the
    #: template's own nodes stay as they are — or ``None``: not bound (a
    #: statement parsed for one run; ``()`` marks a kept template of
    #: none).  An inlined statement run on its shape's template has
    #: ``Param`` nodes but no ``?``: its literals are these values.
    values: tuple | None = None

    def bound_sql(self) -> str:
        """The SQL part with the bound values in place of its ``?``."""
        if not (self.parameter_count and self.values):
            return self.sql_text
        return render_query(self.query, bound_to(self.values))

    def where_enrichments(self) -> list[Enrichment]:
        return [e for e in self.enrichments if e.affects == "where"]

    def select_enrichments(self) -> list[Enrichment]:
        return [e for e in self.enrichments if e.affects == "select"]
