"""Parser for the ENRICH clause (the Fig. 5 grammar) and the SESQL
query splitter.

``split_sesql`` finds the top-level ``ENRICH`` keyword that separates
the SQL part from the enrichment specification;
``parse_enrichments`` parses the specification into enrichment AST
nodes.  Both the concatenated (``SCHEMAEXTENSION``) and the spaced
(``SCHEMA EXTENSION``) spellings from the paper are accepted.
"""

from __future__ import annotations

from ..relational.lexer import (RULES as SQL_RULES, STRING_RULE,
                                fault as sql_fault)
from ..scanner import Scanner
from .ast import (BoolSchemaExtension, BoolSchemaReplacement, Enrichment,
                  ReplaceConstant, ReplaceVariable, SchemaExtension,
                  SchemaReplacement)
from .errors import SesqlSyntaxError

_CLAUSES = {
    "SCHEMAEXTENSION": (SchemaExtension, 2),
    "SCHEMAREPLACEMENT": (SchemaReplacement, 2),
    "BOOLSCHEMAEXTENSION": (BoolSchemaExtension, 3),
    "BOOLSCHEMAREPLACEMENT": (BoolSchemaReplacement, 3),
    "REPLACECONSTANT": (ReplaceConstant, (2, 3)),
    "REPLACEVARIABLE": (ReplaceVariable, 3),
}

_SPACED = {
    ("SCHEMA", "EXTENSION"): "SCHEMAEXTENSION",
    ("SCHEMA", "REPLACEMENT"): "SCHEMAREPLACEMENT",
    ("BOOLSCHEMA", "EXTENSION"): "BOOLSCHEMAEXTENSION",
    ("BOOLSCHEMA", "REPLACEMENT"): "BOOLSCHEMAREPLACEMENT",
    ("BOOL", "SCHEMAEXTENSION"): "BOOLSCHEMAEXTENSION",
    ("BOOL", "SCHEMAREPLACEMENT"): "BOOLSCHEMAREPLACEMENT",
    ("REPLACE", "CONSTANT"): "REPLACECONSTANT",
    ("REPLACE", "VARIABLE"): "REPLACEVARIABLE",
}


def _span_error(text: str, offset: int) -> SesqlSyntaxError:
    return SesqlSyntaxError(sql_fault(text, offset)[0], offset)


#: SESQL text as SQL token spans: the SQL table, then the markers SQL
#: does not know (``${`` … ``:`` … ``}``), then any other character.
#: Every pre-pass that looks for a marker "outside strings, quoted
#: identifiers and comments" walks these spans, so that phrase means
#: what the SQL lexer means by it.
sesql_spans = Scanner(
    [*SQL_RULES, ("MARK", r"\$\{|[:}]", None), ("OTHER", r"[^'\"/]", None)],
    _span_error).scan


def split_sesql(text: str) -> tuple[str, str | None]:
    """Split SESQL text into (sql_part, enrich_part or None).

    The split point is the first bare ``ENRICH`` word outside string
    literals, quoted identifiers and comments.
    """
    for kind, value, start, end in sesql_spans(text):
        if kind == "WORD" and value.upper() == "ENRICH":
            return text[:start], text[end:]
    return text, None


# ---------------------------------------------------------------------------
# Enrichment specification tokenizer + parser
# ---------------------------------------------------------------------------

def _spec_error(text: str, offset: int) -> SesqlSyntaxError:
    if text[offset] == "'":
        return SesqlSyntaxError("unterminated string literal", offset)
    if text[offset] == "?":
        return SesqlSyntaxError(
            "'?' placeholders are only supported in the SQL part of a "
            "SESQL query, not the ENRICH clause", offset)
    return SesqlSyntaxError(
        f"unexpected character {text[offset]!r} in ENRICH clause", offset)


#: ``^`` ``/`` ``|`` are SPARQL property-path operators, allowed inside
#: property arguments (extension, see SQM._property_path_n3); a word
#: does not end in a dot.
_SPEC = Scanner([
    (None, r"[ \t\r\n]+|--[^\n]*", None),
    ("punct", r"[(),]", None),
    STRING_RULE,
    ("word", r"[\w^](?:[\w.:\-^/|]*[\w:\-^/|])?", None),
], _spec_error)


def _tokenize_spec(text: str) -> list[tuple[str, str, int]]:
    """Tokens: ('word' | 'STRING' | 'punct' | 'eof', value, position)."""
    tokens = [(kind, value, start)
              for kind, value, start, _end in _SPEC.scan(text)]
    tokens.append(("eof", "", len(text)))
    return tokens


def parse_enrichments(text: str,
                      known_conditions: set[str] | None = None
                      ) -> list[Enrichment]:
    """Parse the body of an ENRICH clause into enrichment nodes.

    ``known_conditions`` (ids collected by the condition-tag scanner)
    lets the two-argument REPLACECONSTANT form infer its condition when
    exactly one condition is tagged.
    """
    tokens = _tokenize_spec(text)
    index = 0
    enrichments: list[Enrichment] = []

    def peek() -> tuple[str, str, int]:
        return tokens[index]

    def advance() -> tuple[str, str, int]:
        nonlocal index
        token = tokens[index]
        if token[0] != "eof":
            index += 1
        return token

    while peek()[0] != "eof":
        kind, value, position = advance()
        if kind != "word":
            raise SesqlSyntaxError(
                f"expected an enrichment clause, found {value!r}", position)
        name = value.upper()
        if name not in _CLAUSES and peek()[0] == "word":
            spaced = _SPACED.get((name, peek()[1].upper()))
            if spaced is not None:
                advance()
                name = spaced
        if name not in _CLAUSES:
            raise SesqlSyntaxError(
                f"unknown enrichment clause {value!r}", position)
        node_class, arity = _CLAUSES[name]
        args = _parse_args(tokens, advance, peek)
        enrichments.append(_build(node_class, name, arity, args,
                                  known_conditions, position))
    if not enrichments:
        raise SesqlSyntaxError("ENRICH clause is empty")
    return enrichments


def _parse_args(tokens, advance, peek) -> list[str]:
    kind, value, position = advance()
    if kind != "punct" or value != "(":
        raise SesqlSyntaxError("expected '(' after enrichment name",
                               position)
    args: list[str] = []
    while True:
        kind, value, position = advance()
        if kind in ("word", "STRING"):
            args.append(value)
        else:
            raise SesqlSyntaxError(
                f"expected an argument, found {value!r}", position)
        kind, value, position = advance()
        if kind == "punct" and value == ",":
            continue
        if kind == "punct" and value == ")":
            return args
        raise SesqlSyntaxError(
            f"expected ',' or ')', found {value!r}", position)


def _build(node_class, name: str, arity, args: list[str],
           known_conditions: set[str] | None,
           position: int) -> Enrichment:
    if name == "REPLACECONSTANT":
        if len(args) == 3:
            return ReplaceConstant(args[0], args[1], args[2])
        if len(args) == 2:
            # Fig. 5 two-argument form: infer the condition.
            if known_conditions and len(known_conditions) == 1:
                return ReplaceConstant(next(iter(known_conditions)),
                                       args[0], args[1])
            raise SesqlSyntaxError(
                "REPLACECONSTANT(const, prop) needs exactly one tagged "
                "condition to infer from; tag conditions with "
                "${...:id} and use the three-argument form", position)
        raise SesqlSyntaxError(
            f"REPLACECONSTANT takes 2 or 3 arguments, got {len(args)}",
            position)
    expected = arity if isinstance(arity, int) else arity[1]
    if len(args) != expected:
        raise SesqlSyntaxError(
            f"{name} takes {expected} arguments, got {len(args)}", position)
    return node_class(*args)
