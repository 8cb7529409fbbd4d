"""Parser for the ENRICH clause (the Fig. 5 grammar), the SESQL query
splitter and the literal lifter.

``split_sesql`` finds the top-level ``ENRICH`` keyword that separates
the SQL part from the enrichment specification;
``parse_enrichments`` parses the specification into enrichment AST
nodes.  Both the concatenated (``SCHEMAEXTENSION``) and the spaced
(``SCHEMA EXTENSION``) spellings from the paper are accepted.

``lift_literals`` reads an inlined statement as its *shape* — the
statement with its SQL literals as ``?`` slots — and the values they
held, so that statements differing only by a literal share one parsed
template (forced parameterisation).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def read_tag(text: str, start: int, spans) -> tuple[str, str, int]:
    """Read ``${ condition : id }`` whose ``${`` *spans* just yielded:
    the condition text, its id and the offset past the ``}``.

    The condition may itself contain parentheses and strings; the
    separating ``:`` is the last colon at nesting depth zero before the
    closing ``}``.  The ``ENRICH`` word ends the SQL part, so a tag open
    there is unterminated.
    """
    depth = 0
    last_colon = -1
    for kind, value, position, end in spans:
        if kind == "OP":
            depth += (value == "(") - (value == ")")
        elif kind == "WORD" and value.upper() == "ENRICH":
            break
        elif kind != "MARK" or depth != 0:
            continue
        elif value == ":":
            last_colon = position
        elif value == "}":
            if last_colon < 0:
                raise SesqlSyntaxError(
                    "condition tag is missing ':id'", start)
            cond_id = text[last_colon + 1:position].strip()
            if not cond_id or not all(c.isalnum() or c == "_"
                                      for c in cond_id):
                raise SesqlSyntaxError(
                    f"invalid condition identifier {cond_id!r}", start)
            return text[start + 2:last_colon], cond_id, end
    raise SesqlSyntaxError("unterminated condition tag", start)


# ---------------------------------------------------------------------------
# Literal lifting (forced parameterisation)
# ---------------------------------------------------------------------------

#: Words after which a literal is no value of the statement but part of
#: its shape: a LIKE pattern (lints and kernels read it) and a CAST
#: target.
_KEEP_AFTER = frozenset({"LIKE", "AS"})
#: Words that open a clause of a SELECT block at their depth.
_SQL_CLAUSES = frozenset({"SELECT", "FROM", "WHERE", "GROUP", "HAVING",
                          "ORDER", "LIMIT", "OFFSET"})
#: The clauses of a grouped block whose terms match its group keys.
_GROUP_MATCHED = frozenset({"SELECT", "HAVING", "ORDER"})
#: Words that close an open ORDER BY / GROUP BY list at their depth.
_LIST_ENDS = frozenset({"HAVING", "ORDER", "LIMIT", "OFFSET", "UNION",
                        "INTERSECT", "EXCEPT"})


@dataclass(frozen=True)
class LiftedStatement:
    """An inlined SESQL statement read as its shape and its values.

    ``shape`` is the statement's SQL tokens with each lifted literal
    replaced by its type (``1``, ``1.0`` and ``'1'`` are three shapes),
    each condition tag as written, and the ENRICH clause as written;
    two statements of one shape parse to one syntax tree but for the
    values in its slots.  ``sql_text`` is this statement's own cleaned
    SQL part (condition tags stripped), ``values`` the lifted literals
    in text order and ``spans`` where they stand.
    """

    text: str
    shape: tuple
    sql_text: str
    values: tuple
    spans: tuple

    def slotted(self) -> str:
        """The statement with a ``?`` in place of each lifted literal."""
        pieces, copied = [], 0
        for start, end in self.spans:
            pieces += (self.text[copied:start], "?")
            copied = end
        pieces.append(self.text[copied:])
        return "".join(pieces)


def lift_literals(text: str) -> LiftedStatement | None:
    """*text* with the SQL literals of its SQL part lifted into slots,
    or ``None`` when there is nothing to lift: no literal, a ``?``
    already, a literal in a GROUP BY term (its value decides what the
    select list may read), or a text the SQP would reject (which it
    then does, as it would have).

    One pass over :data:`sesql_spans` finds the split point, the cleaned
    SQL and the shape.  Literals that stay in the shape: ``NULL``,
    ``TRUE`` and ``FALSE`` (words, not literals), LIMIT / OFFSET
    operands, bare integers in an ORDER BY / GROUP BY list (ordinals),
    LIKE patterns, CAST targets, anything in the select list, HAVING or
    ORDER BY of a block with a GROUP BY or HAVING (the bind matches
    those terms to the group keys by meaning), and everything inside a
    condition tag and the ENRICH clause — knowledge-base terms, not SQL
    values.  A tag must stand apart from its neighbours: stripping it
    joins its condition to them.
    """
    shape: list = []
    values: list = []
    lifted: list[tuple[int, int]] = []
    #: Per lifted literal, its place in the shape and the clause it
    #: stands in at each open depth: ``(core, clause word)``.
    places: list[tuple[int, tuple]] = []
    clauses: dict[int, tuple[int, str]] = {}    # open clause, by depth
    grouped: set[int] = set()                   # cores with GROUP / HAVING
    pieces: list[str] = []
    copied = 0                  # text[:copied] is already in pieces
    split = len(text)
    depth = 0
    keep_from: int | None = None    # depth of an open LIMIT / OFFSET
    lists: dict[int, str] = {}      # open ORDER / GROUP BY, by depth
    previous = None                 # the word or operator just read
    previous_end = -1
    tag_end = -1                    # offset just past the last tag
    spans = sesql_spans(text)
    try:
        for kind, value, start, end in spans:
            if start == tag_end:
                return None
            if kind == "WORD":
                word = value.upper()
                if word == "ENRICH":
                    split = start
                    break
                if word in ("LIMIT", "OFFSET") and (
                        keep_from is None or depth < keep_from):
                    keep_from = depth
                if word == "BY":
                    lists[depth] = previous
                elif word in _LIST_ENDS:
                    lists.pop(depth, None)
                if word in _SQL_CLAUSES:
                    core = start if word == "SELECT" \
                        else clauses.get(depth, (start, ""))[0]
                    clauses[depth] = core, word
                    if word in ("GROUP", "HAVING"):
                        grouped.add(core)
            elif kind == "PARAM":
                return None
            elif kind == "MARK" and value == "${":
                if start == previous_end:
                    return None
                condition, _cond_id, tag_end = read_tag(text, start, spans)
                pieces += (text[copied:start], condition)
                copied = previous_end = tag_end
                shape.append(text[start:tag_end])
                previous = None
                continue
            elif kind == "OP":
                word = value
                if value == "(":
                    depth += 1
                elif value == ")":
                    lists.pop(depth, None)
                    clauses.pop(depth, None)
                    depth -= 1
                    if keep_from is not None and depth < keep_from:
                        keep_from = None
            else:
                word = None
            if kind in ("NUMBER", "STRING") and keep_from is None \
                    and previous not in _KEEP_AFTER \
                    and not (type(value) is int and (
                        previous == "BY"
                        or previous == "," and depth in lists)):
                if "GROUP" in lists.values():
                    return None
                places.append((len(shape), tuple(clauses.values())))
                shape.append(type(value))
                values.append(value)
                lifted.append((start, end))
            else:
                shape.append(text[start:end])
            previous, previous_end = word, end
    except SesqlSyntaxError:
        return None
    # A grouped core's select list, HAVING and ORDER BY match their terms
    # to its group keys by meaning: lifting a literal there would part
    # two equal terms (``x + 1`` twice), so none is.
    for index in reversed(range(len(places))):
        at, open_clauses = places[index]
        if any(core in grouped and word in _GROUP_MATCHED
               for core, word in open_clauses):
            start, end = lifted.pop(index)
            del values[index]
            shape[at] = text[start:end]
    if not values:
        return None
    pieces.append(text[copied:split])
    enrich = text[split:] if split < len(text) else None
    return LiftedStatement(text, (tuple(shape), enrich),
                           "".join(pieces).strip(), tuple(values),
                           tuple(lifted))


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
