"""The condition-tag scanner of Remark 4.1.

SESQL marks WHERE-clause conditions that enrichment should affect with a
construct that standard SQL would reject::

    WHERE ${ elem_name = HazardousWaste : cond1 } AND city = 'Torino'

This dedicated scanner (step (ii) of Remark 4.1) recognises the
``${ ... : id }`` regions, records each condition together with its
syntax tree, and *cleans* the query by replacing the region with the
bare condition text — producing syntactically correct SQL (step (iii)).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..relational.parser import SqlParser
from .ast import TaggedCondition
from .errors import SesqlSyntaxError
from .parser import read_tag, sesql_spans


@dataclass
class ScanResult:
    clean_text: str
    conditions: dict[str, TaggedCondition]


def scan_condition_tags(text: str) -> ScanResult:
    """Extract ``${condition:id}`` tags and return the cleaned SQL.

    A ``?`` inside a tag parses to the ``Param`` index it has in the
    cleaned SQL, so the tagged expression and its copy in the parsed
    query share their node keys.
    """
    pieces: list[str] = []
    conditions: dict[str, TaggedCondition] = {}
    copied = 0                      # text[:copied] is already in pieces
    params = 0                      # the index the next ``?`` gets
    spans = sesql_spans(text)
    for kind, value, start, _end in spans:
        if kind == "PARAM":
            params += 1
        if kind != "MARK" or value != "${":
            continue
        condition_text, cond_id, end = read_tag(text, start, spans)
        if cond_id in conditions:
            raise SesqlSyntaxError(
                f"duplicate condition tag {cond_id!r}", start)
        try:
            parser = SqlParser(condition_text, first_param=params)
            expr = parser.parse_expression()
            params = parser.next_param
        except Exception as exc:
            raise SesqlSyntaxError(
                f"cannot parse tagged condition {condition_text!r}: "
                f"{exc}", start) from exc
        conditions[cond_id] = TaggedCondition(
            cond_id, condition_text.strip(), expr)
        pieces += (text[copied:start], condition_text)
        copied = end
    pieces.append(text[copied:])
    return ScanResult("".join(pieces), conditions)

