"""The one tokenizer: rule order, conversion, errors, and the tiling
property over every token table built on it."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import parser as sesql
from repro.rdf import turtle
from repro.relational import lexer as sql
from repro.scanner import (NUMBER, Scanner, escaped_string_fault,
                           escaped_string_rules, line_column, number,
                           unescape)
from repro.sparql import lexer as sparql


class Unmatched(Exception):
    def __init__(self, text, offset):
        super().__init__(offset)
        self.offset = offset


TOY = Scanner([
    (None, r"\s+|#[^\n]*", None),
    ("arrow", r"->", None),
    ("number", NUMBER, number),
    ("word", r"[a-z]+", str.upper),
    ("op", r"[-+>]", None),
], Unmatched)


def test_first_matching_row_wins_and_values_are_converted():
    assert list(TOY.scan("ab -> 12 - 2.5 # -> no\n>")) == [
        ("word", "AB", 0, 2), ("arrow", "->", 3, 5), ("number", 12, 6, 8),
        ("op", "-", 9, 10), ("number", 2.5, 11, 14), ("op", ">", 23, 24)]


def test_error_factory_gets_the_first_unmatched_offset():
    scanned = TOY.scan("ab\n  ?")
    assert next(scanned)[0] == "word"
    with pytest.raises(Unmatched) as raised:
        next(scanned)
    assert raised.value.offset == 5
    assert line_column("ab\n  ?", 5) == (2, 3)


def test_line_column_at_the_edges():
    assert line_column("", 0) == (1, 1)
    assert line_column("a\n", 2) == (2, 1)
    assert line_column("a\nbc", 1) == (1, 2)


def test_unescape_is_single_pass():
    assert unescape(r"a\\r\n\"\'\t") == "a\\r\n\"'\t"
    assert unescape(r"\q") == r"\q"


def test_escaped_string_rows_and_faults():
    strings = Scanner(escaped_string_rules("s", long=True), Unmatched)
    assert [value for _, value, _, _ in strings.scan(
        '"a\\"b"\'\'"""two\nlines ""in"" here"""')] == [
        'a"b', "", 'two\nlines ""in"" here']
    assert escaped_string_fault('"abc', 0) == (
        "unterminated string literal", 4)
    assert escaped_string_fault('x "a\nb"', 2) == (
        "newline in string literal", 4)
    assert escaped_string_fault("'a\\qb'", 0) == ("unknown escape \\q", 2)
    assert escaped_string_fault('"""a\n"" ', 0, long=True) == (
        "unterminated string literal", 8)


# -- the tiling property ------------------------------------------------------

FRAGMENTS = [
    "SELECT", "enrich", "a", "_x1", "t.c", "12", "2.5", ".5", "1e3", "'", "''",
    "'it''s'", '"', '""', '"q i"', '"a""b"', "--", "-- c\n", "/*", "/* x */",
    "#", "# c\n", "?x", "$y", "?", "${", "}", ":", "<http://a/b#c>", "<", "<=",
    '"a\\"b"', '"a\\q"', '"""l\nl"""', "'''", "@en", "@prefix", "^^", "_:b1",
    "ex:name", "a.b.", "&&", "||", "!=", "<>", "(", ")", "[", "]", "{", ",",
    ".", ";", "+", "-", "*", "/", "%", "=", " ", "\n", "\t", "é", "\\", "`",
]
TABLES = {
    "sql": sql._SCANNER.scan,
    "sparql": sparql._SCANNER.scan,
    "turtle": turtle._SCANNER.scan,
    "sesql": sesql.sesql_spans,
    "enrich-spec": sesql._SPEC.scan,
}
texts = st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join) \
    | st.text(max_size=20)


def scan_until_error(scan, text):
    tokens = []
    try:
        for token in scan(text):
            tokens.append(token)
    except Exception as exc:
        return tokens, exc
    return tokens, None


@pytest.mark.parametrize("table", sorted(TABLES))
@given(text=texts)
@settings(max_examples=300, deadline=None)
def test_token_spans_tile_the_input(table, text):
    scan = TABLES[table]
    tokens, error = scan_until_error(scan, text)
    covered = 0
    for kind, value, start, end in tokens:
        assert covered <= start < end <= len(text)
        # what lies between two tokens is skipped: it holds no token
        assert list(scan(text[covered:start])) == []
        # a token's own text scans to that one token
        assert list(scan(text[start:end])) == [
            (kind, value, 0, end - start)]
        covered = end
    if error is None:
        assert list(scan(text[covered:])) == []
    else:
        # the scan stopped at the first offset no row matches
        rest, again = scan_until_error(scan, text[covered:])
        assert rest == [] and type(again) is type(error)
