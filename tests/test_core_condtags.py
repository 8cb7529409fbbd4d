"""The ${condition:id} scanner of Remark 4.1."""

import pytest

from repro.core import SesqlSyntaxError, scan_condition_tags
from repro.relational import ast as sql_ast
from repro.relational import parse_sql


def test_single_tag_extracted_and_cleaned():
    scan = scan_condition_tags(
        "SELECT x FROM t WHERE ${a = b:cond1} AND c = 1")
    assert scan.clean_text == "SELECT x FROM t WHERE a = b AND c = 1"
    assert set(scan.conditions) == {"cond1"}
    assert scan.conditions["cond1"].text == "a = b"


def test_clean_text_parses_as_sql():
    scan = scan_condition_tags(
        "SELECT x FROM t WHERE ${a <> b : c1} AND ${a = 3 : c2}")
    statement = parse_sql(scan.clean_text)
    assert isinstance(statement, sql_ast.SelectQuery)
    assert set(scan.conditions) == {"c1", "c2"}


def test_condition_ast_matches_cleaned_subtree():
    scan = scan_condition_tags("SELECT x FROM t WHERE ${a = b:c1}")
    statement = parse_sql(scan.clean_text)
    assert sql_ast.node_key(statement.core.where) == sql_ast.node_key(
        scan.conditions["c1"].expr)


def test_whitespace_in_tags_tolerated():
    scan = scan_condition_tags("WHERE ${  a  =  b  :  cond1  }")
    assert scan.conditions["cond1"].text == "a  =  b"


def test_colon_inside_parens_not_a_separator():
    # Parentheses shield inner colons; the last depth-0 colon splits.
    scan = scan_condition_tags("WHERE ${ x IN (1, 2) : c9 }")
    assert set(scan.conditions) == {"c9"}


@pytest.mark.parametrize("text", [
    "SELECT '${not a tag:x}' FROM t",
    "SELECT a /* ${x = 1:c1} */ FROM t",
    "SELECT a FROM t -- ${x = 1:c1}\nWHERE a = 1",
    'SELECT "${x = 1:c1}" FROM t',
])
def test_dollar_inside_string_comment_or_quoted_name_ignored(text):
    scan = scan_condition_tags(text)
    assert scan.conditions == {}
    assert scan.clean_text == text


def test_tag_in_a_comment_is_not_a_duplicate():
    scan = scan_condition_tags(
        "SELECT a FROM t /* ${x = 1:c1} */ WHERE ${a = 1:c1}")
    assert set(scan.conditions) == {"c1"}
    assert scan.clean_text == "SELECT a FROM t /* ${x = 1:c1} */ WHERE a = 1"


def test_string_inside_condition_preserved():
    scan = scan_condition_tags(
        "WHERE ${name = 'He}llo:world':c1} AND x = 1")
    assert scan.conditions["c1"].text == "name = 'He}llo:world'"


def test_duplicate_tag_id_rejected():
    with pytest.raises(SesqlSyntaxError):
        scan_condition_tags("WHERE ${a=1:c} AND ${b=2:c}")


def test_missing_id_rejected():
    with pytest.raises(SesqlSyntaxError):
        scan_condition_tags("WHERE ${a = b}")


def test_unterminated_tag_rejected():
    with pytest.raises(SesqlSyntaxError):
        scan_condition_tags("WHERE ${a = b : c1")


def test_invalid_id_rejected():
    with pytest.raises(SesqlSyntaxError):
        scan_condition_tags("WHERE ${a = b : not ok}")


def test_unparsable_condition_rejected():
    with pytest.raises(SesqlSyntaxError):
        scan_condition_tags("WHERE ${SELECT FROM : c1}")


def test_text_without_tags_passes_through():
    text = "SELECT a FROM t WHERE b = 'x'"
    scan = scan_condition_tags(text)
    assert scan.clean_text == text
    assert scan.conditions == {}
