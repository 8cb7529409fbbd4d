"""Scalar functions, arithmetic semantics, CAST and SQL rendering."""

import pytest

from repro.relational import (Database, ExecutionError, TypeMismatchError,
                              parse_expr, parse_sql, render_expr,
                              render_statement)


@pytest.fixture
def db():
    return Database()


def one(db, expression):
    return db.query(f"SELECT {expression}").rows[0][0]


# -- string functions ----------------------------------------------------


def test_case_functions(db):
    assert one(db, "UPPER('abc')") == "ABC"
    assert one(db, "LOWER('AbC')") == "abc"


def test_length_substr_trim(db):
    assert one(db, "LENGTH('hello')") == 5
    assert one(db, "SUBSTR('hello', 2)") == "ello"
    assert one(db, "SUBSTR('hello', 2, 3)") == "ell"
    assert one(db, "TRIM('  x  ')") == "x"
    assert one(db, "LTRIM('  x')") == "x"
    assert one(db, "RTRIM('x  ')") == "x"


def test_replace_instr_concat(db):
    assert one(db, "REPLACE('banana', 'na', 'xo')") == "baxoxo"
    assert one(db, "INSTR('banana', 'nan')") == 3
    assert one(db, "INSTR('banana', 'zz')") == 0
    assert one(db, "CONCAT('a', 1, 'b')") == "a1b"


def test_null_propagation(db):
    assert one(db, "UPPER(NULL)") is None
    assert one(db, "LENGTH(NULL)") is None
    assert one(db, "CONCAT('a', NULL)") is None


def test_coalesce_ifnull_nullif(db):
    assert one(db, "COALESCE(NULL, NULL, 3)") == 3
    assert one(db, "COALESCE(NULL, NULL)") is None
    assert one(db, "IFNULL(NULL, 'x')") == "x"
    assert one(db, "NULLIF(1, 1)") is None
    assert one(db, "NULLIF(1, 2)") == 1


# -- numeric functions ----------------------------------------------------------


def test_abs_round_floor_ceil(db):
    assert one(db, "ABS(-4)") == 4
    assert one(db, "ROUND(2.567, 2)") == 2.57
    assert one(db, "ROUND(2.5)") == 2.0
    assert one(db, "FLOOR(2.9)") == 2
    assert one(db, "CEIL(2.1)") == 3


def test_sqrt_power_sign_mod(db):
    assert one(db, "SQRT(9)") == 3.0
    assert one(db, "POWER(2, 10)") == 1024.0
    assert one(db, "SIGN(-7)") == -1
    assert one(db, "SIGN(0)") == 0
    assert one(db, "MOD(7, 3)") == 1.0


@pytest.mark.parametrize("expression", [
    "SQRT(-1)", "5 % 0", "CAST('inf' AS REAL) % 2",
    "MOD(CAST('inf' AS REAL), 2)", "FLOOR(CAST('inf' AS REAL))",
    "CEIL(CAST('inf' AS REAL))", "FLOOR(-CAST('inf' AS REAL))",
    "CEIL(-CAST('inf' AS REAL))", "POWER(-8.0, 0.5)", "POWER(0.0, -1)"])
def test_sqrt_negative_raises(db, expression):
    """A value SQL has no answer for is the engine's error: no bare
    Python error, and no ``complex``."""
    with pytest.raises(ExecutionError):
        one(db, expression)


def test_typeof(db):
    assert one(db, "TYPEOF(NULL)") == "null"
    assert one(db, "TYPEOF(1)") == "integer"
    assert one(db, "TYPEOF(1.5)") == "real"
    assert one(db, "TYPEOF('x')") == "text"
    assert one(db, "TYPEOF(TRUE)") == "boolean"


def test_unknown_function_and_bad_arity(db):
    with pytest.raises(ExecutionError):
        one(db, "NO_SUCH_FN(1)")
    with pytest.raises(ExecutionError):
        one(db, "UPPER('a', 'b')")


def test_function_type_errors(db):
    with pytest.raises(TypeMismatchError):
        one(db, "UPPER(3)")
    with pytest.raises(TypeMismatchError):
        one(db, "ABS('x')")


# -- arithmetic & concatenation --------------------------------------------------


def test_string_concat_operator(db):
    assert one(db, "'a' || 'b' || 'c'") == "abc"
    assert one(db, "'n=' || 5") == "n=5"
    assert one(db, "NULL || 'x'") is None


def test_arithmetic_null_propagates(db):
    assert one(db, "1 + NULL") is None
    assert one(db, "NULL * 0") is None


def test_modulo_sign_follows_dividend(db):
    assert one(db, "-7 % 3") == -1
    assert one(db, "7 % -3") == 1


@pytest.mark.parametrize("expression, expected", [
    ("9007199254740993 % 2", 1),
    ("9007199254740993 / 1", 9007199254740993),
    ("9223372036854775807 / 3", 3074457345618258602),
    ("-9223372036854775807 / 2", -4611686018427387903),
    ("-9007199254740993 % 2", -1),
    ("MOD(9007199254740993, 2)", 1),
    ("MOD(-7, 3)", -1),
    ("-7 / 2", -3),
    ("7 / -2", -3)])
def test_integer_division_and_remainder_are_exact(db, expression,
                                                  expected):
    """Two INTEGERs divide and take a remainder as integers, exact
    beyond 2**53, as sqlite answers: the quotient truncated toward
    zero, the remainder of the dividend's sign."""
    value = one(db, expression)
    assert type(value) is int and value == expected


def test_unary_minus_and_plus(db):
    assert one(db, "-(2 + 3)") == -5
    assert one(db, "+4") == 4
    with pytest.raises(TypeMismatchError):
        one(db, "-'x'")


def test_cast_semantics(db):
    assert one(db, "CAST('12' AS INTEGER)") == 12
    assert one(db, "CAST(3.0 AS INTEGER)") == 3
    assert one(db, "CAST(7 AS TEXT)") == "7"
    assert one(db, "CAST('true' AS BOOLEAN)") is True
    assert one(db, "CAST(NULL AS INTEGER)") is None
    with pytest.raises(TypeMismatchError):
        one(db, "CAST('12abc' AS INTEGER)")
    with pytest.raises(TypeMismatchError):
        one(db, "CAST(3.5 AS INTEGER)")  # non-integral real


def test_boolean_literals_in_where(db):
    db.execute("CREATE TABLE t (flag BOOLEAN)")
    db.execute("INSERT INTO t VALUES (TRUE), (FALSE), (NULL)")
    assert len(db.query("SELECT * FROM t WHERE flag").rows) == 1


# -- rendering ----------------------------------------------------------------------


def test_render_expression_round_trip_examples():
    for text in ["(a + (b * 2))", "(x IN (1, 2))",
                 "(name LIKE 'O''Brien%')"]:
        rendered = render_expr(parse_expr(text))
        # Re-parse of the rendering yields the same rendering.
        assert render_expr(parse_expr(rendered)) == rendered


def test_render_statement_forms():
    select = parse_sql("SELECT a AS x FROM t LEFT JOIN u ON t.id = u.id "
                       "WHERE a > 1 GROUP BY a HAVING COUNT(*) > 0 "
                       "ORDER BY x DESC LIMIT 5 OFFSET 2")
    text = render_statement(select)
    for keyword in ("LEFT JOIN", "GROUP BY", "HAVING", "ORDER BY",
                    "LIMIT", "OFFSET"):
        assert keyword in text
    insert = parse_sql("INSERT INTO t (a) VALUES (1), (2)")
    assert render_statement(insert) == "INSERT INTO t (a) VALUES (1), (2)"
    update = parse_sql("UPDATE t SET a = a + 1 WHERE a < 3")
    assert "UPDATE t SET" in render_statement(update)
    delete = parse_sql("DELETE FROM t WHERE a = 1")
    assert render_statement(delete) == "DELETE FROM t WHERE (a = 1)"
    create = parse_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    assert "PRIMARY KEY" in render_statement(create)


def test_rendered_statement_is_executable(db):
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
    original = "SELECT b, COUNT(*) AS n FROM t WHERE a >= 1 GROUP BY b " \
               "ORDER BY n DESC, b"
    rendered = render_statement(parse_sql(original))
    assert db.query(rendered).rows == db.query(original).rows


def test_quoted_identifiers_render_safely():
    stmt = parse_sql('SELECT "week day" FROM "my table"')
    rendered = render_statement(stmt)
    assert '"week day"' in rendered
    assert '"my table"' in rendered
