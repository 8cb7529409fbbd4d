"""Result containers (ResultSet, SparqlResults) and CSV import/export."""

import pytest

from repro.relational import Database, ExecutionError, ResultSet
from repro.relational.csv_io import dump_csv, load_csv
from repro.rdf import Literal, Namespace, parse_turtle
from repro.sparql import SparqlEngine, Variable

SMG = Namespace("http://smartground.eu/ns#")


# -- ResultSet ------------------------------------------------------------


@pytest.fixture
def result():
    return ResultSet(["name", "amount"],
                     [("Hg", 3.5), ("Pb", None), ("Fe", 140.0)])


def test_basic_accessors(result):
    assert len(result) == 3
    assert bool(result) is True
    assert result.first() == ("Hg", 3.5)
    assert result.column_values("amount") == [3.5, None, 140.0]
    assert result.column_index("AMOUNT") == 1  # case-insensitive


def test_unknown_column_raises(result):
    with pytest.raises(ExecutionError):
        result.column_index("nope")


def test_scalar_contract():
    assert ResultSet(["x"], [(7,)]).scalar() == 7
    with pytest.raises(ExecutionError):
        ResultSet(["x"], [(1,), (2,)]).scalar()
    with pytest.raises(ExecutionError):
        ResultSet(["x", "y"], [(1, 2)]).scalar()


def test_to_dicts(result):
    assert result.to_dicts()[0] == {"name": "Hg", "amount": 3.5}


def test_same_rows_order_insensitive(result):
    shuffled = ResultSet(result.columns, list(reversed(result.rows)))
    assert result.same_rows(shuffled)
    assert result != shuffled  # ordered equality still distinguishes


def test_format_table_truncation():
    rows = [(i,) for i in range(50)]
    text = ResultSet(["n"], rows).format_table(max_rows=5)
    assert "more rows" in text
    assert text.count("\n") < 15


def test_empty_result_is_falsy():
    empty = ResultSet(["x"], [])
    assert not empty
    assert empty.first() is None


# -- SparqlResults -------------------------------------------------------------


def test_sparql_results_accessors():
    store = parse_turtle("""
        @prefix smg: <http://smartground.eu/ns#> .
        smg:Mercury smg:dangerLevel "high" .
        smg:Iron smg:dangerLevel "low" .
        smg:Copper smg:atomicNumber 29 .
    """)
    results = SparqlEngine(store).query(
        "PREFIX smg: <http://smartground.eu/ns#> "
        "SELECT ?s ?o WHERE { ?s smg:dangerLevel ?o } ORDER BY ?s")
    assert results.var_names() == ["s", "o"]
    assert len(results) == 2
    assert results.python_tuples() == [
        ("http://smartground.eu/ns#Iron", "low"),
        ("http://smartground.eu/ns#Mercury", "high")]
    assert [t.value for t in results.values("o")] == ["low", "high"]
    # An OPTIONAL that does not match leaves its slot None.
    results = SparqlEngine(store).query(
        "PREFIX smg: <http://smartground.eu/ns#> "
        "SELECT ?s ?o WHERE { ?s ?p ?any "
        "OPTIONAL { ?s smg:dangerLevel ?o } } ORDER BY ?s")
    copper, iron, mercury = (SMG.Copper, SMG.Iron, SMG.Mercury)
    assert results.tuples() == [(copper, None), (iron, Literal("low")),
                                (mercury, Literal("high"))]
    assert results.values("o") == [None, Literal("low"), Literal("high")]
    assert results.values("missing") == [None, None, None]
    assert results.python_tuples() == [
        ("http://smartground.eu/ns#Copper", None),
        ("http://smartground.eu/ns#Iron", "low"),
        ("http://smartground.eu/ns#Mercury", "high")]
    assert next(iter(results)) == {Variable("s"): copper}


# -- CSV I/O ------------------------------------------------------------------------


CSV_TEXT = """name,amount,flagged
Hg,3.5,true
Pb,7,false
Fe,,true
"""


def test_load_csv_creates_typed_table():
    db = Database()
    inserted = load_csv(db, "materials", CSV_TEXT)
    assert inserted == 3
    rows = db.query("SELECT name, amount, flagged FROM materials "
                    "ORDER BY name").rows
    assert rows == [("Fe", None, True), ("Hg", 3.5, True),
                    ("Pb", 7.0, False)]


def test_load_csv_append_mode():
    db = Database()
    load_csv(db, "materials", CSV_TEXT)
    more = "name,amount,flagged\nCu,55,false\n"
    load_csv(db, "materials", more, create=False)
    assert db.query("SELECT COUNT(*) FROM materials").scalar() == 4


def test_load_csv_rejects_bad_shapes():
    db = Database()
    from repro.relational import RelationalError
    with pytest.raises(RelationalError):
        load_csv(db, "t", "")
    with pytest.raises(RelationalError):
        load_csv(db, "t", "a,b\n1\n")


def test_dump_csv_round_trip():
    db = Database()
    load_csv(db, "materials", CSV_TEXT)
    text = dump_csv(db, "materials")
    again = Database()
    load_csv(again, "materials", text)
    assert again.query("SELECT * FROM materials ORDER BY name").rows == \
        db.query("SELECT * FROM materials ORDER BY name").rows


def test_dump_csv_from_query_and_resultset():
    db = Database()
    load_csv(db, "materials", CSV_TEXT)
    from_sql = dump_csv(db, "SELECT name FROM materials WHERE flagged")
    assert from_sql.splitlines()[0] == "name"
    assert set(from_sql.splitlines()[1:]) == {"Hg", "Fe"}
    direct = dump_csv(ResultSet(["a"], [(1,), (None,)]))
    # A lone NULL cell is quoted so the row is not read as empty.
    assert direct == 'a\n1\n""\n'
