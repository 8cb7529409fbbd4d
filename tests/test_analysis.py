"""The static-analysis subsystem: every diagnostic code on the
statement type that produces it, analyzer options, session / explain /
REST wiring, the lint CLI, and the architecture linter.

The contract under test is severity-is-a-promise: every ``E-`` code
comes from a statement the executor *provably* rejects (each error test
also executes the statement and expects a raise), while every ``W-``
code comes from a statement that parses, prepares and — data
permitting — runs.
"""

from __future__ import annotations

import gc
import json
import weakref
from pathlib import Path

import pytest

import repro
from repro.analysis import (AnalysisError, AnalysisOptions, AnalysisReport,
                            CODES, analyze_federated, analyze_sparql,
                            analyze_sql, analyze_statement)
from repro.analysis.__main__ import (analyze_text, main as cli_main,
                                     split_statements)
from repro.analysis.archlint import (DEFAULT_CONFIG, check_tree,
                                     load_config)
from repro.analysis.archlint import main as archlint_main
from repro.analysis.query import analyze_enriched, analyze_script
from repro.api import QueryOptions
from repro.core.sqp import SemanticQueryParser
from repro.federation import Mediator
from repro.relational import Database
from repro.smartground.schema import create_schema

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture()
def db() -> Database:
    database = create_schema()
    database.execute(
        "INSERT INTO landfill (id, name, city, landfill_type, area_m2, "
        "opened_year) VALUES (1, 'lf0000', 'Turin', 'urban', 120000.0, "
        "1998)")
    database.execute(
        "INSERT INTO elem_contained (landfill_name, elem_name, amount, "
        "purity) VALUES ('lf0000', 'Mercury', 4.5, 0.2)")
    database.execute(
        "INSERT INTO lab (lab_name, city) VALUES ('EnvLab', 'Turin')")
    return database


def codes_of(report: AnalysisReport) -> set:
    return set(report.codes())


def expect(db, sql, code):
    """Analyzer flags *code*; for E- codes the executor must raise."""
    report = analyze_sql(sql, db)
    assert code in codes_of(report), \
        f"expected {code} for {sql!r}, got {report.format()!r}"
    if CODES[code].severity == "error":
        with pytest.raises(Exception):
            db.execute(sql)
    return report


# ---------------------------------------------------------------------------
# error codes: the executor agrees every time


class TestErrorCodes:
    def test_syntax(self, db):
        expect(db, "SELEC name FORM landfill", "E-SYNTAX")

    def test_unknown_table(self, db):
        expect(db, "SELECT a FROM missing_table", "E-UNKNOWN-TABLE")

    def test_unknown_column(self, db):
        expect(db, "SELECT nope FROM landfill", "E-UNKNOWN-COLUMN")

    def test_unknown_column_qualified(self, db):
        expect(db, "SELECT landfill.nope FROM landfill",
               "E-UNKNOWN-COLUMN")

    def test_ambiguous_column(self, db):
        expect(db, "SELECT city FROM landfill, lab",
               "E-AMBIGUOUS-COLUMN")

    def test_a_grouped_subquery_reads_group_keys_only(self, db):
        expect(db, "SELECT city FROM landfill GROUP BY city HAVING EXISTS "
                   "(SELECT 1 FROM lab WHERE lab.lab_name = landfill.name)",
               "E-UNKNOWN-COLUMN")

    def test_unknown_function(self, db):
        expect(db, "SELECT NOSUCHFN(name) FROM landfill",
               "E-UNKNOWN-FUNCTION")

    def test_function_arity(self, db):
        expect(db, "SELECT UPPER(name, city) FROM landfill",
               "E-FUNCTION-ARITY")

    def test_aggregate_in_where(self, db):
        expect(db, "SELECT name FROM landfill WHERE COUNT(*) > 1",
               "E-AGGREGATE-CONTEXT")

    def test_bad_cast(self, db):
        expect(db, "SELECT CAST(name AS BLOB) FROM landfill",
               "E-BAD-CAST")

    def test_duplicate_alias(self, db):
        expect(db, "SELECT 1 FROM landfill AS x, lab AS x",
               "E-DUPLICATE-ALIAS")

    def test_set_op_arity(self, db):
        expect(db, "SELECT name FROM landfill "
                   "UNION SELECT lab_name, city FROM lab",
               "E-SET-OP-ARITY")

    def test_ordinal_out_of_range(self, db):
        expect(db, "SELECT name FROM landfill ORDER BY 3",
               "E-ORDINAL-RANGE")

    def test_insert_arity(self, db):
        expect(db, "INSERT INTO lab (lab_name) VALUES ('a', 'b')",
               "E-DML-ARITY")

    def test_star_with_group_by(self, db):
        expect(db, "SELECT * FROM landfill GROUP BY city",
               "E-STAR-GROUPED")

    @pytest.mark.parametrize("condition, code", [
        ("NOSUCH(landfill.name) = 1", "E-UNKNOWN-FUNCTION"),
        ("CAST(landfill.id AS BLOBBY) = 1", "E-BAD-CAST")])
    def test_a_folded_away_conjunct_is_still_checked(self, db, condition,
                                                      code):
        """The planner folds ``1 = 0 AND ...`` to FALSE; the bind has
        checked the statement as written before it does."""
        expect(db, "SELECT landfill.name FROM landfill JOIN lab "
                   "ON landfill.city = lab.city "
                   f"WHERE 1 = 0 AND {condition}", code)

    @pytest.mark.parametrize("sql", [
        # The planner folds the key to the item's spelling; its meaning
        # differs, as written.
        "SELECT landfill.opened_year + 2, COUNT(*) FROM landfill JOIN lab "
        "ON landfill.city = lab.city GROUP BY landfill.opened_year + (1 + 1)",
        "SELECT name FROM landfill ORDER BY COUNT(*)"])
    def test_ungrouped_column(self, db, sql):
        expect(db, sql, "E-UNGROUPED-COLUMN")

    def test_aggregate_in_an_aggregate(self, db):
        expect(db, "SELECT COUNT(SUM(area_m2)) FROM landfill",
               "E-AGGREGATE-CONTEXT")

    def test_a_group_key_matches_by_meaning(self, db):
        for sql in ("SELECT landfill.city, COUNT(*) FROM landfill "
                    "GROUP BY city",
                    "SELECT city, COUNT(*) FROM landfill "
                    "GROUP BY landfill.city"):
            assert not analyze_sql(sql, db).has_errors
            assert db.query(sql).rows == [("Turin", 1)]


# ---------------------------------------------------------------------------
# warning codes: flagged, but the statement still runs


class TestWarningCodes:
    def run_and_expect(self, db, sql, code):
        report = expect(db, sql, code)
        db.execute(sql)          # warnings never block execution
        assert not report.has_errors
        return report

    def test_type_mismatch_ordered(self, db):
        # Data-dependent (raises only when a row reaches the compare),
        # hence a warning — analyzed, not executed, here.
        report = analyze_sql(
            "SELECT name FROM landfill WHERE opened_year > 'x'", db)
        assert "W-TYPE-MISMATCH" in codes_of(report)
        assert not report.has_errors

    def test_cross_family_equality(self, db):
        self.run_and_expect(
            db, "SELECT name FROM landfill WHERE name = 42",
            "W-CROSS-EQ-FALSE")

    def test_nonbool_where(self, db):
        report = analyze_sql(
            "SELECT name FROM landfill WHERE area_m2", db)
        assert "W-NONBOOL-WHERE" in codes_of(report)

    def test_like_on_non_text(self, db):
        report = analyze_sql(
            "SELECT name FROM landfill WHERE area_m2 LIKE '1%'", db)
        assert "W-LIKE-NONTEXT" in codes_of(report)

    def test_null_compare(self, db):
        self.run_and_expect(
            db, "SELECT name FROM landfill WHERE city = NULL",
            "W-NULL-COMPARE")

    def test_constant_predicate(self, db):
        self.run_and_expect(
            db, "SELECT name FROM landfill WHERE TRUE",
            "W-CONST-PREDICATE")

    def test_vectorization_fallback_names_subexpression(self, db):
        report = self.run_and_expect(
            db, "SELECT name FROM landfill WHERE LENGTH(name) > 3",
            "W-VEC-FALLBACK")
        diagnostic = [d for d in report
                      if d.code == "W-VEC-FALLBACK"][0]
        assert "LENGTH(name)" in diagnostic.expression

    def test_no_fallback_when_fully_vectorizable(self, db):
        report = analyze_sql(
            "SELECT name FROM landfill WHERE area_m2 > 1.0", db)
        assert "W-VEC-FALLBACK" not in codes_of(report)

    def test_semi_join_shapes_are_no_fallback(self, db):
        """The WHERE-side rewrite of Examples 4.5 / 4.6 runs as a semi
        join; only a shape the selector declines is reported, with why."""
        semi_joins = [
            "elem_name IN (SELECT name FROM landfill)",
            "elem_name NOT IN (SELECT name FROM landfill)",
            "NOT EXISTS (SELECT 1 FROM landfill l "
            "WHERE l.name = elem_contained.landfill_name AND l.id <> 3)"]
        for predicate in semi_joins:
            report = analyze_sql(
                f"SELECT amount FROM elem_contained WHERE {predicate}", db)
            assert "W-VEC-FALLBACK" not in codes_of(report), predicate
        declined = {
            "amount > 1.0 OR elem_name IN (SELECT name FROM landfill)":
                "subquery predicate under OR",
            "EXISTS (SELECT 1 FROM landfill l WHERE l.name = "
            "elem_contained.landfill_name LIMIT 1)": "subquery has LIMIT",
            "EXISTS (SELECT 1 FROM landfill l WHERE l.name < "
            "elem_contained.landfill_name)":
                "correlated without an equality",
            # An equality, but of the inner table with itself: the names
            # decide, as they do for the executor's selector.
            "EXISTS (SELECT 1 FROM landfill l WHERE l.name = l.city "
            "AND l.id <> elem_contained.amount)":
                "correlated without an equality"}
        for predicate, reason in declined.items():
            report = self.run_and_expect(
                db, f"SELECT amount FROM elem_contained WHERE {predicate}",
                "W-VEC-FALLBACK")
            assert any(reason in d.message for d in report
                       if d.code == "W-VEC-FALLBACK"), report.format()

    def test_nonsargable_function_over_indexed_column(self, db):
        self.run_and_expect(
            db, "SELECT landfill_name FROM elem_contained "
                "WHERE UPPER(elem_name) = 'GOLD'",
            "W-NONSARGABLE")

    def test_nonsargable_leading_wildcard(self, db):
        self.run_and_expect(
            db, "SELECT landfill_name FROM elem_contained "
                "WHERE elem_name LIKE '%old'",
            "W-NONSARGABLE")

    def test_sargable_needs_an_index_to_warn(self, db):
        # city is unindexed: wrapping it loses nothing, so no warning.
        report = analyze_sql(
            "SELECT name FROM landfill WHERE UPPER(city) = 'TURIN'",
            db)
        assert "W-NONSARGABLE" not in codes_of(report)

    def test_unbounded_select(self, db):
        self.run_and_expect(db, "SELECT name FROM landfill",
                            "W-NO-LIMIT-STREAM")

    def test_aggregates_are_bounded(self, db):
        report = analyze_sql("SELECT COUNT(*) FROM landfill", db)
        assert "W-NO-LIMIT-STREAM" not in codes_of(report)

    def test_offset_without_order(self, db):
        self.run_and_expect(
            db, "SELECT name FROM landfill LIMIT 10 OFFSET 2",
            "W-OFFSET-NO-ORDER")

    def test_cartesian_comma_join(self, db):
        self.run_and_expect(
            db, "SELECT l.name FROM landfill AS l, lab AS b LIMIT 5",
            "W-CARTESIAN")

    def test_connected_join_is_fine(self, db):
        report = analyze_sql(
            "SELECT l.name FROM landfill AS l, lab AS b "
            "WHERE l.city = b.city LIMIT 5", db)
        assert "W-CARTESIAN" not in codes_of(report)

    def test_join_condition_missing_one_side(self, db):
        report = analyze_sql(
            "SELECT l.name FROM landfill AS l JOIN lab AS b "
            "ON l.city = l.name LIMIT 5", db)
        assert "W-CARTESIAN" in codes_of(report)

    def test_an_on_condition_binds_in_its_own_join(self):
        """``x`` names a column of ``a`` and one of ``c``, but the first
        ON sees only ``a`` and ``b``: no ambiguity, and both joins are
        connected."""
        database = Database()
        database.execute_script("""
            CREATE TABLE a (x INTEGER, i INTEGER);
            CREATE TABLE b (k INTEGER);
            CREATE TABLE c (x INTEGER, j INTEGER);
            INSERT INTO a VALUES (1, 1);
            INSERT INTO b VALUES (1);
            INSERT INTO c VALUES (5, 1);
        """)
        sql = ("SELECT b.k FROM a JOIN b ON x = b.k "
               "JOIN c ON c.j = b.k LIMIT 5")
        report = analyze_sql(sql, database)
        assert not {"E-AMBIGUOUS-COLUMN", "W-CARTESIAN"} \
            & codes_of(report), report.format()
        assert database.query(sql).rows == [(1,)]

    def test_distinct_with_group_by(self, db):
        self.run_and_expect(
            db, "SELECT DISTINCT city FROM landfill GROUP BY city "
                "LIMIT 5",
            "W-DISTINCT-GROUPED")

    def test_having_without_aggregate(self, db):
        self.run_and_expect(
            db, "SELECT 1 FROM landfill HAVING 2 > 1",
            "W-HAVING-NO-AGG")

    def test_select_star(self, db):
        self.run_and_expect(db, "SELECT * FROM landfill LIMIT 5",
                            "W-SELECT-STAR")


# ---------------------------------------------------------------------------
# other statement types


class TestStatementTypes:
    def test_insert_unknown_column(self, db):
        expect(db, "INSERT INTO lab (lab_name, nope) VALUES ('a', 'b')",
               "E-UNKNOWN-COLUMN")

    def test_insert_select_arity(self, db):
        expect(db, "INSERT INTO lab (lab_name) "
                   "SELECT name, city FROM landfill",
               "E-DML-ARITY")

    def test_update_unknown_column(self, db):
        expect(db, "UPDATE lab SET nope = 1", "E-UNKNOWN-COLUMN")

    def test_update_where_sees_table_scope(self, db):
        report = analyze_sql(
            "UPDATE lab SET city = 'Rome' WHERE lab_name = 'EnvLab'",
            db)
        assert not len(report)

    def test_dml_over_an_empty_table_sees_its_columns(self, db):
        db.execute("CREATE TABLE empty_t (a INTEGER, b TEXT)")
        for text in ("UPDATE empty_t SET a = a + 1 WHERE b = 'x'",
                     "DELETE FROM empty_t WHERE a > 1"):
            assert not len(analyze_sql(text, db)), text
        expect(db, "DELETE FROM empty_t WHERE nope = 1", "E-UNKNOWN-COLUMN")

    def test_a_refused_name_keeps_no_caller_alive(self, db):
        """An unknown name's error leaves no exception behind whose
        traceback holds its callers' frames (a session's run, say) until
        the cycle collector runs."""
        class Marker:
            pass

        def caller():
            marker = Marker()
            analyze_sql("SELECT nope FROM lab WHERE zz = 1", db)
            return weakref.ref(marker)
        gc.disable()
        try:
            assert caller()() is None
        finally:
            gc.enable()

    def test_delete_unknown_table(self, db):
        expect(db, "DELETE FROM missing_table", "E-UNKNOWN-TABLE")

    def test_create_table_duplicate_column(self, db):
        expect(db, "CREATE TABLE t (a INTEGER, a TEXT)",
               "E-DUPLICATE-ALIAS")

    def test_create_index_unknown_column(self, db):
        expect(db, "CREATE INDEX i ON lab (nope)", "E-UNKNOWN-COLUMN")

    def test_script_reports_per_statement(self, db):
        reports = analyze_script(
            "SELECT name FROM landfill LIMIT 1; SELECT nope FROM lab",
            db)
        assert len(reports) == 2
        assert not reports[0].has_errors
        assert "E-UNKNOWN-COLUMN" in codes_of(reports[1])


# ---------------------------------------------------------------------------
# open scopes: no catalog, no false positives


class TestOpenScopes:
    def test_no_catalog_suppresses_name_errors(self):
        report = analyze_sql(
            "SELECT whatever FROM anything WHERE x = 1", None)
        assert not report.has_errors

    def test_unknown_table_suppresses_column_errors(self, db):
        report = analyze_sql(
            "SELECT mystery_col FROM missing_table", db)
        assert codes_of(report) & {"E-UNKNOWN-TABLE"}
        assert "E-UNKNOWN-COLUMN" not in codes_of(report)

    def test_parameters_are_family_neutral(self, db):
        session = repro.connect(db)
        prepared = session.prepare(
            "SELECT name FROM landfill WHERE opened_year > ? LIMIT 5")
        codes = set(prepared.diagnostics.codes())
        assert "W-TYPE-MISMATCH" not in codes
        assert "W-CONST-PREDICATE" not in codes
        assert prepared.execute([1990]).rows == [("lf0000",)]


# ---------------------------------------------------------------------------
# options


class TestOptions:
    def test_disabled_returns_empty(self, db):
        report = analyze_sql(
            "SELECT nope FROM landfill",
            db, options=AnalysisOptions(enabled=False))
        assert not len(report)

    def test_disabled_codes_are_filtered(self, db):
        report = analyze_sql(
            "SELECT * FROM landfill",
            db, options=AnalysisOptions(
                disabled_codes=frozenset({"W-SELECT-STAR"})))
        assert "W-SELECT-STAR" not in codes_of(report)
        assert "W-NO-LIMIT-STREAM" in codes_of(report)

    def test_report_serialization(self, db):
        report = analyze_sql("SELECT nope FROM landfill", db)
        payload = report.to_dict()
        assert payload["error_count"] >= 1
        assert payload["diagnostics"][0]["code"] == "E-UNKNOWN-COLUMN"
        assert "E-UNKNOWN-COLUMN" in report.format()

    def test_unregistered_code_rejected(self):
        report = AnalysisReport(statement="x")
        with pytest.raises(KeyError):
            report.add("E-NOT-A-CODE", "nope")


# ---------------------------------------------------------------------------
# session + explain wiring


class TestSessionIntegration:
    def test_prepare_attaches_diagnostics(self, db):
        session = repro.connect(db)
        prepared = session.prepare(
            "SELECT name FROM landfill WHERE name = 42 LIMIT 5")
        assert prepared.diagnostics is not None
        assert "W-CROSS-EQ-FALSE" in prepared.diagnostics.codes()

    def test_strict_raises_on_errors_even_from_plan_cache(self, db):
        session = repro.connect(db)
        sql = "SELECT nope FROM landfill"
        session.prepare(sql)       # lenient: warms the plan cache
        session.options = QueryOptions(
            analysis=AnalysisOptions(strict=True))
        with pytest.raises(AnalysisError) as excinfo:
            session.prepare(sql)
        assert "E-UNKNOWN-COLUMN" in str(excinfo.value)

    def test_strict_allows_warnings(self, db):
        session = repro.connect(
            db, options=QueryOptions(
                analysis=AnalysisOptions(strict=True)))
        prepared = session.prepare("SELECT name FROM landfill")
        assert "W-NO-LIMIT-STREAM" in prepared.diagnostics.codes()
        assert prepared.execute().rows

    def test_explain_has_diagnostics_section(self, db):
        session = repro.connect(db)
        plan = session.explain("SELECT * FROM landfill")
        text = plan.format()
        assert "diagnostics:" in text
        assert "W-SELECT-STAR" in text

    def test_clean_query_has_clean_explain(self, db):
        session = repro.connect(db)
        plan = session.explain(
            "SELECT name FROM landfill ORDER BY name LIMIT 5")
        assert "diagnostics:" not in plan.format()

    def test_fallback_observable_on_the_result(self, db):
        result = db.execute(
            "SELECT name FROM landfill WHERE LENGTH(name) > 3")
        fallbacks = result.plan.vectorized_fallbacks
        assert fallbacks and "LENGTH(name)" in fallbacks[0][0]
        result = db.execute("SELECT name FROM landfill WHERE area_m2 > 1.0")
        assert result.plan.vectorized_fallbacks == []

    def test_fallback_reason_in_explain_analyze_note(self, db):
        planned = db.explain(
            "SELECT name FROM landfill WHERE LENGTH(name) > 3",
            analyze=True)
        note = " ".join(planned.notes)
        assert "fallback:" in note and "LENGTH(name)" in note


# ---------------------------------------------------------------------------
# SESQL, SPARQL and federated analyzers


class TestOtherFrontEnds:
    def test_enrichment_attribute_not_projected(self, db):
        enriched = SemanticQueryParser().parse(
            "SELECT name FROM landfill "
            "ENRICH SCHEMAEXTENSION(city, inCountry)")
        report = analyze_enriched(enriched, db)
        assert "W-ENRICH-ATTR" in codes_of(report)

    def test_enrichment_attribute_projected_is_clean(self, db):
        enriched = SemanticQueryParser().parse(
            "SELECT name, city FROM landfill "
            "ENRICH SCHEMAEXTENSION(city, inCountry)")
        report = analyze_enriched(enriched, db)
        assert "W-ENRICH-ATTR" not in codes_of(report)

    def test_sparql_unbound_projection(self):
        report = analyze_sparql(
            "SELECT ?x WHERE { ?s ?p ?o }")
        assert "W-SPARQL-UNBOUND" in codes_of(report)

    def test_sparql_bound_projection_is_clean(self):
        report = analyze_sparql(
            "SELECT ?s WHERE { ?s ?p ?o }")
        assert not len(report)
        assert not len(analyze_sparql("SELECT * WHERE { ?s ?p ?o }"))

    def test_sparql_syntax_error(self):
        report = analyze_sparql("SELECT WHERE {{{")
        assert "E-SYNTAX" in codes_of(report)
        assert "E-SYNTAX" in codes_of(analyze_sparql("ASK { ?s ?p ?o }"))

    @pytest.fixture()
    def mediator(self):
        italy = Database("italy")
        italy.execute_script(
            "CREATE TABLE landfill (name TEXT, city TEXT, size REAL)")
        france = Database("france")
        france.execute_script(
            "CREATE TABLE landfill (name TEXT, city TEXT, size REAL)")
        mediator = Mediator()
        mediator.register_source("italy", italy)
        mediator.register_source("france", france)
        mediator.define_view("eu", [
            ("italy", "SELECT name, city, size FROM landfill"),
            ("france", "SELECT name, city, size FROM landfill")])
        mediator.define_view("eu_first", [
            ("italy", "SELECT name, city, size FROM landfill"),
            ("france", "SELECT name, city, size FROM landfill")],
            reconciliation="prefer_first", key_columns=["name"])
        return mediator

    def test_unpushable_filter_flagged(self, mediator):
        report = analyze_federated(
            "SELECT name FROM eu_first WHERE size > 10", mediator)
        assert "W-FED-UNPUSHABLE" in codes_of(report)

    def test_pushable_filter_not_flagged(self, mediator):
        report = analyze_federated(
            "SELECT name FROM eu WHERE size > 10", mediator)
        assert "W-FED-UNPUSHABLE" not in codes_of(report)

    def test_federated_names_resolve_to_the_views_columns(self, mediator):
        clean = analyze_federated(
            "SELECT name, size FROM eu WHERE city = 'Turin' LIMIT 5",
            mediator)
        assert not clean.has_errors, clean.codes()
        assert "E-UNKNOWN-COLUMN" in codes_of(
            analyze_federated("SELECT nope FROM eu", mediator))
        assert "E-UNKNOWN-TABLE" in codes_of(
            analyze_federated("SELECT name FROM nowhere", mediator))

    def test_a_strict_session_runs_over_a_mediated_databank(self, mediator):
        session = repro.connect(mediator.as_databank(), options=QueryOptions(
            analysis=AnalysisOptions(strict=True)))
        prepared = session.prepare(
            "SELECT name, city FROM eu WHERE size > ? ORDER BY name")
        assert not prepared.diagnostics.has_errors
        assert prepared.execute([1.0]).rows == []
        with pytest.raises(AnalysisError) as excinfo:
            session.prepare("SELECT nope FROM eu")
        assert "E-UNKNOWN-COLUMN" in str(excinfo.value)
        with pytest.raises(AnalysisError) as excinfo:
            session.prepare("SELECT name FROM nowhere")
        assert "E-UNKNOWN-TABLE" in str(excinfo.value)

    def test_a_cached_report_is_analysed_once_until_names_move(
            self, mediator, monkeypatch):
        import repro.api.session as session_module
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].sql_text)
            return analyze_enriched(*args, **kwargs)
        monkeypatch.setattr(session_module, "analyze_enriched", counted)
        bank = mediator.as_databank()
        session = repro.connect(bank)
        for _run in range(5):
            session.execute("SELECT name FROM eu WHERE size > ?", [1.0])
        broken = "SELECT name FROM eu JOIN local_notes ON note = name"
        for _run in range(5):
            assert session.prepare(broken).diagnostics.has_errors
        assert len(calls) == 2
        # DDL at the databank, or a view defined, moves what a report
        # resolved names in, so it is judged again.
        bank.execute("CREATE TABLE local_notes (note TEXT)")
        assert not session.prepare(broken).diagnostics.has_errors
        assert len(calls) == 3
        unknown = "SELECT name FROM later"
        for _run in range(3):
            assert session.prepare(unknown).diagnostics.has_errors
        assert len(calls) == 4
        mediator.define_view("later", [
            ("italy", "SELECT name, city, size FROM landfill")])
        assert not session.prepare(unknown).diagnostics.has_errors
        session.prepare(unknown)
        assert len(calls) == 5      # a clean report is kept


# ---------------------------------------------------------------------------
# REST endpoint


class TestRestAnalyze:
    @pytest.fixture()
    def service(self, db):
        from repro.crosse import CrossePlatform
        from repro.federation import CrosseRestService
        platform = CrossePlatform(db)
        platform.register_user("amy")
        return CrosseRestService(platform)

    def test_analyze_endpoint_reports(self, service):
        response = service.request(
            "POST", "/api/v1/analyze",
            {"username": "amy",
             "query": "SELECT nope FROM landfill"})
        assert response.status == 200
        codes = [d["code"] for d in
                 response.payload["report"]["diagnostics"]]
        assert "E-UNKNOWN-COLUMN" in codes

    def test_analyze_endpoint_syntax_error(self, service):
        response = service.request(
            "POST", "/api/v1/analyze",
            {"username": "amy", "query": "SELEC nope FORM x"})
        assert response.status == 200
        codes = [d["code"] for d in
                 response.payload["report"]["diagnostics"]]
        assert codes == ["E-SYNTAX"]


# ---------------------------------------------------------------------------
# the lint CLI


class TestCli:
    def test_split_statements_respects_quotes_and_comments(self):
        parts = split_statements(
            "SELECT 'a;b' FROM t; -- trailing; comment\n"
            "SELECT 2;\n-- only a comment\n")
        assert len(parts) == 2
        assert parts[0].startswith("SELECT 'a;b'")
        assert split_statements(
            'SELECT /* one; statement */ "a;b" FROM t;\n/* only; a comment */'
        ) == ['SELECT /* one; statement */ "a;b" FROM t']

    def test_cli_reports_and_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.sql"
        clean.write_text("SELECT name FROM landfill LIMIT 5;\n")
        bad = tmp_path / "bad.sql"
        bad.write_text("SELECT nope FROM landfill;\n")
        assert cli_main(["--smartground", str(clean)]) == 0
        assert cli_main(["--smartground", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "E-UNKNOWN-COLUMN" in out

    def test_cli_sesql_statements(self, tmp_path):
        pack = tmp_path / "q.sesql"
        pack.write_text(
            "SELECT name, city FROM landfill "
            "ENRICH SCHEMAREPLACEMENT(city, inCountry);\n")
        assert cli_main(["--smartground", str(pack)]) == 0

    @pytest.mark.parametrize("statement", [
        "SELECT name FROM landfill WHERE opened_year >= ? LIMIT 5",
        "SELECT landfill_name FROM elem_contained "
        "WHERE ${elem_name = ? : c1} AND amount > ? LIMIT ? "
        "ENRICH REPLACEVARIABLE(c1, elem_name, dangerLevel)",
        "SELECT name FROM landfill WHERE UPPER(name) = ? LIMIT 5",
    ])
    def test_cli_and_prepare_agree_on_parameters(self, statement):
        cli = analyze_text(statement, create_schema())
        assert "E-SYNTAX" not in cli.codes()
        prepared = repro.connect(create_schema()).prepare(statement)
        assert cli.codes() == prepared.diagnostics.codes()
        assert cli.statement.count("?") == prepared.parameter_count

    def test_cli_json_output(self, tmp_path, capsys):
        pack = tmp_path / "q.sql"
        pack.write_text("SELECT * FROM landfill;\n")
        cli_main(["--smartground", "--json", str(pack)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["codes"].get("W-SELECT-STAR") == 1

    def test_baseline_ratchet(self, tmp_path, capsys):
        pack = tmp_path / "q.sql"
        pack.write_text("SELECT * FROM landfill LIMIT 5;\n")
        baseline = tmp_path / "baseline.json"
        assert cli_main(["--smartground", str(pack),
                         "--write-baseline", str(baseline)]) == 0
        assert cli_main(["--smartground", str(pack),
                         "--baseline", str(baseline)]) == 0
        pack.write_text("SELECT * FROM landfill LIMIT 5;\n"
                        "SELECT * FROM lab LIMIT 5;\n")
        assert cli_main(["--smartground", str(pack),
                         "--baseline", str(baseline)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_repo_example_pack_matches_baseline(self, capsys):
        root = Path(__file__).resolve().parent.parent
        assert cli_main(
            ["--smartground", str(root / "examples/queries.sesql"),
             "--baseline",
             str(root / "tools/analysis_baseline.json")]) == 0


# ---------------------------------------------------------------------------
# architecture linter


class TestArchlint:
    def test_real_tree_is_clean(self):
        violations = check_tree(SRC_REPRO)
        assert violations == [], \
            "\n".join(v.format() for v in violations)

    def seed(self, tmp_path, relative, source):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return tmp_path

    def test_layering_violation_detected(self, tmp_path):
        root = self.seed(
            tmp_path, "relational/bad.py",
            "from ..cluster.coordinator import ClusterCoordinator\n")
        violations = check_tree(root)
        assert [v.rule for v in violations] == ["layering"]
        assert violations[0].file == "relational/bad.py"
        assert violations[0].line == 1

    def test_lazy_import_of_allowed_backedge_passes(self, tmp_path):
        root = self.seed(
            tmp_path, "api/bad.py",
            "def _connect():\n"
            "    from ..cluster.coordinator import C\n"
            "    return C\n")
        assert check_tree(root) == []

    def test_module_level_backedge_fails(self, tmp_path):
        root = self.seed(
            tmp_path, "api/bad.py",
            "from ..cluster.coordinator import ClusterCoordinator\n")
        assert "layering" in {v.rule for v in check_tree(root)}

    def test_hook_rule(self, tmp_path):
        root = self.seed(
            tmp_path, "core/bad.py",
            "from ..telemetry import create_telemetry\n")
        assert "hooks" in {v.rule for v in check_tree(root)}

    def test_lock_rule(self, tmp_path):
        root = self.seed(
            tmp_path, "core/bad.py",
            "def f(table):\n    table.insert_row({})\n")
        violations = [v for v in check_tree(root)
                      if v.rule == "choke-points"]
        assert violations and violations[0].line == 2

    def test_lock_rule_allows_choke_points(self, tmp_path):
        root = self.seed(
            tmp_path, "relational/engine.py",
            "def f(table):\n    table.insert_row({})\n")
        assert [v for v in check_tree(root)
                if v.rule == "choke-points"] == []

    @pytest.mark.parametrize("relative, call", [
        ("api/bad.py", "engine.apply_where_rewrites(q, plan, rewriter)"),
        ("api/bad.py", "engine.extraction_for(enrichment, kb, run)"),
        ("crosse/bad.py", "engine.combine_enrichments(base, [], 's', [])"),
        ("federation/databank.py", "self.session._ship_parsed(plan, r, p)"),
        ("federation/databank.py", "executor.ship(jobs)"),
        ("federation/mediator.py", "table.append_rows(rows)"),
        ("core/tempdb.py", "table._append_columns(given, kinds, 3)"),
        ("planner/bad.py", "resolve_column(ref, scopes)"),
        ("analysis/bad.py", "compiler.resolve_column(ref, scopes)"),
        ("relational/executor.py", "resolve_column(ref, scopes)"),
        ("relational/compiler.py", "resolve_column(ref, scopes)"),
        ("analysis/typecheck.py", "lookup_function(node.name, 1)"),
    ])
    def test_pipeline_copy_outside_its_choke_point_fails(
            self, tmp_path, relative, call):
        root = self.seed(tmp_path, relative, f"def f(*a):\n    {call}\n")
        assert [v.line for v in check_tree(root)
                if v.rule == "choke-points"] == [2]

    def test_dead_public_rule(self, tmp_path):
        root = self.seed(
            tmp_path, "pkg/core/api.py",
            "def used():\n    return 1\n\n\n"
            "def orphan():\n    return used()\n\n\n"
            "def _private():\n    return 2\n\n\n"
            "class Thing:\n"
            "    def method(self):\n        return 3\n\n"
            "    def called(self):\n        return 4\n\n"
            "    def tested(self):\n        return 5\n") / "pkg"
        self.seed(tmp_path, "pkg/core/user.py",
                  "from .api import Thing\nThing().called()\n")
        self.seed(tmp_path, "tests/test_api.py", "x.tested()\n")
        # Mentions that are not uses: a docstring, a comment, the own
        # package's re-export and __all__.  Another package's import is.
        self.seed(tmp_path, "pkg/core/named.py",
                  "def documented():\n    return 1\n\n\n"
                  "def exported():\n    return 2\n\n\n"
                  "def imported():\n    return 3\n")
        self.seed(tmp_path, "pkg/core/__init__.py",
                  '"""See documented()."""\n'
                  "from .named import exported  # and documented\n"
                  '__all__ = ["exported"]\n')
        self.seed(tmp_path, "pkg/api/__init__.py",
                  "from ..core.named import imported\n")
        config = {**load_config(), "reference-roots": ["../tests"]}
        dead = [(v.file, v.line, v.message.split("'")[1])
                for v in check_tree(root, config)
                if v.rule == "dead-public"]
        assert dead == [("core/api.py", 5, "orphan"),
                        ("core/api.py", 14, "Thing.method"),
                        ("core/named.py", 1, "documented"),
                        ("core/named.py", 5, "exported")]

    def test_cycle_detection(self, tmp_path):
        config = {**load_config(), "layers": {
            **DEFAULT_CONFIG["layers"],
            "relational": ["rwlock", "core"]}}
        root = self.seed(
            tmp_path, "relational/bad.py",
            "from ..core.engine import SESQLEngine\n")
        self.seed(tmp_path, "core/ok.py",
                  "from ..relational.engine import Database\n")
        rules = {v.rule for v in check_tree(root, config)}
        assert "layering-cycle" in rules

    def test_pyproject_override_merges(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro.archlint]\n"
            "[tool.repro.archlint.choke-points]\n"
            'insert_row = ["core/sqm.py"]\n'
            "[tool.repro.archlint.layers]\n"
            'relational = ["rwlock", "telemetry"]\n')
        config = load_config(pyproject)
        assert config["choke-points"]["insert_row"] == ["core/sqm.py"]
        assert config["choke-points"]["update_row"] \
            == DEFAULT_CONFIG["choke-points"]["update_row"]
        assert config["layers"]["relational"] == ["rwlock", "telemetry"]
        assert config["layers"]["core"] == DEFAULT_CONFIG["layers"]["core"]

    def test_main_on_real_tree(self, capsys):
        assert archlint_main([str(SRC_REPRO)]) == 0
        assert "0 violation(s)" in capsys.readouterr().out
