"""Shared fixtures: a small SmartGround-shaped database used across tests."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.relational import Database, ast, batch, executor, vectors


def pytest_addoption(parser):
    parser.addoption(
        "--batch-size", type=int, default=None, metavar="N",
        help="run the session with repro.relational.batch.BATCH_SIZE = N, "
             "so multi-batch builds, split join output and pending "
             "columns show up on small tables")


def pytest_configure(config):
    size = config.getoption("--batch-size")
    if size is not None:
        batch.BATCH_SIZE = size


@contextmanager
def _generic_kernels():
    saved = (vectors.compile_filter_kernel, executor.select_gather,
             executor.select_folds, executor.select_join_keys,
             executor.select_sort_keys, executor.select_semi_joins)
    vectors.compile_filter_kernel = lambda expr, resolve, values=None: None
    executor.select_gather = lambda exprs, *scope: [None] * len(exprs)
    executor.select_folds = lambda group_exprs, calls, *scope: (
        None, [None] * len(calls))
    executor.select_join_keys = lambda pairs, *sides: None
    executor.select_sort_keys = lambda exprs, *scope: None
    executor.select_semi_joins = lambda conjuncts, *build: (
        [None] * len(conjuncts))
    try:
        yield
    finally:
        (vectors.compile_filter_kernel, executor.select_gather,
         executor.select_folds, executor.select_join_keys,
         executor.select_sort_keys, executor.select_semi_joins) = saved


@pytest.fixture(scope="session")
def generic_kernels():
    """The row-semantics reference, as a test seam: ``with
    generic_kernels():`` makes the six kernel selectors decline, so
    every filter, projection, aggregate, hash join and sort built
    inside the block evaluates its compiled expressions row by row
    (joins key every key through ``sql_key``, sorts compare through
    ``compare_values``, ``IN (subquery)`` / ``EXISTS`` conjuncts stay
    on the filter's compiled closure).  The equivalence
    suites and E17 compare the default engine against it.  (Session
    scoped because hypothesis tests switch it per example.)"""
    return _generic_kernels


def _forced_joins(query: ast.SelectQuery, strategy: str
                  ) -> ast.SelectQuery:
    for node in ast.iter_query_nodes(query):
        if isinstance(node, ast.Join):
            node.hint = ast.PlanHint(strategy=strategy)
    return query


@pytest.fixture(scope="session")
def forced_joins():
    """``forced_joins(query, strategy)``: the parsed *query* with every
    join in it hinted *strategy* (``"hash-join"`` or ``"index-join"``).
    The executor runs the strategy a join's hint names, so over a
    database with the planner off, or in a tree ``build_select`` builds,
    this is how a test forces one; an ``index-join`` runs where the
    inner side is a table's scan with a plain equi column, and
    hash-joins elsewhere."""
    return _forced_joins


@pytest.fixture
def db() -> Database:
    """Empty database."""
    return Database()


@pytest.fixture
def landfill_db() -> Database:
    """The Fig. 3 fragment in miniature: landfills and contained elements."""
    database = Database()
    database.execute_script("""
        CREATE TABLE landfill (
            id INTEGER PRIMARY KEY,
            name TEXT NOT NULL UNIQUE,
            city TEXT,
            area REAL
        );
        CREATE TABLE elem_contained (
            landfill_name TEXT NOT NULL,
            elem_name TEXT NOT NULL,
            amount REAL
        );
        INSERT INTO landfill VALUES
            (1, 'a', 'Torino', 120.5),
            (2, 'b', 'Lyon', 80.0),
            (3, 'c', 'Torino', 45.25),
            (4, 'd', NULL, NULL);
        INSERT INTO elem_contained VALUES
            ('a', 'Mercury', 12.0),
            ('a', 'Asbestos', 3.5),
            ('a', 'Iron', 140.0),
            ('b', 'Mercury', 7.25),
            ('b', 'Copper', 55.0),
            ('c', 'Lead', 9.0),
            ('c', 'Iron', 220.0);
    """)
    return database
