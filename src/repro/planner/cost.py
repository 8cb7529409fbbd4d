"""A simple cost model over the executor's physical operators.

Costs are abstract "row visits" — good enough to rank join orders and
pick a physical join strategy.  A hash join builds one dict of its right
input's keys (in C when they are unique, else listing each key's rows
as a lookup does) and maps a left batch's keys through it; an index
join pays per outer row a probe of the inner column's lookup and a fetch
of what it finds, once that lookup is built; a nested loop pays the
cross product.
"""

from __future__ import annotations

from dataclasses import dataclass

SCAN_COST_PER_ROW = 1.0
#: Columnar tables scan batch-at-a-time: the measured per-row cost of a
#: vectorized scan is a fraction of the row-at-a-time generator walk.
VECTORIZED_SCAN_FACTOR = 0.3
#: The join constants below are what ``benchmarks/measure_join_costs.py``
#: measures (INTEGER keys, 10k -> 20k rows, the median of five estimates
#: a run), in units fixed by the scan: one materialised row of a
#: columnar scan is 0.3.  A join reads column batches and emits index
#: vectors, so where a slope grows a scanned input, the column scan
#: (0.03) is subtracted.  ``--check`` fails when a gated constant is off
#: its slope by more than 2x, as CI runs it.  Over ten runs on one box:
#: hash build 0.17-0.23, the same with each key held twice 0.67-0.93
#: (priced as the build plus a lookup's, 0.60), hash probe 0.18-0.21;
#: index lookup 1.2-1.9, index fetch 0.8-1.3 per outer row that finds
#: rows (further rows of its key add about 0.15; not priced), lookup
#: build 0.12-0.15 a row plus 0.26-0.49 a distinct key; output and the
#: semi join's build and probe -0.06-0.11 (noise around 0: a COUNT(*)
#: gathers no output column), printed, not checked; the output
#: constant stays 0.2, for the columns a real query's output gathers.
HASH_BUILD_PER_ROW = 0.25
HASH_PROBE_PER_ROW = 0.25
INDEX_PROBE_PER_LOOKUP = 1.6
INDEX_FETCH_PER_HIT = 1.1
LOOKUP_BUILD_PER_ROW = 0.15
LOOKUP_BUILD_PER_KEY = 0.4
NESTED_LOOP_PER_PAIR = 0.9
OUTPUT_COST_PER_ROW = 0.2


@dataclass(frozen=True)
class JoinChoice:
    """One costed physical alternative for a join step."""

    strategy: str          # operator kind: hash-join|index-join|nested-loop
    cost: float


@dataclass(frozen=True)
class Inner:
    """The inner (right) side of a join step: the *rows* read for
    *scan_cost* where a hash join or loop reads them, the distinct
    *keys* among them of the first equi column (``None``: no equi
    conjunct), and the ``(rows, keys)`` that column's *lookup* must be
    built of before an index join probes it — ``(0, 0)`` built, ``None``
    when it cannot be probed."""

    rows: float
    scan_cost: float
    keys: float | None
    lookup: tuple[float, float] | None = None


class CostModel:
    """Rank scan and join alternatives by estimated row visits.
    :meth:`choose_join` is the one join decision: the planner asks it for
    every join, reordered or kept as written, and the executor runs the
    strategy it names (a join with no hint hash-joins)."""

    def scan_cost(self, rows: float, vectorized: bool = False) -> float:
        return rows * SCAN_COST_PER_ROW * (
            VECTORIZED_SCAN_FACTOR if vectorized else 1.0)

    def choose_join(self, left_rows: float, inner: Inner,
                    out_rows: float) -> JoinChoice:
        """The cheapest strategy the executor can run for *left_rows*
        outer rows joined to *inner* into *out_rows* rows."""
        output = out_rows * OUTPUT_COST_PER_ROW
        if inner.keys is None:
            return JoinChoice("nested-loop", inner.scan_cost + output
                              + left_rows * inner.rows * NESTED_LOOP_PER_PAIR)
        build = inner.rows * HASH_BUILD_PER_ROW
        if inner.keys <= inner.rows - 1:
            # The one dict of unique keys fails: the rows are listed.
            build += _listing(inner.rows, inner.keys)
        choices = [JoinChoice("hash-join", inner.scan_cost + build + output
                              + left_rows * HASH_PROBE_PER_ROW)]
        if inner.lookup is not None:
            # The inner side is never scanned or hashed: each outer row
            # pays a probe of its column's lookup, and each that finds
            # rows their fetch, once the lookup is built.
            choices.append(JoinChoice("index-join", _listing(*inner.lookup)
                                      + left_rows * INDEX_PROBE_PER_LOOKUP
                                      + min(left_rows, out_rows)
                                      * INDEX_FETCH_PER_HIT + output))
        return min(choices, key=lambda choice: choice.cost)


def _listing(rows: float, keys: float) -> float:
    """Of listing *rows* under their *keys* distinct keys, each key's rows
    in a list: an index join's lookup, or a hash build whose keys
    repeat."""
    return rows * LOOKUP_BUILD_PER_ROW + keys * LOOKUP_BUILD_PER_KEY
