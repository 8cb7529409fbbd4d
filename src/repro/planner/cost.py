"""A simple cost model over the executor's physical operators.

Costs are abstract "row visits" — good enough to rank join orders and
pick a physical join strategy.  Constants reflect the Python executor:
a hash join builds a dict over whole key columns and probes it a batch
at a time, so a probe row costs a fraction of a build row; a per-row
index lookup costs far more than either (the HashIndex normalises the
key, copies its bucket and fetches rows by id), and nested loops pay
the full cross product.
"""

from __future__ import annotations

from dataclasses import dataclass

SCAN_COST_PER_ROW = 1.0
#: Columnar tables scan batch-at-a-time: the measured per-row cost of a
#: vectorized scan is a fraction of the row-at-a-time generator walk.
VECTORIZED_SCAN_FACTOR = 0.3
#: The four join constants below were re-measured against the batch
#: hash join with ``benchmarks/measure_join_costs.py`` (INTEGER keys,
#: 10k -> 20k rows, five runs), in units fixed by the scan: one
#: materialised row of a columnar scan (59-62 ns) is 0.3.  Measured:
#: build 1.32-1.53 (273-303 ns/row), probe 0.21-0.34 (42-68 ns; was
#: ~930 ns row-at-a-time), index lookup 8.6-9.3 (1.7-1.9 us, unchanged
#: in ns), output -0.1-0.6 (a difference of three slopes: noise around
#: 0.2).  A constant moved only where it was off by more than 2x: the
#: probe (1.0 -> 0.25) and the index lookup (3.0 -> 9.0).
#: (The script also prints a semi join's build and probe; no rule costs
#: that node yet, so it has no constant.)
HASH_BUILD_PER_ROW = 1.6
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
        # one index lookup plus the matches it yields.
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
