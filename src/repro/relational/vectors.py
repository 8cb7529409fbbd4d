"""Typed column vectors and vectorized predicate kernels.

This module is the storage half and the expression half of the columnar
execution path:

* :class:`ColumnVector` holds one table column — a plain Python list of
  values (``None`` marks NULL) plus a byte-per-slot null bitmap.  The
  declared type still matters even though values stay boxed: ``Table``
  coerces on insert, so every non-NULL entry of a column belongs to a
  single type family (``int`` for INTEGER, ``float`` for REAL, ``str``
  for TEXT, ``bool`` for BOOLEAN).  That homogeneity is what lets the
  kernels below use raw ``<`` / ``==`` in list comprehensions instead of
  the per-value dispatch of :func:`repro.relational.types.compare_values`.
  (A typed ``array('q'/'d')`` representation was measured and rejected:
  scans re-box every element on the way out, which made full-table reads
  *slower* than a plain list while only helping workloads we don't have.)

* :func:`compile_filter_kernel` turns a simple WHERE conjunct —
  comparisons, AND/OR/NOT, IS [NOT] NULL, BETWEEN, IN (literal list),
  LIKE — over column refs and constants into a *kernel*: a function from
  the full column lists of a batch to a boolean selection mask.  Masks
  use **strict-true** semantics: a slot is ``True`` only when the
  predicate is definitely TRUE under SQL three-valued logic, which is
  exactly the set of rows WHERE keeps.  Strict-true masks compose under
  AND/OR with plain ``and`` / ``or``; NOT is handled by pushing the
  negation into the tree De-Morgan-style (flipping comparison operators
  and the ``negated`` flags) before compiling, which keeps every leaf
  3VL-exact.  Anything the compiler does not understand returns ``None``
  and the filter operator keeps that conjunct on the generic compiled
  predicate — a hybrid plan, not an error.  A ``?`` slot stands where a
  literal would: a :class:`SlotKernel` picks the conjunct's kernel once
  per run of a prepared statement's tree, from the values bound, through
  the same compiler a literal goes through.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import is_
from typing import Any, Callable, NamedTuple, Sequence

from . import ast
from .bind import Binding
from .compiler import like_match
from .render import as_slot, render_expr
from .types import FAMILY, DataType, literal_family

#: A kernel maps the batch's column lists to a strict-true boolean mask.
Kernel = Callable[[list], list]

#: Per ColumnRef of a conjunct (by id), its ``(position, DataType)`` when
#: it is a plain column of the scanned rows of known type; any other
#: (an outer one, an untyped column: absent or ``None``) sends the
#: conjunct to the row path.
Columns = dict[int, tuple]


class ColumnVector:
    """One column of a table: boxed values plus a null bitmap.

    ``values[i]`` is the value at slot *i* (``None`` for NULL);
    ``nulls[i]`` mirrors it as ``1``/``0`` so batch consumers that only
    need null-ness can avoid touching the values at all.  Slots are
    append-only between compactions; deletes are tracked by the owning
    ``Table``'s deleted bitmap and erased here via :meth:`rebuild`.
    """

    __slots__ = ("data_type", "values", "nulls", "null_count")

    def __init__(self, data_type: DataType) -> None:
        self.data_type = data_type
        self.values: list = []
        self.nulls = bytearray()
        self.null_count = 0

    def __len__(self) -> int:
        return len(self.values)

    def extend(self, values: Sequence) -> None:
        """Append a run of (already coerced) values at once."""
        self.values.extend(values)
        nulls = values.count(None)
        self.nulls.extend(map(is_, values, repeat(None)) if nulls
                          else bytes(len(values)))
        self.null_count += nulls

    def set(self, slot: int, value: Any) -> None:
        """Overwrite one slot (UPDATE), keeping the bitmap consistent."""
        was_null = self.nulls[slot]
        now_null = 1 if value is None else 0
        if was_null != now_null:
            self.nulls[slot] = now_null
            self.null_count += now_null - was_null
        self.values[slot] = value

    def rebuild(self, keep: list) -> None:
        """Compact to the slots where *keep* is truthy (liveness mask)."""
        self.values = list(compress(self.values, keep))
        self.nulls = bytearray(compress(self.nulls, keep))
        self.null_count = self.nulls.count(1)

    def clear(self) -> None:
        self.values = []
        self.nulls = bytearray()
        self.null_count = 0


# ---------------------------------------------------------------------------
# Predicate kernels
# ---------------------------------------------------------------------------

_FLIP = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_SWAP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_COMPARISONS = frozenset(_FLIP)


def _negated(expr: ast.Expr, values=None) -> ast.Expr | None:
    """Push one NOT into *expr*, or ``None`` when that isn't exact."""
    if isinstance(expr, ast.UnaryOp) and expr.op.upper() == "NOT":
        return expr.operand
    if isinstance(expr, ast.BinaryOp):
        op = expr.op.upper()
        if expr.op in _FLIP:
            return ast.BinaryOp(_FLIP[expr.op], expr.left, expr.right)
        if op in ("AND", "OR"):
            left = _negated(expr.left, values)
            right = _negated(expr.right, values)
            if left is None or right is None:
                return None
            other = "OR" if op == "AND" else "AND"
            return ast.BinaryOp(other, left, right)
        return None
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(expr.operand, not expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(expr.operand, expr.low, expr.high,
                           not expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(expr.operand, expr.items, not expr.negated)
    if isinstance(expr, ast.Like):
        return ast.Like(expr.operand, expr.pattern, not expr.negated)
    known, value = _constant(expr, values)
    if known:
        if value is True:
            return ast.Literal(False)
        if value is False:
            return ast.Literal(True)
        if value is None:
            return ast.Literal(None)
        return None  # non-boolean literal: the row path raises; fall back
    return None


def _constant(expr: ast.Expr, values) -> tuple[bool, Any]:
    """``(True, value)`` when *expr* is a constant: a literal, or a
    ``?`` that *values* binds; else ``(False, None)``."""
    if isinstance(expr, ast.Literal):
        return True, expr.value
    if values is not None and isinstance(expr, ast.Param):
        return True, values[expr.index]
    return False, None


def _resolved(expr: ast.Expr, columns: Columns) -> tuple | None:
    if isinstance(expr, ast.ColumnRef):
        return columns.get(id(expr))
    return None


def _all_false(position: int) -> Kernel:
    return lambda cols: [False] * len(cols[position])


def _col_lit_kernel(op: str, ref: tuple, literal: Any) -> Kernel | None:
    position, data_type = ref
    family = FAMILY[data_type]
    value_family = literal_family(literal)
    if value_family is None:
        return None
    if value_family == "null":
        # comparison with NULL is never definitely true
        return _all_false(position)
    if value_family != family:
        # values_equal across type families is plain False
        if op == "=":
            return _all_false(position)
        if op == "<>":
            return lambda cols: [v is not None for v in cols[position]]
        return None  # ordered cross-family comparison raises on the row path
    p, lit = position, literal
    if op == "=":
        return lambda cols: [v is not None and v == lit for v in cols[p]]
    if op == "<>":
        return lambda cols: [v is not None and v != lit for v in cols[p]]
    if op == "<":
        return lambda cols: [v is not None and v < lit for v in cols[p]]
    if op == ">":
        return lambda cols: [v is not None and v > lit for v in cols[p]]
    if op == "<=":
        return lambda cols: [v is not None and v <= lit for v in cols[p]]
    if op == ">=":
        return lambda cols: [v is not None and v >= lit for v in cols[p]]
    return None


def _col_col_kernel(op: str, left: tuple, right: tuple) -> Kernel | None:
    p1, t1 = left
    p2, t2 = right
    if FAMILY[t1] != FAMILY[t2]:
        if op == "=":
            return _all_false(p1)
        if op == "<>":
            return lambda cols: [a is not None and b is not None
                                 for a, b in zip(cols[p1], cols[p2])]
        return None
    if op == "=":
        return lambda cols: [a is not None and b is not None and a == b
                             for a, b in zip(cols[p1], cols[p2])]
    if op == "<>":
        return lambda cols: [a is not None and b is not None and a != b
                             for a, b in zip(cols[p1], cols[p2])]
    if op == "<":
        return lambda cols: [a is not None and b is not None and a < b
                             for a, b in zip(cols[p1], cols[p2])]
    if op == ">":
        return lambda cols: [a is not None and b is not None and a > b
                             for a, b in zip(cols[p1], cols[p2])]
    if op == "<=":
        return lambda cols: [a is not None and b is not None and a <= b
                             for a, b in zip(cols[p1], cols[p2])]
    if op == ">=":
        return lambda cols: [a is not None and b is not None and a >= b
                             for a, b in zip(cols[p1], cols[p2])]
    return None


def _comparison_kernel(expr: ast.BinaryOp, columns: Columns,
                       values) -> Kernel | None:
    left_ref = _resolved(expr.left, columns)
    right_ref = _resolved(expr.right, columns)
    if left_ref is not None and right_ref is not None:
        return _col_col_kernel(expr.op, left_ref, right_ref)
    if left_ref is not None:
        known, value = _constant(expr.right, values)
        if known:
            return _col_lit_kernel(expr.op, left_ref, value)
    if right_ref is not None:
        known, value = _constant(expr.left, values)
        if known:
            return _col_lit_kernel(_SWAP[expr.op], right_ref, value)
    return None


def _in_list_kernel(expr: ast.InList, columns: Columns,
                    values) -> Kernel | None:
    ref = _resolved(expr.operand, columns)
    if ref is None:
        return None
    position, data_type = ref
    family = FAMILY[data_type]
    candidates = set()
    for item in expr.items:
        known, value = _constant(item, values)
        if not known:
            return None
        item_family = literal_family(value)
        if item_family is None:
            return None
        if item_family == "null":
            if expr.negated:
                # NOT IN with a NULL item is never definitely true
                return _all_false(position)
            continue  # in IN, a NULL item can only contribute UNKNOWN
        if item_family != family:
            # cross-family equality is always False; the item can never
            # match, and skipping it keeps the set family-pure (so the
            # True == 1 hash collision cannot leak bool/int confusion)
            continue
        candidates.add(value)
    p = position
    if expr.negated:
        return lambda cols: [v is not None and v not in candidates
                             for v in cols[p]]
    return lambda cols: [v is not None and v in candidates for v in cols[p]]


def _between_kernel(expr: ast.Between, columns: Columns,
                    values) -> Kernel | None:
    ref = _resolved(expr.operand, columns)
    if ref is None:
        return None
    low_known, low_value = _constant(expr.low, values)
    high_known, high_value = _constant(expr.high, values)
    if not (low_known and high_known):
        return None
    if expr.negated:
        low = _col_lit_kernel("<", ref, low_value)
        high = _col_lit_kernel(">", ref, high_value)
        if low is None or high is None:
            return None
        return lambda cols: [a or b for a, b in zip(low(cols), high(cols))]
    low = _col_lit_kernel(">=", ref, low_value)
    high = _col_lit_kernel("<=", ref, high_value)
    if low is None or high is None:
        return None
    return lambda cols: [a and b for a, b in zip(low(cols), high(cols))]


def _like_kernel(expr: ast.Like, columns: Columns,
                 values) -> Kernel | None:
    ref = _resolved(expr.operand, columns)
    if ref is None:
        return None
    position, data_type = ref
    if data_type is not DataType.TEXT:
        return None  # LIKE on non-text raises on the row path
    known, pattern = _constant(expr.pattern, values)
    if not known:
        return None
    if pattern is None:
        return _all_false(position)
    if not isinstance(pattern, str):
        return None
    p, match = position, like_match
    if expr.negated:
        return lambda cols: [v is not None and match(v, pattern) is False
                             for v in cols[p]]
    return lambda cols: [v is not None and match(v, pattern) is True
                         for v in cols[p]]


def semi_join_conjunct(expr: ast.Expr
                       ) -> tuple[ast.InSubquery | ast.Exists | None, bool]:
    """``(node, negated)`` when the WHERE conjunct *expr* is a ``[NOT]
    IN (subquery)`` / ``[NOT] EXISTS`` — also written ``NOT (x IN ...)``
    / ``NOT EXISTS ...``, which the parser wraps in a NOT: the same
    predicate under three-valued logic — else ``(None, False)``."""
    negated = False
    while isinstance(expr, ast.UnaryOp) and expr.op.upper() == "NOT":
        expr, negated = expr.operand, not negated
    if isinstance(expr, (ast.InSubquery, ast.Exists)):
        return expr, negated != expr.negated
    return None, False


def semi_join_shape(expr: ast.InSubquery | ast.Exists,
                    bound: Binding) -> str | None:
    """Why a ``[NOT] IN (subquery)`` / ``[NOT] EXISTS`` conjunct cannot
    leave the filter for a semi / anti join, judged on its shape alone
    (``None``: it can, names permitting — see :func:`semi_join`).  Any
    ``IN`` subquery will do — it runs once — but an ``EXISTS`` is taken
    apart, so it must be one plain block over one table with an equality
    to hash on, not grouped (as *bound*, the statement's bind, says)."""
    if isinstance(expr, ast.InSubquery):
        return None
    query = expr.query
    core = query.core
    if query.is_compound:
        return "subquery is a set operation"
    if query.limit is not None or query.offset is not None:
        return "subquery has LIMIT"
    if query.order_by:
        return "subquery has ORDER BY"
    if bound.grouped(core):
        return "subquery aggregates"
    if not isinstance(core.from_clause, ast.TableRef):
        return "subquery does not read exactly one table"
    if not any(isinstance(part, ast.BinaryOp) and part.op == "="
               for part in ast.conjuncts(core.where)):
        return "correlated without an equality"
    return None


class SemiJoin(NamedTuple):
    """A WHERE conjunct taken apart for a semi / anti join."""

    node: ast.InSubquery | ast.Exists
    negated: bool
    #: ``(outer, inner)`` key expressions; the inner side of an ``IN``
    #: is its subquery's one output column.
    pairs: list[tuple[ast.Expr, ast.Expr]]
    #: Of an ``EXISTS``: the conjuncts that do not read the row being
    #: filtered — they stay in the subquery, the build side.
    inner_only: list[ast.Expr]
    #: Of an ``EXISTS``: what else reads that row — checked on each
    #: (row, candidate) pair, as an ON residual is.
    mixed: list[ast.Expr]


def semi_join(expr: ast.Expr, bound: Binding) -> SemiJoin | None:
    """The WHERE conjunct *expr* as a semi / anti join, or ``None`` when
    it is to stay in the filter.  The one place that decides: the
    executor's selector builds what this returns (declining only an
    ``IN`` whose subquery reads the row being filtered), the planner
    estimates it and the analyzer reports it — all three over the bind
    *bound* (:meth:`repro.relational.bind.Binding.level`: where a
    reference in the ``EXISTS`` subquery's WHERE resolves, 0 its table,
    1 the row being filtered, 2.. the enclosing queries' rows, ``None``
    nowhere).

    Of an ``EXISTS``, every ``inner = outer`` equality — one side reads
    the subquery's table and nothing else, the other the row being
    filtered and not that table — is a key pair.  Keys are evaluated before the residual, so
    behind a conjunct that may be guarding it (one that reads that row
    and is no key pair) only an equality of plain columns is one."""
    node, negated = semi_join_conjunct(expr)
    if node is None or semi_join_shape(node, bound) is not None:
        return None
    if isinstance(node, ast.InSubquery):
        return SemiJoin(node, negated, [(node.operand, ast.SlotRef(0))],
                        [], [])
    core = node.query.core

    def levels(part: ast.Expr) -> set[int] | None:
        """Where *part*'s columns resolve; ``None`` when that cannot be
        told without compiling it (an embedded subquery, a name that
        does not resolve)."""
        found: set[int] = set()
        for sub in ast.walk_expr(part):
            if isinstance(sub, (ast.InSubquery, ast.Exists,
                                ast.ScalarSubquery)):
                return None
            if isinstance(sub, ast.ColumnRef):
                level = bound.level(sub)
                if level is None:
                    return None
                found.add(level)
        return found

    def key_pair(part: ast.Expr) -> tuple[ast.Expr, ast.Expr] | None:
        if not (isinstance(part, ast.BinaryOp) and part.op == "="):
            return None
        sides = [(side, levels(side)) for side in (part.left, part.right)]
        for (outer, outer_at), (inner, inner_at) in (sides, sides[::-1]):
            if inner_at == {0} and outer_at is not None \
                    and 1 in outer_at and 0 not in outer_at:
                return outer, inner
        return None

    found = SemiJoin(node, negated, [], [], [])
    for part in ast.conjuncts(core.where):
        read = levels(part)
        if read is not None and 1 not in read:
            found.inner_only.append(part)
            continue
        pair = key_pair(part)
        if pair is not None and (not found.mixed or all(
                isinstance(side, ast.ColumnRef) for side in pair)):
            found.pairs.append(pair)
        else:
            found.mixed.append(part)
    return found if found.pairs else None


#: Why ``select_semi_joins`` declines a conjunct of the right shape,
#: once it has resolved its names.
_DECLINED_ON_NAMES = {ast.InSubquery: "correlated IN subquery",
                      ast.Exists: "correlated without an equality"}


def fallback_reason(expr: ast.Expr, columns: Columns, declined: bool = False,
                    bound: Binding | None = None) -> str | None:
    """Why the WHERE conjunct *expr* runs on the generic predicate, or
    ``None`` when it does not: it compiles to a vector kernel, or it has
    the shape of a semi / anti join (:func:`semi_join_shape`, over the
    bind *bound*) — unless *declined* says the selector has been and
    left it there.

    The single source of truth for "would this conjunct vectorize":
    the answer is literally :func:`compile_filter_kernel`'s, so the
    runtime fallback note, a result plan's ``vectorized_fallbacks`` and
    the static analyzer's ``W-VEC-FALLBACK`` diagnostic can never
    disagree about *whether* — this function only adds the *why*.
    """
    if compile_filter_kernel(expr, columns) is not None:
        return None
    node, _negated = semi_join_conjunct(expr)
    if node is not None:
        return semi_join_shape(node, bound) or (
            _DECLINED_ON_NAMES[type(node)] if declined else None)
    return _describe_fallback(expr, columns)


_SUBQUERY_PREDICATE = "subquery predicate"


def _describe_fallback(expr: ast.Expr, columns: Columns) -> str:
    generic = "unsupported predicate shape"
    if isinstance(expr, ast.UnaryOp) and expr.op.upper() == "NOT":
        operand = expr.operand
        if isinstance(operand, ast.ColumnRef):
            ref = columns.get(id(operand))
            if ref is None:
                return "column is not a plain column of the scanned table"
            return "NOT over a non-boolean column"
        pushed = _negated(operand)
        if pushed is None:
            return ("NOT cannot be pushed into "
                    f"{type(operand).__name__} exactly")
        return _describe_fallback(pushed, columns)
    if isinstance(expr, ast.BinaryOp):
        op = expr.op.upper()
        if op in ("AND", "OR"):
            for side in (expr.left, expr.right):
                if compile_filter_kernel(side, columns) is None:
                    reason = _describe_fallback(side, columns)
                    if op == "OR" and reason == _SUBQUERY_PREDICATE:
                        reason += " under OR"
                    return reason
            return generic  # pragma: no cover - both sides compiled
        if expr.op in _COMPARISONS:
            left_ref = _resolved(expr.left, columns)
            right_ref = _resolved(expr.right, columns)
            if left_ref is not None and right_ref is not None:
                return ("ordered comparison across type families "
                        "(raises on the row path)")
            for ref, other in ((left_ref, expr.right),
                               (right_ref, expr.left)):
                if ref is not None:
                    if isinstance(other, ast.Literal):
                        if literal_family(other.value) is None:
                            return "comparison with a non-SQL literal"
                        return ("ordered comparison across type "
                                "families (raises on the row path)")
                    return (f"comparison operand is a "
                            f"{type(other).__name__}, not a column or "
                            "literal")
            return ("neither comparison side is a plain column of the "
                    "scanned table")
        return f"operator {expr.op!r} has no vector kernel"
    if isinstance(expr, ast.IsNull):
        return "IS NULL operand is not a plain column"
    if isinstance(expr, ast.Between):
        if _resolved(expr.operand, columns) is None:
            return "BETWEEN operand is not a plain column"
        return "BETWEEN bounds are not literals"
    if isinstance(expr, ast.InList):
        if _resolved(expr.operand, columns) is None:
            return "IN operand is not a plain column"
        return "IN list contains non-literal items"
    if isinstance(expr, ast.Like):
        ref = _resolved(expr.operand, columns)
        if ref is None:
            return "LIKE operand is not a plain column"
        if ref[1] is not DataType.TEXT:
            return "LIKE over a non-text column (raises on the row path)"
        if not isinstance(expr.pattern, ast.Literal):
            return "LIKE pattern is not a literal"
        return "LIKE pattern is not a string"
    if isinstance(expr, ast.Literal):
        return "non-boolean constant predicate (raises on the row path)"
    if isinstance(expr, ast.ColumnRef):
        if columns.get(id(expr)) is None:
            return "column is not a plain column of the scanned table"
        return "bare predicate over a non-boolean column"
    if isinstance(expr, ast.FunctionCall):
        return f"function call {expr.name.upper()} has no vector kernel"
    if isinstance(expr, (ast.InSubquery, ast.Exists)):
        # Only a top-level conjunct can be a semi-join.
        return _SUBQUERY_PREDICATE
    if isinstance(expr, ast.ScalarSubquery):
        return "scalar subqueries run on the row path"
    if isinstance(expr, ast.CaseExpr):
        return "CASE expressions run on the row path"
    if isinstance(expr, ast.Cast):
        return "CAST expressions run on the row path"
    return generic


def compile_filter_kernel(expr: ast.Expr, columns: Columns,
                          values=None) -> Kernel | None:
    """Compile *expr* to a strict-true mask kernel, or ``None``.

    ``None`` means "not vectorizable" — the caller keeps the conjunct on
    the row path.  It is never an error: every supported construct is
    compiled to match the row path's three-valued semantics exactly.
    A ``?`` is a constant only where *values* binds it (a run's
    :class:`SlotKernel` passes them), and then exactly as its literal.
    """
    if isinstance(expr, ast.UnaryOp) and expr.op.upper() == "NOT":
        operand = expr.operand
        if isinstance(operand, ast.ColumnRef):
            # NOT b over a BOOLEAN column (non-boolean raises on the
            # row path, so only that family vectorizes)
            ref = columns.get(id(operand))
            if ref is None or FAMILY[ref[1]] != "bool":
                return None
            position = ref[0]
            return lambda cols: [v is False for v in cols[position]]
        pushed = _negated(operand, values)
        if pushed is None:
            return None
        return compile_filter_kernel(pushed, columns, values)
    if isinstance(expr, ast.BinaryOp):
        op = expr.op.upper()
        if op in ("AND", "OR"):
            left = compile_filter_kernel(expr.left, columns, values)
            if left is None:
                return None
            right = compile_filter_kernel(expr.right, columns, values)
            if right is None:
                return None
            if op == "AND":
                return lambda cols: [a and b
                                     for a, b in zip(left(cols), right(cols))]
            return lambda cols: [a or b
                                 for a, b in zip(left(cols), right(cols))]
        if expr.op in _COMPARISONS:
            return _comparison_kernel(expr, columns, values)
        return None
    if isinstance(expr, ast.IsNull):
        ref = _resolved(expr.operand, columns)
        if ref is None:
            return None
        position = ref[0]
        if expr.negated:
            return lambda cols: [v is not None for v in cols[position]]
        return lambda cols: [v is None for v in cols[position]]
    if isinstance(expr, ast.Between):
        return _between_kernel(expr, columns, values)
    if isinstance(expr, ast.InList):
        return _in_list_kernel(expr, columns, values)
    if isinstance(expr, ast.Like):
        return _like_kernel(expr, columns, values)
    if isinstance(expr, ast.ColumnRef):
        # WHERE b over a BOOLEAN column; any other family raises on the
        # row path, so it falls back
        ref = columns.get(id(expr))
        if ref is None or FAMILY[ref[1]] != "bool":
            return None
        position = ref[0]
        return lambda cols: [v is True for v in cols[position]]
    known, value = _constant(expr, values)
    if known:
        if value is True:
            return lambda cols: [True] * len(cols[0])
        if value is False or value is None:
            return lambda cols: [False] * len(cols[0])
    return None


class _AllNull:
    """Binds every ``?`` to NULL: the binding under which a conjunct's
    shape vectorizes if any binding does."""

    def __getitem__(self, _index: int) -> None:
        return None


class SlotKernel:
    """The mask kernel of a WHERE conjunct that reads ``?`` slots.

    Which kernel — or none — depends on the bound values, exactly as it
    depends on a literal's (``x > 'a'`` over a REAL column is generic
    and raises), so it is chosen once per run, by
    :func:`compile_filter_kernel` under the values *slots* hold, and
    kept while they are the same.  ``choose()`` is that kernel, or
    ``None``: the filter then runs the conjunct on its generic
    predicate, where a literal would have put it.
    """

    __slots__ = ("expr", "columns", "slots", "_values", "_kernel")

    def __init__(self, expr: ast.Expr, columns: Columns, slots) -> None:
        self.expr = expr
        self.columns = columns
        self.slots = slots
        self._values = self._kernel = None

    def choose(self) -> Kernel | None:
        self.admits(self.slots.values)
        return self._kernel

    def admits(self, values) -> bool:
        """Do *values* choose a kernel?  (The choice is kept for the run
        that binds them.)"""
        if values is not self._values:
            self._kernel = compile_filter_kernel(self.expr, self.columns,
                                                 values)
            self._values = values
        return self._kernel is not None

    def fallback(self) -> tuple[str, str]:
        """``(expression, reason)`` of this run's generic evaluation."""
        return (render_expr(self.expr, as_slot), fallback_reason(
            ast.clone_expr(self.expr, self._values), self.columns,
            declined=True))


def slot_kernel(expr: ast.Expr, columns: Columns,
                slots) -> SlotKernel | None:
    """*expr*'s :class:`SlotKernel` when it reads a ``?`` and some
    binding vectorizes it (a NULL one does whenever any does), else
    ``None``: no value can, and it stays on the generic predicate."""
    if not any(isinstance(node, ast.Param) for node in ast.walk_expr(expr)) \
            or compile_filter_kernel(expr, columns, _AllNull()) is None:
        return None
    return SlotKernel(expr, columns, slots)
