"""Performance lints over one SELECT core.

These mirror the *planner's* decisions rather than re-deriving them:
``W-VEC-FALLBACK`` asks :func:`repro.relational.vectors.fallback_reason`
— which delegates the vectorizable/not verdict to the very kernel
compiler the filter operator uses — and the single-table / index-probe
gating reproduces ``build_core``'s conditions step by step.  A lint here is
therefore a statement about what the engine *will* do, not a heuristic
about what engines usually do.
"""

from __future__ import annotations

from ..relational import ast
from ..relational.render import render_expr
from ..relational.table import Table
from ..relational.vectors import fallback_reason, semi_join_conjunct

_COMPARISONS = frozenset({"=", "<>", "<", "<=", ">", ">="})


#: What stands where a bound statement will have a literal.
_VALUES = (ast.Literal, ast.Param)


def _contains_param(expr: ast.Expr) -> bool:
    return any(isinstance(node, ast.Param) for node in ast.walk_expr(expr))


def scanned_table(core: ast.SelectCore, env) -> Table | None:
    """The columnar table of a single-``TableRef`` FROM, if resolvable."""
    databank = env.databank
    if databank is None or not isinstance(core.from_clause, ast.TableRef):
        return None
    catalog = getattr(databank, "catalog", None)
    if catalog is None or not catalog.has_table(core.from_clause.name):
        return None
    table = catalog.table(core.from_clause.name)
    return table if isinstance(table, Table) else None


def lint_vectorization(core: ast.SelectCore, env) -> None:
    """``W-VEC-FALLBACK``: WHERE conjuncts the kernel compiler rejects.

    Fires only for a single-table FROM over columnar storage (an access
    path answers at most one conjunct a run; the others stay in the
    filter), and
    names both the exact conjunct and the
    reason the kernel compiler gives up on it — or, for an ``IN
    (subquery)`` / ``EXISTS`` conjunct, the semi-join selector.
    Conjuncts containing ``?`` parameters are skipped: the bound value
    decides vectorizability at execute time.
    """
    if env.databank is None:
        return
    table = scanned_table(core, env)
    if table is None or core.where is None:
        return
    # Of an EXISTS that runs as a semi join, only the conjuncts over
    # the inner table alone stay in this filter: the others are its keys
    # and its residual.
    body_of = env.semi_joins.get(id(core))
    conjunct_list = ast.conjuncts(core.where) if body_of is None \
        else body_of.inner_only
    bound = env.bound
    for conjunct in conjunct_list:
        # A name the bind could not resolve drew its error already.
        if _contains_param(conjunct) or any(
                isinstance(node, ast.ColumnRef) and bound.ref(node) is None
                for node in ast.walk_expr(conjunct)):
            continue
        # An EXISTS of the right shape that is not on record has no
        # equality the selector can use.
        node, _negated = semi_join_conjunct(conjunct)
        columns = {id(ref): (table.schema.position_of(found.column),
                             found.data_type)
                   for ref in ast.walk_expr(conjunct)
                   if isinstance(ref, ast.ColumnRef)
                   and not (found := bound.ref(ref)).level}
        reason = fallback_reason(
            conjunct, columns, declined=isinstance(node, ast.Exists)
            and id(node.query.core) not in env.semi_joins, bound=bound)
        if reason is not None:
            env.report.add(
                "W-VEC-FALLBACK",
                f"conjunct runs on the row path: {reason}",
                expression=render_expr(conjunct))


def lint_sargability(core: ast.SelectCore, env) -> None:
    """``W-NONSARGABLE``: predicates that waste an existing index.

    Gated on the index actually existing — a wrapped column without an
    index loses nothing, so warning there would be noise.
    """
    table = scanned_table(core, env)
    if table is None or core.where is None:
        return

    def indexed_column(ref: ast.Expr) -> str | None:
        if isinstance(ref, ast.ColumnRef) and env.bound.owner(ref) \
                and table.paths.find([ref.name]) is not None:
            return ref.display()
        return None

    for conjunct in ast.conjuncts(core.where):
        if isinstance(conjunct, ast.Like):
            column = indexed_column(conjunct.operand)
            if column is not None \
                    and isinstance(conjunct.pattern, ast.Literal) \
                    and isinstance(conjunct.pattern.value, str) \
                    and conjunct.pattern.value.startswith("%"):
                env.report.add(
                    "W-NONSARGABLE",
                    f"leading-% LIKE on indexed column {column} cannot "
                    "be narrowed by the index",
                    expression=render_expr(conjunct))
            continue
        if not (isinstance(conjunct, ast.BinaryOp)
                and conjunct.op in _COMPARISONS):
            continue
        for wrapped_side, other_side in ((conjunct.left, conjunct.right),
                                         (conjunct.right, conjunct.left)):
            if not isinstance(other_side, _VALUES):
                continue
            if not isinstance(wrapped_side, (ast.FunctionCall, ast.Cast,
                                             ast.BinaryOp)):
                continue
            wrapped = [node for node in ast.walk_expr(wrapped_side)
                       if isinstance(node, ast.ColumnRef)]
            if len(wrapped) != 1:
                continue
            column = indexed_column(wrapped[0])
            if column is not None:
                env.report.add(
                    "W-NONSARGABLE",
                    f"indexed column {column} is wrapped in an "
                    "expression, so the index probe cannot apply",
                    expression=render_expr(conjunct),
                    hint="compare the bare column to a precomputed "
                         "constant instead")
                break


def _side_bindings(table_expr: ast.TableExpr) -> set[str]:
    return set(map(ast.binding_of, ast.from_leaves(table_expr))) - {None}


def lint_cartesian(core: ast.SelectCore, env) -> None:
    """``W-CARTESIAN``: a join whose sides nothing connects.

    A comma/CROSS join is excused when some WHERE conjunct touches
    both sides (the classic implicit-join style); an explicit ON is
    suspect when it fails to reference both sides.
    """
    if core.from_clause is None:
        return
    where_conjuncts = ast.conjuncts(core.where)

    def touched(expr: ast.Expr) -> set[str]:
        """The FROM bindings whose columns *expr* names."""
        return {env.bound.owner(node) for node in ast.walk_expr(expr)
                if isinstance(node, ast.ColumnRef)} - {None}

    def visit(node: ast.TableExpr) -> None:
        if not isinstance(node, ast.Join):
            return
        visit(node.left)
        visit(node.right)
        left = _side_bindings(node.left)
        right = _side_bindings(node.right)
        if not left or not right:
            return
        if node.condition is not None:
            names = touched(node.condition)
            if not (names & left and names & right):
                env.report.add(
                    "W-CARTESIAN",
                    "join condition does not reference both sides",
                    expression=render_expr(node.condition))
            return
        for conjunct in where_conjuncts:
            names = touched(conjunct)
            if names & left and names & right:
                return
        env.report.add(
            "W-CARTESIAN",
            f"no predicate connects {{{', '.join(sorted(left))}}} with "
            f"{{{', '.join(sorted(right))}}}; the join is a cartesian "
            "product")

    visit(core.from_clause)
