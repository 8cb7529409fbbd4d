"""One binding pass over a SELECT: what every name in it means, and
whether the statement is valid.

:func:`bind` walks a statement once, as written, resolving each column
reference (:func:`resolve_column`, the one resolver) and deciding every
rule it is built by: each call is an aggregate or a scalar of the right
arity (as the executor's ``make_aggregate`` / ``lookup_function`` say),
an aggregate stands only in a select list, HAVING or ORDER BY, a CAST
target is a type, a grouped core (:meth:`Binding.grouped`) has no ``*``
and reads its FROM clause outside aggregate calls only through
expressions that mean a GROUP BY target (:meth:`Binding.key`), and a
compound's operands are equally wide.  The analyzer, the planner, the
mediator's pushdown and the executor read the :class:`Binding`: the
analyzer reports every error, the executor raises the first before
anything is planned or built (:meth:`Binding.check`) and compiles each
reference from its :class:`Ref`, and a planner rewrite that writes a
reference records its ``Ref`` (:meth:`Binding.column`).  What a call or
a CAST runs the compiler looks up as it compiles: rewrites rebuild the
nodes a record would be kept by, and constant folding and the
mediator's guards compile trees no bind has seen.

Scopes are the executor's: an ON condition sees its own join's leaves,
WHERE the whole FROM clause, a GROUP BY / ORDER BY term is first matched
against the select list (:func:`order_target`), the ORDER BY of a
DISTINCT core sees its output, a compound's ORDER BY its combined result
(and the enclosing scopes), a subquery outside an aggregate call in a
grouped core's select list, HAVING or ORDER BY its plain group keys
only, and LIMIT / OFFSET the enclosing scopes only.  A scope is **open**
when its columns cannot be told — a FROM name the catalog does not
know, or a derived table whose star is over one — and a lookup that
fails with an open scope in the chain is no error: the name may live in
the table that cannot be seen.

A derived column's type is the one standing for the family its
expression infers (:meth:`Binding.family`), so family checks see
through derived tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import ast
from .aggregates import (AGGREGATE_NAMES, contains_aggregate, is_aggregate,
                         make_aggregate)
from .errors import (AmbiguousColumnError, CatalogError, ExecutionError,
                     SchemaError, TypeMismatchError, UnknownColumnError)
from .functions import SCALAR_FUNCTIONS, lookup_function
from .schema import ResultColumn, RowSchema, TableSchema, fold
from .types import FAMILY, DataType, literal_family, parse_type_name


class Relation(NamedTuple):
    """A FROM name known to a catalog that holds no tables (a
    mediator's view); ``schema`` is ``None`` when its columns cannot be
    told."""

    schema: TableSchema | None


@dataclass
class Scope(RowSchema):
    """The columns of a FROM leaf, of a FROM clause or of a core's
    output."""

    #: True when it may hold columns that cannot be enumerated.
    open: bool = False


class Ref(NamedTuple):
    """Where one column reference resolves."""

    #: Scopes outward from the reference's own (0: its own FROM).
    level: int
    #: The folded qualifier of the column it names (a FROM binding).
    binding: str | None
    #: The folded name of that column.
    column: str
    data_type: DataType | None
    #: The FROM leaf of that column; ``None`` for an output column (an
    #: ORDER BY of a compound or a DISTINCT core).
    leaf: ast.TableExpr | None


#: The type standing for each family.
_TYPE_OF = {family: data_type for data_type, family in FAMILY.items()}

_COMPARISONS = frozenset({"=", "<>", "<", "<=", ">", ">="})
_ARITHMETIC = frozenset({"+", "-", "*", "/", "%"})

#: Scalar functions by result family (everything else infers unknown).
_STR_FUNCTIONS = frozenset({
    "UPPER", "LOWER", "TRIM", "LTRIM", "RTRIM", "REPLACE", "SUBSTR",
    "SUBSTRING", "CONCAT", "TYPEOF", "GROUP_CONCAT"})
_NUM_FUNCTIONS = frozenset({
    "LENGTH", "ABS", "ROUND", "FLOOR", "CEIL", "CEILING", "SQRT",
    "POWER", "SIGN", "MOD", "INSTR", "COUNT", "SUM", "AVG"})
_PASSTHROUGH_FUNCTIONS = frozenset({
    "MIN", "MAX", "COALESCE", "IFNULL", "NULLIF"})


#: The exception the executor raises for each error.
_RAISES = {"E-UNKNOWN-COLUMN": UnknownColumnError,
           "E-AMBIGUOUS-COLUMN": AmbiguousColumnError,
           "E-UNKNOWN-TABLE": CatalogError, "E-DUPLICATE-ALIAS": SchemaError,
           "E-BAD-CAST": TypeMismatchError, **dict.fromkeys([
               "E-ORDINAL-RANGE", "E-UNKNOWN-FUNCTION", "E-FUNCTION-ARITY",
               "E-AGGREGATE-CONTEXT", "E-STAR-GROUPED", "E-SET-OP-ARITY",
               "E-UNGROUPED-COLUMN"], ExecutionError)}


def is_ordinal(expr: ast.Expr) -> bool:
    """Is *expr* an integer literal (an ordinal where a term is)?"""
    return isinstance(expr, ast.Literal) and isinstance(expr.value, int) \
        and not isinstance(expr.value, bool)


def order_target(expr: ast.Expr, items: list[ast.SelectItem]) -> ast.Expr:
    """What one ORDER BY / GROUP BY term orders or groups by: an ordinal
    is the select item at that position, a bare name that is one
    item's output alias is that item's expression (an output alias
    shadows input columns, the PostgreSQL rule), anything else itself.
    A bad ordinal raises."""
    if is_ordinal(expr):
        index = expr.value
        if index < 1 or index > len(items):
            raise ExecutionError(
                f"ORDER/GROUP BY position {index} is out of range")
        if items[index - 1].is_star:
            raise ExecutionError(
                "ORDER/GROUP BY position cannot reference '*'")
        return items[index - 1].expr
    if isinstance(expr, ast.ColumnRef) and expr.qualifier is None:
        aliased = [item.expr for item in items
                   if item.alias and fold(item.alias) == fold(expr.name)]
        if len(aliased) == 1:
            return aliased[0]
    return expr


def star_positions(star: ast.Star, source: RowSchema) -> list[int]:
    """The columns of *source* a ``*`` / ``q.*`` select item stands
    for; a qualifier no column has raises."""
    qualifier = star.qualifier
    positions = [position for position, column in enumerate(source.columns)
                 if qualifier is None
                 or fold(column.qualifier or "") == fold(qualifier)]
    if not positions and qualifier is not None:
        raise UnknownColumnError(f"no table named {qualifier!r} in FROM")
    return positions


def bind(query: ast.SelectQuery, catalog) -> "Binding":
    """Bind every name of *query*.  *catalog* answers ``get(name)`` with
    the relation a FROM name reads (its ``schema``; a :class:`Relation`
    may have none) or ``None`` when there is none; a ``None`` catalog
    knows no name, so every FROM name binds an open scope."""
    binding = Binding(catalog)
    binding._query(query, [])
    binding._catalog = None  # read; a caller may be the catalog
    return binding


def aggregates(core: ast.SelectCore, order_by: list[ast.OrderItem]) -> bool:
    """Whether *core* aggregates — GROUP BY, HAVING or an aggregate call
    in its select list or in *order_by* (the query's ORDER BY when the
    core is the query's only one) — read from its text alone: the rule
    the bind records (:meth:`Binding.grouped`)."""
    return bool(core.group_by) or core.having is not None \
        or any(contains_aggregate(item.expr)
               for item in list(core.items) + list(order_by))


class _PerRow(ast.SelectCore):
    """A DML or DDL statement's expressions as a select list
    (:func:`names_of`): evaluated per row, so they admit no aggregate."""


def names_of(stmt) -> ast.SelectQuery | None:
    """What of *stmt* names columns, as one SELECT to bind: an UPDATE's
    or DELETE's expressions over its table, VALUES rows and column
    defaults over no table (any column in them is unknown)."""
    def select(exprs, table=None, where=None) -> ast.SelectQuery:
        return ast.SelectQuery(core=_PerRow(
            items=[ast.SelectItem(expr) for expr in exprs],
            from_clause=None if table is None else ast.TableRef(table),
            where=where))

    if isinstance(stmt, ast.SelectQuery):
        return stmt
    if isinstance(stmt, ast.InsertStmt):
        return stmt.query if stmt.query is not None else select(
            [expr for row in stmt.rows for expr in row])
    if isinstance(stmt, ast.UpdateStmt):
        return select([expr for _column, expr in stmt.assignments],
                      stmt.table, stmt.where)
    if isinstance(stmt, ast.DeleteStmt):
        return select([], stmt.table, stmt.where)
    if isinstance(stmt, ast.CreateTableStmt):
        return select([definition.default for definition in stmt.columns
                       if definition.default is not None])
    return None


class Binding:
    """What :func:`bind` found, by node identity."""

    def __init__(self, catalog) -> None:
        self._catalog = catalog
        #: Per ``ColumnRef`` (by id), where it resolves (``None``: it
        #: does not, or one node is written at two places that mean two
        #: things).
        self.refs: dict[int, Ref | None] = {}
        #: Per FROM leaf and per SELECT core (by id), its columns — a
        #: core's are its output.
        self.scopes: dict[int, Scope] = {}
        #: Per GROUP BY / ORDER BY term (by id) that is no bad ordinal,
        #: what it groups or orders by (:func:`order_target`).
        self.targets: dict[int, ast.Expr] = {}
        #: Per query (by id), the scopes around it that a reference in
        #: it reads, counted outwards (0: the innermost enclosing one).
        self.reach: dict[int, set[int]] = {}
        #: Each error once, in walk order: ``(code, message, node)``.
        self.errors: list[tuple[str, str, ast.Node]] = []
        #: The grouped SELECT cores (by id).
        self._grouped: set[int] = set()
        self._leaf_of: dict[int, ast.TableExpr] = {}
        #: :attr:`refs` by (id, the scope count a place reads it under).
        self._places: dict[tuple[int, int], Ref | None] = {}
        #: Per query being walked, its enclosing scope count and reach.
        self._walking: list[tuple[int, set[int]]] = []

    def ref(self, node: ast.ColumnRef, places: int | None = None
            ) -> Ref | None:
        """Where *node* resolves; ``None`` when it does not (unknown,
        ambiguous, behind an open scope), was not bound, or is one node
        written at two places that mean two things — unless *places*,
        the number of scopes it is read under, tells which."""
        found = self.refs.get(id(node))
        if found is None and places is not None:
            found = self._places.get((id(node), places))
        return found

    def scope(self, node: ast.TableExpr | ast.SelectCore) -> Scope:
        return self.scopes[id(node)]

    def level(self, node: ast.ColumnRef) -> int | None:
        """:attr:`Ref.level` of *node*, ``None`` when it has no ``Ref``
        (what :func:`repro.relational.vectors.semi_join` asks)."""
        found = self.refs.get(id(node))
        return None if found is None else found.level

    def owner(self, node: ast.ColumnRef) -> str | None:
        """The FROM binding of the clause *node* is written over whose
        column it names; ``None`` for an outer or unresolved reference."""
        found = self.refs.get(id(node))
        return found.binding if found is not None and found.level == 0 \
            else None

    def grouped(self, core: ast.SelectCore) -> bool:
        """Does *core* aggregate (GROUP BY, HAVING or an aggregate call in
        its select list or ORDER BY)?  One never bound (a wrapper) not."""
        return id(core) in self._grouped

    def key(self, expr: ast.Expr):
        """What *expr* means, hashable: :func:`ast.node_key`, each
        reference keyed by its ``Ref`` (with none, it equals itself)."""
        def column(node: ast.ColumnRef):
            found = self.refs.get(id(node))
            return ("ref", id(node)) if found is None \
                else ("ref", *found[:3], id(found.leaf))
        return ast.node_key(expr, column)

    def check(self) -> None:
        """Raise the first error, as the executor reports it."""
        if self.errors:
            code, message, node = self.errors[0]
            raise (UnknownColumnError if code == "E-UNKNOWN-TABLE"
                   and isinstance(node, ast.Star) else _RAISES[code])(message)

    def column(self, leaf: ast.TableExpr,
               column: ResultColumn) -> ast.ColumnRef:
        """A new reference to *column* of the FROM leaf *leaf*, written
        over that leaf's clause and bound there (a planner rewrite's)."""
        node = ast.ColumnRef(column.name, leaf.binding)
        self.refs[id(node)] = Ref(0, ast.binding_of(leaf), fold(column.name),
                                  column.data_type, leaf)
        return node

    def family(self, expr: ast.Expr) -> str | None:
        """Best-effort family of *expr*: num/str/bool, "null", or None."""
        if isinstance(expr, ast.Literal):
            return literal_family(expr.value)
        if isinstance(expr, ast.ColumnRef):
            found = self.refs.get(id(expr))
            return None if found is None else FAMILY.get(found.data_type)
        if isinstance(expr, ast.UnaryOp):
            return "bool" if expr.op.upper() == "NOT" else "num"
        if isinstance(expr, ast.BinaryOp):
            if expr.op.upper() in ("AND", "OR") or expr.op in _COMPARISONS:
                return "bool"
            if expr.op == "||":
                return "str"
            return "num" if expr.op in _ARITHMETIC else None
        if isinstance(expr, (ast.IsNull, ast.Like, ast.InList, ast.Between,
                             ast.InSubquery, ast.Exists)):
            return "bool"
        if isinstance(expr, ast.FunctionCall):
            upper = expr.name.upper()
            if upper in _STR_FUNCTIONS:
                return "str"
            if upper in _NUM_FUNCTIONS:
                return "num"
            if upper in _PASSTHROUGH_FUNCTIONS:
                return self._one_family(expr.args)
            return None
        if isinstance(expr, ast.Cast):
            try:
                return FAMILY[parse_type_name(expr.type_name)]
            except TypeMismatchError:
                return None
        if isinstance(expr, ast.CaseExpr):
            results = [result for _cond, result in expr.whens]
            if expr.else_result is not None:
                results.append(expr.else_result)
            return self._one_family(results)
        return None  # Star, SlotRef, ScalarSubquery, Param (a bound value)

    def _one_family(self, exprs: list[ast.Expr]) -> str | None:
        families = {self.family(expr) for expr in exprs} - {"null", None}
        return families.pop() if len(families) == 1 else None

    # -- the walk -----------------------------------------------------------

    def _error(self, code: str, message: str, node: ast.Node) -> None:
        self.errors.append((code, message, node))

    def _query(self, query: ast.SelectQuery, outer: list[Scope]) -> Scope:
        reach: set[int] = set()
        self._walking.append((len(outer), reach))
        simple = not query.is_compound
        result = self._core(query.core, outer,
                            query.order_by if simple else [])
        operands = [result] + [self._core(core, outer, [])
                               for _op, core in query.compounds]
        if not any(scope.open for scope in operands) \
                and len({len(scope.columns) for scope in operands}) > 1:
            self._error("E-SET-OP-ARITY", "set operation operands must "
                        "have the same column count", query)
        if not simple:
            # An ordinal names a result column by position.
            self._terms([item.expr for item in query.order_by],
                        [ast.SelectItem(ast.SlotRef(position)) for position
                         in range(len(result.columns))],
                        outer + [result], result.open)
        for expr in (query.limit, query.offset):
            if expr is not None:
                self._expr(expr, outer)
        self._walking.pop()
        self.reach[id(query)] = reach
        return result

    def _core(self, core: ast.SelectCore, outer: list[Scope],
              order_by: list[ast.OrderItem]) -> Scope:
        from_scope = Scope() if core.from_clause is None \
            else self._from(core.from_clause, outer, set())
        scopes = outer + [from_scope]
        if core.where is not None:
            self._expr(core.where, scopes)
        per_row = isinstance(core, _PerRow)
        grouped = not per_row and aggregates(core, order_by)
        if grouped:
            self._grouped.add(id(core))
        # A grouped core's subqueries outside an aggregate call read its
        # grouped rows: they are bound once the group keys are.
        later: list[ast.SelectQuery] | None = [] if grouped else None
        if core.having is not None:
            self._expr(core.having, scopes, later, True)
        out = Scope()
        for item in core.items:
            expr = item.expr
            if item.is_star:
                try:
                    positions = [] if from_scope.open \
                        else star_positions(expr, from_scope)
                except UnknownColumnError as exc:
                    self._error("E-UNKNOWN-TABLE", str(exc), expr)
                    positions = []
                if grouped:
                    self._error("E-STAR-GROUPED",
                                "'*' cannot be used with GROUP BY", expr)
                else:
                    out.open = out.open or from_scope.open
                    out.columns.extend(
                        ResultColumn(column.name, column.qualifier,
                                     column.data_type)
                        for column in map(from_scope.columns.__getitem__,
                                          positions))
                continue
            self._expr(expr, scopes, later, not per_row)
            qualifier = expr.qualifier if isinstance(expr, ast.ColumnRef) \
                and not item.alias and not grouped else None
            out.columns.append(ResultColumn(
                item.output_name(), qualifier,
                _TYPE_OF.get(self.family(expr))))
        self._terms(core.group_by, core.items, scopes)
        # A DISTINCT core sorts what it outputs.
        self._terms([item.expr for item in order_by], core.items,
                    outer + [out] if core.distinct and not grouped
                    else scopes, later=later, aggregates=True)
        if grouped:
            self._check_grouping(core, order_by)
        if later:
            # Of the FROM clause, the grouped rows hold the plain keys.
            keys = [self.refs.get(id(self.targets.get(id(term))))
                    for term in core.group_by]
            groups = Scope([from_scope.columns[from_scope.position(
                key.binding, key.column)] for key in keys
                if key is not None and key.level == 0], from_scope.open)
            for query in later:
                self._query(query, outer + [groups])
        self.scopes[id(core)] = out
        return out

    def _terms(self, terms: list[ast.Expr], items: list[ast.SelectItem],
               scopes: list[Scope], open_items: bool = False,
               later: list[ast.SelectQuery] | None = None,
               aggregates: bool = False) -> None:
        """Bind GROUP BY / ORDER BY *terms* over the select list *items*
        (of unknown length when *open_items*) and *scopes*; *aggregates*
        says whether an aggregate may stand in them."""
        for term in terms:
            if open_items and is_ordinal(term):
                continue
            try:
                target = order_target(term, items)
            except ExecutionError as exc:
                self._error("E-ORDINAL-RANGE", str(exc), term)
                continue
            self.targets[id(term)] = target
            if target is term:
                self._expr(term, scopes, later, aggregates)
            elif not aggregates:  # a select item's, bound where one may
                for call in filter(is_aggregate, ast.walk_expr(target)):
                    self._aggregate_here(call)

    def _check_grouping(self, core: ast.SelectCore,
                        order_by: list[ast.OrderItem]) -> None:
        """A grouped *core*'s select list, HAVING and ORDER BY read its
        FROM clause only in aggregate calls and group keys — unless a
        ``?`` in GROUP BY leaves that to its values (built once bound)."""
        if any(isinstance(node, ast.Param) for term in core.group_by
               for node in ast.walk_expr(term)):
            return
        keys = {self.key(self.targets[id(term)]) for term in core.group_by
                if id(term) in self.targets}

        def reads(expr: ast.Expr) -> None:
            if self.key(expr) in keys or is_aggregate(expr):
                return
            if isinstance(expr, ast.ColumnRef) and self.level(expr) == 0:
                self._error("E-UNGROUPED-COLUMN",
                            f"column {expr.display()!r} must appear in "
                            "GROUP BY or be used in an aggregate", expr)
            for child in ast.child_exprs(expr):
                reads(child)

        for item in core.items:
            if not item.is_star:
                reads(item.expr)
        if core.having is not None:
            reads(core.having)
        for item in order_by:  # an item's target is checked as an item
            if self.targets.get(id(item.expr)) is item.expr:
                reads(item.expr)

    def _from(self, table_expr: ast.TableExpr, outer: list[Scope],
              seen: set[str]) -> Scope:
        """The columns of *table_expr*; its ON conditions bind over its
        own join's."""
        if isinstance(table_expr, ast.Join):
            left = self._from(table_expr.left, outer, seen)
            right = self._from(table_expr.right, outer, seen)
            scope = Scope(left.columns + right.columns,
                          left.open or right.open)
            if table_expr.condition is not None:
                self._expr(table_expr.condition, outer + [scope])
            return scope
        binding = ast.binding_of(table_expr)
        if binding in seen:
            self._error("E-DUPLICATE-ALIAS",
                        f"duplicate table alias {table_expr.binding!r}",
                        table_expr)
        seen.add(binding)
        if isinstance(table_expr, ast.TableRef):
            relation = None if self._catalog is None \
                else self._catalog.get(table_expr.name)
            if relation is None and self._catalog is not None:
                self._error("E-UNKNOWN-TABLE",
                            f"table {table_expr.name!r} does not exist",
                            table_expr)
            scope = Scope(open=True) \
                if relation is None or relation.schema is None \
                else Scope(RowSchema.for_table(relation.schema,
                                               table_expr.binding).columns)
        else:
            # A derived table's columns are requalified to its alias, as
            # the executor requalifies them.
            out = self._query(table_expr.query, outer)
            scope = Scope([ResultColumn(column.name, table_expr.binding,
                                        column.data_type)
                           for column in out.columns], out.open)
        self.scopes[id(table_expr)] = scope
        for column in scope.columns:
            self._leaf_of[id(column)] = table_expr
        return scope

    def _expr(self, expr: ast.Expr, scopes: list[Scope],
              later: list[ast.SelectQuery] | None = None,
              aggregates: bool = False) -> None:
        """Bind *expr* over *scopes* — but put a subquery outside an
        aggregate call on *later*, when given; *aggregates* says whether
        an aggregate call may stand here."""
        if isinstance(expr, ast.ColumnRef):
            self._ref(expr, scopes)
        elif isinstance(expr, (ast.InSubquery, ast.Exists,
                               ast.ScalarSubquery)) \
                and expr.query is not None:
            if later is None:
                self._query(expr.query, scopes)
            else:
                later.append(expr.query)
        elif isinstance(expr, ast.FunctionCall):
            # Looked up as the executor will look it up.
            upper = expr.name.upper()
            try:
                if upper not in AGGREGATE_NAMES:
                    lookup_function(expr.name, len(expr.args))
                else:
                    if not aggregates:
                        self._aggregate_here(expr)
                    later, aggregates = None, False
                    make_aggregate(expr.name, expr.star, len(expr.args))
            except ExecutionError as exc:
                self._error("E-FUNCTION-ARITY" if upper in SCALAR_FUNCTIONS
                            or upper in AGGREGATE_NAMES
                            else "E-UNKNOWN-FUNCTION", str(exc), expr)
        elif isinstance(expr, ast.Cast):
            try:
                parse_type_name(expr.type_name)
            except TypeMismatchError as exc:
                self._error("E-BAD-CAST", str(exc), expr)
        for child in ast.child_exprs(expr):
            self._expr(child, scopes, later, aggregates)

    def _aggregate_here(self, call: ast.FunctionCall) -> None:
        self._error("E-AGGREGATE-CONTEXT",
                    f"aggregate {call.name.upper()} is not allowed here",
                    call)

    def _ref(self, node: ast.ColumnRef, scopes: list[Scope]) -> None:
        found = None
        # Only the message outlives the handler: a kept exception would
        # hold this frame, and every caller's, through its traceback.
        try:
            depth, position = resolve_column(node, scopes)
        except AmbiguousColumnError as exc:
            code, message = "E-AMBIGUOUS-COLUMN", str(exc)
        except UnknownColumnError as exc:
            code, message = "E-UNKNOWN-COLUMN", str(exc)
        else:
            column = scopes[depth].columns[position]
            found = Ref(len(scopes) - 1 - depth,
                        column.qualifier and fold(column.qualifier),
                        fold(column.name), column.data_type,
                        self._leaf_of.get(id(column)))
            for enclosing, reach in self._walking:
                if depth < enclosing:
                    reach.add(enclosing - 1 - depth)
        if found is None and not any(scope.open for scope in scopes):
            self._error(code, message, node)
        # One node written at two places (a statement built by program
        # may share one) keeps a meaning only if both give it one; a
        # place the scopes it is read under tell apart keeps its own.
        key = id(node)
        for table, slot in ((self.refs, key), (self._places,
                                               (key, len(scopes)))):
            kept = table.setdefault(slot, found)
            if kept is not found and (kept is None or found is None
                                      or kept[:4] != found[:4]
                                      or kept.leaf is not found.leaf):
                table[slot] = None


def resolve_column(ref: ast.ColumnRef, scopes: list[RowSchema]
                   ) -> tuple[int, int]:
    """Resolve a column reference to (scope depth, position) by the
    reference rule: ``q.name`` (or bare ``name``) hits a column whose
    name folds alike and, when qualified, whose qualifier does; the
    innermost scope with a hit is where it resolves, two hits there are
    an ambiguity.  The one resolver — archlint's ``resolve_column``
    choke point keeps its calls to this module."""
    name, qualifier = fold(ref.name), ref.qualifier and fold(ref.qualifier)
    for depth in range(len(scopes) - 1, -1, -1):
        matches = [position for position, column
                   in enumerate(scopes[depth].columns)
                   if fold(column.name) == name and (
                       qualifier is None
                       or fold(column.qualifier or "") == qualifier)]
        if len(matches) > 1:
            raise AmbiguousColumnError(
                f"column reference {ref.display()!r} is ambiguous")
        if matches:
            return depth, matches[0]
    raise UnknownColumnError(f"no such column: {ref.display()!r}")
