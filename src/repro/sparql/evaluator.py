"""SPARQL SELECT evaluation over a TripleStore.

The SESQL Semantic Query Module sends the knowledge base one kind of
query, a SELECT, so SELECT is the only form.  A solution is a tuple of
terms in projection order, ``None`` for an unbound variable: that is
what :class:`SparqlResults` holds and what the SQM reads.

Two engines share one semantics and one result shape:

* :class:`Evaluator` — the production engine.  Solutions flow between
  operators as **id-encoded batches** (tuples of dictionary ids, one
  slot per variable), basic graph patterns are joined set-at-a-time
  with hash joins on the shared variables, and the join order comes
  from :mod:`repro.sparql.planner`'s selectivity estimates over the
  store's O(1) statistics.  ``select`` projects the id rows by slot,
  dedupes (DISTINCT) and slices (LIMIT / OFFSET) them as ids, and reads
  a ``Term`` only for the rows it returns.  A row becomes a dict only
  where an expression reads it — a FILTER, a BIND or an ORDER BY key —
  and then holds just the variables the expression names.
* :class:`NaiveEvaluator` — the seed's solution-at-a-time interpreter
  over dict solutions, kept as the reference for the equivalence
  property suite and the E12 benchmark gate.

OPTIONAL implements left-join semantics, UNION concatenates branch
solutions, FILTERs drop solutions whose expression is not (effectively)
true — in both engines, at the same positions in the group.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator

from ..rdf.store import TripleStore
from ..rdf.terms import Literal, Term, is_term, term_from_python, term_sort_key
from . import ast
from .errors import FilterError, SparqlEvalError
from .filters import evaluate, evaluate_boolean
from .parser import parse_sparql
from .paths import eval_path
from .planner import order_bgp

Solution = dict[ast.Variable, Term]


class SparqlResults:
    """SELECT results: the projected ``variables`` and ``rows``, one
    tuple of terms per solution in projection order (``None`` for an
    unbound variable).  Iterating yields each row as a dict of its
    bound variables."""

    __slots__ = ("variables", "rows")

    def __init__(self, variables: list[ast.Variable],
                 rows: list[tuple]) -> None:
        self.variables = variables
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Solution]:
        variables = self.variables
        for row in self.rows:
            yield {variable: term for variable, term in zip(variables, row)
                   if term is not None}

    def var_names(self) -> list[str]:
        return [variable.name for variable in self.variables]

    def tuples(self) -> list[tuple]:
        """The rows themselves (not a copy)."""
        return self.rows

    def values(self, name: str) -> list[Term | None]:
        variable = ast.Variable(name)
        if variable not in self.variables:
            return [None] * len(self.rows)
        slot = self.variables.index(variable)
        return [row[slot] for row in self.rows]

    def python_tuples(self) -> list[tuple]:
        """Rows with literals unwrapped to Python values, IRIs as strings."""
        def plain(term: Term | None):
            if term is None:
                return None
            if isinstance(term, Literal):
                return term.value
            return str(term)
        return [tuple(map(plain, row)) for row in self.rows]


def _projection(query: ast.SelectQuery) -> list[ast.Variable]:
    if query.variables is None:
        return sorted(ast.group_variables(query.where),
                      key=lambda variable: variable.name)
    return query.variables


def _sliced(rows: list[tuple], query: ast.SelectQuery) -> list[tuple]:
    start = query.offset or 0
    end = (start + query.limit) if query.limit is not None else None
    return rows[start:end] if start or end is not None else rows


def _order_key(solution: Solution,
               order_by: list[tuple[ast.Expr, bool]]) -> tuple:
    keys = []
    for expr, descending in order_by:
        try:
            value = evaluate(expr, solution)
        except FilterError:
            value = None
        if value is not None and not is_term(value) \
                and not hasattr(value, "n3"):
            value = term_from_python(value)
        key = term_sort_key(value)
        keys.append(_Reversed(key) if descending else key)
    return tuple(keys)


class _Reversed:
    """Inverts comparison for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.key == other.key


class _RowTag:
    """Hidden provenance column for OPTIONAL left-joins.

    Not an :class:`ast.Variable`, so patterns can never reference it,
    expression evaluation skips it and it is stripped before results
    decode.  Values in this column are row ordinals, not term ids.
    """

    __slots__ = ()


class _Batch:
    """Id-encoded solution set: a column per variable, a tuple per row.

    ``None`` marks an unbound variable in a row (heterogeneous
    boundness after OPTIONAL).  All other cells are dictionary ids —
    ints — so hash-join keys and dedup run on integer hashing.
    """

    __slots__ = ("vars", "index", "rows")

    def __init__(self, vars_: list, rows: list[tuple]) -> None:
        self.vars = vars_
        self.index = {var: i for i, var in enumerate(vars_)}
        self.rows = rows


def _tuple_getter(positions: list[int]):
    """A callable reading *positions* of a triple as a tuple (``None``
    for no positions: no itemgetter reads none).  One position is read
    as a one-wide slice, since an itemgetter of one index returns the
    bare value."""
    if not positions:
        return None
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


class Evaluator:
    """Set-at-a-time SPARQL evaluation (see module docstring)."""

    def __init__(self, store: TripleStore) -> None:
        self.store = store
        self.dictionary = store.dictionary
        self.stats = store.stats

    def _expr_columns(self, batch: _Batch, *expressions: ast.Expr
                      ) -> list[tuple[int, ast.Variable]]:
        """(column, variable) pairs the expressions can actually read —
        FILTER/BIND/ORDER BY rows materialize only these, not the whole
        row."""
        referenced: set[ast.Variable] = set()

        def visit(expr) -> None:
            if isinstance(expr, ast.VarExpr):
                referenced.add(expr.variable)
            elif isinstance(expr, ast.UnaryExpr):
                visit(expr.operand)
            elif isinstance(expr, ast.BinaryExpr):
                visit(expr.left)
                visit(expr.right)
            elif isinstance(expr, ast.CallExpr):
                for arg in expr.args:
                    visit(arg)

        for expression in expressions:
            visit(expression)
        return [(batch.index[var], var) for var in referenced
                if var in batch.index]

    def _bindings(self, row: tuple,
                  columns: list[tuple[int, ast.Variable]]) -> Solution:
        """The dict an expression reads: *columns*' bound terms."""
        terms = self.dictionary.terms
        return {var: terms[row[i]] for i, var in columns
                if row[i] is not None}

    # -- group evaluation -------------------------------------------------------

    def _eval_group(self, group: ast.GroupPattern, batch: _Batch) -> _Batch:
        elements = list(group.elements)
        index = 0
        while index < len(elements):
            element = elements[index]
            if isinstance(element, ast.TriplePattern):
                run = []
                while index < len(elements) and isinstance(
                        elements[index], ast.TriplePattern):
                    run.append(elements[index])
                    index += 1
                batch = self._eval_bgp(run, batch)
                continue
            if isinstance(element, ast.Filter):
                batch = self._filter(element, batch)
            elif isinstance(element, ast.Bind):
                batch = self._bind(element, batch)
            elif isinstance(element, ast.OptionalPattern):
                batch = self._optional(element.group, batch)
            elif isinstance(element, ast.UnionPattern):
                batch = self._union(element, batch)
            elif isinstance(element, ast.GroupPattern):
                batch = self._eval_group(element, batch)
            else:  # pragma: no cover - parser prevents this
                raise SparqlEvalError(
                    f"unknown pattern element {type(element).__name__}")
            index += 1
        return batch

    # -- BGP: planned, set-at-a-time joins -----------------------------------

    def _eval_bgp(self, patterns: list[ast.TriplePattern],
                  batch: _Batch) -> _Batch:
        if not batch.rows:
            return batch
        # Boundness for ordering comes from the whole batch state, not
        # the first row (see planner.order_bgp).
        bound_cols = [False] * len(batch.vars)
        for row in batch.rows:
            for i, value in enumerate(row):
                if value is not None:
                    bound_cols[i] = True
        bound = {var for i, var in enumerate(batch.vars)
                 if bound_cols[i] and isinstance(var, ast.Variable)}
        # Hold the read side across planning *and* joining: the
        # statistics the planner prices (and, on an "spo"-only store,
        # scans) must not race a writer; the joins' own acquisitions
        # below piggyback reentrantly.
        with self.store.rwlock.read_locked():
            for step in order_bgp(patterns, bound, self.stats,
                                  self.dictionary):
                batch = self._join_pattern(batch, step.pattern)
                if not batch.rows:
                    return batch
        return batch

    def _join_pattern(self, batch: _Batch,
                      pattern: ast.TriplePattern) -> _Batch:
        predicate = pattern.predicate
        if isinstance(predicate, ast.Path):
            return self._join_path(batch, pattern)

        positions = (pattern.subject, predicate, pattern.object)
        const: list[int | None] = [None, None, None]
        var_positions: dict[ast.Variable, list[int]] = {}
        pvars: list[ast.Variable] = []
        for i, position in enumerate(positions):
            if isinstance(position, ast.Variable):
                at = var_positions.setdefault(position, [])
                if not at:
                    pvars.append(position)
                at.append(i)
            else:
                encoded = self.dictionary.lookup(position)
                if encoded is None:
                    # A constant the store never interned: no matches.
                    return _Batch(
                        list(batch.vars)
                        + [v for v in pattern.variables()
                           if v not in batch.index], [])
                const[i] = encoded

        new_vars = [var for var in pvars if var not in batch.index]
        out_vars = list(batch.vars) + new_vars
        out_index = {var: i for i, var in enumerate(out_vars)}
        # ``?x p ?x``-style duplicate positions must agree per triple.
        dup_pairs = [(at[0], extra) for at in var_positions.values()
                     for extra in at[1:]]
        shared = [var for var in pvars if var in batch.index]
        shared_idx = [batch.index[var] for var in shared]

        # One pass both groups (rows with every shared var bound — the
        # overwhelmingly common case) and collects heterogeneous rows
        # (unbound shared vars, post-OPTIONAL) for the general path.
        buckets: dict[tuple, list[tuple]] = {}
        loose: list[tuple] = []
        if shared:
            for row in batch.rows:
                key = tuple(row[i] for i in shared_idx)
                if None in key:
                    loose.append(row)
                else:
                    buckets.setdefault(key, []).append(row)
        else:
            buckets[()] = batch.rows

        new_rows: list[tuple] = []
        with self.store.rwlock.read_locked():
            if buckets:
                self._join_group(buckets, shared, [], const, var_positions,
                                 dup_pairs, new_vars, out_index, new_rows)
            if loose:
                by_mask: dict[tuple, list[tuple]] = {}
                for row in loose:
                    mask = tuple(row[i] is not None for i in shared_idx)
                    by_mask.setdefault(mask, []).append(row)
                for mask, rows in by_mask.items():
                    bvars = [v for v, flag in zip(shared, mask) if flag]
                    bidx = [i for i, flag in zip(shared_idx, mask) if flag]
                    fill = [v for v, flag in zip(shared, mask) if not flag]
                    group_buckets: dict[tuple, list[tuple]] = {}
                    for row in rows:
                        group_buckets.setdefault(
                            tuple(row[i] for i in bidx), []).append(row)
                    self._join_group(group_buckets, bvars, fill, const,
                                     var_positions, dup_pairs, new_vars,
                                     out_index, new_rows)
        return _Batch(out_vars, new_rows)

    def _join_group(self, buckets: dict[tuple, list[tuple]],
                    bvars: list[ast.Variable], fill: list[ast.Variable],
                    const: list[int | None],
                    var_positions: dict[ast.Variable, list[int]],
                    dup_pairs: list[tuple[int, int]],
                    new_vars: list[ast.Variable],
                    out_index: dict, new_rows: list[tuple]) -> None:
        """Join one homogeneous-boundness group of solution rows.

        *buckets* hash the rows on their (bound) shared-variable ids.
        Chooses between one index scan probed against the hash (when
        the pattern's constants are selective) and an index nested-loop
        over the *distinct* join keys (when the batch is small), using
        the same statistics the pattern ordering used.  Caller holds
        the store's read lock.
        """
        key_pos = [var_positions[var][0] for var in bvars]
        append_pos = [var_positions[var][0] for var in new_vars]
        fill_pairs = [(out_index[var], var_positions[var][0])
                      for var in fill]
        key_of = _tuple_getter(key_pos)
        tail_of = _tuple_getter(append_pos)
        match_ids = self.store._match_ids
        pad = (None,) * len(new_vars)
        probe = bvars and len(buckets) < self.stats.count_ids(*const)

        def consume(candidates, bucket=None) -> None:
            for triple in candidates:
                skip = False
                for left, right in dup_pairs:
                    if triple[left] != triple[right]:
                        skip = True
                        break
                if skip:
                    continue
                rows = bucket if bucket is not None \
                    else buckets.get(key_of(triple))
                if not rows:
                    continue
                if fill_pairs:
                    tail = tail_of(triple) if tail_of is not None else ()
                    for row in rows:
                        new = list(row + pad)
                        for out_i, p in fill_pairs:
                            new[out_i] = triple[p]
                        if tail:
                            new[-len(tail):] = tail
                        new_rows.append(tuple(new))
                elif tail_of is not None:
                    tail = tail_of(triple)
                    for row in rows:
                        new_rows.append(row + tail)
                else:
                    # Pure semijoin: every pattern variable was already
                    # bound, and (constants + key) pin a unique triple.
                    new_rows.extend(rows)

        if probe:
            # One index probe per distinct join key, however many
            # solution rows share it.
            for key, rows in buckets.items():
                spec = list(const)
                for var, value in zip(bvars, key):
                    for p in var_positions[var]:
                        spec[p] = value
                consume(match_ids(*spec), bucket=rows)
        elif key_of is None:
            # No variable shared with the rows: each candidate joins
            # the one bucket, ``()``.
            rows = buckets.get(())
            if rows:
                consume(match_ids(*const), bucket=rows)
        else:
            consume(match_ids(*const))

    def _join_path(self, batch: _Batch,
                   pattern: ast.TriplePattern) -> _Batch:
        subject, path, obj = (pattern.subject, pattern.predicate,
                              pattern.object)
        s_var = subject if isinstance(subject, ast.Variable) else None
        o_var = obj if isinstance(obj, ast.Variable) else None
        out_vars = list(batch.vars) + [
            var for var in (s_var, o_var)
            if var is not None and var not in batch.index]
        out_index = {var: i for i, var in enumerate(out_vars)}
        pad = len(out_vars) - len(batch.vars)
        padding = (None,) * pad
        terms = self.dictionary.terms
        intern = self.dictionary.intern
        s_col = batch.index.get(s_var) if s_var is not None else None
        o_col = batch.index.get(o_var) if o_var is not None else None
        # eval_path is memoized per distinct endpoint binding — the
        # set-at-a-time analogue of the per-solution path probes.
        memo: dict[tuple, list[tuple[int, int]]] = {}
        new_rows: list[tuple] = []
        for row in batch.rows:
            s_id = row[s_col] if s_col is not None else None
            o_id = row[o_col] if o_col is not None else None
            key = (s_id, o_id)
            pairs = memo.get(key)
            if pairs is None:
                s_arg = (subject if s_var is None
                         else (terms[s_id] if s_id is not None else None))
                o_arg = (obj if o_var is None
                         else (terms[o_id] if o_id is not None else None))
                pairs = [(intern(s_term), intern(o_term))
                         for s_term, o_term in eval_path(
                             self.store, s_arg, path, o_arg)]
                memo[key] = pairs
            for pair_s, pair_o in pairs:
                new = list(row + padding)
                ok = True
                for var, value in ((s_var, pair_s), (o_var, pair_o)):
                    if var is None:
                        continue
                    out_i = out_index[var]
                    current = new[out_i]
                    if current is None:
                        new[out_i] = value
                    elif current != value:
                        ok = False
                        break
                if ok:
                    new_rows.append(tuple(new))
        return _Batch(out_vars, new_rows)

    # -- non-BGP operators ---------------------------------------------------

    def _filter(self, element: ast.Filter, batch: _Batch) -> _Batch:
        expression = element.expression
        columns = self._expr_columns(batch, expression)
        return _Batch(batch.vars, [
            row for row in batch.rows
            if evaluate_boolean(expression, self._bindings(row, columns))])

    def _bind(self, bind: ast.Bind, batch: _Batch) -> _Batch:
        variable = bind.variable
        existing = batch.index.get(variable)
        if existing is None:
            out_vars = list(batch.vars) + [variable]
            column = len(batch.vars)
        else:
            out_vars = list(batch.vars)
            column = existing
        intern = self.dictionary.intern
        columns = self._expr_columns(batch, bind.expression)
        new_rows: list[tuple] = []
        for row in batch.rows:
            if existing is not None and row[existing] is not None:
                raise SparqlEvalError(
                    f"BIND would rebind {variable.n3()}")
            value_id = None
            try:
                value = evaluate(bind.expression,
                                 self._bindings(row, columns))
                if not (is_term(value) or hasattr(value, "n3")):
                    value = term_from_python(value)
                value_id = intern(value)
            except FilterError:
                pass  # BIND errors leave the variable unbound.
            if existing is None:
                new_rows.append(row + (value_id,))
            else:
                new = list(row)
                new[column] = value_id
                new_rows.append(tuple(new))
        return _Batch(out_vars, new_rows)

    def _optional(self, group: ast.GroupPattern, batch: _Batch) -> _Batch:
        tag = _RowTag()
        tagged = _Batch(list(batch.vars) + [tag],
                        [row + (ordinal,)
                         for ordinal, row in enumerate(batch.rows)])
        inner = self._eval_group(group, tagged)
        tag_col = inner.index[tag]
        matched = {row[tag_col] for row in inner.rows}
        keep = [i for i, var in enumerate(inner.vars) if var is not tag]
        out_vars = [inner.vars[i] for i in keep]
        new_rows = [tuple(row[i] for i in keep) for row in inner.rows]
        pad = (None,) * (len(out_vars) - len(batch.vars))
        for ordinal, row in enumerate(batch.rows):
            if ordinal not in matched:
                new_rows.append(row + pad)
        return _Batch(out_vars, new_rows)

    def _union(self, element: ast.UnionPattern, batch: _Batch) -> _Batch:
        out_vars = list(batch.vars)
        out_index = dict(batch.index)
        branch_batches: list[_Batch] = []
        for branch in element.branches:
            result = self._eval_group(branch, batch)
            branch_batches.append(result)
            for var in result.vars:
                if var not in out_index:
                    out_index[var] = len(out_vars)
                    out_vars.append(var)
        new_rows: list[tuple] = []
        for result in branch_batches:
            mapping = [result.index.get(var) for var in out_vars]
            for row in result.rows:
                new_rows.append(tuple(
                    row[source] if source is not None else None
                    for source in mapping))
        return _Batch(out_vars, new_rows)

    # -- SELECT ------------------------------------------------------------

    def select(self, query: ast.SelectQuery) -> SparqlResults:
        batch = self._eval_group(query.where, _Batch([], [()]))
        variables = _projection(query)
        rows = batch.rows
        if query.order_by:
            # The keys may read variables the projection drops.
            columns = self._expr_columns(
                batch, *(expr for expr, _descending in query.order_by))
            rows = sorted(rows, key=lambda row: _order_key(
                self._bindings(row, columns), query.order_by))
        width = len(batch.vars)
        slots = [batch.index.get(variable, width) for variable in variables]
        if width in slots:
            # A projected variable no pattern binds: an all-unbound slot.
            rows = [row + (None,) for row in rows]
        if slots:
            ids = list(zip(*[map(itemgetter(slot), rows) for slot in slots]))
        else:
            ids = [()] * len(rows)
        if query.distinct:
            ids = list(dict.fromkeys(ids))  # an interned id is one term
        ids = _sliced(ids, query)
        # Terms for the kept rows only, read a column at a time.
        terms = self.dictionary.terms
        decoded = [[None if i is None else terms[i] for i in column]
                   for column in zip(*ids)]
        return SparqlResults(variables,
                             list(zip(*decoded)) if decoded else ids)


class NaiveEvaluator:
    """The seed solution-at-a-time interpreter (the reference).

    Basic graph patterns are joined pattern-by-pattern, probing the
    store once per intermediate solution, and solutions are dicts of
    terms.  Kept as written (modulo the heterogeneous-boundness
    ordering fix shared with the planner) so the property suite can
    assert planned/naive equivalence and the E12 benchmark can gate the
    set-at-a-time speedup against it.  ``select`` returns the same row
    shape as :meth:`Evaluator.select`.
    """

    def __init__(self, store: TripleStore) -> None:
        self.store = store

    def select(self, query: ast.SelectQuery) -> SparqlResults:
        solutions = self._eval_group(query.where, [{}])
        variables = _projection(query)
        if query.order_by:
            solutions = sorted(solutions, key=lambda solution: _order_key(
                solution, query.order_by))
        rows = [tuple(solution.get(variable) for variable in variables)
                for solution in solutions]
        if query.distinct:
            rows = list(dict.fromkeys(rows))
        return SparqlResults(variables, _sliced(rows, query))

    def _eval_group(self, group: ast.GroupPattern,
                    solutions: list[Solution]) -> list[Solution]:
        elements = list(group.elements)
        index = 0
        while index < len(elements):
            element = elements[index]
            if isinstance(element, ast.TriplePattern):
                # Collect the whole run of triple patterns and join them
                # in a selectivity-friendly order.
                run = []
                while index < len(elements) and isinstance(
                        elements[index], ast.TriplePattern):
                    run.append(elements[index])
                    index += 1
                solutions = self._eval_bgp(run, solutions)
                continue
            if isinstance(element, ast.Filter):
                solutions = [solution for solution in solutions
                             if evaluate_boolean(element.expression,
                                                 solution)]
            elif isinstance(element, ast.Bind):
                solutions = self._eval_bind(element, solutions)
            elif isinstance(element, ast.OptionalPattern):
                solutions = self._eval_optional(element.group, solutions)
            elif isinstance(element, ast.UnionPattern):
                merged: list[Solution] = []
                for branch in element.branches:
                    merged.extend(self._eval_group(branch, solutions))
                solutions = merged
            elif isinstance(element, ast.GroupPattern):
                solutions = self._eval_group(element, solutions)
            else:  # pragma: no cover - parser prevents this
                raise SparqlEvalError(
                    f"unknown pattern element {type(element).__name__}")
            index += 1
        return solutions

    def _eval_bgp(self, patterns: list[ast.TriplePattern],
                  solutions: list[Solution]) -> list[Solution]:
        remaining = list(patterns)
        # Boundness over every solution, not the first: after an
        # OPTIONAL the solutions are heterogeneous.
        bound: set[ast.Variable] = set()
        for solution in solutions:
            bound.update(solution.keys())
        while remaining:
            remaining.sort(key=lambda pattern: -_pattern_boundness(
                pattern, bound))
            pattern = remaining.pop(0)
            solutions = self._extend(pattern, solutions)
            bound.update(pattern.variables())
            if not solutions:
                return []
        return solutions

    def _extend(self, pattern: ast.TriplePattern,
                solutions: list[Solution]) -> list[Solution]:
        extended: list[Solution] = []
        for solution in solutions:
            subject = _substitute(pattern.subject, solution)
            predicate = pattern.predicate
            obj = _substitute(pattern.object, solution)
            if isinstance(predicate, ast.Variable):
                bound_predicate = solution.get(predicate)
                for triple in self.store.triples(
                        subject, bound_predicate, obj):
                    candidate = dict(solution)
                    if self._unify(pattern, triple.subject,
                                   triple.predicate, triple.object,
                                   candidate):
                        extended.append(candidate)
            elif isinstance(predicate, (ast.Path,)):
                for s_term, o_term in eval_path(
                        self.store, subject, predicate, obj):
                    candidate = dict(solution)
                    if self._unify(pattern, s_term, None, o_term, candidate):
                        extended.append(candidate)
            else:
                for triple in self.store.triples(subject, predicate, obj):
                    candidate = dict(solution)
                    if self._unify(pattern, triple.subject,
                                   triple.predicate, triple.object,
                                   candidate):
                        extended.append(candidate)
        return extended

    @staticmethod
    def _unify(pattern: ast.TriplePattern, subject: Term,
               predicate: Term | None, obj: Term,
               solution: Solution) -> bool:
        pairs = [(pattern.subject, subject), (pattern.object, obj)]
        if predicate is not None:
            pairs.append((pattern.predicate, predicate))
        for position, value in pairs:
            if isinstance(position, ast.Variable):
                existing = solution.get(position)
                if existing is None:
                    solution[position] = value
                elif existing != value:
                    return False
        return True

    def _eval_bind(self, bind: ast.Bind,
                   solutions: list[Solution]) -> list[Solution]:
        results: list[Solution] = []
        for solution in solutions:
            if bind.variable in solution:
                raise SparqlEvalError(
                    f"BIND would rebind {bind.variable.n3()}")
            candidate = dict(solution)
            try:
                value = evaluate(bind.expression, solution)
                candidate[bind.variable] = (
                    value if is_term(value)
                    or hasattr(value, "n3")
                    else term_from_python(value))
            except FilterError:
                pass  # BIND errors leave the variable unbound.
            results.append(candidate)
        return results

    def _eval_optional(self, group: ast.GroupPattern,
                       solutions: list[Solution]) -> list[Solution]:
        results: list[Solution] = []
        for solution in solutions:
            matches = self._eval_group(group, [solution])
            if matches:
                results.extend(matches)
            else:
                results.append(solution)
        return results


def _substitute(position, solution: Solution):
    if isinstance(position, ast.Variable):
        return solution.get(position)
    return position


def _pattern_boundness(pattern: ast.TriplePattern,
                       bound: set[ast.Variable]) -> int:
    score = 0
    for position in (pattern.subject, pattern.predicate, pattern.object):
        if not isinstance(position, ast.Variable) or position in bound:
            score += 1
    return score


class SparqlEngine:
    """A SELECT-only front end binding a store to the parser and the
    set-at-a-time :class:`Evaluator`."""

    def __init__(self, store: TripleStore) -> None:
        self.store = store

    def query(self, text: str | ast.SelectQuery) -> SparqlResults:
        parsed = parse_sparql(text) if isinstance(text, str) else text
        return Evaluator(self.store).select(parsed)

    def stream(self, text: str | ast.SelectQuery) -> Iterator[Solution]:
        """Generator of :meth:`query`'s rows, one dict per row."""
        yield from self.query(text)
