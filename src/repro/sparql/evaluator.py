"""SPARQL query evaluation over a TripleStore.

Two engines share one semantics:

* :class:`Evaluator` — the production engine.  Solutions flow between
  operators as **id-encoded batches** (tuples of dictionary ids, one
  column per variable), basic graph patterns are joined set-at-a-time
  with hash joins on the shared variables, and the join order comes
  from :mod:`repro.sparql.planner`'s selectivity estimates over the
  store's O(1) statistics.  ``Term`` objects materialize only at the
  :class:`SparqlResults` boundary (or inside FILTER/BIND expressions),
  mirroring the late-materialization discipline of column stores — and
  of the paper's personal-KB evaluation loop, where every enrichment
  pays this layer's latency.
* :class:`NaiveEvaluator` — the seed's solution-at-a-time interpreter,
  kept as the pinned baseline for the equivalence property suite and
  the E12 benchmark gate.

OPTIONAL implements left-join semantics, UNION concatenates branch
solutions, FILTERs drop solutions whose expression is not (effectively)
true — in both engines, at the same positions in the group.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator

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
    """SELECT results: ordered variables plus a list of bindings."""

    def __init__(self, variables: list[ast.Variable],
                 solutions: list[Solution]) -> None:
        self.variables = variables
        self.solutions = solutions

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)

    def var_names(self) -> list[str]:
        return [variable.name for variable in self.variables]

    def tuples(self) -> list[tuple]:
        """Rows of terms in variable order (None for unbound)."""
        return [tuple(solution.get(variable) for variable in self.variables)
                for solution in self.solutions]

    def values(self, name: str) -> list[Term | None]:
        variable = ast.Variable(name)
        return [solution.get(variable) for solution in self.solutions]

    def python_tuples(self) -> list[tuple]:
        """Rows with literals unwrapped to Python values, IRIs as strings."""
        def plain(term: Term | None) -> Any:
            if term is None:
                return None
            if isinstance(term, Literal):
                return term.value
            return str(term)
        return [tuple(plain(value) for value in row)
                for row in self.tuples()]


def _substitute(position, solution: Solution):
    if isinstance(position, ast.Variable):
        return solution.get(position)
    return position


def _initial_bound(solutions: Iterable[Solution]) -> set[ast.Variable]:
    """Variables bound anywhere in the incoming solutions.

    Pattern ordering must see the whole boundness picture: after an
    OPTIONAL the solutions are heterogeneous, and seeding from the
    first solution alone (the seed behaviour) mis-orders the join.
    """
    bound: set[ast.Variable] = set()
    for solution in solutions:
        bound.update(solution.keys())
    return bound


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


class Evaluator:
    """Set-at-a-time SPARQL evaluation (see module docstring)."""

    def __init__(self, store: TripleStore) -> None:
        self.store = store
        self.dictionary = store.dictionary
        self.stats = store.stats

    # -- public compatibility surface ----------------------------------------

    def eval_group(self, group: ast.GroupPattern,
                   seeds: Iterable[Solution]) -> list[Solution]:
        """Evaluate a group over seed solutions (dict-level API)."""
        return self._decode(self._eval_group(group, self._encode(seeds)))

    # -- encode / decode -----------------------------------------------------

    def _encode(self, seeds: Iterable[Solution]) -> _Batch:
        solutions = list(seeds)
        vars_: list = []
        index: dict = {}
        for solution in solutions:
            for variable in solution:
                if variable not in index:
                    index[variable] = len(vars_)
                    vars_.append(variable)
        intern = self.dictionary.intern
        rows = [tuple(intern(solution[variable])
                      if variable in solution else None
                      for variable in vars_)
                for solution in solutions]
        return _Batch(vars_, rows)

    def _decode(self, batch: _Batch) -> list[Solution]:
        terms = self.dictionary.terms
        columns = [(i, var) for i, var in enumerate(batch.vars)
                   if isinstance(var, ast.Variable)]
        out: list[Solution] = []
        for row in batch.rows:
            solution: Solution = {}
            for i, var in columns:
                value = row[i]
                if value is not None:
                    solution[var] = terms[value]
            out.append(solution)
        return out

    def _expr_columns(self, expression: ast.Expr,
                      batch: _Batch) -> list[tuple[int, ast.Variable]]:
        """(column, variable) pairs the expression can actually read —
        FILTER/BIND rows materialize only these, not the whole row."""
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

        visit(expression)
        return [(batch.index[var], var) for var in referenced
                if var in batch.index]

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
        # the first row (see _initial_bound / planner.order_bgp).
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
                rows = bucket if bucket is not None else buckets.get(
                    tuple(triple[p] for p in key_pos))
                if not rows:
                    continue
                if fill_pairs:
                    tail = tuple(triple[p] for p in append_pos)
                    for row in rows:
                        new = list(row + pad)
                        for out_i, p in fill_pairs:
                            new[out_i] = triple[p]
                        if tail:
                            new[-len(tail):] = tail
                        new_rows.append(tuple(new))
                elif append_pos:
                    tail = tuple(triple[p] for p in append_pos)
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
        columns = self._expr_columns(expression, batch)
        terms = self.dictionary.terms
        kept = []
        for row in batch.rows:
            solution: Solution = {}
            for i, var in columns:
                value = row[i]
                if value is not None:
                    solution[var] = terms[value]
            if evaluate_boolean(expression, solution):
                kept.append(row)
        return _Batch(batch.vars, kept)

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
        columns = self._expr_columns(bind.expression, batch)
        terms = self.dictionary.terms
        new_rows: list[tuple] = []
        for row in batch.rows:
            if existing is not None and row[existing] is not None:
                raise SparqlEvalError(
                    f"BIND would rebind {variable.n3()}")
            value_id = None
            try:
                solution: Solution = {}
                for i, var in columns:
                    value = row[i]
                    if value is not None:
                        solution[var] = terms[value]
                value = evaluate(bind.expression, solution)
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

    # -- query forms ------------------------------------------------------------------

    def _where_batch(self, where: ast.GroupPattern) -> _Batch:
        return self._eval_group(where, _Batch([], [()]))

    def select(self, query: ast.SelectQuery) -> SparqlResults:
        batch = self._where_batch(query.where)
        variables = self._select_variables(query)
        if query.order_by:
            # ORDER BY may reference unprojected variables: decode the
            # full solutions once and sort over them.
            solutions = self._decode(batch)
            projected = _order(solutions, _project(solutions, variables),
                               query.order_by)
        else:
            # Fused decode + projection: one dict per row, projected
            # columns only, terms materialized at the last moment.
            terms = self.dictionary.terms
            columns = [(batch.index[var], var) for var in variables
                       if var in batch.index]
            projected = []
            for row in batch.rows:
                solution: Solution = {}
                for i, var in columns:
                    value = row[i]
                    if value is not None:
                        solution[var] = terms[value]
                projected.append(solution)
        if query.distinct:
            projected = _distinct(projected)
        start = query.offset or 0
        end = (start + query.limit) if query.limit is not None else None
        projected = projected[start:end]
        return SparqlResults(variables, projected)

    def iter_select(self, query: ast.SelectQuery) -> Iterator[Solution]:
        """Generator-based solution production for SELECT.

        Pattern evaluation itself is set-at-a-time — the id-encoded
        batch for the WHERE clause is computed up front — but **term
        materialization and projection are lazy**: dicts of ``Term``
        objects are built one row at a time as the consumer pulls, and
        LIMIT/OFFSET bound how many rows ever decode.  That per-row
        hand-off is what lets ``Session.stream`` fold KB-bound
        solutions page-at-a-time the way PR 3's cursors fold SQL rows
        (the enrichment pipeline consumes extractions eagerly either
        way — they are planning inputs).
        """
        if query.order_by or query.distinct:
            yield from self.select(query).solutions
            return
        batch = self._where_batch(query.where)
        variables = self._select_variables(query)
        terms = self.dictionary.terms
        columns = [(batch.index[var], var) for var in variables
                   if var in batch.index]
        start = query.offset or 0
        end = (start + query.limit) if query.limit is not None else None
        for row in itertools.islice(batch.rows, start, end):
            solution: Solution = {}
            for i, var in columns:
                value = row[i]
                if value is not None:
                    solution[var] = terms[value]
            yield solution

    def _select_variables(self,
                          query: ast.SelectQuery) -> list[ast.Variable]:
        if query.variables is None:
            return sorted(ast.group_variables(query.where),
                          key=lambda variable: variable.name)
        return query.variables

    def ask(self, query: ast.AskQuery) -> bool:
        return bool(self._where_batch(query.where).rows)

    def construct(self, query: ast.ConstructQuery) -> TripleStore:
        result = TripleStore()
        for solution in self._decode(self._where_batch(query.where)):
            for pattern in query.template:
                subject = _substitute(pattern.subject, solution)
                predicate = _substitute(pattern.predicate, solution)
                obj = _substitute(pattern.object, solution)
                if subject is None or predicate is None or obj is None:
                    continue  # incomplete instantiation is skipped
                result.add(subject, predicate, obj)
        return result


# -- shared solution modifiers (both engines) --------------------------------


def _project(solutions: list[Solution],
             variables: list[ast.Variable]) -> list[Solution]:
    return [
        {variable: solution[variable]
         for variable in variables if variable in solution}
        for solution in solutions
    ]


def _order(solutions: list[Solution], projected: list[Solution],
           order_by: list[tuple[ast.Expr, bool]]) -> list[Solution]:
    def order_key(solution: Solution):
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
    # Order over full solutions so ORDER BY can use any variable.
    paired = sorted(zip(solutions, projected),
                    key=lambda pair: order_key(pair[0]))
    return [projection for _solution, projection in paired]


def _distinct(projected: list[Solution]) -> list[Solution]:
    seen: set[tuple] = set()
    deduped: list[Solution] = []
    for solution in projected:
        key = tuple(sorted(
            (variable.name, repr(value))
            for variable, value in solution.items()))
        if key not in seen:
            seen.add(key)
            deduped.append(solution)
    return deduped


class NaiveEvaluator:
    """The seed solution-at-a-time interpreter (pinned baseline).

    Basic graph patterns are joined pattern-by-pattern, probing the
    store once per intermediate solution.  Kept verbatim (modulo the
    heterogeneous-boundness ordering fix shared with the planner) so
    the property suite can assert new-path/old-path equivalence and the
    E12 benchmark can gate the set-at-a-time speedup against it.
    """

    def __init__(self, store: TripleStore) -> None:
        self.store = store

    # -- group evaluation -------------------------------------------------------

    def eval_group(self, group: ast.GroupPattern,
                   seeds: Iterable[Solution]) -> list[Solution]:
        solutions = list(seeds)
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
                    merged.extend(self.eval_group(branch, solutions))
                solutions = merged
            elif isinstance(element, ast.GroupPattern):
                solutions = self.eval_group(element, solutions)
            else:  # pragma: no cover - parser prevents this
                raise SparqlEvalError(
                    f"unknown pattern element {type(element).__name__}")
            index += 1
        return solutions

    def _eval_bgp(self, patterns: list[ast.TriplePattern],
                  solutions: list[Solution]) -> list[Solution]:
        remaining = list(patterns)
        bound = _initial_bound(solutions)
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
            matches = self.eval_group(group, [solution])
            if matches:
                results.extend(matches)
            else:
                results.append(solution)
        return results

    # -- query forms ------------------------------------------------------------------

    def select(self, query: ast.SelectQuery) -> SparqlResults:
        solutions = self.eval_group(query.where, [{}])
        if query.variables is None:
            variables = sorted(ast.group_variables(query.where),
                               key=lambda variable: variable.name)
        else:
            variables = query.variables
        projected = _project(solutions, variables)
        if query.order_by:
            projected = _order(solutions, projected, query.order_by)
        if query.distinct:
            projected = _distinct(projected)
        start = query.offset or 0
        end = (start + query.limit) if query.limit is not None else None
        projected = projected[start:end]
        return SparqlResults(variables, projected)

    def ask(self, query: ast.AskQuery) -> bool:
        return bool(self.eval_group(query.where, [{}]))

    def construct(self, query: ast.ConstructQuery) -> TripleStore:
        result = TripleStore()
        for solution in self.eval_group(query.where, [{}]):
            for pattern in query.template:
                subject = _substitute(pattern.subject, solution)
                predicate = _substitute(pattern.predicate, solution)
                obj = _substitute(pattern.object, solution)
                if subject is None or predicate is None or obj is None:
                    continue  # incomplete instantiation is skipped
                result.add(subject, predicate, obj)
        return result


def _pattern_boundness(pattern: ast.TriplePattern,
                       bound: set[ast.Variable]) -> int:
    score = 0
    for position in (pattern.subject, pattern.predicate, pattern.object):
        if not isinstance(position, ast.Variable) or position in bound:
            score += 1
    return score


class _Reversed:
    """Inverts comparison for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.key == other.key


class SparqlEngine:
    """Convenience front end binding a store to the parser and the
    set-at-a-time :class:`Evaluator` (:class:`NaiveEvaluator`, the seed
    interpreter, is the reference equivalence tests construct directly).
    """

    def __init__(self, store: TripleStore) -> None:
        self.store = store

    def query(self, text: str | ast.Query):
        """Run a query; returns SparqlResults, bool (ASK) or TripleStore
        (CONSTRUCT) depending on the query form."""
        parsed = parse_sparql(text) if isinstance(text, str) else text
        evaluator = Evaluator(self.store)
        if isinstance(parsed, ast.SelectQuery):
            return evaluator.select(parsed)
        if isinstance(parsed, ast.AskQuery):
            return evaluator.ask(parsed)
        if isinstance(parsed, ast.ConstructQuery):
            return evaluator.construct(parsed)
        raise SparqlEvalError(
            f"unsupported query form {type(parsed).__name__}")

    def stream(self, text: str | ast.Query) -> Iterator[Solution]:
        """Generator of SELECT solutions.

        Solutions decode to ``Term`` dicts lazily as the consumer
        pulls; the underlying pattern evaluation is set-at-a-time (see
        :meth:`Evaluator.iter_select`).
        """
        parsed = parse_sparql(text) if isinstance(text, str) else text
        if not isinstance(parsed, ast.SelectQuery):
            raise SparqlEvalError("stream() supports SELECT queries only")
        return Evaluator(self.store).iter_select(parsed)
