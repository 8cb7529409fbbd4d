"""Render AST nodes back to SQL text.

The SESQL engine rewrites a statement's tagged conditions as an AST and
renders it with this module, so the query that runs on the databank is
observable as plain SQL (useful in logs, tests and ``explain()``).

A ``?`` placeholder renders as written unless the caller says how
(*param*): :func:`bound_to` shows the values an execution bound — the
SQL that ran, rendered only when someone reads it — and :func:`as_slot`
the slot a built tree reads (``$1``), which is how operator labels show
it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from . import ast
from .errors import NotSupportedError

#: How a ``?`` renders: given its node, its text.
ParamText = Callable[[ast.Param], str]


def _as_written(_node: ast.Param) -> str:
    return "?"


def as_slot(node: ast.Param) -> str:
    """A ``?`` as the slot a built tree reads: ``$1``, ``$2``, ..."""
    return f"${node.index + 1}"


def bound_to(values: Sequence | None) -> ParamText:
    """Each ``?`` as the literal of its value in *values* (as written
    when there are none)."""
    if values is None:
        return _as_written
    return lambda node: render_literal(values[node.index])


def quote_identifier(name: str) -> str:
    """Quote an identifier when it is not a plain lowercase-safe word."""
    if name.isidentifier() and not name.upper() in _RESERVED:
        return name
    return '"' + name.replace('"', '""') + '"'


_RESERVED = frozenset("""
    SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET AS DISTINCT ALL
    AND OR NOT IN IS NULL LIKE BETWEEN EXISTS CASE WHEN THEN ELSE END CAST
    JOIN INNER LEFT RIGHT FULL OUTER CROSS ON UNION INTERSECT EXCEPT
    INSERT INTO VALUES UPDATE SET DELETE CREATE TABLE DROP INDEX UNIQUE
    PRIMARY KEY DEFAULT IF TRUE FALSE ASC DESC USING ANALYZE
""".split())


def render_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise NotSupportedError(f"cannot render literal {value!r}")


def render_expr(expr: ast.Expr, param: ParamText = _as_written) -> str:
    if isinstance(expr, ast.Literal):
        return render_literal(expr.value)
    if isinstance(expr, ast.ColumnRef):
        if expr.qualifier:
            return (f"{quote_identifier(expr.qualifier)}."
                    f"{quote_identifier(expr.name)}")
        return quote_identifier(expr.name)
    if isinstance(expr, ast.Star):
        if expr.qualifier:
            return f"{quote_identifier(expr.qualifier)}.*"
        return "*"
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return f"NOT ({render_expr(expr.operand, param)})"
        return f"{expr.op}({render_expr(expr.operand, param)})"
    if isinstance(expr, ast.BinaryOp):
        return (f"({render_expr(expr.left, param)} {expr.op} "
                f"{render_expr(expr.right, param)})")
    if isinstance(expr, ast.IsNull):
        keyword = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({render_expr(expr.operand, param)} {keyword})"
    if isinstance(expr, ast.Like):
        keyword = "NOT LIKE" if expr.negated else "LIKE"
        return (f"({render_expr(expr.operand, param)} {keyword} "
                f"{render_expr(expr.pattern, param)})")
    if isinstance(expr, ast.InList):
        keyword = "NOT IN" if expr.negated else "IN"
        items = ", ".join(render_expr(item, param) for item in expr.items)
        return f"({render_expr(expr.operand, param)} {keyword} ({items}))"
    if isinstance(expr, ast.InSubquery):
        keyword = "NOT IN" if expr.negated else "IN"
        return (f"({render_expr(expr.operand, param)} {keyword} "
                f"({render_query(expr.query, param)}))")
    if isinstance(expr, ast.Exists):
        keyword = "NOT EXISTS" if expr.negated else "EXISTS"
        return f"{keyword} ({render_query(expr.query, param)})"
    if isinstance(expr, ast.Between):
        keyword = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (f"({render_expr(expr.operand, param)} {keyword} "
                f"{render_expr(expr.low, param)} AND "
                f"{render_expr(expr.high, param)})")
    if isinstance(expr, ast.FunctionCall):
        if expr.star:
            return f"{expr.name.upper()}(*)"
        prefix = "DISTINCT " if expr.distinct else ""
        args = ", ".join(render_expr(arg, param) for arg in expr.args)
        return f"{expr.name.upper()}({prefix}{args})"
    if isinstance(expr, ast.CaseExpr):
        pieces = ["CASE"]
        if expr.operand is not None:
            pieces.append(render_expr(expr.operand, param))
        for condition, result in expr.whens:
            pieces.append(f"WHEN {render_expr(condition, param)} "
                          f"THEN {render_expr(result, param)}")
        if expr.else_result is not None:
            pieces.append(f"ELSE {render_expr(expr.else_result, param)}")
        pieces.append("END")
        return " ".join(pieces)
    if isinstance(expr, ast.Cast):
        return (f"CAST({render_expr(expr.operand, param)} "
                f"AS {expr.type_name})")
    if isinstance(expr, ast.ScalarSubquery):
        return f"({render_query(expr.query, param)})"
    if isinstance(expr, ast.Param):
        return param(expr)
    raise NotSupportedError(f"cannot render {type(expr).__name__}")


def render_table_expr(table_expr: ast.TableExpr,
                      param: ParamText = _as_written) -> str:
    if isinstance(table_expr, ast.TableRef):
        text = quote_identifier(table_expr.name)
        if table_expr.alias:
            text += f" AS {quote_identifier(table_expr.alias)}"
        return text
    if isinstance(table_expr, ast.SubqueryRef):
        return (f"({render_query(table_expr.query, param)}) AS "
                f"{quote_identifier(table_expr.alias)}")
    if isinstance(table_expr, ast.Join):
        left = render_table_expr(table_expr.left, param)
        right = render_table_expr(table_expr.right, param)
        if table_expr.join_type == "CROSS" or table_expr.condition is None:
            return f"{left} CROSS JOIN {right}"
        keyword = ("LEFT JOIN" if table_expr.join_type == "LEFT"
                   else "JOIN")
        return (f"{left} {keyword} {right} "
                f"ON {render_expr(table_expr.condition, param)}")
    raise NotSupportedError(
        f"cannot render {type(table_expr).__name__} in FROM")


def render_core(core: ast.SelectCore,
                param: ParamText = _as_written) -> str:
    pieces = ["SELECT"]
    if core.distinct:
        pieces.append("DISTINCT")
    rendered_items = []
    for item in core.items:
        text = render_expr(item.expr, param)
        if item.alias:
            text += f" AS {quote_identifier(item.alias)}"
        rendered_items.append(text)
    pieces.append(", ".join(rendered_items))
    if core.from_clause is not None:
        pieces.append("FROM " + render_table_expr(core.from_clause, param))
    if core.where is not None:
        pieces.append("WHERE " + render_expr(core.where, param))
    if core.group_by:
        pieces.append("GROUP BY " + ", ".join(
            render_expr(expr, param) for expr in core.group_by))
    if core.having is not None:
        pieces.append("HAVING " + render_expr(core.having, param))
    return " ".join(pieces)


def render_query(query: ast.SelectQuery,
                 param: ParamText = _as_written) -> str:
    pieces = [render_core(query.core, param)]
    for operation, core in query.compounds:
        pieces.append(operation)
        pieces.append(render_core(core, param))
    if query.order_by:
        rendered = []
        for item in query.order_by:
            text = render_expr(item.expr, param)
            if item.descending:
                text += " DESC"
            rendered.append(text)
        pieces.append("ORDER BY " + ", ".join(rendered))
    if query.limit is not None:
        pieces.append("LIMIT " + render_expr(query.limit, param))
    if query.offset is not None:
        pieces.append("OFFSET " + render_expr(query.offset, param))
    return " ".join(pieces)


def render_statement(stmt: ast.Statement) -> str:
    if isinstance(stmt, ast.SelectQuery):
        return render_query(stmt)
    if isinstance(stmt, ast.InsertStmt):
        pieces = [f"INSERT INTO {quote_identifier(stmt.table)}"]
        if stmt.columns:
            pieces.append(
                "(" + ", ".join(quote_identifier(c) for c in stmt.columns)
                + ")")
        if stmt.rows is not None:
            rows = ", ".join(
                "(" + ", ".join(render_expr(value) for value in row) + ")"
                for row in stmt.rows)
            pieces.append("VALUES " + rows)
        else:
            pieces.append(render_query(stmt.query))
        return " ".join(pieces)
    if isinstance(stmt, ast.UpdateStmt):
        assignments = ", ".join(
            f"{quote_identifier(column)} = {render_expr(value)}"
            for column, value in stmt.assignments)
        text = f"UPDATE {quote_identifier(stmt.table)} SET {assignments}"
        if stmt.where is not None:
            text += " WHERE " + render_expr(stmt.where)
        return text
    if isinstance(stmt, ast.DeleteStmt):
        text = f"DELETE FROM {quote_identifier(stmt.table)}"
        if stmt.where is not None:
            text += " WHERE " + render_expr(stmt.where)
        return text
    if isinstance(stmt, ast.CreateTableStmt):
        columns = []
        for column in stmt.columns:
            piece = f"{quote_identifier(column.name)} {column.type_name}"
            if column.primary_key:
                piece += " PRIMARY KEY"
            if column.not_null and not column.primary_key:
                piece += " NOT NULL"
            if column.unique:
                piece += " UNIQUE"
            if column.default is not None:
                piece += " DEFAULT " + render_expr(column.default)
            columns.append(piece)
        exists = "IF NOT EXISTS " if stmt.if_not_exists else ""
        return (f"CREATE TABLE {exists}{quote_identifier(stmt.name)} "
                f"({', '.join(columns)})")
    if isinstance(stmt, ast.DropTableStmt):
        exists = "IF EXISTS " if stmt.if_exists else ""
        return f"DROP TABLE {exists}{quote_identifier(stmt.name)}"
    if isinstance(stmt, ast.CreateIndexStmt):
        unique = "UNIQUE " if stmt.unique else ""
        columns = ", ".join(quote_identifier(c) for c in stmt.columns)
        text = (f"CREATE {unique}INDEX {quote_identifier(stmt.name)} "
                f"ON {quote_identifier(stmt.table)} ({columns})")
        if stmt.kind != "hash":
            text += f" USING {stmt.kind}"
        return text
    if isinstance(stmt, ast.DropIndexStmt):
        exists = "IF EXISTS " if stmt.if_exists else ""
        return f"DROP INDEX {exists}{quote_identifier(stmt.name)}"
    if isinstance(stmt, ast.AnalyzeStmt):
        if stmt.table is None:
            return "ANALYZE"
        return f"ANALYZE {quote_identifier(stmt.table)}"
    raise NotSupportedError(f"cannot render {type(stmt).__name__}")
