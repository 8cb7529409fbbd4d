"""Recursive-descent SQL parser producing :mod:`repro.relational.ast` nodes.

Supported statements: SELECT (with joins, subqueries, grouping, set
operations), INSERT (VALUES and SELECT forms), UPDATE, DELETE,
CREATE/DROP TABLE, CREATE/DROP INDEX.
"""

from __future__ import annotations

from . import ast
from .errors import NotSupportedError, SqlSyntaxError
from .lexer import Token, tokenize

_COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")


class SqlParser:
    """One-shot parser over a token stream.

    *first_param* is the index the first ``?`` placeholder gets (each
    next one counts up, in text order); ``None`` rejects placeholders,
    which only a prepared statement has values for.
    """

    def __init__(self, text: str, first_param: int | None = None) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        #: The index the next ``?`` gets: after parsing, one past the last.
        self.next_param = first_param

    # -- token helpers -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _next(self) -> Token:
        token = self.tokens[self.index]
        if token.type != "EOF":
            self.index += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> SqlSyntaxError:
        token = token or self._peek()
        return SqlSyntaxError(message, token.position, token.line, token.column)

    def _accept_keyword(self, *names: str) -> Token | None:
        if self._peek().is_keyword(*names):
            return self._next()
        return None

    def _expect_keyword(self, *names: str) -> Token:
        token = self._accept_keyword(*names)
        if token is None:
            expected = " or ".join(names)
            raise self._error(
                f"expected {expected}, found {self._peek().describe()}")
        return token

    def _accept_op(self, *ops: str) -> Token | None:
        if self._peek().is_op(*ops):
            return self._next()
        return None

    def _expect_op(self, *ops: str) -> Token:
        token = self._accept_op(*ops)
        if token is None:
            expected = " or ".join(repr(op) for op in ops)
            raise self._error(
                f"expected {expected}, found {self._peek().describe()}")
        return token

    def _expect_identifier(self, what: str = "identifier") -> str:
        token = self._peek()
        if token.type == "IDENT":
            self._next()
            return str(token.value)
        raise self._error(f"expected {what}, found {token.describe()}")

    def _at_end(self) -> bool:
        return self._peek().type == "EOF"

    # -- entry points ----------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        statement = self._statement()
        self._accept_op(";")
        if not self._at_end():
            raise self._error(
                f"unexpected trailing input {self._peek().describe()}")
        return statement

    def parse_statements(self) -> list[ast.Statement]:
        statements: list[ast.Statement] = []
        while not self._at_end():
            statements.append(self._statement())
            while self._accept_op(";"):
                pass
        return statements

    def parse_expression(self) -> ast.Expr:
        expr = self._expr()
        if not self._at_end():
            raise self._error(
                f"unexpected trailing input {self._peek().describe()}")
        return expr

    # -- statements -------------------------------------------------------------

    def _statement(self) -> ast.Statement:
        token = self._peek()
        if token.is_keyword("SELECT") or token.is_op("("):
            return self._select_query()
        if token.is_keyword("INSERT"):
            return self._insert()
        if token.is_keyword("UPDATE"):
            return self._update()
        if token.is_keyword("DELETE"):
            return self._delete()
        if token.is_keyword("CREATE"):
            return self._create()
        if token.is_keyword("DROP"):
            return self._drop()
        if token.is_keyword("ANALYZE"):
            return self._analyze()
        raise self._error(f"expected a statement, found {token.describe()}")

    def _analyze(self) -> ast.AnalyzeStmt:
        self._expect_keyword("ANALYZE")
        table = None
        if self._peek().type == "IDENT":
            table = self._expect_identifier("table name")
        return ast.AnalyzeStmt(table)

    # -- SELECT ------------------------------------------------------------------

    def _select_query(self) -> ast.SelectQuery:
        core = self._select_core_or_parens()
        compounds: list[tuple[str, ast.SelectCore]] = []
        while True:
            if self._accept_keyword("UNION"):
                op = "UNION ALL" if self._accept_keyword("ALL") else "UNION"
            elif self._accept_keyword("INTERSECT"):
                op = "INTERSECT"
            elif self._accept_keyword("EXCEPT"):
                op = "EXCEPT"
            else:
                break
            compounds.append((op, self._select_core_or_parens()))
        query = ast.SelectQuery(core=core, compounds=compounds)
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            query.order_by = self._order_items()
        if self._accept_keyword("LIMIT"):
            query.limit = self._expr()
        if self._accept_keyword("OFFSET"):
            query.offset = self._expr()
        return query

    def _select_core_or_parens(self) -> ast.SelectCore:
        if self._accept_op("("):
            # Parenthesised core inside a compound; nested compounds are
            # flattened by recursive descent only when they carry no
            # ORDER/LIMIT of their own.
            inner = self._select_query()
            self._expect_op(")")
            if inner.is_compound or inner.order_by or inner.limit is not None:
                raise NotSupportedError(
                    "parenthesised compound queries with ORDER/LIMIT are "
                    "not supported inside set operations")
            return inner.core
        return self._select_core()

    def _select_core(self) -> ast.SelectCore:
        self._expect_keyword("SELECT")
        core = ast.SelectCore()
        if self._accept_keyword("DISTINCT"):
            core.distinct = True
        else:
            self._accept_keyword("ALL")
        core.items = [self._select_item()]
        while self._accept_op(","):
            core.items.append(self._select_item())
        if self._accept_keyword("FROM"):
            core.from_clause = self._from_clause()
        if self._accept_keyword("WHERE"):
            core.where = self._expr()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            core.group_by = [self._expr()]
            while self._accept_op(","):
                core.group_by.append(self._expr())
        if self._accept_keyword("HAVING"):
            core.having = self._expr()
        return core

    def _select_item(self) -> ast.SelectItem:
        token = self._peek()
        if token.is_op("*"):
            self._next()
            return ast.SelectItem(ast.Star())
        if (token.type == "IDENT" and self._peek(1).is_op(".")
                and self._peek(2).is_op("*")):
            qualifier = self._expect_identifier()
            self._expect_op(".")
            self._expect_op("*")
            return ast.SelectItem(ast.Star(qualifier))
        expr = self._expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("alias")
        elif self._peek().type == "IDENT":
            alias = self._expect_identifier()
        return ast.SelectItem(expr, alias)

    def _order_items(self) -> list[ast.OrderItem]:
        items = [self._order_item()]
        while self._accept_op(","):
            items.append(self._order_item())
        return items

    def _order_item(self) -> ast.OrderItem:
        expr = self._expr()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr, descending)

    # -- FROM --------------------------------------------------------------------

    def _from_clause(self) -> ast.TableExpr:
        left = self._join_tree()
        while self._accept_op(","):
            right = self._join_tree()
            left = ast.Join("CROSS", left, right, None)
        return left

    def _join_tree(self) -> ast.TableExpr:
        left = self._table_primary()
        while True:
            if self._accept_keyword("CROSS"):
                self._expect_keyword("JOIN")
                right = self._table_primary()
                left = ast.Join("CROSS", left, right, None)
                continue
            join_type = None
            if self._peek().is_keyword("JOIN"):
                self._next()
                join_type = "INNER"
            elif self._peek().is_keyword("INNER"):
                self._next()
                self._expect_keyword("JOIN")
                join_type = "INNER"
            elif self._peek().is_keyword("LEFT"):
                self._next()
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
                join_type = "LEFT"
            elif self._peek().is_keyword("RIGHT", "FULL"):
                raise NotSupportedError(
                    f"{self._peek().value} joins are not supported; "
                    "rewrite with LEFT JOIN")
            if join_type is None:
                return left
            right = self._table_primary()
            self._expect_keyword("ON")
            condition = self._expr()
            left = ast.Join(join_type, left, right, condition)

    def _table_primary(self) -> ast.TableExpr:
        if self._accept_op("("):
            if self._peek().is_keyword("SELECT"):
                query = self._select_query()
                self._expect_op(")")
                self._accept_keyword("AS")
                alias = self._expect_identifier("subquery alias")
                return ast.SubqueryRef(query, alias)
            inner = self._from_clause()
            self._expect_op(")")
            return inner
        name = self._expect_identifier("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("alias")
        elif self._peek().type == "IDENT":
            alias = self._expect_identifier()
        return ast.TableRef(name, alias)

    # -- INSERT / UPDATE / DELETE ---------------------------------------------------

    def _insert(self) -> ast.InsertStmt:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_identifier("table name")
        columns = None
        if self._peek().is_op("(") and self._looks_like_column_list():
            self._expect_op("(")
            columns = [self._expect_identifier("column name")]
            while self._accept_op(","):
                columns.append(self._expect_identifier("column name"))
            self._expect_op(")")
        if self._accept_keyword("VALUES"):
            rows = [self._value_row()]
            while self._accept_op(","):
                rows.append(self._value_row())
            return ast.InsertStmt(table, columns, rows=rows)
        if self._peek().is_keyword("SELECT") or self._peek().is_op("("):
            return ast.InsertStmt(table, columns, query=self._select_query())
        raise self._error("expected VALUES or SELECT in INSERT")

    def _looks_like_column_list(self) -> bool:
        """Distinguish ``INSERT INTO t (a, b) VALUES`` from
        ``INSERT INTO t (SELECT ...)``."""
        return not self._peek(1).is_keyword("SELECT")

    def _value_row(self) -> list[ast.Expr]:
        self._expect_op("(")
        row = [self._expr()]
        while self._accept_op(","):
            row.append(self._expr())
        self._expect_op(")")
        return row

    def _update(self) -> ast.UpdateStmt:
        self._expect_keyword("UPDATE")
        table = self._expect_identifier("table name")
        self._expect_keyword("SET")
        assignments = [self._assignment()]
        while self._accept_op(","):
            assignments.append(self._assignment())
        where = None
        if self._accept_keyword("WHERE"):
            where = self._expr()
        return ast.UpdateStmt(table, assignments, where)

    def _assignment(self) -> tuple[str, ast.Expr]:
        column = self._expect_identifier("column name")
        self._expect_op("=")
        return column, self._expr()

    def _delete(self) -> ast.DeleteStmt:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_identifier("table name")
        where = None
        if self._accept_keyword("WHERE"):
            where = self._expr()
        return ast.DeleteStmt(table, where)

    # -- CREATE / DROP ---------------------------------------------------------------

    def _create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        unique = bool(self._accept_keyword("UNIQUE"))
        if self._accept_keyword("TABLE"):
            if unique:
                raise self._error("UNIQUE does not apply to CREATE TABLE")
            return self._create_table()
        if self._accept_keyword("INDEX"):
            return self._create_index(unique)
        raise self._error("expected TABLE or INDEX after CREATE")

    def _create_table(self) -> ast.CreateTableStmt:
        if_not_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            if_not_exists = True
        name = self._expect_identifier("table name")
        self._expect_op("(")
        columns = [self._column_def()]
        while self._accept_op(","):
            columns.append(self._column_def())
        self._expect_op(")")
        return ast.CreateTableStmt(name, columns, if_not_exists)

    def _column_def(self) -> ast.ColumnDef:
        name = self._expect_identifier("column name")
        token = self._peek()
        if token.type == "IDENT":
            type_name = self._expect_identifier("type name")
        elif token.type == "KEYWORD":
            # Allow type names that collide with keywords (none currently).
            type_name = str(self._next().value)
        else:
            raise self._error("expected a type name")
        if self._accept_op("("):
            # Swallow length arguments such as VARCHAR(60).
            while not self._peek().is_op(")"):
                self._next()
            self._expect_op(")")
        column = ast.ColumnDef(name, type_name)
        while True:
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                column.not_null = True
            elif self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                column.primary_key = True
            elif self._accept_keyword("UNIQUE"):
                column.unique = True
            elif self._accept_keyword("DEFAULT"):
                column.default = self._expr()
            else:
                return column

    def _create_index(self, unique: bool) -> ast.CreateIndexStmt:
        name = self._expect_identifier("index name")
        self._expect_keyword("ON")
        table = self._expect_identifier("table name")
        self._expect_op("(")
        columns = [self._expect_identifier("column name")]
        while self._accept_op(","):
            columns.append(self._expect_identifier("column name"))
        self._expect_op(")")
        kind = "hash"
        if self._accept_keyword("USING"):
            kind = self._expect_identifier("index kind").lower()
        return ast.CreateIndexStmt(name, table, columns, unique, kind)

    def _drop(self) -> ast.Statement:
        self._expect_keyword("DROP")
        if self._accept_keyword("TABLE"):
            if_exists = self._if_exists()
            name = self._expect_identifier("table name")
            return ast.DropTableStmt(name, if_exists)
        if self._accept_keyword("INDEX"):
            if_exists = self._if_exists()
            name = self._expect_identifier("index name")
            return ast.DropIndexStmt(name, if_exists)
        raise self._error("expected TABLE or INDEX after DROP")

    def _if_exists(self) -> bool:
        if self._accept_keyword("IF"):
            self._expect_keyword("EXISTS")
            return True
        return False

    # -- expressions -------------------------------------------------------------------

    def _expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._not_expr())
        return self._predicate()

    def _predicate(self) -> ast.Expr:
        left = self._additive()
        token = self._peek()
        if token.is_op(*_COMPARISON_OPS):
            op = str(self._next().value)
            return ast.BinaryOp(op, left, self._additive())
        if token.is_keyword("IS"):
            self._next()
            negated = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated)
        negated = bool(self._accept_keyword("NOT"))
        token = self._peek()
        if token.is_keyword("LIKE"):
            self._next()
            return ast.Like(left, self._additive(), negated)
        if token.is_keyword("BETWEEN"):
            self._next()
            low = self._additive()
            self._expect_keyword("AND")
            return ast.Between(left, low, self._additive(), negated)
        if token.is_keyword("IN"):
            self._next()
            return self._in_rest(left, negated)
        if negated:
            raise self._error("expected LIKE, BETWEEN or IN after NOT")
        return left

    def _in_rest(self, operand: ast.Expr, negated: bool) -> ast.Expr:
        self._expect_op("(")
        if self._peek().is_keyword("SELECT"):
            query = self._select_query()
            self._expect_op(")")
            return ast.InSubquery(operand, query, negated)
        items = []
        if not self._peek().is_op(")"):
            items.append(self._expr())
            while self._accept_op(","):
                items.append(self._expr())
        self._expect_op(")")
        return ast.InList(operand, items, negated)

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.is_op("+", "-", "||"):
                op = str(self._next().value)
                left = ast.BinaryOp(op, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            token = self._peek()
            if token.is_op("*", "/", "%"):
                op = str(self._next().value)
                left = ast.BinaryOp(op, left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Expr:
        token = self._peek()
        if token.is_op("-", "+"):
            self._next()
            return ast.UnaryOp(str(token.value), self._unary())
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self._peek()
        if token.type == "NUMBER" or token.type == "STRING":
            self._next()
            return ast.Literal(token.value)
        if token.is_keyword("NULL"):
            self._next()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self._next()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._next()
            return ast.Literal(False)
        if token.type == "PARAM":
            if self.next_param is None:
                raise self._error("'?' parameters are only accepted by "
                                  "prepared statements")
            self._next()
            self.next_param += 1
            return ast.Param(self.next_param - 1)
        if token.is_keyword("CASE"):
            return self._case()
        if token.is_keyword("CAST"):
            return self._cast()
        if token.is_keyword("EXISTS"):
            self._next()
            self._expect_op("(")
            query = self._select_query()
            self._expect_op(")")
            return ast.Exists(query)
        if token.is_op("("):
            self._next()
            if self._peek().is_keyword("SELECT"):
                query = self._select_query()
                self._expect_op(")")
                return ast.ScalarSubquery(query)
            expr = self._expr()
            self._expect_op(")")
            return expr
        if token.type == "IDENT":
            return self._identifier_expr()
        if token.is_keyword("LEFT", "RIGHT"):
            # LEFT/RIGHT are also string functions; allow the call form.
            if self._peek(1).is_op("("):
                name = str(self._next().value)
                return self._function_call(name)
        raise self._error(f"unexpected {token.describe()} in expression")

    def _identifier_expr(self) -> ast.Expr:
        name = self._expect_identifier()
        if self._peek().is_op("("):
            return self._function_call(name)
        if self._accept_op("."):
            column = self._expect_identifier("column name")
            return ast.ColumnRef(column, qualifier=name)
        return ast.ColumnRef(name)

    def _function_call(self, name: str) -> ast.Expr:
        self._expect_op("(")
        if self._accept_op("*"):
            self._expect_op(")")
            return ast.FunctionCall(name, star=True)
        distinct = bool(self._accept_keyword("DISTINCT"))
        args: list[ast.Expr] = []
        if not self._peek().is_op(")"):
            args.append(self._expr())
            while self._accept_op(","):
                args.append(self._expr())
        self._expect_op(")")
        return ast.FunctionCall(name, args, distinct=distinct)

    def _case(self) -> ast.Expr:
        self._expect_keyword("CASE")
        operand = None
        if not self._peek().is_keyword("WHEN"):
            operand = self._expr()
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self._accept_keyword("WHEN"):
            condition = self._expr()
            self._expect_keyword("THEN")
            whens.append((condition, self._expr()))
        if not whens:
            raise self._error("CASE requires at least one WHEN branch")
        else_result = None
        if self._accept_keyword("ELSE"):
            else_result = self._expr()
        self._expect_keyword("END")
        return ast.CaseExpr(operand, whens, else_result)

    def _cast(self) -> ast.Expr:
        self._expect_keyword("CAST")
        self._expect_op("(")
        operand = self._expr()
        self._expect_keyword("AS")
        token = self._peek()
        if token.type == "IDENT":
            type_name = self._expect_identifier("type name")
        else:
            type_name = str(self._next().value)
        self._expect_op(")")
        return ast.Cast(operand, type_name)


def parse_sql(text: str) -> ast.Statement:
    """Parse a single SQL statement (no ``?``: plain text has no values
    to bind)."""
    return SqlParser(text).parse_statement()


def parse_script(text: str) -> list[ast.Statement]:
    """Parse a semicolon-separated sequence of statements."""
    return SqlParser(text).parse_statements()


def parse_expr(text: str) -> ast.Expr:
    """Parse a standalone SQL expression (used by SESQL condition tags)."""
    return SqlParser(text).parse_expression()
