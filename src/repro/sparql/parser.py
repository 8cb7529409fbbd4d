"""Recursive-descent SPARQL parser (a SELECT subset).

SELECT is the only query form: anything else — ASK, CONSTRUCT,
DESCRIBE — is a :class:`SparqlSyntaxError` naming SELECT.  Grammar
coverage: PREFIX declarations, basic graph patterns with ``;`` and
``,`` abbreviations, FILTER, OPTIONAL, UNION, BIND .. AS, nested
groups, property paths (``^ / | * + ?``), DISTINCT, ORDER BY, LIMIT and
OFFSET.
"""

from __future__ import annotations

from ..rdf.namespace import RDF_TYPE, NamespaceManager
from ..rdf.terms import BNode, IRI, Literal
from ..rdf.turtle import _typed_literal
from . import ast
from .errors import SparqlSyntaxError
from .lexer import Token, tokenize

_BUILTINS = frozenset("""
    BOUND STR LANG DATATYPE REGEX STRSTARTS STRENDS CONTAINS LCASE UCASE
    STRLEN ABS ISIRI ISURI ISLITERAL ISBLANK SAMETERM IF COALESCE
""".split())


class SparqlParser:
    def __init__(self, text: str,
                 namespaces: NamespaceManager | None = None) -> None:
        self.tokens = tokenize(text)
        self.index = 0
        self.namespaces = namespaces or NamespaceManager()
        self._bnodes: dict[str, BNode] = {}

    # -- token plumbing ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _next(self) -> Token:
        token = self.tokens[self.index]
        if token.type != "eof":
            self.index += 1
        return token

    def _error(self, message: str) -> SparqlSyntaxError:
        return SparqlSyntaxError(message, self._peek().position)

    def _expect_word(self, *names: str) -> Token:
        if self._peek().is_word(*names):
            return self._next()
        raise self._error(
            f"expected {' or '.join(names)}, found {self._peek().describe()}")

    def _expect_punct(self, char: str) -> Token:
        if self._peek().is_punct(char):
            return self._next()
        raise self._error(
            f"expected {char!r}, found {self._peek().describe()}")

    def _accept_word(self, *names: str) -> bool:
        if self._peek().is_word(*names):
            self._next()
            return True
        return False

    def _accept_punct(self, char: str) -> bool:
        if self._peek().is_punct(char):
            self._next()
            return True
        return False

    def _at_end(self) -> bool:
        return self._peek().type == "eof"

    # -- entry point --------------------------------------------------------------

    def parse(self) -> ast.SelectQuery:
        self._prologue()
        query = self._select()
        if not self._at_end():
            raise self._error(
                f"unexpected trailing input {self._peek().describe()}")
        return query

    def _prologue(self) -> None:
        while self._peek().is_word("PREFIX", "BASE"):
            keyword = self._next()
            if str(keyword.value).upper() == "PREFIX":
                token = self._next()
                if token.type != "pname" \
                        or not str(token.value).endswith(":"):
                    raise self._error("expected prefix name")
                prefix = str(token.value)[:-1]
                iri = self._next()
                if iri.type != "iri":
                    raise self._error("expected IRI in PREFIX")
                self.namespaces.bind(prefix, str(iri.value))
            else:
                iri = self._next()
                if iri.type != "iri":
                    raise self._error("expected IRI in BASE")

    # -- SELECT ------------------------------------------------------------

    def _select(self) -> ast.SelectQuery:
        self._expect_word("SELECT")
        distinct = self._accept_word("DISTINCT")
        self._accept_word("REDUCED")
        variables: list[ast.Variable] | None
        if self._peek().is_op("*"):
            self._next()
            variables = None
        else:
            variables = []
            while self._peek().type == "var":
                variables.append(ast.Variable(str(self._next().value)))
            if not variables:
                raise self._error("expected variables or '*' after SELECT")
        self._accept_word("WHERE")
        where = self._group()
        order_by: list[tuple[ast.Expr, bool]] = []
        limit = offset = None
        if self._accept_word("ORDER"):
            self._expect_word("BY")
            order_by = self._order_conditions()
        if self._accept_word("LIMIT"):
            limit = self._integer()
        if self._accept_word("OFFSET"):
            offset = self._integer()
        return ast.SelectQuery(variables, where, distinct, order_by,
                               limit, offset)

    def _integer(self) -> int:
        token = self._next()
        if token.type != "number" or not isinstance(token.value, int):
            raise self._error("expected an integer")
        return token.value

    def _order_conditions(self) -> list[tuple[ast.Expr, bool]]:
        conditions: list[tuple[ast.Expr, bool]] = []
        while True:
            token = self._peek()
            if token.is_word("ASC", "DESC"):
                descending = str(self._next().value).upper() == "DESC"
                self._expect_punct("(")
                expr = self._expression()
                self._expect_punct(")")
                conditions.append((expr, descending))
            elif token.type == "var":
                self._next()
                conditions.append(
                    (ast.VarExpr(ast.Variable(str(token.value))), False))
            else:
                if not conditions:
                    raise self._error("expected ORDER BY condition")
                return conditions

    # -- groups ------------------------------------------------------------------------

    def _group(self) -> ast.GroupPattern:
        self._expect_punct("{")
        group = ast.GroupPattern()
        while not self._peek().is_punct("}"):
            token = self._peek()
            if token.is_punct("{"):
                inner = self._group()
                element: ast.PatternElement = inner
                if self._peek().is_word("UNION"):
                    branches = [inner]
                    while self._accept_word("UNION"):
                        branches.append(self._group())
                    element = ast.UnionPattern(branches)
                group.elements.append(element)
            elif token.is_word("FILTER"):
                self._next()
                self._expect_punct("(")
                group.elements.append(ast.Filter(self._expression()))
                self._expect_punct(")")
            elif token.is_word("OPTIONAL"):
                self._next()
                group.elements.append(
                    ast.OptionalPattern(self._group()))
            elif token.is_word("BIND"):
                self._next()
                self._expect_punct("(")
                expr = self._expression()
                self._expect_word("AS")
                var_token = self._next()
                if var_token.type != "var":
                    raise self._error("expected variable after AS")
                self._expect_punct(")")
                group.elements.append(
                    ast.Bind(expr, ast.Variable(str(var_token.value))))
            else:
                group.elements.extend(self._triples_block())
            self._accept_punct(".")
        self._expect_punct("}")
        return group

    def _triples_block(self) -> list[ast.TriplePattern]:
        subject = self._term(role="subject")
        patterns: list[ast.TriplePattern] = []
        while True:
            predicate = self._path()
            while True:
                obj = self._term(role="object")
                patterns.append(ast.TriplePattern(subject, predicate, obj))
                if not self._accept_punct(","):
                    break
            if self._accept_punct(";"):
                if self._peek().is_punct(".", "}"):
                    return patterns
                continue
            return patterns

    # -- terms -----------------------------------------------------------------------------

    def _term(self, role: str) -> ast.PatternTerm:
        token = self._next()
        if token.type == "var":
            return ast.Variable(str(token.value))
        if token.type == "iri":
            return IRI(str(token.value))
        if token.type == "pname":
            return self.namespaces.expand(str(token.value))
        if token.type == "bnode":
            name = str(token.value)
            if name not in self._bnodes:
                self._bnodes[name] = BNode(name)
            return self._bnodes[name]
        if token.type == "number":
            return Literal(token.value)
        if token.type == "string":
            return self._string_literal(str(token.value))
        if token.is_word("TRUE", "FALSE"):
            return Literal(str(token.value).lower() == "true")
        if token.is_word("A") and role == "subject":
            raise self._error("'a' is only valid as a predicate")
        raise self._error(f"expected {role}, found {token.describe()}")

    def _string_literal(self, text: str) -> Literal:
        token = self._peek()
        if token.is_op("^^"):
            self._next()
            dtype_token = self._next()
            if dtype_token.type == "iri":
                return _typed_literal(text, str(dtype_token.value))
            if dtype_token.type == "pname":
                return _typed_literal(
                    text, self.namespaces.expand(str(dtype_token.value)).value)
            raise self._error("expected datatype IRI after ^^")
        # Language tags arrive as '@' — our lexer has no '@'; accept 'word'
        # forms like "chat"@en only when the tokenizer produced an op '@'.
        return Literal(text)

    # -- property paths --------------------------------------------------------------------

    def _path(self) -> ast.PatternTerm | ast.Path:
        token = self._peek()
        if token.type == "var":
            self._next()
            return ast.Variable(str(token.value))
        path = self._path_alternative()
        return path

    def _path_alternative(self):
        parts = [self._path_sequence()]
        while self._peek().is_op("|"):
            self._next()
            parts.append(self._path_sequence())
        if len(parts) == 1:
            return parts[0]
        return ast.AlternativePath(tuple(parts))

    def _path_sequence(self):
        parts = [self._path_elt()]
        while self._peek().is_op("/"):
            self._next()
            parts.append(self._path_elt())
        if len(parts) == 1:
            return parts[0]
        return ast.SequencePath(tuple(parts))

    def _path_elt(self):
        inverse = False
        if self._peek().is_op("^"):
            self._next()
            inverse = True
        primary = self._path_primary()
        token = self._peek()
        if token.is_op("*"):
            self._next()
            primary = ast.ZeroOrMorePath(primary)
        elif token.is_op("+"):
            self._next()
            primary = ast.OneOrMorePath(primary)
        elif token.is_op("?"):
            self._next()
            primary = ast.ZeroOrOnePath(primary)
        if inverse:
            primary = ast.InversePath(primary)
        return primary

    def _path_primary(self):
        token = self._next()
        if token.type == "iri":
            return IRI(str(token.value))
        if token.type == "pname":
            return self.namespaces.expand(str(token.value))
        if token.is_word("A"):
            return RDF_TYPE
        if token.is_punct("("):
            inner = self._path_alternative()
            self._expect_punct(")")
            return inner
        raise self._error(
            f"expected a property path, found {token.describe()}")

    # -- expressions --------------------------------------------------------------------------

    def _expression(self) -> ast.Expr:
        return self._or_expression()

    def _or_expression(self) -> ast.Expr:
        left = self._and_expression()
        while self._peek().is_op("||"):
            self._next()
            left = ast.BinaryExpr("||", left, self._and_expression())
        return left

    def _and_expression(self) -> ast.Expr:
        left = self._relational()
        while self._peek().is_op("&&"):
            self._next()
            left = ast.BinaryExpr("&&", left, self._relational())
        return left

    def _relational(self) -> ast.Expr:
        left = self._additive()
        token = self._peek()
        if token.is_op("=", "!=", "<", "<=", ">", ">="):
            op = str(self._next().value)
            return ast.BinaryExpr(op, left, self._additive())
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while self._peek().is_op("+", "-"):
            op = str(self._next().value)
            left = ast.BinaryExpr(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while self._peek().is_op("*", "/"):
            op = str(self._next().value)
            left = ast.BinaryExpr(op, left, self._unary())
        return left

    def _unary(self) -> ast.Expr:
        token = self._peek()
        if token.is_op("!"):
            self._next()
            return ast.UnaryExpr("!", self._unary())
        if token.is_op("-"):
            self._next()
            return ast.UnaryExpr("-", self._unary())
        if token.is_op("+"):
            self._next()
            return ast.UnaryExpr("+", self._unary())
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self._next()
        if token.is_punct("("):
            expr = self._expression()
            self._expect_punct(")")
            return expr
        if token.type == "var":
            return ast.VarExpr(ast.Variable(str(token.value)))
        if token.type == "number":
            return ast.TermExpr(Literal(token.value))
        if token.type == "string":
            return ast.TermExpr(self._string_literal(str(token.value)))
        if token.type == "iri":
            return ast.TermExpr(IRI(str(token.value)))
        if token.type == "pname":
            return ast.TermExpr(self.namespaces.expand(str(token.value)))
        if token.is_word("TRUE", "FALSE"):
            return ast.TermExpr(Literal(str(token.value).lower() == "true"))
        if token.type == "word" and str(token.value).upper() in _BUILTINS:
            name = str(token.value).upper()
            self._expect_punct("(")
            args: list[ast.Expr] = []
            if not self._peek().is_punct(")"):
                args.append(self._expression())
                while self._accept_punct(","):
                    args.append(self._expression())
            self._expect_punct(")")
            return ast.CallExpr(name, args)
        raise self._error(
            f"unexpected {token.describe()} in expression")


def parse_sparql(text: str,
                 namespaces: NamespaceManager | None = None
                 ) -> ast.SelectQuery:
    """Parse a SPARQL SELECT query string."""
    return SparqlParser(text, namespaces).parse()
