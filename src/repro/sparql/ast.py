"""SPARQL abstract syntax: patterns, property paths and expressions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..rdf.terms import IRI, Term


@dataclass(frozen=True, slots=True, eq=False)
class Variable:
    """A SPARQL variable (``?x`` / ``$x``).

    Equality and hashing delegate to the name string — CPython caches a
    str's hash on the object, so solution dicts keyed by variables (the
    evaluator's result shape) hash at C speed instead of re-hashing a
    dataclass field tuple per access.
    """

    name: str

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def n3(self) -> str:
        return f"?{self.name}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.n3()


PatternTerm = Union[Term, Variable]


# -- property paths ----------------------------------------------------------

class Path:
    __slots__ = ()


@dataclass(frozen=True)
class InversePath(Path):
    inner: "PathLike"


@dataclass(frozen=True)
class SequencePath(Path):
    parts: tuple


@dataclass(frozen=True)
class AlternativePath(Path):
    parts: tuple


@dataclass(frozen=True)
class ZeroOrMorePath(Path):
    inner: "PathLike"


@dataclass(frozen=True)
class OneOrMorePath(Path):
    inner: "PathLike"


@dataclass(frozen=True)
class ZeroOrOnePath(Path):
    inner: "PathLike"


PathLike = Union[IRI, Path]


# -- graph patterns -------------------------------------------------------------

@dataclass
class TriplePattern:
    subject: PatternTerm
    predicate: Union[PatternTerm, Path]
    object: PatternTerm

    def variables(self) -> set[Variable]:
        found = set()
        for position in (self.subject, self.predicate, self.object):
            if isinstance(position, Variable):
                found.add(position)
        return found


@dataclass
class Filter:
    expression: "Expr"


@dataclass
class Bind:
    expression: "Expr"
    variable: Variable


@dataclass
class GroupPattern:
    elements: list = field(default_factory=list)


@dataclass
class OptionalPattern:
    group: GroupPattern


@dataclass
class UnionPattern:
    branches: list[GroupPattern] = field(default_factory=list)


PatternElement = Union[TriplePattern, Filter, Bind, GroupPattern,
                       OptionalPattern, UnionPattern]


# -- expressions -------------------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass
class VarExpr(Expr):
    variable: Variable


@dataclass
class TermExpr(Expr):
    term: Term


@dataclass
class UnaryExpr(Expr):
    op: str  # '!', '-', '+'
    operand: Expr


@dataclass
class BinaryExpr(Expr):
    op: str  # '&&', '||', '=', '!=', '<', '<=', '>', '>=', '+', '-', '*', '/'
    left: Expr
    right: Expr


@dataclass
class CallExpr(Expr):
    name: str  # upper-cased builtin name
    args: list[Expr] = field(default_factory=list)


# -- queries ---------------------------------------------------------------------------

@dataclass
class SelectQuery:
    variables: Optional[list[Variable]]  # None means '*'
    where: GroupPattern
    distinct: bool = False
    order_by: list[tuple[Expr, bool]] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None


@dataclass
class AskQuery:
    where: GroupPattern


@dataclass
class ConstructQuery:
    template: list[TriplePattern]
    where: GroupPattern


Query = Union[SelectQuery, AskQuery, ConstructQuery]


def group_variables(group: GroupPattern) -> set[Variable]:
    """All variables mentioned anywhere in a group (for SELECT *)."""
    found: set[Variable] = set()

    def visit(element) -> None:
        if isinstance(element, TriplePattern):
            found.update(element.variables())
        elif isinstance(element, GroupPattern):
            for child in element.elements:
                visit(child)
        elif isinstance(element, OptionalPattern):
            visit(element.group)
        elif isinstance(element, UnionPattern):
            for branch in element.branches:
                visit(branch)
        elif isinstance(element, Bind):
            found.add(element.variable)
        # Filters do not introduce bindings.

    visit(group)
    return found


def group_predicates(group: GroupPattern) -> set[IRI] | None:
    """The predicate IRIs a group's triple patterns read, or ``None``
    when it may read any predicate: a variable predicate, or a
    zero-length path (``*`` / ``?``), which matches every node of the
    graph to itself."""
    found: set[IRI] = set()

    def visit(element) -> bool:
        if isinstance(element, TriplePattern):
            return path(element.predicate)
        if isinstance(element, GroupPattern):
            return all(visit(child) for child in element.elements)
        if isinstance(element, OptionalPattern):
            return visit(element.group)
        if isinstance(element, UnionPattern):
            return all(visit(branch) for branch in element.branches)
        return True  # Filters and binds read no triple.

    def path(predicate) -> bool:
        if isinstance(predicate, IRI):
            found.add(predicate)
            return True
        if isinstance(predicate, (InversePath, OneOrMorePath)):
            return path(predicate.inner)
        if isinstance(predicate, (SequencePath, AlternativePath)):
            return all(path(part) for part in predicate.parts)
        return False  # A variable, or a zero-length path.

    return found if visit(group) else None
