"""Diagnostic codes, reports and options for the static-analysis pass.

Every finding the analyzer can produce has a **stable code** registered
in :data:`CODES`.  ``E-`` codes are *errors*: the statement is certain
to fail at execution time no matter what data the tables hold (unknown
table, unresolvable column, bad arity, ...) — exactly the failures the
executor raises while *compiling* a statement.  ``W-`` codes are
*warnings*: data-dependent hazards (a cross-family ``<`` raises only
when a non-NULL pair is actually compared) and performance lints (a
predicate shape that forces the row path, a cartesian product, an
unpushable federation conjunct).  The split matters because the session
layer may be asked to reject statements with errors at ``prepare()``
time (:class:`AnalysisOptions` ``strict``) — and the analyzer promises
never to *error* on a statement that would have executed successfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field


ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry: a stable code with its severity and summary."""

    code: str
    severity: str
    summary: str


def _registry(*entries: tuple[str, str, str]) -> dict[str, CodeInfo]:
    return {code: CodeInfo(code, severity, summary)
            for code, severity, summary in entries}


#: Every diagnostic the analyzer can emit.  Codes are part of the API:
#: tests, the CLI baseline file and the REST payload all key on them.
CODES: dict[str, CodeInfo] = _registry(
    # -- errors: certain to fail at execution compile time ------------------
    ("E-SYNTAX", ERROR,
     "the statement does not parse"),
    ("E-UNKNOWN-TABLE", ERROR,
     "table is not in the catalog"),
    ("E-UNKNOWN-COLUMN", ERROR,
     "column reference resolves to nothing in any scope"),
    ("E-AMBIGUOUS-COLUMN", ERROR,
     "column reference matches more than one column in a scope"),
    ("E-UNKNOWN-FUNCTION", ERROR,
     "no scalar or aggregate function with this name"),
    ("E-FUNCTION-ARITY", ERROR,
     "function called with the wrong number of arguments"),
    ("E-AGGREGATE-CONTEXT", ERROR,
     "aggregate outside a select list, HAVING or ORDER BY, or inside "
     "another aggregate"),
    ("E-BAD-CAST", ERROR,
     "CAST target is not a known SQL type"),
    ("E-DUPLICATE-ALIAS", ERROR,
     "two FROM items bind the same name"),
    ("E-SET-OP-ARITY", ERROR,
     "set-operation operands have different column counts"),
    ("E-ORDINAL-RANGE", ERROR,
     "ORDER/GROUP BY ordinal is out of range or names a '*' item"),
    ("E-DML-ARITY", ERROR,
     "INSERT row width does not match the target column list"),
    ("E-STAR-GROUPED", ERROR,
     "SELECT * cannot be used in a grouped/aggregate query"),
    ("E-UNGROUPED-COLUMN", ERROR,
     "a grouped query reads a column outside its group keys and "
     "aggregates"),
    # -- warnings: data-dependent correctness hazards -----------------------
    ("W-TYPE-MISMATCH", WARNING,
     "ordered comparison across type families raises on non-NULL data"),
    ("W-CROSS-EQ-FALSE", WARNING,
     "equality across type families can never be TRUE"),
    ("W-NONBOOL-WHERE", WARNING,
     "predicate cannot evaluate to a boolean"),
    ("W-LIKE-NONTEXT", WARNING,
     "LIKE on a non-text operand raises on non-NULL data"),
    ("W-NULL-COMPARE", WARNING,
     "comparison with NULL is never TRUE; use IS [NOT] NULL"),
    ("W-CONST-PREDICATE", WARNING,
     "predicate conjunct is constant (dead or tautological filter)"),
    # -- warnings: performance lints ----------------------------------------
    ("W-VEC-FALLBACK", WARNING,
     "predicate shape forces the row path instead of a vector kernel"),
    ("W-NONSARGABLE", WARNING,
     "predicate defeats index probing (leading-% LIKE / wrapped column)"),
    ("W-NO-LIMIT-STREAM", WARNING,
     "unbounded SELECT; streaming clients should page with LIMIT"),
    ("W-OFFSET-NO-ORDER", WARNING,
     "LIMIT/OFFSET without ORDER BY yields nondeterministic pages"),
    ("W-CARTESIAN", WARNING,
     "join has no connecting condition (cartesian product)"),
    ("W-DISTINCT-GROUPED", WARNING,
     "DISTINCT is redundant when grouping by the whole select list"),
    ("W-HAVING-NO-AGG", WARNING,
     "HAVING without GROUP BY or aggregates is just a WHERE"),
    ("W-SELECT-STAR", WARNING,
     "SELECT * couples the consumer to the table's column layout"),
    # -- warnings: SESQL / federation / SPARQL ------------------------------
    ("W-ENRICH-ATTR", WARNING,
     "enrichment references an attribute the query does not produce"),
    ("W-FED-UNPUSHABLE", WARNING,
     "WHERE conjunct cannot ship into source fragments"),
    ("W-SPARQL-UNBOUND", WARNING,
     "projected SPARQL variable is never bound in the pattern"),
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code plus the human-readable specifics.

    ``expression`` carries the exact sub-expression the finding is
    about (rendered back to SQL), so a ``W-VEC-FALLBACK`` names the
    conjunct that fell off the vector path, not just the fact.
    """

    code: str
    message: str
    expression: str | None = None
    hint: str | None = None

    @property
    def severity(self) -> str:
        return CODES[self.code].severity

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def format(self) -> str:
        text = f"{self.code}: {self.message}"
        if self.expression:
            text += f" [{self.expression}]"
        if self.hint:
            text += f" ({self.hint})"
        return text

    def to_dict(self) -> dict:
        return {"code": self.code, "severity": self.severity,
                "message": self.message, "expression": self.expression,
                "hint": self.hint}


@dataclass
class AnalysisReport:
    """The analyzer's output: an ordered list of diagnostics."""

    statement: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, code: str, message: str, *, expression: str | None = None,
            hint: str | None = None) -> None:
        if code not in CODES:  # pragma: no cover - registry discipline
            raise KeyError(f"unregistered diagnostic code {code!r}")
        diagnostic = Diagnostic(code, message, expression, hint)
        if diagnostic not in self.diagnostics:  # dedupe repeat findings
            self.diagnostics.append(diagnostic)

    def extend(self, other: "AnalysisReport") -> None:
        for diagnostic in other.diagnostics:
            if diagnostic not in self.diagnostics:
                self.diagnostics.append(diagnostic)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def has_errors(self) -> bool:
        return any(d.is_error for d in self.diagnostics)

    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    def format(self) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        return "\n".join(d.format() for d in self.diagnostics)

    def to_dict(self) -> dict:
        return {"statement": self.statement,
                "error_count": len(self.errors),
                "warning_count": len(self.warnings),
                "diagnostics": [d.to_dict() for d in self.diagnostics]}


class AnalysisError(Exception):
    """Raised at ``prepare()`` time (strict mode) for E-level findings."""

    def __init__(self, report: AnalysisReport) -> None:
        self.report = report
        errors = report.errors
        summary = "; ".join(d.format() for d in errors[:3])
        if len(errors) > 3:
            summary += f"; ... {len(errors) - 3} more"
        super().__init__(
            f"statement rejected by static analysis: {summary}")


@dataclass(frozen=True)
class AnalysisOptions:
    """How the session layer runs the analyzer.

    ``enabled=False`` skips analysis entirely (prepared queries carry no
    diagnostics).  ``strict=True`` makes ``prepare()`` raise
    :class:`AnalysisError` when the report contains errors — warnings
    never raise.  ``disabled_codes`` suppresses individual codes.
    """

    enabled: bool = True
    strict: bool = False
    disabled_codes: frozenset[str] = frozenset()

    def wants(self, code: str) -> bool:
        return code not in self.disabled_codes


#: The defaults: analyze, attach diagnostics, never raise.
DEFAULT_OPTIONS = AnalysisOptions()
