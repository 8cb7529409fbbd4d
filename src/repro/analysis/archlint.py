"""Architecture linter for the ``repro`` source tree.

The codebase keeps a strict layering DAG — the storage engines
(``relational``, ``rdf``) know nothing about the layers above them,
``core`` builds only on the engines, and the operational subsystems
(``telemetry``, ``durability``, ``cluster``) integrate through
duck-typed hook attributes rather than imports.  Nothing in the
*runtime* enforces that; this module does, by walking every file's
``ast`` and checking four rule families:

``layering``
    A module-level import may only target packages listed for the
    importing package in the layering table.  Function-scope (lazy)
    imports get an extra per-package allowance — that is how the
    intentional back-edges (``api`` → ``cluster``, ``relational`` →
    ``planner``) stay cycle-free at import time.  The *observed*
    module-level graph is additionally checked to be acyclic, so even
    a mis-edited config cannot silently admit a cycle.

``hooks``
    ``telemetry`` and ``durability`` are wired in via hook objects;
    importing them at module level is reserved for the packages that
    own the wiring (``cluster``).  Everyone else must import lazily
    inside the enable/attach call.

``choke-points``
    One table, method name → the only files allowed to call it.
    ``Table.insert_row`` / ``append_rows`` / ``append_columns`` /
    ``update_row`` / ``delete_row`` assume the caller holds the databank's write lock
    (``relational/engine.py``, ``relational/table.py``) — and a table
    is built from a result in one place, the column loader
    ``table_from_columns`` (rows reach it through one transpose,
    ``table_from_rows``), so a hand-rolled load loop elsewhere fails
    here; the SESQL pipeline's stage methods
    (``extraction_for`` / ``apply_where_rewrites`` /
    ``combine_enrichments``) are driven by the one run in
    ``core/engine.py``, and the mediator's ship step by the one
    ``shipped`` scope in ``federation/mediator.py`` — a second copy of
    either sequence elsewhere fails here; a database write becomes
    visible and durable in one place, ``Database.commit_write``, made
    only by the engine and by attaching a foreign table
    (``federation/foreign.py``) — a write committed anywhere else fails
    here; and an identifier is folded in one place,
    ``relational.schema.fold``: ``str.lower`` and ``str.casefold`` are
    called only there and where values, not names, are folded; the bind
    alone resolves a column and judges a call (``resolve_column``,
    ``lookup_function`` / ``make_aggregate``: and the code that runs it).

``dead-public``
    A public top-level function or class, or public method of a
    top-level class, whose name occurs nowhere else under the package
    or the ``reference-roots`` beside it (tests, examples, benchmarks)
    is API nobody calls: delete it, or give it the test that shows why
    it exists.  The search is by word over each file's *code* — names,
    attributes, imports, keywords and the words inside string constants
    (a ``getattr``, a table of traced names) — so any of those keeps a
    name alive; the rule finds orphans, it does not prove use.  Three
    kinds of mention are not code and do not count: a docstring (or a
    comment), and, in a package's own ``__init__``, a relative
    re-export and an ``__all__`` entry.

Defaults live in :data:`DEFAULT_CONFIG`; a ``[tool.repro.archlint]``
table in ``pyproject.toml`` overrides them key by key.  Run as
``python -m repro.analysis.archlint [src/repro]``; exit status 1 when
violations are found.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path

#: The one identifier fold (``relational/schema.py``) and the files
#: that fold values, not identifiers: ``LOWER``, boolean text, the
#: index kind keyword, SPARQL's ``LCASE`` and boolean literals, Turtle's
#: directives, concepts and keyword search.
_VALUE_FOLDS = ["relational/schema.py", "relational/functions.py",
                "relational/csv_io.py", "relational/types.py",
                "relational/parser.py", "sparql/filters.py",
                "sparql/parser.py", "rdf/turtle.py", "crosse/context.py",
                "crosse/platform.py"]

#: The shipped architecture contract.  ``layers`` maps each package (or
#: top-level module) to the packages it may import at module level;
#: ``lazy-layers`` adds targets allowed only from function scope.
DEFAULT_CONFIG: dict = {
    "exempt": ["__init__.py"],           # repro/__init__.py re-exports
    "layers": {
        "rwlock": [],
        "scanner": [],
        "telemetry": [],
        "relational": ["rwlock", "scanner"],
        "rdf": ["rwlock", "scanner"],
        "sparql": ["rdf", "scanner"],
        "planner": ["relational"],
        "smartground": ["relational", "rdf"],
        "analysis": ["relational", "scanner"],
        "core": ["relational", "rdf", "scanner", "sparql"],
        "api": ["analysis", "core", "relational"],
        "crosse": ["api", "core", "rdf", "relational"],
        "federation": ["analysis", "api", "core", "crosse", "planner",
                       "rdf", "relational"],
        "durability": ["core", "crosse", "federation", "rdf",
                       "relational"],
        "cluster": ["api", "crosse", "durability", "federation", "rdf",
                    "relational", "telemetry"],
        "workloads": ["core", "crosse", "rdf", "relational",
                      "smartground"],
    },
    "lazy-layers": {
        "relational": ["planner"],
        "analysis": ["core", "federation", "smartground", "sparql"],
        "api": ["cluster", "crosse", "durability", "federation",
                "telemetry"],
        "crosse": ["durability", "telemetry"],
    },
    "hook-modules": ["telemetry", "durability"],
    "hook-importers": ["cluster", "telemetry", "durability"],
    "choke-points": {
        "insert_row": ["relational/engine.py", "relational/table.py"],
        "append_rows": ["relational/engine.py", "relational/table.py"],
        "append_columns": ["relational/engine.py", "relational/table.py"],
        "_append_columns": ["relational/table.py"],
        "update_row": ["relational/engine.py", "relational/table.py"],
        "delete_row": ["relational/engine.py", "relational/table.py"],
        "extraction_for": ["core/engine.py"],
        "apply_where_rewrites": ["core/engine.py"],
        "combine_enrichments": ["core/engine.py"],
        "_ship_parsed": ["federation/mediator.py"],
        "ship": ["federation/mediator.py"],
        "commit_write": ["relational/engine.py", "federation/foreign.py"],
        "lower": _VALUE_FOLDS,
        "casefold": _VALUE_FOLDS,
        "resolve_column": ["relational/bind.py"],
        "lookup_function": ["relational/bind.py", "relational/compiler.py"],
        "make_aggregate": ["relational/bind.py", "relational/executor.py"],
    },
    # Where else a public name may be referenced, relative to the root.
    "reference-roots": ["../../tests", "../../examples",
                        "../../benchmarks"],
}


@dataclass(frozen=True)
class Violation:
    """One architecture-rule breach at a concrete source location."""

    file: str
    line: int
    rule: str      # 'layering' | 'layering-cycle' | 'hooks' |
                   # 'choke-points' | 'dead-public'
    message: str

    def format(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


def load_config(pyproject: Path | None = None) -> dict:
    """The default contract, overridden by ``[tool.repro.archlint]``."""
    config = {key: (dict(value) if isinstance(value, dict)
                    else list(value))
              for key, value in DEFAULT_CONFIG.items()}
    if pyproject is None or not pyproject.is_file():
        return config
    import tomllib
    table = (tomllib.loads(pyproject.read_text())
             .get("tool", {}).get("repro", {}).get("archlint", {}))
    for key, value in table.items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key].update(value)
        else:
            config[key] = value
    return config


@dataclass(frozen=True)
class _ImportEdge:
    target: str    # repro-internal package / top-level module name
    line: int
    lazy: bool     # inside a function body (or TYPE_CHECKING block)


def _edges(tree: ast.Module, package: str) -> list[_ImportEdge]:
    """Repro-internal import edges in *tree*, tagged lazy or not."""
    edges: list[_ImportEdge] = []

    def target_of(node: ast.stmt) -> list[tuple[str, int]]:
        found = []
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 2 or (node.level == 1 and not package):
                found.append((module.split(".")[0], node.lineno))
            elif node.level == 0 and module.split(".")[0] == "repro":
                parts = module.split(".")
                if len(parts) > 1:
                    found.append((parts[1], node.lineno))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    found.append((parts[1], node.lineno))
        return found

    def visit(body: list[ast.stmt], lazy: bool) -> None:
        for node in body:
            for target, line in target_of(node):
                if target and target != package:
                    edges.append(_ImportEdge(target, line, lazy))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, True)
            elif isinstance(node, ast.If):
                guarded = "TYPE_CHECKING" in ast.dump(node.test)
                visit(node.body, lazy or guarded)
                visit(node.orelse, lazy)
            elif isinstance(node, (ast.ClassDef, ast.Try, ast.With,
                                   ast.For, ast.While)):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.stmt):
                        visit([child], lazy)

    visit(tree.body, False)
    return edges


def _find_cycle(graph: dict) -> list[str] | None:
    """A module-level import cycle in *graph*, or ``None``."""
    state: dict[str, int] = {}     # 1 = on stack, 2 = done
    stack: list[str] = []

    def dfs(node: str) -> list[str] | None:
        state[node] = 1
        stack.append(node)
        for neighbour in sorted(graph.get(node, ())):
            if state.get(neighbour) == 1:
                return stack[stack.index(neighbour):] + [neighbour]
            if state.get(neighbour) is None:
                cycle = dfs(neighbour)
                if cycle:
                    return cycle
        stack.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if state.get(node) is None:
            cycle = dfs(node)
            if cycle:
                return cycle
    return None


def _definitions(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(name, qualified name, line) of each top-level function and
    class and each method of a top-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, kinds):
            found.append((node.name, node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found.extend((sub.name, f"{node.name}.{sub.name}", sub.lineno)
                         for sub in node.body if isinstance(sub, kinds[:2]))
    return found


def _mentions(tree: ast.Module, is_init: bool):
    """The words of *tree* that may reference a definition (see the
    ``dead-public`` rule); *is_init* marks a package ``__init__``."""
    skipped: set[ast.AST] = {                         # docstrings
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)}
    for node in tree.body if is_init else ():
        if (isinstance(node, ast.ImportFrom) and node.level == 1) or (
                isinstance(node, ast.Assign)
                and any(getattr(target, "id", "") == "__all__"
                        for target in node.targets)):
            skipped.update(ast.walk(node))
    for node in ast.walk(tree):
        if node in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            yield from re.findall(r"\w+", node.value)


def check_tree(root: Path, config: dict | None = None) -> list[Violation]:
    """Lint every ``.py`` file under *root* (the ``repro`` package)."""
    config = config or load_config()
    violations: list[Violation] = []
    observed: dict[str, set] = {}
    layers = config["layers"]
    lazy_layers = config["lazy-layers"]
    hook_modules = set(config["hook-modules"])
    hook_importers = set(config["hook-importers"])
    choke_points = config["choke-points"]
    definitions: list[tuple[str, str, str, int]] = []

    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative in config["exempt"]:
            continue
        package = relative.split("/")[0]
        if package.endswith(".py"):       # top-level module (rwlock.py)
            package = package[:-3]
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions.extend((name, qualified, relative, line)
                           for name, qualified, line in _definitions(tree))

        allowed = set(layers.get(package, ()))
        allowed_lazy = allowed | set(lazy_layers.get(package, ()))
        for edge in _edges(tree, package):
            if not edge.lazy:
                observed.setdefault(package, set()).add(edge.target)
            ok = edge.target in (allowed_lazy if edge.lazy else allowed)
            if not ok:
                how = "lazily import" if edge.lazy else "import"
                violations.append(Violation(
                    relative, edge.line, "layering",
                    f"package '{package}' may not {how} "
                    f"'{edge.target}'"))
            if (edge.target in hook_modules and not edge.lazy
                    and package not in hook_importers):
                violations.append(Violation(
                    relative, edge.line, "hooks",
                    f"'{edge.target}' integrates via hook attributes; "
                    f"import it lazily where the hook is attached"))

        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            allowed = choke_points.get(name)
            if allowed is not None and relative not in allowed:
                violations.append(Violation(
                    relative, node.lineno, "choke-points",
                    f"{name}() is a choke point; call it "
                    f"only from {sorted(allowed)}"))

    cycle = _find_cycle(observed)
    if cycle:
        violations.append(Violation(
            str(root), 0, "layering-cycle",
            "module-level import cycle: " + " -> ".join(cycle)))

    words: set[str] = set()
    for base in [root, *(root / extra
                         for extra in config["reference-roots"])]:
        for path in base.rglob("*.py") if base.is_dir() else ():
            words.update(_mentions(
                ast.parse(path.read_text(), filename=str(path)),
                base is root and path.name == "__init__.py"))
    for name, qualified, relative, line in definitions:
        if not name.startswith("_") and name not in words:
            violations.append(Violation(
                relative, line, "dead-public",
                f"'{qualified}' is public but its name occurs nowhere "
                f"else in the package, tests, examples or benchmarks; "
                f"delete it or test it"))
    violations.sort(key=lambda v: (v.file, v.line))
    return violations


def _discover_pyproject(root: Path) -> Path | None:
    for candidate in [root, *root.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.archlint",
        description="Check the repro source tree against its "
                    "architecture contract.")
    parser.add_argument("root", nargs="?", default="src/repro",
                        help="package directory to lint "
                             "(default: src/repro)")
    parser.add_argument("--pyproject", metavar="FILE",
                        help="pyproject.toml with a "
                             "[tool.repro.archlint] override table "
                             "(default: discovered upward from root)")
    args = parser.parse_args(argv)
    root = Path(args.root)
    if not root.is_dir():
        parser.error(f"not a directory: {root}")
    pyproject = (Path(args.pyproject) if args.pyproject
                 else _discover_pyproject(root.resolve()))
    violations = check_tree(root, load_config(pyproject))
    for violation in violations:
        print(violation.format())
    checked = len(list(root.rglob("*.py")))
    print(f"archlint: {checked} file(s), {len(violations)} "
          f"violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
