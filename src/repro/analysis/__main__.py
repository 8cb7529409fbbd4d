"""``python -m repro.analysis`` — lint SQL / SESQL query files.

Each input file is split into ``;``-separated statements (strings,
quoted identifiers and comments respected); statements containing an
``ENRICH`` clause go through the Semantic Query Parser and the SESQL
analyzer, everything else through the plain SQL analyzer.  With no
schema the analyzer runs catalog-less (name resolution is suppressed,
everything else applies);
``--smartground`` lints against the SmartGround schema and also runs
the built-in paper workload, and ``--schema FILE`` executes a DDL
script into a scratch database first.

Diagnostic-code **baselines** make the CLI usable as a CI ratchet:
``--write-baseline FILE`` records the current per-code counts, and
``--baseline FILE`` fails the run when any code's count *increases*
(new codes count as regressions; improvements are fine and can be
re-recorded).

Exit status: 1 when any error-severity diagnostic or baseline
regression was found, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..relational.lexer import RULES as SQL_RULES
from ..scanner import Scanner
from .diagnostics import AnalysisReport, CODES
from .query import analyze_enriched, analyze_sql


#: SQL token spans, with any character SQL does not know (SESQL's
#: ``${``, a stray quote) let through: splitting never fails (OTHER
#: matches anything, so no error factory), the analyzer reports what
#: is malformed.
_spans = Scanner([*SQL_RULES, ("OTHER", r"(?s:.)", None)], None).scan


def split_statements(text: str) -> list[str]:
    """Split a script on ``;`` outside strings, quoted identifiers and
    comments; pieces that hold nothing but comments are dropped."""
    statements: list[str] = []
    begin, empty = 0, True
    for kind, value, start, end in _spans(text):
        if kind == "OP" and value == ";":
            if not empty:
                statements.append(text[begin:start].strip())
            begin, empty = end, True
        else:
            empty = False
    if not empty:
        statements.append(text[begin:].strip())
    return statements


def _is_sesql(statement: str) -> bool:
    upper = statement.upper()
    return " ENRICH " in upper.replace("\n", " ") \
        or upper.rstrip().endswith("ENRICH")


def analyze_text(statement: str, databank, options=None) -> AnalysisReport:
    """One statement through the right analyzer (SESQL vs plain SQL)."""
    if _is_sesql(statement):
        from ..core.errors import SesqlError
        from ..core.sqp import SemanticQueryParser
        try:
            enriched = SemanticQueryParser().parse(statement)
        except SesqlError as exc:
            report = AnalysisReport(statement=statement.strip())
            report.add("E-SYNTAX", str(exc))
            return report
        return analyze_enriched(enriched, databank, options=options)
    return analyze_sql(statement, databank, options=options)


def _build_databank(args):
    if args.smartground:
        from ..smartground.schema import create_schema
        return create_schema()
    if args.schema is not None:
        from ..relational.engine import Database
        databank = Database("lint")
        databank.execute_script(Path(args.schema).read_text())
        return databank
    return None


def _workload_sources(args) -> list[tuple[str, str]]:
    """(label, statement) pairs from files and the built-in workload."""
    sources: list[tuple[str, str]] = []
    for path_text in args.paths:
        path = Path(path_text)
        text = path.read_text()
        for index, statement in enumerate(split_statements(text), 1):
            sources.append((f"{path}:{index}", statement))
    if args.smartground:
        from ..smartground.queries import WORKLOAD
        sources.extend((f"workload:{query.name}", query.sesql)
                       for query in WORKLOAD)
    return sources


def _snippet(statement: str) -> str:
    lines = [line for line in statement.splitlines()
             if not line.strip().startswith("--")]
    return " ".join("\n".join(lines).split())[:72]


def _code_counts(results: list[tuple[str, AnalysisReport]]) -> dict:
    counts: dict[str, int] = {}
    for _label, report in results:
        for diagnostic in report:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
    return dict(sorted(counts.items()))


def _regressions(counts: dict, baseline: dict) -> list[str]:
    lines = []
    for code, count in counts.items():
        allowed = baseline.get(code, 0)
        if count > allowed:
            lines.append(f"{code}: {count} finding(s), baseline allows "
                         f"{allowed}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis over SQL / SESQL query files.")
    parser.add_argument("paths", nargs="*",
                        help="query files (.sql / .sesql scripts)")
    parser.add_argument("--smartground", action="store_true",
                        help="lint against the SmartGround schema and "
                             "include the built-in paper workload")
    parser.add_argument("--schema", metavar="FILE",
                        help="DDL script building the catalog to "
                             "resolve names against")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit one JSON document instead of text")
    parser.add_argument("--baseline", metavar="FILE",
                        help="fail when any diagnostic code exceeds "
                             "its recorded count")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="record current per-code counts and exit")
    args = parser.parse_args(argv)
    if not args.paths and not args.smartground:
        parser.error("nothing to lint: pass files and/or --smartground")

    databank = _build_databank(args)
    results = [(label, analyze_text(statement, databank))
               for label, statement in _workload_sources(args)]
    counts = _code_counts(results)
    error_count = sum(count for code, count in counts.items()
                      if CODES[code].severity == "error")

    if args.write_baseline:
        Path(args.write_baseline).write_text(
            json.dumps(counts, indent=2, sort_keys=True) + "\n")
        print(f"baseline written to {args.write_baseline}: "
              f"{sum(counts.values())} finding(s) across "
              f"{len(counts)} code(s)")
        return 0

    regressions: list[str] = []
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        regressions = _regressions(counts, baseline)

    if args.as_json:
        print(json.dumps({
            "statements": [{"source": label, **report.to_dict()}
                           for label, report in results],
            "codes": counts,
            "errors": error_count,
            "regressions": regressions,
        }, indent=2))
    else:
        for label, report in results:
            if not report:
                continue
            print(f"{label}: {_snippet(report.statement)}")
            for diagnostic in report:
                print(f"  {diagnostic.format()}")
        total = sum(counts.values())
        print(f"{len(results)} statement(s), {total} finding(s), "
              f"{error_count} error(s)")
        for line in regressions:
            print(f"baseline regression — {line}")

    return 1 if error_count or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
