#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the repro stack.

    python3 benchmarks/e2e/run.py --workload enrich_hot --seed 1 \\
        --seconds 15 --trace 0

builds the workload's inputs from the seed, drives the program through
its outermost public API in a closed loop from this one process, checks
every answer, prints every metric by name with its unit and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  Without ``--workload`` the four
workloads run back to back in this process.  See ``README.md``.

Nothing is left running: no child process or thread is ever started,
and the run fails if anything is still alive at the end.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import hashlib
import json
import math
import multiprocessing
import os
import platform
import statistics
import sys
import threading
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

if __package__:
    from . import speed, trace as tracing
    from .workloads import OUT_DIR, WORKLOADS, Op, Workload
else:
    # Run as a script: import the siblings as the package ``e2e`` (so
    # trace.py never shadows the stdlib module) and the program from
    # the checkout's src/.
    sys.path[0] = os.path.dirname(HERE)
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from e2e import speed, trace as tracing
    from e2e.workloads import OUT_DIR, WORKLOADS, Op, Workload

#: Seed whose answer digests are committed in expected.json.
DEFAULT_SEED = 1
#: Answers fold into one digest per this many ops of the stream.
CHECKPOINT_EVERY = 256
#: A failed op's latency sample: it misses any latency bound.
OP_LIMIT_MS = 10_000.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The speed kernel runs after every stretch of about this many seconds.
CALIBRATE_EVERY_S = 0.05
#: Whole-run limit: the process dies with a traceback dump after this.
HARD_TIMEOUT_S = 170
EXPECTED_PATH = os.path.join(HERE, "expected.json")
_PAGE = os.sysconf("SC_PAGE_SIZE")

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_ops_s": "ops/s", "latency_p50_ms": "ms",
    "latency_p99_ms": "ms", "peak_rss_mb": "MB",
}

OP_CLASSES = ("query_enrich", "query_sql", "annotate", "accept", "list",
              "recommend", "analyze")


def rss_mb() -> float:
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE / 1e6


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- the op stream and its answer checks ----------------------------------------


class StreamRun:
    """The position in a workload's op stream and the answer checks."""

    def __init__(self, workload: Workload, expected: dict[str, str]) -> None:
        self.workload = workload
        self.stream = workload.stream()
        self.index = 0
        self.expected = expected
        self.checkpoints: dict[str, str] = {}
        self._digest = hashlib.sha256()
        self._seen: dict[tuple, bytes] = {}
        #: Stream indices of failed ops, and the first few reasons.
        self.fails: set[int] = set()
        self.errors: list[str] = []
        self.bad_keys: frozenset[str] = frozenset()

    def fail(self, index: int, why: str) -> None:
        self.fails.add(index)
        if len(self.errors) < 5:
            self.errors.append(f"op {index}: {why}")

    def check(self, op: Op, index: int, ok: bool, answer) -> bool:
        """Fold a finished op's answer into the digests; False when the
        op counts as failed."""
        if ok and op.key in self.bad_keys:
            ok = False
            self.fail(index, f"template {op.key} failed its oracle check")
        elif not ok:
            self.fail(index, f"{op.cls}/{op.key}: bad status or shape: "
                             f"{str(answer)[:200]}")
        if ok and op.fold is not None:
            text = op.fold(answer).encode()
            self._digest.update(text)
            if self.workload.read_only and op.ident is not None:
                digest = hashlib.sha256(text).digest()
                if self._seen.setdefault(op.ident, digest) != digest:
                    ok = False
                    self.fail(index, f"{op.key}: a read-only workload "
                                     "answered one request two ways")
        self._digest.update(b"|")
        done = index + 1
        if done % CHECKPOINT_EVERY == 0:
            found = self._digest.hexdigest()[:16]
            self._digest = hashlib.sha256()
            self.checkpoints[str(done)] = found
            wanted = self.expected.get(str(done))
            if wanted is not None and wanted != found:
                self.fails.update(range(done - CHECKPOINT_EVERY, done))
                self.fail(index, f"answers of ops {done - CHECKPOINT_EVERY}"
                                 f"..{done - 1} digest to {found}, "
                                 f"expected {wanted}")
        return ok

    def fingerprint(self) -> str:
        """Digest of everything answered so far."""
        tail = self._digest.copy().hexdigest()[:16]
        return hashlib.sha256(json.dumps(
            [self.checkpoints, tail], sort_keys=True).encode()).hexdigest()


class Segment:
    """What was measured over one stretch of the stream.

    ``latencies_ms`` and ``seconds`` are normalised to the reference
    machine speed (see ``speed.py``); ``wall_ms`` and ``wall_s`` are the
    same samples and the same stretch by the wall clock, as they ran.
    """

    def __init__(self, first_index: int) -> None:
        self.first_index = first_index
        self.latencies_ms: list[float] = []
        self.wall_ms: list[float] = []
        self.classes: list[str] = []
        self.after_write: list[bool] = []
        self.seconds = 0.0
        self.wall_s = 0.0
        self.factors: list[float] = []
        self.peak_rss_mb = 0.0
        self.failed = 0


def drive(run: StreamRun, ops: int, tracer=None,
          observe: bool = False) -> Segment:
    """Closed loop over the next *ops* ops: draw, execute, check; the
    next op starts only after the last one is answered.

    Every ``CALIBRATE_EVERY_S`` the speed kernel runs, and the stretch
    since the last one is normalised by the mean of the two factors
    around it.  The garbage collector is left as the program's users
    have it: a collection that stalls an op is in that op's sample.
    """
    workload = run.workload
    segment = Segment(run.index)
    pending: list[float] = []
    untraced = nullcontext()

    def close_stretch(before: float, started: float) -> float:
        wall = perf_counter() - started
        after = speed.factor()
        factor = (before + after) / 2
        segment.latencies_ms.extend(
            sample if sample == OP_LIMIT_MS else sample / factor
            for sample in pending)
        segment.wall_ms.extend(pending)
        pending.clear()
        segment.seconds += wall / factor
        segment.wall_s += wall
        segment.factors.append(factor)
        return after

    factor = speed.factor()
    stretch_started = perf_counter()
    for done in range(1, ops + 1):
        op = next(run.stream)
        index = run.index
        run.index += 1
        ok, answer = False, None
        started = perf_counter()
        try:
            with (tracer.op(index) if tracer is not None
                  else untraced):
                ok, answer = workload.execute(op)
        except Exception as exc:  # the loop must outlive a bad op
            answer = f"raised {type(exc).__name__}: {exc}"
        ended = perf_counter()
        ok = run.check(op, index, ok, answer)
        pending.append((ended - started) * 1e3 if ok else OP_LIMIT_MS)
        segment.classes.append(op.cls)
        segment.after_write.append(op.after_write)
        if observe:
            workload.observe(op)
        if done % 100 == 0:
            segment.peak_rss_mb = max(segment.peak_rss_mb, rss_mb())
        if ended - stretch_started >= CALIBRATE_EVERY_S:
            factor = close_stretch(factor, stretch_started)
            stretch_started = perf_counter()
    if pending:
        close_stretch(factor, stretch_started)
    segment.peak_rss_mb = max(segment.peak_rss_mb, rss_mb())
    return segment


# -- one workload ------------------------------------------------------------------


def load_expected(name: str, seed: int, scale: float) -> dict[str, str]:
    """Committed checkpoint digests for this exact input."""
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        return {}
    if document.get("seed") != seed or document.get("scale") != scale \
            or document.get("checkpoint_every") != CHECKPOINT_EVERY:
        return {}
    return document.get("workloads", {}).get(name, {})


def prepare(cls: type[Workload], seed: int, scale: float,
            expected: dict[str, str]) -> tuple[StreamRun, float]:
    """One set-up: build everything, then the untimed warm-up prefix of
    the stream.  Returns the run and the normalised seconds it took."""
    before = speed.factor(repeats=5)
    started = perf_counter()
    workload = cls(seed, scale)
    try:
        workload.setup()
        built = perf_counter() - started
        built /= (before + speed.factor(repeats=5)) / 2
        run = StreamRun(workload, expected)
        warm = drive(run, max(20, int(workload.warmup_ops * scale)))
        run.bad_keys = frozenset(workload.oracle_check())
    except BaseException:
        workload.teardown()
        raise
    return run, built + warm.seconds


def timed_loop(run: StreamRun, ops: int, tracer=None) -> Segment:
    """The measured stretch: the next *ops* ops of the stream."""
    gc.collect()
    first = run.index
    segment = drive(run, ops, tracer=tracer, observe=tracer is not None)
    # Ops that failed only at their checkpoint get the failure sample
    # too (the ones that failed on the spot already have it).
    for index in run.fails:
        if index >= first:
            segment.failed += 1
            segment.latencies_ms[index - first] = OP_LIMIT_MS
            segment.wall_ms[index - first] = OP_LIMIT_MS
    return segment


def run_workload(name: str, seed: int = DEFAULT_SEED,
                 seconds: float = 15.0, trace: bool = False,
                 scale: float = 1.0, ops: int | None = None,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up (several times), warm, measure, check and tear down one
    workload.  The timed loop is as many ops as take *seconds* at the
    workload's nominal rate — the same ops on every run of a seed, so
    counts and digests repeat (``ops`` gives the count outright: the
    smoke test's short runs).  A traced run drives the first half of
    those ops twice, each time from a fresh set-up: untraced, then with
    the span recorders installed.  Returns the result record (see
    ``main``)."""
    cls = WORKLOADS[name]
    if ops is None:
        ops = max(1, int(seconds * cls.nominal_ops_per_s))
    expected = load_expected(name, seed, scale)
    setup_times: list[float] = []
    fingerprints: list[str] = []
    problems: list[str] = []
    run: StreamRun | None = None

    def set_up() -> None:
        """Tear the set-up before down, then set up afresh."""
        nonlocal run
        if run is not None:
            problems.extend(run.errors)
            run.workload.teardown()
            run = None
            gc.collect()
        run, took = prepare(cls, seed, scale, expected)
        setup_times.append(took)
        fingerprints.append(run.fingerprint())
        if run.bad_keys:
            problems.append("sqlite3 disagrees on " + ", ".join(
                sorted(run.bad_keys)))

    try:
        for _repeat in range(setup_repeats):
            set_up()
        if not trace:
            segment = timed_loop(run, ops)
            measured = [segment]
            metrics = end_to_end_metrics(segment, setup_times)
        else:
            ops = max(1, ops // 2)
            plain = timed_loop(run, ops)
            untraced_answers = run.fingerprint()
            set_up()
            tracer = tracing.Tracer()
            run.workload.start_counting()
            with tracing.installed(tracer):
                segment = timed_loop(run, ops, tracer)
            if run.fingerprint() != untraced_answers:
                problems.append("the traced replay answered differently "
                                "from the untraced pass")
            measured = [plain, segment]
            metrics = per_layer_metrics(tracer.spans(), plain, segment,
                                        run.workload.counters())
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.dump(os.path.join(OUT_DIR, f"trace_{name}.json"),
                        {"workload": name, "seed": seed, "scale": scale,
                         "ops": ops, **wall_clock_figures(segment)})
        problems.extend(run.errors)
        if len(set(fingerprints)) > 1:
            problems.append("set-up and warm-up of one seed gave "
                            "different answers on repetition")
        failed = sum(part.failed for part in measured)
        return {
            "workload": name, "seed": seed, "scale": scale,
            "trace": int(trace),
            "correct": not problems and failed == 0,
            "attempted": sum(len(part.latencies_ms) for part in measured),
            "failed": failed,
            "metrics": metrics, "problems": problems,
            "wall_clock": wall_clock_figures(measured[0]),
            "checkpoints": run.checkpoints,
            "digest": run.fingerprint(),
        }
    finally:
        if run is not None:
            run.workload.teardown()
        run = None
        gc.collect()


def end_to_end_metrics(segment: Segment, setup_times: list[float]) -> dict:
    """All timings at the reference machine speed (see speed.py)."""
    samples = sorted(segment.latencies_ms)
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": len(samples) / segment.seconds,
        "latency_p50_ms": percentile(samples, 0.50),
        "latency_p99_ms": percentile(samples, 0.99),
        "peak_rss_mb": segment.peak_rss_mb,
    }


def wall_clock_figures(segment: Segment) -> dict:
    """The timed-loop metrics of the same stretch by the wall clock, not
    normalised, and how slow the box was.  ``compare.py`` judges them
    beside the declared metrics: a loss that the normalisation divides
    away (a change that slows the speed kernel too) shows here."""
    samples = sorted(segment.wall_ms)
    return {
        "throughput_ops_s": len(samples) / segment.wall_s,
        "latency_p50_ms": percentile(samples, 0.50),
        "latency_p99_ms": percentile(samples, 0.99),
        "speed_factor_median": statistics.median(segment.factors),
        "speed_factor_max": max(segment.factors),
    }


# -- per-layer metrics of a traced run ------------------------------------------------


def per_layer_metrics(spans: list[tuple], plain: Segment, traced: Segment,
                      counters: dict) -> dict:
    summary = tracing.summarize(spans)
    layers, names = summary["layers"], summary["names"]
    children = summary["children"]
    ops = max(1, len(traced.latencies_ms))
    total_s = summary["total_s"] or 1e-12
    # Span times are wall clock; one factor brings them to the
    # reference machine speed (shares and counts need none).
    slowdown = statistics.median(traced.factors)

    def name(key: str, field: str = "self_s") -> float:
        return names.get(key, {}).get(field, 0)

    def per_op_ms(seconds: float) -> float:
        return seconds * 1e3 / ops / slowdown

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: dict[str, float] = {}
    source_s = layers[tracing.SOURCE_SIDE]["self_s"]
    for layer in tracing.LAYERS:
        bucket = layers[layer]
        own = bucket["self_s"]
        metrics[f"{layer}.calls"] = bucket["calls"]
        metrics[f"{layer}.self_ms_per_op"] = per_op_ms(own)
        if layer == "federation":
            own += source_s
        metrics[f"{layer}.share"] = own / total_s

    by_class: dict[str, list[float]] = {cls: [] for cls in OP_CLASSES}
    after_write: list[float] = []
    rest_ops = name("rest.request", "calls")
    for sample, cls, raw in zip(traced.latencies_ms, traced.classes,
                                traced.after_write):
        if rest_ops and cls in by_class:
            by_class[cls].append(sample)
        if raw:
            after_write.append(sample)
    metrics["rest.encode_ms_per_op"] = per_op_ms(name("rest.encode"))
    metrics["rest.failed"] = (traced.latencies_ms.count(OP_LIMIT_MS)
                              if rest_ops else 0)
    for cls, samples in by_class.items():
        metrics[f"rest.{cls}.p50_ms"] = percentile(sorted(samples), 0.5)
    metrics["rest.read_after_write.p50_ms"] = percentile(
        sorted(after_write), 0.5)

    metrics["api.session.plan_cache_hit_ratio"] = ratio(
        name("api.session.prepare", "n"),
        name("api.session.prepare", "calls"))
    metrics["api.session.engine_rebuilds"] = name(
        "api.session.engine_build", "calls")
    metrics["core.engine.where_rewrite_ms_per_op"] = per_op_ms(
        name("core.engine.where_rewrite"))
    lookups = sum(name(f"core.sqm.{kind}_for", "calls")
                  for kind in ("pairs", "values", "subjects"))
    executions = name("sparql.select", "calls")
    metrics["core.sqm.extraction_cache_hit_ratio"] = ratio(
        lookups - executions, lookups)
    metrics["core.sqm.sparql_executions"] = executions
    metrics["core.join_manager.rows_in_per_op"] = (
        name("core.join_manager.combine", "n")
        + name("core.join_manager.page_combine", "n")) / ops
    metrics["sparql.solutions_per_call"] = ratio(
        name("sparql.select", "n"), executions)
    metrics["rdf.bulk_loads"] = name("rdf.add_all", "calls")
    metrics["rdf.triples_loaded"] = (name("rdf.add_all", "n")
                                     + name("rdf.update", "n"))
    kb_calls = name("crosse.kb.effective_kb", "calls")
    metrics["crosse.kb.effective_kb_calls"] = kb_calls
    metrics["crosse.kb.rebuild_ratio"] = ratio(
        children.get(("crosse.kb.effective_kb", "rdf.add_all"), 0),
        kb_calls)
    metrics["crosse.platform.writes"] = (
        name("crosse.platform.annotate_free", "calls")
        + name("crosse.platform.accept_statement", "calls"))
    metrics["relational.compile_ms_per_op"] = per_op_ms(
        name("relational.stream_ast"))
    metrics["relational.drain_ms_per_op"] = per_op_ms(
        name("relational.fetch") + name("relational.close"))
    metrics["relational.rows_out_per_op"] = (
        name("relational.fetch", "n")
        + name("relational.execute_ast", "n")) / ops
    metrics["relational.temp_tables"] = name(
        "relational.create_temp_table", "calls")

    fragments = counters.get("federation.fragments", 0)
    metrics["federation.ships"] = name("federation.ship", "calls")
    metrics["federation.fragments"] = fragments
    metrics["federation.fragment_cache_hit_ratio"] = ratio(
        counters.get("federation.fragment_cache_hits", 0), fragments)
    metrics["federation.rows_shipped_per_op"] = counters.get(
        "federation.rows_shipped", 0) / ops
    metrics["federation.pushed_filter_ratio"] = ratio(
        counters.get("federation.pushed_ops", 0),
        counters.get("federation.shipping_ops", 0))
    metrics["federation.source_ms_per_op"] = per_op_ms(source_s)

    logged = counters.get("durability.bytes_logged", 0)
    metrics["durability.records"] = name("durability.log", "calls")
    metrics["durability.bytes_logged"] = logged
    metrics["durability.bytes_per_write_op"] = ratio(
        logged, counters.get("write_ops", 0))

    metrics["trace.overhead_ratio"] = ratio(traced.seconds, plain.seconds)
    metrics["trace.unattributed_share"] = (
        layers["driver"]["self_s"] / total_s)
    metrics["trace.speed_factor"] = slowdown
    return metrics


def per_layer_unit(metric: str) -> str:
    if "ms" in metric.rsplit(".", 1)[-1]:
        return "ms"
    if metric.endswith(("ratio", "share", "factor")):
        return "ratio"
    if "bytes" in metric:
        return "B"
    if "rows" in metric or "solutions" in metric or "triples" in metric:
        return "rows"
    return "count"


# -- command line -----------------------------------------------------------------------


def leftovers() -> list[str]:
    """Processes and non-daemon threads this run would leave behind."""
    alive = [f"process {child.pid}"
             for child in multiprocessing.active_children()]
    alive += [f"thread {thread.name}" for thread in threading.enumerate()
              if thread is not threading.main_thread()
              and not thread.daemon]
    return alive


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def report(record: dict) -> dict:
    """Print one workload's metrics by name; returns the driver's line."""
    unit_of = (per_layer_unit if record["trace"]
               else END_TO_END_UNITS.__getitem__)
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'}, "
          f"{record['attempted']} samples) ==")
    metrics = {}
    for metric, value in record["metrics"].items():
        unit = unit_of(metric)
        metrics[metric] = {"value": value, "unit": unit}
        print(f"{metric:44s} {value:16.6f} {unit}")
    print(f"{'failed_ops_ratio':44s} "
          f"{record['failed'] / max(1, record['attempted']):16.6f} ratio")
    for figure, value in record["wall_clock"].items():
        print(f"  (wall clock: {figure} {value:.4f})")
    for problem in record["problems"]:
        print(f"PROBLEM: {problem}")
    return {"correct": record["correct"],
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def write_expected(records: list[dict]) -> None:
    document = {"seed": records[0]["seed"], "scale": records[0]["scale"],
                "checkpoint_every": CHECKPOINT_EVERY, "workloads": {}}
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as handle:
            previous = json.load(handle)
        if all(previous.get(key) == document[key]
               for key in ("seed", "scale", "checkpoint_every")):
            document["workloads"] = previous["workloads"]
    except FileNotFoundError:
        pass
    for record in records:
        document["workloads"][record["workload"]] = record["checkpoints"]
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=0, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: all four, back to back")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the timed loop: it runs the ops "
                        "that take this long at the workload's nominal "
                        "rate")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="append the result records, one "
                        "JSON line each, to this file (for compare.py)")
    parser.add_argument("--write-expected", action="store_true",
                        help="commit this run's digests to expected.json")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    faulthandler.dump_traceback_later(HARD_TIMEOUT_S * len(names),
                                      exit=True)
    try:
        records = [run_workload(name, args.seed, args.seconds,
                                bool(args.trace))
                   for name in names]
    finally:
        faulthandler.cancel_dump_traceback_later()
    print(f"machine: {json.dumps(machine())}")
    lines = [report(record) for record in records]
    if args.write_expected:
        write_expected(records)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(
                    {key: record[key] for key in
                     ("workload", "seed", "trace", "correct", "attempted",
                      "failed", "metrics", "wall_clock")}) + "\n")
    alive = leftovers()
    if alive:
        print(f"left running: {alive}", file=sys.stderr)
        return 3
    print(json.dumps(lines[0] if args.workload
                     else dict(zip(names, lines))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
