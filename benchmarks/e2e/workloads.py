"""The four benchmark workloads: inputs, op streams, execution, teardown.

Each workload has one fixed data set per scale (databank rows, knowledge
bases, users: the stated input size, the same for every seed) and an op
stream that is a pure function of ``(workload, seed)``: which user asks,
which template, which parameters and literals, in which order.  The
stream is endless and *stratified*: it is generated block by block, each
block holding the workload's op mix in exact proportion and shuffled, so
any prefix of a few blocks has the stated mix whatever the seed.  The
harness draws from it for as long as it measures.

Why each workload exists, what it isolates and how it is sized is in
``README.md``; the sizes below are the ones the README states.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import random
import shutil
import sqlite3
import tempfile
from dataclasses import dataclass
from math import isclose
from typing import Any, Callable, Iterator

import repro
from repro.core.stored_queries import StoredQueryRegistry
from repro.crosse.platform import CrossePlatform
from repro.durability import DurabilityOptions
from repro.federation import (CrosseRestService, FederationOptions,
                              Mediator)
from repro.relational import Database
from repro.smartground.datagen import (CITIES, LAB_NAMES, LANDFILL_TYPES,
                                       SmartGroundConfig, material_names)
from repro.smartground.ontology import researcher_kb, synthetic_kb
from repro.smartground.queries import DANGER_QUERY_SPARQL
from repro.workloads import scaled_databank

#: Everything the benchmark writes (WAL directories, traces) goes here.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

MATERIALS = material_names(SmartGroundConfig(n_materials=45))


class Zipf:
    """Ranks ``0..n-1`` drawn with probability proportional to
    ``1 / (rank + 1) ** s``."""

    def __init__(self, n: int, s: float = 1.1) -> None:
        total = 0.0
        self._cumulative = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** s
            self._cumulative.append(total)

    def draw(self, rng: random.Random) -> int:
        point = rng.random() * self._cumulative[-1]
        return bisect.bisect_left(self._cumulative, point)


# -- answers -------------------------------------------------------------------


def _sig(value: Any) -> Any:
    """Floats to 9 significant digits, so a changed summation order in
    the program does not change a digest."""
    return float(f"{value:.9g}") if type(value) is float else value


def fold_ordered(payload: dict) -> str:
    """Canonical text of a fully ordered result page."""
    rows = [[_sig(value) for value in row] for row in payload["rows"]]
    return json.dumps([payload["columns"], rows], default=str)


def fold_sorted(payload: dict) -> str:
    """Canonical text of a complete, unordered result: rows sorted."""
    rows = [json.dumps([_sig(value) for value in row], default=str)
            for row in payload["rows"]]
    rows.sort()
    return json.dumps([payload["columns"], rows])


def fold_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, default=str)


def has_rows(payload: dict) -> bool:
    return isinstance(payload.get("rows"), list) and "columns" in payload


def is_complete(payload: dict) -> bool:
    """A result folded by sorting must be whole: a cut page of an
    unordered result is not a defined answer."""
    return has_rows(payload) and payload.get("next_token") is None


@dataclass(slots=True)
class Op:
    """One operation of a stream.

    ``cls`` is the op class the metrics group by, ``key`` the template
    it came from, ``args`` what :meth:`Workload.execute` needs, ``shape``
    the payload check, ``fold`` the canonical text folded into the
    answer digest (``None``: checked for status and shape only),
    ``ident`` the identity under which a read-only workload must always
    give the same answer, and ``after_write`` marks a user's first
    query after her own write.
    """

    cls: str
    key: str
    args: tuple
    shape: Callable[[Any], bool]
    fold: Callable[[Any], str] | None
    ident: tuple | None = None
    after_write: bool = False


class Template:
    """A query text with ``?`` slots and a seeded parameter draw."""

    def __init__(self, key: str, text: str,
                 draw: Callable[[random.Random], list],
                 ordered: bool = True) -> None:
        self.key = key
        self.text = " ".join(text.split())
        self.draw = draw
        self.ordered = ordered

    def inline(self, params: list) -> str:
        """The text with each ``?`` replaced by its literal (none of the
        templates has a ``?`` inside a string)."""
        pieces = self.text.split("?")
        literals = [f"'{value}'" if isinstance(value, str) else repr(value)
                    for value in params]
        return "".join(piece + literal for piece, literal
                       in zip(pieces, literals + [""]))


# -- plain-SQL templates (sql_analytic; a subset rides in social_mix) ----------

_MATERIAL_ZIPF = Zipf(30, 1.0)


def _material(rng: random.Random) -> str:
    return MATERIALS[_MATERIAL_ZIPF.draw(rng)]


def sql_templates(n_landfills: int) -> list[Template]:
    def landfill(rng: random.Random) -> str:
        return f"lf{rng.randrange(n_landfills):04d}"

    return [
        Template(
            "filter_agg",
            """SELECT COUNT(*) AS n, AVG(amount) AS avg_amount,
                      MAX(purity) AS max_purity
               FROM elem_contained WHERE amount > ? AND purity < ?""",
            lambda rng: [round(rng.uniform(1.0, 30.0), 1),
                         round(rng.uniform(0.3, 0.9), 2)]),
        Template(
            "group_by",
            """SELECT elem_name, COUNT(*) AS n, SUM(amount) AS total
               FROM elem_contained WHERE purity > ?
               GROUP BY elem_name ORDER BY elem_name""",
            lambda rng: [round(rng.uniform(0.1, 0.8), 2)]),
        Template(
            "join2",
            """SELECT s.landfill_name, COUNT(*) AS n,
                      AVG(a.concentration) AS avg_c
               FROM analysis a JOIN sample s ON a.sample_id = s.id
               WHERE a.elem_name = ?
               GROUP BY s.landfill_name
               ORDER BY n DESC, s.landfill_name LIMIT 20""",
            lambda rng: [_material(rng)]),
        Template(
            "join3",
            """SELECT l.city, COUNT(*) AS n, AVG(a.concentration) AS avg_c
               FROM analysis a JOIN sample s ON a.sample_id = s.id
                    JOIN landfill l ON s.landfill_name = l.name
               WHERE a.lab_name = ? AND s.taken_year >= ?
               GROUP BY l.city ORDER BY l.city""",
            lambda rng: [rng.choice(LAB_NAMES[:4]),
                         rng.randint(2011, 2016)]),
        Template(
            "topk",
            """SELECT landfill_name, elem_name, amount FROM elem_contained
               WHERE elem_name = ?
               ORDER BY amount DESC, landfill_name LIMIT 10""",
            lambda rng: [_material(rng)]),
        Template(
            "count_distinct",
            """SELECT COUNT(DISTINCT landfill_name) AS n
               FROM elem_contained WHERE amount > ?""",
            lambda rng: [round(rng.uniform(5.0, 60.0), 1)]),
        Template(
            "point",
            """SELECT elem_name, amount, purity FROM elem_contained
               WHERE landfill_name = ? ORDER BY elem_name""",
            lambda rng: [landfill(rng)]),
    ]


#: One block of the sql_analytic stream.  Sorted by cost the median op
#: falls inside the filter_agg run and the 99th percentile inside join3.
SQL_BLOCK = (["point"] * 2 + ["count_distinct"] * 2 + ["group_by"] * 2
             + ["filter_agg"] * 3 + ["topk"] * 2 + ["join2"] * 2
             + ["join3"])


# -- SESQL templates: repro.smartground.WORKLOAD with ? parameters -------------

_LANDFILL_ZIPF = Zipf(1000, 1.1)
_GRID_ZIPF = Zipf(1000, 1.1)


def enrich_templates(n_landfills: int) -> list[Template]:
    """The paper's query shapes (ex4.1-4.5 and the four exploration
    queries; the quadratic ex4.6 self-join is left out at this scale).

    Each has a total ORDER BY over a single-valued enrichment, or
    returns fewer rows than a page and is folded sorted — so the first
    page is a defined answer whatever order the engine scans in.
    """
    def landfill(rng: random.Random) -> str:
        return f"lf{_LANDFILL_ZIPF.draw(rng) % n_landfills:04d}"

    def grid(low: float, high: float, digits: int):
        """A zipf-drawn point of a 1000-point grid: about a thousand
        distinct literals per template when inlined."""
        step = (high - low) / 999
        return lambda rng: [round(low + step * _GRID_ZIPF.draw(rng),
                                  digits)]

    return [
        Template(
            "ex4.1-schema-extension",
            """SELECT elem_name, landfill_name FROM elem_contained
               WHERE landfill_name = ?
               ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""",
            lambda rng: [landfill(rng)], ordered=False),
        Template(
            "ex4.2-schema-replacement",
            """SELECT name, city FROM landfill WHERE opened_year >= ?
               ORDER BY name
               ENRICH SCHEMAREPLACEMENT(city, inCountry)""",
            lambda rng: [rng.randint(1955, 2010)]),
        Template(
            "ex4.3-bool-extension",
            """SELECT elem_name FROM elem_contained
               WHERE landfill_name = ?
               ENRICH BOOLSCHEMAEXTENSION(elem_name, isA,
                                          HazardousWaste)""",
            lambda rng: [landfill(rng)], ordered=False),
        Template(
            "ex4.4-bool-replacement",
            """SELECT name, city FROM landfill
               WHERE landfill_type = ? AND opened_year >= ?
               ORDER BY name
               ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)""",
            lambda rng: [rng.choice(LANDFILL_TYPES),
                         rng.randint(1955, 2010)]),
        Template(
            "ex4.5-replace-constant",
            """SELECT landfill_name FROM elem_contained
               WHERE ${elem_name = HazardousWaste:cond1} AND amount > ?
               ORDER BY landfill_name
               ENRICH REPLACECONSTANT(cond1, HazardousWaste,
                                      dangerQuery)""",
            grid(1.0, 40.0, 2)),
        Template(
            "what-is-available-where",
            """SELECT elem_name, landfill_name, amount FROM elem_contained
               WHERE amount > ?
               ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""",
            grid(250.0, 600.0, 1), ordered=False),
        Template(
            "quality-across-landfills",
            """SELECT elem_name, landfill_name, purity FROM elem_contained
               WHERE purity > ?
               ORDER BY elem_name, purity DESC, landfill_name
               ENRICH BOOLSCHEMAEXTENSION(elem_name, isA,
                                          HazardousWaste)""",
            grid(0.85, 0.97, 4)),
        Template(
            "hazard-hotspots",
            """SELECT landfill_name, COUNT(*) AS hazards
               FROM elem_contained
               WHERE ${elem_name = HazardousWaste:cond1} AND amount > ?
               GROUP BY landfill_name
               ORDER BY hazards DESC, landfill_name
               ENRICH REPLACECONSTANT(cond1, HazardousWaste,
                                      dangerQuery)""",
            grid(1.0, 40.0, 2)),
        Template(
            "country-level-rollup",
            """SELECT name, city FROM landfill WHERE area_m2 > ?
               ORDER BY name
               ENRICH SCHEMAREPLACEMENT(city, inCountry)""",
            grid(50000.0, 450000.0, 0)),
    ]


# -- base classes ----------------------------------------------------------------


class Workload:
    """Inputs + op stream + execution of one workload."""

    name = ""
    #: Ops per second at the reference machine speed, rounded down:
    #: ``--seconds`` times this is the timed op count.
    nominal_ops_per_s = 0
    #: Untimed prefix of the stream that warms the caches.
    warmup_ops = 0
    #: A read-only workload must answer one ``Op.ident`` one way.
    read_only = False

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale

    def sized(self, n: int, floor: int = 1) -> int:
        return max(floor, int(n * self.scale))

    def data_rng(self, purpose: str) -> random.Random:
        """For the data set: the same whatever the seed.  (String seeds
        hash through SHA-512, so they are stable across processes.)"""
        return random.Random(f"{self.name}/data/{purpose}")

    def rng(self, purpose: str) -> random.Random:
        """For the op stream: a function of the seed."""
        return random.Random(f"{self.name}/{self.seed}/{purpose}")

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def block(self, rng: random.Random) -> list[Op]:
        """The next stratified block of the stream."""
        raise NotImplementedError

    def stream(self) -> Iterator[Op]:
        rng = self.rng("ops")
        while True:
            yield from self.block(rng)

    def execute(self, op: Op) -> tuple[bool, Any]:
        """Run *op*; returns (status and shape fine, answer payload) once
        the answer is encoded as JSON text."""
        raise NotImplementedError

    def oracle_check(self) -> list[str]:
        """Keys of templates whose answer an independent engine does
        not confirm (run once, untimed)."""
        return []

    # Traced run only: counts read from the program's public reports.

    def start_counting(self) -> None:
        """Zero the counters (the traced segment starts here)."""

    def observe(self, op: Op) -> None:
        """Read public counters at the op boundary."""

    def counters(self) -> dict[str, float]:
        return {}


class RestWorkload(Workload):
    """A CroSSE platform behind :class:`CrosseRestService`."""

    n_elem_rows = 6000
    n_users = 0
    n_synthetic = 4000
    accept_share = 0.5
    durable = False

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.platform: CrossePlatform | None = None
        self.service: CrosseRestService | None = None
        self.users: list[str] = []
        self.curator_ids: list[int] = []
        self._wal_dir: str | None = None

    # -- set-up ----------------------------------------------------------------

    def build_databank(self) -> Database:
        db = scaled_databank(self.sized(self.n_elem_rows, 300),
                             seed=self.data_rng("databank").randrange(2 ** 31))
        db.execute("ANALYZE")
        return db

    def setup(self) -> None:
        db = self.build_databank()
        self.n_landfills = len(db.table("landfill"))
        platform = self.platform = CrossePlatform(db)
        platform.register_stored_query("dangerQuery", DANGER_QUERY_SPARQL)
        self.populate(platform)
        if self.durable:
            os.makedirs(OUT_DIR, exist_ok=True)
            self._wal_dir = tempfile.mkdtemp(prefix="wal-", dir=OUT_DIR)
            # Switched on over the populated platform: one baseline
            # snapshot, then every write of the run goes to the WAL.
            platform.enable_durability(DurabilityOptions(
                directory=self._wal_dir, fsync="batch"))
        self.service = CrosseRestService(platform)

    def populate(self, platform: CrossePlatform) -> None:
        """A curator's public ontology; every user accepts a seeded
        share of it, so each has her own effective KB."""
        if not self.n_users:
            platform.register_user("analyst")
            self.users = ["analyst"]
            return
        platform.register_user("curator")
        ontology = list(researcher_kb())
        ontology += list(synthetic_kb(
            self.sized(self.n_synthetic, 100),
            seed=self.data_rng("ontology").randrange(2 ** 31)))
        self.curator_ids = [
            platform.annotate_free("curator", triple.subject,
                                   triple.predicate,
                                   triple.object).statement_id
            for triple in ontology]
        rng = self.data_rng("users")
        self.users = [f"user{index:03d}"
                      for index in range(self.sized(self.n_users, 4))]
        for username in self.users:
            platform.register_user(
                username, interests=rng.sample(MATERIALS, 3))
            for statement_id in self.curator_ids:
                if rng.random() < self.accept_share:
                    platform.accept_statement(username, statement_id)

    def teardown(self) -> None:
        try:
            if self.service is not None:
                self.service.close()
            if self.platform is not None \
                    and self.platform.durability is not None:
                self.platform.durability.close()
        finally:
            if self._wal_dir is not None:
                shutil.rmtree(self._wal_dir, ignore_errors=True)
            self.service = self.platform = None

    # -- ops ---------------------------------------------------------------------

    def query_op(self, cls: str, username: str, template: Template,
                 params: list, inline: bool = False,
                 after_write: bool = False) -> Op:
        body = {"username": username, "limit": 100}
        if inline:
            body["query"] = template.inline(params)
        else:
            body["query"] = template.text
            body["params"] = params
        if template.ordered:
            shape, fold = has_rows, fold_ordered
        else:
            shape, fold = is_complete, fold_sorted
        return Op(cls, template.key, ("POST", "/api/v1/query", body),
                  shape, fold,
                  ident=(username, template.key, inline, *params),
                  after_write=after_write)

    def execute(self, op: Op) -> tuple[bool, Any]:
        method, path, body = op.args
        response = self.service.request(method, path, body)
        response.json()
        payload = response.payload
        return response.status == 200 and op.shape(payload), payload

    def wal_bytes(self) -> int:
        """Bytes the run's WAL segments hold on disk, once synced."""
        if self._wal_dir is None:
            return 0
        self.platform.durability.sync()
        return sum(os.path.getsize(os.path.join(self._wal_dir, name))
                   for name in os.listdir(self._wal_dir)
                   if name.startswith("wal-"))


# -- sql_analytic ----------------------------------------------------------------


class SqlAnalytic(RestWorkload):
    name = "sql_analytic"
    nominal_ops_per_s = 200
    n_elem_rows = 12000
    warmup_ops = 56
    read_only = True

    def setup(self) -> None:
        super().setup()
        self.templates = {template.key: template
                          for template in sql_templates(self.n_landfills)}

    def block(self, rng: random.Random) -> list[Op]:
        keys = list(SQL_BLOCK)
        rng.shuffle(keys)
        ops = []
        for key in keys:
            template = self.templates[key]
            ops.append(self.query_op("query_sql", "analyst", template,
                                     template.draw(rng)))
        return ops

    def oracle_check(self) -> list[str]:
        """Each template once against stdlib sqlite3 on the same rows."""
        db = self.platform.databank
        oracle = sqlite3.connect(":memory:")
        try:
            for table in ("landfill", "elem_contained", "sample",
                          "analysis"):
                result = db.query(f"SELECT * FROM {table}")
                columns = ", ".join(result.columns)
                marks = ", ".join("?" * len(result.columns))
                oracle.execute(f"CREATE TABLE {table} ({columns})")
                oracle.executemany(
                    f"INSERT INTO {table} VALUES ({marks})", result.rows)
            rng = self.rng("oracle")
            wrong = []
            for template in self.templates.values():
                params = template.draw(rng)
                ok, payload = self.execute(self.query_op(
                    "query_sql", "analyst", template, params))
                expected = oracle.execute(template.text, params).fetchall()
                if not ok or not _same_rows(payload["rows"], expected):
                    wrong.append(template.key)
            return wrong
        finally:
            oracle.close()


def _same_rows(ours: list[list], theirs: list[tuple]) -> bool:
    if len(ours) != len(theirs):
        return False
    for mine, other in zip(ours, theirs):
        if len(mine) != len(other):
            return False
        for a, b in zip(mine, other):
            if isinstance(a, float) or isinstance(b, float):
                if a is None or b is None \
                        or not isclose(a, b, rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif a != b:
                return False
    return True


# -- enrich_hot --------------------------------------------------------------------


class EnrichHot(RestWorkload):
    name = "enrich_hot"
    nominal_ops_per_s = 300
    n_users = 64
    warmup_ops = 300
    read_only = True

    #: One block: every template twice, the two point-lookups once more.
    BLOCK = 2 * [
        "ex4.1-schema-extension", "ex4.2-schema-replacement",
        "ex4.3-bool-extension", "ex4.4-bool-replacement",
        "ex4.5-replace-constant", "what-is-available-where",
        "quality-across-landfills", "hazard-hotspots",
        "country-level-rollup",
    ] + ["ex4.1-schema-extension", "ex4.3-bool-extension"]

    def setup(self) -> None:
        super().setup()
        self.templates = {
            template.key: template
            for template in enrich_templates(self.n_landfills)}
        self.user_zipf = Zipf(len(self.users), 1.1)

    def block(self, rng: random.Random) -> list[Op]:
        keys = list(self.BLOCK)
        rng.shuffle(keys)
        ops = []
        for key in keys:
            template = self.templates[key]
            username = self.users[self.user_zipf.draw(rng)]
            ops.append(self.query_op("query_enrich", username, template,
                                     template.draw(rng)))
        return ops


# -- social_mix --------------------------------------------------------------------


class SocialMix(RestWorkload):
    name = "social_mix"
    nominal_ops_per_s = 200
    n_users = 256
    accept_share = 0.25
    warmup_ops = 300
    durable = True

    #: Op mix by count, per 100 ops.
    MIX = (("query_enrich", 66), ("query_sql", 10), ("annotate", 9),
           ("accept", 6), ("list", 3), ("recommend", 3), ("analyze", 3))
    SQL_KEYS = ("filter_agg", "group_by", "topk", "point")
    LEVELS = ("low", "mid", "high", "extreme")

    def setup(self) -> None:
        super().setup()
        self.enrich = enrich_templates(self.n_landfills)
        plain = {template.key: template
                 for template in sql_templates(self.n_landfills)}
        self.plain = [plain[key] for key in self.SQL_KEYS]
        self.user_zipf = Zipf(len(self.users), 1.1)
        #: Every SESQL template with ? parameters and with its literal
        #: inlined, and every plain template, dealt round robin across
        #: blocks: any few blocks hold each variant equally often, so
        #: the latency mix is not left to the seed's luck (the median
        #: sits where the variants' latencies are far apart).
        self._enrich_deal = itertools.cycle(
            [(template, inline) for template in self.enrich
             for inline in (False, True)])
        self._plain_deal = itertools.cycle(
            [(template, False) for template in self.plain])
        #: Users with a write since their last query.
        self._dirty: set[str] = set()
        self._write_ops = 0
        self._wal_start = 0

    def block(self, rng: random.Random) -> list[Op]:
        counts = dict(self.MIX)
        kinds = [kind for kind, count in self.MIX for _ in range(count)]
        rng.shuffle(kinds)
        hands = {
            "query_enrich": list(itertools.islice(
                self._enrich_deal, counts["query_enrich"])),
            "query_sql": list(itertools.islice(
                self._plain_deal, counts["query_sql"]))}
        for hand in hands.values():
            rng.shuffle(hand)
        dirty = self._dirty
        ops = []
        for kind in kinds:
            username = self.users[self.user_zipf.draw(rng)]
            if kind in hands:
                template, inline = hands[kind].pop()
                ops.append(self.query_op(
                    kind, username, template, template.draw(rng),
                    inline=inline, after_write=username in dirty))
                dirty.discard(username)
            elif kind == "annotate":
                body = {"username": username,
                        "subject": rng.choice(MATERIALS),
                        "property": "dangerLevel",
                        "object": rng.choice(self.LEVELS)}
                ops.append(Op(
                    kind, kind, ("POST", "/api/v1/annotations", body),
                    lambda payload: "statement_id" in payload, fold_json))
                dirty.add(username)
            elif kind == "accept":
                statement_id = rng.choice(self.curator_ids)
                ops.append(Op(
                    kind, kind,
                    ("POST", f"/api/v1/statements/{statement_id}/accept",
                     {"username": username}),
                    lambda payload: "accepted_by" in payload, fold_json))
                dirty.add(username)
            elif kind == "list":
                ops.append(Op(
                    kind, kind,
                    ("GET", f"/api/v1/annotations/{username}?limit=50",
                     None),
                    lambda payload: len(payload["annotations"]) == 50,
                    fold_json))
            elif kind == "recommend":
                ops.append(Op(
                    kind, kind,
                    ("GET", "/api/v1/recommendations/peers/"
                            f"{username}?limit=20", None),
                    lambda payload: isinstance(payload["peers"], list),
                    fold_json))
            else:
                template = rng.choice(self.enrich)
                ops.append(Op(
                    kind, kind,
                    ("POST", "/api/v1/analyze",
                     {"username": username,
                      "query": template.inline(template.draw(rng))}),
                    lambda payload: "report" in payload, fold_json))
        return ops

    def observe(self, op: Op) -> None:
        if op.cls in ("annotate", "accept"):
            self._write_ops += 1

    def start_counting(self) -> None:
        self._write_ops = 0
        self._wal_start = self.wal_bytes()

    def counters(self) -> dict[str, float]:
        return {"durability.bytes_logged":
                    self.wal_bytes() - self._wal_start,
                "write_ops": self._write_ops}


# -- federated_enrich ----------------------------------------------------------------

#: (source, country, landfill table + columns, contained table + columns):
#: six national registries that agree on nothing but the facts.
SOURCES = (
    ("italy", "Italy", "discarica",
     ("nome", "citta", "tipo", "superficie_m2", "anno"),
     "contenuto", ("discarica", "elemento", "quantita", "purezza")),
    ("france", "France", "decharge",
     ("nom", "ville", "genre", "surface_m2", "annee"),
     "contenu", ("decharge", "element", "quantite", "purete")),
    ("spain", "Spain", "vertedero",
     ("nombre", "ciudad", "clase", "superficie_m2", "anio"),
     "contenido", ("vertedero", "elemento", "cantidad", "pureza")),
    ("germany", "Germany", "deponie",
     ("bezeichnung", "stadt", "art", "flaeche_m2", "jahr"),
     "inhalt", ("deponie", "stoff", "menge", "reinheit")),
    ("poland", "Poland", "skladowisko",
     ("nazwa", "miasto", "typ", "powierzchnia_m2", "rok"),
     "zawartosc", ("skladowisko", "pierwiastek", "ilosc", "czystosc")),
    ("greece", "Greece", "xyta",
     ("onoma", "poli", "typos", "ektasi_m2", "etos"),
     "periexomeno", ("xyta", "stoicheio", "posotita", "katharotita")),
)


def federated_templates() -> dict[str, Template]:
    thresholds = (2.0, 5.0, 10.0, 20.0, 40.0, 80.0)
    countries = [country for _s, country, *_rest in SOURCES]
    return {template.key: template for template in (
        Template(
            "fed-extension",
            """SELECT landfill_name, elem_name, amount FROM eu_contained
               WHERE elem_name = ? AND amount > ?
               ORDER BY amount DESC, landfill_name
               ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""",
            lambda rng: [_material(rng), rng.choice(thresholds)]),
        Template(
            "fed-bool",
            """SELECT landfill_name, elem_name, purity FROM eu_contained
               WHERE country = ? AND purity > ?
               ORDER BY landfill_name, elem_name
               ENRICH BOOLSCHEMAEXTENSION(elem_name, isA,
                                          HazardousWaste)""",
            lambda rng: [rng.choice(countries),
                         rng.choice((0.9, 0.92, 0.94, 0.96))]),
        Template(
            "fed-replace-constant",
            """SELECT landfill_name, elem_name, amount FROM eu_contained
               WHERE ${elem_name = HazardousWaste:cond1} AND amount > ?
               ORDER BY landfill_name, elem_name
               ENRICH REPLACECONSTANT(cond1, HazardousWaste,
                                      dangerQuery)""",
            lambda rng: [rng.choice((60.0, 80.0, 100.0, 120.0))]),
        Template(
            "rollup-kind",
            """SELECT country, kind, COUNT(*) AS n,
                      AVG(area_m2) AS avg_area
               FROM eu_landfill GROUP BY country, kind
               ORDER BY country, kind""",
            lambda rng: []),
        Template(
            "rollup-city",
            """SELECT city, COUNT(*) AS n, MIN(opened_year) AS oldest,
                      MAX(area_m2) AS largest
               FROM eu_landfill GROUP BY city ORDER BY city""",
            lambda rng: []),
        Template(
            "rollup-element",
            """SELECT elem_name, COUNT(*) AS n, SUM(amount) AS total
               FROM eu_contained GROUP BY elem_name ORDER BY elem_name""",
            lambda rng: []),
    )}


class FederatedEnrich(Workload):
    name = "federated_enrich"
    nominal_ops_per_s = 100
    warmup_ops = 40
    n_landfills_per_source = 350

    #: One block of 20 ops — 60 % SESQL over a view with a pushable
    #: conjunct, 25 % roll-ups over full views, 10 % source INSERTs,
    #: 5 % refresh — is: refresh, HALF shuffled (the SESQL queries ship
    #: filtered fragments), the roll-up that materialises the whole of
    #: eu_contained, HALF shuffled again (the same queries now find the
    #: view local).  So every block spends the same share of its
    #: queries on either side of the materialisation cache.
    HALF = (["fed-extension"] * 2 + ["fed-bool"] * 2
            + ["fed-replace-constant"] * 2
            + ["rollup-kind", "rollup-city", "insert"])

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.session = None
        self.databank = None
        self.sources: list[Database] = []
        self.templates = federated_templates()
        self._last_report = None
        self._counts = dict.fromkeys(
            ("fragments", "fragment_cache_hits", "rows_shipped",
             "shipping_ops", "pushed_ops"), 0)

    def setup(self) -> None:
        rng = self.data_rng("sources")
        # Fragments ship one after the other: the sources are in this
        # process, so a worker pool would only add interpreter-lock
        # hand-offs (E13 keeps the latency-bound, parallel case).
        mediator = Mediator(FederationOptions(max_workers=1))
        landfill_view, contained_view = [], []
        for source, country, l_table, l_cols, c_table, c_cols in SOURCES:
            db = Database(source)
            db.execute(f"CREATE TABLE {l_table} ({l_cols[0]} TEXT, "
                       f"{l_cols[1]} TEXT, {l_cols[2]} TEXT, "
                       f"{l_cols[3]} REAL, {l_cols[4]} INTEGER)")
            db.execute(f"CREATE TABLE {c_table} ({c_cols[0]} TEXT, "
                       f"{c_cols[1]} TEXT, {c_cols[2]} REAL, "
                       f"{c_cols[3]} REAL)")
            cities = [city for city, where in CITIES if where == country]
            landfills, contained = [], []
            for index in range(self.sized(self.n_landfills_per_source,
                                          20)):
                name = f"{source[:2]}{index:04d}"
                landfills.append(dict(zip(l_cols, (
                    name, rng.choice(cities), rng.choice(LANDFILL_TYPES),
                    round(rng.uniform(5_000, 500_000), 1),
                    rng.randint(1955, 2015)))))
                for material in rng.sample(MATERIALS, rng.randint(3, 9)):
                    contained.append(dict(zip(c_cols, (
                        name, material,
                        round(rng.lognormvariate(2.0, 1.2), 3),
                        round(rng.uniform(0.05, 0.98), 3)))))
            db.insert_rows(l_table, landfills)
            db.insert_rows(c_table, contained)
            db.execute("ANALYZE")
            mediator.register_source(source, db)
            self.sources.append(db)
            landfill_view.append((source, (
                f"SELECT {l_cols[0]} AS name, {l_cols[1]} AS city, "
                f"'{country}' AS country, {l_cols[2]} AS kind, "
                f"{l_cols[3]} AS area_m2, {l_cols[4]} AS opened_year "
                f"FROM {l_table}")))
            contained_view.append((source, (
                f"SELECT {c_cols[0]} AS landfill_name, "
                f"{c_cols[1]} AS elem_name, {c_cols[2]} AS amount, "
                f"{c_cols[3]} AS purity, '{country}' AS country "
                f"FROM {c_table}")))
        mediator.define_view("eu_landfill", landfill_view)
        mediator.define_view("eu_contained", contained_view)
        self.databank = mediator.as_databank()
        registry = StoredQueryRegistry()
        registry.register("dangerQuery", DANGER_QUERY_SPARQL)
        self.session = repro.connect(
            self.databank, knowledge_base=researcher_kb(),
            stored_queries=registry)

    def teardown(self) -> None:
        try:
            if self.session is not None:
                self.session.close()
        finally:
            if self.databank is not None:
                self.databank.session.close()
            self.session = self.databank = None
            self.sources = []

    def block(self, rng: random.Random) -> list[Op]:
        first, second = list(self.HALF), list(self.HALF)
        rng.shuffle(first)
        rng.shuffle(second)
        ops = []
        for key in ["refresh", *first, "rollup-element", *second]:
            if key == "insert":
                index = rng.randrange(len(SOURCES))
                source, _country, _lt, _lc, c_table, _cc = SOURCES[index]
                sql = (f"INSERT INTO {c_table} VALUES ("
                       f"'{source[:2]}{rng.randrange(20):04d}', "
                       f"'{rng.choice(MATERIALS)}', "
                       f"{round(rng.lognormvariate(2.0, 1.2), 3)}, "
                       f"{round(rng.uniform(0.05, 0.98), 3)})")
                ops.append(Op("source_insert", key, ("insert", index, sql),
                              lambda answer: answer == 1, fold_json))
            elif key == "refresh":
                ops.append(Op("refresh", key, ("refresh",),
                              lambda answer: answer is None, None))
            else:
                template = self.templates[key]
                cls = ("query_sql" if key.startswith("rollup")
                       else "query_enrich")
                ops.append(Op(cls, key,
                              ("query", template.text, template.draw(rng)),
                              has_rows, fold_ordered))
        return ops

    def execute(self, op: Op) -> tuple[bool, Any]:
        kind = op.args[0]
        if kind == "query":
            outcome = self.session.execute(op.args[1], op.args[2])
            answer = {"columns": outcome.columns,
                      "rows": [list(row) for row in outcome.rows]}
        elif kind == "insert":
            answer = self.sources[op.args[1]].execute(op.args[2])
        else:
            answer = self.databank.refresh()
        json.dumps(answer, default=str)
        return op.shape(answer), answer

    def observe(self, op: Op) -> None:
        report = self.databank.last_report
        if report is None or report is self._last_report:
            return
        self._last_report = report
        if not report.sub_queries:
            return
        counts = self._counts
        counts["shipping_ops"] += 1
        counts["fragments"] += len(report.sub_queries)
        counts["fragment_cache_hits"] += report.fragment_cache_hits
        counts["rows_shipped"] += sum(report.rows_per_source.values())
        if report.pushed_filters:
            counts["pushed_ops"] += 1

    def start_counting(self) -> None:
        self._counts = dict.fromkeys(self._counts, 0)

    def counters(self) -> dict[str, float]:
        return {f"federation.{key}": value
                for key, value in self._counts.items()}


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (SqlAnalytic, EnrichHot, SocialMix, FederatedEnrich)}
