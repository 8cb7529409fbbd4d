"""Builders shared by the E1-E8 benchmarks (DESIGN.md §5).

Everything is seeded so a benchmark row is reproducible in isolation.
"""

from __future__ import annotations

import random

from ..core.engine import SESQLEngine
from ..core.stored_queries import StoredQueryRegistry
from ..crosse.context import ContextTracker
from ..rdf.store import TripleStore
from ..relational.engine import Database
from ..smartground.datagen import SmartGroundConfig, generate_databank
from ..smartground.ontology import researcher_kb
from ..smartground.queries import DANGER_QUERY_SPARQL


def scaled_databank(target_elem_rows: int, seed: int = 17) -> Database:
    """A SmartGround databank with ~target rows in elem_contained.

    The generator averages ``avg_elements_per_landfill`` rows per
    landfill, so the landfill count is derived from the target.
    """
    per_landfill = 6
    config = SmartGroundConfig(
        n_landfills=max(1, target_elem_rows // per_landfill),
        avg_elements_per_landfill=per_landfill,
        seed=seed)
    return generate_databank(config)


def bench_engine(db: Database, kb: TripleStore | None = None) -> SESQLEngine:
    """An engine wired like the platform wires it (dangerQuery included)."""
    registry = StoredQueryRegistry()
    registry.register("dangerQuery", DANGER_QUERY_SPARQL)
    return SESQLEngine(db, kb if kb is not None else researcher_kb(),
                       stored_queries=registry)


def seeded_tracker(n_users: int, concepts_per_user: int = 20,
                   concept_pool: int = 100, resources_per_user: int = 10,
                   seed: int = 5) -> ContextTracker:
    """A context tracker with clustered synthetic user activity."""
    rng = random.Random(seed)
    tracker = ContextTracker()
    concepts = [f"concept{i}" for i in range(concept_pool)]
    resources = [f"lf{i:04d}" for i in range(concept_pool * 4)]
    for index in range(n_users):
        username = f"user{index:04d}"
        # Two broad communities with overlapping vocabularies.
        community_offset = 0 if index % 2 == 0 else concept_pool // 2
        for _ in range(concepts_per_user):
            concept = concepts[
                (community_offset + rng.randrange(concept_pool // 2))
                % concept_pool]
            tracker.record_concepts(
                username, [concept],
                event=rng.choice(["query", "explore", "annotate"]))
        for _ in range(resources_per_user):
            tracker.record_resource(username, rng.choice(resources))
    return tracker


def peer_network(tracker: ContextTracker, threshold: float = 0.1
                 ) -> dict[str, dict[str, float]]:
    """The weighted peer network over every profiled user, as adjacency:
    user -> {peer: cosine} for each pair whose cosine reaches
    *threshold* (every user is a key, the isolated ones with no peers).
    Quadratic in users: what the tests and E8 inspect, not a service."""
    profiles = tracker.profiles()
    graph: dict[str, dict[str, float]] = {
        profile.username: {} for profile in profiles}
    for index, left in enumerate(profiles):
        for right in profiles[index + 1:]:
            weight = left.cosine_similarity(right)
            if weight >= threshold:
                graph[left.username][right.username] = weight
                graph[right.username][left.username] = weight
    return graph
