"""Personal activity context (Section I-B(a)).

The platform understands a user's context "through analysis of access
patterns and of the user's own annotations": every query, concept
exploration and annotation feeds a decayed concept-weight profile.
Profiles drive context-aware ranking (:mod:`repro.crosse.ranking`) and
peer discovery (:mod:`repro.crosse.recommend`).
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from dataclasses import dataclass, field

_EVENT_WEIGHTS = {
    "query": 1.0,
    "explore": 2.0,
    "annotate": 3.0,
    "declare": 4.0,   # explicitly declared interests weigh most
}


def _norm(weights: dict[str, float]) -> float:
    return sum(w * w for w in weights.values()) ** 0.5


@dataclass
class ContextProfile:
    """A concept -> weight vector describing one user's activity.

    ``weights`` is written only through :meth:`record`, :meth:`decay`
    and :meth:`restore`: each keeps :attr:`norm` and, for a tracked
    profile, its tracker's concept index and stamp.
    """

    username: str
    weights: dict[str, float] = field(default_factory=dict)
    history: list[tuple[str, str]] = field(default_factory=list)
    #: The Euclidean norm of ``weights``, recomputed by the one
    #: expression whenever a weight moves (so a cosine over it is the
    #: same float as one that sums the weights afresh).
    norm: float = field(init=False, repr=False, compare=False)
    #: The tracker that indexes this profile (None: a standalone one).
    tracker: "ContextTracker | None" = field(default=None, repr=False,
                                             compare=False)

    def __post_init__(self) -> None:
        self.norm = _norm(self.weights)

    def record(self, concept: str, event: str = "explore") -> None:
        if event not in _EVENT_WEIGHTS:
            raise ValueError(f"unknown context event {event!r}")
        key = concept.lower()
        self.weights[key] = self.weights.get(key, 0.0) \
            + _EVENT_WEIGHTS[event]
        self.history.append((event, concept))
        self._moved()

    def weight(self, concept: str) -> float:
        return self.weights.get(concept.lower(), 0.0)

    def top_concepts(self, count: int = 10) -> list[tuple[str, float]]:
        ranked = sorted(self.weights.items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked[:count]

    def decay(self, factor: float = 0.5) -> None:
        """Age the profile (older interests fade)."""
        self.weights = {concept: weight * factor
                        for concept, weight in self.weights.items()
                        if weight * factor > 1e-6}
        self._moved()

    def restore(self, weights: dict[str, float],
                history: list[tuple[str, str]]) -> None:
        """Take back recovered *weights* and *history* (snapshot load)."""
        self.weights.update(weights)
        self.history.extend(history)
        self._moved()

    def _moved(self) -> None:
        # The norm and the index first, the stamp last: a ranking
        # memoised under the new stamp must have seen the new weights.
        self.norm = _norm(self.weights)
        if self.tracker is not None:
            self.tracker._reindex(self)

    def cosine_similarity(self, other: "ContextProfile") -> float:
        # One dict each: decay replaces a profile's dict, record only
        # adds to it, so a concurrent move cannot pull a shared key.
        mine, theirs = self.weights, other.weights
        if not mine or not theirs:
            return 0.0
        shared = set(mine) & set(theirs)
        dot = sum(mine[c] * theirs[c] for c in shared)
        if self.norm == 0.0 or other.norm == 0.0:
            return 0.0
        return dot / (self.norm * other.norm)


class ContextTracker:
    """Profiles for every user plus resource-access bookkeeping.

    Peer ranking reads two things kept here: an index from each concept
    to the users whose profile weighs it (a cosine is 0 between users
    who share none), and :attr:`stamp`, which moves after every change
    to any profile's weights.
    """

    def __init__(self) -> None:
        self._profiles: dict[str, ContextProfile] = {}
        # resource -> {username -> access count}; feeds data recommendation.
        self._resource_access: dict[str, dict[str, int]] = defaultdict(dict)
        #: username -> the resources that user used: the access map's inverse.
        self._used: dict[str, set[str]] = {}
        #: concept -> users whose profile weighs it.
        self._users_by_concept: dict[str, set[str]] = {}
        #: username -> the concepts the index holds for her.
        self._indexed: dict[str, frozenset[str]] = {}
        #: Serialises index updates: two users' moves may share a concept.
        self._index_lock = threading.Lock()
        self._stamps = itertools.count(1)
        #: Moves (to a fresh value) after any profile's weights do; a
        #: new, empty profile ranks no one and moves nothing.
        self.stamp = 0
        #: Durability hook (duck-typed), set by an attached
        #: :class:`repro.durability.DurabilityManager`.
        self.durability_journal = None

    def profile(self, username: str) -> ContextProfile:
        profile = self._profiles.get(username)
        if profile is None:
            profile = self._profiles.setdefault(
                username, ContextProfile(username, tracker=self))
        return profile

    def profiles(self) -> list[ContextProfile]:
        return list(self._profiles.values())

    def sharing(self, username: str) -> list[ContextProfile]:
        """The other users' profiles that weigh a concept *username*'s
        profile weighs, in no particular order."""
        users: set[str] = set()
        for concept in self._indexed.get(username, ()):
            users |= self._users_by_concept.get(concept, frozenset())
        users.discard(username)
        return [self._profiles[name] for name in users]

    def _reindex(self, profile: ContextProfile) -> None:
        username = profile.username
        with self._index_lock:
            concepts = frozenset(profile.weights)
            indexed = self._indexed.get(username, frozenset())
            for concept in indexed - concepts:
                users = self._users_by_concept[concept]
                users.discard(username)
                if not users:
                    del self._users_by_concept[concept]
            for concept in concepts - indexed:
                self._users_by_concept.setdefault(concept, set()).add(
                    username)
            self._indexed[username] = concepts
            self.stamp = next(self._stamps)

    def record_concepts(self, username: str, concepts: list[str],
                        event: str = "query") -> None:
        profile = self.profile(username)
        for concept in concepts:
            profile.record(concept, event)
        if concepts and self.durability_journal is not None:
            self.durability_journal.log(
                "context", {"username": username,
                            "concepts": list(concepts), "event": event})

    def record_resource(self, username: str, resource: str) -> None:
        """Track that *username* explored/used *resource*."""
        accesses = self._resource_access[resource]
        if username not in accesses:
            self._used.setdefault(username, set()).add(resource)
        accesses[username] = accesses.get(username, 0) + 1
        if self.durability_journal is not None:
            self.durability_journal.log(
                "resource", {"username": username, "resource": resource})

    def restore_accesses(self, resource: str,
                         accesses: dict[str, int]) -> None:
        """Set *resource*'s access counts as a snapshot holds them."""
        self._resource_access[resource].update(accesses)
        for username in accesses:
            self._used.setdefault(username, set()).add(resource)

    def resources_of(self, username: str) -> list[str]:
        return sorted(self._used.get(username, ()))

    def used_by(self, usernames) -> set[str]:
        """The resources any of *usernames* used."""
        used: set[str] = set()
        for username in usernames:
            used |= self._used.get(username, set())
        return used

    def users_of(self, resource: str) -> dict[str, int]:
        return dict(self._resource_access.get(resource, {}))

    def all_resources(self) -> list[str]:
        return sorted(self._resource_access)
