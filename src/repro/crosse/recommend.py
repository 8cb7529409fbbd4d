"""Peer discovery and peer-driven data recommendation (Section I-B(b)).

* *Peer recommendation*: locate users with similar interests by cosine
  similarity over context profiles; the peer network is a weighted
  graph (networkx) thresholded on similarity.
* *Data recommendation*: resources explored by peers within similar
  contexts, scored by peer similarity x access frequency, excluding
  what the user already knows.
"""

from __future__ import annotations

import networkx as nx

from .context import ContextTracker


class PeerRecommender:
    """Builds the peer network and answers recommendation queries."""

    def __init__(self, tracker: ContextTracker,
                 similarity_threshold: float = 0.1) -> None:
        self.tracker = tracker
        self.similarity_threshold = similarity_threshold

    # -- peer network ---------------------------------------------------------

    def similarity(self, user_a: str, user_b: str) -> float:
        return self.tracker.profile(user_a).cosine_similarity(
            self.tracker.profile(user_b))

    def peer_network(self) -> nx.Graph:
        """Weighted similarity graph over all profiled users."""
        graph = nx.Graph()
        profiles = self.tracker.profiles()
        for profile in profiles:
            graph.add_node(profile.username)
        for index, left in enumerate(profiles):
            for right in profiles[index + 1:]:
                weight = left.cosine_similarity(right)
                if weight >= self.similarity_threshold:
                    graph.add_edge(left.username, right.username,
                                   weight=weight)
        return graph

    def recommend_peers(self, username: str,
                        count: int = 5) -> list[tuple[str, float]]:
        """The most similar other users, best first."""
        me = self.tracker.profile(username)
        scored = []
        for profile in self.tracker.profiles():
            if profile.username == username:
                continue
            similarity = me.cosine_similarity(profile)
            if similarity > 0.0:
                scored.append((profile.username, similarity))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:count]

    # -- data recommendation ------------------------------------------------------

    def recommend_resources(self, username: str,
                            count: int = 5) -> list[tuple[str, float]]:
        """Resources used by similar peers that *username* has not seen."""
        mine = set(self.tracker.resources_of(username))
        peer_similarity = dict(self.recommend_peers(username, count=50))
        scored: dict[str, float] = {}
        for resource in self.tracker.all_resources():
            if resource in mine:
                continue
            score = 0.0
            for peer, accesses in self.tracker.users_of(resource).items():
                similarity = peer_similarity.get(peer, 0.0)
                score += similarity * accesses
            if score > 0.0:
                scored[resource] = score
        ranked = sorted(scored.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:count]
