"""Peer discovery and peer-driven data recommendation (Section I-B(b)).

* *Peer recommendation*: locate users with similar interests by cosine
  similarity over context profiles.  A ranking scores only the users
  who share a concept with the asker (the tracker's concept index; any
  other user's cosine is 0), over norms each profile keeps, and is
  memoised per user until any profile's weights move (the tracker's
  stamp).
* *Data recommendation*: resources explored by peers within similar
  contexts, scored by peer similarity x access frequency, excluding
  what the user already knows.
"""

from __future__ import annotations

from array import array

from .context import ContextTracker


class PeerRecommender:
    """Answers peer and data recommendation queries."""

    def __init__(self, tracker: ContextTracker) -> None:
        self.tracker = tracker
        #: (tracker stamp, {username: (peer names, similarities)}): the
        #: rankings made since the stamp last moved, each held as a name
        #: tuple and a float array (16 bytes a peer, not a pair object).
        self._rankings: tuple[int, dict] = (-1, {})

    # -- peer ranking -------------------------------------------------------------

    def similarity(self, user_a: str, user_b: str) -> float:
        return self.tracker.profile(user_a).cosine_similarity(
            self.tracker.profile(user_b))

    def recommend_peers(self, username: str, count: int | None = 5
                        ) -> list[tuple[str, float]]:
        """The *count* most similar other users (all for ``None``), best
        first; ties by name."""
        stamp = self.tracker.stamp
        ranked_at, rankings = self._rankings
        if ranked_at != stamp:
            rankings = {}
            self._rankings = (stamp, rankings)
        ranking = rankings.get(username)
        if ranking is None:
            ranking = rankings[username] = self._rank(username)
        peers, similarities = ranking
        return list(zip(peers[:count], similarities[:count]))

    def _rank(self, username: str) -> tuple[tuple[str, ...], array]:
        me = self.tracker.profile(username)
        scored = []
        for profile in self.tracker.sharing(username):
            similarity = me.cosine_similarity(profile)
            if similarity > 0.0:
                scored.append((profile.username, similarity))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return (tuple(name for name, _ in scored),
                array("d", [similarity for _, similarity in scored]))

    # -- data recommendation ------------------------------------------------------

    def recommend_resources(self, username: str,
                            count: int = 5) -> list[tuple[str, float]]:
        """Resources used by similar peers that *username* has not seen.

        Only the resources the ranked peers used are walked; each one's
        score sums its users' similarity x accesses in the order they
        first used it."""
        peer_similarity = dict(self.recommend_peers(username, count=50))
        tracker = self.tracker
        scored: dict[str, float] = {}
        for resource in (tracker.used_by(peer_similarity)
                         - tracker.used_by((username,))):
            score = 0.0
            for peer, accesses in tracker.users_of(resource).items():
                similarity = peer_similarity.get(peer, 0.0)
                score += similarity * accesses
            if score > 0.0:
                scored[resource] = score
        ranked = sorted(scored.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:count]
