"""E8 — peer/data recommendation at user scale.

Seeded activity for 50..500 users (two overlapping interest
communities).  Expected shape: single-user peer recommendation scores
only the users who share a concept and is then memoised until a profile
moves, so the timed repeat is a memo hit; the full peer network is
quadratic (pairwise cosine) — the platform cost model for Section
I-B's services.
"""

from __future__ import annotations

import pytest

from repro.crosse import PeerRecommender
from repro.workloads import peer_network, seeded_tracker

SIZES = [50, 200, 500]

_TRACKERS = {}


def _recommender(n_users: int) -> PeerRecommender:
    if n_users not in _TRACKERS:
        _TRACKERS[n_users] = seeded_tracker(n_users)
    return PeerRecommender(_TRACKERS[n_users])


@pytest.mark.parametrize("n_users", SIZES)
def test_e8_peer_recommendation(benchmark, n_users):
    recommender = _recommender(n_users)
    peers = benchmark(
        lambda: recommender.recommend_peers("user0000", count=5))
    assert len(peers) == 5


@pytest.mark.parametrize("n_users", [50, 200])
def test_e8_peer_network_construction(benchmark, n_users):
    tracker = _recommender(n_users).tracker
    graph = benchmark(lambda: peer_network(tracker))
    assert len(graph) == n_users


@pytest.mark.parametrize("n_users", SIZES)
def test_e8_resource_recommendation(benchmark, n_users):
    recommender = _recommender(n_users)
    resources = benchmark(
        lambda: recommender.recommend_resources("user0000", count=5))
    assert resources
