"""Every write to a journaled :class:`~repro.rdf.TripleStore` commits once.

A store has one write path: ``add`` / ``add_all`` / ``update`` run one
insertion core and ``remove`` / ``remove_all`` / ``remove_pattern`` one
removal core, and both end in one commit.  Over a random mix of those
calls and ``clear``, in both indexing modes, after each call:

* ``generation`` moved by exactly one when the store changed, and not
  at all when it did not (``clear`` always moves it);
* exactly the predicates whose triples entered or left moved their
  stamp (``clear`` moves the floor, so every stamp);
* the journal took exactly one record when the store changed, none
  otherwise.

Replaying the WAL into a fresh store then gives the same N-Triples,
size, generation and statistics.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.durability import DurabilityManager, DurabilityOptions
from repro.rdf import IRI, Literal, RdfError, TripleStore, serialize_ntriples
from repro.rdf.store import Triple

SUBJECTS = [IRI(f"urn:s{i}") for i in range(4)]
PREDICATES = [IRI(f"urn:p{i}") for i in range(4)]
OBJECTS = [IRI("urn:s0"), Literal("x"), Literal(1), Literal("x", lang="en")]

triples = st.builds(Triple, st.sampled_from(SUBJECTS),
                    st.sampled_from(PREDICATES), st.sampled_from(OBJECTS))
batches = st.lists(triples, max_size=6)
patterns = st.tuples(st.one_of(st.none(), st.sampled_from(SUBJECTS)),
                     st.one_of(st.none(), st.sampled_from(PREDICATES)),
                     st.one_of(st.none(), st.sampled_from(OBJECTS)))

calls = st.one_of(
    st.tuples(st.just("add"), triples),
    st.tuples(st.just("add_all"), batches),
    # A batch whose iterable fails part-way: its applied prefix commits.
    st.tuples(st.just("add_all_failing"), batches),
    st.tuples(st.just("remove"), triples),
    st.tuples(st.just("remove_pattern"), patterns),
    st.tuples(st.just("remove_all"), batches),
    st.tuples(st.just("update"), st.tuples(batches, st.booleans())),
    st.tuples(st.just("clear"), st.none()),
)


def apply(store: TripleStore, name: str, argument) -> None:
    if name == "add":
        store.add(argument)
    elif name == "add_all":
        store.add_all(argument)
    elif name == "add_all_failing":
        with pytest.raises(RdfError):
            store.add_all([*argument, (SUBJECTS[0], Literal("p"),
                                       OBJECTS[0])])
    elif name == "remove":
        store.remove(argument)
    elif name == "remove_pattern":
        store.remove_pattern(*argument)
    elif name == "remove_all":
        store.remove_all(argument)
    elif name == "update":
        batch, shared = argument
        # Sharing the dictionary into an empty store adopts the other
        # store's indexes; otherwise the merge goes through the core.
        other = TripleStore(store.indexing, dictionary=(
            store.dictionary if shared else None))
        other.add_all(batch)
        store.update(other)
    else:
        store.clear()


def stamps(store: TripleStore) -> dict[IRI, int]:
    return {predicate: store.stamp([predicate]) for predicate in PREDICATES}


def statistics(store: TripleStore) -> dict:
    """The per-position counters, keyed by term (ids are per dictionary)."""
    term = store.dictionary.term
    return {name: {term(key): count
                   for key, count in getattr(store, name).items()}
            for name in ("_s_counts", "_p_counts", "_o_counts")}


def journaled(directory: str, indexing: str):
    manager = DurabilityManager(DurabilityOptions(directory=directory,
                                                  fsync="never"))
    store = TripleStore(indexing)
    manager.attach_store(store, name="kb")
    manager.recover()
    return manager, store


@pytest.mark.parametrize("indexing", ["full", "spo"])
@settings(max_examples=60, deadline=None)
@given(steps=st.lists(calls, max_size=12))
def test_each_write_commits_once_and_replays(indexing, steps):
    with tempfile.TemporaryDirectory() as directory:
        manager, store = journaled(directory, indexing)
        for name, argument in steps:
            before = set(store.triples())
            generation, moved_from = store.generation, stamps(store)
            records = store.durability_journal.seq
            apply(store, name, argument)
            changed = before ^ set(store.triples())
            touched = {triple.predicate for triple in changed}
            if name == "clear":
                touched = set(PREDICATES)
            bumped = bool(changed) or name == "clear"
            assert store.generation == generation + bumped
            assert store.durability_journal.seq == records + bumped
            assert {predicate for predicate, stamp in stamps(store).items()
                    if stamp != moved_from[predicate]} == touched
        manager.close()

        manager, replayed = journaled(directory, indexing)
        assert serialize_ntriples(replayed) == serialize_ntriples(store)
        assert len(replayed) == len(store)
        assert replayed.generation == store.generation
        assert statistics(replayed) == statistics(store)
        manager.close()
