"""RDF terms and triple store: identity, indexes, pattern matching."""

import pytest

from repro.rdf import (IRI, BNode, Literal, Namespace, RdfError, RdfTermError,
                       Triple, TripleStore, term_from_python, term_sort_key)

SMG = Namespace("http://smartground.eu/ns#")


def test_iri_validation():
    with pytest.raises(RdfTermError):
        IRI("")
    with pytest.raises(RdfTermError):
        IRI("has space")


def test_iri_local_name():
    assert IRI("http://x.org/ns#Mercury").local_name() == "Mercury"
    assert IRI("http://x.org/path/Lead").local_name() == "Lead"


def test_literal_datatype_inference():
    assert Literal("x").datatype.endswith("string")
    assert Literal(3).datatype.endswith("integer")
    assert Literal(3.5).datatype.endswith("double")
    assert Literal(True).datatype.endswith("boolean")


def test_literal_lang_requires_string():
    with pytest.raises(RdfTermError):
        Literal(3, lang="en")


def test_terms_are_hashable_and_equal_by_value():
    assert IRI("http://a") == IRI("http://a")
    assert hash(Literal("x")) == hash(Literal("x"))
    assert Literal("x") != Literal("x", lang="en")


def test_bnode_ids_unique_by_default():
    assert BNode() != BNode()
    assert BNode("same") == BNode("same")


def test_term_from_python():
    assert term_from_python("x") == Literal("x")
    assert term_from_python(IRI("http://a")) == IRI("http://a")
    with pytest.raises(RdfTermError):
        term_from_python(object())


def test_term_sort_order():
    order = [None, BNode("a"), IRI("http://a"), Literal(1), Literal("z")]
    keys = [term_sort_key(term) for term in order]
    assert keys == sorted(keys)


@pytest.fixture
def store():
    s = TripleStore()
    s.add(SMG.Mercury, SMG.dangerLevel, Literal("high"))
    s.add(SMG.Mercury, SMG.isA, SMG.HazardousWaste)
    s.add(SMG.Iron, SMG.dangerLevel, Literal("low"))
    s.add(SMG.Torino, SMG.inCountry, SMG.Italy)
    return s


def test_add_is_idempotent(store):
    before = len(store)
    assert store.add(SMG.Mercury, SMG.isA, SMG.HazardousWaste) is False
    assert len(store) == before


def test_contains_and_remove(store):
    triple = Triple(SMG.Iron, SMG.dangerLevel, Literal("low"))
    assert triple in store
    assert store.remove(triple) is True
    assert triple not in store
    assert store.remove(triple) is False


def test_pattern_matching_each_shape(store):
    assert store.count(SMG.Mercury, None, None) == 2
    assert store.count(None, SMG.dangerLevel, None) == 2
    assert store.count(None, None, SMG.HazardousWaste) == 1
    assert store.count(SMG.Mercury, SMG.dangerLevel, None) == 1
    assert store.count(None, SMG.dangerLevel, Literal("low")) == 1
    assert store.count(SMG.Mercury, None, SMG.HazardousWaste) == 1
    assert store.count(None, None, None) == 4
    assert store.count(SMG.Mercury, SMG.dangerLevel, Literal("high")) == 1


def test_python_values_accepted_in_patterns(store):
    assert store.count(None, SMG.dangerLevel, "high") == 1


def test_subjects_objects_predicates_deduped(store):
    store.add(SMG.Mercury, SMG.dangerLevel, Literal("very-high"))
    assert len(list(store.subjects(SMG.dangerLevel, None))) == 2
    assert len(list(store.objects(SMG.Mercury, SMG.dangerLevel))) == 2
    assert SMG.isA in set(store.predicates(SMG.Mercury, None))


def test_value_helper(store):
    assert store.value(SMG.Torino, SMG.inCountry) == SMG.Italy
    assert store.value(SMG.Torino, SMG.dangerLevel) is None


def test_remove_pattern(store):
    removed = store.remove_pattern(None, SMG.dangerLevel, None)
    assert removed == 2
    assert store.count(None, SMG.dangerLevel, None) == 0


def test_union_and_copy_do_not_alias(store):
    other = TripleStore()
    other.add(SMG.Lead, SMG.dangerLevel, Literal("mid"))
    merged = store.union(other)
    assert len(merged) == len(store) + 1
    merged.add(SMG.X, SMG.isA, SMG.Y)
    assert store.count(SMG.X, None, None) == 0


def test_spo_only_indexing_matches_full(store):
    reduced = TripleStore(indexing="spo")
    reduced.add_all(store.triples())
    for pattern in [(None, SMG.dangerLevel, None),
                    (None, None, SMG.HazardousWaste),
                    (SMG.Mercury, None, None)]:
        full_result = set(store.triples(*pattern))
        reduced_result = set(reduced.triples(*pattern))
        assert full_result == reduced_result


def test_predicate_must_be_iri():
    store = TripleStore()
    with pytest.raises(RdfError):
        store.add(SMG.a, Literal("not-a-predicate"), SMG.b)


def test_remove_cleans_empty_index_levels():
    store = TripleStore()
    store.add(SMG.a, SMG.p, SMG.b)
    store.remove(SMG.a, SMG.p, SMG.b)
    assert len(store) == 0
    assert list(store.triples()) == []
    # Internal dicts must not leak empty shells.
    assert store._spo == {} and store._pos == {} and store._osp == {}


# -- dictionary encoding, statistics, batch mutation -------------------------


def test_term_dictionary_interns_once():
    from repro.rdf import TermDictionary
    d = TermDictionary()
    first = d.intern(SMG.Mercury)
    assert d.intern(SMG.Mercury) == first
    assert d.intern(IRI(str(SMG.Mercury))) == first  # equal by value
    assert d.lookup(SMG.Mercury) == first
    assert d.lookup(SMG.NeverSeen) is None
    assert d.term(first) == SMG.Mercury
    assert len(d) == 1


def test_shared_dictionary_across_stores(store):
    other = TripleStore(dictionary=store.dictionary)
    other.add(SMG.Mercury, SMG.dangerLevel, Literal("high"))
    assert other.dictionary is store.dictionary
    assert (other.dictionary.lookup(SMG.Mercury)
            == store.dictionary.lookup(SMG.Mercury))


def test_statistics_match_scan_counts(store):
    store.add(SMG.Mercury, SMG.dangerLevel, Literal("very-high"))
    patterns = [
        (None, None, None),
        (SMG.Mercury, None, None),
        (None, SMG.dangerLevel, None),
        (None, None, Literal("high")),
        (SMG.Mercury, SMG.dangerLevel, None),
        (None, SMG.dangerLevel, Literal("low")),
        (SMG.Mercury, None, Literal("high")),
        (SMG.Mercury, SMG.dangerLevel, Literal("high")),
        (SMG.Absent, None, None),
    ]
    for pattern in patterns:
        assert store.stats.count(*pattern) \
            == sum(1 for _ in store.triples(*pattern)), pattern
    assert store.stats.triple_count() == len(store)
    assert store.stats.distinct_predicates() == 3


def test_statistics_survive_removal(store):
    store.remove(SMG.Mercury, SMG.isA, SMG.HazardousWaste)
    assert store.stats.count(None, SMG.isA, None) == 0
    assert store.stats.count(SMG.Mercury, None, None) == 1
    assert store.stats.distinct_predicates() == 2


def test_statistics_on_spo_only_store(store):
    reduced = TripleStore(indexing="spo")
    reduced.add_all(store.triples())
    for pattern in [(None, SMG.dangerLevel, None),
                    (None, None, SMG.Italy),
                    (None, SMG.inCountry, SMG.Italy),
                    (SMG.Mercury, None, SMG.HazardousWaste)]:
        assert reduced.stats.count(*pattern) == store.stats.count(*pattern)


def test_add_all_bumps_generation_once(store):
    before = store.generation
    added = store.add_all([
        Triple(SMG.Lead, SMG.dangerLevel, Literal("high")),
        Triple(SMG.Zinc, SMG.dangerLevel, Literal("mid")),
        Triple(SMG.Lead, SMG.dangerLevel, Literal("high")),  # batch dupe
    ])
    assert added == 2
    first_bump = store.generation
    assert first_bump != before
    # A no-op batch (all duplicates) must not invalidate caches.
    assert store.add_all([
        Triple(SMG.Lead, SMG.dangerLevel, Literal("high"))]) == 0
    assert store.generation == first_bump


def test_update_shares_interned_ids(store):
    other = TripleStore(dictionary=store.dictionary)
    other.add(SMG.Lead, SMG.dangerLevel, Literal("mid"))
    before = store.generation
    assert store.update(other) == 1
    assert store.generation != before
    assert store.count(SMG.Lead, None, None) == 1
    # Self-update is a no-op and keeps the generation stable.
    stable = store.generation
    assert store.update(store) == 0
    assert store.generation == stable


def test_id_triples_roundtrip(store):
    d = store.dictionary
    decoded = {Triple(d.term(s), d.term(p), d.term(o))
               for s, p, o in store.id_triples()}
    assert decoded == set(store.triples())
    p_id = d.lookup(SMG.dangerLevel)
    assert sum(1 for _ in store.id_triples(None, p_id, None)) == 2


def test_add_all_mid_batch_error_keeps_store_consistent():
    store = TripleStore()
    good = Triple(SMG.a, SMG.p, SMG.b)
    before = store.generation
    with pytest.raises(RdfError):
        store.add_all([good, (SMG.c, Literal("not-an-iri"), SMG.d)])
    # The triple inserted before the error is committed: size, stats
    # and generation all reflect it.
    assert len(store) == 1
    assert store.stats.triple_count() == 1
    assert store.generation != before
    assert list(store.triples()) == [good]
    assert store.remove(good) is True
    assert len(store) == 0
    assert store._spo == {} and store._pos == {} and store._osp == {}


# -- predicate stamps -------------------------------------------------------


def stamps(store):
    """Each fixture predicate's stamp, and the whole graph's."""
    ids = [store.dictionary.lookup(p)
           for p in (SMG.dangerLevel, SMG.isA, SMG.inCountry)]
    return [store.stamp((p,)) for p in ids] + [store.stamp()]


def test_a_write_moves_only_its_predicates_stamp(store):
    danger, is_a, country, whole = stamps(store)
    store.add(SMG.Lead, SMG.dangerLevel, Literal("high"))
    after = stamps(store)
    assert after[0] > danger and after[1:3] == [is_a, country]
    assert after[3] == after[0]
    assert store.add(SMG.Lead, SMG.dangerLevel, Literal("high")) is False
    assert store.remove(SMG.Lead, SMG.isA, SMG.Metal) is False
    assert stamps(store) == after              # no-ops move nothing
    store.remove(SMG.Torino, SMG.inCountry, SMG.Italy)
    moved = stamps(store)
    assert moved[:2] == after[:2] and moved[2] > after[2]
    store.remove_pattern(None, SMG.isA, None)
    assert stamps(store)[::2] == moved[::2]
    # A stamp read over several predicates is their latest; an IRI the
    # store has not interned reads as a predicate with no triples.
    ids = tuple(store.dictionary.lookup(p)
                for p in (SMG.dangerLevel, SMG.inCountry))
    assert store.stamp(ids) == max(moved[0], moved[2])
    unseen = store.stamp((SMG.neverStated,))
    store.add(SMG.Lead, SMG.neverStated, SMG.Iron)
    assert store.stamp((SMG.neverStated,)) > unseen


def test_batches_over_two_predicates_move_both(store):
    danger, is_a, country, _whole = stamps(store)
    store.add_all([Triple(SMG.Lead, SMG.dangerLevel, Literal("high")),
                   Triple(SMG.Lead, SMG.isA, SMG.HazardousWaste)])
    added = stamps(store)
    assert added[0] == added[1] > max(danger, is_a)
    assert added[2] == country
    store.remove_all([Triple(SMG.Lead, SMG.dangerLevel, Literal("high")),
                      Triple(SMG.Torino, SMG.inCountry, SMG.Italy)])
    removed = stamps(store)
    assert removed[0] == removed[2] > added[0] and removed[1] == added[1]
    other = TripleStore(dictionary=store.dictionary)
    other.add(SMG.Zinc, SMG.isA, SMG.Metal)
    other.add(SMG.Zinc, SMG.inCountry, SMG.Italy)
    store.update(other)
    merged = stamps(store)
    assert merged[1] == merged[2] > removed[0] and merged[0] == removed[0]
    # Loading into an empty store stamps every predicate it brought.
    empty = TripleStore(dictionary=store.dictionary)
    empty.add_all(store.triples())
    assert min(stamps(empty)) > merged[3]


def test_clear_restore_and_pin_never_let_an_old_stamp_match(store):
    """Each moves the floor: every stamp read after it is new, even
    where the generation goes back (a replica's exact pin)."""
    seen = set(stamps(store))
    generation = store.generation
    for move in (lambda: store.restore_generation(0),
                 lambda: store.pin_generation(generation),
                 lambda: store.pin_generation(0),
                 store.clear,
                 lambda: store.pin_generation(generation)):
        move()
        now = stamps(store)
        assert not seen & set(now)
        seen.update(now)
    assert store.generation == generation      # pinned back to a value it had
