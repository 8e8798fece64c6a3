"""Property-based tests for the defense layer (Hypothesis).

Each defense's security argument is a structural property that must hold
under *any* access schedule:

* :class:`WayPartitionedCache` — a domain's lines never exceed its way
  budget in any set, and an insertion by one domain never evicts another
  domain's line;
* :class:`SoftCopyCache` — the same no-cross-domain-eviction guarantee,
  plus copy-on-access semantics: a domain only ever touches its *own*
  copy of a line, and coherence removals clear every copy;
* :class:`KeyedSetIndex` — the keyed index is a bijection on the set
  range within any epoch (no two external sets alias internally),
  rekeying changes the map, and the per-epoch :meth:`~KeyedSetIndex.place`
  memo never serves an index from another epoch;
* :class:`CeaserCache` — rekey invalidates exactly the lines whose keyed
  index moved, and survivors remain locatable;
* :class:`SkewedCache` — per-skew occupancy never exceeds the skew's way
  budget and a tag resides in at most one skew.

Random schedules of inserts/removes/ownership transfers across domains
probe all of them, plus the `effective_ways` probe the eviction-set
machinery sizes its sets with.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import make_rng
from repro.defenses import CeaserCache, SkewedCache, SoftCopyCache, WayPartitionedCache
from repro.defenses.partition import OTHER_DOMAIN
from repro.memsys.hierarchy import NOISE_OWNER, SHARED_OWNER
from repro.memsys.randomize import KeyedSetIndex

N_SETS = 4
PARTITIONS = {"att": 3, "vic": 2, OTHER_DOMAIN: 2}
DOMAINS = {0: "att", 1: "att", 2: "vic", 3: "vic"}


def _domain_of(owner: int) -> str:
    if owner in (NOISE_OWNER, SHARED_OWNER):
        return OTHER_DOMAIN
    return DOMAINS.get(owner, OTHER_DOMAIN)


def _make_cache(policy: str = "lru", cls=WayPartitionedCache):
    return cls(
        "SF", N_SETS, policy, make_rng(17), dict(PARTITIONS), _domain_of
    )


#: op: (kind, set_idx, tag, owner) — kind 0/1 insert, 2 remove, 3 flush_all.
_ops = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, N_SETS - 1),
        st.integers(0, 30),
        st.sampled_from([0, 1, 2, 3, SHARED_OWNER, NOISE_OWNER]),
    ),
    max_size=200,
)


def _replay(cache: WayPartitionedCache, ops) -> None:
    for kind, set_idx, tag, owner in ops:
        if kind in (0, 1):
            evicted = cache.insert(set_idx, tag, owner=owner)
            # No cross-domain eviction: whatever fell out must belong to
            # the inserting owner's domain.
            if evicted is not None:
                assert _domain_of(evicted[1]) == _domain_of(owner)
        elif kind == 2:
            cache.remove(set_idx, tag)
        else:
            cache.flush_all(now=0)


# (tree_plru is absent: it needs power-of-two ways, and the "att"
# partition deliberately has 3 to exercise uneven budgets.)
# Both isolation defenses must uphold the budget/no-cross-eviction
# properties: the hardware partition by migrating lines, the soft
# copy-on-access scheme by never touching another domain's copy.
@pytest.mark.parametrize("cache_cls", [WayPartitionedCache, SoftCopyCache])
@pytest.mark.parametrize("policy", ["lru", "srrip", "qlru", "random"])
@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_domain_occupancy_never_exceeds_way_budget(cache_cls, policy, ops):
    cache = _make_cache(policy, cls=cache_cls)
    _replay(cache, ops)
    for domain, budget in PARTITIONS.items():
        part = cache._parts[domain]
        for s in range(N_SETS):
            assert part.occupancy(s) <= budget
        # Every resident line of the partition belongs to the domain.
        for s in range(N_SETS):
            for tag in part.tags_in_set(s):
                assert _domain_of(part.owner_of(s, tag)) == domain


@pytest.mark.parametrize("cache_cls", [WayPartitionedCache, SoftCopyCache])
@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_victim_domain_lines_survive_attacker_hammering(cache_cls, ops):
    """Pre-filled victim lines survive any schedule that never acts as vic."""
    cache = _make_cache(cls=cache_cls)
    victim_tags = [100, 101]
    for s in range(N_SETS):
        for tag in victim_tags:
            cache.insert(s, tag, owner=2)
    # Replay arbitrary traffic from every non-victim owner (tags < 100, so
    # no removes/ownership transfers can target the victim's lines either).
    _replay(cache, [op for op in ops if op[3] not in (2, 3) and op[0] != 3])
    for s in range(N_SETS):
        for tag in victim_tags:
            assert cache.contains(s, tag)
            assert cache.owner_of(s, tag) == 2


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_line_resides_in_at_most_one_partition(ops):
    cache = _make_cache()
    _replay(cache, ops)
    for s in range(N_SETS):
        tags = cache.tags_in_set(s)
        assert len(tags) == len(set(tags))
        assert cache.occupancy(s) == len(tags)


def test_effective_ways_reports_domain_budget():
    cache = _make_cache()
    assert cache.effective_ways(0) == PARTITIONS["att"]
    assert cache.effective_ways(2) == PARTITIONS["vic"]
    assert cache.effective_ways(SHARED_OWNER) == PARTITIONS[OTHER_DOMAIN]
    assert cache.effective_ways(NOISE_OWNER) == PARTITIONS[OTHER_DOMAIN]
    assert cache.effective_ways(99) == PARTITIONS[OTHER_DOMAIN]
    assert cache.ways == sum(PARTITIONS.values())


# --- Soft-copy isolation (copy-on-access) -----------------------------------


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_soft_copy_never_shares_a_line_between_domains(ops):
    """Every resident copy lives in (and is owned by) exactly one domain's
    quota; cross-domain inserts create fresh copies, never shared lines."""
    cache = _make_cache(cls=SoftCopyCache)
    _replay(cache, ops)
    for domain, part in cache.parts().items():
        for s in range(N_SETS):
            for tag in part.tags_in_set(s):
                assert _domain_of(part.owner_of(s, tag)) == domain


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_soft_copy_remove_clears_every_copy(ops):
    cache = _make_cache(cls=SoftCopyCache)
    _replay(cache, [op for op in ops if op[0] != 2])
    for s in range(N_SETS):
        for tag in set(cache.tags_in_set(s)):
            assert cache.remove(s, tag)
            assert all(
                not part.contains(s, tag) for part in cache.parts().values()
            )


def test_soft_copy_keeps_per_domain_copies():
    cache = _make_cache(cls=SoftCopyCache)
    cache.insert(0, 42, owner=0)  # att's copy
    cache.insert(0, 42, owner=2)  # vic's own copy — att's stays resident
    parts = cache.parts()
    assert parts["att"].contains(0, 42)
    assert parts["vic"].contains(0, 42)
    assert cache.remove(0, 42)
    assert not any(p.contains(0, 42) for p in parts.values())


# --- Keyed-index (CEASER / skew) properties ---------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n_sets=st.integers(1, 96),
    seed=st.integers(0, 2**32 - 1),
    tag=st.integers(0, 2**40),
    epochs=st.integers(0, 3),
)
def test_keyed_index_is_a_bijection_per_epoch(n_sets, seed, tag, epochs):
    """Within any epoch, the keyed map is a permutation of the set range
    for every tag tweak — no two external sets alias internally."""
    index = KeyedSetIndex(n_sets, seed, label="prop")
    for _ in range(epochs):
        index.rekey()
    image = [index.index_of(s, tag) for s in range(n_sets)]
    assert sorted(image) == list(range(n_sets))


def test_rekey_changes_the_map():
    index = KeyedSetIndex(64, 7, label="prop")
    before = [index.index_of(s, 1234) for s in range(64)]
    index.rekey()
    assert [index.index_of(s, 1234) for s in range(64)] != before


class _SmallMemoIndex(KeyedSetIndex):
    MEMO_CAP = 4


#: op: (kind, arg) — kind 0 place(arg), 1 rekey(), 2 set_epoch(arg % 4).
_index_ops = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 40)), max_size=80
)


@settings(max_examples=60, deadline=None)
@given(
    ops=_index_ops,
    n_sets=st.integers(1, 24),
    seed=st.integers(0, 2**16),
    cls=st.sampled_from([KeyedSetIndex, _SmallMemoIndex]),
)
def test_keyed_place_memo_matches_index_of(ops, n_sets, seed, cls):
    """``place`` is ``index_of(tag % n, tag)`` under the *current* key,
    across any interleaving of rekeys, epoch jumps and placements, and
    the memo stays within its cap."""
    index = cls(n_sets, seed, label="prop")
    for kind, arg in ops:
        if kind == 0:
            assert index.place(arg) == index.index_of(arg % n_sets, arg)
        elif kind == 1:
            index.rekey()
        else:
            index.set_epoch(arg % 4)
        assert len(index._memo) <= cls.MEMO_CAP
    for tag in range(41):
        assert index.place(tag) == index.index_of(tag % n_sets, tag)


def _index_at(n_sets: int, seed: int, label: str, epoch: int) -> KeyedSetIndex:
    """A freshly built index advanced to ``epoch`` (empty memo)."""
    index = KeyedSetIndex(n_sets, seed, label=label)
    for _ in range(epoch):
        index.rekey()
    return index


#: Tags placed (and memoized) in both epochs by the restore tests below;
#: ``restore_extra`` restores only the wrapper state, so those tests
#: check placement, not plane residency.
_RESTORE_TAGS = range(40)


def test_ceaser_restored_epoch_places_like_a_fresh_index():
    n_sets, seed = 16, 5
    cache = CeaserCache("LLC", n_sets, 4, "lru", make_rng(3), seed=seed)
    for tag in _RESTORE_TAGS:
        cache.insert(tag % n_sets, tag)
    extra = cache.snapshot_extra()
    cache.rekey()
    fresh = _index_at(n_sets, seed, "LLC", 0)
    epoch1 = [cache._place(tag) for tag in _RESTORE_TAGS]
    epoch0 = [fresh.index_of(tag % n_sets, tag) for tag in _RESTORE_TAGS]
    assert epoch1 != epoch0
    cache.restore_extra(extra)
    assert [cache._place(tag) for tag in _RESTORE_TAGS] == epoch0


def test_skew_restored_epoch_places_like_a_fresh_index():
    n_sets, seed = 16, 5
    cache = SkewedCache(
        "LLC", n_sets, 4, "lru", make_rng(9), seed=seed, n_skews=2
    )
    for tag in _RESTORE_TAGS:
        cache.insert(tag % n_sets, tag)
    extra = cache.snapshot_extra()
    cache.rekey()
    epoch0 = {}
    for i in range(2):
        fresh = _index_at(n_sets, seed, f"LLC#skew{i}", 0)
        epoch1 = [cache._place(i, tag) for tag in _RESTORE_TAGS]
        epoch0[i] = [fresh.index_of(tag % n_sets, tag) for tag in _RESTORE_TAGS]
        assert epoch1 != epoch0[i]
    cache.restore_extra(extra)
    for i in range(2):
        assert [cache._place(i, tag) for tag in _RESTORE_TAGS] == epoch0[i]


#: op: (insert?, tag, owner) over a deliberately tiny address range so
#: randomized sets overflow and evict.
_addr_ops = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 400), st.integers(0, 3)),
    max_size=150,
)


@settings(max_examples=40, deadline=None)
@given(ops=_addr_ops, seed=st.integers(0, 2**16))
def test_ceaser_rekey_invalidates_exactly_the_remapped_lines(ops, seed):
    n_sets = 8
    cache = CeaserCache("SF", n_sets, 4, "lru", make_rng(3), seed=seed)
    for kind, tag, owner in ops:
        if kind == 0:
            cache.insert(tag % n_sets, tag, owner=owner)
        else:
            cache.remove(tag % n_sets, tag)
    resident = set(cache.resident_tags())
    old_place = {tag: cache._place(tag) for tag in resident}
    removed_tags = {tag for tag, _ in cache.rekey()}
    for tag in resident:
        moved = cache._place(tag) != old_place[tag]
        assert (tag in removed_tags) == moved
        assert cache.contains(tag % n_sets, tag) == (not moved)
    cache.validate()


@settings(max_examples=40, deadline=None)
@given(ops=_addr_ops, seed=st.integers(0, 2**16))
def test_skew_occupancy_bounded_and_single_residency(ops, seed):
    n_sets = 8
    cache = SkewedCache(
        "LLC", n_sets, 5, "lru", make_rng(5), seed=seed, n_skews=2
    )
    for kind, tag, owner in ops:
        if kind == 0:
            cache.insert(tag % n_sets, tag, owner=owner)
        else:
            cache.remove(tag % n_sets, tag)
    parts = cache.parts()
    assert sum(p.ways for p in parts.values()) == cache.ways
    seen = set()
    for part in parts.values():
        for s in range(n_sets):
            assert part.occupancy(s) <= part.ways
            for tag in part.tags_in_set(s):
                assert tag not in seen  # a tag lives in at most one skew
                seen.add(tag)
    cache.validate()


@settings(max_examples=25, deadline=None)
@given(ops=_addr_ops, seed=st.integers(0, 2**16))
def test_skew_rekey_invalidates_exactly_the_remapped_lines(ops, seed):
    n_sets = 8
    cache = SkewedCache(
        "LLC", n_sets, 4, "lru", make_rng(9), seed=seed, n_skews=2
    )
    for kind, tag, owner in ops:
        if kind == 0:
            cache.insert(tag % n_sets, tag, owner=owner)
        else:
            cache.remove(tag % n_sets, tag)
    resident = set(cache.resident_tags())
    skew_of = {}
    place = {}
    for tag in resident:
        inner, idx = cache._locate(tag)
        skew_of[tag] = cache._skews.index(inner)
        place[tag] = idx
    removed_tags = {tag for tag, _ in cache.rekey()}
    for tag in resident:
        moved = cache._place(skew_of[tag], tag) != place[tag]
        assert (tag in removed_tags) == moved
        assert cache.contains(tag % n_sets, tag) == (not moved)
    cache.validate()
