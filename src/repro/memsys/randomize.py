"""Keyed (randomized) set-index functions for defense caches.

CEASER-style designs (Qureshi, MICRO'18) replace a cache's physical set
index with the output of a keyed low-latency block cipher over the line
address, and periodically *rekey* so an attacker can never accumulate a
stable congruence map.  Skewed variants (CEASER-S, Scatter-Cache) give
each way group its own index function, so two lines that collide in one
skew almost never collide in another.

This module holds the index math those defenses
(:mod:`repro.defenses.randomized`) plug into the shared caches:

* :class:`KeyedSetIndex` — a per-epoch keyed permutation of the set-index
  domain, *tweaked by the line tag*: for every ``(epoch, tag)`` the map
  ``set_idx -> index_of(set_idx, tag)`` is a bijection on
  ``[0, n_sets)`` (a balanced Feistel network with cycle-walking), and
  for a fixed set index, distinct tags land in unrelated sets — which is
  what breaks congruence-based eviction-set construction.
* :func:`keyed_choice` — a keyed deterministic selector (used for skew
  selection), a pure function of ``(key, tag)`` like every draw in the
  counter-RNG contract, so all execution tiers agree without consuming
  any shared RNG stream.

Everything here is deterministic in ``(seed, epoch)`` and free of
``random.Random`` draws at index time, mirroring
:mod:`repro.memsys.slice_hash` (whose seeded masks stand in for the
undocumented per-SKU hardware constants) and reusing the SplitMix64
finalizer from :mod:`repro.rng`.
"""

from __future__ import annotations

from .._util import make_rng
from ..errors import ConfigurationError
from ..rng import _mix64

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TAG_C = 0xD1342543DE82EF95


def derive_master_key(label: str, seed: int) -> int:
    """64-bit master key from a seed, via the shared ``make_rng`` story."""
    return make_rng(("keyed-set-index", label, seed)).getrandbits(64)


def epoch_key(master: int, epoch: int) -> int:
    """The epoch's working key: a fresh avalanche of master and epoch."""
    return _mix64(master ^ _mix64((epoch * _GOLDEN) & _MASK))


def keyed_choice(key: int, tag: int, n: int) -> int:
    """Keyed deterministic pick in ``[0, n)`` — pure in ``(key, tag)``."""
    if n <= 1:
        return 0
    return _mix64(key ^ ((tag * _TAG_C) & _MASK)) % n


class KeyedSetIndex:
    """A tag-tweaked keyed permutation of the set-index domain.

    ``index_of(set_idx, tag)`` runs a balanced Feistel network (keyed by
    the current epoch key, tweaked by ``tag``) over the smallest even-bit
    domain covering ``n_sets`` and cycle-walks back into ``[0, n_sets)``.
    Properties the Hypothesis suite pins:

    * bijective per ``(epoch, tag)`` — no two set indices collide, so a
      rekey or remap never changes a cache's capacity balance;
    * epoch-sensitive — :meth:`rekey` draws a new working key, and a line
      whose image moved must be relocated or dropped by the caller.

    :meth:`place` memoizes the address-keyed index per epoch; every key
    change (:meth:`rekey`, :meth:`set_epoch`) clears the memo.
    """

    __slots__ = (
        "n_sets", "epoch", "_master", "_key", "_hbits", "_hmask", "_memo",
    )

    #: Feistel rounds; 4 suffice for full avalanche with a strong F.
    ROUNDS = 4

    #: Entries the per-epoch :meth:`place` memo may hold before it is
    #: dropped wholesale.  This bounds caches that rekey only manually;
    #: an automatic epoch (4096 inserts by default) stays well below it.
    MEMO_CAP = 1 << 16

    def __init__(self, n_sets: int, seed: int, label: str = "") -> None:
        if n_sets < 1:
            raise ConfigurationError("KeyedSetIndex needs at least one set")
        self.n_sets = n_sets
        self.epoch = 0
        self._master = derive_master_key(label, seed)
        self._key = epoch_key(self._master, 0)
        # Balanced halves: domain = 2^(2*hbits) >= n_sets.
        bits = max(2, (n_sets - 1).bit_length())
        self._hbits = (bits + 1) // 2
        self._hmask = (1 << self._hbits) - 1
        #: tag -> ``index_of(tag % n_sets, tag)`` under the current key.
        self._memo: dict = {}

    def rekey(self) -> int:
        """Advance to the next epoch key; returns the new epoch number."""
        return self.set_epoch(self.epoch + 1)

    def set_epoch(self, epoch: int) -> int:
        """Jump to ``epoch``'s working key (snapshot restore); returns it.

        Every change of key goes through here, so the :meth:`place` memo
        can never serve an index computed under another epoch.
        """
        self.epoch = epoch
        self._key = epoch_key(self._master, epoch)
        self._memo.clear()
        return epoch

    def _permute(self, value: int, tweak: int) -> int:
        hbits = self._hbits
        hmask = self._hmask
        left = value >> hbits
        right = value & hmask
        # The key and the tag tweak are fixed across the rounds.
        tweaked = self._key ^ ((tweak * _TAG_C) & _MASK)
        for rnd in range(self.ROUNDS):
            f = _mix64(tweaked ^ ((right * _GOLDEN) & _MASK) ^ rnd) & hmask
            left, right = right, left ^ f
        return (left << hbits) | right

    def index_of(self, set_idx: int, tag: int) -> int:
        """The keyed internal index for ``(set_idx, tag)`` this epoch."""
        n = self.n_sets
        if n == 1:
            return 0
        value = self._permute(set_idx % n, tag)
        # Cycle-walk: a permutation of the covering power-of-two domain
        # restricted to [0, n) by iteration is itself a bijection on it.
        while value >= n:
            value = self._permute(value, tag)
        return value

    def place(self, tag: int) -> int:
        """``index_of(tag % n_sets, tag)``, memoized for this epoch.

        The index is a pure function of ``(epoch key, tag)`` and a keyed
        cache asks for the same tag many times per epoch (locate, insert,
        rekey), so results are kept until the key changes.
        """
        memo = self._memo
        idx = memo.get(tag)
        if idx is None:
            if len(memo) >= self.MEMO_CAP:
                memo.clear()
            idx = memo[tag] = self.index_of(tag % self.n_sets, tag)
        return idx
