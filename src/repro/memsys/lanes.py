"""Set-parallel lane plane over the fused kernels (DESIGN.md §2.4).

The PR-3 kernels fused the attack loops; the profile that remains is the
per-row *re-derivation* of facts that are invariant for a whole sweep:
which rows share a cache set, whether a row's line can possibly be
resident, which slot arithmetic each row needs, and whether a row's
noise reconciliation can possibly draw.  This module compiles those
facts once per (candidate tuple, count) into a :class:`LanePlan` —
NumPy does the set-parallel grouping (uniqueness, first-touch-per-set
masks, base-offset arithmetic) in C for large tuples, a single scalar
pass handles small ones below the vectorization threshold — and then
executes the sweep through *specialized* kernels that skip every probe
the plan proves dead:

* :meth:`LaneKernels.flush_rows` runs the noise phase only on the first
  row of each (shared) set lane — later rows of the same lane reconcile
  at an unchanged clock and provably draw nothing — and retires each
  row's private-cache probes with one ``dict.pop`` per cache instead of
  a probe-then-remove call pair;
* the first post-flush traversal sweep runs :meth:`_sweep_all_miss`,
  which drops the L1/L2/SF/LLC hit probes entirely (a freshly flushed
  distinct line misses everywhere, on the main and the helper core) and
  fuses the shared-mode SF install/transfer pair into its net stamp
  effect;
* steady-state monitor rounds replay from a memo keyed on the state
  slice they read (:meth:`LaneKernels._monitor_round`, DESIGN.md §2.7).

Why the lanes are *planes of facts* and not planes of state: the flat
data plane keeps one recency counter per cache (``LRUTable._stamp`` /
``_inv_stamp``) and the hierarchy RNG is drawn in row order
(``_sf_install`` reuse predictor, ``_handle_l2_victim``), so genuinely
executing set lanes side by side would interleave those global streams
differently and break bit-parity.  The executing spine therefore stays
scalar and canonical-row-ordered; NumPy vectorizes the *planning* (the
grouping work that needs no RNG), and the plan licenses eliding scalar
work.  The pre-drawn noise contract holds trivially under this split:
draws happen at exactly the rows where the unfused path draws, in the
same order ``exchange_noise_clock`` consumes today.

The RNG-order contract of :mod:`repro.memsys.kernels` applies unchanged;
every elision below is a proven no-op on all state and all RNG streams
(proof sketches inline).  Parity gate: ``tests/test_lane_parity.py``
runs the three-way oracle chain reference -> kernels -> lanes on the
golden fingerprints.

NumPy is optional at runtime: with it absent (or ``REPRO_NO_NUMPY`` set,
or inside :func:`lanes_disabled`), :class:`LaneKernels` defers to the
inherited PR-3 kernels unchanged.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from operator import itemgetter
from typing import Dict, Optional, Tuple

from .._util import poisson
from ..rng import S_NOISE_LLC, S_NOISE_SF
from .hierarchy import _NOISE_TAG_BASE, SHARED_OWNER
from .kernels import AttackKernels, PlaneRows
from .policy_tables import TreePLRU8Table

if os.environ.get("REPRO_NO_NUMPY"):
    np = None  # forced fallback (CI's without-NumPy leg)
else:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised via REPRO_NO_NUMPY
        np = None

HAVE_NUMPY = np is not None

#: Module-wide kill switch mirroring ``kernels.KERNELS_ENABLED``: the
#: rewired call sites fall back to the plain kernels when False.
LANES_ENABLED = True

#: Rows below this compile through one scalar pass: NumPy's per-call
#: overhead (array creation, two ``np.unique``) only amortizes once the
#: tuple is a few cache-ways deep.  Same number either way — the plan is
#: a pure function of the rows.
_NP_MIN = 128


@contextmanager
def lanes_disabled():
    """Temporarily run every rewired call site on the plain kernels."""
    global LANES_ENABLED
    saved = LANES_ENABLED
    LANES_ENABLED = False
    try:
        yield
    finally:
        LANES_ENABLED = saved


#: Kill switch for the monitor-round memo replay (the parity suites use it
#: to run the same bundle live, proving replay == live bit for bit).
ROUND_MEMO_ENABLED = True


@contextmanager
def round_memo_disabled():
    """Temporarily run every monitor round live (no memo replay)."""
    global ROUND_MEMO_ENABLED
    saved = ROUND_MEMO_ENABLED
    ROUND_MEMO_ENABLED = False
    try:
        yield
    finally:
        ROUND_MEMO_ENABLED = saved


#: Memo sentinel: a tuple whose plan compiled to "not specializable"
#: (duplicate lines) is remembered as None, distinct from "not compiled".
_MISSING = object()

#: Step-tuple field extractors for the C-level plan precompute passes.
_L2SET = itemgetter(2)
_K1 = itemgetter(4)
_K2 = itemgetter(5)
_SK = itemgetter(6)


class LanePlan:
    """Sweep-invariant facts for one (candidate tuple, count) pair.

    ``steps`` carries one pre-unpacked row tuple per line —
    ``(line, l1_set, l2_set, shared_set, l1_key, l2_key, shared_key,
    b1, p1, b2, p2, bsf, bllc)`` where ``b*`` are the way-array base
    offsets (``set * ways``) and ``p*`` the policy-table bases (``set *
    pstride``) the executors would otherwise recompute per row — and
    the ``*_uniq`` lists are the distinct set indices per structure
    (for hoisted touched-bit marking).  The step tuples are shared with
    the per-VA facts table (:meth:`LaneKernels._build_facts`), so a
    plan is a list of pointers, not copies.

    ``k1set``/``k2set``/``skset`` are the plan's ``_where`` keys as
    frozensets: the flush kernel intersects them with each cache's live
    index once per call, so the ~89%-miss membership prechecks become
    one C-level set intersection instead of per-row dict probes.
    ``l2_need`` counts rows per L2 set (the no-evict fill gate).
    """

    __slots__ = ("steps", "l1_uniq", "l2_uniq", "shared_uniq",
                 "k1set", "k2set", "skset", "l2_need")

    def __init__(self, steps, l1_uniq, l2_uniq, shared_uniq) -> None:
        self.steps = steps
        self.l1_uniq = l1_uniq
        self.l2_uniq = l2_uniq
        self.shared_uniq = shared_uniq
        # C-level passes (itemgetter map / Counter) — plans are mostly
        # single-use during pruning (the candidate tuple changes every
        # test), so per-plan precompute must stay near-free.
        self.k1set = frozenset(map(_K1, steps))
        self.k2set = frozenset(map(_K2, steps))
        self.skset = frozenset(map(_SK, steps))
        self.l2_need = Counter(map(_L2SET, steps))


def _tuple_getter(idx):
    """An ``itemgetter`` that always returns a tuple (even for one index)."""
    if len(idx) == 1:
        i = idx[0]
        return lambda seq, _i=i: (seq[_i],)
    return itemgetter(*idx)


def _stamp_order(slots, pre, post, n_writes: int):
    """Slots whose LRU stamp a round rewrote, in write order.

    None when the round wrote some slot twice or outside ``slots`` (the
    stamp counter moved by more than the changed slots account for):
    then the final stamps alone do not determine the writes.
    """
    moved = [(b, s) for s, a, b in zip(slots, pre, post) if a != b]
    if len(moved) != n_writes:
        return None
    moved.sort()
    return tuple(s for _, s in moved)


class _RoundGeometry:
    """Precomputed index planes + recordings for one (vas, count, write).

    ``entries`` maps a pre-state vector (the validated slice, as a tuple
    of tuples) to the recorded post-state delta.  Steady-state monitoring
    cycles through a tiny number of distinct pre-states per shape, so the
    dict stays small; it is cleared wholesale if it ever grows past the
    cap (state churn from an unusual workload).
    """

    __slots__ = (
        "entries",
        "l1_sets",
        "l1_tag_ranges",
        "l1_state_ranges",
        "l1_slots",
        "l1_pos_sets",
        "g_l1",
        "g_l1_state",
        "l2_keys",
        "l2_slots",
        "g_l2",
        "sf_slots",
        "g_sf",
    )

    def __init__(self, rows, count: int, write: bool, l1, l2, sf) -> None:
        w1 = l1.ways
        l1_sets = sorted(set(rows.l1_sets[:count]))
        self.l1_sets = l1_sets
        self.l1_tag_ranges = [(s * w1, s * w1 + w1) for s in l1_sets]
        self.l1_state_ranges = [(s * 7, s * 7 + 7) for s in l1_sets]
        slots = [s * w1 + w for s in l1_sets for w in range(w1)]
        self.l1_slots = slots
        self.l1_pos_sets = [s for s in l1_sets for _ in range(w1)]
        self.g_l1 = _tuple_getter(slots)
        self.g_l1_state = _tuple_getter(
            [s * 7 + k for s in l1_sets for k in range(7)]
        )
        self.l2_keys = rows.l2_keys[:count]
        w2 = l2.ways
        l2_slots = [
            s * w2 + w for s in sorted(set(rows.l2_sets[:count]))
            for w in range(w2)
        ]
        self.l2_slots = l2_slots
        # LRU state stride == ways, so state indices coincide with slots
        # (the getter reads the stamps a round writes).
        self.g_l2 = _tuple_getter(l2_slots)
        if write:
            wsf = sf.ways
            sf_slots = [
                s * wsf + w for s in sorted(set(rows.shared_sets[:count]))
                for w in range(wsf)
            ]
            self.sf_slots = sf_slots
            self.g_sf = _tuple_getter(sf_slots)
        else:
            self.sf_slots = []
            self.g_sf = None
        self.entries: Dict[tuple, tuple] = {}


class LaneKernels(AttackKernels):
    """Plan-specialized kernels plus memo-replayed monitor rounds.

    ``flush_rows`` and ``traverse_kernel`` run planned sweeps that skip
    every provably dead probe.  ``_monitor_round`` replays steady-state
    Prime+Probe rounds from a memo keyed on the state slice they read,
    under either RNG contract (see the section comment below); a round
    the memo cannot serve runs the inherited live kernel.
    """

    #: Plan memo bound.  Plans are pointer lists into the facts table;
    #: the cap is sized so a whole binary-search pruning run (thousands
    #: of distinct subsets of one candidate pool) stays memoized across
    #: repeated constructions.
    _PLAN_CAP = 4096

    #: Facts-table bound (one entry per VA ever planned; a VA's facts
    #: are a few hundred bytes).
    _FACTS_CAP = 1 << 17

    #: Bound on distinct (vas, count, write) monitor-round shapes kept.
    _VMEMO_CAP = 1024
    #: Bound on recorded pre-states per round shape.
    _ENTRY_CAP = 64

    __slots__ = ("_plans", "_facts", "_vmemo", "_memo_ok", "_memo_hits",
                 "_memo_misses", "_memo_live")

    def __init__(self, machine, plane, main_core: int = 0,
                 helper_core: int = 1) -> None:
        super().__init__(machine, plane, main_core, helper_core)
        self._plans: Dict[Tuple[Tuple[int, ...], int], object] = {}
        self._facts: Dict[int, tuple] = {}
        self._vmemo: Dict[Tuple[Tuple[int, ...], int, bool],
                          _RoundGeometry] = {}
        self._memo_ok: Optional[bool] = None
        self._memo_hits = 0
        self._memo_misses = 0
        self._memo_live = 0

    def engaged(self) -> bool:
        return HAVE_NUMPY and LANES_ENABLED and super().engaged()

    def invalidate_plans(self) -> None:
        """Drop every compiled plan, fact and round recording
        (address-space change hook)."""
        self._plans.clear()
        self._facts.clear()
        self._vmemo.clear()

    def round_memo_stats(self) -> Dict[str, int]:
        """Monitor-round memo counters since this bundle was built.

        ``hits`` rounds were replayed, ``misses`` ran live and were
        offered for recording, ``live`` ran live because the memo's
        precondition failed (policy shapes, kill switch).  Telemetry
        only: no outcome, fingerprint or digest reads these.
        """
        return {
            "hits": self._memo_hits,
            "misses": self._memo_misses,
            "live": self._memo_live,
        }

    def _plan(self, rows: PlaneRows, count: int) -> Optional[LanePlan]:
        if count <= 2:  # not worth the key build (cf. TranslationPlane.rows)
            return None
        key = (rows.vas, count)
        plans = self._plans
        plan = plans.get(key, _MISSING)
        if plan is _MISSING:
            if len(plans) >= self._PLAN_CAP:
                plans.clear()
            plan = self._compile_plan(rows, count)
            plans[key] = plan
        return plan

    def _compile_plan(self, rows: PlaneRows, count: int) -> Optional[LanePlan]:
        """Group the rows into set lanes; None when not specializable.

        Duplicate lines break the all-miss invariant (the second
        occurrence of a line hits), so such tuples fall back to the
        plain kernels.  Compilation has to be cheap: a binary-search
        pruning run tests thousands of *distinct* subsets of one pool,
        so a plan is amortized over very few uses.  The per-VA row
        facts (geometry, keys, base offsets) are therefore built once
        per pool into a facts table — NumPy computes the offset columns
        in bulk for large pools — and compiling a subset is a slice
        dup-check plus one dict-lookup comprehension, all C-speed.
        """
        lines = rows.lines[:count]
        if len(set(lines)) != count:
            return None
        vas = rows.vas[:count]
        facts = self._facts
        try:
            steps = [facts[va] for va in vas]
        except KeyError:
            self._build_facts(rows)
            steps = [facts[va] for va in vas]
        return LanePlan(
            steps,
            list(set(rows.l1_sets[:count])),
            list(set(rows.l2_sets[:count])),
            list(set(rows.shared_sets[:count])),
        )

    def _build_facts(self, rows: PlaneRows) -> None:
        """Populate the facts table for every VA of ``rows``.

        The per-level geometry (ways, policy stride) is homogeneous
        across cores by construction of ``CacheHierarchy``, so one set
        of base offsets serves the main and the helper caches.
        """
        facts = self._facts
        if len(facts) >= self._FACTS_CAP:
            self._plans.clear()  # plans alias the facts tuples
            facts.clear()
        hier = self.hierarchy
        l1 = hier.l1[self.main_core]
        l2 = hier.l2[self.main_core]
        l1w, l1p = l1.ways, l1._pstride
        l2w, l2p = l2.ways, l2._pstride
        sfw = hier.sf.ways
        llcw = hier.llc.ways
        l1s = rows.l1_sets
        l2s = rows.l2_sets
        ssets = rows.shared_sets
        n = len(rows.vas)
        if n >= _NP_MIN:
            a1 = np.fromiter(l1s, dtype=np.int64, count=n)
            a2 = np.fromiter(l2s, dtype=np.int64, count=n)
            asx = np.fromiter(ssets, dtype=np.int64, count=n)
            b1 = (a1 * l1w).tolist()
            p1 = (a1 * l1p).tolist()
            b2 = (a2 * l2w).tolist()
            p2 = (a2 * l2p).tolist()
            bsf = (asx * sfw).tolist()
            bllc = (asx * llcw).tolist()
        else:
            b1 = [s * l1w for s in l1s]
            p1 = [s * l1p for s in l1s]
            b2 = [s * l2w for s in l2s]
            p2 = [s * l2p for s in l2s]
            bsf = [s * sfw for s in ssets]
            bllc = [s * llcw for s in ssets]
        for va, f in zip(
            rows.vas,
            zip(
                rows.lines,
                l1s,
                l2s,
                ssets,
                rows.l1_keys,
                rows.l2_keys,
                rows.shared_keys,
                b1,
                p1,
                b2,
                p2,
                bsf,
                bllc,
            ),
        ):
            facts[va] = f

    # -- Specialized flush ---------------------------------------------------

    def flush_rows(self, rows: PlaneRows, count: int) -> int:
        if not count or not LANES_ENABLED or not HAVE_NUMPY:
            return super().flush_rows(rows, count)
        plan = self._plan(rows, count)
        if plan is None:
            return super().flush_rows(rows, count)
        return self._flush_planned(rows, count, plan)

    def _flush_planned(self, rows: PlaneRows, count: int,
                       plan: LanePlan) -> int:
        """``AttackKernels.flush_rows`` with the noise phase lane-gated.

        Rows after the first of a shared-set lane reconcile at a clock
        the first row already advanced to ``now``; flushing schedules no
        mid-loop reconciliations (no L2 fills happen here), so the
        skipped block is a no-op on state and on the noise RNG.  The
        touched-bit marking the block would do is idempotent and the
        first row performs it.

        The main and helper cores' private-cache probes — the ones the
        traversal sweeps actually populate — are retired inline
        (``SetAssociativeCache.remove`` semantics verbatim), bound to
        flat locals rather than looped; the remaining cores keep the
        probe-then-remove pair.  Each probe is an ``in`` test first:
        between tests the shared-structure thrash back-invalidates most
        private copies (SF holds ``ways`` of a pool an order of
        magnitude larger), so the overwhelmingly common flush outcome
        is "not resident" and the membership test is the whole cost.
        Cross-cache removal order is free to change: each cache owns
        its recency counters, and a flushed line occupies one slot per
        cache at most.
        """
        m = self.machine
        m._drain_events()
        hier = self.hierarchy
        now = m.now
        mc = self.main_core
        hc = self.helper_core
        two_hot = hc != mc
        hot = (mc, hc) if two_hot else (mc,)
        m1 = hier.l1[mc]
        m2 = hier.l2[mc]
        m1w, m1t, m1o, m1c, m1s, m1l, m1pi = (
            m1._where, m1._tags, m1._owners, m1._occ, m1._state,
            m1._lru, m1._pt_invalidate,
        )
        m2w, m2t, m2o, m2c, m2s, m2l, m2pi = (
            m2._where, m2._tags, m2._owners, m2._occ, m2._state,
            m2._lru, m2._pt_invalidate,
        )
        if two_hot:
            h1 = hier.l1[hc]
            h2 = hier.l2[hc]
            h1w, h1t, h1o, h1c, h1s, h1l, h1pi = (
                h1._where, h1._tags, h1._owners, h1._occ, h1._state,
                h1._lru, h1._pt_invalidate,
            )
            h2w, h2t, h2o, h2c, h2s, h2l, h2pi = (
                h2._where, h2._tags, h2._owners, h2._occ, h2._state,
                h2._lru, h2._pt_invalidate,
            )
        # Cold cores whose private caches are *empty* stay empty for the
        # whole flush (a flush never fills a private cache — noise-insert
        # back-invalidations only remove), so they can be dropped from
        # the per-row probe lists entirely.
        cold1 = [(c._where, c.remove)
                 for i, c in enumerate(hier.l1) if i not in hot and c._where]
        cold2 = [(c._where, c.remove)
                 for i, c in enumerate(hier.l2) if i not in hot and c._where]
        sf = hier.sf
        llc = hier.llc
        sf_where = sf._where
        sf_tags = sf._tags
        sf_owners = sf._owners
        sf_occ = sf._occ
        sf_state = sf._state
        sf_lru = sf._lru
        sf_pinv = sf._pt_invalidate
        sf_pstride = sf._pstride
        sf_ways = sf.ways
        llc_where = llc._where
        llc_tags = llc._tags
        llc_owners = llc._owners
        llc_occ = llc._occ
        llc_state = llc._state
        llc_lru = llc._lru
        llc_pinv = llc._pt_invalidate
        llc_pstride = llc._pstride
        llc_ways = llc.ways
        noise = hier.noise_source
        use_noise = noise is not None
        if use_noise:
            nrng = noise._rng
            nrand = nrng.random
            crng = noise.crng
            sf_rate = noise._sf_rate
            llc_rate = noise._llc_rate
            sf_nt = sf._noise_t
            sf_tt = sf._touched
            llc_nt = llc._noise_t
            llc_tt = llc._touched
            sf_cap = 3 * sf_ways
            llc_cap = 3 * llc_ways
            ins_sf = hier.noise_insert_sf
            ins_llc = hier.noise_insert_llc
            prev_sidx = -1
        # Batched membership prechecks (the ~89%-miss case): one C-level
        # ``dict.keys() & frozenset`` intersection per cache replaces the
        # per-row probes into the (much larger) live indexes.  Sound
        # because a flush never *installs* a real line into a private
        # cache or the SF: noise inserts carry tags >= _NOISE_TAG_BASE
        # (key-disjoint from plan keys) and the reuse path only moves
        # evicted real tags into the LLC — so a plan key absent here at
        # loop start stays absent until its own row.  The LLC is the one
        # structure that can *gain* a real plan key mid-loop (that reuse
        # path), so its probes stay live.  Keys found here are still
        # popped guardedly: a noise-insert eviction can back-invalidate
        # a private copy (or evict an SF line) before its row comes up.
        hit_m1 = m1w.keys() & plan.k1set
        hit_m2 = m2w.keys() & plan.k2set
        if two_hot:
            hit_h1 = h1w.keys() & plan.k1set
            hit_h2 = h2w.keys() & plan.k2set
        else:
            hit_h1 = hit_h2 = ()
        hit_sf = sf_where.keys() & plan.skset
        for (line, s1, s2, sidx, k1, k2, sk,
             b1, p1, b2, p2, bsf, bllc) in plan.steps:
            if k1 in hit_m1:
                slot = m1w.pop(k1, None)
                if slot is not None:
                    m1t[slot] = None
                    m1o[slot] = 0
                    m1c[s1] -= 1
                    if m1l is not None:
                        m1l._inv_stamp = stamp = m1l._inv_stamp - 1
                        m1s[slot] = stamp
                    else:
                        m1pi(m1s, p1, slot - b1)
            if k1 in hit_h1:
                slot = h1w.pop(k1, None)
                if slot is not None:
                    h1t[slot] = None
                    h1o[slot] = 0
                    h1c[s1] -= 1
                    if h1l is not None:
                        h1l._inv_stamp = stamp = h1l._inv_stamp - 1
                        h1s[slot] = stamp
                    else:
                        h1pi(h1s, p1, slot - b1)
            for w, rm in cold1:
                if k1 in w:
                    rm(s1, line)
            if k2 in hit_m2:
                slot = m2w.pop(k2, None)
                if slot is not None:
                    m2t[slot] = None
                    m2o[slot] = 0
                    m2c[s2] -= 1
                    if m2l is not None:
                        m2l._inv_stamp = stamp = m2l._inv_stamp - 1
                        m2s[slot] = stamp
                    else:
                        m2pi(m2s, p2, slot - b2)
            if k2 in hit_h2:
                slot = h2w.pop(k2, None)
                if slot is not None:
                    h2t[slot] = None
                    h2o[slot] = 0
                    h2c[s2] -= 1
                    if h2l is not None:
                        h2l._inv_stamp = stamp = h2l._inv_stamp - 1
                        h2s[slot] = stamp
                    else:
                        h2pi(h2s, p2, slot - b2)
            for w, rm in cold2:
                if k2 in w:
                    rm(s2, line)
            if use_noise and sidx != prev_sidx:
                prev_sidx = sidx
                # Inline BackgroundNoise.reconcile (see kernels.flush_rows);
                # lane-gated to the first row of each shared-set run (a
                # *re*-entered set reconciles again, but at an unchanged
                # clock that is a draw-free no-op, same as the unfused
                # per-row reconciles it replaces).
                if sf_rate > 0.0:
                    if not sf_tt[sidx]:
                        sf_tt[sidx] = 1
                        sf._touched_count += 1
                    old = sf_nt[sidx]
                    if now > old:
                        sf_nt[sidx] = now
                        lam = sf_rate * (now - old)
                        if crng is not None:
                            n = crng.noise_poisson(S_NOISE_SF, sidx, old, lam)
                        elif lam < 0.01:
                            n = 1 if nrand() < lam else 0
                        else:
                            n = poisson(nrng, lam)
                        if n:
                            if n > sf_cap:
                                n = sf_cap
                            for _ in range(n):
                                ins_sf(sidx)
                            noise.events += n
                if llc_rate > 0.0:
                    if not llc_tt[sidx]:
                        llc_tt[sidx] = 1
                        llc._touched_count += 1
                    old = llc_nt[sidx]
                    if now > old:
                        llc_nt[sidx] = now
                        lam = llc_rate * (now - old)
                        if crng is not None:
                            n = crng.noise_poisson(S_NOISE_LLC, sidx, old, lam)
                        elif lam < 0.01:
                            n = 1 if nrand() < lam else 0
                        else:
                            n = poisson(nrng, lam)
                        if n:
                            if n > llc_cap:
                                n = llc_cap
                            for _ in range(n):
                                ins_llc(sidx)
                            noise.events += n
            if sk in sf_where:  # inline SetAssociativeCache.remove
                slot = sf_where.pop(sk)
                sf_tags[slot] = None
                sf_owners[slot] = 0
                sf_occ[sidx] -= 1
                if sf_lru is not None:
                    sf_lru._inv_stamp = stamp = sf_lru._inv_stamp - 1
                    sf_state[slot] = stamp
                else:
                    sf_pinv(sf_state, sidx * sf_pstride, slot - bsf)
            if sk in llc_where:
                slot = llc_where.pop(sk)
                llc_tags[slot] = None
                llc_owners[slot] = 0
                llc_occ[sidx] -= 1
                if llc_lru is not None:
                    llc_lru._inv_stamp = stamp = llc_lru._inv_stamp - 1
                    llc_state[slot] = stamp
                else:
                    llc_pinv(llc_state, sidx * llc_pstride, slot - bllc)
        hier.stats.flushes += count
        lat = m.cfg.latency
        cost = lat.flush + (count - 1) * lat.flush_gap
        cost += m._preemption_penalty(cost)
        m.advance(cost)
        return cost

    # -- Specialized traversal ----------------------------------------------

    def traverse_kernel(self, mode: str, rows: PlaneRows, count: int,
                        repeats: int) -> None:
        if not count or not LANES_ENABLED or not HAVE_NUMPY:
            return super().traverse_kernel(mode, rows, count, repeats)
        shared = mode == "llc"
        if shared and self.main_core == self.helper_core:
            return super().traverse_kernel(mode, rows, count, repeats)
        plan = self._plan(rows, count)
        if plan is None:
            return super().traverse_kernel(mode, rows, count, repeats)
        self._flush_planned(rows, count, plan)
        m = self.machine
        done = 0
        # A due scheduled event (victim activity) would be drained by the
        # first sweep and can re-install arbitrary lines, voiding the
        # all-miss invariant — run the plain sweep in that case.
        if not (m._events and m._events[0][0] <= m.now):
            self._sweep_all_miss(rows, count, plan, shared)
            done = 1
        if shared:
            for _ in range(repeats - done):
                self.load_sweep(rows, count, shared=True)
        elif mode == "sf":
            for _ in range(repeats - done):
                self.store_sweep(rows, count)
        else:
            for _ in range(repeats - done):
                self.load_sweep(rows, count)

    def _sweep_all_miss(self, rows: PlaneRows, count: int, plan: LanePlan,
                        shared: bool) -> int:
        """One post-flush sweep where every row provably misses everywhere.

        Invariant: the rows were just flushed (private caches, SF, LLC)
        at this ``now`` with no intervening event drain, and the lines
        are distinct.  Nothing re-installs a flushed line before its own
        row — noise inserts carry tags >= ``_NOISE_TAG_BASE``, and the
        victim/reuse paths only move lines that are currently resident
        somewhere (a flushed line is resident nowhere until its row).
        So the L1/L2/SF/LLC hit probes of the main cascade — and, in
        shared mode, the helper's L1/L2 probes (the line only ever
        enters the *main* core's private caches) — are elided, and
        every row takes the miss-everywhere branch: ``_sf_install`` +
        private fills, plus the helper's guaranteed SF transfer in
        shared mode.  This mirrors ``load_sweep``'s miss branch (which
        is statement-identical to ``store_sweep``'s, so one body serves
        llc/l2/sf modes).
        """
        m = self.machine
        m.batch_calls += 1
        m.batch_lines += count
        hier = self.hierarchy
        now = m.now
        core = self.main_core
        stats = hier.stats
        lat = m.cfg.latency
        lat_dram = lat.dram
        miss_gap = lat.issue_gap
        l1 = hier.l1[core]
        l2 = hier.l2[core]
        l1_where = l1._where
        l1_state = l1._state
        l1_lru = l1._lru
        l1_tree8 = type(l1._pol) is TreePLRU8Table
        l1_tags = l1._tags
        l1_owners = l1._owners
        l1_occ = l1._occ
        l1_nsets = l1.n_sets
        l1_ways = l1.ways
        l1_pvict = l1._pt_victim
        l1_pfill = l1._pt_fill
        l2_where = l2._where
        l2_state = l2._state
        l2_lru = l2._lru
        l2_tags = l2._tags
        l2_owners = l2._owners
        l2_occ = l2._occ
        l2_nsets = l2.n_sets
        l2_ways = l2.ways
        l2_pvict = l2._pt_victim
        l2_pfill = l2._pt_fill
        sf = hier.sf
        llc = hier.llc
        sf_where = sf._where
        sf_owners = sf._owners
        sf_tags = sf._tags
        sf_occ = sf._occ
        sf_state = sf._state
        sf_lru = sf._lru
        sf_pinv = sf._pt_invalidate
        sf_pvict = sf._pt_victim
        sf_pfill = sf._pt_fill
        sf_pstride = sf._pstride
        sf_ways = sf.ways
        sf_nsets = sf.n_sets
        llc_insert = llc.insert
        hrand = hier._rng.random
        reuse_p = hier.cfg.reuse_predictor_p
        reuse_take = hier._reuse_take if hier.crng is not None else None
        handle_victim = hier._handle_l2_victim
        sidx_get = hier._sidx_memo.get
        shared_set_index = hier.shared_set_index
        l1_mask = hier._l1_mask
        l2_mask = hier._l2_mask
        l1_probe = [(c._where, c.remove) for c in hier.l1]
        l2_probe = [(c._where, c.remove) for c in hier.l2]

        def inv_everywhere(etag):  # see kernels.load_sweep
            s1 = etag & l1_mask
            k1 = etag * l1_nsets + s1
            for w, rm in l1_probe:
                if k1 in w:
                    rm(s1, etag)
            s2 = etag & l2_mask
            k2 = etag * l2_nsets + s2
            for w, rm in l2_probe:
                if k2 in w:
                    rm(s2, etag)

        def inv_private(eowner, etag):
            s1 = etag & l1_mask
            w, rm = l1_probe[eowner]
            if etag * l1_nsets + s1 in w:
                rm(s1, etag)
            s2 = etag & l2_mask
            w, rm = l2_probe[eowner]
            if etag * l2_nsets + s2 in w:
                rm(s2, etag)

        if shared:
            helper = self.helper_core
            h1c = hier.l1[helper]
            h2c = hier.l2[helper]
            h1_where = h1c._where
            h1_state = h1c._state
            h1_lru = h1c._lru
            h1_ways = h1c.ways
            h1_tree8 = type(h1c._pol) is TreePLRU8Table
            h1_tags = h1c._tags
            h1_owners = h1c._owners
            h1_occ = h1c._occ
            h1_pvict = h1c._pt_victim
            h1_pfill = h1c._pt_fill
            h2_where = h2c._where
            h2_state = h2c._state
            h2_lru = h2c._lru
            h2_tags = h2c._tags
            h2_owners = h2c._owners
            h2_occ = h2c._occ
            h2_pvict = h2c._pt_victim
            h2_pfill = h2c._pt_fill
            llc_where = llc._where
            llc_tags = llc._tags
            llc_owners = llc._owners
            llc_occ = llc._occ
            llc_state = llc._state
            llc_lru = llc._lru
            llc_pvict = llc._pt_victim
            llc_pfill = llc._pt_fill
            llc_pstride = llc._pstride
            llc_ways = llc.ways
            llc_nsets = llc.n_sets
        fused_ok = shared and sf_lru is not None
        noise = hier.noise_source
        use_noise = noise is not None
        if use_noise:
            nrng = noise._rng
            nrand = nrng.random
            crng = noise.crng
            sf_rate = noise._sf_rate
            llc_rate = noise._llc_rate
            sf_nt = sf._noise_t
            llc_nt = llc._noise_t
            sf_cap = 3 * sf_ways
            llc_cap = 3 * llc.ways
            ins_sf = hier.noise_insert_sf
            ins_llc = hier.noise_insert_llc
            prev_sidx = -1
        # FIFO victim predictor for the LLC lane (shared mode, LRU): a
        # guaranteed fill per row into one set evicts slots in fill-age
        # order, so one sorted scan serves the whole run of rows.  The
        # guard is exact: under a stamp policy every LLC state write
        # moves ``_stamp`` or ``_inv_stamp``, so counters equal to the
        # values captured right after our own last fill prove the plane
        # untouched in between (noise inserts, back-invalidations, and
        # victim dispositions all break the match and force a rescan).
        # Every one of our own fills also *pre-checks* continuity before
        # moving the counters: updating the guard blindly at a free-way
        # fill would mask a foreign write (reuse insert, noise, victim
        # disposition) that landed since our previous fill and leave a
        # stale captured order looking valid.
        vq_sidx = -1
        vq_order = None
        vq_ptr = vq_stamp = vq_inv = 0
        # The same predictor for the structures the non-shared sweeps
        # thrash: the SF lane (sf mode primes one congruent set, so a
        # single-set slot like the LLC's suffices) and the private L2
        # plane (rows interleave many L2 sets, so captured orders are
        # dict-keyed per set under one shared continuity guard — our own
        # tracked fills to other sets leave a set's age order intact).
        sfq_ok = not shared and sf_lru is not None
        sfq_sidx = -1
        sfq_order = None
        sfq_ptr = sfq_stamp = sfq_inv = 0
        l2q: Dict[int, list] = {}
        l2q_stamp = l2q_inv = 0
        if shared:
            h2q: Dict[int, list] = {}
            h2q_stamp = h2q_inv = 0
        # No-evict fill gate: when every planned L2 set has room for all
        # of its rows, no main-core L2 fill of this sweep can evict
        # (mid-sweep L2 traffic only ever removes lines), so the victim
        # branch and the per-row SF disposition probe are skipped
        # wholesale.
        l2_free_all = True
        for s, c in plan.l2_need.items():
            if l2_occ[s] + c > l2_ways:
                l2_free_all = False
                break
        if shared:
            h2_free_all = True
            for s, c in plan.l2_need.items():
                if h2_occ[s] + c > l2_ways:
                    h2_free_all = False
                    break
        # Touched-bit marking hoisted out of the row loop (idempotent;
        # same final bits and counts as the per-row marks it replaces).
        # The LLC bits are only marked by the unfused path when the
        # sweep itself touches the LLC plane: a shared-mode fill per
        # row, or an enabled LLC noise phase.
        for cache, sets in (
            ((l1, plan.l1_uniq), (l2, plan.l2_uniq), (sf, plan.shared_uniq))
            + (((h1c, plan.l1_uniq), (h2c, plan.l2_uniq)) if shared else ())
        ):
            tb = cache._touched
            for s in sets:
                if not tb[s]:
                    tb[s] = 1
                    cache._touched_count += 1
        if shared or (use_noise and llc_rate > 0.0):
            tb = llc._touched
            for s in plan.shared_uniq:
                if not tb[s]:
                    tb[s] = 1
                    llc._touched_count += 1
        sfv = llcv = l1v = l2v = h1v = h2v = back_inv = 0
        for (line, set_idx, l2_idx, sidx, k1, k2, sk,
             l1_base, sbase, l2_base, l2_pbase, sf_base, llc_base) in plan.steps:
            if use_noise and sidx != prev_sidx:
                prev_sidx = sidx
                # Lane-gated reconcile: later rows of the lane see the
                # clock this row advances.  The clock check stays live
                # even on first rows — a mid-sweep ``_handle_l2_victim``
                # can reconcile a later lane's set before its first row.
                if sf_rate > 0.0:
                    old = sf_nt[sidx]
                    if now > old:
                        sf_nt[sidx] = now
                        lam = sf_rate * (now - old)
                        if crng is not None:
                            n = crng.noise_poisson(S_NOISE_SF, sidx, old, lam)
                        elif lam < 0.01:
                            n = 1 if nrand() < lam else 0
                        else:
                            n = poisson(nrng, lam)
                        if n:
                            if n > sf_cap:
                                n = sf_cap
                            for _ in range(n):
                                ins_sf(sidx)
                            noise.events += n
                if llc_rate > 0.0:
                    old = llc_nt[sidx]
                    if now > old:
                        llc_nt[sidx] = now
                        lam = llc_rate * (now - old)
                        if crng is not None:
                            n = crng.noise_poisson(S_NOISE_LLC, sidx, old, lam)
                        elif lam < 0.01:
                            n = 1 if nrand() < lam else 0
                        else:
                            n = poisson(nrng, lam)
                        if n:
                            if n > llc_cap:
                                n = llc_cap
                            for _ in range(n):
                                ins_llc(sidx)
                            noise.events += n
            # Miss everywhere: _sf_install, insert inline.  In shared
            # mode with a free SF way and a stamp (LRU) policy, the
            # install/transfer pair is fused: the positive stamp the
            # install would write is dead (the helper-side transfer
            # overwrites it this row), so only the counters move at
            # their canonical positions.  Nothing reads the deferred
            # slot in between: a noise insert into this set is
            # impossible (its clock is already at ``now``, so any
            # mid-row reconcile draws nothing), and the L2 victim
            # disposition looks up a different tag.
            if sf_occ[sidx] < sf_ways:
                fslot = sf_tags.index(None, sf_base, sf_base + sf_ways)
                if fused_ok:
                    fused = True
                    sf_lru._stamp += 1
                else:
                    fused = False
                    sf_occ[sidx] += 1
                    sf_tags[fslot] = line
                    sf_owners[fslot] = core
                    sf_where[sk] = fslot
                    if sf_lru is not None:
                        sf_lru._stamp = stamp = sf_lru._stamp + 1
                        sf_state[fslot] = stamp
                        # Free-way fill: pre-check continuity, then move
                        # the guard past our own write.
                        if stamp - 1 != sfq_stamp or sf_lru._inv_stamp != sfq_inv:
                            sfq_sidx = -1
                        sfq_stamp = stamp
                        sfq_inv = sf_lru._inv_stamp
                    else:
                        sf_pfill(sf_state, sidx * sf_pstride, fslot - sf_base)
            else:
                fused = False
                if sf_lru is not None:
                    if (sfq_ok and sf_lru._stamp == sfq_stamp
                            and sf_lru._inv_stamp == sfq_inv):
                        if sidx == sfq_sidx:
                            wayf = sfq_order[sfq_ptr]
                            sfq_ptr += 1
                            if sfq_ptr == sf_ways:
                                sfq_ptr = 0
                        else:
                            # Guard chain intact but set unseen: a
                            # stable run — capture its age order.
                            seg = sf_state[sf_base:sf_base + sf_ways]
                            sfq_order = sorted(range(sf_ways),
                                               key=seg.__getitem__)
                            wayf = sfq_order[0]
                            sfq_sidx = sidx
                            sfq_ptr = 1 if sf_ways > 1 else 0
                    else:
                        # Guard broken (foreign SF write since our last
                        # fill) or shared mode: plain argmin, no capture
                        # — a sorted() here would be thrown away again
                        # next row in thrash-heavy sweeps.
                        seg = sf_state[sf_base:sf_base + sf_ways]
                        wayf = seg.index(min(seg))
                        sfq_sidx = -1
                else:
                    wayf = sf_pvict(sf_state, sidx * sf_pstride)
                sfv += 1
                fslot = sf_base + wayf
                etag = sf_tags[fslot]
                eowner = sf_owners[fslot]
                del sf_where[etag * sf_nsets + sidx]
                sf_tags[fslot] = line
                sf_owners[fslot] = core
                sf_where[sk] = fslot
                if sf_lru is not None:
                    sf_lru._stamp = stamp = sf_lru._stamp + 1
                    sf_state[fslot] = stamp
                    if sfq_ok:
                        # Continuity holds by construction: the victim
                        # selection just verified (or re-captured) the
                        # plane and nothing of ours intervened.
                        sfq_stamp = stamp
                        sfq_inv = sf_lru._inv_stamp
                else:
                    sf_pfill(sf_state, sidx * sf_pstride, wayf)
                if eowner >= 0:
                    inv_private(eowner, etag)
                    back_inv += 1
                if (hrand() < reuse_p) if reuse_take is None else reuse_take(sidx):
                    ev2 = llc_insert(sidx, etag, SHARED_OWNER)
                    if ev2 is not None and ev2[0] < _NOISE_TAG_BASE:
                        inv_everywhere(ev2[0])
            # Fill private (L2 then L1) — see kernels.load_sweep.
            if l2_free_all or l2_occ[l2_idx] < l2_ways:
                slot2 = l2_tags.index(None, l2_base, l2_base + l2_ways)
                way2 = slot2 - l2_base
                l2_occ[l2_idx] += 1
                vline = None
            else:
                if l2_lru is not None:
                    if (l2q_stamp == l2_lru._stamp
                            and l2q_inv == l2_lru._inv_stamp):
                        ent = l2q.get(l2_idx)
                        if ent is not None:
                            order = ent[0]
                            ptr = ent[1]
                            way2 = order[ptr]
                            ptr += 1
                            ent[1] = 0 if ptr == l2_ways else ptr
                        else:
                            seg = l2_state[l2_base:l2_base + l2_ways]
                            order = sorted(range(l2_ways),
                                           key=seg.__getitem__)
                            way2 = order[0]
                            l2q[l2_idx] = [order, 1 if l2_ways > 1 else 0]
                    else:
                        # Guard broken: plain argmin, drop every
                        # captured order (cheap — the back-invalidation
                        # heavy llc mode breaks the chain most rows and
                        # must not pay capture cost it cannot reuse).
                        if l2q:
                            l2q.clear()
                        seg = l2_state[l2_base:l2_base + l2_ways]
                        way2 = seg.index(min(seg))
                else:
                    way2 = l2_pvict(l2_state, l2_pbase)
                l2v += 1
                slot2 = l2_base + way2
                vline = l2_tags[slot2]
                del l2_where[vline * l2_nsets + l2_idx]
            l2_tags[slot2] = line
            l2_owners[slot2] = core
            l2_where[k2] = slot2
            if l2_lru is not None:
                l2_lru._stamp = stamp = l2_lru._stamp + 1
                l2_state[slot2] = stamp
                # Pre-write continuity check (see the predictor notes):
                # a mismatch means a foreign L2 write landed since our
                # last fill, so every captured age order is suspect.
                if stamp - 1 != l2q_stamp or l2_lru._inv_stamp != l2q_inv:
                    if l2q:
                        l2q.clear()
                l2q_stamp = stamp
                l2q_inv = l2_lru._inv_stamp
            else:
                l2_pfill(l2_state, l2_pbase, way2)
            if vline is not None:
                vsid = sidx_get(vline)
                if vsid is None:
                    vsid = shared_set_index(vline)
                vslot = sf_where.get(vline * sf_nsets + vsid)
                if vslot is not None and sf_owners[vslot] == core:
                    handle_victim(core, vline, now)
            if l1_occ[set_idx] < l1_ways:
                slot = l1_tags.index(None, l1_base, l1_base + l1_ways)
                way1 = slot - l1_base
                l1_occ[set_idx] += 1
            else:
                if l1_tree8:
                    b0 = l1_state[sbase]
                    node = 1 + b0
                    b1 = l1_state[sbase + node]
                    way1 = ((b0 << 2) | (b1 << 1)
                            | l1_state[sbase + 2 * node + 1 + b1])
                elif l1_lru is not None:
                    seg = l1_state[l1_base:l1_base + l1_ways]
                    way1 = seg.index(min(seg))
                else:
                    way1 = l1_pvict(l1_state, sbase)
                l1v += 1
                slot = l1_base + way1
                del l1_where[l1_tags[slot] * l1_nsets + set_idx]
            l1_tags[slot] = line
            l1_owners[slot] = core
            l1_where[k1] = slot
            if l1_tree8:
                b0 = (way1 >> 2) & 1
                l1_state[sbase] = 1 - b0
                b1 = (way1 >> 1) & 1
                node = 1 + b0
                l1_state[sbase + node] = 1 - b1
                l1_state[sbase + 2 * node + 1 + b1] = 1 - (way1 & 1)
            elif l1_lru is not None:
                l1_lru._stamp = stamp = l1_lru._stamp + 1
                l1_state[slot] = stamp
            else:
                l1_pfill(l1_state, sbase, way1)
            if not shared:
                continue
            # Helper shadow read: the line is SF-resident with the main
            # core as owner (nothing between the install and here can
            # evict it — see the fusion note), so the SF transfer branch
            # is guaranteed; the line is LLC-absent, so the shared
            # install is a guaranteed fill.
            if fused:
                sf_lru._inv_stamp = istamp = sf_lru._inv_stamp - 1
                sf_state[fslot] = istamp
            else:
                del sf_where[sk]
                sf_tags[fslot] = None
                sf_owners[fslot] = 0
                sf_occ[sidx] -= 1
                if sf_lru is not None:
                    sf_lru._inv_stamp = istamp = sf_lru._inv_stamp - 1
                    sf_state[fslot] = istamp
                else:
                    sf_pinv(sf_state, sidx * sf_pstride, fslot - sf_base)
            if llc_occ[sidx] < llc_ways:
                lslot = llc_tags.index(None, llc_base, llc_base + llc_ways)
                wayl = lslot - llc_base
                llc_occ[sidx] += 1
                etag2 = None
            else:
                if llc_lru is not None:
                    # Predicted FIFO victim when the guard proves the
                    # LLC plane untouched since our last fill; the
                    # argmin is then the first not-yet-refilled slot of
                    # the captured age order (stamps are unique, so the
                    # argmin is unambiguous and matches seg.index(min)).
                    if (sidx == vq_sidx
                            and llc_lru._stamp == vq_stamp
                            and llc_lru._inv_stamp == vq_inv):
                        wayl = vq_order[vq_ptr]
                        vq_ptr += 1
                        if vq_ptr == llc_ways:
                            vq_ptr = 0
                    else:
                        seg = llc_state[llc_base:llc_base + llc_ways]
                        vq_order = sorted(range(llc_ways), key=seg.__getitem__)
                        wayl = vq_order[0]
                        vq_sidx = sidx
                        vq_ptr = 1 if llc_ways > 1 else 0
                        # Resync the guard to capture time so the fill's
                        # continuity pre-check below recognizes this
                        # fresh order as valid.
                        vq_stamp = llc_lru._stamp
                        vq_inv = llc_lru._inv_stamp
                else:
                    wayl = llc_pvict(llc_state, sidx * llc_pstride)
                llcv += 1
                lslot = llc_base + wayl
                etag2 = llc_tags[lslot]
                del llc_where[etag2 * llc_nsets + sidx]
            llc_tags[lslot] = line
            llc_owners[lslot] = SHARED_OWNER
            llc_where[sk] = lslot
            if llc_lru is not None:
                llc_lru._stamp = stamp = llc_lru._stamp + 1
                llc_state[lslot] = stamp
                # Pre-write continuity check: a free-way fill that moved
                # the guard blindly would mask foreign LLC writes (reuse
                # inserts, noise, victim dispositions) landed earlier in
                # this row and leave a stale captured order looking
                # valid at the next victim fill.
                if stamp - 1 != vq_stamp or llc_lru._inv_stamp != vq_inv:
                    vq_sidx = -1
                vq_stamp = stamp
                vq_inv = llc_lru._inv_stamp
            else:
                llc_pfill(llc_state, sidx * llc_pstride, wayl)
            if etag2 is not None and etag2 < _NOISE_TAG_BASE:
                inv_everywhere(etag2)
            # Fill the helper's private caches.
            if h2_free_all or h2_occ[l2_idx] < l2_ways:
                slot2 = h2_tags.index(None, l2_base, l2_base + l2_ways)
                way2 = slot2 - l2_base
                h2_occ[l2_idx] += 1
                vline = None
            else:
                if h2_lru is not None:
                    if (h2q_stamp == h2_lru._stamp
                            and h2q_inv == h2_lru._inv_stamp):
                        ent = h2q.get(l2_idx)
                        if ent is not None:
                            order = ent[0]
                            ptr = ent[1]
                            way2 = order[ptr]
                            ptr += 1
                            ent[1] = 0 if ptr == l2_ways else ptr
                        else:
                            seg = h2_state[l2_base:l2_base + l2_ways]
                            order = sorted(range(l2_ways),
                                           key=seg.__getitem__)
                            way2 = order[0]
                            h2q[l2_idx] = [order, 1 if l2_ways > 1 else 0]
                    else:
                        if h2q:
                            h2q.clear()
                        seg = h2_state[l2_base:l2_base + l2_ways]
                        way2 = seg.index(min(seg))
                else:
                    way2 = h2_pvict(h2_state, l2_pbase)
                h2v += 1
                slot2 = l2_base + way2
                vline = h2_tags[slot2]
                del h2_where[vline * l2_nsets + l2_idx]
            h2_tags[slot2] = line
            h2_owners[slot2] = helper
            h2_where[k2] = slot2
            if h2_lru is not None:
                h2_lru._stamp = stamp = h2_lru._stamp + 1
                h2_state[slot2] = stamp
                if stamp - 1 != h2q_stamp or h2_lru._inv_stamp != h2q_inv:
                    if h2q:
                        h2q.clear()
                h2q_stamp = stamp
                h2q_inv = h2_lru._inv_stamp
            else:
                h2_pfill(h2_state, l2_pbase, way2)
            if vline is not None:
                vsid = sidx_get(vline)
                if vsid is None:
                    vsid = shared_set_index(vline)
                vslot = sf_where.get(vline * sf_nsets + vsid)
                if vslot is not None and sf_owners[vslot] == helper:
                    handle_victim(helper, vline, now)
            if h1_occ[set_idx] < h1_ways:
                slot = h1_tags.index(None, l1_base, l1_base + h1_ways)
                way1 = slot - l1_base
                h1_occ[set_idx] += 1
            else:
                if h1_tree8:
                    b0 = h1_state[sbase]
                    node = 1 + b0
                    b1 = h1_state[sbase + node]
                    way1 = ((b0 << 2) | (b1 << 1)
                            | h1_state[sbase + 2 * node + 1 + b1])
                elif h1_lru is not None:
                    seg = h1_state[l1_base:l1_base + h1_ways]
                    way1 = seg.index(min(seg))
                else:
                    way1 = h1_pvict(h1_state, sbase)
                h1v += 1
                slot = l1_base + way1
                del h1_where[h1_tags[slot] * l1_nsets + set_idx]
            h1_tags[slot] = line
            h1_owners[slot] = helper
            h1_where[k1] = slot
            if h1_tree8:
                b0 = (way1 >> 2) & 1
                h1_state[sbase] = 1 - b0
                b1 = (way1 >> 1) & 1
                node = 1 + b0
                h1_state[sbase + node] = 1 - b1
                h1_state[sbase + 2 * node + 1 + b1] = 1 - (way1 & 1)
            elif h1_lru is not None:
                h1_lru._stamp = stamp = h1_lru._stamp + 1
                h1_state[slot] = stamp
            else:
                h1_pfill(h1_state, sbase, way1)
        # Counter folding: every row is one main miss-everywhere access
        # (and one helper transfer access in shared mode).
        stats.accesses += 2 * count if shared else count
        stats.dram_fetches += count
        stats.sf_back_invalidations += back_inv
        sf.policy_fills += count
        sf.policy_victims += sfv
        l1.policy_fills += count
        l1.policy_victims += l1v
        l2.policy_fills += count
        l2.policy_victims += l2v
        if shared:
            stats.sf_transfers += count
            llc.policy_fills += count
            llc.policy_victims += llcv
            h1c.policy_fills += count
            h1c.policy_victims += h1v
            h2c.policy_fills += count
            h2c.policy_victims += h2v
        elapsed = lat_dram + count * miss_gap
        elapsed += m._preemption_penalty(elapsed)
        m.advance(elapsed)
        return elapsed

    # -- Monitor-round memo replay --------------------------------------------
    #
    # The steady-state Prime+Probe round (every line hits L1/L2, nothing
    # else moves) is a pure function of a small, enumerable state slice:
    #
    # * the L1 tag/owner/state plane of the touched sets (tree-PLRU bits
    #   are *read* on evictions, so they are validated raw),
    # * the L2 slot of each line, or None (a hit round reads the L2 only
    #   through these lookups; stamps are write-only: recency updates
    #   never read existing stamp values),
    # * the SF tags/owners of the congruent set (write rounds only; probe
    #   rounds never consult the SF).
    #
    # Reconcile first: every round drains its due events and reconciles
    # the congruent set's noise live, exactly where the live round does,
    # and only then keys the memo on the slice.  The noise draws are
    # therefore the live round's draws under either RNG contract, and
    # whatever they inserted is part of the key.  A pure hit walk draws
    # nothing else (L1 victims are silent, hits never reach the
    # hierarchy RNG), so on a hit the recorded delta is the round; on a
    # miss the live round runs, and its own reconcile is a draw-free
    # no-op at the same clock.  Preemption is drawn live in both paths,
    # and events due during the round run in ``advance`` after the walk,
    # as they do live.
    #
    # LRU stamps are replayed *relative* to the current global stamp
    # counter (the k-th written slot gets ``stamp_now + k``), never as
    # absolute values: untouched slots keep drifting absolute stamps
    # between record and replay while the within-round write order is
    # invariant.  The L1 touched bits are not keyed: replay sets them on
    # the filled sets, as the live fills do.

    def _round_shapes_ok(self) -> bool:
        """Memo gate: the flat plane with the policy shapes replay knows
        (tree-PLRU8 L1, LRU L2/SF — the default microarchitecture)."""
        if not AttackKernels.engaged(self):
            return False
        hier = self.hierarchy
        l1 = hier.l1[self.main_core]
        l2 = hier.l2[self.main_core]
        return (
            type(l1._pol) is TreePLRU8Table
            and l1.ways == 8
            and l2._lru is not None
            and hier.sf._lru is not None
        )

    def _monitor_round(self, rows: PlaneRows, count: int, write: bool) -> int:
        ok = self._memo_ok
        if ok is None:
            ok = self._memo_ok = self._round_shapes_ok()
        if not ok or not ROUND_MEMO_ENABLED or not count:
            self._memo_live += 1
            return super()._monitor_round(rows, count, write)
        m = self.machine
        events = m._events
        if events and events[0][0] <= m.now:
            m._drain_events()
        hier = self.hierarchy
        noise = hier.noise_source
        if noise is not None:
            noise.reconcile(hier, rows.shared_sets[0], m.now)
        l1 = hier.l1[self.main_core]
        l2 = hier.l2[self.main_core]
        sf = hier.sf
        key = (rows.vas, count, write)
        vmemo = self._vmemo
        geom = vmemo.get(key)
        if geom is None:
            if len(vmemo) >= self._VMEMO_CAP:
                vmemo.clear()
            geom = _RoundGeometry(rows, count, write, l1, l2, sf)
            vmemo[key] = geom
        g_l1 = geom.g_l1
        if write:
            g_sf = geom.g_sf
            pre = (
                g_l1(l1._tags), g_l1(l1._owners), geom.g_l1_state(l1._state),
                tuple(map(l2._where.get, geom.l2_keys)),
                g_sf(sf._tags), g_sf(sf._owners),
            )
        else:
            pre = (
                g_l1(l1._tags), g_l1(l1._owners), geom.g_l1_state(l1._state),
                tuple(map(l2._where.get, geom.l2_keys)),
            )
        rec = geom.entries.get(pre)
        if rec is not None:
            self._memo_hits += 1
            return self._replay(m, hier, l1, l2, sf, count, rec)
        self._memo_misses += 1
        return self._record(rows, count, write, geom, pre, l1, l2, sf)

    def _record(self, rows: PlaneRows, count: int, write: bool, geom, pre,
                l1, l2, sf) -> int:
        """Run the round live; capture its delta if it was a pure hit walk."""
        m = self.machine
        stats = self.hierarchy.stats
        s0 = (
            stats.accesses, stats.l1_hits, stats.l2_hits, stats.llc_hits,
            stats.sf_transfers, stats.dram_fetches, stats.flushes,
            stats.noise_insertions, stats.sf_back_invalidations,
        )
        p0 = (
            l1.policy_touches, l1.policy_fills, l1.policy_victims,
            l2.policy_touches, sf.policy_touches,
        )
        l2_stamp0 = l2._lru._stamp
        sf_stamp0 = sf._lru._stamp
        l2_state_pre = geom.g_l2(l2._state)
        sf_state_pre = geom.g_sf(sf._state) if write else ()
        ret = super()._monitor_round(rows, count, write)
        d_acc = stats.accesses - s0[0]
        d_h1 = stats.l1_hits - s0[1]
        d_h2 = stats.l2_hits - s0[2]
        # Purity detector: every fallback path in the fused round bumps at
        # least one of these counters (misses, transfers, back-invals...),
        # so "count accesses, all of them L1/L2 hits, nothing else moved"
        # proves the round stayed on the inline hit walk.
        if (
            d_acc != count
            or d_h1 + d_h2 != count
            or stats.llc_hits != s0[3]
            or stats.sf_transfers != s0[4]
            or stats.dram_fetches != s0[5]
            or stats.flushes != s0[6]
            or stats.noise_insertions != s0[7]
            or stats.sf_back_invalidations != s0[8]
        ):
            return ret
        pre_t = pre[0]
        post_t = geom.g_l1(l1._tags)
        wdel = []
        wadd = {}
        filled = set()
        n1 = l1.n_sets
        slots = geom.l1_slots
        psets = geom.l1_pos_sets
        for i in range(len(slots)):
            a = pre_t[i]
            b = post_t[i]
            if a != b:
                # A changed tag is a fill (the line was absent).
                filled.add(psets[i])
                if a is not None:
                    wdel.append(a * n1 + psets[i])
                if b is not None:
                    wadd[b * n1 + psets[i]] = slots[i]
        l1_rows = tuple(
            (s, a, b, l1._tags[a:b], l1._owners[a:b], c, e, l1._state[c:e],
             l1._occ[s])
            for s, (a, b), (c, e) in zip(
                geom.l1_sets, geom.l1_tag_ranges, geom.l1_state_ranges)
        )
        l2w = _stamp_order(
            geom.l2_slots, l2_state_pre, geom.g_l2(l2._state),
            l2._lru._stamp - l2_stamp0,
        )
        if l2w is None:
            return ret
        if write:
            sfw = _stamp_order(
                geom.sf_slots, sf_state_pre, geom.g_sf(sf._state),
                sf._lru._stamp - sf_stamp0,
            )
            if sfw is None:
                return ret
        else:
            sfw = ()
            if sf._lru._stamp != sf_stamp0:
                return ret
        # Base elapsed of a pure hit round, re-derived from the fused
        # loop's arithmetic (the preemption penalty is drawn live at
        # replay, so only the deterministic part is recorded).
        lat = m.cfg.latency
        worst = 0
        if d_h1:
            worst = lat.l1_hit
        if d_h2 and lat.l2_hit > worst:
            worst = lat.l2_hit
        elapsed_base = worst + count * lat.hit_issue_gap
        d = (
            d_acc, d_h1, d_h2,
            l1.policy_touches - p0[0],
            l1.policy_fills - p0[1],
            l1.policy_victims - p0[2],
            l2.policy_touches - p0[3],
            sf.policy_touches - p0[4],
        )
        entries = geom.entries
        if len(entries) >= self._ENTRY_CAP:
            entries.clear()
        entries[pre] = (
            l1_rows, tuple(wdel), wadd, tuple(sorted(filled)), l2w, sfw, d,
            elapsed_base,
        )
        return ret

    def _replay(self, m, hier, l1, l2, sf, count: int, rec) -> int:
        """Apply a recorded pure round: O(touched slots), no per-line work."""
        m.batch_calls += 1
        m.batch_lines += count
        l1_rows, wdel, wadd, filled, l2w, sfw, d, elapsed = rec
        tags = l1._tags
        owners = l1._owners
        state = l1._state
        occ = l1._occ
        for s, a, b, tseg, oseg, c, e, sseg, n in l1_rows:
            tags[a:b] = tseg
            owners[a:b] = oseg
            state[c:e] = sseg
            occ[s] = n
        where = l1._where
        for k in wdel:
            del where[k]
        where.update(wadd)
        touched = l1._touched
        for s in filled:
            if not touched[s]:
                touched[s] = 1
                l1._touched_count += 1
        for cache, order in ((l2, l2w), (sf, sfw)):
            if order:
                lru = cache._lru
                stamp = lru._stamp
                st = cache._state
                for s in order:
                    stamp += 1
                    st[s] = stamp
                lru._stamp = stamp
        stats = hier.stats
        stats.accesses += d[0]
        stats.l1_hits += d[1]
        stats.l2_hits += d[2]
        l1.policy_touches += d[3]
        l1.policy_fills += d[4]
        l1.policy_victims += d[5]
        l2.policy_touches += d[6]
        sf.policy_touches += d[7]
        elapsed += m._preemption_penalty(elapsed)
        events = m._events
        if events and events[0][0] <= m.now + elapsed:
            m.advance(elapsed)
        else:
            m.now += elapsed
        return elapsed
