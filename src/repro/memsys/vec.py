"""Construct-test memo replay — the counter-RNG tier over the lane plane.

:class:`VecKernels` extends :class:`~repro.memsys.lanes.LaneKernels` with a
memo of whole eviction tests (``test_eviction_kernel`` /
``test_many_kernel``).  It is legal only under the counter (event-keyed)
RNG contract: there every stochastic draw a test can make is a pure
function of state the test reads, so a test whose read closure matches
a recorded precondition replays exactly.  Under the serial contract a
draw depends on the *order* of every draw before it, so no two tests
are provably alike.

The monitor-round memo lives in :class:`~repro.memsys.lanes.LaneKernels`
and serves both contracts (it reconciles noise live before keying).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

from .hierarchy import _NOISE_TAG_BASE
from .lanes import LaneKernels

#: Kill switch for the construction-test memo (``test_eviction_kernel`` /
#: ``test_many_kernel`` record/replay), so benches can price it; also
#: disabled wholesale by ``REPRO_CMEMO=0``.
CMEMO_ENABLED = os.environ.get("REPRO_CMEMO", "1") != "0"


@contextmanager
def construct_memo_disabled():
    """Temporarily run every eviction test live (no construct memo)."""
    global CMEMO_ENABLED
    saved = CMEMO_ENABLED
    CMEMO_ENABLED = False
    try:
        yield
    finally:
        CMEMO_ENABLED = saved


class VecKernels(LaneKernels):
    """Lane kernels with counter-mode memo replay of eviction tests.

    Engages only when the machine runs the counter RNG contract and the
    touched structures have the shapes the replay understands (tree-PLRU8
    L1, LRU L2/SF/LLC — the default microarchitecture); anything else
    falls back to the inherited live test, bit for bit.
    """

    #: Bound on distinct construct-test shapes kept.  Sized to hold a
    #: whole construction's test sequence (a few thousand shapes) so a
    #: repeated run — the scenario the memo exists for — still finds
    #: every shape it marked the first time around.
    _CMEMO_CAP = 8192
    #: Bound on recorded pre-states per construct-test shape.
    _CM_ENTRY_CAP = 4
    #: Bound on the state-slice closure (rows across all structures); a
    #: test whose read/write closure is larger runs live, unmemoized.
    _CM_MAX_ROWS = 4096

    __slots__ = ("_cmemo", "_cm_ok")

    def __init__(self, machine, plane, main_core: int = 0,
                 helper_core: int = 1) -> None:
        super().__init__(machine, plane, main_core, helper_core)
        self._cmemo: Dict[tuple, Optional[dict]] = {}
        self._cm_ok: Optional[bool] = None

    def invalidate_plans(self) -> None:
        super().invalidate_plans()
        self._cmemo.clear()

    # -- Construction-test memo-replay ----------------------------------------
    #
    # ``test_eviction_kernel`` is the whole construction hot path: one
    # prime + flush + traversal + timed reload per group-testing or
    # binary-search iteration.  Under the counter contract every
    # stochastic draw the test can make is a pure function of state the
    # test reads — noise windows are keyed by (set, clock), reuse and
    # L2-victim draws by per-event counters, and the two serial streams
    # that stay live in every mode (preemption, timer jitter) are part
    # of the captured precondition.  A test whose *entire read closure*
    # matches a recorded precondition therefore replays exactly: same
    # verdict, same machine state after, same clock advance, same RNG
    # positions.  The memo key is (shape, pre-state slice) where shape =
    # (mode, target line, candidate tuple, count, repeats, threshold)
    # and the slice covers the transitive closure of rows the test can
    # touch (see _cm_closure).  Within one fresh construction keys
    # essentially never repeat (the machine state advances test to
    # test); the memo pays when work literally repeats — campaigns
    # restored from a trial-prefix checkpoint (repro.exec.prefix),
    # re-validation passes, and fleet shard replays.

    def _cm_shapes_ok(self) -> bool:
        """Construct memo gate: counter contract + stamp-policy planes.

        The row capture/restore is policy-agnostic over plain state
        planes, but keyed *victim* draws of random-replacement policies
        keep per-set counters inside the policy table; the default
        geometry (tree-PLRU8 L1, LRU L2/SF/LLC) has none.
        """
        hier = self.hierarchy
        if getattr(hier, "crng", None) is None or not self.engaged():
            return False
        noise = hier.noise_source
        if noise is not None and noise.crng is None:
            return False
        if not self._round_shapes_ok() or hier.llc._lru is None:
            return False
        for cache in (*hier.l1, *hier.l2, hier.sf, hier.llc):
            if getattr(cache._pol, "_ctr", None) is not None:
                return False
        return True

    def _cm_closure(self, plan, tline: int):
        """Transitive read/write closure of one test, as row index sets.

        Returns ``(S1, S2, SS)`` — L1, L2, and shared (SF/LLC) set
        indices — or None when the closure exceeds :data:`_CM_MAX_ROWS`.

        Closure rules (each a "this write can land there" edge):

        * the candidate rows and the target's rows are touched directly;
        * a shared-set row's *resident* real tags can be evicted (SF
          back-invalidation, LLC inclusion victim), which writes their
          private L1/L2 rows on every core;
        * a hot-core L2 row's resident tags can fall victim to a fill,
          and ``_handle_l2_victim`` then touches the victim line's
          shared set (SF disposition, write-back LLC install) — whose
          residents recurse through the first rule.

        Tags *installed during* the test are candidate lines, the
        target, or fresh noise tags — their rows are already in the
        closure (noise tags have no private copies and never
        back-invalidate), so the fixpoint over the initial state covers
        every intermediate state too.
        """
        hier = self.hierarchy
        l1_mask = hier._l1_mask
        l2_mask = hier._l2_mask
        sidx_memo = hier._sidx_memo
        sidx_of = hier.shared_set_index
        sf = hier.sf
        llc = hier.llc
        nb = _NOISE_TAG_BASE
        cores = hier.cfg.cores
        S1 = set(plan.l1_uniq)
        S2 = set(plan.l2_uniq)
        SS = set(plan.shared_uniq)
        S1.add(tline & l1_mask)
        S2.add(tline & l2_mask)
        ts = sidx_memo.get(tline)
        if ts is None:
            ts = sidx_of(tline)
        SS.add(ts)
        new_ss = list(SS)
        new_s2 = list(S2)
        sf_tags = sf._tags
        llc_tags = llc._tags
        sfw = sf.ways
        llcw = llc.ways
        hot_l2 = (hier.l2[self.main_core], hier.l2[self.helper_core])
        max_rows = self._CM_MAX_ROWS
        while new_ss or new_s2:
            if len(SS) * 2 + (len(S2) + len(S1)) * cores > max_rows:
                return None
            nxt_s2: List[int] = []
            for s in new_ss:
                for tags, w in ((sf_tags, sfw), (llc_tags, llcw)):
                    b = s * w
                    for t in tags[b:b + w]:
                        if t is not None and t < nb:
                            S1.add(t & l1_mask)
                            s2 = t & l2_mask
                            if s2 not in S2:
                                S2.add(s2)
                                nxt_s2.append(s2)
            nxt_ss: List[int] = []
            for s in new_s2:
                for c in hot_l2:
                    w = c.ways
                    b = s * w
                    for t in c._tags[b:b + w]:
                        if t is not None and t < nb:
                            ss = sidx_memo.get(t)
                            if ss is None:
                                ss = sidx_of(t)
                            if ss not in SS:
                                SS.add(ss)
                                nxt_ss.append(ss)
            new_ss = nxt_ss
            new_s2 = nxt_s2
        return S1, S2, SS

    def _cm_planes(self, s1, s2, ss):
        """The (cache, rows, is_shared) capture schedule for a closure."""
        hier = self.hierarchy
        return (
            tuple((c, s1, False) for c in hier.l1)
            + tuple((c, s2, False) for c in hier.l2)
            + ((hier.sf, ss, True), (hier.llc, ss, True))
        )

    @staticmethod
    def _cm_cap_rows(planes):
        """Row-state slice over the closure: one tuple per (cache, set).

        Each row entry is (tags, owners, policy-state, occupancy,
        noise clock, touched bit) — everything the data plane keeps per
        set.  All C-level slicing; tuples so the whole capture hashes as
        a memo key.
        """
        out = []
        for cache, rows_, shared in planes:
            w = cache.ways
            ps = cache._pstride
            tags = cache._tags
            owners = cache._owners
            state = cache._state
            occ = cache._occ
            nt = cache._noise_t
            tt = cache._touched
            for s in rows_:
                b = s * w
                sb = s * ps
                out.append((
                    tuple(tags[b:b + w]), tuple(owners[b:b + w]),
                    tuple(state[sb:sb + ps]), occ[s],
                    nt[s] if shared else 0, tt[s],
                ))
        return tuple(out)

    def _cm_scalars(self, ss_sorted, vcands):
        """Non-plane state the test can read: counters, stamps, RNGs.

        Stamps are captured (and replayed) absolute — exactness over
        hit rate: keys only ever repeat when the machine state literally
        repeats (checkpoint restore), where absolutes match anyway.
        """
        m = self.machine
        hier = self.hierarchy
        stamps = []
        for cache in (*hier.l1, *hier.l2, hier.sf, hier.llc):
            lru = cache._lru
            stamps.append(
                (lru._stamp, lru._inv_stamp) if lru is not None else None
            )
        rget = hier._sf_reuse_ctr.get
        vget = hier._l2v_ctr.get
        cores = hier.cfg.cores
        mc = self.main_core
        hc = self.helper_core
        return (
            m.now,
            tuple(stamps),
            tuple(rget(s, 0) for s in ss_sorted),
            tuple(
                (vget(v * cores + mc, 0), vget(v * cores + hc, 0))
                for v in vcands
            ),
            hier._noise_tag_next,
            m._preempt_rng.getstate(),
            m._jitter_rng.getstate(),
            hier._rng.getstate(),
            m.noise._rng.getstate(),
        )

    def _cm_vcands(self, plan, tline: int, s2):
        """Every line an L2-victim draw could be keyed by during the test:
        current hot-core L2 residents of closure rows, plus every line
        the test itself installs (candidates and the target)."""
        hier = self.hierarchy
        nb = _NOISE_TAG_BASE
        cands = set()
        for c in (hier.l2[self.main_core], hier.l2[self.helper_core]):
            w = c.ways
            tags = c._tags
            for s in s2:
                b = s * w
                for t in tags[b:b + w]:
                    if t is not None and t < nb:
                        cands.add(t)
        for step in plan.steps:
            cands.add(step[0])
        cands.add(tline)
        return sorted(cands)

    def test_eviction_kernel(self, mode: str, tline: int, rows, count: int,
                             repeats: int, threshold: int) -> bool:
        ok = self._cm_ok
        if ok is None:
            ok = self._cm_ok = self._cm_shapes_ok()
        m = self.machine
        if not ok or not CMEMO_ENABLED or not count or m._events:
            return super().test_eviction_kernel(
                mode, tline, rows, count, repeats, threshold)
        plan = self._plan(rows, count)
        if plan is None:
            return super().test_eviction_kernel(
                mode, tline, rows, count, repeats, threshold)
        shape = (mode, tline, rows.vas, count, repeats, threshold)
        cmemo = self._cmemo
        entries = cmemo.get(shape, _CM_UNSEEN)
        if entries is _CM_UNSEEN:
            # First sight of this shape: run live with zero capture cost.
            # A fresh construction's shapes are overwhelmingly unique
            # (the machine state advances test to test), so the memo
            # only starts paying attention once a shape repeats.
            if len(cmemo) >= self._CMEMO_CAP:
                cmemo.clear()
            cmemo[shape] = None
            return super().test_eviction_kernel(
                mode, tline, rows, count, repeats, threshold)
        closure = self._cm_closure(plan, tline)
        if closure is None:
            return super().test_eviction_kernel(
                mode, tline, rows, count, repeats, threshold)
        s1, s2, ss = closure
        s1 = sorted(s1)
        s2 = sorted(s2)
        ss = sorted(ss)
        planes = self._cm_planes(s1, s2, ss)
        vcands = self._cm_vcands(plan, tline, s2)
        pre = (self._cm_cap_rows(planes), self._cm_scalars(ss, vcands))
        if entries is None:
            entries = {}
            cmemo[shape] = entries
        rec = entries.get(pre)
        if rec is not None:
            return self._cm_replay(planes, rec)
        return self._cm_record(
            mode, tline, rows, count, repeats, threshold,
            planes, ss, vcands, pre, entries)

    def test_many_kernel(self, mode: str, tlines: Sequence[int], rows,
                         count: int, repeats: int,
                         threshold: int) -> List[bool]:
        return [
            self.test_eviction_kernel(
                mode, tline, rows, count, repeats, threshold)
            for tline in tlines
        ]

    def _cm_record(self, mode, tline, rows, count, repeats, threshold,
                   planes, ss, vcands, pre, entries):
        """Run the test live and capture its exact closure delta."""
        m = self.machine
        hier = self.hierarchy
        stats = hier.stats
        now0 = m.now
        stat_names = type(stats).__slots__
        stats0 = tuple(getattr(stats, n) for n in stat_names)
        pol0 = tuple(
            (c.policy_touches, c.policy_fills, c.policy_victims)
            for c, _, _ in planes
        )
        noise0 = m.noise.events
        bc0 = m.batch_calls
        bl0 = m.batch_lines
        verdict = super().test_eviction_kernel(
            mode, tline, rows, count, repeats, threshold)
        if m._events:
            # The test scheduled machine events; a closures-only replay
            # cannot reproduce the heap.  Keep the live result, record
            # nothing.
            return verdict
        post_rows = self._cm_cap_rows(planes)
        # Sparse row delta: the closure is deliberately conservative, so
        # most closure rows are never actually written by the test.
        # Storing (and replaying) only the rows whose captured state
        # moved makes replay cost proportional to what the test *did*,
        # not to what it *could have* touched.  A row whose capture is
        # unchanged needs no write at all: the replay precondition is
        # that every closure row currently equals its recorded pre.
        pre_rows = pre[0]
        row_delta = []
        rows_it = iter(zip(pre_rows, post_rows))
        for pi, (_cache, rows_, _shared) in enumerate(planes):
            for s in rows_:
                prow, qrow = next(rows_it)
                if prow != qrow:
                    row_delta.append((pi, s, qrow))
        # Sparse counter deltas: only keys whose value moved, so a
        # replay never materializes explicit zero entries the live run
        # would not have.
        rget = hier._sf_reuse_ctr.get
        vget = hier._l2v_ctr.get
        cores = hier.cfg.cores
        mc = self.main_core
        hc = self.helper_core
        pre_scal = pre[1]
        rdelta = tuple(
            (s, v) for s, p, v in zip(
                ss, pre_scal[2], (rget(s, 0) for s in ss))
            if v != p
        )
        vdelta = []
        for v, (pm, ph) in zip(vcands, pre_scal[3]):
            nm = vget(v * cores + mc, 0)
            nh = vget(v * cores + hc, 0)
            if nm != pm:
                vdelta.append((v * cores + mc, nm))
            if nh != ph:
                vdelta.append((v * cores + hc, nh))
        pre_stamps = pre_scal[1]
        stamp_delta = []
        for pi, (cache, _, _) in enumerate(planes):
            lru = cache._lru
            if lru is not None:
                st = (lru._stamp, lru._inv_stamp)
                if st != pre_stamps[pi]:
                    stamp_delta.append((pi, st))
        rec = (
            tuple(row_delta),
            tuple(stamp_delta),
            rdelta,
            tuple(vdelta),
            hier._noise_tag_next,
            m._preempt_rng.getstate(),
            m._jitter_rng.getstate(),
            hier._rng.getstate(),
            m.noise._rng.getstate(),
            tuple(
                getattr(stats, n) - v for n, v in zip(stat_names, stats0)
            ),
            tuple(
                (pi, c.policy_touches - a, c.policy_fills - b,
                 c.policy_victims - d)
                for pi, ((c, _, _), (a, b, d)) in enumerate(zip(planes, pol0))
                if (c.policy_touches, c.policy_fills, c.policy_victims)
                != (a, b, d)
            ),
            m.noise.events - noise0,
            m.batch_calls - bc0,
            m.batch_lines - bl0,
            m.now - now0,
            verdict,
        )
        if len(entries) >= self._CM_ENTRY_CAP:
            entries.clear()
        entries[pre] = rec
        return verdict

    def _cm_replay(self, planes, rec) -> bool:
        """Apply a recorded test delta: O(changed rows), no simulation."""
        m = self.machine
        hier = self.hierarchy
        for pi, s, (ptags, powners, pstate, pocc, pnt, ptt) in rec[0]:
            cache, _, shared = planes[pi]
            w = cache.ways
            ps = cache._pstride
            n_sets = cache.n_sets
            tags = cache._tags
            where = cache._where
            b = s * w
            sb = s * ps
            for t in tags[b:b + w]:
                if t is not None:
                    del where[t * n_sets + s]
            for i, t in enumerate(ptags):
                if t is not None:
                    where[t * n_sets + s] = b + i
            tags[b:b + w] = ptags
            cache._owners[b:b + w] = powners
            cache._state[sb:sb + ps] = pstate
            cache._occ[s] = pocc
            if shared:
                cache._noise_t[s] = pnt
            tt = cache._touched
            if ptt and not tt[s]:
                tt[s] = 1
                cache._touched_count += 1
        for pi, st in rec[1]:
            lru = planes[pi][0]._lru
            lru._stamp, lru._inv_stamp = st
        if rec[2]:
            ctr = hier._sf_reuse_ctr
            for k, v in rec[2]:
                ctr[k] = v
        if rec[3]:
            ctr = hier._l2v_ctr
            for k, v in rec[3]:
                ctr[k] = v
        hier._noise_tag_next = rec[4]
        m._preempt_rng.setstate(rec[5])
        m._jitter_rng.setstate(rec[6])
        hier._rng.setstate(rec[7])
        m.noise._rng.setstate(rec[8])
        stats = hier.stats
        for n, d in zip(type(stats).__slots__, rec[9]):
            if d:
                setattr(stats, n, getattr(stats, n) + d)
        for pi, dt, df, dv in rec[10]:
            cache = planes[pi][0]
            cache.policy_touches += dt
            cache.policy_fills += df
            cache.policy_victims += dv
        m.noise.events += rec[11]
        m.batch_calls += rec[12]
        m.batch_lines += rec[13]
        m.advance(rec[14])
        return rec[15]


#: Sentinel distinguishing "shape never seen" from "seen once, no
#: recordings yet" (None) in ``VecKernels._cmemo``.
_CM_UNSEEN = object()
