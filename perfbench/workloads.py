"""The benchmark's workloads: set-up, the measured phase, and the outcome.

Every workload dispatches its units (one simulated machine each) through
``repro.exec.run_campaign`` in this process with ``jobs=1``, so the
engine's per-trial bookkeeping and its dispatch overhead are part of what
is measured.  Unit seeds come from ``repro.exec.spec.seed_stream(seed, n,
tag=workload)``: one benchmark seed fixes every input.

``attack``
    The §7.3 pipeline on ``cloud-raw``: PageOffset bulk construction,
    PSD scan, signing-trace collection, nonce-bit extraction.  The
    classifier is trained during set-up on a separate training host (the
    paper's offline phase).  The attacker gets a fixed *simulated*
    monitoring budget per pair: it scans until it identifies the target or
    the budget runs out, then spends what is left collecting signings.
    That pins the simulated work of a pair, so host time is comparable
    across seeds even though the scan's length is geometric.  Each pair
    runs twice in a row with the same classifier: under the serial RNG
    contract and under the counter contract (``memsys.vec``,
    ``CounterRng``), so each contract is priced against the other on the
    same seeds and in the same stretch of host time.
``construct``
    Step 1 (BinS with L2 filtering) on the exposure-matched ``cloud`` env,
    undefended, plus ``repro.defenses.matrix.defense_trial`` under way
    partitioning (construct + monitor stages) and under CEASER (construct
    stage, bounded in simulated time, on one fixed input).  Every
    accelerated tier falls back to the scalar path in the defended trials,
    and nowhere else.  The undefended constructions run no monitor,
    ``dsp`` or ``ml``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.config import MACHINE_PRESETS, NOISE_PRESETS, exposure_matched
from repro.core.context import AttackerContext
from repro.core.evset import EvsetConfig, bulk_construct_page_offset
from repro.core.extraction import HeuristicBoundaryClassifier, extract_bits
from repro.core.monitor import ParallelProbing, monitor_set
from repro.core.pipeline import AttackConfig, score_against_truth, segment_trace
from repro.core.scanner import (
    Scanner,
    ScannerConfig,
    TargetSetClassifier,
    collect_labeled_traces,
)
from repro.defenses import matrix as defense_matrix
from repro.defenses.registry import apply_defense, default_defense_spec
from repro.envs import ENVIRONMENTS, EnvSpec
from repro.exec.campaigns import PAGE_OFFSET, grid_campaign
from repro.exec.executor import ExecPolicy, run_campaign
from repro.exec.spec import seed_stream
from repro.memsys.machine import Machine
from repro.victim import EcdsaVictim, VictimConfig

import tracer
from hostclock import HostClock

WORKLOADS = ("attack", "construct")


@dataclasses.dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale (``full`` for runs, ``tiny`` for tests)."""

    attack_env: Any
    construct_env: Any
    #: Simulated scan + collect budget of one attack pair.
    monitor_budget_ms: float
    #: Decoy sets and oversampled target windows for the offline classifier.
    train_decoys: int
    train_positive_reps: int
    #: CEASER defeats construction; these bound its trial in simulated time.
    ceaser_bulk_budget_ms: float
    ceaser_budget_ms: float
    #: Nominal host seconds on a 2-core host of one attack pair, of one
    #: undefended construction, and of the defended trials every
    #: ``construct`` run makes.  They turn ``--seconds`` into a unit count.
    pair_s: float
    construction_s: float
    defended_s: float
    #: Set-up repetitions; ``setup_s`` is their median.
    setup_reps: Dict[str, int]


#: The tests' scale: the same geometry, quiescent noise, small budgets.
_TINY_ENV = EnvSpec(machine="skylake-small-local", noise="local")

SCALES = {
    "full": Scale(
        attack_env="cloud-raw",
        construct_env="cloud",
        monitor_budget_ms=30.0,
        train_decoys=7,
        train_positive_reps=7,
        ceaser_bulk_budget_ms=2.0,
        ceaser_budget_ms=1.0,
        pair_s=11.0,
        construction_s=3.2,
        defended_s=16.0,
        setup_reps={"attack": 2, "construct": 30},
    ),
    "tiny": Scale(
        attack_env=_TINY_ENV,
        construct_env=_TINY_ENV,
        monitor_budget_ms=2.0,
        train_decoys=2,
        train_positive_reps=2,
        ceaser_bulk_budget_ms=0.5,
        ceaser_budget_ms=0.25,
        pair_s=1.0,
        construction_s=1.0,
        defended_s=1.0,
        setup_reps={w: 2 for w in WORKLOADS},
    ),
}


# -- Environments --------------------------------------------------------------


def build_env(env, seed: int, rng_mode: str = "serial", defense: str = "none"):
    """Machine + calibrated context, as ``repro.envs.make_env`` (or
    ``defenses.matrix.defended_env``) builds them, with machine build and
    calibration in separate spans."""
    if isinstance(env, EnvSpec):
        cfg = MACHINE_PRESETS[env.machine]()
        noise = NOISE_PRESETS[env.noise]
        matched = env.exposure_matched
        ctx_seed = seed + 1
    else:
        cfg_factory, noise_factory, matched = ENVIRONMENTS[env]
        cfg, noise = cfg_factory(), noise_factory()
        ctx_seed = seed * 7 + 1
    if matched:
        noise = exposure_matched(noise, cfg)
    cfg = dataclasses.replace(cfg, rng_mode=rng_mode)
    tr = tracer.current()
    with tr.span("env.machine"):
        machine = Machine(cfg, noise=noise, seed=seed)
        if defense != "none":
            apply_defense(machine, default_defense_spec(cfg, defense))
    with tr.span("env.calibrate", machine):
        ctx = AttackerContext(machine, seed=ctx_seed)
        ctx.calibrate()
    return machine, ctx


def start_victim(machine, seed: int) -> EcdsaVictim:
    with tracer.current().span("env.victim", machine):
        return EcdsaVictim(
            machine, core=min(2, machine.cfg.cores - 1), cfg=VictimConfig(),
            seed=seed + 100,
        )


# -- Outcomes and their checks ----------------------------------------------------


def true_set(machine, line: int) -> int:
    """Shared (LLC/SF) set of a physical line, from the slice hash itself.

    The simulator's ``shared_set_index`` answers from memos that its fast
    paths also fill; this recomputes the index from the configured hash
    and geometry, so a memo or index bug shows as a disagreement.
    """
    sets = machine.cfg.llc.sets
    return machine.hierarchy.slice_hash.slice_of(line) * sets + (line & (sets - 1))


@dataclasses.dataclass
class BulkCheck:
    """One bulk construction, its reported validity and the recount."""

    reported_valid: int
    rechecked_valid: int
    #: Eviction sets whose per-address set indices the simulator reports
    #: differently from the recount.
    mismatched: int
    expected: int
    sim_ms: float
    filter_sim_ms: float
    attempted: int
    failures: int
    summary: Dict[str, Any]

    @property
    def ok(self) -> bool:
        return not self.mismatched and self.reported_valid == self.rechecked_valid


def check_bulk(bulk, ctx) -> BulkCheck:
    """Recheck every eviction set against true congruence.

    ``BulkResult.coverage`` calls a set valid when every address maps to
    one shared set, as ``ctx.true_set_of`` reports it.  The recount
    translates each VA afresh through the page table and indexes it with
    :func:`true_set`; every set must get the same per-address indices both
    ways, and the valid counts must agree.
    """
    machine = ctx.machine
    rechecked = mismatched = 0
    for e in bulk.evsets:
        truth = [true_set(machine, ctx.aspace.translate_line(va)) for va in e.vas]
        if [ctx.true_set_of(va) for va in e.vas] != truth:
            mismatched += 1
        if len(set(truth)) == 1:
            rechecked += 1
    ghz = machine.cfg.clock_ghz
    return BulkCheck(
        reported_valid=bulk.coverage(ctx)[0],
        rechecked_valid=rechecked,
        mismatched=mismatched,
        expected=machine.cfg.u_llc * len(bulk.page_offsets),
        sim_ms=bulk.elapsed_cycles / (ghz * 1e6),
        filter_sim_ms=bulk.filtering_cycles / (ghz * 1e6),
        attempted=bulk.n_targets_attempted,
        failures=bulk.n_failures,
        summary={
            "evsets": [[e.target_va, list(e.vas)] for e in bulk.evsets],
            "cycles": bulk.elapsed_cycles,
            "timed_out": bulk.timed_out,
        },
    )


@dataclasses.dataclass
class UnitOutcome:
    """What one unit (one simulated machine) produced."""

    sim_ms: float = 0.0
    attack_sim_ms: float = 0.0
    #: Reference seconds (see ``hostclock``) the unit took.
    ref_s: float = 0.0
    accesses: int = 0
    bulks: List[BulkCheck] = dataclasses.field(default_factory=list)
    outcome: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Attack pairs only: whether the scan identified the target set.
    found: Optional[bool] = None
    scores: List[Tuple[int, int, int]] = dataclasses.field(default_factory=list)
    #: Correctness problems the unit found in its own outputs.
    problems: List[str] = dataclasses.field(default_factory=list)

    def close(self, machine, ready_cycles: int) -> "UnitOutcome":
        ghz = machine.cfg.clock_ghz
        self.sim_ms = machine.now / (ghz * 1e6)
        self.attack_sim_ms = (machine.now - ready_cycles) / (ghz * 1e6)
        self.accesses = machine.hierarchy.stats.accesses
        self.outcome["clock"] = machine.now
        self.outcome["accesses"] = self.accesses
        self.outcome["bulks"] = [b.summary for b in self.bulks]
        return self


def digest(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- Trial functions (the units run_campaign dispatches) --------------------------


@dataclasses.dataclass(frozen=True)
class ConstructUnit:
    env: Any


def construct_trial(unit: ConstructUnit, seed: int) -> UnitOutcome:
    tr = tracer.current()
    with tr.span("trial"), tr.span("defense.none"):
        machine, ctx = build_env(unit.env, seed)
        ready = machine.now
        with tr.span("evset", machine):
            bulk = bulk_construct_page_offset(
                ctx, "bins", PAGE_OFFSET, EvsetConfig(budget_ms=100.0)
            )
    return UnitOutcome(bulks=[check_bulk(bulk, ctx)]).close(machine, ready)


@dataclasses.dataclass(frozen=True)
class AttackUnit:
    env: Any
    rng_mode: str
    classifier: TargetSetClassifier
    monitor_budget_ms: float


def attack_trial(unit: AttackUnit, seed: int) -> UnitOutcome:
    """One co-located pair: construct → scan → collect → extract."""
    tr = tracer.current()
    acfg = AttackConfig()
    out = UnitOutcome()
    with tr.span("trial"), tr.span(f"rng.{unit.rng_mode}"):
        machine, ctx = build_env(unit.env, seed, unit.rng_mode)
        victim = start_victim(machine, seed)
        victim.run_continuously(machine.now + 1000)
        ready = machine.now
        with tr.span("evset", machine):
            bulk = bulk_construct_page_offset(
                ctx, acfg.algorithm, victim.layout.target_page_offset, acfg.evset
            )
        out.bulks.append(check_bulk(bulk, ctx))
        scan_start = machine.now
        with tr.span("scan", machine):
            result = Scanner(ctx, unit.classifier, acfg.scanner).scan(
                bulk.evsets, timeout_s=unit.monitor_budget_ms / 1e3
            )
        # A positive verdict counts as found only on the target's true set;
        # a verdict on any other set is a wrong identification.
        out.found = result.found and (
            true_set(machine, ctx.aspace.translate_line(result.evset.target_va))
            == true_set(machine, victim.layout.monitored_line)
        )
        if result.found and not out.found:
            out.problems.append(
                f"seed {seed}: scan identified set of {result.evset.target_va:#x}, "
                "which is not the target set")
        out.outcome["scan"] = {
            "found": result.found,
            "target_va": result.evset.target_va if result.found else None,
            "sets": result.sets_scanned,
            "sweeps": result.sweeps,
            "cycles": result.elapsed_cycles,
        }
        if out.found:
            # The rest of the budget goes to collection: one monitoring
            # window over exactly the cycles left, cut into signings the
            # way collect_signing_traces cuts its session-sized windows.
            # (That function stops after n segments, which would leave the
            # pair's simulated work depending on how signings fall.)
            budget = int(unit.monitor_budget_ms * machine.cfg.clock_ghz * 1e6)
            left = max(1, budget - (machine.now - scan_start))
            with tr.span("collect", machine):
                window = monitor_set(ParallelProbing(ctx, result.evset), left)
                traces = [
                    seg for seg in segment_trace(
                        window, acfg.extraction.iter_cycles,
                        acfg.segment_gap_iters)
                    if seg.access_count() >= victim.curve.nonce_bits // 3
                ]
            with tr.span("extract"):
                boundary = HeuristicBoundaryClassifier(acfg.extraction)
                bits = [
                    [b.bit for b in extract_bits(
                        t, boundary.predict_boundaries(t), acfg.extraction)]
                    for t in traces
                ]
                scores = score_against_truth(
                    traces, victim.truths, boundary, acfg
                )
            out.scores = [(s.n_true_bits, s.n_recovered, s.n_errors) for s in scores]
            out.outcome["traces"] = [[t.start, t.end, len(t.timestamps)] for t in traces]
            out.outcome["bits"] = bits
            out.outcome["scores"] = out.scores
    return out.close(machine, ready)


@dataclasses.dataclass(frozen=True)
class DefendedUnit:
    env: Any
    defense: str
    stages: Tuple[str, ...]
    bulk_budget_ms: float = 500.0
    budget_ms: float = 100.0


_DEFENSE_STAGE_FNS = ("defended_env", "bulk_construct_page_offset",
                      "collect_labeled_traces")


@contextlib.contextmanager
def _observe_defense_trial(seen: Dict[str, Any]):
    """Span the stage calls ``defense_trial`` makes and keep their results.

    ``defense_trial`` builds its machine internally and returns only a
    summary, so the benchmark replaces the three module-level functions it
    calls with wrappers that time each stage against the machine it drives
    and recheck its eviction sets.  The replacement is process-wide and
    lasts one trial; ``seen["calls"]`` counts the calls each wrapper got.
    """
    tr = tracer.current()
    orig = {name: getattr(defense_matrix, name) for name in _DEFENSE_STAGE_FNS}
    calls = seen["calls"] = dict.fromkeys(orig, 0)

    def defended_env(env, seed, defense, defense_seed=0):
        calls["defended_env"] += 1
        with tr.span("env.defended"):
            machine, ctx = orig["defended_env"](env, seed, defense, defense_seed)
        seen["machine"], seen["ctx"], seen["ready"] = machine, ctx, machine.now
        return machine, ctx

    def bulk(ctx, *args, **kwargs):
        calls["bulk_construct_page_offset"] += 1
        with tr.span("evset", ctx.machine):
            result = orig["bulk_construct_page_offset"](ctx, *args, **kwargs)
        seen["bulks"].append(check_bulk(result, ctx))
        return result

    def labeled(ctx, *args, **kwargs):
        calls["collect_labeled_traces"] += 1
        with tr.span("monitor", ctx.machine):
            return orig["collect_labeled_traces"](ctx, *args, **kwargs)

    seen["bulks"] = []
    patched = {"defended_env": defended_env, "bulk_construct_page_offset": bulk,
               "collect_labeled_traces": labeled}
    for name, fn in patched.items():
        setattr(defense_matrix, name, fn)
    try:
        yield
    finally:
        for name, fn in orig.items():
            setattr(defense_matrix, name, fn)


def _defense_calls_problem(unit: "DefendedUnit", sample, calls) -> Optional[str]:
    """Whether ``defense_trial`` reached every wrapped function it should.

    It builds one machine, makes one construction when ``construct`` is a
    stage, and two labeled collections (training, held-out) when
    ``monitor`` is; a stage that records an error stops before the rest.
    """
    expected = {
        "defended_env": 1,
        "bulk_construct_page_offset": int("construct" in unit.stages),
        "collect_labeled_traces": 2 * int("monitor" in unit.stages),
    }
    wrong = [name for name, n in expected.items() if calls[name] > n or (
        calls[name] < n
        and (not sample.error or name != "collect_labeled_traces"))]
    if not wrong:
        return None
    return (f"{unit.defense}: defense_trial made stage calls {calls}, "
            f"expected {expected}")


def defended_trial(unit: DefendedUnit, seed: int) -> UnitOutcome:
    tr = tracer.current()
    cfg = defense_matrix.DefenseTrialConfig(
        env=unit.env, defense=unit.defense, stages=unit.stages,
        bulk_budget_ms=unit.bulk_budget_ms, budget_ms=unit.budget_ms,
    )
    seen: Dict[str, Any] = {}
    with tr.span("trial"), tr.span(f"defense.{unit.defense}"), \
            _observe_defense_trial(seen):
        sample = defense_matrix.defense_trial(cfg, seed)
    out = UnitOutcome(bulks=seen["bulks"])
    out.outcome["sample"] = dataclasses.asdict(sample)
    problem = _defense_calls_problem(unit, sample, seen["calls"])
    if problem:
        out.problems.append(f"seed {seed}: {problem}")
    if "machine" not in seen:
        return out
    return out.close(seen["machine"], seen["ready"])


# -- Workload plans -----------------------------------------------------------------


def train_classifier(scale: Scale, seed: int, rng_mode: str):
    """The offline phase: label windows on a controlled host, fit the SVM."""
    tr = tracer.current()
    machine, ctx = build_env(scale.attack_env, seed, rng_mode)
    victim = start_victim(machine, seed)
    with tr.span("setup.train_evset", machine):
        bulk = bulk_construct_page_offset(
            ctx, "bins", victim.layout.target_page_offset,
            EvsetConfig(budget_ms=100.0),
        )
    target_set = machine.hierarchy.shared_set_index(victim.layout.monitored_line)
    targets = [e for e in bulk.evsets if ctx.true_set_of(e.target_va) == target_set]
    if not targets:
        raise RuntimeError("training host: no eviction set covers the target set")
    decoys = [e for e in bulk.evsets if e not in targets][: scale.train_decoys]
    victim.run_continuously(machine.now + 1000)
    scfg = ScannerConfig()
    with tr.span("setup.label_collect", machine):
        traces, labels = collect_labeled_traces(
            ctx, targets[:1] + decoys, target_set, scfg, per_set=1,
            positive_reps=scale.train_positive_reps,
        )
    with tr.span("setup.classifier_fit"):
        clf = TargetSetClassifier(machine.clock_hz, scfg).fit(traces, labels)
    outcome = {"labels": labels, "verdicts": [clf.predict(t) for t in traces]}
    return clf, outcome


@dataclasses.dataclass
class Plan:
    """A workload's set-up product and the units of its measured phase."""

    grid: List[Tuple[Any, int]]
    setup_outcome: Dict[str, Any]


def run_unit(unit, seed: int) -> UnitOutcome:
    """The trial function ``run_campaign`` dispatches: one unit of any kind."""
    if isinstance(unit, AttackUnit):
        return attack_trial(unit, seed)
    if isinstance(unit, ConstructUnit):
        return construct_trial(unit, seed)
    return defended_trial(unit, seed)


def _setup_once(workload: str, scale: Scale, seed: int, seconds: float) -> Plan:
    setup_seed = seed_stream(seed, 1, tag=f"{workload}/setup")[0]
    if workload == "attack":
        # Pairs alternate serial, counter, serial, ... on the same seeds,
        # with one classifier trained under the serial contract: only the
        # contract of the attacked machines differs.
        n = max(2, round(seconds / scale.pair_s))
        clf, outcome = train_classifier(scale, setup_seed, "serial")
        grid = [
            (AttackUnit(scale.attack_env, mode, clf, scale.monitor_budget_ms), s)
            for s in seed_stream(seed, (n + 1) // 2, tag=workload)
            for mode in ("serial", "counter")
        ][:n]
        return Plan(grid, outcome)
    if workload == "construct":
        env = scale.construct_env
        clocks = {}
        for defense in ("none", "way-partition", "ceaser"):
            machine, _ = build_env(env, setup_seed, defense=defense)
            clocks[defense] = machine.now
        n = max(1, round((seconds - scale.defended_s) / scale.construction_s))
        undefended = [(ConstructUnit(env), s)
                      for s in seed_stream(seed, n, tag=workload)]
        defended_seed = seed_stream(seed, 1, tag=f"{workload}/defended")[0]
        wp = DefendedUnit(env, "way-partition", ("construct", "monitor"))
        # CEASER's keyed index costs ~100 us per access in Python, so one
        # trial bounded in simulated time is enough to price it.  It gets
        # the same input on every --seed: its candidate filtering runs to
        # completion before the deadline applies, so its work varies 2x
        # between seeds (93 k to 182 k accesses), which alone would spread
        # the run's time by ~10%.
        ceaser_seed = seed_stream(0, 1, tag=f"{workload}/ceaser")[0]
        ceaser = DefendedUnit(
            env, "ceaser", ("construct",),
            bulk_budget_ms=scale.ceaser_bulk_budget_ms,
            budget_ms=scale.ceaser_budget_ms,
        )
        # The way-partition trial sits among the undefended constructions
        # it is priced against.
        half = n // 2
        grid = (undefended[:half] + [(wp, defended_seed)] + undefended[half:]
                + [(ceaser, ceaser_seed)])
        return Plan(grid, clocks)
    raise ValueError(f"unknown workload {workload!r}")


@dataclasses.dataclass
class Setup:
    plan: Plan
    #: Host seconds and reference seconds (see ``hostclock``) of each rep.
    wall_s: List[float]
    ref_s: List[float]
    stages: Dict[str, float]
    digests: List[str]


def setup(workload: str, scale: Scale, seed: int, seconds: float,
          clock: HostClock) -> Setup:
    """Set up ``setup_reps`` times, each on fresh machines; keep the last plan.

    Every repetition must produce the same set-up outcome (the trained
    classifier's verdicts, the machines' clocks): set-up is deterministic.
    """
    walls, refs, digests = [], [], []
    stage_totals: Dict[str, float] = {}
    for _ in range(scale.setup_reps[workload]):
        rec = tracer.Tracer()
        t0, r0 = time.perf_counter(), clock.now()
        with tracer.active(rec):
            plan = _setup_once(workload, scale, seed, seconds)
        walls.append(time.perf_counter() - t0)
        refs.append(clock.now() - r0)
        digests.append(digest(plan.setup_outcome))
        for name, totals in rec.by_name().items():
            stage_totals[name] = stage_totals.get(name, 0.0) + totals.wall_s
    return Setup(plan, walls, refs, stage_totals, digests)


@dataclasses.dataclass
class Measured:
    """One execution of the measured phase."""

    wall_s: float
    #: The same span in reference seconds (see ``hostclock``).
    ref_s: float
    records: List[Any]
    tracer: Any

    @property
    def outcomes(self) -> List[UnitOutcome]:
        return [r.value for r in self.records if r.ok]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    @property
    def dispatch_overhead_s(self) -> float:
        return self.wall_s - sum(r.elapsed_s for r in self.records)

    def digest(self) -> str:
        return digest([
            r.value.outcome if r.ok else {"error": r.error} for r in self.records
        ])


def _timed_unit(clock: HostClock):
    """:func:`run_unit` after a full collection, timed in reference seconds.

    A unit's machine is a reference cycle, so without the collection peak
    RSS would depend on when the collector last ran.
    """

    def unit(config, seed):
        gc.collect()
        r0 = clock.now()
        out = run_unit(config, seed)
        out.ref_s = clock.now() - r0
        return out

    return unit


def measure(grid, name: str, traced: bool, clock: HostClock) -> Measured:
    rec = tracer.Tracer() if traced else tracer.NULL
    campaign = grid_campaign(_timed_unit(clock), grid, name=name)
    policy = ExecPolicy(jobs=1, batch=1)
    with tracer.active(rec):
        t0, r0 = time.perf_counter(), clock.now()
        result = run_campaign(campaign, policy)
        wall, ref = time.perf_counter() - t0, clock.now() - r0
    return Measured(wall, ref, list(result.records), rec)

