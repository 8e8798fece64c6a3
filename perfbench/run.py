#!/usr/bin/env python3
"""Same-host attack ledger: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload attack --seed 7 --seconds 36 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  ``--trace 1`` runs the same measured phase untraced and then
traced, checks that both give the same outcome digest, and reports the
per-layer metrics (spans around the benchmark's calls into each layer)
plus the tracing overhead.  Each workload carries its own paired
controls: ``attack`` runs every pair under the serial and the counter RNG
contract, ``construct`` runs undefended constructions around its defended
trials.

The end-to-end host times are in reference seconds, compensated for the
host's speed as it drifts during the run (see ``hostclock``); the
per-layer ones are host seconds.

Human-readable lines come first; the last line of standard output is the
JSON result.  The exit code is 1 when a correctness check fails and 2
when the simulator cannot be imported.  Numbers are stamped with the host
they were measured on and are never meant to be compared across hosts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from statistics import median

import tracer
from hostclock import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "time_s": "s",
    "setup_s": "s",
    "time_s_per_sim_ms": "s/sim_ms",
    "ns_per_access": "ns",
    "peak_rss_mb": "MB",
    "sim_attack_s": "sim_s",
    "sim_evset_ms": "sim_ms",
    "evset_valid_rate": "ratio",
}

MEM_COUNTERS = tuple(c for c in tracer.COUNTERS if c != "accesses")
#: Stages that drive a machine, in pipeline order.
MACHINE_STAGES = ("evset", "scan", "collect", "monitor")
DEFENSES = ("way-partition", "ceaser")


def _per_layer_units():
    units = {
        "setup.machine_s": "s",
        "setup.calibrate_s": "s",
        "setup.train_evset.share": "%",
        "setup.label_collect.share": "%",
        "setup.classifier_fit.share": "%",
        "evset.wall_s": "s",
        "evset.share": "%",
        "evset.sim_ms": "sim_ms",
        "evset.accesses": "count",
        "evset.ns_per_access": "ns",
        "evset.filter_sim_ms": "sim_ms",
        "evset.attempted": "count",
        "evset.failures": "count",
        "evset.valid": "count",
        "evset.useful_ratio": "ratio",
        "scan.share": "%",
        "scan.sim_ms": "sim_ms",
        "scan.sets_scanned": "count",
        "scan.sweeps": "count",
        "scan.accesses": "count",
        "scan.accesses_per_s": "1/s",
        "scan.sets_per_s": "1/s",
        "collect.share": "%",
        "collect.sim_ms": "sim_ms",
        "collect.accesses": "count",
        "collect.accesses_per_s": "1/s",
        "collect.traces": "count",
        "extract.share": "%",
        "extract.bits": "count",
        "monitor.share": "%",
        "monitor.sim_ms": "sim_ms",
        "monitor.accesses": "count",
        "monitor.accesses_per_s": "1/s",
        "attack.target_found_rate": "ratio",
        "attack.recovered_frac_median": "ratio",
        "attack.bit_error_rate": "ratio",
        "exec.dispatch_overhead_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_pct": "%",
        "host.wall_s": "s",
        "host.slowdown": "x",
    }
    for counter in MEM_COUNTERS:
        units[f"mem.{counter}"] = "count"
    for stage in MACHINE_STAGES:
        for counter in MEM_COUNTERS:
            units[f"mem.{stage}.{counter}"] = "count"
    for name in DEFENSES + ("base",):
        units[f"defense.{name}.accesses_per_s"] = "1/s"
    for name in DEFENSES:
        units[f"defense.{name}.cost_x"] = "x"
    for stage in ("evset", "scan", "collect", "total"):
        units[f"counter.{stage}.cost_x"] = "x"
    return units


PER_LAYER = _per_layer_units()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("attack", "construct"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="target host seconds of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the 'tiny' machine preset, for the benchmark's tests")
    return p.parse_args(argv)


def import_simulator():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ImportError(f"no simulator sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    import workloads

    return workloads


def host_facts():
    import numpy

    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        git_rev = "none"
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src_hash.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    src_hash.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev,
        "src_sha256": src_hash.hexdigest()[:16],
        "host": platform.node(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- Metrics -------------------------------------------------------------------


def end_to_end(measured, setup):
    """The end-to-end metrics; host times are in reference seconds."""
    outs = measured.outcomes
    sim_ms = sum(o.sim_ms for o in outs)
    accesses = sum(o.accesses for o in outs)
    bulks = [b for o in outs for b in o.bulks]
    values = {
        "time_s": measured.ref_s,
        "setup_s": median(setup.ref_s),
        "time_s_per_sim_ms": measured.ref_s / sim_ms if sim_ms else 0.0,
        "ns_per_access": measured.ref_s / accesses * 1e9 if accesses else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "sim_attack_s": sum(o.attack_sim_ms for o in outs) / 1e3,
        "sim_evset_ms": (sum(b.sim_ms for b in bulks) / len(bulks)) if bulks else 0.0,
        "evset_valid_rate": (
            sum(b.reported_valid for b in bulks) / sum(b.expected for b in bulks)
            if bulks else 0.0
        ),
    }
    return values


def _spans_under(rec, ancestor: str, name: str):
    """Totals of spans called ``name`` nested anywhere under ``ancestor``."""
    totals = tracer.StageTotals(name)
    for span in rec.spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and parent.name != ancestor:
            parent = parent.parent
        if parent is not None:
            totals.add(span)
    return totals


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(workload, untraced, traced, setup, grid, clock):
    stages = traced.tracer.by_name()

    def stage(name):
        return stages.get(name) or tracer.StageTotals(name)

    wall = traced.wall_s
    outs = traced.outcomes
    bulks = [b for o in outs for b in o.bulks]
    reps = len(setup.wall_s)
    setup_total = sum(setup.wall_s)
    v = {
        "setup.machine_s": setup.stages.get("env.machine", 0.0) / reps,
        "setup.calibrate_s": setup.stages.get("env.calibrate", 0.0) / reps,
    }
    for sub in ("train_evset", "label_collect", "classifier_fit"):
        v[f"setup.{sub}.share"] = 100 * _ratio(
            setup.stages.get(f"setup.{sub}", 0.0), setup_total)
    for name in MACHINE_STAGES + ("extract",):
        v[f"{name}.share"] = 100 * _ratio(stage(name).wall_s, wall)
    for name in MACHINE_STAGES:
        st = stage(name)
        v[f"{name}.sim_ms"] = st.sim_ms
        v[f"{name}.accesses"] = st.accesses
        if name != "evset":
            v[f"{name}.accesses_per_s"] = st.accesses_per_s
    ev = stage("evset")
    valid = sum(b.reported_valid for b in bulks)
    attempted = sum(b.attempted for b in bulks)
    v.update({
        "evset.wall_s": ev.wall_s,
        "evset.ns_per_access": ev.ns_per_access,
        "evset.filter_sim_ms": sum(b.filter_sim_ms for b in bulks),
        "evset.attempted": attempted,
        "evset.failures": sum(b.failures for b in bulks),
        "evset.valid": valid,
        "evset.useful_ratio": _ratio(valid, attempted),
    })
    scans = [o.outcome["scan"] for o in outs if "scan" in o.outcome]
    sets_scanned = sum(s["sets"] for s in scans)
    v["scan.sets_scanned"] = sets_scanned
    v["scan.sweeps"] = sum(s["sweeps"] for s in scans)
    v["scan.sets_per_s"] = _ratio(sets_scanned, stage("scan").wall_s)
    v["collect.traces"] = sum(len(o.outcome.get("traces", [])) for o in outs)
    v["extract.bits"] = sum(len(b) for o in outs for b in o.outcome.get("bits", []))
    pairs = [o for o in outs if o.found is not None]
    scores = [s for o in pairs for s in o.scores]
    recovered = sum(s[1] for s in scores)
    v["attack.target_found_rate"] = _ratio(sum(o.found for o in pairs), len(pairs))
    v["attack.recovered_frac_median"] = (
        median([_ratio(s[1], s[0]) for s in scores]) if scores else 0.0
    )
    v["attack.bit_error_rate"] = _ratio(sum(s[2] for s in scores), recovered)
    v["exec.dispatch_overhead_s"] = untraced.dispatch_overhead_s
    v["trace.overhead_s"] = traced.ref_s - untraced.ref_s
    v["trace.overhead_pct"] = 100 * _ratio(v["trace.overhead_s"], untraced.ref_s)
    v["host.wall_s"] = untraced.wall_s
    v["host.slowdown"] = clock.slowdown
    for counter in MEM_COUNTERS:
        v[f"mem.{counter}"] = sum(stage(s).counters[counter] for s in MACHINE_STAGES)
        for s in MACHINE_STAGES:
            v[f"mem.{s}.{counter}"] = stage(s).counters[counter]

    # Paired controls, from units of the same run.
    for name in DEFENSES + ("base",):
        v[f"defense.{name}.accesses_per_s"] = 0.0
    for name in DEFENSES:
        v[f"defense.{name}.cost_x"] = 0.0
    for s in ("evset", "scan", "collect", "total"):
        v[f"counter.{s}.cost_x"] = 0.0
    if workload == "construct":
        base = _spans_under(traced.tracer, "defense.none", "evset")
        v["defense.base.accesses_per_s"] = base.accesses_per_s
        for name in DEFENSES:
            st = _spans_under(traced.tracer, f"defense.{name}", "evset")
            v[f"defense.{name}.accesses_per_s"] = st.accesses_per_s
            v[f"defense.{name}.cost_x"] = _ratio(st.ns_per_access, base.ns_per_access)
    elif workload == "attack":
        for s in ("evset", "scan", "collect"):
            counter = _spans_under(traced.tracer, "rng.counter", s)
            serial = _spans_under(traced.tracer, "rng.serial", s)
            v[f"counter.{s}.cost_x"] = _ratio(counter.ns_per_access,
                                              serial.ns_per_access)
        # Whole pairs, untraced: host seconds per simulated access.
        per_mode = {}
        for rec in untraced.records:
            if rec.ok:
                mode = grid[rec.index][0].rng_mode
                wall, accesses = per_mode.get(mode, (0.0, 0))
                per_mode[mode] = (wall + rec.elapsed_s, accesses + rec.value.accesses)
        if len(per_mode) == 2:
            v["counter.total.cost_x"] = _ratio(
                _ratio(*per_mode["counter"]), _ratio(*per_mode["serial"]))
    return v


def attribution_table(measured, setup) -> str:
    """Per-stage share of the traced run's host time, and self time."""
    wall = measured.wall_s
    lines = [
        f"attribution (traced run {wall:.3f} host s; set-up median "
        f"{median(setup.wall_s):.3f} host s over {len(setup.wall_s)} reps)",
        f"  {'stage':<22}{'calls':>6}{'wall s':>10}{'self s':>10}{'share':>8}"
        f"{'self':>8}{'sim ms':>10}{'accesses':>11}{'ns/acc':>9}",
    ]
    for st in measured.tracer.by_name().values():
        lines.append(
            f"  {st.name:<22}{st.calls:>6}{st.wall_s:>10.3f}{st.self_s:>10.3f}"
            f"{100 * _ratio(st.wall_s, wall):>7.1f}%"
            f"{100 * _ratio(st.self_s, wall):>7.1f}%{st.sim_ms:>10.3f}"
            f"{st.accesses:>11}{st.ns_per_access:>9.0f}"
        )
    dispatch = measured.dispatch_overhead_s
    lines.append(f"  {'exec dispatch':<22}{'':>6}{dispatch:>10.4f}{dispatch:>10.4f}"
                 f"{100 * _ratio(dispatch, wall):>7.1f}%")
    return "\n".join(lines)


# -- Main ------------------------------------------------------------------------


def check(measured, label: str, problems):
    """Add to ``problems`` what ``measured`` got wrong.

    A unit that raised is a problem too: every unit is deterministic and
    none is expected to fail, and a run with failed units would report
    its metrics over less work.
    """
    if measured.failed:
        problems.append(f"{label}: {measured.failed} of {len(measured.records)} "
                        "units failed")
    for out in measured.outcomes:
        problems.extend(f"{label}: {p}" for p in out.problems)
        for b in out.bulks:
            if not b.ok:
                problems.append(
                    f"{label}: {b.reported_valid} sets reported valid, "
                    f"{b.rechecked_valid} congruent on recheck, "
                    f"{b.mismatched} with other set indices than the slice hash gives")


def run(args, wl) -> int:
    scale = wl.SCALES[args.size]
    facts = host_facts()
    print("host: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    with HostClock() as clock:
        setup = wl.setup(args.workload, scale, args.seed, args.seconds, clock)
        plan = setup.plan
        untraced = wl.measure(plan.grid, args.workload, False, clock)
        traced = (wl.measure(plan.grid, args.workload, True, clock)
                  if args.trace else None)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size} units={len(plan.grid)} "
          f"host slowdown {clock.slowdown:.3f} over {len(clock.probes)} probes")
    problems = []
    if len(set(setup.digests)) != 1:
        problems.append(f"set-up is not deterministic: {setup.digests}")

    check(untraced, "untraced", problems)
    for rec in untraced.records:
        if not rec.ok:
            print(f"unit {rec.index} (seed {rec.seed}) failed: {rec.error}")
            continue
        out = rec.value
        line = (f"unit {rec.index}: {rec.elapsed_s:.3f} host s, {out.ref_s:.3f} "
                f"reference s, {out.sim_ms:.3f} sim ms, {out.accesses} accesses")
        if "scan" in out.outcome:
            scan = out.outcome["scan"]
            state = ("found" if out.found else
                     "misidentified" if scan["found"] else "not found")
            line += (f", target {state} after "
                     f"{scan['sets']} sets, {len(out.outcome.get('traces', []))} traces")
        print(line)
    digest = untraced.digest()
    print(f"outcome digest {digest}")
    print(f"measured phase {untraced.wall_s:.3f} host s, {untraced.ref_s:.3f} reference s")

    if traced is not None:
        check(traced, "traced", problems)
        if traced.digest() != digest:
            problems.append(
                f"traced digest {traced.digest()} != untraced {digest}")
        print(attribution_table(traced, setup))
        values = per_layer(args.workload, untraced, traced, setup, plan.grid, clock)
        units = PER_LAYER
    else:
        values = end_to_end(untraced, setup)
        units = END_TO_END

    for name, unit in units.items():
        print(f"  {name:<36}{values[name]:>16.6g} {unit}")
    for problem in problems:
        print(f"CORRECTNESS: {problem}")
    result = {
        "correct": not problems,
        "attempted": len(untraced.records),
        "failed": untraced.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # The workload is defined here alone: the simulator's environment
    # switches (REPRO_RNG, REPRO_BATCH, ...) would change what is measured.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    try:
        wl = import_simulator()
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    return run(args, wl)


if __name__ == "__main__":
    sys.exit(main())
