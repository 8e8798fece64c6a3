"""Tests of the benchmark itself (run with ``python -m pytest perfbench/tests``).

The workload runs use ``--size tiny``: the same pipeline on the quiescent
``skylake-small-local`` machine with small budgets, so each run takes
seconds rather than the full scale's ten.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: End-to-end metrics that count simulated work: identical for one seed.
SIMULATED = ("sim_attack_s", "sim_evset_ms", "evset_valid_rate")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    digest = [ln for ln in lines if ln.startswith("outcome digest ")]
    return json.loads(lines[-1]), digest


def test_metric_names_and_units_are_well_formed():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)
    assert not set(run.END_TO_END) & set(run.PER_LAYER)


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("env", ["cloud-raw", workloads.SCALES["tiny"].attack_env])
@pytest.mark.parametrize("mode", ["serial", "counter"])
def test_build_env_matches_make_env(env, mode):
    from repro.check.digest import machine_digest
    from repro.envs import make_env

    ours, _ = workloads.build_env(env, 5, mode)
    theirs, _ = make_env(env, 5, rng_mode=mode)
    assert machine_digest(ours) == machine_digest(theirs)


@pytest.mark.parametrize("defense", ["way-partition", "ceaser"])
def test_build_env_matches_defended_env(defense):
    from repro.check.digest import machine_digest
    from repro.defenses.matrix import defended_env

    ours, _ = workloads.build_env("cloud", 5, defense=defense)
    theirs, _ = defended_env("cloud", 5, defense)
    assert machine_digest(ours) == machine_digest(theirs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_runs_complete_and_repeat(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", "0", "--size", "tiny")
    first, first_digest = _result(_bench(*args))
    second, second_digest = _result(_bench(*args))
    for result in (first, second):
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert first_digest and first_digest == second_digest
    for name in SIMULATED:
        assert first["metrics"][name] == second["metrics"][name]


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "construct", "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--size", "tiny")
    result, _ = _result(proc)
    # "correct" covers the traced-vs-untraced digest comparison.
    assert result["correct"] is True
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.PER_LAYER
    assert "attribution" in proc.stdout


def test_fails_without_a_result_when_the_simulator_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "construct", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- The correctness checks fail the run -------------------------------------------


def _tiny_main(workload, capsys):
    """``run.main`` in this process on a tiny run; (exit code, JSON result)."""
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), "\n".join(lines)


def test_corrupted_set_index_fails_the_run(monkeypatch, capsys):
    real = workloads.bulk_construct_page_offset

    def corrupting(ctx, *args, **kwargs):
        # A stale memo entry: the simulator reports one address of the first
        # eviction set in the next set over, so its set looks invalid.
        bulk = real(ctx, *args, **kwargs)
        line = ctx.line(bulk.evsets[0].vas[0])
        hier = ctx.machine.hierarchy
        hier._sidx_memo[line] = hier.shared_set_index(line) + 1
        return bulk

    monkeypatch.setattr(workloads, "bulk_construct_page_offset", corrupting)
    code, result, out = _tiny_main("construct", capsys)
    assert code == 1 and result["correct"] is False
    assert "congruent on recheck" in out


def test_check_bulk_compares_every_set(monkeypatch):
    machine, ctx = workloads.build_env(workloads.SCALES["tiny"].construct_env, 3)
    bulk = workloads.bulk_construct_page_offset(
        ctx, "bins", 0, workloads.EvsetConfig(budget_ms=100.0))
    assert workloads.check_bulk(bulk, ctx).ok
    # Swap the reported indices of two valid sets: the valid count is
    # unchanged, but each set now reports another set than the hash gives.
    first, second = bulk.evsets[:2]
    hier = machine.hierarchy
    a, b = ctx.true_set_of(first.target_va), ctx.true_set_of(second.target_va)
    assert a != b
    for va in first.vas:
        hier._sidx_memo[ctx.line(va)] = b
    for va in second.vas:
        hier._sidx_memo[ctx.line(va)] = a
    check = workloads.check_bulk(bulk, ctx)
    assert check.reported_valid == check.rechecked_valid
    assert check.mismatched == 2 and not check.ok


def test_failed_unit_fails_the_run(monkeypatch, capsys):
    def raising(unit, seed):
        raise RuntimeError("unit broke")

    monkeypatch.setattr(workloads, "construct_trial", raising)
    code, result, out = _tiny_main("construct", capsys)
    assert code == 1 and result["correct"] is False
    # The defended trials still run; every undefended construction fails.
    assert 1 <= result["failed"] < result["attempted"]
    assert "units failed" in out


def test_misidentified_target_fails_the_run(monkeypatch, capsys):
    from repro.core.scanner import ScanResult

    victims = []
    real_victim = workloads.start_victim

    def capture(machine, seed):
        victims.append(real_victim(machine, seed))
        return victims[-1]

    class WrongScanner:
        """Reports the first eviction set off the target set as the target."""

        def __init__(self, ctx, classifier, cfg):
            self.ctx = ctx

        def scan(self, evsets, timeout_s):
            target = self.ctx.machine.hierarchy.shared_set_index(
                victims[-1].layout.monitored_line)
            wrong = next(e for e in evsets
                         if self.ctx.true_set_of(e.target_va) != target)
            return ScanResult(found=True, evset=wrong, trace=None,
                              elapsed_cycles=0, sets_scanned=1, sweeps=1)

    monkeypatch.setattr(workloads, "start_victim", capture)
    monkeypatch.setattr(workloads, "Scanner", WrongScanner)
    code, result, out = _tiny_main("attack", capsys)
    assert code == 1 and result["correct"] is False
    assert "which is not the target set" in out


def test_defense_trial_that_skips_a_stage_fails_the_run(monkeypatch, capsys):
    from repro.defenses import matrix

    def construct_skipped(cfg, seed):
        matrix.defended_env(cfg.env, seed, cfg.defense, cfg.defense_seed)
        return matrix.DefenseTrialSample(defense=cfg.defense)

    monkeypatch.setattr(matrix, "defense_trial", construct_skipped)
    code, result, out = _tiny_main("construct", capsys)
    assert code == 1 and result["correct"] is False
    assert "defense_trial made stage calls" in out


# -- The host-speed-compensated clock -----------------------------------------------


def _spin(n):
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def test_host_clock_counts_work_in_reference_seconds(monkeypatch):
    import signal

    import hostclock

    monkeypatch.setattr(hostclock, "INTERVAL_S", 0.02)
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        readings = [clock.now()]
        for n in (300_000, 600_000):
            t0 = clock.now()
            _spin(n)
            readings.append(clock.now() - t0)
    assert signal.getsignal(signal.SIGALRM) is before
    # Besides the probes on entry and exit, the timer ran some.
    assert readings[0] >= 0 and len(clock.probes) > 2
    # Twice the work reads about twice the reference seconds.
    assert 1.3 < readings[2] / readings[1] < 3.0
    assert clock.slowdown > 0


def test_host_clock_scales_by_probe_speed(monkeypatch):
    """An interval reads wall seconds times the reference over the probe time."""
    import hostclock

    # Each probe reads the clock before its untimed pass, then around
    # its timed pass.
    ticks = iter([0.0, 0.5, 1.5,   # first probe: 1 s, twice the reference
                  5.5, 6.0, 7.0,   # second, after 4 s of program time
                  7.5])            # now(): 0.5 s into the next interval
    monkeypatch.setattr(hostclock.time, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(hostclock, "REFERENCE_PROBE_S", 0.5)
    clock = hostclock.HostClock()
    clock._work = lambda: 0
    clock._probe()
    clock._probe()
    # 4 s at probe 1 s (median of 1 s and 1 s) -> 2 reference s; the open
    # interval adds 0.5 s at the same scale.
    assert clock.now() == pytest.approx(2.0 + 0.25)
