"""Experiment F14 — fault-tolerant execution: recovery without drift.

Runs the chaos-campaign grid on LHG(n=128, k=4) under a deterministic
crash injector that makes workers exit, hang or raise on a growing
fraction of attempts (0% / 10% / 20% / 40%), and measures two things:

* **Correctness**: every supervised run's resilience matrix — however
  many workers were killed, hung past their timeout or crashed mid-cell
  — must be *byte-identical* to the fault-free serial matrix, with no
  quarantined cells.  Asserted unconditionally.
* **Cost**: the supervision overhead at zero fault rate (supervised vs
  bare pool) and the recovery wall-time curve as the injection rate
  climbs, written to ``results/f14_faulttolerance.txt`` together
  with retry/timeout/worker-death counters and a checkpoint-resume
  probe (journal half the grid, resume, compare).

Speedup numbers are hardware-bound and not asserted; the recovery
*shape* (results identical, faults actually injected and survived) is
the experiment.
"""

from __future__ import annotations

import os

from repro.exec import (
    GRAPH_CACHE,
    CrashInjector,
    SupervisorConfig,
    TopologySpec,
    fork_available,
)
from repro.robustness import ChaosCampaign

N, K = 128, 4
SEEDS = (0, 1)
FAULT_RATES = (0.0, 0.1, 0.2, 0.4)
WORKERS = 4
TIMEOUT = 4.0
RETRIES = 12


def _campaign() -> ChaosCampaign:
    spec = TopologySpec(N, K)
    return ChaosCampaign([(spec.label, spec)], seeds=SEEDS)


def _supervisor(rate: float) -> SupervisorConfig:
    return SupervisorConfig(
        timeout=TIMEOUT,
        retries=RETRIES,
        backoff_base=0.01,
        fault_hook=CrashInjector(rate=rate, seed=14, hang_seconds=60.0)
        if rate
        else None,
    )


def test_f14_fault_tolerance(benchmark, report, tmp_path):
    GRAPH_CACHE.clear()

    baseline_campaign = _campaign()
    baseline = baseline_campaign.run()  # fault-free, unsupervised, serial
    assert baseline.all_green, baseline.violations
    rendered = baseline.render()
    cells = len(baseline.cells)

    bare_wall = baseline_campaign.last_report.wall_seconds

    curve = []
    for rate in FAULT_RATES:
        campaign = _campaign()
        matrix = campaign.run(workers=WORKERS, supervisor=_supervisor(rate))
        run_report = campaign.last_report
        # recovery must be invisible in the science
        assert matrix.cells == baseline.cells, f"drift at rate={rate}"
        assert matrix.render() == rendered, f"drift at rate={rate}"
        assert not matrix.failures, f"quarantine at rate={rate}"
        if rate and fork_available():
            faults_survived = (
                run_report.retries
                + run_report.timeouts
                + run_report.worker_deaths
            )
            assert faults_survived > 0, f"no faults fired at rate={rate}"
        curve.append(
            {
                "fault_rate": rate,
                "mode": run_report.mode,
                "wall_seconds": round(run_report.wall_seconds, 4),
                "overhead_vs_bare": round(
                    run_report.wall_seconds / bare_wall, 3
                )
                if bare_wall
                else None,
                "retries": run_report.retries,
                "timeouts": run_report.timeouts,
                "worker_deaths": run_report.worker_deaths,
            }
        )

    # checkpoint-resume probe: journal a full run, drop half the lines,
    # resume, and require the identical matrix with no recomputation drift
    journal = tmp_path / "f14.jsonl"
    _campaign().run(checkpoint=journal)
    lines = journal.read_text().splitlines(keepends=True)
    journal.write_text("".join(lines[: len(lines) // 2]))
    resumed = _campaign().run(checkpoint=journal, resume=True)
    assert resumed.render() == rendered
    resume_ok = journal.read_text().count("\n") == cells

    lines = [
        f"F14: fault-tolerant engine — LHG(n={N}, k={K}), {cells} cells, "
        f"{os.cpu_count()} core(s), timeout {TIMEOUT}s, {RETRIES} retries"
    ]
    for point in curve:
        lines.append(
            f"  rate={point['fault_rate']:.0%}: {point['wall_seconds']:.2f}s "
            f"({point['mode']}, {point['retries']} retries, "
            f"{point['timeouts']} timeouts, {point['worker_deaths']} deaths, "
            f"overhead {point['overhead_vs_bare']}x)"
        )
    lines.append(f"  checkpoint resume identical: {resume_ok}")
    report("f14_faulttolerance", "\n".join(lines))

    # time one supervised fault-free grid pass as the benchmark sample
    benchmark(
        lambda: _campaign().run(workers=1, supervisor=_supervisor(0.0))
    )
