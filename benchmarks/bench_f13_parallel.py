"""Experiment F13 — the parallel execution engine: speedup without drift.

Runs the standard chaos-campaign grid (7 scenarios × 2 protocols × 4
seeds = 56 cells) on LHG(n=256, k=4) serially and with 2 / 4 / 8
workers, and measures two things:

* **Correctness**: every fanned-out run's resilience matrix must be
  *byte-identical* to the serial one (cells and rendered table) — the
  engine's core guarantee, asserted unconditionally.
* **Throughput**: the wall-clock speedup and parallel-efficiency
  curve, written to ``results/f13_parallel.txt`` with the host's core
  count and the construction-cache stats.  The ≥ 2×
  speedup-at-4-workers shape is asserted only on hardware with ≥ 4
  cores; on smaller machines the curve is still recorded (a process
  pool cannot beat the core count).
"""

from __future__ import annotations

import os

from repro.exec import GRAPH_CACHE, TopologySpec, fork_available
from repro.robustness import ChaosCampaign

N, K = 256, 4
SEEDS = (0, 1, 2, 3)
WORKER_COUNTS = (1, 2, 4, 8)


def _campaign() -> ChaosCampaign:
    spec = TopologySpec(N, K)
    return ChaosCampaign([(spec.label, spec)], seeds=SEEDS)


def test_f13_parallel_engine(benchmark, report):
    GRAPH_CACHE.clear()
    runs = {}
    for workers in WORKER_COUNTS:
        campaign = _campaign()
        matrix = campaign.run(workers=workers)
        runs[workers] = (matrix, campaign.last_report)

    serial_matrix, serial_report = runs[1]
    assert serial_matrix.all_green, serial_matrix.violations
    assert len(serial_matrix.cells) == 7 * 2 * len(SEEDS)

    # correctness: parallel fan-out is invisible in the results
    serial_rendered = serial_matrix.render()
    for workers, (matrix, _) in runs.items():
        assert matrix.cells == serial_matrix.cells, f"drift at workers={workers}"
        assert matrix.render() == serial_rendered, f"drift at workers={workers}"

    # the construction cache collapsed every rebuild into one hit stream:
    # 1 miss for the first resolve, hits for every later campaign
    assert GRAPH_CACHE.stats()["misses"] == 1
    assert GRAPH_CACHE.stats()["hits"] >= len(WORKER_COUNTS) - 1

    serial_wall = serial_report.wall_seconds
    curve = []
    for workers in WORKER_COUNTS:
        _, run_report = runs[workers]
        curve.append(
            {
                "workers": workers,
                "mode": run_report.mode,
                "wall_seconds": round(run_report.wall_seconds, 4),
                "speedup": round(serial_wall / run_report.wall_seconds, 3)
                if run_report.wall_seconds
                else None,
                "parallel_efficiency": round(
                    run_report.parallel_efficiency(), 3
                ),
            }
        )

    # throughput shape — only meaningful when the hardware can fan out
    if fork_available() and (os.cpu_count() or 1) >= 4:
        at_4 = next(c for c in curve if c["workers"] == 4)
        assert at_4["speedup"] >= 2.0, curve

    lines = [
        f"F13: parallel campaign engine — LHG(n={N}, k={K}), "
        f"{len(serial_matrix.cells)} cells, {os.cpu_count()} core(s)"
    ]
    for point in curve:
        lines.append(
            f"  workers={point['workers']}: {point['wall_seconds']:.2f}s "
            f"({point['mode']}, speedup {point['speedup']}x, "
            f"efficiency {point['parallel_efficiency']})"
        )
    lines.append(f"  graph cache: {GRAPH_CACHE.stats()}")
    report("f13_parallel", "\n".join(lines))

    # time one serial grid pass as the pytest-benchmark sample
    benchmark(lambda: _campaign().run(workers=1))
