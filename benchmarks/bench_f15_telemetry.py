"""Experiment F15 — telemetry overhead: observability that costs nothing.

Runs the full chaos-campaign grid on LHG(n=64, k=4) three ways and
measures what the ``repro.obs`` layer costs:

* **Off** (no collector installed): the span/metric call sites reduce
  to a single ``is None`` check — the inert path is micro-benchmarked
  directly (ns per ``span()`` call).
* **On** (collector installed): every campaign/cell/build/run span,
  network counter and metrics snapshot is recorded in memory.
* **Passivity**: the traced matrix must be *byte-identical* to the
  plain one — telemetry may observe the science but never touch it.
  Asserted unconditionally.

The measured on-vs-off wall-time ratio is written to
``results/f15_telemetry.txt`` (target: <3% overhead; the hard
assert is a loud 10% regression tripwire so hardware noise cannot
flake the harness while a real regression still fails it).
"""

from __future__ import annotations

import time

from repro import obs
from repro.exec import GRAPH_CACHE, TopologySpec
from repro.robustness import ChaosCampaign

N, K = 64, 4
SEEDS = (0,)
REPEATS = 5  # per arm, interleaved plain/traced to cancel clock drift
TARGET_OVERHEAD = 0.03  # the design budget (DESIGN.md §10)
TRIPWIRE_OVERHEAD = 0.10  # the asserted regression bound


def _campaign() -> ChaosCampaign:
    spec = TopologySpec(N, K)
    return ChaosCampaign([(spec.label, spec)], seeds=SEEDS)


def _inert_span_nanos(calls: int = 200_000) -> float:
    """Nanoseconds per ``obs.span()`` call with no collector installed."""
    assert obs.active() is None
    start = time.perf_counter()
    for _ in range(calls):
        with obs.span("probe"):
            pass
    return (time.perf_counter() - start) / calls * 1e9


def test_f15_telemetry_overhead(benchmark, report):
    GRAPH_CACHE.clear()
    obs.uninstall()

    # warm the graph cache so both arms time the simulation, not the build
    baseline = _campaign().run()
    assert baseline.all_green, baseline.violations
    rendered = baseline.render()
    cells = len(baseline.cells)

    # interleave the two arms: alternating runs see the same thermal /
    # frequency envelope, so min-of-arm compares like with like
    plain_walls, traced_walls = [], []
    events, snapshot = [], {}
    for _ in range(REPEATS):
        campaign = _campaign()
        assert campaign.run().render() == rendered
        plain_walls.append(campaign.last_report.wall_seconds)

        collector = obs.install()
        campaign = _campaign()
        matrix = campaign.run()
        obs.uninstall()
        # passivity: telemetry never changes the science
        assert matrix.render() == rendered
        traced_walls.append(campaign.last_report.wall_seconds)
        events = collector.events
        snapshot = collector.metrics.snapshot()

    assert obs.validate_events(events) == []
    spans = list(obs.iter_spans(events))
    opened = {e["name"] for e in events if e["kind"] == "span-open"}
    assert {"campaign", "graph-build", "cell", "protocol-run"} <= opened
    assert snapshot["counters"]["net.send"] > 0

    # min-of-repeats: immune to one-off scheduler hiccups on shared CI
    overhead = min(traced_walls) / min(plain_walls) - 1.0
    assert overhead < TRIPWIRE_OVERHEAD, (
        f"telemetry overhead {overhead:.1%} blew the regression tripwire"
    )

    inert_nanos = _inert_span_nanos()

    report(
        "f15_telemetry",
        "\n".join(
            [
                f"F15: telemetry overhead — LHG(n={N}, k={K}), {cells} cells,"
                f" {len(events)} events / {len(spans)} spans recorded",
                f"  plain:  {min(plain_walls):.3f}s   traced: "
                f"{min(traced_walls):.3f}s   overhead {overhead:+.2%} "
                f"(target <{TARGET_OVERHEAD:.0%})",
                f"  inert span() call: {inert_nanos:.0f} ns "
                f"(no collector installed)",
                "  traced matrix byte-identical to plain: True",
            ]
        ),
    )

    # time one traced serial grid pass as the benchmark sample
    def traced_run():
        obs.install()
        try:
            return _campaign().run()
        finally:
            obs.uninstall()

    benchmark(traced_run)
