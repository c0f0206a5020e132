"""Experiment F18 — sampling-profiler overhead and the flood-path profile.

Runs repeated floods on LHG(n=1024, k=4) two ways, interleaved so both
arms see the same thermal/frequency envelope:

* **plain** — the event simulator unprofiled;
* **profiled** — the same floods under the 100 Hz signal-backed
  sampling profiler (:class:`repro.obs.prof.SamplingProfiler`), each
  flood wrapped in an obs span so samples carry span attribution.

Measured and asserted:

* **overhead** — min-of-arm profiled wall over plain wall must stay
  under 5% (the design budget for an always-on profiler);
* **usefulness** — the profile must contain samples, non-empty
  collapsed stacks, and span attribution for the ``flood`` span.

The collapsed-stack profile of the flooding hot path is committed as
``results/PROFILE_flood.collapsed`` (loads in speedscope or
flamegraph.pl); the top hot frames and the overhead fraction land in
``results/f18_profiler.txt``.
"""

from __future__ import annotations

import pathlib
import time

from repro import obs
from repro.core.existence import build_lhg
from repro.flooding.experiments import run_flood
from repro.obs.prof import SamplingProfiler

N, K = 1024, 4
HZ = 100.0
REPEATS = 5
FLOODS_PER_ARM = 3
OVERHEAD_BUDGET = 0.05

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _flood_arm(graph, source) -> float:
    start = time.perf_counter()
    for _ in range(FLOODS_PER_ARM):
        with obs.span("flood", n=N, k=K):
            run_flood(graph, source)
    return time.perf_counter() - start


def test_f18_profiler_overhead(benchmark, report):
    graph, _ = build_lhg(N, K)
    source = graph.nodes()[0]

    obs.install()
    try:
        # warm-up: JIT-free Python, but page caches and branch history
        _flood_arm(graph, source)

        plain_walls, profiled_walls = [], []
        profile = None
        for _ in range(REPEATS):
            plain_walls.append(_flood_arm(graph, source))
            profiler = SamplingProfiler(hz=HZ)
            with profiler:
                profiled_walls.append(_flood_arm(graph, source))
            profile = profiler.profile
    finally:
        obs.uninstall()

    overhead = min(profiled_walls) / min(plain_walls) - 1.0
    assert overhead < OVERHEAD_BUDGET, (
        f"profiler overhead {overhead:.1%} blew the {OVERHEAD_BUDGET:.0%} "
        f"budget at {HZ:g} Hz"
    )

    # the profile is useful: samples landed, stacks collapsed, spans
    # attributed to the flood span
    assert profile.sample_count > 0
    collapsed = profile.collapsed()
    assert collapsed and all(" " in line for line in collapsed)
    assert any(line.startswith("span:flood;") for line in collapsed)
    top = profile.top_functions(3)
    assert top, "no hot frames resolved"

    RESULTS_DIR.mkdir(exist_ok=True)
    stacks = profile.write_collapsed(RESULTS_DIR / "PROFILE_flood.collapsed")
    assert stacks > 0

    lines = [
        f"F18: sampling profiler — LHG(n={N}, k={K}), {HZ:g} Hz "
        f"({profile.backend} backend), {FLOODS_PER_ARM} floods/arm",
        f"  plain:    {min(plain_walls):.3f}s   profiled: "
        f"{min(profiled_walls):.3f}s   overhead {overhead:+.2%} "
        f"(budget <{OVERHEAD_BUDGET:.0%})",
        f"  profile:  {profile.sample_count} samples, {stacks} collapsed "
        f"stacks -> results/PROFILE_flood.collapsed",
        "  top-3 hot frames (self samples):",
    ]
    for frame, count in top:
        lines.append(
            f"    {count:6d} ({count / profile.sample_count:5.1%})  {frame}"
        )
    report("f18_profiler", "\n".join(lines))

    # time one profiled flood pass as the pytest-benchmark sample
    def profiled_flood():
        with SamplingProfiler(hz=HZ):
            return run_flood(graph, source)

    benchmark(profiled_flood)
