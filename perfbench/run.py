"""Run one workload of the LHG pipeline benchmark and print its metrics.

Usage, from the root of a checkout (no build step; the package is
imported from ``src/``)::

    python3 perfbench/run.py --workload pristine-250k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --workload soak-mixed --pin

A run sets up the workload several times, then runs closed-loop rounds
until ``--seconds`` have passed,
checking every output.  Afterwards it runs the workload's independent
cross-checks and compares the digest of a fixed anchor input with the
one pinned in ``digests.json``, so a change of behaviour is reported as
a failure, never as a speed-up.

With ``--trace 0`` the last line of standard output is one JSON object
holding the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
it holds the per-layer metrics instead.  The traced run makes every
round twice on the same inputs, untraced and with a ``repro.obs``
collector installed, reports the time difference as
``trace.overhead_ratio`` and writes the spans to
``.perfbench/<workload>-seed<seed>.jsonl``.  A human-readable report,
with the metric names the workloads were specified with, goes to
standard error.

Exit codes: 0 when every check passed, 1 when a check failed (the
result line is still printed), 2 when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".perfbench"
SETUP_SECONDS = 3.0
SETUP_MAX = 50


def probe_ms() -> float:
    """Best of five runs of a fixed pure-Python loop, in milliseconds.

    A diagnostic of host speed only: it tells an unsteady host from an
    unsteady program and is never an end-to-end metric.
    """
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Tally:
    """Operations attempted and failed over one run, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, outcome) -> None:
        """Count one timed round."""
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)

    def check(self, label: str, problems: List[str]) -> None:
        """Count one untimed check; it fails when it reports problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems

    def result(self, metrics: Dict[str, Dict[str, object]]) -> Dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def self_check() -> List[str]:
    """Exercise the failure accounting on synthetic rounds (milliseconds)."""
    from workloads import Outcome, digest

    problems = []
    tally = Tally()
    tally.add(Outcome(ops=2, parts={"a": 0.1}, attempted=2))
    tally.check("anchor", [])
    if not (tally.correct and tally.attempted == 3 and tally.failed == 0):
        problems.append("clean rounds were not counted as correct")
    tally.add(Outcome(ops=2, parts={"a": 0.1}, attempted=2, failed=1, problems=["x"]))
    if tally.correct or (tally.attempted, tally.failed) != (5, 1):
        problems.append("a failed round was not counted")
    mismatch = Tally()
    mismatch.check("anchor", [] if digest([1, 2]) == digest([2, 1]) else ["differs"])
    if mismatch.correct or mismatch.failed != 1:
        problems.append("a digest mismatch was not counted as a failure")
    if digest({"a": 1, "b": 2}) != digest({"b": 2, "a": 1}):
        problems.append("digests depend on key order")
    line = json.dumps(Tally().result({}))
    if set(json.loads(line)) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result line has the wrong keys")
    if Tally().correct:
        problems.append("a run that attempted nothing counted as correct")
    return problems


def measure(workload, tally: Tally, seconds: float, collector=None) -> list:
    """Closed loop: run rounds until ``seconds`` have passed.

    With a ``collector`` every round runs twice on the same inputs, once
    untraced and once traced, in alternating order; the outcomes come
    back as ``(untraced, traced)`` pairs.
    """
    import repro.obs as obs
    from layers import layer_spans

    outcomes = []
    began = time.perf_counter()
    index = 0
    while True:
        pair = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced and collector is None:
                continue
            gc.collect()
            if traced:
                obs.install(collector)
                try:
                    with layer_spans():
                        pair[True] = workload.run_round(index)
                finally:
                    obs.uninstall()
            else:
                pair[False] = workload.run_round(index)
        for outcome in pair.values():
            tally.add(outcome)
        outcomes.append((pair[False], pair[True]) if collector else pair[False])
        index += 1
        if time.perf_counter() - began >= seconds:
            return outcomes


def setup_reps(workload, tally: Tally) -> List[float]:
    """Set the workload up repeatedly; return each duration.

    At least three set-ups, and more until ``SETUP_SECONDS`` are spent
    or ``SETUP_MAX`` set-ups are done, so cheap set-ups get more samples.
    """
    times: List[float] = []
    while len(times) < 3 or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX):
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)
        workload.check_setup()
        tally.check("setup", workload.setup_problems)
    return times


def check_anchor(workload, tally: Tally) -> None:
    from workloads import digest

    pinned = json.loads(DIGESTS.read_text()).get(workload.name)
    actual = digest(workload.anchor())
    tally.check(
        "anchor digest",
        [] if actual == pinned else [f"{actual} != pinned {pinned}"],
    )


def typical(seconds: List[float]) -> float:
    """Mean of the faster half of ``seconds`` (at least one sample).

    A slow phase of a shared host only ever adds time, and such phases
    last seconds, so they cover whole rounds.  The faster half measures
    the program; averaging it keeps the variation between inputs in.
    """
    fast = sorted(seconds)[: max(1, len(seconds) // 2)]
    return sum(fast) / len(fast)


def throughput(outcomes) -> float:
    """Operations per second of a typical round, part by timed part."""
    cycle = sum(typical([o.parts[key] for o in outcomes]) for key in outcomes[0].parts)
    return statistics.median(o.ops for o in outcomes) / cycle


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def run(args, spec) -> int:
    import repro.obs as obs
    from layers import LAYER_METRICS, layer_metrics, layer_spans
    from workloads import WORKLOADS

    probe_start = probe_ms()
    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    if not args.trace:
        setup_times = setup_reps(workload, tally)
        outcomes = measure(workload, tally, args.seconds)
        tally.check("cross-check", workload.cross_check())
    else:
        collector = obs.Collector()
        obs.install(collector)
        try:
            with layer_spans():
                setup_times = setup_reps(workload, tally)
        finally:
            obs.uninstall()
        mark = len(collector.events)
        pairs = measure(workload, tally, args.seconds, collector)
        check_mark = len(collector.events)
        obs.install(collector)
        try:
            tally.check("cross-check", workload.cross_check())
        finally:
            obs.uninstall()
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        outcomes = plain + traced
    check_anchor(workload, tally)
    probe_end = probe_ms()

    report = [
        f"workload {workload.name}  seed {args.seed}  rounds {len(outcomes)}  "
        f"ops {sum(o.ops for o in outcomes)}",
        f"host probe: {probe_start:.2f} ms at start, {probe_end:.2f} ms at end",
        f"attempted {tally.attempted}  failed {tally.failed}  "
        f"failed_fraction {tally.failed / max(1, tally.attempted):.4f}",
        "round parts (s): " + json.dumps([{k: round(v, 4) for k, v in o.parts.items()}
                                          for o in outcomes]),
    ]
    report += [f"  problem: {p}" for p in tally.problems[:20]]
    if args.trace:
        events = collector.events
        phases = {
            "setup": (events[:mark], len(setup_times)),
            "loop": (events[mark:check_mark], len(traced)),
            "check": (events[check_mark:], 1),
        }
        values = layer_metrics(
            phases, workload, len(outcomes), dict(collector.metrics.counters)
        )
        values["trace.overhead_ratio"] = (
            sum(o.seconds for o in traced) / sum(o.seconds for o in plain) - 1
        )
        values["host.probe_start_ms"] = probe_start
        values["host.probe_end_ms"] = probe_end
        metrics = {name: metric(values[name], LAYER_METRICS[name][0])
                   for name in LAYER_METRICS}
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{workload.name}-seed{args.seed}.jsonl"
        obs.write_jsonl(events, str(path))
        report.append(f"spans written to {path}")
        report += [f"  {name:<28} {values[name]:>14.6g} {unit}"
                   for name, unit in names.items()]
    else:
        quality = workload.quality()
        metrics = {
            "setup_s": metric(typical(setup_times), "s"),
            "ops_per_s": metric(throughput(outcomes), "1/s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "hops": metric(quality["hops"], "hops"),
            "msgs_per_node": metric(quality["msgs_per_node"], "ratio"),
        }
        names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for key, entry in metrics.items():
            alias = workload.aliases.get(key, key)
            report.append(f"  {alias:<20} {entry['value']:>14.6g} {entry['unit']}"
                          + (f"   (= {key})" if alias != key else ""))
        report.append(f"  {workload.aliases['worst']:<20} {quality['worst']:>14.6g} hops"
                      "   (report only)")
    produced = {name: entry["unit"] for name, entry in metrics.items()}
    if produced != names:
        print(f"perfbench: metrics {produced} do not match BENCHMARK.json {names}",
              file=sys.stderr)
        return 1
    print("\n".join(report), file=sys.stderr)
    print(json.dumps(tally.result(metrics)))
    return 0 if tally.correct else 1


def pin(args) -> int:
    """Recompute the anchor digest of one workload into digests.json."""
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    pinned[workload.name] = digest(workload.anchor())
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"{workload.name}: {pinned[workload.name]}", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check the failure accounting and exit")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the workload's anchor digest and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    problems = self_check()
    if args.self_check or problems:
        print("\n".join(problems) or "self-check passed", file=sys.stderr)
        return 1 if problems else 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.pin:
        return pin(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
