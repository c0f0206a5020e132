"""Per-layer metrics of the traced run, built on the ``repro.obs`` collector.

The traced run installs a :class:`repro.obs.Collector`.  Spans come from
two places:

* the benchmark's own ``obs.span`` calls around each call into a layer
  (see ``workloads.py``);
* :func:`layer_spans`, which, for the traced run only, wraps the names
  that ``repro.service.soak`` looks up for its internal calls in spans
  named after their layer.

The program's existing spans (``soak``, ``soak-verify``,
``protocol-run``, ``scenario-build``, ``invariant-check``, ``map``,
``cell``) nest under these.  A span's self time is its duration minus
the part of its interval that its children cover; a layer's time sums
the self times of the spans listed for it in :data:`LAYER_SPANS`.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from typing import Any, Dict, Iterator, List, Tuple

import repro.obs as obs
import repro.service.soak as soak_module
from repro.overlay.membership import LHGOverlay

#: Every per-layer metric the traced run prints: name -> (unit, meaning).
#: Times are self seconds per set-up (set-up layers) or per round (the
#: workload's unit of work: a CSR+implicit flood pair, a pass over all
#: attack plans, one soak, one campaign).
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "core.build_s": ("s", "JD construction per set-up"),
    "core.certify_s": ("s", "structural certificates per set-up"),
    "csr.compile_s": ("s", "CSRGraph.from_oracle per set-up"),
    "csr.bytes": ("bytes", "compiled CSR size"),
    "rounds.flood_csr_s": ("s", "dense round flood on CSR, per flood"),
    "rounds.flood_implicit_s": ("s", "dense round flood on the implicit oracle, per flood"),
    "rounds.nodes_per_s": ("1/s", "covered nodes per second of dense flood time"),
    "rounds.messages": ("count", "messages per dense flood"),
    "rounds.faulty_flood_s": ("s", "faulty round floods per attack pass"),
    "rounds.faulty_messages": ("count", "faulty flood messages per attack pass"),
    "rounds.faulty_rounds": ("hops", "worst faulty flood completion"),
    "faultview.survivors_s": ("s", "survivor views per attack pass"),
    "faultview.component_size_s": ("s", "component_size witnesses per attack pass"),
    "attacks.derive_s": ("s", "targeted_cut_attacks per set-up"),
    "attacks.plans": ("count", "attack plans derived"),
    "invariants.recertify_s": ("s", "recertify_survivors per attack pass"),
    "invariants.verify_s": ("s", "check_topology_invariants per soak"),
    "invariants.verify_calls": ("count", "check_topology_invariants calls per soak"),
    "overlay.join_s": ("s", "LHGOverlay.join per soak"),
    "overlay.topology_s": ("s", "LHGOverlay.topology copies per soak"),
    "overlay.plan_repair_s": ("s", "plan_repair per soak"),
    "overlay.execute_repair_s": ("s", "execute_repair per soak"),
    "overlay.repairs": ("count", "executed repairs per soak"),
    "simulator.flood_s": ("s", "event-simulator self time per soak or campaign"),
    "simulator.floods": ("count", "simulated soak floods per soak"),
    "simulator.messages": ("count", "simulated soak flood messages per soak"),
    "campaign.scenario_build_s": ("s", "scenario-build self time per campaign"),
    "campaign.invariant_check_s": ("s", "invariant-check self time per campaign"),
    "campaign.cells": ("count", "cells per campaign"),
    "exec.cell_s_sum": ("s", "summed cell wall time per campaign"),
    "exec.idle_s": ("s", "wall x workers minus cell time, per campaign"),
    "exec.parallel_efficiency": ("ratio", "cell time / (workers x wall)"),
    "exec.cache_hit_ratio": ("ratio", "graph cache hits / lookups"),
    "exec.retries": ("count", "supervisor retries per campaign"),
    "exec.worker_deaths": ("count", "worker deaths per campaign"),
    "soak.self_s": ("s", "soak loop self time per soak"),
    "soak.shed_ratio": ("ratio", "shed floods / arrived floods"),
    "trace.overhead_ratio": ("ratio", "traced / untraced round time - 1"),
    "host.probe_start_ms": ("ms", "fixed pure-Python loop at run start"),
    "host.probe_end_ms": ("ms", "fixed pure-Python loop at run end"),
}

#: Time metrics: metric -> (phase, span names whose self times it sums).
LAYER_SPANS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "core.build_s": ("setup", ("core.build",)),
    "core.certify_s": ("setup", ("core.certify",)),
    "csr.compile_s": ("setup", ("csr.compile",)),
    "attacks.derive_s": ("setup", ("attacks.derive",)),
    "rounds.flood_csr_s": ("loop", ("rounds.flood_csr",)),
    "rounds.flood_implicit_s": ("loop", ("rounds.flood_implicit",)),
    "rounds.faulty_flood_s": ("loop", ("rounds.faulty_flood",)),
    "faultview.survivors_s": ("loop", ("faultview.survivors",)),
    "faultview.component_size_s": ("check", ("faultview.component_size",)),
    "invariants.recertify_s": ("loop", ("invariants.recertify",)),
    "invariants.verify_s": ("loop", ("invariants.verify",)),
    "overlay.join_s": ("loop", ("overlay.join",)),
    "overlay.topology_s": ("loop", ("overlay.topology",)),
    "overlay.plan_repair_s": ("loop", ("overlay.plan_repair",)),
    "overlay.execute_repair_s": ("loop", ("overlay.execute_repair",)),
    "simulator.flood_s": ("loop", ("simulator.flood", "protocol-run")),
    "campaign.scenario_build_s": ("loop", ("scenario-build",)),
    "campaign.invariant_check_s": ("loop", ("invariant-check",)),
    "soak.self_s": ("loop", ("soak.run", "soak", "soak-bootstrap", "soak-verify")),
}

#: Call counts: metric -> span name counted per round.
LAYER_CALLS: Dict[str, str] = {
    "invariants.verify_calls": "invariants.verify",
    "overlay.repairs": "overlay.execute_repair",
    "simulator.floods": "simulator.flood",
}


def _spanned(name: str, fn, counter=None):
    """``fn`` inside a span; ``counter`` maps its result to a count."""

    @functools.wraps(fn)
    def inner(*args: Any, **kwargs: Any) -> Any:
        with obs.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            obs.counter(counter[0], counter[1](result))
        return result

    return inner


#: (owner, attribute, span name, optional (counter, result -> amount))
#: for the calls the soak makes internally.
_WRAPPED = (
    (soak_module, "run_experiment", "simulator.flood",
     ("simulator.messages", lambda summary: summary.result.messages)),
    (soak_module, "execute_repair", "overlay.execute_repair", None),
    (soak_module, "plan_repair", "overlay.plan_repair", None),
    (soak_module, "check_topology_invariants", "invariants.verify", None),
    (LHGOverlay, "topology", "overlay.topology", None),
    (LHGOverlay, "join", "overlay.join", None),
)


@contextlib.contextmanager
def layer_spans() -> Iterator[None]:
    """Wrap the soak's internal layer calls in spans; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _WRAPPED]
    try:
        for owner, attr, name, counter in _WRAPPED:
            setattr(owner, attr, _spanned(name, getattr(owner, attr), counter))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(events: List[Dict[str, Any]]) -> Dict[str, Tuple[float, int]]:
    """name -> (summed self seconds, span count) over complete spans."""
    totals: Dict[str, Tuple[float, int]] = {}

    def walk(node: Dict[str, Any]) -> None:
        children = node["children"]
        covered = _covered(
            [(c["t0"], c["t0"] + c["seconds"]) for c in children]
        )
        seconds, calls = totals.get(node["name"], (0.0, 0))
        totals[node["name"]] = (seconds + node["seconds"] - covered, calls + 1)
        for child in children:
            walk(child)

    for root in obs.build_span_tree(events):
        walk(root)
    return totals


def layer_metrics(
    phases: Dict[str, Tuple[List[Dict[str, Any]], int]],
    workload,
    rounds: int,
    counters: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric (0 where the workload bypasses the layer).

    ``phases`` maps ``setup``/``loop``/``check`` to (events, units): the
    span events recorded in that phase and the count they are divided by.
    ``rounds`` is every round the run made (workload counts span them
    all); ``counters`` are the collector's counters after the traced
    rounds.
    """
    values = {name: 0.0 for name in LAYER_METRICS}
    aggregated = {phase: (self_times(events), units) for phase, (events, units) in phases.items()}
    for metric, (phase, names) in LAYER_SPANS.items():
        totals, units = aggregated[phase]
        values[metric] = sum(totals.get(n, (0.0, 0))[0] for n in names) / units
    totals, units = aggregated["loop"]
    for metric, name in LAYER_CALLS.items():
        values[metric] = totals.get(name, (0.0, 0))[1] / units

    counts = workload.counts
    flood_s = values["rounds.flood_csr_s"] + values["rounds.flood_implicit_s"]
    if flood_s:
        values["rounds.nodes_per_s"] = counts["rounds.covered"] / rounds / flood_s
        values["rounds.messages"] = counts["rounds.messages"] / rounds / 2
    values["csr.bytes"] = counts.get("csr.bytes", 0)
    values["attacks.plans"] = counts.get("attacks.plans", 0)
    values["rounds.faulty_messages"] = counts.get("rounds.faulty_messages", 0) / rounds
    values["rounds.faulty_rounds"] = counts.get("rounds.faulty_rounds", 0)
    if counts.get("soak.floods"):
        values["soak.shed_ratio"] = counts["soak.shed"] / counts["soak.floods"]
    values["simulator.messages"] = counters.get("simulator.messages", 0) / units

    reports = getattr(workload, "reports", [])
    if reports:
        values["campaign.cells"] = statistics.mean(r.cells for r in reports)
        values["exec.cell_s_sum"] = statistics.mean(r.total_cell_seconds() for r in reports)
        values["exec.idle_s"] = statistics.mean(
            r.wall_seconds * r.workers - r.total_cell_seconds() for r in reports
        )
        values["exec.parallel_efficiency"] = statistics.mean(
            r.parallel_efficiency() for r in reports
        )
        values["exec.cache_hit_ratio"] = reports[-1].cache_hit_rate() or 0.0
        values["exec.retries"] = statistics.mean(r.retries for r in reports)
        values["exec.worker_deaths"] = statistics.mean(r.worker_deaths for r in reports)
    return values
