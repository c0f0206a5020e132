"""The soak service: a long-running LHG overlay under production traffic.

:class:`SoakService` runs an :class:`~repro.overlay.membership.LHGOverlay`
as an *eternal experiment* on a *virtual-time* tick loop.  Each tick

1. expires floods whose delivery window elapsed (freeing in-flight
   capacity),
2. draws Poisson membership churn — joins apply immediately, departures
   accumulate into the tick's **crash burst**,
3. feeds the burst to the online repair controller,
4. advances any pending repair by the per-tick edge budget,
5. re-verifies Properties 1–4 on the cadence (and always after a
   completed repair): by the construction certificate once a full
   audit binds it to the slot-labelled overlay, else exactly,
6. admits Poisson flood arrivals from Zipf-distributed sources, sheds
   the ones beyond the in-flight budget, and floods the admitted ones
   with the synchronous-round engine
   (:func:`~repro.flooding.rounds.round_flood`) over the routing view:
   the overlay itself, or a :class:`~repro.graphs.faultview.FaultView`
   of it with the crashes pending repair as its down-set.  Soak floods
   run under unit latency, where a flood is one round per hop, so the
   round engine yields exactly the event simulator's latency, message
   bill, coverage and reachability (``tests/test_service.py`` pins the
   parity).

**Graceful degradation** is the design center.  A burst ≤ k − 1 is the
paper's contract: the damaged topology stays connected and the repair
usually completes within the tick, invisibly.  A burst beyond k − 1, a
partition, a repair interrupted by the next burst, or a failed
invariant check moves the service into the explicit :data:`DEGRADED`
state — it does **not** crash.  While degraded, floods route over the
survivor component (the routing topology excludes crashed members
pending repair, so a flood covers exactly its source's component),
admission control halves the in-flight budget, and the repair
controller retries with bounded exponential backoff (the same
``min(cap, base·2^(attempt−1))`` schedule as
:class:`~repro.exec.supervisor.SupervisorConfig`, in ticks).  Once the
retry budget is exhausted the controller performs an *emergency
rebuild* — completing the repair immediately regardless of the edge
budget — so a degradation window is always bounded.  Recovery is
proven, not assumed: the service returns to :data:`HEALTHY` only after
the repaired topology passes
:func:`~repro.robustness.invariants.check_topology_invariants`.

**Determinism and resume.**  All randomness derives from
``derive_seed(seed, "soak-tick", t)`` — a tick's workload is a pure
function of the config and the tick index.  With a checkpoint journal,
every completed tick is appended (fsync'd) as one JSON record keyed by
the config digest and tick index; a resumed run *replays* journaled
ticks through the identical controller logic, substituting the
journaled flood results and invariant verdicts for the expensive
simulation/verification calls, and recomputes the rest.  Replay is
cross-checked: a replayed tick must reproduce its journaled record
exactly, so a config mismatch or a determinism bug fails loudly
instead of silently forking history.  The merged
:class:`SoakReport` is a pure function of the per-tick records and is
therefore byte-identical between an uninterrupted run and a SIGKILL'd
+ resumed one — the crash-injection self-test's contract.

The only wall-clock read in this module is the optional ``max_wall``
safety valve, which cleanly truncates a runaway soak; it never feeds a
simulated result (see the DET002 allowlist in :mod:`repro.lint`).
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple, Union

import repro.obs as obs
from repro.errors import ReproError
from repro.exec.checkpoint import CheckpointJournal, checkpoint_key, open_journal
from repro.exec.seeding import derive_seed
# unused here: perfbench's layer_spans wraps this name; ROADMAP item 4 deletes both
from repro.flooding.experiments import run_experiment
from repro.flooding.rounds import round_flood
from repro.graphs.faultview import FaultView
from repro.graphs.graph import Graph
from repro.graphs.traversal import connected_components
from repro.overlay.membership import LHGOverlay
from repro.overlay.repair import RepairPlan, execute_repair, plan_repair
from repro.robustness.invariants import check_topology_invariants
from repro.service.alerts import AlertPolicy, BurnRateMonitor
from repro.service.slo import SLOTracker, percentile
from repro.service.workload import poisson_draw, zipf_pick

#: Service states.  The state machine is two-state by design: either
#: the k − 1 contract holds (``healthy``) or it is suspended and the
#: service is running the recovery playbook (``degraded``).
HEALTHY = "healthy"
DEGRADED = "degraded"


@dataclass(frozen=True)
class SoakConfig:
    """Tunable parameters of one soak run.

    Attributes
    ----------
    population:
        Target (and bootstrap) membership; churn is softly pulled back
        toward it.  Must be ≥ 2k so the overlay starts in the LHG
        regime.
    k:
        Overlay connectivity level (fault tolerance k − 1).
    duration:
        Soak length in virtual ticks.
    churn_rate / flood_rate:
        Poisson means: membership events / new floods per tick.
    zipf_exponent:
        Source-popularity skew for the broadcast workload (0 = uniform).
    flood_budget:
        In-flight flood cap before admission control sheds arrivals;
        halved while degraded (backpressure).
    verify_every:
        Invariant-check cadence in ticks (Properties 1–4).
    repair_edge_budget:
        Edge operations (teardown + establish) a repair can perform per
        tick; a plan bigger than this spans ticks.
    repair_retries:
        Restarts a repair episode tolerates (bursts landing mid-repair)
        before the emergency rebuild completes it unconditionally.
    backoff_base / backoff_cap:
        Restart backoff in ticks: restart ``a`` waits
        ``min(cap, base · 2^(a−1))`` before the repair resumes.
    join_bias:
        Base probability a churn event is a join (pulled by population).
    bursts:
        Forced crash bursts as ``(tick, size)`` pairs — the chaos dial
        used by tests and the F16 benchmark to provoke degradation
        deterministically.
    seed:
        Base seed every tick's randomness derives from.
    rule:
        Construction rule forwarded to the overlay.
    max_wall:
        Optional wall-clock budget in seconds; the loop stops cleanly
        (report marked ``truncated``) when exceeded.  The only
        non-virtual time in the service.
    """

    population: int = 24
    k: int = 3
    duration: int = 120
    churn_rate: float = 0.4
    flood_rate: float = 2.0
    zipf_exponent: float = 1.1
    flood_budget: int = 48
    verify_every: int = 20
    repair_edge_budget: int = 24
    repair_retries: int = 3
    backoff_base: int = 1
    backoff_cap: int = 8
    join_bias: float = 0.5
    bursts: Tuple[Tuple[int, int], ...] = ()
    seed: int = 0
    rule: str = "auto"
    max_wall: Optional[float] = None

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ReproError(f"soak needs k >= 2, got {self.k}")
        if self.population < 2 * self.k:
            raise ReproError(
                f"population {self.population} below the LHG minimum "
                f"{2 * self.k} for k={self.k}"
            )
        if self.duration < 1:
            raise ReproError(f"duration must be >= 1 tick, got {self.duration}")
        for name in ("flood_budget", "repair_edge_budget", "verify_every"):
            if getattr(self, name) < 1:
                raise ReproError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.repair_retries < 0:
            raise ReproError(
                f"repair_retries must be >= 0, got {self.repair_retries}"
            )
        if self.backoff_base < 1 or self.backoff_cap < self.backoff_base:
            raise ReproError(
                f"backoff must satisfy 1 <= base <= cap, got "
                f"base={self.backoff_base} cap={self.backoff_cap}"
            )
        object.__setattr__(
            self,
            "bursts",
            tuple(sorted((int(t), int(s)) for t, s in self.bursts)),
        )
        for tick, size in self.bursts:
            if tick < 0 or size < 1:
                raise ReproError(f"invalid forced burst (tick={tick}, size={size})")
        if self.max_wall is not None and self.max_wall <= 0:
            raise ReproError(f"max_wall must be positive, got {self.max_wall}")

    def digest(self) -> str:
        """Stable identity hash of every *science-relevant* field.

        ``max_wall`` is excluded — truncating a run early changes how
        far it got, never what any completed tick computed — so a
        journal written under a wall budget resumes cleanly without one.
        """
        parts: List[Any] = ["soak-config"]
        for spec in fields(self):
            if spec.name == "max_wall":
                continue
            parts.extend((spec.name, getattr(self, spec.name)))
        return checkpoint_key(*parts)


@dataclass(frozen=True)
class DegradationWindow:
    """One closed (or still-open) degradation episode."""

    start: int
    end: Optional[int]
    cause: str

    @property
    def ticks(self) -> Optional[int]:
        """Window length in ticks; ``None`` while still open."""
        return None if self.end is None else self.end - self.start + 1

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering."""
        return {
            "start": self.start,
            "end": self.end,
            "cause": self.cause,
            "ticks": self.ticks,
        }


def feed_slo_tracker(tracker: SLOTracker, record: Dict[str, Any]) -> None:
    """Feed one completed tick record into an :class:`SLOTracker`.

    The single aggregation path: :meth:`SoakReport.build` folds every
    record through it at report time, and the live metrics exporter
    folds each tick as it completes — so streamed snapshots converge on
    exactly the final report's numbers.
    """
    tracker.churn(len(record["joins"]), len(record["crashes"]))
    for flood in record["floods"]:
        if flood["shed"]:
            tracker.flood_shed()
        else:
            tracker.flood_completed(
                flood["latency"],
                flood["messages"],
                flood["covered"],
                flood["reachable"],
            )
    repair = record.get("repair")
    if repair is not None and repair.get("completed"):
        tracker.repair_completed(repair["edge_work"], repair["emergency"])
        for _ in range(repair["restarts"]):
            tracker.repair_restart()
    for verify in record["verify"]:
        tracker.verify(verify["ok"])
    for transition in record["transitions"]:
        if transition["to"] == HEALTHY:
            tracker.repair_converged(transition["convergence"])


class SoakReport:
    """The merged outcome of a soak run — a pure function of its records.

    ``payload`` is one JSON-safe dict; :meth:`to_json` renders it with
    sorted keys, which is the byte-identical artifact the
    checkpoint-resume self-test diffs.
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.payload = payload

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        config: SoakConfig,
        records: List[Dict[str, Any]],
        windows: List[DegradationWindow],
        final_state: str,
        truncated: bool,
        alert_policy: Optional[AlertPolicy] = None,
    ) -> "SoakReport":
        """Aggregate per-tick records into the SLO report."""
        tracker = SLOTracker()
        monitor = BurnRateMonitor(config.k, alert_policy)
        joins = crashes = 0
        repairs = emergencies = restarts = edge_work = 0
        for record in records:
            feed_slo_tracker(tracker, record)
            monitor.observe(record)
            joins += len(record["joins"])
            crashes += len(record["crashes"])
            repair = record.get("repair")
            if repair is not None and repair.get("completed"):
                repairs += 1
                edge_work += repair["edge_work"]
                restarts += repair["restarts"]
                if repair["emergency"]:
                    emergencies += 1

        latency = tracker.latency_percentiles()
        latency_hist = tracker.registry.histograms.get("soak.flood.latency")
        amp_hist = tracker.registry.histograms.get("soak.flood.amplification")
        conv_hist = tracker.registry.histograms.get("soak.repair.convergence")
        completed = int(tracker.counter("soak.floods.completed"))
        shed = int(tracker.counter("soak.floods.shed"))
        window_dicts = [w.as_dict() for w in windows]
        degraded_ticks = sum(w.ticks for w in windows if w.ticks is not None)

        def _hist_summary(hist: Any) -> Dict[str, Any]:
            if hist is None or hist.count == 0:
                return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}
            snap = hist.snapshot()
            return {
                "count": snap["count"],
                "mean": snap["sum"] / snap["count"],
                "p50": percentile(snap, 0.50),
                "p99": percentile(snap, 0.99),
                "max": snap["max"],
            }

        payload: Dict[str, Any] = {
            "experiment": "soak",
            "config": {
                spec.name: (
                    [list(pair) for pair in config.bursts]
                    if spec.name == "bursts"
                    else getattr(config, spec.name)
                )
                for spec in fields(config)
                if spec.name != "max_wall"
            },
            "ticks": len(records),
            "truncated": truncated,
            "final_state": final_state,
            "floods": {
                "completed": completed,
                "shed": shed,
                "partial": int(tracker.counter("soak.floods.partial")),
                "shed_fraction": (
                    shed / (completed + shed) if (completed + shed) else 0.0
                ),
            },
            "latency": {**latency, **_hist_summary(latency_hist)},
            "amplification": _hist_summary(amp_hist),
            "repair": {
                "episodes": repairs,
                "emergency": emergencies,
                "restarts": restarts,
                "edge_work_total": edge_work,
                "convergence": _hist_summary(conv_hist),
            },
            "degradation": {
                "windows": window_dicts,
                "count": len(window_dicts),
                "degraded_ticks": degraded_ticks,
                "open": any(w.end is None for w in windows),
            },
            "alerts": monitor.payload(),
            "verify": {
                "runs": int(tracker.counter("soak.verify.runs")),
                "failures": int(tracker.counter("soak.verify.failures")),
            },
            "churn": {"joins": joins, "crashes": crashes},
            "population": {
                "initial": config.population,
                "final": records[-1]["population"] if records else config.population,
            },
            "metrics": tracker.snapshot(),
        }
        return cls(payload)

    # -- accessors ------------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        return self.payload[key]

    def to_json(self) -> str:
        """Deterministic JSON rendering (the diffable artifact)."""
        return json.dumps(self.payload, sort_keys=True, indent=2)

    def violations(self, p99_hops: Optional[float] = None) -> List[str]:
        """SLO violations: why this run should exit non-zero (if any).

        A run violates its SLO when it ends degraded (an open
        degradation window) or, when a ``p99_hops`` target is given,
        when the p99 flood latency exceeds it.
        """
        problems = []
        if self.payload["final_state"] != HEALTHY:
            problems.append(
                f"service ended {self.payload['final_state']} "
                "(open degradation window)"
            )
        if self.payload["verify"]["failures"]:
            problems.append(
                f"{self.payload['verify']['failures']} invariant "
                "check(s) failed during the run"
            )
        if p99_hops is not None:
            p99 = self.payload["latency"]["p99"]
            if p99 > p99_hops:
                problems.append(
                    f"p99 flood latency {p99} exceeds the SLO of {p99_hops} hops"
                )
        return problems

    def summary(self) -> str:
        """Human-readable digest of the run."""
        p = self.payload
        lat, rep, deg = p["latency"], p["repair"], p["degradation"]
        lines = [
            f"soak: {p['ticks']} tick(s), population "
            f"{p['population']['initial']} -> {p['population']['final']}, "
            f"k={p['config']['k']}, final state {p['final_state']}"
            + (" (TRUNCATED by wall budget)" if p["truncated"] else ""),
            f"  floods   : {p['floods']['completed']} completed, "
            f"{p['floods']['shed']} shed "
            f"({p['floods']['shed_fraction']:.1%}), "
            f"{p['floods']['partial']} partial-coverage",
            f"  latency  : p50={lat['p50']:g} p99={lat['p99']:g} "
            f"p999={lat['p999']:g} max={lat['max']:g} hops",
            f"  amplify  : mean={p['amplification']['mean']:.2f} "
            f"p99={p['amplification']['p99']:g} msgs/covered",
            f"  churn    : {p['churn']['joins']} join(s), "
            f"{p['churn']['crashes']} crash(es)",
            f"  repair   : {rep['episodes']} episode(s), "
            f"{rep['restarts']} restart(s), {rep['emergency']} emergency, "
            f"{rep['edge_work_total']} edges touched",
            f"  degraded : {deg['count']} window(s), "
            f"{deg['degraded_ticks']} tick(s) total"
            + (
                "; convergence p50="
                f"{rep['convergence']['p50']:g} max={rep['convergence']['max']:g}"
                if rep["convergence"]["count"]
                else ""
            ),
            f"  verify   : {p['verify']['runs']} run(s), "
            f"{p['verify']['failures']} failure(s)",
        ]
        alerts = p.get("alerts")
        if alerts is not None:
            spans = ", ".join(
                f"[{a['opened']}..{a['closed'] if a['closed'] is not None else 'open'}]"
                for a in alerts["events"]
            )
            lines.append(
                f"  alerts   : {alerts['count']} burn-rate alert(s)"
                + (f" {spans}" if spans else "")
                + (" — STILL OPEN" if alerts["open"] else "")
            )
        return "\n".join(lines)


class SoakService:
    """The soak harness (see module docstring).

    Parameters
    ----------
    config:
        The :class:`SoakConfig` for this run.
    checkpoint:
        Optional journal path (or :class:`CheckpointJournal`); completed
        ticks are appended durably.
    resume:
        Load the journal and replay its ticks instead of recomputing
        them.  Requires ``checkpoint``.
    metrics:
        Optional :class:`~repro.obs.export.MetricsStream` (or anything
        with the same ``export(snapshot, **stamp)`` shape); live SLO
        snapshots are pushed every ``metrics_every`` ticks.  Runtime
        plumbing, not science: deliberately *not* part of
        :class:`SoakConfig`, so the journal digest — and therefore
        resumability — is unaffected.
    metrics_every:
        Export cadence in ticks (default 10).
    alert_policy:
        Burn-rate :class:`~repro.service.alerts.AlertPolicy`; the
        default policy is used when ``None``.
    """

    def __init__(
        self,
        config: SoakConfig,
        checkpoint: Optional[Union[str, CheckpointJournal]] = None,
        resume: bool = False,
        metrics: Optional[Any] = None,
        metrics_every: int = 10,
        alert_policy: Optional[AlertPolicy] = None,
    ) -> None:
        if metrics_every < 1:
            raise ReproError(
                f"metrics_every must be >= 1 tick, got {metrics_every}"
            )
        self.config = config
        self._digest = config.digest()
        self._journal = open_journal(checkpoint, resume)
        self._guard_journal_config(resume)
        self._metrics = metrics
        self._metrics_every = metrics_every
        self._alert_policy = alert_policy
        self._monitor = BurnRateMonitor(config.k, alert_policy)
        self._live_tracker = (
            SLOTracker(mirror=False) if metrics is not None else None
        )

        self._overlay = LHGOverlay(k=config.k, rule=config.rule)
        self._next_member = 0
        self._state = HEALTHY
        self._degraded_since: Optional[int] = None
        self._degraded_cause: Optional[str] = None
        self._windows: List[DegradationWindow] = []
        self._pending: Tuple[str, ...] = ()
        self._repair_plan: Optional[RepairPlan] = None
        self._repair_progress = 0
        self._repair_restarts = 0
        self._repair_backoff_until = 0
        self._rebuild_only = False
        self._inflight: Dict[int, int] = {}
        self._inflight_count = 0
        self._records: List[Dict[str, Any]] = []
        # replay cursors for the tick currently being processed
        self._cached: Optional[Dict[str, Any]] = None
        self._verify_cursor = 0

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------

    def _guard_journal_config(self, resume: bool) -> None:
        """Refuse to resume a journal written under a different config."""
        if self._journal is None:
            return
        meta_key = checkpoint_key("soak-meta")
        if resume:
            recorded = self._journal.get(meta_key)
            if recorded is not None and recorded.get("digest") != self._digest:
                raise ReproError(
                    f"checkpoint journal {self._journal.path} was written "
                    "by a soak with a different configuration; refusing to "
                    "mix histories (remove the journal to start over)"
                )
            if recorded is None:
                self._journal.record(
                    meta_key, {"digest": self._digest}, label="soak-meta"
                )
        else:
            self._journal.record(
                meta_key, {"digest": self._digest}, label="soak-meta"
            )

    def _tick_key(self, tick: int) -> str:
        return checkpoint_key("soak-tick", self._digest, tick)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self) -> SoakReport:
        """Execute (or resume) the soak; return the merged SLO report."""
        config = self.config
        # max_wall is the one wall-clock read in the service: a safety
        # valve that truncates the loop, never a simulated quantity.
        wall_start = time.monotonic() if config.max_wall is not None else None
        truncated = False
        with obs.span(
            "soak",
            population=config.population,
            k=config.k,
            duration=config.duration,
        ):
            self._bootstrap()
            for tick in range(config.duration):
                cached = (
                    self._journal.get(self._tick_key(tick))
                    if self._journal is not None
                    else None
                )
                record = self._tick(tick, cached)
                if self._journal is not None and cached is None:
                    self._journal.record(
                        self._tick_key(tick), record, label=f"tick-{tick:06d}"
                    )
                self._records.append(record)
                self._observe_tick(tick, record)
                if (
                    wall_start is not None
                    and config.max_wall is not None
                    and time.monotonic() - wall_start > config.max_wall
                    and tick + 1 < config.duration
                ):
                    truncated = True
                    obs.event("soak-truncated", tick=tick)
                    break
        if self._journal is not None:
            self._journal.close()
        windows = list(self._windows)
        if self._state == DEGRADED and self._degraded_since is not None:
            windows.append(
                DegradationWindow(
                    start=self._degraded_since,
                    end=None,
                    cause=self._degraded_cause or "unknown",
                )
            )
        return SoakReport.build(
            self.config,
            self._records,
            windows,
            self._state,
            truncated,
            alert_policy=self._alert_policy,
        )

    def _observe_tick(self, tick: int, record: Dict[str, Any]) -> None:
        """Run the live observability hooks for one completed tick.

        Pure output: feeds the burn-rate monitor (emitting obs events
        on alert transitions) and, when a metrics exporter is attached,
        folds the record into the live tracker and pushes a stamped
        snapshot on the cadence.  Nothing here feeds back into the tick
        loop, so records — and therefore reports — are byte-identical
        with or without exporters.
        """
        transition = self._monitor.observe(record)
        if transition == "open":
            alert = self._monitor.alerts[-1]
            obs.event(
                "alert-open",
                tick=tick,
                causes=list(alert.causes),
                fast_burn=round(self._monitor.fast_burn, 6),
                slow_burn=round(self._monitor.slow_burn, 6),
            )
        elif transition == "close":
            alert = self._monitor.alerts[-1]
            obs.event(
                "alert-close",
                tick=tick,
                opened=alert.opened,
                ticks=tick - alert.opened + 1,
            )
        if self._metrics is None or self._live_tracker is None:
            return
        feed_slo_tracker(self._live_tracker, record)
        last = tick + 1 == self.config.duration
        if (tick + 1) % self._metrics_every == 0 or last:
            snapshot = self._live_tracker.snapshot()
            gauges = snapshot.setdefault("gauges", {})
            gauges.update(self._monitor.snapshot_gauges())
            gauges["soak.population"] = float(record["population"])
            gauges["soak.in_flight"] = float(record["in_flight"])
            gauges["soak.state"] = 1.0 if record["state"] == HEALTHY else 0.0
            self._metrics.export(snapshot, tick=tick, state=record["state"])

    def _bootstrap(self) -> None:
        """Join the initial population (deterministic, not journaled)."""
        with obs.span("soak-bootstrap", population=self.config.population):
            for _ in range(self.config.population):
                self._overlay.join(self._new_member())

    def _new_member(self) -> str:
        name = f"peer-{self._next_member}"
        self._next_member += 1
        return name

    # ------------------------------------------------------------------
    # Tick processing
    # ------------------------------------------------------------------

    def _live_members(self) -> List[str]:
        """Members not awaiting crash repair, in join order."""
        if not self._pending:
            return list(self._overlay.members)
        pending = set(self._pending)
        return [m for m in self._overlay.members if m not in pending]

    def _routing_view(self) -> Union[Graph, FaultView]:
        """What floods route over: the overlay minus pending crashes."""
        topology = self._overlay.topology()
        if self._pending:
            return FaultView(topology, self._pending)
        return topology

    def _tick(
        self, tick: int, cached: Optional[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Process one tick; with ``cached`` set, replay it instead."""
        self._cached = cached
        self._verify_cursor = 0
        rng = random.Random(derive_seed(self.config.seed, "soak-tick", tick))
        record: Dict[str, Any] = {
            "tick": tick,
            "joins": [],
            "crashes": [],
            "floods": [],
            "verify": [],
            "transitions": [],
            "repair": None,
        }

        self._inflight_count -= self._inflight.pop(tick, 0)
        burst = self._draw_churn(tick, rng, record)
        if burst:
            self._absorb_burst(tick, burst, record)
        self._advance_repair(tick, record)
        if (
            (tick + 1) % self.config.verify_every == 0
            and not self._pending
            and not self._rebuild_only
        ):
            self._run_verify(tick, record, reason="cadence")
        with obs.span("soak-floods", tick=tick):
            self._run_floods(tick, rng, record)

        record["state"] = self._state
        record["population"] = self._overlay.size
        record["live"] = self._overlay.size - len(self._pending)
        record["in_flight"] = self._inflight_count
        record["pending_repair"] = len(self._pending)

        if cached is not None and record != cached:
            raise ReproError(
                f"soak resume diverged at tick {tick}: the replayed tick "
                "does not reproduce its journaled record (config/seed "
                "mismatch or determinism bug)"
            )
        self._cached = None
        return record

    # -- churn ----------------------------------------------------------

    def _draw_churn(
        self, tick: int, rng: random.Random, record: Dict[str, Any]
    ) -> List[str]:
        """Draw the tick's joins (applied) and crash burst (returned)."""
        config = self.config
        burst: List[str] = []
        events = poisson_draw(rng, config.churn_rate)
        for _ in range(events):
            live = [m for m in self._live_members() if m not in burst]
            pull = (config.population - len(live)) / max(1, config.population)
            p_join = min(0.95, max(0.05, config.join_bias + 0.5 * pull))
            if len(live) <= 2 * config.k or rng.random() < p_join:
                name = self._new_member()
                self._overlay.join(name)
                record["joins"].append(name)
            else:
                burst.append(live[rng.randrange(len(live))])
        for burst_tick, size in config.bursts:
            if burst_tick != tick:
                continue
            live = [m for m in self._live_members() if m not in burst]
            size = min(size, len(live) - 1)
            for _ in range(max(0, size)):
                burst.append(live.pop(rng.randrange(len(live))))
        record["crashes"] = list(burst)
        return burst

    # -- degradation state machine --------------------------------------

    def _enter_degraded(
        self, tick: int, cause: str, record: Dict[str, Any]
    ) -> None:
        if self._state == DEGRADED:
            return
        self._state = DEGRADED
        self._degraded_since = tick
        self._degraded_cause = cause
        record["transitions"].append({"to": DEGRADED, "cause": cause})
        obs.event("soak-degraded", cause=cause, tick=tick)

    def _exit_degraded(self, tick: int, record: Dict[str, Any]) -> None:
        if self._state != DEGRADED or self._degraded_since is None:
            return
        window = DegradationWindow(
            start=self._degraded_since,
            end=tick,
            cause=self._degraded_cause or "unknown",
        )
        self._windows.append(window)
        record["transitions"].append(
            {"to": HEALTHY, "convergence": window.ticks}
        )
        obs.event("soak-recovered", tick=tick, convergence=window.ticks)
        self._state = HEALTHY
        self._degraded_since = None
        self._degraded_cause = None

    # -- repair controller ----------------------------------------------

    def _absorb_burst(
        self, tick: int, burst: List[str], record: Dict[str, Any]
    ) -> None:
        """Feed one crash burst to the repair controller."""
        config = self.config
        if self._pending or self._rebuild_only:
            # Burst landed mid-repair: the repair restarts (bounded).
            self._repair_restarts += 1
            self._pending = tuple(sorted(set(self._pending) | set(burst)))
            self._repair_plan = None
            self._repair_progress = 0
            self._enter_degraded(tick, "repair-backlog", record)
            if self._repair_restarts > config.repair_retries:
                self._complete_repair(tick, record, emergency=True)
            else:
                delay = min(
                    config.backoff_cap,
                    config.backoff_base * 2 ** (self._repair_restarts - 1),
                )
                self._repair_backoff_until = tick + delay
                obs.event(
                    "soak-repair-restart",
                    tick=tick,
                    restarts=self._repair_restarts,
                    backoff=delay,
                )
            return
        self._pending = tuple(sorted(set(burst)))
        self._repair_plan = None
        self._repair_progress = 0
        self._repair_restarts = 0
        self._repair_backoff_until = tick
        if len(self._pending) > config.k - 1:
            self._enter_degraded(tick, "burst", record)
        elif len(connected_components(self._routing_view())) > 1:
            self._enter_degraded(tick, "partition", record)

    def _advance_repair(self, tick: int, record: Dict[str, Any]) -> None:
        """Spend the tick's edge budget on any pending repair."""
        if not self._pending and not self._rebuild_only:
            return
        if record["repair"] is not None:
            return  # an emergency rebuild already completed this tick
        if tick < self._repair_backoff_until:
            return
        if self._repair_plan is None:
            # kept for _complete_repair, which adopts it if still current
            self._repair_plan = plan_repair(self._overlay, self._pending)
        self._repair_progress += self.config.repair_edge_budget
        if self._repair_progress >= self._repair_plan.total_edge_work:
            self._complete_repair(tick, record, emergency=False)

    def _complete_repair(
        self, tick: int, record: Dict[str, Any], emergency: bool
    ) -> None:
        """Execute the pending repair and prove recovery by re-verifying."""
        report = execute_repair(self._overlay, self._pending, self._repair_plan)
        record["repair"] = {
            "completed": True,
            "burst": report.burst_size,
            "edge_work": report.plan.total_edge_work,
            "emergency": emergency,
            "restarts": self._repair_restarts,
            "connectivity_after": report.connectivity_after,
            "components": list(report.components_before),
            "degraded_burst": report.degraded,
        }
        obs.event(
            "soak-repair-complete",
            tick=tick,
            burst=report.burst_size,
            edge_work=report.plan.total_edge_work,
            emergency=emergency,
        )
        self._pending = ()
        self._repair_plan = None
        self._repair_progress = 0
        self._repair_restarts = 0
        self._rebuild_only = False
        ok = self._run_verify(tick, record, reason="post-repair")
        if ok:
            self._exit_degraded(tick, record)

    # -- invariant checks -----------------------------------------------

    def _run_verify(
        self, tick: int, record: Dict[str, Any], reason: str
    ) -> bool:
        """One Properties-1–4 battery (journal-cached during replay)."""
        cached_entries = (
            self._cached.get("verify") if self._cached is not None else None
        )
        if cached_entries is not None and self._verify_cursor < len(
            cached_entries
        ):
            entry = dict(cached_entries[self._verify_cursor])
        else:
            # both callers run with no crash awaiting repair, so the
            # routing topology is the whole overlay; the check takes the
            # overlay's one full audit per rebuild (shared with a repair
            # just completed), and runs the exact checkers only if that
            # binding fails
            topology, certificate = self._overlay.certified_topology()
            with obs.span("soak-verify", tick=tick, reason=reason) as span:
                violations = check_topology_invariants(
                    topology,
                    self.config.k,
                    expect_lhg=topology.number_of_nodes() >= 2 * self.config.k,
                    certificate=certificate,
                )
                span.set(rule=violations.rule)
            entry = {
                "reason": reason,
                "ok": not violations,
                "violations": [str(v) for v in violations],
            }
        self._verify_cursor += 1
        record["verify"].append(entry)
        if not entry["ok"]:
            obs.event("soak-verify-failed", tick=tick, reason=reason)
            self._enter_degraded(tick, "invariant", record)
            self._rebuild_only = True
            self._repair_backoff_until = tick + 1
        return bool(entry["ok"])

    # -- flood workload -------------------------------------------------

    def _run_floods(
        self, tick: int, rng: random.Random, record: Dict[str, Any]
    ) -> None:
        """Admit, shed and simulate the tick's flood arrivals."""
        config = self.config
        arrivals = poisson_draw(rng, config.flood_rate)
        if arrivals == 0:
            return
        live = self._live_members()
        if not live:
            return
        budget = (
            config.flood_budget
            if self._state == HEALTHY
            else max(1, config.flood_budget // 2)
        )
        cached_floods = (
            self._cached.get("floods") if self._cached is not None else None
        )
        view: Optional[Union[Graph, FaultView]] = None
        for arrival in range(arrivals):
            source = zipf_pick(rng, live, config.zipf_exponent)
            if self._inflight_count >= budget:
                record["floods"].append({"source": source, "shed": True})
                obs.counter("soak.admission.shed")
                continue
            entry: Optional[Dict[str, Any]] = None
            if cached_floods is not None and arrival < len(cached_floods):
                candidate = cached_floods[arrival]
                if not candidate.get("shed"):
                    entry = dict(candidate)
            if entry is None:
                if view is None:
                    view = self._routing_view()
                result = round_flood(view, source)
                entry = {
                    "source": source,
                    "shed": False,
                    "latency": float(result.completion_time or 0),
                    "messages": result.messages,
                    "covered": result.covered,
                    "reachable": result.reachable,
                }
            expiry = tick + max(1, int(math.ceil(entry["latency"])))
            self._inflight[expiry] = self._inflight.get(expiry, 0) + 1
            self._inflight_count += 1
            record["floods"].append(entry)


def run_soak(
    config: SoakConfig,
    checkpoint: Optional[Union[str, CheckpointJournal]] = None,
    resume: bool = False,
    metrics: Optional[Any] = None,
    metrics_every: int = 10,
    alert_policy: Optional[AlertPolicy] = None,
) -> SoakReport:
    """Run one soak end to end; the convenience wrapper the CLI uses."""
    return SoakService(
        config,
        checkpoint=checkpoint,
        resume=resume,
        metrics=metrics,
        metrics_every=metrics_every,
        alert_policy=alert_policy,
    ).run()
