"""High-level experiment runners: one call = one simulated dissemination.

The unit of this module is the :class:`ExperimentSpec` — a frozen,
declarative description of one run (protocol name, topology, source,
seed, parameters) — and the single dispatcher
:func:`run_experiment(spec) <run_experiment>` that executes it and
returns a :class:`RunSummary`.  One spec type instead of a dozen
near-identical runner signatures is what lets the execution engine
(:mod:`repro.exec`) fan a grid of runs across worker processes: a spec
is plain data, a cell is ``run_experiment`` applied to it, and the
result is a pure function of the spec.

The historical per-protocol runners (:func:`run_flood`,
:func:`run_gossip`, :func:`run_treecast`, :func:`run_unicast`,
:func:`run_echo`, :func:`run_reliable_flood`, :func:`run_arq_flood`, …)
remain the convenient call-site API — each is now a thin shim that
builds a spec and delegates to the dispatcher, returning exactly what
it always returned.  They are the API the benchmarks, examples and
integration tests share, so every number in EXPERIMENTS.md traces back
to one of these runners.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import repro.obs as obs
from repro.errors import SimulationError
from repro.flooding.failures import FailureSchedule, apply_schedule, survivors
from repro.flooding.faults import FaultModel
from repro.flooding.metrics import FloodResult, ResultAggregate, reachable_from
from repro.flooding.network import LatencyModel, Network
from repro.flooding.protocols.flood import FloodProtocol
from repro.flooding.protocols.gossip import PushGossipProtocol
from repro.flooding.protocols.treecast import TreeCastProtocol
from repro.flooding.simulator import Simulator
from repro.graphs.graph import Graph

NodeId = Hashable

# Generous ceiling: flooding sends < 2m messages, gossip fanout*rounds*n.
_EVENT_BUDGET_FACTOR = 50


def _event_budget(graph) -> int:
    from repro.graphs.oracle import oracle_num_edges

    return _EVENT_BUDGET_FACTOR * (
        graph.num_nodes() + oracle_num_edges(graph) + 100
    )


def _freeze_items(value: Any) -> Tuple[Tuple[str, Any], ...]:
    """Normalize a mapping / item-iterable to a sorted item tuple."""
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = tuple(value)
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run.

    Attributes
    ----------
    protocol:
        Registered experiment name (see :func:`experiment_names`), e.g.
        ``"flood"``, ``"gossip"``, ``"arq-flood"``.
    graph:
        The topology to run on.
    source:
        Originating node (protocol-specific meaning; ``None`` for
        experiments that derive it from parameters, e.g. unicast takes
        its source from the routed path).
    seed:
        Protocol-level randomness seed (gossip peer sampling etc.).
    failures / latency / loss_rate / loss_seed / fault_model:
        The adversary and network model, shared by every protocol.
    params:
        Protocol-specific parameters as a sorted item tuple (mappings
        passed to the constructor are normalized automatically), e.g.
        ``{"fanout": 3, "rounds": 12}`` for gossip.
    """

    protocol: str
    graph: Graph
    source: Optional[NodeId] = None
    seed: int = 0
    failures: Optional[FailureSchedule] = None
    latency: Optional[LatencyModel] = None
    loss_rate: float = 0.0
    loss_seed: int = 0
    fault_model: Optional[FaultModel] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_items(self.params))

    def param(self, name: str, default: Any = None) -> Any:
        """Look one protocol-specific parameter up."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def params_dict(self) -> Dict[str, Any]:
        """The protocol-specific parameters as a fresh dict."""
        return dict(self.params)

    def with_params(self, **overrides: Any) -> "ExperimentSpec":
        """A copy of this spec with parameters merged in."""
        merged = self.params_dict
        merged.update(overrides)
        return ExperimentSpec(
            protocol=self.protocol,
            graph=self.graph,
            source=self.source,
            seed=self.seed,
            failures=self.failures,
            latency=self.latency,
            loss_rate=self.loss_rate,
            loss_seed=self.loss_seed,
            fault_model=self.fault_model,
            params=merged,
        )


@dataclass(frozen=True)
class RunSummary:
    """What one executed spec produced.

    ``result`` is the :class:`FloodResult` for coverage-style protocols
    (``None`` for point-to-point and report-style experiments);
    ``metrics`` carries protocol-specific extras as a sorted item tuple
    (``delivered_at`` and ``hops`` for unicast, ``completed`` and
    ``aggregate`` for echo, …).  Summaries are plain, comparable data —
    two identical specs must yield equal summaries, which is what the
    parallel-determinism tests pin down.
    """

    protocol: str
    result: Optional[FloodResult] = None
    metrics: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", _freeze_items(self.metrics))

    def metric(self, name: str, default: Any = None) -> Any:
        """Look one protocol-specific metric up."""
        for key, value in self.metrics:
            if key == name:
                return value
        return default

    @property
    def metrics_dict(self) -> Dict[str, Any]:
        """The metrics as a fresh dict."""
        return dict(self.metrics)


# ----------------------------------------------------------------------
# Dispatch machinery
# ----------------------------------------------------------------------

# name -> handler(spec) -> (RunSummary, raw protocol/report object)
_HANDLERS: Dict[str, Callable[[ExperimentSpec], Tuple[RunSummary, Any]]] = {}


def _handler(name: str):
    def register(fn):
        _HANDLERS[name] = fn
        return fn

    return register


def experiment_names() -> Tuple[str, ...]:
    """Every protocol name :func:`run_experiment` can dispatch."""
    return tuple(sorted(_HANDLERS))


def run_experiment(spec: ExperimentSpec) -> RunSummary:
    """Execute one :class:`ExperimentSpec` and summarize it.

    This is the single entry point the execution engine fans out:
    ``pool.map(run_experiment, specs)`` runs a whole grid.

    Raises
    ------
    SimulationError
        For unknown protocol names, vacuous setups (source crashed at
        start) or exceeded event budgets.
    """
    summary, _ = _execute(spec)
    return summary


def _execute(spec: ExperimentSpec) -> Tuple[RunSummary, Any]:
    handler = _HANDLERS.get(spec.protocol)
    if handler is None:
        known = ", ".join(experiment_names())
        raise SimulationError(
            f"unknown experiment protocol {spec.protocol!r}; known: {known}"
        )
    with obs.span(
        "protocol-run",
        protocol=spec.protocol,
        n=spec.graph.num_nodes(),
        seed=spec.seed,
    ):
        return handler(spec)


def _schedule(spec: ExperimentSpec) -> FailureSchedule:
    return spec.failures or FailureSchedule()


def _guard_source(spec: ExperimentSpec, schedule: FailureSchedule, word: str) -> None:
    if any(c.node == spec.source and c.time <= 0 for c in schedule.crashes):
        raise SimulationError(f"the {word} source is crashed at start")


def _network(
    spec: ExperimentSpec,
    simulator: Simulator,
    schedule: Optional[FailureSchedule],
    latency: bool = True,
    loss: bool = True,
    faults: bool = True,
) -> Network:
    """Build the network a spec describes and apply its schedule."""
    network = Network(
        spec.graph,
        simulator,
        latency=spec.latency if latency else None,
        loss_rate=spec.loss_rate if loss else 0.0,
        loss_seed=spec.loss_seed if loss else 0,
        fault_model=spec.fault_model if faults else None,
    )
    if schedule is not None:
        apply_schedule(schedule, network, simulator)
    return network


def summarize_run(
    protocol_name: str,
    graph: Graph,
    source: NodeId,
    schedule: FailureSchedule,
    network: Network,
) -> FloodResult:
    """Condense one finished simulation into a :class:`FloodResult`.

    The coverage denominator is the survivor component: nodes reachable
    from ``source`` in the topology left by the schedule's *final*
    state (crashed-and-recovered nodes count as survivors).  Shared by
    the runners below and the chaos campaign engine
    (:mod:`repro.robustness`).
    """
    obs.record_network(network)
    alive_graph = survivors(graph, schedule)
    reachable = reachable_from(alive_graph, source)
    covered = {
        node for node in network.delivery_times if network.is_alive(node)
    }
    times = {
        node: t for node, t in network.delivery_times.items() if node in covered
    }
    completion = max(times.values()) if times else None
    return FloodResult(
        protocol=protocol_name,
        n=graph.number_of_nodes(),
        alive=alive_graph.number_of_nodes(),
        reachable=len(reachable),
        covered=len(covered),
        messages=network.stats.messages_sent,
        completion_time=completion,
        delivery_times=times,
    )


def _coverage_summary(
    spec: ExperimentSpec,
    name: str,
    schedule: FailureSchedule,
    network: Network,
    protocol: Any,
) -> Tuple[RunSummary, Any]:
    result = summarize_run(name, spec.graph, spec.source, schedule, network)
    return RunSummary(protocol=spec.protocol, result=result), protocol


# ----------------------------------------------------------------------
# Experiment handlers (one per protocol name)
# ----------------------------------------------------------------------


@_handler("flood")
def _exec_flood(spec: ExperimentSpec) -> Tuple[RunSummary, Any]:
    schedule = _schedule(spec)
    _guard_source(spec, schedule, "flood")
    simulator = Simulator()
    network = _network(spec, simulator, schedule)
    protocol = FloodProtocol(network, spec.source)
    network.attach(protocol, start_nodes=[spec.source])
    simulator.run(max_events=_event_budget(spec.graph))
    return _coverage_summary(spec, "flood", schedule, network, protocol)


@_handler("gossip")
def _exec_gossip(spec: ExperimentSpec) -> Tuple[RunSummary, Any]:
    schedule = _schedule(spec)
    _guard_source(spec, schedule, "gossip")
    fanout = spec.param("fanout", 2)
    rounds = spec.param("rounds", 16)
    simulator = Simulator()
    network = _network(spec, simulator, schedule, faults=False)
    protocol = PushGossipProtocol(
        network, spec.source, fanout=fanout, rounds=rounds, seed=spec.seed
    )
    network.attach(protocol, start_nodes=spec.graph.nodes())
    simulator.run(max_events=_event_budget(spec.graph) * max(1, rounds))
    return _coverage_summary(spec, "gossip", schedule, network, protocol)


@_handler("treecast")
def _exec_treecast(spec: ExperimentSpec) -> Tuple[RunSummary, Any]:
    schedule = _schedule(spec)
    _guard_source(spec, schedule, "treecast")
    simulator = Simulator()
    network = _network(spec, simulator, schedule, faults=False)
    protocol = TreeCastProtocol(network, spec.graph, spec.source)
    network.attach(protocol, start_nodes=[spec.source])
    simulator.run(max_events=_event_budget(spec.graph))
    return _coverage_summary(spec, "treecast", schedule, network, protocol)


@_handler("unicast")
def _exec_unicast(spec: ExperimentSpec) -> Tuple[RunSummary, Any]:
    from repro.flooding.protocols.unicast import SourceRoutedUnicast

    schedule = _schedule(spec)
    simulator = Simulator()
    network = _network(spec, simulator, schedule, loss=False, faults=False)
    protocol = SourceRoutedUnicast(network, spec.param("path"))
    network.attach(protocol, start_nodes=[protocol.source])
    simulator.run(max_events=_event_budget(spec.graph))
    summary = RunSummary(
        protocol=spec.protocol,
        metrics={
            "delivered_at": protocol.delivered_at,
            "hops": protocol.hops_taken,
        },
    )
    return summary, protocol


@_handler("redundant-unicast")
def _exec_redundant_unicast(spec: ExperimentSpec) -> Tuple[RunSummary, Any]:
    from repro.flooding.protocols.unicast import RedundantUnicast

    schedule = _schedule(spec)
    simulator = Simulator()
    network = _network(spec, simulator, schedule, loss=False, faults=False)
    protocol = RedundantUnicast(network, spec.param("paths"))
    network.attach(protocol, start_nodes=[protocol.source])
    simulator.run(max_events=_event_budget(spec.graph))
    summary = RunSummary(
        protocol=spec.protocol,
        metrics={
            "delivered_at": protocol.delivered_at,
            "copies": protocol.copies_received,
            "messages": protocol.messages_sent,
        },
    )
    return summary, protocol


@_handler("echo")
def _exec_echo(spec: ExperimentSpec) -> Tuple[RunSummary, Any]:
    from repro.flooding.protocols.echo import EchoProtocol

    schedule = _schedule(spec)
    _guard_source(spec, schedule, "echo")
    simulator = Simulator()
    network = _network(spec, simulator, schedule, loss=False, faults=False)
    protocol = EchoProtocol(
        network,
        spec.source,
        value_of=spec.param("value_of", lambda node: 1),
        combine=spec.param("combine", lambda a, b: a + b),
    )
    network.attach(protocol, start_nodes=[spec.source])
    simulator.run(max_events=_event_budget(spec.graph))
    summary = RunSummary(
        protocol=spec.protocol,
        metrics={
            "completed": protocol.completed,
            "aggregate": protocol.aggregate,
        },
    )
    return summary, protocol


@_handler("reliable-flood")
def _exec_reliable_flood(spec: ExperimentSpec) -> Tuple[RunSummary, Any]:
    from repro.flooding.protocols.reliable import ReliableFloodProtocol

    schedule = _schedule(spec)
    _guard_source(spec, schedule, "flood")
    max_retries = spec.param("max_retries", 8)
    simulator = Simulator()
    network = _network(spec, simulator, schedule, latency=False)
    protocol = ReliableFloodProtocol(
        network,
        spec.source,
        retry_timeout=spec.param("retry_timeout", 3.0),
        max_retries=max_retries,
    )
    network.attach(protocol, start_nodes=[spec.source])
    simulator.run(max_events=_event_budget(spec.graph) * (max_retries + 2))
    return _coverage_summary(spec, "reliable-flood", schedule, network, protocol)


@_handler("arq-flood")
def _exec_arq_flood(spec: ExperimentSpec) -> Tuple[RunSummary, Any]:
    from repro.flooding.protocols.arq import ArqProtocol
    from repro.flooding.protocols.reliable import ReliableFloodProtocol

    schedule = _schedule(spec)
    _guard_source(spec, schedule, "flood")
    max_retries = spec.param("max_retries", 10)
    inner_retries = spec.param("inner_retries", 8)
    simulator = Simulator()
    network = _network(spec, simulator, schedule)
    inner = ReliableFloodProtocol(
        network,
        spec.source,
        retry_timeout=spec.param("retry_timeout", 3.0),
        max_retries=inner_retries,
    )
    protocol = ArqProtocol(
        network,
        inner,
        base_timeout=spec.param("base_timeout", 2.5),
        backoff=spec.param("backoff", 2.0),
        max_timeout=spec.param("max_timeout", 16.0),
        max_retries=max_retries,
    )
    network.attach(protocol, start_nodes=[spec.source])
    simulator.run(
        max_events=_event_budget(spec.graph) * (max_retries + inner_retries + 4)
    )
    return _coverage_summary(spec, "arq-reliable-flood", schedule, network, protocol)


@_handler("broadcast-stream")
def _exec_broadcast_stream(spec: ExperimentSpec) -> Tuple[RunSummary, Any]:
    from repro.flooding.protocols.flood import StreamFloodProtocol

    count = spec.param("count", 1)
    simulator = Simulator()
    network = _network(spec, simulator, None, loss=False, faults=False)
    protocol = StreamFloodProtocol(
        network, spec.source, count, interval=spec.param("interval", 0.0)
    )
    network.attach(protocol, start_nodes=[spec.source])
    simulator.run(max_events=_event_budget(spec.graph) * max(1, count))
    summary = RunSummary(
        protocol=spec.protocol,
        metrics={
            "makespan": protocol.makespan(),
            "fully_covered": protocol.fully_covered(
                spec.graph.number_of_nodes()
            ),
            "messages": network.stats.messages_sent,
        },
    )
    return summary, protocol


@_handler("failure-detection")
def _exec_failure_detection(spec: ExperimentSpec) -> Tuple[RunSummary, Any]:
    from repro.flooding.protocols.heartbeat import HeartbeatProtocol

    crashed = tuple(spec.param("crashed", ()))
    crash_time = spec.param("crash_time", 0.0)
    schedule = FailureSchedule()
    for victim in crashed:
        schedule.crash(victim, time=crash_time)
    simulator = Simulator()
    network = _network(spec, simulator, schedule, faults=False)
    protocol = HeartbeatProtocol(
        network,
        period=spec.param("period", 1.0),
        timeout=spec.param("timeout", 3.5),
        horizon=spec.param("horizon", 40.0),
    )
    network.attach(protocol)
    simulator.run(max_events=10_000_000)
    report = protocol.detection_report(set(crashed), crash_time)
    summary = RunSummary(protocol=spec.protocol, metrics={"report": report})
    return summary, report


@_handler("view-change")
def _exec_view_change(spec: ExperimentSpec) -> Tuple[RunSummary, Any]:
    from repro.flooding.protocols.viewchange import ViewChangeProtocol

    # insertion-ordered dedup: crash-event order must follow the spec,
    # not a set's hash order, so traces replay identically everywhere
    crashed = list(dict.fromkeys(spec.param("crashed", ())))
    crash_time = spec.param("crash_time", 0.0)
    if spec.source in crashed:
        raise SimulationError("coordinator fail-over is not modelled")
    schedule = FailureSchedule()
    for victim in crashed:
        schedule.crash(victim, time=crash_time)
    simulator = Simulator()
    network = _network(spec, simulator, schedule, loss=False, faults=False)
    protocol = ViewChangeProtocol(
        network,
        spec.source,
        period=spec.param("period", 1.0),
        timeout=spec.param("timeout", 3.5),
        decision_delay=spec.param("decision_delay", 2.0),
        horizon=spec.param("horizon", 60.0),
    )
    network.attach(protocol)
    simulator.run(max_events=20_000_000)
    report = protocol.convergence_report(set(crashed), crash_time)
    summary = RunSummary(protocol=spec.protocol, metrics={"report": report})
    return summary, report


# ----------------------------------------------------------------------
# Per-protocol runner shims (the historical convenience API)
# ----------------------------------------------------------------------


def run_flood(
    graph: Graph,
    source: NodeId,
    failures: Optional[FailureSchedule] = None,
    latency: Optional[LatencyModel] = None,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
    fault_model: Optional[FaultModel] = None,
) -> FloodResult:
    """Flood ``graph`` from ``source`` under a failure schedule.

    Raises
    ------
    SimulationError
        If the source is scheduled to crash at time 0 (the experiment
        would be vacuous) or the event budget is exceeded.
    """
    spec = ExperimentSpec(
        protocol="flood",
        graph=graph,
        source=source,
        failures=failures,
        latency=latency,
        loss_rate=loss_rate,
        loss_seed=loss_seed,
        fault_model=fault_model,
    )
    return run_experiment(spec).result


def run_gossip(
    graph: Graph,
    source: NodeId,
    fanout: int = 2,
    rounds: int = 16,
    failures: Optional[FailureSchedule] = None,
    latency: Optional[LatencyModel] = None,
    seed: int = 0,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
) -> FloodResult:
    """Push-gossip ``graph`` from ``source`` (probabilistic baseline)."""
    spec = ExperimentSpec(
        protocol="gossip",
        graph=graph,
        source=source,
        seed=seed,
        failures=failures,
        latency=latency,
        loss_rate=loss_rate,
        loss_seed=loss_seed,
        params={"fanout": fanout, "rounds": rounds},
    )
    return run_experiment(spec).result


def run_treecast(
    graph: Graph,
    source: NodeId,
    failures: Optional[FailureSchedule] = None,
    latency: Optional[LatencyModel] = None,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
) -> FloodResult:
    """Broadcast over a precomputed BFS spanning tree (fragile baseline)."""
    spec = ExperimentSpec(
        protocol="treecast",
        graph=graph,
        source=source,
        failures=failures,
        latency=latency,
        loss_rate=loss_rate,
        loss_seed=loss_seed,
    )
    return run_experiment(spec).result


def run_unicast(
    graph: Graph,
    path,
    failures: Optional[FailureSchedule] = None,
    latency: Optional[LatencyModel] = None,
) -> Tuple[Optional[float], int]:
    """Send one source-routed unicast along ``path``.

    Returns ``(delivery_time, hops_taken)``; the time is ``None`` when a
    failure severed the route.
    """
    spec = ExperimentSpec(
        protocol="unicast",
        graph=graph,
        failures=failures,
        latency=latency,
        params={"path": path},
    )
    summary = run_experiment(spec)
    return summary.metric("delivered_at"), summary.metric("hops")


def run_redundant_unicast(
    graph: Graph,
    paths,
    failures: Optional[FailureSchedule] = None,
    latency: Optional[LatencyModel] = None,
) -> Tuple[Optional[float], int, int]:
    """Send one unicast along several disjoint paths simultaneously.

    Returns ``(first_delivery_time, copies_received, messages_sent)``.
    """
    spec = ExperimentSpec(
        protocol="redundant-unicast",
        graph=graph,
        failures=failures,
        latency=latency,
        params={"paths": paths},
    )
    summary = run_experiment(spec)
    return (
        summary.metric("delivered_at"),
        summary.metric("copies"),
        summary.metric("messages"),
    )


def run_failure_detection(
    graph: Graph,
    crashed,
    crash_time: float,
    period: float = 1.0,
    timeout: float = 3.5,
    horizon: float = 40.0,
    latency: Optional[LatencyModel] = None,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
):
    """Run the heartbeat detector against a timed crash set.

    Returns a
    :class:`~repro.flooding.protocols.heartbeat.DetectionReport`.
    """
    spec = ExperimentSpec(
        protocol="failure-detection",
        graph=graph,
        latency=latency,
        loss_rate=loss_rate,
        loss_seed=loss_seed,
        params={
            "crashed": tuple(crashed),
            "crash_time": crash_time,
            "period": period,
            "timeout": timeout,
            "horizon": horizon,
        },
    )
    return run_experiment(spec).metric("report")


def run_broadcast_stream(
    graph: Graph,
    source: NodeId,
    count: int,
    latency: Optional[LatencyModel] = None,
    interval: float = 0.0,
):
    """Flood ``count`` messages back-to-back; return (makespan, covered, msgs).

    ``covered`` is True when every message reached every node.  Pair
    with :class:`~repro.flooding.network.BandwidthLatency` to measure
    sustained broadcast throughput (experiment T6).
    """
    spec = ExperimentSpec(
        protocol="broadcast-stream",
        graph=graph,
        source=source,
        latency=latency,
        params={"count": count, "interval": interval},
    )
    summary = run_experiment(spec)
    return (
        summary.metric("makespan"),
        summary.metric("fully_covered"),
        summary.metric("messages"),
    )


def run_echo(
    graph: Graph,
    source: NodeId,
    failures: Optional[FailureSchedule] = None,
    latency: Optional[LatencyModel] = None,
    value_of=lambda node: 1,
    combine=lambda a, b: a + b,
):
    """Run flood-and-echo (PIF) from ``source``.

    Returns the :class:`~repro.flooding.protocols.echo.EchoProtocol`
    instance so callers can inspect completion, the aggregate, the
    implicit spanning tree, and pending echoes (under failures the
    protocol legitimately never completes).

    Raises
    ------
    SimulationError
        If the source is crashed at start.
    """
    spec = ExperimentSpec(
        protocol="echo",
        graph=graph,
        source=source,
        failures=failures,
        latency=latency,
        params={"value_of": value_of, "combine": combine},
    )
    _, protocol = _execute(spec)
    return protocol


def run_reliable_flood(
    graph: Graph,
    source: NodeId,
    failures: Optional[FailureSchedule] = None,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
    retry_timeout: float = 3.0,
    max_retries: int = 8,
    fault_model: Optional[FaultModel] = None,
) -> FloodResult:
    """Flood with per-link ACK/retransmission over lossy links.

    Raises
    ------
    SimulationError
        If the source is crashed at start.
    """
    spec = ExperimentSpec(
        protocol="reliable-flood",
        graph=graph,
        source=source,
        failures=failures,
        loss_rate=loss_rate,
        loss_seed=loss_seed,
        fault_model=fault_model,
        params={"retry_timeout": retry_timeout, "max_retries": max_retries},
    )
    return run_experiment(spec).result


def run_arq_flood(
    graph: Graph,
    source: NodeId,
    failures: Optional[FailureSchedule] = None,
    latency: Optional[LatencyModel] = None,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
    fault_model: Optional[FaultModel] = None,
    base_timeout: float = 2.5,
    backoff: float = 2.0,
    max_timeout: float = 16.0,
    max_retries: int = 10,
    retry_timeout: float = 3.0,
    inner_retries: int = 8,
) -> FloodResult:
    """Reliable flooding *wrapped in the generic ARQ layer*.

    The inner protocol is
    :class:`~repro.flooding.protocols.reliable.ReliableFloodProtocol`
    (parameters ``retry_timeout`` / ``inner_retries``); every inner send
    rides an :class:`~repro.flooding.protocols.arq.ArqProtocol` frame
    with exponential backoff, so coverage converges through flapping
    links, transient partitions and crash-recovery outages that exhaust
    the inner protocol's fixed retry window.

    Raises
    ------
    SimulationError
        If the source is crashed at start.
    """
    spec = ExperimentSpec(
        protocol="arq-flood",
        graph=graph,
        source=source,
        failures=failures,
        latency=latency,
        loss_rate=loss_rate,
        loss_seed=loss_seed,
        fault_model=fault_model,
        params={
            "base_timeout": base_timeout,
            "backoff": backoff,
            "max_timeout": max_timeout,
            "max_retries": max_retries,
            "retry_timeout": retry_timeout,
            "inner_retries": inner_retries,
        },
    )
    return run_experiment(spec).result


def run_view_change(
    graph: Graph,
    coordinator: NodeId,
    crashed,
    crash_time: float,
    period: float = 1.0,
    timeout: float = 3.5,
    decision_delay: float = 2.0,
    horizon: float = 60.0,
    latency: Optional[LatencyModel] = None,
):
    """Run the in-band view-change pipeline against a timed crash burst.

    Returns a
    :class:`~repro.flooding.protocols.viewchange.ViewChangeReport`.

    Raises
    ------
    SimulationError
        If the coordinator is among the crashed set (fail-over is out of
        scope for this protocol).
    """
    spec = ExperimentSpec(
        protocol="view-change",
        graph=graph,
        source=coordinator,
        latency=latency,
        params={
            "crashed": tuple(crashed),
            "crash_time": crash_time,
            "period": period,
            "timeout": timeout,
            "decision_delay": decision_delay,
            "horizon": horizon,
        },
    )
    return run_experiment(spec).metric("report")


# ----------------------------------------------------------------------
# Batch execution: many specs through the (supervised) engine
# ----------------------------------------------------------------------


def run_experiments(
    specs: Sequence[ExperimentSpec],
    workers: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    checkpoint: Any = None,
    resume: bool = False,
) -> Sequence[RunSummary]:
    """Execute a batch of specs through the execution engine.

    The batch equivalent of ``pool.map(run_experiment, specs)`` with the
    engine's fault-tolerance knobs attached:

    * ``workers`` fans the batch across processes (results identical to
      the serial loop for any count);
    * ``timeout`` / ``retries`` run the batch supervised — a crashed,
      hung or raising run is retried with deterministic backoff, and a
      run that exhausts its retries raises
      :class:`~repro.errors.ExecutionError` with the remote traceback;
    * ``checkpoint`` / ``resume`` journal each completed summary to an
      append-only JSONL file so an interrupted batch resumes without
      recomputation, byte-identical to an uninterrupted one.  Journal
      keys cover each spec's position and its whole content — protocol,
      topology, source, seeds, failure schedule, protocol parameters and
      the pickled latency and fault models as they stand before the
      batch runs — so a journal never answers for a different spec.
    """
    from repro.exec.checkpoint import checkpoint_key, pack_pickle
    from repro.exec.pool import journaled_map

    specs = list(specs)
    if labels is None:
        labels = [f"{spec.protocol}/{i}" for i, spec in enumerate(specs)]

    def spec_key(item: Tuple[int, ExperimentSpec]) -> str:
        index, spec = item
        return checkpoint_key(
            "experiment",
            index,
            spec.protocol,
            spec.graph.name,
            spec.graph.number_of_nodes(),
            spec.graph.number_of_edges(),
            spec.source,
            spec.seed,
            spec.loss_rate,
            spec.loss_seed,
            spec.failures,
            spec.params,
            pack_pickle(spec.latency),
            pack_pickle(spec.fault_model),
        )

    results, _, _ = journaled_map(
        lambda item: run_experiment(item[1]),
        list(enumerate(specs)),
        labels,
        spec_key,
        workers=workers,
        checkpoint=checkpoint,
        resume=resume,
        timeout=timeout,
        retries=retries,
    )
    return results


# ----------------------------------------------------------------------
# Repetition harness
# ----------------------------------------------------------------------

# runner -> (protocol name, names of runner kwargs that map onto spec
# fields rather than protocol params)
_SPEC_FIELD_KWARGS = ("failures", "latency", "loss_rate", "loss_seed", "fault_model")
_RUNNER_PROTOCOLS: Dict[Any, str] = {}


def _register_runner_protocols() -> None:
    _RUNNER_PROTOCOLS.update(
        {
            run_flood: "flood",
            run_gossip: "gossip",
            run_treecast: "treecast",
            run_reliable_flood: "reliable-flood",
            run_arq_flood: "arq-flood",
        }
    )


_register_runner_protocols()


def _spec_for_runner(
    runner, graph: Graph, source: NodeId, schedule, kwargs: Dict[str, Any]
) -> ExperimentSpec:
    """Convert a (runner, kwargs) call into the equivalent spec."""
    protocol = _RUNNER_PROTOCOLS[runner]
    fields = {k: v for k, v in kwargs.items() if k in _SPEC_FIELD_KWARGS}
    params = {
        k: v
        for k, v in kwargs.items()
        if k not in _SPEC_FIELD_KWARGS and k != "seed"
    }
    return ExperimentSpec(
        protocol=protocol,
        graph=graph,
        source=source,
        seed=kwargs.get("seed", 0),
        failures=schedule,
        params=params,
        **{k: v for k, v in fields.items() if k != "failures"},
    )


def repeat_runs(
    runner,
    graph: Graph,
    source: NodeId,
    schedule_factory,
    repetitions: int,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    checkpoint: Any = None,
    resume: bool = False,
    **runner_kwargs,
) -> ResultAggregate:
    """Run ``runner`` over seeded failure schedules and aggregate.

    Parameters
    ----------
    runner:
        One of the five registered runners: :func:`run_flood`,
        :func:`run_gossip`, :func:`run_treecast`,
        :func:`run_reliable_flood` or :func:`run_arq_flood`.  Each call
        becomes the equivalent :class:`ExperimentSpec`, and the batch
        runs through :func:`run_experiments`; any other runner raises
        :class:`ValueError`.
    schedule_factory:
        ``seed -> FailureSchedule`` (or ``None`` for failure-free runs).
    repetitions:
        Number of seeds (0, 1, 2, …).
    workers:
        Fan the repetitions out across this many worker processes via
        the execution engine (:mod:`repro.exec`).  ``None``/``1`` run
        the same ``run_experiment(spec)`` calls serially; any value
        yields results identical to the serial loop (schedules are
        derived per seed in the parent, and every run is a pure
        function of its spec).
    timeout / retries / checkpoint / resume:
        Fault-tolerance knobs forwarded to :func:`run_experiments`:
        per-repetition wall-clock budget, bounded retries, and
        journal-based resume of interrupted repetition batches.
    runner_kwargs:
        Extra keyword arguments forwarded to the runner; a name the
        runner does not take raises :class:`TypeError`.  For
        :func:`run_gossip` a ``seed`` kwarg is injected per repetition
        unless already fixed by the caller; likewise a fresh
        ``loss_seed`` is injected per repetition whenever a non-zero
        ``loss_rate`` is requested without a pinned seed.
    """
    if runner not in _RUNNER_PROTOCOLS:
        raise ValueError(
            "repeat_runs needs a registered runner "
            "(run_flood, run_gossip, run_treecast, run_reliable_flood, "
            "run_arq_flood)"
        )
    # specs take any parameter, so the runner's signature checks them
    inspect.signature(runner).bind(graph, source, **runner_kwargs)
    inject_seed = runner is run_gossip and "seed" not in runner_kwargs
    inject_loss_seed = (
        runner_kwargs.get("loss_rate", 0.0) and "loss_seed" not in runner_kwargs
    )

    specs = []
    for seed in range(repetitions):
        schedule = schedule_factory(seed) if schedule_factory else None
        kwargs = dict(runner_kwargs)
        if inject_seed:
            kwargs["seed"] = seed
        if inject_loss_seed:
            kwargs["loss_seed"] = seed
        specs.append(_spec_for_runner(runner, graph, source, schedule, kwargs))

    summaries = run_experiments(
        specs,
        workers=workers,
        labels=[f"{spec.protocol}/rep{i}" for i, spec in enumerate(specs)],
        timeout=timeout,
        retries=retries,
        checkpoint=checkpoint,
        resume=resume,
    )
    aggregate = ResultAggregate()
    for summary in summaries:
        aggregate.add(summary.result)
    return aggregate
