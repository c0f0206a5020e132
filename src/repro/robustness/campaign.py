"""The chaos campaign engine: scenario × protocol × topology sweeps.

A :class:`ChaosCampaign` runs every cell of a grid — each cell is one
simulated dissemination under one adversary — collects a
:class:`CellResult` per run, checks the invariants of
:mod:`repro.robustness.invariants` after every run, and aggregates
everything into a :class:`ResilienceMatrix` that renders as the usual
ASCII table.  Campaigns are deterministic: a cell is a pure function of
(topology, protocol, scenario, seed), so any row of the matrix can be
reproduced in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Hashable, List, Optional, Sequence, Tuple, Union

import repro.obs as obs
from repro.analysis.tables import render_table
from repro.errors import SimulationError
from repro.exec.cache import GRAPH_CACHE, TopologySpec
from repro.exec.checkpoint import CheckpointJournal, checkpoint_key, open_journal
from repro.exec.pool import WorkerPool
from repro.exec.profiling import ExecutionReport
from repro.exec.supervisor import ItemFailure, SupervisorConfig
from repro.flooding.experiments import summarize_run
from repro.flooding.failures import FailureSchedule, apply_schedule, survivors
from repro.flooding.faults import FaultModel, RandomFaultModel
from repro.flooding.network import Network, Protocol
from repro.flooding.protocols.arq import ArqProtocol
from repro.flooding.protocols.reliable import ReliableFloodProtocol
from repro.flooding.rounds import round_flood
from repro.flooding.simulator import Simulator
from repro.flooding.trace import TraceCollector
from repro.graphs.faultview import FaultView
from repro.graphs.graph import Graph
from repro.robustness.invariants import (
    InvariantViolation,
    RunRecord,
    check_invariants,
    recertify_survivors,
)
from repro.robustness.scenarios import Scenario, standard_scenarios

NodeId = Hashable

_EVENT_BUDGET_FACTOR = 60


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol column of the campaign grid.

    Attributes
    ----------
    name:
        Column label.
    factory:
        ``(network, source) -> Protocol`` building a fresh instance.
        Required for the event engine; ignored by the rounds engine.
    guarantees_delivery:
        Whether the coverage invariant is *enforced* for this protocol
        (True for the ARQ-wrapped variant, which claims convergence).
    budget_multiplier:
        Scales the per-run event budget (retransmitting protocols need
        more room than one-shot flooding).
    engine:
        ``"event"`` runs the protocol through the event-driven
        :class:`~repro.flooding.simulator.Simulator`; ``"rounds"``
        runs the synchronous
        :func:`~repro.flooding.rounds.round_flood` engine directly on
        the topology's oracle — no materialization, so it is the only
        arm that scales to oracle-backed million-node specs.
    """

    name: str
    factory: Optional[Callable[[Network, NodeId], Protocol]] = None
    guarantees_delivery: bool = False
    budget_multiplier: int = 1
    engine: str = "event"


def round_flood_protocol(name: str = "round-flood") -> ProtocolSpec:
    """The synchronous round-flooding column of a campaign grid.

    Round flooding over an oracle delivers to every reachable survivor
    by construction (coverage is a theorem of the engine, not a retry
    policy), so the coverage invariant is enforced.
    """
    return ProtocolSpec(
        name=name, factory=None, guarantees_delivery=True, engine="rounds"
    )


def standard_protocols(
    retry_timeout: float = 3.0,
    inner_retries: int = 8,
    base_timeout: float = 2.5,
    backoff: float = 2.0,
    max_timeout: float = 16.0,
    arq_retries: int = 10,
) -> List[ProtocolSpec]:
    """The acceptance pair: plain ReliableFlood vs its ARQ-wrapped form."""

    def plain(network: Network, source: NodeId) -> Protocol:
        return ReliableFloodProtocol(
            network, source, retry_timeout=retry_timeout, max_retries=inner_retries
        )

    def arq_wrapped(network: Network, source: NodeId) -> Protocol:
        return ArqProtocol(
            network,
            ReliableFloodProtocol(
                network,
                source,
                retry_timeout=retry_timeout,
                max_retries=inner_retries,
            ),
            base_timeout=base_timeout,
            backoff=backoff,
            max_timeout=max_timeout,
            max_retries=arq_retries,
        )

    return [
        ProtocolSpec(
            name="reliable-flood",
            factory=plain,
            guarantees_delivery=False,
            budget_multiplier=inner_retries + 2,
        ),
        ProtocolSpec(
            name="arq-reliable-flood",
            factory=arq_wrapped,
            guarantees_delivery=True,
            budget_multiplier=inner_retries + arq_retries + 4,
        ),
    ]


def _monotone(schedule: FailureSchedule) -> bool:
    """True when the schedule only ever removes capacity (no recoveries)."""
    return not schedule.recoveries and not schedule.link_recoveries


def _round_loss(
    spec: ProtocolSpec,
    scenario: Scenario,
    fault_model: Optional[FaultModel],
    seed: int,
) -> Tuple[float, int]:
    """Translate a scenario fault model into round-engine loss knobs.

    The rounds engine models exactly one channel fault: uniform,
    seed-stable message loss.  A :class:`RandomFaultModel` whose profile
    is drop-only (no duplication, no reordering, no per-link overrides)
    maps onto it; any richer adversary raises loudly rather than being
    silently approximated.
    """
    if fault_model is None:
        return 0.0, seed
    profile = getattr(fault_model, "profile", None)
    if (
        isinstance(fault_model, RandomFaultModel)
        and profile is not None
        and profile.duplicate == 0.0
        and profile.reorder == 0.0
        and not getattr(fault_model, "_per_link", None)
    ):
        return profile.drop, getattr(fault_model, "seed", seed)
    raise SimulationError(
        f"scenario {scenario.name!r} uses fault model "
        f"{type(fault_model).__name__}, which the rounds engine of "
        f"protocol {spec.name!r} cannot express (uniform loss only)"
    )


@dataclass(frozen=True)
class CellResult:
    """Outcome of one campaign cell (one run)."""

    topology: str
    scenario: str
    protocol: str
    seed: int
    covered: int
    reachable: int
    delivery_ratio: float
    messages: int
    retransmissions: int
    completion_time: Optional[float]
    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """No invariant violated in this cell."""
        return not self.violations

    @property
    def fully_covered(self) -> bool:
        """The run covered the whole survivor component."""
        return self.covered >= self.reachable


def _cell_payload(cell: CellResult) -> dict:
    """JSON-safe checkpoint payload for one cell (see ``_cell_from_payload``)."""
    return {
        "topology": cell.topology,
        "scenario": cell.scenario,
        "protocol": cell.protocol,
        "seed": cell.seed,
        "covered": cell.covered,
        "reachable": cell.reachable,
        "delivery_ratio": cell.delivery_ratio,
        "messages": cell.messages,
        "retransmissions": cell.retransmissions,
        "completion_time": cell.completion_time,
        "violations": list(cell.violations),
    }


def _cell_from_payload(payload: dict) -> CellResult:
    """Rebuild a :class:`CellResult` from its journal payload.

    The round trip is exact: every field is an int, a str, a tuple of
    str, or a float (JSON floats round-trip via ``repr``), so a resumed
    matrix is byte-identical to the uninterrupted one.
    """
    return CellResult(
        topology=payload["topology"],
        scenario=payload["scenario"],
        protocol=payload["protocol"],
        seed=payload["seed"],
        covered=payload["covered"],
        reachable=payload["reachable"],
        delivery_ratio=payload["delivery_ratio"],
        messages=payload["messages"],
        retransmissions=payload["retransmissions"],
        completion_time=payload["completion_time"],
        violations=tuple(payload["violations"]),
    )


@dataclass
class ResilienceMatrix:
    """All cells of one campaign, with rendering and roll-up queries.

    ``failures`` lists cells the supervised executor quarantined (item
    exhausted its retries); such cells have no :class:`CellResult` row
    and make :attr:`all_green` False.
    """

    cells: List[CellResult] = field(default_factory=list)
    failures: List[ItemFailure] = field(default_factory=list)

    def add(self, cell: CellResult) -> None:
        """Record one cell."""
        self.cells.append(cell)

    @property
    def all_green(self) -> bool:
        """True when no cell violated any invariant and none failed to run."""
        return all(cell.ok for cell in self.cells) and not self.failures

    @property
    def violations(self) -> List[Tuple[CellResult, str]]:
        """Every (cell, violation) pair across the campaign."""
        return [
            (cell, violation)
            for cell in self.cells
            for violation in cell.violations
        ]

    def select(
        self,
        topology: Optional[str] = None,
        scenario: Optional[str] = None,
        protocol: Optional[str] = None,
    ) -> List[CellResult]:
        """Cells matching the given labels (None = wildcard)."""
        return [
            cell
            for cell in self.cells
            if (topology is None or cell.topology == topology)
            and (scenario is None or cell.scenario == scenario)
            and (protocol is None or cell.protocol == protocol)
        ]

    def render(self, title: str = "Chaos campaign resilience matrix") -> str:
        """The matrix as an ASCII table, one row per cell."""
        rows = [
            (
                cell.topology,
                cell.scenario,
                cell.protocol,
                cell.seed,
                f"{cell.covered}/{cell.reachable}",
                f"{cell.delivery_ratio:.2%}",
                cell.messages,
                cell.retransmissions,
                "ok" if cell.ok else ";".join(cell.violations),
            )
            for cell in self.cells
        ]
        table = render_table(
            [
                "topology",
                "scenario",
                "protocol",
                "seed",
                "covered",
                "delivery",
                "msgs",
                "retx",
                "invariants",
            ],
            rows,
            title=title,
        )
        if self.failures:
            lines = [
                table,
                "",
                f"execution failures: {len(self.failures)} cell(s) quarantined",
            ]
            lines.extend(f"  {failure.summary()}" for failure in self.failures)
            table = "\n".join(lines)
        return table


class ChaosCampaign:
    """Sweep a scenario × protocol grid over one or more topologies.

    Parameters
    ----------
    topologies:
        ``(name, graph)`` pairs, or ``(name, TopologySpec)`` pairs to
        have the engine build (and memoize) each topology through the
        shared construction cache
        (:data:`repro.exec.cache.GRAPH_CACHE`); the flood source is
        each graph's first node (override per graph with ``sources``).
    protocols:
        Protocol columns; defaults to :func:`standard_protocols`.
    scenarios:
        Adversary rows; defaults to
        :func:`~repro.robustness.scenarios.standard_scenarios`.
    seeds:
        One full grid pass per seed; every random choice inside a cell
        is derived from its seed, so identical seeds reproduce identical
        matrix rows.
    sources:
        Optional ``{topology_name: source_node}`` overrides.
    """

    def __init__(
        self,
        topologies: Sequence[Tuple[str, Union[Graph, TopologySpec]]],
        protocols: Optional[Sequence[ProtocolSpec]] = None,
        scenarios: Optional[Sequence[Scenario]] = None,
        seeds: Sequence[int] = (0,),
        sources: Optional[dict] = None,
    ) -> None:
        if not topologies:
            raise SimulationError("a campaign needs at least one topology")
        if not seeds:
            raise SimulationError("a campaign needs at least one seed")
        self.topologies = list(topologies)
        self.protocols = list(protocols) if protocols is not None else standard_protocols()
        self.scenarios = (
            list(scenarios) if scenarios is not None else standard_scenarios()
        )
        self.seeds = list(seeds)
        self.sources = dict(sources or {})
        self.last_report: ExecutionReport = ExecutionReport()

    # ------------------------------------------------------------------

    def graph_for(self, topology_name: str):
        """The (possibly cache-resolved) graph behind one topology row.

        ``(name, TopologySpec)`` entries are built through the shared
        construction cache on first use, so every cell — and every
        later campaign over the same spec — reuses one graph instance.

        Raises
        ------
        SimulationError
            If the campaign has no topology of that name.
        """
        for name, entry in self.topologies:
            if name == topology_name:
                return self._resolve(entry)
        known = ", ".join(name for name, _ in self.topologies)
        raise SimulationError(
            f"unknown topology {topology_name!r}; known: {known}"
        )

    @staticmethod
    def _resolve(entry: Union[Graph, TopologySpec]):
        if isinstance(entry, TopologySpec):
            graph, _ = GRAPH_CACHE.resolve(entry)
            return graph
        return entry

    def run_cell(
        self,
        topology_name: str,
        graph,
        spec: ProtocolSpec,
        scenario: Scenario,
        seed: int,
    ) -> CellResult:
        """Run one cell: simulate, summarise, check invariants.

        ``graph`` is the injected pre-built topology; pass ``None`` to
        have the campaign resolve it by name (through the construction
        cache when the topology was given as a spec).
        """
        if graph is None:
            graph = self.graph_for(topology_name)
        if spec.engine == "rounds":
            return self._run_round_cell(topology_name, graph, spec, scenario, seed)
        if spec.engine != "event":
            raise SimulationError(
                f"protocol {spec.name!r} names unknown engine {spec.engine!r}"
            )
        if spec.factory is None:
            raise SimulationError(
                f"protocol {spec.name!r} uses the event engine but has no factory"
            )
        source = self.sources.get(
            topology_name, next(iter(graph.iter_nodes()))
        )
        with obs.span(
            "scenario-build", scenario=scenario.name, topology=topology_name
        ):
            setup = scenario.build(graph, source, seed)
            simulator = Simulator()
            network = Network(graph, simulator, fault_model=setup.fault_model)
            trace = TraceCollector()
            network.add_observer(trace)
            apply_schedule(setup.schedule, network, simulator)
            protocol = spec.factory(network, source)
            network.attach(protocol, start_nodes=[source])
        budget = (
            _EVENT_BUDGET_FACTOR
            * max(1, spec.budget_multiplier)
            * (graph.number_of_nodes() + graph.number_of_edges() + 100)
        )
        budget_exhausted = False
        with obs.span(
            "protocol-run",
            protocol=spec.name,
            scenario=scenario.name,
            topology=topology_name,
            seed=seed,
        ):
            try:
                simulator.run(max_events=budget)
            except SimulationError:
                budget_exhausted = True
        result = summarize_run(
            spec.name, graph, source, setup.schedule, network
        )
        record = RunRecord(
            graph=graph,
            source=source,
            schedule=setup.schedule,
            network=network,
            simulator=simulator,
            trace=trace,
            protocol=protocol,
            result=result,
            budget_exhausted=budget_exhausted,
            guarantees_delivery=spec.guarantees_delivery,
        )
        with obs.span("invariant-check"):
            violations = check_invariants(record)
        obs.counter("campaign.cells")
        if violations:
            obs.counter("campaign.violations", len(violations))
        return CellResult(
            topology=topology_name,
            scenario=scenario.name,
            protocol=spec.name,
            seed=seed,
            covered=result.covered,
            reachable=result.reachable,
            delivery_ratio=result.delivery_ratio,
            messages=result.messages,
            retransmissions=getattr(protocol, "retransmissions", 0),
            completion_time=result.completion_time,
            violations=tuple(str(v) for v in violations),
        )

    def _run_round_cell(
        self,
        topology_name: str,
        graph,
        spec: ProtocolSpec,
        scenario: Scenario,
        seed: int,
    ) -> CellResult:
        """One cell on the synchronous rounds engine (oracle-friendly).

        The scenario's failure schedule drives
        :func:`~repro.flooding.rounds.round_flood` directly on the
        topology's oracle; its fault model is translated to the engine's
        uniform loss knob (anything richer is refused loudly — see
        :func:`_round_loss`).  Afterwards the damaged topology is
        recertified from its :class:`~repro.graphs.faultview.FaultView`
        whenever the topology row was given as a spec (so k is known).

        Coverage is enforced only where it is a theorem: zero loss and
        a monotone schedule (no recoveries).  With recoveries or loss a
        shortfall is data, exactly as for best-effort event protocols.
        """
        source = self.sources.get(
            topology_name, next(iter(graph.iter_nodes()))
        )
        with obs.span(
            "scenario-build", scenario=scenario.name, topology=topology_name
        ):
            setup = scenario.build(graph, source, seed)
        loss_rate, loss_seed = _round_loss(spec, scenario, setup.fault_model, seed)
        with obs.span(
            "protocol-run",
            protocol=spec.name,
            scenario=scenario.name,
            topology=topology_name,
            seed=seed,
        ):
            flood = round_flood(
                graph,
                source,
                schedule=setup.schedule,
                loss_rate=loss_rate,
                loss_seed=loss_seed,
            )
        violations: List[InvariantViolation] = []
        enforce_coverage = (
            spec.guarantees_delivery
            and loss_rate == 0.0
            and _monotone(setup.schedule)
        )
        if enforce_coverage and not flood.fully_covered:
            violations.append(
                InvariantViolation(
                    "coverage",
                    f"covered {flood.covered} of {flood.reachable} "
                    f"reachable survivors",
                )
            )
        topo_spec = self._spec_for(topology_name)
        if topo_spec is not None:
            view = survivors(graph, setup.schedule)
            if isinstance(view, FaultView):
                with obs.span("invariant-check"):
                    violations.extend(recertify_survivors(view, topo_spec.k))
        obs.counter("campaign.cells")
        if violations:
            obs.counter("campaign.violations", len(violations))
        return CellResult(
            topology=topology_name,
            scenario=scenario.name,
            protocol=spec.name,
            seed=seed,
            covered=flood.covered,
            reachable=flood.reachable,
            delivery_ratio=flood.delivery_ratio,
            messages=flood.messages,
            retransmissions=0,
            completion_time=flood.completion_time,
            violations=tuple(str(v) for v in violations),
        )

    def _spec_for(self, topology_name: str) -> Optional[TopologySpec]:
        """The :class:`TopologySpec` behind a topology row, if it has one."""
        for name, entry in self.topologies:
            if name == topology_name and isinstance(entry, TopologySpec):
                return entry
        return None

    def cell_key(
        self, topology_name: str, scenario_name: str, protocol_name: str, seed: int
    ) -> str:
        """Stable checkpoint key for one cell of this campaign's grid.

        The key hashes the topology's *construction identity* — for a
        :class:`TopologySpec` entry its ``(n, k, rule)`` parameters, for
        a pre-built graph its name and size — together with the
        scenario, protocol and seed, via SHA-256
        (:func:`~repro.exec.checkpoint.checkpoint_key`).  Two topology
        entries that collide on display name but differ in parameters
        therefore get distinct keys, never a silent checkpoint hit.
        """
        for name, entry in self.topologies:
            if name == topology_name:
                if isinstance(entry, TopologySpec):
                    # the dict backend keeps its pre-backend identity so
                    # existing checkpoint journals still resume cleanly
                    identity: Tuple = ("spec", entry.n, entry.k, entry.rule)
                    if entry.backend != "dict":
                        identity += (entry.backend,)
                else:
                    identity = (
                        "graph",
                        entry.name,
                        entry.number_of_nodes(),
                        entry.number_of_edges(),
                    )
                return checkpoint_key(
                    "chaos-cell",
                    topology_name,
                    *identity,
                    scenario_name,
                    protocol_name,
                    seed,
                )
        raise SimulationError(f"unknown topology {topology_name!r}")

    def run(
        self,
        workers: Optional[int] = None,
        checkpoint: Optional[Union[str, Path, CheckpointJournal]] = None,
        resume: bool = False,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        supervisor: Optional[SupervisorConfig] = None,
    ) -> ResilienceMatrix:
        """Run every cell of the grid; return the populated matrix.

        Parameters
        ----------
        workers:
            Fan the cells out across this many worker processes via the
            execution engine (:mod:`repro.exec`).  ``None``/``1`` run
            serially.  Cell order in the matrix, and every cell's
            content, are identical for any worker count: each cell is a
            pure function of (topology, protocol, scenario, seed), and
            results are collected positionally.  The per-cell timing and
            cache statistics of the latest run land in
            :attr:`last_report`.
        checkpoint:
            Path of (or an open) append-only
            :class:`~repro.exec.checkpoint.CheckpointJournal`; every
            completed cell is journaled the moment it finishes, so an
            interrupted campaign can be resumed.
        resume:
            Skip cells already present in the checkpoint journal and
            merge them back in grid order — the resumed matrix is
            byte-identical to an uninterrupted run.
        timeout:
            Per-cell wall-clock budget in seconds; an overdue cell's
            worker is SIGKILLed and the cell retried (supervised mode).
        retries:
            Retry attempts per failing cell before it is quarantined as
            an :class:`~repro.exec.supervisor.ItemFailure` in
            ``matrix.failures`` (default 2 once supervision is active).
        supervisor:
            Full :class:`~repro.exec.supervisor.SupervisorConfig` for
            callers needing every knob (fault hooks, backoff shape);
            overrides ``timeout``/``retries``.

        Any of ``checkpoint``/``timeout``/``retries``/``supervisor``
        turns on retries and quarantine (and, with ``timeout``, kills
        hung cells); with none of them the map neither retries nor
        quarantines, and a failing cell or a dead worker aborts it.
        """
        with obs.span(
            "campaign",
            topologies=len(self.topologies),
            scenarios=len(self.scenarios),
            protocols=len(self.protocols),
            seeds=len(self.seeds),
        ) as campaign_span:
            return self._run_grid(
                campaign_span,
                workers=workers,
                checkpoint=checkpoint,
                resume=resume,
                timeout=timeout,
                retries=retries,
                supervisor=supervisor,
            )

    def _run_grid(
        self,
        campaign_span,
        workers: Optional[int],
        checkpoint: Optional[Union[str, Path, CheckpointJournal]],
        resume: bool,
        timeout: Optional[float],
        retries: Optional[int],
        supervisor: Optional[SupervisorConfig],
    ) -> ResilienceMatrix:
        # Resolve every topology once, up front, so spec-given graphs
        # are constructed (and cache-counted) in the parent process and
        # inherited by forked workers instead of rebuilt per cell.
        resolved = []
        for name, entry in self.topologies:
            with obs.span("graph-build", topology=name) as build_span:
                graph = self._resolve(entry)
                build_span.set(
                    n=graph.number_of_nodes(), m=graph.number_of_edges()
                )
            resolved.append((name, graph))
        cells = [
            (topology_name, graph, spec, scenario, seed)
            for topology_name, graph in resolved
            for scenario in self.scenarios
            for spec in self.protocols
            for seed in self.seeds
        ]
        labels = [
            f"{name}/{scenario.name}/{spec.name}/s{seed}"
            for name, _, spec, scenario, seed in cells
        ]
        journal = open_journal(checkpoint, resume)
        keys = None
        done = {}
        if journal is not None:
            keys = [
                self.cell_key(name, scenario.name, spec.name, seed)
                for name, _, spec, scenario, seed in cells
            ]
            for position, key in enumerate(keys):
                payload = journal.get(key)
                if payload is not None:
                    done[position] = _cell_from_payload(payload)
        todo = [i for i in range(len(cells)) if i not in done]
        campaign_span.set(cells=len(cells), resumed=len(done))

        supervised = (
            supervisor is not None
            or journal is not None
            or timeout is not None
            or retries is not None
        )
        config = None
        if supervised:
            config = supervisor or SupervisorConfig(
                timeout=timeout, retries=2 if retries is None else retries
            )
            if journal is not None:
                chained = config.on_result

                def journal_result(position: int, value: object) -> None:
                    if isinstance(value, CellResult):
                        journal.record(
                            keys[todo[position]],
                            _cell_payload(value),
                            label=labels[todo[position]],
                        )
                    if chained is not None:
                        chained(position, value)

                config = replace(config, on_result=journal_result)

        pool = WorkerPool(workers=workers, cache=GRAPH_CACHE, supervisor=config)
        try:
            results = pool.map(
                lambda cell: self.run_cell(*cell),
                [cells[i] for i in todo],
                labels=[labels[i] for i in todo],
            )
        finally:
            if journal is not None:
                journal.close()
        self.last_report = pool.last_report
        matrix = ResilienceMatrix(failures=list(pool.last_report.failures))
        fresh = iter(results)
        for position in range(len(cells)):
            value = done[position] if position in done else next(fresh)
            if isinstance(value, CellResult):
                matrix.add(value)
        return matrix
