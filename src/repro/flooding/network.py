"""Network model: topology + latency + crash state + protocol plumbing.

A :class:`Network` binds a topology graph to a
:class:`~repro.flooding.simulator.Simulator` and a latency model, and
delivers messages between protocol instances.  The model matches the
paper's setting:

* **crash-stop nodes** — a crashed node neither forwards nor receives,
  exactly the failures Properties 1–2 guard against;
* **fail-stop links** — a failed link silently drops traffic in both
  directions;
* **asynchronous links** — per-message latency drawn from a pluggable
  :class:`LatencyModel`; the default unit latency makes simulated time
  equal hop count, which is what the paper's diameter claims are about.

Beyond the paper's adversary the network also supports *recoverable*
faults (:meth:`Network.recover_node` / :meth:`Network.restore_link`
undo a crash / link failure — a recovered node keeps its protocol state
but any traffic sent while it was down is gone) and message-level
faults via a pluggable :class:`~repro.flooding.faults.FaultModel` on
the transmit path that can drop, duplicate, or extra-delay (reorder)
individual messages per link.

Protocols implement the :class:`Protocol` interface; the network calls
``on_start`` / ``on_message`` and exposes a narrow :class:`NodeApi` so a
protocol can only do what a real process could (read its own neighbour
list, send, set timers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.errors import ProtocolError, SimulationError
from repro.flooding.faults import FaultModel
from repro.flooding.simulator import Simulator
from repro.graphs.graph import edge_key
from repro.graphs.oracle import NeighborOracle, oracle_has_edge, oracle_nodes

NodeId = Hashable

FAILURE_PRIORITY = -10  # crashes at time t beat deliveries at time t
RECOVERY_PRIORITY = -5  # recoveries at time t beat deliveries, lose to crashes


class LatencyModel:
    """Base class: per-message link latency.

    Stateless models implement :meth:`sample`.  Models that need the
    wall clock (e.g. store-and-forward queueing) override
    :meth:`sample_at`; the default delegates to :meth:`sample`.
    """

    def sample(self, u: NodeId, v: NodeId) -> float:
        """Latency for one message crossing link (u, v)."""
        raise NotImplementedError

    def sample_at(self, u: NodeId, v: NodeId, now: float) -> float:
        """Latency for a message entering link (u, v) at time ``now``."""
        return self.sample(u, v)


class ConstantLatency(LatencyModel):
    """Every link takes exactly ``value`` time units (default 1 hop)."""

    def __init__(self, value: float = 1.0) -> None:
        if value <= 0:
            raise SimulationError(f"latency must be positive, got {value}")
        self.value = value

    def sample(self, u: NodeId, v: NodeId) -> float:
        return self.value


class UniformLatency(LatencyModel):
    """Latency uniform in [low, high]; deterministic in the seed."""

    def __init__(self, low: float, high: float, seed: int = 0) -> None:
        if not 0 < low <= high:
            raise SimulationError(f"need 0 < low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high
        self._rng = random.Random(seed)

    def sample(self, u: NodeId, v: NodeId) -> float:
        return self._rng.uniform(self.low, self.high)


class ExponentialLatency(LatencyModel):
    """Heavy-ish tailed latency: ``base + Exp(mean)``, seed-deterministic."""

    def __init__(self, base: float = 0.1, mean: float = 1.0, seed: int = 0) -> None:
        if base <= 0 or mean <= 0:
            raise SimulationError("base and mean must be positive")
        self.base = base
        self.mean = mean
        self._rng = random.Random(seed)

    def sample(self, u: NodeId, v: NodeId) -> float:
        return self.base + self._rng.expovariate(1.0 / self.mean)


class FixedLinkLatency(LatencyModel):
    """Fixed per-link latencies from a weight function.

    Unlike :class:`UniformLatency` (fresh draw per message), every
    message on a given link takes the *same* time — the model under
    which flooding completion time equals the source's **weighted
    eccentricity**, which the test suite cross-validates against an
    independent Dijkstra implementation
    (:mod:`repro.graphs.weighted`).
    """

    def __init__(self, weight_fn) -> None:
        self._weight = weight_fn

    def sample(self, u: NodeId, v: NodeId) -> float:
        value = self._weight(u, v)
        if value <= 0:
            raise SimulationError(f"link weight must be positive, got {value}")
        return value


class BandwidthLatency(LatencyModel):
    """Store-and-forward links with finite bandwidth.

    Each directed link serialises one message per ``service`` time
    units; messages entering a busy link queue behind it (FIFO).  Every
    message additionally pays ``propagation`` flight time.  Under this
    model a node's *degree* throttles how fast it can fan a burst of
    messages out — which is why edge-minimal k-regular topologies are
    the right shape for broadcast throughput (experiment T6).
    """

    def __init__(self, service: float = 1.0, propagation: float = 0.1) -> None:
        if service <= 0 or propagation < 0:
            raise SimulationError(
                "service must be positive and propagation non-negative"
            )
        self.service = service
        self.propagation = propagation
        self._busy_until: Dict[Tuple[NodeId, NodeId], float] = {}

    def sample(self, u: NodeId, v: NodeId) -> float:  # pragma: no cover
        raise SimulationError(
            "BandwidthLatency is stateful; the network uses sample_at"
        )

    def sample_at(self, u: NodeId, v: NodeId, now: float) -> float:
        start = max(now, self._busy_until.get((u, v), 0.0))
        finish = start + self.service
        self._busy_until[(u, v)] = finish
        return (finish - now) + self.propagation


class Protocol:
    """Interface a dissemination protocol implements (one instance per run).

    The same instance serves every node; per-node state should be keyed
    by node id.  Methods receive a :class:`NodeApi` scoped to the node.
    """

    def on_start(self, node: NodeId, api: "NodeApi") -> None:
        """Called once per alive node at its start time."""

    def on_message(
        self, node: NodeId, payload: Any, sender: NodeId, api: "NodeApi"
    ) -> None:
        """Called on each delivered message."""

    def on_timer(self, node: NodeId, tag: Any, api: "NodeApi") -> None:
        """Called when a timer set via :meth:`NodeApi.set_timer` fires."""


@dataclass
class NetworkStats:
    """Counters the network maintains during a run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    per_node_sent: Dict[NodeId, int] = field(default_factory=dict)

    def as_counters(self) -> Dict[str, int]:
        """The totals under their telemetry counter names.

        Harvested once per finished run by ``obs.record_network`` —
        the simulator hot path carries no per-message instrumentation.
        """
        return {
            "net.send": self.messages_sent,
            "net.deliver": self.messages_delivered,
            "net.drop": self.messages_dropped,
        }


class NodeApi:
    """The capabilities a protocol instance has at one node."""

    def __init__(self, network: "Network", node: NodeId) -> None:
        self._network = network
        self._node = node

    @property
    def node(self) -> NodeId:
        """The node this API is scoped to."""
        return self._node

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._network.simulator.now

    def neighbors(self) -> List[NodeId]:
        """Topology neighbours (alive or not — a real process cannot tell)."""
        return sorted(self._network.graph.neighbors(self._node), key=repr)

    def send(self, to: NodeId, payload: Any) -> None:
        """Send a message over the link to ``to``.

        Raises
        ------
        ProtocolError
            If ``to`` is not a topology neighbour (LHG flooding is
            neighbour-to-neighbour only).
        """
        self._network.transmit(self._node, to, payload)

    def set_timer(self, delay: float, tag: Any) -> None:
        """Schedule ``on_timer(node, tag)`` after ``delay`` time units."""
        self._network.set_timer(self._node, delay, tag)


class Network:
    """Simulated crash-prone message-passing network over a topology.

    Parameters
    ----------
    graph:
        The (static) topology — any
        :class:`~repro.graphs.oracle.NeighborOracle` (a dict-of-sets
        ``Graph``, a compact ``CSRGraph``, or the implicit JD oracle).
        Failures hide nodes/links dynamically without mutating it.
    simulator:
        The event engine driving the run.
    latency:
        Per-message latency model; defaults to one unit per hop.
    fault_model:
        Optional :class:`~repro.flooding.faults.FaultModel` consulted on
        every transmission; can drop, duplicate, or extra-delay copies.
        Composes with ``loss_rate`` (the legacy i.i.d. loss is applied
        first).
    """

    def __init__(
        self,
        graph: NeighborOracle,
        simulator: Simulator,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
        fault_model: Optional[FaultModel] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(
                f"loss rate must be in [0, 1), got {loss_rate}"
            )
        self.graph = graph
        self.simulator = simulator
        self.latency = latency or ConstantLatency(1.0)
        self.loss_rate = loss_rate
        self._loss_rng = random.Random(loss_seed)
        self.fault_model = fault_model
        self.stats = NetworkStats()
        self._protocol: Optional[Protocol] = None
        self._crashed: Set[NodeId] = set()
        self._dead_links: Set[frozenset] = set()
        self._apis: Dict[NodeId, NodeApi] = {}
        self.delivery_times: Dict[NodeId, float] = {}
        self._observers: List[Any] = []

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def add_observer(self, observer: Any) -> None:
        """Register an event observer.

        Two ship with the package: the
        :class:`~repro.flooding.trace.TraceCollector` debugging record,
        and the streaming
        :class:`~repro.robustness.invariants.DeadDeliveryWatch` every
        chaos campaign cell attaches for its no-dead-delivery check.
        Observers receive ``observer(kind, time, **details)`` calls for
        kinds ``"send"``, ``"deliver"``, ``"drop"``, ``"crash"``,
        ``"recover"``, ``"link-down"`` and ``"link-up"``.  Observation
        never alters the simulation.
        """
        self._observers.append(observer)

    def _notify(self, kind: str, **details: Any) -> None:
        if self._observers:
            now = self.simulator.now
            for observer in self._observers:
                observer(kind, now, **details)

    # ------------------------------------------------------------------
    # Failure state
    # ------------------------------------------------------------------

    def crash_node(self, node: NodeId) -> None:
        """Crash-stop ``node`` effective immediately.

        Idempotent: crashing an already-crashed node is a no-op (no
        duplicate ``crash`` event reaches observers).
        """
        if node in self._crashed:
            return
        self._crashed.add(node)
        self._notify("crash", node=node)

    def recover_node(self, node: NodeId) -> None:
        """Bring a crashed ``node`` back up (no-op if it is alive).

        The node resumes with whatever protocol state it had — the
        crash-recovery model, not a fresh join.  Messages and timers
        that targeted it while down stay lost.
        """
        if node not in self._crashed:
            return
        self._crashed.discard(node)
        self._notify("recover", node=node)

    def fail_link(self, u: NodeId, v: NodeId) -> None:
        """Silently kill the link (u, v) in both directions.

        Idempotent: re-failing a dead link is a no-op.
        """
        key = edge_key(u, v)
        if key in self._dead_links:
            return
        self._dead_links.add(key)
        self._notify("link-down", u=u, v=v)

    def restore_link(self, u: NodeId, v: NodeId) -> None:
        """Bring a failed link back up (no-op if it is already up).

        Messages dropped while the link was down stay lost; traffic
        sent after restoration flows normally.
        """
        key = edge_key(u, v)
        if key not in self._dead_links:
            return
        self._dead_links.discard(key)
        self._notify("link-up", u=u, v=v)

    def is_alive(self, node: NodeId) -> bool:
        """Whether ``node`` is currently up."""
        return node not in self._crashed

    def is_link_up(self, u: NodeId, v: NodeId) -> bool:
        """Whether the link (u, v) currently carries traffic."""
        return edge_key(u, v) not in self._dead_links

    @property
    def crashed_nodes(self) -> Set[NodeId]:
        """Snapshot of crashed node ids."""
        return set(self._crashed)

    # ------------------------------------------------------------------
    # Protocol plumbing
    # ------------------------------------------------------------------

    def attach(self, protocol: Protocol, start_nodes: Optional[List[NodeId]] = None) -> None:
        """Install a protocol and schedule ``on_start`` for the given nodes.

        ``start_nodes`` defaults to every node; starts fire at time 0.

        Raises
        ------
        SimulationError
            If a protocol is already attached.
        """
        if self._protocol is not None:
            raise SimulationError("a protocol is already attached to this network")
        self._protocol = protocol
        targets = start_nodes if start_nodes is not None else oracle_nodes(self.graph)
        for node in targets:
            self._apis[node] = NodeApi(self, node)
            self.simulator.schedule(
                0.0, self._make_start(node), label=f"start:{node!r}"
            )

    def _api(self, node: NodeId) -> NodeApi:
        api = self._apis.get(node)
        if api is None:
            api = NodeApi(self, node)
            self._apis[node] = api
        return api

    def _make_start(self, node: NodeId):
        def fire() -> None:
            if self.is_alive(node) and self._protocol is not None:
                self._protocol.on_start(node, self._api(node))

        return fire

    def transmit(self, sender: NodeId, receiver: NodeId, payload: Any) -> None:
        """Queue a message for delivery (called via :meth:`NodeApi.send`).

        A message is dropped if the link is/was killed, or if the sender
        crashed before the call, or the receiver is down at *delivery*
        time (crash-stop semantics on both ends).

        Raises
        ------
        ProtocolError
            If ``receiver`` is not adjacent to ``sender`` in the topology.
        """
        if not oracle_has_edge(self.graph, sender, receiver):
            raise ProtocolError(
                f"{sender!r} tried to send to non-neighbour {receiver!r}"
            )
        if not self.is_alive(sender) or not self.is_link_up(sender, receiver):
            self.stats.messages_dropped += 1
            self._notify(
                "drop", sender=sender, receiver=receiver, reason="dead-endpoint"
            )
            return
        if self.loss_rate and self._loss_rng.random() < self.loss_rate:
            # independent per-message loss; the message is "sent" (the
            # sender pays for it) but never delivered
            self.stats.messages_sent += 1
            self.stats.per_node_sent[sender] = (
                self.stats.per_node_sent.get(sender, 0) + 1
            )
            self.stats.messages_dropped += 1
            self._notify("send", sender=sender, receiver=receiver, payload=payload)
            self._notify("drop", sender=sender, receiver=receiver, reason="loss")
            return
        self.stats.messages_sent += 1
        self.stats.per_node_sent[sender] = (
            self.stats.per_node_sent.get(sender, 0) + 1
        )
        self._notify("send", sender=sender, receiver=receiver, payload=payload)
        if self.fault_model is not None:
            # one extra-delay entry per copy to deliver; [] = dropped
            copies = self.fault_model.copies(sender, receiver)
        else:
            copies = (0.0,)
        if not copies:
            self.stats.messages_dropped += 1
            self._notify("drop", sender=sender, receiver=receiver, reason="fault")
            return
        delay = self.latency.sample_at(sender, receiver, self.simulator.now)

        def deliver() -> None:
            if not self.is_alive(receiver) or not self.is_link_up(sender, receiver):
                self.stats.messages_dropped += 1
                self._notify(
                    "drop", sender=sender, receiver=receiver, reason="dead-receiver"
                )
                return
            self.stats.messages_delivered += 1
            self._notify("deliver", sender=sender, receiver=receiver, payload=payload)
            assert self._protocol is not None
            self._protocol.on_message(receiver, payload, sender, self._api(receiver))

        for extra in copies:
            if extra < 0:
                raise SimulationError(f"fault-model delay must be >= 0, got {extra}")
            self.simulator.schedule_after(delay + extra, deliver, label="msg")

    def set_timer(self, node: NodeId, delay: float, tag: Any) -> None:
        """Schedule a protocol timer at ``node``."""

        def fire() -> None:
            if self.is_alive(node) and self._protocol is not None:
                self._protocol.on_timer(node, tag, self._api(node))

        self.simulator.schedule_after(delay, fire, label="timer")

    def mark_delivered(self, node: NodeId) -> None:
        """Record first payload delivery at ``node`` (protocols call this)."""
        self.delivery_times.setdefault(node, self.simulator.now)
