"""Failure schedules: crash, link-failure and recovery injection.

A :class:`FailureSchedule` is a declarative list of fault events that
:func:`apply_schedule` installs into a simulator/network pair.  Crashes
use a negative event priority so a crash at time t wins against every
message delivery at time t — the conservative adversary (the protocol
never benefits from a doomed node's last-instant forwarding).
Recoveries use a slightly less negative priority, so at one instant the
order is *crash, recover, deliveries*: a same-time crash+recover pair
leaves the node up, but doomed in-flight traffic still dies.

Builders cover the adversaries the experiments need:

* :func:`crash_before_start` — f nodes dead from time 0 (the paper's
  "resilient to k−1 failures" setting);
* :func:`random_crashes` / :func:`random_link_failures` — seeded random
  choices at a given time;
* :func:`targeted_crashes` — highest-degree-first, the worst-case-ish
  adversary for irregular graphs;
* :func:`minimum_cut_attack` — crash a *minimum node cut* (size k), the
  certified cheapest disconnection, used to show k failures can break
  what k−1 cannot;
* :func:`crash_and_recover` — transient crashes (crash-recovery model);
* :func:`partition` — fail every link crossing a group boundary, with
  an optional heal time;
* :func:`flapping_links` / :func:`random_flapping_links` — periodic
  down/up link cycles.

Adding the same event twice (same node crashed at the same time, same
link failed at the same time) is a no-op — both the chaining methods
and :meth:`FailureSchedule.merged` dedupe, so no redundant simulator
events are ever scheduled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.flooding.network import FAILURE_PRIORITY, RECOVERY_PRIORITY, Network
from repro.flooding.simulator import Simulator
from repro.graphs.connectivity import minimum_node_cut
from repro.graphs.graph import Graph, edge_key

NodeId = Hashable


@dataclass(frozen=True)
class NodeCrash:
    """Crash-stop ``node`` at ``time``."""

    time: float
    node: NodeId


@dataclass(frozen=True)
class NodeRecover:
    """Bring a crashed ``node`` back up at ``time``."""

    time: float
    node: NodeId


@dataclass(frozen=True)
class LinkFailure:
    """Kill link (u, v) at ``time``."""

    time: float
    u: NodeId
    v: NodeId


@dataclass(frozen=True)
class LinkRecover:
    """Restore link (u, v) at ``time``."""

    time: float
    u: NodeId
    v: NodeId


@dataclass
class FailureSchedule:
    """An ordered, duplicate-free bag of failure and recovery events.

    Attributes
    ----------
    incomplete_cut:
        Set by :func:`minimum_cut_attack` when protected nodes were
        dropped from the cut — the remaining crashes are *not*
        guaranteed to disconnect the graph.
    """

    crashes: List[NodeCrash] = field(default_factory=list)
    link_failures: List[LinkFailure] = field(default_factory=list)
    recoveries: List[NodeRecover] = field(default_factory=list)
    link_recoveries: List[LinkRecover] = field(default_factory=list)
    incomplete_cut: bool = False

    def crash(self, node: NodeId, time: float = 0.0) -> "FailureSchedule":
        """Add one crash (deduped); returns self for chaining."""
        event = NodeCrash(time=time, node=node)
        if event not in self.crashes:
            self.crashes.append(event)
        return self

    def recover(self, node: NodeId, time: float = 0.0) -> "FailureSchedule":
        """Add one node recovery (deduped); returns self for chaining."""
        event = NodeRecover(time=time, node=node)
        if event not in self.recoveries:
            self.recoveries.append(event)
        return self

    def _has_link_event(self, events, time: float, u: NodeId, v: NodeId) -> bool:
        key = edge_key(u, v)
        return any(
            e.time == time and edge_key(e.u, e.v) == key for e in events
        )

    def fail_link(self, u: NodeId, v: NodeId, time: float = 0.0) -> "FailureSchedule":
        """Add one link failure (deduped, undirected); returns self."""
        if not self._has_link_event(self.link_failures, time, u, v):
            self.link_failures.append(LinkFailure(time=time, u=u, v=v))
        return self

    def restore_link(
        self, u: NodeId, v: NodeId, time: float = 0.0
    ) -> "FailureSchedule":
        """Add one link recovery (deduped, undirected); returns self."""
        if not self._has_link_event(self.link_recoveries, time, u, v):
            self.link_recoveries.append(LinkRecover(time=time, u=u, v=v))
        return self

    @property
    def crashed_nodes(self) -> Set[NodeId]:
        """All nodes this schedule will crash (at any time)."""
        return {c.node for c in self.crashes}

    def merged(self, other: "FailureSchedule") -> "FailureSchedule":
        """Union of two schedules; duplicate events collapse to one."""
        union = FailureSchedule(
            incomplete_cut=self.incomplete_cut or other.incomplete_cut
        )
        for crash in self.crashes + other.crashes:
            union.crash(crash.node, time=crash.time)
        for failure in self.link_failures + other.link_failures:
            union.fail_link(failure.u, failure.v, time=failure.time)
        for recovery in self.recoveries + other.recoveries:
            union.recover(recovery.node, time=recovery.time)
        for restore in self.link_recoveries + other.link_recoveries:
            union.restore_link(restore.u, restore.v, time=restore.time)
        return union


def apply_schedule(
    schedule: FailureSchedule, network: Network, simulator: Simulator
) -> None:
    """Install every fault event of ``schedule`` into the simulation.

    Failures at time 0 are applied immediately (before any start event),
    matching the "initially dead" interpretation; time-0 recoveries are
    applied right after, so a time-0 crash+recover pair cancels out.
    """
    for crash in schedule.crashes:
        if crash.time <= 0:
            network.crash_node(crash.node)
        else:
            simulator.schedule(
                crash.time,
                lambda node=crash.node: network.crash_node(node),
                priority=FAILURE_PRIORITY,
                label=f"crash:{crash.node!r}",
            )
    for failure in schedule.link_failures:
        if failure.time <= 0:
            network.fail_link(failure.u, failure.v)
        else:
            simulator.schedule(
                failure.time,
                lambda u=failure.u, v=failure.v: network.fail_link(u, v),
                priority=FAILURE_PRIORITY,
                label=f"linkfail:{failure.u!r}-{failure.v!r}",
            )
    for recovery in schedule.recoveries:
        if recovery.time <= 0:
            network.recover_node(recovery.node)
        else:
            simulator.schedule(
                recovery.time,
                lambda node=recovery.node: network.recover_node(node),
                priority=RECOVERY_PRIORITY,
                label=f"recover:{recovery.node!r}",
            )
    for restore in schedule.link_recoveries:
        if restore.time <= 0:
            network.restore_link(restore.u, restore.v)
        else:
            simulator.schedule(
                restore.time,
                lambda u=restore.u, v=restore.v: network.restore_link(u, v),
                priority=RECOVERY_PRIORITY,
                label=f"linkup:{restore.u!r}-{restore.v!r}",
            )


# ----------------------------------------------------------------------
# Schedule builders
# ----------------------------------------------------------------------


def crash_before_start(nodes: Sequence[NodeId]) -> FailureSchedule:
    """Crash the given nodes at time 0."""
    schedule = FailureSchedule()
    for node in nodes:
        schedule.crash(node, time=0.0)
    return schedule


def random_crashes(
    graph: Graph,
    count: int,
    seed: int = 0,
    time: float = 0.0,
    protect: Optional[Set[NodeId]] = None,
) -> FailureSchedule:
    """Crash ``count`` random nodes (never the protected ones).

    Raises
    ------
    SimulationError
        If fewer than ``count`` unprotected nodes exist.
    """
    protected = protect or set()
    eligible = sorted(
        (v for v in graph.nodes() if v not in protected), key=repr
    )
    if count > len(eligible):
        raise SimulationError(
            f"cannot crash {count} of {len(eligible)} eligible nodes"
        )
    chosen = random.Random(seed).sample(eligible, count)
    schedule = FailureSchedule()
    for node in chosen:
        schedule.crash(node, time=time)
    return schedule


def targeted_crashes(
    graph: Graph,
    count: int,
    time: float = 0.0,
    protect: Optional[Set[NodeId]] = None,
) -> FailureSchedule:
    """Crash the ``count`` highest-degree unprotected nodes.

    On k-regular LHGs this coincides with random choice (all degrees are
    equal); on irregular graphs it approximates the worst adversary.

    Raises
    ------
    SimulationError
        If fewer than ``count`` unprotected nodes exist.
    """
    protected = protect or set()
    eligible = [v for v in graph.nodes() if v not in protected]
    if count > len(eligible):
        raise SimulationError(
            f"cannot crash {count} of {len(eligible)} eligible nodes"
        )
    eligible.sort(key=lambda v: (-graph.degree(v), repr(v)))
    schedule = FailureSchedule()
    for node in eligible[:count]:
        schedule.crash(node, time=time)
    return schedule


def random_link_failures(
    graph: Graph, count: int, seed: int = 0, time: float = 0.0
) -> FailureSchedule:
    """Kill ``count`` random links at ``time``.

    Raises
    ------
    SimulationError
        If the graph has fewer than ``count`` links.
    """
    edges = sorted(graph.edges(), key=lambda e: (repr(e[0]), repr(e[1])))
    if count > len(edges):
        raise SimulationError(f"cannot fail {count} of {len(edges)} links")
    chosen = random.Random(seed).sample(edges, count)
    schedule = FailureSchedule()
    for u, v in chosen:
        schedule.fail_link(u, v, time=time)
    return schedule


def minimum_cut_attack(
    graph: Graph, protect: Optional[Set[NodeId]] = None
) -> FailureSchedule:
    """Crash a certified minimum node cut at time 0.

    On a k-connected graph this is the cheapest possible disconnection —
    exactly k crashes.  Used by the resilience experiments to show the
    cliff at f = k.  If the cut intersects ``protect``, the protected
    nodes are withheld and the schedule's ``incomplete_cut`` flag is set
    ``True``: the remaining crashes form a *sub-cut* that may no longer
    disconnect the graph, and callers must not assume partition.

    Raises
    ------
    GraphError
        Propagated from :func:`minimum_node_cut` for degenerate graphs.
    """
    cut = minimum_node_cut(graph)
    protected = protect or set()
    allowed = [v for v in cut if v not in protected]
    schedule = crash_before_start(sorted(allowed, key=repr))
    schedule.incomplete_cut = len(allowed) < len(cut)
    return schedule


def crash_and_recover(
    nodes: Sequence[NodeId], crash_at: float, recover_at: float
) -> FailureSchedule:
    """Crash ``nodes`` at ``crash_at`` and bring them back at ``recover_at``.

    The crash-recovery fault model: nodes keep their protocol state
    across the outage but miss every message sent while down.

    Raises
    ------
    SimulationError
        If ``recover_at`` is not after ``crash_at``.
    """
    if recover_at <= crash_at:
        raise SimulationError(
            f"recovery at {recover_at} must come after the crash at {crash_at}"
        )
    schedule = FailureSchedule()
    for node in nodes:
        schedule.crash(node, time=crash_at)
        schedule.recover(node, time=recover_at)
    return schedule


def partition(
    graph: Graph,
    groups: Sequence[Iterable[NodeId]],
    at: float = 0.0,
    heal_at: Optional[float] = None,
) -> FailureSchedule:
    """Partition the network into ``groups`` at time ``at``.

    Every topology link whose endpoints fall in *different* groups
    fails at ``at``; with ``heal_at`` set, all of them are restored at
    that time (the transient-partition adversary).  Nodes not listed in
    any group keep all their links.

    Raises
    ------
    SimulationError
        If a node appears in more than one group, or ``heal_at`` is not
        after ``at``.
    """
    if heal_at is not None and heal_at <= at:
        raise SimulationError(
            f"heal time {heal_at} must come after the partition at {at}"
        )
    group_of = {}
    for index, group in enumerate(groups):
        for node in group:
            if node in group_of:
                raise SimulationError(f"node {node!r} appears in two groups")
            group_of[node] = index
    schedule = FailureSchedule()
    cut: Set[frozenset] = set()
    # walk the listed nodes' neighbourhoods instead of enumerating all
    # edges: works on any NeighborOracle and touches only the groups;
    # each cut link is met from both ends and kept at the first
    for u, side_u in group_of.items():
        for v in graph.neighbors(u):
            side_v = group_of.get(v)
            if side_v is None or side_u == side_v:
                continue
            key = edge_key(u, v)
            if key in cut:
                continue
            cut.add(key)
            schedule.link_failures.append(LinkFailure(time=at, u=u, v=v))
            if heal_at is not None:
                schedule.link_recoveries.append(
                    LinkRecover(time=heal_at, u=u, v=v)
                )
    return schedule


def bisect_groups(
    graph: Graph, source: NodeId
) -> Tuple[List[NodeId], List[NodeId]]:
    """Deterministically split the nodes into two halves for :func:`partition`.

    Nodes are ordered by BFS distance from ``source`` (ties broken by
    ``repr``), so the source-side half is connected and the cut runs
    through the BFS frontier — the geometrically natural partition.
    """
    from repro.graphs.traversal import bfs_levels

    levels = bfs_levels(graph, source)
    ordered = sorted(graph.nodes(), key=lambda v: (levels.get(v, len(levels)), repr(v)))
    half = max(1, len(ordered) // 2)
    return ordered[:half], ordered[half:]


def flapping_links(
    links: Sequence[Tuple[NodeId, NodeId]],
    period: float,
    down_for: float,
    start: float = 0.0,
    cycles: int = 1,
) -> FailureSchedule:
    """Flap each link: down at ``start + i*period``, up ``down_for`` later.

    Raises
    ------
    SimulationError
        If the timing parameters do not describe disjoint down windows.
    """
    if cycles < 1:
        raise SimulationError(f"cycles must be >= 1, got {cycles}")
    if down_for <= 0 or period <= down_for:
        raise SimulationError(
            f"need 0 < down_for < period, got down_for={down_for} period={period}"
        )
    schedule = FailureSchedule()
    for cycle in range(cycles):
        down_at = start + cycle * period
        for u, v in links:
            schedule.fail_link(u, v, time=down_at)
            schedule.restore_link(u, v, time=down_at + down_for)
    return schedule


def random_flapping_links(
    graph: Graph,
    count: int,
    period: float,
    down_for: float,
    start: float = 0.0,
    cycles: int = 1,
    seed: int = 0,
) -> FailureSchedule:
    """Flap ``count`` seeded-random links of ``graph``.

    Raises
    ------
    SimulationError
        If the graph has fewer than ``count`` links, or the timing is
        invalid (see :func:`flapping_links`).
    """
    edges = sorted(graph.edges(), key=lambda e: (repr(e[0]), repr(e[1])))
    if count > len(edges):
        raise SimulationError(f"cannot flap {count} of {len(edges)} links")
    chosen = random.Random(seed).sample(edges, count)
    return flapping_links(
        chosen, period=period, down_for=down_for, start=start, cycles=cycles
    )


def _final_down_nodes(schedule: FailureSchedule) -> Set[NodeId]:
    """Nodes still down once every event of ``schedule`` has fired."""
    return _still_down(
        ((c.node, c.time) for c in schedule.crashes),
        ((r.node, r.time) for r in schedule.recoveries),
    )


def _final_down_links(schedule: FailureSchedule) -> Set[frozenset]:
    """Links still down once every event of ``schedule`` has fired."""
    return _still_down(
        ((edge_key(f.u, f.v), f.time) for f in schedule.link_failures),
        ((edge_key(r.u, r.v), r.time) for r in schedule.link_recoveries),
    )


def _still_down(
    downs: Iterable[Tuple[Hashable, float]], ups: Iterable[Tuple[Hashable, float]]
) -> Set[Hashable]:
    """The keys whose last down time beats every up time, in one pass each.

    Ties go to recovery, matching RECOVERY_PRIORITY > FAILURE_PRIORITY.
    """
    last_down: Dict[Hashable, float] = {}
    for key, time in downs:
        if key not in last_down or time > last_down[key]:
            last_down[key] = time
    down = set(last_down)
    for key, time in ups:
        if key in down and time >= last_down[key]:
            down.discard(key)
    return down


def survivors(graph, schedule: FailureSchedule):
    """The topology as seen after all of ``schedule`` has struck.

    Removes nodes and links that are down *in the schedule's final
    state* — a crash (or link failure) followed by a later recovery
    leaves the node (link) in the survivor graph.  This is the ground
    truth the metrics layer uses to compute *reachable* coverage.

    Mutable dict-of-sets :class:`Graph` inputs return a cut-down
    ``Graph`` copy, as always.  Read-only oracle backends (CSR,
    implicit JD, another view) return a lazy
    :class:`~repro.graphs.faultview.FaultView` instead — O(#failures)
    state, so million-node survivor topologies cost nothing to build.
    """
    down_nodes = _final_down_nodes(schedule)
    down_links = _final_down_links(schedule)
    if not hasattr(graph, "without_nodes"):
        from repro.graphs.faultview import FaultView

        return FaultView(graph, down_nodes, down_links)
    remaining = graph.without_nodes(down_nodes & set(graph.nodes()))
    for key in down_links:
        endpoints = sorted(key, key=repr)
        if len(endpoints) == 2 and remaining.has_edge(*endpoints):
            remaining.remove_edge(*endpoints)
    return remaining
