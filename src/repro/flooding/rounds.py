"""Synchronous-round flooding over any ``NeighborOracle``.

The discrete-event simulator (:mod:`repro.flooding.simulator`) prices
every message as a scheduled closure — perfect for latency models,
faults and chaos, but at n = 10⁶ a single flood would hold millions of
in-flight events at once.  Under **unit latency** the event semantics
collapse to synchronous rounds: every node first covered in round r
forwards in round r + 1, so a frontier-by-frontier sweep reproduces
the exact coverage, message count and completion time of
:class:`~repro.flooding.protocols.flood.FloodProtocol` on the default
network — which the test suite pins — while holding only the current
frontier.

Message accounting matches the protocol exactly:

* the source sends to **all** of its neighbours (``deg(source)``);
* every other covered node forwards on first receipt to every
  neighbour except the sender (``deg(v) − 1``);
* duplicate receipts trigger nothing.

With no failures, completion time (in hops) equals the number of
rounds — the source's eccentricity in its component.

**Failure schedules.**  :func:`round_flood` also takes a
:class:`~repro.flooding.failures.FailureSchedule`, replayed with the
event simulator's exact tie-breaking (at one instant: failures, then
recoveries, then deliveries — see ``FAILURE_PRIORITY``):

* a send at round r is silently dropped (never counted) when the link
  is already down at r — the sender cannot use a link it has lost;
* a counted message dies in flight when its receiver is down or its
  link is down at delivery time r + 1;
* crashed-then-recovered nodes miss everything sent while they were
  down but can be covered by a later frontier.

The result's ``covered``/``completion_time`` count only nodes alive in
the schedule's *final* state and ``alive``/``reachable`` come from the
survivor topology (a lazy :class:`~repro.graphs.faultview.FaultView`)
— byte-identical to the event simulator's
:class:`~repro.flooding.metrics.FloodResult` under the same schedule,
which ``tests/test_faultview.py`` pins over the small census.

**Loss.**  ``loss_rate`` applies seed-stable *per-round batched*
Bernoulli sampling: round r draws from
``random.Random(derive_seed(loss_seed, "round-flood-loss", r))`` in
deterministic frontier order.  Lost messages are counted as sent and
die in flight, matching the event simulator's cost model — but the
draw *order* is round-batched rather than event-interleaved, so loss
runs are reproducible against this engine, not against the event
simulator.

**One engine.**  Visited state lives in one marks store
(:func:`~repro.graphs.faultview.visit_marks`): a flat ``bytearray``
for dense-int oracles (a label-free :class:`~repro.graphs.csr.CSRGraph`,
the :class:`~repro.graphs.implicit.ImplicitJDOracle`, a
:class:`~repro.graphs.faultview.FaultView` over either — ~1 byte per
node beyond the frontier lists), a ``dict`` over every node for any
other labels.  Replaying the schedule writes crashes into the same store:
0 unseen, 1 covered, 2 down and never covered; a recovery resets 2 to
0.  Only *careful* senders — endpoints of scheduled link events, or
every node when ``loss_rate > 0`` — go message by message, with
sender suppression, send- and delivery-time link checks and the loss
draws.  Every other node is billed ``deg(v) − 1`` in bulk: none of its
links ever fails, so its copies reach exactly the unseen, live
neighbours.

``reachable`` is the BFS of the final survivor view, except for a
*static* schedule — every event at t ≤ 0, no recoveries or restores,
no loss — where the flood itself walked that view and
``reachable == covered``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Set

from repro.errors import NodeNotFoundError, SimulationError
from repro.flooding.failures import (
    FailureSchedule,
    _final_down_links,
    _final_down_nodes,
)
from repro.graphs.faultview import FaultView, component_size, visit_marks
from repro.graphs.oracle import NeighborOracle, oracle_has_node

NodeId = Hashable


@dataclass(frozen=True)
class RoundFloodResult:
    """Outcome of one synchronous-round flood.

    ``messages``, ``covered`` and ``completion_time`` equal the
    event-driven flood's message count, alive coverage and completion
    time under unit latency with the same failure schedule.  Without
    failures ``covered == reachable`` and ``alive == n`` (flooding
    fills its component).
    """

    source: NodeId
    n: int
    covered: int
    messages: int
    rounds: int
    round_sizes: List[int]
    alive: int
    reachable: int

    @property
    def fully_covered(self) -> bool:
        """True when every reachable survivor got the payload."""
        return self.covered >= self.reachable

    @property
    def delivery_ratio(self) -> float:
        """covered / reachable (1.0 when nothing was reachable)."""
        if not self.reachable:
            return 1.0
        return self.covered / self.reachable

    @property
    def completion_time(self) -> Optional[float]:
        """Hops to the last surviving delivery (``None`` if none)."""
        if self.covered == 0:
            return None
        return float(self.rounds)


def round_flood(
    oracle: NeighborOracle,
    source: NodeId,
    schedule=None,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
) -> RoundFloodResult:
    """Flood ``oracle`` from ``source`` in synchronous rounds.

    Parameters
    ----------
    oracle:
        Any backend whose ``neighbors(v)`` is a sized collection (list,
        set, array slice — every shipped backend's is); its length is
        the bulk message bill.
    schedule:
        Optional :class:`~repro.flooding.failures.FailureSchedule`
        replayed at round granularity (event times are rounds).
    loss_rate / loss_seed:
        Per-message Bernoulli loss, sampled seed-stably per round.

    Raises
    ------
    NodeNotFoundError
        If ``source`` is not a node of the oracle.
    SimulationError
        If the source is crashed at start, or ``loss_rate`` is not a
        probability.
    """
    if not oracle_has_node(oracle, source):
        raise NodeNotFoundError(source)
    if not 0.0 <= loss_rate <= 1.0:
        raise SimulationError(f"loss_rate must be in [0, 1], got {loss_rate}")
    if schedule is None:
        schedule = FailureSchedule()
    events = _timeline(schedule)
    if any(c.node == source and c.time <= 0 for c in schedule.crashes):
        raise SimulationError("the flood source is crashed at start")
    lossy = loss_rate > 0.0
    static = not lossy and all(t <= 0 and phase == 0 for t, phase, *_ in events)
    careful = {
        x for _, _, kind, a, b in events if kind.startswith("link") for x in (a, b)
    }
    final_down = _final_down_nodes(schedule)
    # covered nodes that crash later for good: they relay but do not count
    doomed = final_down & {c.node for c in schedule.crashes if c.time > 0}

    seen = visit_marks(oracle)
    dead: Set[tuple] = set()  # links down at delivery time, both directions
    index = _replay(oracle, events, 0, 0, seen, dead)
    seen[source] = 1
    senders: dict = {}  # careful senders record whom they covered
    neighbors = oracle.neighbors
    # the source has no sender to spare: refund the "− 1" its bill takes
    messages = 1
    round_sizes = [0 if source in doomed else 1]
    frontier = [source]
    now = 0
    while True:
        dead_at_send = frozenset(dead)
        index = _replay(oracle, events, index, now + 1, seen, dead)
        rng = random.Random(_loss_round_seed(loss_seed, now)) if lossy else None
        next_frontier: List[Any] = []
        append = next_frontier.append
        for node in frontier:
            nbrs = neighbors(node)
            if not (lossy or node in careful):
                # none of its links fails: all but the sender's copy land
                messages += len(nbrs) - 1
                for target in nbrs:
                    if not seen[target]:
                        seen[target] = 1
                        append(target)
                continue
            sender = senders.pop(node, None)
            if sender is None:
                # the source, or a careful node covered by a clean sender
                # (no loss, link never fails): its copy is counted below
                messages -= 1
            for target in nbrs:
                if target == sender:
                    continue  # first receipt suppresses the return copy
                if (node, target) in dead_at_send:
                    continue  # link already down at send time: never sent
                messages += 1
                if rng is not None and rng.random() < loss_rate:
                    continue  # counted as sent, lost in flight
                if not seen[target] and (node, target) not in dead:
                    seen[target] = 1
                    senders[target] = node
                    append(target)
        if not next_frontier:
            break
        now += 1
        size = len(next_frontier)
        if doomed:
            size -= sum(1 for target in next_frontier if target in doomed)
        round_sizes.append(size)
        frontier = next_frontier
    # doomed nodes keep relaying until the end; completion counts only
    # deliveries that survive, so trim the trailing doomed-only rounds
    while len(round_sizes) > 1 and round_sizes[-1] == 0:
        round_sizes.pop()
    covered = sum(round_sizes)

    alive, reachable = oracle.num_nodes(), covered
    if events or lossy:
        # the survivor topology (final schedule state) prices alive/reachable
        view = FaultView(oracle, final_down, _final_down_links(schedule))
        alive = view.num_nodes()
        if not static:
            reachable = component_size(view, source) if source in view else 0
    return RoundFloodResult(
        source=source,
        n=oracle.num_nodes(),
        covered=covered,
        messages=messages,
        rounds=len(round_sizes) - 1,
        round_sizes=round_sizes,
        alive=alive,
        reachable=reachable,
    )


def _timeline(schedule: FailureSchedule) -> List[tuple]:
    """Schedule events as (time, phase, kind, a, b), simulator-ordered.

    Phase 0 (failures) sorts before phase 1 (recoveries) at equal
    times — the ``FAILURE_PRIORITY < RECOVERY_PRIORITY`` tie-break, so
    a same-instant crash+recover pair leaves the node up.
    """
    events = []
    for crash in schedule.crashes:
        events.append((crash.time, 0, "node", crash.node, None))
    for failure in schedule.link_failures:
        events.append((failure.time, 0, "link", failure.u, failure.v))
    for recovery in schedule.recoveries:
        events.append((recovery.time, 1, "node-up", recovery.node, None))
    for restore in schedule.link_recoveries:
        events.append((restore.time, 1, "link-up", restore.u, restore.v))
    events.sort(key=lambda event: (event[0], event[1]))
    return events


def _replay(
    oracle: NeighborOracle,
    events: List[tuple],
    index: int,
    until: float,
    seen: Any,
    dead: Set[tuple],
) -> int:
    """Apply ``events[index:]`` up to time ``until``; return the next index.

    A crash marks an unseen node 2 (down); a recovery resets 2 to 0.  A
    covered node keeps its 1 — its copies went out on receipt.  Crashes
    of nodes the oracle does not have are no-ops, as in the simulator.
    """
    while index < len(events) and events[index][0] <= until:
        _, _, kind, a, b = events[index]
        index += 1
        if kind == "link":
            dead.update(((a, b), (b, a)))
        elif kind == "link-up":
            dead.difference_update(((a, b), (b, a)))
        elif oracle_has_node(oracle, a):
            if kind == "node" and not seen[a]:
                seen[a] = 2
            elif kind == "node-up" and seen[a] == 2:
                seen[a] = 0
    return index


def _loss_round_seed(loss_seed: int, round_index: int) -> int:
    from repro.exec.seeding import derive_seed

    return derive_seed(loss_seed, "round-flood-loss", round_index)
