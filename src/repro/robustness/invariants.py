"""Post-run invariant checks for chaos campaign cells.

Every campaign run finishes with a battery of checks over the *whole*
simulation record — the result, the final network/simulator state and
a streaming witness that saw every network event — so a harness bug
(a delivery to a dead node, a runaway retransmission loop) fails
loudly instead of silently skewing a resilience matrix:

* **coverage** — every node of the survivor component received the
  payload (enforced only for protocols that *guarantee* delivery; for
  best-effort protocols the shortfall is data, not a bug);
* **quiescence** — the simulator drained its queue naturally (no
  pending events, no exhausted event budget): the protocol terminated;
* **no-dead-delivery** — watched as the run streams by
  (:class:`DeadDeliveryWatch`): no ``deliver`` event targets a node
  inside one of its down windows;
* **retransmission-budget** — the protocol's retransmission counter
  respects its declared per-frame retry budget.

The long-running service (:mod:`repro.service`) checks a second kind
of invariant on a cadence: not one run's *record* but the overlay's
current *topology* — Properties 1–4 of the paper's LHG definition.
:func:`check_topology_invariants` bridges
:func:`repro.core.properties.check_lhg` (or a construction certificate
that a full audit binds to the topology) into the same
:class:`InvariantViolation` vocabulary so campaign cells and the soak
loop report failures through one channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, List, Optional, Set

import repro.obs as obs
from repro.core.properties import check_lhg
from repro.flooding.failures import FailureSchedule
from repro.flooding.metrics import FloodResult
from repro.flooding.network import Network, Protocol
from repro.flooding.simulator import Simulator
from repro.graphs.connectivity import node_connectivity
from repro.graphs.faultview import FaultView, component_size
from repro.graphs.graph import Graph
from repro.graphs.oracle import NeighborOracle, materialize

NodeId = Hashable


@dataclass(frozen=True)
class InvariantViolation:
    """One failed invariant: which one, and what was observed."""

    invariant: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.invariant}: {self.detail}"


class DeadDeliveryWatch:
    """Streaming no-dead-delivery witness: a network observer.

    Attach it with :meth:`~repro.flooding.network.Network.add_observer`.
    It tracks the set of down nodes from the ``crash`` / ``recover``
    notifications and keeps the first ``deliver`` to a node in that
    set as :attr:`violation`.  The network is supposed to drop such
    messages, so a hit means the harness itself is broken.  Every event
    is checked as it happens and nothing is stored, so no event cap
    can cut the check short.
    """

    def __init__(self) -> None:
        self.down: Set[NodeId] = set()
        self.violation: Optional[InvariantViolation] = None

    def __call__(self, kind: str, time: float, **details) -> None:
        if kind == "deliver":
            receiver = details["receiver"]
            if receiver in self.down and self.violation is None:
                self.violation = InvariantViolation(
                    "no-dead-delivery",
                    f"delivery to crashed node {receiver!r} at t={time}",
                )
        elif kind == "crash":
            self.down.add(details["node"])
        elif kind == "recover":
            self.down.discard(details["node"])


@dataclass
class RunRecord:
    """Everything one campaign run leaves behind for the checkers."""

    graph: Graph
    source: NodeId
    schedule: FailureSchedule
    network: Network
    simulator: Simulator
    watch: DeadDeliveryWatch
    protocol: Protocol
    result: FloodResult
    budget_exhausted: bool = False
    guarantees_delivery: bool = False


def check_survivor_coverage(record: RunRecord) -> Optional[InvariantViolation]:
    """Full coverage of the survivor component (see module docstring)."""
    result = record.result
    if result.fully_covered:
        return None
    return InvariantViolation(
        "coverage",
        f"covered {result.covered} of {result.reachable} reachable survivors",
    )


def check_quiescence(record: RunRecord) -> Optional[InvariantViolation]:
    """The simulation terminated by draining its queue."""
    if record.budget_exhausted:
        return InvariantViolation(
            "quiescence", "event budget exhausted — runaway protocol?"
        )
    pending = record.simulator.pending_events
    if pending:
        return InvariantViolation(
            "quiescence", f"{pending} events still pending after the run"
        )
    return None


def check_no_dead_delivery(record: RunRecord) -> Optional[InvariantViolation]:
    """No ``deliver`` event targeted a currently-down node.

    The verdict of the record's :class:`DeadDeliveryWatch`, which saw
    every event of the run.
    """
    return record.watch.violation


def check_retransmission_budget(record: RunRecord) -> Optional[InvariantViolation]:
    """Retransmissions stay within the protocol's declared budget.

    Protocols expose ``retransmissions`` plus either an explicit
    ``retry_budget`` (the ARQ layer) or ``max_retries`` with
    ``data_sent`` (ReliableFlood: budget = max_retries × distinct
    frames).  Protocols without these counters pass vacuously.
    """
    protocol = record.protocol
    retransmissions = getattr(protocol, "retransmissions", None)
    if retransmissions is None:
        return None
    budget = getattr(protocol, "retry_budget", None)
    if budget is None:
        max_retries = getattr(protocol, "max_retries", None)
        data_sent = getattr(protocol, "data_sent", None)
        if max_retries is None or data_sent is None:
            return None
        budget = max_retries * max(0, data_sent - retransmissions)
    if retransmissions > budget:
        return InvariantViolation(
            "retransmission-budget",
            f"{retransmissions} retransmissions exceed the budget of {budget}",
        )
    return None


_PROPERTY_VIOLATIONS = {
    "P1": ("P1-node-connectivity", "κ < {k}"),
    "P2": ("P2-link-connectivity", "λ < {k}"),
    "P3": ("P3-link-minimality", "a removable link exists"),
    "P4": ("P4-log-diameter", "diameter exceeds the logarithmic budget"),
}


def _certificate_violations(proofs, n: int, k: int) -> List[InvariantViolation]:
    """Map a :class:`StructuralProofs` verdict onto violation records.

    A certificate for another (n, k) decides nothing here: each of its
    witnesses surfaces as inconclusive.
    """
    violations = []
    for witness in proofs.witnesses:
        name, detail = _PROPERTY_VIOLATIONS[witness.property_id]
        if (proofs.n, proofs.k) != (n, k):
            violations.append(
                InvariantViolation(
                    name,
                    f"structural certificate inconclusive at n={n}: it is "
                    f"for n={proofs.n}, k={proofs.k}, not k={k}",
                )
            )
        elif not witness.conclusive:
            violations.append(
                InvariantViolation(
                    name,
                    f"structural certificate inconclusive at n={n}: "
                    f"{witness.details}",
                )
            )
        elif not witness.holds:
            violations.append(
                InvariantViolation(name, f"{detail.format(k=k)} at n={n}")
            )
    return violations


class TopologyVerdict(List[InvariantViolation]):
    """The violations of one topology check, and the rule that decided.

    A plain list of :class:`InvariantViolation` (empty means sound) that
    also records ``rule``: ``"certificate"`` when structural proofs
    decided, ``"exact"`` when the exact checkers ran, ``"recertify"``
    when a :class:`FaultView` was handed to :func:`recertify_survivors`.
    """

    def __init__(
        self, rule: str, violations: Iterable[InvariantViolation] = ()
    ) -> None:
        super().__init__(violations)
        self.rule = rule


def check_topology_invariants(
    graph: NeighborOracle,
    k: int,
    expect_lhg: bool = True,
    certificate=None,
    exact_limit: int = 512,
) -> TopologyVerdict:
    """Check the overlay topology against Properties 1–4 (see module doc).

    With ``expect_lhg=True`` the graph must satisfy the full LHG bundle
    for ``k`` — P1 k-node connectivity, P2 k-link connectivity, P3 link
    minimality, P4 logarithmic diameter — each failing property becomes
    one violation.  With ``expect_lhg=False`` (the bootstrap regime
    below n = 2k, where no LHG exists) only the complete-graph bound is
    enforced: node connectivity ≥ min(n − 1, k).

    ``graph`` may be any :class:`~repro.graphs.oracle.NeighborOracle`.
    The first rule that applies decides:

    1. **certificate (oracle)**: above ``exact_limit`` nodes, an oracle
       with its own :meth:`structural_proofs` (the implicit JD oracle)
       is judged by them; an inconclusive witness is a violation.
    2. **certificate (bound)**: at any n, a ``certificate`` argument (a
       :class:`~repro.core.certificates.ConstructionCertificate`)
       counts only once it is *bound* to ``graph`` by a full O(n·k)
       audit (:meth:`~repro.core.certificates.ConstructionCertificate.bound_proofs`:
       ``graph`` must be exactly its pasting, edge set for edge set).
       A bound certificate whose proofs all conclusively hold for this
       very (n, k) returns no violations.
    3. **exact**: anything else — no certificate, one that does not
       bind, or proofs that are inconclusive, failing or for another
       (n, k) — runs the exact Dinic-backed checkers (read-only
       backends are materialised first), whatever the size: correct,
       but O(k·n·m).

    A :class:`FaultView` is handed to :func:`recertify_survivors`,
    which counts it under ``recertify.<rule>``.  Every other call emits
    one ``verify.<rule>`` counter (``certificate`` or ``exact``).

    Returns a :class:`TopologyVerdict` — the violations (an empty list
    means the topology is sound) and the deciding ``rule``.
    """
    if expect_lhg and isinstance(graph, FaultView):
        # failures invalidate pristine-construction certificates; the
        # survivor component gets its own certification battery
        return TopologyVerdict(
            "recertify", recertify_survivors(graph, k, exact_limit=exact_limit)
        )
    verdict = _check_topology(graph, k, expect_lhg, certificate, exact_limit)
    obs.counter(f"verify.{verdict.rule}")
    return verdict


def _check_topology(
    graph: NeighborOracle,
    k: int,
    expect_lhg: bool,
    certificate,
    exact_limit: int,
) -> TopologyVerdict:
    """Rules 1–3 of :func:`check_topology_invariants`, uncounted."""
    n = graph.num_nodes()
    if n <= 1:
        return TopologyVerdict("exact")
    if expect_lhg and n > exact_limit:
        prove = getattr(graph, "structural_proofs", None)
        if prove is not None:
            return TopologyVerdict(
                "certificate", _certificate_violations(prove(), n, k)
            )
    if not isinstance(graph, Graph):
        graph = materialize(graph)
    if expect_lhg and certificate is not None:
        proofs = certificate.bound_proofs(graph)
        if proofs is not None and proofs.all_hold and (
            (proofs.n, proofs.k) == (n, k)
        ):
            return TopologyVerdict("certificate")
    if not expect_lhg:
        target = min(n - 1, k)
        connectivity = node_connectivity(graph)
        if connectivity < target:
            return TopologyVerdict(
                "exact",
                [
                    InvariantViolation(
                        "bootstrap-connectivity",
                        f"κ={connectivity} below the bootstrap bound {target} "
                        f"at n={n}",
                    )
                ],
            )
        return TopologyVerdict("exact")
    report = check_lhg(graph, k)
    budget = report.diameter_budget
    p4 = f"diameter {report.diameter} exceeds budget {budget}"
    if not report.exact_diameter and report.diameter <= budget:
        p4 = (
            f"diameter inconclusive: lower bound {report.diameter}, "
            f"upper bound {report.diameter_upper} exceeds budget {budget}"
        )
    holds = {
        "P1": report.node_connected,
        "P2": report.link_connected,
        "P3": report.link_minimal,
        "P4": report.log_diameter,
    }
    violations = TopologyVerdict("exact")
    for property_id, ok in holds.items():
        if not ok:
            name, detail = _PROPERTY_VIOLATIONS[property_id]
            detail = p4 if property_id == "P4" else detail.format(k=k)
            violations.append(InvariantViolation(name, f"{detail} at n={n}"))
    return violations


# ----------------------------------------------------------------------
# Survivor recertification (FaultView topologies)
# ----------------------------------------------------------------------


def _certified_connectivity(base: NeighborOracle) -> int:
    """The node connectivity ``base``'s own structural proofs guarantee.

    Only a certificate for this very base (same n) whose P1 *and* P2
    witnesses are both conclusive and holding counts; a missing,
    inconclusive or failing certificate proves nothing and yields 0.
    A :class:`FaultView` base never counts: it does not forward
    ``structural_proofs``, and its own damage is not the caller's.
    """
    prove = getattr(base, "structural_proofs", None)
    if prove is None:
        return 0
    proofs = prove()
    proved = {w.property_id for w in proofs.witnesses if w.conclusive and w.holds}
    if {"P1", "P2"} <= proved and proofs.n == base.num_nodes():
        return proofs.k
    return 0


def recertify_survivors(
    view: FaultView, k: int, exact_limit: int = 512
) -> List[InvariantViolation]:
    """Re-certify a damaged topology from its :class:`FaultView`.

    Deleting one vertex or one link lowers node and link connectivity
    by at most one, so a k-connected base keeps κ, λ ≥ k − damage on
    its survivors, where damage counts down nodes plus killed links.
    The first rule that applies decides, and each emits one
    ``recertify.<rule>`` counter:

    1. **pristine** (damage 0): the base is judged as
       :func:`check_topology_invariants` would judge it, by its own
       proofs or exactly (counted here as ``certificate`` or ``exact``,
       with no ``verify.<rule>`` counter); a :class:`FaultView` base is
       recertified in turn.
    2. **unclaimed** (damage ≥ k): the paper claims nothing — a
       partition is a legitimate outcome — so nothing is checked.
    3. **certificate**: the base's own :meth:`structural_proofs` has
       conclusive, holding P1 and P2 witnesses for some k' ≥ k, so the
       survivors are (k − damage)-connected by the arithmetic above.
       O(1): no BFS, no frontier scan, no flow.
    4. **exact** (no usable certificate): a BFS sweep must reach every
       survivor (**survivor-connectivity**); every node beside the
       damage must keep degree ≥ k − damage (**survivor-degree**); and
       when k − damage ≥ 2, up to ``exact_limit`` survivors the view
       is materialised and exact Dinic κ must reach k − damage.  Above
       ``exact_limit`` that last claim is reported as one
       **survivor-cut-inconclusive** violation (counted as
       ``inconclusive``) — unproven, never passed.

    Returns the violations — an empty list means every claim was
    proved.
    """
    damage = view.damage
    if damage == 0:
        if isinstance(view.base, FaultView):
            return recertify_survivors(view.base, k, exact_limit=exact_limit)
        verdict = _check_topology(view.base, k, True, None, exact_limit)
        obs.counter(f"recertify.{verdict.rule}")
        return verdict
    residual = k - damage
    if residual <= 0:
        obs.counter("recertify.unclaimed")
        return []
    if _certified_connectivity(view.base) >= k:
        obs.counter("recertify.certificate")
        return []
    violations = _exact_recheck(view, k, exact_limit)
    inconclusive = any(
        v.invariant == "survivor-cut-inconclusive" for v in violations
    )
    obs.counter("recertify.inconclusive" if inconclusive else "recertify.exact")
    return violations


def _exact_recheck(
    view: FaultView, k: int, exact_limit: int
) -> List[InvariantViolation]:
    """Rule 4 of :func:`recertify_survivors`: claims checked, not assumed."""
    n_alive = view.num_nodes()
    if n_alive <= 1:
        return []
    damage = view.damage
    residual = k - damage
    violations: List[InvariantViolation] = []
    source = next(iter(view.iter_nodes()))
    reached = component_size(view, source)
    connected = reached == n_alive
    if not connected:
        violations.append(
            InvariantViolation(
                "survivor-connectivity",
                f"{n_alive - reached} of {n_alive} survivors unreachable "
                f"after only {damage} failure(s) < k={k}",
            )
        )
    for node in view.damage_frontier():
        degree = view.degree(node)
        if degree < residual:
            violations.append(
                InvariantViolation(
                    "survivor-degree",
                    f"node {node!r} kept degree {degree} < "
                    f"k−damage={residual} beside the damage",
                )
            )
    if connected and residual >= 2:
        if n_alive <= exact_limit:
            kappa = node_connectivity(materialize(view))
            target = min(residual, n_alive - 1)
            if kappa < target:
                violations.append(
                    InvariantViolation(
                        "survivor-connectivity",
                        f"exact κ={kappa} < k−damage={target} after "
                        f"{damage} failure(s)",
                    )
                )
        else:
            violations.append(
                InvariantViolation(
                    "survivor-cut-inconclusive",
                    f"κ ≥ k−damage={residual} unproven for {n_alive} "
                    f"survivors: no conclusive base certificate and more "
                    f"than exact_limit={exact_limit} nodes — inconclusive, "
                    f"not certified",
                )
            )
    return violations


_ALWAYS = (
    check_quiescence,
    check_no_dead_delivery,
    check_retransmission_budget,
)


def check_invariants(record: RunRecord) -> List[InvariantViolation]:
    """Run every applicable invariant; return the violations (ideally none).

    The coverage invariant is enforced only when the record's protocol
    ``guarantees_delivery`` — a best-effort protocol losing coverage
    under chaos is a *measurement*, not a harness bug.
    """
    violations = []
    if record.guarantees_delivery:
        violation = check_survivor_coverage(record)
        if violation is not None:
            violations.append(violation)
    for checker in _ALWAYS:
        violation = checker(record)
        if violation is not None:
            violations.append(violation)
    return violations
