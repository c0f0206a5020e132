"""Self-healing: restore the LHG invariant after member crashes.

Fault tolerance (Properties 1–2) buys *time*: after up to k−1 crashes
the topology still floods, but its residual connectivity is degraded, so
a controller should re-establish a full-strength LHG among the
survivors before more failures accumulate.  This module implements that
repair step and measures its cost:

* :func:`plan_repair` — given the current member-labelled topology and
  the crashed set, compute the survivor LHG and the edge diff
  (links to tear down / establish);
* :func:`execute_repair` — apply a plan to an
  :class:`~repro.overlay.membership.LHGOverlay`;
* :class:`RepairReport` — connectivity before/after and the edge bill.

The crash-then-repair-then-crash-again cycle is experiment F8's
workload: an overlay that repairs after each burst survives an
*unbounded* number of total failures, as long as no single burst
exceeds k−1 — the operational content of the paper's resilience claim.

Bursts **beyond** k−1 void that guarantee but must still have a
graceful path: the damaged topology may partition, and the repair then
degrades to a best-effort survivor rebuild.  :func:`execute_repair`
never raises for an oversized burst — it returns a *degraded*
:class:`RepairReport` recording the survivor components the burst left
behind (``components_before``), which the soak service
(:mod:`repro.service`) uses to enter its explicit ``DEGRADED`` state
instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.graphs.connectivity import node_connectivity
from repro.graphs.graph import Graph, edge_key
from repro.graphs.traversal import connected_components
from repro.overlay.membership import LHGOverlay, MembershipError

MemberId = Hashable


@dataclass(frozen=True)
class RepairPlan:
    """The edge work needed to restore the invariant after crashes.

    ``teardown`` are surviving-member links to drop; ``establish`` are
    new links to create.  Both exclude links that died with the crashed
    members (those cost nothing to "remove").  ``repaired`` is the
    overlay copy the plan ran the leaves on, which :func:`execute_repair`
    adopts while the planned overlay is unchanged.
    """

    crashed: FrozenSet[MemberId]
    survivors: Tuple[MemberId, ...]
    teardown: FrozenSet[FrozenSet[MemberId]]
    establish: FrozenSet[FrozenSet[MemberId]]
    repaired: LHGOverlay = field(compare=False, repr=False)

    @property
    def total_edge_work(self) -> int:
        """Links touched by the repair."""
        return len(self.teardown) + len(self.establish)


@dataclass(frozen=True)
class RepairReport:
    """Outcome of an executed repair.

    ``k`` is the overlay's target connectivity and
    ``components_before`` the survivor component sizes of the *damaged*
    topology (descending) — a single entry when the burst left the
    survivors connected, several when it partitioned them.  ``k`` may
    be 0 for reports built by legacy callers that never recorded it.

    ``connectivity_after`` is the node connectivity κ of the repaired
    topology.  :func:`execute_repair` takes it from arithmetic whenever
    that is a proof: ``k`` when the overlay's construction certificate
    binds to the repaired topology (a full audit) with a conclusive,
    holding P1 and the minimum degree is ``k`` (κ ≥ k by P1, κ ≤ δ);
    ``n − 1`` for a complete graph; otherwise an exact sweep.

    ``damaged`` is the survivor-induced topology before the repair.
    Its node connectivity, :attr:`connectivity_before`, is a full
    Even–Tarjan sweep, so it is computed on first read and cached: a
    caller that never reads it (the soak service) never pays for it.
    """

    plan: RepairPlan
    connectivity_after: int
    damaged: Graph = field(compare=False, repr=False)
    k: int = 0
    components_before: Tuple[int, ...] = ()

    @cached_property
    def connectivity_before(self) -> int:
        """Node connectivity κ of the damaged topology (0 below 2 nodes)."""
        damaged = self.damaged
        return node_connectivity(damaged) if len(damaged) > 1 else 0

    @property
    def burst_size(self) -> int:
        """How many members crashed in this burst."""
        return len(self.plan.crashed)

    @property
    def partitioned(self) -> bool:
        """True when the burst split the survivors into components."""
        return len(self.components_before) > 1

    @property
    def degraded(self) -> bool:
        """True when the burst voided the paper's k−1 guarantee.

        Either the burst exceeded k−1 crashes (so Properties 1–2 no
        longer promise anything) or it actually partitioned the
        survivors.  A degraded report is data, not an error: the repair
        still rebuilt a full-strength survivor LHG best-effort.
        """
        if self.partitioned:
            return True
        return self.k > 0 and self.burst_size > self.k - 1

    @property
    def restored(self) -> bool:
        """True when the post-repair topology reached full strength.

        Full strength is k-connectivity when the survivor count allows
        it (n′ ≥ k + 1), else the complete-graph bound n′ − 1.  Reports
        without a recorded ``k`` fall back to "connected again".
        """
        if self.k > 0:
            target = min(self.k, max(0, len(self.plan.survivors) - 1))
            return self.connectivity_after >= target
        return self.connectivity_after >= self.connectivity_before or (
            self.connectivity_after > 0
        )


def plan_repair(overlay: LHGOverlay, crashed: Iterable[MemberId]) -> RepairPlan:
    """Compute the repair diff for removing ``crashed`` members.

    The plan runs the leaves on a copy, kept as ``repaired``; the
    overlay itself is not modified (:func:`execute_repair` does that).

    Raises
    ------
    MembershipError
        If a crashed id is not a member, or all members crashed.
    """
    crashed_set = frozenset(crashed)
    unknown = crashed_set - set(overlay.members)
    if unknown:
        raise MembershipError(f"not members: {sorted(map(repr, unknown))}")
    survivors = tuple(m for m in overlay.members if m not in crashed_set)
    if not survivors:
        raise MembershipError("cannot repair an overlay with no survivors")

    before = overlay.topology()
    repaired = overlay.copy()
    for member in sorted(crashed_set, key=repr):
        repaired.leave(member)
    after = repaired.topology()

    old_edges = {
        edge_key(u, v)
        for u, v in before.iter_edges()
        if u not in crashed_set and v not in crashed_set
    }
    new_edges = {edge_key(u, v) for u, v in after.iter_edges()}
    return RepairPlan(
        crashed=crashed_set,
        survivors=survivors,
        teardown=frozenset(old_edges - new_edges),
        establish=frozenset(new_edges - old_edges),
        repaired=repaired,
    )


def execute_repair(
    overlay: LHGOverlay,
    crashed: Iterable[MemberId],
    plan: Optional[RepairPlan] = None,
) -> RepairReport:
    """Remove crashed members from the overlay and report the outcome.

    The report records node connectivity of the *damaged* topology
    (survivor-induced subgraph before repair, computed when
    :attr:`RepairReport.connectivity_before` is first read) and of the
    repaired one, demonstrating the restoration of full k-connectivity
    whenever the survivor count allows it (n' ≥ 2k; below that the
    complete-graph bootstrap gives n'−1 ≥ k connectivity until
    membership recovers).

    A ``plan`` for the same crashed set is applied by adopting its
    repaired copy if the overlay has not changed since it was planned,
    else the repair is planned afresh; the outcome is the same.

    Bursts exceeding k−1 do **not** raise: the survivors may be
    partitioned, in which case the report comes back with
    ``degraded=True`` and the component sizes in ``components_before``,
    and the rebuild proceeds best-effort over all survivors.

    Raises
    ------
    MembershipError
        Propagated from :func:`plan_repair` on invalid inputs (unknown
        members, or a burst that leaves no survivors at all).
    """
    crashed_set = frozenset(crashed)
    damaged = overlay.topology().without_nodes(crashed_set)
    if plan is None or plan.crashed != crashed_set or not overlay.adopt(
        plan.repaired
    ):
        plan = plan_repair(overlay, crashed_set)
        overlay.adopt(plan.repaired)
    components = tuple(
        sorted(
            (len(component) for component in connected_components(damaged)),
            reverse=True,
        )
    )
    return RepairReport(
        plan=plan,
        connectivity_after=_repaired_connectivity(overlay),
        damaged=damaged,
        k=overlay.k,
        components_before=components,
    )


def _repaired_connectivity(overlay: LHGOverlay) -> int:
    """κ of the overlay's topology: proved by arithmetic, else swept."""
    repaired, certificate = overlay.certified_topology()
    n = len(repaired)
    if n <= 1:
        return 0
    if certificate is not None and repaired.min_degree() == certificate.k:
        proofs = certificate.bound_proofs(repaired)
        if proofs is not None:
            p1 = proofs.witness("P1")
            if p1.conclusive and p1.holds:
                return certificate.k  # κ ≥ k by P1, κ ≤ δ = k
    if repaired.number_of_edges() == n * (n - 1) // 2:
        return n - 1
    return node_connectivity(repaired)


def crash_repair_cycle(
    overlay: LHGOverlay,
    bursts: List[List[MemberId]],
) -> List[RepairReport]:
    """Run successive crash bursts, repairing after each.

    Returns one report per burst.  The caller picks burst sizes; with
    every burst ≤ k−1 the damaged topology stays connected at every
    step, which the caller can assert from the reports.
    """
    reports = []
    for burst in bursts:
        reports.append(execute_repair(overlay, burst))
    return reports
