"""Dynamic-membership overlay: keep an LHG as nodes join and leave.

The paper's motivation is networks with an **arbitrary** number of
processes — peer-to-peer settings where n changes continuously.  This
module maintains the invariant "the current topology is an LHG for
(n, k)" across join/leave events and measures what that maintenance
costs:

* every membership change re-derives the construction for the new n
  (choosing rules via :func:`repro.core.existence.build_lhg`);
* logical construction slots are mapped to member ids **stably** — a
  member keeps its slot while that slot survives — so the measured edge
  churn reflects the construction's incremental structure, not label
  noise;
* :class:`ChurnCost` records edges added/removed and members rewired per
  event, the series experiment F6 reports;
* the construction's :class:`~repro.core.certificates.ConstructionCertificate`
  is kept, so :meth:`LHGOverlay.certified_topology` can hand a verifier
  the slot-labelled topology together with the certificate that claims
  to describe it (the verifier audits that claim before trusting it).

Below n = 2k no LHG exists; the overlay bootstraps with a complete
graph (k-connected for n > k, trivially connected below) and switches to
the LHG construction at n = 2k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.errors import GraphError, ReproError
from repro.core.certificates import ConstructionCertificate
from repro.core.existence import build_lhg
from repro.graphs.graph import Graph, edge_key

MemberId = Hashable


class MembershipError(ReproError):
    """Raised on invalid membership operations (duplicate join, unknown leave)."""


@dataclass(frozen=True)
class ChurnCost:
    """Edge churn caused by one membership event."""

    event: str  # "join" or "leave"
    member: MemberId
    n_after: int
    edges_added: int
    edges_removed: int
    members_rewired: int

    @property
    def total_churn(self) -> int:
        """Added plus removed edges."""
        return self.edges_added + self.edges_removed


class LHGOverlay:
    """An overlay controller maintaining a k-connected LHG topology.

    Parameters
    ----------
    k:
        Target connectivity (fault tolerance k − 1).
    rule:
        Construction rule forwarded to :func:`repro.core.existence.build_lhg`
        (default ``"auto"``).

    Examples
    --------
    >>> overlay = LHGOverlay(k=3)
    >>> for member in range(8):
    ...     _ = overlay.join(f"peer-{member}")
    >>> overlay.topology().number_of_nodes()
    8
    """

    def __init__(self, k: int, rule: str = "auto") -> None:
        if k < 2:
            raise MembershipError(f"overlay needs k >= 2, got {k}")
        self.k = k
        self.rule = rule
        self._members: List[MemberId] = []
        self._slot_of: Dict[MemberId, Hashable] = {}
        self._member_of: Dict[Hashable, MemberId] = {}
        self._graph = Graph(name="lhg-overlay(empty)")
        self._certificate: Optional[ConstructionCertificate] = None
        self._history: List[ChurnCost] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def members(self) -> List[MemberId]:
        """Current members in join order."""
        return list(self._members)

    @property
    def size(self) -> int:
        """Current membership count."""
        return len(self._members)

    @property
    def history(self) -> List[ChurnCost]:
        """Churn record of every processed event."""
        return list(self._history)

    def topology(self) -> Graph:
        """The current member-labelled topology (a copy)."""
        return self._graph.copy()

    def copy(self) -> "LHGOverlay":
        """An independent overlay with identical state (for what-if planning)."""
        clone = LHGOverlay(k=self.k, rule=self.rule)
        clone._members = list(self._members)
        clone._slot_of = dict(self._slot_of)
        clone._member_of = dict(self._member_of)
        clone._graph = self._graph.copy()
        clone._certificate = self._certificate
        return clone

    def slot_assignment(self) -> Dict[MemberId, Hashable]:
        """Current member → construction-slot mapping (copy)."""
        return dict(self._slot_of)

    def certified_topology(
        self,
    ) -> Tuple[Graph, Optional[ConstructionCertificate]]:
        """The topology to certify and the certificate claimed for it.

        In the LHG regime this is the member topology relabelled through
        :meth:`slot_assignment` (a new graph) with the construction's
        certificate.  The pair is a claim, not a proof: a verifier binds
        it with :meth:`ConstructionCertificate.bound_proofs`, a full
        audit, before trusting it.  In the complete-graph bootstrap
        regime, or when the slot map is not injective (so no relabelling
        exists), it is a copy of the member topology with ``None``.
        """
        if self._certificate is None:
            return self.topology(), None
        try:
            return self._graph.relabeled(self._slot_of), self._certificate
        except GraphError:
            return self.topology(), None

    def in_lhg_regime(self) -> bool:
        """True once n ≥ 2k (the LHG construction is active)."""
        return self.size >= 2 * self.k

    # ------------------------------------------------------------------
    # Membership events
    # ------------------------------------------------------------------

    def join(self, member: MemberId) -> ChurnCost:
        """Add a member and rebuild the topology for n + 1.

        Raises
        ------
        MembershipError
            If ``member`` is already present.
        """
        if member in self._slot_of or member in self._members:
            raise MembershipError(f"{member!r} is already a member")
        self._members.append(member)
        return self._rebuild("join", member)

    def leave(self, member: MemberId) -> ChurnCost:
        """Remove a member and rebuild the topology for n − 1.

        Raises
        ------
        MembershipError
            If ``member`` is not present.
        """
        if member not in self._members:
            raise MembershipError(f"{member!r} is not a member")
        self._members.remove(member)
        self._slot_of.pop(member, None)
        return self._rebuild("leave", member)

    # ------------------------------------------------------------------
    # Rebuild machinery
    # ------------------------------------------------------------------

    def _target_construction(
        self,
    ) -> Tuple[Graph, Optional[ConstructionCertificate]]:
        """Slot-labelled topology for the current membership count.

        Returned with its construction certificate; ``None`` in the
        complete-graph bootstrap regime below n = 2k.
        """
        n = len(self._members)
        if n <= 1:
            return Graph(nodes=range(n), name="bootstrap"), None
        if n < 2 * self.k:
            bootstrap = Graph(name="bootstrap-complete")
            bootstrap.add_nodes_from(range(n))
            bootstrap.add_edges_from(
                (i, j) for i in range(n) for j in range(i + 1, n)
            )
            return bootstrap, None
        return build_lhg(n, self.k, rule=self.rule)

    def _assign_slots(self, slot_labels: List[Hashable]) -> None:
        """Stably map members onto the new construction's slots.

        Members keep slots that still exist; new/orphaned members take
        the remaining slots in deterministic order.
        """
        slot_set = set(slot_labels)
        kept = {
            member: slot
            for member, slot in self._slot_of.items()
            if slot in slot_set and member in set(self._members)
        }
        free_slots = sorted(slot_set - set(kept.values()), key=repr)
        unassigned = [m for m in self._members if m not in kept]
        if len(unassigned) != len(free_slots):
            raise MembershipError(
                f"slot accounting error: {len(unassigned)} members for "
                f"{len(free_slots)} slots"
            )
        for member, slot in zip(unassigned, free_slots):
            kept[member] = slot
        self._slot_of = kept
        self._member_of = {slot: member for member, slot in kept.items()}

    def _rebuild(self, event: str, member: MemberId) -> ChurnCost:
        old_edges: Set[FrozenSet] = {
            edge_key(u, v) for u, v in self._graph.iter_edges()
        }
        construction, self._certificate = self._target_construction()
        self._assign_slots(construction.nodes())

        rebuilt = Graph(name=f"lhg-overlay(n={len(self._members)},k={self.k})")
        rebuilt.add_nodes_from(self._members)
        for u_slot, v_slot in construction.iter_edges():
            rebuilt.add_edge(self._member_of[u_slot], self._member_of[v_slot])

        new_edges: Set[FrozenSet] = {
            edge_key(u, v) for u, v in rebuilt.iter_edges()
        }
        added = new_edges - old_edges
        removed = old_edges - new_edges
        touched = {node for pair in (added | removed) for node in pair}
        self._graph = rebuilt
        cost = ChurnCost(
            event=event,
            member=member,
            n_after=len(self._members),
            edges_added=len(added),
            edges_removed=len(removed),
            members_rewired=len(touched & set(self._members)),
        )
        self._history.append(cost)
        return cost
