"""Dynamic-membership overlay: keep an LHG as nodes join and leave.

The paper's motivation is networks with an **arbitrary** number of
processes — peer-to-peer settings where n changes continuously.  This
module maintains the invariant "the current topology is an LHG for
(n, k)" across join/leave events and measures what that maintenance
costs:

* every membership change re-derives the construction for the new n
  (choosing rules via :func:`repro.core.existence.build_lhg`) in one
  rebuild; :meth:`LHGOverlay.adopt` applies a what-if copy's events;
* logical construction slots are mapped to member ids **stably** — a
  member keeps its slot while that slot survives — so the measured edge
  churn reflects the construction's incremental structure, not label
  noise;
* :class:`ChurnCost` records edges added/removed and members rewired per
  event (from each member's old and new neighbours), the series
  experiment F6 reports;
* the construction's :class:`~repro.core.certificates.ConstructionCertificate`
  is kept, so :meth:`LHGOverlay.certified_topology` can hand a verifier
  the slot-labelled topology with the certificate, bound to it by one
  full audit per rebuild (:class:`BoundCertificate`).

Below n = 2k no LHG exists; the overlay bootstraps with a complete
graph (k-connected for n > k, trivially connected below) and switches to
the LHG construction at n = 2k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

import repro.obs as obs
from repro.errors import GraphError, ReproError
from repro.core.certificates import ConstructionCertificate, StructuralProofs
from repro.core.existence import build_lhg
from repro.graphs.graph import Graph

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


class BoundCertificate:
    """A construction certificate audited once against one topology.

    A graph equal to that topology gets the audit's proofs; any other
    graph is audited afresh.
    """

    def __init__(self, certificate: ConstructionCertificate, audited: Graph) -> None:
        self.certificate = certificate
        self.k = certificate.k
        self._audited = audited
        self._proofs = certificate.bound_proofs(audited)

    def bound_proofs(self, graph) -> Optional[StructuralProofs]:
        """The certificate's proofs if ``graph`` is its pasting, else ``None``."""
        if graph == self._audited:
            return self._proofs
        return self.certificate.bound_proofs(graph)


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
        # a copy's origin: (overlay, its event count), see adopt
        self._origin: Optional[Tuple["LHGOverlay", int]] = None
        self._bound: Optional[Tuple[Graph, Optional[BoundCertificate]]] = None

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
        """An independent overlay in the same state, for what-if planning.

        Only the churn history is not copied: the copy records just the
        events applied to it, which :meth:`adopt` appends.
        """
        clone = LHGOverlay(k=self.k, rule=self.rule)
        clone._take_state(self)
        clone._origin = (self, len(self._history))
        return clone

    def adopt(self, scratch: "LHGOverlay") -> bool:
        """End as if this overlay had run the events of its :meth:`copy`.

        Returns ``False``, changing nothing, if this overlay has changed
        since the copy was taken.
        """
        if scratch._origin != (self, len(self._history)):
            return False
        self._take_state(scratch)
        self._history.extend(scratch._history)
        self._bound = None
        return True

    def _take_state(self, other: "LHGOverlay") -> None:
        self._members = list(other._members)
        self._slot_of = dict(other._slot_of)
        self._member_of = dict(other._member_of)
        # graphs are replaced on rebuild, never edited, so they can be shared
        self._graph, self._certificate = other._graph, other._certificate

    def slot_assignment(self) -> Dict[MemberId, Hashable]:
        """Current member → construction-slot mapping (copy)."""
        return dict(self._slot_of)

    def certified_topology(
        self,
    ) -> Tuple[Graph, Optional[BoundCertificate]]:
        """The topology to certify and the certificate bound to it.

        In the LHG regime: the member topology relabelled through
        :meth:`slot_assignment`, with the construction's certificate
        bound to it by one full audit per rebuild.  In the complete-graph
        bootstrap regime, or when the slot map is not injective (so no
        relabelling exists): the member topology with ``None``.  The
        topology is always a fresh copy.
        """
        if self._bound is None:
            self._bound = self._graph, None
            if self._certificate is not None:
                try:
                    relabeled = self._graph.relabeled(self._slot_of)
                except GraphError:
                    pass  # the slot map is not injective: nothing to bind
                else:
                    certificate = BoundCertificate(self._certificate, relabeled)
                    self._bound = relabeled, certificate
        topology, certificate = self._bound
        return topology.copy(), certificate

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
        if n < 2 * self.k:
            complete = ((i, j) for i in range(n) for j in range(i + 1, n))
            return Graph(nodes=range(n), edges=complete, name="bootstrap"), None
        return build_lhg(n, self.k, rule=self.rule)

    def _assign_slots(self, slot_labels: List[Hashable]) -> None:
        """Stably map members onto the new construction's slots.

        Members keep slots that still exist; new/orphaned members take
        the remaining slots in deterministic order.
        """
        slot_set = set(slot_labels)
        members = set(self._members)
        kept = {
            member: slot
            for member, slot in self._slot_of.items()
            if slot in slot_set and member in members
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
        old = self._graph.adjacency_view()
        construction, self._certificate = self._target_construction()
        self._assign_slots(construction.nodes())
        member_of, n = self._member_of, len(self._members)
        rebuilt = Graph(nodes=self._members, name=f"lhg-overlay(n={n},k={self.k})")
        done: Set[Hashable] = set()
        for slot, neighbours in construction.adjacency_view().items():
            node = member_of[slot]
            for neighbour in neighbours:
                if neighbour not in done:
                    rebuilt.add_edge(node, member_of[neighbour])
            done.add(slot)

        # every changed edge is seen from both ends: a kept member's row,
        # or the departed member's old row for the edges it took along
        added = rewired = 0
        removed = len(old.get(member, ()))
        for node, neighbours in rebuilt.adjacency_view().items():
            before = old.get(node, frozenset())
            if neighbours != before:
                rewired += 1
                added += len(neighbours - before)
                removed += len(before - neighbours)
        self._graph, self._bound = rebuilt, None
        obs.counter("overlay.rebuild")
        cost = ChurnCost(
            event=event,
            member=member,
            n_after=n,
            edges_added=added // 2,
            edges_removed=removed // 2,
            members_rewired=rewired,
        )
        self._history.append(cost)
        return cost
