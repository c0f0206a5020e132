"""Fault views: a failure overlay on any ``NeighborOracle``.

:func:`repro.flooding.failures.survivors` used to answer "what is left
after the schedule strikes?" by *materialising* the survivor topology
into a dict-of-sets :class:`~repro.graphs.graph.Graph` — O(n + m)
memory even when only two nodes died.  At n = 10⁶ that silently threw
away everything the scale substrate (:mod:`repro.graphs.implicit`,
:mod:`repro.graphs.csr`) had bought.

:class:`FaultView` is the O(#failures) answer: it wraps any backend —
CSR, implicit JD oracle, dict graph, even another FaultView — with a
node *down-set* and an undirected edge *kill-set*, and re-exposes the
:class:`~repro.graphs.oracle.NeighborOracle` surface with the damage
subtracted on the fly:

* ``neighbors(v)`` filters down neighbours and killed links from the
  base answer (O(deg) with O(1) set-membership probes; the view holds
  no per-node state, only the damage itself);
* ``num_nodes`` / ``number_of_edges`` are exact, computed once from
  the damage at construction time;
* down nodes are *not* nodes of the view: ``neighbors``/``degree``
  raise :class:`~repro.errors.NodeNotFoundError` for them, exactly as
  for ids the base never had.

Because the view satisfies the oracle protocol, every generic
algorithm (BFS, diameter, synchronous-round flooding) runs on it
unchanged.  What does **not** carry over is structural certification:
a certificate for the pristine construction says nothing about the
damaged graph, so the view deliberately does *not* forward
``structural_proofs`` — recertification goes through
:func:`repro.robustness.invariants.recertify_survivors`.

Node ids of a dense base stay the *base's* ids (alive ids are no
longer contiguous), so the view advertises :attr:`FaultView.id_bound`
— the exclusive upper bound of the base id space — so that
:func:`visit_marks`, the mark store behind
:func:`repro.flooding.rounds.round_flood` and :func:`component_size`,
stays a flat ``bytearray``.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Hashable, Iterable, Iterator, List, Optional

from repro.errors import NodeNotFoundError
from repro.graphs.graph import edge_key
from repro.graphs.oracle import (
    NeighborOracle,
    oracle_has_edge,
    oracle_has_node,
    oracle_num_edges,
)

Node = Hashable


def id_bound(oracle: NeighborOracle) -> Optional[int]:
    """Exclusive upper bound of the oracle's int id space, or ``None``.

    Returns B such that every node id lies in ``range(B)`` when the
    backend guarantees dense int ids (``dense_labels``, an implicit JD
    oracle, or anything advertising an ``id_bound`` attribute — e.g. a
    :class:`FaultView` over a dense base, whose *alive* ids are a
    subset of ``range(B)``).  ``None`` means ids are arbitrary labels
    and flat-array fast paths must not be used.
    """
    bound = getattr(oracle, "id_bound", None)
    if bound is not None:
        return int(bound)
    if getattr(oracle, "dense_labels", False):
        return oracle.num_nodes()
    from repro.graphs.implicit import ImplicitJDOracle

    if isinstance(oracle, ImplicitJDOracle):
        return oracle.num_nodes()
    return None


class FaultView:
    """A ``NeighborOracle`` minus a set of nodes and links.

    Parameters
    ----------
    base:
        Any neighbour oracle.  Never mutated.
    down_nodes:
        Nodes to subtract.  Entries the base does not have are ignored
        (crashing a node that never existed is a no-op, matching the
        event simulator).
    killed_links:
        Undirected links to subtract, as (u, v) pairs or
        :func:`~repro.graphs.graph.edge_key` sets.  Links that do not
        exist in the base, or whose endpoint is already down, are
        dropped from the kill-set so the edge accounting stays exact.
    """

    __slots__ = ("base", "name", "down_nodes", "killed_links", "id_bound")

    def __init__(
        self,
        base: NeighborOracle,
        down_nodes: Iterable[Node] = (),
        killed_links: Iterable = (),
        name: str = "",
    ) -> None:
        self.base = base
        self.name = name or f"{getattr(base, 'name', '') or 'oracle'}-survivors"
        down = frozenset(
            v for v in down_nodes if oracle_has_node(base, v)
        )
        self.down_nodes: FrozenSet[Node] = down
        killed = set()
        for link in killed_links:
            endpoints = tuple(link)
            if len(endpoints) != 2:
                continue
            u, v = endpoints
            if u in down or v in down:
                continue
            if oracle_has_edge(base, u, v):
                killed.add(edge_key(u, v))
        self.killed_links: FrozenSet[frozenset] = frozenset(killed)
        self.id_bound = id_bound(base)

    # ------------------------------------------------------------------
    # NeighborOracle surface
    # ------------------------------------------------------------------

    def num_nodes(self) -> int:
        """Surviving node count."""
        return self.base.num_nodes() - len(self.down_nodes)

    def degree(self, node: Node) -> int:
        """Surviving degree of ``node``."""
        return len(self.neighbors(node))

    def neighbors(self, node: Node) -> List[Node]:
        """Base neighbours minus down nodes and killed links.

        Raises
        ------
        NodeNotFoundError
            If ``node`` is down or unknown to the base.
        """
        if not self.has_node(node):
            raise NodeNotFoundError(node)
        down = self.down_nodes
        out = [w for w in self.base.neighbors(node) if w not in down]
        if self.killed_links:
            killed = self.killed_links
            out = [w for w in out if edge_key(node, w) not in killed]
        return out

    def iter_nodes(self) -> Iterator[Node]:
        """Base node order with the down nodes skipped."""
        if not self.down_nodes:
            return iter(self.base.iter_nodes())
        down = self.down_nodes
        return (v for v in self.base.iter_nodes() if v not in down)

    # ------------------------------------------------------------------
    # Graph-compatible conveniences
    # ------------------------------------------------------------------

    def has_node(self, node: Node) -> bool:
        """True when ``node`` is alive and exists in the base."""
        if node in self.down_nodes:
            return False
        return oracle_has_node(self.base, node)

    def has_edge(self, u: Node, v: Node) -> bool:
        """True when the surviving edge (u, v) exists."""
        if not (self.has_node(u) and self.has_node(v)):
            return False
        if edge_key(u, v) in self.killed_links:
            return False
        return oracle_has_edge(self.base, u, v)

    def nodes(self) -> List[Node]:
        """All surviving nodes as a list (O(n) — prefer iter_nodes)."""
        return list(self.iter_nodes())

    def number_of_nodes(self) -> int:
        """Surviving node count (Graph spelling)."""
        return self.num_nodes()

    def number_of_edges(self) -> int:
        """Surviving edge count — exact, O(#failures · max-degree)."""
        down = self.down_nodes
        incident = sum(self.base.degree(v) for v in down)
        internal = sum(
            1 for v in down for w in self.base.neighbors(v) if w in down
        )
        removed = incident - internal // 2
        return oracle_num_edges(self.base) - removed - len(self.killed_links)

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __len__(self) -> int:
        return self.num_nodes()

    def __iter__(self) -> Iterator[Node]:
        return self.iter_nodes()

    def __repr__(self) -> str:
        return (
            f"<FaultView base={self.name!r} n={self.num_nodes()} "
            f"down={len(self.down_nodes)} killed={len(self.killed_links)}>"
        )

    # ------------------------------------------------------------------
    # Damage introspection (what recertification needs)
    # ------------------------------------------------------------------

    @property
    def damage(self) -> int:
        """Total failure count: down nodes plus killed links."""
        return len(self.down_nodes) + len(self.killed_links)

    def damage_frontier(self) -> List[Node]:
        """Surviving nodes adjacent to the damage, sorted by ``repr``.

        These are the nodes whose degrees and local cuts a
        recertification pass must recheck: everything farther away
        still sees exactly the pristine construction.
        """
        frontier = set()
        for v in self.down_nodes:
            for w in self.base.neighbors(v):
                if self.has_node(w):
                    frontier.add(w)
        for key in self.killed_links:
            for w in key:
                if self.has_node(w):
                    frontier.add(w)
        return sorted(frontier, key=repr)


def visit_marks(oracle: NeighborOracle) -> Any:
    """A per-node mark store with every node of ``oracle`` at 0.

    Dense int ids (see :func:`id_bound`) get a flat ``bytearray`` —
    ~1 byte per node, so a million-node sweep stays cheap; any other
    labels get a ``dict`` keyed by every node.  Either way
    ``marks[v]`` / ``marks[v] = 1`` is the whole interface.  (A
    0-defaulting ``__missing__`` would spare the upfront node pass but
    pays a Python call on every first probe — measurably slower.)
    """
    bound = id_bound(oracle)
    if bound is not None:
        return bytearray(bound)
    return dict.fromkeys(oracle.iter_nodes(), 0)


def component_size(oracle: NeighborOracle, source: Node) -> int:
    """Size of ``source``'s connected component — the BFS witness.

    Runs on any oracle; visited state is a :func:`visit_marks` store.

    Raises
    ------
    NodeNotFoundError
        If ``source`` is not a node of the oracle.
    """
    if not oracle_has_node(oracle, source):
        raise NodeNotFoundError(source)
    neighbors = oracle.neighbors
    seen = visit_marks(oracle)
    seen[source] = 1
    count = 1
    frontier = [source]
    while frontier:
        next_frontier = []
        append = next_frontier.append
        for node in frontier:
            for w in neighbors(node):
                if not seen[w]:
                    seen[w] = 1
                    append(w)
        count += len(next_frontier)
        frontier = next_frontier
    return count
