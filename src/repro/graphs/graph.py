"""A self-contained undirected simple-graph data structure.

The :class:`Graph` class is the substrate every other module builds on.
It stores an adjacency map (``dict`` of node → ``set`` of neighbours) and
offers the operations the LHG constructions, verifiers, and the flooding
simulator need: mutation, queries, views, copies, induced subgraphs, and
basic set algebra.

Nodes may be any hashable object.  Edges are unordered pairs of distinct
nodes; self-loops and parallel edges are rejected because every graph in
the paper is simple.

The class is deliberately dependency-free (pure stdlib) so the substrate
can be audited and reused on its own.  ``networkx`` interoperability lives
in :mod:`repro.graphs.nxcompat` and is used only for cross-validation in
the test suite.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError

Node = Hashable
Edge = Tuple[Node, Node]


def edge_key(u: Node, v: Node) -> FrozenSet[Node]:
    """Return a canonical, order-insensitive key for the edge ``(u, v)``.

    Useful for storing undirected edges in sets and dictionaries::

        >>> edge_key(1, 2) == edge_key(2, 1)
        True
    """
    return frozenset((u, v))


class Graph:
    """An undirected simple graph backed by an adjacency map.

    Parameters
    ----------
    nodes:
        Optional iterable of initial nodes.
    edges:
        Optional iterable of ``(u, v)`` pairs.  Endpoints are added as
        nodes automatically.
    name:
        Optional human-readable label, carried through copies and used in
        ``repr`` output.

    Examples
    --------
    >>> g = Graph(edges=[(0, 1), (1, 2)])
    >>> g.number_of_nodes(), g.number_of_edges()
    (3, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_adj", "name")

    def __init__(
        self,
        nodes: Optional[Iterable[Node]] = None,
        edges: Optional[Iterable[Edge]] = None,
        name: str = "",
    ) -> None:
        self._adj: Dict[Node, Set[Node]] = {}
        self.name = name
        if nodes is not None:
            self.add_nodes_from(nodes)
        if edges is not None:
            self.add_edges_from(edges)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __contains__(self, node: Node) -> bool:
        try:
            return node in self._adj
        except TypeError:  # unhashable probe
            return False

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Graph{label} with {self.number_of_nodes()} nodes "
            f"and {self.number_of_edges()} edges>"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality: same node set and same edge set."""
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # Graphs are mutable; keep them unhashable like other containers.
    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph (no-op if already present)."""
        if node not in self._adj:
            self._adj[node] = set()

    def add_nodes_from(self, nodes: Iterable[Node]) -> None:
        """Add every node in ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the undirected edge ``(u, v)``, creating endpoints as needed.

        Raises
        ------
        GraphError
            If ``u == v`` (self-loops are not allowed in simple graphs).
        """
        if u == v:
            raise GraphError(f"self-loop on node {u!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        self._adj[u].add(v)
        self._adj[v].add(u)

    def add_edges_from(self, edges: Iterable[Edge]) -> None:
        """Add every edge in ``edges``."""
        for u, v in edges:
            self.add_edge(u, v)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all its incident edges.

        Raises
        ------
        NodeNotFoundError
            If ``node`` is not in the graph.
        """
        if node not in self._adj:
            raise NodeNotFoundError(node)
        for neighbor in self._adj[node]:
            self._adj[neighbor].discard(node)
        del self._adj[node]

    def remove_nodes_from(self, nodes: Iterable[Node]) -> None:
        """Remove every node in ``nodes`` (all must be present)."""
        for node in list(nodes):
            self.remove_node(node)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``(u, v)``.

        Raises
        ------
        EdgeNotFoundError
            If the edge is not in the graph.
        """
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def remove_edges_from(self, edges: Iterable[Edge]) -> None:
        """Remove every edge in ``edges`` (all must be present)."""
        for u, v in list(edges):
            self.remove_edge(u, v)

    def clear(self) -> None:
        """Remove all nodes and edges."""
        self._adj.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def has_node(self, node: Node) -> bool:
        """Return ``True`` if ``node`` is in the graph."""
        return node in self

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` is present."""
        neighbors = self._adj.get(u)
        return neighbors is not None and v in neighbors

    def nodes(self) -> List[Node]:
        """Return a list of all nodes (insertion order)."""
        return list(self._adj)

    def edges(self) -> List[Edge]:
        """Return a list of all edges, each reported once as ``(u, v)``.

        The orientation of each reported pair follows node insertion
        order; use :func:`edge_key` for order-insensitive comparisons.
        """
        seen: Set[FrozenSet[Node]] = set()
        result: List[Edge] = []
        for u, neighbors in self._adj.items():
            for v in neighbors:
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    result.append((u, v))
        return result

    def iter_edges(self) -> Iterator[Edge]:
        """Yield every edge exactly once without building a list."""
        seen: Set[FrozenSet[Node]] = set()
        for u, neighbors in self._adj.items():
            for v in neighbors:
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    yield (u, v)

    def neighbors(self, node: Node) -> Set[Node]:
        """Return the set of neighbours of ``node`` (a defensive copy).

        Raises
        ------
        NodeNotFoundError
            If ``node`` is not in the graph.
        """
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return set(self._adj[node])

    def adjacency_view(self) -> Mapping[Node, Set[Node]]:
        """Return a read-only, zero-copy view of the adjacency map.

        The view tracks the live graph: mutations through the Graph API
        are visible in it immediately.  The mapping itself rejects item
        assignment; the neighbour sets are the internal ones, so treat
        them as read-only.
        """
        return MappingProxyType(self._adj)

    def degree(self, node: Node) -> int:
        """Return the degree of ``node``.

        Raises
        ------
        NodeNotFoundError
            If ``node`` is not in the graph.
        """
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return len(self._adj[node])

    def degrees(self) -> Dict[Node, int]:
        """Return a mapping of every node to its degree."""
        return {node: len(nbrs) for node, nbrs in self._adj.items()}

    def min_degree(self) -> int:
        """Return the minimum degree (0 for the empty graph)."""
        if not self._adj:
            return 0
        return min(len(nbrs) for nbrs in self._adj.values())

    def max_degree(self) -> int:
        """Return the maximum degree (0 for the empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def number_of_nodes(self) -> int:
        """Return the number of nodes."""
        return len(self._adj)

    def number_of_edges(self) -> int:
        """Return the number of edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    # ------------------------------------------------------------------
    # NeighborOracle surface (see repro.graphs.oracle)
    # ------------------------------------------------------------------

    def num_nodes(self) -> int:
        """Return the number of nodes (``NeighborOracle`` spelling)."""
        return len(self._adj)

    def iter_nodes(self) -> Iterator[Node]:
        """Iterate over all nodes in insertion order."""
        return iter(self._adj)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def copy(self) -> "Graph":
        """Return an independent structural copy of the graph."""
        clone = Graph(name=self.name)
        clone._adj = {node: set(nbrs) for node, nbrs in self._adj.items()}
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the subgraph induced by ``nodes``.

        Nodes not present in the graph are ignored, matching the common
        "restriction" semantics used by the connectivity routines.
        """
        # insertion-ordered so the subgraph's node order follows the
        # caller's ``nodes`` order deterministically (a set here would
        # make node order vary with PYTHONHASHSEED)
        keep = dict.fromkeys(node for node in nodes if node in self._adj)
        sub = Graph(name=self.name)
        for node in keep:
            sub.add_node(node)
        for node in keep:
            for neighbor in self._adj[node]:
                if neighbor in keep:
                    sub.add_edge(node, neighbor)
        return sub

    def without_nodes(self, nodes: Iterable[Node]) -> "Graph":
        """Return a copy of the graph with ``nodes`` (and incident edges) removed."""
        drop = set(nodes)
        return self.subgraph(node for node in self._adj if node not in drop)

    def without_edges(self, edges: Iterable[Edge]) -> "Graph":
        """Return a copy of the graph with the given edges removed.

        Raises
        ------
        EdgeNotFoundError
            If any listed edge is absent.
        """
        clone = self.copy()
        clone.remove_edges_from(edges)
        return clone

    def union(self, other: "Graph") -> "Graph":
        """Return the node- and edge-wise union of ``self`` and ``other``."""
        merged = self.copy()
        merged.add_nodes_from(other.nodes())
        merged.add_edges_from(other.iter_edges())
        return merged

    def relabeled(self, mapping: Dict[Node, Node]) -> "Graph":
        """Return a copy with nodes renamed through ``mapping``.

        Nodes absent from ``mapping`` keep their name.  The mapping must
        be injective on the graph's nodes.

        Raises
        ------
        GraphError
            If two nodes map to the same new name.
        """
        new_names = {node: mapping.get(node, node) for node in self._adj}
        if len(set(new_names.values())) != len(new_names):
            raise GraphError("relabeling mapping is not injective on graph nodes")
        out = Graph(name=self.name)
        for node in self._adj:
            out.add_node(new_names[node])
        for u, v in self.iter_edges():
            out.add_edge(new_names[u], new_names[v])
        return out

    def complement(self) -> "Graph":
        """Return the complement graph on the same node set."""
        nodes = self.nodes()
        comp = Graph(nodes=nodes, name=self.name)
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                if not self.has_edge(u, v):
                    comp.add_edge(u, v)
        return comp

    # ------------------------------------------------------------------
    # Convenience predicates
    # ------------------------------------------------------------------

    def is_regular(self) -> bool:
        """Return ``True`` if every node has the same degree.

        The empty graph and single-node graphs count as regular.
        """
        degrees = {len(nbrs) for nbrs in self._adj.values()}
        return len(degrees) <= 1

    def regular_degree(self) -> Optional[int]:
        """Return the shared degree if the graph is regular, else ``None``.

        Returns ``None`` for the empty graph as well, because it has no
        degree to report.
        """
        degrees = {len(nbrs) for nbrs in self._adj.values()}
        if len(degrees) == 1:
            return next(iter(degrees))
        return None

    def density(self) -> float:
        """Return the edge density ``2m / (n (n - 1))`` (0.0 for n < 2)."""
        n = self.number_of_nodes()
        if n < 2:
            return 0.0
        return 2.0 * self.number_of_edges() / (n * (n - 1))
