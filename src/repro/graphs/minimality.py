"""Link minimality — Property 3 of the LHG definition.

A k-connected graph is *link-minimal* when removing **any** single edge
reduces its link or node connectivity: no edge is redundant, so the
flooding message bill (proportional to the edge count) is as small as it
can be for the chosen fault-tolerance level.

Two checkers are provided:

* :func:`is_link_minimal` — exact but expensive: recomputes connectivity
  with each edge removed in turn (O(m) connectivity runs).
* :func:`has_degree_witness_minimality` — a sound fast path: if the
  graph is exactly k-connected and **every edge touches a node of
  degree k**, then deleting that edge leaves its endpoint with degree
  k − 1, forcing λ ≤ k − 1 < k.  All the constructions in this library
  satisfy the witness, so verifying large instances stays cheap; the
  exact checker cross-validates the fast path in the test suite.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import GraphError
from repro.graphs.graph import Edge, Graph
from repro.graphs.connectivity import is_k_node_connected, node_connectivity


def is_link_minimal(graph: Graph, k: Optional[int] = None) -> bool:
    """Return ``True`` if removing any one edge drops the connectivity.

    Parameters
    ----------
    k:
        The connectivity level to check against.  If omitted it is the
        graph's own node connectivity κ, which equals min(κ, λ) by
        Whitney's inequality κ ≤ λ.

    Notes
    -----
    Exact but O(m) connectivity computations; intended for tests and
    small-to-medium graphs.  Use :func:`has_degree_witness_minimality`
    for the large sweeps.
    """
    if graph.number_of_edges() == 0:
        return True
    if k is None:
        k = node_connectivity(graph)
    if k == 0:
        # A disconnected graph cannot lose connectivity it does not have.
        return False
    for u, v in graph.edges():
        reduced = graph.without_edges([(u, v)])
        # κ ≥ k implies λ ≥ k (Whitney), so the node test alone decides
        if is_k_node_connected(reduced, k):
            return False
    return True


def redundant_edges(graph: Graph, k: Optional[int] = None) -> List[Edge]:
    """Return every edge whose removal leaves the graph k-connected.

    An empty result means the graph is link-minimal.  Useful in tests to
    pinpoint which edge violates Property 3.
    """
    if k is None:
        k = node_connectivity(graph)
    extras: List[Edge] = []
    if k == 0:
        return extras
    for u, v in graph.edges():
        reduced = graph.without_edges([(u, v)])
        if is_k_node_connected(reduced, k):
            extras.append((u, v))
    return extras


def has_degree_witness_minimality(graph: Graph, k: int) -> bool:
    """Sound fast-path minimality check via degree witnesses.

    Returns ``True`` if every edge has at least one endpoint of degree
    exactly ``k``.  Combined with the graph being k-connected this
    *implies* link minimality: removing such an edge leaves a node of
    degree k − 1, and since λ(G) ≤ min-degree, the link connectivity
    falls below k.

    A ``False`` answer is inconclusive (the graph may still be minimal);
    fall back to :func:`is_link_minimal` in that case.

    Raises
    ------
    GraphError
        If ``k`` is not positive.
    """
    if k <= 0:
        raise GraphError(f"connectivity level must be positive, got {k}")
    degrees = graph.degrees()
    return all(
        degrees[u] == k or degrees[v] == k for u, v in graph.iter_edges()
    )


def minimality_report(graph: Graph, k: int) -> Tuple[bool, str]:
    """Return ``(is_minimal, how)`` using the cheapest sufficient method.

    ``how`` is ``"degree-witness"`` when the fast path decided, or
    ``"exhaustive"`` when each edge had to be tested individually.
    """
    if has_degree_witness_minimality(graph, k):
        return True, "degree-witness"
    return is_link_minimal(graph, k), "exhaustive"


def excess_edges_over_harary_bound(graph: Graph, k: int) -> int:
    """Return ``m − ⌈kn/2⌉``: edges beyond Harary's absolute minimum.

    Zero means the graph matches the fewest edges *any* k-connected
    graph on n nodes can have; link-minimal LHGs may legitimately carry a
    small positive excess at non-regular (n, k) points, which experiment
    T1 tabulates.
    """
    import math

    n = graph.number_of_nodes()
    if k < 1 or n <= k:
        raise GraphError(f"needs n > k >= 1, got k={k}, n={n}")
    return graph.number_of_edges() - math.ceil(k * n / 2)
