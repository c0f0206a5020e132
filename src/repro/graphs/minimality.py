"""Link minimality — Property 3 of the LHG definition.

A k-connected graph is *link-minimal* when removing **any** single edge
reduces its link or node connectivity: no edge is redundant, so the
flooding message bill (proportional to the edge count) is as small as it
can be for the chosen fault-tolerance level.

One exact decision, the *local-cut lemma*: in a k-connected graph G,
G − uv is still k-connected iff κ_{G−uv}(u, v) ≥ k.  (A separator S of
G − uv with |S| < k does not separate G, so the edge uv must cross it:
S separates u from v in G − uv.)  :func:`is_redundant_edge` applies it
to one edge — an endpoint of degree k already decides "not redundant",
otherwise one max-flow on the pair network of G − uv does — and
:func:`is_link_minimal`, :func:`redundant_edges` and
:func:`repro.core.properties.check_lhg` all decide P3 through it.

:func:`has_degree_witness_minimality` states the structural fact the
constructions satisfy: every edge touches a node of degree k, so no
edge needs a flow at all.  It is sufficient, never necessary — two
cycles joined by two disjoint edges are minimal at k = 2, yet both
joining edges link degree-3 nodes — so the construction tests assert
it, and no verdict rests on it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import GraphError
from repro.graphs.graph import Edge, Graph, Node
from repro.graphs.connectivity import (
    is_k_node_connected,
    local_node_connectivity,
    node_connectivity,
)


def is_redundant_edge(graph: Graph, u: Node, v: Node, k: int) -> bool:
    """Return ``True`` if G − uv is still k-connected, for a k-connected G.

    By the local-cut lemma (module docstring) this holds iff
    κ_{G−uv}(u, v) ≥ k, i.e. κ_G(u, v) > k: the pair network of
    :func:`local_node_connectivity` leaves uv out and counts it back as
    one path.  An endpoint of degree ≤ k decides ``False`` without a
    flow.  The answer is only meaningful when ``graph`` is
    k-node-connected.
    """
    if graph.degree(u) <= k or graph.degree(v) <= k:
        return False
    return local_node_connectivity(graph, u, v, cutoff=k + 1) > k


def is_link_minimal(graph: Graph, k: Optional[int] = None) -> bool:
    """Return ``True`` if removing any one edge drops the connectivity.

    Parameters
    ----------
    k:
        The connectivity level to check against.  If omitted it is the
        graph's own node connectivity κ, which equals min(κ, λ) by
        Whitney's inequality κ ≤ λ.  A graph that is not k-connected
        has no k-connectivity to lose and counts as minimal.
    """
    if graph.number_of_edges() == 0:
        return True
    if k is None:
        k = node_connectivity(graph)
    return k != 0 and not redundant_edges(graph, k)


def redundant_edges(graph: Graph, k: Optional[int] = None) -> List[Edge]:
    """Return every edge whose removal leaves the graph k-connected.

    An empty result means the graph is link-minimal (or not k-connected
    in the first place).  Useful in tests to pinpoint which edge
    violates Property 3.
    """
    if k is None:
        k = node_connectivity(graph)
    if k == 0 or not is_k_node_connected(graph, k):
        return []
    return [(u, v) for u, v in graph.edges() if is_redundant_edge(graph, u, v, k)]


def has_degree_witness_minimality(graph: Graph, k: int) -> bool:
    """Return ``True`` if every edge has an endpoint of degree exactly ``k``.

    Combined with the graph being k-connected this *implies* link
    minimality: removing such an edge leaves a node of degree k − 1,
    and since λ(G) ≤ min-degree, the link connectivity falls below k.
    A ``False`` answer proves nothing (the graph may still be minimal);
    :func:`is_link_minimal` decides.

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
