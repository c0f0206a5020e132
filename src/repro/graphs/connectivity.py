"""Node and edge connectivity via Menger's theorem and max-flow.

This module answers the questions Properties 1 and 2 of the LHG
definition ask:

* :func:`local_node_connectivity` / :func:`local_edge_connectivity` —
  κ(s, t) and λ(s, t) for a node pair;
* :func:`node_connectivity` / :func:`edge_connectivity` — global κ(G)
  and λ(G), using the classic reduction of Even & Tarjan (fix one node,
  probe its non-neighbours, then probe pairs of its neighbours) to avoid
  the all-pairs sweep;
* :func:`is_k_node_connected` / :func:`is_k_edge_connected` — early-exit
  predicates that stop each max-flow at the ``k`` cutoff;
* :func:`minimum_node_cut` / :func:`minimum_edge_cut` — cut certificates;
* :func:`node_disjoint_paths` / :func:`edge_disjoint_paths` — Menger
  witnesses extracted from the flow decomposition.

Every sweep (the global values, the predicates and the cuts) reads
``graph.edges()`` once and compiles one flow network for the graph;
each probed pair is then a :meth:`~repro.graphs.maxflow.FlowNetwork.max_flow`
query on that network.  Node connectivity runs on the vertex-split
network from ``("out", s)`` to ``("in", t)``, which counts internally
disjoint paths for non-adjacent pairs — the only pairs the Even–Tarjan
sweep probes.  The single-pair functions answer an adjacent pair with
Menger's identity κ(s, t) = 1 + κ_{G−st}(s, t): the edge st is one
path, and it shares no interior node with any path of G − st.

Conventions (standard, and the ones the paper uses implicitly): for the
complete graph K_n, κ = n − 1; disconnected graphs have κ = λ = 0;
single-node graphs have κ = λ = 0.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import GraphError, NodeNotFoundError
from repro.graphs.graph import Edge, Graph, Node
from repro.graphs.maxflow import (
    FlowNetwork,
    edge_disjoint_flow_network,
    node_disjoint_flow_network,
)
from repro.graphs.traversal import is_connected


def _require_distinct_nodes(graph: Graph, s: Node, t: Node) -> None:
    if s not in graph:
        raise NodeNotFoundError(s)
    if t not in graph:
        raise NodeNotFoundError(t)
    if s == t:
        raise GraphError("connectivity between a node and itself is undefined")


def _node_flow(
    net: FlowNetwork, s: Node, t: Node, cutoff: Optional[int] = None
) -> int:
    """κ(s, t) for a non-adjacent pair, as a query on a split network."""
    return int(net.max_flow(("out", s), ("in", t), cutoff=cutoff))


def _pair_network(graph: Graph, s: Node, t: Node) -> Tuple[FlowNetwork, bool]:
    """Split network for one pair, built on G − st when s and t are adjacent.

    Returns the network and whether the edge st was left out; the
    caller adds that edge back as the one extra disjoint path.
    """
    edges: List[Edge] = graph.edges()
    adjacent = graph.has_edge(s, t)
    if adjacent:
        edges = [(u, v) for u, v in edges if not (u in (s, t) and v in (s, t))]
    return node_disjoint_flow_network(graph.nodes(), edges), adjacent


def _even_tarjan_pairs(graph: Graph) -> Iterator[Tuple[Node, Node]]:
    """Yield the non-adjacent pairs whose least κ(s, t) is κ(G).

    A minimum-degree pivot v paired with each non-neighbour, then each
    non-adjacent pair of v's neighbours.  The pivot's degree bounds κ
    and keeps the neighbour-pair probe set small.
    """
    pivot = min(graph.nodes(), key=graph.degree)
    neighbors = graph.neighbors(pivot)
    for w in graph:
        if w != pivot and w not in neighbors:
            yield pivot, w
    neighbor_list = sorted(neighbors, key=repr)
    for i, x in enumerate(neighbor_list):
        x_neighbors = graph.neighbors(x)
        for y in neighbor_list[i + 1 :]:
            if y not in x_neighbors:
                yield x, y


def local_edge_connectivity(
    graph: Graph, s: Node, t: Node, cutoff: Optional[int] = None
) -> int:
    """Return λ(s, t): the max number of edge-disjoint s–t paths.

    Parameters
    ----------
    cutoff:
        Stop early once the value is known to be ≥ ``cutoff``.
    """
    _require_distinct_nodes(graph, s, t)
    net = edge_disjoint_flow_network(graph.edges())
    net.add_node(s)
    net.add_node(t)
    return int(net.max_flow(s, t, cutoff=cutoff))


def local_node_connectivity(
    graph: Graph, s: Node, t: Node, cutoff: Optional[int] = None
) -> int:
    """Return κ(s, t): the max number of internally node-disjoint paths.

    For adjacent ``s`` and ``t`` the direct edge counts as one path:
    κ(s, t) = 1 + κ_{G−st}(s, t).
    """
    _require_distinct_nodes(graph, s, t)
    net, adjacent = _pair_network(graph, s, t)
    if adjacent:
        return 1 + _node_flow(net, s, t, None if cutoff is None else cutoff - 1)
    return _node_flow(net, s, t, cutoff)


def edge_connectivity(graph: Graph) -> int:
    """Return the global edge connectivity λ(G).

    Uses the standard fact that λ(G) = min over t ≠ s of λ(s, t) for any
    fixed s, so n − 1 max-flow queries on one network suffice.
    """
    n = graph.number_of_nodes()
    if n < 2 or not is_connected(graph):
        return 0
    nodes = graph.nodes()
    source = nodes[0]
    net = edge_disjoint_flow_network(graph.edges())
    best = graph.min_degree()
    for target in nodes[1:]:
        best = min(best, int(net.max_flow(source, target, cutoff=best)))
    return best


def _node_connectivity(graph: Graph, net: FlowNetwork) -> int:
    best = graph.number_of_nodes() - 1
    for s, t in _even_tarjan_pairs(graph):
        best = min(best, _node_flow(net, s, t, best))
        if best == 0:
            break
    return best


def node_connectivity(graph: Graph) -> int:
    """Return the global node connectivity κ(G).

    Implements the Even–Tarjan reduction: κ(G) is the minimum of
    κ(v, w) over a fixed vertex v and all its non-neighbours w, and
    κ(x, y) over pairs of v's neighbours that are themselves
    non-adjacent.  Complete graphs, where no non-adjacent pair exists,
    return the conventional n − 1.
    """
    n = graph.number_of_nodes()
    if n < 2 or not is_connected(graph):
        return 0
    net = node_disjoint_flow_network(graph.nodes(), graph.edges())
    return _node_connectivity(graph, net)


def is_k_edge_connected(graph: Graph, k: int) -> bool:
    """Return ``True`` if λ(G) ≥ k (every k−1 link removals leave G connected)."""
    if k <= 0:
        return True
    n = graph.number_of_nodes()
    if n < 2:
        return False
    if graph.min_degree() < k:
        return False
    if not is_connected(graph):
        return False
    nodes = graph.nodes()
    source = nodes[0]
    net = edge_disjoint_flow_network(graph.edges())
    return all(
        net.max_flow(source, target, cutoff=k) >= k for target in nodes[1:]
    )


def is_k_node_connected(graph: Graph, k: int) -> bool:
    """Return ``True`` if κ(G) ≥ k (every k−1 node removals leave G connected).

    Matches the paper's Property 1.  Requires n > k (removing k − 1
    nodes from a graph with n ≤ k could leave a single node, which is
    connected by convention, but κ(G) ≤ n − 1 regardless).
    """
    if k <= 0:
        return True
    n = graph.number_of_nodes()
    if n <= k:
        return False
    if graph.min_degree() < k:
        return False
    if not is_connected(graph):
        return False
    net = node_disjoint_flow_network(graph.nodes(), graph.edges())
    return all(
        _node_flow(net, s, t, k) >= k for s, t in _even_tarjan_pairs(graph)
    )


def minimum_edge_cut(graph: Graph) -> Set[Tuple[Node, Node]]:
    """Return a minimum set of edges whose removal disconnects the graph.

    Raises
    ------
    GraphError
        If the graph has fewer than two nodes or is already disconnected.
    """
    n = graph.number_of_nodes()
    if n < 2:
        raise GraphError("minimum edge cut needs at least two nodes")
    if not is_connected(graph):
        raise GraphError("graph is already disconnected")
    nodes = graph.nodes()
    source = nodes[0]
    net = edge_disjoint_flow_network(graph.edges())
    # the first target realising λ(G); re-run its flow to read the cut
    target = min(nodes[1:], key=lambda t: net.max_flow(source, t))
    net.max_flow(source, target)
    reachable = net.min_cut_reachable(source)
    return {
        (u, v)
        for u, v in graph.iter_edges()
        if (u in reachable) != (v in reachable)
    }


def minimum_node_cut(graph: Graph) -> Set[Node]:
    """Return a minimum node separator (empty for complete graphs).

    Raises
    ------
    GraphError
        If the graph has fewer than two nodes or is already disconnected.
    """
    n = graph.number_of_nodes()
    if n < 2:
        raise GraphError("minimum node cut needs at least two nodes")
    if not is_connected(graph):
        raise GraphError("graph is already disconnected")
    net = node_disjoint_flow_network(graph.nodes(), graph.edges())
    kappa = _node_connectivity(graph, net)
    if kappa == n - 1:
        return set()  # complete graph: no separator exists
    for s in graph:
        s_closed = graph.neighbors(s) | {s}
        for t in graph:
            if t in s_closed:
                continue
            if _node_flow(net, s, t) == kappa:
                reachable = net.min_cut_reachable(("out", s))
                cut = {
                    x
                    for x in graph
                    if x not in (s, t)
                    and ("in", x) in reachable
                    and ("out", x) not in reachable
                }
                if len(cut) == kappa:
                    return cut
    raise GraphError("internal error: no pair realised the node connectivity")


def _decompose_unit_flow(
    arcs_used: Dict[Node, List[Node]], s: Node, t: Node
) -> List[List[Node]]:
    """Greedy path extraction over a used-arc adjacency map.

    Flow conservation guarantees every walk started at ``s`` reaches
    ``t``; each step consumes one arc, so the loop terminates.  A walk
    that wandered through a residual flow cycle is compressed back to a
    simple path by cutting the loop at the first repeated node.
    """
    paths: List[List[Node]] = []
    while arcs_used.get(s):
        walk = [s]
        node = s
        while node != t:
            nxt = arcs_used[node].pop()
            walk.append(nxt)
            node = nxt
        path: List[Node] = []
        position: Dict[Node, int] = {}
        for step in walk:
            if step in position:
                del_from = position[step]
                for dropped in path[del_from + 1 :]:
                    del position[dropped]
                del path[del_from + 1 :]
            else:
                position[step] = len(path)
                path.append(step)
        paths.append(path)
    return paths


def edge_disjoint_paths(graph: Graph, s: Node, t: Node) -> List[List[Node]]:
    """Return a maximum family of pairwise edge-disjoint s–t paths.

    The family size equals :func:`local_edge_connectivity`.
    """
    _require_distinct_nodes(graph, s, t)
    net = edge_disjoint_flow_network(graph.edges())
    net.add_node(s)
    net.add_node(t)
    flow = int(net.max_flow(s, t))
    if flow == 0:
        return []
    used = _saturated_arcs(net)
    return _decompose_unit_flow(used, s, t)


def node_disjoint_paths(graph: Graph, s: Node, t: Node) -> List[List[Node]]:
    """Return a maximum family of internally node-disjoint s–t paths.

    The family size equals :func:`local_node_connectivity`; this is the
    constructive Menger witness the LHG proofs reason about.  For an
    adjacent pair the direct path ``[s, t]`` comes first.
    """
    _require_distinct_nodes(graph, s, t)
    net, adjacent = _pair_network(graph, s, t)
    paths: List[List[Node]] = [[s, t]] if adjacent else []
    if _node_flow(net, s, t) == 0:
        return paths
    raw = _decompose_unit_flow(_saturated_arcs(net), ("out", s), ("in", t))
    for split_path in raw:
        # keep one copy of each split node: its "out" half, then t itself
        paths.append([label for kind, label in split_path if kind == "out"] + [t])
    return paths


def _saturated_arcs(net: FlowNetwork) -> Dict[Node, List[Node]]:
    """Return, per node label, the labels its flow-carrying arcs point to.

    Opposite unit-arc pairs between the same nodes that both carried
    flow cancel out, which prunes the 2-cycles the undirected reduction
    can create, leaving an acyclic unit flow that decomposes into paths.
    """
    counts: Dict[Tuple[Node, Node], int] = {}
    for tail, head, carried in net.iter_flows():
        counts[(tail, head)] = counts.get((tail, head), 0) + int(carried)
    used: Dict[Node, List[Node]] = {}
    for (tail, head), count in list(counts.items()):
        opposite = counts.get((head, tail), 0)
        net_flow = count - opposite
        if net_flow > 0:
            used.setdefault(tail, []).extend([head] * net_flow)
            counts[(head, tail)] = 0
            counts[(tail, head)] = 0
    return used
