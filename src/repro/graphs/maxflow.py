"""Dinic's maximum-flow algorithm on small integer capacities.

Connectivity of a graph reduces, through Menger's theorem, to maximum
flow in a derived unit-capacity network:

* **edge connectivity** λ(s, t): each undirected edge becomes a pair of
  opposite arcs of capacity 1; max-flow = number of edge-disjoint paths.
* **node connectivity** κ(s, t): every node is split into ``in``/``out``
  halves joined by a capacity-1 arc; max-flow from ``out(s)`` to
  ``in(t)`` = number of internally node-disjoint paths when s and t are
  not adjacent.

Neither network depends on the (s, t) pair, so a :class:`FlowNetwork`
is compiled once per graph and then answers every pair a connectivity
sweep probes: each :meth:`FlowNetwork.max_flow` call restarts from the
construction-time capacities.  Arcs live in flat parallel lists (head,
residual capacity, initial capacity) with the reverse of arc ``e`` at
``e ^ 1``; node labels are interned to dense ids only while building,
and the queries run on those ints.

:class:`FlowNetwork` implements Dinic's algorithm with the standard
level-graph + blocking-flow structure; the blocking-flow search is an
iterative DFS, so level graphs of any depth are safe.  On the
unit-capacity networks used here it runs in O(m·√m) per query.  The
min-cut side is exposed so the connectivity layer can return cut
certificates, not just numbers.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.errors import GraphError

NodeId = Hashable

_INF = float("inf")


class FlowNetwork:
    """A directed flow network with Dinic max-flow.

    Nodes are arbitrary hashable labels, mapped to dense integer ids
    when arcs are added.  Arcs are added with :meth:`add_arc`; parallel
    arcs are allowed (their capacities simply add up during flow
    computation).  Arc ``e`` (even) is a construction-time arc and arc
    ``e ^ 1`` its zero-capacity residual twin.

    Examples
    --------
    >>> net = FlowNetwork()
    >>> net.add_arc("s", "a", 1)
    >>> net.add_arc("a", "t", 1)
    >>> net.max_flow("s", "t")
    1.0
    >>> net.max_flow("a", "t")  # each query starts from the built capacities
    1.0
    """

    def __init__(self) -> None:
        self._ids: Dict[NodeId, int] = {}
        self._labels: List[NodeId] = []
        self._arcs_of: List[List[int]] = []
        self._head: List[int] = []
        self._initial: List[float] = []
        self._residual: List[float] = []

    def _intern(self, label: NodeId) -> int:
        """Return the dense id for ``label``, creating it if new."""
        node_id = self._ids.get(label)
        if node_id is None:
            node_id = len(self._labels)
            self._ids[label] = node_id
            self._labels.append(label)
            self._arcs_of.append([])
        return node_id

    def add_node(self, label: NodeId) -> None:
        """Ensure ``label`` exists in the network."""
        self._intern(label)

    def add_arc(self, tail: NodeId, head: NodeId, capacity: float) -> None:
        """Add a directed arc ``tail → head`` with the given capacity.

        A zero-capacity residual arc is added in the opposite direction.

        Raises
        ------
        GraphError
            If the capacity is negative.
        """
        if capacity < 0:
            raise GraphError(f"arc capacity must be non-negative, got {capacity}")
        t = self._intern(tail)
        h = self._intern(head)
        arc = len(self._head)
        self._head += (h, t)
        self._initial += (capacity, 0)
        self._residual += (capacity, 0)
        self._arcs_of[t].append(arc)
        self._arcs_of[h].append(arc + 1)

    def number_of_nodes(self) -> int:
        """Return how many distinct node labels the network holds."""
        return len(self._labels)

    # ------------------------------------------------------------------
    # Dinic
    # ------------------------------------------------------------------

    def _bfs_distances(self, source: int, sink: int) -> Optional[List[int]]:
        """Label nodes by residual distance to ``sink``; ``None`` if cut off.

        A backward BFS over residual arcs: arc ``e`` enters a node whose
        arc list holds its twin ``e ^ 1``.  The search stops once
        ``source`` is labelled, since every node nearer the sink is then
        labelled too.  The level graph is every residual arc that steps
        one label closer to the sink, so each arc of it lies on some
        shortest augmenting path, and a walk from ``source`` along such
        arcs reaches ``sink`` unless it meets an arc saturated earlier
        in the phase.
        """
        head = self._head
        residual = self._residual
        arcs_of = self._arcs_of
        distances = [-1] * len(self._labels)
        distances[sink] = 0
        queue = [sink]
        for node in queue:
            farther = distances[node] + 1
            for twin in arcs_of[node]:
                prev = head[twin]
                if distances[prev] < 0 and residual[twin ^ 1] > 0:
                    distances[prev] = farther
                    if prev == source:
                        return distances
                    queue.append(prev)
        return None

    def _blocking_flow(
        self, source: int, sink: int, limit: float, distances: List[int]
    ) -> float:
        """Push up to ``limit`` units along level-graph paths.

        Iterative DFS with per-node current-arc pointers.  ``path`` holds
        the arcs from ``source`` to ``node``; after an augmentation the
        walk resumes at the tail of the first arc it saturated.  A node
        whose arcs are exhausted is a dead end for the phase and is
        dropped from the level graph.
        """
        head = self._head
        residual = self._residual
        arcs_of = self._arcs_of
        current = [0] * len(self._labels)
        pushed: float = 0
        path: List[int] = []
        node = source
        while True:
            if node == sink:
                bottleneck = limit - pushed
                for arc in path:
                    if residual[arc] < bottleneck:
                        bottleneck = residual[arc]
                cut_at = -1
                for i, arc in enumerate(path):
                    residual[arc] -= bottleneck
                    residual[arc ^ 1] += bottleneck
                    if cut_at < 0 and residual[arc] <= 0:
                        cut_at = i
                pushed += bottleneck
                if pushed >= limit:
                    return pushed
                node = head[path[cut_at] ^ 1]
                del path[cut_at:]
                continue
            arcs = arcs_of[node]
            end = len(arcs)
            i = current[node]
            nearer = distances[node] - 1
            while i < end:
                arc = arcs[i]
                if residual[arc] > 0 and distances[head[arc]] == nearer:
                    break
                i += 1
            current[node] = i
            if i < end:
                path.append(arc)
                node = head[arc]
            elif node == source:
                return pushed
            else:
                distances[node] = -1
                node = head[path.pop() ^ 1]
                current[node] += 1

    def max_flow(
        self, source: NodeId, sink: NodeId, cutoff: Optional[float] = None
    ) -> float:
        """Compute the maximum flow from ``source`` to ``sink``.

        Parameters
        ----------
        cutoff:
            Optional early-exit bound: once the flow reaches ``cutoff``
            the computation stops and returns it.  Connectivity checks
            use this to answer "is κ ≥ k" without computing all of κ.

        Notes
        -----
        Every call starts from the construction-time capacities, so one
        network answers any number of (source, sink) queries.  The
        residual state of the latest call stays readable through
        :meth:`iter_flows` and :meth:`min_cut_reachable` until the next.

        Raises
        ------
        GraphError
            If source or sink is unknown, or source equals sink.
        """
        if source not in self._ids or sink not in self._ids:
            raise GraphError("source and sink must be nodes of the network")
        if source == sink:
            raise GraphError("source and sink must differ")
        s = self._ids[source]
        t = self._ids[sink]
        self._residual = self._initial.copy()
        total: float = 0
        bound = _INF if cutoff is None else cutoff
        while total < bound:
            distances = self._bfs_distances(s, t)
            if distances is None:
                break
            total += self._blocking_flow(s, t, bound - total, distances)
        return float(total)

    def iter_flows(self) -> List[Tuple[NodeId, NodeId, float]]:
        """Return ``(tail, head, flow)`` for every original arc with flow > 0.

        Call after :meth:`max_flow`.  Only construction-time arcs are
        reported (residual arcs are skipped), so the result is a valid
        flow assignment for the original network.
        """
        labels = self._labels
        head = self._head
        initial = self._initial
        residual = self._residual
        flows: List[Tuple[NodeId, NodeId, float]] = []
        for tail_id, arcs in enumerate(self._arcs_of):
            for arc in arcs:
                carried = initial[arc] - residual[arc]
                if initial[arc] > 0 and carried > 0:
                    flows.append((labels[tail_id], labels[head[arc]], carried))
        return flows

    def min_cut_reachable(self, source: NodeId) -> Set[NodeId]:
        """Return labels reachable from ``source`` in the residual network.

        Call after :meth:`max_flow`; the returned set is the source side
        of a minimum cut.
        """
        if source not in self._ids:
            raise GraphError(f"{source!r} is not a node of the network")
        head = self._head
        residual = self._residual
        arcs_of = self._arcs_of
        start = self._ids[source]
        seen = {start}
        queue = [start]
        for node in queue:
            for arc in arcs_of[node]:
                if residual[arc] > 0 and head[arc] not in seen:
                    seen.add(head[arc])
                    queue.append(head[arc])
        return {self._labels[i] for i in seen}


def edge_disjoint_flow_network(edges: List[Tuple[NodeId, NodeId]]) -> FlowNetwork:
    """Build the unit network whose max-flow counts edge-disjoint paths.

    Each undirected edge ``(u, v)`` becomes two opposite unit arcs, so an
    s–t max-flow equals the maximum number of pairwise edge-disjoint
    undirected s–t paths (Menger, edge form).
    """
    net = FlowNetwork()
    for u, v in edges:
        net.add_arc(u, v, 1)
        net.add_arc(v, u, 1)
    return net


def node_disjoint_flow_network(
    nodes: List[NodeId], edges: List[Tuple[NodeId, NodeId]]
) -> FlowNetwork:
    """Build the vertex-split unit network for node-disjoint path counting.

    Every node ``x`` is split into ``("in", x)`` and ``("out", x)``
    joined by a unit arc; each undirected edge contributes arcs in both
    directions between the corresponding ``out``/``in`` halves.  For
    non-adjacent s and t, the ``("out", s) → ("in", t)`` max-flow equals
    the maximum number of internally node-disjoint s–t paths (Menger,
    vertex form).  An adjacent pair is answered on the network of
    G − st via κ(s, t) = 1 + κ_{G−st}(s, t).

    Edge arcs carry capacity n + 1 (effectively infinite) so that every
    minimum cut between non-adjacent nodes consists purely of split
    arcs — which is what lets
    :func:`repro.graphs.connectivity.minimum_node_cut` read a node
    separator off the residual reachability.
    """
    big = len(nodes) + 1
    net = FlowNetwork()
    for x in nodes:
        net.add_arc(("in", x), ("out", x), 1)
    for u, v in edges:
        net.add_arc(("out", u), ("in", v), big)
        net.add_arc(("out", v), ("in", u), big)
    return net
