"""Compact CSR (compressed sparse row) graph backend.

:class:`CSRGraph` stores an immutable adjacency structure in two flat
``array('q')`` buffers — the classic CSR layout:

* ``indptr`` (length n + 1): row boundaries — node ``i``'s neighbours
  live at ``indices[indptr[i]:indptr[i + 1]]``;
* ``indices`` (length 2m): neighbour ids, sorted within each row.

At 8 bytes per entry that is ``8·(n + 1) + 16·m`` bytes total —
for a degree-3 LHG at n = 10⁶ about 56 MB, versus gigabytes for a
dict-of-sets with tuple labels.  Rows being sorted makes ``has_edge`` a
binary search, O(log degree).

Nodes are **dense int ids** ``0 … n − 1``.  When the source oracle's
nodes are already exactly that (the common case after
:class:`~repro.graphs.implicit.ImplicitJDOracle`), the backend stores no
label table at all; otherwise the original labels ride along in a list
(``label_of`` / ``id_of``) and the oracle surface speaks *labels*, so a
CSR-compiled graph answers ``neighbors(("L", 4))`` exactly like the
dict-of-sets original — int node ids survive compilation with their
dtype intact (they are stored, not stringified).

Build one with :meth:`CSRGraph.from_oracle`, which compiles any
:class:`~repro.graphs.oracle.NeighborOracle` (including a plain
:class:`~repro.graphs.graph.Graph`) along one of two paths:

* **arithmetic** — an oracle that knows its buffers in closed form
  exposes ``csr_arrays()``, and ``from_oracle`` takes them after a shape
  check.  :meth:`~repro.graphs.implicit.ImplicitJDOracle.csr_arrays`
  fills the Jenkins–Demers rows by strided slice assignments straight
  from the plan, in O(k²) Python steps;
* **generic** — every other oracle is compiled row by row (``degree``,
  then the sorted ``neighbors`` of each node).  This path is also the
  parity oracle for the arithmetic one: the two must agree byte for
  byte.

The structure is read-only by design: mutate a ``Graph``, then
re-compile.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.errors import GraphError, NodeNotFoundError

Node = Hashable


def _is_dense_int_labels(order: Sequence[Node]) -> bool:
    """True when node ``i`` of the iteration order is the int ``i`` itself."""
    for position, node in enumerate(order):
        if node is True or node is False:
            return False
        if not isinstance(node, int) or node != position:
            return False
    return True


def _compile_rows(
    oracle,
) -> Tuple[array, array, Optional[List[Node]], Optional[Dict[Node, int]]]:
    """The generic compile: ``degree`` then sorted ``neighbors``, node by node.

    Returns ``(indptr, indices, labels, ids)``; the label table and its
    inverse are ``None`` when the nodes are the dense ints themselves.
    """
    order = list(oracle.iter_nodes())
    n = len(order)
    if _is_dense_int_labels(order):
        labels: Optional[List[Node]] = None
        ids: Optional[Dict[Node, int]] = None
    else:
        labels = order
        ids = {node: position for position, node in enumerate(order)}
        if len(ids) != n:
            raise GraphError("oracle iter_nodes() yielded a duplicate node")

    indptr = array("q", bytes(8 * (n + 1)))
    for i, node in enumerate(order):
        indptr[i + 1] = indptr[i] + oracle.degree(node)
    indices = array("q", bytes(8 * indptr[n]))
    for i, node in enumerate(order):
        if ids is None:
            row = [int(neighbor) for neighbor in oracle.neighbors(node)]
        else:
            try:
                row = [ids[neighbor] for neighbor in oracle.neighbors(node)]
            except KeyError as exc:
                raise GraphError(
                    f"oracle lists neighbour {exc.args[0]!r} of {node!r} "
                    f"but never yields it from iter_nodes()"
                ) from exc
        row.sort()
        start = indptr[i]
        if len(row) != indptr[i + 1] - start:
            raise GraphError(
                f"oracle degree({node!r}) disagrees with its neighbour list"
            )
        indices[start : start + len(row)] = array("q", row)
    return indptr, indices, labels, ids


class CSRGraph:
    """Read-only CSR-backed graph satisfying the ``NeighborOracle`` protocol.

    Do not call the constructor directly — use :meth:`from_oracle`.
    """

    __slots__ = ("_indptr", "_indices", "_labels", "_ids", "name")

    def __init__(
        self,
        indptr: array,
        indices: array,
        labels: Optional[List[Node]],
        ids: Optional[Dict[Node, int]],
        name: str = "",
    ) -> None:
        self._indptr = indptr
        self._indices = indices
        self._labels = labels
        self._ids = ids
        self.name = name

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    @classmethod
    def from_oracle(cls, oracle, name: str = "") -> "CSRGraph":
        """Compile any :class:`NeighborOracle` into CSR form.

        An oracle that knows its own CSR buffers in closed form — one
        with a ``csr_arrays()`` method returning ``(indptr, indices)``
        over its dense ids ``0 … n − 1``, as
        :class:`~repro.graphs.implicit.ImplicitJDOracle` does — hands
        them over whole, and only their shape is checked.  Every
        other oracle takes the generic two-pass compile: one pass over
        ``iter_nodes`` fixes the dense-id assignment (the oracle's
        stable iteration order), a second fills the rows.  When the
        oracle's nodes are already the ints ``0 … n − 1`` in order, no
        label table is kept and labels *are* ids.

        Opens one ``csr.compile`` span (attributes ``n``, ``nnz`` and
        ``path``, ``"arithmetic"`` or ``"generic"``) and adds the
        buffer size to the ``csr.bytes`` counter.

        Raises
        ------
        GraphError
            If the oracle reports a neighbour that is not one of its
            nodes, or closed-form buffers of the wrong shape (a broken
            oracle, not a broken input).
        """
        arithmetic = getattr(oracle, "csr_arrays", None)
        path = "generic" if arithmetic is None else "arithmetic"
        with obs.span("csr.compile", path=path) as compile_span:
            if arithmetic is None:
                indptr, indices, labels, ids = _compile_rows(oracle)
            else:
                indptr, indices = arithmetic()
                labels, ids = None, None
                n = oracle.num_nodes()
                if not (
                    len(indptr) == n + 1
                    and indptr[0] == 0
                    and indptr[n] == len(indices)
                ):
                    raise GraphError(
                        f"oracle csr_arrays() is not a CSR over {n} nodes: "
                        f"{len(indptr)} row pointers for {len(indices)} indices"
                    )
            compile_span.set(n=len(indptr) - 1, nnz=len(indices))
        graph = cls(
            indptr=indptr,
            indices=indices,
            labels=labels,
            ids=ids,
            name=name or getattr(oracle, "name", ""),
        )
        obs.counter("csr.bytes", graph.nbytes())
        return graph

    @classmethod
    def from_graph(cls, graph, name: str = "") -> "CSRGraph":
        """Alias of :meth:`from_oracle` for the common Graph case."""
        return cls.from_oracle(graph, name=name)

    # ------------------------------------------------------------------
    # Label / id translation
    # ------------------------------------------------------------------

    def _id(self, node: Node) -> int:
        if self._ids is not None:
            try:
                return self._ids[node]
            except (KeyError, TypeError):
                raise NodeNotFoundError(node)
        if (
            isinstance(node, int)
            and node is not True
            and node is not False
            and 0 <= node < self.num_nodes()
        ):
            return node
        raise NodeNotFoundError(node)

    def id_of(self, node: Node) -> int:
        """Dense int id of ``node`` (0 … n − 1).

        Raises
        ------
        NodeNotFoundError
            If ``node`` is not in the graph.
        """
        return self._id(node)

    def label_of(self, node_id: int) -> Node:
        """Original label of dense id ``node_id``.

        Raises
        ------
        NodeNotFoundError
            If the id is out of range.
        """
        if not 0 <= node_id < self.num_nodes():
            raise NodeNotFoundError(node_id)
        if self._labels is None:
            return node_id
        return self._labels[node_id]

    @property
    def dense_labels(self) -> bool:
        """True when labels are the dense ids themselves (no table kept)."""
        return self._labels is None

    # ------------------------------------------------------------------
    # NeighborOracle surface (labels in, labels out)
    # ------------------------------------------------------------------

    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._indptr) - 1

    def degree(self, node: Node) -> int:
        """Degree of ``node``."""
        i = self._id(node)
        return self._indptr[i + 1] - self._indptr[i]

    def neighbors(self, node: Node) -> Sequence[Node]:
        """Neighbours of ``node``, ascending by dense id.

        Dense-labelled graphs return a flat int array slice (zero
        boxing until iterated); labelled graphs return the labels.
        """
        i = self._id(node)
        start, end = self._indptr[i], self._indptr[i + 1]
        if self._labels is None:
            return self._indices[start:end]
        labels = self._labels
        return [labels[j] for j in self._indices[start:end]]

    def iter_nodes(self) -> Iterator[Node]:
        """Iterate nodes in dense-id order (the compilation order)."""
        if self._labels is None:
            return iter(range(self.num_nodes()))
        return iter(self._labels)

    # ------------------------------------------------------------------
    # Graph-compatible conveniences
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.num_nodes()

    def __iter__(self) -> Iterator[Node]:
        return self.iter_nodes()

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<CSRGraph{label} with {self.num_nodes()} nodes "
            f"and {self.number_of_edges()} edges>"
        )

    def has_node(self, node: Node) -> bool:
        """True when ``node`` is in the graph."""
        try:
            self._id(node)
        except NodeNotFoundError:
            return False
        return True

    def has_edge(self, u: Node, v: Node) -> bool:
        """True when the undirected edge (u, v) exists — O(log degree)."""
        try:
            ui, vi = self._id(u), self._id(v)
        except NodeNotFoundError:
            return False
        start, end = self._indptr[ui], self._indptr[ui + 1]
        position = bisect_left(self._indices, vi, start, end)
        return position < end and self._indices[position] == vi

    def nodes(self) -> List[Node]:
        """All nodes as a list, in dense-id order."""
        return list(self.iter_nodes())

    def number_of_nodes(self) -> int:
        """Number of nodes (Graph spelling)."""
        return self.num_nodes()

    def number_of_edges(self) -> int:
        """Number of undirected edges."""
        return len(self._indices) // 2

    def iter_edges(self) -> Iterator[Tuple[Node, Node]]:
        """Yield every edge exactly once, from the lower dense id."""
        indptr, indices = self._indptr, self._indices
        for i in range(self.num_nodes()):
            u = self.label_of(i)
            for position in range(indptr[i], indptr[i + 1]):
                j = indices[position]
                if j > i:
                    yield (u, self.label_of(j))

    def neighbor_ids(self, node_id: int) -> array:
        """Neighbour dense ids of dense id ``node_id`` — the raw row.

        The hot-loop primitive: no label translation at all.
        """
        return self._indices[
            self._indptr[node_id] : self._indptr[node_id + 1]
        ]

    def min_degree(self) -> int:
        """Minimum degree (0 for the empty graph)."""
        indptr = self._indptr
        n = self.num_nodes()
        if n == 0:
            return 0
        return min(indptr[i + 1] - indptr[i] for i in range(n))

    def max_degree(self) -> int:
        """Maximum degree (0 for the empty graph)."""
        indptr = self._indptr
        n = self.num_nodes()
        if n == 0:
            return 0
        return max(indptr[i + 1] - indptr[i] for i in range(n))

    def to_graph(self):
        """Materialise back into a mutable dict-of-sets ``Graph``.

        Labels round-trip exactly — dense int ids come back as ints.
        """
        from repro.graphs.graph import Graph

        graph = Graph(name=self.name)
        for node in self.iter_nodes():
            graph.add_node(node)
        for u, v in self.iter_edges():
            graph.add_edge(u, v)
        return graph

    def nbytes(self) -> int:
        """Bytes held by the CSR buffers (label table excluded)."""
        return self._indptr.itemsize * len(self._indptr) + (
            self._indices.itemsize * len(self._indices)
        )
