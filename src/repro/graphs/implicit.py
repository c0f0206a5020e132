"""Implicit Jenkins–Demers oracle: ``neighbors(v)`` by arithmetic.

The JD construction is completely determined by its
:class:`~repro.core.jenkins_demers.JDPlan` — the conversion count α and
the added-leaf pair count p.  Because growth converts leaves in FIFO
order, every structural question about the abstract tree has a closed
form, so the pasted graph never needs to be materialised:

* the tree has ``m = α + 1`` interiors; conversion ``j`` converts leaf
  ``j`` into interior ``j + 1``;
* leaf slot ids run ``0 … T − 1`` with ``T = k + α(k − 1)``; slots
  ``0 … α − 1`` are converted, slots ``α … T − 1`` are live;
* the parent of leaf slot ``j`` is interior ``0`` when ``j < k`` and
  ``(j − k) // (k − 1) + 1`` otherwise; interior ``i ≥ 1``'s parent is
  the parent of the leaf it replaced, ``leaf_parent(i − 1)``;
* interior ``i``'s leaf slots are ``0 … k − 1`` for the root and
  ``k + (i − 1)(k − 1) … k + i(k − 1) − 1`` otherwise;
* the p host interiors for added-leaf pairs are the first p non-root
  interiors with a live leaf child — the *consecutive* ids
  ``i_min … i_min + p − 1`` with ``i_min = max(1, leaf_parent(α))``,
  matching :func:`repro.core.jenkins_demers.jd_schema` exactly.

Graph nodes get **dense int ids** in a fixed layout — interior
``(copy c, id i)`` is ``c·m + i``; live structural leaf ``j`` is
``k·m + (j − α)``; added leaf ``e`` is ``k·m + live + e`` — so CSR
compilation keeps no label table and flooding runs on flat int arrays.
:meth:`label_of` / :meth:`id_of` give the exact bijection to the
``("T", copy, i)`` / ``("L", leaf_id)`` labels
:func:`~repro.core.tree_schema.paste_copies` would have used, which is
how the equivalence tests pin this oracle to the materialised graph.

The same layout fixes the CSR buffers in closed form.
:meth:`ImplicitJDOracle.csr_arrays` writes them column by column with
strided ``array('q')`` slice assignments — the parent column steps by
one every k − 1 rows, a child column switches from interior to leaf ids
once at slot α, leaf column c is ``c·m + parent`` — and
:meth:`~repro.graphs.csr.CSRGraph.from_oracle` picks it up in place of
its generic row-by-row compile, which stays the parity oracle.

Memory: O(1) per instance, O(k) per ``neighbors`` call; the graph
itself never exists until :meth:`~ImplicitJDOracle.csr_arrays` is asked
for it.
"""

from __future__ import annotations

from array import array
from typing import Hashable, Iterator, List, Tuple

from repro.errors import NodeNotFoundError
from repro.core.jenkins_demers import (
    RULE_NAME,
    JDPlan,
    _leaf_parent,
    jd_feasibility,
)

Node = Hashable


def _run(first: int, step: int, count: int) -> array:
    """``first, first + step, …`` (``count`` terms) as an ``array('q')``."""
    if step == 0:
        return array("q", (first,)) * count
    return array("q", range(first, first + step * count, step))


def _put(buffer: array, at: int, stride: int, values: array) -> None:
    """Write ``values`` into ``buffer`` at ``at, at + stride, …``."""
    buffer[at : at + stride * len(values) : stride] = values


def _put_parents(
    buffer: array,
    at: int,
    stride: int,
    first_slot: int,
    count: int,
    k: int,
    offset: int,
) -> None:
    """Write ``offset + leaf_parent(first_slot + r)`` for ``r < count`` into
    ``buffer`` at ``at, at + stride, …``.

    Slots below k hang off the root; from k on the parent steps by one
    every k − 1 slots, so each residue class mod k − 1 is one ramp.
    """
    rooted = min(count, max(0, k - first_slot))
    _put(buffer, at, stride, _run(offset, 0, rooted))
    for r in range(rooted, min(count, rooted + k - 1)):
        parent = offset + _leaf_parent(first_slot + r, k)
        terms = (count - r + k - 2) // (k - 1)
        _put(buffer, at + r * stride, stride * (k - 1), _run(parent, 1, terms))


def _leaf_slot_range(i: int, k: int) -> Tuple[int, int]:
    """Half-open range of structural leaf-slot ids under interior ``i``."""
    if i == 0:
        return 0, k
    return k + (i - 1) * (k - 1), k + i * (k - 1)


class ImplicitJDOracle:
    """The Jenkins–Demers LHG for (n, k) as an arithmetic neighbour oracle.

    Satisfies the :class:`~repro.graphs.oracle.NeighborOracle` protocol
    with dense int node ids ``0 … n − 1``.

    Raises
    ------
    InfeasiblePairError
        If the JD rule has no graph for (n, k) — exactly when
        :func:`~repro.core.jenkins_demers.jd_schema` would refuse.
    """

    __slots__ = (
        "n",
        "k",
        "name",
        "_alpha",
        "_pairs",
        "_m",
        "_slots",
        "_live",
        "_i_min",
    )

    def __init__(self, n: int, k: int) -> None:
        plan = jd_feasibility(n, k)
        if plan is None:
            from repro.core.jenkins_demers import jd_schema

            jd_schema(n, k)  # raises InfeasiblePairError with the real reason
            raise AssertionError("unreachable")  # pragma: no cover
        self.n = n
        self.k = k
        self.name = f"jenkins_demers({n},{k})"
        self._alpha = plan.conversions
        self._pairs = plan.extra_pairs
        self._m = plan.conversions + 1
        self._slots = k + plan.conversions * (k - 1)
        self._live = self._slots - plan.conversions
        self._i_min = max(1, _leaf_parent(plan.conversions, k))

    # ------------------------------------------------------------------
    # Shape accounting
    # ------------------------------------------------------------------

    @property
    def plan(self) -> JDPlan:
        """The feasible build plan this oracle realises."""
        return JDPlan(
            n=self.n, k=self.k, conversions=self._alpha, extra_pairs=self._pairs
        )

    @property
    def rule(self) -> str:
        """Name of the construction rule."""
        return RULE_NAME

    def _leaf_base(self) -> int:
        return self.k * self._m

    def _is_host(self, interior_id: int) -> bool:
        return (
            self._pairs > 0
            and self._i_min <= interior_id < self._i_min + self._pairs
        )

    def height(self) -> int:
        """Height of the abstract tree (O(log n) parent walk)."""
        if self._alpha == 0:
            return 1
        depth = 0
        interior = self._alpha  # parent of the deepest leaf slot
        while interior != 0:
            interior = _leaf_parent(interior - 1, self.k)
            depth += 1
        return depth + 1

    # ------------------------------------------------------------------
    # NeighborOracle surface
    # ------------------------------------------------------------------

    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.n

    def degree(self, node: Node) -> int:
        """Degree of ``node`` — every node has degree k except added-leaf
        hosts, which have k + 2."""
        v = self._check(node)
        leaf_base = self._leaf_base()
        if v < leaf_base:
            interior = v % self._m
            return self.k + 2 if self._is_host(interior) else self.k
        return self.k

    def neighbors(self, node: Node) -> List[int]:
        """Neighbours of ``node``, computed arithmetically (O(k))."""
        v = self._check(node)
        k, m, alpha = self.k, self._m, self._alpha
        leaf_base = self._leaf_base()
        if v < leaf_base:
            copy, interior = divmod(v, m)
            base = copy * m
            out = []
            if interior > 0:
                out.append(base + _leaf_parent(interior - 1, k))
            lo, hi = _leaf_slot_range(interior, k)
            for slot in range(lo, hi):
                if slot < alpha:
                    out.append(base + slot + 1)
                else:
                    out.append(leaf_base + slot - alpha)
            if self._is_host(interior):
                first = leaf_base + self._live + 2 * (interior - self._i_min)
                out.append(first)
                out.append(first + 1)
            return out
        offset = v - leaf_base
        if offset < self._live:
            parent = _leaf_parent(offset + alpha, k)
        else:
            parent = self._i_min + (offset - self._live) // 2
        return [copy * m + parent for copy in range(k)]

    def iter_nodes(self) -> Iterator[int]:
        """Nodes are the dense ints 0 … n − 1, in order."""
        return iter(range(self.n))

    # ------------------------------------------------------------------
    # Graph-compatible conveniences
    # ------------------------------------------------------------------

    def _check(self, node: Node) -> int:
        if (
            isinstance(node, int)
            and node is not True
            and node is not False
            and 0 <= node < self.n
        ):
            return node
        raise NodeNotFoundError(node)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return self.iter_nodes()

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __repr__(self) -> str:
        return (
            f"<ImplicitJDOracle n={self.n} k={self.k} "
            f"conversions={self._alpha} extra_pairs={self._pairs}>"
        )

    def has_node(self, node: Node) -> bool:
        """True for the ints 0 … n − 1."""
        try:
            self._check(node)
        except NodeNotFoundError:
            return False
        return True

    def has_edge(self, u: Node, v: Node) -> bool:
        """True when the undirected edge (u, v) exists — O(k) scan."""
        if not (self.has_node(u) and self.has_node(v)):
            return False
        return v in self.neighbors(u)

    def nodes(self) -> List[int]:
        """All nodes as a list (prefer :meth:`iter_nodes` at scale)."""
        return list(range(self.n))

    def number_of_nodes(self) -> int:
        """Number of nodes (Graph spelling)."""
        return self.n

    def number_of_edges(self) -> int:
        """Edge count from the plan: k·(m − 1) tree edges plus k per leaf."""
        leaves = self._live + 2 * self._pairs
        return self.k * (self._m - 1) + self.k * leaves

    # ------------------------------------------------------------------
    # Label bijection to the materialised construction
    # ------------------------------------------------------------------

    def label_of(self, node_id: int) -> Tuple:
        """The ``paste_copies`` label of dense id ``node_id``.

        Interiors map to ``("T", copy, interior_id)``; live structural
        leaf slots and added leaves map to ``("L", leaf_slot_id)``.
        """
        v = self._check(node_id)
        leaf_base = self._leaf_base()
        if v < leaf_base:
            copy, interior = divmod(v, self._m)
            return ("T", copy, interior)
        offset = v - leaf_base
        if offset < self._live:
            return ("L", offset + self._alpha)
        return ("L", self._slots + (offset - self._live))

    def id_of(self, label: Node) -> int:
        """Inverse of :meth:`label_of`.

        Raises
        ------
        NodeNotFoundError
            If the label does not name a node of this construction.
        """
        if isinstance(label, tuple) and len(label) == 3 and label[0] == "T":
            _, copy, interior = label
            if 0 <= copy < self.k and 0 <= interior < self._m:
                return copy * self._m + interior
        elif isinstance(label, tuple) and len(label) == 2 and label[0] == "L":
            _, slot = label
            if self._alpha <= slot < self._slots:
                return self._leaf_base() + (slot - self._alpha)
            extra = slot - self._slots
            if 0 <= extra < 2 * self._pairs:
                return self._leaf_base() + self._live + extra
        raise NodeNotFoundError(label)

    # ------------------------------------------------------------------
    # CSR buffers in closed form
    # ------------------------------------------------------------------

    def csr_arrays(self) -> Tuple[array, array]:
        """The CSR ``(indptr, indices)`` buffers of this graph, from the plan.

        Byte-identical to what the generic row-by-row compile in
        :meth:`repro.graphs.csr.CSRGraph.from_oracle` makes of
        :meth:`neighbors`, but filled column by column with strided
        slice assignments: every column of a run of equal-length rows is
        an arithmetic progression (or a few interleaved ones), so the
        Python steps number O(k²), not O(n).

        Rows come out sorted as laid out: an interior row lists its
        parent, interior children, leaf children, then its added-leaf
        pair; a leaf row lists its parent in copies 0 … k − 1.
        """
        k, m, alpha, pairs = self.k, self._m, self._alpha, self._pairs
        live, i_min = self._live, self._i_min
        leaf_base = self._leaf_base()
        copy_size = k * m + 2 * pairs  # index entries per copy's interiors
        leaf_start = k * copy_size  # where the leaf rows begin in ``indices``
        hosts_end = i_min + pairs

        indptr = array("q", (0,)) * (self.n + 1)
        indices = array("q", (0,)) * (leaf_start + k * (self.n - leaf_base))

        for copy in range(k):
            base, start = copy * m, copy * copy_size
            # interior rows before, inside and after the host window; the
            # window starts at i_min ≥ 1, so the root row opens the first
            for lo, hi, width, at in (
                (0, i_min, k, start),
                (i_min, hosts_end, k + 2, start + k * i_min),
                (hosts_end, m, k, start + k * hosts_end + 2 * pairs),
            ):
                _put(indptr, base + lo, 1, _run(at, width, hi - lo))
                if lo == 0:  # the root has no parent column
                    indices[at : at + k] = array("q", self.neighbors(base))
                    lo, at = 1, at + k
                if lo < hi:
                    self._fill_interiors(indices, base, lo, hi, width, at)
        _put(indptr, leaf_base, 1, _run(leaf_start, k, self.n + 1 - leaf_base))

        # leaf rows: column c is the leaf's parent in copy c
        for copy in range(k):
            column = leaf_start + copy
            _put_parents(indices, column, k, alpha, live, k, copy * m)
            # added-leaf twins: both leaves of pair e hang off host i_min + e
            for twin in range(2):
                _put(
                    indices,
                    column + k * (live + twin),
                    2 * k,
                    _run(copy * m + i_min, 1, pairs),
                )
        return indptr, indices

    def _fill_interiors(
        self, indices: array, base: int, lo: int, hi: int, width: int, at: int
    ) -> None:
        """Fill interior rows ``lo … hi − 1`` (``lo ≥ 1``) of the copy at
        ``base``; every row is ``width`` long and the first starts at ``at``."""
        k, alpha = self.k, self._alpha
        leaf_base = self._leaf_base()
        # interior i replaced leaf slot i − 1, whose parent is its parent
        _put_parents(indices, at, width, lo - 1, hi - lo, k, base)
        # child columns: slot k + (i − 1)(k − 1) + t is an interior below α
        # and a live leaf from α on, so each column splits once
        for t in range(k - 1):
            first_slot = k + (lo - 1) * (k - 1) + t
            split = min(hi, max(lo, 1 - (k + t - alpha) // (k - 1)))
            column = at + 1 + t
            _put(
                indices,
                column,
                width,
                _run(base + first_slot + 1, k - 1, split - lo),
            )
            _put(
                indices,
                column + (split - lo) * width,
                width,
                _run(
                    leaf_base + first_slot + (split - lo) * (k - 1) - alpha,
                    k - 1,
                    hi - split,
                ),
            )
        if width == k + 2:  # the host window: each host's added-leaf pair
            first = leaf_base + self._live + 2 * (lo - self._i_min)
            _put(indices, at + k, width, _run(first, 2, hi - lo))
            _put(indices, at + k + 1, width, _run(first + 1, 2, hi - lo))

    # ------------------------------------------------------------------
    # Structural certification
    # ------------------------------------------------------------------

    def structural_proofs(self):
        """Certify LHG Properties 1–4 from the construction arithmetic.

        Returns a :class:`repro.core.certificates.StructuralProofs`.
        The premises are *checked*, not assumed: the host window must
        keep every added-leaf host degree-isolated from its tree parent
        and children (the P3 degree witness), and the tree-height bound
        must fit inside the logarithmic diameter budget (P4).
        """
        from repro.core.certificates import assemble_structural_proofs

        # P3 degree witness: every edge needs an endpoint of degree
        # exactly k.  Leaf edges always have one (leaves have degree k);
        # an interior-interior edge fails only if both endpoints are
        # hosts, so check each host's tree parent and interior children.
        witness_ok = True
        detail = ""
        for host in range(self._i_min, self._i_min + self._pairs):
            parent = _leaf_parent(host - 1, self.k)
            if self._is_host(parent):
                witness_ok = False
                detail = f"hosts {parent} and {host} are tree-adjacent"
                break
            lo, hi = _leaf_slot_range(host, self.k)
            for slot in range(lo, min(hi, self._alpha)):
                if self._is_host(slot + 1):
                    witness_ok = False
                    detail = f"hosts {host} and {slot + 1} are tree-adjacent"
                    break
            if not witness_ok:
                break

        return assemble_structural_proofs(
            n=self.n,
            k=self.k,
            rule=RULE_NAME,
            height=self.height(),
            tree_ok=True,
            tree_detail=(
                f"JD plan α={self._alpha}, p={self._pairs}: FIFO-grown tree "
                f"with m={self._m} interiors, all leaves shared"
            ),
            degree_witness_ok=witness_ok,
            degree_witness_detail=detail
            or (
                f"all leaves have degree k={self.k}; every interior-interior "
                f"edge touches a non-host interior of degree exactly k"
            ),
            num_edges=self.number_of_edges(),
        )
