"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph


# (n, k) pairs small enough for exhaustive connectivity checks but
# covering every construction regime: base size, added leaves, unshared
# slots, multi-level trees, and both k parities.
SMALL_PAIRS = [
    (4, 2),
    (5, 2),
    (9, 2),
    (6, 3),
    (7, 3),
    (9, 3),
    (10, 3),
    (11, 3),
    (14, 3),
    (17, 3),
    (8, 4),
    (11, 4),
    (14, 4),
    (15, 4),
    (20, 4),
    (10, 5),
    (13, 5),
    (18, 5),
    (21, 5),
    (12, 6),
    (22, 6),
    (14, 7),
    (16, 8),
    (23, 8),
]

# JD-constructible subset (even offsets with eligible hosts).
JD_PAIRS = [
    (4, 2),
    (6, 2),
    (8, 2),
    (6, 3),
    (10, 3),
    (12, 3),
    (14, 3),
    (8, 4),
    (14, 4),
    (16, 4),
    (20, 4),
    (10, 5),
    (18, 5),
]


@pytest.fixture
def triangle() -> Graph:
    """K_3 — the smallest 2-connected graph."""
    return Graph(edges=[(0, 1), (1, 2), (0, 2)], name="triangle")


@pytest.fixture
def square_with_tail() -> Graph:
    """A 4-cycle with a pendant node: articulation structure for cut tests."""
    return Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)], name="tailed")


@pytest.fixture
def two_triangles_bridge() -> Graph:
    """Two triangles joined by one bridge edge — λ = 1, κ = 1."""
    return Graph(
        edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)],
        name="bridge",
    )


class RowByRowOracle:
    """Only the four ``NeighborOracle`` methods of the wrapped oracle.

    Hides any closed-form ``csr_arrays()``, so ``CSRGraph.from_oracle``
    on the wrapper takes the generic row-by-row compile: the parity
    oracle for the arithmetic CSR path.
    """

    def __init__(self, oracle) -> None:
        self._oracle = oracle

    def num_nodes(self):
        return self._oracle.num_nodes()

    def degree(self, node):
        return self._oracle.degree(node)

    def neighbors(self, node):
        return self._oracle.neighbors(node)

    def iter_nodes(self):
        return self._oracle.iter_nodes()


def csr_bytes_pair(oracle):
    """``(arithmetic, generic)`` CSR buffers of ``oracle``, as raw bytes."""
    indptr, indices = oracle.csr_arrays()
    generic = CSRGraph.from_oracle(RowByRowOracle(oracle))
    return (
        (indptr.tobytes(), indices.tobytes()),
        (generic._indptr.tobytes(), generic._indices.tobytes()),
    )


@pytest.fixture
def repair_sweeps(monkeypatch):
    """Every κ sweep ``repro.overlay.repair`` runs, recorded in call order."""
    import repro.overlay.repair as repair_module
    from repro.graphs.connectivity import node_connectivity

    swept = []

    def recording(graph):
        swept.append(graph)
        return node_connectivity(graph)

    monkeypatch.setattr(repair_module, "node_connectivity", recording)
    return swept
