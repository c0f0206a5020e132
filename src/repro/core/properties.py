"""The LHG property bundle — Properties 1–5 of the paper's definition.

A graph G on n nodes is a **Logarithmic Harary Graph** for (n, k) iff

* **P1 k-node connectivity** — removing any ≤ k−1 nodes leaves G
  connected;
* **P2 k-link connectivity** — removing any ≤ k−1 links leaves G
  connected;
* **P3 link minimality** — removing any single link reduces the
  link/node connectivity;
* **P4 logarithmic diameter** — the max shortest-path length is
  O(log n).

Property 5, **k-regularity**, marks the LHGs with the fewest edges
possible for the connectivity level.

:func:`check_lhg` evaluates the bundle and returns an
:class:`LHGReport`; :func:`is_lhg` is the boolean shortcut.  P4 is an
asymptotic statement, so the checker tests the diameter against the
generous-but-honest budget of
:func:`repro.graphs.properties.logarithmic_diameter_bound`; benches and
tests additionally pin the *exact* diameters of the constructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.connectivity import is_k_edge_connected, is_k_node_connected
from repro.graphs.minimality import is_redundant_edge
from repro.graphs.properties import is_k_regular, logarithmic_diameter_bound
from repro.graphs.traversal import (
    approximate_diameter,
    diameter,
    eccentricity,
    is_connected,
)


@dataclass(frozen=True)
class LHGReport:
    """Outcome of an LHG property check.

    ``diameter`` is exact when computed exhaustively, otherwise the
    double-sweep lower bound (``exact_diameter`` says which);
    ``diameter_upper`` is the matching upper bound (equal to
    ``diameter`` when exact), and ``log_diameter`` holds only when it
    fits ``diameter_budget``.
    """

    n: int
    k: int
    node_connected: bool
    link_connected: bool
    link_minimal: bool
    log_diameter: bool
    k_regular: bool
    diameter: int
    diameter_budget: int
    exact_diameter: bool
    diameter_upper: int

    @property
    def is_lhg(self) -> bool:
        """True when Properties 1–4 all hold."""
        return (
            self.node_connected
            and self.link_connected
            and self.link_minimal
            and self.log_diameter
        )

    def summary(self) -> str:
        """One-line human-readable verdict."""
        flags = [
            ("P1-kappa", self.node_connected),
            ("P2-lambda", self.link_connected),
            ("P3-minimal", self.link_minimal),
            ("P4-logdiam", self.log_diameter),
            ("P5-regular", self.k_regular),
        ]
        status = " ".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in flags)
        return (
            f"LHG(n={self.n}, k={self.k}): {status} "
            f"diameter={self.diameter}{'' if self.exact_diameter else '+'}"
            f"/budget={self.diameter_budget}"
        )


def check_lhg(graph: Graph, k: int, exact_diameter_limit: int = 2000) -> LHGReport:
    """Evaluate Properties 1–5 for ``graph`` at connectivity level ``k``.

    P2 is read off P1 when P1 holds: Whitney's inequality κ(G) ≤ λ(G)
    makes every k-node-connected graph k-link-connected, so the
    edge-flow sweep runs only for graphs that fail P1, where λ ≥ k may
    still hold with κ < k.

    P3 is decided exactly at every n by the local-cut lemma
    (:func:`repro.graphs.minimality.is_redundant_edge`): a k-connected
    graph is minimal iff no edge uv has κ_{G−uv}(u, v) ≥ k.  An edge with
    an endpoint of degree k needs no flow, so the constructions — every
    edge touches a degree-k node — cost one degree probe per edge.  A
    graph that fails P1 has no k-connectivity to lose and counts as
    minimal.

    P4 holds when an *upper* bound on the diameter fits the budget.  Up
    to ``exact_diameter_limit`` nodes the diameter is computed exactly
    (all-BFS); beyond it the report carries the double-sweep lower bound
    and the upper bound 2·ecc(v) of one BFS (the triangle inequality
    through v), so a P4 pass is always proved and a lower bound over the
    budget is always a proved failure.

    Raises
    ------
    GraphError
        If ``k < 1`` or the graph is empty.
    """
    n = graph.number_of_nodes()
    if n == 0:
        raise GraphError("cannot check LHG properties of an empty graph")
    if k < 1:
        raise GraphError(f"connectivity level must be >= 1, got k={k}")

    node_conn = is_k_node_connected(graph, k)
    link_conn = node_conn or is_k_edge_connected(graph, k)
    minimal = not node_conn or not any(
        is_redundant_edge(graph, u, v, k) for u, v in graph.iter_edges()
    )

    connected = is_connected(graph)
    exact = not connected or n <= exact_diameter_limit
    if not connected:
        diam = upper = n  # infinite, represented as the vacuous worst case
    elif exact:
        diam = upper = diameter(graph)
    else:
        diam = approximate_diameter(graph)
        upper = 2 * eccentricity(graph, next(iter(graph.iter_nodes())))
    budget = logarithmic_diameter_bound(n, k) if n >= 2 else 0

    return LHGReport(
        n=n,
        k=k,
        node_connected=node_conn,
        link_connected=link_conn,
        link_minimal=minimal,
        log_diameter=connected and upper <= budget,
        k_regular=is_k_regular(graph, k),
        diameter=diam,
        diameter_budget=budget,
        exact_diameter=exact,
        diameter_upper=upper,
    )


def is_lhg(graph: Graph, k: int) -> bool:
    """Return ``True`` iff ``graph`` satisfies LHG Properties 1–4 for ``k``."""
    return check_lhg(graph, k).is_lhg


def theoretical_diameter_bound(certificate) -> int:
    """The construction-specific diameter bound a certificate implies.

    Any two graph nodes connect through at most two root-to-leaf tree
    walks plus a constant number of splice hops (one clique hop for
    unshared slots), so

        diameter ≤ 2·(height + 1) + 1.

    Tests assert the real diameter never exceeds this; with height =
    O(log_{k−1} n) for k ≥ 3 this is the paper's Property 4.
    """
    return 2 * (certificate.height() + 1) + 1
