"""Self-contained graph substrate: structure, algorithms, generators.

Everything the LHG constructions and the flooding simulator need from
graph theory lives here, implemented from scratch on the stdlib:

* :mod:`repro.graphs.graph` — the mutable :class:`Graph` data
  structure (dict-of-sets);
* :mod:`repro.graphs.oracle` — the :class:`NeighborOracle` read
  protocol every algorithm here is generic over;
* :mod:`repro.graphs.csr` — :class:`CSRGraph`, the compact read-only
  CSR backend with a one-shot compiler from any oracle;
* :mod:`repro.graphs.implicit` — :class:`ImplicitJDOracle`, the
  Jenkins–Demers construction as pure neighbour arithmetic (million-node
  graphs without adjacency);
* :mod:`repro.graphs.faultview` — :class:`FaultView`, a failure
  overlay (down nodes + killed links) on any oracle in O(#failures)
  state;
* :mod:`repro.graphs.traversal` — BFS/DFS, components, distances,
  diameter;
* :mod:`repro.graphs.maxflow` — Dinic max-flow on unit networks;
* :mod:`repro.graphs.connectivity` — κ/λ, k-connectivity predicates,
  cuts, Menger path witnesses;
* :mod:`repro.graphs.minimality` — Property-3 link-minimality checks;
* :mod:`repro.graphs.properties` — degree stats, regularity, expansion;
* :mod:`repro.graphs.generators` — classic/Harary/structured/random
  generators;
* :mod:`repro.graphs.io` — edge-list/JSON/DOT serialisation;
* :mod:`repro.graphs.nxcompat` — optional networkx bridging.
"""

from repro.graphs.decomposition import (
    articulation_points,
    biconnected_components,
    bridges,
    is_biconnected,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.faultview import FaultView, component_size, id_bound
from repro.graphs.graph import Graph, edge_key
from repro.graphs.implicit import ImplicitJDOracle
from repro.graphs.oracle import (
    NeighborOracle,
    materialize,
    oracle_has_edge,
    oracle_has_node,
    oracle_nodes,
    oracle_num_edges,
)
from repro.graphs.weighted import (
    dijkstra,
    link_weights_from_seed,
    weighted_diameter,
    weighted_eccentricity,
    weighted_shortest_path,
)
from repro.graphs.wl_hash import weisfeiler_lehman_hash, wl_equivalent
from repro.graphs.traversal import (
    average_path_length,
    bfs_levels,
    bfs_order,
    connected_components,
    diameter,
    eccentricity,
    is_connected,
    radius,
    shortest_path,
    shortest_path_length,
)
from repro.graphs.connectivity import (
    edge_connectivity,
    edge_disjoint_paths,
    is_k_edge_connected,
    is_k_node_connected,
    local_edge_connectivity,
    local_node_connectivity,
    minimum_edge_cut,
    minimum_node_cut,
    node_connectivity,
    node_disjoint_paths,
)
from repro.graphs.minimality import (
    has_degree_witness_minimality,
    is_link_minimal,
    is_redundant_edge,
    redundant_edges,
)
from repro.graphs.properties import (
    DegreeStats,
    average_clustering,
    degree_stats,
    distance_histogram,
    is_k_regular,
    local_clustering,
    logarithmic_diameter_bound,
    triangle_count,
)

__all__ = [
    "CSRGraph",
    "DegreeStats",
    "FaultView",
    "Graph",
    "ImplicitJDOracle",
    "NeighborOracle",
    "articulation_points",
    "average_clustering",
    "average_path_length",
    "bfs_levels",
    "bfs_order",
    "biconnected_components",
    "bridges",
    "component_size",
    "connected_components",
    "degree_stats",
    "diameter",
    "dijkstra",
    "distance_histogram",
    "eccentricity",
    "edge_connectivity",
    "edge_disjoint_paths",
    "edge_key",
    "has_degree_witness_minimality",
    "id_bound",
    "is_biconnected",
    "is_connected",
    "is_k_edge_connected",
    "is_k_node_connected",
    "is_k_regular",
    "is_link_minimal",
    "is_redundant_edge",
    "link_weights_from_seed",
    "local_clustering",
    "local_edge_connectivity",
    "local_node_connectivity",
    "logarithmic_diameter_bound",
    "materialize",
    "minimum_edge_cut",
    "minimum_node_cut",
    "node_connectivity",
    "node_disjoint_paths",
    "oracle_has_edge",
    "oracle_has_node",
    "oracle_nodes",
    "oracle_num_edges",
    "radius",
    "redundant_edges",
    "shortest_path",
    "shortest_path_length",
    "triangle_count",
    "weighted_diameter",
    "weighted_eccentricity",
    "weighted_shortest_path",
    "weisfeiler_lehman_hash",
    "wl_equivalent",
]
