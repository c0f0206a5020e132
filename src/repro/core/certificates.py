"""Construction certificates: the builder's own structural witness.

Every LHG builder in this library returns, next to the graph, a
:class:`ConstructionCertificate` — an immutable snapshot of the abstract
tree it pasted.  Holding the witness means

* the verifier can check *structural* claims (copy counts, leaf sharing,
  degree budget, child quotas) exactly, instead of re-deriving them
  heuristically from the bare graph, and
* the disjoint-path router can produce the k node-disjoint Menger paths
  in O(k · log n) straight from the tree structure, the constructive
  argument behind the paper's connectivity lemma.

The certificate is also the serialisation format for built topologies
(:meth:`to_json` / :meth:`from_json`), so an overlay controller can ship
the structure, not just the edge list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CertificateError
import repro.core.tree_schema as ts


@dataclass(frozen=True)
class InteriorRecord:
    """Frozen snapshot of one abstract-tree interior node."""

    id: int
    parent: Optional[int]
    depth: int
    interior_children: Tuple[int, ...]
    leaf_children: Tuple[int, ...]
    added_leaf_children: Tuple[int, ...]

    def child_count(self) -> int:
        """Total children (interiors + structural leaves + added leaves)."""
        return (
            len(self.interior_children)
            + len(self.leaf_children)
            + len(self.added_leaf_children)
        )


@dataclass(frozen=True)
class LeafRecord:
    """Frozen snapshot of one leaf slot."""

    id: int
    parent: int
    depth: int
    kind: str
    added: bool


@dataclass(frozen=True)
class ConstructionCertificate:
    """Structural witness of a pasted k-copy LHG construction.

    Attributes
    ----------
    k:
        Connectivity level — also the number of pasted tree copies.
    rule:
        Name of the construction rule that produced the graph
        (``"jenkins-demers"``, ``"k-tree"``, ``"k-diamond"``); set by the
        builder via :meth:`with_rule`.
    interiors / leaves:
        Snapshots of the abstract tree, keyed by id.
    """

    k: int
    rule: str
    interiors: Dict[int, InteriorRecord]
    leaves: Dict[int, LeafRecord]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_schema(cls, schema: ts.TreeSchema, rule: str = "unspecified"):
        """Snapshot a :class:`~repro.core.tree_schema.TreeSchema`."""
        interiors = {
            i.id: InteriorRecord(
                id=i.id,
                parent=i.parent,
                depth=i.depth,
                interior_children=tuple(i.interior_children),
                leaf_children=tuple(i.leaf_children),
                added_leaf_children=tuple(i.added_leaf_children),
            )
            for i in schema.interiors.values()
        }
        leaves = {
            l.id: LeafRecord(
                id=l.id, parent=l.parent, depth=l.depth, kind=l.kind, added=l.added
            )
            for l in schema.leaves.values()
        }
        return cls(k=schema.k, rule=rule, interiors=interiors, leaves=leaves)

    def with_rule(self, rule: str) -> "ConstructionCertificate":
        """Return a copy tagged with the producing rule's name."""
        return ConstructionCertificate(
            k=self.k, rule=rule, interiors=self.interiors, leaves=self.leaves
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def interior_count(self) -> int:
        """Number of interior nodes of the abstract tree."""
        return len(self.interiors)

    @property
    def shared_leaves(self) -> List[LeafRecord]:
        """Leaf slots realised as one pasted node."""
        return [l for l in self.leaves.values() if l.kind == ts.SHARED]

    @property
    def unshared_leaves(self) -> List[LeafRecord]:
        """Leaf slots realised as k-cliques."""
        return [l for l in self.leaves.values() if l.kind == ts.UNSHARED]

    def expected_node_count(self) -> int:
        """Graph nodes the pasted construction must have."""
        return (
            self.k * self.interior_count
            + len(self.shared_leaves)
            + self.k * len(self.unshared_leaves)
        )

    def expected_edge_count(self) -> int:
        """Graph edges the pasted construction must have.

        Per copy: one edge per non-root interior (to its parent); plus
        k edges per shared leaf slot (one per copy); plus, per unshared
        slot, k parent edges and the C(k, 2) clique.
        """
        interior_edges = self.k * (self.interior_count - 1)
        shared_edges = self.k * len(self.shared_leaves)
        unshared = len(self.unshared_leaves)
        unshared_edges = unshared * (self.k + self.k * (self.k - 1) // 2)
        return interior_edges + shared_edges + unshared_edges

    def height(self) -> int:
        """Height of the abstract tree."""
        return max(l.depth for l in self.leaves.values())

    def root_id(self) -> int:
        """Id of the abstract root (the interior with no parent)."""
        for record in self.interiors.values():
            if record.parent is None:
                return record.id
        raise CertificateError("certificate has no root interior")

    def path_to_root(self, interior_id: int) -> List[int]:
        """Interior ids from ``interior_id`` up to and including the root."""
        if interior_id not in self.interiors:
            raise CertificateError(f"unknown interior id {interior_id}")
        path = [interior_id]
        while True:
            parent = self.interiors[path[-1]].parent
            if parent is None:
                return path
            path.append(parent)

    def descendant_leaves(self, interior_id: int) -> List[int]:
        """All leaf-slot ids in the subtree rooted at ``interior_id``.

        Added leaf slots count — they hang off the subtree like any
        other leaf and are valid splice points for routing.
        """
        if interior_id not in self.interiors:
            raise CertificateError(f"unknown interior id {interior_id}")
        result: List[int] = []
        stack = [interior_id]
        while stack:
            node = self.interiors[stack.pop()]
            result.extend(node.leaf_children)
            result.extend(node.added_leaf_children)
            stack.extend(node.interior_children)
        return result

    def interior_path(self, from_id: int, to_id: int) -> List[int]:
        """The unique abstract-tree path between two interiors."""
        up_a = self.path_to_root(from_id)
        up_b = self.path_to_root(to_id)
        set_a = {node: idx for idx, node in enumerate(up_a)}
        for idx_b, node in enumerate(up_b):
            if node in set_a:
                return up_a[: set_a[node] + 1] + list(reversed(up_b[:idx_b]))
        raise CertificateError("interiors share no root — corrupt certificate")

    # ------------------------------------------------------------------
    # Verification against a concrete graph
    # ------------------------------------------------------------------

    def verify_graph(self, graph) -> None:
        """Check that ``graph`` is exactly the pasting of this certificate.

        Raises
        ------
        CertificateError
            Describing the first structural mismatch found.
        """
        if graph.number_of_nodes() != self.expected_node_count():
            raise CertificateError(
                f"node count {graph.number_of_nodes()} != expected "
                f"{self.expected_node_count()}"
            )
        if graph.number_of_edges() != self.expected_edge_count():
            raise CertificateError(
                f"edge count {graph.number_of_edges()} != expected "
                f"{self.expected_edge_count()}"
            )
        for copy in range(self.k):
            for record in self.interiors.values():
                label = ts.interior_label(copy, record.id)
                if not graph.has_node(label):
                    raise CertificateError(f"missing interior node {label}")
                if record.parent is not None:
                    parent_label = ts.interior_label(copy, record.parent)
                    if not graph.has_edge(parent_label, label):
                        raise CertificateError(
                            f"missing tree edge {parent_label} -- {label}"
                        )
        for leaf in self.leaves.values():
            if leaf.kind == ts.SHARED:
                label = ts.shared_leaf_label(leaf.id)
                for copy in range(self.k):
                    parent_label = ts.interior_label(copy, leaf.parent)
                    if not graph.has_edge(parent_label, label):
                        raise CertificateError(
                            f"shared leaf {label} not pasted to copy {copy}"
                        )
                if graph.degree(label) != self.k:
                    raise CertificateError(
                        f"shared leaf {label} has degree {graph.degree(label)}, "
                        f"expected {self.k}"
                    )
            else:
                members = [
                    ts.unshared_leaf_label(leaf.id, copy) for copy in range(self.k)
                ]
                for copy, member in enumerate(members):
                    parent_label = ts.interior_label(copy, leaf.parent)
                    if not graph.has_edge(parent_label, member):
                        raise CertificateError(
                            f"unshared member {member} not linked to its copy"
                        )
                for i in range(self.k):
                    for j in range(i + 1, self.k):
                        if not graph.has_edge(members[i], members[j]):
                            raise CertificateError(
                                f"unshared slot {leaf.id} clique missing edge "
                                f"{members[i]} -- {members[j]}"
                            )

    def bound_proofs(self, graph) -> Optional["StructuralProofs"]:
        """This certificate's structural proofs, if ``graph`` is its pasting.

        The binding is a full O(n·k) audit, :meth:`verify_graph`: equal
        node and edge counts plus every tree edge, leaf paste and leaf
        degree present means ``graph`` has exactly the pasting's edge
        set, so the proofs speak about ``graph`` itself.  Returns
        ``None`` when the audit finds any mismatch: an unbound
        certificate proves nothing about the graph.
        """
        try:
            self.verify_graph(graph)
        except CertificateError:
            return None
        return structural_proofs(self)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialise the certificate to JSON."""
        payload = {
            "k": self.k,
            "rule": self.rule,
            "interiors": [
                {
                    "id": r.id,
                    "parent": r.parent,
                    "depth": r.depth,
                    "interior_children": list(r.interior_children),
                    "leaf_children": list(r.leaf_children),
                    "added_leaf_children": list(r.added_leaf_children),
                }
                for r in sorted(self.interiors.values(), key=lambda r: r.id)
            ],
            "leaves": [
                {
                    "id": l.id,
                    "parent": l.parent,
                    "depth": l.depth,
                    "kind": l.kind,
                    "added": l.added,
                }
                for l in sorted(self.leaves.values(), key=lambda l: l.id)
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ConstructionCertificate":
        """Reconstruct a certificate serialised with :meth:`to_json`.

        Raises
        ------
        CertificateError
            If the payload is malformed.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateError(f"invalid certificate JSON: {exc}") from exc
        try:
            interiors = {
                entry["id"]: InteriorRecord(
                    id=entry["id"],
                    parent=entry["parent"],
                    depth=entry["depth"],
                    interior_children=tuple(entry["interior_children"]),
                    leaf_children=tuple(entry["leaf_children"]),
                    added_leaf_children=tuple(entry["added_leaf_children"]),
                )
                for entry in payload["interiors"]
            }
            leaves = {
                entry["id"]: LeafRecord(
                    id=entry["id"],
                    parent=entry["parent"],
                    depth=entry["depth"],
                    kind=entry["kind"],
                    added=entry["added"],
                )
                for entry in payload["leaves"]
            }
            return cls(
                k=payload["k"],
                rule=payload.get("rule", "unspecified"),
                interiors=interiors,
                leaves=leaves,
            )
        except (KeyError, TypeError) as exc:
            raise CertificateError(f"malformed certificate payload: {exc}") from exc


# ----------------------------------------------------------------------
# Structural connectivity certificates (per-property witness proofs)
# ----------------------------------------------------------------------
#
# Dinic max-flow answers "is κ ≥ k?" in O(k·n·m) — fine at n = 256,
# hopeless at n = 10⁶.  The construction certificate supports a cheaper
# argument: check the *premises* of the construction theorem instead of
# the *conclusion* on the bare graph.
#
# P1  A graph of k tree copies pasted at shared leaves (or at unshared
#     k-cliques) is k-node-connected: between any two nodes, route one
#     path through each copy — the copies are disjoint except at pasted
#     leaves, and each pasted leaf joins all k copies.  Premises to
#     check: k ≥ 2, n > k, the interior records form one rooted tree,
#     every interior has at least one child, every leaf slot has a valid
#     kind and an existing parent.
# P2  λ ≥ κ (Whitney), so P1's witness carries over verbatim.
# P3  If every edge has an endpoint of degree exactly k, removing any
#     edge drops δ below k and with it κ — so given P1, the graph is
#     link-minimal.  Leaf nodes always have degree exactly k (a shared
#     leaf meets its parent in k copies; an unshared clique member has
#     one parent edge plus k − 1 clique edges), so only the
#     interior–interior tree edges need checking.
# P4  diameter ≤ 2·(height + 1) + 1 (two root-to-leaf walks plus a
#     splice hop), so height small enough ⟹ the logarithmic budget of
#     repro.graphs.properties.logarithmic_diameter_bound holds.
#
# A witness can be *inconclusive*: when a premise fails (say a K-TREE
# host cluster breaks the degree witness) the structural method cannot
# decide the property either way — ``holds`` is False and ``conclusive``
# is False, and callers fall back to the exact checkers.  The test suite
# cross-checks every conclusive verdict against Dinic on the full small
# (n, k) census.


@dataclass(frozen=True)
class PropertyWitness:
    """One property's structural verdict.

    ``holds`` is the verdict; ``conclusive`` says whether the structural
    argument could decide at all (False means "fall back to the exact
    checker", not "the property fails").
    """

    property_id: str
    holds: bool
    conclusive: bool
    argument: str
    details: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "ok" if self.holds else ("FAIL" if self.conclusive else "??")
        return f"{self.property_id}={verdict}"


@dataclass(frozen=True)
class StructuralProofs:
    """Witness proofs for LHG Properties 1–4, derived from structure.

    Produced by :func:`structural_proofs` (from a
    :class:`ConstructionCertificate`) or
    :meth:`repro.graphs.implicit.ImplicitJDOracle.structural_proofs`
    (from the JD plan arithmetic, never materialising the graph).
    """

    n: int
    k: int
    rule: str
    witnesses: Tuple[PropertyWitness, ...]

    def witness(self, property_id: str) -> PropertyWitness:
        """The witness for ``property_id`` (``"P1"`` … ``"P4"``).

        Raises
        ------
        CertificateError
            If no such witness exists.
        """
        for witness in self.witnesses:
            if witness.property_id == property_id:
                return witness
        raise CertificateError(f"no witness for property {property_id!r}")

    @property
    def all_hold(self) -> bool:
        """True when every property is conclusively certified to hold."""
        return all(w.holds and w.conclusive for w in self.witnesses)

    @property
    def conclusive(self) -> bool:
        """True when every witness reached a verdict."""
        return all(w.conclusive for w in self.witnesses)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        status = " ".join(str(w) for w in self.witnesses)
        return f"StructuralProofs(n={self.n}, k={self.k}, {self.rule}): {status}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (used by the CLI and benchmarks)."""
        return {
            "n": self.n,
            "k": self.k,
            "rule": self.rule,
            "all_hold": self.all_hold,
            "witnesses": [
                {
                    "property": w.property_id,
                    "holds": w.holds,
                    "conclusive": w.conclusive,
                    "argument": w.argument,
                    "details": dict(w.details),
                }
                for w in self.witnesses
            ],
        }


def assemble_structural_proofs(
    n: int,
    k: int,
    rule: str,
    height: int,
    tree_ok: bool,
    tree_detail: str,
    degree_witness_ok: bool,
    degree_witness_detail: str,
    num_edges: int,
) -> StructuralProofs:
    """Assemble the P1–P4 witnesses from checked premise facts.

    The caller (certificate walker or implicit-oracle arithmetic) has
    already verified the premises; this function encodes the inference
    rules connecting them to the four properties, so both certifiers
    produce identical proofs for the same construction.
    """
    from repro.graphs.properties import logarithmic_diameter_bound

    domain_ok = k >= 2 and n > k
    p1_holds = tree_ok and domain_ok
    p1 = PropertyWitness(
        property_id="P1",
        holds=p1_holds,
        conclusive=tree_ok and domain_ok,
        argument=(
            "k pasted tree copies admit k internally node-disjoint paths "
            "between any two nodes (one routed through each copy)"
        ),
        details={"premises": tree_detail, "k": k, "n": n},
    )
    p2 = PropertyWitness(
        property_id="P2",
        holds=p1_holds,
        conclusive=p1.conclusive,
        argument="λ ≥ κ (Whitney), so P1's witness implies λ ≥ k",
        details={"from": "P1"},
    )
    p3 = PropertyWitness(
        property_id="P3",
        holds=p1_holds and degree_witness_ok,
        conclusive=p1.conclusive and degree_witness_ok,
        argument=(
            "every edge has an endpoint of degree exactly k, so removing "
            "any edge drops δ — and with it κ — below k"
        ),
        details={"degree_witness": degree_witness_detail, "edges": num_edges},
    )
    structural_bound = 2 * (height + 1) + 1
    budget = logarithmic_diameter_bound(n, k) if n >= 2 else 0
    # A connected graph's diameter is at most n − 1, so a budget that
    # large (the k ≤ 2 vacuous case) is satisfied outright even when the
    # tree-walk bound overshoots it.
    bound_fits = structural_bound <= budget or budget >= n - 1
    p4 = PropertyWitness(
        property_id="P4",
        holds=tree_ok and bound_fits,
        conclusive=tree_ok and bound_fits,
        argument=(
            "diameter ≤ 2·(height + 1) + 1 — two root-to-leaf walks plus "
            "a splice hop — which fits the logarithmic budget"
        ),
        details={
            "height": height,
            "structural_bound": structural_bound,
            "budget": budget,
        },
    )
    return StructuralProofs(n=n, k=k, rule=rule, witnesses=(p1, p2, p3, p4))


def _certificate_tree_premises(
    certificate: ConstructionCertificate,
) -> Tuple[bool, str]:
    """Check that the certificate's records form a sound pasted tree."""
    interiors = certificate.interiors
    roots = [r.id for r in interiors.values() if r.parent is None]
    if len(roots) != 1:
        return False, f"expected exactly one root, found {len(roots)}"
    limit = len(interiors)
    for record in interiors.values():
        if record.parent is not None:
            parent = interiors.get(record.parent)
            if parent is None:
                return False, f"interior {record.id} has unknown parent"
            if record.id not in parent.interior_children:
                return (
                    False,
                    f"interior {record.id} missing from parent's child list",
                )
        if record.child_count() == 0:
            return False, f"interior {record.id} has no children"
        steps = 0
        node = record
        while node.parent is not None:
            node = interiors[node.parent]
            steps += 1
            if steps > limit:
                return False, f"parent cycle through interior {record.id}"
    for leaf in certificate.leaves.values():
        if leaf.kind not in (ts.SHARED, ts.UNSHARED):
            return False, f"leaf {leaf.id} has unknown kind {leaf.kind!r}"
        parent = interiors.get(leaf.parent)
        if parent is None:
            return False, f"leaf {leaf.id} has unknown parent"
        if leaf.id not in parent.leaf_children + parent.added_leaf_children:
            return False, f"leaf {leaf.id} missing from parent's child list"
    return True, (
        f"one rooted tree of {len(interiors)} interiors, "
        f"{len(certificate.leaves)} pasted leaf slots"
    )


def _certificate_degree_witness(
    certificate: ConstructionCertificate,
) -> Tuple[bool, str]:
    """Check P3's premise: every edge has an endpoint of degree exactly k.

    Leaf edges qualify automatically (leaf nodes have degree exactly k
    in any pasted construction), so only interior–interior tree edges
    are examined, using the degree each interior copy will have:
    parent edge plus one edge per child slot.
    """
    k = certificate.k
    interiors = certificate.interiors

    def interior_degree(record: InteriorRecord) -> int:
        return (0 if record.parent is None else 1) + record.child_count()

    for record in interiors.values():
        if record.parent is None:
            continue
        if interior_degree(record) == k:
            continue
        if interior_degree(interiors[record.parent]) == k:
            continue
        return False, (
            f"tree edge {record.parent}--{record.id} joins degrees "
            f"{interior_degree(interiors[record.parent])} and "
            f"{interior_degree(record)}, neither exactly k={k}"
        )
    return True, (
        f"all leaf nodes have degree k={k}; every interior-interior edge "
        f"touches an interior of degree exactly k"
    )


def structural_proofs(certificate: ConstructionCertificate) -> StructuralProofs:
    """Certify LHG Properties 1–4 from a construction certificate.

    O(m) in the number of abstract-tree records — independent of k and
    of the pasted graph's size, so it scales where Dinic cannot.  See
    the block comment above for the per-property arguments.
    """
    tree_ok, tree_detail = _certificate_tree_premises(certificate)
    if tree_ok:
        witness_ok, witness_detail = _certificate_degree_witness(certificate)
    else:
        witness_ok, witness_detail = False, "tree premises failed"
    return assemble_structural_proofs(
        n=certificate.expected_node_count(),
        k=certificate.k,
        rule=certificate.rule,
        height=certificate.height(),
        tree_ok=tree_ok,
        tree_detail=tree_detail,
        degree_witness_ok=witness_ok,
        degree_witness_detail=witness_detail,
        num_edges=certificate.expected_edge_count(),
    )
