"""The Jenkins–Demers LHG construction (the target paper's contribution).

The paper's operational rule, quoted verbatim by the follow-on
literature:

    "The construction consists of k copies of a tree whose root node has
    k children, and whose other interior nodes mostly have k−1 children
    (except for at most k interior nodes just above the leaf nodes,
    which may have up to k+1 children).  These trees are then 'pasted
    together' at the leaves — i.e. each leaf is a leaf of all k trees."

Mapped onto the :class:`~repro.core.tree_schema.TreeSchema` engine:

* base tree: root + k shared leaves → n = 2k (the K_{k,k} LHG);
* growth: converting a leaf into an interior (with its k−1 fresh leaves)
  adds 2(k−1) nodes, so the "clean" sizes are n₀ = 2k + 2α(k−1);
* slack: a **non-root** interior just above the leaves may carry up to
  k+1 children, i.e. up to **two** added leaves; at most **k** interiors
  may do so.  Added leaves therefore come in even batches bounded by
  2·min(k, eligible interiors).

That slack is exactly why the rule has gaps: odd offsets from n₀ are
never reachable, and near the base (where no non-root interior exists
yet) even small even offsets are unreachable.  :func:`jd_feasibility`
decides any pair exactly, and the coverage benchmark (T4) charts the
resulting holes — infinitely many (n, k) pairs, as the follow-on work
observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import InfeasiblePairError
from repro.core.tree_schema import TreeSchema, grown_schema, paste_copies

RULE_NAME = "jenkins-demers"


@dataclass(frozen=True)
class JDPlan:
    """A feasible Jenkins–Demers build plan for a pair (n, k).

    Attributes
    ----------
    n, k:
        The target pair.
    conversions:
        Leaf→interior conversions applied to the base tree (α).
    extra_pairs:
        Number of non-root interiors that receive two added leaves each.
    """

    n: int
    k: int
    conversions: int
    extra_pairs: int

    @property
    def base_nodes(self) -> int:
        """Nodes contributed by the clean (no-extras) construction."""
        return 2 * self.k + 2 * self.conversions * (self.k - 1)


def _validate_pair(n: int, k: int) -> None:
    if k < 2:
        raise InfeasiblePairError(
            n, k, RULE_NAME, "the construction needs k >= 2 (k copies pasted)"
        )
    if n <= k:
        raise InfeasiblePairError(
            n, k, RULE_NAME, "k-connectivity requires n > k"
        )


def _eligible_extra_hosts(schema: TreeSchema) -> List[int]:
    """Non-root interiors just above the leaves — the only nodes the JD
    rule allows to exceed k−1 children."""
    return schema.interiors_above_leaves(include_root=False)


def _leaf_parent(j: int, k: int) -> int:
    """Interior id the structural leaf slot ``j`` hangs off.

    FIFO growth gives the root slots ``0 … k − 1`` and interior
    ``i ≥ 1`` the next k − 1 slots, so the parent is arithmetic.
    """
    if j < k:
        return 0
    return (j - k) // (k - 1) + 1


def _eligible_host_count(k: int, conversions: int) -> int:
    """``len(_eligible_extra_hosts(grown_schema(k, conversions)))`` in O(1).

    After α conversions the live leaf slots are ``α … T − 1``; their
    parents run from ``_leaf_parent(α)`` up to the newest interior α,
    one consecutive id range, of which the root (id 0) is not eligible.
    """
    if conversions == 0:
        return 0
    return conversions + 1 - max(1, _leaf_parent(conversions, k))


def jd_feasibility(n: int, k: int) -> Optional[JDPlan]:
    """Return a build plan for (n, k) under the JD rule, or ``None``.

    Searches the (at most two) candidate conversion counts whose clean
    size n₀ lies within the 2k-wide slack window below ``n``, and checks
    the even-offset and eligible-host constraints against the tree
    shape, counted in closed form without growing the tree.

    Raises
    ------
    InfeasiblePairError
        Only for pairs outside the domain of *any* k-connected graph
        (k < 2 or n ≤ k); in-domain but unconstructible pairs return
        ``None`` so coverage sweeps stay exception-free.
    """
    _validate_pair(n, k)
    if n < 2 * k:
        return None
    step = 2 * (k - 1)
    max_conversions = (n - 2 * k) // step
    # The slack window is at most 2k wide, so only conversion counts with
    # n0 within [n - 2k, n] can work.
    min_conversions = max(0, (n - 2 * k - 2 * k + step - 1) // step)
    for conversions in range(max_conversions, min_conversions - 1, -1):
        offset = n - (2 * k + conversions * step)
        if offset < 0:
            continue
        if offset % 2 != 0:
            continue
        pairs = offset // 2
        if pairs == 0:
            return JDPlan(n=n, k=k, conversions=conversions, extra_pairs=0)
        if pairs > k:
            continue
        if pairs <= _eligible_host_count(k, conversions):
            return JDPlan(n=n, k=k, conversions=conversions, extra_pairs=pairs)
    return None


def is_jd_constructible(n: int, k: int) -> bool:
    """True when the Jenkins–Demers rule can build a graph for (n, k).

    This is the EX function of the target construction; experiment T4
    sweeps it to chart the rule's coverage holes.
    """
    try:
        return jd_feasibility(n, k) is not None
    except InfeasiblePairError:
        return False


def jd_schema(n: int, k: int) -> TreeSchema:
    """Build the abstract tree for (n, k) under the JD rule.

    Raises
    ------
    InfeasiblePairError
        If the rule cannot produce the pair (see :func:`jd_feasibility`).
    """
    plan = jd_feasibility(n, k)
    if plan is None:
        offset = (n - 2 * k) % (2 * (k - 1)) if n >= 2 * k else None
        if n < 2 * k:
            reason = f"minimum size for connectivity k={k} is n=2k={2 * k}"
        elif offset is not None and offset % 2 == 1:
            reason = (
                f"n is an odd offset ({offset}) from the clean size "
                f"2k+2α(k−1); the JD rule adds leaves only in pairs"
            )
        else:
            reason = (
                "not enough non-root interiors just above the leaves to "
                "host the required added-leaf pairs"
            )
        raise InfeasiblePairError(n, k, RULE_NAME, reason)
    schema = grown_schema(k, plan.conversions)
    hosts = _eligible_extra_hosts(schema)
    for host in hosts[: plan.extra_pairs]:
        schema.add_extra_leaf(host)
        schema.add_extra_leaf(host)
    if schema.node_count() != n:
        raise InfeasiblePairError(  # pragma: no cover - arithmetic guard
            n, k, RULE_NAME, f"internal accounting error: {schema.describe()}"
        )
    return schema


def jenkins_demers_graph(n: int, k: int):
    """Build the Jenkins–Demers LHG for (n, k).

    Returns
    -------
    (Graph, ConstructionCertificate)
        A graph satisfying LHG Properties 1–4 (and 5 exactly when
        ``n ≡ 2k (mod 2(k−1))``, the paper's regular points), plus the
        structural certificate.

    Raises
    ------
    InfeasiblePairError
        If the rule has no graph for this pair.  Use
        :func:`repro.core.ktree.ktree_graph` (extension) for full
        n ≥ 2k coverage.

    Examples
    --------
    >>> graph, cert = jenkins_demers_graph(10, 3)
    >>> graph.number_of_nodes(), cert.k
    (10, 3)
    """
    schema = jd_schema(n, k)
    graph, certificate = paste_copies(schema)
    graph.name = f"jenkins_demers({n},{k})"
    return graph, certificate.with_rule(RULE_NAME)


def jd_constructible_sizes(k: int, max_n: int) -> List[int]:
    """All n ≤ max_n the JD rule can build for connectivity ``k``."""
    return [n for n in range(2 * k, max_n + 1) if is_jd_constructible(n, k)]


def jd_gap_sizes(k: int, max_n: int) -> List[int]:
    """All n ≤ max_n with n ≥ 2k the JD rule **cannot** build.

    Non-empty for every k ≥ 3 and growing with ``max_n`` — the follow-on
    paper's observation that the rule misses infinitely many pairs.
    """
    return [n for n in range(2 * k, max_n + 1) if not is_jd_constructible(n, k)]


def jd_regular_sizes(k: int, max_n: int) -> List[int]:
    """All n ≤ max_n where the JD construction is perfectly k-regular.

    Exactly the clean sizes n = 2k + 2α(k−1): added leaves raise their
    host's degree above k, so only extra-free plans are regular.
    """
    sizes = []
    n = 2 * k
    while n <= max_n:
        sizes.append(n)
        n += 2 * (k - 1)
    return sizes


def expected_dimensions(plan: JDPlan) -> Tuple[int, int]:
    """Return (nodes, edges) the plan's pasted graph will have.

    Edges: per copy, one edge per non-root interior; each shared leaf
    contributes k pasting edges.  With ``m = conversions + 1`` interiors
    and ``L`` leaf slots (structural + added):

        edges = k·(m − 1) + k·L
    """
    k = plan.k
    interiors = plan.conversions + 1
    structural_leaves = k + plan.conversions * (k - 2)
    leaves = structural_leaves + 2 * plan.extra_pairs
    return plan.n, k * (interiors - 1) + k * leaves
