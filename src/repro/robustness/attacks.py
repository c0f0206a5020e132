"""Targeted cut attacks computed from the JD pasting arithmetic.

The paper's k−1 tolerance claim is only interesting at its *weakest*
cuts.  In the Jenkins–Demers construction those are known in closed
form: every shared leaf hangs off exactly the k copies of one interior
— its neighbourhood *is* a minimum node cut — so the cheapest ways to
hurt the graph are to crash (or unlink) k−1 of a leaf's parent copies,
leaving the leaf dangling by a single edge, or to take the root
interior out of k−1 copies at once.  None of this needs edge
enumeration: the :class:`~repro.graphs.implicit.ImplicitJDOracle`
answers ``neighbors(leaf)`` arithmetically, so a million-node attack
plan costs O(k) to derive.

:func:`targeted_cut_attacks` emits one :class:`AttackPlan` per known
weak spot — shallowest / median / deepest structural leaf, an added
(paired) leaf when the plan has extra pairs, the root copies, plus
single-failure probes that leave residual connectivity ≥ 2 (the
regime where recertification must prove κ ≥ 2, not just
connectedness).  Every plan stays
within the k−1 budget the paper tolerates, so a correct construction
must keep the survivor component connected and fully floodable under
every one of them; :mod:`bench_f17_scale_chaos` proves exactly that at
n = 10⁶.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import GraphError
from repro.graphs.implicit import ImplicitJDOracle
from repro.graphs.oracle import NeighborOracle, oracle_has_node


@dataclass(frozen=True)
class AttackPlan:
    """One targeted attack: nodes to crash and links to cut at t = 0."""

    name: str
    crashes: Tuple[int, ...] = ()
    link_kills: Tuple[Tuple[int, int], ...] = ()
    description: str = ""

    @property
    def damage(self) -> int:
        """Total failure count (crashes plus killed links)."""
        return len(self.crashes) + len(self.link_kills)

    def schedule(self):
        """The plan as a time-0 :class:`FailureSchedule`."""
        from repro.flooding.failures import FailureSchedule

        schedule = FailureSchedule()
        for node in self.crashes:
            schedule.crash(node, time=0.0)
        for u, v in self.link_kills:
            schedule.fail_link(u, v, time=0.0)
        return schedule

    def surviving_source(self, oracle: NeighborOracle) -> int:
        """The first node of ``oracle`` the plan does not crash.

        Raises
        ------
        GraphError
            If the plan crashes every node (cannot happen for plans
            within the k−1 budget on graphs with n ≥ k).
        """
        down = set(self.crashes)
        for node in oracle.iter_nodes():
            if node not in down:
                return node
        raise GraphError(f"attack {self.name!r} leaves no survivor")


def _leaf_targets(oracle: ImplicitJDOracle) -> List[Tuple[str, int]]:
    """(tag, leaf id) pairs naming the structurally distinct weak leaves."""
    leaf_base = oracle.k * oracle._m
    live = oracle._live
    targets = [("shallowest-leaf", leaf_base)]
    if live > 2:
        targets.append(("median-leaf", leaf_base + live // 2))
    if live > 1:
        targets.append(("deepest-leaf", leaf_base + live - 1))
    if oracle._pairs > 0:
        targets.append(("added-leaf", leaf_base + live))
    seen = set()
    unique = []
    for tag, leaf in targets:
        if leaf not in seen:
            seen.add(leaf)
            unique.append((tag, leaf))
    return unique


def targeted_cut_attacks(oracle: ImplicitJDOracle) -> List[AttackPlan]:
    """Every known weakest-cut attack within the k−1 budget.

    Plans are derived arithmetically from the pasting structure — a
    leaf's neighbourhood is its k parent copies — so generation is
    O(k) per plan regardless of n.  Each plan is validated against the
    oracle (budget ≤ k − 1, crashes are real nodes, killed links are
    real edges) before being returned.

    Raises
    ------
    GraphError
        If ``oracle`` is not an :class:`ImplicitJDOracle` (the plans
        come from the JD arithmetic; materialised backends can replay
        the returned schedules but cannot derive them), or if a
        generated plan fails validation.
    """
    if not isinstance(oracle, ImplicitJDOracle):
        raise GraphError(
            "targeted_cut_attacks needs the implicit JD oracle, got "
            f"{type(oracle).__name__}"
        )
    k, m = oracle.k, oracle._m
    budget = k - 1
    plans: List[AttackPlan] = []

    for tag, leaf in _leaf_targets(oracle):
        parents = sorted(oracle.neighbors(leaf))  # the k parent copies
        plans.append(
            AttackPlan(
                name=f"isolate:{tag}",
                crashes=tuple(parents[:budget]),
                description=(
                    f"crash k−1 of leaf {leaf}'s parent copies — the leaf "
                    f"survives on a single edge"
                ),
            )
        )
        plans.append(
            AttackPlan(
                name=f"cut-links:{tag}",
                link_kills=tuple((leaf, p) for p in parents[:budget]),
                description=(
                    f"sever k−1 of leaf {leaf}'s attachment links — same "
                    f"cut, zero collateral"
                ),
            )
        )
        if tag == "shallowest-leaf" and budget >= 2:
            plans.append(
                AttackPlan(
                    name=f"mixed:{tag}",
                    crashes=(parents[0],),
                    link_kills=tuple((leaf, p) for p in parents[1:budget]),
                    description=(
                        f"one parent crash plus k−2 link cuts around leaf "
                        f"{leaf} — mixed damage totalling k−1"
                    ),
                )
            )

    plans.append(
        AttackPlan(
            name="root-copies",
            crashes=tuple(copy * m for copy in range(budget)),
            description="crash the root interior of k−1 copies at once",
        )
    )
    if oracle._pairs > 0 and budget >= 2:
        first_added = oracle.k * m + oracle._live
        plans.append(
            AttackPlan(
                name="twin-leaves",
                crashes=(first_added, first_added + 1),
                description=(
                    "crash an added-leaf twin pair — both hang off the "
                    "same host's k copies"
                ),
            )
        )
    # single-failure probes: residual connectivity k−1 ≥ 2 for k ≥ 3,
    # the regime where recertification must run a real cut check
    first_leaf = oracle.k * m
    first_parent = min(oracle.neighbors(first_leaf))
    plans.append(
        AttackPlan(
            name="probe:single-node",
            crashes=(first_parent,),
            description="crash one parent copy of the shallowest leaf",
        )
    )
    plans.append(
        AttackPlan(
            name="probe:single-link",
            link_kills=((first_leaf, first_parent),),
            description="sever one attachment link of the shallowest leaf",
        )
    )

    for plan in plans:
        _validate(plan, oracle, budget)
    return plans


def _validate(plan: AttackPlan, oracle: NeighborOracle, budget: int) -> None:
    """Refuse plans outside the tolerance budget or off the graph."""
    if plan.damage == 0 or plan.damage > budget:
        raise GraphError(
            f"attack {plan.name!r} has damage {plan.damage}, "
            f"outside 1 … {budget}"
        )
    if len(set(plan.crashes)) != len(plan.crashes):
        raise GraphError(f"attack {plan.name!r} repeats a crash target")
    for node in plan.crashes:
        if not oracle_has_node(oracle, node):
            raise GraphError(
                f"attack {plan.name!r} crashes unknown node {node!r}"
            )
    for u, v in plan.link_kills:
        if not oracle.has_edge(u, v):  # type: ignore[attr-defined]
            raise GraphError(
                f"attack {plan.name!r} cuts non-edge ({u!r}, {v!r})"
            )
