"""Experiment F17 — million-node chaos: targeted k−1 attacks, certified.

T8 proved the pristine construction scales; F17 proves its *tolerance
claim* scales.  Every targeted attack within the paper's k−1 budget —
derived arithmetically from the JD pasting structure by
:func:`~repro.robustness.attacks.targeted_cut_attacks` (leaf
isolation, attachment-link cuts, mixed damage, root-copy crashes,
single-failure probes) — is replayed against the million-node implicit
oracle by the scale pipeline
(:func:`repro.robustness.scale.run_scale` with ``attack=True``), and
for each one:

1. the failure-aware synchronous-round flood
   (:func:`~repro.flooding.rounds.round_flood` with the plan's
   schedule) must cover **100 % of the reachable survivors** from a
   surviving source;
2. the survivor component — a lazy
   :class:`~repro.graphs.faultview.FaultView`, never materialised —
   must recertify clean under
   :func:`~repro.robustness.invariants.recertify_survivors`, which
   proves κ, λ ≥ k − damage from the oracle's conclusive pristine
   P1/P2 certificate by damage arithmetic (one failure lowers κ by at
   most one), in O(1) per plan;
3. the flood's survivor arithmetic must agree with the view's
   (``alive`` = n − crashes, ``reachable`` = component size).

Shape assertions: full survivor coverage and a clean certification for
*every* plan; peak RSS under 1 GB for the whole campaign.  The
derivation and per-plan flood and recertify seconds are the pipeline's
own spans, read from an installed :class:`repro.obs.Collector`.  The
scorecard lands in ``results/f17_scale_chaos.txt``.
"""

from __future__ import annotations

from repro import obs
from repro.core.properties import logarithmic_diameter_bound
from repro.graphs.faultview import FaultView, component_size
from repro.robustness.attacks import targeted_cut_attacks
from repro.robustness.scale import run_scale

N = 1_000_000
K = 3
RSS_CEILING_BYTES = 1 << 30  # 1 GB


def test_f17_scale_chaos(benchmark, report):
    collector = obs.install()
    try:
        run = run_scale(N, K, attack=True)
    finally:
        obs.uninstall()
    seconds = {
        (span["name"], span["attrs"].get("attack")): span["seconds"]
        for span in obs.iter_spans(collector.events)
    }
    derive_seconds = seconds["scale.attacks.derive", None]
    oracle = run.oracle
    assert run.attacks, "no attack plans derived"

    rows = []
    for plan, source, flood, view, violations in run.attacks:
        assert isinstance(view, FaultView), type(view)
        assert view.damage == plan.damage

        # survivor arithmetic agrees between flood and view
        assert flood.alive == view.num_nodes() == N - len(plan.crashes)
        assert flood.reachable == component_size(view, source)

        # the tolerance claim: damage < k leaves one component, and the
        # failure-aware flood covers every reachable survivor
        assert flood.reachable == flood.alive, plan.name
        assert flood.fully_covered, plan.name
        assert flood.covered == flood.alive, plan.name
        assert flood.rounds <= logarithmic_diameter_bound(N, K) + plan.damage
        assert violations == [], (plan.name, [str(v) for v in violations])

        rows.append(
            {
                "coverage": flood.covered / flood.alive,
                "messages": flood.messages,
                "rounds": flood.rounds,
                "flood_seconds": seconds["scale.attack.flood", plan.name],
                "recertify_seconds": seconds[
                    "scale.attack.recertify", plan.name
                ],
            }
        )

    peak_rss = run.report["peak_rss_bytes"]
    assert peak_rss < RSS_CEILING_BYTES, f"peak RSS {peak_rss} >= 1 GB"
    assert all(row["coverage"] == 1.0 for row in rows)

    # benchmark the hot attack-derivation path (arithmetic, O(k) per plan)
    benchmark(lambda: targeted_cut_attacks(oracle))

    worst_rounds = max(row["rounds"] for row in rows)
    total_flood = sum(row["flood_seconds"] for row in rows)
    total_cert = sum(row["recertify_seconds"] for row in rows)
    total_messages = sum(row["messages"] for row in rows)
    lines = [
        f"F17: million-node chaos — JD LHG(n={N}, k={K}), "
        f"{len(rows)} targeted k−1 attacks",
        f"  coverage: 100% of survivors under every plan "
        f"(worst completion {worst_rounds} rounds)",
        f"  derivation: {derive_seconds * 1e3:.1f} ms for all plans",
        f"  recertification: all plans conclusive and clean "
        f"({total_cert * 1e3:.1f} ms total)",
        f"  floods: {total_flood:.2f}s total across plans, "
        f"{total_messages} messages",
        f"  peak RSS: {peak_rss / 1e6:.1f} MB (ceiling 1073.7 MB)",
    ]
    report("f17_scale_chaos", "\n".join(lines))
