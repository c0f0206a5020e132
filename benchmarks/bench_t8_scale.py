"""Experiment T8 — million-node LHGs under a 1 GB memory ceiling.

The paper's constructions are *for* large groups, but every earlier
experiment tops out in the thousands because the dict-of-sets graph and
the Dinic-backed property checkers are priced for exactness, not scale.
This experiment runs the scale pipeline
(:func:`repro.robustness.scale.run_scale`) at n = 10⁶: the
Jenkins–Demers LHG as an :class:`ImplicitJDOracle` (neighbours by
arithmetic, never materialised), Properties 1–4 by structural
certificate (pinned against the exact Dinic checkers over the
small-(n, k) census in ``tests/test_structural_certificates.py``), a
dense-id :class:`CSRGraph` compile and a round flood from node 0.

Shape assertions: every certificate conclusive and holding; flood
covers all 10⁶ nodes within the logarithmic diameter budget; peak RSS
stays under 1 GB.  Stage seconds are the pipeline's own spans, read
from an installed :class:`repro.obs.Collector`.  The scorecard lands in
``results/t8_scale.txt``.
"""

from __future__ import annotations

from repro import obs
from repro.core.properties import logarithmic_diameter_bound
from repro.robustness.scale import run_scale

N = 1_000_000
K = 3
RSS_CEILING_BYTES = 1 << 30  # 1 GB


def test_t8_scale(benchmark, report):
    collector = obs.install()
    try:
        run = run_scale(N, K, csr=True, flood=True)
    finally:
        obs.uninstall()
    seconds = {
        span["name"]: span["seconds"] for span in obs.iter_spans(collector.events)
    }
    build_seconds = seconds["scale.build"]
    certify_seconds = seconds["scale.certify"]
    compile_seconds = seconds["csr.compile"]
    flood_seconds = seconds["scale.flood"]
    oracle, proofs, csr, flood = run.oracle, run.proofs, run.csr, run.flood

    assert proofs.conclusive, proofs.summary()
    assert proofs.all_hold, proofs.summary()
    assert csr.dense_labels
    assert csr.num_nodes() == N
    assert csr.number_of_edges() == oracle.number_of_edges()
    assert flood.covered == N
    assert flood.rounds <= logarithmic_diameter_bound(N, K)

    peak_rss = run.report["peak_rss_bytes"]
    assert peak_rss < RSS_CEILING_BYTES, f"peak RSS {peak_rss} >= 1 GB"

    # benchmark the hot per-query path: one arithmetic neighbourhood
    benchmark(lambda: oracle.neighbors(N // 2))

    lines = [
        f"T8: million-node scale — JD LHG(n={N}, k={K}), "
        f"{oracle.number_of_edges()} edges, height {oracle.height()}",
        f"  build: {build_seconds * 1e6:.0f} µs; certificates "
        f"({certify_seconds * 1e6:.0f} µs): {proofs.summary()}",
        f"  CSR: {csr.nbytes() / 1e6:.1f} MB "
        f"(compile {compile_seconds:.2f}s)",
        f"  flood: covered {flood.covered}/{N} in {flood.rounds} rounds "
        f"(budget {logarithmic_diameter_bound(N, K)}), "
        f"{flood.messages} messages, {flood_seconds:.2f}s",
        f"  peak RSS: {peak_rss / 1e6:.1f} MB (ceiling 1073.7 MB)",
    ]
    report("t8_scale", "\n".join(lines))
