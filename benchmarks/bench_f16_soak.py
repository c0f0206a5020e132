"""Experiment F16 — soak service: SLOs under churn with online repair.

Runs a short deterministic soak of the long-running overlay service —
LHG(n=20, k=3) under Poisson churn, a Zipf-source flood workload and
two forced crash bursts beyond k−1 — and records the service-level
numbers the paper's resilience story turns into operationally:

* **flood latency** p50/p99/p999 in hops, healthy vs degraded;
* **degradation windows** — each forced burst must open exactly one
  window (graceful, never a crash) and close it by re-verifying
  Properties 1–4 after repair;
* **repair convergence** — ticks from degradation entry to the passing
  re-verification;
* **message amplification** — messages per covered member;
* a **kill-resume probe**: truncate the tick journal mid-run, resume,
  and require the byte-identical SLO report.

Shape assertions: the service ends ``healthy``, every degradation
window closed, no invariant check ever failed, and resume is exact.
Written to ``results/f16_soak.txt``.
"""

from __future__ import annotations

from repro.service import SoakConfig, run_soak

N, K = 20, 3
DURATION = 150
BURSTS = ((40, 3), (90, 4))  # both beyond k-1: forced degradation
CONFIG = SoakConfig(
    population=N,
    k=K,
    duration=DURATION,
    churn_rate=0.5,
    flood_rate=2.0,
    verify_every=25,
    bursts=BURSTS,
    seed=16,
)


def test_f16_soak(benchmark, report, tmp_path):
    soak = run_soak(CONFIG)
    payload = soak.payload

    # the service degraded gracefully — once per forced burst — and
    # proved each recovery by re-verifying Properties 1-4
    windows = payload["degradation"]["windows"]
    assert payload["final_state"] == "healthy"
    assert len(windows) >= len(BURSTS)
    assert all(w["end"] is not None for w in windows)
    assert {w["start"] for w in windows} >= {t for t, _ in BURSTS}
    assert payload["verify"]["runs"] > 0
    assert payload["verify"]["failures"] == 0
    assert soak.violations() == []

    # the workload was real: floods completed every few ticks and the
    # latency histogram has a defined tail
    assert payload["floods"]["completed"] > DURATION
    latency = payload["latency"]
    assert 0 < latency["p50"] <= latency["p99"] <= latency["p999"]
    assert payload["amplification"]["mean"] > 1.0

    # burn-rate alerts: each forced burst beyond k-1 opens an alert
    # whose open/close brackets its degradation window
    alerts = payload["alerts"]["events"]
    assert len(alerts) >= len(BURSTS)
    for window in windows:
        covering = [
            a
            for a in alerts
            if a["opened"] <= window["start"]
            and a["closed"] is not None
            and a["closed"] >= window["end"]
        ]
        assert covering, (window, alerts)

    # kill-resume probe: journal the soak, truncate to a third, resume,
    # and require the byte-identical report
    journal = tmp_path / "f16.jsonl"
    run_soak(CONFIG, checkpoint=journal)
    lines = journal.read_text().splitlines(keepends=True)
    journal.write_text("".join(lines[: len(lines) // 3]))
    resumed = run_soak(CONFIG, checkpoint=journal, resume=True)
    resume_ok = resumed.to_json() == soak.to_json()
    assert resume_ok

    lines = [
        f"F16: soak service — LHG(n={N}, k={K}), {DURATION} ticks, "
        f"{len(BURSTS)} forced burst(s) beyond k-1",
        f"  floods   : {payload['floods']['completed']} completed, "
        f"{payload['floods']['shed']} shed, "
        f"{payload['floods']['partial']} partial",
        f"  latency  : p50={latency['p50']:g} p99={latency['p99']:g} "
        f"p999={latency['p999']:g} hops",
        f"  amplify  : mean={payload['amplification']['mean']:.2f} "
        f"msgs/covered",
        f"  churn    : {payload['churn']['joins']} joins, "
        f"{payload['churn']['crashes']} crashes",
        f"  repair   : {payload['repair']['episodes']} episodes, "
        f"{payload['repair']['restarts']} restarts, "
        f"{payload['repair']['emergency']} emergency",
        f"  degraded : {payload['degradation']['count']} window(s), "
        f"{payload['degradation']['degraded_ticks']} tick(s); "
        f"convergence p50={payload['repair']['convergence']['p50']:g} "
        f"max={payload['repair']['convergence']['max']:g}",
        f"  verify   : {payload['verify']['runs']} runs, "
        f"{payload['verify']['failures']} failures",
        f"  kill-resume byte-identical: {resume_ok}",
    ]
    report("f16_soak", "\n".join(lines))

    # time one full soak pass as the benchmark sample
    benchmark(lambda: run_soak(CONFIG))
