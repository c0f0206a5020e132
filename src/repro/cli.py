"""Command-line interface: ``python -m repro`` or the ``repro-lhg`` script.

Subcommands:

* ``build``    — construct an LHG for (n, k) and print a summary (or a
  JSON edge list with ``--json``);
* ``check``    — verify LHG Properties 1–5 for a built pair;
* ``flood``    — simulate a flood with optional random crashes;
* ``chaos``    — run a chaos campaign (scenario × protocol resilience
  matrix with invariant checks; ``--workers`` fans the grid across
  cores with results identical to a serial run; ``--timeout`` /
  ``--retries`` supervise the workers and ``--checkpoint`` /
  ``--resume`` journal completed cells for restart);
* ``coverage`` — print the per-rule existence table for a k;
* ``diameter`` — compare Harary vs LHG diameters over an n sweep;
* ``paths``    — show the k node-disjoint Menger paths between two nodes;
* ``spectral`` — algebraic connectivity vs the Harary baseline;
* ``soak``     — run the overlay as a long-lived service under Poisson
  churn and a Zipf broadcast workload, with online repair, graceful
  degradation and SLO tracking (``--checkpoint`` / ``--resume`` make a
  killed soak resumable with a byte-identical report); exit code 0 when
  SLOs hold, 1 on an SLO violation, 2 on usage errors;
* ``scale``    — run :func:`repro.robustness.scale.run_scale`: the
  (n, k) LHG as an *implicit* oracle, certified by structural
  certificate, optionally compiled to CSR and flooded (``--csr``,
  ``--flood``) and struck by every targeted k − 1 attack (``--attack``);
  reports peak RSS, so ``scale 1000000 3 --flood`` is the smoke test;
* ``trace``    — summarise or convert a ``--telemetry`` JSONL log
  (``trace summary run.jsonl``, ``trace chrome run.jsonl -o t.json``);
* ``prof``     — run the flooding simulator under the span-attributed
  sampling profiler (``prof 1024 4 --hz 100 -o flood.collapsed``); the
  collapsed-stack output loads directly in speedscope/flamegraph.pl;
  exit 1 when no samples landed (run too short for the rate);
* ``perf``     — benchmark regression ledger: ``perf record`` adopts
  the BENCH_*.json results as the committed baseline, ``perf diff``
  compares fresh results against it, ``perf check`` exits 1 when any
  metric regressed beyond its noise-aware tolerance band (the CI
  perf-gate);
* ``lint``     — static determinism & fork-safety analysis
  (``lint src/repro --baseline lint-baseline.json``); exit code 0 when
  clean, 1 on findings, 2 on usage/internal errors.

``build``, ``flood``, ``chaos``, ``soak`` and ``diameter`` accept ``--telemetry
PATH`` (stream the run's JSONL event log to PATH as events happen,
holding at most a bounded buffer in memory) and ``--log-json`` (stream
events to stderr).  Telemetry is passive: enabling it changes no
computed result, only what is recorded.  ``soak`` additionally accepts
``--metrics PATH`` / ``--openmetrics PATH`` to export live metrics
snapshots on a tick cadence while the service runs.

Every command is a thin veneer over the library API, so anything shown
here can be scripted directly in Python.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro.analysis.tables import render_table
from repro.core.existence import build_lhg, coverage_table
from repro.core.properties import check_lhg
from repro.errors import ReproError
from repro.flooding.experiments import run_flood
from repro.flooding.failures import random_crashes
from repro.graphs.generators.harary import harary_graph
from repro.graphs.io import to_json
from repro.graphs.traversal import diameter


#: Events the telemetry collector may hold in memory while streaming.
#: Everything already on disk beyond this cap is evicted from the
#: buffer, so an arbitrarily long soak runs in bounded memory.
_TELEMETRY_BUFFER_CAP = 4096


@contextlib.contextmanager
def _telemetry(args: argparse.Namespace):
    """Install a telemetry collector for one CLI invocation when asked.

    ``--telemetry PATH`` streams the JSONL event log to PATH as events
    are recorded (bounded in-memory buffer — see
    :data:`_TELEMETRY_BUFFER_CAP`); ``--log-json`` streams each event
    to stderr.  A ``cli:<command>`` root span wraps the whole command,
    and the final metrics registry is appended as one
    ``metrics-snapshot`` event so the log is self-contained.
    """
    from repro import obs

    path = getattr(args, "telemetry", None)
    stream = getattr(args, "log_json", False)
    if path is None and not stream:
        yield
        return
    # Open eagerly: an unwritable path fails before any work is done.
    handle = open(path, "w", encoding="utf-8") if path is not None else None
    sinks = []
    if stream:
        sinks.append(obs.JsonlSink(sys.stderr))
    if handle is not None:
        sinks.append(obs.JsonlSink(handle))
    if len(sinks) == 1:
        sink = sinks[0]
    else:
        def sink(event):
            for each in sinks:
                each(event)
    collector = obs.install(
        obs.Collector(sink=sink, max_buffered=_TELEMETRY_BUFFER_CAP)
    )
    try:
        with obs.span(f"cli:{args.command}"):
            yield
    finally:
        collector.emit(
            "metrics-snapshot",
            kind="metrics",
            attrs=collector.metrics.snapshot(),
        )
        obs.uninstall()
        if handle is not None:
            handle.close()
            print(
                f"telemetry: {collector.events_recorded} event(s) "
                f"written to {path}",
                file=sys.stderr,
            )


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs

    events = obs.read_jsonl(args.file)
    problems = obs.validate_events(events)
    if args.action == "summary":
        print(obs.summarize_events(events))
        if problems:
            print(f"\n{len(problems)} schema problem(s):", file=sys.stderr)
            for problem in problems[:10]:
                print(f"  {problem}", file=sys.stderr)
            return 1
        return 0
    # chrome: convert to a trace_event JSON file for Perfetto
    output = args.output or (args.file + ".trace.json")
    count = obs.write_chrome_trace(events, output)
    print(f"wrote {count} trace event(s) to {output}")
    print("open https://ui.perfetto.dev (or chrome://tracing) and load it")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        LintConfig,
        apply_baseline,
        build_project,
        lint_paths,
        lint_project,
        load_baseline,
        render_graph_dot,
        render_graph_json,
        render_json,
        render_sarif,
        render_text,
        rule_ids,
        write_baseline,
    )

    config = LintConfig()
    if args.select:
        unknown = sorted(set(args.select) - set(rule_ids()))
        if unknown:
            raise ValueError(
                f"unknown rule(s) {unknown}; known: {', '.join(rule_ids())}"
            )
        config = LintConfig(select=tuple(args.select))
    exclude = tuple(args.exclude or ())
    if args.graph is not None:
        project, parse_findings = build_project(
            args.paths, config=config, exclude=exclude
        )
        for finding in parse_findings:
            print(finding.format(), file=sys.stderr)
        renderer = (
            render_graph_dot if args.graph == "dot" else render_graph_json
        )
        print(renderer(project))
        return 0 if not parse_findings else 1
    if args.project:
        result = lint_project(args.paths, config=config, exclude=exclude)
    else:
        result = lint_paths(args.paths, config=config, exclude=exclude)
    if args.write_baseline:
        if args.baseline is None:
            raise ValueError("--write-baseline requires --baseline PATH")
        count = write_baseline(result.findings, args.baseline)
        print(f"baseline: {count} finding(s) written to {args.baseline}")
        return 0
    if args.baseline is not None:
        apply_baseline(result, load_baseline(args.baseline))
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    return result.exit_code()


def _cmd_build(args: argparse.Namespace) -> int:
    graph, certificate = build_lhg(args.n, args.k, rule=args.rule)
    if args.json:
        print(to_json(graph))
        return 0
    print(f"built {graph.name} via rule {certificate.rule!r}")
    print(
        f"  nodes={graph.number_of_nodes()} edges={graph.number_of_edges()} "
        f"height={certificate.height()}"
    )
    degrees = sorted(set(graph.degrees().values()))
    print(f"  degrees={degrees} regular={'yes' if len(degrees) == 1 else 'no'}")
    if args.explain:
        from repro.core.existence import explain_construction

        for step in explain_construction(args.n, args.k, rule=args.rule):
            print(f"  - {step}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    graph, _ = build_lhg(args.n, args.k, rule=args.rule)
    report = check_lhg(graph, args.k)
    print(report.summary())
    return 0 if report.is_lhg else 1


def _cmd_flood(args: argparse.Namespace) -> int:
    graph, _ = build_lhg(args.n, args.k, rule=args.rule)
    source = graph.nodes()[0]
    schedule = None
    if args.crashes:
        schedule = random_crashes(
            graph, args.crashes, seed=args.seed, protect={source}
        )
    result = run_flood(graph, source, failures=schedule)
    print(
        f"flood on {graph.name}: covered {result.covered}/{result.reachable} "
        f"reachable ({result.delivery_ratio:.2%}), {result.messages} messages, "
        f"completed at t={result.completion_time}"
    )
    return 0 if result.fully_covered else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.exec import TopologySpec, build_lhg_cached
    from repro.robustness import (
        ChaosCampaign,
        round_flood_protocol,
        standard_scenarios,
    )

    scenarios = standard_scenarios(loss_rates=tuple(args.loss))
    if args.scale:
        # oracle-backed spec + the rounds engine: no materialization, so
        # the same grid runs at sizes the event simulator cannot price.
        # dup-reorder needs the event simulator's channel model; the
        # rounds engine refuses it, so drop it from the default grid.
        scenarios = [s for s in scenarios if s.name != "dup-reorder"]
        spec = TopologySpec(args.n, args.k, backend="implicit")
        topologies = [(spec.label, spec)]
        protocols = [round_flood_protocol()]
        title_name, title_rule = spec.label, "implicit-jd"
    else:
        graph, certificate = build_lhg_cached(args.n, args.k, rule=args.rule)
        topologies = [(graph.name, graph)]
        protocols = None
        title_name, title_rule = graph.name, certificate.rule
    if args.scenarios:
        wanted = set(args.scenarios)
        unknown = wanted - {s.name for s in scenarios}
        if unknown:
            known = ", ".join(s.name for s in scenarios)
            print(
                f"error: unknown scenario(s) {sorted(unknown)}; known: {known}",
                file=sys.stderr,
            )
            return 2
        scenarios = [s for s in scenarios if s.name in wanted]
    campaign = ChaosCampaign(
        topologies,
        protocols=protocols,
        scenarios=scenarios,
        seeds=range(args.seed, args.seed + args.repeats),
    )
    matrix = campaign.run(
        workers=args.workers,
        checkpoint=args.checkpoint,
        resume=args.resume,
        timeout=args.timeout,
        retries=args.retries,
    )
    print(
        matrix.render(
            title=(
                f"Chaos campaign on {title_name} ({title_rule}), "
                f"{args.repeats} seed(s)"
            )
        )
    )
    green = matrix.all_green
    status = "all green" if green else f"VIOLATED in {len(matrix.violations)} case(s)"
    if matrix.failures:
        status += f", {len(matrix.failures)} cell(s) failed to execute"
    print(f"{len(matrix.cells)} cells, invariants {status}")
    print(campaign.last_report.summary())
    return 0 if green else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.service import SoakConfig, run_soak

    bursts = []
    for spec in args.burst or []:
        tick_str, sep, size_str = spec.partition(":")
        if not sep or not tick_str.lstrip("-").isdigit() or not size_str.lstrip("-").isdigit():
            raise ValueError(f"--burst expects TICK:SIZE (integers), got {spec!r}")
        bursts.append((int(tick_str), int(size_str)))
    config = SoakConfig(
        population=args.n,
        k=args.k,
        rule=args.rule,
        duration=args.duration,
        churn_rate=args.churn_rate,
        flood_rate=args.flood_rate,
        zipf_exponent=args.zipf,
        flood_budget=args.flood_budget,
        verify_every=args.verify_every,
        repair_edge_budget=args.repair_budget,
        bursts=tuple(bursts),
        seed=args.seed,
        max_wall=args.max_wall,
    )
    metrics_stream = None
    if args.openmetrics and not args.metrics:
        raise ValueError("--openmetrics requires --metrics PATH")
    if args.metrics:
        from repro.obs import MetricsStream

        metrics_stream = MetricsStream(
            args.metrics, openmetrics_path=args.openmetrics
        )
    try:
        report = run_soak(
            config,
            checkpoint=args.checkpoint,
            resume=args.resume,
            metrics=metrics_stream,
            metrics_every=args.metrics_every,
        )
    finally:
        if metrics_stream is not None:
            metrics_stream.close()
            print(
                f"metrics: {metrics_stream.exports} snapshot(s) streamed "
                f"to {args.metrics}",
                file=sys.stderr,
            )
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    problems = report.violations(p99_hops=args.slo_p99)
    for problem in problems:
        print(f"SLO violation: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_prof(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs.prof import SamplingProfiler

    graph, _ = build_lhg(args.n, args.k, rule=args.rule)
    source = graph.nodes()[0]
    # Spans need a collector; borrow the telemetry one when installed.
    own = obs.active() is None
    if own:
        obs.install(obs.Collector())
    profiler = SamplingProfiler(
        hz=args.hz, backend=args.backend, timer=args.timer
    )
    try:
        with profiler:
            for _ in range(args.repeat):
                with obs.span("flood", n=args.n, k=args.k):
                    run_flood(graph, source)
    finally:
        if own:
            obs.uninstall()
    profile = profiler.profile
    print(profile.render(limit=args.top))
    if args.output is not None:
        lines = profile.write_collapsed(args.output)
        print(f"profile: {lines} collapsed stack(s) written to {args.output}")
    if profile.sample_count == 0:
        print(
            "error: no samples landed — run longer (--repeat) or raise --hz",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf import (
        DEFAULT_ABS_FLOOR,
        DEFAULT_REL_FLOOR,
        DEFAULT_SIGMAS,
        build_ledger,
        collect_results,
        diff_results,
        has_regression,
        load_ledger,
        render_deltas,
        write_ledger,
    )

    if args.action == "record":
        ledger = build_ledger(collect_results(args.results))
        write_ledger(args.ledger, ledger)
        metric_count = sum(len(m) for m in ledger["entries"].values())
        print(
            f"perf: recorded {len(ledger['entries'])} experiment(s), "
            f"{metric_count} metric(s) to {args.ledger}"
        )
        return 0
    deltas = diff_results(
        collect_results(args.results),
        load_ledger(args.ledger),
        rel_floor=(
            DEFAULT_REL_FLOOR if args.rel_floor is None else args.rel_floor
        ),
        abs_floor=(
            DEFAULT_ABS_FLOOR if args.abs_floor is None else args.abs_floor
        ),
        sigmas=DEFAULT_SIGMAS if args.sigmas is None else args.sigmas,
    )
    print(render_deltas(deltas))
    if args.action == "check" and has_regression(deltas):
        print("perf: REGRESSION beyond tolerance band", file=sys.stderr)
        return 1
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    rows = coverage_table(args.k, args.max_n)
    print(
        render_table(
            ["n", "jenkins-demers", "k-tree", "k-diamond"],
            rows,
            title=f"Construction coverage for k={args.k}",
        )
    )
    return 0


def _cmd_diameter(args: argparse.Namespace) -> int:
    from repro.analysis.sweep import run_sweep

    sizes = []
    n = 2 * args.k
    while n <= args.max_n:
        sizes.append(n)
        n *= 2

    def measure(n: int) -> dict:
        lhg, _ = build_lhg(n, args.k)
        return {
            "harary-diameter": diameter(harary_graph(args.k, n)),
            "lhg-diameter": diameter(lhg),
        }

    sweep = run_sweep(
        {"n": sizes},
        measure,
        workers=args.workers,
        checkpoint=args.checkpoint,
        resume=args.resume,
        timeout=args.timeout,
        retries=args.retries,
    )
    print(
        render_table(
            ["n", "harary-diameter", "lhg-diameter"],
            sweep.rows(["n", "harary-diameter", "lhg-diameter"]),
            title=f"Diameter comparison for k={args.k}",
        )
    )
    return 0


def _cmd_paths(args: argparse.Namespace) -> int:
    from repro.core.routing import menger_witness, tree_route

    graph, certificate = build_lhg(args.n, args.k, rule=args.rule)
    nodes = graph.nodes()
    source, target = nodes[0], nodes[-1]
    print(f"{args.k} node-disjoint paths {source!r} -> {target!r}:")
    for path in menger_witness(graph, certificate, source, target):
        print("  " + " -> ".join(repr(p) for p in path))
    route = tree_route(certificate, source, target)
    print(f"certificate route ({len(route) - 1} hops):")
    print("  " + " -> ".join(repr(p) for p in route))
    return 0


def _cmd_spectral(args: argparse.Namespace) -> int:
    from repro.analysis.spectral import algebraic_connectivity

    graph, certificate = build_lhg(args.n, args.k, rule=args.rule)
    harary = harary_graph(args.k, args.n)
    lhg_l2 = algebraic_connectivity(graph)
    harary_l2 = algebraic_connectivity(harary)
    print(f"algebraic connectivity at (n={args.n}, k={args.k}):")
    print(f"  lhg ({certificate.rule}): {lhg_l2:.4f}")
    print(f"  harary circulant        : {harary_l2:.4f}")
    print(f"  ratio                   : {lhg_l2 / harary_l2:.2f}x")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.planning import plan_topology

    plan = plan_topology(
        args.n, args.failures, latency_budget_hops=args.latency_budget
    )
    print(plan.summary())
    if plan.paper_rule_applies:
        print("the original Jenkins-Demers rule covers this pair")
    else:
        print("built via an extension rule (the JD rule has a gap here)")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    import json as _json

    from repro.robustness.scale import run_scale

    run = run_scale(
        args.n, args.k, csr=args.csr, flood=args.flood, attack=args.attack
    )
    report = run.report
    if args.json:
        print(_json.dumps(report, sort_keys=False))
    else:
        print(f"{run.oracle.name}: {args.n} nodes, {report['edges']} edges, "
              f"height {report['height']}")
        print(f"  certificates: {run.proofs.summary()}")
        if "csr_bytes" in report:
            print(f"  CSR size: {report['csr_bytes'] / 1e6:.1f} MB")
        if "flood" in report:
            f = report["flood"]
            print(
                f"  flood from node 0: covered {f['covered']}/{args.n} in "
                f"{f['rounds']} rounds, {f['messages']} messages"
            )
        for row in report.get("attacks", []):
            verdict = (
                "certified"
                if row["covered"] >= row["reachable"] and not row["violations"]
                else "VIOLATED " + "; ".join(row["violations"])
            )
            print(
                f"  attack {row['attack']}: damage {row['damage']}, "
                f"covered {row['covered']}/{row['alive']} survivors in "
                f"{row['rounds']} rounds — {verdict}"
            )
        print(f"  peak RSS: {report['peak_rss_bytes'] / 1e6:.1f} MB")
    return 0 if run.green else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lhg",
        description="Logarithmic Harary Graphs: build, verify, and flood.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair(p: argparse.ArgumentParser) -> None:
        p.add_argument("n", type=int, help="number of nodes")
        p.add_argument("k", type=int, help="connectivity level")
        p.add_argument(
            "--rule",
            default="auto",
            choices=["auto", "jenkins-demers", "k-tree", "k-diamond"],
            help="construction rule (default: auto)",
        )

    def add_telemetry(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--telemetry",
            default=None,
            metavar="PATH",
            help="write the run's JSONL telemetry event log to PATH "
            "(inspect with 'repro trace summary PATH')",
        )
        p.add_argument(
            "--log-json",
            action="store_true",
            help="stream telemetry events to stderr as JSON lines",
        )

    def add_fault_tolerance(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-cell wall-clock budget; a cell exceeding it is "
            "killed and retried (default: no timeout)",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=None,
            metavar="N",
            help="retry a failed/timed-out cell up to N times with "
            "deterministic backoff (default: 2 when supervision is on)",
        )
        p.add_argument(
            "--checkpoint",
            default=None,
            metavar="PATH",
            help="journal completed cells to this JSONL file so an "
            "interrupted run can be resumed with --resume",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help="skip cells already recorded in the --checkpoint journal",
        )

    p_build = sub.add_parser("build", help="construct an LHG and summarise it")
    add_pair(p_build)
    p_build.add_argument("--json", action="store_true", help="emit JSON edge list")
    p_build.add_argument(
        "--explain", action="store_true", help="narrate the construction steps"
    )
    add_telemetry(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_check = sub.add_parser("check", help="verify LHG properties 1-5")
    add_pair(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_flood = sub.add_parser("flood", help="simulate a flood")
    add_pair(p_flood)
    p_flood.add_argument("--crashes", type=int, default=0, help="random crashes")
    p_flood.add_argument("--seed", type=int, default=0, help="failure seed")
    add_telemetry(p_flood)
    p_flood.set_defaults(func=_cmd_flood)

    p_chaos = sub.add_parser(
        "chaos", help="chaos campaign: resilience matrix + invariant checks"
    )
    add_pair(p_chaos)
    p_chaos.add_argument(
        "--scenarios",
        nargs="*",
        metavar="NAME",
        help="restrict to these scenario names (default: all)",
    )
    p_chaos.add_argument(
        "--loss",
        type=float,
        nargs="*",
        default=[0.1, 0.3],
        help="loss rates for the loss-p scenarios (default: 0.1 0.3)",
    )
    p_chaos.add_argument("--seed", type=int, default=0, help="base seed")
    p_chaos.add_argument(
        "--repeats", type=int, default=1, help="grid passes (seeds seed..seed+r-1)"
    )
    p_chaos.add_argument(
        "--scale",
        action="store_true",
        help="oracle-backed topology + synchronous-round flooding: no "
        "materialization, so the grid runs at million-node sizes "
        "(drops the dup-reorder scenario, which needs the event engine)",
    )
    p_chaos.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the grid (default: serial; -1 = all cores)",
    )
    add_fault_tolerance(p_chaos)
    add_telemetry(p_chaos)
    p_chaos.set_defaults(func=_cmd_chaos)

    p_soak = sub.add_parser(
        "soak",
        help="run the overlay as a long-lived service with SLO tracking",
        description=(
            "Run the LHG overlay as a steady-state service on a "
            "virtual-time tick loop: Zipf-source Poisson broadcast "
            "workload, Poisson membership churn, online repair with "
            "graceful degradation, and invariant re-verification on a "
            "cadence. Exit codes: 0 SLOs met, 1 SLO violated (the run "
            "ended degraded, an invariant check failed, or p99 latency "
            "exceeded --slo-p99), 2 usage or configuration error."
        ),
    )
    add_pair(p_soak)
    p_soak.add_argument(
        "--duration",
        type=int,
        default=120,
        metavar="TICKS",
        help="soak length in virtual ticks (default: 120)",
    )
    p_soak.add_argument(
        "--churn-rate",
        type=float,
        default=0.4,
        metavar="RATE",
        help="Poisson mean membership events per tick (default: 0.4)",
    )
    p_soak.add_argument(
        "--flood-rate",
        type=float,
        default=2.0,
        metavar="RATE",
        help="Poisson mean new floods per tick (default: 2.0)",
    )
    p_soak.add_argument(
        "--zipf",
        type=float,
        default=1.1,
        metavar="S",
        help="Zipf exponent for flood-source popularity (default: 1.1)",
    )
    p_soak.add_argument(
        "--flood-budget",
        type=int,
        default=48,
        metavar="N",
        help="in-flight flood cap before admission control sheds "
        "arrivals; halved while degraded (default: 48)",
    )
    p_soak.add_argument(
        "--verify-every",
        type=int,
        default=20,
        metavar="TICKS",
        help="invariant-check cadence for Properties 1-4 (default: 20)",
    )
    p_soak.add_argument(
        "--repair-budget",
        type=int,
        default=24,
        metavar="EDGES",
        help="edge operations a repair may perform per tick (default: 24)",
    )
    p_soak.add_argument(
        "--burst",
        action="append",
        metavar="TICK:SIZE",
        help="force a crash burst of SIZE members at TICK (repeatable); "
        "a burst beyond k-1 drives the service DEGRADED",
    )
    p_soak.add_argument("--seed", type=int, default=0, help="base seed")
    p_soak.add_argument(
        "--slo-p99",
        type=float,
        default=None,
        metavar="HOPS",
        help="fail (exit 1) when p99 flood latency exceeds this many hops",
    )
    p_soak.add_argument(
        "--max-wall",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock safety valve: stop cleanly (report marked "
        "truncated) after this many seconds (default: unlimited)",
    )
    p_soak.add_argument(
        "--json",
        action="store_true",
        help="emit the full SLO report as deterministic JSON",
    )
    p_soak.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="journal completed ticks to this JSONL file so a killed "
        "soak can be resumed with --resume (byte-identical report)",
    )
    p_soak.add_argument(
        "--resume",
        action="store_true",
        help="replay ticks already recorded in the --checkpoint journal",
    )
    p_soak.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="stream live metrics snapshots (SLO histograms, burn "
        "rates, alert gauges) to this JSONL file while the soak runs",
    )
    p_soak.add_argument(
        "--openmetrics",
        default=None,
        metavar="PATH",
        help="also keep an OpenMetrics text rendering of the latest "
        "snapshot at PATH, atomically rewritten each export "
        "(requires --metrics)",
    )
    p_soak.add_argument(
        "--metrics-every",
        type=int,
        default=10,
        metavar="TICKS",
        help="export cadence in ticks for --metrics (default: 10)",
    )
    add_telemetry(p_soak)
    p_soak.set_defaults(func=_cmd_soak)

    p_cov = sub.add_parser("coverage", help="per-rule existence table")
    p_cov.add_argument("k", type=int)
    p_cov.add_argument("--max-n", type=int, default=60)
    p_cov.set_defaults(func=_cmd_coverage)

    p_diam = sub.add_parser("diameter", help="Harary vs LHG diameter sweep")
    p_diam.add_argument("k", type=int)
    p_diam.add_argument("--max-n", type=int, default=512)
    p_diam.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the sweep (default: serial; -1 = all cores)",
    )
    add_fault_tolerance(p_diam)
    add_telemetry(p_diam)
    p_diam.set_defaults(func=_cmd_diameter)

    p_paths = sub.add_parser("paths", help="show Menger disjoint paths")
    add_pair(p_paths)
    p_paths.set_defaults(func=_cmd_paths)

    p_spec = sub.add_parser("spectral", help="algebraic connectivity vs Harary")
    add_pair(p_spec)
    p_spec.set_defaults(func=_cmd_spectral)

    p_plan = sub.add_parser("plan", help="plan a deployment for n members")
    p_plan.add_argument("n", type=int, help="number of members")
    p_plan.add_argument("failures", type=int, help="crashes to survive")
    p_plan.add_argument(
        "--latency-budget", type=int, default=None, help="max hops allowed"
    )
    p_plan.set_defaults(func=_cmd_plan)

    p_scale = sub.add_parser(
        "scale",
        help="million-node build + certificate verification (implicit oracle)",
    )
    p_scale.add_argument("n", type=int, help="number of nodes")
    p_scale.add_argument("k", type=int, help="connectivity level")
    p_scale.add_argument(
        "--csr",
        action="store_true",
        help="also compile the oracle to a CSR adjacency and report its size",
    )
    p_scale.add_argument(
        "--flood",
        action="store_true",
        help="also flood from node 0 in synchronous rounds (implies --csr)",
    )
    p_scale.add_argument(
        "--attack",
        action="store_true",
        help="replay every targeted k-1 cut attack (derived from the JD "
        "pasting arithmetic), flood the survivors and recertify the "
        "damaged topology; exit 1 unless every attack is certified",
    )
    p_scale.add_argument("--json", action="store_true", help="emit a JSON report")
    p_scale.set_defaults(func=_cmd_scale)

    p_prof = sub.add_parser(
        "prof",
        help="profile the flooding simulator (span-attributed sampling)",
        description=(
            "Run repeated floods on the (n, k) LHG under the sampling "
            "profiler and print the hot frames with per-span "
            "attribution. The collapsed-stack output (-o) loads in "
            "speedscope or flamegraph.pl. Exit codes: 0 samples "
            "collected, 1 none landed, 2 usage errors."
        ),
    )
    add_pair(p_prof)
    p_prof.add_argument(
        "--hz",
        type=float,
        default=100.0,
        help="target sampling rate in samples/second (default: 100)",
    )
    p_prof.add_argument(
        "--timer",
        choices=["wall", "cpu"],
        default="wall",
        help="sample on wall or CPU time (signal backend only; "
        "default: wall)",
    )
    p_prof.add_argument(
        "--backend",
        choices=["auto", "signal", "setprofile"],
        default="auto",
        help="sampling backend (default: auto — signal where available)",
    )
    p_prof.add_argument(
        "--repeat",
        type=int,
        default=20,
        metavar="N",
        help="floods to run under the profiler (default: 20)",
    )
    p_prof.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="hot functions to print (default: 10)",
    )
    p_prof.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="write collapsed stacks to PATH (speedscope/flamegraph.pl)",
    )
    p_prof.set_defaults(func=_cmd_prof)

    p_perf = sub.add_parser(
        "perf",
        help="benchmark ledger: record / diff / check regressions",
        description=(
            "Compare BENCH_*.json results (shared repro.perf schema) "
            "against the committed baseline ledger. 'record' adopts the "
            "current results as the baseline; 'diff' renders the "
            "comparison; 'check' exits 1 when any metric regressed "
            "beyond its noise-aware tolerance band. Wall-clock metrics "
            "gate only when the host fingerprint matches the ledger's."
        ),
    )
    p_perf.add_argument(
        "action",
        choices=["record", "diff", "check"],
        help="record: write the baseline; diff: compare; check: gate",
    )
    p_perf.add_argument(
        "--results",
        default="benchmarks/results",
        metavar="DIR",
        help="directory of BENCH_*.json files (default: benchmarks/results)",
    )
    p_perf.add_argument(
        "--ledger",
        default="benchmarks/perf-baseline.json",
        metavar="PATH",
        help="baseline ledger path (default: benchmarks/perf-baseline.json)",
    )
    p_perf.add_argument(
        "--rel-floor",
        type=float,
        default=None,
        metavar="FRAC",
        help="minimum relative band for wall-clock metrics "
        "(default: 0.35)",
    )
    p_perf.add_argument(
        "--abs-floor",
        type=float,
        default=None,
        metavar="DELTA",
        help="minimum absolute band for unitless metrics (default: 0.05)",
    )
    p_perf.add_argument(
        "--sigmas",
        type=float,
        default=None,
        metavar="N",
        help="band width in combined measured dispersions (default: 3)",
    )
    p_perf.set_defaults(func=_cmd_perf)

    p_trace = sub.add_parser(
        "trace", help="inspect or convert a --telemetry JSONL log"
    )
    p_trace.add_argument(
        "action",
        choices=["summary", "chrome"],
        help="summary: human digest; chrome: Chrome trace_event JSON "
        "(loads in Perfetto)",
    )
    p_trace.add_argument("file", help="JSONL telemetry log to read")
    p_trace.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="output path for 'chrome' (default: FILE.trace.json)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_lint = sub.add_parser(
        "lint",
        help="static determinism & fork-safety analysis (AST rules)",
        description=(
            "Run the repro.lint rule set (DET001-3, FORK001-2, EXC001, "
            "API001) over the given files/directories. With --project, "
            "additionally build the whole-program model (import graph, "
            "call graph) and run the cross-module rule families "
            "(SEED001-3 seed-provenance taint, ORACLE001-3 protocol "
            "conformance, API002-4 export drift, PROJ001 import "
            "cycles). Exit codes: 0 clean, 1 findings, 2 usage or "
            "internal error."
        ),
    )
    p_lint.add_argument(
        "paths", nargs="+", help="files or directories to analyse"
    )
    p_lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (default: text; sarif emits SARIF 2.1.0 "
        "for CI annotation)",
    )
    p_lint.add_argument(
        "--project",
        action="store_true",
        help="whole-program analysis: project model + interprocedural "
        "seed taint + oracle/API conformance on top of the per-file "
        "rules",
    )
    p_lint.add_argument(
        "--graph",
        choices=["dot", "json"],
        default=None,
        metavar="FMT",
        help="dump the import/call graph (dot or json) instead of "
        "linting",
    )
    p_lint.add_argument(
        "--exclude",
        nargs="*",
        metavar="SUBSTR",
        help="skip files whose path contains any of these substrings "
        "(e.g. lint_fixtures)",
    )
    p_lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="JSON baseline of grandfathered findings to subtract "
        "(e.g. lint-baseline.json)",
    )
    p_lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to --baseline and exit 0 "
        "(grandfathers everything currently firing)",
    )
    p_lint.add_argument(
        "--select",
        nargs="*",
        metavar="RULE",
        help="restrict to these rule ids (default: all rules)",
    )
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _telemetry(args):
            return args.func(args)
    except (ReproError, ValueError, OSError) as exc:
        # ValueError covers argument validation below argparse's reach:
        # workers counts, --resume without --checkpoint, journal refusal;
        # OSError covers unreadable/unwritable telemetry and trace files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
