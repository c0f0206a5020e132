"""Integration tests for the one-call experiment runners."""

import pytest

from repro.core.existence import build_lhg
from repro.flooding.experiments import repeat_runs, run_flood, run_gossip, run_treecast
from repro.flooding.failures import minimum_cut_attack, random_crashes


class TestFloodGuarantees:
    """The paper's headline behavioural claims as executable assertions."""

    @pytest.mark.parametrize("n,k", [(14, 3), (20, 4), (13, 3)])
    def test_full_coverage_under_any_k_minus_1_random_crashes(self, n, k):
        graph, _ = build_lhg(n, k)
        source = graph.nodes()[0]
        for seed in range(15):
            schedule = random_crashes(graph, k - 1, seed=seed, protect={source})
            result = run_flood(graph, source, failures=schedule)
            assert result.reachable == result.alive  # graph stayed connected
            assert result.fully_covered

    def test_minimum_cut_attack_partitions_at_k(self):
        graph, _ = build_lhg(14, 3)
        schedule = minimum_cut_attack(graph)
        assert len(schedule.crashed_nodes) == 3
        source = next(
            v for v in graph.nodes() if v not in schedule.crashed_nodes
        )
        result = run_flood(graph, source, failures=schedule)
        # k crashes CAN partition: reachable < alive, but flooding still
        # covers the whole reachable side
        assert result.reachable < result.alive
        assert result.fully_covered

    def test_link_failures_tolerated(self):
        from repro.flooding.failures import random_link_failures

        graph, _ = build_lhg(20, 4)
        source = graph.nodes()[0]
        for seed in range(10):
            schedule = random_link_failures(graph, 3, seed=seed)
            result = run_flood(graph, source, failures=schedule)
            assert result.fully_covered


class TestRepeatRuns:
    def test_aggregates_count(self):
        graph, _ = build_lhg(12, 3)
        source = graph.nodes()[0]
        agg = repeat_runs(run_flood, graph, source, None, 5)
        assert agg.runs == 5
        assert agg.mean_delivery_ratio() == 1.0

    def test_schedule_factory_receives_seed(self):
        graph, _ = build_lhg(12, 3)
        source = graph.nodes()[0]
        seeds_seen = []

        def factory(seed):
            seeds_seen.append(seed)
            return random_crashes(graph, 1, seed=seed, protect={source})

        repeat_runs(run_flood, graph, source, factory, 4)
        assert seeds_seen == [0, 1, 2, 3]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_runner_kwarg_rejected(self, workers):
        graph, _ = build_lhg(12, 3)
        with pytest.raises(TypeError, match="fanout"):
            repeat_runs(
                run_flood, graph, graph.nodes()[0], None, 2,
                workers=workers, fanout=3,
            )

    def test_gossip_gets_fresh_seed_per_run(self):
        graph, _ = build_lhg(20, 3)
        source = graph.nodes()[0]
        agg = repeat_runs(
            run_gossip, graph, source, None, 3, fanout=1, rounds=3
        )
        # different seeds -> usually different coverage; at minimum runs recorded
        assert agg.runs == 3


class TestBaselineContrast:
    def test_treecast_fragile_flood_robust(self):
        graph, _ = build_lhg(24, 3)
        source = graph.nodes()[0]

        def schedule(seed):
            return random_crashes(graph, 2, seed=seed, protect={source})

        flood = repeat_runs(run_flood, graph, source, schedule, 15)
        tree = repeat_runs(run_treecast, graph, source, schedule, 15)
        assert flood.min_delivery_ratio() == 1.0
        assert tree.min_delivery_ratio() < 1.0

    def test_gossip_costs_more_messages(self):
        graph, _ = build_lhg(30, 3)
        source = graph.nodes()[0]
        flood = run_flood(graph, source)
        gossip = run_gossip(graph, source, fanout=2, rounds=10, seed=0)
        assert gossip.messages > 2 * flood.messages
