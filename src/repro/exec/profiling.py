"""Timing and cache instrumentation for the execution engine.

Every :meth:`~repro.exec.pool.WorkerPool.map` call produces an
:class:`ExecutionReport`: the per-cell wall times (measured inside the
worker, so they exclude dispatch overhead), the total wall-clock of the
whole map, the execution mode actually used, and a snapshot of cache
statistics when a cache was attached.  Reports are what the benchmarks
(F13) and the CLI ``--workers`` flag surface; they never influence
results — simulated time and profiling wall time are separate worlds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class CellTiming:
    """Wall-clock cost of one executed cell."""

    label: str
    seconds: float


@dataclass
class ExecutionReport:
    """What one engine invocation did and what it cost.

    Attributes
    ----------
    mode:
        ``"serial"`` (in-process loop), ``"fork-pool"`` (forked
        workers), or ``"degraded"`` (started forked, finished serially
        after the worker-death budget ran out).
    workers:
        Worker processes actually used (1 for serial).
    requested_workers:
        What the caller asked for (may exceed ``workers`` when the
        platform cannot fork or there were fewer cells than workers).
    wall_seconds:
        End-to-end wall clock of the map call.
    timings:
        Per-cell wall times in submission (= result) order.
    cache:
        Snapshot of cache counters at completion, when a cache was
        attached (``{"hits": ..., "misses": ..., "entries": ...}``).
    failures:
        Quarantined items (supervised maps only): the structured
        :class:`~repro.exec.supervisor.ItemFailure` per poison item.
    retries:
        Retried attempts across the whole map (supervised maps only).
    timeouts:
        Items whose worker was SIGKILLed for exceeding the per-item
        wall-clock budget (supervised maps only).
    worker_deaths:
        Worker processes lost to crashes, kills or timeouts
        (supervised maps only).
    span_tree:
        Nested span timings for this map (see
        :func:`repro.obs.export.build_span_tree`) when a telemetry
        collector was installed during the run; ``None`` otherwise.
    """

    mode: str = "serial"
    workers: int = 1
    requested_workers: int = 1
    wall_seconds: float = 0.0
    timings: List[CellTiming] = field(default_factory=list)
    cache: Optional[Dict[str, int]] = None
    failures: List[Any] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    span_tree: Optional[List[Dict[str, Any]]] = None

    @property
    def cells(self) -> int:
        """Number of cells executed."""
        return len(self.timings)

    def total_cell_seconds(self) -> float:
        """Sum of per-cell wall times (the serial-equivalent cost)."""
        return sum(t.seconds for t in self.timings)

    def parallel_efficiency(self) -> float:
        """cell-seconds / (workers × wall) — 1.0 is a perfect fan-out.

        A sub-millisecond map on a coarse clock can legitimately report
        ``wall_seconds == 0``; falling back to the measured floor — the
        slowest single cell, which the map can never beat — keeps the
        efficiency finite and meaningful instead of zeroing it.
        """
        if not self.timings:
            return 0.0
        wall = self.wall_seconds
        if wall <= 0:
            wall = max(t.seconds for t in self.timings)
        if wall <= 0 or self.workers <= 0:
            return 0.0
        return self.total_cell_seconds() / (self.workers * wall)

    def cache_hit_rate(self) -> Optional[float]:
        """hits / (hits + misses), or ``None`` without a cache."""
        if self.cache is None:
            return None
        lookups = self.cache.get("hits", 0) + self.cache.get("misses", 0)
        if lookups == 0:
            return 0.0
        return self.cache.get("hits", 0) / lookups

    def slowest(self, count: int = 5) -> List[CellTiming]:
        """The ``count`` most expensive cells, costliest first."""
        return sorted(self.timings, key=lambda t: -t.seconds)[:count]

    def summary(self) -> str:
        """One-line human summary (CLI ``--workers`` output)."""
        parts = [
            f"{self.cells} cells in {self.wall_seconds:.2f}s "
            f"({self.mode}, {self.workers} worker(s))"
        ]
        rate = self.cache_hit_rate()
        if rate is not None:
            parts.append(f"graph cache hit rate {rate:.0%}")
        if self.retries or self.worker_deaths:
            parts.append(
                f"{self.retries} retrie(s), {self.timeouts} timeout(s), "
                f"{self.worker_deaths} worker death(s)"
            )
        if self.failures:
            parts.append(f"{len(self.failures)} cell(s) quarantined")
        return ", ".join(parts)

