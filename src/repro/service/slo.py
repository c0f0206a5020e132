"""SLO accounting for the soak service: histograms and percentiles.

Service-level objectives are distributional — "p99 flood latency stays
under B hops", "repair converges within W ticks" — so the tracker
accumulates every observation into the fixed-bucket
:class:`~repro.obs.metrics.Histogram` instruments from :mod:`repro.obs`
and reads percentiles back out of the bucket counts.  Snapshots are
plain JSON dicts and merging is exact, which is what makes a resumed
soak's SLO report byte-identical to an uninterrupted one: the report
is a pure function of the merged per-tick records.

When a telemetry collector is installed the tracker mirrors every
observation into it (same metric names), so ``--telemetry`` logs carry
the service's SLO series without a second bookkeeping path.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import repro.obs as obs
from repro.errors import ReproError
from repro.obs.metrics import Histogram, MetricsRegistry

#: Flood latency buckets, in simulated hops.  LHG diameters are
#: O(log n), so single-digit latencies dominate; the tail buckets give
#: p999 resolution under degradation (partition detours, big graphs).
LATENCY_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 24.0, 32.0, 48.0,
)

#: Message amplification buckets (messages sent per member covered).
#: A k-regular flood costs ~k messages per covered node.
AMPLIFICATION_BUCKETS: Tuple[float, ...] = (
    1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 14.0, 20.0,
)

#: Repair convergence buckets, in ticks from degradation entry to the
#: post-repair invariant re-verification passing.
CONVERGENCE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0,
)


def percentile(snapshot: Dict[str, Any], q: float) -> float:
    """Estimate the ``q``-quantile from a histogram snapshot.

    The rule is :meth:`~repro.obs.metrics.Histogram.quantile`: the upper
    bound of the first bucket whose cumulative count reaches
    ``q * count``, the recorded maximum for overflow samples, and 0.0
    for an empty histogram.

    Raises
    ------
    ReproError
        If ``q`` is outside (0, 1].
    """
    if not 0.0 < q <= 1.0:
        raise ReproError(f"percentile quantile must be in (0, 1], got {q}")
    return Histogram.from_snapshot(snapshot).quantile(q)


class SLOTracker:
    """Accumulates the soak run's SLO observations (see module doc).

    All state lives in one :class:`~repro.obs.metrics.MetricsRegistry`;
    :meth:`snapshot` is the JSON-safe dump the
    :class:`~repro.service.soak.SoakReport` renders percentiles from.

    ``mirror=False`` keeps observations out of any installed telemetry
    collector — used by the *live* tracker the streaming metrics
    exporter feeds tick by tick, which would otherwise double-count
    every observation the report-time tracker mirrors.
    """

    def __init__(self, mirror: bool = True) -> None:
        self.registry = MetricsRegistry()
        self._mirror = mirror

    # -- observations ---------------------------------------------------

    def _observe(self, name: str, value: float, buckets: Tuple[float, ...]) -> None:
        self.registry.observe(name, value, buckets)
        if self._mirror:
            obs.observe(name, value, buckets)

    def _count(self, name: str, amount: float = 1) -> None:
        self.registry.counter(name, amount)
        if self._mirror:
            obs.counter(name, amount)

    def flood_completed(
        self, latency: float, messages: int, covered: int, reachable: int
    ) -> None:
        """Record one finished flood: latency, amplification, coverage."""
        self._count("soak.floods.completed")
        self._observe("soak.flood.latency", latency, LATENCY_BUCKETS)
        if covered > 0:
            self._observe(
                "soak.flood.amplification",
                messages / covered,
                AMPLIFICATION_BUCKETS,
            )
        if covered < reachable:
            self._count("soak.floods.partial")

    def flood_shed(self) -> None:
        """Record one flood rejected by admission control."""
        self._count("soak.floods.shed")

    def churn(self, joins: int, crashes: int) -> None:
        """Record one tick's membership events."""
        if joins:
            self._count("soak.churn.joins", joins)
        if crashes:
            self._count("soak.churn.crashes", crashes)

    def repair_completed(self, edge_work: int, emergency: bool) -> None:
        """Record one finished repair episode and its edge bill."""
        self._count("soak.repairs.completed")
        self._count("soak.repairs.edge_work", edge_work)
        if emergency:
            self._count("soak.repairs.emergency")

    def repair_restart(self) -> None:
        """Record a repair restart (a burst landed mid-repair)."""
        self._count("soak.repairs.restarts")

    def repair_converged(self, ticks: int) -> None:
        """Record a degradation window's length (entry to re-verify)."""
        self._observe("soak.repair.convergence", float(ticks), CONVERGENCE_BUCKETS)

    def verify(self, ok: bool) -> None:
        """Record one invariant-check battery."""
        self._count("soak.verify.runs")
        if not ok:
            self._count("soak.verify.failures")

    # -- output ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as one JSON-safe dict."""
        return self.registry.snapshot()

    def counter(self, name: str) -> float:
        """Current value of one counter (0 when never incremented)."""
        return self.registry.counters.get(name, 0)

    def latency_percentiles(self) -> Dict[str, float]:
        """The p50/p99/p999 flood-latency summary."""
        histogram = self.registry.histograms.get("soak.flood.latency")
        if histogram is None:
            return {"p50": 0.0, "p99": 0.0, "p999": 0.0}
        snap = histogram.snapshot()
        return {
            "p50": percentile(snap, 0.50),
            "p99": percentile(snap, 0.99),
            "p999": percentile(snap, 0.999),
        }
