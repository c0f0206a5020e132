"""One-pass failure bookkeeping against the quadratic definitions it replaced.

``_final_down_nodes`` / ``_final_down_links`` take one pass over a
schedule with a dict of last-down times, and ``partition`` dedupes its
cut through a set of edge keys.  The reference definitions below are
the earlier per-key rescans, kept here as the oracle.  Generated
schedules repeat fail/restore on one link (in either orientation) and
put downs and ups at the same instant, where the recovery must win.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flooding.failures import (
    FailureSchedule,
    _final_down_links,
    _final_down_nodes,
    partition,
)
from repro.graphs.generators.random import gnp_random_graph
from repro.graphs.graph import edge_key


def _reference_final_down_nodes(schedule):
    down = set()
    for node in schedule.crashed_nodes:
        last_crash = max(c.time for c in schedule.crashes if c.node == node)
        last_recover = max(
            (r.time for r in schedule.recoveries if r.node == node), default=None
        )
        if last_recover is None or last_recover < last_crash:
            down.add(node)
    return down


def _reference_final_down_links(schedule):
    down = set()
    keys = dict.fromkeys(edge_key(f.u, f.v) for f in schedule.link_failures)
    for key in keys:
        last_fail = max(
            f.time for f in schedule.link_failures if edge_key(f.u, f.v) == key
        )
        last_restore = max(
            (r.time for r in schedule.link_recoveries if edge_key(r.u, r.v) == key),
            default=None,
        )
        if last_restore is None or last_restore < last_fail:
            down.add(key)
    return down


def _reference_partition(graph, groups, at, heal_at):
    group_of = {node: index for index, group in enumerate(groups) for node in group}
    schedule = FailureSchedule()
    for u, side_u in group_of.items():
        for v in graph.neighbors(u):
            side_v = group_of.get(v)
            if side_v is None or side_u == side_v:
                continue
            schedule.fail_link(u, v, time=at)  # deduped by a linear scan
            if heal_at is not None:
                schedule.restore_link(u, v, time=heal_at)
    return schedule


_POOL = st.integers(0, 4)
_TIME = st.sampled_from([0.0, 1.0, 2.0, 3.0])
_EVENT = st.tuples(
    st.sampled_from(["crash", "recover", "fail", "restore"]), _POOL, _POOL, _TIME
)


class TestOnePassBookkeeping:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_EVENT, max_size=40))
    def test_final_down_sets_match_reference(self, events):
        schedule = FailureSchedule()
        for kind, a, b, time in events:
            if kind == "crash":
                schedule.crash(a, time=time)
            elif kind == "recover":
                schedule.recover(a, time=time)
            elif a != b and kind == "fail":
                schedule.fail_link(a, b, time=time)
            elif a != b:
                schedule.restore_link(b, a, time=time)  # either orientation
        assert _final_down_nodes(schedule) == _reference_final_down_nodes(schedule)
        assert _final_down_links(schedule) == _reference_final_down_links(schedule)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 14),
        st.integers(0, 10_000),
        st.lists(st.integers(-1, 2), min_size=14, max_size=14),
        st.booleans(),
    )
    def test_partition_matches_reference(self, n, seed, sides, heal):
        graph = gnp_random_graph(n, 0.4, seed=seed)
        groups = [[v for v in range(n) if sides[v] == side] for side in range(3)]
        heal_at = 5.0 if heal else None
        fast = partition(graph, groups, at=1.0, heal_at=heal_at)
        slow = _reference_partition(graph, groups, 1.0, heal_at)
        assert fast.link_failures == slow.link_failures
        assert fast.link_recoveries == slow.link_recoveries
