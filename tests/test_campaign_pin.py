"""Determinism pin: the chaos campaign's resilience matrix, byte for byte.

The event engine (queue, network, failure bookkeeping, invariant
watch) may get faster; the cells it produces may not change.  The
digest covers every field of every cell of the full standard grid —
7 scenarios × 2 protocols on LHG(256, 4), seeds 0 and 1 — and must
come out the same serially and across two workers.  CI runs this
module in its parallel-determinism job.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.exec import TopologySpec
from repro.robustness import ChaosCampaign

PINNED = "57f7b0698244095d2154e73df8fcc02c657887b5194ad342a10423b4953b7668"


def matrix_digest(matrix) -> str:
    """SHA-256 of the cells as sorted-key JSON (floats by repr)."""
    cells = [
        {
            "topology": c.topology,
            "scenario": c.scenario,
            "protocol": c.protocol,
            "seed": c.seed,
            "covered": c.covered,
            "reachable": c.reachable,
            "delivery_ratio": c.delivery_ratio,
            "messages": c.messages,
            "retransmissions": c.retransmissions,
            "completion_time": c.completion_time,
            "violations": list(c.violations),
        }
        for c in matrix.cells
    ]
    blob = json.dumps(cells, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_lhg_256_4_matrix_digest_pinned(workers):
    spec = TopologySpec(256, 4)
    matrix = ChaosCampaign([(spec.label, spec)], seeds=(0, 1)).run(workers=workers)
    assert len(matrix.cells) == 28 and not matrix.failures
    assert matrix_digest(matrix) == PINNED
