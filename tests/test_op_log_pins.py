"""Pinned op logs of the benchmark's traces.

The first trace of each benchmark workload (default seed, the workload's
overrides and cap from ``bench/catalog.py``) is replayed on both engines,
and the sha256 of each op log, computed as ``bench/harness.py``'s
``log_digest`` computes it, must equal its pin.  A change meant to keep
behaviour (a speed-up, a refactor) keeps every pin; a change meant to alter
what the engines do updates the pins it moves and says why.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from neuralstore import workload as ns_workload

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import catalog  # noqa: E402
import harness  # noqa: E402

PINS = {
    ("desk-clustered", "ns"):
        "c557e5b07412b3e27a0e6d8b5933da7d764799da51199d1e1132468c61c9553c",
    ("desk-clustered", "cam"):
        "730c4264a600ab0fb7607347c21bbececa2ea23e484c443e118e33d63f8d7967",
    ("distinct-scan", "ns"):
        "28cea68f918d01e5d18e352006fee54e14f610f1a99aae385a5a9d784d3878b8",
    ("distinct-scan", "cam"):
        "3b5cdbacef180cbe356bcb45415aafba183a77267f51ee2f91104229bfdf42a3",
    ("capped-writes", "ns"):
        "e11c6634b77c18838bb40bf6931470650270d8abc3a21220b3702eb3495cc0c2",
    ("capped-writes", "cam"):
        "8aa5336ffd9750ee4ccb0cb36f007495e245552c01ae4d2d7d9f4b1acc079431",
}


@pytest.mark.parametrize("name", sorted(catalog.WORKLOADS))
def test_first_trace_op_logs_match_their_pins(name):
    seed = harness.sub_seed(catalog.DEFAULT_SEED, 0)
    inputs, adapters = harness.set_up(catalog.WORKLOADS[name], seed, tiny=False)
    for engine in harness.ENGINES:
        adapter = adapters[engine]
        log = ns_workload.replay(inputs.records, adapter, inputs.corpus)
        assert all(harness.check_outputs(adapter, log).values())
        assert harness.log_digest(log) == PINS[name, engine], (name, engine)
