"""How each benchmark workload is built, and the benchmark's fixed settings.

Why each workload exists, and every metric with its unit, direction and
bound, are in ``BENCHMARK.json`` at the repository root (see ``load_spec``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

DEFAULT_SEED = 42
PRESET = "wildlife-deer"

# Sub-trace i of seed s is generated with WorkloadSpec.seed = s + i * SEED_STRIDE,
# so sub-trace 0 is the preset's own trace for seed s.
SEED_STRIDE = 1_000_003

# Minimum number of set-ups per run; setup_s is their median.
MIN_SETUPS = 9

# After each ns replay the trace's cam replay is repeated until it has been
# timed this long in total, because one cam replay of a 100-item trace takes
# only a few milliseconds.
CAM_MIN_SECONDS = 0.3

# Workload sizes of the self-test: every layer still runs, in seconds.
TINY_OVERRIDES = {"n_items": 20, "n_retrievals": 30, "tail_retentions": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    # Distinct seeded traces replayed per run.  Each is replayed at least
    # once, then again in turn while time is left; an op's latency is its
    # median over the replays of its trace.
    traces: int
    overrides: dict = field(default_factory=dict)   # WorkloadSpec changes
    capacity_fraction: float | None = None          # cap = share of corpus bytes


# Distinct-item traces use 100 items, not 200: at 200 one trace takes ~21 s
# on the current engine, so a 40 s run could replay only one and its store
# latencies would all come from the same few seconds.
WORKLOADS = {w.name: w for w in (
    Workload("desk-clustered", traces=2),
    Workload("distinct-scan", traces=3,
             overrides={"items_per_cluster": 1, "n_items": 100,
                        "n_retrievals": 200}),
    Workload("capped-writes", traces=4,
             overrides={"items_per_cluster": 1, "n_items": 100,
                        "n_retrievals": 60, "tail_retentions": 0},
             capacity_fraction=0.3),
)}


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())
