"""Acceptance suite: every gate at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line (run pytest with -s to see them
inline; they also appear in captured output on failure).

1. Golden trace: the scripted 7-record walkthrough reproduces the expected
   log exactly (visit orders, neuron creation, restorations, per-op decays),
   in under a second.
2. Cost advantage at desk scale: 200 items / 2 classes / bias 0.9 / 5000
   retrievals; after a 500-op warmup the learning engine's mean retrieve
   cost is at most 0.2x the CAM baseline's.
3. Space behavior: end-of-run bytes at most 0.8x CAM, and the space series
   never rises across the retention-only tail.
4. Fidelity for priority data: mean feature similarity between returned
   priority-class payloads and their originals is at least 0.95.
5. Quality factor vs cap: monotone non-decreasing for both engines over a
   10%..120% cap grid, learning engine at least matching CAM at every
   sub-full cap and strictly above at 80% of them.
6. Clamp invariants: 100,000 randomized operations across fuzzed configs
   never break the weight/strength clamps, leave an association that does
   not lead from a cue in the cue bank to a data neuron, or break agreement
   between maintained search orders and a brute-force oracle.
7. Determinism: two identical compare runs produce byte-identical artifacts.
8. Priming: repeating one retrieve ten times gives non-increasing costs
   ending at 1.
"""

from __future__ import annotations

import filecmp
import json
import time

import numpy as np
import pytest

from neuralstore.cli import main as cli_main
from neuralstore.codec import cosine_similarity
from neuralstore.config import build_adapter, load_config
from neuralstore.core import HiveParams
from neuralstore.engine import (
    MemoryEngine,
    OpControls,
    SearchParams,
    StorageFullError,
    oracle_search_order,
)
from neuralstore.metrics import engine_summary, quality_factor_curve
from neuralstore.workload import (
    build_corpus,
    generate_trace,
    item_bytes,
    replay,
)
from tests.conftest import build_walkthrough
from tests.golden import run_walkthrough
from tests.helpers import data_neurons, neuron_count, strength_of


def criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


# ---------------------------------------------------------------------------
# shared desk-scale comparison run (criteria 2-4)
# ---------------------------------------------------------------------------

WARMUP_OPS = 500


@pytest.fixture(scope="module")
def comparison_run():
    config = load_config(preset="wildlife-deer")
    assert config.workload.n_items == 200
    assert len(config.workload.class_labels) == 2
    assert config.workload.priority_bias == 0.9
    assert config.workload.n_retrievals == 5000
    corpus = build_corpus(config.workload)
    records = generate_trace(corpus, config.workload)
    started = time.perf_counter()
    logs = {}
    adapters = {}
    for engine in ("ns", "cam"):
        adapters[engine] = build_adapter(config, corpus, engine=engine)
        logs[engine] = replay(records, adapters[engine], corpus)
    elapsed = time.perf_counter() - started
    return {"config": config, "corpus": corpus, "records": records,
            "logs": logs, "adapters": adapters, "elapsed": elapsed}


def test_criterion_1_golden_trace():
    elapsed = run_walkthrough(build_walkthrough)
    criterion(1, "golden walkthrough trace reproduces the hand-written log",
              elapsed < 1.0, f"replay took {elapsed:.3f}s")


def test_criterion_2_cost_advantage(comparison_run):
    ns = engine_summary(comparison_run["logs"]["ns"], warmup=WARMUP_OPS)
    cam = engine_summary(comparison_run["logs"]["cam"], warmup=WARMUP_OPS)
    ratio = ns["mean_retrieve_cost"] / cam["mean_retrieve_cost"]
    elapsed = comparison_run["elapsed"]
    criterion(2, "post-warmup mean retrieve cost <= 0.2x the CAM baseline",
              ratio <= 0.2 and elapsed < 60.0,
              f"ratio {ratio:.4f} ({1 / ratio:.1f}x), runtime {elapsed:.1f}s")


def test_criterion_3_space_behavior(comparison_run):
    ns_log = comparison_run["logs"]["ns"]
    cam_log = comparison_run["logs"]["cam"]
    ns_final = ns_log[-1]["total_bytes"]
    cam_final = cam_log[-1]["total_bytes"]
    tail = [r["total_bytes"] for r in ns_log if r["op"] == "retention"]
    tail_ok = len(tail) >= 2 and all(b <= a for a, b in zip(tail, tail[1:]))
    criterion(3, "end-of-run space <= 0.8x CAM with a non-increasing "
                 "retention-only tail",
              ns_final <= 0.8 * cam_final and tail_ok,
              f"space ratio {ns_final / cam_final:.4f}, "
              f"tail {tail[0]}->{tail[-1]} over {len(tail)} passes")


def test_criterion_4_priority_fidelity(comparison_run):
    # replay once more, measuring feature similarity of every returned
    # priority-class payload against its own original
    config = comparison_run["config"]
    corpus = comparison_run["corpus"]
    adapter = build_adapter(config, corpus, engine="ns")
    extractor = adapter.engine.memory.extractor
    priority = config.workload.class_labels[0]
    sims = []
    for rec in comparison_run["records"]:
        if rec.op == "store":
            adapter.do_store(rec, corpus.get(rec.item_id))
        elif rec.op == "retrieve":
            item = corpus.get(rec.item_id)
            fine = adapter._fine_cue(item) if rec.use_fine_cue else None
            out = adapter.engine.retrieve(rec.coarse_cues[0], fine)
            if out.hit and item.class_label == priority:
                returned = extractor.extract(out.payload.blob)
                original = extractor.extract(out.payload.original)
                sims.append(cosine_similarity(returned, original))
        else:
            adapter.do_retention(rec)
    mean_sim = float(np.mean(sims))
    criterion(4, "returned priority-class payload features stay >= 0.95 "
                 "similar to their originals",
              len(sims) > 0 and mean_sim >= 0.95,
              f"mean similarity {mean_sim:.4f} over {len(sims)} retrievals")


def test_criterion_5_quality_factor_curve(comparison_run):
    config = load_config(preset="wildlife-deer")
    config.workload.n_retrievals = 1200
    corpus = build_corpus(config.workload)
    records = generate_trace(corpus, config.workload)
    full = corpus.total_bytes()
    caps = sorted({max(1, int(round(f * full))) for f in config.cap_fractions})
    curves = {}
    for engine in ("ns", "cam"):
        def factory(cap, _engine=engine):
            return build_adapter(config, corpus, engine=_engine,
                                 capacity_bytes=cap)
        curves[engine] = quality_factor_curve(records, corpus, factory, caps)
    ns_qf = [p.quality_factor for p in curves["ns"]]
    cam_qf = [p.quality_factor for p in curves["cam"]]
    monotone = (all(b >= a - 1e-12 for a, b in zip(ns_qf, ns_qf[1:]))
                and all(b >= a - 1e-12 for a, b in zip(cam_qf, cam_qf[1:])))
    sub_full = [(n, c) for p, n, c in zip(curves["ns"], ns_qf, cam_qf)
                if p.cap_bytes < full]
    dominates = all(n >= c for n, c in sub_full)
    strict_fraction = sum(n > c for n, c in sub_full) / len(sub_full)
    criterion(5, "quality factor monotone in cap; learning engine >= CAM "
                 "below full corpus size (strict at >= 80% of caps)",
              monotone and dominates and strict_fraction >= 0.8,
              f"monotone={monotone}, dominates={dominates}, "
              f"strict at {strict_fraction:.0%} of {len(sub_full)} sub-full caps")


# ---------------------------------------------------------------------------
# criterion 6: randomized clamp/symmetry/search-order fuzz
# ---------------------------------------------------------------------------

FUZZ_TOTAL_OPS = 100_000
FUZZ_OPS_PER_CONFIG = 1000


def _fuzz_params(rng: np.random.Generator) -> tuple[HiveParams, SearchParams,
                                                    OpControls]:
    phi = float(rng.choice([0.0, 1.0, 5.0, 20.0]))
    schedule_floor = max(phi, 1.0)
    schedule = sorted({float(v) for v in rng.uniform(schedule_floor, 95.0, 4)},
                      reverse=True)
    schedule = [float(round(v, 2)) for v in schedule] + [schedule_floor]
    schedule = [v for i, v in enumerate(schedule) if i == 0 or v < schedule[i - 1]]
    params = HiveParams(
        memory_decay_rates=[float(round(rng.uniform(0.0, 5.0), 2)),
                            float(round(rng.uniform(0.0, 8.0), 2))],
        association_decay_rates=[float(round(rng.uniform(0.0, 3.0), 2)),
                                 float(round(rng.uniform(0.0, 3.0), 2))],
        locality_mapping=[{"labels": ["hot"]}, {}],
        elasticity_schedules=[list(schedule), list(schedule)],
        eta=float(rng.integers(1, 31)),
        epsilon=float(rng.choice([0.0, 1.0, 5.0])),
        phi=phi,
        retention_period=int(rng.choice([1, 3, 7, 20])),
        capacity_bytes=int(rng.choice([0, 6000])) or None,
    )
    # this draw once chose a connectivity mode that no longer exists; it is
    # kept so that every other drawn configuration stays the same
    rng.random()
    search = SearchParams(assoc_thresh=float(rng.choice([0.0, 0.5, 2.0])),
                          match_thresh=float(rng.choice([0.5, 0.9, 0.95])))
    controls = OpControls(search_limit=None,
                          weaken_on_fail=bool(rng.integers(2)))
    return params, search, controls


def _check_invariants(engine: MemoryEngine) -> None:
    memory = engine.memory
    epsilon, phi = engine.params.epsilon, engine.params.phi
    for (cue_id, dn_id), w in memory.weights.items():
        assert w >= epsilon - 1e-9, f"weight {w} below epsilon {epsilon}"
        assert cue_id in memory.cues
        assert dn_id in memory.row_of
    assert memory.edge_access.keys() == memory.weights.keys()
    for dn in data_neurons(memory):
        assert phi - 1e-9 <= strength_of(memory, dn) <= 100.0 + 1e-9
    # each cue's order lists exactly its associations' weights
    maintained = {cue: [(e.dn_id, e.avg_weight) for e in entries]
                  for cue, entries in memory.search_order.items()}
    assert maintained == oracle_search_order(memory)


def test_criterion_6_clamp_invariants_fuzz():
    rng = np.random.default_rng(0xC6)
    labels = ["hot", "warm", "cool"]
    pool = [(cls, cluster, item) for cls in range(2) for cluster in range(5)
            for item in range(3)]
    payloads = {key: item_bytes(1234, *key, size=int(192 + 16 * sum(key)))
                for key in pool}
    total = 0
    configs = 0
    while total < FUZZ_TOTAL_OPS:
        configs += 1
        params, search, controls = _fuzz_params(rng)
        engine = MemoryEngine(params, search=search, controls=controls)
        for _ in range(min(FUZZ_OPS_PER_CONFIG, FUZZ_TOTAL_OPS - total)):
            roll = rng.random()
            key = pool[int(rng.integers(len(pool)))]
            label = labels[int(rng.integers(len(labels)))]
            # configs with epsilon = 0 or a high association threshold leave
            # fresh neurons unreachable, so duplicates accumulate; stop
            # growing once the instance nears the 50-neuron envelope
            if neuron_count(engine.memory) >= 36 and roll < 0.40:
                roll = 0.5
            try:
                if roll < 0.40:
                    engine.store(payloads[key], label, item_id=str(key))
                elif roll < 0.80:
                    fine = None
                    if rng.random() < 0.7:
                        fine = engine.memory.extractor.extract(payloads[key])
                    engine.retrieve(label if rng.random() < 0.8 else "zzz",
                                    fine)
                elif roll < 0.90:
                    engine.retention(n=int(rng.integers(1, 25)))
                else:
                    # drawn in snapshot order (lower id first), which keeps
                    # each fuzzed run's edge choices stable
                    edges = sorted(engine.memory.weights,
                                   key=lambda k: (min(k), max(k)))
                    dns = data_neurons(engine.memory)
                    if edges and rng.random() < 0.5:
                        cue_id, dn_id = edges[int(rng.integers(len(edges)))]
                        engine.memory.adjust_association(
                            cue_id, dn_id, float(rng.uniform(-50.0, 50.0)))
                    elif dns:
                        dn = dns[int(rng.integers(len(dns)))]
                        engine.memory.adjust_strength(
                            dn, float(rng.uniform(-120.0, 120.0)))
            except StorageFullError:
                pass
            _check_invariants(engine)
            total += 1
        assert neuron_count(engine.memory) <= 50, "fuzz instance grew too large"
    criterion(6, "100k randomized operations keep clamps, cue-to-data "
                 "associations and search-order/oracle agreement",
              total == FUZZ_TOTAL_OPS,
              f"{total} ops across {configs} fuzzed configs")


# ---------------------------------------------------------------------------
# criterion 7: end-to-end determinism of compare
# ---------------------------------------------------------------------------

def test_criterion_7_compare_determinism(tmp_path):
    config_doc = {
        "preset": "wildlife-deer",
        "seed": 99,
        "workload": {"n_items": 40, "n_retrievals": 300, "items_per_cluster": 4,
                     "payload_size_range": [1024, 2048], "tail_retentions": 4},
        "compare": {"cap_fractions": [0.25, 0.5, 0.75, 1.0, 1.1],
                    "warmup_ops": 60},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_doc))
    assert cli_main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "data")]) == 0
    for name in ("run-a", "run-b"):
        assert cli_main(["compare", "--config", str(config),
                         "--trace", str(tmp_path / "data" / "trace.jsonl"),
                         "--out", str(tmp_path / name)]) == 0
    files = sorted(p.name for p in (tmp_path / "run-a").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "run-a", tmp_path / "run-b", files, shallow=False)
    csvs = [f for f in files if f.endswith(".csv")]
    criterion(7, "two identical compare runs emit byte-identical artifacts",
              not mismatch and not errors and len(csvs) >= 3,
              f"{len(match)} files identical incl. {len(csvs)} CSVs")


def test_criterion_8_priming():
    engine = MemoryEngine(HiveParams(locality_mapping=[{"labels": ["hot"]}, {}]))
    for cluster in range(8):
        engine.store(item_bytes(5, 0, cluster, 0, 2048), "hot")
    target = item_bytes(5, 0, 5, 0, 2048)
    fine = engine.memory.extractor.extract(target)
    costs = [engine.retrieve("hot", fine).cost for _ in range(10)]
    non_increasing = all(b <= a for a, b in zip(costs, costs[1:]))
    criterion(8, "repeating one retrieve ten times yields non-increasing "
                 "costs ending at 1",
              non_increasing and costs[-1] == 1,
              f"costs {costs}")
