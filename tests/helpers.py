"""Test helpers: small engines and blobs, readers of engine state that the
library itself does not need, and the comparison of an engine with the
reference model (``tests/reference.py``)."""

from __future__ import annotations

import json

import numpy as np

from neuralstore.core import HiveParams
from neuralstore.engine import MemoryEngine, StorageFullError
from neuralstore.workload import item_bytes
from tests.reference import StoreFull

SMALL_WORKLOAD = {
    "n_items": 16,
    "n_retrievals": 40,
    "items_per_cluster": 4,
    "payload_size_range": [1024, 2048],
    "tail_retentions": 2,
}


def write_config(tmp_path, name="config.json", **extra):
    doc = {"preset": "wildlife-deer", "seed": 7,
           "workload": dict(SMALL_WORKLOAD),
           "compare": {"cap_fractions": [0.3, 0.6, 1.0], "warmup_ops": 16}}
    doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def engine_with(**overrides) -> MemoryEngine:
    base = dict(memory_decay_rates=[0.5, 1.0],
                association_decay_rates=[0.0, 0.0],
                locality_mapping=[{"labels": ["hot"]}, {}],
                eta=20.0, epsilon=1.0, phi=1.0, retention_period=500)
    base.update(overrides)
    return MemoryEngine(HiveParams(**base))


def blob(cluster: int, item: int = 0, size: int = 2048, cls: int = 0) -> bytes:
    return item_bytes(99, cls, cluster, item, size)


def maintained(memory) -> dict:
    """Each cue's maintained order as ``(dn_id, weight)`` pairs."""
    return {cue: [(e[1], -e[0]) for e in entries]
            for cue, entries in memory.search_order.items()}


def data_neurons(memory) -> list[int]:
    """A memory's data neuron ids in id order (rows are added in id order)."""
    return list(memory.row_of)


def strength_of(memory, dn_id: int) -> float:
    return memory.strength.item(memory.row_of[dn_id])


def size_of(memory, dn_id: int) -> int:
    """A data neuron's stored size."""
    return memory.keep.item(memory.row_of[dn_id])


def locality_of(memory, dn_id: int) -> int:
    return memory.row_locality[memory.row_of[dn_id]]


def raw_feature(memory, dn_id: int):
    """A data neuron's feature as given when it was added."""
    return memory.raw_features[memory.row_of[dn_id]]


def candidates(engine, label: str) -> list:
    """The candidate list a store or retrieve under ``label`` scans."""
    return engine.get_search_order(engine.memory.find_cue_by_label(label))


def neuron_count(memory) -> int:
    return len(memory.cues) + len(memory.row_of)


def assert_same_state(engine, model, where="") -> None:
    """The engine's memory holds the model's state bit for bit: its cues,
    weights, edge access ops and orders, each data neuron's locality,
    strength, last access, stored quality and size and payload, and the
    total stored bytes."""
    memory = engine.memory
    neurons = list(model.neurons.values())
    n = len(neurons)
    assert list(memory.row_of) == list(model.neurons), where
    assert memory.cues == model.cues, where
    assert memory.weights == model.weights, where
    assert memory.edge_access == model.edge_access, where
    assert maintained(memory) == {
        cue: [(dn, model.weights[cue, dn]) for dn in model.order(cue)]
        for cue in model.cues}, where
    assert memory.row_locality == [x.locality for x in neurons], where
    payloads = [x.payload for x in neurons]
    sizes = [len(p.blob) for p in payloads]
    for name, values in [
            ("strength", [x.strength for x in neurons]),
            ("last_access", [x.last_access for x in neurons]),
            ("quality", [p.quality for p in payloads]), ("keep", sizes)]:
        column = getattr(memory, name)[:n]
        assert column.tobytes() == np.array(
            values, dtype=column.dtype).tobytes(), (name, where)
    assert list(map(memory.payload, memory.row_of)) == payloads, where
    # the model's total is this sum
    assert memory.total_bytes() == sum(sizes), where


def run_both(engine, model, op: str, *args, **kwargs):
    """Run one operation (``store``, ``retrieve``, ``retention`` or
    ``ensure_capacity``) on the engine and on the model, assert the same
    outcome or the same storage-full message and then the same state, and
    return the engine's outcome (``("full", message)`` when storage was
    full)."""
    outs = []
    for target, full in ((engine, StorageFullError), (model, StoreFull)):
        try:
            outs.append(getattr(target, op)(*args, **kwargs))
        except full as exc:
            outs.append(("full", str(exc)))
    got, want = outs
    if op == "retention":
        got = (got.weakened_edges, got.compressed, got.bytes_freed)
    where = f"op {model.op_counter}: {op}"
    assert got == want, where
    assert_same_state(engine, model, where)
    return outs[0]
