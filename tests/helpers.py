"""Small readers of engine state that the library itself does not need."""

from __future__ import annotations


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
