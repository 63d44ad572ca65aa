"""Small readers of engine state that the library itself does not need."""

from __future__ import annotations

from neuralstore.core import DataNeuron


def data_neurons(memory) -> list[DataNeuron]:
    """A memory's data neurons in id order."""
    return [n for _, n in sorted(memory.neurons.items())
            if isinstance(n, DataNeuron)]


def candidates(engine, label: str) -> list:
    """The candidate list a store or retrieve under ``label`` scans."""
    return engine.get_search_order(engine.hive.find_cue_by_label(label))
