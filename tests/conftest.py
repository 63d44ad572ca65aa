"""Shared fixtures: the scripted walkthrough scenario and small engines."""

from __future__ import annotations

import pytest

from neuralstore.core import HiveParams
from neuralstore.engine import MemoryEngine, OpControls, SearchParams
from neuralstore.workload import WorkloadSpec, build_corpus, generate_trace


def walkthrough_params() -> HiveParams:
    return HiveParams(
        memory_decay_rates=[10.0, 20.0],
        association_decay_rates=[0.0, 0.0],
        locality_mapping=[{"labels": ["wolf"]}, {}],
        eta=10.0,
        epsilon=1.0,
        phi=1.0,
        retention_period=1,
    )


def walkthrough_spec() -> WorkloadSpec:
    return WorkloadSpec(kind="walkthrough", seed=42,
                        class_labels=["wolf", "background"])


def build_walkthrough():
    """Engine seeded with the scripted 4-data-neuron scenario plus its trace.

    Returns (engine, corpus, trace, ids) where ids maps item ids of the
    pre-seeded neurons to their neuron ids.
    """
    engine = MemoryEngine(walkthrough_params(),
                          search=SearchParams(assoc_thresh=0.0, match_thresh=0.95),
                          controls=OpControls())
    spec = walkthrough_spec()
    corpus = build_corpus(spec)
    trace = generate_trace(corpus, spec)
    ids = {}
    for item_id, cue in (("w0", "wolf"), ("w1", "wolf"), ("bg", None)):
        ids[item_id] = engine.bootstrap_store(corpus.get(item_id).data, cue,
                                              item_id=item_id)
    return engine, corpus, trace, ids


@pytest.fixture
def walkthrough():
    return build_walkthrough()


@pytest.fixture
def small_engine():
    """Two-locality engine with fast decay for unit tests."""
    params = HiveParams(
        memory_decay_rates=[1.0, 2.0],
        association_decay_rates=[0.5, 0.5],
        locality_mapping=[{"labels": ["hot"]}, {}],
        eta=10.0,
        epsilon=1.0,
        phi=1.0,
        retention_period=10,
    )
    return MemoryEngine(params)
