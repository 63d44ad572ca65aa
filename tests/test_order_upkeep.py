"""Search-order upkeep: each weight change moves its entry as it happens.

Every edge a reaction, a new data neuron or a retention pass changes or
creates is moved at once in its cue's order.  These tests
check that the orders are moved in place, never rebuilt, and, against a
reference engine that re-sorts every cue after every operation, that they
always equal a re-sort of the association weights.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from neuralstore.config import load_config
from neuralstore.core import HiveParams
from neuralstore.engine import MemoryEngine, OpControls, oracle_search_order
from neuralstore.workload import (
    NsReplayAdapter,
    build_corpus,
    generate_trace,
    replay,
)
from tests.test_engine import blob, engine_with, maintained


class FullRebuildEngine(MemoryEngine):
    """Reference: re-sorts every cue after every op."""

    def store(self, data, cue, item_id=None):
        out = super().store(data, cue, item_id)
        self.update_search_order()
        return out

    def retrieve(self, cue, fine_cue=None):
        out = super().retrieve(cue, fine_cue)
        self.update_search_order()
        return out


def order_lists(engine) -> dict:
    """The list object each cue's order is held in."""
    return dict(engine.hive.search_order)


def assert_moved_in_place(engine, before: dict) -> None:
    """Every cue that had an order still holds the same list, and every
    order equals a re-sort of the association weights."""
    for cue_id, order in before.items():
        assert engine.hive.search_order[cue_id] is order, cue_id
    assert maintained(engine) == oracle_search_order(engine.memory,
                                                     engine.hive)


class TestReactionUpkeep:
    def test_every_op_moves_orders_in_place(self):
        engine = engine_with(association_decay_rates=[5.0, 5.0])
        extract = engine.hive.extractor.extract
        for cluster in range(3):
            engine.store(blob(cluster), "hot")
        engine.store(blob(4, cls=1), "warm")
        plain, decay = OpControls(), OpControls(weaken_on_fail=True)
        ops = [
            ("hit", plain, lambda: engine.retrieve("hot", extract(blob(2)))),
            ("hit", plain, lambda: engine.retrieve("alias", extract(blob(1)))),
            ("miss", decay, lambda: engine.retrieve(
                "hot", extract(blob(5, cls=1)))),
            ("merged", plain,
             lambda: engine.store(blob(2, item=1), "cool")),
            ("new_neuron", plain, lambda: engine.store(blob(6, cls=1), "warm")),
        ]
        for kind, controls, op in ops:
            engine.controls = controls
            before, orders = order_lists(engine), maintained(engine)
            assert op().kind == kind
            assert maintained(engine) != orders, kind
            assert_moved_in_place(engine, before)
        # the first hit under a new cue gave it an order, and the merge
        # linked the new cue "cool" into one
        for label in ("alias", "cool"):
            assert engine.hive.find_cue_by_label(label) in engine.hive.search_order
        before, orders = order_lists(engine), maintained(engine)
        engine.controls = decay
        summary = engine.retention(n=1)
        assert summary.weakened_edges
        assert maintained(engine) != orders
        assert_moved_in_place(engine, before)

    def test_failed_retrieve_without_decay_moves_nothing(self):
        engine = engine_with()
        for cluster in range(4):
            engine.store(blob(cluster), "hot")
        before, orders = order_lists(engine), maintained(engine)
        foreign = engine.hive.extractor.extract(blob(5, cls=1))
        out = engine.retrieve("hot", foreign)
        assert out.kind == "miss" and out.cost == 4
        assert maintained(engine) == orders
        assert_moved_in_place(engine, before)

    def test_direct_reaction_keeps_orders_current(self):
        engine = engine_with()
        a = engine.store(blob(0), "hot").dn_id
        b = engine.store(blob(1), "hot").dn_id
        cue = engine.hive.find_cue_by_label("hot")
        assert [e.dn_id for e in engine.hive.search_order[cue]] == [a, b]
        before = order_lists(engine)
        engine.reaction(b, cue, flag=1)
        assert [e.dn_id for e in engine.hive.search_order[cue]] == [b, a]
        assert_moved_in_place(engine, before)
        engine.controls = OpControls(weaken_on_fail=True)
        engine.reaction(b, cue, flag=0)
        assert_moved_in_place(engine, before)


def _step(engine, op, payload, cue, fine, controls):
    engine.controls = controls
    if op == "store":
        out = engine.store(payload, cue)
    else:
        out = engine.retrieve(cue, fine)
    return (out.kind, out.dn_id, out.cost, out.examined, out.quality)


class TestDifferentialAgainstFullRebuild:
    def test_distinct_trace_replay_matches_reference(self):
        config = load_config(preset="wildlife-deer")
        spec = dataclasses.replace(config.workload, items_per_cluster=1,
                                   n_items=400, n_retrievals=500)
        corpus = build_corpus(spec)
        records = generate_trace(corpus, spec)
        adapters = [NsReplayAdapter(cls(config.hive, search=config.search,
                                        controls=config.controls))
                    for cls in (MemoryEngine, FullRebuildEngine)]
        new, reference = adapters
        for rec in records:
            rows = [replay([rec], adapter, corpus) for adapter in adapters]
            assert rows[0] == rows[1], f"seq {rec.seq}"
            orders = maintained(new.engine)
            assert orders == maintained(reference.engine), f"seq {rec.seq}"
            assert orders == oracle_search_order(new.engine.memory,
                                                 new.engine.hive), f"seq {rec.seq}"

    def test_mixed_controls_match_full_rebuild(self):
        params = dict(memory_decay_rates=[0.5, 1.0],
                      association_decay_rates=[0.5, 2.0],
                      locality_mapping=[{"labels": ["hot"]}, {}],
                      eta=7.0, epsilon=1.0, phi=1.0, retention_period=97)
        engines = [cls(HiveParams(**params))
                   for cls in (MemoryEngine, FullRebuildEngine)]
        new = engines[0]
        rng = np.random.default_rng(31)
        pool = [blob(cluster, cls=cls) for cls in range(2) for cluster in range(40)]
        features = [new.hive.extractor.extract(p) for p in pool]
        labels = ["hot", "warm", "cool"]
        for i in range(700):
            key = int(rng.integers(len(pool)))
            op = "store" if i < 60 or rng.random() < 0.3 else "retrieve"
            # unknown cues reach data through the default cues and then
            # join the cue bank on a hit
            cue = labels[int(rng.integers(3))] if rng.random() < 0.85 \
                else f"alias-{int(rng.integers(8))}"
            fine = features[key] if rng.random() < 0.9 else None
            controls = OpControls(weaken_on_fail=bool(rng.random() < 0.5))
            outs = [_step(engine, op, pool[key], cue, fine, controls)
                    for engine in engines]
            assert outs[0] == outs[1], f"op {i}"
            orders = maintained(new)
            assert orders == maintained(engines[1]), f"op {i}"
            assert orders == oracle_search_order(new.memory, new.hive), \
                f"op {i}"
