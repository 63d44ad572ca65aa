"""Search-order upkeep: operations re-sort only the cues whose edges changed.

The engine marks cues dirty as reactions and new neurons change their edges
and re-sorts those cues once per operation.  These tests pin which cues get
re-sorted and check, against a reference engine that re-sorts every cue
after every operation, that nothing else ever needed it.
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


def spy_on_resorts(engine, monkeypatch) -> list:
    """Record the cue ids of every update_search_order call (None = all)."""
    calls = []
    original = engine.update_search_order

    def spy(*, cue_ids=None):
        calls.append(None if cue_ids is None else sorted(cue_ids))
        return original(cue_ids=cue_ids)

    monkeypatch.setattr(engine, "update_search_order", spy)
    return calls


class FullRebuildEngine(MemoryEngine):
    """Reference: re-sorts every cue after every op that updates orders."""

    def store(self, data, cues, search=None, controls=None, item_id=None):
        out = super().store(data, cues, search, controls, item_id)
        self._rebuild(controls)
        return out

    def retrieve(self, cues, fine_cues=None, search=None, controls=None):
        out = super().retrieve(cues, fine_cues, search, controls)
        self._rebuild(controls)
        return out

    def _rebuild(self, controls) -> None:
        if (controls or self.controls).update_order:
            self.update_search_order()


class TestReactionUpkeep:
    def test_direct_reaction_with_up_refreshes_at_once(self):
        engine = engine_with()
        a = engine.store(blob(0), ["hot"]).dn_id
        b = engine.store(blob(1), ["hot"]).dn_id
        cue = engine.hive.find_cue_by_label("hot")
        assert [e.dn_id for e in engine.hive.search_order[cue]] == [a, b]
        engine.reaction(b, cue, flag=1, cues=["hot"], up=True)
        assert [e.dn_id for e in engine.hive.search_order[cue]] == [b, a]
        assert maintained(engine) == oracle_search_order(engine.memory,
                                                         engine.hive)

    def test_direct_reaction_without_up_defers_to_next_op(self):
        engine = engine_with()
        a = engine.store(blob(0), ["hot"]).dn_id
        b = engine.store(blob(1), ["hot"]).dn_id
        cue = engine.hive.find_cue_by_label("hot")
        engine.reaction(b, cue, flag=1, cues=["hot"], up=False)
        assert [e.dn_id for e in engine.hive.search_order[cue]] == [a, b]
        # a miss changes no edge, but the op still re-sorts the marked cue
        engine.retrieve(["hot"], [engine.hive.extractor.extract(blob(5, cls=1))])
        assert [e.dn_id for e in engine.hive.search_order[cue]] == [b, a]

    def test_all_failed_retrieve_resorts_no_cue(self, monkeypatch):
        engine = engine_with()
        for cluster in range(4):
            engine.store(blob(cluster), ["hot"])
        before = maintained(engine)
        calls = spy_on_resorts(engine, monkeypatch)
        foreign = engine.hive.extractor.extract(blob(5, cls=1))
        out = engine.retrieve(["hot"], [foreign])
        assert out.kind == "miss" and out.cost == 4
        assert calls == []
        assert maintained(engine) == before

    def test_failed_reactions_with_decay_resort_their_cue(self, monkeypatch):
        engine = engine_with()
        for cluster in range(3):
            engine.store(blob(cluster), ["hot"])
        cue = engine.hive.find_cue_by_label("hot")
        for entry in engine.hive.search_order[cue]:
            engine.memory.adjust_association(cue, entry.dn_id, -9.0)
        engine.update_search_order()
        calls = spy_on_resorts(engine, monkeypatch)
        foreign = engine.hive.extractor.extract(blob(5, cls=1))
        engine.retrieve(["hot"], [foreign],
                        controls=OpControls(weaken_on_fail=True))
        assert calls == [[cue]]

    def test_hit_resorts_only_the_cues_it_touched(self, monkeypatch):
        engine = engine_with()
        for cluster in range(3):
            engine.store(blob(cluster), ["hot"])
        engine.store(blob(4, cls=1), ["warm"])
        hot = engine.hive.find_cue_by_label("hot")
        calls = spy_on_resorts(engine, monkeypatch)
        out = engine.retrieve(["hot"], [engine.hive.extractor.extract(blob(2))])
        assert out.kind == "hit"
        assert calls == [[hot]]
        assert maintained(engine) == oracle_search_order(engine.memory,
                                                         engine.hive)

    def test_hit_under_unknown_cue_resorts_default_and_new_cue(self, monkeypatch):
        engine = engine_with()
        engine.store(blob(0), ["hot"])
        default = engine.hive.localities[0].default_cue_id
        calls = spy_on_resorts(engine, monkeypatch)
        out = engine.retrieve(["alias"], [engine.hive.extractor.extract(blob(0))])
        assert out.kind == "hit"
        alias = engine.hive.find_cue_by_label("alias")
        assert calls == [sorted([default, alias])]
        assert maintained(engine) == oracle_search_order(engine.memory,
                                                         engine.hive)

    def test_new_neuron_resorts_its_default_cue_and_insertion_cues(
            self, monkeypatch):
        engine = engine_with()
        engine.store(blob(0), ["hot"])
        engine.store(blob(1, cls=1), ["warm"])
        calls = spy_on_resorts(engine, monkeypatch)
        out = engine.store(blob(5, cls=1), ["cool"])
        assert out.kind == "new_neuron"
        default = engine.hive.localities[1].default_cue_id
        cool = engine.hive.find_cue_by_label("cool")
        assert calls == [sorted([default, cool])]

    def test_new_neuron_in_full_graph_mode_resorts_every_cue(self, monkeypatch):
        engine = engine_with(full_graph=True)
        engine.store(blob(0), ["hot"])
        engine.store(blob(1, cls=1), ["warm"])
        calls = spy_on_resorts(engine, monkeypatch)
        out = engine.store(blob(5, cls=1), ["warm"])
        assert out.kind == "new_neuron"
        assert calls == [sorted(engine.hive.cue_bank)]


def _step(engine, op, payload, cues, fine, controls):
    if op == "store":
        out = engine.store(payload, cues, controls=controls)
    else:
        out = engine.retrieve(cues, fine, controls=controls)
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

    @pytest.mark.parametrize("full_graph", [False, True])
    def test_mixed_controls_carry_dirty_cues_across_ops(self, full_graph):
        params = dict(memory_decay_rates=[0.5, 1.0],
                      association_decay_rates=[0.5, 2.0],
                      locality_mapping=[{"labels": ["hot"]}, {}],
                      eta=7.0, epsilon=1.0, phi=1.0, retention_period=97,
                      full_graph=full_graph)
        engines = [cls(HiveParams(**params))
                   for cls in (MemoryEngine, FullRebuildEngine)]
        new = engines[0]
        rng = np.random.default_rng(31 + full_graph)
        pool = [blob(cluster, cls=cls) for cls in range(2) for cluster in range(40)]
        features = [new.hive.extractor.extract(p) for p in pool]
        labels = ["hot", "warm", "cool"]
        stale_seen = {"store": 0, "retrieve": 0}
        for i in range(700):
            key = int(rng.integers(len(pool)))
            op = "store" if i < 60 or rng.random() < 0.3 else "retrieve"
            # unknown cues reach data through the default cues and then
            # join the cue bank on a hit
            cue = labels[int(rng.integers(3))] if rng.random() < 0.85 \
                else f"alias-{int(rng.integers(8))}"
            fine = [features[key]] if rng.random() < 0.9 else None
            controls = OpControls(update_order=bool(rng.random() < 0.7),
                                  weaken_on_fail=bool(rng.random() < 0.5))
            outs = [_step(engine, op, pool[key], [cue], fine, controls)
                    for engine in engines]
            assert outs[0] == outs[1], f"op {i}"
            orders = maintained(new)
            assert orders == maintained(engines[1]), f"op {i}"
            oracle = oracle_search_order(new.memory, new.hive)
            if controls.update_order:
                assert orders == oracle, f"op {i}"
            elif orders != oracle:
                stale_seen[op] += 1
        # ops that skip the update must leave stale orders for later ops
        assert stale_seen["store"] > 0 and stale_seen["retrieve"] > 0
