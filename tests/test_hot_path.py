"""The per-operation hot path: entry moves, matrix-scored scan, byte totals.

Search orders are kept current by moving only the entries whose edge
weights changed, candidate lists are scored in one matrix product with the
scalar cosine as the judge near the threshold, and stored bytes are a
running total.  Each is checked against its brute-force counterpart.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from neuralstore import engine as engine_module
from neuralstore.codec import cosine_similarity
from neuralstore.config import load_config
from neuralstore.core import DataNeuron
from neuralstore.engine import (
    MemoryEngine,
    OpControls,
    SearchParams,
    oracle_search_order,
)
from neuralstore.workload import (
    NsReplayAdapter,
    build_corpus,
    generate_trace,
    replay,
)
from tests.test_engine import blob, engine_with, maintained
from tests.test_order_upkeep import FullRebuildEngine, spy_on_resorts


def brute_force_bytes(memory) -> int:
    return sum(n.size_bytes for n in memory.neurons.values()
               if isinstance(n, DataNeuron))


def spy_on_cosine(monkeypatch) -> list:
    calls = []
    original = engine_module.cosine_similarity

    def spy(f1, f2):
        calls.append(1)
        return original(f1, f2)

    monkeypatch.setattr(engine_module, "cosine_similarity", spy)
    return calls


def spy_on_reactions(engine, monkeypatch) -> list:
    calls = []
    original = engine.reaction

    def spy(target_dn, cue_id, flag, *args, **kwargs):
        calls.append((target_dn, flag))
        return original(target_dn, cue_id, flag, *args, **kwargs)

    monkeypatch.setattr(engine, "reaction", spy)
    return calls


def feature(engine, data: bytes) -> np.ndarray:
    return engine.hive.extractor.extract(data)


class TestEntryMoves:
    def test_bisect_moves_keep_weight_ties_in_dn_id_order(self):
        engine = engine_with()
        a, b, c = (engine.store(blob(i), ["hot"]).dn_id for i in range(3))
        hot = engine.hive.find_cue_by_label("hot")
        order = engine.hive.search_order[hot]
        assert [e.dn_id for e in order] == [a, b, c]
        assert engine.retrieve(["hot"], [feature(engine, blob(1))]).dn_id == b
        assert [(e.dn_id, e.avg_weight) for e in order] == [
            (b, 21.0), (a, 1.0), (c, 1.0)]
        # every candidate fails and decays: only b changes, back to the
        # epsilon tie, which dn_id breaks
        foreign = feature(engine, blob(5, cls=1))
        engine.retrieve(["hot"], [foreign],
                        controls=OpControls(weaken_on_fail=True))
        assert [(e.dn_id, e.avg_weight) for e in order] == [
            (a, 1.0), (b, 1.0), (c, 1.0)]
        # a new edge is inserted at its place among the ties
        d = engine.store(blob(3), ["hot"]).dn_id
        assert [e.dn_id for e in order] == [a, b, c, d]
        # the order was moved in place, never rebuilt
        assert engine.hive.search_order[hot] is order
        assert maintained(engine) == oracle_search_order(engine.memory,
                                                         engine.hive)

    def test_edge_changed_twice_moves_from_the_weight_the_order_holds(self):
        engine = engine_with()
        engine.store(blob(0), ["hot"])
        b = engine.store(blob(1), ["hot"]).dn_id
        hot = engine.hive.find_cue_by_label("hot")
        order = engine.hive.search_order[hot]
        probe = [feature(engine, blob(1))]
        engine.retrieve(["hot"], probe, controls=OpControls(update_order=False))
        engine.retrieve(["hot"], probe)
        assert engine.memory.weight(hot, b) == 41.0
        assert engine.hive.search_order[hot] is order
        assert order[0].dn_id == b and order[0].avg_weight == 41.0
        assert maintained(engine) == oracle_search_order(engine.memory,
                                                         engine.hive)

    def test_entry_not_where_its_mark_says_falls_back_to_resort(self):
        engine = engine_with()
        a = engine.store(blob(0), ["hot"]).dn_id
        engine.store(blob(1), ["hot"])
        hot = engine.hive.find_cue_by_label("hot")
        order = engine.hive.search_order[hot]
        # a direct edit without update_search_order leaves the order stale
        engine.memory.adjust_association(hot, a, -5.0)
        out = engine.retrieve(["hot"], [feature(engine, blob(0))])
        assert out.dn_id == a
        assert engine.hive.search_order[hot] is not order
        assert maintained(engine) == oracle_search_order(engine.memory,
                                                         engine.hive)

    def test_retention_flushes_only_the_cues_whose_edges_decayed(
            self, monkeypatch):
        engine = engine_with(association_decay_rates=[5.0, 5.0],
                             retention_period=1000)
        a = engine.store(blob(0), ["hot"]).dn_id
        engine.store(blob(4, cls=1), ["warm"])
        hot = engine.hive.find_cue_by_label("hot")
        engine.retrieve(["hot"], [feature(engine, blob(0))])
        # one more op, touching only warm's edge, leaves hot's idle
        engine.retrieve(["warm"], [feature(engine, blob(4, cls=1))])
        calls = spy_on_resorts(engine, monkeypatch)
        summary = engine.retention(n=1, k=True)
        # every other edge is fresh or at the epsilon floor
        assert summary.weakened_edges == [(min(hot, a), max(hot, a), 16.0)]
        assert calls == [[hot]]
        assert maintained(engine) == oracle_search_order(engine.memory,
                                                         engine.hive)
        calls.clear()
        engine.retention(n=1, k=False)
        assert calls == []


class TestMatrixScan:
    def test_threshold_at_the_exact_cosine_matches_through_the_recheck(
            self, monkeypatch):
        engine = engine_with()
        a = engine.store(blob(0), ["hot"]).dn_id
        probe = feature(engine, blob(1))
        exact = cosine_similarity(probe, engine.memory.data_neuron(a).feature)
        calls = spy_on_cosine(monkeypatch)
        out = engine.retrieve(["hot"], [probe],
                              search=SearchParams(match_thresh=exact))
        assert (out.kind, out.dn_id) == ("hit", a)
        assert calls, "a score at the threshold must be re-decided"
        above = float(np.nextafter(exact, 2.0))
        out = engine.retrieve(["hot"], [probe],
                              search=SearchParams(match_thresh=above))
        assert out.kind == "miss"
        out = engine.store(blob(1), ["hot"],
                           search=SearchParams(match_thresh=exact))
        assert (out.kind, out.dn_id) == ("merged", a)

    def test_clear_decisions_call_no_scalar_cosine(self, monkeypatch):
        engine = engine_with()
        for cluster in range(4):
            engine.store(blob(cluster), ["hot"])
        calls = spy_on_cosine(monkeypatch)
        out = engine.retrieve(["hot"], [feature(engine, blob(3))])
        assert out.kind == "hit" and out.cost == 4
        assert calls == []

    def test_zero_feature_neuron_scores_zero(self, monkeypatch):
        engine = engine_with()
        z = engine.store(b"", ["hot"]).dn_id
        assert not engine.memory.data_neuron(z).feature.any()
        probe = feature(engine, blob(0))
        calls = spy_on_cosine(monkeypatch)
        for thresh, kind in ((-0.5, "hit"), (1e-6, "miss"), (0.0, "hit")):
            out = engine.retrieve(["hot"], [probe],
                                  search=SearchParams(match_thresh=thresh))
            assert out.kind == kind, thresh
        # only the score at the threshold itself was re-decided
        assert len(calls) == 1
        # a zero query scores 0.0 against every neuron as well
        out = engine.retrieve(["hot"], [np.zeros(64)],
                              search=SearchParams(match_thresh=0.0))
        assert (out.kind, out.dn_id) == ("hit", z)

    def test_match_on_a_later_fine_cue_counts(self):
        engine = engine_with()
        a = engine.store(blob(0), ["hot"]).dn_id
        b = engine.store(blob(1), ["hot"]).dn_id
        foreign = feature(engine, blob(5, cls=1))
        out = engine.retrieve(["hot"], [foreign, feature(engine, blob(1))])
        assert (out.kind, out.dn_id, out.examined) == ("hit", b, (a, b))
        # b now leads the order: the first candidate matching any cue wins,
        # even when an earlier cue matches a later candidate
        out = engine.retrieve(["hot"], [feature(engine, blob(0)),
                                        feature(engine, blob(1))])
        assert (out.dn_id, out.examined) == (b, (b,))

    def test_weaken_on_fail_decays_every_examined_non_match_in_order(
            self, monkeypatch):
        engine = engine_with(eta=5.0)
        ids = [engine.store(blob(i), ["hot"]).dn_id for i in range(3)]
        hot = engine.hive.find_cue_by_label("hot")
        for dn_id in ids:
            engine.memory.adjust_association(hot, dn_id, -9.0)
        engine.update_search_order()
        calls = spy_on_reactions(engine, monkeypatch)
        out = engine.retrieve(["hot"], [feature(engine, blob(2))],
                              controls=OpControls(weaken_on_fail=True))
        assert out.examined == tuple(ids)
        assert calls == [(ids[0], 0), (ids[1], 0), (ids[2], 1)]
        assert [engine.memory.weight(hot, d) for d in ids] == [5.0, 5.0, 15.0]

    def test_failures_without_decay_get_no_reaction(self, monkeypatch):
        engine = engine_with()
        ids = [engine.store(blob(i), ["hot"]).dn_id for i in range(3)]
        calls = spy_on_reactions(engine, monkeypatch)
        out = engine.retrieve(["hot"], [feature(engine, blob(2))])
        assert out.cost == 3
        assert calls == [(ids[2], 1)]

    @pytest.mark.parametrize("limit", [1, 2, 3])
    def test_search_limit_bounds_cost(self, limit):
        engine = engine_with()
        for cluster in range(5):
            engine.store(blob(cluster), ["hot"])
        before = engine.total_search_iterations
        foreign = feature(engine, blob(5, cls=1))
        out = engine.retrieve(["hot"], [foreign],
                              controls=OpControls(search_limit=limit))
        assert out.kind == "miss" and out.cost == limit
        out = engine.store(blob(7), ["hot"],
                           controls=OpControls(search_limit=limit))
        assert out.cost <= limit
        assert engine.total_search_iterations - before == limit + out.cost

    def test_query_of_the_wrong_dimension_is_rejected(self):
        engine = engine_with()
        engine.store(blob(0), ["hot"])
        with pytest.raises(ValueError, match="dimension mismatch"):
            engine.retrieve(["hot"], [np.ones(3)])


class TestByteTotals:
    def test_running_total_matches_brute_force_on_capped_replay(self):
        config = load_config(preset="wildlife-deer")
        spec = dataclasses.replace(config.workload, items_per_cluster=1,
                                   n_items=60, n_retrievals=40,
                                   tail_retentions=5)
        corpus = build_corpus(spec)
        params = dataclasses.replace(
            config.hive, capacity_bytes=int(0.3 * corpus.total_bytes()),
            retention_period=25)
        adapter = NsReplayAdapter(MemoryEngine(params, search=config.search,
                                               controls=config.controls))
        memory = adapter.engine.memory
        for rec in generate_trace(corpus, spec):
            row = replay([rec], adapter, corpus)[0]
            assert row["total_bytes"] == brute_force_bytes(memory), rec.seq
            assert memory.total_bytes() == row["total_bytes"]
        assert any(dn.payload.quality < 100.0 for dn in memory.data_neurons())

    def test_merge_refresh_updates_the_total(self):
        engine = engine_with()
        dn_id = engine.store(blob(0), ["hot"]).dn_id
        engine.memory.adjust_strength(dn_id, 60.0)
        assert engine.memory.total_bytes() == brute_force_bytes(engine.memory)
        out = engine.store(blob(0), ["hot"])
        assert (out.kind, out.quality) == ("merged", 100.0)
        assert engine.memory.total_bytes() == 2048 == brute_force_bytes(
            engine.memory)


class TestLocalityOrder:
    def test_dn_ids_stay_in_increasing_id_order_after_a_replay(self):
        # elasticity and retention walk a locality's dn_ids as they stand
        config = load_config(preset="wildlife-deer")
        spec = dataclasses.replace(config.workload, items_per_cluster=1,
                                   n_items=60, n_retrievals=40,
                                   tail_retentions=5)
        corpus = build_corpus(spec)
        params = dataclasses.replace(
            config.hive, capacity_bytes=int(0.3 * corpus.total_bytes()),
            retention_period=25)
        engine = MemoryEngine(params, search=config.search,
                              controls=config.controls)
        replay(generate_trace(corpus, spec), NsReplayAdapter(engine), corpus)
        memory = engine.memory
        assert any(dn.payload.quality < 100.0 for dn in memory.data_neurons())
        for locality in engine.hive.localities:
            assert locality.dn_ids, locality.id
            assert locality.dn_ids == [dn.id for dn in memory.data_neurons()
                                       if dn.locality_id == locality.id]


class TestAtScale:
    def test_thousand_item_replay_matches_full_rebuild_reference(self):
        config = load_config(preset="wildlife-deer")
        spec = dataclasses.replace(config.workload, items_per_cluster=1,
                                   n_items=1000, n_retrievals=500,
                                   payload_size_range=(256, 1024))
        corpus = build_corpus(spec)
        # a cap puts elasticity to work, and with edge ageing the tail
        # retentions move the entries the last retrievals raised
        params = dataclasses.replace(
            config.hive, capacity_bytes=int(0.5 * corpus.total_bytes()),
            association_decay_rates=[1.0, 2.0])
        adapters = [NsReplayAdapter(cls(params, search=config.search,
                                         controls=config.controls))
                    for cls in (MemoryEngine, FullRebuildEngine)]
        new, reference = adapters
        records = generate_trace(corpus, spec)
        for i, rec in enumerate(records, start=1):
            if rec.op != "store":
                # failure decay (which also enables edge ageing) from the
                # first retrieval on; in the store phase of distinct items
                # it would only press epsilon-weight edges against the floor
                for adapter in adapters:
                    adapter.engine.controls = OpControls(weaken_on_fail=True)
            rows = [replay([rec], adapter, corpus) for adapter in adapters]
            assert rows[0] == rows[1], f"seq {rec.seq}"
            if i % 50 == 0 or i == len(records):
                memory = new.engine.memory
                assert maintained(new.engine) == oracle_search_order(
                    memory, new.engine.hive), f"seq {rec.seq}"
                assert memory.total_bytes() == brute_force_bytes(memory)
        assert len(new.engine.memory.data_neurons()) == 1000
