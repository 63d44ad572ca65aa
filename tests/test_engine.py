"""Operation tests: store, retrieve, retention, reaction, elasticity, capacity."""

from __future__ import annotations

import math
import reprlib

import numpy as np
import pytest

from neuralstore.codec import Payload
from neuralstore.core import ConfigurationError
from neuralstore.engine import (
    MemoryEngine,
    OpControls,
    SearchParams,
    StorageFullError,
    _check_fine_cue,
    oracle_search_order,
)
from tests.helpers import (
    blob,
    candidates,
    engine_with,
    locality_of,
    maintained,
    size_of,
    strength_of,
)


class TestStore:
    def test_new_neuron_reports_the_quality_it_stores(self):
        engine = engine_with()
        data = blob(0, size=1000)
        out = engine.store(Payload(data[:600], data, 60.0), "hot")
        assert out.kind == "new_neuron"
        stored = engine.memory.payload(out.dn_id)
        assert out.quality == stored.quality == 60.0

    def test_empty_memory_store_cost_zero(self):
        engine = engine_with()
        out = engine.store(blob(0), "hot")
        assert out.kind == "new_neuron"
        assert out.cost == 0
        assert out.examined == ()
        assert engine.memory.find_cue_by_label("hot") is not None

    def test_merge_restores_strength_and_strengthens_cue(self):
        engine = engine_with()
        first = engine.store(blob(0, 0), "hot")
        cue = engine.memory.find_cue_by_label("hot")
        engine.memory.adjust_strength(first.dn_id, 30.0)
        out = engine.store(blob(0, 1), "hot")   # same cluster: merges
        assert out.kind == "merged"
        assert out.dn_id == first.dn_id
        assert out.cost == 1
        assert strength_of(engine.memory, first.dn_id) == 100.0
        # path edge strengthened once by eta, not double-counted
        assert engine.memory.weights[cue, first.dn_id] == 1.0 + 20.0

    def test_merge_refresh_replaces_degraded_payload(self):
        engine = engine_with()
        first = engine.store(blob(0, 0), "hot")
        engine.memory.adjust_strength(first.dn_id, 40.0)   # quality 60 now
        assert engine.memory.payload(first.dn_id).quality == 60.0
        fresh = blob(0, 1)
        out = engine.store(fresh, "hot", item_id="fresh")
        assert out.kind == "merged"
        stored = engine.memory.payload(first.dn_id)
        assert stored.quality == 100.0
        assert stored.blob == fresh
        assert stored.lineage == "fresh"

    def test_equal_quality_merge_keeps_resident_payload(self):
        engine = engine_with()
        first = engine.store(blob(0, 0), "hot", item_id="orig")
        engine.store(blob(0, 1), "hot", item_id="dup")
        assert engine.memory.payload(first.dn_id).lineage == "orig"

    def test_failed_candidates_counted_in_cost(self):
        engine = engine_with()
        engine.store(blob(0), "hot")
        engine.store(blob(1), "hot")
        out = engine.store(blob(2), "hot")
        assert out.kind == "new_neuron"
        assert out.cost == 2
        assert len(out.examined) == 2

    def test_store_requires_cues(self):
        engine = engine_with()
        with pytest.raises(ConfigurationError):
            engine.store(blob(0), None)

    def test_locality_routing(self):
        engine = engine_with()
        hot = engine.store(blob(0), "hot")
        cold = engine.store(blob(1, cls=1), "other")
        assert locality_of(engine.memory, hot.dn_id) == 0
        assert locality_of(engine.memory, cold.dn_id) == 1


class TestRetrieve:
    def test_no_fine_cue_returns_first_candidate(self):
        engine = engine_with()
        a = engine.store(blob(0), "hot")
        engine.store(blob(1), "hot")
        out = engine.retrieve("hot")
        assert out.kind == "hit"
        assert out.dn_id == a.dn_id
        assert out.cost == 1

    def test_unknown_cue_falls_back_to_default_cues(self):
        engine = engine_with()
        stored = engine.store(blob(0), "hot")
        fine = engine.memory.extractor.extract(blob(0))
        out = engine.retrieve("mystery", fine)
        assert out.kind == "hit"
        assert out.dn_id == stored.dn_id
        # the unseen cue gets a neuron and a link only because the search hit
        new_cue = engine.memory.find_cue_by_label("mystery")
        assert new_cue is not None
        assert engine.memory.weights[new_cue, stored.dn_id] == 1.0

    def test_miss_is_not_an_error_and_creates_no_cue(self):
        engine = engine_with()
        engine.store(blob(0), "hot")
        foreign = engine.memory.extractor.extract(blob(5, cls=1))
        out = engine.retrieve("mystery", foreign)
        assert out.kind == "miss"
        assert out.dn_id is None
        assert engine.memory.find_cue_by_label("mystery") is None

    def test_miss_on_empty_memory(self):
        engine = engine_with()
        out = engine.retrieve("hot")
        assert out.kind == "miss"
        assert out.cost == 0

    def test_hit_restores_strength_and_raises_path_weights(self):
        engine = engine_with()
        stored = engine.store(blob(0), "hot")
        engine.memory.adjust_strength(stored.dn_id, 25.0)
        cue = engine.memory.find_cue_by_label("hot")
        before = engine.memory.weights[cue, stored.dn_id]
        fine = engine.memory.extractor.extract(blob(0))
        out = engine.retrieve("hot", fine)
        assert out.hit
        assert strength_of(engine.memory, stored.dn_id) == 100.0
        assert engine.memory.weights[cue, stored.dn_id] > before

    def test_returned_quality_is_stored_quality(self):
        engine = engine_with()
        stored = engine.store(blob(0), "hot")
        engine.memory.adjust_strength(stored.dn_id, 35.0)
        fine = engine.memory.extractor.extract(blob(0))
        out = engine.retrieve("hot", fine)
        assert out.quality == 65.0
        assert out.payload.quality == 65.0


class TestReaction:
    def test_reward_strengthens_path_once(self):
        engine = engine_with(eta=10.0)
        stored = engine.store(blob(0), "hot")
        cue = engine.memory.find_cue_by_label("hot")
        engine.memory.adjust_strength(stored.dn_id, 50.0)
        engine.reaction(stored.dn_id, cue, flag=1)
        assert engine.memory.weights[cue, stored.dn_id] == 11.0
        assert strength_of(engine.memory, stored.dn_id) == 100.0

    def test_failure_without_decay_changes_nothing(self):
        engine = engine_with()
        stored = engine.store(blob(0), "hot")
        cue = engine.memory.find_cue_by_label("hot")
        before = engine.memory.weights[cue, stored.dn_id]
        engine.reaction(stored.dn_id, cue, flag=0)
        assert engine.memory.weights[cue, stored.dn_id] == before

    def test_failure_with_decay_clamps_at_epsilon(self):
        engine = engine_with()
        stored = engine.store(blob(0), "hot")
        cue = engine.memory.find_cue_by_label("hot")
        engine.controls = OpControls(weaken_on_fail=True)
        engine.reaction(stored.dn_id, cue, flag=0)
        assert engine.memory.weights[cue, stored.dn_id] == 1.0  # already at floor

    def test_failure_decay_subtracts_exactly_eta(self):
        engine = engine_with(eta=5.0)
        stored = engine.store(blob(0), "hot")
        cue = engine.memory.find_cue_by_label("hot")
        engine.memory.adjust_association(cue, stored.dn_id, -29.0)  # weight 30
        engine.controls = OpControls(weaken_on_fail=True)
        engine.reaction(stored.dn_id, cue, flag=0)
        assert engine.memory.weights[cue, stored.dn_id] == 25.0

    def test_dangling_path_rejected(self):
        engine = engine_with()
        engine.store(blob(0), "hot")
        cue = engine.memory.find_cue_by_label("hot")
        other = engine.store(blob(1), "warm").dn_id
        with pytest.raises(RuntimeError):
            # cue has no edge to that target
            engine.reaction(other, cue, flag=1)


class TestRetention:
    @pytest.mark.parametrize("window", [0, -3, 1.5, 1.0, math.nan, True])
    def test_a_window_that_is_not_an_integer_of_at_least_1_is_refused(
            self, window):
        engine = engine_with(memory_decay_rates=[30.0, 30.0])
        engine.store(blob(0, cls=1), "other")
        # a miss advances the op counter without touching the neuron
        foreign = engine.memory.extractor.extract(blob(5))
        assert engine.retrieve("hot", foreign).kind == "miss"
        state = engine.memory.export_graph("snapshot")
        with pytest.raises(ConfigurationError,
                           match=r"^retention window must be an integer >= 1"):
            engine.retention(n=window)
        assert engine.memory.export_graph("snapshot") == state
        # a window of 1 ages the idle neuron
        assert engine.retention(n=1).compressed

    def test_noop_when_everything_fresh(self):
        engine = engine_with(retention_period=100)
        engine.store(blob(0), "hot")
        summary = engine.retention(n=100)
        assert summary.compressed == []
        assert summary.bytes_freed == 0

    def test_idle_neuron_decays_and_recompresses(self):
        engine = engine_with()
        out = engine.store(blob(0, size=1000, cls=1), "other")  # locality 1, rate 1.0
        foreign = engine.memory.extractor.extract(blob(5))
        for _ in range(3):
            # misses advance the op counter without touching the neuron
            assert engine.retrieve("hot", foreign).kind == "miss"
        summary = engine.retention(n=1)
        assert strength_of(engine.memory, out.dn_id) == 99.0
        assert engine.memory.payload(out.dn_id).quality == 99.0
        assert size_of(engine.memory, out.dn_id) == 990
        assert summary.bytes_freed == 10
        assert summary.compressed == [(out.dn_id, 99.0)]

    def test_floor_neuron_stays_at_phi(self):
        engine = engine_with()
        out = engine.store(blob(0, cls=1), "other")
        engine.memory.adjust_strength(out.dn_id, 150.0)  # clamp to phi=1
        foreign = engine.memory.extractor.extract(blob(5))
        engine.retrieve("hot", foreign)
        size = size_of(engine.memory, out.dn_id)
        engine.retention(n=1)
        assert strength_of(engine.memory, out.dn_id) == 1.0
        assert size_of(engine.memory, out.dn_id) == size

    def test_edge_decay_gated_by_weaken_on_fail_and_rate(self):
        engine = engine_with(association_decay_rates=[3.0, 3.0])
        out = engine.store(blob(0), "hot")
        cue = engine.memory.find_cue_by_label("hot")
        engine.memory.adjust_association(cue, out.dn_id, -9.0)  # weight 10
        engine.retrieve("nothing-known")
        engine.retention(n=1)
        assert engine.memory.weights[cue, out.dn_id] == 10.0
        engine.controls = OpControls(weaken_on_fail=True)
        summary = engine.retention(n=1)
        assert engine.memory.weights[cue, out.dn_id] == 7.0
        assert (cue, out.dn_id, 7.0) in summary.weakened_edges

    def test_auto_retention_fires_on_period(self):
        engine = engine_with(retention_period=3, memory_decay_rates=[2.0, 1.0])
        out = engine.store(blob(0), "hot")
        foreign = engine.memory.extractor.extract(blob(5, cls=1))
        engine.retrieve("hot", foreign)   # op 2 (miss)
        assert strength_of(engine.memory, out.dn_id) == 100.0
        # op 3: retention fires but idle window is 3 - 1 = 2 < 3, still safe
        engine.retrieve("hot", foreign)
        assert strength_of(engine.memory, out.dn_id) == 100.0
        for _ in range(3):
            engine.retrieve("hot", foreign)   # op 6: idle 5 >= 3 -> decay
        assert strength_of(engine.memory, out.dn_id) == 98.0

    def test_search_orders_refreshed(self):
        engine = engine_with(association_decay_rates=[5.0, 5.0])
        a = engine.store(blob(0), "hot")
        b = engine.store(blob(1), "hot")
        cue = engine.memory.find_cue_by_label("hot")
        engine.memory.adjust_association(cue, a.dn_id, -9.0)    # 10
        engine.memory.adjust_association(cue, b.dn_id, -19.0)   # 20
        engine.update_search_order()
        engine.retrieve("other-unknown")   # advance counter; a/b edges idle
        engine.retrieve("other-unknown")
        engine.controls = OpControls(weaken_on_fail=True)
        engine.retention(n=1)
        order = maintained(engine.memory)[cue]
        assert order == oracle_search_order(engine.memory)[cue]


def lower_locality(engine, locality_id: int, ceiling: float) -> int:
    """One step of the elasticity walk, run to its end."""
    return engine.memory.lower_to_floors(
        [(engine.memory.localities[locality_id], ceiling)], math.inf)


class TestElasticity:
    def test_ceiling_caps_strength(self):
        engine = engine_with()
        out = engine.store(blob(0, size=1000), "hot")
        engine.memory.adjust_strength(out.dn_id, 5.0)   # 95
        freed = lower_locality(engine, 0, 80.0)
        assert strength_of(engine.memory, out.dn_id) == 80.0
        assert size_of(engine.memory, out.dn_id) == 800
        assert freed == 150

    def test_below_ceiling_untouched(self):
        engine = engine_with()
        out = engine.store(blob(0), "hot")
        engine.memory.adjust_strength(out.dn_id, 50.0)
        freed = lower_locality(engine, 0, 80.0)
        assert strength_of(engine.memory, out.dn_id) == 50.0
        assert freed == 0

    def test_final_iteration_floors_everything(self):
        engine = engine_with()
        dns = [engine.store(blob(u, size=300), "hot").dn_id for u in range(3)]
        engine.memory.adjust_strength(dns[0], 5.0)
        engine.memory.adjust_strength(dns[1], 50.0)
        freed = lower_locality(engine, 0, 1.0)
        for dn_id in dns:
            assert strength_of(engine.memory, dn_id) == 1.0
            assert size_of(engine.memory, dn_id) == 3    # ceil(300 * 1%)
        assert freed == (285 - 3) + (150 - 3) + (300 - 3)


class TestEnsureCapacity:
    def test_unbounded_is_noop(self):
        engine = engine_with()
        engine.store(blob(0), "hot")
        state = engine.memory.export_graph("snapshot")
        engine.ensure_capacity(10**9)
        assert engine.memory.export_graph("snapshot") == state

    def test_single_pass_on_least_important_locality(self):
        # hand-set fixture: locality 1 decays faster, so it is squeezed first
        engine = engine_with(capacity_bytes=2600)
        a = engine.bootstrap_store(blob(0, size=1000), "hot", item_id="a")
        b = engine.bootstrap_store(blob(1, size=1000, cls=1), "other", item_id="b")
        c = engine.bootstrap_store(blob(2, size=500, cls=1), "other", item_id="c")
        engine.memory.adjust_strength(c, 10.0)   # 90 -> 450 bytes
        assert engine.memory.total_bytes() == 2450
        engine.ensure_capacity(400)
        # expected by hand: one iteration at ceiling 80 on locality 1 frees
        # (1000-800) + (450-400) = 250, reaching 400 free; locality 0 untouched
        assert strength_of(engine.memory, a) == 100.0
        assert size_of(engine.memory, a) == 1000
        assert size_of(engine.memory, b) == 800
        assert size_of(engine.memory, c) == 400
        assert 2600 - engine.memory.total_bytes() == 400

    def test_capped_store_makes_room_through_elasticity(self, monkeypatch):
        calls = []
        elasticity = MemoryEngine.elasticity

        def spy(self, shortfall):
            before = self.memory.total_bytes()
            freed = elasticity(self, shortfall)
            calls.append((shortfall, freed, before - self.memory.total_bytes()))
            return freed

        monkeypatch.setattr(MemoryEngine, "elasticity", spy)
        engine = engine_with(capacity_bytes=2000)
        engine.store(blob(0, size=1000), "hot")
        engine.store(blob(1, size=800, cls=1), "other")
        assert calls == []                      # both fit
        out = engine.store(blob(2, size=500, cls=2), "other")
        assert out.kind == "new_neuron"
        # 300 short: locality 1 at ceiling 80 frees 160, then locality 0
        # at 80 frees 200, and the walk stops there
        assert calls == [(300, 360, 360)]
        assert engine.memory.total_bytes() == 1800 - 360 + 500

    def test_storage_full_when_schedule_exhausted(self):
        engine = engine_with(capacity_bytes=500)
        engine.bootstrap_store(blob(0, size=400), "hot", item_id="a")
        with pytest.raises(StorageFullError):
            engine.ensure_capacity(600)

    def test_phi_zero_allows_full_deletion_pressure(self):
        engine = engine_with(phi=0.0, capacity_bytes=1000)
        a = engine.bootstrap_store(blob(0, size=900, cls=1), "other", item_id="a")
        engine.ensure_capacity(995)
        assert size_of(engine.memory, a) == 0
        assert strength_of(engine.memory, a) == 0.0

    def test_store_raises_storage_full(self):
        engine = engine_with(capacity_bytes=600)
        engine.store(blob(0, size=500), "hot")
        with pytest.raises(StorageFullError):
            # larger than the whole capacity: no elasticity can make room
            engine.store(blob(1, size=650), "hot")


class TestSearchOrder:
    def test_sorted_by_weight(self):
        engine = engine_with()
        a = engine.store(blob(0), "hot").dn_id
        b = engine.store(blob(1), "hot").dn_id
        cue = engine.memory.find_cue_by_label("hot")
        engine.memory.adjust_association(cue, a, -29.0)   # 30
        engine.memory.adjust_association(cue, b, -49.0)   # 50
        engine.update_search_order()
        order = candidates(engine, "hot")
        assert [e.dn_id for e in order] == [b, a]

    def test_threshold_filters(self):
        engine = engine_with()
        a = engine.store(blob(0), "hot").dn_id
        b = engine.store(blob(1), "hot").dn_id
        cue = engine.memory.find_cue_by_label("hot")
        engine.memory.adjust_association(cue, a, -29.0)
        engine.memory.adjust_association(cue, b, -49.0)
        engine.update_search_order()
        engine.search = SearchParams(assoc_thresh=40.0)
        order = candidates(engine, "hot")
        assert [e.dn_id for e in order] == [b]

    def test_default_cue_refuses_another_localitys_data_neuron(self):
        # an unknown label walks both localities' default cues, whose
        # orders therefore never share a data neuron
        engine = engine_with()
        hot = engine.store(blob(0), "hot").dn_id
        cold = engine.store(blob(1, cls=1), "cold").dn_id
        other = engine.memory.localities[1].default_cue_id
        before = maintained(engine.memory)
        with pytest.raises(KeyError, match=f"cue {other} .*data neuron {hot}"):
            engine.memory.associate(other, hot)
        assert maintained(engine.memory) == before
        assert (other, hot) not in engine.memory.weights
        ids = [e.dn_id for e in candidates(engine, "unknown")]
        assert ids == [hot, cold]

    def test_strengthening_flips_order(self):
        engine = engine_with()
        a = engine.store(blob(0), "hot").dn_id
        b = engine.store(blob(1), "hot").dn_id
        cue = engine.memory.find_cue_by_label("hot")
        assert [e.dn_id for e in candidates(engine, "hot")] == [a, b]
        engine.memory.adjust_association(cue, b, -20.0)
        engine.update_search_order()
        assert [e.dn_id for e in candidates(engine, "hot")] == [b, a]

    def test_update_is_fixed_point_without_changes(self):
        engine = engine_with()
        engine.store(blob(0), "hot")
        engine.store(blob(1), "hot")
        first = maintained(engine.memory)
        engine.update_search_order()
        assert maintained(engine.memory) == first

    def test_new_neuron_appears_in_default_cue_order(self):
        engine = engine_with()
        out = engine.store(blob(0), "hot")
        default = engine.memory.localities[0].default_cue_id
        assert out.dn_id in [e.dn_id for e in engine.memory.search_order[default]]


class TestSelectLocality:
    def test_label_match(self):
        engine = engine_with(locality_mapping=[{"labels": ["fox", "wolf"]}, {}])
        assert engine.select_locality("fox").id == 0

    def test_unmatched_falls_to_last(self):
        engine = engine_with()
        assert engine.select_locality("emu").id == 1

    def test_first_match_wins(self):
        engine = engine_with(
            locality_mapping=[{"labels": ["x"]}, {"labels": ["x"]}])
        assert engine.select_locality("x").id == 0

    def test_no_label_falls_to_last(self):
        engine = engine_with()
        assert engine.select_locality(None).id == 1


class TestUpdateSemantics:
    def test_new_cue_association_via_retrieve(self):
        engine = engine_with()
        stored = engine.store(blob(0), "hot")
        fine = engine.memory.extractor.extract(blob(0))
        out = engine.retrieve("alias", fine)
        assert out.hit
        alias = engine.memory.find_cue_by_label("alias")
        assert engine.memory.weights[alias, stored.dn_id] == 1.0

    def test_reissue_strengthens_without_duplicate(self):
        engine = engine_with()
        stored = engine.store(blob(0), "hot")
        fine = engine.memory.extractor.extract(blob(0))
        engine.retrieve("alias", fine)
        edges_before = len(engine.memory.weights)
        engine.retrieve("alias", fine)
        alias = engine.memory.find_cue_by_label("alias")
        assert len(engine.memory.weights) == edges_before
        assert engine.memory.weights[alias, stored.dn_id] > 1.0

    def test_miss_propagates(self):
        engine = engine_with()
        engine.store(blob(0), "hot")
        foreign = engine.memory.extractor.extract(blob(5, cls=1))
        assert engine.retrieve("alias", foreign).kind == "miss"


class TestCostAccounting:
    def test_instrumented_counter_matches_reported_costs(self):
        engine = engine_with()
        rng = np.random.default_rng(3)
        total = 0
        for i in range(40):
            before = engine.total_search_iterations
            if rng.random() < 0.5:
                out = engine.store(blob(int(rng.integers(5))), "hot")
            else:
                fine = engine.memory.extractor.extract(blob(int(rng.integers(5))))
                out = engine.retrieve("hot", fine)
            assert engine.total_search_iterations - before == out.cost
            total += out.cost
        assert engine.total_search_iterations == total


class TestRoundTripAndPriming:
    def test_store_then_retrieve_under_fresh_cue_costs_one(self):
        engine = engine_with()
        for u in range(4):
            engine.store(blob(u), "hot")
        stored = engine.store(blob(7), "fresh-cue")
        fine = engine.memory.extractor.extract(blob(7))
        out = engine.retrieve("fresh-cue", fine)
        assert out.dn_id == stored.dn_id
        assert out.cost == 1

    def test_repeated_retrieve_cost_non_increasing_to_one(self):
        engine = engine_with()
        for u in range(8):
            engine.store(blob(u), "hot")
        target = blob(5)
        fine = engine.memory.extractor.extract(target)
        costs = [engine.retrieve("hot", fine).cost for _ in range(10)]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert costs[-1] == 1


class TestDeterminism:
    def test_identical_runs_produce_identical_outcomes(self):
        def run():
            engine = engine_with()
            outs = []
            for u in range(6):
                outs.append(engine.store(blob(u % 3, u // 3), "hot"))
            for u in range(6):
                fine = engine.memory.extractor.extract(blob(u % 3, u // 3))
                outs.append(engine.retrieve("hot", fine))
            return [(o.kind, o.dn_id, o.cost, o.examined) for o in outs]

        assert run() == run()


class TestCueLabel:
    """A coarse cue is one label string; anything else is refused before
    the op changes anything."""

    def state(self, engine) -> tuple:
        memory = engine.memory
        return (memory.op_counter, dict(memory.weights),
                dict(memory.edge_access),
                memory.strength[:len(memory.row_of)].tolist(),
                maintained(engine.memory), sorted([*memory.cues, *memory.row_of]),
                memory.total_bytes())

    def seeded(self):
        engine = engine_with()
        engine.store(blob(0), "hot")
        engine.retrieve("hot")
        return engine

    def call(self, engine, op, cue):
        if op == "retrieve":
            return engine.retrieve(cue)
        return getattr(engine, op)(blob(1), cue)

    @pytest.mark.parametrize("cue, shown", [
        (["hot"], "['hot']"),
        (("hot",), "('hot',)"),
        ([], "[]"),
        (np.ones(64), "array([1., 1...., 1., 1., 1.])"),
        (3, "3"),
        (b"hot", "b'hot'"),
    ])
    @pytest.mark.parametrize("op", ["store", "retrieve", "bootstrap_store"])
    def test_refused_before_anything_changes(self, op, cue, shown):
        engine = self.seeded()
        before = self.state(engine)
        with pytest.raises(ConfigurationError) as caught:
            self.call(engine, op, cue)
        assert str(caught.value) == \
            f"{op} cue must be a label string, got {shown}"
        assert self.state(engine) == before

    @pytest.mark.parametrize("op", ["store", "retrieve"])
    def test_no_cue_is_refused(self, op):
        engine = self.seeded()
        before = self.state(engine)
        with pytest.raises(ConfigurationError,
                           match=f"^{op} cue must be a label string, got None$"):
            self.call(engine, op, None)
        assert self.state(engine) == before

    def test_bootstrap_takes_no_cue(self):
        engine = self.seeded()
        dn_id = self.call(engine, "bootstrap_store", None)
        assert locality_of(engine.memory, dn_id) == 1

    def test_a_label_is_one_cue(self):
        engine = engine_with()
        stored = engine.store(blob(0), "hot")
        assert [engine.memory.find_cue_by_label(c) for c in "hot"] == [None] * 3
        assert engine.retrieve("hot").dn_id == stored.dn_id


class TestDataType:
    """Stored data is bytes, a bytes-like buffer or a Payload; anything
    else is refused by name before the op changes anything."""

    @pytest.mark.parametrize("data, shown", [
        (5, "5"),               # bytes(5) would store five zero bytes
        ("deer", "'deer'"),
        (None, "None"),
        ([1, 2], "[1, 2]"),
    ])
    @pytest.mark.parametrize("op", ["store", "bootstrap_store"])
    def test_refused_before_anything_changes(self, op, data, shown):
        engine = TestCueLabel.seeded(self)
        before = TestCueLabel.state(self, engine)
        with pytest.raises(ConfigurationError) as caught:
            getattr(engine, op)(data, "hot")
        assert str(caught.value) == (
            f"{op} data must be bytes, bytearray, memoryview or a Payload, "
            f"got {shown}")
        assert TestCueLabel.state(self, engine) == before

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_bytes_like_data_is_stored_as_bytes(self, wrap):
        engine = engine_with()
        out = engine.store(wrap(blob(0)), "hot")
        assert out.kind == "new_neuron"
        assert out.payload.original == blob(0)


class TestLocalityId:
    """``bootstrap_store(locality_id=...)`` seeds the neuron in the locality
    of that id; an id that names none is refused by name before anything
    changes."""

    @pytest.mark.parametrize("locality_id", [0, 1])
    def test_known_id_places_the_neuron(self, locality_id):
        engine = engine_with()
        dn_id = engine.bootstrap_store(blob(1), "hot", locality_id=locality_id)
        assert locality_of(engine.memory, dn_id) == locality_id
        loc = engine.memory.locality(locality_id)
        assert loc.id == locality_id and loc.dn_ids == [dn_id]
        assert engine.memory.localities[1 - locality_id].dn_ids == []

    @pytest.mark.parametrize("locality_id", [-1, -2, 2, 10, True, False, 1.0,
                                             "0"])
    def test_unknown_id_refused_by_name(self, locality_id):
        engine = TestCueLabel.seeded(self)
        before = TestCueLabel.state(self, engine)
        with pytest.raises(ConfigurationError) as caught:
            engine.bootstrap_store(blob(1), "hot", locality_id=locality_id)
        assert str(caught.value) == f"unknown locality {locality_id}"
        assert TestCueLabel.state(self, engine) == before


class TestFineCueShape:
    """A fine cue is one vector of ``feature_dim`` numbers; anything else is
    refused before the op changes anything, whether or not the cue has
    candidates."""

    def state(self, engine) -> tuple:
        # each memo entry's key, how many rows it has scored and its near
        # rows' scores
        return TestCueLabel.state(self, engine) + (
            {key: (scored, list(near)) for key, (_, scored, near, _) in
             engine._fine_units.items()},)

    @pytest.mark.parametrize("cue", ["hot", "unheard"])
    @pytest.mark.parametrize("fine, shown", [
        (np.ones(3), "array([1., 1., 1.])"),
        ([np.ones(64)], "[array([1., 1...., 1., 1., 1.])]"),
        (np.ones((1, 64)), "array([[1., 1... 1., 1., 1.]])"),
        ([], "[]"),
        ("abc", "'abc'"),
    ])
    def test_refused_before_anything_changes(self, cue, fine, shown):
        engine = engine_with()
        engine.store(blob(0), "hot")
        engine.retrieve("hot", engine.memory.extractor.extract(blob(0)))
        before = self.state(engine)
        with pytest.raises(ConfigurationError) as caught:
            engine.retrieve(cue, fine)
        assert str(caught.value) == \
            f"fine_cue must be one vector of 64 numbers, got {shown}"
        assert self.state(engine) == before
        engine.retrieve("unheard")
        assert engine.memory.op_counter == 3

    def test_without_candidates_too(self):
        engine = engine_with()
        with pytest.raises(ConfigurationError, match="^fine_cue "):
            engine.retrieve("hot", np.ones(3))
        assert engine.memory.op_counter == 0


def np_asarray_check(fine_cue, dim: int) -> np.ndarray:
    """The fine cue check as ``np.asarray`` alone makes it: the reference
    ``_check_fine_cue`` must agree with on every input."""
    try:
        query = np.asarray(fine_cue, dtype=float)
        if query.shape == (dim,):
            return query
    except (TypeError, ValueError):
        pass
    raise ConfigurationError(f"fine_cue must be one vector of {dim} numbers, "
                             f"got {reprlib.repr(fine_cue)}")


class TestCheckFineCue:
    """``_check_fine_cue`` returns a float64 vector of the right shape as it
    is, and converts or refuses every other input as ``np.asarray`` does."""

    DIM = 8

    @pytest.mark.parametrize("fine", [
        np.linspace(-1.0, 1.0, DIM),
        np.linspace(0.0, 1.0, 2 * DIM)[::2],            # a strided view
        np.linspace(0.0, 1.0, DIM).view(np.ndarray),
    ])
    def test_a_float64_vector_is_returned_as_it_is(self, fine):
        assert _check_fine_cue(fine, self.DIM) is fine
        assert np_asarray_check(fine, self.DIM) is fine

    @pytest.mark.parametrize("fine", [
        [1, 2, 3, 4, 5, 6, 7, 8],
        [0.5] * DIM,
        tuple(range(DIM)),
        np.arange(DIM),
        np.linspace(0.1, 0.9, DIM, dtype=np.float32),
        np.linspace(0.1, 0.9, DIM).astype(">f8"),
        np.array([0.25] * DIM, dtype=object),
        np.ma.masked_array(np.ones(DIM)),
        np.ones((DIM, 1))[:, 0],
    ])
    def test_other_vectors_are_converted_as_before(self, fine):
        got = _check_fine_cue(fine, self.DIM)
        want = np_asarray_check(fine, self.DIM)
        assert type(got) is type(want) and got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert (got is fine) == (want is fine)

    @pytest.mark.parametrize("fine", [
        np.ones(DIM + 1),
        np.ones((1, DIM)),
        np.ones((DIM, DIM)),
        np.float64(1.0),
        "abcdefgh",
        object(),
        [object()] * DIM,
        np.array([object()] * DIM),
        [[1.0]] * DIM,
    ])
    def test_anything_else_is_refused_as_before(self, fine):
        with pytest.raises(ConfigurationError) as want:
            np_asarray_check(fine, self.DIM)
        with pytest.raises(ConfigurationError) as got:
            _check_fine_cue(fine, self.DIM)
        assert str(got.value) == str(want.value)
