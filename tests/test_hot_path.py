"""The per-operation hot path: entry moves, matrix-scored scan, byte totals,
array passes.

Search orders are kept current by moving only the entries whose edge
weights changed, each query is scored against unit-length feature rows in
one product with the scalar cosine as the judge near the threshold, stored
bytes are a running total, retention updates a locality's rows of the memory
columns in one array pass, and elasticity lowers the rows above each floor
in one walk per request.  Each is checked against the reference model
(``tests/reference.py``), which re-sorts whole orders, scans candidate by
candidate with the scalar cosine, sums the stored bytes and ages and
squeezes one neuron at a time.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest

from neuralstore import engine as engine_module
from neuralstore.codec import Payload, cosine_similarity
from neuralstore.config import load_config
from neuralstore.core import (
    ConfigurationError,
    HiveParams,
    SearchEntry,
    parse_snapshot,
    unit_row,
)
from neuralstore.engine import (
    MemoryEngine,
    OpControls,
    SearchParams,
    oracle_search_order,
)
from neuralstore.workload import build_corpus
from tests.helpers import (
    assert_same_state,
    blob,
    data_neurons,
    engine_with,
    locality_of,
    maintained,
    raw_feature,
    run_both,
    size_of,
    strength_of,
)
from tests.reference import Model


def brute_force_bytes(memory) -> int:
    return sum(memory.payload(dn).size_bytes for dn in data_neurons(memory))


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
    return engine.memory.extractor.extract(data)


class TestEntryMoves:
    def test_bisect_moves_keep_weight_ties_in_dn_id_order(self):
        engine = engine_with()
        a, b, c = (engine.store(blob(i), "hot").dn_id for i in range(3))
        hot = engine.memory.find_cue_by_label("hot")
        order = engine.memory.search_order[hot]
        assert [e.dn_id for e in order] == [a, b, c]
        assert engine.retrieve("hot", feature(engine, blob(1))).dn_id == b
        assert [(e.dn_id, e.avg_weight) for e in order] == [
            (b, 21.0), (a, 1.0), (c, 1.0)]
        # every candidate fails and decays: only b changes, back to the
        # epsilon tie, which dn_id breaks
        foreign = feature(engine, blob(5, cls=1))
        engine.controls = OpControls(weaken_on_fail=True)
        engine.retrieve("hot", foreign)
        assert [(e.dn_id, e.avg_weight) for e in order] == [
            (a, 1.0), (b, 1.0), (c, 1.0)]
        # a new edge is inserted at its place among the ties
        d = engine.store(blob(3), "hot").dn_id
        assert [e.dn_id for e in order] == [a, b, c, d]
        # the order was moved in place, never rebuilt
        assert engine.memory.search_order[hot] is order
        assert maintained(engine.memory) == oracle_search_order(engine.memory)

    def test_direct_memory_edits_keep_orders_current(self):
        engine = engine_with()
        a = engine.store(blob(0), "hot").dn_id
        b = engine.store(blob(1), "hot").dn_id
        memory = engine.memory
        hot = engine.memory.find_cue_by_label("hot")
        cold = memory.add_cue_neuron(label="cold")
        orders = dict(engine.memory.search_order)
        assert orders[cold] == []
        # edits through Memory alone, with no rebuild between or after them
        memory.associate(cold, b)
        memory.associate(cold, a)
        memory.adjust_association(hot, b, -5.0)
        memory.adjust_association(cold, a, -30.0)
        memory.adjust_association(cold, a, 12.0, touch=False)
        memory.adjust_association(hot, a, 50.0)     # stays at the floor
        for cue, order in orders.items():
            assert engine.memory.search_order[cue] is order, cue
        assert [(e.dn_id, e.avg_weight) for e in orders[hot]] == [
            (b, 6.0), (a, 1.0)]
        assert [(e.dn_id, e.avg_weight) for e in orders[cold]] == [
            (a, 19.0), (b, 1.0)]
        assert maintained(engine.memory) == oracle_search_order(memory)
        out = engine.retrieve("cold", feature(engine, blob(0)))
        assert (out.dn_id, out.cost) == (a, 1)

    def test_retention_moves_only_the_entries_whose_edges_decayed(self):
        engine = engine_with(association_decay_rates=[5.0, 5.0],
                             retention_period=1000)
        a = engine.store(blob(0), "hot").dn_id
        engine.store(blob(4, cls=1), "warm")
        hot = engine.memory.find_cue_by_label("hot")
        engine.retrieve("hot", feature(engine, blob(0)))
        # one more op, touching only warm's edge, leaves hot's idle
        engine.retrieve("warm", feature(engine, blob(4, cls=1)))
        orders = dict(engine.memory.search_order)
        before = maintained(engine.memory)
        engine.controls = OpControls(weaken_on_fail=True)
        summary = engine.retention(n=1)
        # every other edge is fresh or at the epsilon floor
        assert summary.weakened_edges == [(hot, a, 16.0)]
        after = maintained(engine.memory)
        assert [cue for cue in before if after[cue] != before[cue]] == [hot]
        assert after[hot] == [(a, 16.0)]
        assert all(engine.memory.search_order[cue] is order
                   for cue, order in orders.items())
        assert after == oracle_search_order(engine.memory)
        engine.controls = OpControls()
        engine.retention(n=1)
        assert maintained(engine.memory) == after


class TestMatrixScan:
    def test_threshold_at_the_exact_cosine_matches_through_the_recheck(
            self, monkeypatch):
        engine = engine_with()
        a = engine.store(blob(0), "hot").dn_id
        probe = feature(engine, blob(1))
        exact = cosine_similarity(probe, raw_feature(engine.memory, a))
        calls = spy_on_cosine(monkeypatch)
        engine.search = SearchParams(match_thresh=exact)
        out = engine.retrieve("hot", probe)
        assert (out.kind, out.dn_id) == ("hit", a)
        assert calls, "a score at the threshold must be re-decided"
        engine.search = SearchParams(match_thresh=float(
            np.nextafter(exact, 2.0)))
        out = engine.retrieve("hot", probe)
        assert out.kind == "miss"
        engine.search = SearchParams(match_thresh=exact)
        out = engine.store(blob(1), "hot")
        assert (out.kind, out.dn_id) == ("merged", a)

    def test_clear_decisions_call_no_scalar_cosine(self, monkeypatch):
        engine = engine_with()
        for cluster in range(4):
            engine.store(blob(cluster), "hot")
        calls = spy_on_cosine(monkeypatch)
        out = engine.retrieve("hot", feature(engine, blob(3)))
        assert out.kind == "hit" and out.cost == 4
        assert calls == []

    def test_zero_feature_neuron_scores_zero(self, monkeypatch):
        engine = engine_with()
        z = engine.store(b"", "hot").dn_id
        assert not raw_feature(engine.memory, z).any()
        probe = feature(engine, blob(0))
        calls = spy_on_cosine(monkeypatch)
        for thresh, kind in ((-0.5, "hit"), (1e-6, "miss"), (0.0, "hit")):
            engine.search = SearchParams(match_thresh=thresh)
            out = engine.retrieve("hot", probe)
            assert out.kind == kind, thresh
        # only the score at the threshold itself was re-decided
        assert len(calls) == 1
        # a zero query scores 0.0 against every neuron as well
        out = engine.retrieve("hot", np.zeros(64))
        assert (out.kind, out.dn_id) == ("hit", z)

    def test_match_on_a_later_candidate_counts_the_earlier_ones(self):
        engine = engine_with()
        a = engine.store(blob(0), "hot").dn_id
        b = engine.store(blob(1), "hot").dn_id
        out = engine.retrieve("hot", feature(engine, blob(1)))
        assert (out.kind, out.dn_id, out.examined) == ("hit", b, (a, b))
        assert out.cost == 2
        # b now leads the order: a repeat is found first, and a retrieve for
        # a examines b on the way
        out = engine.retrieve("hot", feature(engine, blob(1)))
        assert (out.dn_id, out.examined) == (b, (b,))
        out = engine.retrieve("hot", feature(engine, blob(0)))
        assert (out.kind, out.dn_id, out.examined) == ("hit", a, (b, a))

    def test_weaken_on_fail_decays_every_examined_non_match_in_order(
            self, monkeypatch):
        engine = engine_with(eta=5.0)
        ids = [engine.store(blob(i), "hot").dn_id for i in range(3)]
        hot = engine.memory.find_cue_by_label("hot")
        for dn_id in ids:
            engine.memory.adjust_association(hot, dn_id, -9.0)
        engine.update_search_order()
        calls = spy_on_reactions(engine, monkeypatch)
        engine.controls = OpControls(weaken_on_fail=True)
        out = engine.retrieve("hot", feature(engine, blob(2)))
        assert out.examined == tuple(ids)
        assert calls == [(ids[0], 0), (ids[1], 0), (ids[2], 1)]
        assert [engine.memory.weights[hot, d] for d in ids] == [5.0, 5.0, 15.0]

    def test_failures_without_decay_get_no_reaction(self, monkeypatch):
        engine = engine_with()
        ids = [engine.store(blob(i), "hot").dn_id for i in range(3)]
        calls = spy_on_reactions(engine, monkeypatch)
        out = engine.retrieve("hot", feature(engine, blob(2)))
        assert out.cost == 3
        assert calls == [(ids[2], 1)]

    @pytest.mark.parametrize("limit", [1, 2, 3])
    def test_search_limit_bounds_cost(self, limit):
        engine = engine_with()
        for cluster in range(5):
            engine.store(blob(cluster), "hot")
        before = engine.total_search_iterations
        foreign = feature(engine, blob(5, cls=1))
        engine.controls = OpControls(search_limit=limit)
        out = engine.retrieve("hot", foreign)
        assert out.kind == "miss" and out.cost == limit
        out = engine.store(blob(7), "hot")
        assert out.cost <= limit
        assert engine.total_search_iterations - before == limit + out.cost

    @pytest.mark.parametrize("limit", [None, 1, 2, 3, 4, 7])
    def test_search_limit_bounds_what_is_copied(self, limit):
        """Each order is cut at what remains of the search limit before it
        is copied, for a known label and for an unknown one, which walks
        every locality's default cue in turn."""
        engine = engine_with()
        engine.search = SearchParams(match_thresh=1.0)     # distinct items
        engine.controls = OpControls(search_limit=limit)
        for i in range(8):
            engine.store(blob(i, item=i), "hot" if i < 4 else "cold")
        memory = engine.memory
        copied: list[int] = []

        class Recording(list):
            def __getitem__(self, index):
                if isinstance(index, slice):
                    copied.append(len(range(*index.indices(len(self)))))
                return super().__getitem__(index)

        full = {cue: list(order) for cue, order in memory.search_order.items()}
        memory.search_order = {cue: Recording(order)
                               for cue, order in full.items()}
        defaults = [loc.default_cue_id for loc in memory.localities]
        for cue_id, orders in [(memory.find_cue_by_label("hot"), ["hot"]),
                               (None, defaults)]:
            copied.clear()
            got = engine.get_search_order(cue_id)
            joined = [e for c in orders for e in full[
                memory.find_cue_by_label(c) if isinstance(c, str) else c]]
            assert got == joined[:limit] and type(got) is list
            assert sum(copied) == len(got)

    def test_query_of_the_wrong_dimension_is_rejected(self):
        engine = engine_with()
        engine.store(blob(0), "hot")
        with pytest.raises(ConfigurationError,
                           match=r"^fine_cue must be one vector of 64 numbers"):
            engine.retrieve("hot", np.ones(3))


def odd_vector(rng, dim: int, base: np.ndarray | None = None) -> np.ndarray:
    """A feature or query of any length: near ``base`` or random, scaled
    from tiny to huge, or zero, or holding a NaN."""
    kind = rng.integers(8)
    if kind == 0:
        return np.zeros(dim)
    v = rng.standard_normal(dim)
    if base is not None and kind <= 4:
        v = base + rng.choice([0.0, 1e-9, 1e-3, 0.3]) * v
    v = v * rng.choice([1.0, 1e-3, 7.5, 1e3, 1e-160, 1e160])
    if kind == 7:
        v[rng.integers(dim)] = np.nan
    return v


class TestMatcherAgainstTheModel:
    DIM = 6

    def odd_rows(self, rng):
        """An engine and the model over the same 40 odd rows; the rows'
        base vector and dn ids."""
        engine = engine_with(feature_dim=self.DIM)
        model = Model(engine.params)
        base = rng.standard_normal(self.DIM)
        dn_ids = []
        for _ in range(40):
            feature = odd_vector(rng, self.DIM, base)
            model.add_data_neuron(0, Payload.from_bytes(b"x"), feature)
            dn_ids.append(engine.memory.add_data_neuron(
                0, Payload.from_bytes(b"x"), feature))
        return engine, model, base, dn_ids

    def decisions(self, rng, engine, model, dn_ids, query):
        """For thresholds at, and 1e-12 either side of, a scalar score of
        ``query`` against a candidate (where the unit-row score may round
        either way), at either end and at random: set each on the engine
        and the model, and yield the model's match among ``dn_ids``, then
        the unit rows to score the query with: fresh, as a store's query,
        and through the memo, as a retrieve's fine cue."""
        exact = [cosine_similarity(query, raw_feature(engine.memory, dn))
                 for dn in (dn_ids if query is not None else [])]
        exact = [x for x in exact if not np.isnan(x)] or [0.0]
        at = float(rng.choice(exact))
        for thresh in (at, at - 1e-12, at + 1e-12, -1.0, 1.0,
                       float(rng.uniform(-1.0, 1.0))):
            engine.search = model.search = SearchParams(match_thresh=thresh)
            units = [None] if query is None else [unit_row(query), None]
            yield model.first_match(dn_ids, query), units

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_same_match_and_cost_as_the_scalar_scan(self, seed):
        rng = np.random.default_rng(seed)
        engine, model, base, dn_ids = self.odd_rows(rng)
        for _ in range(150):
            candidates = [SearchEntry(0, int(d), 1.0) for d in rng.choice(
                dn_ids, size=int(rng.integers(0, 15)), replace=False)]
            query = (odd_vector(rng, self.DIM, base) if rng.integers(0, 4)
                     else None)
            for expected, units in self.decisions(
                    rng, engine, model, [e.dn_id for e in candidates], query):
                for unit in units:
                    assert engine._first_match(
                        candidates, len(candidates), query, unit) == expected

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_a_cues_order_placed_by_its_cue_id(self, seed):
        """The same over a cue's real order, given with its cue id: each
        near row is placed by its edge's weight, among ties, up to a random
        end, both in the order and in a fresh copy of its prefix (as under
        failure decay); some rows have no edge from the cue."""
        rng = np.random.default_rng(seed)
        engine, model, base, dn_ids = self.odd_rows(rng)
        memory = engine.memory
        cue = memory.add_cue_neuron("hot")
        for dn in dn_ids:
            if rng.integers(0, 4):
                memory.associate(cue, dn)
        order = memory.search_order[cue]
        for _ in range(150):
            # weights move in steps of 5, so many tie
            memory.adjust_association(cue, rng.choice(order)[1],
                                      5.0 * int(rng.integers(-2, 3)))
            end = int(rng.integers(0, len(order) + 1))
            query = (odd_vector(rng, self.DIM, base) if rng.integers(0, 4)
                     else None)
            for expected, units in self.decisions(
                    rng, engine, model, [e[1] for e in order[:end]], query):
                for unit in units:
                    for candidates in (order, order[:end]):
                        assert engine._first_match(
                            candidates, end, query, unit, cue) == expected

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_rows_are_unit_length_and_zero_or_nan_where_the_norm_cannot_be(
            self):
        engine = engine_with(feature_dim=3)
        memory = engine.memory
        for feature in ([3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [1e-160, 0.0, 0.0],
                        [1e160, 1.0, 0.0], [np.nan, 1.0, 0.0]):
            memory.add_data_neuron(0, Payload.from_bytes(b"x"),
                                   np.array(feature))
        rows = engine.memory.features[:5]
        assert rows[0].tolist() == [0.6, 0.8, 0.0]
        assert rows[1].tolist() == [0.0, 0.0, 0.0]
        assert np.isnan(rows[2:]).all()


def columns(engine) -> list[bytes]:
    """The memory's state columns, bit for bit."""
    memory = engine.memory
    n = len(memory.row_of)
    return [getattr(memory, name)[:n].tobytes()
            for name in ("strength", "last_access", "quality", "keep")]


class TestByteTotals:
    def test_merge_refresh_updates_the_total(self):
        engine = engine_with()
        dn_id = engine.store(blob(0), "hot").dn_id
        engine.memory.adjust_strength(dn_id, 60.0)
        assert engine.memory.total_bytes() == brute_force_bytes(engine.memory)
        out = engine.store(blob(0), "hot")
        assert (out.kind, out.quality) == ("merged", 100.0)
        assert engine.memory.total_bytes() == 2048 == brute_force_bytes(
            engine.memory)


class TestAtScale:
    def test_thousand_item_replay_matches_the_model(self):
        """A thousand distinct items under a byte cap, with edge ageing, per
        op association thresholds and search limits, and most ops under a
        label the memory does not know, whose candidates join the default
        cues' prefixes above the threshold, in locality order, cut at the
        limit."""
        rng = np.random.default_rng(11)
        config = load_config(preset="wildlife-deer")
        spec = dataclasses.replace(config.workload, items_per_cluster=1,
                                   n_items=1000,
                                   payload_size_range=(128, 384))
        corpus = build_corpus(spec)
        items = corpus.items
        params = dataclasses.replace(
            config.hive, capacity_bytes=int(0.5 * corpus.total_bytes()),
            association_decay_rates=[1.0, 2.0])
        engine, model = MemoryEngine(params), Model(params)
        extract = engine.memory.extractor.extract
        # unknown-label ops that examined both localities, hits above a
        # threshold that cuts the epsilon-weight edges, and edges aged
        stored = spans = cut_hits = aged = i = 0
        while stored < len(items):
            i += 1
            # epsilon is 1 and eta 20: 1.0 and above keep only raised edges
            engine.search = model.search = SearchParams(
                assoc_thresh=float(rng.choice([0.5, 0.5, 1.0, 15.0])))
            engine.controls = model.controls = OpControls(
                search_limit=int(rng.choice([4, 30, 150])),
                weaken_on_fail=bool(rng.random() < 0.05))
            # most ops on the first 40 items, so some edges rise
            key = int(rng.integers(max(1, stored if rng.random() < 0.3
                                       else min(stored, 40))))
            label = (items[key].class_label if rng.random() < 0.4
                     else f"alias-{i}")
            unknown = model.find_cue_by_label(label) is None
            r = rng.random()
            if r < 0.55:
                out = run_both(engine, model, "store", items[stored].data,
                               label, item_id=items[stored].item_id)
                stored += 1
            elif r < 0.95:
                out = run_both(engine, model, "retrieve", label,
                               extract(items[key].data) if r < 0.9 else None)
            else:
                # ages the edges too, under failure decay
                engine.controls = model.controls = OpControls(
                    weaken_on_fail=bool(r < 0.975))
                summary = run_both(engine, model, "retention",
                                   n=int(rng.integers(1, 61)))
                aged += len(summary.weakened_edges)
                continue
            spans += unknown and len({locality_of(engine.memory, dn)
                                      for dn in out.examined}) == 2
            cut_hits += out.hit and engine.search.assoc_thresh >= 1.0
        assert spans > 200 and cut_hits > 30 and aged, (spans, cut_hits, aged)
        assert any(x.payload.quality < 100.0 for x in model.neurons.values())
        # elasticity and retention walk a locality's dn_ids as they stand
        for locality in engine.memory.localities:
            assert locality.dn_ids == [dn for dn, x in model.neurons.items()
                                       if x.locality == locality.id]


def odd_payload(size: int, kept: float, quality: float) -> Payload:
    """A payload whose blob is not a prefix of its original: the original
    reversed, cut to the share ``kept``, said to be at ``quality``."""
    original = blob(6, item=size, size=size)
    return Payload(original[::-1][:int(size * kept)], original, quality,
                   "odd")


def assert_rebuilt_only_when_lowered(memory, before: dict) -> None:
    """Each data neuron's payload is the one read last (dn id -> payload in
    ``before``, updated here) unless its stored quality fell since."""
    for dn in data_neurons(memory):
        stored = memory.payload(dn)
        if not stored.quality < before[dn].quality:
            assert stored is before[dn], dn
        before[dn] = stored


def lower_both(engine, model, dn_id: int, delta: float) -> None:
    for memory in (engine.memory, model):
        memory.adjust_strength(dn_id, delta)


class TestArrayPasses:
    """Retention and elasticity as array passes against the model's
    neuron-by-neuron walks, bit for bit."""

    @staticmethod
    def populated(phi: float):
        params = HiveParams(
            memory_decay_rates=[7.5, 13.25],
            association_decay_rates=[1.0, 2.0],
            locality_mapping=[{"labels": ["hot"]}, {}], phi=phi,
            elasticity_schedules=[[90.0, 40.0, max(phi, 1.0)]] * 2,
            retention_period=10**6)
        engine, model = MemoryEngine(params), Model(params)
        rng = np.random.default_rng(int(phi) + 15)
        # distinct items
        engine.search = model.search = SearchParams(match_thresh=1.0)
        strengths = [100.0, phi, phi, 50.0, 30.0, 80.0, 99.9, 100.0]
        strengths += [float(rng.uniform(phi, 100.0)) for _ in range(10)]
        ids = []
        for i, strength in enumerate(strengths):
            cue = ["hot", "cold"][i % 2]
            dn_id = run_both(engine, model, "store",
                             blob(i % 8, item=i, size=900 + 37 * i), cue).dn_id
            lower_both(engine, model, dn_id, 100.0 - strength)
            ids.append(dn_id)
        # one blob as long as its quality says, one shorter
        for size, kept, quality in ((1000, 0.7, 70.0), (1100, 0.3, 90.0)):
            ids.append(run_both(engine, model, "store",
                                odd_payload(size, kept, quality), "hot").dn_id)
        # merge refresh: a compressed neuron gets its full copy back
        fresh = blob(0, item=99, size=1500, cls=3)
        refreshed = run_both(engine, model, "store", fresh, "cold").dn_id
        lower_both(engine, model, refreshed, 55.0)
        engine.search = model.search = SearchParams()
        out = run_both(engine, model, "store", fresh, "cold")
        assert (out.kind, out.dn_id, out.quality) == ("merged", refreshed,
                                                      100.0)
        ids.append(refreshed)
        # at the floor, yet stored at full quality
        data = blob(0, item=98, size=1200, cls=4)
        engine.search = model.search = SearchParams(match_thresh=1.0)
        floored = run_both(engine, model, "store", data, "hot").dn_id
        lower_both(engine, model, floored, 200.0)
        for memory in (engine.memory, model):
            memory.set_payload(floored, Payload.from_bytes(data))
        ids.append(floored)
        engine.search = model.search = SearchParams()
        # last accesses spread over ops 0..12, so short windows leave some
        # neurons active
        for dn_id in ids:
            op = int(rng.integers(0, 13))
            engine.memory.last_access[engine.memory.row_of[dn_id]] = op
            model.neurons[dn_id].last_access = op
        engine.memory.op_counter = model.op_counter = 12
        assert_same_state(engine, model)
        return engine, model

    @pytest.mark.parametrize("phi", [0.0, 1.0, 30.0])
    def test_bit_identical_to_the_model(self, phi):
        engine, model = self.populated(phi)
        memory = engine.memory
        before = {dn: memory.payload(dn) for dn in data_neurons(memory)}
        steps = [("retain", 3, False), ("cap", 100.0), ("retain", 1, True),
                 ("cap", 150.0), ("cap", 80.0), ("retain", 8, True),
                 ("cap", 50.0), ("cap", 50.0), ("retain", 5, False),
                 ("cap", 30.0), ("cap", 29.5), ("retain", 13, True),
                 ("cap", 10.0), ("retain", 1, False), ("cap", 1.0),
                 ("cap", 0.0), ("retain", 1, True)]
        steps += [("cap", engine.params.elasticity_schedules[i][it], i)
                  for i, it in ((1, 0), (0, 1), (1, 2))]
        compressed = 0
        for step in steps:
            if step[0] == "retain":
                engine.controls = model.controls = OpControls(
                    weaken_on_fail=step[2])
                out = run_both(engine, model, "retention", n=step[1])
                compressed += len(out.compressed)
            else:
                for i in step[2:] or (0, 1):
                    assert (memory.lower_to_floors(
                        [(memory.localities[i], step[1])], math.inf)
                        == model.cap(i, step[1])), step
                assert_same_state(engine, model, step)
            assert_rebuilt_only_when_lowered(memory, before)
        assert compressed
        assert memory.total_bytes() < sum(
            memory.payload(dn).original_size for dn in data_neurons(memory))

    def test_retention_keeps_id_order_and_counts_only_moved_strengths(self):
        new, _ = self.populated(1.0)
        memory = new.memory
        floored = data_neurons(memory)[-1]
        size = size_of(memory, floored)
        total = memory.total_bytes()
        memory.op_counter += 100        # every neuron idle
        summary = new.retention(n=1)
        ids = [dn_id for dn_id, _ in summary.compressed]
        by_locality = [[d for d in ids if locality_of(memory, d)
                        == loc.id] for loc in new.memory.localities]
        assert ids == by_locality[0] + by_locality[1]
        assert all(part == sorted(part) for part in by_locality)
        # the neuron at the floor lost bytes, which bytes_freed leaves out
        assert floored not in ids
        lost = size - size_of(memory, floored)
        assert lost > 0
        assert total - memory.total_bytes() == summary.bytes_freed + lost


class TestCapacityWalk:
    """``ensure_capacity`` as one walk against the model's step-by-step
    elasticity, which reads the free bytes after each step."""

    # schedules of unequal length with floors where c - (c - f) != f for
    # some strength c, each ending at or above max(phi, 1); the first two
    # localities tie on decay rate, so the later one is squeezed first
    CASES = {
        0.0: [[90.5, 66.6, 33.3, 1.1], [70.7, 1.1], [50.05, 33.3, 12.3, 1.1]],
        1.0: [[90.5, 66.6, 33.3, 1.1], [70.7, 1.1], [50.05, 33.3, 12.3, 1.1]],
        30.0: [[90.5, 66.6, 31.7], [70.7, 30.0], [50.05, 41.1, 33.3]],
    }

    @staticmethod
    def populated(phi: float):
        schedules = TestCapacityWalk.CASES[phi]
        labels = [["a"], ["b"], []]
        params = HiveParams(
            memory_decay_rates=[2.0, 2.0, 0.5],
            association_decay_rates=[0.0] * 3,
            locality_mapping=[{"labels": ls} if ls else {} for ls in labels],
            elasticity_schedules=schedules, phi=phi, retention_period=10**6)
        engine, model = MemoryEngine(params), Model(params)
        rng = np.random.default_rng(int(phi) + 23)
        # distinct items
        engine.search = model.search = SearchParams(match_thresh=1.0)
        ids = []
        for i in range(30):
            cue = "abc"[i % 3]
            size = int(rng.integers(300, 1500))
            dn_id = run_both(engine, model, "store",
                             blob(i % 8, item=i, size=size), cue).dn_id
            # b's strongest row sits just above b's first floor, 70.7
            strength = (71.0 if i == 1 else
                        float(rng.uniform(phi, 71.0 if cue == "b" else 100.0)))
            lower_both(engine, model, dn_id, 100.0 - strength)
            ids.append(dn_id)
        ids.append(run_both(engine, model, "store",
                            odd_payload(1000, 0.4, 90.0), "a").dn_id)
        # strength back at 100 over a stored quality that stays lower; each
        # of these rows was stored under the label "a"
        a = model.find_cue_by_label("a")
        for dn_id in ids[0:30:6]:
            for memory in (engine.memory, model):
                memory.reward(a, dn_id)
        assert_same_state(engine, model)
        return engine, model

    @pytest.mark.parametrize("phi", [0.0, 1.0, 30.0])
    def test_bit_identical_to_the_model(self, phi):
        engine, model = self.populated(phi)
        total = engine.memory.total_bytes()
        # the bytes freed after each step, walking every step
        walk = copy.deepcopy(model)
        after = list(itertools.accumulate(walk.cap(*s) for s in walk.steps()))
        assert walk.total_bytes() == total - after[-1]
        schedules = self.CASES[phi]
        assert len(after) == sum(map(len, schedules)) + 3 * (phi == 0.0)
        floors = {max(phi, f) for s in schedules for f in s} | {phi}
        start = engine.memory.strength[:31].tolist()
        off_floor = False
        # requests that fit exactly after a step, one byte short of it, and
        # beyond the last step
        needs = sorted(set(after) | {n + 1 for n in after})
        stopped = set()
        for need in needs:
            # copied together, the two share one params object
            pair = copy.deepcopy((engine, model))
            pair[1].params.capacity_bytes = total
            memory = pair[0].memory
            before = {dn: memory.payload(dn) for dn in data_neurons(memory)}
            if run_both(*pair, "ensure_capacity", need) is None:
                stopped.add(total - memory.total_bytes())
                assert memory.total_bytes() <= total - need
            assert_rebuilt_only_when_lowered(memory, before)
            # a lowered strength that is not its floor: c - (c - f) != f
            off_floor |= any(s != s0 and s not in floors for s, s0 in zip(
                memory.strength[:31].tolist(), start))
        # every step was a stopping point, the terminal pass's too
        assert stopped == set(after) - {0}
        assert off_floor


class TestStateColumns:
    def test_payload_is_built_once_per_change(self):
        engine = engine_with()
        memory = engine.memory
        data = blob(0)
        dn = engine.store(data, "hot").dn_id
        stored = memory.payload(dn)
        assert memory.payload(dn) is stored and stored.blob == data
        memory.adjust_strength(dn, 40.0)
        built = memory.payload(dn)
        assert built is not stored and memory.payload(dn) is built
        assert built == Payload(data[:1229], data, 60.0, None)
        out = engine.retrieve("hot", feature(engine, data))
        assert out.payload is built and out.quality == 60.0
        # two lowerings between reads: rebuilt once, from the last read
        memory.adjust_strength(dn, 50.0)
        memory.adjust_strength(dn, 20.0)
        lowered = memory.payload(dn)
        assert lowered == Payload(data[:615], data, 30.0, None)
        assert memory.payload(dn) is lowered


class TestReinforcement:
    """A hit restores its neuron's strength to exactly 100, marks it
    accessed at the current op, and leaves its stored quality, size and the
    payload read."""

    @pytest.mark.parametrize("phi", [0.0, 1.0, 30.0])
    def test_a_hit_on_a_lowered_neuron(self, phi):
        engine = engine_with(phi=phi, memory_decay_rates=[30.0, 30.0],
                             elasticity_schedules=[[80.0, 45.0, 30.0]] * 2)
        memory = engine.memory
        dn_ids = [engine.store(blob(c), "hot").dn_id for c in range(4)]
        locality = memory.localities[0]
        # all four to max(phi, 45)
        engine.memory.lower_to_floors([(locality, 45.0)], math.inf)
        engine.retention(n=1)                   # each idle one down 30
        memory.adjust_strength(dn_ids[1], 33.3)
        engine.retention(n=1)
        memory.adjust_strength(dn_ids[2], 0.7)
        strengths = [strength_of(memory, d) for d in dn_ids]
        assert len(set(strengths)) > 1 and max(strengths) < 100.0
        for dn_id in dn_ids:
            row = memory.row_of[dn_id]
            built = memory.payload(dn_id)       # read before the hit
            quality, keep = memory.quality[row], memory.keep[row]
            out = engine.retrieve("hot", raw_feature(memory, dn_id))
            assert out.dn_id == dn_id and out.payload is built
            assert memory.strength[row] == 100.0
            assert memory.quality[row] == quality and memory.keep[row] == keep
            assert memory.payload(dn_id) is built
            assert memory.last_access[row] == memory.op_counter

    def test_reward_keeps_the_lowered_payload(self):
        engine = engine_with(phi=30.0,
                             elasticity_schedules=[[80.0, 30.0]] * 2)
        memory = engine.memory
        data = blob(0)
        dn = engine.store(data, "hot").dn_id
        memory.adjust_strength(dn, 55.5)
        row = memory.row_of[dn]
        quality, keep = memory.quality[row], memory.keep[row]
        assert quality == 44.5 and keep == math.ceil(len(data) * 44.5 / 100.0)
        memory.op_counter += 5
        cue = memory.find_cue_by_label("hot")
        lowered = memory.reward(cue, dn)
        assert memory.strength[row] == 100.0
        assert memory.quality[row] == quality and memory.keep[row] == keep
        assert memory.last_access[row] == memory.op_counter
        assert lowered == Payload(data[:keep], data, 44.5, None)
        assert memory.payload(dn) is lowered
        with pytest.raises(KeyError, match=f"neuron {cue} is not a data"):
            memory.reward(cue, cue)

    @staticmethod
    def seeded(seed: int) -> MemoryEngine:
        """A memory of three cues and twelve data neurons in two
        localities, some rows lowered with their payload read before or
        after, and weights near-tied or at epsilon."""
        rng = np.random.default_rng(seed)
        engine = engine_with(phi=float(rng.choice([0.0, 1.0, 30.0])),
                             eta=float(rng.choice([20.0, 0.1, 0.7])),
                             epsilon=float(rng.choice([1.0, 0.3])),
                             elasticity_schedules=[[80.0, 30.0]] * 2)
        memory = engine.memory
        cues = [memory.add_cue_neuron(label) for label in "abc"]
        for i in range(12):
            data = blob(i % 5, item=i, size=int(rng.integers(200, 900)))
            dn = memory.add_data_neuron(int(rng.integers(2)),
                                        Payload.from_bytes(data),
                                        memory.extractor.extract(data))
            for cue in cues:
                if rng.random() < 0.7:
                    memory.associate(cue, dn)
            if rng.random() < 0.3:
                memory.payload(dn)
            if rng.random() < 0.6:
                memory.adjust_strength(dn, float(rng.uniform(0.0, 120.0)))
        # a third of the edges stay at epsilon; the rest are raised by 0.1
        # and then 0.8, or by 0.9, which differ in the last bits
        for i, key in enumerate(sorted(memory.weights)):
            for delta in ([], [-0.1, -0.8], [-0.9])[i % 3]:
                memory.adjust_association(*key, delta)
        return engine

    @pytest.mark.parametrize("seed", range(6))
    def test_reward_is_the_step_by_step_reaction(self, seed):
        """``reward`` leaves the state ``adjust_association(cue, dn, -eta)``
        and the former strength and access update leave, and returns the
        payload ``payload`` then reads, rebuilt only for a lowered row."""
        engine = self.seeded(seed)
        ref = copy.deepcopy(engine)
        memory, old = engine.memory, ref.memory
        rng = np.random.default_rng(seed + 100)
        keys = sorted(memory.weights)
        assert any(w == memory.params.epsilon for w in memory.weights.values())
        for _ in range(80):
            cue, dn = keys[int(rng.integers(len(keys)))]
            step = int(rng.integers(3))
            memory.op_counter += step
            old.op_counter += step
            row = memory.row_of[dn]
            before = memory.payloads[row]
            lowered = before.quality != memory.quality[row]
            got = memory.reward(cue, dn)
            old.adjust_association(cue, dn, -old.params.eta)
            old.strength[row] = 100.0
            old.last_access[row] = old.op_counter
            want = old.payload(dn)
            assert {k: w.hex() for k, w in memory.weights.items()} == \
                {k: w.hex() for k, w in old.weights.items()}
            assert memory.search_order == old.search_order
            assert all(type(e) is SearchEntry
                       for order in memory.search_order.values() for e in order)
            assert memory.edge_access == old.edge_access
            assert columns(engine) == columns(ref)
            assert got is memory.payload(dn) and got == want
            assert (got is before) == (not lowered)
        assert maintained(memory) == oracle_search_order(memory)

    def test_reward_refuses_what_adjust_association_refuses(self):
        engine = self.seeded(0)
        memory = engine.memory
        a, b = (memory.find_cue_by_label(label) for label in "ab")
        dns = data_neurons(memory)
        lone = next(dn for dn in dns if (a, dn) not in memory.weights)
        before = copy.deepcopy(engine)
        for cue, dn in [(a, lone), (dns[0], dns[1]), (a, b), (a, 99)]:
            with pytest.raises(KeyError) as want:
                memory.adjust_association(cue, dn, -memory.params.eta)
            with pytest.raises(KeyError) as got:
                memory.reward(cue, dn)
            assert str(got.value) == str(want.value)
        assert columns(engine) == columns(before)
        assert memory.weights == before.memory.weights

    @pytest.mark.parametrize("quality, extra, reason", [
        (100.5, b"", "quality 100.5 is outside"),
        (150.0, b"", "quality 150.0 is outside"),
        (-3.0, b"", r"quality -3.0 is outside \[0, 100\]"),
        (math.nan, b"", "quality nan is outside"),
        (100.0, b"x", "blob is longer than its original"),
    ])
    def test_a_payload_no_memory_stores_is_refused(self, quality, extra,
                                                   reason):
        """A quality outside [0, 100] (a strength of 100 stores any quality
        in range, so a hit's reaction never has a quality to lower) and a
        stored size above the original (which a snapshot refuses) are
        refused through the engine and through the memory's own methods,
        before anything changes."""
        engine = engine_with()
        memory = engine.memory
        data = blob(0)
        payload = Payload(data + extra, data, quality)
        refused = pytest.raises(ConfigurationError, match=f"^payload {reason}")
        with refused:
            engine.store(payload, "hot")
        with refused:
            engine.bootstrap_store(payload, "hot")
        with refused:
            memory.add_data_neuron(0, payload, memory.extractor.extract(data))
        assert memory.op_counter == 0 and memory.cues == {}
        assert memory.row_of == {} and memory.payloads == []
        assert memory.total_bytes() == 0 and memory.localities[0].dn_ids == []
        dn = engine.store(data, "hot").dn_id
        memory.adjust_strength(dn, 50.0)
        snapshot = memory.export_graph()
        with refused:
            memory.set_payload(dn, payload)
        assert memory.export_graph() == snapshot

    def test_a_quality_above_the_strength_is_stored_and_exported(self):
        engine = engine_with()
        dn = engine.store(blob(0), "hot").dn_id
        engine.memory.adjust_strength(dn, 50.0)
        engine.memory.set_payload(dn, Payload(blob(0)[:900], blob(0), 80.0))
        doc = parse_snapshot(engine.memory.export_graph())
        assert (doc.neurons[dn]["strength"], doc.neurons[dn]["quality"]) == (
            50.0, 80.0)


class ReadCountingDict(dict):
    """A dict that records the key of every read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads.append(key)
        return super().__contains__(key)


class TestReactionEdgeReads:
    @pytest.mark.parametrize("flag, decay", [(1, False), (0, True), (0, False)])
    def test_a_reaction_reads_its_edge_once(self, monkeypatch, flag, decay):
        engine = engine_with()
        dn = engine.store(blob(0), "hot").dn_id
        hot = engine.memory.find_cue_by_label("hot")
        # above the epsilon floor, so a weakening moves the weight too
        engine.memory.adjust_association(hot, dn, -30.0)
        engine.update_search_order()
        weights = ReadCountingDict(engine.memory.weights)
        monkeypatch.setattr(engine.memory, "weights", weights)
        engine.controls = OpControls(weaken_on_fail=decay)
        engine.reaction(dn, hot, flag=flag)
        # the order entry moves with the weight the read returned
        assert weights.reads == [(hot, dn)]
        assert maintained(engine.memory) == oracle_search_order(engine.memory)

    def test_a_hit_reads_its_data_neuron_once(self, monkeypatch):
        engine = engine_with()
        dn = engine.store(blob(0), "hot").dn_id
        hot = engine.memory.find_cue_by_label("hot")
        rows = ReadCountingDict(engine.memory.row_of)
        cues = ReadCountingDict(engine.memory.cues)
        monkeypatch.setattr(engine.memory, "row_of", rows)
        monkeypatch.setattr(engine.memory, "cues", cues)
        engine.reaction(dn, hot, flag=1)
        assert rows.reads == [dn] and cues.reads == []


class TestLabelLookups:
    """An op resolves its label in the cue bank once and carries the id."""

    @staticmethod
    def spy(monkeypatch, engine) -> list:
        looked = []
        find = engine.memory.find_cue_by_label

        def counting(label):
            looked.append(label)
            return find(label)

        monkeypatch.setattr(engine.memory, "find_cue_by_label", counting)
        return looked

    def test_a_known_label_hit_looks_it_up_once(self, monkeypatch):
        engine = engine_with()
        engine.store(blob(0), "hot")
        looked = self.spy(monkeypatch, engine)
        out = engine.retrieve("hot", engine.memory.extractor.extract(blob(0)))
        assert out.kind == "hit" and looked == ["hot"]

    def test_a_known_label_merge_looks_it_up_once(self, monkeypatch):
        engine = engine_with()
        engine.store(blob(0, 0), "hot")
        looked = self.spy(monkeypatch, engine)
        assert engine.store(blob(0, 1), "hot").kind == "merged"
        assert looked == ["hot"]

    def test_a_hit_under_an_unknown_label_links_one_new_cue(self,
                                                            monkeypatch):
        # two localities, so the unknown label walks both default cues
        engine = engine_with()
        engine.store(blob(0), "hot")             # dn 0, default 1, hot 2
        engine.store(blob(1, cls=1), "cold")     # dn 3, default 4, cold 5
        before = dict(engine.memory.weights)
        looked = self.spy(monkeypatch, engine)
        out = engine.retrieve("alias", engine.memory.extractor.extract(
            blob(1, cls=1)))
        assert looked == ["alias"]
        assert (out.kind, out.dn_id, out.examined) == ("hit", 3, (0, 3))
        assert engine.memory.find_cue_by_label("alias") == 6
        after = dict(engine.memory.weights)
        assert after.pop((6, 3)) == 1.0         # epsilon
        assert after.pop((4, 3)) == before.pop((4, 3)) + 20.0   # eta
        assert after == before
        assert maintained(engine.memory) == oracle_search_order(engine.memory)


class TestFuzzAtScale:
    def test_random_ops_match_the_model(self):
        rng = np.random.default_rng(6)
        config = load_config(preset="wildlife-deer")
        spec = dataclasses.replace(config.workload, items_per_cluster=1,
                                   n_items=560,
                                   payload_size_range=(128, 512))
        corpus = build_corpus(spec)
        items = corpus.items
        params = dataclasses.replace(
            config.hive, capacity_bytes=int(0.3 * corpus.total_bytes()),
            retention_period=37, association_decay_rates=[1.0, 2.0])
        engine = MemoryEngine(params, search=config.search,
                              controls=config.controls)
        model = Model(params, config.search, config.controls)
        features = [engine.memory.extractor.extract(item.data)
                    for item in items]
        stored: list[int] = []
        dn_of: dict[int, int] = {}     # item index -> its data neuron
        kinds = {"merged": 0, "refresh": 0, "lower copy": 0, "hit": 0,
                 "miss": 0, "retention": 0, "compressed": 0}
        i = 0
        while len(stored) < len(items) or i < 1500:
            i += 1
            controls = OpControls(weaken_on_fail=bool(rng.random() < 0.3))
            r = rng.random()
            if len(stored) < len(items) and (len(stored) < 50 or r < 0.4):
                key = len(stored)
                stored.append(key)
                op = ("store", key)
            elif r < 0.65:
                op = ("retrieve", int(rng.choice(stored)))
            elif r < 0.8:
                op = ("store", int(rng.choice(stored)))
            elif r < 0.9:
                op = ("retention", int(rng.integers(1, 61)),
                      bool(rng.random() < 0.5))
            else:
                # a fine cue no stored item matches
                op = ("retrieve", None)
            if op[0] == "retention":
                controls = OpControls(weaken_on_fail=op[2])
            engine.controls = model.controls = controls
            if op[0] == "store":
                item = items[op[1]]
                dn_id = dn_of.get(op[1])
                compressed = (dn_id is not None and engine.memory.payload(
                    dn_id).quality < 100.0)
                # some copies of a stored item come said to be at quality 60
                lower = dn_id is not None and rng.random() < 0.3
                data = (Payload(item.data, item.data, 60.0, item.item_id)
                        if lower else item.data)
                out = run_both(engine, model, "store", data,
                               item.class_label, item_id=item.item_id)
                if out.kind == "new_neuron":
                    dn_of[op[1]] = out.dn_id
                else:
                    kinds["merged"] += 1
                    kinds["refresh"] += compressed and out.dn_id == dn_id
                    kinds["lower copy"] += lower and out.quality > 60.0
            elif op[0] == "retrieve":
                if op[1] is None:
                    fine, cue = np.ones(64), "alias"
                else:
                    fine, cue = features[op[1]], items[op[1]].class_label
                kinds[run_both(engine, model, "retrieve", cue, fine).kind] += 1
            else:
                out = run_both(engine, model, "retention", n=op[1])
                kinds["retention"] += 1
                kinds["compressed"] += len(out.compressed)
        assert len(data_neurons(engine.memory)) >= 500
        assert all(kinds.values()), kinds
