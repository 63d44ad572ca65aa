"""The per-operation hot path: entry moves, matrix-scored scan, byte totals,
array passes.

Search orders are kept current by moving only the entries whose edge
weights changed, each query is scored against unit-length feature rows in
one product with the scalar cosine as the judge near the threshold, stored
bytes are a running total, retention updates a locality's rows of the memory
columns in one array pass, and elasticity lowers the rows above each floor
in one walk per request.  Each is checked against its brute-force,
per-neuron or step-by-step counterpart.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np
import pytest

from neuralstore import engine as engine_module
from neuralstore.codec import Payload, TruncationCodec, cosine_similarity
from neuralstore.config import load_config
from neuralstore.core import (
    ConfigurationError,
    HiveParams,
    SearchEntry,
    clamp_strength,
)
from neuralstore.engine import (
    MemoryEngine,
    OpControls,
    RetentionSummary,
    SearchParams,
    StorageFullError,
    oracle_search_order,
)
from neuralstore.workload import (
    NsReplayAdapter,
    build_corpus,
    generate_trace,
    replay,
)
from tests.helpers import (
    data_neurons,
    locality_of,
    raw_feature,
    size_of,
    strength_of,
)
from tests.test_engine import blob, engine_with, maintained
from tests.test_order_upkeep import FullRebuildEngine


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

    def test_edge_changed_twice_moves_from_the_weight_the_order_holds(self):
        engine = engine_with()
        engine.store(blob(0), "hot")
        b = engine.store(blob(1), "hot").dn_id
        hot = engine.memory.find_cue_by_label("hot")
        order = engine.memory.search_order[hot]
        probe = feature(engine, blob(1))
        engine.retrieve("hot", probe)
        engine.retrieve("hot", probe)
        assert engine.memory.weights[hot, b] == 41.0
        assert engine.memory.search_order[hot] is order
        assert order[0].dn_id == b and order[0].avg_weight == 41.0
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

    def test_query_of_the_wrong_dimension_is_rejected(self):
        engine = engine_with()
        engine.store(blob(0), "hot")
        with pytest.raises(ConfigurationError,
                           match=r"^fine_cue must be one vector of 64 numbers"):
            engine.retrieve("hot", np.ones(3))


def scalar_first_match(memory, candidates, queries, thresh):
    """The candidate-by-candidate scan: index of the first candidate whose
    feature reaches ``thresh`` against any query."""
    if not queries:
        return 0 if candidates else None
    for i, entry in enumerate(candidates):
        feature = raw_feature(memory, entry.dn_id)
        if any(cosine_similarity(q, feature) >= thresh for q in queries):
            return i
    return None


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


class TestMatcherAgainstScalarScan:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_same_match_and_cost_as_the_scalar_scan(self, seed):
        rng = np.random.default_rng(seed)
        dim = 6
        engine = engine_with(feature_dim=dim)
        memory = engine.memory
        base = rng.standard_normal(dim)
        dn_ids = [memory.add_data_neuron(0, Payload.from_bytes(b"x"),
                                         odd_vector(rng, dim, base))
                  for _ in range(40)]
        for _ in range(150):
            candidates = [SearchEntry(0, int(d), 1.0) for d in rng.choice(
                dn_ids, size=int(rng.integers(0, 15)), replace=False)]
            query = odd_vector(rng, dim, base) if rng.integers(0, 4) else None
            queries = [] if query is None else [query]
            # thresholds at, and 1e-12 either side of, a scalar score, where
            # the unit-row score may round either way
            exact = [cosine_similarity(q, raw_feature(memory, e.dn_id))
                     for q in queries for e in candidates]
            exact = [x for x in exact if not np.isnan(x)] or [0.0]
            at = float(rng.choice(exact))
            for thresh in (at, at - 1e-12, at + 1e-12, -1.0, 1.0,
                           float(rng.uniform(-1.0, 1.0))):
                expected = scalar_first_match(memory, candidates, queries,
                                              thresh)
                engine.search = SearchParams(match_thresh=thresh)
                cost = len(candidates) if expected is None else expected + 1
                # scored fresh, as a store's query, and through the memo,
                # as a retrieve's fine cue
                for memo in (False, True):
                    match, examined = engine._scan(candidates, query, memo)
                    assert match == (None if expected is None
                                     else candidates[expected])
                    assert examined == tuple(e.dn_id
                                             for e in candidates[:cost])

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


def reference_cap(engine, locality, ceiling: float) -> int:
    """The elasticity walk over every neuron of the locality."""
    params, memory = engine.params, engine.memory
    freed = 0
    for dn_id in locality.dn_ids:
        s = strength_of(memory, dn_id)
        target = max(params.phi, min(s, ceiling))
        if target < s:
            before = size_of(memory, dn_id)
            memory.adjust_strength(dn_id, s - target)
            freed += before - size_of(memory, dn_id)
    return freed


def reference_retention(engine, window: int) -> RetentionSummary:
    """The retention pass walking each idle data neuron through the scalar
    ``adjust_strength``."""
    summary = RetentionSummary()
    memory = engine.memory
    counter = memory.op_counter
    if engine.controls.weaken_on_fail:
        for (cue_id, dn_id), old in sorted(memory.weights.items()):
            if counter - memory.edge_access[cue_id, dn_id] < window:
                continue
            locality = locality_of(memory, dn_id)
            rate = engine.memory.locality(locality).association_decay_rate
            if rate <= 0:
                continue
            new = memory.adjust_association(cue_id, dn_id, rate, touch=False)
            if new != old:
                summary.weakened_edges.append((cue_id, dn_id, new))
    for locality in engine.memory.localities:
        rate = locality.memory_decay_rate
        for dn_id in locality.dn_ids:
            last_access = memory.last_access.item(memory.row_of[dn_id])
            if counter - last_access < window or rate <= 0:
                continue
            old_strength = strength_of(memory, dn_id)
            old_size = size_of(memory, dn_id)
            new = memory.adjust_strength(dn_id, rate)
            if new != old_strength:
                summary.compressed.append((dn_id, new))
                summary.bytes_freed += old_size - size_of(memory, dn_id)
    return summary


def reference_ensure_capacity(engine, bytes_needed: int,
                              cap_step=reference_cap) -> None:
    """Escalating elasticity a step at a time, each step one
    ``cap_step(engine, locality, ceiling)`` call, reading the free bytes
    after each: iteration by iteration, localities by descending memory
    decay rate (the later one first on ties), each while its schedule
    lasts, then with phi = 0 a terminal pass at ceiling 0."""
    params = engine.params
    cap = params.capacity_bytes
    if cap is None:
        return

    def free() -> int:
        return cap - engine.memory.total_bytes()

    if free() >= bytes_needed:
        return
    order = sorted(engine.memory.localities,
                   key=lambda loc: (-loc.memory_decay_rate, -loc.id))
    schedules = params.elasticity_schedules
    for iteration in range(max(map(len, schedules))):
        for locality in order:
            schedule = schedules[locality.id]
            if iteration >= len(schedule):
                continue
            cap_step(engine, locality, schedule[iteration])
            if free() >= bytes_needed:
                return
    if params.phi == 0.0:
        for locality in order:
            cap_step(engine, locality, 0.0)
            if free() >= bytes_needed:
                return
    raise StorageFullError(
        f"hive 0: need {bytes_needed} bytes, "
        f"only {free()} free at maximum elasticity")


class ScalarReferenceEngine(MemoryEngine):
    """Reference: retention and elasticity change one neuron at a time
    through the scalar ``Memory.adjust_strength``, and capacity is made a
    step at a time."""

    def _retention_pass(self, window):
        return reference_retention(self, window)

    def ensure_capacity(self, bytes_needed):
        reference_ensure_capacity(self, bytes_needed)


def neuron_states(memory) -> list[tuple]:
    return [(dn, locality_of(memory, dn), strength_of(memory, dn),
             memory.last_access.item(memory.row_of[dn]), size_of(memory, dn),
             memory.payload(dn)) for dn in data_neurons(memory)]


def columns(engine) -> list[bytes]:
    """The memory's state columns, bit for bit."""
    memory = engine.memory
    n = len(memory.row_of)
    return [getattr(memory, name)[:n].tobytes()
            for name in ("strength", "last_access", "quality", "keep")]


class TestElasticityFloor:
    @pytest.mark.parametrize("phi", [0.0, 1.0, 30.0])
    def test_same_strengths_sizes_and_bytes_freed_as_the_full_walk(self, phi):
        rng = np.random.default_rng(int(phi) + 7)
        engines = [engine_with(phi=phi,
                               elasticity_schedules=[[90.0, max(phi, 1.0)]] * 2)
                   for _ in range(2)]
        strengths = [100.0, phi, phi, 50.0, 30.0, 80.0, 99.9, 100.0]
        strengths += [float(rng.uniform(phi, 100.0)) for _ in range(12)]
        for engine in engines:
            engine.search = SearchParams(match_thresh=1.0)
            for i, strength in enumerate(strengths):
                dn_id = engine.store(blob(i % 8, item=i, size=1000 + 37 * i),
                                     "hot").dn_id
                engine.memory.adjust_strength(dn_id, 100.0 - strength)
        new, old = engines
        locality = [engine.memory.localities[0] for engine in engines]
        assert len(locality[0].dn_ids) == len(strengths)
        for ceiling in (100.0, 150.0, 80.0, 50.0, 50.0, 30.0, 29.5, 10.0,
                        1.0, 0.0):
            assert (new.memory.lower_to_floors([(locality[0], ceiling)],
                                               math.inf)
                    == reference_cap(old, locality[1], ceiling)), ceiling
            assert ([(strength_of(new.memory, dn), size_of(new.memory, dn),
                      new.memory.payload(dn).quality)
                     for dn in data_neurons(new.memory)]
                    == [(strength_of(old.memory, dn), size_of(old.memory, dn),
                         old.memory.payload(dn).quality)
                        for dn in data_neurons(old.memory)]), ceiling
            assert new.memory.total_bytes() == old.memory.total_bytes()
        assert min(strength_of(new.memory, dn)
                   for dn in data_neurons(new.memory)) == phi


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
        assert any(memory.payload(dn).quality < 100.0
                   for dn in data_neurons(memory))

    def test_merge_refresh_updates_the_total(self):
        engine = engine_with()
        dn_id = engine.store(blob(0), "hot").dn_id
        engine.memory.adjust_strength(dn_id, 60.0)
        assert engine.memory.total_bytes() == brute_force_bytes(engine.memory)
        out = engine.store(blob(0), "hot")
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
        assert any(memory.payload(dn).quality < 100.0
                   for dn in data_neurons(memory))
        for locality in engine.memory.localities:
            assert locality.dn_ids, locality.id
            assert locality.dn_ids == [dn for dn in data_neurons(memory)
                                       if locality_of(memory, dn) == locality.id]


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
                assert maintained(memory) == oracle_search_order(memory), \
                    f"seq {rec.seq}"
                assert memory.total_bytes() == brute_force_bytes(memory)
        assert len(data_neurons(new.engine.memory)) == 1000


CODEC = TruncationCodec()


def odd_payload(size: int, kept: float, quality: float) -> Payload:
    """A payload whose blob is not a prefix of its original: the original
    reversed, cut to the share ``kept``, said to be at ``quality``."""
    original = blob(6, item=size, size=size)
    return Payload(original[::-1][:int(size * kept)], original, quality,
                   "odd")


def assert_same_rows(new, old, before: dict) -> None:
    """``new`` and ``old`` hold the same rows bit for bit; a payload whose
    quality fell since ``before`` (dn id -> payload, updated here) is the
    prefix codec's compression of it, and any other keeps the payload built
    for it."""
    assert neuron_states(new.memory) == neuron_states(old.memory)
    assert columns(new) == columns(old)
    assert new.memory.total_bytes() == old.memory.total_bytes()
    assert new.memory.total_bytes() == brute_force_bytes(new.memory)
    for dn in data_neurons(new.memory):
        payload, stored = before[dn], new.memory.payload(dn)
        if stored.quality < payload.quality:
            payload = CODEC.compress(payload, stored.quality)
            assert stored == payload, dn
        else:
            assert stored is payload, dn
        before[dn] = stored


class TestArrayPasses:
    """Retention and elasticity as array passes against the per-neuron
    walks, bit for bit."""

    @staticmethod
    def populated(cls, phi: float):
        params = HiveParams(
            memory_decay_rates=[7.5, 13.25],
            association_decay_rates=[1.0, 2.0],
            locality_mapping=[{"labels": ["hot"]}, {}], phi=phi,
            elasticity_schedules=[[90.0, 40.0, max(phi, 1.0)]] * 2,
            retention_period=10**6)
        engine = cls(params)
        memory = engine.memory
        rng = np.random.default_rng(int(phi) + 15)
        engine.search = SearchParams(match_thresh=1.0)     # distinct items
        strengths = [100.0, phi, phi, 50.0, 30.0, 80.0, 99.9, 100.0]
        strengths += [float(rng.uniform(phi, 100.0)) for _ in range(10)]
        ids = []
        for i, strength in enumerate(strengths):
            cue = ["hot", "cold"][i % 2]
            dn_id = engine.store(blob(i % 8, item=i, size=900 + 37 * i),
                                 cue).dn_id
            memory.adjust_strength(dn_id, 100.0 - strength)
            ids.append(dn_id)
        # one blob as long as its quality says, one shorter
        for size, kept, quality in ((1000, 0.7, 70.0), (1100, 0.3, 90.0)):
            ids.append(engine.store(odd_payload(size, kept, quality),
                                    "hot").dn_id)
        # merge refresh: a compressed neuron gets its full copy back
        fresh = blob(0, item=99, size=1500, cls=3)
        refreshed = engine.store(fresh, "cold").dn_id
        memory.adjust_strength(refreshed, 55.0)
        engine.search = SearchParams()
        out = engine.store(fresh, "cold")
        assert (out.kind, out.dn_id, out.quality) == ("merged", refreshed,
                                                      100.0)
        ids.append(refreshed)
        # at the floor, yet stored at full quality
        data = blob(0, item=98, size=1200, cls=4)
        engine.search = SearchParams(match_thresh=1.0)
        floored = engine.store(data, "hot").dn_id
        memory.adjust_strength(floored, 200.0)
        memory.set_payload(floored, Payload.from_bytes(data))
        ids.append(floored)
        engine.search = SearchParams()
        # last accesses spread over ops 0..12, so short windows leave some
        # neurons active
        for dn_id in ids:
            row = memory.row_of[dn_id]
            memory.last_access[row] = int(rng.integers(0, 13))
        memory.op_counter = 12
        return engine

    @pytest.mark.parametrize("phi", [0.0, 1.0, 30.0])
    def test_bit_identical_to_the_per_neuron_walks(self, phi):
        new, old = (self.populated(cls, phi)
                    for cls in (MemoryEngine, ScalarReferenceEngine))
        before = {dn: new.memory.payload(dn) for dn in data_neurons(new.memory)}
        assert_same_rows(new, old, before)
        steps = [("retain", 3, False), ("cap", 100.0), ("retain", 1, True),
                 ("cap", 150.0), ("cap", 80.0), ("retain", 8, True),
                 ("cap", 50.0), ("cap", 50.0), ("retain", 5, False),
                 ("cap", 30.0), ("cap", 29.5), ("retain", 13, True),
                 ("cap", 10.0), ("retain", 1, False), ("cap", 1.0),
                 ("cap", 0.0), ("retain", 1, True)]
        compressed = 0
        for step in steps:
            if step[0] == "retain":
                for engine in (new, old):
                    engine.controls = OpControls(weaken_on_fail=step[2])
                got, want = (engine.retention(n=step[1])
                             for engine in (new, old))
                assert got == want, step
                compressed += len(got.compressed)
            else:
                for i in (0, 1):
                    assert (new.memory.lower_to_floors(
                        [(new.memory.localities[i], step[1])], math.inf)
                        == reference_cap(old, old.memory.localities[i],
                                         step[1])), step
            assert_same_rows(new, old, before)
        assert compressed
        assert new.memory.total_bytes() < sum(
            new.memory.payload(dn).original_size
            for dn in data_neurons(new.memory))
        for i, iteration in ((1, 0), (0, 1), (1, 2)):
            ceiling = new.params.elasticity_schedules[i][iteration]
            assert (new.memory.lower_to_floors(
                [(new.memory.localities[i], ceiling)], math.inf)
                == reference_cap(old, old.memory.localities[i], ceiling))
            assert_same_rows(new, old, before)

    def test_retention_keeps_id_order_and_counts_only_moved_strengths(self):
        new = self.populated(MemoryEngine, 1.0)
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
    """``ensure_capacity`` as one walk against the step-by-step reference:
    one per-neuron ``reference_cap`` per step, reading the free bytes after
    each."""

    # schedules of unequal length with floors where c - (c - f) != f for
    # some strength c, each ending at or above max(phi, 1); the first two
    # localities tie on decay rate, so the later one is squeezed first
    CASES = {
        0.0: [[90.5, 66.6, 33.3, 1.1], [70.7, 1.1], [50.05, 33.3, 12.3, 1.1]],
        1.0: [[90.5, 66.6, 33.3, 1.1], [70.7, 1.1], [50.05, 33.3, 12.3, 1.1]],
        30.0: [[90.5, 66.6, 31.7], [70.7, 30.0], [50.05, 41.1, 33.3]],
    }

    @staticmethod
    def populated(cls, phi: float):
        schedules = TestCapacityWalk.CASES[phi]
        labels = [["a"], ["b"], []]
        engine = cls(HiveParams(
            memory_decay_rates=[2.0, 2.0, 0.5],
            association_decay_rates=[0.0] * 3,
            locality_mapping=[{"labels": ls} if ls else {} for ls in labels],
            elasticity_schedules=schedules, phi=phi, retention_period=10**6))
        memory = engine.memory
        rng = np.random.default_rng(int(phi) + 23)
        engine.search = SearchParams(match_thresh=1.0)     # distinct items
        ids = []
        for i in range(30):
            cue = "abc"[i % 3]
            size = int(rng.integers(300, 1500))
            dn_id = engine.store(blob(i % 8, item=i, size=size), cue).dn_id
            # b's strongest row sits just above b's first floor, 70.7
            strength = (71.0 if i == 1 else
                        float(rng.uniform(phi, 71.0 if cue == "b" else 100.0)))
            memory.adjust_strength(dn_id, 100.0 - strength)
            ids.append(dn_id)
        ids.append(engine.store(odd_payload(1000, 0.4, 90.0), "a").dn_id)
        # strength back at 100 over a stored quality that stays lower
        for dn_id in ids[0:30:6]:
            memory.reinforce(dn_id)
        return engine

    @pytest.mark.parametrize("phi", [0.0, 1.0, 30.0])
    def test_bit_identical_to_the_step_by_step_reference(self, phi):
        new, old = (self.populated(cls, phi)
                    for cls in (MemoryEngine, ScalarReferenceEngine))
        assert columns(new) == columns(old)
        total = new.memory.total_bytes()
        # the bytes freed after each step, walking every step
        steps = copy.deepcopy(old)
        steps.params.capacity_bytes = total
        after: list[int] = []

        def recording(engine, locality, ceiling):
            after.append((after[-1] if after else 0)
                         + reference_cap(engine, locality, ceiling))
            return after[-1]

        with pytest.raises(StorageFullError):
            reference_ensure_capacity(steps, total + 1, cap_step=recording)
        assert steps.memory.total_bytes() == total - after[-1]
        schedules = self.CASES[phi]
        assert len(after) == sum(map(len, schedules)) + 3 * (phi == 0.0)
        floors = {max(phi, f) for s in schedules for f in s} | {phi}
        start = new.memory.strength[:31].tolist()
        off_floor = False
        # requests that fit exactly after a step, one byte short of it, and
        # beyond the last step
        needs = sorted(set(after) | {n + 1 for n in after})
        stopped = set()
        for need in needs:
            pair = [copy.deepcopy(e) for e in (new, old)]
            for engine in pair:
                engine.params.capacity_bytes = total
            before = {dn: pair[0].memory.payload(dn)
                      for dn in data_neurons(pair[0].memory)}
            assert [pair[1].memory.payload(dn)
                    for dn in data_neurons(pair[1].memory)] == list(
                before.values())
            errors = []
            for engine in pair:
                try:
                    engine.ensure_capacity(need)
                    errors.append(None)
                except StorageFullError as exc:
                    errors.append(str(exc))
            assert errors[0] == errors[1], need
            assert_same_rows(*pair, before)
            if errors[0] is None:
                stopped.add(total - pair[0].memory.total_bytes())
                assert pair[0].memory.total_bytes() <= total - need
            # a lowered strength that is not its floor: c - (c - f) != f
            off_floor |= any(s != s0 and s not in floors for s, s0 in zip(
                pair[0].memory.strength[:31].tolist(), start))
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


class TestReinforcement:
    """A hit restores its neuron's strength to exactly what
    ``clamp_strength(phi, s, -100.0)`` gives, marks it accessed at the
    current op, and leaves its stored quality, size and built payload."""

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
        for dn_id, s in zip(dn_ids, strengths):
            row = memory.row_of[dn_id]
            built = memory.payload(dn_id)       # read before the hit
            quality, keep = memory.quality[row], memory.keep[row]
            out = engine.retrieve("hot", raw_feature(memory, dn_id))
            assert out.dn_id == dn_id and out.payload is built
            assert memory.strength[row].hex() == \
                clamp_strength(phi, s, -100.0).hex()
            assert memory.quality[row] == quality and memory.keep[row] == keep
            assert memory.built[row] is built
            assert memory.last_access[row] == memory.op_counter

    def test_reinforce_leaves_an_unbuilt_payload_unbuilt(self):
        engine = engine_with(phi=30.0,
                             elasticity_schedules=[[80.0, 30.0]] * 2)
        memory = engine.memory
        dn = engine.store(blob(0), "hot").dn_id
        memory.adjust_strength(dn, 55.5)
        row = memory.row_of[dn]
        assert memory.built[row] is None
        quality, keep = memory.quality[row], memory.keep[row]
        memory.op_counter += 5
        memory.reinforce(dn)
        assert memory.strength[row] == 100.0 and memory.built[row] is None
        assert memory.quality[row] == quality and memory.keep[row] == keep
        assert memory.last_access[row] == memory.op_counter
        cue = memory.find_cue_by_label("hot")
        with pytest.raises(KeyError, match=f"neuron {cue} is not a data"):
            memory.reinforce(cue)

    def test_a_payload_quality_out_of_range_is_refused(self):
        engine = engine_with()
        data = blob(0)
        for quality in (100.5, -1.0, math.nan):
            payload = Payload(data, data, quality)
            with pytest.raises(ConfigurationError, match="payload quality"):
                engine.store(payload, "hot")
            with pytest.raises(ConfigurationError, match="payload quality"):
                engine.bootstrap_store(payload, "hot")
        assert engine.memory.op_counter == 0
        assert engine.memory.cues == {} and engine.memory.row_of == {}


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
    def test_random_ops_match_the_scalar_reference(self):
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
        engines = [cls(params, search=config.search, controls=config.controls)
                   for cls in (MemoryEngine, ScalarReferenceEngine)]
        new, old = engines
        features = [new.memory.extractor.extract(item.data) for item in items]
        stored: list[int] = []
        dn_of: dict[int, int] = {}     # item index -> its data neuron
        kinds = {"merged": 0, "refresh": 0, "hit": 0, "miss": 0,
                 "retention": 0, "compressed": 0}
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
            for engine in engines:
                engine.controls = controls
            if op[0] == "store":
                item = items[op[1]]
                dn_id = dn_of.get(op[1])
                compressed = (dn_id is not None and new.memory.payload(
                    dn_id).quality < 100.0)
                outs = [e.store(item.data, item.class_label,
                                item_id=item.item_id) for e in engines]
                if outs[0].kind == "new_neuron":
                    dn_of[op[1]] = outs[0].dn_id
                else:
                    kinds["merged"] += 1
                    kinds["refresh"] += compressed and outs[0].dn_id == dn_id
            elif op[0] == "retrieve":
                if op[1] is None:
                    fine, cue = np.ones(64), "alias"
                else:
                    fine, cue = features[op[1]], items[op[1]].class_label
                outs = [e.retrieve(cue, fine) for e in engines]
                kinds[outs[0].kind] += 1
            else:
                outs = [e.retention(n=op[1]) for e in engines]
                kinds["retention"] += 1
                kinds["compressed"] += len(outs[0].compressed)
            assert outs[0] == outs[1], f"op {i} {op}"
            assert columns(new) == columns(old), f"op {i} {op}"
            assert new.memory.total_bytes() == old.memory.total_bytes()
            if i % 50 == 0:
                for engine in engines:
                    assert maintained(engine.memory) == oracle_search_order(
                        engine.memory), f"op {i}"
                assert neuron_states(new.memory) == neuron_states(old.memory)
                assert new.memory.total_bytes() == brute_force_bytes(
                    new.memory)
        assert neuron_states(new.memory) == neuron_states(old.memory)
        assert len(data_neurons(new.memory)) >= 500
        assert all(kinds.values()), kinds
