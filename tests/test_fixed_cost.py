"""What a single-cue operation pays for once: its candidate list is a slice
of the cue's order, a payload's fidelity is computed once, and a retrieve
fine cue's unit row is computed once per distinct value and scored once
against each feature row.

Each shortcut is checked against the computation it replaces: the slice
against the dedup walk, the kept fidelity against a fresh computation, the
kept unit rows and scores against the decisions made without them.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from neuralstore import codec as codec_module
from neuralstore import engine as engine_module
from neuralstore.codec import Payload, psnr_fidelity
from neuralstore.core import SearchEntry, unit_row
from neuralstore.engine import OpControls, SearchParams
from tests.helpers import candidates
from tests.test_engine import blob, engine_with


def dedup_walk(lists, t1, limit):
    """The candidate list as the general path builds it: every order in
    turn, entries above ``t1`` only, first occurrence of each dn id kept,
    cut at ``limit``."""
    out, seen = [], set()
    for entries in lists:
        for entry in entries:
            if entry.avg_weight > t1 and entry.dn_id not in seen:
                seen.add(entry.dn_id)
                out.append(entry)
                if limit is not None and len(out) >= limit:
                    return out
    return out


def random_order(rng, cue_id: int, n: int,
                 dn_ids=None) -> list[SearchEntry]:
    """A sorted order of ``n`` distinct dn ids, drawn unless given, whose
    weights, drawn from a few values, tie often."""
    weights = rng.choice([1.0, 2.5, 7.0, 7.0, 40.0, 100.0], size=n)
    if dn_ids is None:
        dn_ids = rng.choice(1000, size=n, replace=False)
    entries = [SearchEntry(cue_id, int(d), float(w))
               for d, w in zip(dn_ids, weights)]
    entries.sort()
    return entries


def thresholds(order: list[SearchEntry]) -> list[float]:
    weights = sorted({e.avg_weight for e in order})
    picks = [-math.inf, -1.0, 0.0, 0.5, 1000.0, math.inf, math.nan]
    picks += weights                             # equal to a weight
    picks += [w + 0.25 for w in weights]         # between weights
    return picks


def set_scope(engine, t1: float, limit: int | None) -> None:
    """Give ``engine`` association threshold ``t1`` and search limit
    ``limit``, the values every operation reads."""
    engine.search = SearchParams(assoc_thresh=t1)
    engine.controls = OpControls(search_limit=limit)


def engine_with_localities(n: int):
    """An engine with ``n`` localities, each with a default cue, and a
    known cue ``hot``."""
    if n == 1:
        engine = engine_with(memory_decay_rates=[0.5],
                             association_decay_rates=[0.0],
                             locality_mapping=[{"labels": ["hot"]}],
                             elasticity_schedules=[[80.0, 50.0, 20.0]])
    else:
        engine = engine_with()
        engine.store(blob(1, cls=1), "cold")   # locality 1's default cue
    engine.store(blob(0), "hot")
    return engine


class TestSliceAgainstTheWalk:
    @pytest.mark.parametrize("seed", range(4))
    def test_known_cue_equals_the_walk(self, seed):
        rng = np.random.default_rng(seed)
        engine = engine_with_localities(1)
        cue = engine.hive.find_cue_by_label("hot")
        for n in [0, 1, 2, 5, 13]:
            order = random_order(rng, cue, n)
            engine.hive.search_order[cue] = order
            for t1 in thresholds(order):
                for limit in [None, *range(1, n + 2)]:
                    set_scope(engine, t1, limit)
                    expected = dedup_walk([order], t1, limit)
                    got = candidates(engine, "hot")
                    assert got == expected, (n, t1, limit)
                    assert got is not order

    @pytest.mark.parametrize("localities", [1, 2])
    def test_unknown_cue_equals_the_walk_over_default_cues(self, localities):
        rng = np.random.default_rng(localities)
        engine = engine_with_localities(localities)
        defaults = [loc.default_cue_id for loc in engine.hive.localities]
        assert None not in defaults
        for n in [0, 1, 4, 9]:
            # a default cue links only its own locality's data neurons
            pool = rng.choice(1000, size=n * len(defaults), replace=False)
            orders = []
            for i, cue in enumerate(defaults):
                orders.append(random_order(rng, cue, n,
                                           pool[i * n:(i + 1) * n]))
                engine.hive.search_order[cue] = orders[-1]
            for t1 in thresholds(orders[0]):
                for limit in [None, *range(1, 2 * n + 2)]:
                    set_scope(engine, t1, limit)
                    assert candidates(engine, "zzz") == \
                        dedup_walk(orders, t1, limit), (n, t1, limit)

    def test_default_threshold_comes_from_the_engine(self):
        engine = engine_with_localities(1)
        cue = engine.hive.find_cue_by_label("hot")
        order = random_order(np.random.default_rng(9), cue, 8)
        engine.hive.search_order[cue] = order
        engine.search.assoc_thresh = 7.0
        assert candidates(engine, "hot") == \
            dedup_walk([order], 7.0, None)

    def test_cue_without_an_order_gives_an_empty_list(self):
        engine = engine_with_localities(1)
        cue = engine.hive.find_cue_by_label("hot")
        del engine.hive.search_order[cue]
        assert candidates(engine, "hot") == []

    def test_entries_moved_during_the_scan_leave_the_list_unchanged(self):
        engine = engine_with(eta=5.0)
        for cluster in range(6):
            engine.store(blob(cluster), "hot")
        cue = engine.hive.find_cue_by_label("hot")
        order = engine.hive.search_order[cue]
        listed = candidates(engine, "hot")
        taken = list(listed)
        before = list(order)
        last = listed[-1].dn_id
        # every examined non-match is weakened and the match strengthened
        engine.controls = OpControls(weaken_on_fail=True)
        out = engine.retrieve("hot", engine.memory.neurons[last].feature)
        assert out.dn_id == last
        assert order != before
        assert engine.hive.search_order[cue] is order
        assert listed == taken


class NoMemoEngine(engine_module.MemoryEngine):
    """Scores every query, fine cues too, without the unit-row memo."""

    def _first_match(self, candidates, query, memo):
        return super()._first_match(candidates, query, False)


def reference_psnr(payload: Payload) -> float:
    """PSNR of a payload computed from scratch, byte by byte."""
    original, blob_ = payload.original, payload.blob
    if len(blob_) < len(original):
        pad = round(sum(blob_) / len(blob_)) if blob_ else 0
        blob_ = blob_ + bytes([pad]) * (len(original) - len(blob_))
    if blob_ == original:
        return math.inf
    mse = sum((a - b) ** 2 for a, b in zip(original, blob_)) / len(original)
    return 10.0 * math.log10(255.0 ** 2 / mse)


def count_computations(monkeypatch) -> list:
    """Record each PSNR computation, on the tail path and on the
    reconstruct path alike."""
    calls = []
    original = codec_module._psnr_db

    def spy(payload):
        calls.append(payload)
        return original(payload)

    monkeypatch.setattr(codec_module, "_psnr_db", spy)
    return calls


class TestFidelityKeptPerPayload:
    @pytest.mark.parametrize("blob_, original", [
        (bytes(range(64)), bytes(range(64))),            # full quality
        (bytes(range(32)), bytes(range(64))),            # truncated
        (b"\x07" * 3, bytes([7, 7, 7, 7, 200])),         # truncated, one off
        (b"", bytes(range(10))),                         # empty blob
        (b"", b""),                                      # empty original
    ])
    def test_kept_value_equals_a_fresh_computation(self, monkeypatch,
                                                   blob_, original):
        calls = count_computations(monkeypatch)
        payload = Payload(blob_, original, 50.0)
        first = psnr_fidelity(payload)
        assert first == pytest.approx(reference_psnr(payload), rel=1e-12)
        assert psnr_fidelity(payload) == first
        assert len(calls) == 1
        # an equal payload built apart computes its own, equal value
        assert psnr_fidelity(Payload(blob_, original, 50.0)) == first
        assert len(calls) == 2

    def test_payload_rebuilt_after_retention_or_elasticity_gets_its_own(
            self):
        engine = engine_with(memory_decay_rates=[30.0, 30.0])
        dn = engine.store(blob(0), "hot").dn_id
        neuron = engine.memory.data_neuron(dn)
        full = neuron.payload
        assert psnr_fidelity(full) == math.inf
        # an op that touches nothing, so the neuron is idle for one op
        miss = engine.retrieve("hot", np.zeros_like(neuron.feature))
        assert miss.kind == "miss"
        engine.retention(n=1)
        aged = neuron.payload
        assert aged is not full and aged.quality < full.quality
        assert psnr_fidelity(aged) == pytest.approx(reference_psnr(aged),
                                                    rel=1e-12)
        assert psnr_fidelity(full) == math.inf
        engine.memory.lower_to_floors([(engine.hive.localities[0], 20.0)],
                                      math.inf)
        squeezed = neuron.payload
        assert squeezed is not aged and squeezed.quality == 20.0
        assert psnr_fidelity(squeezed) == pytest.approx(
            reference_psnr(squeezed), rel=1e-12)
        assert psnr_fidelity(squeezed) < psnr_fidelity(aged)

    def test_equality_hash_repr_and_replace_are_unchanged(self):
        a = Payload(b"ab", b"abcd", 50.0, "x")
        b = Payload(b"ab", b"abcd", 50.0, "x")
        psnr_fidelity(a)
        assert a._psnr is not None and b._psnr is None
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == (
            "Payload(blob=b'ab', original=b'abcd', quality=50.0, "
            "lineage='x')")
        assert a != Payload(b"a", b"abcd", 25.0, "x")
        copy = dataclasses.replace(a)
        assert copy == a and copy._psnr is None
        lower = dataclasses.replace(a, blob=b"a", quality=25.0)
        assert psnr_fidelity(lower) == pytest.approx(reference_psnr(lower),
                                                     rel=1e-12)
        assert psnr_fidelity(a) != psnr_fidelity(lower)
        with pytest.raises(TypeError):
            Payload(b"ab", b"abcd", 50.0, "x", 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.quality = 10.0


class TestFineCueUnitRows:
    def test_a_cue_changed_in_place_is_scored_by_its_new_value(self):
        engine = engine_with()
        a = engine.store(blob(0), "hot").dn_id
        b = engine.store(blob(3), "hot").dn_id
        features = engine.memory.neurons
        query = features[a].feature.copy()
        assert engine.retrieve("hot", query).dn_id == a
        query[:] = features[b].feature
        assert engine.retrieve("hot", query).dn_id == b
        query[:] = 0.0
        assert engine.retrieve("hot", query).kind == "miss"

    def test_stores_never_enter_the_memo(self):
        engine = engine_with()
        for cluster in range(5):
            engine.store(blob(cluster), "hot")
            engine.store(blob(cluster), "hot")     # a merge scans too
        assert engine._fine_units == {}
        query = engine.hive.extractor.extract(blob(2))
        engine.retrieve("hot", query)
        assert list(engine._fine_units) == [query.tobytes()]
        assert np.array_equal(engine._fine_units[query.tobytes()][0],
                              unit_row(query))
        engine.store(blob(9), "hot")
        assert list(engine._fine_units) == [query.tobytes()]

    def test_memo_stays_within_its_bound_and_decides_as_without_it(self):
        bound = engine_module.FINE_UNIT_MEMO_SIZE
        engine = engine_with(feature_dim=8, retention_period=50)
        plain = NoMemoEngine(dataclasses.replace(engine.params))
        rng = np.random.default_rng(3)
        for cluster in range(4):
            engine.store(blob(cluster), "hot")
            plain.store(blob(cluster), "hot")
        base = engine.hive.features[0].copy()
        recurring = [base + 1e-3 * rng.standard_normal(8) for _ in range(5)]
        hits, peak, n = 0, 0, 2 * bound
        for i in range(n):
            # three fresh cues in four: more distinct cues than the bound
            query = recurring[i // 4 % 5] if i % 4 == 0 else \
                base + 0.3 * rng.standard_normal(8)
            got = engine.retrieve("hot", query)
            assert got == plain.retrieve("hot", query)
            peak = max(peak, len(engine._fine_units))
            hits += got.hit
        assert peak == bound and len(engine._fine_units) < bound
        assert plain._fine_units == {}
        assert 0 < hits < n

    def test_rows_added_between_uses_are_scored_once_each(self):
        dim = 8
        engine = engine_with(feature_dim=dim, retention_period=50)
        plain = NoMemoEngine(dataclasses.replace(engine.params))
        engines = (engine, plain)
        thresh = engine.search.match_thresh
        first = [e.store(blob(0), "hot") for e in engines][0]
        f = engine.memory.neurons[first.dn_id].feature
        # a cue at cosine match_thresh to the first neuron, up to rounding,
        # so its score against that row is left to the scalar function
        u = f / np.linalg.norm(f)
        w = np.random.default_rng(1).standard_normal(dim)
        w -= w.dot(u) * u
        near = thresh * u + math.sqrt(1.0 - thresh ** 2) * w / np.linalg.norm(w)
        assert abs(engine_module.cosine_similarity(near, f) - thresh) \
            < engine_module.NEAR_THRESHOLD
        cues = [np.zeros(dim), near, f.copy(),
                engine.hive.extractor.extract(blob(4)),
                engine.hive.extractor.extract(blob(7, item=1))]
        kinds = set()
        for step in range(14):
            for e in engines:
                if step % 4 == 3:
                    # a neuron whose unit row is NaN, reached from "hot"
                    dn = e.memory.add_data_neuron(
                        0, Payload.from_bytes(b"nan"), np.full(dim, math.nan))
                    e.memory.associate(e.hive.find_cue_by_label("hot"), dn)
                else:
                    e.store(blob(step), "hot")
            for i, cue in enumerate(cues):
                # cues recur after differing numbers of added rows
                query = cue if (step + i) % 3 else cues[i - 1]
                got = engine.retrieve("hot", query)
                assert got == plain.retrieve("hot", query), (step, i)
                kinds.add(got.kind)
                rows = len(engine.hive.feature_rows)
                unit, scores = engine._fine_units[query.tobytes()]
                assert len(scores) == rows
                assert np.allclose(scores, engine.hive.features[:rows] @ unit,
                                   rtol=0.0, atol=1e-12, equal_nan=True)
        assert kinds == {"hit", "miss"}
        assert plain._fine_units == {}
