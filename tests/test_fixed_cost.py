"""What a single-cue operation pays for once: its candidate list is a slice
of the cue's order, a payload's fidelity is computed once, and a retrieve
fine cue's unit row is computed once per distinct value and scored once
against each feature row.

Each shortcut is checked against the reference model (``tests/reference.py``):
the slice against the model's filtered walk of whole orders, the kept
fidelity against its byte-by-byte PSNR, the kept unit rows and scores
against its candidate-by-candidate scan.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from neuralstore import codec as codec_module
from neuralstore import engine as engine_module
from neuralstore.codec import Payload, psnr_fidelity
from neuralstore.core import unit_row
from neuralstore.engine import OpControls, SearchParams
from tests.helpers import blob, candidates, engine_with, raw_feature, run_both
from tests.reference import Model, psnr


def engine_and_model(localities: int):
    """An engine with ``localities`` localities and the model on the same
    parameters, with one cue ``hot``."""
    engine = engine_with(**({} if localities == 2 else dict(
        memory_decay_rates=[0.5], association_decay_rates=[0.0],
        locality_mapping=[{"labels": ["hot"]}],
        elasticity_schedules=[[80.0, 50.0, 20.0]])))
    model = Model(engine.params)
    for memory in (engine.memory, model):
        memory.add_cue_neuron("hot")
    return engine, model


def random_edges(rng, engine, model, cue, locality: int, n: int) -> list:
    """``n`` new data neurons in a locality, linked from ``cue`` (None: the
    locality's default cue) at weights drawn from a few values that tie
    often; their weights."""
    weights = rng.choice([1.0, 2.5, 7.0, 7.0, 40.0, 100.0], size=n).tolist()
    for w in weights:
        for memory in (engine.memory, model):
            dn = memory.add_data_neuron(locality, Payload.from_bytes(b"x"),
                                        np.zeros(64))
        # both give a neuron the same id, a default cue's too
        c = engine.memory.localities[locality].default_cue_id \
            if cue is None else cue
        for memory in (engine.memory, model):
            memory.associate(c, dn)
            memory.adjust_association(c, dn, 1.0 - w)
    return weights


def thresholds(weights: list[float]) -> list[float]:
    weights = sorted(set(weights))
    picks = [-math.inf, -1.0, 0.0, 0.5, 1000.0, math.inf, math.nan]
    picks += weights                             # equal to a weight
    picks += [w + 0.25 for w in weights]         # between weights
    return picks


def assert_same_candidates(engine, model, label: str, t1: float,
                           limit: int | None) -> list:
    """The engine's candidate list under ``label`` at association threshold
    ``t1`` and search limit ``limit`` is the model's."""
    engine.search = model.search = SearchParams(assoc_thresh=t1)
    engine.controls = model.controls = OpControls(search_limit=limit)
    got = candidates(engine, label)
    want = model.candidates(model.find_cue_by_label(label))
    assert [(e.cue_id, e.dn_id, e.avg_weight) for e in got] == [
        (c, dn, model.weights[c, dn]) for c, dn in want], (t1, limit)
    return got


class TestSliceAgainstTheModel:
    @pytest.mark.parametrize("seed", range(4))
    def test_known_cue_equals_the_model(self, seed):
        rng = np.random.default_rng(seed)
        engine, model = engine_and_model(1)
        cue = model.find_cue_by_label("hot")
        weights = []
        for n in [0, 1, 1, 3, 8]:
            weights += random_edges(rng, engine, model, cue, 0, n)
            for t1 in thresholds(weights):
                for limit in [None, *range(1, len(weights) + 2)]:
                    got = assert_same_candidates(engine, model, "hot", t1,
                                                 limit)
                    assert got is not engine.memory.search_order[cue]

    @pytest.mark.parametrize("localities", [1, 2])
    def test_unknown_cue_equals_the_model_over_default_cues(self,
                                                            localities):
        rng = np.random.default_rng(localities)
        engine, model = engine_and_model(localities)
        weights = []
        for n in [0, 1, 3, 5]:
            for locality in range(localities):
                weights += random_edges(rng, engine, model, None, locality, n)
            for t1 in thresholds(weights):
                for limit in [None, *range(1, len(weights) + 2)]:
                    assert_same_candidates(engine, model, "zzz", t1, limit)

    def test_default_threshold_comes_from_the_engine(self):
        engine, model = engine_and_model(1)
        cue = model.find_cue_by_label("hot")
        random_edges(np.random.default_rng(9), engine, model, cue, 0, 8)
        engine.search.assoc_thresh = 7.0
        model.search = SearchParams(assoc_thresh=7.0)
        assert [e.dn_id for e in candidates(engine, "hot")] == [
            dn for _, dn in model.candidates(cue)]
        assert len(candidates(engine, "hot")) < 8

    def test_cue_without_an_order_gives_an_empty_list(self):
        engine = engine_with()
        engine.store(blob(0), "hot")
        cue = engine.memory.find_cue_by_label("hot")
        del engine.memory.search_order[cue]
        assert candidates(engine, "hot") == []

    def test_entries_moved_during_the_scan_leave_the_list_unchanged(self):
        engine = engine_with(eta=5.0)
        for cluster in range(6):
            engine.store(blob(cluster), "hot")
        cue = engine.memory.find_cue_by_label("hot")
        order = engine.memory.search_order[cue]
        listed = candidates(engine, "hot")
        taken = list(listed)
        before = list(order)
        last = listed[-1].dn_id
        # every examined non-match is weakened and the match strengthened
        engine.controls = OpControls(weaken_on_fail=True)
        out = engine.retrieve("hot", raw_feature(engine.memory, last))
        assert out.dn_id == last
        assert order != before
        assert engine.memory.search_order[cue] is order
        assert listed == taken


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
        assert first == psnr(payload)
        assert psnr_fidelity(payload) == first
        assert len(calls) == 1
        # an equal payload built apart computes its own, equal value
        assert psnr_fidelity(Payload(blob_, original, 50.0)) == first
        assert len(calls) == 2

    def test_payload_rebuilt_after_retention_or_elasticity_gets_its_own(
            self):
        engine = engine_with(memory_decay_rates=[30.0, 30.0])
        dn = engine.store(blob(0), "hot").dn_id
        full = engine.memory.payload(dn)
        assert psnr_fidelity(full) == math.inf
        # an op that touches nothing, so the neuron is idle for one op
        miss = engine.retrieve(
            "hot", np.zeros_like(raw_feature(engine.memory, dn)))
        assert miss.kind == "miss"
        engine.retention(n=1)
        aged = engine.memory.payload(dn)
        assert aged is not full and aged.quality < full.quality
        assert psnr_fidelity(aged) == psnr(aged)
        assert psnr_fidelity(full) == math.inf
        engine.memory.lower_to_floors([(engine.memory.localities[0], 20.0)],
                                      math.inf)
        squeezed = engine.memory.payload(dn)
        assert squeezed is not aged and squeezed.quality == 20.0
        assert psnr_fidelity(squeezed) == psnr(squeezed)
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
        assert psnr_fidelity(lower) == psnr(lower)
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
        query = raw_feature(engine.memory, a).copy()
        assert engine.retrieve("hot", query).dn_id == a
        query[:] = raw_feature(engine.memory, b)
        assert engine.retrieve("hot", query).dn_id == b
        query[:] = 0.0
        assert engine.retrieve("hot", query).kind == "miss"

    def test_stores_never_enter_the_memo(self):
        engine = engine_with()
        for cluster in range(5):
            engine.store(blob(cluster), "hot")
            engine.store(blob(cluster), "hot")     # a merge scans too
        assert engine._fine_units == {}
        query = engine.memory.extractor.extract(blob(2))
        engine.retrieve("hot", query)
        assert list(engine._fine_units) == [query.tobytes()]
        assert np.array_equal(engine._fine_units[query.tobytes()][0],
                              unit_row(query))
        engine.store(blob(9), "hot")
        assert list(engine._fine_units) == [query.tobytes()]

    def test_memo_stays_within_its_bound_and_decides_as_without_it(self):
        bound = engine_module.FINE_UNIT_MEMO_SIZE
        engine = engine_with(feature_dim=8, retention_period=50)
        model = Model(engine.params)
        rng = np.random.default_rng(3)
        for cluster in range(4):
            run_both(engine, model, "store", blob(cluster), "hot")
        base = engine.memory.features[0].copy()
        recurring = [base + 1e-3 * rng.standard_normal(8) for _ in range(5)]
        hits, peak, n = 0, 0, 2 * bound
        for i in range(n):
            # three fresh cues in four: more distinct cues than the bound
            query = recurring[i // 4 % 5] if i % 4 == 0 else \
                base + 0.3 * rng.standard_normal(8)
            got = run_both(engine, model, "retrieve", "hot", query)
            peak = max(peak, len(engine._fine_units))
            hits += got.hit
        assert peak == bound and len(engine._fine_units) < bound
        assert 0 < hits < n

    def test_rows_added_between_uses_are_scored_once_each(self):
        dim = 8
        engine = engine_with(feature_dim=dim, retention_period=50)
        model = Model(engine.params)
        thresh = engine.search.match_thresh
        first = run_both(engine, model, "store", blob(0), "hot")
        f = raw_feature(engine.memory, first.dn_id)
        # a cue at cosine match_thresh to the first neuron, up to rounding,
        # so its score against that row is left to the scalar function
        u = f / np.linalg.norm(f)
        w = np.random.default_rng(1).standard_normal(dim)
        w -= w.dot(u) * u
        near = thresh * u + math.sqrt(1.0 - thresh ** 2) * w / np.linalg.norm(w)
        assert abs(engine_module.cosine_similarity(near, f) - thresh) \
            < engine_module.NEAR_THRESHOLD
        cues = [np.zeros(dim), near, f.copy(),
                engine.memory.extractor.extract(blob(4)),
                engine.memory.extractor.extract(blob(7, item=1))]
        kinds = set()
        for step in range(14):
            if step % 4 == 3:
                # a neuron whose unit row is NaN, reached from "hot"
                for memory in (engine.memory, model):
                    dn = memory.add_data_neuron(
                        0, Payload.from_bytes(b"nan"), np.full(dim, math.nan))
                    memory.associate(memory.find_cue_by_label("hot"), dn)
            else:
                run_both(engine, model, "store", blob(step), "hot")
            for i, cue in enumerate(cues):
                # cues recur after differing numbers of added rows
                query = cue if (step + i) % 3 else cues[i - 1]
                got = run_both(engine, model, "retrieve", "hot", query)
                kinds.add(got.kind)
                rows = len(engine.memory.row_of)
                unit, scores = engine._fine_units[query.tobytes()]
                assert len(scores) == rows
                assert np.allclose(scores, engine.memory.features[:rows] @ unit,
                                   rtol=0.0, atol=1e-12, equal_nan=True)
        assert kinds == {"hit", "miss"}
