"""One pass over a cue's order per operation.

A store whose query no row scores at or above ``match_thresh -
NEAR_THRESHOLD`` misses without walking its candidates; a hit under a
known label is found by placing each near row in its cue's order, and its
index there is handed to ``Memory.reward``, which moves the entry without
a second ``bisect``; a new data neuron is added, with its label's edge, in
one ``Memory`` call that checks its payload once.  Every decision, cost and
state is checked against the reference model (``tests/reference.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from neuralstore import core as core_module
from neuralstore import engine as engine_module
from neuralstore.codec import Payload, cosine_similarity
from neuralstore.core import unit_row
from neuralstore.engine import NEAR_THRESHOLD, OpControls, SearchParams
from tests.helpers import (
    assert_same_state,
    blob,
    engine_with,
    run_both,
)
from tests.reference import Model


class CountingReads(dict):
    """A dict that counts its reads by key."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def rows_engine_and_model(features):
    """An engine and the model over one locality of data neurons with the
    given three-value features, all linked from its default cue."""
    engine = engine_with(feature_dim=3)
    model = Model(engine.params)
    for f in features:
        for memory in (engine.memory, model):
            memory.add_data_neuron(0, Payload.from_bytes(b"x"),
                                   np.array(f, dtype=float))
    return engine, model


def store_decision(engine, model, query, thresh) -> tuple[int | None, int]:
    """The index a store's query matches among the default cue's order, as
    the model's, and how many candidates the matcher looked up."""
    engine.search = model.search = SearchParams(match_thresh=thresh)
    memory = engine.memory
    rows = memory.row_of = CountingReads(memory.row_of)
    order = memory.search_order[memory.localities[0].default_cue_id]
    query = np.array(query, dtype=float)
    got = engine._first_match(order, len(order), query, unit_row(query))
    assert got == model.first_match([e.dn_id for e in order], query)
    return got, rows.reads


class TestStoreMissDecision:
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("features, query, walked", [
        # every row below the band: decided without the walk
        ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], [0, 0, 1], 0),
        # a NaN row, and a NaN query, make the maximum NaN: walked
        ([[1, 0, 0], [np.nan, 1, 0], [0, 1, 0]], [0, 0, 1], 3),
        ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], [np.nan, 0, 1], 3),
    ])
    def test_no_row_in_the_band_misses_at_once(self, features, query,
                                               walked):
        engine, model = rows_engine_and_model(features)
        assert store_decision(engine, model, query, 0.5) == (None, walked)

    def test_a_score_at_the_band_floor_is_walked(self):
        engine, model = rows_engine_and_model([[0, 0, 1], [0.3, 0.7, 0.1]])
        query = np.array([1.0, 2.0, 0.0])
        top = float((engine.memory.features[:2] @ unit_row(query)).max())
        # the threshold whose band floor is exactly the top score
        thresh = top + NEAR_THRESHOLD
        for _ in range(64):
            if thresh - NEAR_THRESHOLD == top:
                break
            thresh = float(np.nextafter(
                thresh, 2.0 if thresh - NEAR_THRESHOLD < top else -2.0))
        assert thresh - NEAR_THRESHOLD == top
        # the scalar recheck decides the top row, below the threshold
        assert store_decision(engine, model, query, thresh) == (None, 2)
        above = float(np.nextafter(thresh, 2.0))
        assert above - NEAR_THRESHOLD > top
        assert store_decision(engine, model, query, above) == (None, 0)
        # and a row in the band that matches stops the walk
        assert store_decision(engine, model, query, top) == (1, 2)

    @pytest.mark.parametrize("limit, assoc_thresh, cost", [
        (2, 0.0, 2), (None, 1.0, 3), (2, 1.0, 2), (9, 21.0, 1)])
    def test_a_miss_at_once_costs_the_cut_prefix(self, limit, assoc_thresh,
                                                 cost):
        """A miss decided at once counts every candidate of the prefix the
        association threshold and the search limit leave."""
        engine = engine_with()
        model = Model(engine.params)
        for cluster in range(6):
            run_both(engine, model, "store", blob(cluster), "hot")
        # three edges above epsilon, one of them twice rewarded
        for cluster in (4, 1, 4, 2):
            run_both(engine, model, "retrieve", "hot",
                     engine.memory.extractor.extract(blob(cluster)))
        engine.controls = model.controls = OpControls(search_limit=limit)
        engine.search = model.search = SearchParams(
            assoc_thresh=assoc_thresh, match_thresh=1.0)
        rows = engine.memory.row_of = CountingReads(engine.memory.row_of)
        out = engine.store(blob(9, cls=1), "hot")
        assert rows.reads == 0, "the miss was walked"
        assert (out.kind, out.cost) == ("new_neuron", cost)
        assert tuple(out) == model.store(blob(9, cls=1), "hot")
        assert_same_state(engine, model)


def placed_engine_and_model():
    """Six rows under "hot", whose weights place them out of row order:
    row 4 (NaN) at 51, row 3 at 41, row 2 at 21, and rows 0 and 1 tied at
    11, in dn id order; row 5 has no edge from "hot"."""
    engine, model = rows_engine_and_model([
        [1, 0, 0], [1, 0, 0.01], [0.99, 0.1, 0], [0, 1, 0], [np.nan, 1, 0],
        [1, 0, 0]])
    dn_ids = list(engine.memory.row_of)
    for memory in (engine.memory, model):
        cue = memory.add_cue_neuron("hot")
        for row, weight in [(4, 51), (3, 41), (2, 21), (0, 11), (1, 11)]:
            memory.associate(cue, dn_ids[row])
            memory.adjust_association(cue, dn_ids[row], 1.0 - weight)
    return engine, model


@pytest.fixture
def scalar_calls(monkeypatch):
    """The engine's calls to the scalar ``cosine_similarity``."""
    calls = []

    def counting(a, b):
        calls.append(1)
        return cosine_similarity(a, b)

    monkeypatch.setattr(engine_module, "cosine_similarity", counting)
    return calls


def retrieve_both(engine, model, calls, label, query):
    """``run_both``'s retrieve, which also checks that the engine called
    the scalar function once for each examined candidate whose unit-row
    score is within ``NEAR_THRESHOLD`` of the threshold or NaN, as a walk
    would."""
    calls.clear()
    query = np.array(query, dtype=float)
    out = run_both(engine, model, "retrieve", label, query)
    memory, thresh = engine.memory, engine.search.match_thresh
    unit = unit_row(query)
    scores = [memory.features[memory.row_of[dn]] @ unit
              for dn in out.examined]
    assert len(calls) == sum(not score < thresh - NEAR_THRESHOLD
                             and not score > thresh + NEAR_THRESHOLD
                             for score in scores)
    return out


class TestMatchByPlace:
    """A known label's match is found by placing its near rows in its
    cue's order, and decided in that order; the decision, cost, examined
    ids, reward index and scalar calls are a walk's."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("controls, thresh, label, query, row, cost", [
        # the NaN row first, row 2 before the near rows 0 and 1, and row 5
        # (no edge from "hot") near too
        (OpControls(), 0.95, "hot", [1, 0, 0], 2, 3),
        # rows 0 and 1 tie: the first matches, then only the second
        (OpControls(), 0.999, "hot", [1, 0, 0], 0, 4),
        (OpControls(), 0.99999, "hot", [1, 0, 0.01], 1, 5),
        # row 0 placed past the end, by the search limit and by the
        # association threshold
        (OpControls(search_limit=3), 0.999, "hot", [1, 0, 0], None, 3),
        (OpControls(search_limit=4), 0.999, "hot", [1, 0, 0], 0, 4),
        # a NaN query: every candidate is near and none matches
        (OpControls(), 0.95, "hot", [np.nan, 0, 0], None, 5),
        # failure decay: a fresh copy of the prefix, placed the same way
        (OpControls(weaken_on_fail=True), 0.999, "hot", [1, 0, 0], 0, 4),
        (OpControls(weaken_on_fail=True, search_limit=3), 0.95, "hot",
         [1, 0, 0.01], 2, 3),
        # an unknown label walks the default cue's order, in row order
        (OpControls(), 0.99999, "unheard", [1, 0, 0.01], 1, 2),
        (OpControls(), 0.95, "unheard", [np.nan, 0, 0], None, 6),
    ])
    def test_same_as_the_model(self, scalar_calls, controls, thresh, label,
                               query, row, cost):
        engine, model = placed_engine_and_model()
        engine.controls = model.controls = controls
        engine.search = model.search = SearchParams(match_thresh=thresh)
        out = retrieve_both(engine, model, scalar_calls, label, query)
        dn_ids = list(engine.memory.row_of)
        assert (out.dn_id, out.cost) == (
            None if row is None else dn_ids[row], cost)

    @pytest.mark.parametrize("assoc_thresh, cost", [(15.0, 3), (11.0, 3),
                                                    (10.0, 4)])
    def test_a_place_past_the_association_threshold_is_dropped(
            self, scalar_calls, assoc_thresh, cost):
        engine, model = placed_engine_and_model()
        engine.search = model.search = SearchParams(
            assoc_thresh=assoc_thresh, match_thresh=0.999)
        out = retrieve_both(engine, model, scalar_calls, "hot", [1, 0, 0])
        assert (out.kind, out.cost) == ("miss" if cost == 3 else "hit", cost)

    def test_the_memo_starts_over_when_the_threshold_changes(
            self, scalar_calls):
        """A cue kept at a high threshold's band holds too few near rows
        for a lower one."""
        engine, model = placed_engine_and_model()
        engine.controls = model.controls = OpControls(search_limit=3)
        query = [1, 0, 0]
        dn_ids = list(engine.memory.row_of)
        for thresh, row in [(0.999, None), (0.95, 2), (0.999, None),
                            (0.95, 2)]:
            engine.search = model.search = SearchParams(match_thresh=thresh)
            out = retrieve_both(engine, model, scalar_calls, "hot", query)
            assert out.dn_id == (None if row is None else dn_ids[row])
            assert len(engine._fine_units) == 1


class TestRewardAtTheScanIndex:
    def test_orders_move_as_the_model_sorts_them(self, monkeypatch):
        """Matches first, last, among equal weights (in dn id order), under
        a search limit, under an unknown label and under failure decay; the
        last two walk a fresh list and let ``reward`` bisect."""
        engine = engine_with(eta=5.0)
        model = Model(engine.params)
        extract = engine.memory.extractor.extract
        ids = [run_both(engine, model, "store", blob(c), "hot").dn_id
               for c in range(6)]
        given = []
        reward = engine.memory.reward

        def spy(cue_id, dn_id, index=None):
            given.append(index)
            return reward(cue_id, dn_id, index)

        monkeypatch.setattr(engine.memory, "reward", spy)
        limit, decay = OpControls(search_limit=3), OpControls(
            weaken_on_fail=True)
        plain = OpControls()
        # (controls, op, label, cluster, index reward is given, cost)
        steps = [
            (plain, "retrieve", "hot", 5, 5, 6),     # last of six ties
            (plain, "retrieve", "hot", 5, 0, 1),     # first
            (plain, "retrieve", "hot", 2, 3, 4),     # among ties, by id
            (plain, "retrieve", "hot", 1, 3, 4),     # to a tie, before it
            (plain, "store", "hot", 0, 3, 4),        # a merge
            (limit, "retrieve", "hot", 1, 2, 3),     # last under the limit
            (limit, "retrieve", "hot", 4, None, 3),  # beyond it: a miss
            (plain, "retrieve", "alias", 4, None, 5),
            (decay, "retrieve", "hot", 3, None, 5),
            (decay, "store", "hot", 4, None, 6),
            (plain, "retrieve", "hot", 3, 4, 5),
        ]
        expected = []
        for controls, op, label, cluster, index, cost in steps:
            engine.controls = model.controls = controls
            args = ((blob(cluster), label) if op == "store"
                    else (label, extract(blob(cluster))))
            out = run_both(engine, model, op, *args)
            assert out.cost == cost, (op, label, cluster)
            if out.hit:
                assert out.dn_id == ids[cluster]
                expected.append(index)
        assert given == expected


class TestPayloadChecks:
    @pytest.mark.parametrize("as_payload", [False, True])
    def test_each_holder_checks_a_payload_once(self, monkeypatch,
                                               as_payload):
        """The engine checks a ``Payload`` before the op changes anything,
        and the memory checks what it holds: a new neuron's payload and a
        merge refresh's; a merge that keeps the resident copy holds
        nothing."""
        engine = engine_with()
        memory = engine.memory
        calls = []
        check = core_module.check_payload

        def counting(payload):
            calls.append(payload)
            check(payload)

        for module in (core_module, engine_module):
            monkeypatch.setattr(module, "check_payload", counting)

        def store(data: bytes):
            calls.clear()
            given = Payload.from_bytes(data) if as_payload else data
            return engine.store(given, "hot"), len(calls)

        engine_checks = int(as_payload)
        out, checks = store(blob(0))
        assert (out.kind, checks) == ("new_neuron", engine_checks + 1)
        out, checks = store(blob(0, item=1))
        assert (out.kind, checks) == ("merged", engine_checks)
        # lowered, so the next copy refreshes it
        memory.adjust_strength(out.dn_id, 40.0)
        out, checks = store(blob(0, item=2))
        assert (out.kind, out.quality) == ("merged", 100.0)
        assert checks == engine_checks + 1


class TestNewNeuronInOneCall:
    def test_the_label_edge_is_the_one_associate_makes(self):
        one, two = engine_with(), engine_with()
        for engine in (one, two):
            engine.memory.add_cue_neuron("hot")
        data = blob(0)
        feature = one.memory.extractor.extract(data)
        cue = one.memory.find_cue_by_label("hot")
        one.memory.add_data_neuron(0, Payload.from_bytes(data), feature, cue,
                                   unit_row(feature))
        dn = two.memory.add_data_neuron(0, Payload.from_bytes(data), feature)
        two.memory.associate(cue, dn)
        assert one.memory.export_graph() == two.memory.export_graph()
        assert one.memory.search_order == two.memory.search_order
        assert one.memory.features[:1].tobytes() == \
            two.memory.features[:1].tobytes()

    def test_a_cue_without_a_label_is_refused_before_anything_changes(self):
        engine = engine_with()
        memory = engine.memory
        engine.store(blob(0), "hot")
        before = memory.export_graph()
        data = blob(1)
        # a default cue, a data neuron, no neuron
        for cue_id in (memory.localities[0].default_cue_id, 0, 99):
            with pytest.raises(KeyError,
                               match=f"neuron {cue_id} is not a label cue"):
                memory.add_data_neuron(0, Payload.from_bytes(data),
                                       memory.extractor.extract(data), cue_id)
            assert memory.export_graph() == before
