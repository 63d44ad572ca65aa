"""The per-operation records: search-order entries and operation outcomes.

A ``SearchEntry`` is a tuple whose natural order is its place in a search
order, so orders are searched and sorted without key functions, and
``Memory`` writes a moved entry over its old one whenever its place does
not change.  An ``OpOutcome`` is a named tuple.
"""

from __future__ import annotations

import copy
import pickle
from bisect import bisect_left

import numpy as np
import pytest

from neuralstore import core
from neuralstore.codec import Payload
from neuralstore.core import HiveParams, Memory, SearchEntry
from neuralstore.engine import OpOutcome, oracle_search_order
from tests.test_engine import maintained


class TestSearchEntry:
    def test_fields_by_position_and_keyword(self):
        for entry in (SearchEntry(3, 17, 0.1),
                      SearchEntry(cue_id=3, dn_id=17, avg_weight=0.1)):
            assert entry.cue_id == 3 and entry.dn_id == 17
            assert type(entry.avg_weight) is float
            assert entry.avg_weight.hex() == (0.1).hex()

    def test_natural_order_is_the_place_in_an_order(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            # few distinct weights, so ties are common
            weights = rng.choice([1.0, 2.5, 7.0, 7.0, 40.0, 100.0], size=n)
            dn_ids = rng.choice(500, size=n, replace=False)
            entries = [SearchEntry(5, int(d), float(w))
                       for d, w in zip(dn_ids, weights)]
            by_key = sorted(entries, key=lambda e: (-e.avg_weight, e.dn_id))
            assert sorted(entries) == by_key
            # a (-weight, dn_id) probe finds its own entry
            for i, e in enumerate(by_key):
                assert bisect_left(by_key, (-e.avg_weight, e.dn_id)) == i

    def test_immutable_equal_hashable_and_repr(self):
        entry = SearchEntry(1, 2, 3.0)
        for name in ("cue_id", "dn_id", "avg_weight", "other"):
            with pytest.raises(AttributeError):
                setattr(entry, name, 0)
        assert entry == SearchEntry(1, 2, 3.0)
        assert entry != SearchEntry(1, 2, 4.0)
        assert entry != SearchEntry(0, 2, 3.0)
        assert hash(entry) == hash(SearchEntry(1, 2, 3.0))
        assert len({entry, SearchEntry(1, 2, 3.0), SearchEntry(0, 2, 3.0)}) == 2
        assert repr(entry) == "SearchEntry(cue_id=1, dn_id=2, avg_weight=3.0)"

    def test_copy_and_pickle_keep_fields(self):
        entry = SearchEntry(4, 8, 0.1 + 0.2)
        clones = [copy.copy(entry), copy.deepcopy(entry)]
        clones += [pickle.loads(pickle.dumps(entry, protocol=p))
                   for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones:
            assert type(clone) is SearchEntry
            assert (clone.cue_id, clone.dn_id) == (4, 8)
            assert clone.avg_weight.hex() == (0.1 + 0.2).hex()
            assert clone == entry


@pytest.fixture
def insorts(monkeypatch):
    """The entries ``Memory`` re-inserts with ``insort``, in call order."""
    calls = []
    real = core.insort

    def counting(order, entry, *args, **kwargs):
        calls.append(entry)
        return real(order, entry, *args, **kwargs)

    monkeypatch.setattr(core, "insort", counting)
    return calls


def memory_with(weights):
    """A memory whose cue "x" links one data neuron per weight (integral
    weights, so they are set exactly), created in ascending dn id order;
    returns the memory, the cue id and the dn ids."""
    memory = Memory(HiveParams(epsilon=1.0))
    cue = memory.add_cue_neuron(label="x")
    dn_ids = []
    for i, weight in enumerate(weights):
        data = Payload.from_bytes(bytes([i]) * 64)
        dn = memory.add_data_neuron(0, data,
                                    memory.extractor.extract(data.blob))
        memory.associate(cue, dn)
        if weight != 1.0:
            memory.adjust_association(cue, dn, 1.0 - weight)
        dn_ids.append(dn)
    return memory, cue, dn_ids


def assert_order_current(memory, orders: dict) -> None:
    """Every order is the list it was, and equals a re-sort of the
    association weights."""
    for cue_id, order in orders.items():
        assert memory.search_order[cue_id] is order
    assert maintained(memory) == oracle_search_order(memory)


class TestInPlaceMoves:
    # (weights by ascending dn id, index of the edited dn, its new weight,
    #  insort calls the edit makes)
    CASES = [
        pytest.param([10, 5, 3], 0, 12, 0, id="first-strengthened"),
        pytest.param([10, 5, 3], 0, 5, 0, id="first-ties-right-by-dn-id"),
        pytest.param([10, 5, 3], 0, 4, 1, id="first-moves-past"),
        pytest.param([10, 5, 3], 1, 6, 0, id="middle-stays"),
        pytest.param([10, 5, 3], 1, 10, 0, id="ties-left-stays"),
        pytest.param([10, 5, 3], 1, 3, 0, id="ties-right-stays"),
        pytest.param([5, 10, 3], 0, 10, 1, id="ties-left-moves"),
        pytest.param([10, 3, 5], 2, 3, 1, id="ties-right-moves"),
        pytest.param([10, 5, 3], 1, 11, 1, id="middle-moves-up"),
        pytest.param([10, 5, 3], 2, 1, 0, id="last-weakened"),
        pytest.param([10, 5, 3], 2, 7, 1, id="last-moves-past"),
        pytest.param([5], 0, 50, 0, id="one-entry-up"),
        pytest.param([5], 0, 1, 0, id="one-entry-down"),
    ]

    @pytest.mark.parametrize("weights, index, new, calls", CASES)
    def test_entry_moves_only_when_its_place_changes(self, insorts, weights,
                                                     index, new, calls):
        memory, cue, dn_ids = memory_with(weights)
        orders = dict(memory.search_order)
        order = orders[cue]
        before = [e.dn_id for e in order]
        insorts.clear()
        dn = dn_ids[index]
        memory.adjust_association(cue, dn, memory.weights[cue, dn] - new)
        assert memory.weights[cue, dn] == new
        assert len(insorts) == calls
        assert ([e.dn_id for e in order] != before) == bool(calls)
        assert_order_current(memory, orders)

    def test_random_edits_reinsert_exactly_when_the_sequence_changes(
            self, insorts):
        rng = np.random.default_rng(5)
        memory, cue, dn_ids = memory_with(rng.choice([1, 2, 3, 5], size=12))
        orders = dict(memory.search_order)
        order = orders[cue]
        for _ in range(300):
            dn = int(rng.choice(dn_ids))
            before = [e.dn_id for e in order]
            insorts.clear()
            memory.adjust_association(cue, dn,
                                      float(rng.choice([-2, -1, 1, 2])))
            moved = [e.dn_id for e in order] != before
            assert len(insorts) == int(moved)
            assert_order_current(memory, orders)


class TestOpOutcome:
    def test_fields_defaults_and_hit(self):
        out = OpOutcome("miss", None, 4)
        assert OpOutcome._fields == ("kind", "dn_id", "cost", "payload",
                                     "quality", "examined")
        assert (out.kind, out.dn_id, out.cost, out.payload, out.quality,
                out.examined) == ("miss", None, 4, None, None, ())
        assert OpOutcome(kind="hit", dn_id=2, cost=1) == ("hit", 2, 1, None,
                                                           None, ())
        for kind, hit in [("merged", True), ("hit", True),
                          ("new_neuron", False), ("miss", False)]:
            assert OpOutcome(kind, 1, 0).hit is hit

    def test_immutable_and_pickles(self):
        payload = Payload.from_bytes(b"abc", lineage="item-1")
        out = OpOutcome("hit", 3, 2, payload, 100.0, (5, 3))
        for name in ("cost", "hit", "other"):
            with pytest.raises(AttributeError):
                setattr(out, name, 1)
        clone = pickle.loads(pickle.dumps(out))
        assert type(clone) is OpOutcome and clone == out and clone.hit
