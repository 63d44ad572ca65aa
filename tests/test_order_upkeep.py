"""Search-order upkeep: each weight change moves its entry as it happens.

Every edge a reaction, a new data neuron or a retention pass changes or
creates is moved at once in its cue's order.  These tests check that the
orders are moved in place, never rebuilt, and, against the reference model
(which sorts a cue's whole order again after its weights change), that they
always equal a re-sort of the association weights.
"""

from __future__ import annotations

import numpy as np

from neuralstore.core import HiveParams
from neuralstore.engine import MemoryEngine, OpControls, oracle_search_order
from tests.helpers import blob, engine_with, maintained, run_both
from tests.reference import Model


def order_lists(engine) -> dict:
    """The list object each cue's order is held in."""
    return dict(engine.memory.search_order)


def assert_moved_in_place(engine, before: dict) -> None:
    """Every cue that had an order still holds the same list, and every
    order equals a re-sort of the association weights."""
    for cue_id, order in before.items():
        assert engine.memory.search_order[cue_id] is order, cue_id
    assert maintained(engine.memory) == oracle_search_order(engine.memory)


class TestReactionUpkeep:
    def test_every_op_moves_orders_in_place(self):
        engine = engine_with(association_decay_rates=[5.0, 5.0])
        extract = engine.memory.extractor.extract
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
            before, orders = order_lists(engine), maintained(engine.memory)
            assert op().kind == kind
            assert maintained(engine.memory) != orders, kind
            assert_moved_in_place(engine, before)
        # the first hit under a new cue gave it an order, and the merge
        # linked the new cue "cool" into one
        for label in ("alias", "cool"):
            assert engine.memory.find_cue_by_label(label) in engine.memory.search_order
        before, orders = order_lists(engine), maintained(engine.memory)
        engine.controls = decay
        summary = engine.retention(n=1)
        assert summary.weakened_edges
        assert maintained(engine.memory) != orders
        assert_moved_in_place(engine, before)

    def test_failed_retrieve_without_decay_moves_nothing(self):
        engine = engine_with()
        for cluster in range(4):
            engine.store(blob(cluster), "hot")
        before, orders = order_lists(engine), maintained(engine.memory)
        foreign = engine.memory.extractor.extract(blob(5, cls=1))
        out = engine.retrieve("hot", foreign)
        assert out.kind == "miss" and out.cost == 4
        assert maintained(engine.memory) == orders
        assert_moved_in_place(engine, before)

    def test_direct_reaction_keeps_orders_current(self):
        engine = engine_with()
        a = engine.store(blob(0), "hot").dn_id
        b = engine.store(blob(1), "hot").dn_id
        cue = engine.memory.find_cue_by_label("hot")
        assert [e.dn_id for e in engine.memory.search_order[cue]] == [a, b]
        before = order_lists(engine)
        engine.reaction(b, cue, flag=1)
        assert [e.dn_id for e in engine.memory.search_order[cue]] == [b, a]
        assert_moved_in_place(engine, before)
        engine.controls = OpControls(weaken_on_fail=True)
        engine.reaction(b, cue, flag=0)
        assert_moved_in_place(engine, before)


class TestDifferentialAgainstTheModel:
    def test_mixed_controls_match_the_model(self):
        params = HiveParams(memory_decay_rates=[0.5, 1.0],
                            association_decay_rates=[0.5, 2.0],
                            locality_mapping=[{"labels": ["hot"]}, {}],
                            eta=7.0, epsilon=1.0, phi=1.0, retention_period=97)
        engine, model = MemoryEngine(params), Model(params)
        rng = np.random.default_rng(31)
        pool = [blob(cluster, cls=cls) for cls in range(2) for cluster in range(40)]
        features = [engine.memory.extractor.extract(p) for p in pool]
        labels = ["hot", "warm", "cool"]
        for i in range(700):
            key = int(rng.integers(len(pool)))
            op = "store" if i < 60 or rng.random() < 0.3 else "retrieve"
            # unknown cues reach data through the default cues and then
            # join the cue bank on a hit
            cue = labels[int(rng.integers(3))] if rng.random() < 0.85 \
                else f"alias-{int(rng.integers(8))}"
            fine = features[key] if rng.random() < 0.9 else None
            engine.controls = model.controls = OpControls(
                weaken_on_fail=bool(rng.random() < 0.5))
            args = (pool[key], cue) if op == "store" else (cue, fine)
            run_both(engine, model, op, *args)
            assert maintained(engine.memory) == oracle_search_order(
                engine.memory), f"op {i}"
