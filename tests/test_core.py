"""Memory state tests: neurons, associations, clamped updates, exports."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralstore.codec import Payload
from neuralstore.core import (
    ConfigurationError,
    HiveParams,
    Memory,
    SnapshotFormatError,
    clamp_weight,
    format_snapshot,
    parse_snapshot,
    render_dot,
)
from tests.conftest import build_walkthrough
from tests.helpers import (
    assert_same_state,
    engine_with,
    neuron_count,
    size_of,
    strength_of,
)
from tests.reference import Model


def make_memory(**overrides) -> Memory:
    return Memory(HiveParams(**overrides))


def payload(n: int = 100) -> Payload:
    return Payload.from_bytes(bytes((i * 13) % 256 for i in range(n)))


def feat(memory, data: bytes) -> np.ndarray:
    return memory.extractor.extract(data)


class TestParamsValidation:
    def test_defaults_valid(self):
        HiveParams().validate()

    @pytest.mark.parametrize("overrides", [
        {"eta": 0.0},
        {"epsilon": -1.0},
        {"phi": 101.0},
        {"retention_period": 0},
        {"memory_decay_rates": [-1.0, 1.0]},
        {"elasticity_schedules": [[80, 90, 1], [80, 1]]},
        {"elasticity_schedules": [[80, 0.5], [80, 1]]},
        {"memory_decay_rates": [0.5, 1.0, 1.0]},  # list lengths do not match
    ])
    def test_invalid_params_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            HiveParams(**overrides).validate()


class TestCueNeurons:
    def test_first_cue_in_empty_hive_gets_id_zero_and_no_edges(self):
        memory = make_memory()
        cid = memory.add_cue_neuron(label="wolf")
        assert cid == 0
        assert len(memory.weights) == 0

    def test_duplicate_label_is_idempotent(self):
        memory = make_memory()
        a = memory.add_cue_neuron(label="wolf")
        b = memory.add_cue_neuron(label="wolf")
        assert a == b



class TestDataNeurons:
    def test_new_neuron_full_strength_one_default_edge(self):
        memory = make_memory()
        dn = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        assert strength_of(memory, dn) == 100.0
        default = memory.localities[0].default_cue_id
        assert memory.weights[default, dn] == memory.params.epsilon
        assert len(memory.weights) == 1

    def test_two_neurons_distinct_ids(self):
        memory = make_memory()
        a = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        b = memory.add_data_neuron(0, payload(50), feat(memory, payload(50).blob))
        assert a != b
        assert strength_of(memory, b) == 100.0

    def test_unknown_locality_rejected(self):
        memory = make_memory()
        with pytest.raises(ConfigurationError):
            memory.add_data_neuron(9, payload(), feat(memory, payload().blob))


class TestAdjustments:
    def test_weight_decay_formula(self):
        memory = make_memory()
        a = memory.add_cue_neuron(label="x")
        dn = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        memory.associate(a, dn)
        memory.adjust_association(a, dn, -29.0)  # bring to 30
        assert memory.weights[a, dn] == 30.0
        assert memory.adjust_association(a, dn, 10.0) == 20.0

    def test_weight_clamp_floor(self):
        memory = make_memory(epsilon=5.0)
        a = memory.add_cue_neuron(label="x")
        dn = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        memory.associate(a, dn)            # at epsilon = 5
        assert memory.adjust_association(a, dn, 60.0) == 5.0

    def test_strengthen_by_negative_delta(self):
        memory = make_memory()
        a = memory.add_cue_neuron(label="x")
        dn = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        memory.associate(a, dn)
        memory.adjust_association(a, dn, -19.0)  # 1 -> 20
        assert memory.adjust_association(a, dn, -20.0) == 40.0

    def test_strength_decay_and_recompression(self):
        memory = make_memory()
        dn = memory.add_data_neuron(0, payload(1000),
                                    feat(memory, payload(1000).blob))
        assert memory.adjust_strength(dn, 0.5) == 99.5
        assert memory.payload(dn).quality == 99.5
        assert size_of(memory, dn) == 995

    def test_strength_clamp_floor(self):
        memory = make_memory()
        dn = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        memory.adjust_strength(dn, 98.8)   # 100 -> 1.2
        assert strength_of(memory, dn) == pytest.approx(1.2)
        assert memory.adjust_strength(dn, 10.0) == 1.0

    def test_restore_does_not_resurrect_quality(self):
        memory = make_memory()
        dn = memory.add_data_neuron(0, payload(1000),
                                    feat(memory, payload(1000).blob))
        memory.adjust_strength(dn, 20.0)
        assert memory.adjust_strength(dn, -100.0) == 100.0
        assert strength_of(memory, dn) == 100.0
        assert memory.payload(dn).quality == 80.0
        assert size_of(memory, dn) == 800


class TestAssociationContract:
    """An association leads from a cue to a data neuron: every call that
    names one takes the cue and then the data neuron, and refuses any other
    pair with a KeyError naming the offending id, changing nothing."""

    def seeded(self):
        memory = make_memory()
        cue = memory.add_cue_neuron(label="x")
        other = memory.add_cue_neuron(label="y")
        dn = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        dn2 = memory.add_data_neuron(0, payload(50),
                                     feat(memory, payload(50).blob))
        memory.associate(cue, dn)
        memory.adjust_association(cue, dn, -7.5)
        return memory, cue, other, dn, dn2

    def state(self, memory) -> tuple:
        return (dict(memory.weights), dict(memory.edge_access),
                {c: list(o) for c, o in memory.search_order.items()})

    def test_keys_are_cue_then_data_neuron(self):
        memory, cue, _, dn, dn2 = self.seeded()
        default = memory.localities[0].default_cue_id
        assert memory.weights == {(default, dn): 1.0, (default, dn2): 1.0,
                                  (cue, dn): 8.5}
        assert memory.weights[cue, dn] == 8.5
        assert (cue, dn2) not in memory.weights

    @pytest.mark.parametrize("pair, bad", [
        (("dn", "dn2"), "dn"),          # data to data
        (("cue", "other"), "other"),    # cue to cue
        (("dn", "cue"), "dn"),          # reversed
        (("cue", "cue"), "cue"),        # a cue to itself
        ((99, "dn"), 99),               # unknown cue id
        (("cue", 99), 99),              # unknown data neuron id
    ])
    @pytest.mark.parametrize("call", ["associate", "adjust_association"])
    def test_any_other_pair_is_refused(self, call, pair, bad):
        memory, cue, other, dn, dn2 = self.seeded()
        ids = {"cue": cue, "other": other, "dn": dn, "dn2": dn2}
        a, b = (ids.get(x, x) for x in pair)
        before = self.state(memory)
        args = (a, b, -5.0) if call == "adjust_association" else (a, b)
        with pytest.raises(KeyError, match=rf"neuron {ids.get(bad, bad)} is"):
            getattr(memory, call)(*args)
        assert self.state(memory) == before

    def test_adjusting_an_absent_association_is_refused(self):
        memory, cue, _, _, dn2 = self.seeded()
        before = self.state(memory)
        with pytest.raises(KeyError, match=f"no association from {cue} to {dn2}"):
            memory.adjust_association(cue, dn2, -5.0)
        assert self.state(memory) == before


class TestClampRules:
    @given(weight=st.floats(1.0, 100.0), d1=st.floats(0.0, 120.0),
           d2=st.floats(0.0, 120.0))
    @settings(max_examples=80, deadline=None)
    def test_monotone_larger_decay_never_larger_weight(self, weight, d1, d2):
        lo, hi = min(d1, d2), max(d1, d2)
        assert clamp_weight(1.0, weight, hi) <= clamp_weight(1.0, weight, lo)

    @given(strength=st.floats(1.0, 100.0), delta=st.floats(-200.0, 200.0))
    @settings(max_examples=80, deadline=None)
    def test_strength_always_in_bounds(self, strength, delta):
        memory = make_memory()
        dn = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        memory.adjust_strength(dn, 100.0 - strength)
        assert 1.0 <= memory.adjust_strength(dn, delta) <= 100.0


class TestAdjustStrength:
    """``Memory.adjust_strength`` is ``adjust_strengths`` on one row: the
    reference model's scalar clamp and truncation, bit for bit."""

    @pytest.mark.parametrize("phi", [0.0, 1.0, 30.0])
    def test_one_row_is_the_scalar_clamp(self, phi):
        engine = engine_with(phi=phi,
                             elasticity_schedules=[[80.0, max(phi, 1.0)]] * 2)
        model = Model(engine.params)
        rng = np.random.default_rng(int(phi))
        for size in (0, 1, 7, 1000, 1333):
            data = payload(size)
            for memory in (engine.memory, model):
                memory.add_data_neuron(0, data, feat(engine.memory, data.blob))
        dn_ids = list(model.neurons)
        deltas = [0.5, 33.3, -7.25, 1e-300, 0.0, -0.0, 99.0, 200.0, -200.0,
                  math.inf, -math.inf, math.nan]
        deltas += rng.uniform(-120.0, 120.0, 40).tolist()
        for i, delta in enumerate(deltas * 2):
            dn = dn_ids[i % len(dn_ids)]
            got = engine.memory.adjust_strength(dn, delta)
            want = model.adjust_strength(dn, delta)
            assert type(got) is float and got.hex() == want.hex(), delta
            assert_same_state(engine, model, delta)
            if math.isnan(delta):
                assert got == phi


class TestExports:
    def test_walkthrough_initial_state_layout(self):
        engine, _, _, ids = build_walkthrough()
        doc = parse_snapshot(engine.memory.export_graph("snapshot"))
        data = [n for n in doc.neurons if n["kind"] == "data"]
        cues = [n for n in doc.neurons if n["kind"] == "cue"]
        defaults = [n for n in cues if n["label"] is None]
        assert len(data) == 3
        assert sum(n["locality"] == 0 for n in data) == 2
        assert sum(n["locality"] == 1 for n in data) == 1
        assert len(defaults) == 2
        assert [n["label"] for n in cues if n["label"] is not None] == ["wolf"]
        assert all(e["weight"] == 1 for e in doc.edges.values())

    def test_empty_memory_export_is_header_only(self):
        memory = make_memory()
        text = memory.export_graph("snapshot")
        lines = text.strip().splitlines()
        assert lines[0] == "neuralstore-snapshot 2"
        # params and locality description only, no neurons/edges/orders
        assert [ln.split()[0] for ln in lines[1:]] == [
            "params", "locality", "locality"]
        assert parse_snapshot(text) == memory._snapshot_doc()

    def test_export_deterministic(self):
        engine, _, _, _ = build_walkthrough()
        memory = engine.memory
        assert memory.export_graph("snapshot") == memory.export_graph("snapshot")
        assert memory.export_graph("dot") == memory.export_graph("dot")

    def test_dot_names_cues_and_escapes_labels(self):
        memory = make_memory()
        memory.add_cue_neuron(label='a "b" \\ c')
        memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        dot = memory.export_graph("dot").splitlines()
        assert dot[2] == '  n0 [label="a \\"b\\" \\\\ c\\n#0" shape=ellipse];'
        assert dot[4] == '  n2 [label="default\\n#2" shape=doublecircle];'
        # the memory writes no cue without a label that is not a default,
        # so a snapshot holding one is refused
        text = memory.export_graph("snapshot").replace(
            "cue 0 label=a%20%22b%22%20%5C%20c", "cue 0 label=-")
        with pytest.raises(SnapshotFormatError) as caught:
            parse_snapshot(text)
        assert str(caught.value) == (
            "snapshot line 5: a cue has the label - if and only if a locality "
            "names it its default cue")

    def test_unknown_format_rejected(self):
        memory = make_memory()
        with pytest.raises(ValueError):
            memory.export_graph("yaml")

    def test_snapshot_parse_round_trip(self):
        engine, _, _, _ = build_walkthrough()
        text = engine.memory.export_graph("snapshot")
        doc = parse_snapshot(text)
        assert len(doc.neurons) == neuron_count(engine.memory)
        assert len(doc.edges) == len(engine.memory.weights)
        assert doc.orders  # search orders present after bootstrap
        # the orders derived from the edges are the maintained ones
        assert doc == engine.memory._snapshot_doc()
        assert format_snapshot(doc) == text
        assert render_dot(doc) == engine.memory.export_graph("dot")

    def test_a_key_the_memory_never_writes_is_refused(self):
        engine, _, _, _ = build_walkthrough()
        text = engine.memory.export_graph("snapshot")
        params = text.splitlines()[1]
        with pytest.raises(SnapshotFormatError) as caught:
            parse_snapshot(text.replace(" retention=", " full_graph=1 retention="))
        assert str(caught.value) == (
            f"snapshot line 2: malformed params line "
            f"{params.replace(' retention=', ' full_graph=1 retention=')!r}")

    def test_near_tied_weights_are_written_apart(self):
        # two edges of one cue whose weights differ in their 16th digit: at
        # ten digits both read 19.98, and the order derived from them puts
        # dn 0 first where the memory keeps dn 3 first
        memory = make_memory()
        dn0 = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        memory.add_cue_neuron("x")
        dn3 = memory.add_data_neuron(0, payload(90), feat(memory, payload(90).blob))
        cue = memory.localities[0].default_cue_id
        assert (dn0, cue, dn3) == (0, 1, 3)
        for dn in (dn0, dn3):
            memory.adjust_association(cue, dn, -19.0)
        memory.adjust_association(cue, dn0, 0.01)
        memory.adjust_association(cue, dn0, 0.01)
        memory.adjust_association(cue, dn3, 0.02)
        assert memory.weights[cue, dn0] == 19.979999999999997
        assert memory.weights[cue, dn3] == 19.98
        text = memory.export_graph("snapshot")
        doc = parse_snapshot(text)
        assert doc.orders[cue] == [(dn3, 19.98), (dn0, 19.979999999999997)]
        assert format_snapshot(doc) == text
        assert "order 1 3:19.98,0:19.979999999999997\n" in text

    def test_only_newlines_end_lines(self):
        engine, _, _, _ = build_walkthrough()
        text = engine.memory.export_graph("snapshot")
        with pytest.raises(SnapshotFormatError) as caught:
            parse_snapshot(text.replace("\n", "\r\n"))
        assert str(caught.value) == (
            "snapshot line 1: expected 'neuralstore-snapshot 2\\n', "
            "found 'neuralstore-snapshot 2\\r\\n'")

    def test_version_mismatch_rejected(self):
        with pytest.raises(SnapshotFormatError):
            parse_snapshot("neuralstore-snapshot 99\n")
        with pytest.raises(SnapshotFormatError):
            parse_snapshot("neuralstore-snapshot 1\n")
        with pytest.raises(SnapshotFormatError):
            parse_snapshot("something else\n")
        with pytest.raises(SnapshotFormatError):
            parse_snapshot("")


class TestSizeMonotonicity:
    @given(deltas=st.lists(st.floats(-120.0, 120.0), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_stored_size_never_rises_under_strength_cycles(self, deltas):
        # restoration raises strength but never resurrects lost bytes; only a
        # merge refresh may replace the payload with a larger copy
        memory = make_memory()
        dn = memory.add_data_neuron(0, payload(1000),
                                    feat(memory, payload(1000).blob))
        last_size = size_of(memory, dn)
        for delta in deltas:
            memory.adjust_strength(dn, delta)
            size = size_of(memory, dn)
            assert size <= last_size
            assert size <= memory.payload(dn).original_size
            last_size = size
