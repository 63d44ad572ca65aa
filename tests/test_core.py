"""Memory state tests: neurons, associations, clamped updates, exports."""

from __future__ import annotations

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
    clamp_strength,
    clamp_weight,
    parse_snapshot,
    render_dot,
)
from tests.conftest import build_walkthrough


def make_memory(**overrides) -> tuple[Memory, object]:
    memory = Memory(HiveParams(**overrides))
    return memory, memory.hive


def payload(n: int = 100) -> Payload:
    return Payload.from_bytes(bytes((i * 13) % 256 for i in range(n)))


def feat(memory, data: bytes) -> np.ndarray:
    return memory.hive.extractor.extract(data)


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
        memory, hive = make_memory()
        cid = memory.add_cue_neuron(label="wolf")
        assert cid == 0
        assert len(memory.weights) == 0

    def test_duplicate_label_is_idempotent(self):
        memory, hive = make_memory()
        a = memory.add_cue_neuron(label="wolf")
        b = memory.add_cue_neuron(label="wolf")
        assert a == b



class TestDataNeurons:
    def test_new_neuron_full_strength_one_default_edge(self):
        memory, hive = make_memory()
        dn = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        neuron = memory.data_neuron(dn)
        assert neuron.strength == 100.0
        default = hive.localities[0].default_cue_id
        assert memory.weights[default, dn] == hive.params.epsilon
        assert len(memory.weights) == 1

    def test_two_neurons_distinct_ids(self):
        memory, hive = make_memory()
        a = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        b = memory.add_data_neuron(0, payload(50), feat(memory, payload(50).blob))
        assert a != b
        assert memory.data_neuron(b).strength == 100.0

    def test_unknown_locality_rejected(self):
        memory, hive = make_memory()
        with pytest.raises(ConfigurationError):
            memory.add_data_neuron(9, payload(), feat(memory, payload().blob))


class TestAdjustments:
    def test_weight_decay_formula(self):
        memory, hive = make_memory()
        a = memory.add_cue_neuron(label="x")
        dn = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        memory.associate(a, dn)
        memory.adjust_association(a, dn, -29.0)  # bring to 30
        assert memory.weights[a, dn] == 30.0
        assert memory.adjust_association(a, dn, 10.0) == 20.0

    def test_weight_clamp_floor(self):
        memory, hive = make_memory(epsilon=5.0)
        a = memory.add_cue_neuron(label="x")
        dn = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        memory.associate(a, dn)            # at epsilon = 5
        assert memory.adjust_association(a, dn, 60.0) == 5.0

    def test_strengthen_by_negative_delta(self):
        memory, hive = make_memory()
        a = memory.add_cue_neuron(label="x")
        dn = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        memory.associate(a, dn)
        memory.adjust_association(a, dn, -19.0)  # 1 -> 20
        assert memory.adjust_association(a, dn, -20.0) == 40.0

    def test_strength_decay_and_recompression(self):
        memory, hive = make_memory()
        dn = memory.add_data_neuron(0, payload(1000),
                                    feat(memory, payload(1000).blob))
        assert memory.adjust_strength(dn, 0.5) == 99.5
        neuron = memory.data_neuron(dn)
        assert neuron.payload.quality == 99.5
        assert neuron.size_bytes == 995

    def test_strength_clamp_floor(self):
        memory, hive = make_memory()
        dn = memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        memory.adjust_strength(dn, 98.8)   # 100 -> 1.2
        assert memory.data_neuron(dn).strength == pytest.approx(1.2)
        assert memory.adjust_strength(dn, 10.0) == 1.0

    def test_restore_does_not_resurrect_quality(self):
        memory, hive = make_memory()
        dn = memory.add_data_neuron(0, payload(1000),
                                    feat(memory, payload(1000).blob))
        memory.adjust_strength(dn, 20.0)
        assert memory.adjust_strength(dn, -100.0) == 100.0
        neuron = memory.data_neuron(dn)
        assert neuron.strength == 100.0
        assert neuron.payload.quality == 80.0
        assert neuron.size_bytes == 800


class TestAssociationContract:
    """An association leads from a cue to a data neuron: every call that
    names one takes the cue and then the data neuron, and refuses any other
    pair with a KeyError naming the offending id, changing nothing."""

    def seeded(self):
        memory, hive = make_memory()
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
                {c: list(o) for c, o in memory.hive.search_order.items()})

    def test_keys_are_cue_then_data_neuron(self):
        memory, cue, _, dn, dn2 = self.seeded()
        default = memory.hive.localities[0].default_cue_id
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
        assert 1.0 <= clamp_strength(1.0, strength, delta) <= 100.0


class TestExports:
    def test_walkthrough_initial_state_layout(self):
        engine, _, _, ids = build_walkthrough()
        doc = parse_snapshot(engine.memory.export_graph("snapshot"))
        data = [n for n in doc.neurons if n["kind"] == "data"]
        cues = [n for n in doc.neurons if n["kind"] == "cue"]
        defaults = [n for n in cues if n["default"] == "1"]
        assert len(data) == 3
        assert sum(n["locality"] == "0" for n in data) == 2
        assert sum(n["locality"] == "1" for n in data) == 1
        assert len(defaults) == 2
        assert [n["label"] for n in cues if n["default"] == "0"] == ["wolf"]
        assert all(e["weight"] == "1" for e in doc.edges)

    def test_empty_memory_export_is_header_only(self):
        memory, _ = make_memory()
        text = memory.export_graph("snapshot")
        lines = text.strip().splitlines()
        assert lines[0].startswith("neuralstore-snapshot 1")
        # hive/locality description only, no neurons/edges/orders
        assert all(ln.split()[0] in ("hive", "locality") for ln in lines[1:])

    def test_export_deterministic(self):
        engine, _, _, _ = build_walkthrough()
        memory = engine.memory
        assert memory.export_graph("snapshot") == memory.export_graph("snapshot")
        assert memory.export_graph("dot") == memory.export_graph("dot")

    def test_dot_names_cues_and_escapes_labels(self):
        memory, _ = make_memory()
        memory.add_cue_neuron(label='a "b" \\ c')
        memory.add_data_neuron(0, payload(), feat(memory, payload().blob))
        dot = memory.export_graph("dot").splitlines()
        assert dot[2] == '  n0 [label="a \\"b\\" \\\\ c\\n#0" shape=ellipse];'
        assert dot[4] == '  n2 [label="default\\n#2" shape=doublecircle];'
        # only a snapshot can hold a cue with no label that is not a default
        text = memory.export_graph("snapshot").replace(
            "cue 0 hive=0 label=a%20%22b%22%20%5C%20c", "cue 0 hive=0 label=-")
        dot = render_dot(parse_snapshot(text)).splitlines()
        assert dot[2] == '  n0 [label="cue\\n#0" shape=ellipse];'

    def test_unknown_format_rejected(self):
        memory, _ = make_memory()
        with pytest.raises(ValueError):
            memory.export_graph("yaml")

    def test_snapshot_parse_round_trip(self):
        engine, _, _, _ = build_walkthrough()
        text = engine.memory.export_graph("snapshot")
        doc = parse_snapshot(text)
        assert doc.version == 1
        assert len(doc.neurons) == len(engine.memory.neurons)
        assert len(doc.edges) == len(engine.memory.weights)
        assert doc.orders  # search orders present after bootstrap

    def test_keys_a_snapshot_does_not_always_carry_are_read_as_text(self):
        engine, _, _, _ = build_walkthrough()
        text = engine.memory.export_graph("snapshot")
        doc = parse_snapshot(text.replace(" retention=", " full_graph=1 retention="))
        assert doc.hives[0]["full_graph"] == "1"
        assert render_dot(doc) == engine.memory.export_graph("dot")

    def test_version_mismatch_rejected(self):
        with pytest.raises(SnapshotFormatError):
            parse_snapshot("neuralstore-snapshot 99\n")
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
        memory, hive = make_memory()
        dn = memory.add_data_neuron(0, payload(1000),
                                    feat(memory, payload(1000).blob))
        last_size = memory.data_neuron(dn).size_bytes
        for delta in deltas:
            memory.adjust_strength(dn, delta)
            size = memory.data_neuron(dn).size_bytes
            assert size <= last_size
            assert size <= memory.data_neuron(dn).payload.original_size
            last_size = size
