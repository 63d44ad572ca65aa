"""Input validation: non-finite hyperparameters, mistyped config fields and
malformed trace and manifest rows.

Bad input must end in a ConfigurationError, or exit code 2 from the CLI,
with a message that names the field (and, for traces and manifests, the
line).  Arbitrary trace and manifest rows either parse or fail that way.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neuralstore.cli import main
from neuralstore.config import load_config
from neuralstore.core import ConfigurationError, HiveParams
from neuralstore.engine import MemoryEngine, OpControls, SearchParams
from neuralstore.workload import read_manifest, read_trace
from tests.helpers import write_config

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("field, value", [
    ("eta", NAN),
    ("eta", INF),
    ("epsilon", NAN),
    ("epsilon", INF),
    ("memory_decay_rates", [NAN, 1.0]),
    ("association_decay_rates", [0.0, NAN]),
    ("elasticity_schedules", [[80.0, NAN, 1.0], [80.0, 1.0]]),
    ("capacity_bytes", NAN),
    ("memory_decay_rates", (1.0, NAN)),
])
def test_non_finite_hive_params_rejected(field, value):
    with pytest.raises(ConfigurationError, match=field):
        HiveParams(**{field: value}).validate()


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_non_finite_assoc_thresh_rejected(value):
    with pytest.raises(ConfigurationError,
                       match=r"^search\.assoc_thresh must be finite$"):
        SearchParams(assoc_thresh=value).validate()


@pytest.mark.parametrize("cls, field, value", [
    (SearchParams, "match_thresh", "0.9"),
    (SearchParams, "assoc_thresh", None),
    (SearchParams, "assoc_thresh", True),
    (OpControls, "search_limit", "3"),
    (OpControls, "search_limit", 2.5),
    (OpControls, "weaken_on_fail", "yes"),
])
def test_mistyped_search_and_control_fields_rejected(cls, field, value):
    # type checks come before the range checks, which assume the types; the
    # field is named by its config path
    section = "search" if cls is SearchParams else "controls"
    message = rf"^{section}\.{field} must be "
    with pytest.raises(ConfigurationError, match=message):
        cls(**{field: value}).validate()
    with pytest.raises(ConfigurationError, match=message):
        MemoryEngine(**{section: cls(**{field: value})})


def test_well_typed_search_and_control_fields_pass():
    SearchParams(assoc_thresh=0, match_thresh=np.float64(0.5)).validate()
    OpControls(search_limit=np.int64(3), weaken_on_fail=True).validate()


@pytest.mark.parametrize("kwargs, field", [
    ({"controls": OpControls(search_limit=0)}, "search_limit"),
    ({"controls": OpControls(weaken_on_fail="yes")}, "weaken_on_fail"),
    ({"search": SearchParams(match_thresh=7.0)}, "match_thresh"),
    ({"search": SearchParams(assoc_thresh=NAN)}, "assoc_thresh"),
])
def test_engine_refuses_bad_search_and_controls_when_built(kwargs, field):
    # no operation overrides the engine's settings, so the constructor is
    # where every bad value is refused
    with pytest.raises(ConfigurationError, match=field):
        MemoryEngine(HiveParams(locality_mapping=[{"labels": ["hot"]}, {}]),
                     **kwargs)


@pytest.mark.parametrize("section, field, value", [
    ("hive", "eta", NAN),
    ("hive", "epsilon", INF),
    ("hive", "memory_decay_rates", [0.5, NAN]),
    ("hive", "elasticity_schedules",
     [[80, 70, 60, 50, 40, 30, 20, 10, 1], [80, NAN, 1]]),
    ("search", "assoc_thresh", NAN),
])
def test_cli_exits_2_on_non_finite_config(tmp_path, capsys, section, field,
                                          value):
    # json writes NaN and Infinity literals, which json.loads accepts back
    config = write_config(tmp_path, **{section: {field: value}})
    assert main(["generate", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("hive, message", [
    ({"eta": NAN}, "hive.eta must be finite"),
    ({"memory_decay_rates": [-1.0, 1.0]},
     "hive.memory_decay_rates must be >= 0"),
    ({"elasticity_schedules": [[80, 90, 1], [80, 1]]},
     "hive.elasticity_schedules[0] must be strictly decreasing"),
    ({"elasticity_schedules": [[80, 1], []]},
     "hive.elasticity_schedules[1] must not be empty"),
    ({"phi": 5.0, "elasticity_schedules": [[80, 1], [80, 5]]},
     "hive.elasticity_schedules[0] must end at >= max(phi, 1)"),
])
def test_cli_names_the_hive_path_of_a_bad_value(tmp_path, capsys, hive,
                                                message):
    # a range error names its field as the config does, like a type error
    config = write_config(tmp_path, hive=hive)
    assert main(["generate", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("section, value, message", [
    ("workload", {"payload_size_range": [0, 3]},
     "workload.payload_size_range must satisfy 1 <= lo <= hi"),
    ("workload", {"n_items": -1}, "workload.n_items must be >= 0"),
    ("workload", {"priority_bias": 2}, "workload.priority_bias must be in [0, 1]"),
    ("workload", {"n_retrievals": -1}, "workload.n_retrievals must be >= 0"),
    ("workload", {"items_per_cluster": 0},
     "workload.items_per_cluster must be >= 1"),
    ("workload", {"class_labels": []}, "workload.class_labels must not be empty"),
    ("workload", {"tail_retentions": -1}, "workload.tail_retentions must be >= 0"),
    ("workload", {"kind": "scan"},
     "workload.kind must be 'clustered' or 'walkthrough', got 'scan'"),
    ("search", {"match_thresh": 2}, "search.match_thresh must be in [-1, 1]"),
    ("controls", {"search_limit": 0},
     "controls.search_limit must be >= 1 or null"),
    ("compare", {"warmup_ops": -1}, "compare.warmup_ops must be >= 0"),
])
def test_out_of_range_config_value_is_named_by_path(tmp_path, capsys, section,
                                                    value, message):
    config = write_config(tmp_path, **{section: value})
    with pytest.raises(ConfigurationError) as caught:
        load_config(config)
    assert str(caught.value) == message
    assert main(["generate", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


class TestTraceParseErrors:
    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trace-errors")
        config = write_config(tmp)
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp / "data")]) == 0
        return config, tmp / "data"

    @pytest.mark.parametrize("row, expected", [
        ('{"op": "retention"}', "line 3: missing field 'seq'"),
        ('{"seq": 1}', "line 3: missing field 'op'"),
        ('{"seq": "one", "op": "retention"}', "line 3: field 'seq' must be an integer"),
        ('{"seq": 1.5, "op": "retention"}', "line 3: field 'seq' must be an integer"),
        ('{"seq": 1, "op": ', "line 3: invalid JSON"),
        ('[1, "retention"]', "line 3: expected a JSON object"),
    ])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_bad_row_exits_2_naming_line_and_field(
            self, generated, tmp_path, capsys, command, row, expected):
        config, data = generated
        lines = (data / "trace.jsonl").read_text().splitlines()
        # header, one good record, then the bad one
        bad = tmp_path / "trace.jsonl"
        bad.write_text("\n".join([lines[0], lines[1], row] + lines[2:]) + "\n")
        code = main([command, "--config", str(config), "--trace", str(bad),
                     "--manifest", str(data / "manifest.jsonl"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert expected in err and str(bad) in err

    def test_bad_header_names_line_1(self, generated, tmp_path, capsys):
        config, data = generated
        bad = tmp_path / "trace.jsonl"
        bad.write_text("{not json\n")
        assert main(["run", "--config", str(config), "--trace", str(bad),
                     "--manifest", str(data / "manifest.jsonl"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "line 1: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("seqs, expected", [
        ([0, 1, 1, -7], "line 4: seq 1 must be >= 2"),
        ([0, -7], "line 3: seq -7 must be >= 1"),
        ([-1], "line 2: seq -1 must be >= 0"),
        ([0, 2, 1], "line 4: seq 1 must be >= 3"),
    ])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_seq_that_does_not_increase_is_named(
            self, generated, tmp_path, capsys, command, seqs, expected):
        config, data = generated
        lines = (data / "trace.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines[1:]]
        for row, seq in zip(rows, seqs):
            row["seq"] = seq
        bad = tmp_path / "trace.jsonl"
        bad.write_text("\n".join([lines[0]] + [json.dumps(r) for r in rows])
                       + "\n")
        with pytest.raises(ConfigurationError, match=re.escape(expected)):
            read_trace(bad)
        code = main([command, "--config", str(config), "--trace", str(bad),
                     "--manifest", str(data / "manifest.jsonl"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{bad}: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("cues", [[], ["deer", "background"]])
    @pytest.mark.parametrize("op", ["store", "retrieve"])
    @pytest.mark.parametrize("command", ["run", "compare", "run --engine cam"])
    def test_record_without_exactly_one_coarse_cue_is_named(
            self, generated, tmp_path, capsys, command, op, cues):
        # the engine takes one label per op; the trace format keeps a list,
        # and the CAM, which reads no cue, is held to the same trace
        config, data = generated
        lines = (data / "trace.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines[1:]]
        row = next(r for r in rows if r["op"] == op)
        row["coarse_cues"] = cues
        bad = tmp_path / "trace.jsonl"
        bad.write_text("\n".join([lines[0]] + [json.dumps(r) for r in rows])
                       + "\n")
        code = main([*command.split(), "--config", str(config),
                     "--trace", str(bad),
                     "--manifest", str(data / "manifest.jsonl"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: record {row['seq']}: {op} needs exactly one coarse cue, "
            f"got {cues!r}\n")

    def test_seqs_may_skip(self, generated, tmp_path):
        _, data = generated
        lines = (data / "trace.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines[1:]]
        for row in rows:
            row["seq"] = 3 * row["seq"] + 5
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join([lines[0]] + [json.dumps(r) for r in rows])
                         + "\n")
        assert [r.seq for r in read_trace(trace)] == [r["seq"] for r in rows]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


# (section, field, whether a JSON value has the field's type)
TYPED_FIELDS = [
    ("hive", "retention_period", _is_int),
    ("hive", "feature_dim", _is_int),
    ("hive", "eta", _is_number),
    ("hive", "phi", _is_number),
    ("hive", "memory_decay_rates", _is_list_of(_is_number)),
    ("hive", "elasticity_schedules", _is_list_of(_is_list_of(_is_number))),
    ("hive", "locality_mapping", _is_list_of(lambda v: isinstance(v, dict))),
    ("hive", "capacity_bytes", lambda v: v is None or _is_int(v)),
    ("search", "match_thresh", _is_number),
    ("controls", "search_limit", lambda v: v is None or _is_int(v)),
    ("workload", "n_items", _is_int),
    ("workload", "priority_bias", _is_number),
    ("workload", "payload_size_range",
     lambda v: _is_list_of(_is_int)(v) and len(v) == 2),
    ("workload", "class_labels", _is_list_of(lambda x: isinstance(x, str))),
    ("workload", "kind", lambda v: isinstance(v, str)),
    ("compare", "cap_fractions", _is_list_of(_is_number)),
    ("compare", "warmup_ops", _is_int),
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=2),
    max_leaves=6)

MISTYPED = st.sampled_from(TYPED_FIELDS).flatmap(
    lambda f: st.tuples(st.just(f[:2]), JSON_VALUES.filter(lambda v: not f[2](v))))


@pytest.mark.parametrize("section, field, value, message", [
    ("workload", "n_items", 3.5, "workload.n_items must be int, got 3.5"),
    ("hive", "retention_period", "5",
     "hive.retention_period must be int, got '5'"),
    ("hive", "feature_dim", True, "hive.feature_dim must be int, got True"),
])
def test_mistyped_config_field_is_named(tmp_path, capsys, section, field,
                                        value, message):
    config = write_config(tmp_path, **{section: {field: value}})
    with pytest.raises(ConfigurationError) as caught:
        load_config(config)
    assert str(caught.value) == message
    assert main(["generate", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == 2
    assert message in capsys.readouterr().err


@given(mistyped=MISTYPED)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzz_mistyped_config_fields(tmp_path, capsys, mistyped):
    (section, field), value = mistyped
    config = write_config(tmp_path, **{section: {field: value}})
    with pytest.raises(ConfigurationError, match=f"{section}.{field} must be"):
        load_config(config)
    assert main(["generate", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == 2
    assert f"{section}.{field} must be" in capsys.readouterr().err


@given(mistyped=MISTYPED.filter(lambda m: m[0][0] == "hive"))
@settings(max_examples=150, deadline=None)
def test_fuzz_mistyped_hive_params_named_by_validate(mistyped):
    (_, field), value = mistyped
    with pytest.raises(ConfigurationError, match=rf"^hive\.{field} must be"):
        HiveParams(**{field: value}).validate()


def test_hive_params_take_tuples_and_numpy_numbers():
    HiveParams(memory_decay_rates=(0.5, 1.0),
               elasticity_schedules=((80, 1), [50.0, 1.0]),
               locality_mapping=({"labels": ("deer",)}, {}),
               retention_period=np.int64(5), eta=np.float64(2.5),
               phi=np.int32(1)).validate()
    with pytest.raises(ConfigurationError) as caught:
        HiveParams(retention_period="5").validate()
    assert str(caught.value) == "hive.retention_period must be int, got '5'"


# localities are chosen by label only: a mapping key other than "labels",
# the removed centroid predicate's too, and labels that are not a list of
# strings are refused by name
@pytest.mark.parametrize("mappings, message", [
    ([{"centroid": [1.0] * 64}, {}],
     "unknown key(s) in hive.locality_mapping[0]: centroid"),
    ([{"labels": ["deer"], "min_similarity": 0.95}, {}],
     "unknown key(s) in hive.locality_mapping[0]: min_similarity"),
    ([{"labels": ["deer"]}, {"centroid": [0.0] * 64, "min_similarity": 1}],
     "unknown key(s) in hive.locality_mapping[1]: centroid, min_similarity"),
    ([{"label": "deer"}, {}],
     "unknown key(s) in hive.locality_mapping[0]: label"),
    # a bare string would admit its substrings
    ([{"labels": "deer"}, {}],
     "hive.locality_mapping[0].labels must be list[str], got 'deer'"),
    ([{}, {"labels": ["deer", 3]}],
     "hive.locality_mapping[1].labels must be list[str], got ['deer', 3]"),
])
def test_locality_mapping_other_than_labels_is_named(tmp_path, capsys,
                                                     mappings, message):
    with pytest.raises(ConfigurationError) as caught:
        HiveParams(locality_mapping=mappings).validate()
    assert str(caught.value) == message
    config = write_config(tmp_path, hive={"locality_mapping": mappings})
    assert main(["generate", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("extra, message", [
    ({"cam": {"key_by_label": False}}, "unknown key(s) in config: cam"),
    ({"cam": {"policy": "lru", "key_by_label": True}},
     "unknown key(s) in config: cam"),
    ({"cam": {"policy": "fifo"}}, "unknown key(s) in config: cam"),
    ({"engine": "ns"}, "unknown key(s) in config: engine"),
    ({"hive": {"num_localities": 2}}, "unknown key(s) in hive: num_localities"),
    ({"hive": {"extractor_seed": 7}}, "unknown key(s) in hive: extractor_seed"),
    ({"workload": {"n_classes": 2}}, "unknown key(s) in workload: n_classes"),
    ({"workload": {"priority_class": "deer"}},
     "unknown key(s) in workload: priority_class"),
    ({"workload": {"use_fine_cue": True}},
     "unknown key(s) in workload: use_fine_cue"),
    ({"workload": {"tail_retention_window": 1}},
     "unknown key(s) in workload: tail_retention_window"),
])
def test_removed_config_key_is_refused_by_name(tmp_path, capsys, extra,
                                               message):
    """Set even to its old default, a removed setting is refused, not
    ignored."""
    config = write_config(tmp_path, **extra)
    with pytest.raises(ConfigurationError) as caught:
        load_config(config)
    assert str(caught.value) == message
    assert main(["generate", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("hive, message", [
    ({"memory_decay_rates": [0.5, 1.0, 1.0]},
     "hive.memory_decay_rates must have 2 entries, one per locality_mapping "
     "entry"),
    ({"association_decay_rates": [0.0]},
     "hive.association_decay_rates must have 2 entries, one per "
     "locality_mapping entry"),
    ({"elasticity_schedules": [[80, 1]] * 3},
     "hive.elasticity_schedules must have 2 entries, one per "
     "locality_mapping entry"),
    ({"locality_mapping": [{"labels": ["deer"]}, {"labels": ["x"]}, {}]},
     "hive.memory_decay_rates must have 3 entries, one per locality_mapping "
     "entry; hive.association_decay_rates must have 3 entries, one per "
     "locality_mapping entry; hive.elasticity_schedules must have 3 entries, "
     "one per locality_mapping entry"),
    ({"locality_mapping": [], "memory_decay_rates": [],
      "association_decay_rates": [], "elasticity_schedules": []},
     "hive.locality_mapping must not be empty"),
])
def test_per_locality_lists_of_other_lengths_exit_2_naming_the_list(
        tmp_path, capsys, hive, message):
    config = write_config(tmp_path, hive=hive)
    with pytest.raises(ConfigurationError) as caught:
        load_config(config)
    assert str(caught.value) == message
    assert main(["generate", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("locality", [2, -1, 10**9])
def test_bootstrap_locality_out_of_range_is_named(tmp_path, capsys, locality):
    config = write_config(tmp_path, bootstrap=[
        {"item_id": "item-0000"}, {"item_id": "item-0001",
                                   "locality": locality}])
    message = f"bootstrap[1].locality must be in [0, 2), got {locality}"
    with pytest.raises(ConfigurationError) as caught:
        load_config(config)
    assert str(caught.value) == message
    assert main(["generate", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == 2
    assert message in capsys.readouterr().err


def test_bootstrap_vector_cue_is_named(tmp_path, capsys):
    config = write_config(tmp_path, bootstrap=[
        {"item_id": "item-0000", "cues": ["deer", [1.0, 2.0, 3.0]]}])
    message = ("bootstrap[0].cues must be list[str], got "
               "['deer', [1.0, 2.0, 3.0]]")
    with pytest.raises(ConfigurationError) as caught:
        load_config(config)
    assert str(caught.value) == message
    assert main(["generate", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == 2
    assert message in capsys.readouterr().err


def test_bootstrap_with_several_cues_is_named(tmp_path, capsys):
    # a bootstrapped datum takes one label, as every operation does
    config = write_config(tmp_path, bootstrap=[
        {"item_id": "item-0000", "cues": ["deer"]},
        {"item_id": "item-0001", "cues": ["deer", "background"]}])
    message = ("bootstrap[1].cues must hold at most one label, got "
               "['deer', 'background']")
    with pytest.raises(ConfigurationError) as caught:
        load_config(config)
    assert str(caught.value) == message
    assert main(["generate", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # the check is RunConfig.validate's, so it holds for a config built in
    # code too; the walkthrough's one-label and no-label entries pass
    walkthrough = load_config(preset="walkthrough")
    assert [e.get("cues") for e in walkthrough.bootstrap] == \
        [["wolf"], ["wolf"], []]
    walkthrough.bootstrap[2]["cues"] = ["wolf", "fox"]
    with pytest.raises(ConfigurationError,
                       match=re.escape("bootstrap[2].cues must hold at most")):
        walkthrough.validate()


def test_bootstrap_item_missing_from_the_corpus_is_named(tmp_path, capsys):
    # the corpus is only known once a run reads its manifest
    config = write_config(tmp_path, bootstrap=[{"item_id": "nope"}])
    data = tmp_path / "data"
    assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(config), "--trace",
                 str(data / "trace.jsonl"), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == \
        "error: bootstrap[0].item_id 'nope' is not in the corpus\n"


@pytest.mark.parametrize("key, value", [
    ("full_graph", False),
    ("elasticity_mode", "ceiling"),
    ("strength_quality_map", "identity"),
    ("matching_metric", "cosine"),
    ("codec", "truncate"),
    ("extractor", "histogram"),
])
def test_removed_hive_key_exits_2_naming_it(tmp_path, capsys, key, value):
    # these options had a single behaviour in every preset and workload and
    # are gone; a config still setting one, even to its old default, fails
    config = write_config(tmp_path, hive={key: value})
    assert main(["generate", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == 2
    assert f"unknown key(s) in hive: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("doc, expected", [
    ({"seed": True}, "seed must be int, got True"),
    ({"seed": 1, "bootstrap": 5}, "bootstrap must be list[dict], got 5"),
    ({"seed": 1, "hive": 5}, "hive must be dict, got 5"),
    ({"seed": 1, "bootstrap": [{"item_id": 3}]},
     "bootstrap[0].item_id must be str, got 3"),
    ({"seed": 1, "bootstrap": [{"item_id": "a", "cue": []}]},
     "unknown key(s) in bootstrap[0]: cue"),
    ({"seed": 1, "hive": {"locality_mapping": [{"labels": "deer"}, {}]}},
     "hive.locality_mapping[0].labels must be list[str], got 'deer'"),
    ({"seed": 1, "hive": {"locality_mapping": [{}, {"centre": [1]}]}},
     "unknown key(s) in hive.locality_mapping[1]: centre"),
])
def test_mistyped_top_level_and_nested_entries(tmp_path, doc, expected):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError) as caught:
        load_config(path)
    assert str(caught.value) == expected


class TestRowFieldTypes:
    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("row-types")
        config = write_config(tmp)
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp / "data")]) == 0
        return config, tmp / "data"

    def _run(self, config, trace, manifest, tmp_path):
        return main(["run", "--config", str(config), "--trace", str(trace),
                     "--manifest", str(manifest), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("row, expected", [
        ('{"seq": 1, "op": 5}', "line 3: field 'op' must be a string, got 5"),
        ('{"seq": true, "op": "retention"}',
         "line 3: field 'seq' must be an integer, got True"),
        ('{"seq": 1, "op": "retrieve", "item_id": "x", "coarse_cues": "deer"}',
         "line 3: field 'coarse_cues' must be a list of strings, got 'deer'"),
        ('{"seq": 1, "op": "retrieve", "item_id": "x", "coarse_cues": ["a", 1]}',
         "line 3: field 'coarse_cues' must be a list of strings, got ['a', 1]"),
        ('{"seq": 1, "op": "retrieve", "item_id": "x", "use_fine_cue": "no"}',
         "line 3: field 'use_fine_cue' must be a boolean, got 'no'"),
        ('{"seq": 1, "op": "retention", "n": "1"}',
         "line 3: field 'n' must be an integer, got '1'"),
        ('{"seq": 1, "op": "store", "item_id": 7}',
         "line 3: field 'item_id' must be a string, got 7"),
    ])
    def test_mistyped_trace_field_exits_2(self, generated, tmp_path, capsys,
                                          row, expected):
        config, data = generated
        lines = (data / "trace.jsonl").read_text().splitlines()
        bad = tmp_path / "trace.jsonl"
        bad.write_text("\n".join([lines[0], lines[1], row] + lines[2:]) + "\n")
        assert self._run(config, bad, data / "manifest.jsonl",
                         tmp_path) == 2
        err = capsys.readouterr().err
        assert expected in err and str(bad) in err

    @pytest.mark.parametrize("change, expected", [
        ({"item_id": 5}, "line 2: field 'item_id' must be a string, got 5"),
        ({"label": None}, "line 2: field 'label' must be a string, got None"),
        ({"priority": "yes"}, "line 2: field 'priority' must be a boolean"),
        ({"path": ["a"]}, "line 2: field 'path' must be a string"),
        ({"path": None, "data_hex": "zz"},
         "line 2: field 'data_hex' is not hexadecimal"),
        ({"path": None}, "has no payload"),
    ])
    def test_mistyped_manifest_field_exits_2(self, generated, tmp_path, capsys,
                                             change, expected):
        config, data = generated
        lines = (data / "manifest.jsonl").read_text().splitlines()
        row = json.loads(lines[1])
        row.update(change)
        row = {k: v for k, v in row.items() if v is not None or k == "label"}
        # beside the good manifest, so payload paths resolve
        bad = data / f"manifest-{tmp_path.name}.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(row)] + lines[2:]) + "\n")
        assert self._run(config, data / "trace.jsonl", bad, tmp_path) == 2
        err = capsys.readouterr().err
        assert expected in err and str(bad) in err

    def test_manifest_header_of_invalid_json_names_line_1(
            self, generated, tmp_path, capsys):
        config, data = generated
        bad = tmp_path / "manifest.jsonl"
        bad.write_text("{not json\n")
        assert self._run(config, data / "trace.jsonl", bad, tmp_path) == 2
        assert "line 1: invalid JSON" in capsys.readouterr().err


# splitlines() breaks a line at these, so a text row must not hold them
ROW_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                   max_size=12)


@st.composite
def rows(draw, valid: list[dict], keys: list[str], values: list) -> str:
    """Any text, or a valid row with up to two of the reader's fields
    dropped and up to two fields (the reader's or others) set to arbitrary
    or telling values."""
    if draw(st.booleans()):
        return draw(ROW_TEXT)
    row = dict(draw(st.sampled_from(valid)))
    for key in draw(st.sets(st.sampled_from(keys), max_size=2)):
        row.pop(key, None)
    row.update(draw(st.dictionaries(
        st.sampled_from(keys) | st.text(max_size=3),
        JSON_VALUES | st.sampled_from(values), max_size=2)))
    return json.dumps(row)


TRACE_ROWS = rows(
    [{"seq": 99, "op": "retrieve", "item_id": "item-0000",
      "coarse_cues": ["deer"], "use_fine_cue": False},
     {"seq": 99, "op": "store", "item_id": "item-0001",
      "coarse_cues": ["background", "deer"]},
     {"seq": 99, "op": "retention", "n": 3}],
    ["seq", "op", "item_id", "coarse_cues", "use_fine_cue", "n"],
    [0, -1, 2**70, "store", "retrieve", "retention", "item-0002", [], True])
MANIFEST_ROWS = rows(
    [{"item_id": "item-0099", "label": "deer", "priority": True,
      "path": "payloads/item-0000.bin"},
     {"item_id": "extra", "label": "", "priority": False, "data_hex": "00ff"}],
    ["item_id", "label", "priority", "path", "data_hex"],
    ["item-0000", "item-0015", "payloads", "no-such.bin", "", "0", "zz",
     "a\u0000b"])


class TestArbitraryRows:
    """One arbitrary row appended to a generated trace or manifest."""

    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("arbitrary-rows")
        config = write_config(tmp)
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp / "data")]) == 0
        return config, tmp / "data"

    def _append(self, source, target, row: str) -> int:
        lines = source.read_text().splitlines() + [row]
        target.write_text("\n".join(lines) + "\n")
        return len(lines)

    def _check(self, reader, path, lineno: int) -> bool:
        """Whether the file parses; if not, the error names the line."""
        try:
            reader(path)
        except ConfigurationError as exc:
            assert f"{path}: line {lineno}:" in str(exc)
            return False
        return True

    def _run(self, config, trace, manifest, tmp_path, capsys):
        code = main(["run", "--config", str(config), "--trace", str(trace),
                     "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    @given(row=TRACE_ROWS)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_trace_row_parses_or_is_named(self, generated, tmp_path, capsys,
                                          row):
        config, data = generated
        trace = tmp_path / "trace.jsonl"
        lineno = self._append(data / "trace.jsonl", trace, row)
        parsed = self._check(read_trace, trace, lineno)
        code, err = self._run(config, trace, data / "manifest.jsonl",
                              tmp_path, capsys)
        if parsed and row.strip():
            # a record that parses may still name an unknown op or item
            assert code == 0 or (
                code == 2 and f"record {json.loads(row)['seq']}:" in err)
        else:
            assert code == (0 if parsed else 2)
            assert parsed or f"line {lineno}:" in err

    @given(row=MANIFEST_ROWS)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_manifest_row_parses_or_is_named(self, generated, tmp_path,
                                             capsys, row):
        config, data = generated
        # beside the good manifest, so payload paths resolve
        manifest = data / f"manifest-{tmp_path.name}.jsonl"
        lineno = self._append(data / "manifest.jsonl", manifest, row)
        parsed = self._check(read_manifest, manifest, lineno)
        code, err = self._run(config, data / "trace.jsonl", manifest,
                              tmp_path, capsys)
        assert code == (0 if parsed else 2)
        assert parsed or f"line {lineno}:" in err

    @pytest.mark.parametrize("name, reader",
                             [("trace", read_trace), ("manifest", read_manifest)])
    def test_row_that_is_not_utf8_is_named(self, generated, tmp_path, capsys,
                                           name, reader):
        config, data = generated
        files = {"trace": data / "trace.jsonl",
                 "manifest": data / "manifest.jsonl"}
        bad = data / f"{name}-{tmp_path.name}.jsonl"
        lines = files[name].read_bytes().splitlines()
        bad.write_bytes(b"\n".join(lines[:2] + [b'{"op": "\xff"}'] + lines[2:]))
        with pytest.raises(ConfigurationError, match="line 3: not UTF-8"):
            reader(bad)
        files[name] = bad
        code, err = self._run(config, files["trace"], files["manifest"],
                              tmp_path, capsys)
        assert code == 2 and f"{bad}: line 3: not UTF-8" in err
