"""Input validation: non-finite hyperparameters, mistyped config fields and
malformed trace and manifest rows.

Bad input must end in a ConfigurationError, or exit code 2 from the CLI,
with a message that names the field (and, for traces and manifests, the
line).
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neuralstore.cli import main
from neuralstore.config import load_config
from neuralstore.core import ConfigurationError, HiveParams
from neuralstore.engine import SearchParams
from tests.test_cli import write_config

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
])
def test_non_finite_hive_params_rejected(field, value):
    with pytest.raises(ConfigurationError, match=field):
        HiveParams(**{field: value}).validate()


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_non_finite_assoc_thresh_rejected(value):
    with pytest.raises(ConfigurationError, match="assoc_thresh"):
        SearchParams(assoc_thresh=value).validate()


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


# (section, field, whether a JSON value has the field's type)
TYPED_FIELDS = [
    ("hive", "num_localities", _is_int),
    ("hive", "retention_period", _is_int),
    ("hive", "feature_dim", _is_int),
    ("hive", "eta", _is_number),
    ("hive", "phi", _is_number),
    ("hive", "memory_decay_rates", _is_list_of(_is_number)),
    ("hive", "elasticity_schedules", _is_list_of(_is_list_of(_is_number))),
    ("hive", "locality_mapping", _is_list_of(lambda v: isinstance(v, dict))),
    ("hive", "full_graph", lambda v: isinstance(v, bool)),
    ("hive", "codec", lambda v: isinstance(v, str)),
    ("hive", "capacity_bytes", lambda v: v is None or _is_int(v)),
    ("search", "match_thresh", _is_number),
    ("controls", "search_limit", lambda v: v is None or _is_int(v)),
    ("controls", "update_order", lambda v: isinstance(v, bool)),
    ("cam", "policy", lambda v: isinstance(v, str)),
    ("cam", "key_by_label", lambda v: isinstance(v, bool)),
    ("workload", "n_items", _is_int),
    ("workload", "priority_bias", _is_number),
    ("workload", "payload_size_range",
     lambda v: _is_list_of(_is_int)(v) and len(v) == 2),
    ("workload", "class_labels",
     lambda v: v is None or _is_list_of(lambda x: isinstance(x, str))(v)),
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
    ("hive", "num_localities", True, "hive.num_localities must be int, got True"),
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


@pytest.mark.parametrize("doc, expected", [
    ({"seed": True}, "seed must be int, got True"),
    ({"seed": 1, "engine": 5}, "engine must be str, got 5"),
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
