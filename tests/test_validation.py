"""Input validation: non-finite hyperparameters and malformed trace rows.

Bad input must end in a ConfigurationError, or exit code 2 from the CLI,
with a message that names the field (and, for traces, the line).
"""

from __future__ import annotations

import math

import pytest

from neuralstore.cli import main
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
