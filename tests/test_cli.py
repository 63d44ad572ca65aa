"""CLI and configuration tests: subcommands, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
import subprocess
import sys

import pytest

from neuralstore.cli import main
from neuralstore.config import (
    _BASE_PRESET,
    PRESETS,
    build_adapter,
    load_config,
)
from neuralstore.core import (
    ConfigurationError,
    HiveParams,
    parse_snapshot,
)
from neuralstore.engine import MemoryEngine, OpControls, SearchParams
from neuralstore.workload import (
    WorkloadSpec,
    build_corpus,
    generate_trace,
    read_manifest,
    read_trace,
    replay,
)
from tests.helpers import SMALL_WORKLOAD, write_config


class TestConfig:
    def test_presets_load_and_validate(self):
        assert sorted(PRESETS) == ["walkthrough", "wildlife-deer"]
        for preset in PRESETS:
            config = load_config(preset=preset)
            assert config.hive.eta > 0

    @pytest.mark.parametrize("name", ["default", "wildlife-wolf", "uav-cars"])
    def test_removed_preset_exits_2_listing_the_known_ones(self, tmp_path,
                                                           capsys, name):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"preset": name, "seed": 1}))
        for args in (["--config", str(config)], ["--preset", name]):
            assert main(["generate", *args,
                         "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert f"unknown preset {name!r}" in err
            assert "['walkthrough', 'wildlife-deer']" in err
        assert not (tmp_path / "x").exists()

    def test_empty_preset_name_exits_2_listing_the_known_ones(self, tmp_path,
                                                              capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"preset": "", "seed": 1}))
        named = tmp_path / "named.json"
        named.write_text(json.dumps({"preset": "walkthrough", "seed": 1}))
        # an empty --preset is refused, not passed over for the file's
        for args in (["--config", str(empty)], ["--preset", ""],
                     ["--config", str(named), "--preset", ""]):
            assert main(["generate", *args,
                         "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert "unknown preset ''" in err
            assert "['walkthrough', 'wildlife-deer']" in err
        assert not (tmp_path / "x").exists()

    def test_null_preset_in_a_config_file_is_no_preset(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": None, "seed": 42}))
        assert load_config(path) == load_config(preset="wildlife-deer")
        assert load_config(path, preset="walkthrough") == load_config(
            preset="walkthrough")

    def test_non_string_preset_exits_2_naming_it(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"preset": ["walkthrough"], "seed": 1}))
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "x")]) == 2
        assert "unknown preset ['walkthrough']" in capsys.readouterr().err

    def test_config_naming_no_preset_is_wildlife_deer(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 42}))
        deer = load_config(preset="wildlife-deer")
        assert load_config(path) == deer
        assert load_config() == deer

    def test_every_pair_of_presets_differs_in_corpus_or_trace(self):
        # a preset that differs from another only in label strings runs
        # the same experiment under a second name
        runs = {}
        for name in PRESETS:
            spec = load_config(preset=name).workload
            corpus = build_corpus(spec)
            ops = [(r.seq, r.op, r.item_id, r.retention_window)
                   for r in generate_trace(corpus, spec)]
            runs[name] = ([item.data for item in corpus.items], ops)
        for a, b in itertools.combinations(sorted(runs), 2):
            data_a, ops_a = runs[a]
            data_b, ops_b = runs[b]
            assert data_a != data_b or ops_a != ops_b, (a, b)

    def test_missing_seed_rejected_naming_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": None}))
        with pytest.raises(ConfigurationError, match="seed"):
            load_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "hive": {"decay_speed": 3}}))
        with pytest.raises(ConfigurationError, match="decay_speed"):
            load_config(path)
        path.write_text(json.dumps({"seed": 1, "typo_section": {}}))
        with pytest.raises(ConfigurationError, match="typo_section"):
            load_config(path)

    def test_workload_seed_comes_from_config_seed(self, tmp_path):
        path = write_config(tmp_path)
        config = load_config(path, seed=123)
        assert config.seed == 123
        assert config.workload.seed == 123

    def test_preset_mapping_routes_priority_label(self):
        config = load_config(preset="wildlife-deer")
        assert config.hive.locality_mapping[0] == {"labels": ["deer"]}
        assert config.workload.class_labels[0] == "deer"
        config = load_config(preset="walkthrough")
        assert config.hive.locality_mapping[0] == {"labels": ["wolf"]}
        assert config.workload.class_labels[0] == "wolf"

    def test_repeated_class_label_rejected_naming_it(self, tmp_path, capsys):
        config = write_config(tmp_path, workload={
            **SMALL_WORKLOAD, "class_labels": ["deer", "deer"]})
        with pytest.raises(ConfigurationError,
                           match="class_labels repeats 'deer'"):
            load_config(config)
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "x")]) == 2
        assert "class_labels repeats 'deer'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_removed_update_order_control_exits_2_naming_it(self, tmp_path,
                                                            capsys):
        config = write_config(tmp_path, controls={"update_order": True})
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "x")]) == 2
        assert "controls: update_order" in capsys.readouterr().err

    @pytest.mark.parametrize("section, cls", [
        ("hive", HiveParams),
        ("search", SearchParams),
        ("controls", OpControls),
        ("workload", WorkloadSpec),
    ])
    def test_base_preset_section_has_exactly_its_dataclass_fields(
            self, section, cls):
        # the base preset documents every default; a removed field left in
        # it or a new field missing from it would go unnoticed otherwise
        fields = {f.name for f in dataclasses.fields(cls)}
        if cls is WorkloadSpec:
            fields.remove("seed")       # comes from the top-level seed
        assert set(_BASE_PRESET[section]) == fields

    def test_invalid_hive_params_rejected_before_running(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "hive": {"eta": -1}}))
        with pytest.raises(ConfigurationError):
            load_config(path)


class TestGenerate:
    def test_generate_writes_deterministic_files(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "a")]) == 0
        out_a = capsys.readouterr().out
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "b")]) == 0
        out_b = capsys.readouterr().out
        hash_a = [line.split("sha256=")[1] for line in out_a.strip().splitlines()]
        hash_b = [line.split("sha256=")[1] for line in out_b.strip().splitlines()]
        assert hash_a == hash_b
        assert (tmp_path / "a" / "manifest.jsonl").exists()
        assert (tmp_path / "a" / "trace.jsonl").exists()
        assert (tmp_path / "a" / "payloads").is_dir()

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": None}))
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "x")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_negative_seed_option_exits_2_naming_seed(self, tmp_path, capsys):
        assert main(["generate", "--preset", "wildlife-deer", "--seed", "-3",
                     "--out", str(tmp_path / "x")]) == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_config_seed_exits_2_naming_seed(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": -1}))
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "x")]) == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            load_config(config)


class TestRun:
    @pytest.fixture
    def generated(self, tmp_path):
        config = write_config(tmp_path)
        main(["generate", "--config", str(config), "--out", str(tmp_path / "data")])
        return config, tmp_path / "data"

    def test_ns_run_outputs(self, generated, tmp_path, capsys):
        config, data = generated
        out = tmp_path / "run-ns"
        assert main(["run", "--config", str(config), "--trace",
                     str(data / "trace.jsonl"), "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "oplog-ns.jsonl").exists()
        assert (out / "summary.csv").exists()
        assert (out / "space_timeline.csv").exists()
        assert (out / "snapshot.txt").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_negative_seed_exits_2_without_a_manifest(self, generated,
                                                      tmp_path, capsys,
                                                      command):
        config, data = generated
        out = tmp_path / command
        assert main([command, "--config", str(config), "--seed", "-1",
                     "--trace", str(data / "trace.jsonl"),
                     "--out", str(out)]) == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_cam_run_flat_quality_and_linear_costs(self, generated, tmp_path, capsys):
        config, data = generated
        out = tmp_path / "run-cam"
        assert main(["run", "--config", str(config), "--engine", "cam",
                     "--trace", str(data / "trace.jsonl"), "--out", str(out)]) == 0
        capsys.readouterr()
        log = [json.loads(line) for line in
               (out / "oplog-cam.jsonl").read_text().splitlines()]
        hits = [r for r in log if r["op"] == "retrieve" and r["hit"]]
        assert hits
        assert all(r["quality"] == 100.0 for r in hits)

    def test_rerun_identical_outputs(self, generated, tmp_path, capsys):
        config, data = generated
        for name in ("r1", "r2"):
            assert main(["run", "--config", str(config), "--trace",
                         str(data / "trace.jsonl"),
                         "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        for file in ("oplog-ns.jsonl", "summary.csv", "space_timeline.csv",
                     "snapshot.txt"):
            assert (tmp_path / "r1" / file).read_bytes() == \
                (tmp_path / "r2" / file).read_bytes()

    def test_storage_full_exits_3_with_seq(self, generated, tmp_path, capsys):
        config, data = generated
        code = main(["run", "--config", str(config), "--cap", "64",
                     "--trace", str(data / "trace.jsonl"),
                     "--out", str(tmp_path / "full")])
        assert code == 3
        err = capsys.readouterr().err
        assert "storage full" in err
        assert "record 0" in err


class TestCompare:
    def test_compare_outputs_and_determinism(self, tmp_path, capsys):
        config = write_config(tmp_path)
        main(["generate", "--config", str(config), "--out", str(tmp_path / "data")])
        for name in ("c1", "c2"):
            assert main(["compare", "--config", str(config),
                         "--trace", str(tmp_path / "data" / "trace.jsonl"),
                         "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        for file in ("summary.csv", "ratios.csv", "space_timeline.csv",
                     "qf_curve.csv", "oplog-ns.jsonl", "oplog-cam.jsonl",
                     "space_timeline.svg", "qf_curve.svg"):
            assert (tmp_path / "c1" / file).read_bytes() == \
                (tmp_path / "c2" / file).read_bytes(), file
        summary = (tmp_path / "c1" / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("engine,")
        assert {row.split(",")[0] for row in summary[1:]} == {"ns", "cam"}

    def test_warmup_skipping_the_whole_trace_exits_2(self, tmp_path, capsys):
        # 16 items and 40 retrieves under a warm-up of 100 records
        config = write_config(tmp_path, compare={"warmup_ops": 100})
        main(["generate", "--config", str(config), "--out", str(tmp_path / "data")])
        trace = tmp_path / "data" / "trace.jsonl"
        n_records = len(read_trace(trace))
        assert n_records <= 100
        capsys.readouterr()
        assert main(["compare", "--config", str(config), "--trace", str(trace),
                     "--out", str(tmp_path / "cmp")]) == 2
        err = capsys.readouterr().err
        assert f"compare.warmup_ops 100 skips all {n_records} trace records" \
            in err
        assert not (tmp_path / "cmp").exists()
        # a warm-up that leaves the last record is accepted
        last = read_trace(trace)[-1].seq
        config = write_config(tmp_path, compare={"warmup_ops": last})
        assert main(["compare", "--config", str(config), "--trace", str(trace),
                     "--out", str(tmp_path / "cmp")]) == 0


    def test_trace_without_records_exits_2_naming_it(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["generate", "--preset", "walkthrough",
                     "--out", str(data)]) == 0
        header = (data / "trace.jsonl").read_text().splitlines()[0]
        trace = data / "header-only.jsonl"
        trace.write_text(header + "\n")
        capsys.readouterr()
        for command in ("run", "compare"):
            out = tmp_path / command
            assert main([command, "--preset", "walkthrough", "--trace",
                         str(trace), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"{trace}: trace has a header but no records" in err
            assert not out.exists()


class TestCapValidation:
    @pytest.fixture
    def generated(self, tmp_path):
        config = write_config(tmp_path)
        main(["generate", "--config", str(config), "--out", str(tmp_path / "data")])
        return tmp_path / "data" / "trace.jsonl"

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_config_cap_fraction_exits_2_naming_the_field(
            self, generated, tmp_path, capsys, bad):
        config = write_config(tmp_path, name="bad.json",
                              compare={"cap_fractions": [0.5, bad]})
        capsys.readouterr()
        assert main(["compare", "--config", str(config), "--trace",
                     str(generated), "--out", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert "compare.cap_fractions must be finite and positive" in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("engine", ["ns", "cam"])
    def test_negative_run_cap_exits_2_for_either_engine(
            self, generated, tmp_path, capsys, engine):
        config = write_config(tmp_path)
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--engine", engine,
                     "--cap", "-1", "--trace", str(generated),
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == \
            "error: hive.capacity_bytes must be >= 0 or null\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("caps", ["inf", "0.5,nan", "0", "-1", "0.3,-inf"])
    def test_caps_option_exits_2_naming_it(self, generated, tmp_path, capsys,
                                           caps):
        config = write_config(tmp_path)
        capsys.readouterr()
        assert main(["compare", "--config", str(config), "--trace",
                     str(generated), f"--caps={caps}",
                     "--out", str(tmp_path / "c")]) == 2
        assert "--caps must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("fractions", [[0.5, 0.1], [0.5, 0.5],
                                           [0.1, 0.5, 0.3]])
    def test_config_cap_fractions_out_of_order_exit_2_naming_the_field(
            self, generated, tmp_path, capsys, fractions):
        config = write_config(tmp_path, name="bad.json",
                              compare={"cap_fractions": fractions})
        capsys.readouterr()
        assert main(["compare", "--config", str(config), "--trace",
                     str(generated), "--out", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert f"compare.cap_fractions must be strictly ascending, got " \
            f"{fractions!r}" in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("caps", ["0.5,0.1,0.5", "0.5,0.5", "1,0.5"])
    def test_caps_option_out_of_order_exits_2_naming_it(
            self, generated, tmp_path, capsys, caps):
        config = write_config(tmp_path)
        capsys.readouterr()
        assert main(["compare", "--config", str(config), "--trace",
                     str(generated), f"--caps={caps}",
                     "--out", str(tmp_path / "c")]) == 2
        assert "error: --caps must be strictly ascending, got " in \
            capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("fraction, problem", [
        (1e308, "is not a finite byte cap"),
        (1e-300, "rounds to a 0-byte cap"),
    ])
    def test_config_cap_without_a_byte_size_exits_2_before_any_replay(
            self, generated, tmp_path, capsys, fraction, problem):
        config = write_config(tmp_path, name="bad.json",
                              compare={"cap_fractions": [fraction]})
        capsys.readouterr()
        assert main(["compare", "--config", str(config), "--trace",
                     str(generated), "--out", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert f"compare.cap_fractions: {fraction!r} of " in err
        assert problem in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("caps, problem", [
        ("1e308", "1e+308 of "), ("0.5,1e308", "is not a finite byte cap"),
        ("1e-300", "1e-300 of "), ("1e-300,0.5", "rounds to a 0-byte cap"),
    ])
    def test_caps_without_a_byte_size_exit_2_before_any_replay(
            self, generated, tmp_path, capsys, caps, problem):
        config = write_config(tmp_path)
        capsys.readouterr()
        assert main(["compare", "--config", str(config), "--trace",
                     str(generated), f"--caps={caps}",
                     "--out", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --caps: ")
        assert problem in err
        assert not (tmp_path / "c").exists()

    def test_valid_caps_option_runs(self, generated, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["compare", "--config", str(config), "--trace",
                     str(generated), "--caps=0.5,1",
                     "--out", str(tmp_path / "c")]) == 0
        capsys.readouterr()
        rows = (tmp_path / "c" / "qf_curve.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2     # header, two caps per engine


class TestInspect:
    def test_inspect_walkthrough_snapshot(self, tmp_path, capsys):
        config = write_config(tmp_path, name="wt.json", preset="walkthrough",
                              workload={}, compare={})
        wt_doc = {"preset": "walkthrough", "seed": 42}
        config = tmp_path / "wt.json"
        config.write_text(json.dumps(wt_doc))
        main(["generate", "--config", str(config), "--out", str(tmp_path / "wt")])
        main(["run", "--config", str(config),
              "--trace", str(tmp_path / "wt" / "trace.jsonl"),
              "--out", str(tmp_path / "wt-run")])
        capsys.readouterr()
        snapshot = tmp_path / "wt-run" / "snapshot.txt"
        assert main(["inspect", "--snapshot", str(snapshot)]) == 0
        text = capsys.readouterr().out
        assert "data #" in text and "edge" in text
        assert main(["inspect", "--snapshot", str(snapshot),
                     "--format", "dot"]) == 0
        dot = capsys.readouterr().out
        assert dot.startswith("graph memory {")
        # deterministic rendering
        main(["inspect", "--snapshot", str(snapshot), "--format", "dot"])
        assert capsys.readouterr().out == dot

    def test_dot_of_run_snapshot_equals_export_of_the_memory(self, tmp_path,
                                                             capsys):
        labels = ["deer park", 'say "hi" \\ back']
        config = write_config(
            tmp_path, hive={"locality_mapping": [{"labels": [labels[0]]}, {}]},
            workload={**SMALL_WORKLOAD, "class_labels": labels})
        data, out = tmp_path / "data", tmp_path / "run"
        assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
        assert main(["run", "--config", str(config), "--trace",
                     str(data / "trace.jsonl"), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["inspect", "--snapshot", str(out / "snapshot.txt"),
                     "--format", "dot"]) == 0
        dot = capsys.readouterr().out

        run_config = load_config(config)
        corpus = read_manifest(data / "manifest.jsonl")
        adapter = build_adapter(run_config, corpus)
        replay(read_trace(data / "trace.jsonl"), adapter, corpus)
        assert dot == adapter.engine.memory.export_graph("dot")
        assert 'label="deer park\\n#' in dot
        assert 'label="say \\"hi\\" \\\\ back\\n#' in dot
        assert 'label="default\\n#' in dot and "%" not in dot

        assert main(["inspect", "--snapshot", str(out / "snapshot.txt")]) == 0
        text = capsys.readouterr().out
        assert "label=deer park" in text and 'label=say "hi" \\ back' in text

    def test_empty_and_dash_labels_survive_the_snapshot(self, tmp_path,
                                                       capsys):
        # "-" stands for a cue without a label, so the labels "" and "-"
        # are written so that they read back as themselves
        # one datum gains the other two labels by retrieves under them
        engine = MemoryEngine()
        dn = engine.store(b"\x01" * 64, "").dn_id
        assert [engine.retrieve(label).dn_id for label in ("-", "-x")] == \
            [dn, dn]
        snapshot = engine.memory.export_graph("snapshot")
        cue_lines = [line for line in snapshot.splitlines()
                     if line.startswith("cue ")]
        assert [line.split()[2] for line in cue_lines] == [
            "label=-", "label=", "label=%2D", "label=-x"]
        # the locality's default cue, then the three label cues
        labels = {nid: n["label"]
                  for nid, n in enumerate(parse_snapshot(snapshot).neurons)
                  if n["kind"] == "cue"}
        assert list(labels.values()) == [None, "", "-", "-x"]
        ids = {label: cue for cue, label in labels.items()}
        for label in ("", "-", "-x"):
            assert engine.memory.find_cue_by_label(label) == ids[label]
            assert engine.memory.weights[ids[label], dn] == 1.0
        path = tmp_path / "snapshot.txt"
        path.write_text(snapshot)
        assert main(["inspect", "--snapshot", str(path)]) == 0
        text = capsys.readouterr().out
        assert f"cue #{ids[None]} label=- default\n" in text
        assert f"cue #{ids['']} label=\n" in text
        assert f"cue #{ids['-']} label=-\n" in text
        assert main(["inspect", "--snapshot", str(path), "--format", "dot"]) == 0
        dot = capsys.readouterr().out
        assert dot == engine.memory.export_graph("dot")
        for label, name, shape in ((None, "default", "doublecircle"),
                                   ("", "", "ellipse"), ("-", "-", "ellipse")):
            cue = ids[label]
            assert f'n{cue} [label="{name}\\n#{cue}" shape={shape}];' in dot

    def test_version_mismatch_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("neuralstore-snapshot 99\n")
        assert main(["inspect", "--snapshot", str(bad)]) == 2
        capsys.readouterr()

    # the first lines of a snapshot as the memory writes it: one locality,
    # which has no data neuron yet and so no default cue
    HEAD = ["neuralstore-snapshot 2",
            "params eta=20 epsilon=1 phi=1 retention=500",
            "locality 0 memory_decay=0.5 association_decay=0 default_cue=-"]

    def refusal(self, tmp_path, capsys, lines):
        """The error ``inspect`` prints for a snapshot of ``lines``, which
        it must refuse with exit 2 and print nothing else."""
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["inspect", "--snapshot", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("line, reason", [
        ("cue", "malformed cue line 'cue'"),
        ("edge 1", "malformed edge line 'edge 1'"),
        ("order", "expected the end of the document, found 'order\\n'"),
        ("hive", "expected the end of the document, found 'hive\\n'"),
        ("data x", "malformed data line 'data x'"),
        ("order 3 5:abc",
         "expected the end of the document, found 'order 3 5:abc\\n'"),
        ("bogus 1", "expected the end of the document, found 'bogus 1\\n'"),
    ])
    def test_malformed_line_exits_2_naming_the_line(self, tmp_path, capsys,
                                                    line, reason):
        assert self.refusal(tmp_path, capsys, [*self.HEAD, line]) == \
            f"error: snapshot line 4: {reason}\n"

    # lines 4 and 5 declare the cues "deer" and "fawn"; line 6 is the last
    CUES = ["cue 0 label=deer default=0", "cue 1 label=fawn default=0"]

    @pytest.mark.parametrize("line, reason", [
        ("data 2", "malformed data line 'data 2'"),
        ("data 2 locality=0 strength=100 quality=100 size=9",
         "malformed data line 'data 2 locality=0 strength=100 quality=100 "
         "size=9'"),
        ("data 2 locality=0 strength=high quality=100 size=9 original=9 "
         "last_access=0",
         "malformed data line 'data 2 locality=0 strength=high quality=100 "
         "size=9 original=9 last_access=0'"),
        ("data 2 locality=0.5 strength=1 quality=1 size=9 original=9 "
         "last_access=0",
         "malformed data line 'data 2 locality=0.5 strength=1 quality=1 "
         "size=9 original=9 last_access=0'"),
        ("cue 3 default=yes", "malformed cue line 'cue 3 default=yes'"),
        ("cue 3 label=- default=yes",
         "a cue has the label - if and only if a locality names it its "
         "default cue"),
        ("params eta=20 epsilon=1 phi=1",
         "expected 'order 0 \\n', found 'params eta=20 epsilon=1 phi=1\\n'"),
        ("locality 0 memory_decay=0.5 association_decay=0 default_cue=x",
         "expected 'order 0 \\n', found 'locality 0 memory_decay=0.5 "
         "association_decay=0 default_cue=x\\n'"),
        ("edge 1 1 weight=1", "malformed edge line 'edge 1 1 weight=1'"),
    ])
    def test_line_without_its_fields_exits_2(self, tmp_path, capsys, line,
                                             reason):
        assert self.refusal(tmp_path, capsys, [*self.HEAD, *self.CUES, line]) \
            == f"error: snapshot line 6: {reason}\n"

    DATA_1 = ("data 1 locality=0 strength=100 quality=100 size=9 original=9 "
              "last_access=0")

    # line 5 is one more neuron; line 6 is the last
    @pytest.mark.parametrize("declared, line, reason", [
        (CUES[1], "edge 0 2 weight=1 last_access=0",
         "edge 0 2 does not join one cue and one data neuron"),
        (CUES[1], "order 2 1:1",
         "expected 'order 0 \\n', found 'order 2 1:1\\n'"),
        (CUES[1], "order 1 1:1",
         "expected 'order 0 \\n', found 'order 1 1:1\\n'"),
        (CUES[1], "edge 0 1 weight=1 last_access=0",
         "edge 0 1 does not join one cue and one data neuron"),
        (DATA_1, "edge 1 1 weight=1 last_access=0",
         "edge 1 1 does not join one cue and one data neuron"),
        (DATA_1, "edge 0 -1 weight=1 last_access=0",
         "edge 0 -1 does not join one cue and one data neuron"),
    ])
    def test_line_naming_an_undeclared_neuron_exits_2(self, tmp_path, capsys,
                                                       declared, line, reason):
        assert self.refusal(tmp_path, capsys,
                            [*self.HEAD, self.CUES[0], declared, line]) == \
            f"error: snapshot line 6: {reason}\n"

    DATA_2 = ("data 2 locality=0 strength=100 quality=100 size=9 original=9 "
              "last_access=0")
    EDGE_0_1 = "edge 0 1 weight=3 last_access=0"

    # an order line is written from the edges, so an order at line 7 that
    # lists a data neuron without its edge, at another weight than its edge
    # or twice differs from the line written there
    @pytest.mark.parametrize("default, lines, expected", [
        ("-", [*CUES, DATA_2, "order 0 2:5"], "order 0 "),
        ("-", [CUES[0], DATA_1, EDGE_0_1, "order 0 1:5"], "order 0 1:3"),
        ("-", [CUES[0], DATA_1, EDGE_0_1, "order 0 1:3,1:3"], "order 0 1:3"),
        ("2", [CUES[0], DATA_1, "cue 2 label=- default=1", "order 2 1:3"],
         "order 0 "),
    ])
    def test_order_entry_without_its_edge_exits_2(self, tmp_path, capsys,
                                                   default, lines, expected):
        head = [*self.HEAD[:2],
                self.HEAD[2].replace("default_cue=-", f"default_cue={default}")]
        assert self.refusal(tmp_path, capsys, [*head, *lines]) == (
            f"error: snapshot line 7: expected {expected + chr(10)!r}, "
            f"found {lines[-1] + chr(10)!r}\n")

    # lines 4-7 declare cue 0, data neuron 1, their edge and cue 0's order;
    # line 8 repeats one of them, or declares a neuron in a locality no line
    # declares, after the place where its kind is written
    @pytest.mark.parametrize("line", [
        DATA_1,
        "cue 1 label=- default=1",
        "locality 0 memory_decay=1 association_decay=0 default_cue=-",
        "edge 0 1 weight=5 last_access=0",
        "edge 1 0 weight=3 last_access=0",
        "order 0 1:3",
        "data 2 locality=1 strength=100 quality=100 size=9 original=9 "
        "last_access=0",
    ])
    def test_repeated_line_or_undeclared_locality_exits_2(self, tmp_path,
                                                          capsys, line):
        assert self.refusal(tmp_path, capsys, [
            *self.HEAD, self.CUES[0], self.DATA_1, self.EDGE_0_1,
            "order 0 1:3", line]) == (
            f"error: snapshot line 8: expected the end of the document, "
            f"found {line + chr(10)!r}\n")

    # a line repeated where its kind is written is refused at the repeat
    @pytest.mark.parametrize("lines, number, expected", [
        (["locality 0 memory_decay=0.5 association_decay=0 default_cue=-"], 4,
         "locality 1 memory_decay=0.5 association_decay=0 default_cue=-"),
        ([CUES[0], DATA_1, DATA_1], 6, DATA_1.replace("data 1", "data 2")),
        ([CUES[0], DATA_1, EDGE_0_1, "edge 0 1 weight=5 last_access=0"], 7,
         "order 0 1:3"),
        ([CUES[0], DATA_1, EDGE_0_1, "edge 1 0 weight=3 last_access=0"], 7,
         "order 0 1:3"),
    ])
    def test_line_repeated_in_its_place_exits_2(self, tmp_path, capsys, lines,
                                                number, expected):
        assert self.refusal(tmp_path, capsys, [*self.HEAD, *lines]) == (
            f"error: snapshot line {number}: expected {expected + chr(10)!r}, "
            f"found {lines[-1] + chr(10)!r}\n")

    def test_data_neuron_in_an_undeclared_locality_exits_2(self, tmp_path,
                                                           capsys):
        assert self.refusal(tmp_path, capsys, [
            *self.HEAD, self.CUES[0], self.DATA_1.replace("locality=0",
                                                          "locality=1")]) == (
            "error: snapshot line 5: locality 1 is not declared\n")

    def test_order_entry_matches_an_edge_written_data_end_first(self, tmp_path,
                                                                capsys):
        good = tmp_path / "good.txt"
        good.write_text("\n".join([
            *self.HEAD[:2],
            "locality 0 memory_decay=0.5 association_decay=0 default_cue=2",
            self.CUES[0], self.DATA_1, "cue 2 label=- default=1",
            self.EDGE_0_1, "edge 1 2 weight=2.5 last_access=0", "order 0 1:3",
            "order 2 1:2.5"]) + "\n")
        assert main(["inspect", "--snapshot", str(good)]) == 0
        capsys.readouterr()

    def test_bare_lines_once_rendered_as_none_exit_2(self, tmp_path, capsys):
        # data and edge lines without their fields, and an edge to a neuron
        # no line declares, once rendered as None
        assert self.refusal(tmp_path, capsys, [
            "neuralstore-snapshot 2", "data 1", "edge 1 2",
            "cue 3 default=yes"]) == \
            "error: snapshot line 2: malformed data line 'data 1'\n"

    def test_non_integer_version_exits_2_naming_the_line(self, tmp_path,
                                                          capsys):
        assert self.refusal(tmp_path, capsys, ["neuralstore-snapshot x"]) == (
            "error: snapshot line 1: version x unsupported (expected 2)\n")

    # lines 3-6 of a snapshot that ``inspect`` once printed with exit 0, with
    # its hive fields (the memory writes none) and a locality whose default
    # cue no line declares
    FOUND = ["locality 0 hive=3 memory_decay=0.5 association_decay=0 "
             "default_cue=9",
             "cue 0 hive=5 label=deer default=0",
             "data 1 hive=7 locality=0 strength=100 quality=100 size=9 "
             "original=9 last_access=0",
             "order 0 "]

    @pytest.mark.parametrize("number", [3, 4, 5])
    def test_hive_field_exits_2_naming_its_line(self, tmp_path, capsys, number):
        lines = [*self.HEAD[:2],
                 *(re.sub(" hive=.", "", line) for line in self.FOUND)]
        lines[number - 1] = self.FOUND[number - 3]
        kind = lines[number - 1].split()[0]
        assert self.refusal(tmp_path, capsys, lines) == (
            f"error: snapshot line {number}: malformed {kind} line "
            f"{lines[number - 1]!r}\n")

    def test_undeclared_default_cue_exits_2_naming_its_locality(self, tmp_path,
                                                                capsys):
        assert self.refusal(tmp_path, capsys, [
            *self.HEAD[:2], *(re.sub(" hive=.", "", line) for line in self.FOUND)
        ]) == "error: snapshot line 3: default cue 9 is not a declared cue\n"
        # a data neuron is no cue either
        assert self.refusal(tmp_path, capsys, [
            *self.HEAD[:2], *(re.sub(" hive=.", "", line).replace(
                "default_cue=9", "default_cue=1") for line in self.FOUND)
        ]) == "error: snapshot line 3: default cue 1 is not a declared cue\n"

    def test_format_1_snapshot_exits_2_naming_its_version(self, tmp_path,
                                                          capsys):
        assert self.refusal(tmp_path, capsys, [
            "neuralstore-snapshot 1",
            "hive 0 modality=blob eta=20 epsilon=1 phi=1 retention=500",
            *self.FOUND]) == \
            "error: snapshot line 1: version 1 unsupported (expected 2)\n"

    # each line is line 6, after the cues of lines 4 and 5
    @pytest.mark.parametrize("line, reason", [
        # a number written other than as the memory writes it
        (DATA_2.replace("strength=100", "strength=1.0"),
         f"expected {DATA_2.replace('strength=100', 'strength=1') + chr(10)!r}"
         f", found {DATA_2.replace('strength=100', 'strength=1.0') + chr(10)!r}"),
        (DATA_2.replace("size=9", "size=+9"),
         f"expected {DATA_2 + chr(10)!r}, found "
         f"{DATA_2.replace('size=9', 'size=+9') + chr(10)!r}"),
        # a label written other than as the memory writes it
        ("cue 2 label=%41 default=0",
         "expected 'cue 2 label=A default=0\\n', found "
         "'cue 2 label=%41 default=0\\n'"),
        # a number that is not finite
        (DATA_2.replace("strength=100", "strength=nan"),
         f"malformed data line {DATA_2.replace('strength=100', 'strength=nan')!r}"),
        (DATA_2.replace("quality=100", "quality=inf"),
         f"malformed data line {DATA_2.replace('quality=100', 'quality=inf')!r}"),
        # a blank line, and a line with a trailing space
        ("", "expected 'order 0 \\n', found '\\n'"),
        ("cue 2 label=x default=0 ",
         "expected 'cue 2 label=x default=0\\n', found "
         "'cue 2 label=x default=0 \\n'"),
    ])
    def test_text_the_memory_never_writes_exits_2(self, tmp_path, capsys, line,
                                                  reason):
        assert self.refusal(tmp_path, capsys, [*self.HEAD, *self.CUES, line]) \
            == f"error: snapshot line 6: {reason}\n"

    @pytest.mark.parametrize("text, reason", [
        ("neuralstore-snapshot 2\nparams eta=20 epsilon=1 phi=1 "
         "retention=500\n\n", "snapshot line 3: expected the end of the "
         "document, found '\\n'"),
        ("neuralstore-snapshot 2\nparams eta=20 epsilon=1 phi=1 retention=500",
         "snapshot line 2: expected 'params eta=20 epsilon=1 phi=1 "
         "retention=500\\n', found 'params eta=20 epsilon=1 phi=1 "
         "retention=500'"),
        ("neuralstore-snapshot 2\n", "snapshot line 2: no params line"),
        ("neuralstore-snapshot 2\nparams eta=-0 epsilon=1 phi=1 "
         "retention=500\n", "snapshot line 2: expected 'params eta=0 "
         "epsilon=1 phi=1 retention=500\\n', found 'params eta=-0 epsilon=1 "
         "phi=1 retention=500\\n'"),
    ])
    def test_whole_text_is_compared(self, tmp_path, capsys, text, reason):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(text.encode())
        assert main(["inspect", "--snapshot", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {reason}\n"

    @staticmethod
    def walkthrough_snapshot(tmp_path, capsys) -> str:
        """The text of the snapshot a walkthrough run writes."""
        data, out = tmp_path / "wt", tmp_path / "wt-run"
        assert main(["generate", "--preset", "walkthrough", "--out",
                     str(data)]) == 0
        assert main(["run", "--preset", "walkthrough", "--trace",
                     str(data / "trace.jsonl"), "--out", str(out)]) == 0
        capsys.readouterr()
        return (out / "snapshot.txt").read_text()

    def inspect_bytes(self, tmp_path, capsys, data: bytes) -> tuple[int, str]:
        """The exit code and error text of ``inspect`` on a file holding
        ``data``, which prints nothing unless it exits 0."""
        path = tmp_path / "snap.txt"
        path.write_bytes(data)
        code = main(["inspect", "--snapshot", str(path)])
        captured = capsys.readouterr()
        assert code == 0 or captured.out == ""
        return code, captured.err

    def test_crlf_snapshot_exits_2_naming_line_1(self, tmp_path, capsys):
        text = self.walkthrough_snapshot(tmp_path, capsys)
        assert self.inspect_bytes(tmp_path, capsys, text.encode())[0] == 0
        assert self.inspect_bytes(
            tmp_path, capsys, text.replace("\n", "\r\n").encode()) == (
            2, "error: snapshot line 1: expected 'neuralstore-snapshot 2\\n', "
               "found 'neuralstore-snapshot 2\\r\\n'\n")

    def test_non_utf8_snapshot_exits_2_naming_the_file(self, tmp_path, capsys):
        text = self.walkthrough_snapshot(tmp_path, capsys)
        # the label "wolf" written as Latin-1 "w\xf6lf" on line 7
        data = text.replace("label=wolf", "label=w\xf6lf").encode("latin-1")
        assert self.inspect_bytes(tmp_path, capsys, data) == (
            2, f"error: {tmp_path / 'snap.txt'}: line 7: not UTF-8 text: "
               f"invalid start byte\n")

    # edits of the walkthrough snapshot that each break one memory invariant
    # the comparison cannot see: data 3 is on line 8 and data 4 on line 9
    @pytest.mark.parametrize("edits, number, reason", [
        ([("strength=60 quality=60 size=600",
           "strength=250 quality=60 size=1500")],
         8, "data neuron 3: strength outside [phi, 100]"),
        ([("data 3 locality=0 strength=60", "data 3 locality=0 strength=0.5")],
         8, "data neuron 3: strength outside [phi, 100]"),
        ([("strength=60 quality=60", "strength=60 quality=150")],
         8, "data neuron 3: quality outside [0, 100]"),
        ([("strength=60 quality=60", "strength=60 quality=-3")],
         8, "data neuron 3: quality outside [0, 100]"),
        ([("size=600 original=1000", "size=1500 original=1000")],
         8, "data neuron 3: size above the original size"),
        ([("edge 4 5 weight=1 last_access=0\n", ""),
          ("order 5 4:1\n", "order 5 \n")],
         9, "data neuron 4: no edge from its default cue"),
    ])
    def test_memory_invariant_broken_exits_2_naming_its_line(
            self, tmp_path, capsys, edits, number, reason):
        text = self.walkthrough_snapshot(tmp_path, capsys)
        for old, new in edits:
            assert text.count(old) == 1
            text = text.replace(old, new)
        assert self.inspect_bytes(tmp_path, capsys, text.encode()) == (
            2, f"error: snapshot line {number}: {reason}\n")

    def test_quality_above_the_strength_is_accepted(self, tmp_path, capsys):
        # Memory.set_payload on a lowered data neuron writes one
        text = self.walkthrough_snapshot(tmp_path, capsys)
        text = text.replace("strength=60 quality=60", "strength=60 quality=80")
        assert self.inspect_bytes(tmp_path, capsys, text.encode())[0] == 0

    def test_data_neuron_without_a_default_cue_exits_2(self, tmp_path, capsys):
        # the memory makes a locality's default cue, and its edge, with the
        # locality's first data neuron
        assert self.refusal(tmp_path, capsys, [
            *self.HEAD, self.CUES[0], self.DATA_1, self.EDGE_0_1,
            "order 0 1:3"]) == (
            "error: snapshot line 5: data neuron 1: its locality has no "
            "default cue\n")
        assert self.refusal(tmp_path, capsys, [
            *self.HEAD[:2],
            "locality 0 memory_decay=0.5 association_decay=0 default_cue=2",
            self.CUES[0], self.DATA_1, "cue 2 label=- default=1",
            self.EDGE_0_1, "order 0 1:3", "order 2 "]) == (
            "error: snapshot line 5: data neuron 1: no edge from its default "
            "cue\n")

    def test_missing_file_exits_4(self, tmp_path, capsys):
        assert main(["inspect", "--snapshot", str(tmp_path / "nope.txt")]) == 4
        capsys.readouterr()


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run([sys.executable, "-m", "neuralstore.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout


class TestWalkthroughViaCli:
    def test_run_log_matches_hand_written_expectations(self, tmp_path, capsys):
        from tests.golden import GOLDEN_EXPECTED

        config = tmp_path / "wt.json"
        config.write_text(json.dumps({"preset": "walkthrough", "seed": 42}))
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "wt")]) == 0
        assert main(["run", "--config", str(config),
                     "--trace", str(tmp_path / "wt" / "trace.jsonl"),
                     "--out", str(tmp_path / "wt-run")]) == 0
        capsys.readouterr()
        log = [json.loads(line) for line in
               (tmp_path / "wt-run" / "oplog-ns.jsonl").read_text().splitlines()]
        # neuron ids are deterministic for the walkthrough bootstrap order
        names = {"w0": 0, "w1": 3, "bg": 4, "dn3": 6}
        assert len(log) == len(GOLDEN_EXPECTED)
        for row, expected in zip(log, GOLDEN_EXPECTED):
            assert row["seq"] == expected["seq"]
            assert row["op"] == expected["op"]
            assert row["kind"] == expected["kind"]
            assert row["cost"] == expected["cost"]
            assert row["total_bytes"] == expected["total_bytes"]
            expected_dn = None if expected["dn"] is None else names[expected["dn"]]
            assert row["dn_id"] == expected_dn
            assert row["examined"] == [names[n] for n in expected["examined"]]

    def test_inspect_empty_memory_snapshot(self, tmp_path, capsys):
        from neuralstore.core import HiveParams, Memory

        memory = Memory(HiveParams())
        snapshot = tmp_path / "empty.txt"
        snapshot.write_text(memory.export_graph("snapshot"))
        assert main(["inspect", "--snapshot", str(snapshot)]) == 0
        text = capsys.readouterr().out
        assert "data #" not in text and "edge" not in text
        assert main(["inspect", "--snapshot", str(snapshot),
                     "--format", "dot"]) == 0
        dot = capsys.readouterr().out
        assert dot.splitlines()[0] == "graph memory {"
