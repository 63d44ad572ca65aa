"""Pinned bytes of ``neuralstore generate``.

``generate`` writes a manifest, one payload file per item and a trace.  The
sha256 of ``manifest.jsonl``, of ``trace.jsonl`` and of the payload files
(each file's name and bytes, in name order) must equal its pin, both as
computed here and as ``generate`` prints it, for:

* the ``wildlife-deer`` and ``walkthrough`` presets;
* each benchmark workload's corpus: the ``wildlife-deer`` preset with that
  workload's overrides from ``bench/catalog.py``, at the default seed;
* one odd spec: three classes, three items per cluster, one-byte payloads.

A change to how corpora or traces are drawn that is meant to keep their
bytes (a faster sampler, say) keeps every pin.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from neuralstore.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import catalog  # noqa: E402

PINS = {
    "wildlife-deer": {
        "manifest.jsonl":
            "cd02be8a49a44eff02a9aff351611b2c6dcbbe4cceb73b6775eb95340c7763a7",
        "trace.jsonl":
            "dec078e09f7d41c237298b8d57871092bcfa67ffbbdfa582445c0e334e40faf4",
        "payloads":
            "407521067ad48e1398117a922006d25b8247b7421a7e848693cfa58577c1c6ef",
    },
    "walkthrough": {
        "manifest.jsonl":
            "b99df88773f38d3930be7f6802a892f76ebf50b55e0a4017d1e25ae205a014f9",
        "trace.jsonl":
            "110649828a3e615dc176c538d0d9f59ec8feec763a1c98020a3b21bd9057c42c",
        "payloads":
            "422dc9d236e2e846936ead59d807fbdeb413dee89f0bdd533991adae6f778b07",
    },
    "desk-clustered": {
        "manifest.jsonl":
            "cd02be8a49a44eff02a9aff351611b2c6dcbbe4cceb73b6775eb95340c7763a7",
        "trace.jsonl":
            "dec078e09f7d41c237298b8d57871092bcfa67ffbbdfa582445c0e334e40faf4",
        "payloads":
            "407521067ad48e1398117a922006d25b8247b7421a7e848693cfa58577c1c6ef",
    },
    "distinct-scan": {
        "manifest.jsonl":
            "76d0ec11b5192d6aabfb08b898f637a19e0a5cec9a4a1bb8a486fe8ae56bf228",
        "trace.jsonl":
            "3bea16b0e685a015b2a5e36dc4cab72f68b59c58c7adbac20ed727075e63cf97",
        "payloads":
            "cae9f6344e0402a368bddb213cce9fb0730e995e04ebdc6ac0343b4c6b0def44",
    },
    "capped-writes": {
        "manifest.jsonl":
            "76d0ec11b5192d6aabfb08b898f637a19e0a5cec9a4a1bb8a486fe8ae56bf228",
        "trace.jsonl":
            "d4a0c544a708201711b9f3bd87e25f7d433e087f05ec200b59118560213f1388",
        "payloads":
            "cae9f6344e0402a368bddb213cce9fb0730e995e04ebdc6ac0343b4c6b0def44",
    },
    "odd": {
        "manifest.jsonl":
            "271cb2ae5f1c7adbbf43f12f528c30971b034c45ae9bd81aac0930cf440f3f66",
        "trace.jsonl":
            "3a1498c07be905b7074faf2a8d68a10501de446faea76b49c96c3f77e2d4bd39",
        "payloads":
            "978f3f595cb67dfdb7517b40ccfa2b41e8f6a9b21eaa01f9408e797b86ed825a",
    },
}


def _config(tmp_path, name: str) -> list[str]:
    """The ``generate`` options that select pin ``name``'s config."""
    if name in ("wildlife-deer", "walkthrough"):
        return ["--preset", name]
    if name == "odd":
        doc = {"workload": {"class_labels": ["a", "b", "c"],
                            "items_per_cluster": 3,
                            "payload_size_range": [1, 1]}}
    else:
        doc = {"seed": catalog.DEFAULT_SEED,
               "workload": catalog.WORKLOADS[name].overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"preset": catalog.PRESET, **doc}))
    return ["--config", str(path)]


def _digests(out: Path) -> dict[str, str]:
    payloads = hashlib.sha256()
    for path in sorted((out / "payloads").iterdir()):
        payloads.update(path.name.encode() + b"\0")
        payloads.update(hashlib.sha256(path.read_bytes()).digest())
    return {
        "manifest.jsonl":
            hashlib.sha256((out / "manifest.jsonl").read_bytes()).hexdigest(),
        "trace.jsonl":
            hashlib.sha256((out / "trace.jsonl").read_bytes()).hexdigest(),
        "payloads": payloads.hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(PINS))
def test_generate_matches_its_pins(tmp_path, capsys, name):
    out = tmp_path / "data"
    assert main(["generate", *_config(tmp_path, name), "--out", str(out)]) == 0
    assert _digests(out) == PINS[name]
    # generate prints the same three digests, payloads last
    assert capsys.readouterr().out.splitlines() == [
        f"{out / part}  sha256={digest}" for part, digest in PINS[name].items()]


def test_printed_payload_digest_leaves_out_older_files(tmp_path, capsys):
    # a file in the payload directory that is no payload file stays there,
    # and the printed digest leaves it out
    out = tmp_path / "data"
    assert main(["generate", "--preset", "wildlife-deer", "--out", str(out)]) == 0
    (out / "payloads" / "notes.txt").write_text("not a payload")
    assert main(["generate", *_config(tmp_path, "odd"), "--out", str(out)]) == 0
    assert (out / "payloads" / "notes.txt").read_text() == "not a payload"
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"{out / 'payloads'}  sha256={PINS['odd']['payloads']}"


def _files(out: Path) -> dict[str, bytes]:
    return {str(path.relative_to(out)): path.read_bytes()
            for path in out.rglob("*") if path.is_file()}


def test_generate_over_a_larger_corpus_writes_a_fresh_directory(tmp_path,
                                                                capsys):
    # a 40-item corpus generated over the 200-item desk output leaves the
    # same files as in a directory of its own (``diff -r`` finds nothing)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"preset": "wildlife-deer",
                                  "workload": {"n_items": 40}}))
    over, fresh = tmp_path / "over", tmp_path / "fresh"
    assert main(["generate", "--preset", "wildlife-deer", "--out", str(over)]) == 0
    assert len(list((over / "payloads").iterdir())) == 200
    for out in (over, fresh):
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(list((fresh / "payloads").iterdir())) == 40
    assert _files(over) == _files(fresh)
