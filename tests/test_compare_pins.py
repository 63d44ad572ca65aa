"""Pinned artifacts of a small ``neuralstore compare`` run.

A reduced ``wildlife-deer`` run (40 items, 300 retrievals, 5 tail
retentions, 40 warm-up ops, the default 12 cap fractions) is generated and
compared in about a second.  Its smallest cap makes elasticity squeeze the
learning engine (quality factor 0.675 at 10,724 bytes), so store, retrieve,
retention, elasticity and the CAM baseline all shape the artifacts.  The
sha256 of every artifact must equal its pin: a change meant to keep
behaviour (a speed-up, a refactor, a removed option) keeps every pin; a
change meant to alter what the engines do updates the pins it moves and
says why.
"""

from __future__ import annotations

import hashlib
import json

from neuralstore.cli import main

CONFIG = {
    "preset": "wildlife-deer",
    "seed": 42,
    "workload": {"n_items": 40, "n_retrievals": 300, "tail_retentions": 5},
    "compare": {"warmup_ops": 40},
}

PINS = {
    "oplog-ns.jsonl":
        "72522436527aa8f4678dc5b75ca15a0dbe1b56b186d16f9be9e560fb350da356",
    "oplog-cam.jsonl":
        "50b741e5cf1e5884f366505a25caa850d5eb5d48373dbf2cd1f3fbf3472d4371",
    "summary.csv":
        "55be0e594659d3c2a85aeaf4b01182abffe97e79f27fdb325a201705634d462e",
    "ratios.csv":
        "e685d6f151081f6080e44dca0056f2cc426de8bb600a4425150966d0a54d3e46",
    "space_timeline.csv":
        "8d524e4e242d88acc695dde10e5bc533e09575fa290c3ca1e30f31a8d9ebe322",
    "space_timeline.svg":
        "844bb6c31f1c475a4e049b13c599c7ce3de452e411018967cb578ac87d3dd806",
    "qf_curve.csv":
        "6d1c2f5d41557cb6f1ce3327015fed35c29a95ea64399a65e70e3f1d2cd5bc6b",
    "qf_curve.svg":
        "b36c9bf2fa04524f210f6f31d93afa6d3e73cfa2347e6ec57623cfc2810532f7",
}


def test_compare_artifacts_match_their_pins(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    data, out = tmp_path / "data", tmp_path / "cmp"
    assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
    assert main(["compare", "--config", str(config),
                 "--trace", str(data / "trace.jsonl"), "--out", str(out)]) == 0
    capsys.readouterr()
    qf_rows = (out / "qf_curve.csv").read_text().splitlines()
    assert "ns,10724,0.675267,1,0.675267,0" in qf_rows
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in PINS}
    assert digests == PINS
