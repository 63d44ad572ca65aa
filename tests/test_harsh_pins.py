"""Pinned artifacts of a small run under a harsher learning config.

Every preset keeps associations from ageing (zero association decay) and
leaves failed examinations alone (``weaken_on_fail: false``), so the pins
in ``test_compare_pins.py`` never reach the retention pass's edge ageing or
a flag-0 reaction.  This config turns both on, with ``phi: 0`` and a
50-op retention period, on the same reduced ``wildlife-deer`` workload:

* ``run --cap 8000`` squeezes the learning engine through elasticity on
  most stores, and writes its op log and state snapshot;
* ``compare`` replays both engines and the cap grid.

A second pin runs the same learning config at scale: 1,100 distinct items,
enough to grow the row columns past 1,024 rows and to start the
1,024-entry feature and fine-cue memos over, under a cap that binds.

On this trace the engine weakens 177 edges in flag-0 reactions and ages 55
idle edges in retention passes, 15 of which move.  The sha256 of every
artifact must equal its pin: a change meant to keep behaviour keeps every
pin.  Each run's snapshot must also pass ``neuralstore inspect``.
"""

from __future__ import annotations

import hashlib
import json

from neuralstore.cli import main

CONFIG = {
    "preset": "wildlife-deer",
    "seed": 42,
    "hive": {"association_decay_rates": [2.0, 5.0], "phi": 0.0,
             "retention_period": 50},
    "controls": {"weaken_on_fail": True},
    "workload": {"n_items": 40, "n_retrievals": 300, "tail_retentions": 5},
    "compare": {"warmup_ops": 40},
}

RUN_PINS = {
    "oplog-ns.jsonl":
        "d31c3aea473624644cd08ae731ce403712ce9db32aeac59674a36d9d1058f65a",
    "snapshot.txt":
        "0a8f6dd04664a257acb462b86f48c60d5e646d10f0c51a3a5807c0cd36d72915",
}

COMPARE_PINS = {
    "oplog-ns.jsonl":
        "16e34ab9350270e13bc8d6e89a0be6af0e407003b7b9b7fbcd0270f2e0fc57ad",
    "oplog-cam.jsonl":
        "50b741e5cf1e5884f366505a25caa850d5eb5d48373dbf2cd1f3fbf3472d4371",
    "summary.csv":
        "a0421c281dfbbc023e0af61add2c747c79ca9abb8b1fbb12111ee27d9c4c672f",
    "ratios.csv":
        "dfd6dc39175a09eaca997d2b833fcb55ac3fd6849f9da412425b18bf221e19c2",
    "space_timeline.csv":
        "8d524e4e242d88acc695dde10e5bc533e09575fa290c3ca1e30f31a8d9ebe322",
    "qf_curve.csv":
        "6d1c2f5d41557cb6f1ce3327015fed35c29a95ea64399a65e70e3f1d2cd5bc6b",
}


SCALE_CONFIG = {
    **CONFIG,
    "workload": {"n_items": 1100, "items_per_cluster": 1,
                 "n_retrievals": 1100, "payload_size_range": [256, 1024],
                 "tail_retentions": 5},
}

SCALE_RUN_PINS = {
    "oplog-ns.jsonl":
        "a51fd54edb29548c69602b4d00ab904bc8c48761d3afac9f8c3a033036424454",
    "snapshot.txt":
        "98ca7733dc33a4526859b1a9698b6d78eddd1606359c29ab14032b58250c5f1e",
}


def _digests(out, names) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


def test_harsh_run_and_compare_match_their_pins(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    data, run, cmp = tmp_path / "data", tmp_path / "run", tmp_path / "cmp"
    trace = str(data / "trace.jsonl")
    assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
    assert main(["run", "--config", str(config), "--trace", trace,
                 "--cap", "8000", "--out", str(run)]) == 0
    assert main(["compare", "--config", str(config), "--trace", trace,
                 "--out", str(cmp)]) == 0
    capsys.readouterr()
    assert _digests(run, RUN_PINS) == RUN_PINS
    assert _digests(cmp, COMPARE_PINS) == COMPARE_PINS
    assert main(["inspect", "--snapshot", str(run / "snapshot.txt")]) == 0


def test_harsh_run_at_scale_matches_its_pins(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SCALE_CONFIG))
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
    assert main(["run", "--config", str(config),
                 "--trace", str(data / "trace.jsonl"),
                 "--cap", "160000", "--out", str(run)]) == 0
    capsys.readouterr()
    assert _digests(run, SCALE_RUN_PINS) == SCALE_RUN_PINS
    assert main(["inspect", "--snapshot", str(run / "snapshot.txt")]) == 0
