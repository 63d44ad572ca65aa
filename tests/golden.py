"""Hand-written expected log for the scripted walkthrough scenario.

The scenario: two wolf-cued data neurons and one background neuron are
pre-seeded (all at strength 100, cue edges at the epsilon floor of 1), then a
7-record trace runs with eta 10, locality decay rates [10, 20], phi 1 and
retention after every operation.  Every expected value below was derived by
hand from the update rules before the engine existed:

* seq 0  retrieve "wolf"/feature(w1): w0 examined first (equal weights, id
  tie-break) and fails, w1 hits; <wolf,w1> 1 -> 11; w1 restored to 100;
  idle neurons decay by their locality rate.
* seq 1  store "wolf"/novel payload: search order now starts at w1 (weight
  11), both merge attempts fail, new neuron dn3 joins locality 0 connected
  to the default cue and to "wolf" at epsilon (no strengthening on plain
  association).
* seq 2  retrieve unknown cue "canis"/feature(w1): traversal via the
  locality-0 default cue in id order, w0 fails, w1 hits; <default0,w1>
  1 -> 11; a "canis" cue neuron appears, linked to w1 at epsilon.
* seq 3  retrieve "wolf"/feature(w0): w1 (weight 11) fails, then w0 hits
  (dn3 is tied with w0 at 1 but has the larger id); <wolf,w0> 1 -> 11.
* seq 4  same retrieve: w0 now ties w1 at 11 and wins by id, cost 1;
  <wolf,w0> -> 21.
* seq 5  store near-duplicate of w0: first merge attempt succeeds at cost 1;
  <wolf,w0> -> 31; the fresh full-quality copy replaces w0's degraded
  payload (stored bytes rise, the one allowed increase).
* seq 6  explicit retention pass with a window of 1: everything except the
  just-accessed w0 decays once more.

Strengths move in locksteps of the locality decay rates, and stored sizes
are exact because every payload is 1000 bytes under the truncation codec.
Restoration never resurrects lost quality: w1 keeps quality 90 from seq 2
on even while its strength returns to 100.
"""

from __future__ import annotations

import math
import time

from neuralstore.workload import NsReplayAdapter
from tests.helpers import data_neurons

# per-record expectations keyed by symbolic neuron names:
#   w0, w1, bg      pre-seeded data neurons
#   dn3             neuron created at seq 1
#   wolf, canis, d0 cue neurons ("d0" = locality-0 default cue)
GOLDEN_EXPECTED = [
    {"seq": 0, "op": "retrieve", "kind": "hit", "dn": "w1", "cost": 2,
     "examined": ["w0", "w1"],
     "strengths": {"w0": 90.0, "w1": 100.0, "bg": 80.0},
     "qualities": {"w0": 90.0, "w1": 100.0, "bg": 80.0},
     "total_bytes": 2700,
     "weights": {("wolf", "w1"): 11.0, ("wolf", "w0"): 1.0}},
    {"seq": 1, "op": "store", "kind": "new_neuron", "dn": "dn3", "cost": 2,
     "examined": ["w1", "w0"],
     "strengths": {"w0": 80.0, "w1": 90.0, "bg": 60.0, "dn3": 100.0},
     "qualities": {"w0": 80.0, "w1": 90.0, "bg": 60.0, "dn3": 100.0},
     "total_bytes": 3300,
     "weights": {("wolf", "dn3"): 1.0, ("d0", "dn3"): 1.0}},
    {"seq": 2, "op": "retrieve", "kind": "hit", "dn": "w1", "cost": 2,
     "examined": ["w0", "w1"],
     "strengths": {"w0": 70.0, "w1": 100.0, "bg": 40.0, "dn3": 90.0},
     "qualities": {"w0": 70.0, "w1": 90.0, "bg": 40.0, "dn3": 90.0},
     "total_bytes": 2900,
     "weights": {("d0", "w1"): 11.0, ("canis", "w1"): 1.0}},
    {"seq": 3, "op": "retrieve", "kind": "hit", "dn": "w0", "cost": 2,
     "examined": ["w1", "w0"],
     "strengths": {"w0": 100.0, "w1": 90.0, "bg": 20.0, "dn3": 80.0},
     "qualities": {"w0": 70.0, "w1": 90.0, "bg": 20.0, "dn3": 80.0},
     "total_bytes": 2600,
     "weights": {("wolf", "w0"): 11.0}},
    {"seq": 4, "op": "retrieve", "kind": "hit", "dn": "w0", "cost": 1,
     "examined": ["w0"],
     "strengths": {"w0": 100.0, "w1": 80.0, "bg": 1.0, "dn3": 70.0},
     "qualities": {"w0": 70.0, "w1": 80.0, "bg": 1.0, "dn3": 70.0},
     "total_bytes": 2210,
     "weights": {("wolf", "w0"): 21.0}},
    {"seq": 5, "op": "store", "kind": "merged", "dn": "w0", "cost": 1,
     "examined": ["w0"],
     "strengths": {"w0": 100.0, "w1": 70.0, "bg": 1.0, "dn3": 60.0},
     "qualities": {"w0": 100.0, "w1": 70.0, "bg": 1.0, "dn3": 60.0},
     "total_bytes": 2310,
     "weights": {("wolf", "w0"): 31.0}},
    {"seq": 6, "op": "retention", "kind": "aged", "dn": None, "cost": 0,
     "examined": [],
     "strengths": {"w0": 100.0, "w1": 60.0, "bg": 1.0, "dn3": 50.0},
     "qualities": {"w0": 100.0, "w1": 60.0, "bg": 1.0, "dn3": 50.0},
     "total_bytes": 2110,
     "weights": {("wolf", "w0"): 31.0, ("wolf", "w1"): 11.0,
                 ("wolf", "dn3"): 1.0, ("canis", "w1"): 1.0}},
]


def run_walkthrough(build):
    """Replay the scripted trace step by step, asserting the expected log.

    ``build`` is a callable returning (engine, corpus, trace, ids).  Returns
    the elapsed wall time of the replay itself.
    """
    engine, corpus, trace, ids = build()
    adapter = NsReplayAdapter(engine)
    names = dict(ids)   # w0, w1, bg -> neuron ids

    def resolve(name: str) -> int:
        if name in names:
            return names[name]
        cue = engine.hive.find_cue_by_label(name)
        assert cue is not None, f"expected cue {name!r} to exist"
        return cue

    names["wolf"] = resolve("wolf")
    names["d0"] = engine.hive.localities[0].default_cue_id
    started = time.perf_counter()
    for rec, expected in zip(trace, GOLDEN_EXPECTED):
        if rec.op == "store":
            row = adapter.do_store(rec, corpus.get(rec.item_id))
        elif rec.op == "retrieve":
            row = adapter.do_retrieve(rec, corpus.get(rec.item_id))
        else:
            row = adapter.do_retention(rec)
        if expected["seq"] == 1:
            names["dn3"] = row["dn_id"]
        if expected["seq"] == 2:
            names["canis"] = resolve("canis")

        assert rec.seq == expected["seq"]
        assert rec.op == expected["op"]
        assert row["kind"] == expected["kind"], f"seq {rec.seq}"
        assert row["cost"] == expected["cost"], f"seq {rec.seq}"
        expected_dn = None if expected["dn"] is None else names[expected["dn"]]
        assert row["dn_id"] == expected_dn, f"seq {rec.seq}"
        assert row["examined"] == [names[n] for n in expected["examined"]], \
            f"seq {rec.seq}"
        memory = engine.memory
        strengths = {dn.id: dn.strength for dn in data_neurons(memory)}
        qualities = {dn.id: dn.payload.quality for dn in data_neurons(memory)}
        for name, value in expected["strengths"].items():
            assert strengths[names[name]] == value, f"seq {rec.seq} strength {name}"
        for name, value in expected["qualities"].items():
            assert qualities[names[name]] == value, f"seq {rec.seq} quality {name}"
        assert memory.total_bytes() == expected["total_bytes"], f"seq {rec.seq}"
        for (a, b), w in expected["weights"].items():
            assert memory.weights[names[a], names[b]] == w, \
                f"seq {rec.seq} weight {a}-{b}"
    elapsed = time.perf_counter() - started
    assert math.isfinite(elapsed)
    return elapsed
