"""The scripted walkthrough trace, verified against the hand-written log."""

from __future__ import annotations

from neuralstore.workload import NsReplayAdapter, replay
from tests.conftest import build_walkthrough
from tests.golden import GOLDEN_EXPECTED, run_walkthrough


def test_trace_matches_hand_written_log():
    elapsed = run_walkthrough(build_walkthrough)
    assert elapsed < 1.0


def test_trace_is_seven_records():
    _, _, trace, _ = build_walkthrough()
    assert len(trace) == len(GOLDEN_EXPECTED) == 7
    assert [r.op for r in trace] == ["retrieve", "store", "retrieve", "retrieve",
                                     "retrieve", "store", "retention"]


def test_candidate_visit_orders_flip_after_reinforcement():
    engine, corpus, trace, ids = build_walkthrough()
    log = replay(trace, NsReplayAdapter(engine), corpus)
    # first retrieve examines w0 before w1 (equal weights, id tie-break);
    # the following store examines w1 first because <wolf,w1> was reinforced
    assert log[0]["examined"] == [ids["w0"], ids["w1"]]
    assert log[1]["examined"] == [ids["w1"], ids["w0"]]


def test_unseen_cue_neuron_created_only_at_the_successful_retrieve():
    engine, corpus, trace, _ = build_walkthrough()
    adapter = NsReplayAdapter(engine)
    for rec in trace[:2]:
        if rec.op == "store":
            adapter.do_store(rec, corpus.get(rec.item_id))
        else:
            adapter.do_retrieve(rec, corpus.get(rec.item_id))
    assert engine.memory.find_cue_by_label("canis") is None
    adapter.do_retrieve(trace[2], corpus.get(trace[2].item_id))
    canis = engine.memory.find_cue_by_label("canis")
    assert canis is not None


def test_merge_refresh_restores_full_quality_copy():
    engine, corpus, trace, ids = build_walkthrough()
    log = replay(trace, NsReplayAdapter(engine), corpus)
    merged = log[5]
    assert merged["kind"] == "merged"
    assert merged["dn_id"] == ids["w0"]
    payload = engine.memory.payload(ids["w0"])
    assert payload.quality == 100.0
    assert payload.lineage == "w0-dup"
