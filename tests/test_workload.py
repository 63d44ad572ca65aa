"""Corpus generation, trace generation, file formats, and replay tests."""

from __future__ import annotations

import numpy as np
import pytest

from neuralstore.cam import CamBaseline
from neuralstore.codec import HistogramExtractor, cosine_similarity
from neuralstore.core import ConfigurationError, HiveParams
from neuralstore.engine import MemoryEngine
from neuralstore.workload import (
    CamReplayAdapter,
    Corpus,
    ManifestItem,
    NsReplayAdapter,
    ReplayError,
    TraceRecord,
    WorkloadSpec,
    build_corpus,
    generate_trace,
    read_manifest,
    read_trace,
    replay,
    write_manifest,
    write_trace,
)


def small_spec(**overrides) -> WorkloadSpec:
    base = dict(n_items=24, priority_bias=0.9, n_retrievals=60,
                payload_size_range=(1024, 2048), seed=7, items_per_cluster=4,
                class_labels=["deer", "background"])
    base.update(overrides)
    return WorkloadSpec(**base)


def ns_adapter() -> NsReplayAdapter:
    params = HiveParams(locality_mapping=[{"labels": ["deer"]}, {}])
    return NsReplayAdapter(MemoryEngine(params))


class TestCorpus:
    def test_deterministic(self):
        a = build_corpus(small_spec())
        b = build_corpus(small_spec())
        assert [i.item_id for i in a.items] == [i.item_id for i in b.items]
        assert all(x.data == y.data for x, y in zip(a.items, b.items))

    def test_empty_spec_gives_empty_manifest(self):
        corpus = build_corpus(small_spec(n_items=0))
        assert corpus.items == []

    def test_labels_and_priority_flags(self):
        corpus = build_corpus(small_spec())
        assert {i.class_label for i in corpus.items} == {"deer", "background"}
        for item in corpus.items:
            assert item.priority == (item.class_label == "deer")

    def test_intra_class_similarity_exceeds_inter_class(self):
        corpus = build_corpus(small_spec())
        extractor = HistogramExtractor(dim=64, seed=7)
        features = {i.item_id: extractor.extract(i.data) for i in corpus.items}
        intra, inter = [], []
        items = corpus.items
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                sim = cosine_similarity(features[items[i].item_id],
                                        features[items[j].item_id])
                if items[i].class_label == items[j].class_label:
                    intra.append(sim)
                else:
                    inter.append(sim)
        assert float(np.mean(intra)) > float(np.mean(inter))

    def test_sizes_within_range(self):
        corpus = build_corpus(small_spec())
        for item in corpus.items:
            assert 1024 <= len(item.data) <= 2048

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(priority_bias=1.5).validate()
        with pytest.raises(ConfigurationError):
            small_spec(class_labels=[]).validate()
        with pytest.raises(ConfigurationError, match="walkthrough"):
            small_spec(kind="walkthrough", class_labels=["wolf"]).validate()
        with pytest.raises(ConfigurationError):
            small_spec(payload_size_range=(0, 10)).validate()


class TestTrace:
    def test_store_phase_covers_every_item_once_in_order(self):
        spec = small_spec()
        corpus = build_corpus(spec)
        records = generate_trace(corpus, spec)
        stores = [r for r in records if r.op == "store"]
        assert [r.item_id for r in stores] == [i.item_id for i in corpus.items]

    def test_stores_precede_retrieves_of_same_item(self):
        spec = small_spec()
        corpus = build_corpus(spec)
        records = generate_trace(corpus, spec)
        stored = set()
        for rec in records:
            if rec.op == "store":
                stored.add(rec.item_id)
            elif rec.op == "retrieve":
                assert rec.item_id in stored

    def test_full_bias_targets_only_priority_class(self):
        spec = small_spec(priority_bias=1.0, n_retrievals=200)
        corpus = build_corpus(spec)
        labels = {i.item_id: i.class_label for i in corpus.items}
        for rec in generate_trace(corpus, spec):
            if rec.op == "retrieve":
                assert labels[rec.item_id] == "deer"

    def test_bias_fraction_within_one_percent_at_ten_thousand(self):
        spec = small_spec(n_retrievals=10_000)
        corpus = build_corpus(spec)
        labels = {i.item_id: i.class_label for i in corpus.items}
        retrieves = [r for r in generate_trace(corpus, spec) if r.op == "retrieve"]
        fraction = sum(labels[r.item_id] == "deer" for r in retrieves) / len(retrieves)
        assert abs(fraction - 0.9) <= 0.01

    def test_same_seed_gives_identical_trace_bytes(self, tmp_path):
        spec = small_spec()
        corpus = build_corpus(spec)
        p1 = write_trace(generate_trace(corpus, spec), tmp_path / "a.jsonl")
        p2 = write_trace(generate_trace(corpus, spec), tmp_path / "b.jsonl")
        assert p1.read_bytes() == p2.read_bytes()

    def test_tail_retention_records(self):
        spec = small_spec(tail_retentions=3)
        corpus = build_corpus(spec)
        tail = generate_trace(corpus, spec)[-3:]
        assert all(r.op == "retention" and r.retention_window == 1 for r in tail)

    def test_empty_manifest_rejected(self):
        spec = small_spec(n_items=0)
        with pytest.raises(ConfigurationError):
            generate_trace(build_corpus(spec), spec)


class TestFiles:
    def test_manifest_round_trip_with_payload_files(self, tmp_path):
        corpus = build_corpus(small_spec())
        path = write_manifest(corpus, tmp_path / "manifest.jsonl",
                              tmp_path / "payloads")
        loaded = read_manifest(path)
        assert [i.item_id for i in loaded.items] == [i.item_id for i in corpus.items]
        assert all(x.data == y.data for x, y in zip(loaded.items, corpus.items))

    def test_manifest_round_trip_inline(self, tmp_path):
        corpus = build_corpus(small_spec(n_items=4))
        path = write_manifest(corpus, tmp_path / "manifest.jsonl")
        loaded = read_manifest(path)
        assert all(x.data == y.data for x, y in zip(loaded.items, corpus.items))

    def test_trace_round_trip(self, tmp_path):
        spec = small_spec(tail_retentions=2)
        corpus = build_corpus(spec)
        records = generate_trace(corpus, spec)
        loaded = read_trace(write_trace(records, tmp_path / "trace.jsonl"))
        assert loaded == records

    def test_bad_headers_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"other","version":1}\n')
        with pytest.raises(ConfigurationError):
            read_manifest(bad)
        with pytest.raises(ConfigurationError):
            read_trace(bad)


class TestReplay:
    def test_both_engines_emit_one_record_per_trace_op(self):
        spec = small_spec(tail_retentions=2)
        corpus = build_corpus(spec)
        records = generate_trace(corpus, spec)
        ns_log = replay(records, ns_adapter(), corpus)
        cam_log = replay(records, CamReplayAdapter(CamBaseline()), corpus)
        assert len(ns_log) == len(cam_log) == len(records)
        assert [(r["seq"], r["op"]) for r in ns_log] == \
            [(r["seq"], r["op"]) for r in cam_log]

    def test_store_only_trace_has_no_retrieve_records(self):
        spec = small_spec(n_retrievals=0)
        corpus = build_corpus(spec)
        records = generate_trace(corpus, spec)
        log = replay(records, ns_adapter(), corpus)
        assert all(r["op"] == "store" for r in log)

    def test_replay_deterministic(self):
        spec = small_spec()
        corpus = build_corpus(spec)
        records = generate_trace(corpus, spec)
        a = replay(records, ns_adapter(), corpus)
        b = replay(records, ns_adapter(), corpus)
        assert a == b

    def test_trace_not_mutated(self):
        spec = small_spec()
        corpus = build_corpus(spec)
        records = generate_trace(corpus, spec)
        snapshot = list(records)
        replay(records, ns_adapter(), corpus)
        assert records == snapshot

    def test_malformed_record_aborts_with_seq(self):
        spec = small_spec(n_items=4, n_retrievals=0)
        corpus = build_corpus(spec)
        records = generate_trace(corpus, spec)
        records.append(TraceRecord(seq=99, op="defrag"))
        with pytest.raises(ReplayError) as err:
            replay(records, ns_adapter(), corpus)
        assert err.value.seq == 99

    def test_unknown_item_aborts(self):
        spec = small_spec(n_items=4, n_retrievals=0)
        corpus = build_corpus(spec)
        records = [TraceRecord(seq=0, op="store", item_id="ghost",
                               coarse_cues=("deer",))]
        with pytest.raises(ReplayError):
            replay(records, ns_adapter(), corpus)

    def test_cam_overwrite_dropped_for_its_size_is_logged_as_a_miss(self):
        corpus = Corpus([ManifestItem("a", "deer", True, b"x" * 5),
                         ManifestItem("a-big", "deer", True, b"x" * 20)])
        adapter = CamReplayAdapter(CamBaseline(capacity_bytes=10))
        first = adapter.do_store(None, corpus.get("a"))
        # the same tag again, 20 bytes this time
        second = adapter.do_store(None, ManifestItem("a", "deer", True,
                                                     b"x" * 20))
        assert (first["kind"], first["hit"]) == ("new_neuron", True)
        assert (second["kind"], second["hit"], second["quality"]) == \
            ("miss", False, None)
        assert adapter.total_bytes() == 0

    def test_storage_full_flagged(self):
        spec = small_spec(n_items=8, n_retrievals=0)
        corpus = build_corpus(spec)
        records = generate_trace(corpus, spec)
        params = HiveParams(locality_mapping=[{"labels": ["deer"]}, {}],
                            capacity_bytes=64)
        adapter = NsReplayAdapter(MemoryEngine(params))
        with pytest.raises(ReplayError) as err:
            replay(records, adapter, corpus)
        assert err.value.storage_full
        assert err.value.seq == 0
