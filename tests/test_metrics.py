"""Metric aggregation and report emission tests."""

from __future__ import annotations

import dataclasses
import math

import pytest

from neuralstore.cam import CamBaseline
from neuralstore.core import HiveParams
from neuralstore.engine import MemoryEngine
from neuralstore.metrics import (
    QualityFactorPoint,
    emit_reports,
    engine_summary,
    quality_factor_curve,
    space_timeline,
    summarize,
)
from neuralstore.workload import (
    CamReplayAdapter,
    NsReplayAdapter,
    WorkloadSpec,
    build_corpus,
    generate_trace,
    replay,
)


def make_run(tail: int = 0, n_items: int = 16, n_retrievals: int = 40):
    spec = WorkloadSpec(n_items=n_items, priority_bias=0.9,
                        n_retrievals=n_retrievals, payload_size_range=(1024, 2048),
                        seed=11, items_per_cluster=4,
                        class_labels=["deer", "background"],
                        tail_retentions=tail)
    corpus = build_corpus(spec)
    records = generate_trace(corpus, spec)
    return spec, corpus, records


def run_both(records, corpus):
    params = HiveParams(locality_mapping=[{"labels": ["deer"]}, {}])
    ns_log = replay(records, NsReplayAdapter(MemoryEngine(params)), corpus)
    cam_log = replay(records, CamReplayAdapter(CamBaseline()), corpus)
    return ns_log, cam_log


class TestSummarize:
    def test_identical_logs_ratio_one(self):
        _, corpus, records = make_run()
        ns_log, cam_log = run_both(records, corpus)
        fake_ns = [dict(r, engine="ns") for r in cam_log]
        summary = summarize(fake_ns, cam_log)
        assert summary["ratios"]["retrieve_cost_ratio"] == 1.0
        assert summary["ratios"]["combined_cost_ratio"] == 1.0
        assert summary["ratios"]["space_ratio"] == 1.0

    def test_uniform_scan_costs_average_to_half_table(self):
        # synthetic CAM log with costs 1..n: mean must be (n+1)/2
        n = 9
        log = [{"seq": i, "engine": "cam", "op": "retrieve", "kind": "hit",
                "cost": i + 1, "hit": True, "fidelity": math.inf,
                "total_bytes": 100} for i in range(n)]
        summary = engine_summary(log)
        assert summary["mean_retrieve_cost"] == (n + 1) / 2

    def test_mixed_trace_logs_rejected(self):
        _, corpus, records = make_run()
        ns_log, cam_log = run_both(records, corpus)
        with pytest.raises(ValueError):
            summarize(ns_log, cam_log[:-1])

    def test_warmup_skips_leading_records(self):
        _, corpus, records = make_run()
        ns_log, _ = run_both(records, corpus)
        full = engine_summary(ns_log)
        trimmed = engine_summary(ns_log, warmup=16)
        assert trimmed["stores"] == 0
        assert trimmed["ops"] == full["ops"] - 16

    def test_ratio_reported_only_with_both_engines(self):
        _, corpus, records = make_run()
        ns_log, cam_log = run_both(records, corpus)
        assert summarize(ns_log)["ratios"] == {}
        assert "retrieve_cost_ratio" in summarize(ns_log, cam_log)["ratios"]


class TestTimeline:
    def test_store_only_series_non_decreasing(self):
        spec, corpus, _ = make_run(n_retrievals=0)
        records = generate_trace(corpus, spec)
        ns_log, _ = run_both(records, corpus)
        series = space_timeline(ns_log)
        assert all(b[1] >= a[1] for a, b in zip(series, series[1:]))

    def test_retention_tail_non_increasing_for_ns(self):
        _, corpus, records = make_run(tail=5)
        ns_log, _ = run_both(records, corpus)
        tail = [r["total_bytes"] for r in ns_log if r["op"] == "retention"]
        assert len(tail) == 5
        assert all(b <= a for a, b in zip(tail, tail[1:]))

    def test_cam_series_flat_after_table_fills(self):
        _, corpus, records = make_run()
        _, cam_log = run_both(records, corpus)
        stores = sum(1 for r in records if r.op == "store")
        series = space_timeline(cam_log)
        after_fill = [b for s, b in series if s >= stores]
        assert len(set(after_fill)) == 1


class TestQualityFactor:
    def test_uncapped_cam_reaches_full_quality(self):
        _, corpus, records = make_run()

        def factory(cap):
            return CamReplayAdapter(CamBaseline(capacity_bytes=None))

        points = quality_factor_curve(records, corpus, factory,
                                      [corpus.total_bytes() * 2])
        assert points[0].quality_factor == 1.0
        assert points[0].hit_rate == 1.0

    def test_infeasible_cap_flagged_zero(self):
        _, corpus, records = make_run()
        params = HiveParams(locality_mapping=[{"labels": ["deer"]}, {}])

        def factory(cap):
            import dataclasses
            return NsReplayAdapter(MemoryEngine(
                dataclasses.replace(params, capacity_bytes=cap)))

        points = quality_factor_curve(records, corpus, factory, [16])
        assert points[0].failed
        assert points[0].quality_factor == 0.0

    def test_each_point_is_the_summary_of_its_capped_log(self):
        _, corpus, records = make_run()
        params = HiveParams(locality_mapping=[{"labels": ["deer"]}, {}])
        caps = [corpus.total_bytes() // 3, corpus.total_bytes() * 2]

        def factory(cap):
            return NsReplayAdapter(MemoryEngine(
                dataclasses.replace(params, capacity_bytes=cap)))

        for point in quality_factor_curve(records, corpus, factory, caps):
            summary = engine_summary(
                replay(records, factory(point.cap_bytes), corpus))
            assert point.hit_rate == summary["hit_rate"]
            assert point.mean_fidelity == summary["mean_norm_fidelity"]
            assert point.quality_factor == \
                summary["hit_rate"] * summary["mean_norm_fidelity"]
            assert not point.failed

    def test_empty_trace_scores_zero(self):
        _, corpus, _ = make_run()
        points = quality_factor_curve(
            [], corpus, lambda cap: CamReplayAdapter(CamBaseline(cap)), [10])
        assert points == [QualityFactorPoint(10, 0.0, 0.0, 0.0)]

    def test_caps_must_ascend(self):
        _, corpus, records = make_run()
        with pytest.raises(ValueError):
            quality_factor_curve(records, corpus, lambda c: None, [10, 10])


class TestEmission:
    def test_reports_byte_deterministic(self, tmp_path):
        _, corpus, records = make_run(tail=2)
        ns_log, cam_log = run_both(records, corpus)
        summary = summarize(ns_log, cam_log)
        timelines = {"ns": space_timeline(ns_log), "cam": space_timeline(cam_log)}
        curves = {"ns": [QualityFactorPoint(100, 0.5, 0.6, 0.833)],
                  "cam": [QualityFactorPoint(100, 0.25, 0.5, 0.5)]}
        a = emit_reports(tmp_path / "a", summary, timelines, curves)
        b = emit_reports(tmp_path / "b", summary, timelines, curves)
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_summary_includes_ratio_file_when_both_present(self, tmp_path):
        _, corpus, records = make_run()
        ns_log, cam_log = run_both(records, corpus)
        written = emit_reports(tmp_path, summarize(ns_log, cam_log))
        names = {p.name for p in written}
        assert names == {"summary.csv", "ratios.csv"}
        ratio_lines = (tmp_path / "ratios.csv").read_text().splitlines()
        assert ratio_lines[0] == "metric,value"
        assert any(ln.startswith("retrieve_cost_ratio,") for ln in ratio_lines)

    def test_empty_series_emits_header_only(self, tmp_path):
        emit_reports(tmp_path, timelines={"ns": []})
        lines = (tmp_path / "space_timeline.csv").read_text().splitlines()
        assert lines == ["engine,seq,total_bytes"]

    def test_svg_deterministic_and_wellformed(self, tmp_path):
        timelines = {"ns": [(0, 10), (1, 20), (2, 15)]}
        emit_reports(tmp_path / "a", timelines=timelines)
        emit_reports(tmp_path / "b", timelines=timelines)
        svg_a = (tmp_path / "a" / "space_timeline.svg").read_text()
        svg_b = (tmp_path / "b" / "space_timeline.svg").read_text()
        assert svg_a == svg_b
        assert svg_a.startswith("<svg ") and svg_a.rstrip().endswith("</svg>")


class TestQualityFactorComponents:
    def test_components_within_unit_interval(self):
        _, corpus, records = make_run()
        params = HiveParams(locality_mapping=[{"labels": ["deer"]}, {}])

        def factory(cap):
            import dataclasses
            return NsReplayAdapter(MemoryEngine(
                dataclasses.replace(params, capacity_bytes=cap)))

        caps = [corpus.total_bytes() // 4, corpus.total_bytes() * 2]
        for p in quality_factor_curve(records, corpus, factory, caps):
            assert 0.0 <= p.hit_rate <= 1.0
            assert 0.0 <= p.mean_fidelity <= 1.0
            assert 0.0 <= p.quality_factor <= 1.0
