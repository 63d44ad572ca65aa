"""Aggregation of operation logs into cost, space and fidelity reports.

Reads the line-delimited operation log records emitted by replay (one per
operation, same schema for both engines) and produces:

* summary tables: mean/percentile operation cost per kind, hit rate, mean
  normalized fidelity, final and peak space, and engine-to-engine ratios
  when two logs from the same trace are supplied;
* space timelines: (seq, total_bytes) series;
* quality-factor curves: replaying one trace under a grid of byte caps and
  scoring each cap as hit_rate x mean normalized fidelity of returned
  payloads;
* deterministic CSV files and static SVG line charts.

All artifacts are pure functions of the logs and configuration: running the
same inputs twice yields byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from neuralstore.codec import normalized_fidelity
from neuralstore.workload import Corpus, ReplayError, TraceRecord, replay


@dataclass(frozen=True)
class QualityFactorPoint:
    cap_bytes: int
    quality_factor: float
    hit_rate: float
    mean_fidelity: float
    failed: bool = False


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return format(value, ".6g")
    return str(value)


def _mean(values: list) -> float:
    return float(np.mean(values)) if values else 0.0


def engine_summary(log: list[dict], warmup: int = 0) -> dict:
    """Cost/space/fidelity summary of one log; warmup skips leading records."""
    if not log:
        raise ValueError("cannot summarize an empty log")
    window = [r for r in log if r["seq"] >= warmup]
    stores = [r for r in window if r["op"] == "store"]
    retrieves = [r for r in window if r["op"] == "retrieve"]
    hits = [r for r in retrieves if r["hit"]]
    retrieve_costs = [r["cost"] for r in retrieves]
    store_costs = [r["cost"] for r in stores]
    fidelities = [normalized_fidelity(float(r["fidelity"]))
                  for r in hits if r.get("fidelity") is not None]
    return {
        "engine": log[0]["engine"],
        "ops": len(window),
        "stores": len(stores),
        "retrieves": len(retrieves),
        "mean_store_cost": _mean(store_costs),
        "mean_retrieve_cost": _mean(retrieve_costs),
        "p50_retrieve_cost": float(np.percentile(retrieve_costs, 50)) if retrieve_costs else 0.0,
        "p95_retrieve_cost": float(np.percentile(retrieve_costs, 95)) if retrieve_costs else 0.0,
        "combined_mean_cost": _mean(store_costs + retrieve_costs),
        "hit_rate": len(hits) / len(retrieves) if retrieves else 0.0,
        "mean_norm_fidelity": _mean(fidelities),
        "final_bytes": log[-1]["total_bytes"],
        "peak_bytes": max(r["total_bytes"] for r in log),
    }


def summarize(log: list[dict], other: list[dict] | None = None,
              warmup: int = 0) -> dict:
    """Summarize one log, or two logs from the same trace side by side.

    With two logs the record sequences must line up op-for-op (same seqs and
    op kinds); mixed-trace logs are rejected.
    """
    engines = [engine_summary(log, warmup)]
    ratios: dict[str, float] = {}
    if other is not None:
        a = [(r["seq"], r["op"]) for r in log]
        b = [(r["seq"], r["op"]) for r in other]
        if a != b:
            raise ValueError("logs come from different traces; refusing to mix")
        engines.append(engine_summary(other, warmup))
        by_id = {s["engine"]: s for s in engines}
        if "ns" in by_id and "cam" in by_id:
            ns, cam = by_id["ns"], by_id["cam"]
            ratios = {
                "retrieve_cost_ratio": _ratio(ns["mean_retrieve_cost"],
                                              cam["mean_retrieve_cost"]),
                "combined_cost_ratio": _ratio(ns["combined_mean_cost"],
                                              cam["combined_mean_cost"]),
                "space_ratio": _ratio(ns["final_bytes"], cam["final_bytes"]),
                "fidelity_delta": ns["mean_norm_fidelity"] - cam["mean_norm_fidelity"],
            }
    return {"engines": engines, "ratios": ratios, "warmup": warmup}


def _ratio(num: float, den: float) -> float:
    return num / den if den else math.inf


def space_timeline(log: list[dict]) -> list[tuple[int, int]]:
    return [(r["seq"], r["total_bytes"]) for r in log]


def quality_factor_curve(records: list[TraceRecord], corpus: Corpus,
                         adapter_factory, caps: list[int]) -> list[QualityFactorPoint]:
    """Replay the trace once per byte cap and score each run.

    ``adapter_factory(cap_bytes)`` must build a fresh engine adapter.  A
    replay that aborts (storage full) is recorded as a failed point with
    quality factor 0.
    """
    if any(b <= a for a, b in zip(caps, caps[1:])):
        raise ValueError("caps must be sorted strictly ascending")
    points = []
    for cap in caps:
        try:
            log = replay(records, adapter_factory(cap), corpus)
        except ReplayError:
            points.append(QualityFactorPoint(cap, 0.0, 0.0, 0.0, failed=True))
            continue
        # an empty trace has no retrieve to score
        summary = engine_summary(log) if log else {}
        hit_rate = summary.get("hit_rate", 0.0)
        fidelity = summary.get("mean_norm_fidelity", 0.0)
        points.append(QualityFactorPoint(cap, hit_rate * fidelity, hit_rate,
                                         fidelity))
    return points


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

_SUMMARY_COLUMNS = ["engine", "ops", "stores", "retrieves", "mean_store_cost",
                    "mean_retrieve_cost", "p50_retrieve_cost", "p95_retrieve_cost",
                    "combined_mean_cost", "hit_rate", "mean_norm_fidelity",
                    "final_bytes", "peak_bytes"]


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def write_summary_csv(summary: dict, path: str | Path) -> Path:
    lines = [",".join(_SUMMARY_COLUMNS)]
    for engine in summary["engines"]:
        lines.append(",".join(_fmt(engine[c]) for c in _SUMMARY_COLUMNS))
    return _write(Path(path), "\n".join(lines) + "\n")


def write_ratios_csv(summary: dict, path: str | Path) -> Path:
    lines = ["metric,value"]
    for key in sorted(summary["ratios"]):
        lines.append(f"{key},{_fmt(summary['ratios'][key])}")
    return _write(Path(path), "\n".join(lines) + "\n")


def write_timeline_csv(timelines: dict[str, list[tuple[int, int]]],
                       path: str | Path) -> Path:
    lines = ["engine,seq,total_bytes"]
    for engine in sorted(timelines):
        for seq, total in timelines[engine]:
            lines.append(f"{engine},{seq},{total}")
    return _write(Path(path), "\n".join(lines) + "\n")


def write_qf_csv(curves: dict[str, list[QualityFactorPoint]],
                 path: str | Path) -> Path:
    lines = ["engine,cap_bytes,quality_factor,hit_rate,mean_fidelity,failed"]
    for engine in sorted(curves):
        for p in curves[engine]:
            lines.append(",".join([engine, str(p.cap_bytes),
                                   _fmt(p.quality_factor), _fmt(p.hit_rate),
                                   _fmt(p.mean_fidelity), _fmt(p.failed)]))
    return _write(Path(path), "\n".join(lines) + "\n")


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
_W, _H, _MARGIN = 720, 420, 56


def _svg_chart(series: list[tuple[str, list[tuple[float, float]]]],
               title: str, xlabel: str, ylabel: str) -> str:
    """Minimal deterministic SVG line chart (fixed layout, no timestamps)."""
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    inner_w, inner_h = _W - 2 * _MARGIN, _H - 2 * _MARGIN

    def sx(x: float) -> float:
        return _MARGIN + (x - x0) / (x1 - x0) * inner_w

    def sy(y: float) -> float:
        return _H - _MARGIN - (y - y0) / (y1 - y0) * inner_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<text x="{_W // 2}" y="24" text-anchor="middle" '
           f'font-family="monospace" font-size="14">{title}</text>',
           f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
           f'y2="{_H - _MARGIN}" stroke="black"/>',
           f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
           f'y2="{_H - _MARGIN}" stroke="black"/>',
           f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" '
           f'font-family="monospace" font-size="11">{xlabel}</text>',
           f'<text x="16" y="{_H // 2}" text-anchor="middle" '
           f'font-family="monospace" font-size="11" '
           f'transform="rotate(-90 16 {_H // 2})">{ylabel}</text>',
           f'<text x="{_MARGIN}" y="{_H - _MARGIN + 16}" font-family="monospace" '
           f'font-size="10">{_fmt(x0)}</text>',
           f'<text x="{_W - _MARGIN}" y="{_H - _MARGIN + 16}" text-anchor="end" '
           f'font-family="monospace" font-size="10">{_fmt(x1)}</text>',
           f'<text x="{_MARGIN - 4}" y="{_H - _MARGIN}" text-anchor="end" '
           f'font-family="monospace" font-size="10">{_fmt(y0)}</text>',
           f'<text x="{_MARGIN - 4}" y="{_MARGIN + 4}" text-anchor="end" '
           f'font-family="monospace" font-size="10">{_fmt(y1)}</text>']
    for i, (name, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        out.append(f'<text x="{_W - _MARGIN - 4}" y="{_MARGIN + 16 + 14 * i}" '
                   f'text-anchor="end" font-family="monospace" font-size="11" '
                   f'fill="{color}">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_timeline_svg(timelines: dict[str, list[tuple[int, int]]],
                       path: str | Path) -> Path:
    series = [(engine, [(float(s), float(b)) for s, b in timelines[engine]])
              for engine in sorted(timelines)]
    return _write(Path(path), _svg_chart(series, "total space vs operations",
                                         "operation seq", "total bytes"))


def write_qf_svg(curves: dict[str, list[QualityFactorPoint]],
                 path: str | Path) -> Path:
    series = [(engine, [(float(p.cap_bytes), p.quality_factor)
                        for p in curves[engine]])
              for engine in sorted(curves)]
    return _write(Path(path), _svg_chart(series, "quality factor vs memory cap",
                                         "cap bytes", "quality factor"))


def emit_reports(out_dir: str | Path, summary: dict | None = None,
                 timelines: dict[str, list[tuple[int, int]]] | None = None,
                 qf_curves: dict[str, list[QualityFactorPoint]] | None = None) -> list[Path]:
    """Write every supplied artifact into the output directory."""
    out_dir = Path(out_dir)
    written: list[Path] = []
    if summary is not None:
        written.append(write_summary_csv(summary, out_dir / "summary.csv"))
        if summary["ratios"]:
            written.append(write_ratios_csv(summary, out_dir / "ratios.csv"))
    if timelines:
        written.append(write_timeline_csv(timelines, out_dir / "space_timeline.csv"))
        written.append(write_timeline_svg(timelines, out_dir / "space_timeline.svg"))
    if qf_curves:
        written.append(write_qf_csv(qf_curves, out_dir / "qf_curve.csv"))
        written.append(write_qf_svg(qf_curves, out_dir / "qf_curve.svg"))
    return written
