#!/usr/bin/env python3
"""neuralstore benchmark: closed-loop trace replay on both engines.

Run from the repository root:

    python3 bench/run.py --workload desk-clustered --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --workload capped-writes --seed 42 --seconds 30 --trace 1
    python3 bench/run.py --self-test      # tiny run of every workload, both modes

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics from a span-traced run.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (tail
percentiles, op-log digests, checks) go to
``.bench_out/<workload>-seed<seed>-trace<t>.json`` and, for traced runs,
every span to ``.bench_out/spans-<workload>-seed<seed>-trace1.csv.gz``.

The package is imported from ``src/`` beside this directory, never from
site-packages; without it the command fails.  A failed output check makes
the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import catalog

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _import_package() -> None:
    if not (SRC / "neuralstore" / "__init__.py").is_file():
        sys.exit(f"bench: neuralstore sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import neuralstore
    if Path(neuralstore.__file__).resolve().parent != SRC / "neuralstore":
        sys.exit(f"bench: imported neuralstore from {neuralstore.__file__}, "
                 f"not from {SRC}")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("seconds must be a positive number")
    return value


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=catalog.DEFAULT_SEED)
    parser.add_argument("--seconds", type=_seconds, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="tiny run of every workload, traced and untraced")
    args = parser.parse_args(argv)
    if not (args.self_test or args.workload):
        parser.error("--workload is required")
    return args


def run(spec: dict, workload_name: str, seed: int, seconds: float, trace: int,
        tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details)."""
    import harness      # these import neuralstore, so only after _import_package
    import tracing

    workload = catalog.WORKLOADS[workload_name]
    tag = f"{workload_name}-seed{seed}-trace{trace}" + ("-tiny" if tiny else "")
    if trace:
        outcome, tracers = harness.run_traced(workload, seed, seconds, tiny)
        wanted = spec["per_layer"]
        spans = tracing.write_spans(tracers, OUT / f"spans-{tag}.csv.gz")
        outcome.details["spans_file"] = str(spans.relative_to(ROOT))
    else:
        outcome = harness.run_end_to_end(workload, seed, seconds, tiny)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        sys.exit(f"bench: no value for {', '.join(missing)}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    details = {"workload": workload_name, "seed": seed, "seconds": seconds,
               "trace": trace, "tiny": tiny, "checks": outcome.checks,
               **outcome.details, "result": result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=2, sort_keys=True) + "\n")
    return result, details


def report(result: dict, details: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:>16.6g} {metric['unit']}")
    for key in ("ns_retrieve_tail", "ns_store_tail"):
        if key in details:
            t = details[key]
            print(f"{key}: p{t['percentile']:.4g} of {t['samples']} samples")
    if "ops_failed_ratio" in details:
        print(f"ops_failed_ratio: {details['ops_failed_ratio']:.6g} "
              f"({result['failed']} of {result['attempted']} ops)")
    for trace in details.get("traces", []):
        print(f"workload_seed={trace['workload_seed']} ops={trace['ops']} "
              f"ns_log_sha256={trace['ns_log_sha256']} "
              f"cam_log_sha256={trace['cam_log_sha256']}")
    for name, ok in sorted(details["checks"].items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")


def self_test(spec: dict) -> int:
    """Tiny run of every workload in both modes: every metric BENCHMARK.json
    names is present with its unit and a finite value, and the checks pass."""
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(catalog.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/catalog.py")
    for name in catalog.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, _ = run(spec, name, catalog.DEFAULT_SEED, 0.01, trace, tiny=True)
            where = f"{name} trace={trace}"
            if not result["correct"]:
                problems.append(f"{where}: output checks failed")
            if result["failed"]:
                problems.append(f"{where}: {result['failed']} ops failed")
            for m in wanted:
                got = result["metrics"][m["name"]]
                if got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got['unit']!r}")
                if not isinstance(got["value"], (int, float)) \
                        or not math.isfinite(got["value"]):
                    problems.append(f"{where}: {m['name']} value {got['value']!r}")
            print(f"self-test {where}: {len(result['metrics'])} metrics")
    # A cap below some items' size: those stores end their replay with
    # ReplayError, and the run still reports every metric.
    import harness
    full = catalog.Workload("storage-full", traces=1, capacity_fraction=0.06)
    outcome = harness.run_end_to_end(full, catalog.DEFAULT_SEED, 0.01, tiny=True)
    if not (outcome.failed and outcome.correct
            and all(m["name"] in outcome.metrics for m in spec["end_to_end"])):
        problems.append("storage-full: failed ops not accounted for")
    print(f"self-test storage-full: {outcome.failed} of {outcome.attempted} ops failed")
    for problem in problems:
        print(f"self-test FAILED: {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    spec = catalog.load_spec()
    args = parse_args(spec, argv)
    _import_package()
    if args.self_test:
        return self_test(spec)
    result, details = run(spec, args.workload, args.seed, args.seconds, args.trace)
    report(result, details)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
