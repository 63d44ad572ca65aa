"""Command-line entry point for reproducible experiment runs.

Subcommands:

* ``generate``: build the synthetic corpus and access trace for a config,
  and print the sha256 of the manifest, the trace and the payload files.
* ``run``: replay a trace on one engine; writes the operation log, summary
  and space timeline (plus a state snapshot for the learning engine).
* ``compare``: run both engines on the same trace and emit the joined
  summary, cost/space ratios and quality-factor-vs-cap curves.
* ``inspect``: render a state snapshot as text or DOT.

Exit codes: 0 success, 2 validation error, 3 storage full, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from neuralstore import metrics
from neuralstore.config import (
    PRESETS,
    RunConfig,
    build_adapter,
    cap_bytes,
    check_cap_fractions,
    load_config,
)
from neuralstore.core import (
    ConfigurationError,
    SnapshotFormatError,
    parse_snapshot,
    render_dot,
    render_text,
)
from neuralstore.engine import StorageFullError
from neuralstore.workload import (
    ReplayError,
    build_corpus,
    generate_trace,
    payload_file,
    read_manifest,
    read_trace,
    read_utf8,
    replay,
    write_log,
    write_manifest,
    write_trace,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STORAGE_FULL = 3
EXIT_IO = 4


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file (overlays the preset)")
    parser.add_argument("--preset", default=None,
                        help="named scenario preset: "
                             f"{' or '.join(sorted(PRESETS))} "
                             "(default wildlife-deer)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")


def _load(args) -> RunConfig:
    return load_config(args.config, preset=args.preset, seed=args.seed)


def cmd_generate(args) -> int:
    config = _load(args)
    out = Path(args.out)
    corpus = build_corpus(config.workload)
    payload_dir = out / "payloads"
    manifest = write_manifest(corpus, out / "manifest.jsonl", payload_dir)
    trace = write_trace(generate_trace(corpus, config.workload), out / "trace.jsonl")
    for path in (manifest, trace):
        print(f"{path}  sha256={hashlib.sha256(path.read_bytes()).hexdigest()}")
    # each payload file this corpus wrote (not others left in the directory)
    # as its name, a NUL byte and the sha256 of its bytes, in name order
    names = sorted(payload_file(item.item_id) for item in corpus.items)
    digests = b"".join(
        name.encode() + b"\0" + hashlib.sha256((payload_dir / name).read_bytes()).digest()
        for name in names)
    print(f"{payload_dir}  sha256={hashlib.sha256(digests).hexdigest()}")
    return EXIT_OK


def _resolve_manifest(args) -> Path:
    if args.manifest is not None:
        return Path(args.manifest)
    return Path(args.trace).parent / "manifest.jsonl"


def cmd_run(args) -> int:
    config = _load(args)
    corpus = read_manifest(_resolve_manifest(args))
    records = read_trace(Path(args.trace))
    out = Path(args.out)
    adapter = build_adapter(config, corpus, engine=args.engine,
                            capacity_bytes=args.cap)
    log = replay(records, adapter, corpus)
    engine = adapter.engine_id
    log_path = write_log(log, out / f"oplog-{engine}.jsonl")
    summary = metrics.summarize(log)
    written = metrics.emit_reports(out, summary=summary,
                                   timelines={engine: metrics.space_timeline(log)})
    if engine == "ns":
        snap = out / "snapshot.txt"
        snap.write_text(adapter.engine.memory.export_graph("snapshot"))
        written.append(snap)
    stats = summary["engines"][0]
    print(f"{log_path}")
    for path in written:
        print(f"{path}")
    print(f"engine={engine} ops={stats['ops']} "
          f"mean_retrieve_cost={stats['mean_retrieve_cost']:.4g} "
          f"hit_rate={stats['hit_rate']:.4g} final_bytes={stats['final_bytes']}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _load(args)
    if args.caps is not None:
        check_cap_fractions(args.caps, "--caps")
    corpus = read_manifest(_resolve_manifest(args))
    if args.caps:
        fractions, name = args.caps, "--caps"
    else:
        fractions, name = config.cap_fractions, "compare.cap_fractions"
    caps = cap_bytes(fractions, corpus.total_bytes(), name)
    records = read_trace(Path(args.trace))
    if records[-1].seq < config.warmup_ops:
        raise ConfigurationError(
            f"compare.warmup_ops {config.warmup_ops} skips all "
            f"{len(records)} trace records")
    out = Path(args.out)
    logs = {}
    for engine in ("ns", "cam"):
        adapter = build_adapter(config, corpus, engine=engine)
        logs[engine] = replay(records, adapter, corpus)
        write_log(logs[engine], out / f"oplog-{engine}.jsonl")
    summary = metrics.summarize(logs["ns"], logs["cam"], warmup=config.warmup_ops)
    curves = {}
    for engine in ("ns", "cam"):
        def factory(cap, _engine=engine):
            return build_adapter(config, corpus, engine=_engine, capacity_bytes=cap)
        curves[engine] = metrics.quality_factor_curve(records, corpus, factory, caps)
    timelines = {e: metrics.space_timeline(logs[e]) for e in logs}
    written = metrics.emit_reports(out, summary=summary, timelines=timelines,
                                   qf_curves=curves)
    for path in written:
        print(f"{path}")
    ratios = summary["ratios"]
    print(f"retrieve_cost_ratio={ratios['retrieve_cost_ratio']:.6g} "
          f"combined_cost_ratio={ratios['combined_cost_ratio']:.6g} "
          f"space_ratio={ratios['space_ratio']:.6g}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    doc = parse_snapshot(read_utf8(Path(args.snapshot)))
    rendered = render_dot(doc) if args.format == "dot" else render_text(doc)
    if args.out is not None:
        Path(args.out).write_text(rendered)
        print(f"{args.out}")
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neuralstore",
        description="learning content-addressable memory simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate corpus and trace files")
    _add_config_args(p)
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="replay a trace on one engine")
    _add_config_args(p)
    p.add_argument("--trace", type=Path, required=True, help="trace file")
    p.add_argument("--manifest", type=Path, default=None,
                   help="manifest file (default: manifest.jsonl next to trace)")
    p.add_argument("--engine", choices=["ns", "cam"], default="ns")
    p.add_argument("--cap", type=int, default=None, help="byte capacity override")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run both engines and compare")
    _add_config_args(p)
    p.add_argument("--trace", type=Path, required=True, help="trace file")
    p.add_argument("--manifest", type=Path, default=None)
    p.add_argument("--caps", type=lambda s: [float(x) for x in s.split(",")],
                   default=None,
                   help="cap grid as fractions of corpus size, e.g. 0.1,0.5,1.0")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("inspect", help="render a snapshot file")
    p.add_argument("--snapshot", type=Path, required=True)
    p.add_argument("--format", choices=["text", "dot"], default="text")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, SnapshotFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (StorageFullError, ReplayError) as exc:
        if isinstance(exc, ReplayError) and not exc.storage_full:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(f"error: storage full: {exc}", file=sys.stderr)
        return EXIT_STORAGE_FULL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
