"""In-memory span tracing of neuralstore's layers, patched in at run time.

A :class:`Tracer` replaces public functions of the ``workload``, ``engine``,
``core``, ``codec``, ``cam`` and ``config`` modules with wrappers that record
one span per call: ``(id, parent, name, seq, start, end)``, where ``seq`` is
the trace record being replayed.  Names imported by value are patched where
they are looked up (``neuralstore.engine.cosine_similarity``,
``neuralstore.workload.psnr_fidelity``).  Patches are undone on exit, so
untraced replays in the same process run the original code.

A span's self time is its duration minus the time its child spans cover.
Each span also covers its own wrapper overhead and counting hook, so tracing
cost does not show up as the parent's self time; it shows in
``trace.overhead_ratio`` instead.
"""

from __future__ import annotations

import functools
import gzip
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from neuralstore import cam, codec, config, core, engine, workload


_FAILED = object()


def _arg(args, kwargs, name: str, index: int, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _count_order(tracer, args, kwargs, result) -> None:
    eng = args[0]
    hive = _arg(args, kwargs, "hive", 1)
    if hive is None:
        hive = eng.hive
    tracer.counters["engine.update_search_order.entries_sorted"] += sum(
        len(entries) for entries in hive.search_order.values())


def _count_reaction(tracer, args, kwargs, result) -> None:
    # flag=0 without failure decay changes no weight
    flag = _arg(args, kwargs, "flag", 4)
    k = _arg(args, kwargs, "k", 8)
    if k is None:
        k = args[0].controls.weaken_on_fail
    if not flag and not k:
        tracer.counters["engine.reaction.noops"] += 1


def _count_candidates(tracer, args, kwargs, result) -> None:
    tracer.counters["engine.get_search_order.candidates"] += len(result)


def _count_match(tracer, args, kwargs, result) -> None:
    if result >= tracer.match_thresh:
        tracer.counters["codec.cosine_similarity.matches"] += 1


def _count_freed(tracer, args, kwargs, result) -> None:
    tracer.counters["engine.elasticity.bytes_freed"] += result


# (owner, attribute, span name, counting hook)
REPLAY_LAYERS = (
    (workload, "replay", "workload.replay", None),
    (engine.MemoryEngine, "store", "engine.store", None),
    (engine.MemoryEngine, "retrieve", "engine.retrieve", None),
    (engine.MemoryEngine, "update_search_order", "engine.update_search_order",
     _count_order),
    (engine.MemoryEngine, "reaction", "engine.reaction", _count_reaction),
    (engine.MemoryEngine, "get_search_order", "engine.get_search_order",
     _count_candidates),
    (engine.MemoryEngine, "ensure_capacity", "engine.ensure_capacity", None),
    (engine.MemoryEngine, "elasticity", "engine.elasticity", _count_freed),
    # automatic passes bypass the public retention(), so trace the pass itself
    (engine.MemoryEngine, "_retention_pass", "engine.retention", None),
    (engine, "cosine_similarity", "codec.cosine_similarity", _count_match),
    (core.Memory, "total_bytes", "core.total_bytes", None),
    (core.Memory, "adjust_strength", "core.adjust_strength", None),
    (codec.TruncationCodec, "compress", "codec.compress", None),
    (codec.HistogramExtractor, "extract", "codec.extract", None),
    (workload, "psnr_fidelity", "codec.psnr_fidelity", None),
    (cam.CamBaseline, "store", "cam.store", None),
    (cam.CamBaseline, "retrieve", "cam.retrieve", None),
)

SETUP_LAYERS = (
    (config, "load_config", "config.load_config", None),
    (workload, "build_corpus", "workload.build_corpus", None),
    (workload, "generate_trace", "workload.generate_trace", None),
    (config, "build_adapter", "config.build_adapter", None),
)


class Tracer:
    """Records spans for the layers it patches while used as a context manager."""

    def __init__(self, phase: str, layers, match_thresh: float = 0.0):
        self.phase = phase
        self.layers = layers
        self.match_thresh = match_thresh
        self.seq = -1
        self.spans: list[tuple] = []    # (id, parent, name, seq, start, end, covered)
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def _wrap(self, original, name: str, hook):
        tracer = self
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            enter = perf_counter()
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = _FAILED
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if hook is not None and result is not _FAILED:
                    hook(tracer, args, kwargs, result)
                spans.append((span_id, parent, name, tracer.seq, start, end,
                              perf_counter() - enter))

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, hook in self.layers:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` over every recorded span."""
        covered_by_children: dict[int, float] = defaultdict(float)
        for _, parent, _, _, _, _, covered in self.spans:
            if parent >= 0:
                covered_by_children[parent] += covered
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span_id, _, name, _, start, end, _ in self.spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - covered_by_children[span_id]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}


def write_spans(tracers: list[Tracer], path: Path) -> Path:
    """Write every span of the given tracers as gzipped CSV."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as out:
        out.write("phase,id,parent,name,seq,start_s,end_s\n")
        for tracer in tracers:
            for span_id, parent, name, seq, start, end, _ in tracer.spans:
                out.write(f"{tracer.phase},{span_id},{parent},{name},{seq},"
                          f"{start:.9f},{end:.9f}\n")
    return path
