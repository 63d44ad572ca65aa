"""Synthetic corpora, access traces, and trace replay.

The corpus generator produces byte payloads with a three-level similarity
structure, mirroring how surveillance-style datasets behave under a feature
extractor:

* items inside one *cluster* are near-duplicates (feature similarity well
  above the match threshold, so the engine merges them);
* clusters inside one *class* share a base byte distribution (similar but
  distinguishable, so distinct sightings stay distinct neurons);
* classes use nearly disjoint byte alphabets (far apart in feature space).

Payload bytes are drawn i.i.d. from per-cluster distributions built by
mixing a class-wide distribution over a 24-symbol alphabet with a
cluster-specific distribution over 8 extra symbols.  Each class's base and
each cluster's mix are drawn once, and a cluster's items take their bytes
from one inverse-CDF table built for that cluster (:class:`ByteSampler`),
which yields exactly the bytes ``Generator.choice(256, size, p)`` would.
Every random draw is keyed off the workload seed, so corpora, traces and
replays are reproducible byte for byte.

Traces have a store phase covering every item in manifest order followed by
retrievals whose class choice is biased toward the priority class (the
first class label), plus an optional tail of explicit retention passes.
Replay runs a trace against either engine through a thin adapter and emits
one log record per operation in a shared schema.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from neuralstore.cam import CamBaseline
from neuralstore.codec import psnr_fidelity
from neuralstore.core import ConfigurationError
from neuralstore.engine import MemoryEngine, StorageFullError

MANIFEST_FORMAT = "neuralstore-manifest"
TRACE_FORMAT = "neuralstore-trace"
FORMAT_VERSION = 1

_CLASS_ALPHABET = 24
_CLUSTER_ALPHABET = 8
_CLASS_MIX = 0.55

# seed-domain tags so every stream draws from its own generator
_TAG_CLASS, _TAG_CLUSTER, _TAG_ITEM, _TAG_TRACE = 1, 2, 3, 4

# the history window of each tail retention pass
_TAIL_RETENTION_WINDOW = 1


class ReplayError(RuntimeError):
    """Replay aborted; carries the trace seq of the failing record."""

    def __init__(self, message: str, seq: int, storage_full: bool = False):
        super().__init__(message)
        self.seq = seq
        self.storage_full = storage_full


@dataclass(frozen=True)
class ManifestItem:
    item_id: str
    class_label: str
    priority: bool
    data: bytes | None = None


@dataclass(frozen=True)
class TraceRecord:
    seq: int
    op: str                                 # store | retrieve | retention
    item_id: str | None = None
    coarse_cues: tuple[str, ...] = ()
    use_fine_cue: bool = True
    retention_window: int | None = None     # explicit history window override


@dataclass
class WorkloadSpec:
    """Parameters of a synthetic corpus and its access trace.

    There is one class per label, and the first label is the priority
    class."""

    n_items: int = 200
    priority_bias: float = 0.9
    n_retrievals: int = 5000
    payload_size_range: tuple[int, int] = (1024, 4096)
    seed: int = 42
    items_per_cluster: int = 10
    class_labels: list[str] = field(
        default_factory=lambda: ["class-0", "class-1"])
    tail_retentions: int = 0
    kind: str = "clustered"                 # clustered | walkthrough

    def validate(self) -> None:
        """Raise ``ConfigurationError`` naming each bad field by its config
        path (``workload.n_items``); the seed is the config's top-level
        ``seed``."""
        problems = []
        # numpy's seed sequences refuse a negative seed without naming it
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if self.n_items < 0:
            problems.append("workload.n_items must be >= 0")
        if not 0.0 <= self.priority_bias <= 1.0:
            problems.append("workload.priority_bias must be in [0, 1]")
        if self.n_retrievals < 0:
            problems.append("workload.n_retrievals must be >= 0")
        if self.items_per_cluster < 1:
            problems.append("workload.items_per_cluster must be >= 1")
        lo, hi = self.payload_size_range
        if lo < 1 or hi < lo:
            problems.append(
                "workload.payload_size_range must satisfy 1 <= lo <= hi")
        labels = self.class_labels
        if not labels:
            problems.append("workload.class_labels must not be empty")
        elif self.kind == "walkthrough" and len(labels) < 2:
            # its scripted items are drawn from the first two classes
            problems.append("workload.class_labels must have at least 2 "
                            "entries for the walkthrough workload")
        repeated = [x for x in labels if labels.count(x) > 1]
        if repeated:
            problems.append(f"workload.class_labels repeats {repeated[0]!r}")
        if self.tail_retentions < 0:
            problems.append("workload.tail_retentions must be >= 0")
        if self.kind not in ("clustered", "walkthrough"):
            problems.append(f"workload.kind must be 'clustered' or "
                            f"'walkthrough', got {self.kind!r}")
        if problems:
            raise ConfigurationError("; ".join(problems))


@dataclass
class Corpus:
    items: list[ManifestItem]
    by_id: dict[str, ManifestItem] = field(init=False)

    def __post_init__(self):
        self.by_id = {item.item_id: item for item in self.items}
        if len(self.by_id) != len(self.items):
            raise ConfigurationError("duplicate item_id in manifest")

    def get(self, item_id: str) -> ManifestItem:
        try:
            return self.by_id[item_id]
        except KeyError:
            raise ConfigurationError(f"unknown item_id {item_id!r}") from None

    def total_bytes(self) -> int:
        return sum(len(item.data) for item in self.items)


# ---------------------------------------------------------------------------
# Payload synthesis
# ---------------------------------------------------------------------------

def _distribution(rng: np.random.Generator, size: int) -> np.ndarray:
    """Random distribution over ``size`` distinct byte values, dense over 256."""
    symbols = rng.choice(256, size=size, replace=False)
    weights = rng.random(size) + 0.1
    dense = np.zeros(256)
    dense[symbols] = weights / weights.sum()
    return dense


def _class_base(seed: int, class_idx: int) -> np.ndarray:
    return _distribution(np.random.default_rng(
        np.random.SeedSequence((seed, _TAG_CLASS, class_idx))), _CLASS_ALPHABET)


def _mix(base: np.ndarray, seed: int, class_idx: int,
         cluster_idx: int) -> np.ndarray:
    """A cluster's distribution: its class's ``base`` mixed with its own noise."""
    noise = _distribution(np.random.default_rng(
        np.random.SeedSequence((seed, _TAG_CLUSTER, class_idx, cluster_idx))),
        _CLUSTER_ALPHABET)
    return _CLASS_MIX * base + (1.0 - _CLASS_MIX) * noise


def cluster_distribution(seed: int, class_idx: int, cluster_idx: int) -> np.ndarray:
    return _mix(_class_base(seed, class_idx), seed, class_idx, cluster_idx)


# buckets of ByteSampler's table: a power of two, so u * _BUCKETS is exact
_BUCKETS = 4096
# how far from 1 Generator.choice lets probabilities sum
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


class ByteSampler:
    """Draws bytes i.i.d. from ``probs``, a distribution over the 256 byte
    values, exactly as ``Generator.choice(256, size, p=probs)`` draws them.

    ``choice`` returns ``cdf.searchsorted(rng.random(size), side="right")``,
    the number of ``cdf`` entries at or below each uniform ``u``, where
    ``cdf = probs.cumsum(); cdf /= cdf[-1]``.  Scaled by the bucket count,
    ``x = cdf * _BUCKETS`` and ``u * _BUCKETS`` are exact, so a ``u`` in
    bucket ``k = floor(u * _BUCKETS)`` has ``#{x < k + 1}`` entries at or
    below it unless some ``x`` lies strictly inside ``(k, k + 1)``.  The table
    holds that count per bucket; only the few draws that fall in a bucket
    holding such a CDF step are searched.  ``probs`` is checked once, as
    ``choice`` checks it on every call.
    """

    def __init__(self, probs):
        p = np.asarray(probs, dtype=np.float64)
        if p.shape != (256,):
            raise ValueError("probabilities must have 256 entries")
        if np.isnan(p).any():
            raise ValueError("probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("probabilities are not non-negative")
        if not abs(p.sum() - 1.0) <= _SUM_TOLERANCE:
            raise ValueError("probabilities do not sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        x = cdf * _BUCKETS
        whole = np.floor(x)
        self._cdf = cdf
        # x[-1] is _BUCKETS, so bucket k's count is at most 255
        self._table = np.bincount(whole.astype(np.intp))[:_BUCKETS].cumsum(
            ).astype(np.uint8)
        self._steps = np.zeros(_BUCKETS, dtype=bool)
        self._steps[whole[whole != x].astype(np.intp)] = True

    def draw(self, rng: np.random.Generator, size: int) -> bytes:
        u = rng.random(size)
        k = (u * _BUCKETS).astype(np.intp)
        out = self._table[k]
        step = self._steps[k]
        if step.any():
            out[step] = self._cdf.searchsorted(u[step], side="right")
        return out.tobytes()


def _item_rng(seed: int, class_idx: int, cluster_idx: int, item_idx: int,
              *tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        (seed, _TAG_ITEM, class_idx, cluster_idx, item_idx, *tag)))


def item_bytes(seed: int, class_idx: int, cluster_idx: int, item_idx: int,
               size: int) -> bytes:
    sampler = ByteSampler(cluster_distribution(seed, class_idx, cluster_idx))
    return sampler.draw(_item_rng(seed, class_idx, cluster_idx, item_idx), size)


def build_corpus(spec: WorkloadSpec) -> Corpus:
    """Deterministic synthetic corpus; classes interleave in manifest order.

    Item ``i`` is item ``i // n_classes`` of class ``i % n_classes``, and a
    class's items fill its clusters in turn.  Every item draws from its own
    seeded generators, so the corpus is built class by class and one cluster
    at a time, with one table per cluster."""
    spec.validate()
    if spec.kind == "walkthrough":
        return _build_walkthrough_corpus(spec)
    labels = spec.class_labels
    lo, hi = spec.payload_size_range
    per_cluster = spec.items_per_cluster
    data: list[bytes] = [b""] * spec.n_items
    for class_idx in range(len(labels)):
        base = _class_base(spec.seed, class_idx)
        members = range(class_idx, spec.n_items, len(labels))
        for start in range(0, len(members), per_cluster):
            cluster_idx = start // per_cluster
            sampler = ByteSampler(_mix(base, spec.seed, class_idx, cluster_idx))
            for item_idx, i in enumerate(members[start:start + per_cluster]):
                size_rng = _item_rng(spec.seed, class_idx, cluster_idx,
                                     item_idx, 0)
                size = int(size_rng.integers(lo, hi + 1))
                data[i] = sampler.draw(
                    _item_rng(spec.seed, class_idx, cluster_idx, item_idx), size)
    items = []
    for i, payload in enumerate(data):
        label = labels[i % len(labels)]
        items.append(ManifestItem(item_id=f"item-{i:04d}", class_label=label,
                                  priority=label == labels[0], data=payload))
    return Corpus(items)


_WALKTHROUGH_ITEMS = (
    # item_id, class_idx, cluster_idx, item_idx
    ("w0", 0, 0, 0),
    ("w1", 0, 1, 0),
    ("bg", 1, 0, 0),
    ("w-new", 0, 2, 0),
    ("w0-dup", 0, 0, 1),
)


def _build_walkthrough_corpus(spec: WorkloadSpec) -> Corpus:
    labels = spec.class_labels
    items = []
    for item_id, class_idx, cluster_idx, item_idx in _WALKTHROUGH_ITEMS:
        data = item_bytes(spec.seed, class_idx, cluster_idx, item_idx, 1000)
        label = labels[class_idx]
        items.append(ManifestItem(item_id=item_id, class_label=label,
                                  priority=label == labels[0], data=data))
    return Corpus(items)


# ---------------------------------------------------------------------------
# Trace generation
# ---------------------------------------------------------------------------

def generate_trace(corpus: Corpus, spec: WorkloadSpec) -> list[TraceRecord]:
    """Store phase in manifest order, then biased retrievals, then the tail."""
    spec.validate()
    if spec.kind == "walkthrough":
        return _walkthrough_trace(spec)
    if not corpus.items:
        raise ConfigurationError("cannot generate a trace for an empty manifest")
    records = [TraceRecord(seq=i, op="store", item_id=item.item_id,
                           coarse_cues=(item.class_label,))
               for i, item in enumerate(corpus.items)]
    by_class: dict[str, list[ManifestItem]] = {}
    for item in corpus.items:
        by_class.setdefault(item.class_label, []).append(item)
    priority = spec.class_labels[0]
    others = [label for label in sorted(by_class) if label != priority]
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, _TAG_TRACE)))
    seq = len(records)
    for _ in range(spec.n_retrievals):
        if others and rng.random() >= spec.priority_bias:
            label = others[int(rng.integers(len(others)))]
        else:
            label = priority
        pool = by_class[label]
        item = pool[int(rng.integers(len(pool)))]
        records.append(TraceRecord(seq=seq, op="retrieve", item_id=item.item_id,
                                   coarse_cues=(label,)))
        seq += 1
    for _ in range(spec.tail_retentions):
        records.append(TraceRecord(seq=seq, op="retention",
                                   retention_window=_TAIL_RETENTION_WINDOW))
        seq += 1
    return records


def _walkthrough_trace(spec: WorkloadSpec) -> list[TraceRecord]:
    wolf = spec.class_labels[0]
    return [
        TraceRecord(0, "retrieve", "w1", (wolf,), True),
        TraceRecord(1, "store", "w-new", (wolf,)),
        TraceRecord(2, "retrieve", "w1", ("canis",), True),
        TraceRecord(3, "retrieve", "w0", (wolf,), True),
        TraceRecord(4, "retrieve", "w0", (wolf,), True),
        TraceRecord(5, "store", "w0-dup", (wolf,)),
        TraceRecord(6, "retention", retention_window=1),
    ]


# ---------------------------------------------------------------------------
# Manifest / trace / log files (line-delimited JSON with a header line)
# ---------------------------------------------------------------------------

def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_file(item_id: str) -> str:
    """The name of an item's payload file in a manifest's payload directory."""
    return f"{item_id}.bin"


def write_manifest(corpus: Corpus, manifest_path: str | Path,
                   payload_dir: str | Path | None = None) -> Path:
    """Write the manifest and (optionally) one payload file per item,
    deleting every other ``.bin`` file in the payload directory.

    Payload paths are stored relative to the manifest's directory, so the
    pair can be moved or shipped together.
    """
    manifest_path = Path(manifest_path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    if payload_dir is not None:
        payload_dir = Path(payload_dir)
        payload_dir.mkdir(parents=True, exist_ok=True)
        # payload files an earlier corpus left would read as part of this one
        names = {payload_file(item.item_id) for item in corpus.items}
        for path in payload_dir.glob("*.bin"):
            if path.name not in names:
                path.unlink()
    lines = [_dump({"format": MANIFEST_FORMAT, "version": FORMAT_VERSION,
                    "items": len(corpus.items)})]
    for item in corpus.items:
        row = {"item_id": item.item_id, "label": item.class_label,
               "priority": item.priority}
        if payload_dir is not None:
            target = payload_dir / payload_file(item.item_id)
            target.write_bytes(item.data)
            row["path"] = os.path.relpath(target, manifest_path.parent)
        else:
            row["data_hex"] = item.data.hex()
        lines.append(_dump(row))
    manifest_path.write_text("\n".join(lines) + "\n")
    return manifest_path


def read_manifest(manifest_path: str | Path) -> Corpus:
    manifest_path = Path(manifest_path)
    items = []
    ids: set[str] = set()
    for lineno, line in _body_lines(manifest_path, "manifest", MANIFEST_FORMAT):
        where = f"{manifest_path}: line {lineno}"
        row = _json_row(manifest_path, lineno, line)
        field_of = functools.partial(_row_field, manifest_path, lineno, row)
        item_id = field_of("item_id", str)
        if item_id in ids:
            raise ConfigurationError(f"{where}: duplicate item_id {item_id!r}")
        ids.add(item_id)
        label, priority = field_of("label", str), field_of("priority", bool)
        path = field_of("path", str, None)
        if "data_hex" in row:
            try:
                data = bytes.fromhex(field_of("data_hex", str))
            except ValueError:
                raise ConfigurationError(
                    f"{where}: field 'data_hex' is not hexadecimal") from None
        elif path is not None:
            try:
                data = (manifest_path.parent / path).read_bytes()
            except (OSError, ValueError) as exc:
                # ValueError: a path holding a NUL byte
                raise ConfigurationError(
                    f"{where}: payload file {path!r} cannot be read: "
                    f"{exc}") from None
        else:
            raise ConfigurationError(
                f"{where}: item {item_id!r} has no payload")
        items.append(ManifestItem(item_id=item_id, class_label=label,
                                  priority=priority, data=data))
    return Corpus(items)


def write_trace(records: list[TraceRecord], path: str | Path) -> Path:
    path = Path(path)
    lines = [_dump({"format": TRACE_FORMAT, "version": FORMAT_VERSION,
                    "records": len(records)})]
    for rec in records:
        row: dict = {"seq": rec.seq, "op": rec.op}
        if rec.item_id is not None:
            row["item_id"] = rec.item_id
        if rec.coarse_cues:
            row["coarse_cues"] = list(rec.coarse_cues)
        if rec.op == "retrieve":
            row["use_fine_cue"] = rec.use_fine_cue
        if rec.retention_window is not None:
            row["n"] = rec.retention_window
        lines.append(_dump(row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def read_utf8(path: Path) -> str:
    """A file's text, decoded as strict UTF-8 with its line ends as they
    are; ``ConfigurationError`` names the file and the line of a byte that
    is not UTF-8."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ConfigurationError(f"{path}: line {lineno}: not UTF-8 text: "
                                 f"{exc.reason}") from None


def _body_lines(path: Path, noun: str, fmt: str) -> list[tuple[int, str]]:
    """The numbered non-blank lines after the header of a ``noun`` file;
    ``ConfigurationError`` names the file for an empty file or a header of
    another format or version, and the line for text that is not UTF-8."""
    lines = read_utf8(path).splitlines()
    if not lines:
        raise ConfigurationError(f"{path}: empty {noun}")
    header = _json_row(path, 1, lines[0])
    if header.get("format") != fmt:
        raise ConfigurationError(f"{path}: not a {noun} file")
    if header.get("version") != FORMAT_VERSION:
        raise ConfigurationError(f"{path}: unsupported {noun} version")
    return [(lineno, line) for lineno, line in enumerate(lines[1:], start=2)
            if line.strip()]


def _json_row(path: Path, lineno: int, line: str) -> dict:
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
    if not isinstance(row, dict):
        raise ConfigurationError(f"{path}: line {lineno}: expected a JSON object")
    return row


_REQUIRED = object()
_KIND_NAMES = {int: "an integer", str: "a string", bool: "a boolean",
               list: "a list of strings"}


def _row_field(path: Path, lineno: int, row: dict, key: str, kind: type,
               default=_REQUIRED):
    """``row[key]``, checked to be of ``kind``; a list must hold strings and a
    bool is not an integer.  An absent key, or null where a default exists,
    gives the default."""
    value = row.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if key not in row:
        raise ConfigurationError(f"{path}: line {lineno}: missing field {key!r}")
    if (not isinstance(value, kind) or (kind is int and isinstance(value, bool))
            or (kind is list and not all(isinstance(v, str) for v in value))):
        raise ConfigurationError(
            f"{path}: line {lineno}: field {key!r} must be {_KIND_NAMES[kind]}, "
            f"got {value!r}")
    return value


def read_trace(path: str | Path) -> list[TraceRecord]:
    """A trace file's records.  ``ConfigurationError`` names the file for
    an empty file, a bad header or no records, and the line for a bad
    record."""
    path = Path(path)
    records = []
    for lineno, line in _body_lines(path, "trace", TRACE_FORMAT):
        row = _json_row(path, lineno, line)
        field_of = functools.partial(_row_field, path, lineno, row)
        seq = field_of("seq", int)
        # seqs start at 0 and increase, so each op has its own seq
        least = records[-1].seq + 1 if records else 0
        if seq < least:
            raise ConfigurationError(
                f"{path}: line {lineno}: seq {seq} must be >= {least}")
        records.append(TraceRecord(
            seq=seq, op=field_of("op", str),
            item_id=field_of("item_id", str, None),
            coarse_cues=tuple(field_of("coarse_cues", list, ())),
            use_fine_cue=field_of("use_fine_cue", bool, True),
            retention_window=field_of("n", int, None)))
    if not records:
        raise ConfigurationError(f"{path}: trace has a header but no records")
    return records


def write_log(log: list[dict], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(_dump(row) for row in log) + ("\n" if log else ""))
    return path


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

class NsReplayAdapter:
    """Drives a MemoryEngine from trace records and reports log rows."""

    engine_id = "ns"

    def __init__(self, engine: MemoryEngine):
        self.engine = engine
        self._feature_cache: dict[str, np.ndarray] = {}

    def _fine_cue(self, item: ManifestItem) -> np.ndarray:
        # a repeat retrieve costs one str-keyed lookup; a first one reaches
        # the extractor's memo, which has the item's feature if it was stored
        feature = self._feature_cache.get(item.item_id)
        if feature is None:
            feature = self.engine.memory.extractor.extract(item.data)
            self._feature_cache[item.item_id] = feature
        return feature

    def total_bytes(self) -> int:
        return self.engine.memory.total_bytes()

    def do_store(self, rec: TraceRecord, item: ManifestItem) -> dict:
        kind, dn_id, cost, _, quality, examined = self.engine.store(
            item.data, rec.coarse_cues[0], item_id=item.item_id)
        return {"kind": kind, "dn_id": dn_id, "cost": cost,
                "hit": kind == "merged", "examined": list(examined),
                "quality": quality, "fidelity": None}

    def do_retrieve(self, rec: TraceRecord, item: ManifestItem) -> dict:
        fine = self._fine_cue(item) if rec.use_fine_cue else None
        kind, dn_id, cost, payload, quality, examined = self.engine.retrieve(
            rec.coarse_cues[0], fine)
        hit = kind == "hit"
        return {"kind": kind, "dn_id": dn_id, "cost": cost, "hit": hit,
                "examined": list(examined), "quality": quality,
                "fidelity": psnr_fidelity(payload) if hit else None}

    def do_retention(self, rec: TraceRecord) -> dict:
        summary = self.engine.retention(n=rec.retention_window)
        return {"kind": "aged", "dn_id": None, "cost": 0, "hit": False,
                "examined": [], "quality": None, "fidelity": None,
                "bytes_freed": summary.bytes_freed}


class CamReplayAdapter:
    """Drives the CAM baseline with item ids as tags."""

    engine_id = "cam"

    def __init__(self, cam: CamBaseline):
        self.cam = cam

    def total_bytes(self) -> int:
        return self.cam.total_bytes

    def do_store(self, rec: TraceRecord, item: ManifestItem) -> dict:
        result = self.cam.store(item.item_id, item.data)
        # an overwrite that is then dropped leaves no entry: a miss
        kind = "miss" if not result.stored else (
            "merged" if result.overwrote else "new_neuron")
        return {"kind": kind, "dn_id": None, "cost": result.cost,
                "hit": result.stored, "evicted": result.evicted,
                "quality": 100.0 if result.stored else None, "fidelity": None}

    def do_retrieve(self, rec: TraceRecord, item: ManifestItem) -> dict:
        payload, cost = self.cam.retrieve(item.item_id)
        hit = payload is not None
        return {"kind": "hit" if hit else "miss", "dn_id": None, "cost": cost,
                "hit": hit, "quality": 100.0 if hit else None,
                "fidelity": psnr_fidelity(payload) if hit else None}

    def do_retention(self, rec: TraceRecord) -> dict:
        # a traditional CAM has no ageing; logged for op-count parity
        return {"kind": "aged", "dn_id": None, "cost": 0, "hit": False,
                "quality": None, "fidelity": None}


def replay(records: list[TraceRecord], adapter, corpus: Corpus) -> list[dict]:
    """Execute trace records in order; one log row per record.

    The trace is never mutated.  Malformed records and storage-full
    conditions abort with the failing record's seq.  A store or retrieve
    record carries exactly one coarse cue, the one label the engine's
    operations take; the CAM, which ignores it, is held to the same trace.
    """
    log: list[dict] = []
    for rec in records:
        try:
            if rec.op in ("store", "retrieve") and len(rec.coarse_cues) != 1:
                raise ConfigurationError(
                    f"{rec.op} needs exactly one coarse cue, got "
                    f"{list(rec.coarse_cues)!r}")
            if rec.op == "store":
                row = adapter.do_store(rec, corpus.get(rec.item_id))
            elif rec.op == "retrieve":
                row = adapter.do_retrieve(rec, corpus.get(rec.item_id))
            elif rec.op == "retention":
                row = adapter.do_retention(rec)
            else:
                raise ReplayError(f"record {rec.seq}: unknown op {rec.op!r}",
                                  seq=rec.seq)
        except StorageFullError as exc:
            raise ReplayError(f"record {rec.seq}: {exc}", seq=rec.seq,
                              storage_full=True) from exc
        except ConfigurationError as exc:
            raise ReplayError(f"record {rec.seq}: {exc}", seq=rec.seq) from exc
        row["seq"] = rec.seq
        row["engine"] = adapter.engine_id
        row["op"] = rec.op
        row["total_bytes"] = adapter.total_bytes()
        log.append(row)
    return log
