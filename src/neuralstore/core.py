"""Neural memory network state: neurons, weighted associations, one hive.

The memory is a single weighted undirected graph over two node kinds:

* cue neurons hold a search pattern (a label or a feature vector) and are
  kept in the hive's cue bank;
* data neurons hold a payload, a feature vector and a memory strength in
  ``[phi, 100]`` that governs the stored quality of the payload.

A memory holds one hive, of one modality, with its hyperparameters, codec
and feature extractor; localities partition the hive by data kind and carry
the decay hyperparameters.  Every locality owns a default cue connected to
all of its data neurons, which is how data stays reachable when no user cue
leads to it.

Two connectivity modes exist.  In the default (sparse) mode only explicitly
created associations exist and edges live at weights ``>= epsilon``.  In
full-graph mode every pair of neurons is implicitly connected at
``epsilon`` and only weights above ``epsilon`` are materialized, which keeps
storage linear in the number of meaningful edges while preserving
fully-connected semantics.

All weight and strength updates go through the two clamp rules

    weight'   = max(epsilon, weight - delta)
    strength' = min(100, max(phi, strength - delta))

with ``delta > 0`` meaning decay and ``delta < 0`` strengthening, so a single
signed channel serves reinforcement and ageing.
"""

from __future__ import annotations

import math
import urllib.parse
from dataclasses import dataclass, field

import numpy as np

from neuralstore.codec import (
    Payload,
    get_codec,
    get_extractor,
    get_strength_quality_map,
    label_vector,
)

SNAPSHOT_FORMAT = "neuralstore-snapshot"
SNAPSHOT_VERSION = 1


class ConfigurationError(ValueError):
    """Invalid hyperparameters or references to unknown configuration."""


class SnapshotFormatError(ValueError):
    """Malformed or version-incompatible snapshot document."""


def non_finite(value) -> bool:
    """True for a NaN or infinite float (ints and None are never flagged)."""
    return isinstance(value, float) and not math.isfinite(value)


def clamp_weight(epsilon: float, weight: float, delta: float) -> float:
    return max(epsilon, weight - delta)


def clamp_strength(phi: float, strength: float, delta: float) -> float:
    return min(100.0, max(phi, strength - delta))


def _fmt(x: float | int) -> str:
    """Canonical numeric formatting for byte-deterministic exports."""
    f = float(x)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return format(f, ".10g")


# ---------------------------------------------------------------------------
# Neurons
# ---------------------------------------------------------------------------

@dataclass
class CueNeuron:
    id: int
    cue_vector: np.ndarray
    label: str | None = None
    is_default: bool = False


@dataclass
class DataNeuron:
    id: int
    payload: Payload
    feature: np.ndarray
    strength: float
    locality_id: int
    last_access_op: int

    @property
    def size_bytes(self) -> int:
        return self.payload.size_bytes


@dataclass(frozen=True)
class SearchEntry:
    """One candidate in a cue's search order: the cue's edge to a data neuron."""

    cue_id: int
    dn_id: int
    avg_weight: float


# ---------------------------------------------------------------------------
# Association graph
# ---------------------------------------------------------------------------

class AssociationGraph:
    """Sparse symmetric weight map with an implicit-epsilon full-graph mode.

    Edges are stored once under the canonical ``(min_id, max_id)`` key, so
    symmetry holds by construction.  In full-graph mode any absent pair reads
    as ``epsilon`` and entries that decay back to ``epsilon`` are dropped.
    """

    def __init__(self, epsilon: float, full_graph: bool = False):
        self.epsilon = epsilon
        self.full_graph = full_graph
        self._weights: dict[tuple[int, int], float] = {}
        self._last_access: dict[tuple[int, int], int] = {}
        self._adjacency: dict[int, set[int]] = {}

    @staticmethod
    def _key(a: int, b: int) -> tuple[int, int]:
        if a == b:
            raise ValueError(f"self-edge on neuron {a} rejected")
        return (a, b) if a < b else (b, a)

    def weight(self, a: int, b: int) -> float | None:
        """Logical weight of (a, b); ``None`` if no association exists."""
        w = self._weights.get(self._key(a, b))
        if w is not None:
            return w
        return self.epsilon if self.full_graph else None

    def has_edge(self, a: int, b: int) -> bool:
        return self.weight(a, b) is not None

    def last_access(self, a: int, b: int) -> int | None:
        return self._last_access.get(self._key(a, b))

    def _store(self, key: tuple[int, int], weight: float, op: int,
               touch: bool = True) -> None:
        if self.full_graph and weight == self.epsilon:
            # implicit in full-graph mode; drop for canonical state
            self._weights.pop(key, None)
            self._last_access.pop(key, None)
            a, b = key
            self._adjacency.get(a, set()).discard(b)
            self._adjacency.get(b, set()).discard(a)
            return
        self._weights[key] = weight
        if touch or key not in self._last_access:
            self._last_access[key] = op
        self._adjacency.setdefault(key[0], set()).add(key[1])
        self._adjacency.setdefault(key[1], set()).add(key[0])

    def ensure(self, a: int, b: int, op: int) -> float:
        """Create the association at ``epsilon`` if absent; return its weight."""
        key = self._key(a, b)
        if key in self._weights:
            return self._weights[key]
        if not self.full_graph:
            self._store(key, self.epsilon, op)
        return self.epsilon

    def adjust(self, a: int, b: int, delta: float, op: int,
               touch: bool = True) -> float:
        """Apply the clamped update ``max(epsilon, old - delta)``.

        Ageing passes set ``touch=False`` so decay does not count as access.
        """
        key = self._key(a, b)
        old = self.weight(a, b)
        if old is None:
            raise KeyError(f"no association between {a} and {b}")
        new = clamp_weight(self.epsilon, old, delta)
        self._store(key, new, op, touch=touch)
        return new

    def neighbors(self, node: int) -> set[int]:
        """Materialized neighbors of a node (full-graph implicit pairs excluded)."""
        return set(self._adjacency.get(node, ()))

    def edges(self) -> list[tuple[int, int, float]]:
        """Materialized edges sorted by key."""
        return [(a, b, self._weights[(a, b)]) for a, b in sorted(self._weights)]

    def materialized_count(self) -> int:
        return len(self._weights)


# ---------------------------------------------------------------------------
# Hive organization
# ---------------------------------------------------------------------------

@dataclass
class Locality:
    id: int
    memory_decay_rate: float
    association_decay_rate: float
    mapping: dict
    # created lazily with the locality's first data neuron
    default_cue_id: int | None = None
    dn_ids: list[int] = field(default_factory=list)


@dataclass
class HiveParams:
    """Per-hive hyperparameters.

    ``locality_mapping`` holds one predicate per locality; a predicate is a
    dict with optional keys ``labels`` (list of class labels admitted) and
    ``centroid``/``min_similarity`` (feature-space test).  Data matching no
    predicate falls through to the last locality.
    """

    num_localities: int = 2
    memory_decay_rates: list[float] = field(default_factory=lambda: [0.5, 1.0])
    association_decay_rates: list[float] = field(default_factory=lambda: [0.0, 0.0])
    locality_mapping: list[dict] = field(default_factory=lambda: [{}, {}])
    matching_metric: str = "cosine"
    elasticity_schedules: list[list[float]] = field(
        default_factory=lambda: [[80, 70, 60, 50, 40, 30, 20, 10, 1],
                                 [80, 70, 60, 50, 40, 30, 20, 10, 1]])
    eta: float = 20.0
    epsilon: float = 1.0
    phi: float = 1.0
    retention_period: int = 500
    codec: str = "truncate"
    extractor: str = "histogram"
    feature_dim: int = 64
    extractor_seed: int = 7
    full_graph: bool = False
    elasticity_mode: str = "ceiling"
    strength_quality_map: str = "identity"
    capacity_bytes: int | None = None

    def validate(self) -> None:
        problems: list[str] = []
        if self.num_localities < 1:
            problems.append("num_localities must be >= 1")
        for name in ("memory_decay_rates", "association_decay_rates",
                     "locality_mapping", "elasticity_schedules"):
            seq = getattr(self, name)
            if len(seq) != self.num_localities:
                problems.append(f"{name} must have {self.num_localities} entries")
        # NaN passes every comparison below, so finiteness is checked first
        for name in ("eta", "epsilon", "memory_decay_rates",
                     "association_decay_rates", "capacity_bytes"):
            value = getattr(self, name)
            values = value if isinstance(value, list) else [value]
            if any(map(non_finite, values)):
                problems.append(f"{name} must be finite")
        if any(r < 0 for r in self.memory_decay_rates):
            problems.append("memory decay rates must be >= 0")
        if any(r < 0 for r in self.association_decay_rates):
            problems.append("association decay rates must be >= 0")
        if self.eta <= 0:
            problems.append("eta must be > 0")
        if self.epsilon < 0:
            problems.append("epsilon must be >= 0")
        if not 0.0 <= self.phi <= 100.0:
            problems.append("phi must be in [0, 100]")
        if self.retention_period < 1:
            problems.append("retention_period must be >= 1")
        if self.feature_dim < 1:
            problems.append("feature_dim must be >= 1")
        if self.elasticity_mode not in ("ceiling", "scale"):
            problems.append(f"unknown elasticity_mode {self.elasticity_mode!r}")
        if self.matching_metric != "cosine":
            problems.append(f"unknown matching metric {self.matching_metric!r}")
        if self.capacity_bytes is not None and self.capacity_bytes < 0:
            problems.append("capacity_bytes must be >= 0 or null")
        for i, schedule in enumerate(self.elasticity_schedules):
            if not schedule:
                problems.append(f"elasticity schedule {i} is empty")
                continue
            if any(map(non_finite, schedule)):
                problems.append(f"elasticity_schedules[{i}] must be finite")
                continue
            if any(b >= a for a, b in zip(schedule, schedule[1:])):
                problems.append(f"elasticity schedule {i} must be strictly decreasing")
            if schedule[-1] < max(self.phi, 1.0):
                problems.append(
                    f"elasticity schedule {i} must end at >= max(phi, 1)")
        for factory, value in ((get_codec, self.codec),
                               (get_strength_quality_map, self.strength_quality_map)):
            try:
                factory(value)
            except KeyError as exc:
                problems.append(str(exc))
        try:
            get_extractor(self.extractor, dim=self.feature_dim, seed=self.extractor_seed)
        except KeyError as exc:
            problems.append(str(exc))
        if problems:
            raise ConfigurationError("; ".join(problems))


@dataclass
class Hive:
    id: int
    modality: str
    params: HiveParams
    localities: list[Locality] = field(default_factory=list)
    cue_bank: dict[int, CueNeuron] = field(default_factory=dict)
    search_order: dict[int, list[SearchEntry]] = field(default_factory=dict)

    def __post_init__(self):
        self.codec = get_codec(self.params.codec)
        self.extractor = get_extractor(self.params.extractor,
                                       dim=self.params.feature_dim,
                                       seed=self.params.extractor_seed)
        self.quality_map = get_strength_quality_map(self.params.strength_quality_map)
        self._label_index: dict[str, int] = {}
        self._vector_index: dict[bytes, int] = {}
        # every data neuron's feature as a row of one matrix, with its norm,
        # so a candidate list is scored in one product; grown by doubling
        self.feature_rows: dict[int, int] = {}
        self.features = np.empty((0, self.params.feature_dim))
        self.feature_norms = np.empty(0)

    def add_feature(self, dn_id: int, feature: np.ndarray) -> None:
        row = len(self.feature_rows)
        if row == len(self.features):
            size = max(16, 2 * row)
            features = np.empty((size, self.params.feature_dim))
            features[:row] = self.features[:row]
            norms = np.empty(size)
            norms[:row] = self.feature_norms[:row]
            self.features, self.feature_norms = features, norms
        self.features[row] = feature
        # the expression cosine_similarity uses, so both see the same norm
        self.feature_norms[row] = math.sqrt(feature.dot(feature))
        self.feature_rows[dn_id] = row

    def find_cue_by_label(self, label: str) -> int | None:
        return self._label_index.get(label)

    def find_cue_by_vector(self, vector: np.ndarray) -> int | None:
        return self._vector_index.get(np.asarray(vector, dtype=float).tobytes())

    def locality(self, locality_id: int) -> Locality:
        for loc in self.localities:
            if loc.id == locality_id:
                return loc
        raise ConfigurationError(f"unknown locality {locality_id} in hive {self.id}")


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

class Memory:
    """The neural memory network: one hive of neurons and their associations.

    One logical thread of control per instance.
    """

    def __init__(self, params: HiveParams, modality: str = "blob"):
        params.validate()
        self.hive = Hive(id=0, modality=modality, params=params)
        for i in range(params.num_localities):
            self.hive.localities.append(Locality(
                id=i,
                memory_decay_rate=params.memory_decay_rates[i],
                association_decay_rate=params.association_decay_rates[i],
                mapping=params.locality_mapping[i],
            ))
        self.graph = AssociationGraph(params.epsilon, params.full_graph)
        self.neurons: dict[int, CueNeuron | DataNeuron] = {}
        self.op_counter = 0
        self._next_neuron_id = 0
        # stored payload bytes, kept current by add_data_neuron and set_payload
        self._bytes = 0

    # -- construction -------------------------------------------------------

    def _take_id(self) -> int:
        nid = self._next_neuron_id
        self._next_neuron_id += 1
        return nid

    def _add_default_cue(self, locality: Locality) -> int:
        hive = self.hive
        vec = label_vector(f"__default__{hive.id}:{locality.id}",
                           hive.params.feature_dim)
        cue = CueNeuron(id=self._take_id(), cue_vector=vec, is_default=True)
        self.neurons[cue.id] = cue
        hive.cue_bank[cue.id] = cue
        return cue.id

    def add_cue_neuron(self, cue_vector: np.ndarray | None = None,
                       label: str | None = None) -> int:
        """Insert a cue neuron; duplicate labels/vectors return the existing id."""
        hive = self.hive
        if label is not None:
            existing = hive.find_cue_by_label(label)
            if existing is not None:
                return existing
            if cue_vector is None:
                cue_vector = label_vector(label, hive.params.feature_dim)
        else:
            if cue_vector is None:
                raise ConfigurationError("cue neuron needs a label or a vector")
            existing = hive.find_cue_by_vector(cue_vector)
            if existing is not None:
                return existing
        cue_vector = np.asarray(cue_vector, dtype=float)
        if cue_vector.shape != (hive.params.feature_dim,):
            raise ConfigurationError(
                f"cue vector dimension {cue_vector.shape} != "
                f"({hive.params.feature_dim},)")
        cue = CueNeuron(id=self._take_id(), cue_vector=cue_vector, label=label)
        self.neurons[cue.id] = cue
        hive.cue_bank[cue.id] = cue
        if label is not None:
            hive._label_index[label] = cue.id
        else:
            hive._vector_index[cue_vector.tobytes()] = cue.id
        return cue.id

    def add_data_neuron(self, locality_id: int, payload: Payload,
                        feature: np.ndarray) -> int:
        hive = self.hive
        locality = hive.locality(locality_id)
        feature = np.asarray(feature, dtype=float)
        if feature.shape != (hive.params.feature_dim,):
            raise ConfigurationError(
                f"feature dimension {feature.shape} != ({hive.params.feature_dim},)")
        dn = DataNeuron(id=self._take_id(), payload=payload, feature=feature,
                        strength=100.0, locality_id=locality_id,
                        last_access_op=self.op_counter)
        self.neurons[dn.id] = dn
        self._bytes += dn.size_bytes
        hive.add_feature(dn.id, feature)
        locality.dn_ids.append(dn.id)
        if locality.default_cue_id is None:
            locality.default_cue_id = self._add_default_cue(locality)
        # new neurons join at the epsilon floor: explicitly to the locality
        # default cue in sparse mode, implicitly to everything in full mode
        if not self.graph.full_graph:
            self.graph.ensure(locality.default_cue_id, dn.id, self.op_counter)
        return dn.id

    # -- lookups ------------------------------------------------------------

    def data_neuron(self, dn_id: int) -> DataNeuron:
        neuron = self.neurons[dn_id]
        if not isinstance(neuron, DataNeuron):
            raise KeyError(f"neuron {dn_id} is not a data neuron")
        return neuron

    def data_neurons(self) -> list[DataNeuron]:
        return [n for i, n in sorted(self.neurons.items())
                if isinstance(n, DataNeuron)]

    def total_bytes(self) -> int:
        return self._bytes

    def edge_count(self) -> int:
        """Logical association count (full mode counts every distinct pair)."""
        if self.graph.full_graph:
            n = len(self.neurons)
            return n * (n - 1) // 2
        return self.graph.materialized_count()

    def weight(self, a: int, b: int) -> float | None:
        self._check_ids(a, b)
        return self.graph.weight(a, b)

    def _check_ids(self, *ids: int) -> None:
        for i in ids:
            if i not in self.neurons:
                raise KeyError(f"unknown neuron id {i}")

    # -- mutation -----------------------------------------------------------

    def associate(self, a: int, b: int) -> float:
        """Ensure an association exists (created at epsilon); return its weight."""
        self._check_ids(a, b)
        return self.graph.ensure(a, b, self.op_counter)

    def adjust_association(self, a: int, b: int, delta: float) -> float:
        """Clamped weight update; positive delta decays, negative strengthens."""
        self._check_ids(a, b)
        return self.graph.adjust(a, b, delta, self.op_counter)

    def adjust_strength(self, dn_id: int, delta: float) -> float:
        """Clamped strength update; decay triggers recompression of the payload."""
        dn = self.data_neuron(dn_id)
        hive = self.hive
        new = clamp_strength(hive.params.phi, dn.strength, delta)
        dn.strength = new
        target_quality = min(100.0, max(0.0, hive.quality_map(new)))
        if target_quality < dn.payload.quality:
            self.set_payload(dn, hive.codec.compress(dn.payload, target_quality))
        return new

    def set_payload(self, dn: DataNeuron, payload: Payload) -> None:
        """Replace a data neuron's payload, keeping the byte total current."""
        self._bytes += payload.size_bytes - dn.size_bytes
        dn.payload = payload

    def restore_strength(self, dn_id: int) -> float:
        """Raise strength back to 100 (stored quality is not resurrected)."""
        return self.adjust_strength(dn_id, -100.0)

    def touch(self, dn_id: int) -> None:
        self.data_neuron(dn_id).last_access_op = self.op_counter

    # -- export -------------------------------------------------------------

    def export_graph(self, fmt: str = "snapshot") -> str:
        if fmt == "snapshot":
            return self._export_snapshot()
        if fmt == "dot":
            return render_dot(parse_snapshot(self._export_snapshot()))
        raise ValueError(f"unknown export format {fmt!r}; use 'snapshot' or 'dot'")

    def _export_snapshot(self) -> str:
        hive, p = self.hive, self.hive.params
        lines = [f"{SNAPSHOT_FORMAT} {SNAPSHOT_VERSION}",
                 f"hive {hive.id} modality={urllib.parse.quote(hive.modality)} "
                 f"eta={_fmt(p.eta)} epsilon={_fmt(p.epsilon)} phi={_fmt(p.phi)} "
                 f"retention={p.retention_period} full_graph={int(p.full_graph)}"]
        for loc in hive.localities:
            default = "-" if loc.default_cue_id is None else loc.default_cue_id
            lines.append(
                f"locality {loc.id} hive={hive.id} "
                f"memory_decay={_fmt(loc.memory_decay_rate)} "
                f"association_decay={_fmt(loc.association_decay_rate)} "
                f"default_cue={default}")
        for nid, neuron in sorted(self.neurons.items()):
            if isinstance(neuron, CueNeuron):
                label = urllib.parse.quote(neuron.label) if neuron.label else "-"
                lines.append(f"cue {nid} hive={hive.id} label={label} "
                             f"default={int(neuron.is_default)}")
            else:
                lines.append(
                    f"data {nid} hive={hive.id} locality={neuron.locality_id} "
                    f"strength={_fmt(neuron.strength)} "
                    f"quality={_fmt(neuron.payload.quality)} "
                    f"size={neuron.size_bytes} original={neuron.payload.original_size} "
                    f"last_access={neuron.last_access_op}")
        for a, b, w in self.graph.edges():
            last = self.graph.last_access(a, b)
            lines.append(f"edge {a} {b} weight={_fmt(w)} last_access={last}")
        for cue_id in sorted(hive.search_order):
            entries = ",".join(f"{e.dn_id}:{_fmt(e.avg_weight)}"
                               for e in hive.search_order[cue_id])
            lines.append(f"order {cue_id} {entries}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Snapshot parsing and rendering (for offline inspection)
# ---------------------------------------------------------------------------

@dataclass
class SnapshotDoc:
    version: int
    hives: list[dict] = field(default_factory=list)
    localities: list[dict] = field(default_factory=list)
    neurons: list[dict] = field(default_factory=list)
    edges: list[dict] = field(default_factory=list)
    orders: list[dict] = field(default_factory=list)


def _parse_kv(parts: list[str]) -> dict:
    out = {}
    for part in parts:
        key, _, value = part.partition("=")
        out[key] = value
    return out


def parse_snapshot(text: str) -> SnapshotDoc:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SnapshotFormatError("empty snapshot document")
    head = lines[0].split()
    if len(head) != 2 or head[0] != SNAPSHOT_FORMAT:
        raise SnapshotFormatError(f"not a snapshot document: {lines[0]!r}")
    version = int(head[1])
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(
            f"snapshot version {version} unsupported (expected {SNAPSHOT_VERSION})")
    doc = SnapshotDoc(version=version)
    for line in lines[1:]:
        kind, *rest = line.split()
        if kind == "hive":
            doc.hives.append({"id": int(rest[0]), **_parse_kv(rest[1:])})
        elif kind == "locality":
            doc.localities.append({"id": int(rest[0]), **_parse_kv(rest[1:])})
        elif kind in ("cue", "data"):
            doc.neurons.append({"kind": kind, "id": int(rest[0]),
                                **_parse_kv(rest[1:])})
        elif kind == "edge":
            doc.edges.append({"a": int(rest[0]), "b": int(rest[1]),
                              **_parse_kv(rest[2:])})
        elif kind == "order":
            entries = []
            if len(rest) > 1 and rest[1]:
                for item in rest[1].split(","):
                    dn, _, w = item.partition(":")
                    entries.append({"dn_id": int(dn), "avg_weight": float(w)})
            doc.orders.append({"cue_id": int(rest[0]), "entries": entries})
        else:
            raise SnapshotFormatError(f"unknown snapshot line kind {kind!r}")
    return doc


def cue_label(neuron: dict) -> str | None:
    """A parsed cue's label as stored (``None`` for a default or vector cue)."""
    label = neuron.get("label", "-")
    return None if label == "-" else urllib.parse.unquote(label)


def _dot_string(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(doc: SnapshotDoc) -> str:
    """Graphviz rendering of a parsed snapshot: cues as ellipses (default
    cues doubled), data neurons as boxes, edges labelled with weights."""
    lines = ["graph memory {", "  node [fontsize=10];"]
    for n in doc.neurons:
        nid = n["id"]
        if n["kind"] == "cue":
            default = n.get("default") == "1"
            name = cue_label(n) or ("default" if default else "cue")
            shape = "doublecircle" if default else "ellipse"
            lines.append(f'  n{nid} [label="{_dot_string(name)}\\n#{nid}" '
                         f'shape={shape}];')
        else:
            lines.append(f'  n{nid} [label="dn{nid}\\ns={n.get("strength")} '
                         f'q={n.get("quality")}" shape=box];')
    for e in doc.edges:
        lines.append(f'  n{e["a"]} -- n{e["b"]} [label="{e.get("weight")}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
