"""Neural memory network state: one memory of neurons and their associations.

The memory holds two kinds of neuron, and weighted associations that each
lead from a cue neuron to a data neuron:

* cue neurons hold a label string, by whose exact text the memory finds
  them (a locality's default cue has no label, and is the cue its
  locality names as ``default_cue_id``); ``Memory.cues`` maps each cue id
  to its label;
* data neurons hold a payload, a feature vector and a memory strength in
  ``[phi, 100]`` that governs the stored quality of the payload.

A data neuron is a row of the memory's per-row columns, which
``Memory.row_of`` finds by its id: its unit feature, strength, last access,
stored quality and stored size, original size, locality and feature as
given.  Retention thus updates a whole locality with one array pass and
elasticity reads a locality's strengths at once.  The columns change only
through ``Memory``.  Three of its methods lower strengths, each lowering
the stored quality and size columns where the quality falls:
``adjust_strength`` for one neuron, ``adjust_strengths`` for many rows at
once (retention), and ``lower_to_floors``, the elasticity walk, which
lowers the strengths of each ``(locality, ceiling)`` step above its floor
and stops once the bytes freed cover the shortfall it is given.
``reinforce`` restores a strength to 100, and ``set_payload`` replaces a
payload.  None of them touches a payload object: ``Memory.payloads`` holds
each row's payload as last stored or read, and ``Memory.payload`` rebuilds
it at the row's quality and size only when its quality differs from the
row's, which it does exactly when the row was lowered since.

A memory holds its hyperparameters and feature extractor; localities
partition the data neurons by data kind and carry the decay
hyperparameters.  Every locality owns a default cue connected to
all of its data neurons, which is how data stays reachable when no user cue
leads to it.  Only explicitly created associations exist, at weights
``>= epsilon``.  ``Memory`` keeps them in two dicts keyed ``(cue_id,
dn_id)``, the weight and the op of last access, and every call that names
an association takes the cue and then the data neuron, raising
``KeyError`` naming the id for any other pair.

Each cue has a search order: its associations, sorted by descending weight
and then by data neuron id.  An entry is a :class:`SearchEntry`, a tuple
``(-weight, dn_id, cue_id)`` whose natural order is that place, so orders
are searched and sorted without a key function.  A cue gets an empty order
when it is created, and ``Memory.associate`` and
``Memory.adjust_association``, the only ways an association is created or
changed, insert or move its entry in its cue's order: found by ``bisect``
at its old ``(-weight, dn_id)`` key, replaced in place when its new key
still sits between its neighbours, and otherwise inserted again at its new
place.  The orders are therefore always current.

The snapshot format still names one hive, 0, with a blob modality: every
line the memory writes carries ``hive=0``.

All weight and strength updates go through the two clamp rules

    weight'   = max(epsilon, weight - delta)
    strength' = min(100, max(phi, strength - delta))

with ``delta > 0`` meaning decay and ``delta < 0`` strengthening, so a single
signed channel serves reinforcement and ageing.
"""

from __future__ import annotations

import math
import numbers
import sys
import types
import typing
import urllib.parse
from bisect import bisect_left, insort
from dataclasses import dataclass, field, is_dataclass
from operator import itemgetter

import numpy as np

from neuralstore.codec import HistogramExtractor, Payload

SNAPSHOT_FORMAT = "neuralstore-snapshot"
SNAPSHOT_VERSION = 1
# the seed of every memory's feature projection
EXTRACTOR_SEED = 7


class ConfigurationError(ValueError):
    """Invalid hyperparameters or references to unknown configuration."""


class SnapshotFormatError(ValueError):
    """Malformed or version-incompatible snapshot document."""


def non_finite(value) -> bool:
    """True for a NaN or infinite float (ints and None are never flagged)."""
    return isinstance(value, float) and not math.isfinite(value)


def unit_row(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit length by the norm ``cosine_similarity`` uses.

    A zero vector stays zero, so it scores 0.0 as ``cosine_similarity``
    does.  Where the squared norm is NaN, infinite or below the smallest
    normal float, the norms' product in ``cosine_similarity`` loses
    precision, so the row is NaN: every score against it is then left to the
    scalar function.
    """
    sq = v.dot(v)
    if sq == 0.0:
        return np.zeros_like(v)
    if sys.float_info.min <= sq < math.inf:
        return v / math.sqrt(sq)
    return np.full_like(v, math.nan)


def fits_type(value, hint) -> bool:
    """Whether a value has the annotated type: an integer (numpy's too)
    passes for a float, a bool for neither, a tuple for a list, and a list
    for a tuple of its length."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):
        return any(fits_type(value, arg) for arg in args)
    if origin is list:
        return (isinstance(value, (list, tuple))
                and all(fits_type(v, args[0]) for v in value))
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(fits_type, value, args)))
    if hint in (int, float) and isinstance(value, bool):
        return False
    if hint is int:
        return isinstance(value, numbers.Integral)
    if hint is float:
        return isinstance(value, (numbers.Integral, float))
    if hint is type(None):
        return value is None
    return isinstance(value, hint)


def type_name(hint) -> str:
    if typing.get_origin(hint) is None:
        return "null" if hint is type(None) else hint.__name__
    return str(hint).replace("NoneType", "None")


def check_fields(section: str | None, given, hints: dict) -> None:
    """Raise ``ConfigurationError`` naming the keys of the dict ``given``
    that have no type hint, or the first value that does not fit its hint,
    by their path under ``section`` (``None``: the top level of a config).

    ``given`` may be a dataclass instead, whose hinted fields are then read
    one by one: ``vars()`` would build the instance's ``__dict__``, which
    slows every later attribute read of it (a params object is read on
    every operation)."""
    if is_dataclass(given):
        given = {name: getattr(given, name) for name in hints}
    unknown = set(given) - set(hints)
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {section or 'config'}: "
                                 f"{', '.join(sorted(unknown))}")
    for key, value in given.items():
        if not fits_type(value, hints[key]):
            name = key if section is None else f"{section}.{key}"
            raise ConfigurationError(
                f"{name} must be {type_name(hints[key])}, got {value!r}")


def _grown(a: np.ndarray, used: int) -> np.ndarray:
    """A copy of ``a``'s first ``used`` rows in room for at least twice as
    many (16 at least), the rest uninitialized."""
    grown = np.empty((max(16, 2 * used),) + a.shape[1:], dtype=a.dtype)
    grown[:used] = a[:used]
    return grown


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
# Search orders and localities
# ---------------------------------------------------------------------------

class SearchEntry(tuple):
    """One candidate in a cue's search order: the cue's edge to a data neuron.

    The tuple ``(-avg_weight, dn_id, cue_id)``, so entries sort by their
    place in an order: descending weight, then dn id (all entries of one
    order share the cue).  A probe ``(-weight, dn_id)`` sorts just before
    the entry with that key.
    """

    __slots__ = ()

    def __new__(cls, cue_id: int, dn_id: int, avg_weight: float):
        return tuple.__new__(cls, (-avg_weight, dn_id, cue_id))

    dn_id = property(itemgetter(1))
    cue_id = property(itemgetter(2))

    @property
    def avg_weight(self) -> float:
        return -self[0]

    def __getnewargs__(self):
        return self[2], self[1], -self[0]

    def __repr__(self) -> str:
        return (f"SearchEntry(cue_id={self[2]!r}, dn_id={self[1]!r}, "
                f"avg_weight={-self[0]!r})")


@dataclass
class Locality:
    id: int
    memory_decay_rate: float
    association_decay_rate: float
    mapping: dict
    # created lazily with the locality's first data neuron
    default_cue_id: int | None = None
    # the locality's data neurons in increasing id order
    dn_ids: list[int] = field(default_factory=list)
    # their memory rows, in a buffer grown by doubling
    _rows: np.ndarray = field(
        default_factory=lambda: np.empty(16, dtype=np.int64), repr=False,
        compare=False)

    @property
    def rows(self) -> np.ndarray:
        """The memory rows of ``dn_ids``, in the same order."""
        return self._rows[:len(self.dn_ids)]

    def add(self, dn_id: int, row: int) -> None:
        n = len(self.dn_ids)
        if n == len(self._rows):
            self._rows = _grown(self._rows, n)
        self._rows[n] = row
        self.dn_ids.append(dn_id)


@dataclass
class HiveParams:
    """Per-hive hyperparameters.

    ``locality_mapping`` holds one predicate per locality: a dict whose one
    optional key ``labels`` lists the labels it admits.  Data matching no
    predicate falls through to the last locality.  The other per-locality
    lists have one entry per predicate.
    """

    memory_decay_rates: list[float] = field(default_factory=lambda: [0.5, 1.0])
    association_decay_rates: list[float] = field(default_factory=lambda: [0.0, 0.0])
    locality_mapping: list[dict] = field(default_factory=lambda: [{}, {}])
    elasticity_schedules: list[list[float]] = field(
        default_factory=lambda: [[80, 70, 60, 50, 40, 30, 20, 10, 1],
                                 [80, 70, 60, 50, 40, 30, 20, 10, 1]])
    eta: float = 20.0
    epsilon: float = 1.0
    phi: float = 1.0
    retention_period: int = 500
    feature_dim: int = 64
    capacity_bytes: int | None = None

    def validate(self) -> None:
        """Raise ``ConfigurationError`` naming each bad field by its config
        path (``hive.eta``, ``hive.elasticity_schedules[0]``)."""
        # the range checks below assume every field has its declared type
        check_fields("hive", self, HIVE_PARAM_TYPES)
        for i, mapping in enumerate(self.locality_mapping):
            check_fields(f"hive.locality_mapping[{i}]", mapping,
                         {"labels": list[str]})
        problems: list[str] = []
        n = len(self.locality_mapping)
        if n == 0:
            problems.append("locality_mapping must not be empty")
        for name in ("memory_decay_rates", "association_decay_rates",
                     "elasticity_schedules"):
            if n and len(getattr(self, name)) != n:
                problems.append(f"{name} must have {n} entries, one per "
                                f"locality_mapping entry")
        # NaN passes every comparison below, so finiteness is checked first
        for name in ("eta", "epsilon", "memory_decay_rates",
                     "association_decay_rates", "capacity_bytes"):
            value = getattr(self, name)
            values = value if isinstance(value, (list, tuple)) else [value]
            if any(map(non_finite, values)):
                problems.append(f"{name} must be finite")
        if any(r < 0 for r in self.memory_decay_rates):
            problems.append("memory_decay_rates must be >= 0")
        if any(r < 0 for r in self.association_decay_rates):
            problems.append("association_decay_rates must be >= 0")
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
        if self.capacity_bytes is not None and self.capacity_bytes < 0:
            problems.append("capacity_bytes must be >= 0 or null")
        for i, schedule in enumerate(self.elasticity_schedules):
            name = f"elasticity_schedules[{i}]"
            if not schedule:
                problems.append(f"{name} must not be empty")
                continue
            if any(map(non_finite, schedule)):
                problems.append(f"{name} must be finite")
                continue
            if any(b >= a for a, b in zip(schedule, schedule[1:])):
                problems.append(f"{name} must be strictly decreasing")
            if schedule[-1] < max(self.phi, 1.0):
                problems.append(f"{name} must end at >= max(phi, 1)")
        if problems:
            raise ConfigurationError("; ".join(f"hive.{p}" for p in problems))


# the declared type of every HiveParams field
HIVE_PARAM_TYPES = typing.get_type_hints(HiveParams)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

class Memory:
    """The neural memory network: cue and data neurons, their weighted
    associations, and the localities that partition the data neurons.

    One logical thread of control per instance.
    """

    def __init__(self, params: HiveParams):
        params.validate()
        self.params = params
        self.extractor = HistogramExtractor(dim=params.feature_dim,
                                            seed=EXTRACTOR_SEED)
        self.localities = [
            Locality(id=i,
                     memory_decay_rate=params.memory_decay_rates[i],
                     association_decay_rate=params.association_decay_rates[i],
                     mapping=params.locality_mapping[i])
            for i in range(len(params.locality_mapping))]
        # each cue neuron's label (None for a default cue), each label's cue,
        # and each cue's search order
        self.cues: dict[int, str | None] = {}
        self._label_index: dict[str, int] = {}
        self.search_order: dict[int, list[SearchEntry]] = {}
        # each association's weight, and the op that created it or last
        # changed it other than by ageing, keyed (cue_id, dn_id)
        self.weights: dict[tuple[int, int], float] = {}
        self.edge_access: dict[tuple[int, int], int] = {}
        # One row per data neuron, in the order they were added (which is id
        # order), in columns grown by doubling: its feature scaled to unit
        # length, so a query scores every neuron in one product; its
        # strength, last access op, stored quality and stored size; and the
        # original size of its payload.
        self.row_of: dict[int, int] = {}
        self.features = np.empty((0, params.feature_dim))
        self.strength = np.empty(0)
        self.last_access = np.empty(0, dtype=np.int64)
        self.quality = np.empty(0)
        self.keep = np.empty(0, dtype=np.int64)
        self.original_size = np.empty(0, dtype=np.int64)
        # each row's locality id, and its feature as given, which the scalar
        # match recheck scores
        self.row_locality: list[int] = []
        self.raw_features: list[np.ndarray] = []
        # each row's payload as last stored or read; its quality differs
        # from the row's once the row is lowered, and the stored bytes are
        # then its blob's first ``keep``
        self.payloads: list[Payload] = []
        self.op_counter = 0
        self._next_neuron_id = 0
        # stored payload bytes, kept current by set_payload and each lowering
        self._bytes = 0

    # -- construction -------------------------------------------------------

    def _take_id(self) -> int:
        nid = self._next_neuron_id
        self._next_neuron_id += 1
        return nid

    def _add_cue(self, label: str | None = None) -> int:
        """A new cue neuron, with an empty search order."""
        cue_id = self._take_id()
        self.cues[cue_id] = label
        self.search_order[cue_id] = []
        return cue_id

    def add_cue_neuron(self, label: str) -> int:
        """The cue neuron with ``label``, inserted if the bank has none."""
        cue_id = self.find_cue_by_label(label)
        return self.new_cue_neuron(label) if cue_id is None else cue_id

    def new_cue_neuron(self, label: str) -> int:
        """A new cue neuron for ``label``, which the bank does not hold."""
        cue_id = self._label_index[label] = self._add_cue(label)
        return cue_id

    def add_data_neuron(self, locality_id: int, payload: Payload,
                        feature: np.ndarray) -> int:
        """A new data neuron in a new row at strength 100, joined to its
        locality's default cue at epsilon."""
        locality = self.locality(locality_id)
        feature = np.asarray(feature, dtype=float)
        if feature.shape != (self.params.feature_dim,):
            raise ConfigurationError(
                f"feature dimension {feature.shape} != ({self.params.feature_dim},)")
        dn_id = self._take_id()
        row = len(self.row_of)
        if row == len(self.features):
            for name in ("features", "strength", "last_access", "quality",
                         "keep", "original_size"):
                setattr(self, name, _grown(getattr(self, name), row))
        self.features[row] = unit_row(feature)
        self.strength[row] = 100.0
        self.last_access[row] = self.op_counter
        self.row_of[dn_id] = row
        self.row_locality.append(locality.id)
        self.raw_features.append(feature)
        self.payloads.append(payload)
        self.keep[row] = 0
        self.set_payload(dn_id, payload)
        locality.add(dn_id, row)
        if locality.default_cue_id is None:
            locality.default_cue_id = self._add_cue()
        # new neurons join their locality's default cue at the epsilon floor
        self.associate(locality.default_cue_id, dn_id)
        return dn_id

    # -- lookups ------------------------------------------------------------

    def find_cue_by_label(self, label: str) -> int | None:
        return self._label_index.get(label)

    def locality(self, locality_id: int) -> Locality:
        # localities[i].id == i, so an id in range is an index
        if (isinstance(locality_id, bool)
                or not isinstance(locality_id, numbers.Integral)
                or not 0 <= locality_id < len(self.localities)):
            raise ConfigurationError(
                f"unknown locality {locality_id} in hive 0")
        return self.localities[locality_id]

    def _row(self, dn_id: int) -> int:
        """A data neuron's row; KeyError naming ``dn_id`` if it is not a
        data neuron."""
        row = self.row_of.get(dn_id)
        if row is None:
            raise KeyError(f"neuron {dn_id} is not a data neuron")
        return row

    def payload(self, dn_id: int) -> Payload:
        """A data neuron's payload at its stored quality and size, the same
        object on every read until the row is lowered or replaced.

        A row's ``keep`` changes only with its quality, and each lowered
        size is a prefix of the one before, so the payload is rebuilt from
        the last one read exactly when their qualities differ.
        """
        row = self._row(dn_id)
        p = self.payloads[row]
        quality = self.quality.item(row)
        if p.quality != quality:
            p = self.payloads[row] = Payload(
                p.blob[:self.keep.item(row)], p.original, quality, p.lineage)
        return p

    def total_bytes(self) -> int:
        return self._bytes

    def _edge(self, cue_id: int, dn_id: int) -> tuple[int, int]:
        """The key of the association from a cue to a data neuron; KeyError
        naming ``cue_id`` if it is not a cue, or ``dn_id`` if it is not a
        data neuron."""
        if cue_id not in self.cues:
            raise KeyError(f"neuron {cue_id} is not a cue neuron")
        if dn_id not in self.row_of:
            raise KeyError(f"neuron {dn_id} is not a data neuron")
        return cue_id, dn_id

    # -- mutation -----------------------------------------------------------

    def associate(self, cue_id: int, dn_id: int) -> float:
        """Ensure a cue's association to a data neuron exists (created at
        epsilon); return its weight.

        KeyError naming both ids if ``cue_id`` is the default cue of another
        locality than the data neuron's, so the default cues' orders, which
        an unknown label walks in turn, never share a data neuron.
        """
        key = self._edge(cue_id, dn_id)
        weight = self.weights.get(key)
        if weight is None:
            # a default cue is the one its locality names
            locality_id = self.row_locality[self.row_of[dn_id]]
            for loc in self.localities:
                if cue_id == loc.default_cue_id and loc.id != locality_id:
                    raise KeyError(
                        f"default cue {cue_id} belongs to another locality "
                        f"than data neuron {dn_id}")
            weight = self.weights[key] = self.params.epsilon
            self.edge_access[key] = self.op_counter
            insort(self.search_order[cue_id],
                   SearchEntry(cue_id, dn_id, weight))
        return weight

    def adjust_association(self, cue_id: int, dn_id: int, delta: float,
                           touch: bool = True) -> float:
        """Clamped weight update; positive delta decays, negative strengthens.

        KeyError if there is no association.  Ageing passes set
        ``touch=False`` so decay does not count as access.
        """
        key = cue_id, dn_id
        old = self.weights.get(key)
        if old is None:
            # only a cue's association to a data neuron is ever kept, so a
            # pair found needs no check of its ids
            self._edge(cue_id, dn_id)
            raise KeyError(f"no association from {cue_id} to {dn_id}")
        new = self.weights[key] = clamp_weight(self.params.epsilon, old, delta)
        if touch:
            self.edge_access[key] = self.op_counter
        if new != old:
            self._move_entry(cue_id, dn_id, old, new)
        return new

    def _move_entry(self, cue_id: int, dn_id: int, old: float,
                    new: float) -> None:
        """Move the association's entry in its cue's order from weight
        ``old`` to ``new``."""
        order = self.search_order[cue_id]
        entry = SearchEntry(cue_id, dn_id, new)
        i = bisect_left(order, (-old, dn_id))
        # keys are distinct, so an entry strictly between its neighbours
        # keeps its place
        if ((i == 0 or order[i - 1] < entry)
                and (i + 1 == len(order) or entry < order[i + 1])):
            order[i] = entry
        else:
            del order[i]
            insort(order, entry)

    def adjust_strength(self, dn_id: int, delta: float) -> float:
        """Clamped strength update; a lower stored quality follows from it.

        The quality is the new strength, and where it is below the stored
        quality the payload is truncated to ``ceil(original_size * quality
        / 100)`` bytes, as the prefix codec compresses.
        :meth:`adjust_strengths` is the same update over many rows.
        """
        row = self._row(dn_id)
        new = clamp_strength(self.params.phi, self.strength.item(row), delta)
        self.strength[row] = new
        if new < self.quality.item(row):
            self._lower(row, new)
        return new

    def _lower(self, row: int, quality: float) -> None:
        """Lower a row's stored quality to ``quality``, truncating its size."""
        keep = self.keep.item(row)
        kept = min(keep, math.ceil(
            self.original_size.item(row) * quality / 100.0))
        self.quality[row] = quality
        self.keep[row] = kept
        self._bytes -= keep - kept

    def adjust_strengths(self, rows: np.ndarray, strengths: np.ndarray,
                         delta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`adjust_strength` over many rows at once, as retention
        ages a locality's idle rows.

        ``strengths`` are the rows' current strengths and ``delta`` one
        value or one per row.  Returns the new strengths, the positions in
        ``rows`` whose stored quality fell, and the bytes each of those
        freed.
        """
        new = np.minimum(100.0, np.maximum(self.params.phi, strengths - delta))
        self.strength[rows] = new
        # the quality a row stores is its strength
        quality = new
        lower = (quality < self.quality[rows]).nonzero()[0]
        if len(lower) < len(rows):
            rows, quality = rows[lower], quality[lower]
        keep = self.keep[rows]
        kept = np.minimum(keep, np.ceil(
            self.original_size[rows] * quality / 100.0).astype(np.int64))
        self.quality[rows] = quality
        self.keep[rows] = kept
        freed = keep - kept
        self._bytes -= sum(freed.tolist())
        return new, lower, freed

    def lower_to_floors(self, steps, shortfall: float) -> int:
        """Walk ``(locality, ceiling)`` steps in order, lowering each strength
        in the step's locality above ``floor = max(phi, ceiling)`` to the
        floor, and stop after the first step by which the bytes freed reach
        ``shortfall``; return the bytes freed.

        A locality's strengths are read once, when the walk first reaches
        it.  A step whose floor is not below the highest of them changes
        nothing and is skipped; otherwise one comparison selects the rows
        read above the floor, which are lowered one by one from the strength
        they have by then, with the float operations of
        :meth:`adjust_strength`; a row whose stored quality falls is
        truncated as that method truncates it.
        """
        phi = self.params.phi
        strength, quality, keep, size = (
            self.strength, self.quality, self.keep, self.original_size)
        read: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
        freed = 0
        for locality, ceiling in steps:
            floor = max(phi, ceiling)
            column = read.get(locality.id)
            if column is None:
                rows = locality.rows
                strengths = strength[rows]
                column = read[locality.id] = (
                    rows, strengths,
                    strengths.max() if len(rows) else -math.inf)
            rows, strengths, top = column
            if not top > floor:
                continue
            for row in rows[strengths > floor].tolist():
                s = strength.item(row)
                if not s > floor:
                    continue
                # min(100, max(phi, s - (s - floor))), as clamp_strength
                new = s - (s - floor)
                if not new > phi:
                    new = phi
                if not new < 100.0:
                    new = 100.0
                strength[row] = new
                if new < quality.item(row):
                    old = keep.item(row)
                    kept = min(old, math.ceil(size.item(row) * new / 100.0))
                    quality[row] = new
                    keep[row] = kept
                    freed += old - kept
            if freed >= shortfall:
                break
        self._bytes -= freed
        return freed

    def set_payload(self, dn_id: int, payload: Payload) -> None:
        """Hold ``payload`` as a data neuron's, at its quality and size,
        keeping the byte total current."""
        row = self._row(dn_id)
        self._bytes += len(payload.blob) - self.keep.item(row)
        self.payloads[row] = payload
        self.quality[row] = payload.quality
        self.keep[row] = len(payload.blob)
        self.original_size[row] = len(payload.original)

    def reinforce(self, dn_id: int) -> None:
        """Restore a data neuron's strength to 100 and mark it accessed at
        the current op; its stored quality is not resurrected.

        The same as ``adjust_strength(dn_id, -100.0)`` followed by setting
        the row's last access to the current op: a strength in ``[phi,
        100]`` clamps to exactly 100, which lowers no stored quality.
        """
        row = self._row(dn_id)
        self.strength[row] = 100.0
        self.last_access[row] = self.op_counter

    # -- export -------------------------------------------------------------

    def export_graph(self, fmt: str = "snapshot") -> str:
        if fmt == "snapshot":
            return self._export_snapshot()
        if fmt == "dot":
            return render_dot(parse_snapshot(self._export_snapshot()))
        raise ValueError(f"unknown export format {fmt!r}; use 'snapshot' or 'dot'")

    def _export_snapshot(self) -> str:
        p = self.params
        # the format keeps a hive id and a modality field; the memory is
        # hive 0, and every payload is a blob
        lines = [f"{SNAPSHOT_FORMAT} {SNAPSHOT_VERSION}",
                 f"hive 0 modality=blob "
                 f"eta={_fmt(p.eta)} epsilon={_fmt(p.epsilon)} phi={_fmt(p.phi)} "
                 f"retention={p.retention_period}"]
        for loc in self.localities:
            default = "-" if loc.default_cue_id is None else loc.default_cue_id
            lines.append(
                f"locality {loc.id} hive=0 "
                f"memory_decay={_fmt(loc.memory_decay_rate)} "
                f"association_decay={_fmt(loc.association_decay_rate)} "
                f"default_cue={default}")
        defaults = {loc.default_cue_id for loc in self.localities}
        # every id is a cue's or a data neuron's
        for nid in range(self._next_neuron_id):
            if nid in self.cues:
                label = self.cues[nid]
                # "-" stands for no label, so the label "-" is escaped
                label = ("-" if label is None else "%2D" if label == "-" else
                         urllib.parse.quote(label))
                lines.append(f"cue {nid} hive=0 label={label} "
                             f"default={int(nid in defaults)}")
            else:
                row = self.row_of[nid]
                lines.append(
                    f"data {nid} hive=0 locality={self.row_locality[row]} "
                    f"strength={_fmt(self.strength.item(row))} "
                    f"quality={_fmt(self.quality.item(row))} "
                    f"size={self.keep.item(row)} "
                    f"original={self.original_size.item(row)} "
                    f"last_access={self.last_access.item(row)}")
        # an edge line names its lower id first, whichever end is the cue
        for a, b, key in sorted((min(k), max(k), k) for k in self.weights):
            lines.append(f"edge {a} {b} weight={_fmt(self.weights[key])} "
                         f"last_access={self.edge_access[key]}")
        for cue_id in sorted(self.search_order):
            entries = ",".join(f"{e.dn_id}:{_fmt(e.avg_weight)}"
                               for e in self.search_order[cue_id])
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


# the fields ``Memory._export_snapshot`` writes on each kind of line, each
# with a check that raises ValueError on a value it never writes
_SNAPSHOT_FIELDS = {
    "hive": dict(modality=str, eta=float, epsilon=float, phi=float,
                 retention=int),
    "locality": dict(hive=int, memory_decay=float, association_decay=float,
                     default_cue=lambda v: v == "-" or int(v)),
    "cue": dict(hive=int, label=str, default=("0", "1").index),
    "data": dict(hive=int, locality=int, strength=float, quality=float,
                 size=int, original=int, last_access=int),
    "edge": dict(weight=float, last_access=int),
}


def _fields(kind: str, parts: list[str]) -> dict:
    """A line's ``key=value`` fields, as text; KeyError or ValueError if a
    field its kind always carries is missing or does not parse."""
    out = dict(part.partition("=")[::2] for part in parts)
    for key, check in _SNAPSHOT_FIELDS[kind].items():
        check(out[key])
    return out


def _once(seen: set, key: tuple, message: str) -> None:
    """Add ``key`` to ``seen``; SnapshotFormatError with ``message`` if an
    earlier line added it."""
    if key in seen:
        raise SnapshotFormatError(message)
    seen.add(key)


def _check_declared(kinds: dict[int, str], ids, *allowed: str) -> None:
    for nid in ids:
        if kinds.get(nid) not in allowed:
            raise SnapshotFormatError(
                f"neuron {nid} is not a declared {' or '.join(allowed)} neuron")


def _check_order(edge_weights: dict[tuple[int, int], float], cue_id: int,
                 entries: list[dict]) -> None:
    """An order lists each data neuron once, each at the weight of an
    earlier edge line from its cue to that data neuron."""
    listed = set()
    for entry in entries:
        dn_id, weight = entry["dn_id"], entry["avg_weight"]
        if dn_id in listed:
            raise SnapshotFormatError(f"order {cue_id} repeats data neuron {dn_id}")
        listed.add(dn_id)
        edge_weight = edge_weights.get((cue_id, dn_id))
        if edge_weight is None:
            raise SnapshotFormatError(
                f"order {cue_id} lists data neuron {dn_id}, but no earlier "
                f"edge joins them")
        if weight != edge_weight:
            raise SnapshotFormatError(
                f"order {cue_id} gives data neuron {dn_id} weight {weight!r}, "
                f"but their edge has weight {edge_weight!r}")


def parse_snapshot(text: str) -> SnapshotDoc:
    """Parse a snapshot document.  A malformed line raises
    ``SnapshotFormatError`` naming its line number: one that lacks a field
    its kind always carries or whose field does not parse, a locality or
    neuron declared twice, a data neuron whose locality no earlier line
    declares, an edge or order that names a neuron no earlier line declares
    (an order's cue must be a cue, its entries data neurons), an edge that
    does not join one cue and one data neuron or repeats an earlier edge, a
    second order for one cue, and an order entry that repeats a data neuron
    or has no earlier edge from the order's cue at its weight."""
    lines = [(number, line.strip())
             for number, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise SnapshotFormatError("empty snapshot document")
    number, line = lines[0]
    head = line.split()
    if len(head) != 2 or head[0] != SNAPSHOT_FORMAT:
        raise SnapshotFormatError(f"not a snapshot document: {line!r}")
    try:
        version = int(head[1])
    except ValueError:
        raise SnapshotFormatError(
            f"snapshot line {number}: version {head[1]!r} is not an integer"
        ) from None
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(
            f"snapshot version {version} unsupported (expected {SNAPSHOT_VERSION})")
    doc = SnapshotDoc(version=version)
    kinds: dict[int, str] = {}      # declared neuron id -> "cue" | "data"
    edge_weights: dict[tuple[int, int], float] = {}     # (cue, data) -> weight
    # ("hive" | "locality" | "neuron", id), ("edge", cue, data), ("order", cue)
    seen: set[tuple] = set()
    for number, line in lines[1:]:
        kind, *rest = line.split()
        try:
            if kind in ("hive", "locality"):
                rows = doc.hives if kind == "hive" else doc.localities
                rows.append({"id": int(rest[0]), **_fields(kind, rest[1:])})
                _once(seen, (kind, rows[-1]["id"]),
                      f"{kind} {rows[-1]['id']} is declared twice")
            elif kind in ("cue", "data"):
                nid = int(rest[0])
                doc.neurons.append({"kind": kind, "id": nid,
                                    **_fields(kind, rest[1:])})
                _once(seen, ("neuron", nid), f"neuron {nid} is declared twice")
                kinds[nid] = kind
                locality = doc.neurons[-1].get("locality")
                if kind == "data" and ("locality", int(locality)) not in seen:
                    raise SnapshotFormatError(
                        f"data neuron {nid} names locality {locality}, which "
                        f"no earlier line declares")
            elif kind == "edge":
                a, b = int(rest[0]), int(rest[1])
                doc.edges.append({"a": a, "b": b, **_fields(kind, rest[2:])})
                _check_declared(kinds, (a, b), "cue", "data")
                if kinds[a] == kinds[b]:
                    raise SnapshotFormatError(
                        f"edge {a} {b} joins two {kinds[a]} neurons")
                ends = (a, b) if kinds[a] == "cue" else (b, a)
                _once(seen, ("edge", *ends), f"edge {a} {b} repeats an earlier edge")
                edge_weights[ends] = float(doc.edges[-1]["weight"])
            elif kind == "order":
                cue_id = int(rest[0])
                items = rest[1].split(",") if len(rest) > 1 else []
                entries = [{"dn_id": int(dn), "avg_weight": float(w)}
                           for dn, _, w in (i.partition(":") for i in items)]
                _once(seen, ("order", cue_id), f"cue {cue_id} has a second order")
                doc.orders.append({"cue_id": cue_id, "entries": entries})
                _check_declared(kinds, [cue_id], "cue")
                _check_declared(kinds, [e["dn_id"] for e in entries], "data")
                _check_order(edge_weights, cue_id, entries)
            else:
                raise SnapshotFormatError(f"unknown line kind {kind!r}")
        except SnapshotFormatError as exc:
            raise SnapshotFormatError(f"snapshot line {number}: {exc}") from None
        except (IndexError, KeyError, ValueError):
            # a short line, a missing field, or a field, id or weight that
            # does not parse
            raise SnapshotFormatError(
                f"snapshot line {number}: malformed {kind} line {line!r}") from None
    return doc


def cue_label(neuron: dict) -> str | None:
    """A parsed cue's label as stored (``None`` for a cue written without
    one: a locality's default cue)."""
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
            name = cue_label(n)
            if name is None:
                name = "default" if default else "cue"
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
