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
stored quality and stored size, original size, id (``Memory.row_dn``),
locality and feature as given.  Retention thus updates a whole locality
with one array pass and elasticity reads a locality's strengths at once.
The columns change only through ``Memory``.  Two of its methods lower
strengths, each lowering the stored quality and size columns where the
quality falls:
``adjust_strengths`` for many rows at once (retention; ``adjust_strength``
is its one-row form), and ``lower_to_floors``, the elasticity walk, which
lowers the strengths of each ``(locality, ceiling)`` step above its floor
and stops once the bytes freed cover the shortfall it is given.
``reward``, a hit's reaction, restores a strength to 100, and
``set_payload`` replaces a payload.  None of them touches a payload object:
``Memory.payloads`` holds each row's payload as last stored or read, and
``Memory.payload`` and ``reward`` rebuild it at the row's quality and size
only when its quality differs from the row's, which it does exactly when
the row was lowered since.

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

A snapshot is the text ``format_snapshot`` writes for the plain
:class:`SnapshotDoc` the memory builds of its state, and
``parse_snapshot`` accepts only a text that ``format_snapshot`` writes
again, byte for byte, for the data it read, and whose data neurons keep
the invariants above: a strength in ``[phi, 100]``, a stored size no
larger than the original, and an edge from their locality's default cue.

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
from itertools import zip_longest
from operator import itemgetter

import numpy as np

from neuralstore.codec import HistogramExtractor, Payload

SNAPSHOT_FORMAT = "neuralstore-snapshot"
SNAPSHOT_VERSION = 2
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


def check_payload(payload: Payload) -> None:
    """Refuse a payload that no memory stores, which a snapshot refuses: a
    quality outside ``[0, 100]`` (a strength of 100 stores any quality in
    range, so a hit's reaction never has a quality to lower) or a blob
    longer than its original."""
    if not 0.0 <= payload.quality <= 100.0:
        raise ConfigurationError(
            f"payload quality {payload.quality!r} is outside [0, 100]")
    if len(payload.blob) > len(payload.original):
        raise ConfigurationError("payload blob is longer than its original")


def _fmt(x: float | int) -> str:
    """A snapshot number: an integral value as an integer, any other as the
    shortest text that reads back as the same float."""
    f = float(x)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


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
        # each row's data neuron id and locality id, and its feature as
        # given, which the scalar match recheck scores
        self.row_dn: list[int] = []
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
                        feature: np.ndarray, cue_id: int | None = None,
                        unit: np.ndarray | None = None) -> int:
        """A new data neuron in a new row at strength 100, joined at
        epsilon to its locality's default cue and to the label cue
        ``cue_id``, if one is given.

        ``unit``, the feature's :func:`unit_row` when the caller has it
        already, is taken as the row's unit feature.  Everything given is
        checked before anything changes: the payload as
        :func:`check_payload` checks it, and ``cue_id`` (KeyError naming it)
        as a cue with a label.  The ids this call makes are not checked
        again.
        """
        locality = self.locality(locality_id)
        check_payload(payload)
        feature = np.asarray(feature, dtype=float)
        if feature.shape != (self.params.feature_dim,):
            raise ConfigurationError(
                f"feature dimension {feature.shape} != ({self.params.feature_dim},)")
        if cue_id is not None and self.cues.get(cue_id) is None:
            raise KeyError(f"neuron {cue_id} is not a label cue")
        dn_id = self._take_id()
        row = len(self.row_of)
        if row == len(self.features):
            for name in ("features", "strength", "last_access", "quality",
                         "keep", "original_size"):
                setattr(self, name, _grown(getattr(self, name), row))
        self.features[row] = unit_row(feature) if unit is None else unit
        self.strength[row] = 100.0
        self.last_access[row] = self.op_counter
        self.row_of[dn_id] = row
        self.row_dn.append(dn_id)
        self.row_locality.append(locality.id)
        self.raw_features.append(feature)
        self.payloads.append(payload)
        self.keep[row] = 0
        self._hold(row, payload)
        locality.add(dn_id, row)
        if locality.default_cue_id is None:
            locality.default_cue_id = self._add_cue()
        # new neurons join their locality's default cue at the epsilon floor
        self._link(locality.default_cue_id, dn_id)
        if cue_id is not None:
            self._link(cue_id, dn_id)
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
                f"unknown locality {locality_id}")
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
        return self._payload_at(self._row(dn_id))

    def _payload_at(self, row: int) -> Payload:
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
            weight = self._link(cue_id, dn_id)
        return weight

    def _link(self, cue_id: int, dn_id: int) -> float:
        """A new association from a cue to a data neuron at epsilon, in
        the cue's order; the caller has checked both ids."""
        weight = self.weights[cue_id, dn_id] = self.params.epsilon
        self.edge_access[cue_id, dn_id] = self.op_counter
        insort(self.search_order[cue_id],
               tuple.__new__(SearchEntry, (-weight, dn_id, cue_id)))
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

    def reward(self, cue_id: int, dn_id: int,
               index: int | None = None) -> Payload:
        """A hit's reaction in one call: strengthen the association by eta,
        as ``adjust_association(cue_id, dn_id, -eta)`` does, restore the data
        neuron's strength to 100, mark its row accessed at the current op,
        and return its payload as :meth:`payload` reads it.

        ``index`` is the association's place in the cue's order, when the
        caller has just found it there; without it the place is found by
        ``bisect``.  A strength in ``[phi, 100]`` clamps to exactly 100, as
        ``adjust_strength(dn_id, -100.0)`` would, which lowers no stored
        quality, so the payload is rebuilt only if the row was lowered
        before.  KeyError as ``adjust_association`` raises it.
        """
        key = cue_id, dn_id
        old = self.weights.get(key)
        if old is None:
            self._edge(cue_id, dn_id)
            raise KeyError(f"no association from {cue_id} to {dn_id}")
        # clamp_weight(epsilon, old, -eta): old - -eta is old + eta exactly
        new = self.weights[key] = max(self.params.epsilon, old + self.params.eta)
        op = self.edge_access[key] = self.op_counter
        if new != old:
            self._move_entry(cue_id, dn_id, old, new, index)
        row = self.row_of[dn_id]
        self.strength[row] = 100.0
        self.last_access[row] = op
        return self._payload_at(row)

    def _move_entry(self, cue_id: int, dn_id: int, old: float,
                    new: float, i: int | None = None) -> None:
        """Move the association's entry, at index ``i`` of its cue's order
        (found by ``bisect`` when None), from weight ``old`` to ``new``."""
        order = self.search_order[cue_id]
        # SearchEntry(cue_id, dn_id, new), without its Python-level __new__
        entry = tuple.__new__(SearchEntry, (-new, dn_id, cue_id))
        if i is None:
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
        """:meth:`adjust_strengths` for one data neuron; return its new
        strength.  A NaN delta lowers it to phi, as ``max(phi, nan)`` does.
        Nothing in the package calls it; the bench's tracer patches it by
        name."""
        rows = np.array([self._row(dn_id)])
        if math.isnan(delta):
            delta = math.inf
        return self.adjust_strengths(rows, self.strength[rows], delta)[0].item()

    def adjust_strengths(self, rows: np.ndarray, strengths: np.ndarray,
                         delta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Clamped strength update of many rows at once, as retention ages a
        locality's idle rows; a lower stored quality follows from it.

        Each row's new strength is ``min(100, max(phi, strength - delta))``,
        and where it is below the stored quality it becomes the quality and
        the payload is truncated to ``ceil(original_size * quality / 100)``
        bytes, as the prefix codec compresses.  ``strengths`` are the rows'
        current strengths and ``delta`` one value or one per row.  Returns
        the new strengths, the positions in ``rows`` whose stored quality
        fell, and the bytes each of those freed.
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
        they have by then, by the clamp of :meth:`adjust_strengths` with
        the delta ``strength - floor``, in Python floats; a row whose
        stored quality falls is truncated as that method truncates it.
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
                # min(100, max(phi, s - (s - floor))), as adjust_strengths
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
        keeping the byte total current; refuse it as :func:`check_payload`
        does."""
        row = self._row(dn_id)
        check_payload(payload)
        self._hold(row, payload)

    def _hold(self, row: int, payload: Payload) -> None:
        """:meth:`set_payload` of a row, for a payload already checked."""
        self._bytes += len(payload.blob) - self.keep.item(row)
        self.payloads[row] = payload
        self.quality[row] = payload.quality
        self.keep[row] = len(payload.blob)
        self.original_size[row] = len(payload.original)

    # -- export -------------------------------------------------------------

    def export_graph(self, fmt: str = "snapshot") -> str:
        if fmt == "snapshot":
            return format_snapshot(self._snapshot_doc())
        if fmt == "dot":
            return render_dot(self._snapshot_doc())
        raise ValueError(f"unknown export format {fmt!r}; use 'snapshot' or 'dot'")

    def _snapshot_doc(self) -> SnapshotDoc:
        p = self.params
        neurons = []
        # every id is a cue's or a data neuron's
        for nid in range(self._next_neuron_id):
            if nid in self.cues:
                neurons.append({"kind": "cue", "label": self.cues[nid]})
                continue
            row = self.row_of[nid]
            neurons.append({"kind": "data", "locality": self.row_locality[row],
                            "strength": self.strength.item(row),
                            "quality": self.quality.item(row),
                            "size": self.keep.item(row),
                            "original": self.original_size.item(row),
                            "last_access": self.last_access.item(row)})
        return SnapshotDoc(
            params={"eta": p.eta, "epsilon": p.epsilon, "phi": p.phi,
                    "retention": p.retention_period},
            localities=[{"memory_decay": loc.memory_decay_rate,
                         "association_decay": loc.association_decay_rate,
                         "default_cue": loc.default_cue_id}
                        for loc in self.localities],
            neurons=neurons,
            edges={key: {"weight": weight, "last_access": self.edge_access[key]}
                   for key, weight in self.weights.items()},
            orders={cue_id: [(e.dn_id, e.avg_weight) for e in order]
                    for cue_id, order in self.search_order.items()})


# ---------------------------------------------------------------------------
# Snapshot parsing and rendering (for offline inspection)
# ---------------------------------------------------------------------------

@dataclass
class SnapshotDoc:
    """A memory's state as its snapshot holds it.

    ``params`` holds eta, epsilon, phi and retention.  ``localities`` holds
    each locality's ``memory_decay``, ``association_decay`` and
    ``default_cue`` (None before its first data neuron), at the index of its
    id.  ``neurons`` holds each neuron at the index of its id: its ``kind``,
    then a cue's ``label`` (None for a default cue) or a data neuron's
    ``locality``, ``strength``, ``quality``, ``size``, ``original`` and
    ``last_access``.  ``edges`` holds each association's ``weight`` and
    ``last_access``, keyed ``(cue_id, dn_id)``, and ``orders`` each cue's
    search order as ``(dn_id, weight)`` pairs.
    """
    params: dict
    localities: list[dict] = field(default_factory=list)
    neurons: list[dict] = field(default_factory=list)
    edges: dict[tuple[int, int], dict] = field(default_factory=dict)
    orders: dict[int, list[tuple[int, float]]] = field(default_factory=dict)


def _edge_lines(doc: SnapshotDoc) -> list[tuple[int, int, dict]]:
    """Each edge as ``(lower id, higher id, edge)``, in the order a snapshot
    writes them."""
    return sorted((min(key), max(key), edge) for key, edge in doc.edges.items())


def format_snapshot(doc: SnapshotDoc) -> str:
    """The snapshot text of ``doc``, the only text ``parse_snapshot``
    accepts."""
    p = doc.params
    lines = [f"{SNAPSHOT_FORMAT} {SNAPSHOT_VERSION}",
             f"params eta={_fmt(p['eta'])} epsilon={_fmt(p['epsilon'])} "
             f"phi={_fmt(p['phi'])} retention={p['retention']}"]
    for i, loc in enumerate(doc.localities):
        default = "-" if loc["default_cue"] is None else loc["default_cue"]
        lines.append(f"locality {i} memory_decay={_fmt(loc['memory_decay'])} "
                     f"association_decay={_fmt(loc['association_decay'])} "
                     f"default_cue={default}")
    for nid, n in enumerate(doc.neurons):
        if n["kind"] == "cue":
            label = n["label"]
            # "-" stands for no label, so the label "-" is escaped
            text = ("-" if label is None else "%2D" if label == "-" else
                    urllib.parse.quote(label))
            lines.append(f"cue {nid} label={text} default={int(label is None)}")
        else:
            lines.append(
                f"data {nid} locality={n['locality']} "
                f"strength={_fmt(n['strength'])} quality={_fmt(n['quality'])} "
                f"size={n['size']} original={n['original']} "
                f"last_access={n['last_access']}")
    for a, b, edge in _edge_lines(doc):
        lines.append(f"edge {a} {b} weight={_fmt(edge['weight'])} "
                     f"last_access={edge['last_access']}")
    for cue_id, entries in sorted(doc.orders.items()):
        lines.append(f"order {cue_id} "
                     + ",".join(f"{dn_id}:{_fmt(w)}" for dn_id, w in entries))
    return "\n".join(lines) + "\n"


# where each kind of line stands in a snapshot, after its header line
_PLACE = {"params": 0, "locality": 1, "cue": 2, "data": 2, "edge": 3, "order": 4}


def _number(text: str) -> float:
    """A finite float; ValueError for any other text."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _shown(line: str | None) -> str:
    return "the end of the document" if line is None else repr(line)


def parse_snapshot(text: str) -> SnapshotDoc:
    """Read a snapshot document: the data its lines hold, with each cue's
    default flag and search order derived from them, and the text compared
    line by line with what ``format_snapshot`` writes for that data.

    ``SnapshotFormatError`` names the first line that differs, or a line
    holding what no snapshot holds: a number that does not parse or is not
    finite, a data neuron in an undeclared locality, an edge that does not
    join one cue and one data neuron, a cue labelled ``-`` that no locality
    names its default cue or the reverse, and a locality whose default cue
    is not a declared cue.  It then names the line of the first data
    neuron that breaks an invariant the memory keeps: a strength outside
    ``[phi, 100]``, a quality outside ``[0, 100]``, a stored size above the
    original size, a locality without a default cue, or no edge from that
    default cue.
    """
    lines = text.splitlines(keepends=True) or [""]
    head = lines[0].split()
    if len(head) != 2 or head[0] != SNAPSHOT_FORMAT:
        raise SnapshotFormatError(f"not a snapshot document: {lines[0].strip()!r}")
    if head[1] != str(SNAPSHOT_VERSION):
        raise SnapshotFormatError(f"snapshot line 1: version {head[1]} "
                                  f"unsupported (expected {SNAPSHOT_VERSION})")
    doc = SnapshotDoc(params={})
    place = 0
    for number, line in enumerate(lines[1:], 2):
        kind, *words = line.split() or [""]
        # reading stops at a line out of its place, which the comparison names
        if _PLACE.get(kind, -1) < place or kind == "params" and doc.params:
            break
        place = _PLACE[kind]
        values = [word.partition("=")[2] for word in words if "=" in word]
        try:
            if kind == "params":
                eta, epsilon, phi, retention = values
                doc.params = {"eta": _number(eta), "epsilon": _number(epsilon),
                              "phi": _number(phi), "retention": int(retention)}
            elif kind == "locality":
                memory_decay, association_decay, default = values
                doc.localities.append({
                    "memory_decay": _number(memory_decay),
                    "association_decay": _number(association_decay),
                    "default_cue": None if default == "-" else int(default)})
            elif kind == "cue":
                label, _ = values
                label = None if label == "-" else urllib.parse.unquote(label)
                defaults = {loc["default_cue"] for loc in doc.localities}
                if (label is None) != (len(doc.neurons) in defaults):
                    raise SnapshotFormatError(
                        "a cue has the label - if and only if a locality names "
                        "it its default cue")
                doc.neurons.append({"kind": "cue", "label": label})
            elif kind == "data":
                locality, strength, quality, size, original, access = values
                if not 0 <= int(locality) < len(doc.localities):
                    raise SnapshotFormatError(f"locality {locality} is not declared")
                doc.neurons.append({
                    "kind": "data", "locality": int(locality),
                    "strength": _number(strength), "quality": _number(quality),
                    "size": int(size), "original": int(original),
                    "last_access": int(access)})
            elif kind == "edge":
                weight, access = values
                ends = {doc.neurons[i]["kind"]: i for i in map(int, words[:2])
                        if 0 <= i < len(doc.neurons)}
                if len(ends) != 2:
                    raise SnapshotFormatError(
                        f"edge {' '.join(words[:2])} does not join one cue "
                        f"and one data neuron")
                # a repeated edge is left out, so the comparison names it
                doc.edges.setdefault((ends["cue"], ends["data"]), {
                    "weight": _number(weight), "last_access": int(access)})
        except ValueError as exc:
            # a line with too few or too many fields, or a bad number
            reason = (exc if isinstance(exc, SnapshotFormatError) else
                      f"malformed {kind} line {line.strip()!r}")
            raise SnapshotFormatError(f"snapshot line {number}: {reason}") from None
    if not doc.params:
        raise SnapshotFormatError("snapshot line 2: no params line")
    doc.orders = {nid: [] for nid, n in enumerate(doc.neurons) if n["kind"] == "cue"}
    for (cue_id, dn_id), edge in sorted(
            doc.edges.items(), key=lambda item: (-item[1]["weight"], item[0][1])):
        doc.orders[cue_id].append((dn_id, edge["weight"]))
    written = format_snapshot(doc).splitlines(keepends=True)
    for number, (got, want) in enumerate(zip_longest(lines, written), 1):
        if got != want:
            raise SnapshotFormatError(f"snapshot line {number}: expected "
                                      f"{_shown(want)}, found {_shown(got)}")
    for number, loc in enumerate(doc.localities, 3):
        if loc["default_cue"] not in {None, *doc.orders}:
            raise SnapshotFormatError(f"snapshot line {number}: default cue "
                                      f"{loc['default_cue']} is not a declared cue")
    # the memory's invariants, which a text written again byte for byte can
    # still break, each refused at its data neuron's line
    phi = doc.params["phi"]
    for nid, n in enumerate(doc.neurons):
        if n["kind"] == "cue":
            continue
        cue = doc.localities[n["locality"]]["default_cue"]
        broken = [reason for fails, reason in [
            (not phi <= n["strength"] <= 100.0, "strength outside [phi, 100]"),
            (not 0.0 <= n["quality"] <= 100.0, "quality outside [0, 100]"),
            (n["size"] > n["original"], "size above the original size"),
            (cue is None, "its locality has no default cue"),
            ((cue, nid) not in doc.edges, "no edge from its default cue")] if fails]
        if broken:
            raise SnapshotFormatError(
                f"snapshot line {3 + len(doc.localities) + nid}: data neuron "
                f"{nid}: {broken[0]}")
    return doc


def _dot_string(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(doc: SnapshotDoc) -> str:
    """Graphviz rendering of a snapshot document: cues as ellipses (default
    cues doubled), data neurons as boxes, edges labelled with weights."""
    lines = ["graph memory {", "  node [fontsize=10];"]
    for nid, n in enumerate(doc.neurons):
        if n["kind"] == "cue":
            name, shape = (("default", "doublecircle") if n["label"] is None
                           else (n["label"], "ellipse"))
            lines.append(f'  n{nid} [label="{_dot_string(name)}\\n#{nid}" '
                         f'shape={shape}];')
        else:
            lines.append(f'  n{nid} [label="dn{nid}\\ns={_fmt(n["strength"])} '
                         f'q={_fmt(n["quality"])}" shape=box];')
    for a, b, edge in _edge_lines(doc):
        lines.append(f'  n{a} -- n{b} [label="{_fmt(edge["weight"])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_text(doc: SnapshotDoc) -> str:
    """The text ``neuralstore inspect`` prints for a snapshot document."""
    p = doc.params
    lines = [f"snapshot v{SNAPSHOT_VERSION}",
             f"params: eta={_fmt(p['eta'])} epsilon={_fmt(p['epsilon'])} "
             f"phi={_fmt(p['phi'])} retention={p['retention']}"]
    for i, loc in enumerate(doc.localities):
        default = "-" if loc["default_cue"] is None else loc["default_cue"]
        lines.append(f"  locality {i}: memory_decay={_fmt(loc['memory_decay'])} "
                     f"association_decay={_fmt(loc['association_decay'])} "
                     f"default_cue={default}")
    for nid, n in enumerate(doc.neurons):
        if n["kind"] == "cue":
            label = n["label"]
            lines.append(f"  cue #{nid} label=- default" if label is None
                         else f"  cue #{nid} label={label}")
        else:
            lines.append(f"  data #{nid} locality={n['locality']} "
                         f"strength={_fmt(n['strength'])} "
                         f"quality={_fmt(n['quality'])} size={n['size']}")
    for a, b, edge in _edge_lines(doc):
        lines.append(f"  edge {a} -- {b} weight={_fmt(edge['weight'])}")
    for cue_id, entries in sorted(doc.orders.items()):
        order = " > ".join(f"{dn_id}({w:g})" for dn_id, w in entries)
        lines.append(f"  order cue {cue_id}: {order}")
    return "\n".join(lines) + "\n"
