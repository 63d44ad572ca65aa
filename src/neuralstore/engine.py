"""Memory operations: store, retrieve, retention, reaction, elasticity.

The engine drives a :class:`~neuralstore.core.Memory` through the learning
operations.  Store first tries to merge incoming data with a similar resident
data neuron; retrieve walks candidate data neurons drawn from the per-cue
search orders; both reward matches and (optionally) penalize mismatches
through the reaction step, which is where all association learning happens.
Retention ages whatever the access pattern has not touched lately, and
elasticity squeezes stored quality to make room when a byte capacity is set.

Coarse cues are labels, one per operation: ``store`` and ``retrieve`` take
one label string, and ``bootstrap_store`` one or none, and a cue that is
not a string is refused with ``ConfigurationError`` before anything
changes.  An operation looks its label up in the cue bank once and carries
the cue id (``None`` for a label the bank does not know) to its search
and its hit.  When the label was unknown, the operation's hit, merge or new
data neuron gets a new cue neuron for it, linked at epsilon; a known label
reuses its cue.  A datum still gains several cues, through separate
operations under different labels.  A new data neuron goes to the first
locality whose ``labels`` admit its label, or else to the last locality.  A
retrieve matches at most one fine cue, a vector of ``feature_dim`` values,
which never becomes a cue neuron; a fine cue of any other shape is refused
with ``ConfigurationError`` before the operation changes anything.

Every operation reads the engine's own ``search`` (association and match
thresholds) and ``controls`` (search limit and failure decay), which are
validated when the engine is built; no call overrides them.

Every association leads from a cue to a data neuron.  The engine changes
associations only through ``Memory.associate`` and
``Memory.adjust_association``, which keep every cue's search order current
(see :mod:`neuralstore.core`); under failure decay, a retention pass ages
each idle association at its data neuron's locality's association decay
rate.  An operation's candidate list is a fresh list taken before its
scan, so entries moved during the scan do not change it.  For a known
label the list is a slice of its cue's order, up to the association
threshold, found by ``bisect``, and the search limit; for an unknown label
it joins the same slices of every locality's default cue's order, in
locality order, cut at the search limit.  Those orders share no data
neuron, since a default cue links only its own locality's.

Matching scores the query (a store's extracted feature, or a retrieve's
fine cue) once against the memory's feature matrix, whose rows are the data
neurons' features scaled to unit length: one
matrix-vector product gives the query's cosine with every neuron, and the
candidates are then walked in order, stopping at the first match.  A score
within ``NEAR_THRESHOLD`` of ``match_thresh`` (or NaN) is decided again by
the scalar :func:`~neuralstore.codec.cosine_similarity`, so a match decision
is always the one a candidate-by-candidate scan would make.  Retrieve fine
cues recur, so the engine keeps, for up to ``FINE_UNIT_MEMO_SIZE`` distinct
cues keyed by the cue's bytes, each cue's unit row and its scores against
the feature rows, packed as float64; rows never change once added, so a
later retrieve scores only the rows added since.  Those scores may differ
from a full product's in the last bits, which the ``NEAR_THRESHOLD``
re-check absorbs, so decisions stay exact.  Reactions run
only where a weight can change: on the match, and on each examined non-match
when failure decay is enabled.  A hit's reaction is one ``Memory.reward``
call, which reads its association once and its data neuron's row once and
returns the payload the hit reports.

Operation cost is the number of candidate examinations (search-section
iterations); an engine-wide instrumented counter accumulates the same
quantity independently of the per-operation bookkeeping so the two can be
cross-checked.

Every operation advances a global operation counter; when the counter hits a
multiple of the memory's retention period the retention pass runs
automatically.  Manual retention with an explicit history window, an
integer of at least 1, is also supported and does not advance the counter.

Retention changes data neurons a locality at a time, as one array update
of the memory's columns (see :mod:`neuralstore.core`): a mask picks the rows
idle for at least the window, ``Memory.adjust_strengths`` clamps their
strengths with the same float64 operations ``Memory.adjust_strength`` uses
for one neuron, takes them as the rows' qualities and truncates the sizes
that fall, all in the columns (a lowered row's payload is rebuilt only
when it is next read), and the retention summary and the bytes freed are
read off the changed rows in id order.

Elasticity is one walk over ``(locality, ceiling)`` steps.  When a store
does not fit under the byte capacity, ``ensure_capacity`` calls
``elasticity`` with the shortfall, which is the escalation policy: it takes
the schedules iteration by iteration, least-important locality first, then
with phi = 0 a terminal pass at ceiling 0, and hands those steps to
``Memory.lower_to_floors``.  The walk lowers each step's strengths above
``max(phi, ceiling)`` and their stored quality with them (see
:mod:`neuralstore.core`), and stops after the first step by which the
bytes freed cover the shortfall; a request that still does not fit raises
``StorageFullError``.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import typing
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from neuralstore.codec import Payload, cosine_similarity
from neuralstore.core import (
    ConfigurationError,
    HiveParams,
    Locality,
    Memory,
    SearchEntry,
    check_fields,
    check_payload_size,
    non_finite,
    unit_row,
)


# unit-row scores closer than this to match_thresh are re-decided by the
# scalar cosine_similarity; the two differ only by rounding, far below it
NEAR_THRESHOLD = 1e-9

# distinct retrieve fine cues whose unit rows and scores an engine keeps;
# past this many the memo starts over
FINE_UNIT_MEMO_SIZE = 1024

_FLOAT64 = np.dtype(float)
# a search entry's dn id
_DN_ID = itemgetter(1)


def _check_cue(cue, op: str) -> None:
    """Refuse a coarse cue that is not one label string."""
    if not isinstance(cue, str):
        raise ConfigurationError(
            f"{op} cue must be a label string, got {reprlib.repr(cue)}")


def _check_fine_cue(fine_cue, dim: int) -> np.ndarray:
    """``fine_cue`` as a float vector; refuse anything that is not one
    vector of ``dim`` numbers.  A float64 ndarray of shape ``(dim,)``, which
    ``np.asarray`` would return as it is, is returned without the call."""
    query = fine_cue
    try:
        if type(query) is not np.ndarray or query.dtype is not _FLOAT64:
            query = np.asarray(fine_cue, dtype=float)
        if query.shape == (dim,):
            return query
    except (TypeError, ValueError):
        pass
    raise ConfigurationError(f"fine_cue must be one vector of {dim} numbers, "
                             f"got {reprlib.repr(fine_cue)}")


def _above(order: list[SearchEntry], t1: float,
           limit: int | None) -> list[SearchEntry]:
    """A fresh list of an order's entries whose weight is above ``t1``, at
    most ``limit`` of them: a prefix, as the order descends by weight,
    found by ``bisect``."""
    end = len(order)
    # -entry[0] is its avg_weight
    if end and not -order[-1][0] > t1:
        end = bisect_left(order, (-t1, -math.inf))
    return order[:end if limit is None else min(end, limit)]


class StorageFullError(RuntimeError):
    """Capacity cannot be created even at maximum elasticity aggressiveness."""


@dataclass
class SearchParams:
    """Thresholds for one search/merge attempt.

    ``assoc_thresh`` prunes candidates whose average association strength is
    not strictly greater; ``match_thresh`` is the feature-similarity level a
    candidate must reach to count as a match.
    """

    assoc_thresh: float = 0.0
    match_thresh: float = 0.95

    def validate(self) -> None:
        check_fields("search", self, SEARCH_PARAM_TYPES)
        if non_finite(self.assoc_thresh):
            raise ConfigurationError("search.assoc_thresh must be finite")
        if not -1.0 <= self.match_thresh <= 1.0:
            raise ConfigurationError("search.match_thresh must be in [-1, 1]")


@dataclass
class OpControls:
    """An engine's search budget and failure decay, read by every
    operation."""

    search_limit: int | None = None
    weaken_on_fail: bool = False

    def validate(self) -> None:
        check_fields("controls", self, OP_CONTROL_TYPES)
        if self.search_limit is not None and self.search_limit < 1:
            raise ConfigurationError("controls.search_limit must be >= 1 or null")


# the declared type of every SearchParams and OpControls field
SEARCH_PARAM_TYPES = typing.get_type_hints(SearchParams)
OP_CONTROL_TYPES = typing.get_type_hints(OpControls)


class OpOutcome(typing.NamedTuple):
    kind: str                       # merged | new_neuron | hit | miss
    dn_id: int | None
    cost: int
    payload: Payload | None = None
    quality: float | None = None    # stored quality of the returned payload
    examined: tuple[int, ...] = ()

    @property
    def hit(self) -> bool:
        return self.kind in ("merged", "hit")


@dataclass
class RetentionSummary:
    # (cue_id, dn_id, new weight) of each association the pass weakened
    weakened_edges: list[tuple[int, int, float]] = field(default_factory=list)
    compressed: list[tuple[int, float]] = field(default_factory=list)
    bytes_freed: int = 0


class MemoryEngine:
    """Learning memory engine with cost accounting."""

    def __init__(self, params: HiveParams | None = None,
                 search: SearchParams | None = None,
                 controls: OpControls | None = None):
        self.params = params or HiveParams()
        self.memory = Memory(self.params)
        # only for bench/harness.py, which reads eng.hive.search_order and
        # passes eng.hive to oracle_search_order; goes with ROADMAP item 1
        self.hive = self.memory
        self.search = search or SearchParams()
        self.controls = controls or OpControls()
        self.search.validate()
        self.controls.validate()
        self.total_search_iterations = 0
        # retrieve fine cue bytes -> (the cue's unit_row, its scores against
        # the memory's first len(scores) feature rows); see _first_match
        self._fine_units: dict[bytes, tuple[np.ndarray, array]] = {}

    # -- helpers -------------------------------------------------------------

    def _as_payload(self, data, item_id: str | None, op: str) -> Payload:
        if isinstance(data, (bytes, bytearray, memoryview)):
            return Payload.from_bytes(bytes(data), lineage=item_id)
        if not isinstance(data, Payload):
            # bytes(5) would be five zero bytes
            raise ConfigurationError(
                f"{op} data must be bytes, bytearray, memoryview or a Payload, "
                f"got {reprlib.repr(data)}")
        # a strength of 100 stores any quality in range, so a reaction
        # (Memory.reward) never has a quality to lower
        if not 0.0 <= data.quality <= 100.0:
            raise ConfigurationError(
                f"payload quality {data.quality!r} is outside [0, 100]")
        # refused before the op changes anything, as Memory would refuse it
        check_payload_size(data)
        return data

    # -- search order --------------------------------------------------------

    def update_search_order(self) -> None:
        """Rebuild every cue's order from :func:`oracle_search_order`.

        ``Memory`` keeps the orders current as associations change, so this
        reference rebuild finds them as they are.
        """
        self.memory.search_order = {
            cue_id: [SearchEntry(cue_id, dn_id, w) for dn_id, w in pairs]
            for cue_id, pairs in oracle_search_order(self.memory).items()}

    def get_search_order(self, cue_id: int | None) -> list[SearchEntry]:
        """Candidate list for a cue, as a fresh list.

        A known cue walks its maintained order; an unknown label (``None``)
        walks every locality's default cue's order, in locality order.  Each
        order is sorted by descending weight, so its entries above the
        association threshold are a prefix, found by ``bisect`` and cut at
        what remains of the search limit, so no more than the limit is ever
        copied; the prefixes are joined.  The orders share no data neuron:
        a default cue links only its own locality's.
        """
        orders = self.memory.search_order
        t1 = self.search.assoc_thresh
        limit = self.controls.search_limit
        if cue_id is not None:
            return _above(orders.get(cue_id, []), t1, limit)
        out: list[SearchEntry] = []
        for loc in self.memory.localities:
            out += _above(orders.get(loc.default_cue_id, []), t1,
                          None if limit is None else limit - len(out))
        return out

    # -- reaction ------------------------------------------------------------

    def reaction(self, target_dn: int, cue_id: int,
                 flag: int) -> Payload | None:
        """Reward or penalize a candidate reached from ``cue_id`` after a
        search/merge attempt.

        ``flag=1`` is ``Memory.reward``: it strengthens the cue's edge to
        the target by the memory's eta, restores the target's strength to
        100 and returns the target's payload.  ``flag=0`` weakens the edge
        by eta when failure decay (``controls.weaken_on_fail``) is enabled
        and otherwise leaves all weights untouched; it returns None.
        """
        memory = self.memory
        try:
            if flag:
                return memory.reward(cue_id, target_dn)
            if self.controls.weaken_on_fail:
                memory.adjust_association(cue_id, target_dn, self.params.eta)
            elif (cue_id, target_dn) not in memory.weights:
                raise KeyError(target_dn)
        except KeyError:
            raise RuntimeError(
                f"cue {cue_id} has no edge to {target_dn}") from None
        return None

    def _link_cue(self, cue: str, cue_id: int | None, dn_id: int) -> None:
        """Associate the op's label with a data neuron at epsilon, through
        a new cue neuron when the bank did not know the label (``cue_id``
        None).  Neuron ids come from one counter, so the new cue is made
        after the op's data neuron and reaction."""
        if cue_id is None:
            cue_id = self.memory.new_cue_neuron(cue)
        self.memory.associate(cue_id, dn_id)

    # -- capacity ------------------------------------------------------------

    def _squeeze_steps(self) -> typing.Iterator[tuple[Locality, float]]:
        """The ``(locality, ceiling)`` steps of escalating elasticity.

        Iteration by iteration, localities are squeezed least-important
        first (descending memory decay rate, later localities first on
        ties), each while its schedule lasts; with phi = 0 a terminal pass
        at ceiling 0 follows.
        """
        order = sorted(self.memory.localities,
                       key=lambda loc: (-loc.memory_decay_rate, -loc.id))
        schedules = self.params.elasticity_schedules
        for iteration in range(max(map(len, schedules))):
            for locality in order:
                schedule = schedules[locality.id]
                if iteration < len(schedule):
                    yield locality, schedule[iteration]
        if self.params.phi == 0.0:
            for locality in order:
                yield locality, 0.0

    def elasticity(self, shortfall: float) -> int:
        """Lower stored quality along the steps of :meth:`_squeeze_steps`, in
        one ``Memory.lower_to_floors`` walk, up to the first step by which
        the bytes freed reach ``shortfall``; return the bytes freed."""
        return self.memory.lower_to_floors(self._squeeze_steps(), shortfall)

    def ensure_capacity(self, bytes_needed: int) -> None:
        """Free space through :meth:`elasticity` until the request fits; if
        it does not fit after the last step, storage is full."""
        cap = self.params.capacity_bytes
        if cap is None:
            return
        shortfall = bytes_needed - (cap - self.memory.total_bytes())
        if shortfall <= 0:
            return
        if self.elasticity(shortfall) < shortfall:
            raise StorageFullError(
                f"need {bytes_needed} bytes, only "
                f"{cap - self.memory.total_bytes()} free at maximum elasticity")

    # -- locality selection ----------------------------------------------------

    def select_locality(self, label: str | None) -> Locality:
        """First locality whose ``labels`` admit ``label``; the last one
        catches all."""
        localities = self.memory.localities
        for locality in localities:
            if label in locality.mapping.get("labels", ()):
                return locality
        return localities[-1]

    # -- operations ------------------------------------------------------------

    def _first_match(self, candidates: list[SearchEntry],
                     query: np.ndarray | None, memo: bool) -> int | None:
        """Index of the first candidate whose feature matches ``query``.

        Without a query the first candidate matches outright.  The query,
        scaled to unit length, scores every row of the memory's unit feature
        matrix in one product; the candidates are then walked in order up to
        the first match.  Scores within ``NEAR_THRESHOLD`` of
        ``match_thresh`` (and NaN) are decided by the scalar
        ``cosine_similarity``.

        A retrieve's fine cue (``memo``) recurs across operations, and a
        feature row never changes once ``Memory.add_data_neuron`` has
        written it, so each cue keeps, keyed by its bytes (a cue changed in
        place gets a new key), its unit row and its scores against the rows
        that existed at its last use, packed as float64.  Only the rows
        added since are scored, by a product over that slice.  A sliced
        product may differ from the full one in the last bits, far below
        ``NEAR_THRESHOLD``, so every score that could fall on the other side
        of ``match_thresh`` is decided by the scalar function either way,
        and the decision, ``cost`` and ``examined`` are those of a fresh
        product.  A store's query is its blob's feature, scored fresh and
        never kept.
        """
        if not candidates or query is None:
            return 0 if candidates else None
        memory = self.memory
        rows = memory.row_of
        n = len(rows)
        if memo:
            key = query.tobytes()
            kept = self._fine_units.get(key)
            if kept is None:
                if len(self._fine_units) >= FINE_UNIT_MEMO_SIZE:
                    self._fine_units.clear()
                kept = self._fine_units[key] = (unit_row(query), array("d"))
            unit, scores = kept
            if len(scores) < n:
                scores.frombytes(
                    (memory.features[len(scores):n] @ unit).tobytes())
        else:
            scores = (memory.features[:n] @ unit_row(query)).tolist()
        thresh = self.search.match_thresh
        above, below = thresh + NEAR_THRESHOLD, thresh - NEAR_THRESHOLD
        for i, entry in enumerate(candidates):
            dn_id = entry[1]
            score = scores[rows[dn_id]]
            if score > above:
                return i
            if not score < below and cosine_similarity(
                    query, memory.raw_features[rows[dn_id]]) >= thresh:
                return i
        return None

    def _scan(self, candidates: list[SearchEntry], query: np.ndarray | None,
              memo: bool = False) -> tuple[SearchEntry | None, tuple[int, ...]]:
        """Examine candidates up to the first match; return it (or None) and
        the examined dn ids.  A failed examination changes a weight only
        under failure decay, so only then does it get its flag=0 reaction."""
        first = self._first_match(candidates, query, memo)
        cost = len(candidates) if first is None else first + 1
        self.total_search_iterations += cost
        if self.controls.weaken_on_fail:
            # the examined non-matches: all of them when nothing matched
            for entry in candidates[:first]:
                self.reaction(entry.dn_id, entry.cue_id, flag=0)
        examined = tuple(map(_DN_ID, candidates[:cost]))
        return (None if first is None else candidates[first]), examined

    def store(self, data, cue: str, item_id: str | None = None) -> OpOutcome:
        """Store data under one label: merge into a similar resident neuron
        or create a new one."""
        _check_cue(cue, "store")
        payload = self._as_payload(data, item_id, "store")
        self.memory.op_counter += 1
        feature = self.memory.extractor.extract(payload.blob)
        self.ensure_capacity(payload.original_size)
        cue_id = self.memory.find_cue_by_label(cue)
        match, examined = self._scan(self.get_search_order(cue_id), feature)
        if match is not None:
            kind, dn_id = "merged", match[1]
            stored = self.reaction(dn_id, match[2], flag=1)
            if cue_id is None:
                self._link_cue(cue, None, dn_id)
            if payload.quality > stored.quality:
                # merge refresh: fresher copy wins
                self.memory.set_payload(dn_id, payload)
                stored = payload
        else:
            kind, stored = "new_neuron", payload
            locality = self.select_locality(cue)
            dn_id = self.memory.add_data_neuron(locality.id, payload, feature)
            self._link_cue(cue, cue_id, dn_id)
        self._auto_retention()
        # a payload never changes, so retention leaves its quality as it was
        return OpOutcome(kind, dn_id, len(examined), stored, stored.quality,
                         examined)

    def retrieve(self, cue: str, fine_cue=None) -> OpOutcome:
        """Retrieve, under one label, the first candidate matching the fine
        cue (or the first candidate outright when no fine cue is given).  A
        fine cue is one vector of ``feature_dim`` values."""
        _check_cue(cue, "retrieve")
        if fine_cue is not None:
            fine_cue = _check_fine_cue(fine_cue, self.params.feature_dim)
        self.memory.op_counter += 1
        cue_id = self.memory.find_cue_by_label(cue)
        match, examined = self._scan(self.get_search_order(cue_id), fine_cue,
                                     memo=True)
        kind, dn_id, stored, quality = "miss", None, None, None
        if match is not None:
            # a reaction restores strength but never the stored quality
            kind, dn_id = "hit", match[1]
            stored = self.reaction(dn_id, match[2], flag=1)
            quality = stored.quality
            if cue_id is None:
                self._link_cue(cue, None, dn_id)
        self._auto_retention()
        return OpOutcome(kind, dn_id, len(examined), stored, quality,
                         examined)

    def retention(self, n: int | None = None) -> RetentionSummary:
        """Age idle neurons, and idle associations under failure decay;
        manual invocation."""
        window = self.params.retention_period if n is None else n
        # NaN passes every comparison, so a float is refused outright
        if (isinstance(window, bool)
                or not isinstance(window, numbers.Integral) or window < 1):
            raise ConfigurationError(
                f"retention window must be an integer >= 1, got {window!r}")
        return self._retention_pass(window)

    def _retention_pass(self, window: int) -> RetentionSummary:
        summary = RetentionSummary()
        memory = self.memory
        counter = memory.op_counter
        if self.controls.weaken_on_fail:
            # an association ages at its data neuron's locality's rate
            localities, row_of = memory.localities, memory.row_of
            row_locality = memory.row_locality
            for (cue_id, dn_id), old in sorted(memory.weights.items()):
                if counter - memory.edge_access[cue_id, dn_id] < window:
                    continue
                rate = localities[
                    row_locality[row_of[dn_id]]].association_decay_rate
                if rate <= 0:
                    continue
                new = memory.adjust_association(cue_id, dn_id, rate,
                                                touch=False)
                if new != old:
                    summary.weakened_edges.append((cue_id, dn_id, new))
        for locality in memory.localities:
            rate = locality.memory_decay_rate
            if rate <= 0:
                continue
            rows = locality.rows
            # positions in the locality of its neurons idle for the window
            idle = np.flatnonzero(counter - memory.last_access[rows] >= window)
            if not idle.size:
                continue
            rows = rows[idle]
            old = memory.strength[rows]
            new, lower, freed = memory.adjust_strengths(rows, old, rate)
            # a neuron counts as compressed when its strength moved, and only
            # then are its bytes counted as freed
            changed = new != old
            dn_ids = locality.dn_ids
            summary.compressed.extend(zip(
                [dn_ids[i] for i in idle[changed].tolist()],
                new[changed].tolist()))
            summary.bytes_freed += sum(freed[changed[lower]].tolist())
        return summary

    def _auto_retention(self) -> None:
        n = self.params.retention_period
        if self.memory.op_counter % n == 0:
            self._retention_pass(n)

    # -- fixtures --------------------------------------------------------------

    def bootstrap_store(self, data, cue: str | None = None,
                        locality_id: int | None = None,
                        item_id: str | None = None) -> int:
        """Seed a data neuron directly, outside the operation stream.

        Used to pre-populate scripted scenarios: the payload is stored at
        full quality, the label cue (if any) is attached at epsilon weight,
        and neither the operation counter nor retention is touched.
        """
        if cue is not None:
            _check_cue(cue, "bootstrap_store")
        payload = self._as_payload(data, item_id, "bootstrap_store")
        feature = self.memory.extractor.extract(payload.blob)
        if locality_id is None:
            locality_id = self.select_locality(cue).id
        dn_id = self.memory.add_data_neuron(locality_id, payload, feature)
        if cue is not None:
            self.memory.associate(self.memory.add_cue_neuron(cue), dn_id)
        return dn_id


def oracle_search_order(memory: Memory,
                        hive=None) -> dict[int, list[tuple[int, float]]]:
    """Recomputation of every cue's search order from the association weights.

    Independent of the maintained lists: reads only ``memory``'s cue
    neurons and weights, and sorts from scratch.  ``hive`` is not read; it
    is there for ``bench/harness.py``, which passes one.  Returns
    ``{cue_id: [(dn_id, avg_weight), ...]}``.
    """
    orders: dict[int, list[tuple[int, float]]] = {
        cue_id: [] for cue_id in memory.cues}
    for (cue_id, dn_id), w in memory.weights.items():
        orders[cue_id].append((dn_id, w))
    for pairs in orders.values():
        pairs.sort(key=lambda t: (-t[1], t[0]))
    return orders
