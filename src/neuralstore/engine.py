"""Memory operations: store, retrieve, retention, reaction, elasticity.

The engine drives a :class:`~neuralstore.core.Memory` through the learning
operations.  Store first tries to merge incoming data with a similar resident
data neuron; retrieve searches candidate data neurons drawn from the
per-cue search orders; both reward matches and (optionally) penalize
mismatches through the reaction step, which is where all association
learning happens.
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
rate.  An operation reads its candidates once.  For a known label they
are its cue's order up to the prefix end: the association threshold,
found by ``bisect``, and the search limit.  The scan searches that order
in place, moves nothing while it searches, and hands the match's index
there to the reward, which moves the entry without a second ``bisect``.
Two cases take a fresh list before the scan instead, and their reward
finds the entry by ``bisect``: an unknown label, whose list joins the same
prefixes of every locality's default cue's order, in locality order, cut
at the search limit (those orders share no data neuron, since a default
cue links only its own locality's), and failure decay, whose flag=0
reactions move entries during the scan.

Matching scores the query (a store's extracted feature, or a retrieve's
fine cue) once against the memory's feature matrix, whose rows are the data
neurons' features scaled to unit length: one matrix-vector product gives
the query's cosine with every neuron.  Only the near rows, those scoring
at or above ``match_thresh - NEAR_THRESHOLD`` (or NaN), can match, and the
match is found by place rather than by visiting each candidate: under a
known label each near row is placed in the cue's order by ``bisect`` at its
edge's ``(-weight, dn_id)`` key (``Memory.row_dn`` names a row's data
neuron), places at or past the prefix end are cut, and the rest are
decided in order, up to the first match.  An unknown label's joined list
is walked for its near rows instead.  A store with no near row misses at
once, and hands the unit row it scored with to its new data neuron.  A
score within ``NEAR_THRESHOLD`` of ``match_thresh`` (or NaN) is decided
again by the scalar :func:`~neuralstore.codec.cosine_similarity`, so a
match decision, and each call to that function, is the one a
candidate-by-candidate scan would make.  Retrieve fine cues recur, so the
engine keeps, for up to ``FINE_UNIT_MEMO_SIZE`` distinct cues keyed by the
cue's bytes, each cue's unit row, how many rows it has scored, and its near
rows' scores at the band floor it filtered at; rows never change once
added, so a later retrieve scores only the rows added since, and a changed
``match_thresh`` scores the cue afresh.  Those scores may differ from a
full product's in the last bits, which the ``NEAR_THRESHOLD`` re-check
absorbs, so decisions stay exact.  Reactions run
only where a weight can change: on the match, and on each examined non-match
when failure decay is enabled.  A hit's reaction is one ``Memory.reward``
call, which reads its association once and its data neuron's row once and
returns the payload the hit reports.  A new data neuron is one
``Memory.add_data_neuron`` call, which writes its row and links its
locality's default cue and its known label's cue.

Operation cost is the number of candidate examinations (search-section
iterations) of the paper's sequential search: the candidates up to and
including the match, or all of them on a miss, which is also what
``examined`` lists, although the engine finds the match by place and does
not visit them.  An engine-wide instrumented counter accumulates the same
quantity independently of the per-operation bookkeeping so the two can be
cross-checked.

Every operation advances a global operation counter; when the counter hits a
multiple of the memory's retention period the retention pass runs
automatically.  Manual retention with an explicit history window, an
integer of at least 1, is also supported and does not advance the counter.

Retention changes data neurons a locality at a time, as one array update
of the memory's columns (see :mod:`neuralstore.core`): a mask picks the rows
idle for at least the window, ``Memory.adjust_strengths`` clamps their
strengths, takes them as the rows' qualities where they fall below and
truncates the sizes that fall, all in the columns (a lowered row's
payload is rebuilt only when it is next read), and the retention summary
and the bytes freed are read off the changed rows in id order.

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
    check_payload,
    non_finite,
    unit_row,
)


# unit-row scores closer than this to match_thresh are re-decided by the
# scalar cosine_similarity; the two differ only by rounding, far below it
NEAR_THRESHOLD = 1e-9

# distinct retrieve fine cues whose unit rows and near rows' scores an
# engine keeps; past this many the memo starts over
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


def _prefix_end(order: list[SearchEntry], t1: float,
                limit: int | None) -> int:
    """How many of an order's entries have a weight above ``t1``, at most
    ``limit``: they are a prefix, as the order descends by weight, whose
    end ``bisect`` finds."""
    end = len(order)
    # -entry[0] is its avg_weight
    if end and not -order[-1][0] > t1:
        end = bisect_left(order, (-t1, -math.inf))
    return end if limit is None else min(end, limit)


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
        # retrieve fine cue bytes -> [the cue's unit_row, how many rows it
        # has scored, its near rows as (row, score), band floor]; see
        # _first_match
        self._fine_units: dict[bytes, list] = {}

    # -- helpers -------------------------------------------------------------

    def _as_payload(self, data, item_id: str | None, op: str) -> Payload:
        if isinstance(data, (bytes, bytearray, memoryview)):
            return Payload.from_bytes(bytes(data), lineage=item_id)
        if not isinstance(data, Payload):
            # bytes(5) would be five zero bytes
            raise ConfigurationError(
                f"{op} data must be bytes, bytearray, memoryview or a Payload, "
                f"got {reprlib.repr(data)}")
        # refused before the op changes anything, as Memory would refuse it
        check_payload(data)
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
        t1, limit = self.search.assoc_thresh, self.controls.search_limit
        cues = ([cue_id] if cue_id is not None else
                [loc.default_cue_id for loc in self.memory.localities])
        out: list[SearchEntry] = []
        for cue in cues:
            order = orders.get(cue, [])
            out += order[:_prefix_end(
                order, t1, None if limit is None else limit - len(out))]
        return out

    # -- reaction ------------------------------------------------------------

    def reaction(self, target_dn: int, cue_id: int, flag: int,
                 index: int | None = None) -> Payload | None:
        """Reward or penalize a candidate reached from ``cue_id`` after a
        search/merge attempt.

        ``flag=1`` is ``Memory.reward``: it strengthens the cue's edge to
        the target by the memory's eta, restores the target's strength to
        100 and returns the target's payload; ``index``, the edge's place
        in the cue's order when the scan searched that order in place,
        spares it a ``bisect``.  ``flag=0`` weakens the edge by eta when
        failure decay (``controls.weaken_on_fail``) is enabled and otherwise
        leaves all weights untouched; it returns None.
        """
        memory = self.memory
        try:
            if flag:
                return memory.reward(cue_id, target_dn, index)
            if self.controls.weaken_on_fail:
                memory.adjust_association(cue_id, target_dn, self.params.eta)
            elif (cue_id, target_dn) not in memory.weights:
                raise KeyError(target_dn)
        except KeyError:
            raise RuntimeError(
                f"cue {cue_id} has no edge to {target_dn}") from None
        return None

    def _link_new_cue(self, cue: str, dn_id: int) -> None:
        """Associate a label the bank did not know with a data neuron at
        epsilon, through a new cue neuron.  Neuron ids come from one
        counter, so the new cue is made after the op's data neuron and
        reaction."""
        self.memory.associate(self.memory.new_cue_neuron(cue), dn_id)

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

    def _first_match(self, candidates: list[SearchEntry], end: int,
                     query: np.ndarray | None,
                     unit: np.ndarray | None = None,
                     cue_id: int | None = None) -> int | None:
        """Index of the first of ``candidates[:end]`` whose feature matches
        ``query``, found by place rather than by visiting each candidate.

        Without a query the first candidate matches outright.  The query,
        scaled to unit length, scores every row of the memory's unit feature
        matrix in one product, and only the near rows, those scoring at or
        above ``match_thresh - NEAR_THRESHOLD`` (or NaN), can match.  Given
        the ``cue_id`` whose order (or a prefix of it) ``candidates`` is, a
        near row's place there is found by ``bisect`` at its edge's
        ``(-weight, dn_id)`` key; a row the cue has no edge to, or placed at
        or past ``end``, is dropped.  Without one (an unknown label's joined
        list) the candidates are walked for their near rows.  The places are
        then decided in order: a score above the band matches, and one
        within ``NEAR_THRESHOLD`` of ``match_thresh`` (or NaN) is decided by
        the scalar ``cosine_similarity``.  So the match, and the calls to
        ``cosine_similarity``, are those of a candidate-by-candidate walk.

        A store passes its query's ``unit`` row, which it hands on to a new
        data neuron, and its product is scored fresh and never kept; when no
        row is near, its miss is decided at once.

        A retrieve's fine cue (no ``unit``) recurs across operations, and a
        feature row never changes once ``Memory.add_data_neuron`` has
        written it, so each cue keeps, keyed by its bytes (a cue changed in
        place gets a new key), ``[unit row, rows scored, [(near row,
        score), ...], band floor]``.  Only the rows added since are scored,
        by a product over that slice; a cue is scored afresh when
        ``match_thresh``, and with it the band floor, has changed.  A sliced
        product may differ from the full one in the last bits, far below
        ``NEAR_THRESHOLD``, so every score that could fall on the other side
        of ``match_thresh`` is decided by the scalar function either way,
        and the decision, ``cost`` and ``examined`` are those of a fresh
        product.
        """
        if not end or query is None:
            return 0 if end else None
        memory = self.memory
        n = len(memory.row_dn)
        thresh = self.search.match_thresh
        above, below = thresh + NEAR_THRESHOLD, thresh - NEAR_THRESHOLD
        if unit is None:
            key = query.tobytes()
            kept = self._fine_units.get(key)
            if kept is None or kept[3] != below:
                if len(self._fine_units) >= FINE_UNIT_MEMO_SIZE:
                    self._fine_units.clear()
                kept = self._fine_units[key] = [unit_row(query), 0, [], below]
            unit, start, near, _ = kept
            kept[1] = n
        else:
            start, near = 0, []
        if start < n:
            scores = memory.features[start:n] @ unit
            found = (~(scores < below)).nonzero()[0]
            if len(found):
                rows = found.tolist()
                near += zip([start + row for row in rows] if start else rows,
                            scores[found].tolist())
        if not near:
            return None
        if cue_id is None:
            score_of, row_of = dict(near), memory.row_of
            places = [(i, score_of[row], row) for i in range(end)
                      if (row := row_of[candidates[i][1]]) in score_of]
        else:
            # each near row's place in the order, at its edge's key: a row
            # the cue has no edge to has none, and a place at end (where
            # bisect stops) lies past the prefix
            places, weight, row_dn = [], memory.weights.get, memory.row_dn
            for row, score in near:
                w = weight((cue_id, dn := row_dn[row]))
                if w is not None:
                    i = bisect_left(candidates, (-w, dn), 0, end)
                    if i < end:
                        places.append((i, score, row))
            places.sort()
        raw = memory.raw_features
        for i, score, row in places:
            if score > above or cosine_similarity(query, raw[row]) >= thresh:
                return i
        return None

    def _scan(self, cue_id: int | None, query: np.ndarray | None,
              unit: np.ndarray | None = None
              ) -> tuple[SearchEntry | None, int | None, tuple[int, ...]]:
        """Examine the op's candidates up to the first match; return it (or
        None), its index in its cue's order when the search was in place (or
        None), and the examined dn ids.

        ``cost`` and ``examined`` count the candidates the paper's
        sequential search examines: the prefix up to and including the
        match, or all of it on a miss, although :meth:`_first_match` finds
        the match by place without visiting them.  A known cue's order is
        searched in place up to its prefix end.  Two cases take a fresh
        list from :meth:`get_search_order` instead: an unknown label, whose
        list joins several orders, and failure decay, under which every
        examined non-match gets a flag=0 reaction that moves its entry
        before the match is rewarded.  Without failure decay a failed
        examination changes no weight and gets no reaction."""
        fresh = cue_id is None or self.controls.weaken_on_fail
        # a fresh list is its own prefix
        candidates = (self.get_search_order(cue_id) if fresh else
                      self.memory.search_order.get(cue_id, []))
        end = _prefix_end(candidates, self.search.assoc_thresh,
                          self.controls.search_limit)
        first = self._first_match(candidates, end, query, unit, cue_id)
        cost = end if first is None else first + 1
        self.total_search_iterations += cost
        examined = tuple(map(_DN_ID, candidates[:cost]))
        if self.controls.weaken_on_fail:
            # the examined non-matches: all of them when nothing matched
            for entry in candidates[:first]:
                self.reaction(entry.dn_id, entry.cue_id, flag=0)
        return (None if first is None else candidates[first],
                None if fresh else first, examined)

    def store(self, data, cue: str, item_id: str | None = None) -> OpOutcome:
        """Store data under one label: merge into a similar resident neuron
        or create a new one."""
        _check_cue(cue, "store")
        payload = self._as_payload(data, item_id, "store")
        self.memory.op_counter += 1
        feature = self.memory.extractor.extract(payload.blob)
        unit = unit_row(feature)
        self.ensure_capacity(payload.original_size)
        cue_id = self.memory.find_cue_by_label(cue)
        match, index, examined = self._scan(cue_id, feature, unit)
        if match is not None:
            kind, dn_id = "merged", match[1]
            stored = self.reaction(dn_id, match[2], flag=1, index=index)
            if payload.quality > stored.quality:
                # merge refresh: fresher copy wins
                self.memory.set_payload(dn_id, payload)
                stored = payload
        else:
            kind, stored = "new_neuron", payload
            # with its known label's edge, if any
            dn_id = self.memory.add_data_neuron(
                self.select_locality(cue).id, payload, feature, cue_id, unit)
        if cue_id is None:
            self._link_new_cue(cue, dn_id)
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
        match, index, examined = self._scan(cue_id, fine_cue)
        kind, dn_id, stored, quality = "miss", None, None, None
        if match is not None:
            # a reaction restores strength but never the stored quality
            kind, dn_id = "hit", match[1]
            stored = self.reaction(dn_id, match[2], flag=1, index=index)
            quality = stored.quality
            if cue_id is None:
                self._link_new_cue(cue, dn_id)
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
