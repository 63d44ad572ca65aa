"""Memory operations: store, retrieve, retention, reaction, elasticity.

The engine drives a :class:`~neuralstore.core.Memory` through the learning
operations.  Store first tries to merge incoming data with a similar resident
data neuron; retrieve walks candidate data neurons drawn from the per-cue
search orders; both reward matches and (optionally) penalize mismatches
through the reaction step, which is where all association learning happens.
Retention ages whatever the access pattern has not touched lately, and
elasticity squeezes stored quality to make room when a byte capacity is set.

Search orders are maintained by the operations themselves.  Every edge whose
weight a reaction, a new data neuron or a retention pass changes is marked
under its cue, with the weight the cue's order still holds for it.  Once per
operation (when ``OpControls.update_order`` is set; otherwise the marks carry
over to the next operation that updates) and at the end of each retention
pass, each marked entry is moved: it is found by ``bisect`` at its old
``(-weight, dn_id)`` position and inserted again at its new one.  A cue
without an order yet, or whose order does not hold a marked entry where the
mark says, is re-sorted from the graph instead.  Nothing reads a search order
in the middle of an operation: the candidate list is fixed before the scan.
Code that edits associations directly with ``Memory.adjust_association``
must call :meth:`MemoryEngine.update_search_order` afterwards.

Matching scores each query once against the hive's feature matrix, whose
rows are the data neurons' features scaled to unit length: one
matrix-vector product gives the query's cosine with every neuron, and the
candidates are then walked in order, stopping at the first match.  A score
within ``NEAR_THRESHOLD`` of ``match_thresh`` (or NaN) is decided again by
the scalar :func:`~neuralstore.codec.cosine_similarity`, so a match decision
is always the one a candidate-by-candidate scan would make.  Reactions run
only where a weight can change: on the match, and on each examined non-match
when failure decay is enabled.

Operation cost is the number of candidate examinations (search-section
iterations); an engine-wide instrumented counter accumulates the same
quantity independently of the per-operation bookkeeping so the two can be
cross-checked.

Every operation advances a global operation counter; when the counter hits a
multiple of the hive's retention period the retention pass runs
automatically.  Manual retention with an explicit history window is also
supported and does not advance the counter.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from neuralstore.codec import Payload, cosine_similarity
from neuralstore.core import (
    ConfigurationError,
    DataNeuron,
    Hive,
    HiveParams,
    Locality,
    Memory,
    SearchEntry,
    non_finite,
    unit_row,
)


# unit-row scores closer than this to match_thresh are re-decided by the
# scalar cosine_similarity; the two differ only by rounding, far below it
NEAR_THRESHOLD = 1e-9


def _order_key(entry: SearchEntry) -> tuple[float, int]:
    return (-entry.avg_weight, entry.dn_id)


class StorageFullError(RuntimeError):
    """Capacity cannot be created even at maximum elasticity aggressiveness."""


class ElasticityExhausted(RuntimeError):
    """Requested elasticity iteration is beyond the configured schedule."""


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
        if non_finite(self.assoc_thresh):
            raise ConfigurationError("assoc_thresh must be finite")
        if not -1.0 <= self.match_thresh <= 1.0:
            raise ConfigurationError("match_thresh must be in [-1, 1]")


@dataclass
class OpControls:
    """Per-operation knobs: search budget, order updates, failure decay."""

    search_limit: int | None = None
    update_order: bool = True
    weaken_on_fail: bool = False

    def validate(self) -> None:
        if self.search_limit is not None and self.search_limit < 1:
            raise ConfigurationError("search_limit must be >= 1 or null")


@dataclass(frozen=True)
class OpOutcome:
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
    weakened_edges: list[tuple[int, int, float]] = field(default_factory=list)
    compressed: list[tuple[int, float]] = field(default_factory=list)
    bytes_freed: int = 0


class MemoryEngine:
    """Single-hive learning memory engine with cost accounting."""

    engine_id = "ns"

    def __init__(self, params: HiveParams | None = None, modality: str = "blob",
                 search: SearchParams | None = None,
                 controls: OpControls | None = None):
        self.params = params or HiveParams()
        self.memory = Memory(self.params, modality)
        self.hive = self.memory.hive
        self.search = search or SearchParams()
        self.controls = controls or OpControls()
        self.search.validate()
        self.controls.validate()
        self.total_search_iterations = 0
        # stale search-order entries: {cue_id: {dn_id: weight the cue's
        # order still holds for the edge, or None if the edge is new}}
        self._dirty: dict[int, dict[int, float | None]] = {}

    # -- helpers -------------------------------------------------------------

    def _resolve_cue(self, cue) -> int | None:
        if isinstance(cue, str):
            return self.hive.find_cue_by_label(cue)
        return self.hive.find_cue_by_vector(np.asarray(cue, dtype=float))

    def _find_or_create_cue(self, cue) -> int:
        if isinstance(cue, str):
            return self.memory.add_cue_neuron(label=cue)
        return self.memory.add_cue_neuron(cue_vector=np.asarray(cue, dtype=float))

    def _as_payload(self, data, item_id: str | None) -> Payload:
        modality = self.hive.modality
        if not isinstance(data, Payload):
            return Payload.from_bytes(bytes(data), modality=modality,
                                      lineage=item_id)
        if data.modality != modality:
            raise ConfigurationError(
                f"payload modality {data.modality!r} is not the hive's "
                f"{modality!r}")
        return data

    def _edge_decay_rate(self, a: int, b: int) -> float:
        """Association decay rate of an edge: the fastest rate among its
        data-neuron endpoints' localities (cue-cue edges do not age)."""
        rates = []
        for n in (a, b):
            neuron = self.memory.neurons[n]
            if isinstance(neuron, DataNeuron):
                locality = self.hive.locality(neuron.locality_id)
                rates.append(locality.association_decay_rate)
        return max(rates, default=0.0)

    # -- search order --------------------------------------------------------

    def update_search_order(self, *,
                            cue_ids: Iterable[int] | None = None) -> None:
        """Bring cues' ranked candidate lists up to date with current weights.

        Without ``cue_ids`` every cue is re-sorted from the graph.  With
        them, a cue whose order exists and whose changed edges are marked
        has just those entries moved; any other cue is re-sorted.  Either way
        the cues' marks are cleared.
        """
        hive = self.hive
        if cue_ids is None:
            cue_ids = hive.cue_bank
            hive.search_order = {}
        for cue_id in sorted(cue_ids):
            marks = self._dirty.pop(cue_id, None)
            order = hive.search_order.get(cue_id)
            if (marks is None or order is None
                    or not self._move_entries(cue_id, order, marks)):
                hive.search_order[cue_id] = self._sorted_order(cue_id)

    def _sorted_order(self, cue_id: int) -> list[SearchEntry]:
        graph = self.memory.graph
        data_rows = self.hive.feature_rows      # one row per data neuron
        if graph.full_graph:
            candidates = data_rows
        else:
            candidates = [n for n in graph.neighbors(cue_id) if n in data_rows]
        entries = [SearchEntry(cue_id, dn, graph.weight(cue_id, dn))
                   for dn in candidates]
        entries.sort(key=_order_key)
        return entries

    def _move_entries(self, cue_id: int, order: list[SearchEntry],
                      marks: dict[int, float | None]) -> bool:
        """Move each marked entry of a cue's order to its current weight.

        Returns False, leaving the order half moved, when a marked entry is
        not where its mark says; the caller then re-sorts the cue.
        """
        graph = self.memory.graph
        for dn_id, old in marks.items():
            new = graph.weight(cue_id, dn_id)
            if new == old:
                continue
            if old is not None:
                i = bisect_left(order, (-old, dn_id), key=_order_key)
                if (i == len(order) or order[i].dn_id != dn_id
                        or order[i].avg_weight != old):
                    return False
                del order[i]
            if new is not None:
                insort(order, SearchEntry(cue_id, dn_id, new), key=_order_key)
        return True

    def _flush_search_order(self) -> None:
        """Bring the orders of the cues with marked edges up to date."""
        if self._dirty:
            self.update_search_order(cue_ids=sorted(self._dirty))

    def _mark_edge(self, a: int, b: int, old: float | None) -> None:
        """Mark an edge whose weight changes from ``old`` (None: new edge)
        under each of its cue endpoints; the first mark since the cue's last
        update keeps the weight its order holds."""
        hive = self.hive
        for cue_id, other in ((a, b), (b, a)):
            if cue_id in hive.cue_bank:
                marks = self._dirty.setdefault(cue_id, {})
                # only data neurons appear in search orders
                if other in hive.feature_rows:
                    marks.setdefault(other, old)

    def get_search_order(self, cues, assoc_thresh: float | None = None,
                         search_limit: int | None = None) -> list[SearchEntry]:
        """Candidate list for a cue set.

        Per-cue maintained orders are concatenated in the order cues were
        supplied; cues absent from the cue bank fall back to every locality's
        default cue.  Candidates at average strength <= the association
        threshold are pruned, duplicates keep their first occurrence, and the
        list is truncated at the search limit.
        """
        hive = self.hive
        t1 = self.search.assoc_thresh if assoc_thresh is None else assoc_thresh
        out: list[SearchEntry] = []
        seen: set[int] = set()
        lists: list[list[SearchEntry]] = []
        for cue in cues:
            cue_id = self._resolve_cue(cue)
            if cue_id is not None:
                lists.append(hive.search_order.get(cue_id, []))
            else:
                lists.extend(hive.search_order.get(loc.default_cue_id, [])
                             for loc in hive.localities)
        for entries in lists:
            for entry in entries:
                if entry.avg_weight > t1 and entry.dn_id not in seen:
                    seen.add(entry.dn_id)
                    out.append(entry)
                    if search_limit is not None and len(out) >= search_limit:
                        return out
        return out

    # -- reaction ------------------------------------------------------------

    def reaction(self, target_dn: int, cue_id: int, flag: int, cues=(),
                 eta: float | None = None, up: bool | None = None,
                 k: bool | None = None) -> None:
        """Reward or penalize a candidate reached from ``cue_id`` after a
        search/merge attempt.

        ``flag=1`` strengthens the cue's edge to the target by eta, restores
        the target's strength to 100 and associates each cue with the target
        (creating cue neurons and epsilon-weight links as needed; links that
        already exist, other than the one just strengthened, are
        strengthened).  ``flag=0`` weakens the edge by eta when failure decay
        is enabled and otherwise leaves all weights untouched.  The edges
        whose weights changed are marked; with ``up`` the marked orders are
        updated before returning (``store`` and ``retrieve`` pass ``up=False``
        and update once per operation instead).
        """
        if not self.memory.graph.has_edge(cue_id, target_dn):
            raise RuntimeError(f"cue {cue_id} has no edge to {target_dn}")
        eta = self.params.eta if eta is None else eta
        up = self.controls.update_order if up is None else up
        k = self.controls.weaken_on_fail if k is None else k
        if flag:
            self._adjust_edge(cue_id, target_dn, -eta)
            self.memory.restore_strength(target_dn)
            self.memory.touch(target_dn)
            self._associate_cues(cues, target_dn, skip=cue_id)
        elif k:
            self._adjust_edge(cue_id, target_dn, eta)
        if up:
            self._flush_search_order()

    def _adjust_edge(self, a: int, b: int, delta: float) -> None:
        old = self.memory.graph.weight(a, b)
        if self.memory.adjust_association(a, b, delta) != old:
            self._mark_edge(a, b, old)

    def _associate_cues(self, cues, dn_id: int, skip: int | None) -> None:
        # associate if absent (at epsilon), strengthen if already associated;
        # the edge from cue ``skip`` was already strengthened by the caller.
        # Every cue is marked: a new cue has no order yet, and a new edge
        # joins its order.
        graph = self.memory.graph
        for cue in cues:
            cue_id = self._find_or_create_cue(cue)
            self._dirty.setdefault(cue_id, {})
            if not graph.has_edge(cue_id, dn_id):
                self.memory.associate(cue_id, dn_id)
                self._mark_edge(cue_id, dn_id, None)
            elif cue_id != skip:
                self._adjust_edge(cue_id, dn_id, -self.params.eta)

    # -- capacity ------------------------------------------------------------

    def elasticity(self, locality: Locality, iteration: int) -> int:
        """Cap strengths in a locality per the schedule; return bytes freed."""
        schedule = self.params.elasticity_schedules[locality.id]
        if iteration >= len(schedule):
            raise ElasticityExhausted(
                f"iteration {iteration} beyond schedule of {len(schedule)}")
        ceiling = schedule[iteration]
        return self._cap_locality(locality, ceiling)

    def _cap_locality(self, locality: Locality, ceiling: float) -> int:
        params = self.params
        scale = params.elasticity_mode == "scale"
        # no neuron at or below the floor can lose strength
        floor = params.phi if scale else max(params.phi, ceiling)
        neurons = self.memory.neurons
        freed = 0
        # dn_ids grows in increasing id order
        for dn_id in locality.dn_ids:
            dn = neurons[dn_id]
            if dn.strength <= floor:
                continue
            target = (max(params.phi, dn.strength * ceiling / 100.0) if scale
                      else floor)
            if target < dn.strength:
                before = dn.size_bytes
                self.memory.adjust_strength(dn_id, dn.strength - target)
                freed += before - dn.size_bytes
        return freed

    def ensure_capacity(self, bytes_needed: int) -> None:
        """Free space through escalating elasticity until the request fits.

        Localities are squeezed least-important first (descending memory
        decay rate, later localities first on ties).  With phi = 0 a terminal
        pass may erase remaining detail entirely; if the request still does
        not fit, storage is full.
        """
        params = self.params
        cap = params.capacity_bytes
        if cap is None:
            return

        def free() -> int:
            return cap - self.memory.total_bytes()

        if free() >= bytes_needed:
            return
        order = sorted(self.hive.localities,
                       key=lambda loc: (-loc.memory_decay_rate, -loc.id))
        max_iter = max(len(s) for s in params.elasticity_schedules)
        for iteration in range(max_iter):
            for locality in order:
                try:
                    self.elasticity(locality, iteration)
                except ElasticityExhausted:
                    continue
                if free() >= bytes_needed:
                    return
        if params.phi == 0.0:
            for locality in order:
                self._cap_locality(locality, 0.0)
                if free() >= bytes_needed:
                    return
        raise StorageFullError(
            f"hive {self.hive.id}: need {bytes_needed} bytes, "
            f"only {free()} free at maximum elasticity")

    # -- locality selection ----------------------------------------------------

    def select_locality(self, label: str | None,
                        feature: np.ndarray | None) -> Locality:
        """First locality whose predicate admits the data; last one catches all."""
        for locality in self.hive.localities:
            mapping = locality.mapping
            if label is not None and label in mapping.get("labels", ()):
                return locality
            centroid = mapping.get("centroid")
            if centroid is not None and feature is not None:
                min_sim = mapping.get("min_similarity", 0.95)
                if cosine_similarity(feature, np.asarray(centroid)) >= min_sim:
                    return locality
        return self.hive.localities[-1]

    # -- operations ------------------------------------------------------------

    def _first_match(self, candidates: list[SearchEntry],
                     queries: list[np.ndarray], thresh: float) -> int | None:
        """Index of the first candidate whose feature matches any query.

        Without queries the first candidate matches outright.  Each query,
        scaled to unit length, scores every row of the hive's unit feature
        matrix in one product; the candidates are then walked in order up to
        the first match.  Scores within ``NEAR_THRESHOLD`` of ``thresh``
        (and NaN) are decided by the scalar ``cosine_similarity``.
        """
        if not candidates or not queries:
            return 0 if candidates else None
        hive = self.hive
        features = hive.features[:len(hive.feature_rows)]
        scored = []
        for query in queries:
            if query.shape != features.shape[1:]:
                raise ValueError(f"dimension mismatch: {query.shape} vs "
                                 f"{features.shape[1:]}")
            scored.append((query, (features @ unit_row(query)).tolist()))
        rows = hive.feature_rows
        above, below = thresh + NEAR_THRESHOLD, thresh - NEAR_THRESHOLD
        for i, entry in enumerate(candidates):
            row = rows[entry.dn_id]
            for query, scores in scored:
                score = scores[row]
                if score > above:
                    return i
                if not score < below and cosine_similarity(
                        query, self.memory.neurons[entry.dn_id].feature
                ) >= thresh:
                    return i
        return None

    def _scan(self, candidates: list[SearchEntry], queries: list[np.ndarray],
              thresh: float, cues, controls: OpControls) -> tuple[SearchEntry | None, tuple[int, ...]]:
        """Examine candidates up to the first match; return it (or None) and
        the examined dn ids.  A failed examination changes a weight only
        under failure decay, so only then does it get its flag=0 reaction."""
        first = self._first_match(candidates, queries, thresh)
        cost = len(candidates) if first is None else first + 1
        self.total_search_iterations += cost
        if controls.weaken_on_fail:
            # the examined non-matches: all of them when nothing matched
            for entry in candidates[:first]:
                self.reaction(entry.dn_id, entry.cue_id, flag=0, cues=cues,
                              up=False, k=True)
        examined = tuple(e.dn_id for e in candidates[:cost])
        return (None if first is None else candidates[first]), examined

    def store(self, data, cues, search: SearchParams | None = None,
              controls: OpControls | None = None,
              item_id: str | None = None) -> OpOutcome:
        """Store data: merge into a similar resident neuron or create a new one."""
        if not cues:
            raise ConfigurationError("store requires at least one insertion cue")
        search = search or self.search
        controls = controls or self.controls
        payload = self._as_payload(data, item_id)
        hive = self.hive
        self.memory.op_counter += 1
        feature = hive.extractor.extract(payload.blob)
        self.ensure_capacity(payload.original_size)
        candidates = self.get_search_order(cues, search.assoc_thresh,
                                           controls.search_limit)
        match, examined = self._scan(candidates, [feature],
                                     search.match_thresh, cues, controls)
        if match is not None:
            dn = self.memory.data_neuron(match.dn_id)
            self.reaction(dn.id, match.cue_id, flag=1, cues=cues,
                          up=False, k=controls.weaken_on_fail)
            if payload.quality > dn.payload.quality:
                # merge refresh: fresher copy wins
                self.memory.set_payload(dn, payload)
            outcome = OpOutcome("merged", dn.id, len(examined), dn.payload,
                                dn.payload.quality, examined)
        else:
            label = next((c for c in cues if isinstance(c, str)), None)
            locality = self.select_locality(label, feature)
            dn_id = self.memory.add_data_neuron(locality.id, payload, feature)
            # the new neuron joins its locality's default cue, or every cue
            # through the implicit links of full-graph mode
            joined = (list(hive.cue_bank) if self.memory.graph.full_graph
                      else [locality.default_cue_id])
            for cue_id in joined:
                self._mark_edge(cue_id, dn_id, None)
            self._associate_cues(cues, dn_id, skip=None)
            outcome = OpOutcome("new_neuron", dn_id, len(examined), payload,
                                100.0, examined)
        if controls.update_order:
            self._flush_search_order()
        self._auto_retention(controls)
        return outcome

    def retrieve(self, cues, fine_cues=None, search: SearchParams | None = None,
                 controls: OpControls | None = None) -> OpOutcome:
        """Retrieve the first candidate matching any fine cue (or the first
        candidate outright when no fine cues are given)."""
        if not cues:
            raise ConfigurationError("retrieve requires at least one coarse cue")
        search = search or self.search
        controls = controls or self.controls
        self.memory.op_counter += 1
        candidates = self.get_search_order(cues, search.assoc_thresh,
                                           controls.search_limit)
        fine = [np.asarray(f, dtype=float) for f in (fine_cues or [])]
        match, examined = self._scan(candidates, fine,
                                     search.match_thresh, cues, controls)
        if match is not None:
            dn = self.memory.data_neuron(match.dn_id)
            quality = dn.payload.quality
            self.reaction(dn.id, match.cue_id, flag=1, cues=cues,
                          up=False, k=controls.weaken_on_fail)
            outcome = OpOutcome("hit", dn.id, len(examined), dn.payload,
                                quality, examined)
        else:
            outcome = OpOutcome("miss", None, len(examined), None, None,
                                examined)
        if controls.update_order:
            self._flush_search_order()
        self._auto_retention(controls)
        return outcome

    def update_cue(self, new_cue, target_fine_cue,
                   search: SearchParams | None = None,
                   controls: OpControls | None = None) -> OpOutcome:
        """Associate an additional cue with already-stored data by retrieving
        it under the new cue (unknown cues traverse the default cues)."""
        return self.retrieve([new_cue], [target_fine_cue], search, controls)

    def retention(self, n: int | None = None, k: bool | None = None) -> RetentionSummary:
        """Age idle associations and data neurons; manual invocation."""
        window = self.params.retention_period if n is None else n
        if window < 1:
            raise ConfigurationError("retention window must be >= 1")
        decay_edges = self.controls.weaken_on_fail if k is None else k
        return self._retention_pass(window, decay_edges)

    def _retention_pass(self, window: int, decay_edges: bool) -> RetentionSummary:
        summary = RetentionSummary()
        counter = self.memory.op_counter
        graph = self.memory.graph
        if decay_edges:
            for a, b, _ in graph.edges():
                last = graph.last_access(a, b)
                if counter - last < window:
                    continue
                rate = self._edge_decay_rate(a, b)
                if rate <= 0:
                    continue
                old = graph.weight(a, b)
                new = graph.adjust(a, b, rate, counter, touch=False)
                if new != old:
                    self._mark_edge(a, b, old)
                    summary.weakened_edges.append((a, b, new))
        for locality in self.hive.localities:
            rate = locality.memory_decay_rate
            for dn_id in locality.dn_ids:
                dn = self.memory.data_neuron(dn_id)
                if counter - dn.last_access_op < window or rate <= 0:
                    continue
                old_strength, old_size = dn.strength, dn.size_bytes
                new = self.memory.adjust_strength(dn_id, rate)
                if new != old_strength:
                    summary.compressed.append((dn_id, new))
                    summary.bytes_freed += old_size - dn.size_bytes
        self._flush_search_order()
        return summary

    def _auto_retention(self, controls: OpControls) -> None:
        n = self.params.retention_period
        if self.memory.op_counter % n == 0:
            self._retention_pass(n, controls.weaken_on_fail)

    # -- fixtures --------------------------------------------------------------

    def bootstrap_store(self, data, cues=(), locality_id: int | None = None,
                        item_id: str | None = None) -> int:
        """Seed a data neuron directly, outside the operation stream.

        Used to pre-populate scripted scenarios: the payload is stored at
        full quality, label cues are attached at epsilon weight, and neither
        the operation counter nor retention is touched.
        """
        payload = self._as_payload(data, item_id)
        feature = self.hive.extractor.extract(payload.blob)
        if locality_id is None:
            label = next((c for c in cues if isinstance(c, str)), None)
            locality_id = self.select_locality(label, feature).id
        dn_id = self.memory.add_data_neuron(locality_id, payload, feature)
        for cue in cues:
            cue_id = self._find_or_create_cue(cue)
            self.memory.associate(cue_id, dn_id)
        self.update_search_order()
        return dn_id


def oracle_search_order(memory: Memory, hive: Hive) -> dict[int, list[tuple[int, float]]]:
    """Brute-force recomputation of every cue's search order from raw edges.

    Independent of the maintained lists: reads only the edge set (or, in
    full-graph mode, the implicit complete graph) and re-sorts from scratch.
    Returns ``{cue_id: [(dn_id, avg_weight), ...]}``.
    """
    orders: dict[int, list[tuple[int, float]]] = {}
    for cue_id in hive.cue_bank:
        pairs: list[tuple[int, float]] = []
        if memory.graph.full_graph:
            pairs = [(dn.id, memory.graph.weight(cue_id, dn.id))
                     for dn in memory.data_neurons()]
        else:
            for a, b, w in memory.graph.edges():
                other = b if a == cue_id else a if b == cue_id else None
                if other is None:
                    continue
                if isinstance(memory.neurons[other], DataNeuron):
                    pairs.append((other, w))
        pairs.sort(key=lambda t: (-t[1], t[0]))
        orders[cue_id] = pairs
    return orders
