"""Memory operations: store, retrieve, retention, reaction, elasticity.

The engine drives a :class:`~neuralstore.core.Memory` through the learning
operations.  Store first tries to merge incoming data with a similar resident
data neuron; retrieve walks candidate data neurons drawn from the per-cue
search orders; both reward matches and (optionally) penalize mismatches
through the reaction step, which is where all association learning happens.
Retention ages whatever the access pattern has not touched lately, and
elasticity squeezes stored quality to make room when a byte capacity is set.

Search orders are maintained by the operations themselves.  A reaction
marks the cues whose edges it changed, a new data neuron marks the cues
whose candidate lists it joins, and ``store``/``retrieve`` re-sort only those
cues, once at the end of the operation (when ``OpControls.update_order`` is
set; otherwise the marks carry over to the next operation that updates).
Nothing reads a search order in the middle of an operation: the candidate
list is fixed before the scan.  Code that edits associations directly with
``Memory.adjust_association`` must call :meth:`MemoryEngine.update_search_order`
afterwards.

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
)


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
        self.memory = Memory()
        self.params = params or HiveParams()
        self.hive = self.memory.add_hive(modality, self.params)
        self.search = search or SearchParams()
        self.controls = controls or OpControls()
        self.search.validate()
        self.controls.validate()
        self.total_search_iterations = 0
        # cues whose search order is stale: their edges changed since the
        # last re-sort
        self._dirty: set[int] = set()

    # -- helpers -------------------------------------------------------------

    def _resolve_cue(self, hive: Hive, cue) -> int | None:
        if isinstance(cue, str):
            return hive.find_cue_by_label(cue)
        return hive.find_cue_by_vector(np.asarray(cue, dtype=float))

    def _find_or_create_cue(self, hive: Hive, cue) -> int:
        if isinstance(cue, str):
            return self.memory.add_cue_neuron(hive, label=cue)
        return self.memory.add_cue_neuron(hive, cue_vector=np.asarray(cue, dtype=float))

    def _as_payload(self, data, item_id: str | None) -> Payload:
        if isinstance(data, Payload):
            return data
        return Payload.from_bytes(bytes(data), modality=self.hive.modality,
                                  lineage=item_id)

    @staticmethod
    def _edge_key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def _edge_decay_rate(self, a: int, b: int) -> float:
        """Association decay rate of an edge: the fastest rate among its
        data-neuron endpoints' localities (cue-cue edges do not age)."""
        rates = []
        for n in (a, b):
            neuron = self.memory.neurons[n]
            if isinstance(neuron, DataNeuron):
                owner = self.memory.hives[neuron.hive_id]
                rates.append(owner.locality(neuron.locality_id).association_decay_rate)
        return max(rates, default=0.0)

    def _edge_in_hive(self, hive: Hive, a: int, b: int) -> bool:
        return any(isinstance(self.memory.neurons[n], DataNeuron)
                   and self.memory.neurons[n].hive_id == hive.id
                   for n in (a, b))

    # -- search order --------------------------------------------------------

    def update_search_order(self, hive: Hive | None = None,
                            cue_ids: Iterable[int] | None = None) -> None:
        """Recompute cues' ranked candidate lists from current weights.

        Without ``cue_ids`` every cue of the hive is re-sorted; with them only
        those cues are.  Either way the re-sorted cues stop being dirty.
        """
        hive = hive or self.hive
        graph = self.memory.graph
        if cue_ids is None:
            cue_ids = hive.cue_bank
            hive.search_order = {}
        cue_ids = sorted(cue_ids)
        self._dirty.difference_update(cue_ids)
        if graph.full_graph:
            hive_dns = [dn.id for dn in self.memory.data_neurons()
                        if dn.hive_id == hive.id]
        for cue_id in cue_ids:
            if graph.full_graph:
                candidates = hive_dns
            else:
                candidates = [n for n in graph.neighbors(cue_id)
                              if isinstance(self.memory.neurons[n], DataNeuron)
                              and self.memory.neurons[n].hive_id == hive.id]
            entries = [SearchEntry(path=(cue_id, dn), dn_id=dn,
                                   avg_weight=graph.weight(cue_id, dn))
                       for dn in candidates]
            entries.sort(key=lambda e: (-e.avg_weight, e.dn_id))
            hive.search_order[cue_id] = entries

    def _flush_search_order(self, hive: Hive) -> None:
        """Re-sort the cues marked dirty since their last re-sort."""
        if self._dirty:
            self.update_search_order(hive, self._dirty)

    def get_search_order(self, cues, hive: Hive | None = None,
                         assoc_thresh: float | None = None,
                         search_limit: int | None = None) -> list[SearchEntry]:
        """Candidate list for a cue set.

        Per-cue maintained orders are concatenated in the order cues were
        supplied; cues absent from the cue bank fall back to every locality's
        default cue.  Candidates at average strength <= the association
        threshold are pruned, duplicates keep their first occurrence, and the
        list is truncated at the search limit.
        """
        hive = hive or self.hive
        t1 = self.search.assoc_thresh if assoc_thresh is None else assoc_thresh
        out: list[SearchEntry] = []
        seen: set[int] = set()
        lists: list[list[SearchEntry]] = []
        for cue in cues:
            cue_id = self._resolve_cue(hive, cue)
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

    def reaction(self, hive: Hive, target_dn: int, path: tuple[int, ...],
                 flag: int, cues=(), eta: float | None = None,
                 up: bool | None = None, k: bool | None = None) -> None:
        """Reward or penalize a candidate after a search/merge attempt.

        ``flag=1`` strengthens every association on the path by eta, restores
        the target's strength to 100 and associates each cue with the target
        (creating cue neurons and epsilon-weight links as needed; links that
        already exist and were not on the path are strengthened).  ``flag=0``
        weakens the path by eta when failure decay is enabled and otherwise
        leaves all weights untouched.  The cues whose edges changed are marked
        dirty; with ``up`` their orders are re-sorted before returning
        (``store`` and ``retrieve`` pass ``up=False`` and re-sort once per
        operation instead).
        """
        if path and path[-1] != target_dn:
            raise RuntimeError(f"path {path} does not terminate at {target_dn}")
        graph = self.memory.graph
        pairs = list(zip(path[:-1], path[1:]))
        for a, b in pairs:
            if not graph.has_edge(a, b):
                raise RuntimeError(f"dangling path edge ({a}, {b})")
        eta = hive.params.eta if eta is None else eta
        up = self.controls.update_order if up is None else up
        k = self.controls.weaken_on_fail if k is None else k
        if flag:
            for a, b in pairs:
                self._adjust_edge(hive, a, b, -eta)
            self.memory.restore_strength(target_dn)
            self.memory.touch(target_dn)
            path_keys = {self._edge_key(a, b) for a, b in pairs}
            self._associate_cues(hive, cues, target_dn, skip=path_keys)
        elif k:
            for a, b in pairs:
                self._adjust_edge(hive, a, b, eta)
        if up:
            self._flush_search_order(hive)

    def _adjust_edge(self, hive: Hive, a: int, b: int, delta: float) -> None:
        # a changed weight makes the orders of the edge's cue endpoints stale
        old = self.memory.graph.weight(a, b)
        if self.memory.adjust_association(a, b, delta) != old:
            self._dirty.update(n for n in (a, b) if n in hive.cue_bank)

    def _associate_cues(self, hive: Hive, cues, dn_id: int,
                        skip: set[tuple[int, int]]) -> None:
        # associate if absent (at epsilon), strengthen if already associated;
        # path edges were already strengthened by the caller.  Every cue is
        # marked: a new cue has no order yet, and a new edge joins its order.
        for cue in cues:
            cue_id = self._find_or_create_cue(hive, cue)
            self._dirty.add(cue_id)
            key = self._edge_key(cue_id, dn_id)
            if not self.memory.graph.has_edge(cue_id, dn_id):
                self.memory.associate(cue_id, dn_id)
            elif key not in skip:
                self.memory.adjust_association(cue_id, dn_id, -hive.params.eta)

    # -- capacity ------------------------------------------------------------

    def elasticity(self, hive: Hive, locality: Locality, iteration: int) -> int:
        """Cap strengths in a locality per the schedule; return bytes freed."""
        schedule = hive.params.elasticity_schedules[locality.id]
        if iteration >= len(schedule):
            raise ElasticityExhausted(
                f"iteration {iteration} beyond schedule of {len(schedule)}")
        ceiling = schedule[iteration]
        return self._cap_locality(hive, locality, ceiling)

    def _cap_locality(self, hive: Hive, locality: Locality, ceiling: float) -> int:
        freed = 0
        for dn_id in sorted(locality.dn_ids):
            dn = self.memory.data_neuron(dn_id)
            if hive.params.elasticity_mode == "scale":
                target = dn.strength * ceiling / 100.0
            else:
                target = min(dn.strength, ceiling)
            target = max(hive.params.phi, target)
            if target < dn.strength:
                before = dn.size_bytes
                self.memory.adjust_strength(dn_id, dn.strength - target)
                freed += before - dn.size_bytes
        return freed

    def ensure_capacity(self, hive: Hive, bytes_needed: int) -> None:
        """Free space through escalating elasticity until the request fits.

        Localities are squeezed least-important first (descending memory
        decay rate, later localities first on ties).  With phi = 0 a terminal
        pass may erase remaining detail entirely; if the request still does
        not fit, storage is full.
        """
        cap = hive.params.capacity_bytes
        if cap is None:
            return

        def free() -> int:
            return cap - self.memory.total_bytes(hive)

        if free() >= bytes_needed:
            return
        order = sorted(hive.localities,
                       key=lambda loc: (-loc.memory_decay_rate, -loc.id))
        max_iter = max(len(s) for s in hive.params.elasticity_schedules)
        for iteration in range(max_iter):
            for locality in order:
                try:
                    self.elasticity(hive, locality, iteration)
                except ElasticityExhausted:
                    continue
                if free() >= bytes_needed:
                    return
        if hive.params.phi == 0.0:
            for locality in order:
                self._cap_locality(hive, locality, 0.0)
                if free() >= bytes_needed:
                    return
        raise StorageFullError(
            f"hive {hive.id}: need {bytes_needed} bytes, "
            f"only {free()} free at maximum elasticity")

    # -- locality selection ----------------------------------------------------

    def select_locality(self, hive: Hive, label: str | None,
                        feature: np.ndarray | None) -> Locality:
        """First locality whose predicate admits the data; last one catches all."""
        for locality in hive.localities:
            mapping = locality.mapping
            if label is not None and label in mapping.get("labels", ()):
                return locality
            centroid = mapping.get("centroid")
            if centroid is not None and feature is not None:
                min_sim = mapping.get("min_similarity", 0.95)
                if cosine_similarity(feature, np.asarray(centroid)) >= min_sim:
                    return locality
        return hive.localities[-1]

    # -- operations ------------------------------------------------------------

    def store(self, data, cues, search: SearchParams | None = None,
              controls: OpControls | None = None,
              item_id: str | None = None) -> OpOutcome:
        """Store data: merge into a similar resident neuron or create a new one."""
        if not cues:
            raise ConfigurationError("store requires at least one insertion cue")
        search = search or self.search
        controls = controls or self.controls
        payload = self._as_payload(data, item_id)
        hive = self.memory.hive_for_modality(payload.modality)
        self.memory.op_counter += 1
        feature = hive.extractor.extract(payload.blob)
        self.ensure_capacity(hive, payload.original_size)
        candidates = self.get_search_order(cues, hive, search.assoc_thresh,
                                           controls.search_limit)
        cost = 0
        examined: list[int] = []
        outcome: OpOutcome | None = None
        for entry in candidates:
            dn = self.memory.data_neuron(entry.dn_id)
            cost += 1
            self.total_search_iterations += 1
            examined.append(dn.id)
            if cosine_similarity(feature, dn.feature) >= search.match_thresh:
                self.reaction(hive, dn.id, entry.path, flag=1, cues=cues,
                              up=False, k=controls.weaken_on_fail)
                if payload.quality > dn.payload.quality:
                    dn.payload = payload    # merge refresh: fresher copy wins
                outcome = OpOutcome("merged", dn.id, cost, dn.payload,
                                    dn.payload.quality, tuple(examined))
                break
            self.reaction(hive, dn.id, entry.path, flag=0, cues=cues,
                          up=False, k=controls.weaken_on_fail)
        if outcome is None:
            label = next((c for c in cues if isinstance(c, str)), None)
            locality = self.select_locality(hive, label, feature)
            dn_id = self.memory.add_data_neuron(hive, locality.id, payload, feature)
            # the new neuron joins its locality's default cue, or every cue
            # through the implicit links of full-graph mode
            if self.memory.graph.full_graph:
                self._dirty.update(hive.cue_bank)
            else:
                self._dirty.add(locality.default_cue_id)
            self._associate_cues(hive, cues, dn_id, skip=set())
            outcome = OpOutcome("new_neuron", dn_id, cost, payload, 100.0,
                                tuple(examined))
        if controls.update_order:
            self._flush_search_order(hive)
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
        hive = self.hive
        self.memory.op_counter += 1
        candidates = self.get_search_order(cues, hive, search.assoc_thresh,
                                           controls.search_limit)
        fine = [np.asarray(f, dtype=float) for f in (fine_cues or [])]
        cost = 0
        examined: list[int] = []
        outcome: OpOutcome | None = None
        for entry in candidates:
            dn = self.memory.data_neuron(entry.dn_id)
            cost += 1
            self.total_search_iterations += 1
            examined.append(dn.id)
            if not fine or any(cosine_similarity(f, dn.feature) >= search.match_thresh
                               for f in fine):
                quality = dn.payload.quality
                self.reaction(hive, dn.id, entry.path, flag=1, cues=cues,
                              up=False, k=controls.weaken_on_fail)
                outcome = OpOutcome("hit", dn.id, cost, dn.payload, quality,
                                    tuple(examined))
                break
            self.reaction(hive, dn.id, entry.path, flag=0, cues=cues,
                          up=False, k=controls.weaken_on_fail)
        if outcome is None:
            outcome = OpOutcome("miss", None, cost, None, None, tuple(examined))
        if controls.update_order:
            self._flush_search_order(hive)
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
        summary = RetentionSummary()
        for _, hive in sorted(self.memory.hives.items()):
            window = hive.params.retention_period if n is None else n
            if window < 1:
                raise ConfigurationError("retention window must be >= 1")
            decay_edges = self.controls.weaken_on_fail if k is None else k
            self._retention_pass(hive, window, decay_edges, summary)
        return summary

    def _retention_pass(self, hive: Hive, window: int, decay_edges: bool,
                        summary: RetentionSummary) -> None:
        counter = self.memory.op_counter
        graph = self.memory.graph
        if decay_edges:
            for a, b, _ in graph.edges():
                if not self._edge_in_hive(hive, a, b):
                    continue
                last = graph.last_access(a, b)
                if counter - last < window:
                    continue
                rate = self._edge_decay_rate(a, b)
                if rate <= 0:
                    continue
                old = graph.weight(a, b)
                new = graph.adjust(a, b, rate, counter, touch=False)
                if new != old:
                    summary.weakened_edges.append((a, b, new))
        for locality in hive.localities:
            rate = locality.memory_decay_rate
            for dn_id in sorted(locality.dn_ids):
                dn = self.memory.data_neuron(dn_id)
                if counter - dn.last_access_op < window or rate <= 0:
                    continue
                old_strength, old_size = dn.strength, dn.size_bytes
                new = self.memory.adjust_strength(dn_id, rate)
                if new != old_strength:
                    summary.compressed.append((dn_id, new))
                    summary.bytes_freed += old_size - dn.size_bytes
        self.update_search_order(hive)

    def _auto_retention(self, controls: OpControls) -> None:
        summary = RetentionSummary()
        for _, hive in sorted(self.memory.hives.items()):
            n = hive.params.retention_period
            if self.memory.op_counter % n == 0:
                self._retention_pass(hive, n, controls.weaken_on_fail, summary)

    # -- fixtures --------------------------------------------------------------

    def bootstrap_store(self, data, cues=(), locality_id: int | None = None,
                        item_id: str | None = None) -> int:
        """Seed a data neuron directly, outside the operation stream.

        Used to pre-populate scripted scenarios: the payload is stored at
        full quality, label cues are attached at epsilon weight, and neither
        the operation counter nor retention is touched.
        """
        payload = self._as_payload(data, item_id)
        hive = self.memory.hive_for_modality(payload.modality)
        feature = hive.extractor.extract(payload.blob)
        if locality_id is None:
            label = next((c for c in cues if isinstance(c, str)), None)
            locality_id = self.select_locality(hive, label, feature).id
        dn_id = self.memory.add_data_neuron(hive, locality_id, payload, feature)
        for cue in cues:
            cue_id = self._find_or_create_cue(hive, cue)
            self.memory.associate(cue_id, dn_id)
        self.update_search_order(hive)
        return dn_id

def oracle_search_order(memory: Memory, hive: Hive) -> dict[int, list[tuple[int, float]]]:
    """Brute-force recomputation of every cue's search order from raw edges.

    Independent of the maintained lists: reads only the edge set (or, in
    full-graph mode, the implicit complete graph) and re-sorts from scratch.
    Returns ``{cue_id: [(dn_id, avg_weight), ...]}``.
    """
    orders: dict[int, list[tuple[int, float]]] = {}
    hive_dns = [dn for dn in memory.data_neurons() if dn.hive_id == hive.id]
    for cue_id in hive.cue_bank:
        pairs: list[tuple[int, float]] = []
        if memory.graph.full_graph:
            pairs = [(dn.id, memory.graph.weight(cue_id, dn.id)) for dn in hive_dns]
        else:
            for a, b, w in memory.graph.edges():
                other = b if a == cue_id else a if b == cue_id else None
                if other is None:
                    continue
                neuron = memory.neurons[other]
                if isinstance(neuron, DataNeuron) and neuron.hive_id == hive.id:
                    pairs.append((other, w))
        pairs.sort(key=lambda t: (-t[1], t[0]))
        orders[cue_id] = pairs
    return orders
