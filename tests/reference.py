"""A plain-Python model of the learning memory: the oracle of every
differential test.

The model implements the paper's store, retrieve, reaction, retention and
elasticity from their rules alone, the simplest way each can be written:

* neurons, weights and access times are dicts keyed by neuron id and by
  ``(cue_id, dn_id)``; a cue's search order is its associations sorted
  whole by descending weight and then data neuron id, sorted again from
  the weights at its first read after any of them changed;
* a search walks the candidates one by one and scores each with the scalar
  ``cosine_similarity``;
* every strength and weight update goes through the model's own clamps,
  and a payload whose quality falls is cut to a prefix of
  ``ceil(original size * quality / 100)`` bytes at once;
* elasticity lowers one ``(locality, ceiling)`` step at a time, neuron by
  neuron, and reads the free bytes after each step;
* fidelity is one byte-by-byte PSNR over the codec's reconstruction.

It shares with the package only the parameter classes, the payload type,
the feature extractor and its seed, the scalar cosine and the codec's
reconstruction.  An operation returns a plain tuple in the engine's
``OpOutcome`` field order, and a retention pass the tuple
``(weakened_edges, compressed, bytes_freed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from neuralstore.codec import (
    HistogramExtractor,
    Payload,
    TruncationCodec,
    cosine_similarity,
)
from neuralstore.core import EXTRACTOR_SEED, HiveParams
from neuralstore.engine import OpControls, SearchParams


class StoreFull(Exception):
    """A store that does not fit at maximum elasticity."""


@dataclass
class Neuron:
    locality: int
    feature: np.ndarray
    # as stored: a prefix of the given blob at the stored quality
    payload: Payload
    strength: float
    last_access: int


def psnr(payload: Payload) -> float:
    """PSNR (dB) of a payload against its original, byte by byte over the
    codec's reconstruction."""
    rebuilt = TruncationCodec().reconstruct(payload)
    original = payload.original
    if len(rebuilt) != len(original):
        raise ValueError("the reconstruction is not as long as the original")
    squared = sum((a - b) ** 2 for a, b in zip(original, rebuilt))
    if squared == 0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / (squared / len(original)))


class Model:
    """The memory and its engine in one object, with the engine's public
    operations and the memory's public edits."""

    def __init__(self, params: HiveParams, search: SearchParams | None = None,
                 controls: OpControls | None = None):
        self.params = params
        self.search = search or SearchParams()
        self.controls = controls or OpControls()
        self.extractor = HistogramExtractor(dim=params.feature_dim,
                                            seed=EXTRACTOR_SEED)
        self.cues: dict[int, str | None] = {}      # None: a default cue
        self.defaults: list[int | None] = [None] * len(
            params.locality_mapping)
        self.neurons: dict[int, Neuron] = {}
        self.weights: dict[tuple[int, int], float] = {}
        self.edge_access: dict[tuple[int, int], int] = {}
        self.linked: dict[int, list[int]] = {}      # each cue's data neurons
        self._orders: dict[int, list[int]] = {}     # sorted, or stale: absent
        self.op_counter = 0
        self._next_id = 0

    # -- the memory ---------------------------------------------------------

    def _new_cue(self, label: str | None) -> int:
        cue = self._next_id
        self._next_id += 1
        self.cues[cue] = label
        self.linked[cue] = []
        return cue

    def find_cue_by_label(self, label: str) -> int | None:
        return next((c for c, known in self.cues.items() if known == label),
                    None)

    def add_cue_neuron(self, label: str) -> int:
        cue = self.find_cue_by_label(label)
        return self._new_cue(label) if cue is None else cue

    def add_data_neuron(self, locality: int, payload: Payload,
                        feature) -> int:
        dn = self._next_id
        self._next_id += 1
        self.neurons[dn] = Neuron(locality, np.asarray(feature, dtype=float),
                                  payload, 100.0, self.op_counter)
        if self.defaults[locality] is None:
            self.defaults[locality] = self._new_cue(None)
        self.associate(self.defaults[locality], dn)
        return dn

    def _set_weight(self, cue: int, dn: int, weight: float,
                    touch: bool) -> None:
        self.weights[cue, dn] = weight
        if touch:
            self.edge_access[cue, dn] = self.op_counter
        self._orders.pop(cue, None)

    def associate(self, cue: int, dn: int) -> None:
        if (cue, dn) not in self.weights:
            self.linked[cue].append(dn)
            self._set_weight(cue, dn, self.params.epsilon, True)

    def adjust_association(self, cue: int, dn: int, delta: float,
                           touch: bool = True) -> float:
        weight = max(self.params.epsilon, self.weights[cue, dn] - delta)
        self._set_weight(cue, dn, weight, touch)
        return weight

    def adjust_strength(self, dn: int, delta: float) -> float:
        """The strength clamp; a stored quality above the new strength
        falls to it, and the blob is cut to that quality's prefix."""
        neuron = self.neurons[dn]
        neuron.strength = min(100.0, max(self.params.phi,
                                         neuron.strength - delta))
        p = neuron.payload
        if neuron.strength < p.quality:
            keep = math.ceil(len(p.original) * neuron.strength / 100.0)
            neuron.payload = Payload(p.blob[:keep], p.original,
                                     neuron.strength, p.lineage)
        return neuron.strength

    def set_payload(self, dn: int, payload: Payload) -> None:
        self.neurons[dn].payload = payload

    def reward(self, cue: int, dn: int) -> Payload:
        """A hit's reaction: the edge up by eta, the strength back to 100,
        the neuron accessed now; the payload as stored."""
        self.adjust_association(cue, dn, -self.params.eta)
        self.adjust_strength(dn, -100.0)
        self.neurons[dn].last_access = self.op_counter
        return self.neurons[dn].payload

    def order(self, cue: int) -> list[int]:
        """A cue's data neurons by descending weight, then id."""
        if cue not in self._orders:
            self._orders[cue] = sorted(
                self.linked[cue], key=lambda dn: (-self.weights[cue, dn], dn))
        return self._orders[cue]

    def total_bytes(self) -> int:
        return sum(len(n.payload.blob) for n in self.neurons.values())

    # -- search -------------------------------------------------------------

    def candidates(self, cue: int | None) -> list[tuple[int, int]]:
        """The ``(cue_id, dn_id)`` pairs a search walks: a known cue's
        order, or for an unknown label (None) every locality's default
        cue's order in turn, above the association threshold, cut at the
        search limit."""
        cues = [cue] if cue is not None else [
            c for c in self.defaults if c is not None]
        pairs = [(c, dn) for c in cues for dn in self.order(c)
                 if self.weights[c, dn] > self.search.assoc_thresh]
        return pairs[:self.controls.search_limit]

    def first_match(self, dn_ids: list[int], query) -> int | None:
        """Index of the first data neuron whose feature scores at least the
        match threshold against ``query``; without a query, the first."""
        if query is None:
            return 0 if dn_ids else None
        return next((i for i, dn in enumerate(dn_ids) if cosine_similarity(
            query, self.neurons[dn].feature) >= self.search.match_thresh),
            None)

    def _search(self, label: str, query):
        pairs = self.candidates(self.find_cue_by_label(label))
        first = self.first_match([dn for _, dn in pairs], query)
        cost = len(pairs) if first is None else first + 1
        if self.controls.weaken_on_fail:
            for cue, dn in pairs[:first]:
                self.adjust_association(cue, dn, self.params.eta)
        examined = tuple(dn for _, dn in pairs[:cost])
        return (None if first is None else pairs[first]), examined

    # -- operations ---------------------------------------------------------

    def store(self, data, cue: str, item_id: str | None = None) -> tuple:
        payload = (data if isinstance(data, Payload)
                   else Payload.from_bytes(bytes(data), lineage=item_id))
        self.op_counter += 1
        feature = self.extractor.extract(payload.blob)
        self.ensure_capacity(len(payload.original))
        match, examined = self._search(cue, feature)
        if match is not None:
            kind, dn = "merged", match[1]
            stored = self.reward(*match)
            if payload.quality > stored.quality:
                self.set_payload(dn, payload)
                stored = payload
        else:
            kind, stored = "new_neuron", payload
            dn = self.add_data_neuron(self.locality_for(cue), payload,
                                      feature)
        self.associate(self.add_cue_neuron(cue), dn)
        self._auto_retention()
        return kind, dn, len(examined), stored, stored.quality, examined

    def locality_for(self, label: str) -> int:
        """The first locality whose labels admit ``label``, else the last."""
        mapping = self.params.locality_mapping
        return next((i for i, m in enumerate(mapping)
                     if label in m.get("labels", ())), len(mapping) - 1)

    def retrieve(self, cue: str, fine_cue=None) -> tuple:
        self.op_counter += 1
        match, examined = self._search(cue, fine_cue)
        out = "miss", None, len(examined), None, None, examined
        if match is not None:
            stored = self.reward(*match)
            self.associate(self.add_cue_neuron(cue), match[1])
            out = "hit", match[1], len(examined), stored, stored.quality, \
                examined
        self._auto_retention()
        return out

    def _auto_retention(self) -> None:
        if self.op_counter % self.params.retention_period == 0:
            self.retention(self.params.retention_period)

    def retention(self, n: int | None = None) -> tuple:
        """Age what has been idle for ``n`` ops (the retention period by
        default): under failure decay each edge at its data neuron's
        locality's rate, and each data neuron at its locality's rate."""
        window = self.params.retention_period if n is None else n
        now = self.op_counter
        weakened, compressed, freed = [], [], 0
        if self.controls.weaken_on_fail:
            for (cue, dn), weight in sorted(self.weights.items()):
                rate = self.params.association_decay_rates[
                    self.neurons[dn].locality]
                if now - self.edge_access[cue, dn] >= window and rate > 0:
                    new = self.adjust_association(cue, dn, rate, touch=False)
                    if new != weight:
                        weakened.append((cue, dn, new))
        # locality by locality, each in id order
        for dn, neuron in sorted(self.neurons.items(),
                                 key=lambda item: item[1].locality):
            rate = self.params.memory_decay_rates[neuron.locality]
            if rate <= 0 or now - neuron.last_access < window:
                continue
            strength, size = neuron.strength, len(neuron.payload.blob)
            if self.adjust_strength(dn, rate) != strength:
                compressed.append((dn, neuron.strength))
                freed += size - len(neuron.payload.blob)
        return weakened, compressed, freed

    # -- elasticity ---------------------------------------------------------

    def cap(self, locality: int, ceiling: float) -> int:
        """Lower every strength in a locality above ``max(phi, ceiling)`` to
        it; return the bytes freed."""
        freed = 0
        for dn, neuron in self.neurons.items():
            target = max(self.params.phi, min(neuron.strength, ceiling))
            if neuron.locality == locality and target < neuron.strength:
                size = len(neuron.payload.blob)
                self.adjust_strength(dn, neuron.strength - target)
                freed += size - len(neuron.payload.blob)
        return freed

    def steps(self) -> list[tuple[int, float]]:
        """The ``(locality, ceiling)`` steps of escalating elasticity:
        iteration by iteration, localities by descending memory decay rate
        (the later first on ties), each while its schedule lasts, and with
        phi = 0 a last pass at ceiling 0."""
        rates = self.params.memory_decay_rates
        schedules = self.params.elasticity_schedules
        order = sorted(range(len(rates)), key=lambda i: (-rates[i], -i))
        steps = [(i, schedules[i][it])
                 for it in range(max(map(len, schedules)))
                 for i in order if it < len(schedules[i])]
        return steps + [(i, 0.0) for i in order] * (self.params.phi == 0.0)

    def ensure_capacity(self, need: int) -> None:
        cap = self.params.capacity_bytes
        if cap is None:
            return
        free = cap - self.total_bytes()
        steps = iter(self.steps())
        while free < need:
            step = next(steps, None)
            if step is None:
                raise StoreFull(f"need {need} bytes, only {free} free at "
                                f"maximum elasticity")
            free += self.cap(*step)
