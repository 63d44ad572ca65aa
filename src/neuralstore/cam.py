"""Traditional content-addressable memory baseline.

One-to-one tag/data entries, exact tag matching, linear scan cost, and data
held at full quality forever.  No learning, no quality modulation: the only
dynamism is the replacement policy (FIFO by default, LRU selectable) that
evicts entries when a byte capacity is configured.

Costs are counted the same way as for the learning engine: the number of
entries examined by the scan, with no search parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

from neuralstore.codec import Payload
from neuralstore.core import ConfigurationError


@dataclass(frozen=True)
class CamStoreResult:
    cost: int
    evicted: int
    stored: bool
    overwrote: bool


@dataclass
class CamEntry:
    tag: str
    data: Payload        # always quality 100, never recompressed
    insert_seq: int
    last_touch: int


class CamBaseline:
    """Linear-scan CAM with byte capacity and FIFO/LRU replacement."""

    engine_id = "cam"

    def __init__(self, capacity_bytes: int | None = None, policy: str = "fifo"):
        if policy not in ("fifo", "lru"):
            raise ConfigurationError(f"unknown replacement policy {policy!r}")
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.entries: list[CamEntry] = []
        self._seq = 0
        self.total_scanned = 0

    @property
    def total_bytes(self) -> int:
        return sum(e.data.size_bytes for e in self.entries)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _pick_victim(self, exclude: CamEntry) -> CamEntry | None:
        candidates = [e for e in self.entries if e is not exclude]
        if not candidates:
            return None
        if self.policy == "fifo":
            return min(candidates, key=lambda e: e.insert_seq)
        return min(candidates, key=lambda e: e.last_touch)

    def store(self, tag: str, data: bytes | Payload) -> CamStoreResult:
        """Store data under a tag.

        Scans for an existing tag (cost = entries scanned), overwriting in
        place on a match and appending otherwise; evicts per policy until the
        data fits.  ``stored`` comes back False only when the item alone
        exceeds capacity, in which case it is dropped.
        """
        payload = data if isinstance(data, Payload) else Payload.from_bytes(data)
        seq = self._next_seq()
        cost = 0
        current = None
        overwrote = False
        for entry in self.entries:
            cost += 1
            self.total_scanned += 1
            if entry.tag == tag:
                entry.data = payload
                entry.last_touch = seq
                current = entry
                overwrote = True
                break
        if current is None:
            current = CamEntry(tag=tag, data=payload, insert_seq=seq, last_touch=seq)
            self.entries.append(current)
        evicted = 0
        if self.capacity_bytes is not None:
            while self.total_bytes > self.capacity_bytes:
                victim = self._pick_victim(exclude=current)
                if victim is None:
                    self.entries.remove(current)
                    return CamStoreResult(cost, evicted, False, overwrote)
                self.entries.remove(victim)
                evicted += 1
        return CamStoreResult(cost, evicted, True, overwrote)

    def retrieve(self, tag: str) -> tuple[Payload | None, int]:
        """Linear scan for an exact tag match.

        Cost is the number of entries examined: the 1-based position on a
        hit, the full table size on a miss.
        """
        cost = 0
        for entry in self.entries:
            cost += 1
            self.total_scanned += 1
            if entry.tag == tag:
                if self.policy == "lru":
                    entry.last_touch = self._next_seq()
                return entry.data, cost
        return None, cost
