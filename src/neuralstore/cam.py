"""Traditional content-addressable memory baseline.

One-to-one tag/data entries, exact tag matching, linear scan cost, and data
held at full quality forever.  No learning, no quality modulation: the only
dynamism is FIFO replacement, which evicts the oldest entries when a byte
capacity is configured.

Costs are counted the same way as for the learning engine: the number of
entries examined by the scan, with no search parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

from neuralstore.codec import Payload


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


class CamBaseline:
    """Linear-scan CAM with byte capacity and FIFO replacement."""

    def __init__(self, capacity_bytes: int | None = None):
        self.capacity_bytes = capacity_bytes
        self.entries: list[CamEntry] = []    # in insertion order
        self.total_scanned = 0

    @property
    def total_bytes(self) -> int:
        return sum(e.data.size_bytes for e in self.entries)

    def store(self, tag: str, data: bytes | Payload) -> CamStoreResult:
        """Store data under a tag.

        Scans for an existing tag (cost = entries scanned), overwriting in
        place on a match and appending otherwise; evicts the oldest other
        entries until the data fits.  ``stored`` comes back False only when
        the item alone exceeds capacity, in which case it is dropped.
        """
        payload = data if isinstance(data, Payload) else Payload.from_bytes(data)
        cost = 0
        current = None
        overwrote = False
        for entry in self.entries:
            cost += 1
            self.total_scanned += 1
            if entry.tag == tag:
                entry.data = payload
                current = entry
                overwrote = True
                break
        if current is None:
            current = CamEntry(tag=tag, data=payload)
            self.entries.append(current)
        evicted = 0
        if self.capacity_bytes is not None:
            while self.total_bytes > self.capacity_bytes:
                # the oldest entry other than the one just stored
                victim = 1 if self.entries[0] is current else 0
                if victim == len(self.entries):
                    self.entries.clear()     # the item alone is too large
                    return CamStoreResult(cost, evicted, False, overwrote)
                del self.entries[victim]
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
                return entry.data, cost
        return None, cost
