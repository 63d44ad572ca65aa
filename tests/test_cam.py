"""Traditional-CAM baseline tests: scan costs, eviction, fixed quality."""

from __future__ import annotations

import numpy as np
import pytest

from neuralstore.cam import CamBaseline


def data(n: int, fill: int = 0) -> bytes:
    return bytes([fill]) * n


class TestStore:
    def test_empty_cam_store_costs_zero(self):
        cam = CamBaseline()
        result = cam.store("a", data(10))
        assert result.cost == 0
        assert result.stored
        assert len(cam.entries) == 1

    def test_duplicate_tag_overwrites_at_scan_position(self):
        cam = CamBaseline()
        for tag in ("a", "b", "c", "d"):
            cam.store(tag, data(10))
        result = cam.store("c", data(20, fill=1))
        assert result.cost == 3          # scanned a, b, c
        assert result.overwrote
        assert len(cam.entries) == 4
        payload, _ = cam.retrieve("c")
        assert payload.blob == data(20, fill=1)

    def test_fifo_evicts_oldest(self):
        cam = CamBaseline(capacity_bytes=40)
        for tag in ("a", "b", "c", "d"):
            cam.store(tag, data(10))
        result = cam.store("e", data(10))
        assert result.evicted == 1
        assert cam.retrieve("a")[0] is None
        assert cam.retrieve("e")[0] is not None

    def test_oversized_overwrite_evicts_the_others_then_drops_itself(self):
        cam = CamBaseline(capacity_bytes=25)
        cam.store("a", data(10))
        cam.store("b", data(10))
        result = cam.store("b", data(30))
        assert result.overwrote and not result.stored
        assert result.evicted == 1
        assert cam.entries == []

    def test_item_larger_than_capacity_dropped(self):
        cam = CamBaseline(capacity_bytes=25)
        cam.store("a", data(10))
        result = cam.store("big", data(30))
        assert not result.stored
        assert cam.retrieve("big")[0] is None

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_fifo_matches_a_reference(self, seed):
        """Under a cap, the entries are those of a FIFO kept by insertion
        order (a retrieve does not refresh an entry, an overwrite keeps its
        place), and ``total_bytes`` is their sum after every op."""
        rng = np.random.default_rng(seed)
        cam = CamBaseline(capacity_bytes=100)
        reference: dict[str, int] = {}       # tag -> size, oldest first
        for _ in range(300):
            tag = f"t{int(rng.integers(12))}"
            if rng.random() < 0.3:
                cam.retrieve(tag)
                continue
            size = int(rng.integers(1, 60))
            cam.store(tag, data(size))
            reference[tag] = size            # an overwrite keeps its place
            while sum(reference.values()) > 100:    # sizes stay below 100
                del reference[next(t for t in reference if t != tag)]
            assert [(e.tag, e.data.size_bytes) for e in cam.entries] == \
                list(reference.items())
            assert cam.total_bytes == sum(reference.values())


class TestRetrieve:
    def test_cost_is_one_based_position(self):
        cam = CamBaseline()
        for tag in ("a", "b", "c", "d", "e"):
            cam.store(tag, data(5))
        for k, tag in enumerate(("a", "b", "c", "d", "e"), start=1):
            _, cost = cam.retrieve(tag)
            assert cost == k

    def test_miss_scans_whole_table(self):
        cam = CamBaseline()
        for tag in ("a", "b", "c"):
            cam.store(tag, data(5))
        payload, cost = cam.retrieve("zz")
        assert payload is None
        assert cost == 3

    def test_returned_payload_byte_equal_and_full_quality(self):
        cam = CamBaseline()
        original = bytes(range(100))
        cam.store("a", original)
        payload, _ = cam.retrieve("a")
        assert payload.blob == original
        assert payload.quality == 100.0


class TestSpace:
    def test_total_bytes_accounting(self):
        cam = CamBaseline()
        cam.store("a", data(100))
        cam.store("b", data(50))
        assert cam.total_bytes == 150
        cam.store("a", data(80))          # overwrite shrinks in place
        assert cam.total_bytes == 130

    def test_space_decreases_only_by_eviction(self):
        cam = CamBaseline(capacity_bytes=120)
        previous = 0
        for i in range(10):
            result = cam.store(f"t{i}", data(25))
            if result.evicted == 0:
                assert cam.total_bytes >= previous
            else:
                assert cam.total_bytes < previous + 25
            previous = cam.total_bytes

    def test_uniform_random_retrieve_cost_averages_half_table(self):
        cam = CamBaseline()
        n = 40
        for i in range(n):
            cam.store(f"t{i}", data(4))
        rng = np.random.default_rng(11)
        costs = [cam.retrieve(f"t{int(rng.integers(n))}")[1] for _ in range(10_000)]
        mean = float(np.mean(costs))
        assert abs(mean - (n + 1) / 2) <= 0.1 * (n + 1) / 2
