"""Codec, extractor, similarity and fidelity tests."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralstore import codec as codec_module
from neuralstore.codec import (
    FEATURE_MEMO_SIZE,
    CodecError,
    HistogramExtractor,
    Payload,
    TruncationCodec,
    cosine_similarity,
    normalized_fidelity,
    psnr_fidelity,
)
from neuralstore.config import build_adapter, load_config
from neuralstore.workload import (
    build_corpus,
    generate_trace,
    item_bytes,
    replay,
)
from tests.reference import psnr

CODEC = TruncationCodec()
EXTRACTOR = HistogramExtractor(dim=64, seed=7)


def fixture_items(n_clusters: int = 6, per_cluster: int = 2, size: int = 2048):
    return [item_bytes(42, c, u, i, size)
            for c in range(2) for u in range(n_clusters // 2)
            for i in range(per_cluster)]


class TestCompress:
    def test_identity_at_full_quality(self):
        p = Payload.from_bytes(b"hello world payload")
        assert CODEC.compress(p, 100.0).blob == p.blob

    def test_half_quality_size_is_exact_ceiling(self):
        p = Payload.from_bytes(bytes(1000))
        half = CODEC.compress(p, 50.0)
        assert half.size_bytes == 500
        assert half.quality == 50.0

    def test_minimum_quality_keeps_nonempty_blob(self):
        p = Payload.from_bytes(bytes(1000))
        assert CODEC.compress(p, 1.0).size_bytes == 10
        tiny = Payload.from_bytes(bytes(50))
        assert CODEC.compress(tiny, 1.0).size_bytes == 1

    def test_zero_quality_empties_blob(self):
        p = Payload.from_bytes(bytes(100))
        assert CODEC.compress(p, 0.0).size_bytes == 0

    def test_up_compression_rejected(self):
        p = CODEC.compress(Payload.from_bytes(bytes(100)), 50.0)
        with pytest.raises(CodecError):
            CODEC.compress(p, 60.0)
        with pytest.raises(CodecError):
            CODEC.compress(p, 101.0)

    @given(size=st.integers(1, 2000),
           q1=st.integers(1, 100), q2=st.integers(1, 100))
    @settings(max_examples=60, deadline=None)
    def test_recompression_equals_direct_compression(self, size, q1, q2):
        if q2 > q1:
            q1, q2 = q2, q1
        data = bytes((7 * i) % 256 for i in range(size))
        p = Payload.from_bytes(data)
        via = CODEC.compress(CODEC.compress(p, q1), q2)
        direct = CODEC.compress(p, q2)
        assert via.blob == direct.blob
        assert via.quality == direct.quality

    @given(size=st.integers(1, 2000), qa=st.integers(0, 100), qb=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_size_monotone_in_quality(self, size, qa, qb):
        lo, hi = min(qa, qb), max(qa, qb)
        p = Payload.from_bytes(bytes(size))
        assert CODEC.compress(p, lo).size_bytes <= CODEC.compress(p, hi).size_bytes


class TestExtractor:
    def test_deterministic(self):
        data = item_bytes(1, 0, 0, 0, 512)
        a = EXTRACTOR.extract(data)
        b = HistogramExtractor(dim=64, seed=7).extract(data)
        assert np.array_equal(a, b)

    def test_unit_norm_and_dimension(self):
        v = EXTRACTOR.extract(item_bytes(1, 0, 0, 0, 512))
        assert v.shape == (64,)
        assert math.isclose(float(np.linalg.norm(v)), 1.0, rel_tol=1e-9)

    def test_empty_blob_maps_to_zero_vector(self):
        v = EXTRACTOR.extract(b"")
        assert np.array_equal(v, np.zeros(64))

    def test_compressed_payload_stays_similar_at_q95(self):
        # calibration behind the default match threshold of 0.95
        for data in fixture_items():
            p = Payload.from_bytes(data)
            sim = cosine_similarity(EXTRACTOR.extract(data),
                                    EXTRACTOR.extract(CODEC.compress(p, 95.0).blob))
            assert sim >= 0.95

    def test_stability_mean_similarity_non_decreasing_in_quality(self):
        grid = [1, 10, 30, 50, 80, 95, 100]
        items = fixture_items()
        curves = []
        for data in items:
            p = Payload.from_bytes(data)
            f0 = EXTRACTOR.extract(data)
            curves.append([cosine_similarity(
                f0, EXTRACTOR.extract(CODEC.compress(p, q).blob)) for q in grid])
        mean = np.mean(curves, axis=0)
        assert all(b >= a for a, b in zip(mean, mean[1:]))
        # per-item curves may wiggle by histogram sampling noise only
        for curve in curves:
            assert all(b >= a - 2e-3 for a, b in zip(curve, curve[1:]))

    def test_unrelated_payloads_land_far_apart(self):
        # 100 pairs drawn from independent byte distributions
        values = []
        for k in range(100):
            a = EXTRACTOR.extract(item_bytes(1000 + k, 0, 0, 0, 2048))
            b = EXTRACTOR.extract(item_bytes(2000 + k, 1, 0, 0, 2048))
            values.append(abs(cosine_similarity(a, b)))
        below = sum(v < 0.5 for v in values) / len(values)
        assert below >= 0.95
        assert float(np.mean(values)) < 0.3


class TestSimilarity:
    def test_identity(self):
        f = np.array([0.3, -0.4, 0.5])
        assert cosine_similarity(f, f) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal(self):
        f = np.array([0.3, -0.4, 0.5])
        assert cosine_similarity(f, -f) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_defined_as_zero(self):
        assert cosine_similarity(np.zeros(4), np.ones(4)) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))

    def test_symmetric(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([-1.0, 0.5, 2.0])
        assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_bit_identical_to_norm_and_clip_formula(self):
        def reference(f1, f2):
            f1 = np.asarray(f1, dtype=float)
            f2 = np.asarray(f2, dtype=float)
            n1 = np.linalg.norm(f1)
            n2 = np.linalg.norm(f2)
            if n1 == 0.0 or n2 == 0.0:
                return 0.0
            return float(np.clip(np.dot(f1, f2) / (n1 * n2), -1.0, 1.0))

        rng = np.random.default_rng(20210107)
        pairs = []
        for _ in range(3000):
            dim = int(rng.integers(1, 80))
            a = rng.standard_normal(dim) * float(rng.choice([1e-3, 1.0, 1e3]))
            b = rng.standard_normal(dim)
            unit_a, unit_b = a / np.linalg.norm(a), b / np.linalg.norm(b)
            # parallel pairs round to just past +-1, where the clamp decides
            pairs += [(a, b), (unit_a, unit_b), (a, 3.0 * a), (unit_a, -unit_a),
                      (a.tolist(), b.tolist())]
        pairs += [(np.zeros(5), np.ones(5)), (np.zeros(5), np.zeros(5)),
                  ([0.0, 0.0], [1.0, 2.0]), ([1.0, -2.0], [3.0, 0.5]),
                  ([np.nan, 1.0], [1.0, 1.0])]
        for f1, f2 in pairs:
            got = cosine_similarity(f1, f2)
            assert type(got) is float
            assert got.hex() == reference(f1, f2).hex()

    def test_extract_bit_identical_to_linalg_norm(self):
        rng = np.random.default_rng(20210108)
        for _ in range(3000):
            dim = int(rng.integers(1, 130))
            vec = rng.standard_normal(dim) * float(rng.choice([1e-150, 1.0, 1e150]))
            assert math.sqrt(vec.dot(vec)).hex() == float(np.linalg.norm(vec)).hex()
        blobs = fixture_items() + [rng.integers(0, 256, int(n), dtype=np.uint8).tobytes()
                                   for n in rng.integers(1, 5000, 200)]
        for data in blobs:
            counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
            vec = (counts / len(data)) @ EXTRACTOR._projection
            expected = vec / np.linalg.norm(vec)
            assert EXTRACTOR.extract(data).tobytes() == expected.tobytes()


class TestFidelity:
    def test_identical_payload_is_infinite(self):
        p = Payload.from_bytes(bytes(range(64)))
        assert math.isinf(psnr_fidelity(p))

    def test_lower_quality_scores_lower(self):
        p = Payload.from_bytes(item_bytes(3, 0, 0, 0, 1024))
        low = psnr_fidelity(CODEC.compress(p, 1.0))
        high = psnr_fidelity(CODEC.compress(p, 80.0))
        assert low < high < math.inf

    def test_pinned_64_byte_fixture_at_half_quality(self):
        # oracle: reconstruct by hand and accumulate squared error directly
        original = bytes(range(64))
        degraded = CODEC.compress(Payload.from_bytes(original), 50.0)
        kept = original[:32]
        pad = round(sum(kept) / len(kept))
        reconstructed = kept + bytes([pad]) * 32
        mse = sum((a - b) ** 2 for a, b in zip(original, reconstructed)) / 64
        assert mse == 538.75
        expected = 10.0 * math.log10(255.0 ** 2 / mse)
        assert psnr_fidelity(degraded) == pytest.approx(expected, rel=1e-12)

    def test_normalized_fidelity_range(self):
        assert normalized_fidelity(math.inf) == 1.0
        assert normalized_fidelity(60.0) == 1.0
        assert normalized_fidelity(20.0) == 0.5
        assert normalized_fidelity(-5.0) == 0.0


class TestFidelityFromTheTail:
    """``psnr_fidelity`` reads only a truncated payload's tail, and gives
    the reference model's byte-by-byte PSNR of the whole reconstruction bit
    for bit."""

    @staticmethod
    def assert_same(blob_: bytes, original: bytes) -> float:
        got = psnr_fidelity(Payload(blob_, original, 50.0))
        want = psnr(Payload(blob_, original, 50.0))
        assert type(got) is float
        assert got == want and got.hex() == want.hex()
        return got

    @staticmethod
    def count_reconstructions(monkeypatch) -> list:
        calls = []
        reconstruct = TruncationCodec.reconstruct

        def spy(self, payload):
            calls.append(payload)
            return reconstruct(self, payload)

        monkeypatch.setattr(codec_module.TruncationCodec, "reconstruct", spy)
        return calls

    def test_kept_length_one_and_all_but_one(self, monkeypatch):
        calls = self.count_reconstructions(monkeypatch)
        original = item_bytes(5, 0, 0, 0, 1000)
        for keep in (1, 2, len(original) - 1):
            got = psnr_fidelity(Payload(original[:keep], original, 50.0))
            assert got < math.inf
        # the tail path reconstructs nothing
        assert calls == []
        for keep in (1, 2, len(original) - 1):
            self.assert_same(original[:keep], original)

    def test_tail_equal_to_the_mean_byte_is_infinite(self):
        # mean of the kept bytes 10, 20, 30 is 20, and the tail is all 20
        assert self.assert_same(bytes([10, 20, 30]),
                                bytes([10, 20, 30, 20, 20])) == math.inf
        assert self.assert_same(b"\x07", b"\x07" * 50) == math.inf

    @pytest.mark.parametrize("kept, mean", [
        (bytes([0, 1]), 0),          # 0.5 rounds to even 0
        (bytes([1, 2]), 2),          # 1.5 rounds to even 2
        (bytes([2, 3]), 2),          # 2.5 rounds to even 2
        (bytes([254, 255]), 254),    # 254.5 rounds to even 254
    ])
    def test_mean_ending_in_a_half_rounds_to_even(self, kept, mean):
        # a tail of the even mean is exact; one off it is not
        assert self.assert_same(kept, kept + bytes([mean]) * 9) == math.inf
        assert self.assert_same(kept, kept + bytes([mean + 1]) * 9) < math.inf

    @pytest.mark.parametrize("blob_, original", [
        (bytes([9, 9]), bytes([1, 2, 3, 4])),         # not a prefix
        (bytes([1, 2, 4]), bytes([1, 2, 3, 4, 5])),   # differs in its last
        (b"", bytes(range(10))),                      # empty blob
        (b"", b""),                                   # empty original
        (bytes(range(64)), bytes(range(64))),         # blob == original
        (bytes(range(64)), bytes(range(63)) + b"x"),  # same length, differs
    ])
    def test_other_shapes_take_the_reconstruction(self, monkeypatch, blob_,
                                                  original):
        calls = self.count_reconstructions(monkeypatch)
        self.assert_same(blob_, original)
        # once for psnr_fidelity and once for the model's PSNR
        assert len(calls) == 2

    def test_blob_longer_than_its_original_still_raises(self):
        payload = Payload(bytes(range(12)), bytes(range(10)), 50.0)
        with pytest.raises(RuntimeError, match="^reconstruction length 12 "
                                               "!= original 10$"):
            psnr_fidelity(payload)

    def test_random_prefixes_of_corpus_items(self):
        rng = np.random.default_rng(2021)
        items = fixture_items() + [item_bytes(7, 0, 0, 0, int(n))
                                   for n in rng.integers(2, 5000, 3)]
        for data in items:
            for keep in rng.integers(1, len(data), 25):
                self.assert_same(data[:int(keep)], data)
            for q in (1.0, 10.0, 33.3, 50.0, 95.0, 99.9):
                degraded = CODEC.compress(Payload.from_bytes(data), q)
                assert psnr_fidelity(degraded) == psnr(degraded)


class TestExtractorMemo:
    """An extractor computes a ``bytes`` blob's feature once, and hands the
    same read-only vector to every later caller."""

    def test_same_bytes_give_the_same_read_only_vector(self):
        extractor = HistogramExtractor(dim=64, seed=7)
        data = item_bytes(1, 0, 0, 0, 512)
        first = extractor.extract(data)
        assert extractor.extract(bytes(bytearray(data))) is first
        assert extractor.extract(Payload.from_bytes(data)) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        fresh = HistogramExtractor(dim=64, seed=7).extract(data)
        assert fresh.tobytes() == first.tobytes()
        assert extractor.extract(b"") is extractor.extract(b"")

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_other_buffers_are_not_kept(self, wrap):
        extractor = HistogramExtractor(dim=64, seed=7)
        data = item_bytes(2, 0, 0, 0, 512)
        a, b = extractor.extract(wrap(data)), extractor.extract(wrap(data))
        assert a is not b and a.flags.writeable
        assert extractor._memo == {}
        want = HistogramExtractor(dim=64, seed=7).extract(data)
        assert a.tobytes() == b.tobytes() == want.tobytes()
        # a buffer changed in place gets its new feature
        buf = bytearray(data)
        before = extractor.extract(buf)
        buf[:256] = bytes(256)
        after = extractor.extract(buf)
        assert after.tobytes() == \
            HistogramExtractor(dim=64, seed=7).extract(bytes(buf)).tobytes()
        assert after.tobytes() != before.tobytes()

    def test_memo_starts_over_at_its_bound(self):
        extractor = HistogramExtractor(dim=8, seed=7)
        blobs = [i.to_bytes(2, "big") for i in range(FEATURE_MEMO_SIZE + 1)]
        kept = [extractor.extract(b) for b in blobs[:FEATURE_MEMO_SIZE]]
        assert len(extractor._memo) == FEATURE_MEMO_SIZE
        assert extractor.extract(blobs[0]) is kept[0]
        extractor.extract(blobs[-1])
        assert list(extractor._memo) == [blobs[-1]]
        again = extractor.extract(blobs[0])
        assert again is not kept[0]
        assert again.tobytes() == kept[0].tobytes()
        assert len(extractor._memo) == 2

    def test_a_replay_extracts_each_distinct_blob_once(self, monkeypatch):
        calls = []
        bincount = np.bincount

        def spy(x, *args, **kwargs):
            calls.append(x.tobytes())
            return bincount(x, *args, **kwargs)

        # the distinct-scan benchmark workload: one item per cluster
        config = load_config(preset="wildlife-deer", seed=42)
        spec = dataclasses.replace(config.workload, items_per_cluster=1,
                                   n_items=100, n_retrievals=200)
        corpus = build_corpus(spec)
        records = generate_trace(corpus, spec)
        adapter = build_adapter(config, corpus)
        monkeypatch.setattr(codec_module.np, "bincount", spy)
        replay(records, adapter, corpus)
        stored = [r.item_id for r in records if r.op == "store"]
        cued = {r.item_id for r in records
                if r.op == "retrieve" and r.use_fine_cue}
        blobs = {corpus.by_id[i].data for i in set(stored) | cued}
        assert sorted(calls) == sorted(blobs)
        # without the memo, a stored item retrieved later is extracted twice
        assert len(calls) < len(stored) + len(cued)
