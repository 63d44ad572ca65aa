"""Payload representation, lossy compression and feature extraction.

Stored data is modelled as an opaque byte payload whose *quality* (a
percentage) tracks the memory strength of the neuron holding it.  Lowering
the quality shrinks the payload through the codec, a block truncation scheme
that keeps a prefix of the original bytes and reconstructs the rest with the
mean byte value, which makes every size and fidelity property exactly
computable.

A memory stores every payload the way ``TruncationCodec.compress`` would:
as a prefix of its blob, so a neuron's stored bytes are given by one size
(see :class:`neuralstore.core.Memory`).

Feature vectors come from the histogram extractor: it projects the
payload's byte histogram through a seeded random matrix and normalizes to
unit length, so similar byte distributions map to similar vectors without
any external model.

All functions here are pure: outputs depend only on (payload, config, seed).
Two results are kept rather than computed again, neither changing a value.
A payload keeps its PSNR once computed (``Payload._psnr``).  An extractor
keeps, for up to ``FEATURE_MEMO_SIZE`` distinct ``bytes`` blobs, each
blob's feature, so a blob stored and later used as a retrieve's fine cue is
extracted once; the kept vectors are read-only and shared by every caller
that extracts the same bytes, so copy one before editing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BYTE_MAX = 255.0

# PSNR above this is reported as fully faithful when normalizing fidelity
# into [0, 1]; identical payloads are +inf and also normalize to 1.
PSNR_REFERENCE_DB = 40.0

# distinct bytes blobs whose features an extractor keeps; past this many the
# memo starts over
FEATURE_MEMO_SIZE = 1024


class CodecError(ValueError):
    """Invalid compression request (e.g. up-compression)."""


@dataclass(frozen=True)
class Payload:
    """A stored data unit.

    ``blob`` is the bytes currently held at ``quality`` percent; ``original``
    is the full-quality reference the blob was derived from.  Only ``blob``
    counts toward stored size; ``original`` exists so fidelity against the
    payload's own lineage stays computable after lossy compression.

    ``_psnr`` keeps ``psnr_fidelity`` of the payload once computed.  It is
    not a constructor argument and takes no part in equality, hashing or
    ``repr``; ``dataclasses.replace`` starts the copy without it.
    """

    blob: bytes
    original: bytes
    quality: float = 100.0
    lineage: str | None = None
    _psnr: float | None = field(default=None, init=False, compare=False,
                                repr=False)

    @classmethod
    def from_bytes(cls, data: bytes, lineage: str | None = None) -> "Payload":
        return cls(blob=data, original=data, quality=100.0, lineage=lineage)

    @property
    def size_bytes(self) -> int:
        return len(self.blob)

    @property
    def original_size(self) -> int:
        return len(self.original)


class TruncationCodec:
    """Prefix-truncation codec.

    ``compress`` keeps the first ``ceil(original_size * q / 100)`` bytes of
    the current blob, so recompressing an already-compressed payload equals
    compressing the original directly (for non-increasing targets).
    Reconstruction pads the blob back to original length with the blob's
    mean byte value.
    """

    def compressed_size(self, original_size: int, quality: float) -> int:
        return math.ceil(original_size * quality / 100.0)

    def compress(self, payload: Payload, target_quality: float) -> Payload:
        if not 0.0 <= target_quality <= 100.0:
            raise CodecError(f"quality {target_quality} outside [0, 100]")
        if target_quality > payload.quality:
            raise CodecError(
                f"cannot raise quality from {payload.quality} to {target_quality}")
        if target_quality == payload.quality:
            return payload
        keep = self.compressed_size(payload.original_size, target_quality)
        return Payload(payload.blob[:keep], payload.original, target_quality,
                       payload.lineage)

    def reconstruct(self, payload: Payload) -> bytes:
        pad_len = payload.original_size - len(payload.blob)
        if pad_len <= 0:
            return payload.blob
        if payload.blob:
            mean_byte = int(round(float(np.frombuffer(payload.blob, dtype=np.uint8).mean())))
        else:
            mean_byte = 0
        return payload.blob + bytes([mean_byte]) * pad_len


class HistogramExtractor:
    """Byte-histogram feature extractor with seeded random projection.

    The normalized 256-bin histogram of the blob is projected to ``dim``
    dimensions through a fixed Gaussian matrix and scaled to unit length.
    Near-duplicate byte streams keep near-identical histograms, so the
    projection preserves their similarity; unrelated byte distributions have
    nearly disjoint histogram support and land far apart.
    """

    def __init__(self, dim: int = 64, seed: int = 7):
        self.dim = dim
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._projection = rng.standard_normal((256, dim)) / math.sqrt(dim)
        self._memo: dict[bytes, np.ndarray] = {}

    def extract(self, data: Payload | bytes) -> np.ndarray:
        """The blob's unit feature vector.

        A ``bytes`` blob's vector is kept (see ``FEATURE_MEMO_SIZE``) and
        returned read-only, the same array each time; other byte buffers
        can change in place, so theirs is computed afresh and writable.
        """
        blob = data.blob if isinstance(data, Payload) else data
        if type(blob) is not bytes:
            return self._histogram_feature(blob)
        vec = self._memo.get(blob)
        if vec is None:
            if len(self._memo) >= FEATURE_MEMO_SIZE:
                self._memo.clear()
            vec = self._memo[blob] = self._histogram_feature(blob)
            vec.setflags(write=False)
        return vec

    def _histogram_feature(self, blob) -> np.ndarray:
        if not blob:
            return np.zeros(self.dim)
        counts = np.bincount(np.frombuffer(blob, dtype=np.uint8), minlength=256)
        hist = counts / len(blob)
        vec = hist @ self._projection
        # np.linalg.norm's own 1-D arithmetic, without its per-call overhead
        norm = math.sqrt(vec.dot(vec))
        return vec / norm if norm > 0.0 else vec


def cosine_similarity(f1: np.ndarray, f2: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero vectors compare as 0."""
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if f1.shape != f2.shape:
        raise ValueError(f"dimension mismatch: {f1.shape} vs {f2.shape}")
    # the same arithmetic as np.linalg.norm and np.clip, without their
    # per-call overhead on the hot path; NaN passes through as with np.clip
    n1 = math.sqrt(f1.dot(f1))
    n2 = math.sqrt(f2.dot(f2))
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    sim = float(f1.dot(f2)) / (n1 * n2)
    return 1.0 if sim > 1.0 else -1.0 if sim < -1.0 else sim


def psnr_fidelity(degraded: Payload) -> float:
    """PSNR (dB) of a payload against its own full-quality original.

    The degraded blob is expanded through ``TruncationCodec``'s
    reconstruction map and compared byte-wise with the original.  Identical
    reconstructions return ``math.inf``.  A payload is immutable, so the
    value is computed once and kept in its ``_psnr`` field.

    A non-empty blob shorter than its original and a prefix of it (every
    truncated payload) reconstructs to itself followed by its mean byte
    ``m = round(sum(blob) / len(blob))``, so only the tail can differ: the
    squared error is ``sum((t - m) ** 2)`` over the original's bytes ``t``
    past the blob, summed in int64, and the mean squared error is that over
    ``len(original)`` (``inf`` PSNR when it is 0).  This is bit-identical
    to comparing the whole reconstruction in float64: every term is an
    integer of at most ``255 ** 2``, so the float64 sums are exact as well,
    and both divide once by the same count.  Any other blob is
    reconstructed and compared in full.
    """
    if degraded._psnr is None:
        object.__setattr__(degraded, "_psnr", _psnr_db(degraded))
    return degraded._psnr


def _psnr_db(degraded: Payload) -> float:
    """``psnr_fidelity`` of a payload, computed without its kept value."""
    blob, original = degraded.blob, degraded.original
    n, k = len(original), len(blob)
    if 0 < k < n and original.startswith(blob):
        mean = round(int(np.frombuffer(blob, dtype=np.uint8).sum()) / k)
        tail = np.frombuffer(original, dtype=np.uint8,
                             offset=k).astype(np.int64) - mean
        sq = int(tail.dot(tail))
        if sq == 0:
            return math.inf
        return 10.0 * math.log10(BYTE_MAX ** 2 / (sq / n))
    reconstructed = TruncationCodec().reconstruct(degraded)
    if len(reconstructed) != n:
        raise RuntimeError(
            f"reconstruction length {len(reconstructed)} != original {n}")
    if reconstructed == original:
        return math.inf
    a = np.frombuffer(original, dtype=np.uint8).astype(np.float64)
    b = np.frombuffer(reconstructed, dtype=np.uint8).astype(np.float64)
    mse = float(np.mean((a - b) ** 2))
    return 10.0 * math.log10(BYTE_MAX ** 2 / mse)


def normalized_fidelity(psnr_db: float, reference_db: float = PSNR_REFERENCE_DB) -> float:
    """Map a PSNR score into [0, 1]; +inf and anything above the reference cap at 1."""
    if math.isinf(psnr_db):
        return 1.0
    return max(0.0, min(1.0, psnr_db / reference_db))

