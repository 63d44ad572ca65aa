"""Payload representation, lossy compression and feature extraction.

Stored data is modelled as an opaque byte payload whose *quality* (a
percentage) tracks the memory strength of the neuron holding it.  Lowering
the quality shrinks the payload through the codec, a block truncation scheme
that keeps a prefix of the original bytes and reconstructs the rest with the
mean byte value, which makes every size and fidelity property exactly
computable.

A hive stores every payload the way ``TruncationCodec.compress`` would: as
a prefix of its blob, so a neuron's stored bytes are given by one size (see
:class:`neuralstore.core.Hive`).

Feature vectors come from the histogram extractor: it projects the
payload's byte histogram through a seeded random matrix and normalizes to
unit length, so similar byte distributions map to similar vectors without
any external model.

All functions here are pure: outputs depend only on (payload, config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BYTE_MAX = 255.0

# PSNR above this is reported as fully faithful when normalizing fidelity
# into [0, 1]; identical payloads are +inf and also normalize to 1.
PSNR_REFERENCE_DB = 40.0


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

    def extract(self, data: Payload | bytes) -> np.ndarray:
        blob = data.blob if isinstance(data, Payload) else data
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
    """
    if degraded._psnr is not None:
        return degraded._psnr
    reconstructed = TruncationCodec().reconstruct(degraded)
    if len(reconstructed) != degraded.original_size:
        raise RuntimeError(
            f"reconstruction length {len(reconstructed)} != original "
            f"{degraded.original_size}")
    if reconstructed == degraded.original:
        psnr = math.inf
    else:
        a = np.frombuffer(degraded.original, dtype=np.uint8).astype(np.float64)
        b = np.frombuffer(reconstructed, dtype=np.uint8).astype(np.float64)
        mse = float(np.mean((a - b) ** 2))
        psnr = 10.0 * math.log10(BYTE_MAX ** 2 / mse)
    object.__setattr__(degraded, "_psnr", psnr)
    return psnr


def normalized_fidelity(psnr_db: float, reference_db: float = PSNR_REFERENCE_DB) -> float:
    """Map a PSNR score into [0, 1]; +inf and anything above the reference cap at 1."""
    if math.isinf(psnr_db):
        return 1.0
    return max(0.0, min(1.0, psnr_db / reference_db))

