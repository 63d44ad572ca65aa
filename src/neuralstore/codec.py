"""Payload representation, lossy compression and feature extraction.

Stored data is modelled as an opaque byte payload whose *quality* (a
percentage) tracks the memory strength of the neuron holding it.  Lowering
the quality shrinks the payload through a codec; the default codec is a
block truncation scheme that keeps a prefix of the original bytes and
reconstructs the rest with the mean byte value, which makes every size and
fidelity property exactly computable.

Feature vectors come from a pluggable extractor.  The default extractor
projects the payload's byte histogram through a seeded random matrix and
normalizes to unit length, so similar byte distributions map to similar
vectors without any external model.  Real codecs (JPEG, ...) and real
extractors can be registered under new ids without touching the engine.

All functions here are pure: outputs depend only on (payload, config, seed).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

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
    """

    modality: str
    blob: bytes
    original: bytes
    quality: float = 100.0
    lineage: str | None = None

    @classmethod
    def from_bytes(cls, data: bytes, modality: str = "blob",
                   lineage: str | None = None) -> "Payload":
        return cls(modality=modality, blob=data, original=data,
                   quality=100.0, lineage=lineage)

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

    codec_id = "truncate"

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
        return Payload(payload.modality, payload.blob[:keep], payload.original,
                       target_quality, payload.lineage)

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

    extractor_id = "histogram"

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
        norm = np.linalg.norm(vec)
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


def psnr_fidelity(degraded: Payload, codec: TruncationCodec | None = None) -> float:
    """PSNR (dB) of a payload against its own full-quality original.

    The degraded blob is expanded through the codec's reconstruction map and
    compared byte-wise with the original.  Identical reconstructions return
    ``math.inf``.
    """
    codec = codec or get_codec("truncate")
    reconstructed = codec.reconstruct(degraded)
    if len(reconstructed) != degraded.original_size:
        raise RuntimeError(
            f"reconstruction length {len(reconstructed)} != original "
            f"{degraded.original_size}")
    if reconstructed == degraded.original:
        return math.inf
    a = np.frombuffer(degraded.original, dtype=np.uint8).astype(np.float64)
    b = np.frombuffer(reconstructed, dtype=np.uint8).astype(np.float64)
    mse = float(np.mean((a - b) ** 2))
    return 10.0 * math.log10(BYTE_MAX ** 2 / mse)


def normalized_fidelity(psnr_db: float, reference_db: float = PSNR_REFERENCE_DB) -> float:
    """Map a PSNR score into [0, 1]; +inf and anything above the reference cap at 1."""
    if math.isinf(psnr_db):
        return 1.0
    return max(0.0, min(1.0, psnr_db / reference_db))


def label_vector(label: str, dim: int = 64) -> np.ndarray:
    """Deterministic unit vector for a textual cue label (content-hash seeded)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


# Strength-to-quality maps.  Memory strength and payload quality are both
# percentages; the default map is the identity, alternatives must be
# monotone non-decreasing.

def _identity_map(strength: float) -> float:
    return strength


def _quantized10_map(strength: float) -> float:
    return max(1.0, 10.0 * math.floor(strength / 10.0))


_CODECS: dict[str, type] = {TruncationCodec.codec_id: TruncationCodec}
_EXTRACTORS: dict[str, type] = {HistogramExtractor.extractor_id: HistogramExtractor}
_STRENGTH_QUALITY_MAPS = {
    "identity": _identity_map,
    "quantized10": _quantized10_map,
}


def register_codec(codec_cls: type) -> None:
    _CODECS[codec_cls.codec_id] = codec_cls


def register_extractor(extractor_cls: type) -> None:
    _EXTRACTORS[extractor_cls.extractor_id] = extractor_cls


def get_codec(codec_id: str):
    try:
        return _CODECS[codec_id]()
    except KeyError:
        raise KeyError(f"unknown codec id {codec_id!r}; known: {sorted(_CODECS)}") from None


def get_extractor(extractor_id: str, dim: int = 64, seed: int = 7):
    try:
        return _EXTRACTORS[extractor_id](dim=dim, seed=seed)
    except KeyError:
        raise KeyError(
            f"unknown extractor id {extractor_id!r}; known: {sorted(_EXTRACTORS)}") from None


def get_strength_quality_map(map_id: str):
    try:
        return _STRENGTH_QUALITY_MAPS[map_id]
    except KeyError:
        raise KeyError(
            f"unknown strength-quality map {map_id!r}; "
            f"known: {sorted(_STRENGTH_QUALITY_MAPS)}") from None
