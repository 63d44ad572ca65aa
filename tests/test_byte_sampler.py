"""``ByteSampler`` against the ``Generator.choice`` draw it replaces.

The sampler must return, for any generator state, exactly the bytes that
``np.random.default_rng(seed).choice(256, size, p=probs)`` returns, and
must refuse the distributions ``choice`` refuses.
"""

from __future__ import annotations

import numpy as np
import pytest

from neuralstore.workload import (
    _BUCKETS,
    ByteSampler,
    cluster_distribution,
    item_bytes,
)

SEEDS = range(25)
SIZES = (1, 2, 1023, 4096)


def _dense(entries: dict[int, float]) -> np.ndarray:
    p = np.zeros(256)
    for symbol, weight in entries.items():
        p[symbol] = weight
    return p


DISTRIBUTIONS = {
    **{f"cluster-{s}-{c}-{u}": cluster_distribution(s, c, u)
       for s in (0, 7, 42, 1_000_045) for c in (0, 1) for u in (0, 3)},
    "one-hot-0": _dense({0: 1.0}),
    "one-hot-255": _dense({255: 1.0}),
    "uniform": np.full(256, 1 / 256),
    # CDF steps at 0.25, 0.5 and 0.75: on bucket edges
    "quarters": _dense({3: 0.25, 70: 0.25, 130: 0.25, 255: 0.25}),
    "tiny-then-rest": _dense({0: 1e-300, 1: 1 - 1e-300}),
}


def _choice(seed: int, size: int, probs: np.ndarray) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.choice(256, size=size, p=probs).astype(np.uint8).tobytes()


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_draws_match_generator_choice(name):
    probs = DISTRIBUTIONS[name]
    sampler = ByteSampler(probs)
    for seed in SEEDS:
        for size in SIZES:
            got = sampler.draw(np.random.default_rng(seed), size)
            assert got == _choice(seed, size, probs), (name, seed, size)


class _FixedDraws:
    """A generator stand-in whose ``random`` returns the given uniforms."""

    def __init__(self, u: np.ndarray):
        self.u = u

    def random(self, size: int) -> np.ndarray:
        assert size == len(self.u)
        return self.u


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_uniforms_on_edges_and_steps_map_like_searchsorted(name):
    """Uniforms on bucket edges, on the CDF's own values and one ulp either
    side of both land where ``choice``'s search puts them."""
    probs = DISTRIBUTIONS[name]
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    points = np.concatenate([np.arange(_BUCKETS) / _BUCKETS, cdf])
    u = np.concatenate([points, np.nextafter(points, 0.0),
                        np.nextafter(points, 1.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    got = ByteSampler(probs).draw(_FixedDraws(u), len(u))
    want = cdf.searchsorted(u, side="right").astype(np.uint8).tobytes()
    assert got == want


def test_item_bytes_are_the_choice_draw_of_their_cluster():
    for key in ((42, 0, 0, 0), (42, 1, 2, 3), (7, 0, 5, 9)):
        seed, class_idx, cluster_idx, item_idx = key
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, 3, class_idx, cluster_idx, item_idx)))
        probs = cluster_distribution(seed, class_idx, cluster_idx)
        want = rng.choice(256, size=777, p=probs).astype(np.uint8).tobytes()
        assert item_bytes(*key, 777) == want


@pytest.mark.parametrize("probs", [
    _dense({0: 1.5, 1: -0.5}),
    _dense({0: np.nan, 1: 1.0}),
    _dense({0: 0.5, 1: 0.4}),
    np.full(255, 1 / 255),
], ids=["negative", "nan", "not-normalised", "255-entries"])
def test_refuses_what_choice_refuses(probs):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(256, size=4, p=probs)
    with pytest.raises(ValueError):
        ByteSampler(probs)
