"""Bit-for-bit equivalence of the vectorized RIM materializer.

The legacy per-sample insertion loop (the original
``_orders_from_displacements``) is kept here as the reference semantics;
the vectorized decode in :mod:`repro.mallows.sampling` must reproduce it
exactly — same displacement matrix in, same orders out — across every theta
regime and ranking size, including the chunk boundary of the decoder and
the ``uint8``/``int16`` boundary of its position dtype.  The in-place
displacement draws are pinned to the out-of-place inverse-CDF formula on
their own, independently of the decode.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mallows.sampling import (
    _DECODE_CHUNK,
    _displacement_draws,
    _orders_from_displacements,
    _position_dtype,
    sample_mallows_batch,
)
from repro.rankings.permutation import random_ranking

THETAS = (0.0, 0.01, 0.5, 2.0)
SIZES = (1, 2, 5, 50)


def _legacy_orders_from_displacements(
    center_order: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Reference decode: replay the insertions with Python list surgery.

    Deliberate twin of ``_scalar_orders_from_displacements`` in
    ``benchmarks/bench_batch_engine.py``; see the note there.
    """
    m, n = v.shape
    out = np.empty((m, n), dtype=np.int64)
    center_list = center_order.tolist()
    for s in range(m):
        current: list[int] = []
        row = v[s]
        for j in range(n):
            current.insert(j - int(row[j]), center_list[j])
        out[s] = current
    return out


def _reference_draws(
    n: int, theta: float, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Reference draws: the inverse-CDF formula out of place, one fresh
    temporary per step, which the in-place ``_displacement_draws`` must
    equal bit for bit."""
    u = rng.random((m, n))
    j = np.arange(n, dtype=np.float64)
    q = math.exp(-theta) if theta > 0.0 else 1.0
    if q >= 1.0:
        return np.floor(u * (j + 1.0)).astype(np.int64)
    tail = 1.0 - np.power(q, j + 1.0)
    v = np.floor(np.log1p(-u * tail) / math.log(q))
    return np.clip(v, 0, j).astype(np.int64)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    m=st.integers(min_value=0, max_value=64),
    # 1e-18 rounds e^{-theta} to 1.0: the underflow-to-uniform branch.
    theta=st.sampled_from((0.0, 1e-18, 0.01, 0.5, 6.0, 50.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_in_place_draws_match_reference_formula(n, m, theta, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _displacement_draws(n, theta, m, rng)
    expected = _reference_draws(n, theta, m, ref_rng)
    assert got.dtype == expected.dtype == np.int64
    assert np.array_equal(got, expected)
    # Same stream consumption: the caller's generator ends in the same state.
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("n", SIZES)
def test_vectorized_decode_matches_legacy(theta, n):
    rng = np.random.default_rng(1000 + int(theta * 100) + n)
    v = _displacement_draws(n, theta, 200, rng)
    center = random_ranking(n, seed=n)
    expected = _legacy_orders_from_displacements(center.order, v)
    assert np.array_equal(_orders_from_displacements(center.order, v), expected)


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("n", SIZES)
def test_seeded_sampler_matches_legacy_pipeline(theta, n):
    """End-to-end: same seed, same samples as the legacy implementation."""
    m = 150
    center = random_ranking(n, seed=7 * n + 1)
    rng = np.random.default_rng(42)
    expected = _legacy_orders_from_displacements(
        center.order, _displacement_draws(n, theta, m, rng)
    )
    assert np.array_equal(
        sample_mallows_batch(center, theta, m, seed=42), expected
    )


@pytest.mark.parametrize("n", (6, 250))
def test_decode_across_chunk_boundary(n):
    """Batches straddling the decode chunk size must be seamless, at a tiny
    ``n`` and at the serving size (``uint8`` positions)."""
    m = _DECODE_CHUNK + 17
    rng = np.random.default_rng(3)
    v = _displacement_draws(n, 0.4, m, rng)
    center = random_ranking(n, seed=0)
    got = _orders_from_displacements(center.order, v)
    # Spot-check rows on both sides of the boundary against the reference.
    check = np.r_[0:5, _DECODE_CHUNK - 3 : _DECODE_CHUNK + 3, m - 5 : m]
    expected = _legacy_orders_from_displacements(center.order, v[check])
    assert np.array_equal(got[check], expected)


def test_position_dtype_rule():
    """Positions ``0..n-1`` take the smallest dtype that holds them."""
    assert _position_dtype(1) == np.uint8
    assert _position_dtype(256) == np.uint8
    assert _position_dtype(257) == np.int16
    assert _position_dtype(32767) == np.int16
    assert _position_dtype(32768) == np.int64


@pytest.mark.parametrize("n", (255, 256, 257))
def test_decode_at_position_dtype_boundary(n):
    """Either side of the ``uint8``/``int16`` switch the decode matches the
    reference, including the rows that reach the extreme positions: every
    item inserted at the end (identity) or at the front (reversal)."""
    rng = np.random.default_rng(n)
    center = random_ranking(n, seed=n)
    edges = np.vstack([np.zeros(n, dtype=np.int64), np.arange(n)])
    for v in (
        edges,
        _displacement_draws(n, 0.0, 40, rng),
        _displacement_draws(n, 0.5, 40, rng),
    ):
        expected = _legacy_orders_from_displacements(center.order, v)
        assert np.array_equal(_orders_from_displacements(center.order, v), expected)
    assert np.array_equal(
        _orders_from_displacements(center.order, edges)[1], center.order[::-1]
    )


def test_decode_empty_batch_and_empty_ranking():
    assert _orders_from_displacements(
        np.arange(4), np.empty((0, 4), dtype=np.int64)
    ).shape == (0, 4)
    assert _orders_from_displacements(
        np.arange(0), np.empty((3, 0), dtype=np.int64)
    ).shape == (3, 0)
