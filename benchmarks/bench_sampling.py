"""Substrate micro-benchmarks: Mallows sampling throughput and the
chunked-vs-Fenwick decode race.

``test_fenwick_decode_wins_at_large_n`` is the perf tripwire for the
sub-quadratic RIM decode: at ``n = 2000`` the Fenwick order-statistic path
must beat the ``O(m·n²)`` chunked decode (bit-identical outputs are asserted
before any timing claim counts), while ``test_small_n_stays_on_chunked_path``
pins the dispatcher to the existing decode at paper scale (``n <= 500``).

``test_serving_shape_hot_path`` covers the serving request (Mallows
best-of-1000 at ``n = 250``): it asserts the sampler and the NDCG kernel
equal their scalar references bit for bit, and records the per-step times
without asserting on them.
"""

import time

import numpy as np
import pytest

from benchmarks.bench_batch_engine import _scalar_orders_from_displacements
from repro.batch.kernels import batch_ndcg
from repro.mallows.sampling import (
    _displacement_draws,
    _orders_from_displacements,
    _use_fenwick_decode,
    calibrate_decode_crossover,
    decode_crossover,
    sample_mallows_batch,
)
from repro.rankings.permutation import Ranking, random_ranking
from repro.rankings.quality import ndcg


@pytest.mark.parametrize("n", [10, 100, 500])
def test_rim_batch_100_samples(benchmark, n):
    center = random_ranking(n, seed=0)
    orders = benchmark(sample_mallows_batch, center, 1.0, 100, 0)
    assert orders.shape == (100, n)


@pytest.mark.parametrize("theta", [0.0, 0.5, 4.0])
def test_rim_theta_regimes(benchmark, theta):
    center = random_ranking(100, seed=0)
    orders = benchmark(sample_mallows_batch, center, theta, 200, 0)
    assert orders.shape == (200, 100)


def test_rim_batch_10k_samples_n50(benchmark):
    """The batch-engine headline size: 10k samples at the paper's n=50."""
    center = random_ranking(50, seed=0)
    orders = benchmark(sample_mallows_batch, center, 0.5, 10_000, 0)
    assert orders.shape == (10_000, 50)


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_serving_shape_hot_path(theta, report):
    """A Mallows best-of-1000 request at n = 250, step by step: draws,
    decode, NDCG.  Outputs must equal the scalar references bit for bit;
    the times are the best of a few repeats and are recorded only — one
    run's timing is no evidence of a speed change."""
    n, m, seed = 250, 1_000, 7
    center = random_ranking(n, seed=0)
    scores = np.random.default_rng(1).random(n)

    draws_s = decode_s = ndcg_s = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        v = _displacement_draws(n, theta, m, np.random.default_rng(seed))
        t1 = time.perf_counter()
        orders = _orders_from_displacements(center.order, v)
        t2 = time.perf_counter()
        ndcgs = batch_ndcg(orders, scores)
        t3 = time.perf_counter()
        draws_s = min(draws_s, t1 - t0)
        decode_s = min(decode_s, t2 - t1)
        ndcg_s = min(ndcg_s, t3 - t2)

    assert np.array_equal(orders, _scalar_orders_from_displacements(center.order, v))
    assert np.array_equal(
        sample_mallows_batch(center, theta, m, seed=np.random.default_rng(seed)),
        orders,
    )
    for row in (0, 1, m // 2, m - 1):
        assert ndcgs[row] == ndcg(Ranking(orders[row]), scores)

    report(
        f"Mallows serving shape — n={n}, m={m}, theta={theta:g}",
        (
            f"draws  : {draws_s * 1e3:7.2f} ms\n"
            f"decode : {decode_s * 1e3:7.2f} ms\n"
            f"NDCG   : {ndcg_s * 1e3:7.2f} ms"
        ),
        metrics={
            "n": n, "m": m, "theta": theta, "draws_ms": draws_s * 1e3,
            "decode_ms": decode_s * 1e3, "ndcg_ms": ndcg_s * 1e3,
        },
    )


def test_fenwick_decode_wins_at_large_n(fast_mode, report):
    """At n = 2000 the O(m·n·log n) Fenwick decode must beat the O(m·n²)
    chunked decode (the ``--fast`` smoke shrinks ``m``, where the Fenwick
    per-call overhead amortizes less, and relaxes the threshold to a
    no-regression check)."""
    n = 2_000
    m = 1_024 if fast_mode else 2_048
    threshold = 1.0 if fast_mode else 1.2
    rng = np.random.default_rng(0)
    v = _displacement_draws(n, 0.5, m, rng)
    center = random_ranking(n, seed=1).order

    chunked_s = fenwick_s = np.inf
    for _ in range(2 if fast_mode else 3):
        t0 = time.perf_counter()
        chunked = _orders_from_displacements(center, v, method="chunked")
        chunked_s = min(chunked_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fenwick = _orders_from_displacements(center, v, method="fenwick")
        fenwick_s = min(fenwick_s, time.perf_counter() - t0)

    # The decodes must agree bit-for-bit before any speed claim counts, and
    # the auto dispatcher must route this shape to the Fenwick path.
    assert np.array_equal(chunked, fenwick)
    assert _use_fenwick_decode(m, n)

    speedup = chunked_s / fenwick_s
    report(
        "RIM decode — chunked vs Fenwick at large n",
        (
            f"m={m} samples, n={n} items, crossover n>={decode_crossover()}\n"
            f"chunked decode : {chunked_s * 1e3:9.1f} ms\n"
            f"Fenwick decode : {fenwick_s * 1e3:9.1f} ms\n"
            f"speedup        : {speedup:9.2f}x (required >= {threshold:g}x)"
        ),
        metrics={
            "m": m, "n": n, "chunked_s": chunked_s, "fenwick_s": fenwick_s,
            "speedup": speedup, "crossover": decode_crossover(),
        },
    )
    assert speedup >= threshold, (
        f"Fenwick decode only {speedup:.2f}x vs the chunked decode at "
        f"m={m}, n={n} (required >= {threshold:g}x)"
    )


def test_small_n_stays_on_chunked_path():
    """Paper-scale batches (n <= 500) must keep dispatching to the existing
    chunked decode, and the Fenwick path must match it bit-for-bit there."""
    for n in (50, 500):
        assert not _use_fenwick_decode(10_000, n)
        rng = np.random.default_rng(3)
        v = _displacement_draws(n, 0.5, 64, rng)
        center = random_ranking(n, seed=4).order
        auto = _orders_from_displacements(center, v)
        assert np.array_equal(auto, _orders_from_displacements(center, v, method="chunked"))
        assert np.array_equal(auto, _orders_from_displacements(center, v, method="fenwick"))


def test_calibrated_crossover_is_sane(fast_mode, report):
    """The on-host calibration must never route paper scale to Fenwick.

    The full-mode grid deliberately includes a paper-scale point (n = 256,
    where the chunked decode wins by ~3x on every machine measured): if a
    calibration bug ever declared Fenwick the winner there, ``measured``
    would come back 256 and the ``> 500`` assertion fails.  ``--fast``
    drops the sub-500 point (smaller m makes its margin noisier) and
    checks the return contract only.
    """
    if fast_mode:
        grid, m = (512, 1024, 2048), 512
    else:
        grid, m = (256, 724, 1024, 1448, 2048), 1024
    measured = calibrate_decode_crossover(n_grid=grid, m=m, apply=False)
    report(
        "RIM decode — calibrated crossover",
        f"grid={grid}, measured crossover n>={measured} "
        f"(live threshold n>={decode_crossover()})",
        metrics={"measured_crossover": measured, "live_crossover": decode_crossover()},
    )
    assert measured in set(grid) | {max(grid) + 1}
    if not fast_mode:
        assert measured > 500
