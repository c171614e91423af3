"""Counter-based stream contract: the n-th double is a pure function of
(seed, n), any 4-aligned chunking reproduces the same numbers, and normals
agree with the inverse-CDF of the same uniforms: the numpy port of Cephes
ndtri equals scipy.special.ndtri bit for bit on the stream's domain."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from hilbert_mfg import rng


def test_block_matches_elementwise_reference():
    seed = 9172
    block = rng.uniform_stream(seed, 8, 17)
    singles = np.array([rng.double_at(seed, 8 + i) for i in range(17)])
    assert np.array_equal(block, singles)


def test_aligned_chunking_is_order_invariant():
    seed = 41
    whole = rng.uniform_stream(seed, 0, 64)
    parts = np.concatenate(
        [rng.uniform_stream(seed, 0, 12), rng.uniform_stream(seed, 12, 20), rng.uniform_stream(seed, 32, 32)]
    )
    assert np.array_equal(whole, parts)


def test_unaligned_offset_rejected():
    try:
        rng.uniform_stream(0, 3, 4)
    except ValueError:
        return
    raise AssertionError("unaligned offset must be rejected")


def test_normals_are_inverse_cdf_of_uniforms():
    seed = 7
    u = rng.uniform_stream(seed, 4, 32)
    z = rng.normal_stream(seed, 4, 32)
    assert np.allclose(z, ndtri(np.maximum(u, 2.0 ** -54)), rtol=0, atol=0)
    assert np.all(np.isfinite(z))


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("seed", [3, 2024])
def test_normal_blocks_are_scipy_ndtri_of_the_stream_bit_for_bit(seed):
    # 5 * 2^20 values per seed; block b starts at index 4 + b * n
    n = 1 << 20
    for b, z in enumerate(rng.normal_blocks(seed, 4, n, 5)):
        u = rng.uniform_stream(seed, 4 + b * n, n)
        assert _same_bits(z, ndtri(np.maximum(u, 2.0 ** -54))), b


@pytest.mark.parametrize("draw", [1 << 15, 16, 4])
def test_blocks_continue_the_stream_however_many_share_a_draw(monkeypatch, draw):
    # five 6-value blocks drawn all five, two and one to a pass: the
    # 4-aligned offset is read once and later blocks start unaligned
    monkeypatch.setattr(rng, "_DRAW", draw)
    whole = rng.normal_stream(5, 8, 30)
    blocks = list(rng.normal_blocks(5, 8, 6, 5))
    assert len(blocks) == 5 and all(b.shape == (6,) for b in blocks)
    assert _same_bits(whole, np.concatenate(blocks))
    assert _same_bits(whole[:6], rng.normal_stream(5, 8, 6))


def test_zero_normals_are_an_empty_draw():
    assert rng.normal_stream(5, 8, 0).shape == (0,)
    blocks = list(rng.normal_blocks(5, 8, 0, 3))
    assert len(blocks) == 3 and all(b.shape == (0,) for b in blocks)


def _ulps_around(c, k):
    """c and its k nearest doubles on each side."""
    below, above = [c], [c]
    for _ in range(k):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 1.0))
    return below[::-1] + above[1:]


def test_ndtri_port_matches_scipy_on_every_edge():
    e2 = rng._EXP_M2
    # stream values around x = sqrt(-2 log y) = 8, i.e. y = e^-32, in both tails
    far = [y for k in range(100, 130) for y in (k * 2.0 ** -53, 1.0 - k * 2.0 ** -53)]
    assert {math.sqrt(-2.0 * math.log(min(y, 1.0 - y))) < 8.0 for y in far} == {True, False}
    u = np.array([2.0 ** -k for k in range(1, 55)] + [1.0 - 2.0 ** -k for k in range(1, 54)]
                 + [y for c in (e2, 1.0 - e2, math.exp(-32.0), 1.0 - math.exp(-32.0))
                    for y in _ulps_around(c, 8)] + far)
    assert _same_bits(rng._ndtri(u), ndtri(u))


def test_the_tail_logs_take_arguments_where_clog_is_the_c_library_log():
    # glibc's clog uses log1p for |x| in [0.5, 2); the tail's arguments are
    # y in [2^-54, e^-2] and x = sqrt(-2 log y) in [2, 8.66]
    assert math.sqrt(-2.0 * math.log(rng._EXP_M2)) == 2.0
    assert math.sqrt(-2.0 * math.log(2.0 ** -54)) < 8.66
    ys = np.geomspace(2.0 ** -54, rng._EXP_M2, 4001)
    xs = np.sqrt(-2.0 * np.array([math.log(y) for y in ys]))
    for args in (ys, xs):
        assert _same_bits(rng._clib_log(args), [math.log(a) for a in args])


def test_normal_moments():
    z = rng.normal_stream(123, 0, 200_000)
    assert abs(z.mean()) < 3.0 / np.sqrt(len(z))
    assert abs(z.var() - 1.0) < 3.0 * np.sqrt(2.0 / len(z))


def test_different_seeds_differ():
    a = rng.uniform_stream(1, 0, 16)
    b = rng.uniform_stream(2, 0, 16)
    assert not np.array_equal(a, b)


def test_derive_seed_is_stable_and_tag_sensitive():
    assert rng.derive_seed(5, 1, 2) == rng.derive_seed(5, 1, 2)
    assert rng.derive_seed(5, 1, 2) != rng.derive_seed(5, 2, 1)
    assert rng.derive_seed(5) != rng.derive_seed(6)


def test_generator_reproducible():
    g1 = rng.generator(99, 0xAB).standard_normal(10)
    g2 = rng.generator(99, 0xAB).standard_normal(10)
    assert np.array_equal(g1, g2)


def test_aligned():
    assert [rng.aligned(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [4, 4, 4, 4, 8, 8, 12]
