"""Measure kit: exact/sliced W1, moments, path functionals, pooling
mixtures, and path-directory round trips."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hilbert_mfg import measures
from hilbert_mfg.tables import write_table
from hilbert_mfg.measures import (
    Dirac,
    MeasurePath,
    ParticleMeasure,
    ProductGaussian,
    mixture_paths,
    path_from_dir,
    path_modulus,
    path_sup_distance,
    path_to_dir,
    w1_method,
    wasserstein1,
    wasserstein1_sliced,
    _pool_indices,
)


def cloud(gen, M, N, scale=1.0, shift=0.0):
    return ParticleMeasure(shift + scale * gen.standard_normal((M, N)))


def stacked(times, clouds):
    """The path through the given clouds of one particle count."""
    return MeasurePath(times=np.asarray(times, dtype=float),
                       points=np.stack([c.points for c in clouds]))


# ---------------------------------------------------------------------------
# wasserstein1


def test_w1_identity():
    gen = np.random.default_rng(0)
    mu = cloud(gen, 32, 2)
    assert wasserstein1(mu, mu) == 0.0


def test_w1_dirac_pair():
    mu = ParticleMeasure([[0.0, 0.0]])
    nu = ParticleMeasure([[1.5, 2.0]])  # |x| = 2.5
    assert wasserstein1(mu, nu) == pytest.approx(2.5, rel=1e-15)


def test_w1_two_point_brute_force():
    # supports {0, 1} vs {0.5, 1.5}: identity pairing costs 0.5, crossed costs 1.0
    mu = ParticleMeasure([[0.0], [1.0]])
    nu = ParticleMeasure([[0.5], [1.5]])
    assert wasserstein1(mu, nu) == pytest.approx(0.5, rel=1e-15)


def test_w1_metric_properties():
    gen = np.random.default_rng(11)
    for _ in range(20):
        a = cloud(gen, 24, 2, scale=gen.uniform(0.5, 2.0))
        b = cloud(gen, 24, 2, shift=gen.uniform(-1, 1))
        c = cloud(gen, 24, 2, scale=0.7, shift=gen.uniform(-1, 1))
        dab, dba = wasserstein1(a, b), wasserstein1(b, a)
        assert abs(dab - dba) < 1e-12
        assert wasserstein1(a, c) <= dab + wasserstein1(b, c) + 1e-9


def test_w1_matches_sorted_formula_in_1d():
    gen = np.random.default_rng(5)
    for _ in range(100):
        M = int(gen.integers(2, 40))
        a = gen.normal(gen.uniform(-1, 1), gen.uniform(0.2, 2.0), (M, 1))
        b = gen.normal(gen.uniform(-1, 1), gen.uniform(0.2, 2.0), (M, 1))
        exact = wasserstein1(ParticleMeasure(a), ParticleMeasure(b))
        sorted_formula = np.mean(np.abs(np.sort(a[:, 0]) - np.sort(b[:, 0])))
        assert exact == pytest.approx(sorted_formula, abs=1e-10)


def test_w1_unequal_counts_lcm_replication():
    mu = ParticleMeasure([[0.0], [1.0]])
    nu = ParticleMeasure([[0.0], [0.5], [1.0]])
    # lcm = 6; sorted coupling of the replicated clouds
    a = np.sort(np.repeat([0.0, 1.0], 3))
    b = np.sort(np.repeat([0.0, 0.5, 1.0], 2))
    assert wasserstein1(mu, nu) == pytest.approx(np.mean(np.abs(a - b)), abs=1e-12)


def test_w1_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        wasserstein1(ParticleMeasure([[0.0]]), ParticleMeasure([[0.0, 1.0]]))


def test_empty_measure_rejected():
    with pytest.raises(ValueError):
        ParticleMeasure(np.empty((0, 1)))
    with pytest.raises(ValueError):
        ParticleMeasure([[np.nan]])


# ---------------------------------------------------------------------------
# sliced W1


def test_sliced_identity_and_determinism():
    gen = np.random.default_rng(2)
    mu = cloud(gen, 64, 2)
    nu = cloud(gen, 64, 2, shift=0.3)
    assert wasserstein1_sliced(mu, mu, projections=8, seed=0) == 0.0
    d1 = wasserstein1_sliced(mu, nu, projections=16, seed=42)
    d2 = wasserstein1_sliced(mu, nu, projections=16, seed=42)
    assert d1 == d2
    assert d1 != wasserstein1_sliced(mu, nu, projections=16, seed=43)


def test_sliced_equals_sorted_w1_in_1d():
    gen = np.random.default_rng(3)
    for P in (1, 7, 32):
        a = cloud(gen, 50, 1, scale=1.3)
        b = cloud(gen, 50, 1, shift=0.7)
        sliced = wasserstein1_sliced(a, b, projections=P, seed=P)
        assert sliced == pytest.approx(wasserstein1(a, b), rel=1e-12)


# ---------------------------------------------------------------------------
# moments


def test_moments_trivial_cases():
    delta0 = ParticleMeasure([[0.0, 0.0]])
    assert delta0.mode_second_moment(1) == 0.0
    assert delta0.norm_fourth_moment() == 0.0
    two = ParticleMeasure([[1.0], [-1.0]])
    assert two.mode_second_moment(1) == 1.0
    assert two.norm_fourth_moment() == 1.0
    with pytest.raises(IndexError):
        two.mode_second_moment(2)


def test_moments_gaussian_sample():
    m0 = ProductGaussian(mean=[0.0], var=[1.0])
    M = 100_000
    mu = ParticleMeasure(m0.sample(M, seed=314))
    assert mu.mode_second_moment(1) == pytest.approx(1.0, abs=3.0 * np.sqrt(2.0 / M))


def test_product_gaussian_fourth_moment_closed_form():
    m0 = ProductGaussian(mean=[0.3, -0.2], var=[0.5, 1.2])
    M = 400_000
    pts = m0.sample(M, seed=99)
    mc = np.mean(np.sum(pts ** 2, axis=1) ** 2)
    se = np.std(np.sum(pts ** 2, axis=1) ** 2) / np.sqrt(M)
    assert m0.norm_fourth_moment() == pytest.approx(mc, abs=4.0 * se)


def test_dirac_and_empirical_moments():
    d = Dirac([1.0, 2.0])
    assert d.mode_second_moment(2) == 4.0
    assert d.norm_fourth_moment() == 25.0
    e = ParticleMeasure([[1.0, 0.0], [0.0, 2.0]])
    assert e.mode_second_moment(1) == 0.5
    assert e.norm_fourth_moment() == pytest.approx((1.0 + 16.0) / 2.0)


def test_initial_law_sampling_deterministic():
    m0 = ProductGaussian(mean=[0.1], var=[0.4])
    assert np.array_equal(m0.sample(100, seed=5), m0.sample(100, seed=5))
    assert not np.array_equal(m0.sample(100, seed=5), m0.sample(100, seed=6))
    d = Dirac([1.0, -2.0])
    assert np.array_equal(d.sample(7, seed=1), np.tile([1.0, -2.0], (7, 1)))


# ---------------------------------------------------------------------------
# path functionals


def dirac_path(times, positions):
    return MeasurePath(times=np.asarray(times, dtype=float),
                       points=np.asarray(positions, dtype=float)[:, None, None])


def test_path_sup_distance_trivial_and_dirac():
    times = np.linspace(0.0, 1.0, 5)
    x = [0.0, 0.1, 0.3, 0.2, 0.0]
    y = [0.0, 0.4, 0.1, 0.2, 0.5]
    p1, p2 = dirac_path(times, x), dirac_path(times, y)
    assert path_sup_distance(p1, p1) == 0.0
    expected = max(abs(a - b) for a, b in zip(x, y))
    assert path_sup_distance(p1, p2) == pytest.approx(expected, rel=1e-15)


def test_path_sup_distance_mesh_mismatch():
    p1 = dirac_path([0.0, 1.0], [0.0, 0.0])
    p2 = dirac_path([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        path_sup_distance(p1, p2)


def test_path_sup_distance_follows_the_w1_method_rule():
    # one mode: the sorted coupling at any count
    assert w1_method(1, 32, 512) == w1_method(1, 600, 512) == "exact"
    assert w1_method(2, 512, 512) == "exact"
    assert w1_method(2, 513, 512) == "sliced"
    gen = np.random.default_rng(4)
    times = np.array([0.0, 1.0])
    for M, want in ((40, wasserstein1), (600, wasserstein1_sliced)):
        m1 = stacked(times, [cloud(gen, M, 2), cloud(gen, M, 2)])
        m2 = stacked(times, [cloud(gen, M, 2, shift=0.5), cloud(gen, M, 2)])
        assert path_sup_distance(m1, m2, exact_budget=512) == max(
            want(a, b) for a, b in zip(m1.measures, m2.measures))


def test_two_mode_sliced_path_sup_distance_draws_directions_once(monkeypatch):
    """Above the budget the paths' 11 mesh-time pairs share one draw of
    directions and sort each of their 22 clouds once."""
    gen = np.random.default_rng(6)
    m1, m2 = (MeasurePath(times=np.linspace(0.0, 1.0, 11),
                          points=gen.standard_normal((11, 40, 2))) for _ in range(2))
    calls = {"_sorted_profile": 0, "_slice_directions": 0}
    for name in calls:
        def counted(*args, name=name, inner=getattr(measures, name)):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(measures, name, counted)
    path_sup_distance(m1, m2, exact_budget=16, projections=8)
    assert calls == {"_sorted_profile": 22, "_slice_directions": 1}


# coordinates mix a continuum with a few repeated values, so clouds tie
_COORDS = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([-1.5, 0.0, 0.25, 2.0]))


@st.composite
def one_mode_paths(draw):
    """Two 1-D paths over three mesh times, at most 200 points per cloud;
    each path has one particle count, the two counts share a factor, so
    unequal counts meet by exact lcm replication."""
    base = draw(st.integers(1, 50))
    return [draw(arrays(np.float64, (3, base * draw(st.integers(1, 4)), 1),
                        elements=_COORDS))
            for _ in range(2)]


def sorted_gap_1d(mu, nu):
    """1-D W1 written out: the mean gap of the sorted coordinates, unequal
    counts replicated to their lcm."""
    common = math.lcm(mu.M, nu.M)
    x = np.repeat(mu.points[:, 0], common // mu.M)
    y = np.repeat(nu.points[:, 0], common // nu.M)
    return np.abs(np.sort(x) - np.sort(y)).mean()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(paths=one_mode_paths(), budget=st.sampled_from([1, 512]))
def test_one_mode_path_distances_match_assignment(paths, budget):
    times = np.array([0.0, 0.5, 1.0])
    first, second = (MeasurePath(times=times, points=p) for p in paths)
    a, b = first.measures, second.measures
    sup = path_sup_distance(first, second, exact_budget=budget)
    assert sup == pytest.approx(max(wasserstein1(x, y) for x, y in zip(a, b)), abs=1e-12)
    table = path_modulus(first, exact_budget=budget)
    assert table.method == "exact"
    pairs = [(0, 1), (0, 2), (1, 2)]
    np.testing.assert_allclose(
        table.dists, [wasserstein1(a[i], a[j]) for i, j in pairs], rtol=0, atol=1e-12)
    # the one-direction profile keeps the bits of the 1-D sort
    assert sup == max(sorted_gap_1d(x, y) for x, y in zip(a, b))
    assert table.dists.tolist() == [sorted_gap_1d(a[i], a[j]) for i, j in pairs]


def ou_trajectory_path(n_steps, M=128, lam=-1.0, horizon=1.0, seed=17):
    """Driftless OU trajectories from delta_0 sampled on a uniform mesh."""
    gen = np.random.default_rng(seed)
    h = horizon / n_steps
    q = -np.expm1(2.0 * lam * h) / (2.0 * abs(lam))
    x = np.zeros((M, 1))
    slices = [x.copy()]
    for _ in range(n_steps):
        x = np.exp(lam * h) * x + np.sqrt(q) * gen.standard_normal((M, 1))
        slices.append(x.copy())
    times = np.linspace(0.0, horizon, n_steps + 1)
    return MeasurePath(times=times, points=np.stack(slices))


def test_path_modulus_constant_and_ou():
    const = MeasurePath(times=np.linspace(0.0, 1.0, 6),
                        points=np.broadcast_to([[1.0], [2.0]], (6, 2, 1)))
    table = path_modulus(const)
    assert np.all(table.dists == 0.0) and table.constant == 0.0

    # OU path: envelope constant finite and stable when the mesh is refined
    # (the coarse mesh is a sub-mesh of the fine one, so pairs are nested).
    fine = ou_trajectory_path(40)
    coarse = MeasurePath(times=fine.times[::2], points=fine.points[::2])
    c_coarse = path_modulus(coarse, max_pairs=2000).constant
    c_fine = path_modulus(fine, max_pairs=2000).constant
    assert np.isfinite(c_fine)
    assert c_coarse <= c_fine <= 2.0 * c_coarse


def test_path_modulus_jump_blows_up():
    def jump_path(n):
        times = np.linspace(0.0, 1.0, n + 1)
        return dirac_path(times, [0.0 if t < 0.5 else 1.0 for t in times])

    c_coarse = path_modulus(jump_path(10), max_pairs=5000).constant
    c_fine = path_modulus(jump_path(40), max_pairs=5000).constant
    assert c_fine >= 1.5 * c_coarse


@st.composite
def small_paths(draw):
    """A path of N in {1, 2, 3} modes, 2 to 8 mesh times and at most 64
    particles, on a mesh whose time gaps differ pairwise."""
    n_times = draw(st.integers(2, 8))
    shape = (n_times, draw(st.integers(1, 64)), draw(st.integers(1, 3)))
    points = draw(arrays(np.float64, shape, elements=_COORDS))
    return MeasurePath(times=np.cumsum(np.r_[0.0, 2.0 ** np.arange(n_times - 1)]),
                       points=points)


def direction_major_sliced(mu, nu, projections, seed):
    """The sliced surrogate written in the (P, M) layout: both clouds'
    projections `dirs @ points.T`, each row sorted, the gaps averaged."""
    dirs = measures._slice_directions(seed, projections, mu.N)
    mu, nu = measures._common_size(mu, nu, seed)
    a, b = dirs @ mu.points.T, dirs @ nu.points.T
    a.sort(axis=-1)
    b.sort(axis=-1)
    return float(np.abs(a - b).mean())


def assert_modulus_matches_dispatcher(path, table, budget, projections, seed):
    """Each tabulated distance is, bit for bit, the written-out W1 its
    method names: the sorted 1-D gap on one mode, assignment within the
    budget, the direction-major sliced formula beyond.  The pairs are
    recovered from the pairwise-distinct time gaps and must come in (i, j)
    order."""
    J = len(path.times)
    pair_of = {path.times[j] - path.times[i]: (i, j) for i in range(J) for j in range(i + 1, J)}
    pairs = [pair_of[g] for g in table.gaps]
    assert pairs == sorted(set(pairs))
    assert table.method == w1_method(path.N, path.M, budget)
    if table.method == "sliced":
        oracle = lambda mu, nu: direction_major_sliced(mu, nu, projections, seed)
    else:
        oracle = sorted_gap_1d if path.N == 1 else wasserstein1
    want = [oracle(path.measures[i], path.measures[j]) for i, j in pairs]
    assert table.dists.tolist() == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(path=small_paths(), budget=st.sampled_from([1, 512]), seed=st.integers(0, 3))
def test_path_modulus_matches_the_dispatcher_pair_by_pair(path, budget, seed):
    table = path_modulus(path, exact_budget=budget, projections=16, seed=seed)
    assert len(table.dists) == len(path.times) * (len(path.times) - 1) // 2
    assert_modulus_matches_dispatcher(path, table, budget, 16, seed)


@st.composite
def sliced_path_pairs(draw):
    """Two paths of N in {2, 3} modes over 5 to 7 mesh times whose time
    gaps differ pairwise.  Their particle counts may differ, with lcm
    replication and the bootstrap beyond the common-size cap both
    reached; coordinates are rounded to a drawn number of decimals, so
    some tie."""
    n_times, n_modes = draw(st.integers(5, 7)), draw(st.integers(2, 3))
    times = np.cumsum(np.r_[0.0, 2.0 ** np.arange(n_times - 1)])
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    decimals = draw(st.integers(0, 6))
    return [MeasurePath(times=times,
                        points=np.round(gen.standard_normal((n_times, M, n_modes)), decimals))
            for M in draw(st.lists(st.sampled_from([1, 7, 48, 89, 97, 300, 1000]),
                                   min_size=2, max_size=2))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(paths=sliced_path_pairs(), projections=st.integers(1, 64), seed=st.integers(0, 3))
def test_sliced_distances_equal_the_direction_major_formula(paths, projections, seed):
    """Every sliced distance is, bit for bit, the direction-major formula."""
    m1, m2 = paths
    want = [direction_major_sliced(a, b, projections, seed)
            for a, b in zip(m1.measures, m2.measures)]
    assert [wasserstein1_sliced(a, b, projections=projections, seed=seed)
            for a, b in zip(m1.measures, m2.measures)] == want
    assert path_sup_distance(m1, m2, exact_budget=0, projections=projections,
                             seed=seed) == max(want)
    J = len(m1.times)
    table = path_modulus(m1, exact_budget=0, projections=projections, seed=seed)
    assert table.method == "sliced"
    assert table.dists.tolist() == [
        direction_major_sliced(m1.measures[i], m1.measures[j], projections, seed)
        for i in range(J) for j in range(i + 1, J)]


def test_subsampled_path_modulus_matches_the_dispatcher():
    gen = np.random.default_rng(8)
    times = np.cumsum(np.r_[0.0, 2.0 ** np.arange(13)])
    path = MeasurePath(times=times, points=gen.standard_normal((14, 50, 2)).cumsum(axis=0))
    table = path_modulus(path, max_pairs=20, exact_budget=1, projections=8, seed=5)
    assert len(table.dists) == 20
    assert_modulus_matches_dispatcher(path, table, 1, 8, 5)


def test_path_modulus_input_checks():
    path = stacked([0.0, 1.0], [cloud(np.random.default_rng(2), 8, 2)] * 2)
    with pytest.raises(ValueError, match="need at least one projection"):
        path_modulus(path, exact_budget=1, projections=0)
    with pytest.raises(ValueError, match="max_pairs"):
        path_modulus(path, max_pairs=0)


def test_sliced_modulus_sorts_each_time_once_per_block_in_a_small_working_set(monkeypatch):
    M, P = 4000, 64
    gen = np.random.default_rng(11)
    path = MeasurePath(times=np.linspace(0.0, 1.0, 11),
                       points=gen.standard_normal((11, M, 2)).cumsum(axis=0))
    profile = M * P * 8  # bytes of one (M, P) float64 profile

    def peak_bytes(call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    # two row profiles, one streamed time and the gap buffer; caching every
    # time would hold 11, and sorting per pair peaked at 4
    assert peak_bytes(lambda: path_modulus(path, exact_budget=512, projections=P)) <= 5 * profile
    # the two profiles, the gap written into the streamed one
    assert peak_bytes(lambda: wasserstein1_sliced(*path.measures[:2], projections=P)) \
        <= 2.1 * profile
    # one pair at a time, the same two profiles
    assert peak_bytes(lambda: path_sup_distance(path, path, exact_budget=512,
                                                projections=P)) <= 2.1 * profile

    sorted_profile = measures._sorted_profile
    calls = []
    monkeypatch.setattr(measures, "_sorted_profile",
                        lambda *args: calls.append(1) or sorted_profile(*args))
    table = path_modulus(path, exact_budget=512, projections=P)
    assert len(table.dists) == 55 and table.method == "sliced"
    # blocks {0, 1}, ..., {8, 9}: 11 + 9 + 7 + 5 + 3 sorts, not 2 per pair
    assert len(calls) == 35


# ---------------------------------------------------------------------------
# pooling mixtures


def test_mixture_counts_and_determinism():
    gen = np.random.default_rng(6)
    a, b = cloud(gen, 10, 1, shift=10.0), cloud(gen, 10, 1, shift=-10.0)
    pa, pb = stacked([0.0], [a]), stacked([0.0], [b])
    mix = mixture_paths(pa, pb, lam=0.25, seed=9).measures[0]
    assert mix.M == 10
    assert int(np.sum(mix.points > 0)) == 3  # ceil(0.25 * 10)
    assert np.array_equal(mix.points, mixture_paths(pa, pb, lam=0.25, seed=9).points[0])


def test_mixture_convexity_estimate():
    # d1(lam mu1 + (1-lam) mu2, lam nu1 + (1-lam) nu2)
    #   <= lam d1(mu1, nu1) + (1-lam) d1(mu2, nu2)
    # on mixtures realized by exact proportional-count pooling (full clouds
    # concatenated with multiplicities a : b, lam = a / (a+b)).
    gen = np.random.default_rng(31)
    for a_count, b_count in [(1, 3), (1, 1), (3, 1), (2, 3)]:
        lam = a_count / (a_count + b_count)
        mu1, mu2 = cloud(gen, 48, 2), cloud(gen, 48, 2, shift=0.5)
        nu1, nu2 = cloud(gen, 48, 2, scale=1.5), cloud(gen, 48, 2, shift=-0.3)
        mix_mu = ParticleMeasure(
            np.vstack([np.repeat(mu1.points, a_count, axis=0), np.repeat(mu2.points, b_count, axis=0)])
        )
        mix_nu = ParticleMeasure(
            np.vstack([np.repeat(nu1.points, a_count, axis=0), np.repeat(nu2.points, b_count, axis=0)])
        )
        lhs = wasserstein1(mix_mu, mix_nu)
        rhs = lam * wasserstein1(mu1, nu1) + (1.0 - lam) * wasserstein1(mu2, nu2)
        assert lhs <= rhs + 1e-9
        # the iteration's subsampled pooling deviates only at noise level; report it
        sub = wasserstein1(
            mixture_paths(stacked([0.0], [mu1]), stacked([0.0], [mu2]), lam, seed=1).measures[0],
            mixture_paths(stacked([0.0], [nu1]), stacked([0.0], [nu2]), lam, seed=2).measures[0])
        print("pooling: exact mixture lhs=%.4f rhs=%.4f subsampled=%.4f" % (lhs, rhs, sub))


def test_mixture_paths_time_coherent():
    times = np.linspace(0.0, 1.0, 4)
    gen = np.random.default_rng(12)
    base_a, base_b = gen.standard_normal((8, 1)), 5.0 + gen.standard_normal((8, 1))
    pa = MeasurePath(times=times, points=[base_a + t for t in times])
    pb = MeasurePath(times=times, points=[base_b + t for t in times])
    mix = mixture_paths(pa, pb, lam=0.5, seed=3)
    # same index selection at every time: slice differences are the constant time shift
    d01 = mix.measures[1].points - mix.measures[0].points
    assert np.allclose(d01, times[1] - times[0])


def test_mixture_paths_equal_the_per_time_vstack():
    gen = np.random.default_rng(8)
    times = np.linspace(0.0, 1.0, 5)
    for M, N, lam in ((1, 1, 0.5), (7, 2, 0.3), (40, 3, 0.75), (12, 1, 1.0)):
        pa = MeasurePath(times=times, points=gen.standard_normal((5, M, N)))
        pb = MeasurePath(times=times, points=gen.standard_normal((5, M, N)))
        mix = mixture_paths(pa, pb, lam, seed=M)
        ia, ib = _pool_indices(M, lam, seed=M)
        for j in range(len(times)):
            assert np.array_equal(mix.points[j],
                                  np.vstack([pa.points[j][ia], pb.points[j][ib]]))


@pytest.mark.parametrize("lam", [1.5, -0.5, float("nan")])
def test_mixture_refuses_a_share_outside_the_unit_interval(lam):
    pa = MeasurePath(times=[0.0], points=np.zeros((1, 10, 1)))
    with pytest.raises(ValueError, match="^lam: must lie in \\[0, 1\\]"):
        mixture_paths(pa, pa, lam)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_mixture_at_the_ends_keeps_the_particle_count(lam):
    gen = np.random.default_rng(5)
    pa, pb = (MeasurePath(times=[0.0], points=gen.standard_normal((1, 10, 1)))
              for _ in range(2))
    mix = mixture_paths(pa, pb, lam, seed=2)
    assert mix.M == 10
    whole = pa if lam == 1.0 else pb
    assert np.array_equal(np.sort(mix.points, axis=1), np.sort(whole.points, axis=1))


# ---------------------------------------------------------------------------
# Round trips


@pytest.mark.parametrize("table", [
    np.array([0.1, -0.0, 1e-300, 1e300, -2.5]),
    np.array([[1.0, -0.0, 1e-300]]),
    np.array([[1e300, -1e-300], [0.1, 1.0 / 3.0], [-0.0, 2.0 ** -1074]]),
    np.random.default_rng(3).standard_normal((40, 3)),
], ids=["1d", "one-row", "extremes", "random"])
def test_write_table_bytes_equal_savetxt(tmp_path, table):
    header = ",".join("c%d" % k for k in range(1 if table.ndim == 1 else table.shape[1]))
    write_table(tmp_path / "fast.csv", header, table)
    np.savetxt(tmp_path / "slow.csv", table, fmt="%.17g", delimiter=",", header=header,
               comments="")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def test_path_dir_roundtrip(tmp_path):
    for N in (1, 2, 3):
        points = np.random.default_rng(N).standard_normal((6, 16, N))
        points[1, 0] = -0.0
        points[2, 1] = 1e-300
        points[3, 2] = 2.0 ** -1074
        path = MeasurePath(times=np.linspace(0.0, 1.0, 6), points=points)
        d, again = tmp_path / ("path%d" % N), tmp_path / ("again%d" % N)
        path_to_dir(path, d)
        path_to_dir(path, again)
        assert {f.name for f in d.iterdir()} == {"times.csv", "points.npy"}
        for name in ("times.csv", "points.npy"):
            assert (d / name).read_bytes() == (again / name).read_bytes()
        back = path_from_dir(d)
        assert np.array_equal(back.times, path.times)
        assert back.points.dtype == np.float64
        assert back.points.tobytes() == path.points.tobytes()  # -0.0 and subnormals too
        assert not back.points.flags.writeable
