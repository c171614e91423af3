"""Measure kit: exact/sliced W1, moments, path functionals, pooling
mixtures, and path-directory round trips."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hilbert_mfg import measures
from hilbert_mfg.spectrum import SpectrumSpec, covariance_qk
from hilbert_mfg.tables import write_rows, write_table
from hilbert_mfg.measures import (
    Dirac,
    MeasurePath,
    ParticleMeasure,
    ProductGaussian,
    mixture_paths,
    path_from_dir,
    path_modulus,
    path_sup_distance,
    path_sup_distances,
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


def zero_path(M, N=1):
    """A path of M particles at the origin of N modes over two mesh times."""
    return MeasurePath(times=[0.0, 1.0], points=np.zeros((2, M, N)))


@pytest.mark.parametrize("distance", [
    lambda a, b: wasserstein1(a.measures[0], b.measures[0]),
    lambda a, b: wasserstein1_sliced(a.measures[0], b.measures[0]),
    path_sup_distance,
    lambda a, b: mixture_paths(a, b, 0.5),
], ids=["wasserstein1", "wasserstein1_sliced", "path_sup_distance", "mixture_paths"])
def test_distances_refuse_unequal_particle_counts(distance):
    with pytest.raises(ValueError, match="particle count mismatch: 2 vs 3"):
        distance(zero_path(2), zero_path(3))


def test_w1_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        wasserstein1(ParticleMeasure([[0.0]]), ParticleMeasure([[0.0, 1.0]]))


def test_empty_measure_rejected():
    with pytest.raises(ValueError):
        ParticleMeasure(np.empty((0, 1)))
    with pytest.raises(ValueError):
        ParticleMeasure([[np.nan]])


@pytest.mark.parametrize("times", [[0.0, float("nan"), 1.0], [0.0, 1.0, float("inf")]],
                         ids=["nan", "inf"])
def test_measure_path_refuses_non_finite_times(times):
    with pytest.raises(ValueError, match="times must start at 0 and increase strictly"):
        MeasurePath(times=times, points=np.zeros((3, 2, 1)))


def test_measure_path_refuses_a_nan_time():
    """A NaN time is nearest to no mesh point: index_at and at_time refuse
    it, alone or among finite times, rather than read the t = 0 measure."""
    path = MeasurePath(times=[0.0, 0.5, 1.0], points=np.arange(3.0).reshape(3, 1, 1))
    assert path.at_time(0.9) is path.measures[2]
    for t in (float("nan"), np.array([0.2, np.nan, 0.9])):
        with pytest.raises(ValueError, match="time is NaN"):
            path.index_at(t)
    with pytest.raises(ValueError, match="time is NaN"):
        path.at_time(float("nan"))


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


def test_product_gaussian_refuses_a_nan_variance():
    # a nan passes a plain var < 0 check, and propagate then blames step 0
    with pytest.raises(ValueError, match="var must be finite"):
        ProductGaussian(mean=[0.0], var=[np.nan])


def test_product_gaussian_refuses_an_infinite_mean():
    with pytest.raises(ValueError, match="mean must be finite"):
        ProductGaussian(mean=[np.inf], var=[1.0])


def test_dirac_refuses_a_nan_point():
    with pytest.raises(ValueError, match="mean must be finite"):
        Dirac([np.nan])


def test_a_point_mass_is_a_zero_variance_product_gaussian():
    p = np.array([0.7, -1.3])
    d = Dirac(p)
    assert isinstance(d, ProductGaussian) and d.var.tolist() == [0.0, 0.0]
    assert d.sample(1001, seed=5).tobytes() == np.tile(p, (1001, 1)).tobytes()


@pytest.mark.parametrize("law", [lambda: ProductGaussian(mean=[], var=[]), lambda: Dirac([])],
                         ids=["product-gaussian", "dirac"])
def test_an_initial_law_refuses_zero_modes(law):
    # sample would otherwise die in the normal stream
    with pytest.raises(ValueError, match="at least one mode"):
        law()


def test_every_mode_index_check_names_the_range():
    spec = SpectrumSpec(eigenvalues=(-1.0, -2.0))
    for check in (lambda k: covariance_qk(spec, k, 0.5),
                  ParticleMeasure([[1.0, 2.0]]).mode_second_moment,
                  Dirac([1.0, 2.0]).mode_second_moment):
        assert check(2) == check(np.int64(2)) == check(2.0) >= 0.0
        for k in (0, 3, 1.5):
            with pytest.raises(IndexError, match=r"mode index %s out of range 1\.\.2" % k):
                check(k)


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


def count_sorted_clouds(monkeypatch):
    """Patch the sorting kernel to count, per unit direction, the clouds it
    sorts; returns the dict it fills."""
    sort_projections, counts = measures._sorted_projections, {}

    def counted(points, direction):
        key = tuple(direction)
        counts[key] = counts.get(key, 0) + len(points)
        return sort_projections(points, direction)

    monkeypatch.setattr(measures, "_sorted_projections", counted)
    return counts


def test_two_mode_sliced_path_sup_distance_draws_directions_once(monkeypatch):
    """Above the budget the paths' 11 mesh-time pairs share one draw of
    directions, and each direction sorts each of their 22 clouds once."""
    gen = np.random.default_rng(6)
    m1, m2 = (MeasurePath(times=np.linspace(0.0, 1.0, 11),
                          points=gen.standard_normal((11, 40, 2))) for _ in range(2))
    draws = []
    slice_directions = measures._slice_directions
    monkeypatch.setattr(measures, "_slice_directions",
                        lambda *args: draws.append(1) or slice_directions(*args))
    counts = count_sorted_clouds(monkeypatch)
    path_sup_distance(m1, m2, exact_budget=16, projections=8)
    assert len(draws) == 1 and list(counts.values()) == [22] * 8


@pytest.mark.parametrize("M, N, budget", [(30, 1, 8), (40, 2, 16), (40, 2, 512)],
                         ids=["one-mode", "two-mode-sliced", "two-mode-exact"])
def test_path_sup_distances_equal_one_path_at_a_time(M, N, budget):
    """One call against several paths returns, bit for bit, what one call
    per path at the same seed returns."""
    gen = np.random.default_rng(7)
    ref, a, b = (MeasurePath(times=np.linspace(0.0, 1.0, 4),
                             points=gen.standard_normal((4, M, N)) + shift)
                 for shift in (0.0, 0.3, -0.5))
    for seed in (0, 5):
        got = path_sup_distances(ref, [a, b], exact_budget=budget, projections=8, seed=seed)
        assert got == [path_sup_distance(ref, other, exact_budget=budget, projections=8,
                                         seed=seed) for other in (a, b)]


@pytest.mark.parametrize("N, budget", [(1, 512), (2, 4), (2, 512)],
                         ids=["one-mode", "two-mode-sliced", "two-mode-exact"])
def test_path_sup_distances_against_no_other_path_is_empty(N, budget):
    ref = MeasurePath(times=np.linspace(0.0, 1.0, 3),
                      points=np.random.default_rng(3).standard_normal((3, 8, N)))
    assert path_sup_distances(ref, [], exact_budget=budget, projections=4) == []


def test_path_sup_distances_check_every_other_path():
    times = np.linspace(0.0, 1.0, 3)
    ref = MeasurePath(times=times, points=np.zeros((3, 2, 1)))
    fine = MeasurePath(times=np.linspace(0.0, 1.0, 5), points=np.zeros((5, 2, 1)))
    for bad, message in ((fine, "paths live on different meshes"),
                         (MeasurePath(times=times, points=np.zeros((3, 3, 1))),
                          "particle count mismatch: 2 vs 3"),
                         (MeasurePath(times=times, points=np.zeros((3, 2, 2))),
                          "mode count mismatch: 1 vs 2")):
        with pytest.raises(ValueError, match=message):
            path_sup_distances(ref, [ref, bad])


# coordinates mix a continuum with a few repeated values, so clouds tie
_COORDS = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([-1.5, 0.0, 0.25, 2.0]))


@st.composite
def one_mode_paths(draw):
    """Two 1-D paths over three mesh times of one particle count, at most
    200 points per cloud."""
    M = draw(st.integers(1, 50)) * draw(st.integers(1, 4))
    return [draw(arrays(np.float64, (3, M, 1), elements=_COORDS)) for _ in range(2)]


def sorted_gap_1d(mu, nu):
    """1-D W1 written out: the mean gap of the sorted coordinates."""
    return np.abs(np.sort(mu.points[:, 0]) - np.sort(nu.points[:, 0])).mean()


def pair_distance(path, i, j, budget, projections=64, seed=0):
    """d_1(path(t_i), path(t_j)) from the public path sup: the two clouds as
    one-time paths."""
    def one(c):
        return MeasurePath(times=[0.0], points=path.points[c:c + 1])
    return path_sup_distance(one(i), one(j), exact_budget=budget, projections=projections,
                             seed=seed)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(paths=one_mode_paths(), budget=st.sampled_from([1, 512]))
def test_one_mode_path_distances_match_assignment(paths, budget):
    times = np.array([0.0, 0.5, 1.0])
    first, second = (MeasurePath(times=times, points=p) for p in paths)
    a, b = first.measures, second.measures
    sup = path_sup_distance(first, second, exact_budget=budget)
    assert sup == pytest.approx(max(wasserstein1(x, y) for x, y in zip(a, b)), abs=1e-12)
    method = w1_method(first.N, first.M, budget)
    assert method == "exact"
    pairs = [(0, 1), (0, 2), (1, 2)]
    dists = np.array([pair_distance(first, i, j, budget) for i, j in pairs])
    np.testing.assert_allclose(
        dists, [wasserstein1(a[i], a[j]) for i, j in pairs], rtol=0, atol=1e-12)
    # the one direction keeps the bits of the 1-D sort
    assert sup == max(sorted_gap_1d(x, y) for x, y in zip(a, b))
    assert dists.tolist() == [sorted_gap_1d(a[i], a[j]) for i, j in pairs]
    g = np.array([0.5, 1.0, 0.5])
    assert path_modulus(first, exact_budget=budget) == np.max(dists / (np.sqrt(g) + g))


def ou_trajectory_path(n_steps, M=128, lam=-1.0, horizon=1.0, seed=17, n_modes=1):
    """Driftless OU trajectories from delta_0 sampled on a uniform mesh."""
    gen = np.random.default_rng(seed)
    h = horizon / n_steps
    q = -np.expm1(2.0 * lam * h) / (2.0 * abs(lam))
    x = np.zeros((M, n_modes))
    slices = [x.copy()]
    for _ in range(n_steps):
        x = np.exp(lam * h) * x + np.sqrt(q) * gen.standard_normal((M, n_modes))
        slices.append(x.copy())
    times = np.linspace(0.0, horizon, n_steps + 1)
    return MeasurePath(times=times, points=np.stack(slices))


def test_path_modulus_constant_and_ou():
    const = MeasurePath(times=np.linspace(0.0, 1.0, 6),
                        points=np.broadcast_to([[1.0], [2.0]], (6, 2, 1)))
    assert path_modulus(const) == 0.0

    # OU path: envelope constant finite and stable when the mesh is refined
    # (the coarse mesh is a sub-mesh of the fine one, so pairs are nested).
    fine = ou_trajectory_path(40)
    coarse = MeasurePath(times=fine.times[::2], points=fine.points[::2])
    c_coarse = path_modulus(coarse)
    c_fine = path_modulus(fine)
    assert np.isfinite(c_fine)
    assert c_coarse <= c_fine <= 2.0 * c_coarse


def test_path_modulus_jump_blows_up():
    def jump_path(n):
        times = np.linspace(0.0, 1.0, n + 1)
        return dirac_path(times, [0.0 if t < 0.5 else 1.0 for t in times])

    c_coarse = path_modulus(jump_path(10))
    c_fine = path_modulus(jump_path(40))
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
    """The sliced surrogate written one direction at a time: per unit
    direction both clouds' projections sorted and the sum of their gaps
    added to a total, which is divided once by P M."""
    dirs = measures._slice_directions(seed, projections, mu.N)
    total = 0.0
    for d in dirs:
        total += np.abs(np.sort(mu.points @ d) - np.sort(nu.points @ d)).sum()
    return float(total / (len(dirs) * mu.M))


def assert_modulus_matches_written_out(path, budget, projections, seed):
    """Over every pair of mesh times the public distance is, bit for bit,
    the written-out W1 its method names: the sorted 1-D gap on one mode,
    assignment (`wasserstein1`) within the budget, the direction-major
    sliced formula beyond.  The modulus constant is the envelope of the
    written-out distances of all pairs, bit for bit."""
    J = len(path.times)
    pairs = [(i, j) for i in range(J) for j in range(i + 1, J)]
    method = w1_method(path.N, path.M, budget)
    if method == "sliced":
        oracle = lambda mu, nu: direction_major_sliced(mu, nu, projections, seed)
    else:
        oracle = sorted_gap_1d if path.N == 1 else wasserstein1
    d = [oracle(path.measures[i], path.measures[j]) for i, j in pairs]
    assert [pair_distance(path, i, j, budget, projections, seed) for i, j in pairs] == d
    g = np.array([path.times[j] - path.times[i] for i, j in pairs])
    constant = path_modulus(path, exact_budget=budget, projections=projections, seed=seed)
    assert constant == np.max(np.array(d) / (np.sqrt(g) + g))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(path=small_paths(), budget=st.sampled_from([1, 512]), seed=st.integers(0, 3))
def test_path_modulus_matches_the_written_out_distances_pair_by_pair(path, budget, seed):
    assert_modulus_matches_written_out(path, budget, 16, seed)


@st.composite
def sliced_path_pairs(draw):
    """Two paths of N in {2, 3} modes and one particle count over 5 to 7
    mesh times whose time gaps differ pairwise; coordinates are rounded to
    a drawn number of decimals, so some tie."""
    n_times, n_modes = draw(st.integers(5, 7)), draw(st.integers(2, 3))
    times = np.cumsum(np.r_[0.0, 2.0 ** np.arange(n_times - 1)])
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    decimals = draw(st.integers(0, 6))
    M = draw(st.sampled_from([1, 7, 48, 89, 97, 300, 1000]))
    return [MeasurePath(times=times,
                        points=np.round(gen.standard_normal((n_times, M, n_modes)), decimals))
            for _ in range(2)]


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
    assert w1_method(m1.N, m1.M, 0) == "sliced"
    assert_modulus_matches_written_out(m1, 0, projections, seed)


def test_path_modulus_takes_every_pair_of_a_fine_mesh():
    """A 24-time mesh has 276 pairs, and the constant is the envelope over
    every one of them on the sorted, sliced and assignment branches.  On
    the random walk the largest ratio is at the first gap, the pair (0, 1),
    which a fit over a 250-pair sample drawn from seed 27 would leave out;
    with a unit drift added it is at a wide pair ending at the last time,
    (6, 23) on one mode and (2, 23) on two."""
    gen = np.random.default_rng(8)
    times = np.cumsum(np.r_[0.0, 2.0 ** np.arange(23)])
    for n_modes, budgets in ((1, (512,)), (2, (1, 512))):
        walk = gen.standard_normal((24, 50, n_modes)).cumsum(axis=0)
        for points in (walk, walk + times[:, None, None]):
            path = MeasurePath(times=times, points=points)
            for budget in budgets:
                assert_modulus_matches_written_out(path, budget, 8, 27)


def test_path_modulus_input_checks():
    path = stacked([0.0, 1.0], [cloud(np.random.default_rng(2), 8, 2)] * 2)
    with pytest.raises(ValueError, match="need at least one projection"):
        path_modulus(path, exact_budget=1, projections=0)


@pytest.mark.parametrize("projections", [2.9, 2.0, True, "8"])
def test_sliced_distances_refuse_a_projection_count_that_is_not_an_integer(projections):
    path = stacked([0.0, 1.0], [cloud(np.random.default_rng(2), 8, 2)] * 2)
    for distance in (lambda: wasserstein1_sliced(*path.measures, projections=projections),
                     lambda: path_sup_distance(path, path, exact_budget=1,
                                               projections=projections),
                     lambda: path_modulus(path, exact_budget=1, projections=projections)):
        with pytest.raises(ValueError, match="projections: must be an integer"):
            distance()


def test_assignment_modulus_assigns_only_the_pairs_its_bounds_cannot_decide(monkeypatch):
    """On an 11-time, 2-mode OU trajectory path of 256 particles the wider
    pairs are decided by composed couplings: only the 10 adjacent pairs of
    55 are assigned, and the constant is the one all 55 give."""
    import scipy.optimize

    path = ou_trajectory_path(10, M=256, n_modes=2)
    solve = scipy.optimize.linear_sum_assignment
    calls = []
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment",
                        lambda cost: calls.append(1) or solve(cost))
    constant = path_modulus(path)
    assert w1_method(path.N, path.M, 512) == "exact" and len(calls) == 10
    pairs = [(i, j) for i in range(11) for j in range(i + 1, 11)]
    d = np.array([wasserstein1(path.measures[i], path.measures[j]) for i, j in pairs])
    g = np.array([path.times[j] - path.times[i] for i, j in pairs])
    assert constant == np.max(d / (np.sqrt(g) + g))


def test_sliced_modulus_sorts_each_time_once_per_direction_in_a_small_working_set(monkeypatch):
    M, P = 4000, 64
    gen = np.random.default_rng(11)
    path = MeasurePath(times=np.linspace(0.0, 1.0, 11),
                       points=gen.standard_normal((11, M, 2)).cumsum(axis=0))
    profile = M * P * 8  # bytes of one (P, M) float64 profile

    def peak_bytes(call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    modulus = peak_bytes(lambda: path_modulus(path, exact_budget=512, projections=P))
    sup_one = peak_bytes(lambda: path_sup_distance(path, path, exact_budget=512, projections=P))
    sup_three = peak_bytes(lambda: path_sup_distances(path, [path, path, path], exact_budget=512,
                                                      projections=P))
    assert modulus <= 5 * profile
    assert peak_bytes(lambda: wasserstein1_sliced(*path.measures[:2], projections=P)) \
        <= 2.1 * profile
    assert sup_one <= 2.1 * profile and sup_three <= 2.1 * profile
    # one direction at a time: the path's sorted (11, M) projections and one
    # time offset's gaps, or the reference's and one other path's, hold less
    # than one profile
    assert max(modulus, sup_one, sup_three) <= profile

    counts = count_sorted_clouds(monkeypatch)
    path_modulus(path, exact_budget=512, projections=P)
    assert w1_method(path.N, path.M, 512) == "sliced"
    # each of the 64 directions sorts the 11 times once, not 2 per pair
    assert list(counts.values()) == [11] * P


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


def test_mixture_refuses_a_mode_mismatch():
    with pytest.raises(ValueError, match="mode count mismatch: 1 vs 2"):
        mixture_paths(zero_path(4, 1), zero_path(4, 2), 0.5)


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


def test_write_rows_bytes(tmp_path):
    """Every float cell, numpy's float64 included, in %.17g; ints and
    strings as csv writes them, None empty, quoting where a cell needs it,
    CRLF line ends."""
    write_rows(tmp_path / "rows.csv", ["key", "value"], [
        ["third", 1.0 / 3.0], ["np", np.float64(0.1)], ["nan", float("nan")],
        ["inf", -np.inf], ["int", 7], ["none", None], ["comma", "a,b"], [1.5, "x"]])
    assert (tmp_path / "rows.csv").read_bytes() == (
        b"key,value\r\nthird,0.33333333333333331\r\nnp,0.10000000000000001\r\n"
        b"nan,nan\r\ninf,-inf\r\nint,7\r\nnone,\r\ncomma,\"a,b\"\r\n1.5,x\r\n")
