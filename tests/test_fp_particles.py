"""Particle transport and weak-form residual audits.

Oracles: the driftless scheme is exact (mode variances equal the OU
covariance), constant drifts integrate to the closed-form ODE mean, and
with matching seeds noise cancels between runs so splitting bias can be
measured deterministically.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import quad

from hilbert_mfg import fp_particles, rng
from hilbert_mfg.config import SolverConfig
from hilbert_mfg.fp_particles import (
    DriftField,
    FourierTestFunction,
    bootstrap_stderr,
    propagate,
    residual_audit_cases,
    weak_form_residual,
    weak_residual_profile,
)
from hilbert_mfg.measures import Dirac, ProductGaussian
from hilbert_mfg.spectrum import SpectrumSpec

SPEC1 = SpectrumSpec(eigenvalues=(-1.0,))
Q_AT_1 = 0.43233235838169365  # (1 - e^{-2}) / 2, mode variance at t = 1


def test_zero_drift_variance_matches_mode_covariance():
    cfg = SolverConfig(horizon=1.0, dt=0.02, particles=100_000, seed=0)
    path = propagate(DriftField.zero(), Dirac([0.0]), SPEC1, cfg)
    for t, q in ((0.5, -np.expm1(-1.0) / 2.0), (1.0, Q_AT_1)):
        x = path.at_time(t).points[:, 0]
        se = q * np.sqrt(2.0 / (len(x) - 1))
        assert abs(x.var() - q) < 3 * se


def test_constant_drift_mean_matches_ode():
    # exponential-Euler reproduces x' = lambda x + c exactly for constant c
    c = 0.7
    cfg = SolverConfig(horizon=1.0, dt=0.02, particles=100_000, seed=0)
    path = propagate(DriftField.constant([c]), Dirac([0.0]), SPEC1, cfg)
    for t in (0.5, 1.0):
        x = path.at_time(t).points[:, 0]
        exact = c * -np.expm1(-t)
        se = np.sqrt(-np.expm1(-2 * t) / 2.0 / len(x))
        assert abs(x.mean() - exact) < 3 * se


def test_drift_superposition_is_exact():
    """Same seed means same noise, so the constant-drift path minus the
    driftless path is the deterministic drift response, to rounding."""
    c = 0.7
    cfg = SolverConfig(horizon=1.0, dt=0.05, particles=500, seed=3)
    path0 = propagate(DriftField.zero(), Dirac([0.0]), SPEC1, cfg)
    pathc = propagate(DriftField.constant([c]), Dirac([0.0]), SPEC1, cfg)
    for j, t in enumerate(path0.times):
        diff = pathc.measures[j].points - path0.measures[j].points
        assert np.allclose(diff, c * -np.expm1(-t), atol=1e-12)


def test_time_dependent_drift_bias_is_first_order():
    """Freezing the drift at the step's left endpoint is an O(h) splitting:
    halving h should roughly halve the mean error against the
    variation-of-constants integral."""
    c, om, T = 1.5, 2.0, 1.0
    exact, err = quad(lambda s: np.exp(-(T - s)) * c * np.cos(om * s), 0.0, T)
    assert err < 1e-10
    assert abs(exact - 0.3103705727798336) < 1e-12

    def mean_error(h):
        cfg = SolverConfig(horizon=T, dt=h, particles=1, seed=9)
        w = DriftField(fn=lambda t, X: np.full_like(X, c * np.cos(om * t)), bound=c)
        pathw = propagate(w, Dirac([0.0]), SPEC1, cfg)
        path0 = propagate(DriftField.zero(), Dirac([0.0]), SPEC1, cfg)
        response = pathw.measures[-1].points[0, 0] - path0.measures[-1].points[0, 0]
        return abs(response - exact)

    e_coarse, e_fine = mean_error(0.1), mean_error(0.05)
    assert e_coarse / e_fine >= 1.8


def test_fourier_test_function_derivatives_match_finite_differences():
    phi = FourierTestFunction(h=[0.7, -1.2], theta=0.3, kind="sin",
                              psi=lambda t: np.exp(-t), dpsi=lambda t: -np.exp(-t))
    X = np.array([[0.4, -0.2], [1.1, 0.5]])
    t, eps = 0.6, 1e-6
    dt_fd = (phi.value(t + eps, X) - phi.value(t - eps, X)) / (2 * eps)
    assert np.allclose(phi.dt(t, X), dt_fd, atol=1e-6)
    grad = phi.gradient(t, X)
    for k in range(2):
        dX = np.zeros_like(X)
        dX[:, k] = eps
        g_fd = (phi.value(t, X + dX) - phi.value(t, X - dX)) / (2 * eps)
        assert np.allclose(grad[:, k], g_fd, atol=1e-6)
        d2_fd = (phi.value(t, X + dX) - 2 * phi.value(t, X) + phi.value(t, X - dX)) / eps**2
        if k == 0:
            trace_fd = d2_fd.copy()
        else:
            trace_fd += d2_fd
    assert np.allclose(phi.trace_d2(t, X), trace_fd, atol=1e-3)


def test_fourier_test_function_l0_matches_manual():
    spec = SpectrumSpec(eigenvalues=(-1.0, -3.0))
    phi = FourierTestFunction(h=[1.5, 0.4], theta=0.1)
    X = np.array([[0.3, -0.6], [-1.0, 0.2], [0.0, 0.0]])
    grad = phi.gradient(0.0, X)
    manual = X[:, 0] * -1.0 * grad[:, 0] + X[:, 1] * -3.0 * grad[:, 1] \
        + 0.5 * phi.trace_d2(0.0, X)
    assert np.allclose(phi.l0(spec, 0.0, X), manual, atol=1e-14)


def test_weak_residual_zero_at_initial_time():
    cfg = SolverConfig(horizon=0.5, dt=0.05, particles=200, seed=1)
    path = propagate(DriftField.zero(), Dirac([0.4]), SPEC1, cfg)
    phi = FourierTestFunction(h=[1.0])
    prof = weak_residual_profile(path, DriftField.zero(), [phi], 0.0, SPEC1)[0]
    assert np.all(prof == 0.0)


def test_weak_residual_stationary_invariant_law():
    """Started from N(0, alpha) with no drift the law never moves, so the
    residual is pure Monte Carlo noise.  The underlying identity
    E[L0 phi] = 0 under the invariant law is checked by quadrature."""
    case = [c for c in residual_audit_cases() if c.label == "stationary"][0]
    alpha = 0.5
    nodes, weights = hermgauss(64)
    X = (nodes * np.sqrt(2.0 * alpha))[:, None]
    l0_mean = (weights / np.sqrt(np.pi)) @ case.phi.l0(case.spec, 0.0, X)
    assert abs(l0_mean) < 1e-12

    cfg = SolverConfig(horizon=1.0, dt=0.01, particles=10_000, seed=case.seed)
    path = propagate(case.w, case.m0, case.spec, cfg)
    prof = weak_residual_profile(path, case.w, [case.phi], 1.0, case.spec)[0]
    assert abs(prof.mean()) <= 3 * bootstrap_stderr(prof, seed=1)


def test_weak_residual_generic_drift_small():
    case = [c for c in residual_audit_cases() if c.label == "state-coupled"][0]
    cfg = SolverConfig(horizon=1.0, dt=0.01, particles=10_000, seed=case.seed)
    path = propagate(case.w, case.m0, case.spec, cfg)
    assert abs(weak_form_residual(path, case.w, case.phi, 1.0, case.spec)) < 0.05


def test_weak_residual_shrinks_under_refinement():
    # quadrupling M and halving h must shrink both the residual and its
    # error bar on every shipped pair
    for case in residual_audit_cases():
        res = {}
        se = {}
        for tag, M, h in (("coarse", 10_000, 0.01), ("fine", 40_000, 0.005)):
            cfg = SolverConfig(horizon=1.0, dt=h, particles=M, seed=case.seed)
            path = propagate(case.w, case.m0, case.spec, cfg)
            prof = weak_residual_profile(path, case.w, [case.phi], 1.0, case.spec)[0]
            res[tag], se[tag] = abs(prof.mean()), bootstrap_stderr(prof, seed=1)
        assert res["fine"] < res["coarse"], case.label
        assert se["fine"] < se["coarse"], case.label


def test_residual_equals_profile_mean():
    case = residual_audit_cases()[0]
    cfg = SolverConfig(horizon=0.5, dt=0.05, particles=300, seed=2)
    path = propagate(case.w, case.m0, case.spec, cfg)
    prof = weak_residual_profile(path, case.w, [case.phi], 0.5, case.spec)[0]
    assert weak_form_residual(path, case.w, case.phi, 0.5, case.spec) == pytest.approx(prof.mean())


def _pointwise_profile(path, w, phi, t, spec):
    """The weak residual of one test function from its pointwise methods."""
    jt = int(np.argmin(np.abs(path.times - t)))
    integrand = np.stack([
        phi.dt(s, X) + phi.l0(spec, s, X) + np.sum(w(s, X) * phi.gradient(s, X), axis=-1)
        for s, X in zip(path.times[: jt + 1], path.points[: jt + 1])], axis=1)
    boundary = phi.value(t, path.points[jt]) - phi.value(0.0, path.points[0])
    return boundary - np.trapezoid(integrand, x=path.times[: jt + 1], axis=1)


def test_weak_residual_rows_equal_the_pointwise_closed_form():
    spec = SpectrumSpec(eigenvalues=(-1.0, -4.0, -9.0))
    cfg = SolverConfig(horizon=0.6, dt=0.05, particles=500, seed=3)
    w = DriftField(fn=lambda t, X: 0.3 * np.cos(X + t), bound=0.6)
    path = propagate(w, ProductGaussian(mean=[0.2, 0.0, -0.1], var=[0.2, 0.1, 0.05]),
                     spec, cfg)
    unit = [FourierTestFunction(h=h) for h in np.eye(3)]
    prof = weak_residual_profile(path, w, unit, 0.6, spec)
    assert prof.shape == (3, 500)
    for row, phi in zip(prof, unit):
        assert np.array_equal(row, _pointwise_profile(path, w, phi, 0.6, spec))
    mixed = [FourierTestFunction(h=[0.7, -1.2, 0.4], theta=0.3, kind="sin",
                                 psi=lambda t: np.exp(-t), dpsi=lambda t: -np.exp(-t)),
             FourierTestFunction(h=[1.5, 0.0, 2.0], theta=-0.2),
             FourierTestFunction(h=[0.0, 0.5, -0.3], kind="sin")]
    prof = weak_residual_profile(path, w, mixed, 0.5, spec)
    for row, phi in zip(prof, mixed):
        assert np.allclose(row, _pointwise_profile(path, w, phi, 0.5, spec),
                           rtol=0.0, atol=1e-12)


def _one_pass_reference(path, w, phis, t, spec):
    """The one-pass profile written as whole-array expressions: both trig
    factors by np.where on the kind, a transposed H, and each mesh time's
    integrand as one expression."""
    jt = int(np.argmin(np.abs(path.times - t)))
    H = np.array([phi.h for phi in phis])
    theta = np.array([phi.theta for phi in phis])
    is_cos = np.array([phi.kind == "cos" for phi in phis])
    neg_sq = -np.array([float(phi.h @ phi.h) for phi in phis])

    def trig(X):
        U = X @ H.T + theta
        cos_u, sin_u = np.cos(U), np.sin(U)
        return np.where(is_cos, cos_u, sin_u), np.where(is_cos, -sin_u, cos_u)

    def profile(s):
        return np.array([[phi._psi(s), phi._dpsi(s)] for phi in phis]).T

    boundary = (profile(t)[0] * trig(path.points[jt])[0]
                - profile(0.0)[0] * trig(path.points[0])[0]).T
    integrand = np.empty((jt + 1, path.points.shape[1], len(phis)))
    for j in range(jt + 1):
        s, X = path.times[j], path.points[j]
        (psi, dpsi), (value, radial) = profile(s), trig(X)
        psi_radial = psi * radial
        l0 = ((X * spec.lam) @ H.T) * psi_radial + 0.5 * (neg_sq * (psi * value))
        integrand[j] = dpsi * value + l0 + (w(s, X) @ H.T) * psi_radial
    integral = [np.trapezoid(np.ascontiguousarray(integrand[:, :, k].T),
                             x=path.times[: jt + 1], axis=1) for k in range(len(phis))]
    return boundary - np.array(integral)


@pytest.mark.parametrize("N", [2, 3])
def test_weak_residual_profile_equals_the_whole_array_formula(N):
    spec = SpectrumSpec(eigenvalues=(-1.0, -4.0, -9.0)[:N])
    cfg = SolverConfig(horizon=0.6, dt=0.05, particles=700, seed=8)
    w = DriftField(fn=lambda t, X: 0.3 * np.cos(X + t), bound=0.6)
    path = propagate(w, ProductGaussian(mean=[0.2, 0.0, -0.1][:N], var=[0.2, 0.1, 0.05][:N]),
                     spec, cfg)
    phis = [FourierTestFunction(h=[0.7, -1.2, 0.4][:N], theta=0.3, kind="sin",
                                psi=lambda t: np.exp(-t), dpsi=lambda t: -np.exp(-t)),
            FourierTestFunction(h=[1.5, 0.3, 2.0][:N], theta=-0.2),
            FourierTestFunction(h=[-0.4, 0.5, -0.3][:N], kind="sin"),
            FourierTestFunction(h=[0.9, 1.1, 0.2][:N], theta=1.1,
                                psi=lambda t: 1.0 + t * t, dpsi=lambda t: 2.0 * t)]
    for t in (0.6, 0.25):
        assert np.array_equal(weak_residual_profile(path, w, phis, t, spec),
                              _one_pass_reference(path, w, phis, t, spec)), t


def test_weak_residual_evaluates_the_drift_once_per_mesh_time():
    calls = []

    def fn(t, X):
        calls.append(t)
        return np.zeros_like(X)

    spec = SpectrumSpec(eigenvalues=(-1.0, -2.0, -3.0))
    cfg = SolverConfig(horizon=0.5, dt=0.05, particles=40, seed=0)
    path = propagate(DriftField.zero(), Dirac([0.0, 0.0, 0.0]), spec, cfg)
    phis = [FourierTestFunction(h=h) for h in np.eye(3)]
    weak_residual_profile(path, DriftField(fn=fn, bound=0.0), phis, 0.3, spec)
    assert calls == list(path.times[:7])


def test_bootstrap_of_rows_equals_one_call_per_row():
    values = np.random.default_rng(0).normal(size=(3, 257))
    rows = bootstrap_stderr(values, seed=11)
    assert rows.shape == (3,)
    ones = [bootstrap_stderr(v, seed=11) for v in values]
    assert all(isinstance(x, float) for x in ones) and list(rows) == ones
    assert np.array_equal(bootstrap_stderr(np.stack([values, values]), seed=11),
                          np.stack([rows, rows]))


def _peak_bytes(call):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _three_mode_path(particles):
    spec = SpectrumSpec(eigenvalues=(-1.0, -4.0, -9.0))
    cfg = SolverConfig(horizon=0.6, dt=0.05, particles=particles, seed=3)
    w = DriftField(fn=lambda t, X: 0.3 * np.cos(X + t), bound=0.6)
    path = propagate(w, ProductGaussian(mean=[0.2, 0.0, -0.1], var=[0.2, 0.1, 0.05]),
                     spec, cfg)
    return path, w, spec


def test_weak_residual_particle_blocks_equal_the_pointwise_closed_form():
    # one particle past the trapezoid block at t = 0.6 (13 mesh times), and
    # the two-point trapezoid of t = 0.05
    path, w, spec = _three_mode_path(fp_particles._SCRATCH // 13 + 1)
    unit = [FourierTestFunction(h=h) for h in np.eye(3)]
    for t in (0.6, 0.05):
        prof = weak_residual_profile(path, w, unit, t, spec)
        for row, phi in zip(prof, unit):
            assert np.array_equal(row, _pointwise_profile(path, w, phi, t, spec)), t


def test_weak_residual_scratch_is_the_integrand_block_plus_per_time_rows():
    M, K = 4000, 2
    spec = SpectrumSpec(eigenvalues=(-1.0, -4.0))
    cfg = SolverConfig(horizon=1.0, dt=0.01, particles=M, seed=3)
    w = DriftField(fn=lambda t, X: 0.3 * np.cos(X + t), bound=0.6)
    path = propagate(w, ProductGaussian(mean=[0.2, 0.0], var=[0.2, 0.1]), spec, cfg)
    phis = [FourierTestFunction(h=h) for h in np.eye(K)]
    integrand = len(path.times) * M * K * 8
    # about 15 (M, K) arrays live per mesh time and about two trapezoid
    # blocks; one (M, jt) trapezoid temporary per row would add 3.2 MB
    bound = integrand + 20 * M * K * 8 + 3 * 8 * fp_particles._SCRATCH
    assert _peak_bytes(lambda: weak_residual_profile(path, w, phis, 1.0, spec)) <= bound


def test_bootstrap_equals_the_one_shot_draw(monkeypatch):
    """The blocked draw equals one (200, M) draw reduced per row: M in one
    block, M whose last block is partial, and M above the block budget."""
    def one_shot(values, seed):
        idx = rng.generator(seed, 0xB5).integers(0, values.shape[-1],
                                                 size=(200, values.shape[-1]))
        return np.array([np.std(row[idx].mean(axis=1)) for row in values])

    gen = np.random.default_rng(2)
    for M in (257, 3000):
        values = gen.normal(size=(3, M))
        assert np.array_equal(bootstrap_stderr(values, seed=5), one_shot(values, 5)), M
    assert 200 % (fp_particles._SCRATCH // 3000) != 0  # 3000 leaves a partial last block
    monkeypatch.setattr(fp_particles, "_SCRATCH", 256)
    values = gen.normal(size=(2, 257))
    assert np.array_equal(bootstrap_stderr(values, seed=5), one_shot(values, 5))


def test_bootstrap_scratch_is_one_block_of_draws():
    values = np.random.default_rng(0).normal(size=(3, 40_000))
    # the index block and its gather; one (200, M) draw and gather take 128 MB
    bound = 2 * 8 * fp_particles._SCRATCH + values.nbytes
    assert _peak_bytes(lambda: bootstrap_stderr(values, seed=1)) <= bound


def test_bootstrap_refuses_empty_rows():
    with pytest.raises(ValueError, match="at least one value"):
        bootstrap_stderr(np.empty((3, 0)), seed=1)


def test_weak_residual_refuses_a_test_function_on_other_modes():
    path, w, spec = _three_mode_path(20)
    with pytest.raises(ValueError, match="supported on 2 modes, points have 3"):
        weak_residual_profile(path, w, [FourierTestFunction(h=[1.0, 0.0])], 0.6, spec)


def test_weak_residual_refuses_no_test_functions():
    path, w, spec = _three_mode_path(20)
    with pytest.raises(ValueError, match="at least one test function"):
        weak_residual_profile(path, w, [], 0.6, spec)


def test_moment_bounds_hold_across_drift_sizes():
    """Per-mode second moments stay below 3 (beta_k + alpha_k + alpha_k R^2)
    for constant drifts of size R, with Monte Carlo slack."""
    spec = SpectrumSpec(eigenvalues=(-1.0, -2.0))
    m0 = ProductGaussian(mean=[0.5, 0.0], var=[0.2, 0.1])
    cfg = SolverConfig(horizon=1.0, dt=0.05, particles=20_000, seed=2)
    alphas = np.array([0.5, 0.25])
    betas = np.array([m0.mode_second_moment(k) for k in (1, 2)])
    for R in (0.0, 1.0, 2.0, 4.0):
        w = DriftField.constant([R, 0.0]) if R else DriftField.zero()
        path = propagate(w, m0, spec, cfg)
        bound = 3.0 * (betas + alphas + alphas * R * R)
        for m in path.measures:
            sq = m.points**2
            slack = 3.0 * sq.std(axis=0) / np.sqrt(m.M)
            assert np.all(sq.mean(axis=0) <= bound + slack)


def test_fourth_moment_growth_is_at_most_quartic():
    spec = SpectrumSpec(eigenvalues=(-1.0, -2.0))
    cfg = SolverConfig(horizon=1.0, dt=0.05, particles=20_000, seed=2)
    sizes, sups = [], []
    for R in (1.0, 2.0, 4.0):
        path = propagate(DriftField.constant([R, 0.0]), Dirac([0.0, 0.0]), spec, cfg)
        m4 = max(float(np.mean(np.sum(m.points**2, axis=1) ** 2)) for m in path.measures)
        sizes.append(R)
        sups.append(m4)
    slope = np.polyfit(np.log(sizes), np.log(sups), 1)[0]
    assert slope <= 4.2


def test_propagate_is_deterministic():
    case = residual_audit_cases()[1]
    cfg = SolverConfig(horizon=0.5, dt=0.05, particles=400, seed=7)
    a = propagate(case.w, case.m0, case.spec, cfg)
    b = propagate(case.w, case.m0, case.spec, cfg)
    for ma, mb in zip(a.measures, b.measures):
        assert np.array_equal(ma.points, mb.points)


def test_propagate_returns_one_read_only_array_that_at_time_views():
    spec = SpectrumSpec(eigenvalues=(-1.0, -2.0))
    cfg = SolverConfig(horizon=0.5, dt=0.1, particles=30, seed=3)
    path = propagate(DriftField.constant([0.3, -0.2]),
                     ProductGaussian(mean=[0.1, 0.0], var=[0.2, 0.1]), spec, cfg)
    assert path.points.shape == (6, 30, 2)
    with pytest.raises(ValueError):
        path.points[1, 0, 0] = 0.0
    mu = path.at_time(0.3)
    assert np.shares_memory(mu.points, path.points)
    assert np.array_equal(mu.points, path.points[3])
    with pytest.raises(ValueError):
        mu.points[0, 0] = 0.0


def test_drift_bound_violation_is_fatal():
    w = DriftField(fn=lambda t, X: np.full_like(X, 2.0), bound=1.0)
    cfg = SolverConfig(horizon=0.5, dt=0.05, particles=10, seed=0)
    with pytest.raises(ValueError, match="bound"):
        propagate(w, Dirac([0.0]), SPEC1, cfg)


def test_non_finite_drift_is_fatal():
    w = DriftField(fn=lambda t, X: np.full_like(X, np.nan), bound=1.0)
    cfg = SolverConfig(horizon=0.5, dt=0.05, particles=10, seed=0)
    with pytest.raises(FloatingPointError):
        propagate(w, Dirac([0.0]), SPEC1, cfg)


def test_infinite_drift_value_is_fatal():
    w = DriftField(fn=lambda t, X: np.where(X > 0.5, np.inf, 0.0), bound=1.0)
    with pytest.raises(FloatingPointError, match="non-finite"):
        w(0.0, np.array([[0.0, 0.0], [0.0, 0.7]]))


def test_a_drift_too_large_to_square_is_checked_against_its_bound():
    X = np.zeros((2, 1))
    huge = lambda t, X: np.full_like(X, 1e200)
    assert np.array_equal(DriftField(fn=huge, bound=1e300)(0.0, X), np.full((2, 1), 1e200))
    with pytest.raises(ValueError, match="drift bound violated"):
        DriftField(fn=huge, bound=1e100)(0.0, X)
    with pytest.raises(FloatingPointError, match="non-finite"):
        DriftField(fn=lambda t, X: np.full_like(X, np.nan), bound=1e300)(0.0, X)


def test_drift_breaking_its_bound_on_one_row_is_fatal():
    w = DriftField(fn=lambda t, X: X, bound=1.0)
    X = np.array([[0.6, 0.8], [0.1, 0.2], [0.6, 0.81]])
    assert np.array_equal(w(0.0, X[:2]), X[:2])  # |w| = 1 on the first row is allowed
    with pytest.raises(ValueError, match="bound violated"):
        w(0.0, X)


def test_non_finite_drift_in_the_weak_residual_is_fatal():
    cfg = SolverConfig(horizon=0.5, dt=0.05, particles=10, seed=0)
    path = propagate(DriftField.zero(), Dirac([0.0]), SPEC1, cfg)
    w = DriftField(fn=lambda t, X: np.full_like(X, np.nan), bound=1.0, label="broken")
    with pytest.raises(FloatingPointError, match="'broken'"):
        weak_form_residual(path, w, FourierTestFunction(h=[1.0]), 0.5, SPEC1)


def test_off_mesh_time_rejected():
    cfg = SolverConfig(horizon=0.5, dt=0.05, particles=50, seed=0)
    path = propagate(DriftField.zero(), Dirac([0.0]), SPEC1, cfg)
    phi = FourierTestFunction(h=[1.0])
    with pytest.raises(ValueError, match="mesh"):
        weak_form_residual(path, DriftField.zero(), phi, 0.123, SPEC1)


def test_mode_mismatch_rejected():
    cfg = SolverConfig(horizon=0.5, dt=0.05, particles=50, seed=0)
    with pytest.raises(ValueError, match="modes"):
        propagate(DriftField.zero(), Dirac([0.0]), SpectrumSpec(eigenvalues=(-1.0, -2.0)), cfg)
