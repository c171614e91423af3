"""Damped fixed-point loop, moment audit, and the two-start experiment.

These run at reduced particle counts and coarse meshes; the shipped-scale
tolerances live in the acceptance suite.
"""

import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hilbert_mfg
from hilbert_mfg import rng
from hilbert_mfg.config import SolverConfig
from hilbert_mfg.fp_particles import DriftField, propagate
from hilbert_mfg.hjb import GeneralHamiltonian, zero_hamiltonian
from hilbert_mfg.measures import (
    Dirac,
    MeasurePath,
    ProductGaussian,
    moments,
    path_modulus,
    path_sup_distance,
    path_sup_distances,
)
from hilbert_mfg.mfg import (
    MFGProblem,
    calibrate_c0,
    drift_from_gradient,
    fixed_point_iterate,
    mode_bounds,
    moment_bound_audit,
    psi_map,
    uniqueness_experiment,
)
from hilbert_mfg.models import make_model
from hilbert_mfg.spectrum import SpectrumSpec, covariance_qk

CFG = SolverConfig(dt=0.1, particles=3000, grid_points=32, quad_nodes=8,
                   tau_nodes=17, fp_tol=2e-2, seed=9)


def mu_free_problem():
    ham = GeneralHamiltonian(
        value_fn=lambda X, P, mu: 0.8 * np.tanh(P[..., 0]),
        grad_p_fn=lambda X, P, mu: 0.8 / np.cosh(P) ** 2,
        bound_Hp=0.8, label="mu-free")
    return MFGProblem(spectrum=make_model("cap1d_monotone").spectrum,
                      hamiltonian=ham,
                      terminal=lambda X, mu: np.cos(X[..., 0]),
                      m0=Dirac([0.0]), horizon=1.0)


def test_psi_is_constant_map_when_measure_never_enters():
    # same inner seed, different input paths: identical best responses
    prob = mu_free_problem()
    spec = prob.spectrum
    m_a = propagate(DriftField.zero(1), Dirac([0.0]), spec, CFG.with_(seed=101))
    m_b = propagate(DriftField.constant([0.5], 1), ProductGaussian([0.3], [0.2]),
                    spec, CFG.with_(seed=202))
    pa = psi_map(prob, m_a, CFG, fp_seed=77)
    pb = psi_map(prob, m_b, CFG, fp_seed=77)
    assert path_sup_distance(pa, pb) == 0.0


def test_zero_gradient_hamiltonian_converges_immediately():
    ham = GeneralHamiltonian(value_fn=lambda X, P, mu: 0.0 * X[..., 0],
                             grad_p_fn=lambda X, P, mu: np.zeros_like(P),
                             bound_Hp=0.0, label="zero")
    prob = MFGProblem(spectrum=make_model("cap1d_monotone").spectrum,
                      hamiltonian=ham, terminal=lambda X, mu: np.cos(X[..., 0]),
                      m0=Dirac([0.0]), horizon=1.0)
    sol = fixed_point_iterate(prob, CFG)
    assert sol.status == "converged"
    assert len(sol.iterations) == 2  # two quiet steps and out
    # the law is the zero-drift one: variances match the kernel integral
    spec = prob.spectrum
    from hilbert_mfg.spectrum import covariance_qk
    for j, t in enumerate(CFG.mesh()):
        if t == 0.0:
            continue
        mu = sol.m.measures[j]
        want = covariance_qk(spec, 1, t)
        se = np.std(mu.points[:, 0] ** 2) / np.sqrt(mu.M)
        assert abs(mu.mode_second_moment(1) - want) < 4 * se + 1e-12


def unit_grad_problem(eigenvalues, m0):
    """|H_p| = 1 on the given spectrum and initial law."""
    ham = GeneralHamiltonian(value_fn=lambda X, P, mu: np.linalg.norm(P, axis=-1),
                             grad_p_fn=lambda X, P, mu: np.ones_like(P),
                             bound_Hp=1.0, label="unit-grad")
    return MFGProblem(spectrum=SpectrumSpec(eigenvalues=eigenvalues), hamiltonian=ham,
                      terminal=lambda X, mu: 0.0 * X[..., 0], m0=m0, horizon=1.0)


def test_mode_bounds_closed_form():
    # a_k = 3 (beta_k + 2 alpha_k) at |H_p| = 1, with alpha_k = 1/(2|lambda_k|)
    # and beta_k the k-th second moment of m0
    for eigenvalues, m0, want in [
        ((-1.0, -2.0, -3.0), Dirac([0.0, 0.0, 0.0]), [3.0, 1.5, 1.0]),  # a_n = 3/n
        ((-2.0,), Dirac([0.0]), [1.5]),                             # alpha 0.25, beta 0
        ((-1.0,), ProductGaussian(mean=[0.0], var=[0.3]), [3.9]),  # alpha 0.5, beta 0.3
        ((-1.0,), Dirac([2.0]), [15.0]),                            # alpha 0.5, beta 4
    ]:
        assert np.allclose(mode_bounds(unit_grad_problem(eigenvalues, m0)), want,
                           rtol=1e-14, atol=1e-14)


AUDIT_CFG = SolverConfig(horizon=1.0, dt=0.5, particles=400, seed=4)


def constant_path(points):
    """The same cloud at every mesh time of AUDIT_CFG."""
    times = AUDIT_CFG.mesh()
    return MeasurePath(times=times, points=np.stack([points] * len(times)))


def test_moment_audit_passes_a_point_mass_at_the_origin_and_fails_a_spike():
    prob = unit_grad_problem((-1.0,), Dirac([0.0]))
    rep = moment_bound_audit(prob, constant_path(np.zeros((1, 1))), AUDIT_CFG)
    assert rep.ok and rep.fourth_observed == 0.0
    rep = moment_bound_audit(prob, constant_path(np.full((1, 1), 10.0)), AUDIT_CFG)
    assert not rep.rows[0].passed and not rep.ok


def test_moment_audit_passes_the_stationary_ou_law():
    # m0 stationary: beta_k = alpha_k, so a_k = 3 (alpha_k + alpha_k + alpha_k R^2)
    alpha = np.array([0.5, 0.25])
    m0 = ProductGaussian(mean=[0.0, 0.0], var=alpha)
    prob = unit_grad_problem((-1.0, -2.0), m0)
    assert np.allclose(mode_bounds(prob), 9.0 * alpha, rtol=1e-14)
    rep = moment_bound_audit(prob, constant_path(m0.sample(20_000, seed=8)), AUDIT_CFG)
    assert all(r.observed <= r.bound for r in rep.rows if r.sampled) and rep.ok


def test_moment_audit_flags_hand_built_violation():
    prob = make_model("cap1d_monotone")
    a1 = mode_bounds(prob)[0]
    g = rng.generator(77, 0)
    times = CFG.mesh()
    bad = MeasurePath(times=times, points=np.stack([
        np.sqrt(10.0 * a1) * g.standard_normal((500, 1)) for _ in times]))
    rep = moment_bound_audit(prob, bad, CFG)
    assert not rep.ok
    assert not rep.rows[0].passed
    assert rep.rows[0].observed > 10.0 * a1 * 0.5


@st.composite
def moment_paths(draw):
    """(J, M, N) paths with 2..4 mesh times, 1..64 particles (one often),
    1..3 modes, and zero or repeated coordinates."""
    shape = (draw(st.integers(2, 4)), draw(st.one_of(st.just(1), st.integers(1, 64))),
             draw(st.integers(1, 3)))
    coords = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1.5, -2.0]))
    return draw(arrays(np.float64, shape, elements=coords))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(points=moment_paths())
def test_moment_routine_and_audits_equal_the_per_time_per_mode_loop(points):
    J, M, N = points.shape
    path = MeasurePath(times=np.linspace(0.0, 1.0, J), points=points)
    prob = unit_grad_problem((-1.0, -2.0, -3.0)[:N], Dirac([0.0] * N))
    cfg = SolverConfig(horizon=1.0, dt=0.5, particles=16, seed=4)
    mom = moments(path.points)
    rep = moment_bound_audit(prob, path, cfg)
    # the oracle: one cloud and one mode at a time, as the audits used to loop
    worst = [(-np.inf, 0.0)] * (N + 1)
    for j, mu in enumerate(path.measures):
        cols = [mu.points[:, k] ** 2 for k in range(N)] + [np.sum(mu.points ** 2, axis=1) ** 2]
        for k, col in enumerate(cols):
            obs, err = float(col.mean()), float(col.std() / math.sqrt(M))
            got = ((mom.second[j, k], mom.second_stderr[j, k]) if k < N
                   else (mom.fourth[j], mom.fourth_stderr[j]))
            assert got == (obs, err)
            if obs > worst[k][0]:
                worst[k] = (obs, err)
    assert [(r.observed, r.stderr) for r in rep.rows if r.sampled] == worst[:N]
    assert (rep.fourth_observed, rep.fourth_stderr) == worst[N]


def test_moment_audit_tail_rows_use_spectrum_family():
    prob = make_model("cap1d_monotone")  # family lambda_k = -k^3
    m = propagate(DriftField.zero(1), prob.m0, prob.spectrum, CFG)
    rep = moment_bound_audit(prob, m, CFG)
    tails = [r for r in rep.rows if not r.sampled]
    assert [r.mode for r in tails] == [2, 3, 4]
    # beta_n = 0 beyond the truncation: a_n = 3 alpha_n (1 + R^2) = 3/n^3
    assert np.allclose([r.bound for r in tails], [3.0 / 8, 3.0 / 27, 3.0 / 64])
    assert all(r.passed for r in tails)


def test_psi_outputs_pass_moment_bounds_on_random_inputs():
    prob = make_model("cap1d_monotone")
    for i in range(3):
        g = rng.generator(100, i)
        c = float(g.uniform(-0.9, 0.9))
        drift = DriftField(fn=lambda t, X, c=c: np.full_like(X, c),
                           bound=abs(c) + 1e-9, label="const")
        m_in = propagate(drift, ProductGaussian([0.0], [float(g.uniform(0.05, 0.5))]),
                         prob.spectrum, CFG.with_(seed=1000 + i))
        psi = psi_map(prob, m_in, CFG, fp_seed=2000 + i)
        rep = moment_bound_audit(prob, psi, CFG)
        assert rep.ok, rep


def test_psi_modulus_constant_uniform_over_input_paths():
    prob = make_model("cap1d_monotone")
    consts = []
    for i in range(10):
        g = rng.generator(100, i)
        c = float(g.uniform(-0.9, 0.9))
        drift = DriftField(fn=lambda t, X, c=c: np.full_like(X, c),
                           bound=abs(c) + 1e-9, label="const")
        m_in = propagate(drift, ProductGaussian([float(g.uniform(-0.5, 0.5))],
                                                [float(g.uniform(0.05, 0.6))]),
                         prob.spectrum, CFG.with_(seed=1000 + i))
        psi = psi_map(prob, m_in, CFG, fp_seed=2000 + i)
        consts.append(path_modulus(psi, seed=i))
    assert max(consts) / min(consts) < 1.5


def test_calibrated_fourth_moment_constant_is_sane():
    prob = make_model("cap1d_monotone")
    c0 = calibrate_c0(prob, CFG)
    assert 0.0 < c0 < 50.0
    m = propagate(DriftField.zero(1), prob.m0, prob.spectrum, CFG)
    rep = moment_bound_audit(prob, m, CFG)
    assert rep.fourth_pass
    assert rep.fourth_bound >= 1.0 + c0  # chat = 1 + c0 (1 + m0 moment + R^4)


def ou_fourth_moments(spec, m0, u, times):
    """E|X_t|^4 of the OU flow under the constant drift u from a product
    Gaussian m0, in continuous time: mean e^{lambda t} mu + u (1 -
    e^{lambda t}) / |lambda|, variance e^{2 lambda t} var + q(t)."""
    out = []
    for t in times:
        g = np.exp(spec.lam * t)
        mean = g * m0.mean + u * (1.0 - g) / np.abs(spec.lam)
        var = g ** 2 * m0.var + (1.0 - g ** 2) / (2.0 * np.abs(spec.lam))
        m2 = mean ** 2 + var
        m4 = mean ** 4 + 6.0 * mean ** 2 * var + 3.0 * var ** 2
        out.append(np.sum(m4) + np.sum(m2) ** 2 - np.sum(m2 ** 2))
    return np.array(out)


@pytest.mark.parametrize("model, dt", [("cap1d_monotone", 0.1), ("cap2d_f2", 0.1),
                                       ("cap2d_f2", 0.3)],
                         ids=["1-mode-dirac", "2-mode-gaussian", "dt-0.3"])
def test_c0_is_the_closed_form_that_propagate_samples(model, dt):
    """Per drift and mesh time, the closed-form E|X_t|^4 lies within 4
    standard errors of a 20,000-particle `propagate`, and c0 is 1.5 times
    its sup over 1 + E|X_0|^4 + R^4.  dt 0.3 does not divide T = 1."""
    prob = make_model(model)
    spec, N = prob.spectrum, prob.spectrum.N
    R = float(prob.hamiltonian.bound_Hp)
    cfg = CFG.with_(dt=dt, particles=20_000, seed=31)
    sup = 0.0
    for i, sign in enumerate((0.0, 1.0, -1.0)):
        u = np.full(N, sign * R / math.sqrt(N))
        drift = DriftField.constant(u) if sign else DriftField.zero(N)
        path = propagate(drift, prob.m0, spec, cfg.with_(seed=40 + i))
        exact = ou_fourth_moments(spec, prob.m0, u, path.times)
        mom = moments(path.points)
        np.testing.assert_array_less(np.abs(mom.fourth - exact),
                                     4.0 * mom.fourth_stderr + 1e-12)
        sup = max(sup, exact.max())
    want = 1.5 * sup / (1.0 + prob.m0.norm_fourth_moment() + R ** 4)
    assert calibrate_c0(prob, cfg) == pytest.approx(want, rel=1e-12)


def test_c0_of_a_driftless_point_mass_is_three_q_squared():
    # zero drift from the origin: X_t ~ N(0, q(t)), so E X_t^4 = 3 q(t)^2,
    # largest at T, over a normalizer 1 + 0 + 0
    spec = SpectrumSpec(eigenvalues=(-2.0,))
    prob = MFGProblem(spectrum=spec, hamiltonian=zero_hamiltonian(1),
                      terminal=lambda X, mu: np.cos(X[..., 0]),
                      m0=Dirac([0.0]), horizon=1.0)
    q = covariance_qk(spec, 1, 1.0)
    assert calibrate_c0(prob, CFG) == pytest.approx(1.5 * 3.0 * q ** 2, rel=1e-12)


def test_c0_reads_neither_the_particle_count_nor_the_seed():
    for model in ("cap1d_monotone", "cap2d_f2"):
        prob = make_model(model)
        c0 = calibrate_c0(prob, CFG)
        assert calibrate_c0(prob, CFG.with_(particles=17, seed=12345)) == c0
        assert calibrate_c0(prob, CFG.with_(particles=40_000, seed=0)) == c0


def test_c0_is_even_in_the_initial_mean():
    # the drifts 0 and +-u are a symmetric set, so mirroring m0 swaps the
    # two saturated walks and leaves the sup where it was
    prob = make_model("cap2d_f2")
    mirrored = MFGProblem(spectrum=prob.spectrum, hamiltonian=prob.hamiltonian,
                          terminal=prob.terminal, horizon=prob.horizon,
                          m0=ProductGaussian(-prob.m0.mean, prob.m0.var))
    assert calibrate_c0(mirrored, CFG) == calibrate_c0(prob, CFG)


def test_the_moment_audit_runs_no_transport(monkeypatch):
    import hilbert_mfg.mfg as mfg_mod

    prob = make_model("cap2d_f2")
    m = propagate(DriftField.zero(2), prob.m0, prob.spectrum, CFG.with_(particles=500))
    monkeypatch.setattr(mfg_mod, "propagate",
                        lambda *args, **kwargs: pytest.fail("the audit ran a transport"))
    rep = moment_bound_audit(prob, m, CFG.with_(particles=500))
    assert rep.ok and rep.c0 == calibrate_c0(prob, CFG)


def test_fixed_point_smoke_run_reports_certificate_and_audit():
    prob = make_model("cap1d_monotone")
    sol = fixed_point_iterate(prob, CFG)
    assert sol.status == "converged"
    assert sol.converged
    assert len(sol.iterations) <= CFG.fp_max
    assert sol.psi_residual > 0 and np.isfinite(sol.psi_residual_stderr)
    assert sol.audit.ok
    assert sol.v.status in ("converged", "max-iterations")
    # iteration records carry the damping trace
    assert all(r.theta <= CFG.damping for r in sol.iterations)


def test_feedback_drift_respects_declared_bound():
    prob = make_model("cap1d_monotone")
    sol = fixed_point_iterate(prob, CFG)
    drift = drift_from_gradient(sol.v, prob.hamiltonian, sol.m)
    X = np.linspace(-3, 3, 41)[:, None]
    for t in CFG.mesh()[:-1]:
        w = drift(float(t), X)
        assert np.max(np.abs(w)) <= prob.hamiltonian.bound_Hp + 1e-9


def test_uniqueness_identical_legs_are_bit_equal():
    """Two legs from one start under one seed give the same path and value
    field bit for bit."""
    prob = make_model("cap1d_monotone")
    start = propagate(DriftField.zero(1), prob.m0, prob.spectrum,
                      CFG.with_(seed=55))
    cfg = CFG.with_(seed=42)
    sa = fixed_point_iterate(prob, cfg, initial=start)
    sb = fixed_point_iterate(prob, cfg, initial=start)
    assert np.array_equal(sa.m.points, sb.m.points)
    assert np.array_equal(sa.v.values, sb.v.values)
    assert np.array_equal(sa.v.grads, sb.v.grads)
    assert sa.status == sb.status


def test_uniqueness_negative_control_reports_without_raising():
    prob = make_model("cap1d_antimonotone")
    cfg = CFG.with_(fp_max=4)  # keep it short; outcome is reported either way
    start_a = propagate(DriftField.zero(1), prob.m0, prob.spectrum,
                        cfg.with_(seed=1))
    start_b = propagate(DriftField.zero(1), ProductGaussian([0.0], [0.5]),
                        prob.spectrum, cfg.with_(seed=2))
    rep, _, _ = uniqueness_experiment(prob, start_a, start_b, cfg)
    assert np.isfinite(rep.rho_between)
    assert rep.status_a in ("converged", "max-iterations")
    assert rep.status_b in ("converged", "max-iterations")


def test_problem_validation():
    prob = make_model("cap1d_monotone")
    with pytest.raises(ValueError):
        MFGProblem(spectrum=prob.spectrum, hamiltonian=prob.hamiltonian,
                   terminal=prob.terminal, m0=prob.m0, horizon=0.0)
    bad = GeneralHamiltonian(value_fn=lambda X, P, mu: X[..., 0],
                             grad_p_fn=lambda X, P, mu: P,
                             bound_Hp=np.inf, label="unbounded")
    with pytest.raises(ValueError):
        MFGProblem(spectrum=prob.spectrum, hamiltonian=bad,
                   terminal=prob.terminal, m0=prob.m0, horizon=1.0)
    with pytest.raises(ValueError):
        fixed_point_iterate(prob, CFG.with_(horizon=2.0))


def test_initial_path_must_live_on_config_mesh():
    prob = make_model("cap1d_monotone")
    other = CFG.with_(dt=0.2)
    start = propagate(DriftField.zero(1), prob.m0, prob.spectrum, other)
    with pytest.raises(ValueError):
        fixed_point_iterate(prob, CFG, initial=start)



def test_initial_path_must_hold_config_particles(monkeypatch):
    """An initial path of another particle count is refused before the
    first value solve, not in the pooling after a solve and a transport."""
    import hilbert_mfg.mfg as mfg_mod

    monkeypatch.setattr(mfg_mod, "solve_hjb_mild",
                        lambda *args, **kwargs: pytest.fail("value solve ran"))
    prob = make_model("cap1d_monotone")
    start = propagate(DriftField.zero(1), prob.m0, prob.spectrum, CFG.with_(particles=50))
    with pytest.raises(ValueError, match="initial path has 50 particles"):
        fixed_point_iterate(prob, CFG, initial=start)

SMALL = CFG.with_(particles=1000, grid_points=16, tau_nodes=9, fp_max=3)


def test_one_value_solve_per_law_path(monkeypatch):
    # one solve per outer iteration plus one against the final path, which
    # serves the returned field and all three certificate repeats
    import hilbert_mfg.mfg as mfg_mod
    from hilbert_mfg.hjb import solve_hjb_mild

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return solve_hjb_mild(*args, **kwargs)

    monkeypatch.setattr(mfg_mod, "solve_hjb_mild", counted)
    prob = make_model("cap1d_monotone")
    sol = fixed_point_iterate(prob, SMALL)
    assert len(calls) == len(sol.iterations) + 1
    assert calls[-1] is sol.m
    fresh = solve_hjb_mild(prob.hamiltonian, prob.terminal, sol.m,
                           prob.spectrum, SMALL)
    assert np.array_equal(sol.v.values, fresh.values)
    assert np.array_equal(sol.v.grads, fresh.grads)
    assert sol.v.history == fresh.history


def test_a_sliced_fixed_point_sorts_each_reference_path_once_per_round(monkeypatch):
    """Per direction, each iteration sorts m_j, psi_j and m_{j+1} once, the
    certificate the final path and its three repeats once: (J+1)(3
    iterations + 4) sorted clouds, plus the J+1 of the audit's modulus."""
    from hilbert_mfg import measures

    cfg = SolverConfig(dt=0.25, particles=300, grid_points=12, quad_nodes=6, tau_nodes=9,
                       fp_tol=5e-2, fp_max=4, exact_w1_budget=64, sliced_projections=8,
                       seed=3)
    sort_projections, clouds = measures._sorted_projections, []
    monkeypatch.setattr(measures, "_sorted_projections",
                        lambda pts, d: clouds.append(len(pts)) or sort_projections(pts, d))
    sol = fixed_point_iterate(make_model("cap2d_f2"), cfg)
    assert sol.w1_method == "sliced" and len(sol.iterations) >= 2
    n_times = len(cfg.mesh())
    assert sum(clouds) == cfg.sliced_projections * n_times * (3 * len(sol.iterations) + 5)


def test_one_mode_records_equal_the_pairwise_path_distances(monkeypatch):
    """On one mode the round's one call returns what a call per pair does:
    the records and the certificate read the pairwise sup distances."""
    import hilbert_mfg.mfg as mfg_mod

    rounds = []

    def recording(ref, others, *args):
        rounds.append((ref, list(others)))
        return path_sup_distances(ref, others, *args)

    monkeypatch.setattr(mfg_mod, "path_sup_distances", recording)
    sol = fixed_point_iterate(make_model("cap1d_monotone"), SMALL)
    assert len(rounds) == len(sol.iterations) + 1
    for rec, (m, (psi, m_next)) in zip(sol.iterations, rounds):
        assert rec.psi_residual == path_sup_distance(m, psi)
        assert rec.rho_change == path_sup_distance(m, m_next)
    m, psis = rounds[-1]
    assert m is sol.m and len(psis) == 3
    assert sol.psi_residual == float(np.mean([path_sup_distance(m, p) for p in psis]))


def test_one_fixed_point_run_builds_each_node_operator_once(monkeypatch):
    """Every value solve of a run shares one grid and its plan: one
    _hat_operators call per mode and mesh time, over all its tau nodes, in
    the whole run, however many solves read them, and the grid is released
    when the run returns."""
    import hilbert_mfg.hjb as hjb_mod
    import hilbert_mfg.mfg as mfg_mod

    hat_operators, calls, solves = hjb_mod._hat_operators, [], []
    build, grids = hjb_mod.ValueGrid.build, []

    def building(spec, config):
        grid = build(spec, config)
        grids.append(weakref.ref(grid))
        return grid

    def counting(i, y, wq):
        calls.append(i.shape)
        return hat_operators(i, y, wq)

    def counted(*args, **kwargs):
        solves.append(None)
        return hjb_mod.solve_hjb_mild(*args, **kwargs)

    monkeypatch.setattr(hjb_mod, "_hat_operators", counting)
    monkeypatch.setattr(mfg_mod, "solve_hjb_mild", counted)
    monkeypatch.setattr(hjb_mod.ValueGrid, "build", building)
    prob = make_model("cap1d_monotone")
    fixed_point_iterate(prob, SMALL)
    assert len(solves) > 1
    n_times = len(SMALL.mesh()) - 1
    assert len(calls) == prob.spectrum.N * n_times
    assert set(calls) == {(SMALL.tau_nodes - 1, SMALL.grid_points, SMALL.quad_nodes)}
    gc.collect()
    assert len(grids) == 1 and grids[0]() is None


def test_stalled_value_solve_carries_completed_iterations(monkeypatch):
    """A value solve that stalls after one completed outer iteration ends
    the run with the stall as its status, that iteration, the stalled
    field, and no certificate or audit."""
    import hilbert_mfg.mfg as mfg_mod
    from hilbert_mfg.hjb import solve_hjb_mild

    calls = []

    def stall_second(*args, **kwargs):
        calls.append(None)
        v = solve_hjb_mild(*args, **kwargs)
        if len(calls) == 2:
            v.status = "max-iterations"
        return v

    monkeypatch.setattr(mfg_mod, "solve_hjb_mild", stall_second)
    sol = fixed_point_iterate(make_model("cap1d_monotone"), SMALL)
    assert len(calls) == 2
    assert sol.status == "value-solve-stalled" and not sol.converged
    assert [r.index for r in sol.iterations] == [1]
    assert sol.v.status == "max-iterations" and sol.m.M == SMALL.particles
    assert math.isnan(sol.psi_residual) and math.isnan(sol.psi_residual_stderr)
    assert math.isnan(sol.certificate_budget) and not sol.certified
    assert sol.audit is None and sol.w1_method == "exact"


def test_psi_map_raises_on_a_stalled_value_solve():
    prob = make_model("cap1d_monotone")
    cfg = SMALL.with_(picard_max=1)
    m = propagate(DriftField.zero(1), prob.m0, prob.spectrum, cfg)
    with pytest.raises(RuntimeError, match="stalled"):
        psi_map(prob, m, cfg)


def test_uniqueness_reports_a_stalled_value_solve_without_raising():
    prob = make_model("cap1d_monotone")
    cfg = SolverConfig(dt=0.25, particles=200, grid_points=9, quad_nodes=4, tau_nodes=5,
                       picard_max=1, picard_tol=1e-12, fp_max=2, seed=1)
    start_a = propagate(DriftField.zero(1), prob.m0, prob.spectrum, cfg.with_(seed=2))
    start_b = propagate(DriftField.zero(1), ProductGaussian([0.0], [0.5]),
                        prob.spectrum, cfg.with_(seed=3))
    rep, sol_a, sol_b = uniqueness_experiment(prob, start_a, start_b, cfg)
    assert (rep.status_a, rep.status_b) == ("value-solve-stalled",) * 2
    assert (sol_a.status, sol_b.status) == ("value-solve-stalled",) * 2
    assert sol_a.iterations == () and sol_b.iterations == ()
    assert math.isnan(rep.rho_between) and math.isnan(rep.value_sup_distance)
    assert not rep.both_converged


def test_importing_the_mfg_solver_loads_no_scipy_optimize():
    # only exact W1 on N >= 2 modes runs an assignment; it imports scipy.optimize itself
    src = str(Path(hilbert_mfg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, hilbert_mfg.mfg; print('scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"
