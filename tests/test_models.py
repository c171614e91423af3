"""Capped Hamiltonian closed forms, couplings, and assumption checkers."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hilbert_mfg import rng
from hilbert_mfg.hjb import GeneralHamiltonian
from hilbert_mfg.measures import ParticleMeasure
from hilbert_mfg.models import (
    CappedControlHamiltonian,
    MODEL_NAMES,
    MonotonicityReport,
    RankOneCoupling,
    _mode_sum,
    assumption_check,
    eval_DH1,
    eval_H1,
    make_model,
    monotonicity_check,
)

A = 1.0  # the cost coefficient a of f1(s) = a s^2


def brute_H1(p, R, a, n=200_001):
    # by symmetry the sup over the R-ball reduces to a scalar scan along p
    s = np.linspace(0.0, R, n)
    return float(np.max(s * np.linalg.norm(p) - a * np.square(s)))


def test_H1_frozen_points():
    assert eval_H1([1.0], 1.0, A) == pytest.approx(0.25, abs=1e-15)
    assert np.allclose(eval_DH1([1.0], 1.0, A), [0.5])
    assert eval_H1([3.0, 0.0], 1.0, A) == pytest.approx(2.0, abs=1e-15)
    assert np.allclose(eval_DH1([3.0, 0.0], 1.0, A), [1.0, 0.0])
    assert eval_H1([0.0, 0.0], 1.0, A) == 0.0
    assert np.allclose(eval_DH1([0.0, 0.0], 1.0, A), [0.0, 0.0])


def test_H1_brute_force_sup_both_regimes():
    g = rng.generator(12, 0)
    worst = 0.0
    for i in range(100):
        n = int(g.integers(1, 4))
        # half the draws land inside the kink radius f1'(R) = 2aR, half outside
        scale = 0.8 if i % 2 == 0 else 4.0
        p = scale * g.uniform(-1.0, 1.0, n)
        R = float(g.uniform(0.5, 2.0))
        a = float(g.uniform(0.5, 2.0))
        worst = max(worst, abs(eval_H1(p, R, a) - brute_H1(p, R, a)))
    assert worst < 1e-4


def test_DH1_matches_finite_differences_away_from_kink():
    g = rng.generator(13, 0)
    h = 1e-6
    for i in range(100):
        n = int(g.integers(1, 4))
        p = g.uniform(-3.0, 3.0, n)
        r = np.linalg.norm(p)
        if abs(r - 2.0) < 0.1 or r < 0.1:  # kink at f1'(R) = 2, cone point at 0
            continue
        grad = eval_DH1(p, 1.0, A)
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            fd = (eval_H1(p + e, 1.0, A) - eval_H1(p - e, 1.0, A)) / (2 * h)
            assert abs(fd - grad[k]) < 1e-3


def test_DH1_sampled_lipschitz_ratio():
    g = rng.generator(14, 0)
    cap = CappedControlHamiltonian(R=1.0, a=A)
    worst = 0.0
    for _ in range(400):
        p = g.uniform(-4.0, 4.0, 2)
        q = g.uniform(-4.0, 4.0, 2)
        d = np.linalg.norm(p - q)
        if d < 1e-9:
            continue
        gap = np.linalg.norm(eval_DH1(p, 1.0, A) - eval_DH1(q, 1.0, A))
        worst = max(worst, gap / d)
    assert worst <= cap.grad_lipschitz + 1e-9


def test_capped_hamiltonian_with_drift_offset():
    b0 = lambda X: 0.3 * np.tanh(X)
    cap = CappedControlHamiltonian(R=1.0, b0=b0, b0_bound=0.3 * math.sqrt(2.0))
    X = np.array([[0.5, -0.2]])
    P = np.array([[0.4, 0.1]])
    base = CappedControlHamiltonian(R=1.0)
    assert cap.h0(X, P)[0] == pytest.approx(
        base.h0(X, P)[0] - float(np.sum(b0(X) * P)), abs=1e-14)
    assert np.allclose(cap.h0_p(X, P), base.h0_p(X, P) - b0(X))
    assert cap.bound_Hp == pytest.approx(1.0 + 0.3 * math.sqrt(2.0))
    with pytest.raises(ValueError):
        CappedControlHamiltonian(R=1.0, b0=b0)  # bound not declared


def test_f1_coupling_point_values():
    mu = ParticleMeasure(np.array([[1.0]]))
    c = RankOneCoupling(h=lambda X: np.tanh(X[..., :1]), lip=1.0)
    assert c(np.array([[0.5]]), mu).shape == (1,)
    assert c(np.array([[0.5]]), mu)[0] == pytest.approx(
        math.tanh(0.5) * math.tanh(1.0), abs=1e-14)
    ones = RankOneCoupling(h=lambda X: np.ones(X.shape[:-1] + (1,)), lip=0.0)
    assert ones(np.array([[0.3]]), mu)[0] == pytest.approx(1.0, abs=1e-14)


def test_f2_coupling_reduces_to_scalar_product():
    mu = ParticleMeasure(np.array([[0.4, -0.6], [0.1, 0.2]]))
    c = RankOneCoupling(h=lambda X: np.tanh(X), lip=1.0, weight=-2.0)
    stat = np.tanh(mu.points).mean(axis=0)
    x = np.array([0.7, -0.1])
    assert c(x[None, :], mu)[0] == pytest.approx(-2.0 * float(np.tanh(x) @ stat), abs=1e-14)
    other = ParticleMeasure(np.array([[0.0, 0.3]]))
    gap = stat - np.tanh(other.points[0])
    assert c.closed_pairing(mu, other) == pytest.approx(-2.0 * float(gap @ gap), abs=1e-14)


def test_monotonicity_constant_coupling_is_flat():

    class Flat:
        label = "flat"

        def __call__(self, X, mu):
            return np.full(np.asarray(X).shape[:-1], 0.7)

    rep = monotonicity_check(Flat(), trials=50, seed=0)
    assert rep.passed
    assert abs(rep.min_pairing) < 1e-14


def test_monotonicity_f1_identity_and_sign():
    coupling = make_model("cap1d_monotone").hamiltonian.coupling
    rep = monotonicity_check(coupling, trials=1000, seed=0)
    assert rep.passed
    assert rep.identity_gap < 1e-12
    assert rep.min_pairing >= -1e-9
    assert rep.zero_nondegenerate == 0


def test_monotonicity_report_carries_its_thresholds_and_verdicts():
    """The report states the floor its min_pairing row prints and the
    identity verdict, so a caller need not repeat either rule."""
    coupling = make_model("cap1d_monotone").hamiltonian.coupling
    rep = monotonicity_check(coupling, trials=100, seed=0)
    assert rep.identity_ok
    assert rep.floor == -1e-9 - 3.0 * rep.min_stderr
    assert MonotonicityReport.identity_tol == 1e-12
    off = replace(rep, identity_gap=1e-6)
    assert not off.identity_ok and off.passed
    assert replace(rep, identity_gap=None).identity_ok


def test_monotonicity_f2_identity():
    coupling = make_model("cap2d_f2").hamiltonian.coupling
    rep = monotonicity_check(coupling, trials=300, seed=1, n_modes=2)
    assert rep.passed
    assert rep.identity_gap < 1e-12


def test_monotonicity_negative_control_fails():
    coupling = make_model("cap1d_antimonotone").hamiltonian.coupling
    rep = monotonicity_check(coupling, trials=200, seed=0)
    assert not rep.passed
    assert rep.min_pairing < -1e-6  # strictly negative pairing observed


def test_assumption_check_shipped_models_pass():
    for name in MODEL_NAMES:
        if name == "cap1d_antimonotone":
            continue  # anti-monotone differs only in the coupling sign
        prob = make_model(name)
        rep = assumption_check(prob.hamiltonian, n_modes=prob.spectrum.N,
                               trials=150, seed=2)
        assert rep.ok, (name, rep)
        assert rep.hp_worst <= prob.hamiltonian.bound_Hp + 1e-9


def test_assumption_check_negative_control_reported_not_raised():
    bad = GeneralHamiltonian(
        value_fn=lambda X, P, mu: np.sum(np.square(P), axis=-1),
        grad_p_fn=lambda X, P, mu: 2.0 * P,
        bound_Hp=1.0, lip_p=1.0, label="quadratic-unbounded")
    rep = assumption_check(bad, n_modes=2, trials=100, seed=0)
    assert not rep.ok
    assert rep.hp_worst > 1.0
    assert rep.lip_p_worst > 1.0


def test_make_model_presets_and_unknown_name():
    for name in MODEL_NAMES:
        prob = make_model(name)
        assert prob.horizon == 1.0
        assert np.isfinite(prob.hamiltonian.bound_Hp)
    anti = make_model("cap1d_antimonotone")
    assert anti.hamiltonian.coupling.weight < 0
    with pytest.raises(ValueError):
        make_model("nope")


def test_quadratic_profile_guards():
    with pytest.raises(ValueError, match="uniform convexity needs a > 0"):
        CappedControlHamiltonian(R=1.0, a=0.0)
    with pytest.raises(ValueError):
        CappedControlHamiltonian(R=-1.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(x=st.integers(1, 3).flatmap(lambda n: arrays(
    np.float64, st.tuples(st.integers(1, 4), st.integers(1, 5), st.just(n)),
    elements=st.one_of(st.floats(-1e150, 1e150), st.sampled_from([-0.0, 0.0])))))
def test_mode_fold_equals_numpy_sum_and_norm(x):
    # the left fold over a short mode axis adds in numpy's order
    assert np.array_equal(_mode_sum(x), np.sum(x, axis=-1))
    assert np.array_equal(np.sqrt(_mode_sum(x * x)), np.linalg.norm(x, axis=-1))
    # each point of a batch reads as that point alone, a float for H1
    H, DH = eval_H1(x, 1.0, 0.7), eval_DH1(x, 1.0, 0.7)
    assert H.shape == x.shape[:-1] and DH.shape == x.shape
    for i in np.ndindex(x.shape[:-1]):
        one = eval_H1(x[i], 1.0, 0.7)
        assert isinstance(one, float) and one == H[i]
        assert np.array_equal(eval_DH1(x[i], 1.0, 0.7), DH[i])
