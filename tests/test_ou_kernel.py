"""OU semigroup quadrature against closed forms, a Monte Carlo oracle,
finite differences, and the smoothing-rate audit."""

import numpy as np
import pytest

from hilbert_mfg.ou_kernel import OUKernel, QuadratureRule
from hilbert_mfg.spectrum import SpectrumSpec, covariance_qk

E_M1 = 0.36787944117144233  # e^{-1}
Q1_AT_1 = 0.43233235838169365  # (1 - e^{-2}) / 2


def kernel_1d(nodes=16, lam=-1.0):
    return OUKernel(SpectrumSpec(eigenvalues=(lam,)), QuadratureRule(nodes))


def test_rule_normalized_and_symmetric():
    rule = QuadratureRule(16)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(rule.nodes, -rule.nodes[::-1])
    Z, W = rule.tensor(2)
    assert Z.shape == (256, 2) and W.sum() == pytest.approx(1.0, rel=1e-12)


def test_apply_preserves_constants():
    k = kernel_1d()
    for t in (0.0, 0.01, 1.0, 10.0):
        assert k.apply_Rt(lambda y: np.ones(y.shape[:-1]), t, np.array([0.3])) == pytest.approx(1.0, rel=1e-14)


def test_apply_linear_closed_form():
    k = kernel_1d()
    assert k.apply_Rt(lambda y: y[..., 0], 1.0, np.array([1.0])) == pytest.approx(E_M1, rel=1e-12)


def test_apply_linear_against_monte_carlo():
    k = kernel_1d()
    gen = np.random.default_rng(100)
    n = 1_000_000
    draws = E_M1 * 1.0 + np.sqrt(Q1_AT_1) * gen.standard_normal(n)
    mc = draws.mean()
    se = draws.std() / np.sqrt(n)
    assert k.apply_Rt(lambda y: y[..., 0], 1.0, np.array([1.0])) == pytest.approx(mc, abs=3 * se)


def test_apply_square_closed_form():
    k = kernel_1d()
    # at x = 0, t = ln 2 the expectation is the covariance q_1
    assert k.apply_Rt(lambda y: y[..., 0] ** 2, np.log(2.0), np.array([0.0])) == pytest.approx(0.375, rel=1e-12)
    # generally e^{2 lambda t} x^2 + q(t)
    spec = k.spec
    for t, x in [(0.3, 1.2), (1.0, -0.7), (2.5, 0.0)]:
        expect = np.exp(-2.0 * t) * x ** 2 + covariance_qk(spec, 1, t)
        got = k.apply_Rt(lambda y: y[..., 0] ** 2, t, np.array([x]))
        assert got == pytest.approx(expect, rel=1e-6)


def test_semigroup_law_on_polynomials():
    spec = SpectrumSpec(eigenvalues=(-1.0, -2.0))
    k = OUKernel(spec, QuadratureRule(16))

    def poly(y):
        return y[..., 0] ** 4 - 2.0 * y[..., 0] ** 3 + y[..., 0] * y[..., 1] ** 2 + y[..., 1] - 3.0

    x = np.array([0.4, -0.8])
    for s, t in [(0.2, 0.5), (0.05, 0.05), (1.0, 0.3)]:
        direct = k.apply_Rt(poly, s + t, x)
        composed = k.apply_Rt(k.as_field(poly, s), t, x)
        assert composed == pytest.approx(direct, rel=1e-6, abs=1e-9)


def test_contraction_on_bounded_field():
    spec = SpectrumSpec(eigenvalues=(-0.5, -3.0))
    k = OUKernel(spec)
    gen = np.random.default_rng(7)
    X = gen.uniform(-4, 4, (64, 2))
    phi = lambda y: np.tanh(y[..., 0] * 2.0) * np.cos(y[..., 1])
    for t in (0.01, 0.2, 1.0):
        vals = k.apply_Rt(phi, t, X)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_gradient_constant_is_zero():
    k = kernel_1d()
    g = k.gradient_DRt(lambda y: np.full(y.shape[:-1], 3.7), 0.5, np.array([0.2]))
    assert abs(g[0]) < 1e-12


def test_gradient_eigenrelation():
    spec = SpectrumSpec(eigenvalues=(-1.0, -2.5))
    k = OUKernel(spec)
    x = np.array([0.3, -1.1])
    for mode, lam in enumerate(spec.eigenvalues):
        g = k.gradient_DRt(lambda y, m=mode: y[..., m], 1.0, x)
        expect = np.zeros(2)
        expect[mode] = np.exp(lam * 1.0)
        assert np.allclose(g, expect, atol=1e-12)


def test_gradient_square_closed_form():
    k = kernel_1d()
    g = k.gradient_DRt(lambda y: y[..., 0] ** 2, 1.0, np.array([1.0]))
    assert g[0] == pytest.approx(0.2706705664732254, rel=1e-10)  # 2 e^{-2}


def test_gradient_matches_finite_differences():
    spec = SpectrumSpec(eigenvalues=(-1.0, -2.0))
    k = OUKernel(spec)
    phi = lambda y: np.cos(y[..., 0] + 0.5 * y[..., 1]) + np.tanh(y[..., 0])
    eps = 1e-4
    for t in (0.05, 0.3, 1.0):
        for x in (np.array([0.0, 0.0]), np.array([0.7, -0.4])):
            g = k.gradient_DRt(phi, t, x)
            for mode in range(2):
                e = np.zeros(2)
                e[mode] = eps
                fd = (k.apply_Rt(phi, t, x + e) - k.apply_Rt(phi, t, x - e)) / (2 * eps)
                assert g[mode] == pytest.approx(fd, rel=1e-2, abs=1e-8)


def test_gradient_rejects_t_zero():
    k = kernel_1d()
    with pytest.raises(ValueError):
        k.gradient_DRt(lambda y: y[..., 0], 0.0, np.array([0.0]))


def test_batch_shapes():
    spec = SpectrumSpec(eigenvalues=(-1.0, -2.0))
    k = OUKernel(spec)
    phi = lambda y: y[..., 0] + y[..., 1] ** 2
    X = np.random.default_rng(1).standard_normal((5, 4, 2))
    vals = k.apply_Rt(phi, 0.3, X)
    grads = k.gradient_DRt(phi, 0.3, X)
    assert vals.shape == (5, 4) and grads.shape == (5, 4, 2)
    for i in np.ndindex(5, 4):
        one = k.apply_Rt(phi, 0.3, X[i])
        v1, g1 = k.apply_with_gradient(phi, 0.3, X[i])
        assert isinstance(one, float) and v1 == one
        # BLAS sums a one-row matrix-vector product in another order than a
        # many-row one, so the value agrees to rounding, the gradient exactly
        assert one == pytest.approx(vals[i], rel=1e-14)
        assert np.array_equal(g1, grads[i])
        at_zero = k.apply_Rt(phi, 0.0, X[i])
        assert isinstance(at_zero, float) and at_zero == phi(X[i])


def test_smoothing_audit_bounded_ratio():
    k = kernel_1d()
    phi = lambda y: np.tanh(10.0 * y[..., 0])
    xs = np.linspace(-2, 2, 41)[:, None]
    table = k.smoothing_audit(phi, np.geomspace(0.01, 1.0, 12), xs, sup_norm=1.0)
    assert table.max_ratio <= 2.0
    # constants: ratio column identically zero
    z = k.smoothing_audit(lambda y: np.ones(y.shape[:-1]), [0.1, 1.0], xs, sup_norm=1.0)
    assert np.allclose(z.ratio, 0.0, atol=1e-12)


def test_smoothing_audit_quadrature_refinement():
    # halving the quadrature spacing moves the ratios by < 1% once the rule
    # resolves the field (the 10x step needs ~64 nodes at t = 0.01)
    phi = lambda y: np.tanh(10.0 * y[..., 0])
    xs = np.linspace(-2, 2, 21)[:, None]
    t_grid = np.geomspace(0.01, 1.0, 10)
    r64 = kernel_1d(64).smoothing_audit(phi, t_grid, xs, sup_norm=1.0).ratio
    r128 = kernel_1d(128).smoothing_audit(phi, t_grid, xs, sup_norm=1.0).ratio
    assert np.max(np.abs(r128 - r64) / np.maximum(r128, 1e-12)) < 0.01


def test_value_and_gradient_share_one_evaluation_bit_for_bit():
    # on a 2-mode grid the shared evaluation equals both single reductions
    # and the plain quadrature formulas exactly, from one call of the field
    from hilbert_mfg.spectrum import covariance_diag, semigroup_factors

    spec = SpectrumSpec(eigenvalues=(-1.0, -2.5))
    k = OUKernel(spec, QuadratureRule(8))
    axis = np.linspace(-3.0, 3.0, 9)
    pts = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=-1)
    calls = []

    def phi(y):
        calls.append(y.shape)
        return np.tanh(y[..., 0] - 0.3 * y[..., 1]) + 0.2 * y[..., 1] ** 2

    Z, W = k.rule.tensor(2)
    for t in (0.01, 0.2, 1.0, 3.0):
        calls.clear()
        vals, grads = k.apply_with_gradient(phi, t, pts)
        assert len(calls) == 1
        assert np.array_equal(vals, k.apply_Rt(phi, t, pts))
        assert np.array_equal(grads, k.gradient_DRt(phi, t, pts))
        sd = np.sqrt(covariance_diag(spec, t))
        table = phi((pts * semigroup_factors(spec, t))[:, None, :] + sd * Z[None, :, :])
        assert np.array_equal(vals, table @ W)
        lam_weight = semigroup_factors(spec, t) / np.sqrt(covariance_diag(spec, t))
        assert np.array_equal(grads, np.einsum("gq,q,qk->gk", table, W, Z) * lam_weight)
    v1, g1 = k.apply_with_gradient(phi, 0.5, pts[7])
    assert v1 == k.apply_Rt(phi, 0.5, pts[7])
    assert np.array_equal(g1, k.gradient_DRt(phi, 0.5, pts[7]))
    with pytest.raises(ValueError):
        k.apply_with_gradient(phi, 0.0, pts)
