"""Spectrum scalars against closed forms and an independent quadrature
oracle for the OU covariance."""

import numpy as np
import pytest
from scipy.integrate import quad

from hilbert_mfg.spectrum import (
    SpectrumSpec,
    covariance_diag,
    covariance_qk,
    semigroup_factors,
    stationary_variances,
    validate_spectrum,
)
from hilbert_mfg.measures import Dirac, ProductGaussian


def test_validate_trace_condition_failure():
    # lambda_k = -k with delta = 0.5: p(1-delta) = 0.5 <= 1 fails summability.
    spec = SpectrumSpec(eigenvalues=(-1.0, -2.0, -3.0), delta=0.5, family=("power", 1.0, 1.0))
    rep = validate_spectrum(spec)
    assert not rep.ok
    assert rep.trace_condition == "failed"
    # reported, not a violation: the truncation itself is well posed
    assert rep.violations == []


def test_validate_laplacian_family_passes():
    # lambda_k = -k^2 with delta = 0.25: 2 * 0.75 = 1.5 > 1.
    spec = SpectrumSpec(eigenvalues=(-1.0, -4.0, -9.0), delta=0.25, family=("power", 1.0, 2.0))
    rep = validate_spectrum(spec)
    assert rep.ok
    assert rep.trace_condition == "certified"


def test_validate_monotonicity_failure():
    rep = validate_spectrum(SpectrumSpec(eigenvalues=(-1.0, -0.5)))
    assert not rep.ok
    assert any("non-increasing" in v for v in rep.violations)


def test_validate_positive_eigenvalue_rejected():
    rep = validate_spectrum(SpectrumSpec(eigenvalues=(-1.0, 0.5)))
    assert not rep.ok


@pytest.mark.parametrize("spec, key", [
    (SpectrumSpec((0.5, -1.0)), "eigenvalues"),
    (SpectrumSpec((-1.0, -0.5)), "eigenvalues"),
    (SpectrumSpec((-1.0,), delta=float("nan")), "delta"),
    (SpectrumSpec((-1.0,), delta=1.5), "delta"),
    (SpectrumSpec((-1.0,), family=("power", -1.0, 2.0)), "family"),
    (SpectrumSpec((-1.0,), family=("power", 1.0, -2.0)), "family"),
    (SpectrumSpec((-1.0, -2.0), family=("power", 1.0, 2.0)), "family"),
    (SpectrumSpec((float("nan"),)), "eigenvalues"),
    (SpectrumSpec((-float("inf"),)), "eigenvalues"),
])
def test_each_violation_leads_with_its_config_key(spec, key):
    rep = validate_spectrum(spec)
    assert not rep.ok
    assert len(rep.violations) == 1 and rep.violations[0].startswith(key + ": ")


def test_raw_list_trace_not_declared():
    rep = validate_spectrum(SpectrumSpec(eigenvalues=(-1.0, -2.0)))
    assert rep.ok and rep.trace_condition == "not declared"


def test_semigroup_factor_values():
    spec = SpectrumSpec(eigenvalues=(-1.0, -2.0))
    assert np.array_equal(semigroup_factors(spec, 0.0), [1.0, 1.0])
    assert semigroup_factors(spec, 1.0)[0] == pytest.approx(0.36787944117144233, rel=1e-12)
    assert semigroup_factors(spec, 0.5)[1] == pytest.approx(0.36787944117144233, rel=1e-12)


def test_semigroup_law():
    spec = SpectrumSpec(eigenvalues=(-0.7, -2.3))
    for s, t in [(0.1, 0.2), (1.0, 2.5), (0.0, 3.0)]:
        np.testing.assert_allclose(
            semigroup_factors(spec, s + t),
            semigroup_factors(spec, s) * semigroup_factors(spec, t), rtol=1e-14, atol=0
        )


def test_mode_index_out_of_range():
    spec = SpectrumSpec(eigenvalues=(-1.0,))
    with pytest.raises(IndexError):
        covariance_qk(spec, 2, 1.0)
    with pytest.raises(IndexError):
        covariance_qk(spec, 0, 1.0)


def test_covariance_values():
    spec = SpectrumSpec(eigenvalues=(-1.0,))
    assert covariance_qk(spec, 1, 0.0) == 0.0
    # (1 - e^{-2 ln 2}) / 2 = (1 - 1/4) / 2
    assert covariance_qk(spec, 1, np.log(2.0)) == pytest.approx(0.375, rel=1e-12)
    assert covariance_qk(spec, 1, 20.0) == pytest.approx(0.5, abs=1e-8)


def test_covariance_against_quadrature_oracle():
    spec = SpectrumSpec(eigenvalues=(-0.31, -2.9, -11.0))
    for k, lam in enumerate(spec.eigenvalues, start=1):
        for t in (1e-8, 1e-3, 0.1, 0.9, 5.0):
            oracle, _ = quad(lambda s: np.exp(2.0 * lam * s), 0.0, t, epsabs=1e-14, epsrel=1e-13)
            assert covariance_qk(spec, k, t) == pytest.approx(oracle, rel=1e-10)


def test_covariance_monotone_and_bounded():
    spec = SpectrumSpec(eigenvalues=(-0.5, -4.0))
    ts = np.linspace(0.0, 8.0, 200)
    for k, lam in enumerate(spec.eigenvalues, start=1):
        q = np.array([covariance_qk(spec, k, t) for t in ts])
        alpha = 1.0 / (2.0 * abs(lam))
        assert np.all(np.diff(q) >= 0)
        assert np.all(q <= alpha)


def test_alpha_beta():
    # (alpha_k, beta_k): the stationary variance 1/(2|lambda_k|) and the k-th
    # second moment of m0, the two inputs of the invariant-set bound a_k
    spec = SpectrumSpec(eigenvalues=(-2.0,))
    assert (stationary_variances(spec)[0], Dirac([0.0]).mode_second_moment(1)) == (0.25, 0.0)

    spec1 = SpectrumSpec(eigenvalues=(-1.0,))
    a = stationary_variances(spec1)[0]
    b = ProductGaussian(mean=[0.0], var=[0.3]).mode_second_moment(1)
    assert (a, b) == (0.5, pytest.approx(0.3, rel=1e-14))

    assert (stationary_variances(spec1)[0], Dirac([2.0]).mode_second_moment(1)) == (0.5, 4.0)


def test_vectorized_forms_match_scalar_ops():
    spec = SpectrumSpec(eigenvalues=(-1.0, -2.0, -3.5))
    t = 0.37
    assert np.allclose(semigroup_factors(spec, t), np.exp(np.array([-1.0, -2.0, -3.5]) * t))
    assert np.allclose(covariance_diag(spec, t), [covariance_qk(spec, k, t) for k in (1, 2, 3)])
