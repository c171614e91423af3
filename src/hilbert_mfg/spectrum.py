"""Diagonal generator spectrum and its per-mode scalars.

The operator A is negative, self-adjoint and diagonal on the mode basis,
so it is fully described by its eigenvalue sequence lambda_1 >= ... >=
lambda_N (all < 0).  Everything the solvers need from A reduces to three
scalars per mode:

    semigroup factor   e^{lambda_k t}
    OU covariance      q_k(t) = (1 - e^{2 lambda_k t}) / (2|lambda_k|)
    stationary bound   alpha_k = 1 / (2|lambda_k|),  q_k(t) < alpha_k

The basis is never materialized; mode coordinates are the state.  A finite
eigenvalue list cannot certify the summability condition
sum_k |lambda_k|^{-1+delta} < infty, so that condition is checked only for
declared analytic families (lambda_k = -c k^p needs p(1-delta) > 1) and
reported as unverifiable for raw lists.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SpectrumSpec:
    """First N eigenvalues of A plus the decay exponent delta in (0, 1].

    family optionally tags an analytic family ("power", c, p) meaning
    lambda_k = -c * k**p, used for trace-condition certification.
    """

    eigenvalues: tuple
    delta: float = 0.5
    family: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", tuple(float(l) for l in np.atleast_1d(self.eigenvalues)))

    @property
    def N(self):
        return len(self.eigenvalues)

    @cached_property
    def lam(self):
        """Eigenvalues as a read-only array, index 0 <-> mode 1."""
        a = np.array(self.eigenvalues, dtype=float)
        a.flags.writeable = False
        return a

    def require_mode(self, k):
        """Validate a 1-based mode index, return the 0-based position."""
        k = int(k)
        if not 1 <= k <= self.N:
            raise IndexError("mode index %d out of range 1..%d" % (k, self.N))
        return k - 1


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)
    # "certified" / "failed" / "not declared" (finite lists are always summable)
    trace_condition: str = "not declared"


def validate_spectrum(spec):
    """Check the standing assumptions on the eigenvalue sequence.

    Violations are collected, never raised; a declared power family
    additionally gets the trace condition p(1-delta) > 1 evaluated.
    """
    violations = []
    lam = spec.lam
    if spec.N < 1:
        violations.append("empty spectrum (N must be >= 1)")
    if np.any(lam >= 0):
        violations.append("eigenvalues must be strictly negative")
    if np.any(np.diff(lam) > 0):
        violations.append("eigenvalue sequence must be non-increasing")
    if not 0 < spec.delta <= 1:
        violations.append("delta must lie in (0, 1]")

    trace = "not declared"
    if spec.family is not None:
        kind, c, p = spec.family[0], float(spec.family[1]), float(spec.family[2])
        if kind != "power":
            violations.append("unknown family tag %r" % (kind,))
        else:
            if c <= 0:
                violations.append("power family needs c > 0")
            declared = -c * np.arange(1, spec.N + 1, dtype=float) ** p
            if not np.allclose(declared, lam, rtol=1e-12, atol=0.0):
                violations.append("eigenvalues do not match the declared power family")
            if p * (1.0 - spec.delta) > 1.0:
                trace = "certified"
            else:
                trace = "failed"
                violations.append(
                    "trace condition fails: p(1-delta) = %.6g <= 1" % (p * (1.0 - spec.delta))
                )

    return ValidationReport(ok=not violations, violations=violations, trace_condition=trace)


def covariance_qk(spec, k, t):
    """OU covariance q_k(t) = (1 - e^{2 lambda_k t}) / (2 |lambda_k|).

    Computed as expm1(2 lambda t) / (2 lambda), which is exact near t = 0
    where the subtractive form cancels; small-t accuracy feeds the
    singular-kernel HJB quadrature.
    """
    i = spec.require_mode(k)
    if t < 0:
        raise ValueError("t must be >= 0")
    lam = spec.eigenvalues[i]
    return float(np.expm1(2.0 * lam * t) / (2.0 * lam))


def alpha_beta(spec, k, m0):
    """(alpha_k, beta_k): stationary variance bound and the k-th second moment of m0.

    m0 is anything exposing mode_second_moment(k) (initial laws report exact
    moments for Dirac / product-Gaussian kinds and empirical ones otherwise).
    """
    i = spec.require_mode(k)
    alpha = 1.0 / (2.0 * abs(spec.eigenvalues[i]))
    beta = float(m0.mode_second_moment(k))
    return alpha, beta


# Vectorized forms used by the kernels; index 0 corresponds to mode 1.

def semigroup_factors(spec, t):
    return np.exp(spec.lam * t)


def covariance_diag(spec, t):
    return np.expm1(2.0 * spec.lam * t) / (2.0 * spec.lam)


def stationary_variances(spec):
    return 1.0 / (2.0 * np.abs(spec.lam))
