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


def mode_index(k, n_modes):
    """The 0-based position of the 1-based mode index k of n_modes modes."""
    if k != int(k) or not 1 <= k <= n_modes:
        raise IndexError("mode index %s out of range 1..%d" % (k, n_modes))
    return int(k) - 1


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)
    # "certified" / "failed" / "not declared" (finite lists are always summable)
    trace_condition: str = "not declared"


def validate_spectrum(spec):
    """Check the standing assumptions on the eigenvalue sequence.

    Violations are collected, never raised; each message leads with the
    config key it concerns.  A declared power family additionally gets the
    trace condition p(1-delta) > 1 evaluated.  Its failure clears `ok` but
    is not a violation: a finite truncation is still well posed, only the
    tail it stands for is not certified.
    """
    violations = []
    lam = spec.lam
    if spec.N < 1:
        violations.append("eigenvalues: empty spectrum (N must be >= 1)")
    if not np.all(np.isfinite(lam) & (lam < 0)):
        violations.append("eigenvalues: all must be finite and negative")
    if np.any(np.diff(lam) > 0):
        violations.append("eigenvalues: must be non-increasing (lambda_1 >= lambda_2 >= ...), "
                          "got %s" % " ".join("%g" % l for l in lam))
    if not 0 < spec.delta <= 1:
        violations.append("delta: must lie in (0, 1], got %r" % spec.delta)

    trace = "not declared"
    if spec.family is not None:
        kind, c, p = spec.family[0], float(spec.family[1]), float(spec.family[2])
        if kind != "power":
            violations.append("family: unknown family tag %r" % (kind,))
        else:
            if not (c > 0 and p >= 0):
                violations.append("family: 'power c p' needs c > 0 and p >= 0")
            elif not np.allclose(-c * np.arange(1, spec.N + 1, dtype=float) ** p, lam,
                                 rtol=1e-12, atol=0.0):
                violations.append("family: power %g %g does not match the eigenvalues" % (c, p))
            trace = "certified" if p * (1.0 - spec.delta) > 1.0 else "failed"

    return ValidationReport(ok=not violations and trace != "failed",
                            violations=violations, trace_condition=trace)


def covariance_qk(spec, k, t):
    """OU covariance q_k(t) of the 1-based mode k, the entry of
    covariance_diag."""
    i = mode_index(k, spec.N)
    if t < 0:
        raise ValueError("t must be >= 0")
    return float(covariance_diag(spec, t)[i])


# Vectorized forms used by the kernels; index 0 corresponds to mode 1.

def semigroup_factors(spec, t):
    return np.exp(spec.lam * t)


def covariance_diag(spec, t):
    """q_k(t) = (1 - e^{2 lambda_k t}) / (2 |lambda_k|) per mode, computed as
    expm1(2 lambda t) / (2 lambda), which is exact near t = 0 where the
    subtractive form cancels; small-t accuracy feeds the singular-kernel
    HJB quadrature."""
    return np.expm1(2.0 * spec.lam * t) / (2.0 * spec.lam)


def stationary_variances(spec):
    return 1.0 / (2.0 * np.abs(spec.lam))
