"""Ornstein-Uhlenbeck transition semigroup R_t and its smoothing gradient.

    [R_t phi](x)   = E[phi(e^{tA} x + Z_t)],   Z_t ~ N(0, diag q_k(t))
    [D R_t phi]_k  = E[phi(e^{tA} x + Z_t) * Lambda_k(t) * zeta_k]

with Lambda_k(t) = e^{lambda_k t} / sqrt(q_k(t)) and zeta the standardized
noise.  The gradient uses the likelihood-ratio weight rather than
differentiating through phi, so it stays valid for merely bounded fields;
Lambda_k blows up like t^{-1/2}, which is the smoothing rate the HJB solver
budgets for.

Expectations are evaluated by tensor Gauss-Hermite quadrature over the
modes: deterministic and spectrally accurate for smooth integrands (a
Monte Carlo route exists only as a test oracle).  Fields are callables on
(..., N)-shaped coordinate arrays.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .spectrum import covariance_diag, semigroup_factors


def tensor_points(axes):
    """The points of the tensor product of the 1-D arrays axes, shape
    (prod of their lengths, len(axes)), in C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass
class QuadratureRule:
    """Per-mode Gauss-Hermite rule on the standard normal weight."""

    nodes_per_mode: int = 16
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.nodes_per_mode < 1:
            raise ValueError("need at least one quadrature node")
        h_nodes, h_weights = hermgauss(self.nodes_per_mode)
        # physicists' weight e^{-x^2} -> standard normal: x = sqrt(2) t, w / sqrt(pi)
        self.nodes = np.sqrt(2.0) * h_nodes
        self.weights = h_weights / np.sqrt(np.pi)
        self.weights = self.weights / self.weights.sum()
        self._tensor_cache = {}

    def tensor(self, n_modes):
        """(Z, W): nodes (Q, n_modes) and weights (Q,) of the product rule."""
        if n_modes not in self._tensor_cache:
            self._tensor_cache[n_modes] = (tensor_points([self.nodes] * n_modes),
                                           tensor_points([self.weights] * n_modes).prod(axis=1))
        return self._tensor_cache[n_modes]


def _as_points(x, n_modes):
    """x (..., N) as a (P, N) batch and its lead shape (...); one point,
    shape (N,), is a batch of lead shape ()."""
    x = np.asarray(x, dtype=float)
    if x.ndim >= 1 and x.shape[-1] == n_modes:
        return x.reshape(-1, n_modes), x.shape[:-1]
    raise ValueError("points must have %d mode coordinates on the last axis" % n_modes)


class OUKernel:
    """R_t and D R_t for a fixed spectrum and quadrature rule."""

    def __init__(self, spec, rule=None):
        self.spec = spec
        self.rule = rule if rule is not None else QuadratureRule()

    def factors(self, t):
        """(decay, sd) per mode at t > 0: e^{lambda_k t} and q_k(t)^{1/2};
        times (n, 1) give (n, N) arrays."""
        if np.any(np.asarray(t) <= 0):
            raise ValueError("gradient representation is singular at t = 0; differentiate phi directly")
        return semigroup_factors(self.spec, t), np.sqrt(covariance_diag(self.spec, t))

    def images(self, t, pts):
        """The quadrature images e^{tA} x + sd * z, shape (G, Q, N), of a
        (G, N) batch at the nodes z of the tensor rule."""
        decay, sd = self.factors(t)
        Z = self.rule.tensor(self.spec.N)[0]
        return (pts * decay)[:, None, :] + sd[None, None, :] * Z[None, :, :]

    def _quadrature(self, phi, t, pts):
        """(R_t phi, D R_t phi) from one evaluation of phi at the images:
        the value and the gradient are two reductions of the (G, Q) table."""
        decay, sd = self.factors(t)
        Z, W = self.rule.tensor(self.spec.N)
        vals = np.asarray(phi(self.images(t, pts)), dtype=float)
        return vals @ W, np.einsum("gq,q,qk->gk", vals, W, Z) * (decay / sd)

    def apply_Rt(self, phi, t, x):
        """[R_t phi](x) for x of shape (..., N); t = 0 returns phi(x)."""
        if t < 0:
            raise ValueError("t must be >= 0")
        pts, lead = _as_points(x, self.spec.N)
        if t == 0.0:
            vals = np.asarray(phi(pts), dtype=float)
        else:
            vals, _ = self._quadrature(phi, t, pts)
        return vals.reshape(lead)[()]

    def gradient_DRt(self, phi, t, x):
        """[D R_t phi](x), shape (..., N); the representation needs t > 0."""
        return self.apply_with_gradient(phi, t, x)[1]

    def apply_with_gradient(self, phi, t, x):
        """([R_t phi](x), [D R_t phi](x)) for t > 0, bit for bit what
        apply_Rt and gradient_DRt return, from one evaluation of phi."""
        pts, lead = _as_points(x, self.spec.N)
        vals, grad = self._quadrature(phi, t, pts)
        return vals.reshape(lead)[()], grad.reshape(lead + (self.spec.N,))

    def as_field(self, phi, t):
        """R_t phi as a ScalarField (for composition and tests)."""
        return lambda y: self.apply_Rt(phi, t, y)

    def smoothing_audit(self, phi, t_grid, x_sample, sup_norm=None):
        """Tabulate sup_x |D R_t phi(x)| * sqrt(t) / ||phi|| over the t grid.

        A bounded column certifies the t^{-1/2} smoothing rate.  sup_norm
        defaults to the sample sup of |phi|.
        """
        pts, _ = _as_points(x_sample, self.spec.N)
        if sup_norm is None:
            sup_norm = float(np.max(np.abs(phi(pts))))
        if sup_norm == 0:
            sup_norm = 1.0
        t_grid = np.asarray(t_grid, dtype=float)
        ratios = np.empty_like(t_grid)
        for i, t in enumerate(t_grid):
            g = self.gradient_DRt(phi, t, pts)
            ratios[i] = np.max(np.linalg.norm(g, axis=-1)) * np.sqrt(t) / sup_norm
        return SmoothingTable(t=t_grid, ratio=ratios)


@dataclass
class SmoothingTable:
    t: np.ndarray
    ratio: np.ndarray

    @property
    def max_ratio(self):
        return float(np.max(self.ratio))
