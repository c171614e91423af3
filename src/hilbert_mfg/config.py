"""Shared solver configuration.

One dataclass carries every numeric knob so that run configs serialize to a
flat record and identical configs mean identical runs (all randomness is
keyed by the seed, see rng.py).
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np


@dataclass
class SolverConfig:
    horizon: float = 1.0        # T
    dt: float = 0.05            # mesh step shared by the HJB mesh and the particle scheme
    particles: int = 10_000     # M
    grid_points: int = 64       # spatial resolution per mode
    box_scale: float = 6.0      # half-width L = box_scale * max_k sqrt(alpha_k + beta_k)
    quad_nodes: int = 16        # Gauss-Hermite nodes per mode
    tau_nodes: int = 33         # nodes of the s = t + tau^2 singular-kernel quadrature
    picard_tol: float = 1e-4    # weighted gradient-change stopping threshold
    picard_max: int = 40
    fp_tol: float = 1e-2        # rho_inf change stopping threshold for the fixed point
    fp_max: int = 50
    damping: float = 0.5        # theta of the damped iteration
    exact_w1_budget: int = 512  # N >= 2 assignment cap, sliced beyond; N = 1 sorts
    sliced_projections: int = 64
    seed: int = 0

    def __post_init__(self):
        # each message starts with the one field it is about
        for name in ("horizon", "dt", "box_scale", "picard_tol", "fp_tol"):
            if not 0 < getattr(self, name) < np.inf:  # refuses nan too
                raise ValueError("%s: must be positive and finite" % name)
        if not 0 < self.damping <= 1:
            raise ValueError("damping: must lie in (0, 1]")
        for name, least in (("particles", 1), ("grid_points", 2),
                            ("quad_nodes", 1), ("tau_nodes", 2),
                            ("picard_max", 1), ("fp_max", 1),
                            ("exact_w1_budget", 0), ("sliced_projections", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError("%s: must be an integer" % name)
            if value < least:
                raise ValueError("%s: must be >= %d" % (name, least))
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or not 0 <= int(self.seed) < 2 ** 128):  # the Philox key range
            raise ValueError("seed: must be an integer in [0, 2**128)")

    @property
    def n_steps(self):
        return max(1, int(round(self.horizon / self.dt)))

    def mesh(self):
        """Time mesh 0 = t_0 < ... < t_J = T; realized step is horizon / n_steps."""
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def with_(self, **kw):
        return replace(self, **kw)


def same_mesh(a, b):
    """Whether two arrays of mesh times are one mesh: equal length, then
    np.allclose (so meshes of different lengths never reach numpy)."""
    return len(a) == len(b) and bool(np.allclose(a, b))


def check_mesh(times):
    """Refuse mesh times that are not a 1-D array starting at 0 and
    increasing strictly to a finite T (a nan anywhere fails the increase)."""
    if (np.ndim(times) != 1 or len(times) < 1 or times[0] != 0.0
            or not (np.all(np.diff(times) > 0) and np.isfinite(times[-1]))):
        raise ValueError("times must start at 0 and increase strictly")
