"""Concrete capped-control Hamiltonian, measure couplings, and checkers.

The control problem behind the shipped Hamiltonian caps the control in the
ball of radius R and charges the uniformly convex running cost
f1(|alpha|) with f1(s) = a s^2, a > 0, which gives the closed forms

    H1(p) = s(|p|) |p| - a s(|p|)^2,   DH1(p) = s(|p|) p / |p|,

with s(r) = min(r / (2a), R): below the kink at |p| = f1'(R) = 2aR the
supremum sits at the interior stationary point, above it the cap binds.
An optional bounded drift offset b0 enters the Hamiltonian linearly, so
the full gradient is DH1(p) - b0(x) and stays bounded by R + |b0|.  Every
pointwise function takes points of shape (..., N) and returns (...)
values; one point, shape (N,), is a batch whose lead shape is ().

Every coupling is the rank-one product w <h(x), int h dmu>, one class for
any number of components of h, whose monotonicity pairing collapses to the
exact square w |int h d(mu1 - mu2)|^2 even at the empirical level.

The checkers are samplers, not proofs: they report worst observed ratios
against declared constants, and the monotonicity verdict is a minimum over
randomized measure pairs with bootstrap error bars.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .fp_particles import bootstrap_stderr
from .hjb import SeparatedHamiltonian
from .measures import Dirac, ParticleMeasure, ProductGaussian, wasserstein1
from .mfg import MFGProblem
from .spectrum import SpectrumSpec

_TAG_PAIR = 0x2A
_TAG_MONO = 0x2B
_TAG_CHECK = 0x2C
_TAG_BOOT = 0x2D


def _mode_sum(x):
    """Sum over the last (mode) axis as one left fold, x_0 + x_1 + ...: equal
    to np.sum(x, axis=-1) for N <= 3 modes (up to the sign of a zero sum),
    without numpy's generic loop for reductions over a short axis."""
    acc = x[..., 0]
    for k in range(1, x.shape[-1]):
        acc = acc + x[..., k]
    return acc


def eval_H1(p, R, a):
    """sup over |alpha| <= R of <alpha, p> - a |alpha|^2, closed form, for
    p of shape (..., N); shape (...), a float for one point."""
    p = np.asarray(p, dtype=float)
    r = np.sqrt(_mode_sum(p * p))
    s = np.minimum(r / (2.0 * a), float(R))
    return s * r - a * np.square(s)


def eval_DH1(p, R, a):
    """Gradient of eval_H1, shape (..., N): the optimizer radius times the
    unit vector of p, capped at R; zero at p = 0."""
    p = np.asarray(p, dtype=float)
    r = np.sqrt(_mode_sum(p * p))
    s = np.minimum(r / (2.0 * a), float(R))
    return np.divide(s, r, out=np.zeros_like(r), where=r > 0)[..., None] * p


@dataclass
class CappedControlHamiltonian:
    """H0(x, p) = H1(p) - <b0(x), p> for the capped control problem."""

    R: float
    a: float = 1.0  # f1(s) = a s^2
    b0: object = None  # X -> (..., N), bounded by b0_bound
    b0_bound: float = 0.0

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError("control cap R must be positive")
        if not self.a > 0:
            raise ValueError("uniform convexity needs a > 0")
        if (self.b0 is None) != (self.b0_bound == 0.0):
            raise ValueError("b0 and b0_bound must be declared together")

    @property
    def bound_Hp(self):
        return float(self.R) + float(self.b0_bound)

    @property
    def grad_lipschitz(self):
        # the interior branch p / (2a) moves at rate 1/(2a); the capped
        # branch R p/|p| at rate at most 2R / f1'(R) = 1/a, twice that
        return 1.0 / self.a

    def h0(self, X, P):
        out = eval_H1(P, self.R, self.a)
        if self.b0 is not None:
            out = out - _mode_sum(np.asarray(self.b0(X), dtype=float) * P)
        return out

    def h0_p(self, X, P):
        out = eval_DH1(P, self.R, self.a)
        if self.b0 is not None:
            out = out - np.asarray(self.b0(X), dtype=float)
        return out

    def separated(self, coupling, label=""):
        return SeparatedHamiltonian(
            h0=self.h0,
            h0_p=self.h0_p,
            coupling=coupling,
            bound_Hp=self.bound_Hp,
            lip_p=self.bound_Hp,
            lip_mu=getattr(coupling, "lip", None),
            label=label,
        )


@dataclass
class RankOneCoupling:
    """F(x, mu) = weight * <h(x), int h dmu> for bounded Lipschitz h with a
    component axis, h(X) of shape (..., C).  weight < 0 flips the pairing
    sign (the anti-monotone negative control)."""

    h: object
    lip: float
    weight: float = 1.0
    label: str = ""

    def statistic(self, mu):
        """int h dmu over the particles of mu, one entry per component."""
        return np.mean(np.asarray(self.h(mu.points), dtype=float), axis=0)

    def __call__(self, X, mu):
        h = np.asarray(self.h(np.asarray(X, dtype=float)), dtype=float)
        return _mode_sum(self.weight * h * self.statistic(mu))

    def closed_pairing(self, mu1, mu2):
        gap = self.statistic(mu1) - self.statistic(mu2)
        return float((self.weight * gap) @ gap)


def default_pair_sampler(n_modes, M=64):
    """Randomized measure pairs: Gaussian clouds, constant (Dirac-like)
    clouds, and half-and-half mixtures, rotating by seed."""

    def sample(seed):
        g = rng.generator(seed, _TAG_PAIR)

        def cloud():
            mean = g.uniform(-1.0, 1.0, n_modes)
            sd = g.uniform(0.3, 1.2, n_modes)
            return ParticleMeasure(mean + sd * g.standard_normal((M, n_modes)))

        kind = int(g.integers(3))
        if kind == 0:
            return cloud(), cloud()
        if kind == 1:
            a = g.uniform(-1.5, 1.5, n_modes)
            b = g.uniform(-1.5, 1.5, n_modes)
            return (ParticleMeasure(np.tile(a, (M, 1))),
                    ParticleMeasure(np.tile(b, (M, 1))))
        half = M // 2
        mixed = np.vstack([cloud().points[: M - half], cloud().points[:half]])
        return ParticleMeasure(mixed), cloud()

    return sample


def _pairing_floor(stderr):
    """The lowest pairing a monotone coupling may show at bootstrap stderr."""
    return -1e-9 - 3.0 * stderr


@dataclass
class MonotonicityReport:
    """What monotonicity_check measured, with the thresholds and verdicts
    its check.csv rows print: floor, the pairing floor at min_stderr, and
    identity_ok, identity_gap below identity_tol (true without a gap)."""

    label: str
    trials: int
    min_pairing: float
    min_stderr: float
    passed: bool
    identity_gap: float = None  # only for the rank-one couplings
    zero_nondegenerate: int = 0
    identity_tol = 1e-12

    @property
    def floor(self):
        return _pairing_floor(self.min_stderr)

    @property
    def identity_ok(self):
        return self.identity_gap is None or self.identity_gap < self.identity_tol


def monotonicity_check(coupling, trials=1000, seed=0, n_modes=1):
    """Evaluate the pairing int [F(x,mu1) - F(x,mu2)] (mu1 - mu2)(dx) on
    randomized pairs, as the difference of empirical means over the two
    supports.  PASS means no pairing fell below _pairing_floor of its
    bootstrap standard error; a coupling with a closed_pairing is also
    compared with it, the largest gap reported as identity_gap."""
    sampler = default_pair_sampler(n_modes)
    closed = getattr(coupling, "closed_pairing", None)
    min_pairing, min_se = np.inf, 0.0
    identity_gap = 0.0 if closed else None
    passed = True
    zero_nondeg = 0
    for i in range(trials):
        mu1, mu2 = sampler(rng.derive_seed(seed, _TAG_MONO, i))
        delta_on_1 = np.asarray(coupling(mu1.points, mu1), dtype=float) \
            - np.asarray(coupling(mu1.points, mu2), dtype=float)
        delta_on_2 = np.asarray(coupling(mu2.points, mu1), dtype=float) \
            - np.asarray(coupling(mu2.points, mu2), dtype=float)
        pairing = float(delta_on_1.mean() - delta_on_2.mean())
        se = math.hypot(bootstrap_stderr(delta_on_1, seed=rng.derive_seed(seed, _TAG_BOOT, i, 0)),
                        bootstrap_stderr(delta_on_2, seed=rng.derive_seed(seed, _TAG_BOOT, i, 1)))
        if closed is not None:
            identity_gap = max(identity_gap, abs(pairing - closed(mu1, mu2)))
        if pairing < min_pairing:
            min_pairing, min_se = pairing, se
        if pairing < _pairing_floor(se):
            passed = False
        if abs(pairing) < MonotonicityReport.identity_tol and wasserstein1(mu1, mu2) > 1e-6:
            zero_nondeg += 1
    return MonotonicityReport(label=getattr(coupling, "label", ""), trials=trials,
                              min_pairing=min_pairing, min_stderr=min_se,
                              passed=passed, identity_gap=identity_gap,
                              zero_nondegenerate=zero_nondeg)


@dataclass
class AssumptionReport:
    hp_worst: float
    hp_declared: float
    lip_p_worst: float
    lip_p_declared: float
    lip_mu_worst: float
    lip_mu_declared: float

    @property
    def hp_ok(self):
        return self.hp_worst <= self.hp_declared + 1e-9

    @property
    def lip_p_ok(self):
        return self.lip_p_declared is None or self.lip_p_worst <= self.lip_p_declared + 1e-9

    @property
    def lip_mu_ok(self):
        return self.lip_mu_declared is None or self.lip_mu_worst <= self.lip_mu_declared + 1e-9

    @property
    def ok(self):
        return bool(self.hp_ok and self.lip_p_ok and self.lip_mu_ok)


def assumption_check(hamiltonian, n_modes, trials=200, seed=0):
    """Spot-check the declared bounds: |H_p| against its cap, and the
    Lipschitz ratios of H in p (measure frozen) and in mu (p frozen)."""
    g = rng.generator(seed, _TAG_CHECK)
    sampler = default_pair_sampler(n_modes, M=32)
    hp_worst = 0.0
    lip_p_worst = 0.0
    lip_mu_worst = 0.0
    for i in range(trials):
        x = g.uniform(-3.0, 3.0, (1, n_modes))
        p = g.uniform(-3.0, 3.0, (1, n_modes))
        q = g.uniform(-3.0, 3.0, (1, n_modes))
        mu1, mu2 = sampler(rng.derive_seed(seed, _TAG_CHECK, i))
        hp = np.asarray(hamiltonian.grad_p(x, p, mu1), dtype=float)[0]
        hp_worst = max(hp_worst, float(np.linalg.norm(hp)))
        h = float(hamiltonian.value(x, p, mu1)[0])
        dp = float(np.linalg.norm(p - q))
        if dp > 1e-9:
            lip_p_worst = max(lip_p_worst, abs(h - float(hamiltonian.value(x, q, mu1)[0])) / dp)
        d1 = wasserstein1(mu1, mu2)
        if d1 > 1e-9:
            lip_mu_worst = max(lip_mu_worst, abs(h - float(hamiltonian.value(x, p, mu2)[0])) / d1)
    return AssumptionReport(
        hp_worst=hp_worst,
        hp_declared=float(hamiltonian.bound_Hp),
        lip_p_worst=lip_p_worst,
        lip_p_declared=getattr(hamiltonian, "lip_p", None),
        lip_mu_worst=lip_mu_worst,
        lip_mu_declared=getattr(hamiltonian, "lip_mu", None),
    )


MODEL_NAMES = ("cap1d_monotone", "cap1d_antimonotone", "cap2d_f2")


def make_model(name):
    """Shipped presets wiring the capped Hamiltonian to a coupling, a
    bounded terminal, an initial law, and a spectrum that certifies the
    trace condition."""
    if name == "cap1d_monotone" or name == "cap1d_antimonotone":
        weight = 1.0 if name == "cap1d_monotone" else -3.0
        spec = SpectrumSpec(eigenvalues=(-1.0,), delta=0.5, family=("power", 1.0, 3.0))
        cap = CappedControlHamiltonian(R=1.0)
        coupling = RankOneCoupling(h=lambda X: 0.8 * np.tanh(X[..., :1]),
                                   lip=0.8 * abs(weight), weight=weight, label="F1")
        terminal = lambda X, mu: 0.4 * np.tanh(X[..., 0])
        ham = cap.separated(coupling, label=name)
        return MFGProblem(spectrum=spec, hamiltonian=ham, terminal=terminal,
                          m0=Dirac([0.0]), horizon=1.0)
    if name == "cap2d_f2":
        spec = SpectrumSpec(eigenvalues=(-1.0, -4.0), delta=0.25, family=("power", 1.0, 2.0))
        b0 = lambda X: 0.3 * np.tanh(X)
        cap = CappedControlHamiltonian(R=1.0, b0=b0, b0_bound=0.3 * math.sqrt(2.0))
        coupling = RankOneCoupling(h=lambda X: 0.5 * np.tanh(X), lip=0.5 * math.sqrt(2.0),
                                   label="F2")
        terminal = lambda X, mu: 0.3 * np.cos(X[..., 0] + X[..., 1])
        ham = cap.separated(coupling, label=name)
        m0 = ProductGaussian(mean=[0.2, 0.0], var=[0.2, 0.1])
        return MFGProblem(spectrum=spec, hamiltonian=ham, terminal=terminal,
                          m0=m0, horizon=1.0)
    raise ValueError("unknown model %r; shipped: %s" % (name, ", ".join(MODEL_NAMES)))
