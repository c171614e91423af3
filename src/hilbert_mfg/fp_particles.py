"""Fokker-Planck flow as an interacting-free particle system.

The law path of the drifted OU dynamics

    dX = (A X + w(t, X)) dt + dW

is realized by an exponential-Euler scheme: per step and per mode the exact
OU transition is applied with the drift frozen at the step's left endpoint,

    X_k <- e^{lambda_k h} X_k + w_k(t, X) (1 - e^{lambda_k h}) / |lambda_k|
           + sqrt(q_k(h)) zeta.

The drift factor is the mild convolution of a constant over the step, so
the scheme is unconditionally stable for stiff modes and reproduces the
driftless law exactly at any step size.

Noise layout (counter-based, see rng.py): block 0 of the seed's stream is
reserved for the initial sample; step j reads M*N normals from the
4-aligned block 1+j ordered particle-major, mode-minor, so the draw for
(particle i, step j, mode k) is a pure function of (seed, i, j, k).

propagate writes the whole path into one preallocated (J+1, M, N) array,
each step straight into its time slice, and returns it as a read-only
MeasurePath: row i of every slice is particle i's trajectory.

weak_form_residual audits the defining weak identity of the law path
directly: for test functions phi in the Fourier class,

    int phi(t) dm(t) - int phi(0) dm(0)
        - int_0^t int [dphi/dt + L0 phi + <w, Dphi>] dm ds,

with L0 phi = <x, A Dphi> + 1/2 Tr D^2 phi.  The drift pairing carries the
sign of the forward generator of the SDE above, which is what propagate
simulates (the equivalent statement with -<w, .> describes the flow driven
by -w).  weak_residual_profile audits K test functions in one pass, with one
drift evaluation per mesh time for all of them, and bootstrap_stderr gives
its K rows one shared resample draw.

The audit's scratch is bounded.  Its one O(K*M*J) array is the integrand
block, written one contiguous (M, K) mesh-time slice at a time; each time
step adds O(M*(K+N)) temporaries.  The trapezoid forms its panels in
place in that block and sums particle blocks of at most _SCRATCH values,
and the bootstrap draws its resample indices in blocks of at most
_SCRATCH (one row of M when M is larger), reducing every row on a block
before drawing the next.  Both reproduce the one-shot sums bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .measures import Dirac, MeasurePath, ProductGaussian
from .spectrum import SpectrumSpec, covariance_diag, semigroup_factors

_TAG_BOOTSTRAP = 0xB5
_BOOTSTRAP_DRAWS = 200  # resamples behind each bootstrap standard error
_SCRATCH = 1 << 16  # values in one audit block: resample indices or trapezoid rows


@dataclass
class DriftField:
    """Bounded vector field w(t, x); the bound is checked at every
    evaluation and a violation, or a non-finite value, is fatal."""

    fn: object
    bound: float
    label: str = ""

    def __call__(self, t, X):
        w = np.asarray(self.fn(t, X), dtype=float)
        if w.shape != X.shape:
            raise ValueError("drift returned shape %s for points %s" % (w.shape, X.shape))
        worst = float(np.sqrt(np.max(np.einsum("...i,...i->...", w, w)))) if w.size else 0.0
        if not math.isfinite(worst):  # np.max carries a nan through, and nan > bound is False
            if not np.isfinite(w).all():
                raise FloatingPointError("drift %r returned a non-finite value" % self.label)
            # a finite drift above ~1.3e154 overflows when squared: rescale first
            scale = float(np.max(np.abs(w)))
            u = w / scale
            worst = scale * float(np.sqrt(np.max(np.einsum("...i,...i->...", u, u))))
        if worst > self.bound + 1e-9:
            raise ValueError(
                "drift bound violated: |w| = %.6g exceeds declared %.6g" % (worst, self.bound)
            )
        return w

    @classmethod
    def constant(cls, vec, label="constant"):
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        return cls(fn=lambda t, X: np.broadcast_to(vec, X.shape), bound=float(np.linalg.norm(vec)), label=label)

    @classmethod
    def zero(cls, n_modes):
        return cls(fn=lambda t, X: np.zeros_like(X), bound=0.0, label="zero")


@dataclass
class FourierTestFunction:
    """phi(t, x) = psi(t) * trig(<x, h> + theta) with h on finitely many
    modes; all derivatives the weak formulation needs are closed forms."""

    h: np.ndarray
    theta: float = 0.0
    kind: str = "cos"
    psi: object = None  # time profile, default constant 1
    dpsi: object = None

    def __post_init__(self):
        self.h = np.atleast_1d(np.asarray(self.h, dtype=float))
        if self.kind not in ("cos", "sin"):
            raise ValueError("kind must be 'cos' or 'sin'")
        if (self.psi is None) != (self.dpsi is None):
            raise ValueError("psi and dpsi must be supplied together")

    def _psi(self, t):
        return 1.0 if self.psi is None else float(self.psi(t))

    def _dpsi(self, t):
        return 0.0 if self.psi is None else float(self.dpsi(t))

    def _check_modes(self, n):
        if n != len(self.h):
            raise ValueError("test function supported on %d modes, points have %d" % (len(self.h), n))

    def _phase(self, X):
        self._check_modes(X.shape[-1])
        return X @ self.h + self.theta

    def value(self, t, X):
        u = self._phase(X)
        return self._psi(t) * (np.cos(u) if self.kind == "cos" else np.sin(u))

    def dt(self, t, X):
        u = self._phase(X)
        return self._dpsi(t) * (np.cos(u) if self.kind == "cos" else np.sin(u))

    def gradient(self, t, X):
        u = self._phase(X)
        radial = -np.sin(u) if self.kind == "cos" else np.cos(u)
        return self._psi(t) * radial[..., None] * self.h

    def trace_d2(self, t, X):
        # D^2 phi = -psi * trig(u) h (x) h, so the trace is -|h|^2 phi
        return -float(self.h @ self.h) * self.value(t, X)

    def l0(self, spec, t, X):
        """L0 phi = <x, A Dphi> + 1/2 Tr D^2 phi (A diagonal self-adjoint)."""
        grad = self.gradient(t, X)
        drift_term = np.sum(X * spec.lam * grad, axis=-1)
        return drift_term + 0.5 * self.trace_d2(t, X)


def propagate(w, m0, spec, config):
    """Push the initial law through the drifted OU flow on the config mesh."""
    mesh = config.mesh()
    M = int(config.particles)
    N = spec.N
    if m0.n_modes != N:
        raise ValueError("initial law has %d modes, spectrum has %d" % (m0.n_modes, N))
    seed = int(config.seed)
    points = np.empty((len(mesh), M, N))
    points[0] = m0.sample(M, seed)
    block = rng.aligned(M * N)
    noise = rng.normal_blocks(seed, block, block, len(mesh) - 1)  # block 1 + j feeds step j
    for j in range(len(mesh) - 1):
        t, h = mesh[j], mesh[j + 1] - mesh[j]
        growth = semigroup_factors(spec, h)
        drift_factor = (1.0 - growth) / np.abs(spec.lam)
        sd = np.sqrt(covariance_diag(spec, h))
        zeta = next(noise)[: M * N].reshape(M, N)
        zeta *= sd
        X, nxt = points[j], points[j + 1]
        np.multiply(growth, X, out=nxt)
        nxt += w(t, X) * drift_factor
        nxt += zeta
        if not np.all(np.isfinite(nxt)):
            raise FloatingPointError("non-finite coordinate produced at step %d" % j)
    return MeasurePath(times=mesh, points=points)


def _mesh_index(path, t):
    idx = path.index_at(t)
    if abs(path.times[idx] - t) > 1e-12:
        raise ValueError("t = %g is not a mesh time" % t)
    return idx


def weak_residual_profile(path, w, phis, t, spec):
    """Per-particle contributions R_ki to the weak-form residual at time t:
    a (K, M) array, row k for test function phis[k].

    Row k's residual is its mean; its spread feeds the bootstrap error bar.
    Reads particle i's trajectory as row i of every mesh time, which is what
    propagate writes.  Each mesh time evaluates the drift once and forms one
    (M, K) phase matrix X H^T + theta for all the test functions.
    """
    jt = _mesh_index(path, t)
    if not phis:
        raise ValueError("weak residual needs at least one test function")
    M, n_modes = path.points.shape[1:]
    for phi in phis:
        phi._check_modes(n_modes)
    HT = np.ascontiguousarray(np.array([phi.h for phi in phis]).T)
    theta = np.array([phi.theta for phi in phis])
    sin_cols = [k for k, phi in enumerate(phis) if phi.kind == "sin"]
    neg_sq = -np.array([float(phi.h @ phi.h) for phi in phis])

    def trig(X):  # phi / psi and the radial factor of Dphi / (psi h), per kind
        U = X @ HT
        U += theta
        value, radial = np.cos(U), np.sin(U)
        np.negative(radial, out=radial)  # cos columns: value cos u, radial -sin u
        value[:, sin_cols], radial[:, sin_cols] = -radial[:, sin_cols], value[:, sin_cols]
        return value, radial

    def profile(s):  # psi(s) and dpsi(s) of every test function
        return np.array([[phi._psi(s), phi._dpsi(s)] for phi in phis]).T

    ends = {j: trig(path.points[j]) for j in {0, jt}}
    boundary = (profile(t)[0] * ends[jt][0] - profile(0.0)[0] * ends[0][0]).T
    if jt == 0:
        return boundary
    integrand = np.empty((jt + 1, M, len(phis)))
    for j, out in enumerate(integrand):
        s, X = path.times[j], path.points[j]
        (psi, dpsi), (value, radial) = profile(s), ends[j] if j in ends else trig(X)
        psi_radial = radial * psi
        # out = dpsi value + L0 phi + <w, Dphi>, with
        # L0 phi = <x, A Dphi> + 1/2 Tr D^2 phi, summed left to right
        l0 = (X * spec.lam) @ HT
        l0 *= psi_radial
        trace = value * psi
        trace *= neg_sq
        trace *= 0.5
        l0 += trace
        np.multiply(value, dpsi, out=out)
        out += l0
        pairing = w(s, X) @ HT
        pairing *= psi_radial
        out += pairing
    # np.trapezoid's arithmetic: the panels d_j (f_j + f_{j+1}) / 2 formed in
    # place, a mesh time at a time, then each particle's row of panels copied
    # out contiguous and summed as np.trapezoid sums its (M, jt) panel block
    for j, d in enumerate(np.diff(path.times[: jt + 1])):
        panel = integrand[j]
        panel += integrand[j + 1]
        panel *= d
        panel /= 2.0
    integral = np.empty((len(phis), M))
    block = max(1, _SCRATCH // (jt + 1))
    for k, out in enumerate(integral):
        for i in range(0, M, block):
            out[i:i + block] = np.ascontiguousarray(integrand[:jt, i:i + block, k].T).sum(axis=1)
    return boundary - integral


def weak_form_residual(path, w, phi, t, spec):
    """Signed residual of the weak identity at mesh time t; vanishes (within
    Monte Carlo noise plus O(h) splitting bias) on paths from propagate."""
    return float(np.mean(weak_residual_profile(path, w, [phi], t, spec)[0]))


def bootstrap_stderr(values, seed=0):
    """Standard error of the mean of `values` by deterministic bootstrap; a
    (K, M) array gets one error per row, every row reading the same draw.

    The resample indices come from one generator in blocks of at most
    _SCRATCH (one row of M when M exceeds it), and every row is reduced on
    a block before the next is drawn, so the scratch is two such blocks
    and K * _BOOTSTRAP_DRAWS means.  The draw does not depend on the
    blocking: the result equals the one-shot (_BOOTSTRAP_DRAWS, M) draw.
    """
    values = np.asarray(values, dtype=float)
    M = values.shape[-1]
    if M == 0:
        raise ValueError("bootstrap needs at least one value per row")
    rows = values.reshape(-1, M)
    means = np.empty((len(rows), _BOOTSTRAP_DRAWS))
    g = rng.generator(seed, _TAG_BOOTSTRAP)
    block = max(1, _SCRATCH // M)
    for b in range(0, _BOOTSTRAP_DRAWS, block):
        idx = g.integers(0, M, size=(min(block, _BOOTSTRAP_DRAWS - b), M))
        for row, out in zip(rows, means):
            out[b:b + len(idx)] = row[idx].mean(axis=1)
    return np.std(means, axis=1).reshape(values.shape[:-1])[()]


@dataclass(frozen=True)
class ResidualCase:
    """One drift / test-function pair for the weak-form residual audit."""

    label: str
    spec: SpectrumSpec
    w: DriftField
    m0: object
    phi: FourierTestFunction
    seed: int


def residual_audit_cases():
    """The shipped drift/test-function pairs the residual audit runs on.

    One pair with a strongly time-dependent drift (the O(h) splitting bias
    dominates, so refinement visibly shrinks the residual), one with a
    state-coupled drift, and one starting from the invariant law where the
    residual is pure Monte Carlo noise.
    """
    spec = SpectrumSpec(eigenvalues=(-1.0,))
    alpha = 0.5  # stationary variance 1 / (2 |lambda_1|)
    return [
        ResidualCase(
            label="pulsed-drift",
            spec=spec,
            w=DriftField(fn=lambda t, X: np.full_like(X, 2.0 * np.cos(6.0 * t)),
                         bound=2.0, label="2 cos(6t)"),
            m0=Dirac([0.0]),
            phi=FourierTestFunction(h=[1.5], theta=0.3),
            seed=5,
        ),
        ResidualCase(
            label="state-coupled",
            spec=spec,
            w=DriftField(fn=lambda t, X: 0.8 * np.cos(X + t),
                         bound=0.8, label="0.8 cos(x + t)"),
            m0=Dirac([0.0]),
            phi=FourierTestFunction(h=[2.0]),
            seed=4,
        ),
        ResidualCase(
            label="stationary",
            spec=spec,
            w=DriftField.zero(1),
            m0=ProductGaussian(mean=[0.0], var=[alpha]),
            phi=FourierTestFunction(h=[1.3], theta=0.4),
            seed=4,
        ),
    ]
