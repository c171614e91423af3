"""Coupled value/law fixed point and its invariant-set audit.

The best-response map takes a candidate law path m, solves the backward
value equation against it, reads the feedback drift off the gradient grid,

    w(t, x) = H_p(x, Dv(t, x), m(t)),

and transports the initial law forward.  A fixed point of that map,
together with its value field, is an equilibrium of the coupled system.

Plain iteration of a compact-valued map need not settle, so the update is
damped by particle pooling,

    m_{j+1} = (1 - theta) m_j + theta Psi(m_j),

with theta halved when the sup-distance change grows twice in a row.  The
per-iteration noise seeds derive from (run seed, iteration index), making
every iterate a deterministic function of the configuration.

The audit quantifies what membership in the iteration's invariant set
means concretely: per-mode second moments below a_k = 3 (beta_k + alpha_k
+ alpha_k |H_p|^2), a fourth-moment cap whose unspecified constant is
calibrated from zero-drift and saturated-drift transports, and a
square-root-in-time modulus fit.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import rng
from .config import same_mesh
from .fp_particles import DriftField, propagate
from .hjb import solve_hjb_mild
from .measures import (
    MeasurePath,
    mixture_paths,
    moments,
    path_modulus,
    path_sup_distance,
    w1_method,
)
from .spectrum import stationary_variances

_TAG_INIT = 0x11
_TAG_ITER = 0x12
_TAG_MIX = 0x13
_TAG_DIST = 0x14
_TAG_CERT = 0x15
_TAG_CAL = 0x16
_TAG_START_A = 0x17
_TAG_START_B = 0x18

# Modes past the truncation given analytic rows in the moment audit.
_TAIL_MODES = 3


@dataclass
class MFGProblem:
    """Data of the coupled system: dynamics spectrum, Hamiltonian with a
    declared gradient bound, terminal coupling, initial law, horizon."""

    spectrum: object
    hamiltonian: object
    terminal: object
    m0: object
    horizon: float

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        bound = float(self.hamiltonian.bound_Hp)
        if not (np.isfinite(bound) and bound >= 0):
            raise ValueError("hamiltonian must declare a finite |H_p| bound")
        if not np.isfinite(self.m0.norm_fourth_moment()):
            raise ValueError("initial law needs a finite fourth moment")


@dataclass
class IterationRecord:
    index: int
    rho_change: float
    psi_residual: float
    theta: float
    wallclock: float


@dataclass
class MFGSolution:
    v: object
    m: MeasurePath
    status: str
    iterations: tuple
    psi_residual: float
    psi_residual_stderr: float
    audit: object
    w1_method: str  # "exact" or "sliced": how the certificate distances were taken

    @property
    def converged(self):
        return self.status == "converged"


def _check_config(problem, config):
    if abs(config.horizon - problem.horizon) > 1e-12:
        raise ValueError("config horizon %g does not match problem horizon %g"
                         % (config.horizon, problem.horizon))


def drift_from_gradient(v, hamiltonian, m):
    """Feedback drift field read off a solved value grid."""
    def fn(t, X):
        return hamiltonian.grad_p(X, v.grad_at(t, X), m.at_time(t))

    return DriftField(fn=fn, bound=float(hamiltonian.bound_Hp), label="feedback")


class ValueSolveStalled(RuntimeError):
    """The inner value solve exhausted its Picard budget.  `iterations`
    holds the outer iteration records completed before the stall."""

    def __init__(self, message, iterations=()):
        super().__init__(message)
        self.iterations = tuple(iterations)


def _best_response_value(problem, m, config, records=()):
    """The value field against m, required to have converged; records are
    the outer iterations done so far, handed on if the solve stalls."""
    v = solve_hjb_mild(problem.hamiltonian, problem.terminal, m,
                       problem.spectrum, config)
    if v.status != "converged":
        raise ValueSolveStalled(
            "inner value solve stalled (weighted changes: %s)"
            % ", ".join("%.3g" % h for h in v.history),
            iterations=records,
        )
    return v


def _transport(problem, v, m, config, fp_seed):
    """m0 carried forward under the feedback drift read off v."""
    w = drift_from_gradient(v, problem.hamiltonian, m)
    return propagate(w, problem.m0, problem.spectrum, config.with_(seed=fp_seed))


def psi_map(problem, m, config, fp_seed=None):
    """One best response: value solve against m, then transport of m0 under
    the feedback drift.  Deterministic given (config, fp_seed)."""
    _check_config(problem, config)
    seed = config.seed if fp_seed is None else fp_seed
    return _transport(problem, _best_response_value(problem, m, config), m, config, seed)


def _distance(a, b, config, seed):
    return path_sup_distance(a, b, exact_budget=config.exact_w1_budget,
                             projections=config.sliced_projections, seed=seed)


def fixed_point_iterate(problem, config, initial=None):
    """Damped iteration of the best-response map.

    Returns status "converged" once the sup-distance change between
    consecutive damped iterates drops below config.fp_tol on two
    iterations in a row (a single sub-tolerance step can be a noise
    fluke while the undamped residual still carries signal), otherwise
    "max-iterations" with the full diagnostic history; either way the
    value field is solved once against the final law path, and that one
    solve is both the returned value field and the value behind the three
    repeat best responses (fresh transport seeds) that certify the
    fixed-point residual; the moment audit runs on the final path.  A
    stalled inner value solve raises ValueSolveStalled carrying the
    iteration records completed so far.
    """
    _check_config(problem, config)
    seed = int(config.seed)
    N = problem.spectrum.N
    if initial is None:
        m = propagate(DriftField.zero(N), problem.m0, problem.spectrum,
                      config.with_(seed=rng.derive_seed(seed, _TAG_INIT)))
    else:
        if not same_mesh(initial.times, config.mesh()):
            raise ValueError("initial path does not live on the config mesh")
        if initial.M != config.particles:
            raise ValueError("initial path has %d particles, config.particles is %d"
                             % (initial.M, config.particles))
        m = initial

    theta = float(config.damping)
    records = []
    status = "max-iterations"
    prev_change = None
    increases = 0
    quiet = 0
    for j in range(1, config.fp_max + 1):
        t0 = time.perf_counter()
        v = _best_response_value(problem, m, config, records)
        psi_j = _transport(problem, v, m, config, rng.derive_seed(seed, _TAG_ITER, j))
        psi_res = _distance(psi_j, m, config, rng.derive_seed(seed, _TAG_DIST, j, 0))
        m_next = mixture_paths(m, psi_j, 1.0 - theta,
                               seed=rng.derive_seed(seed, _TAG_MIX, j))
        change = _distance(m_next, m, config, rng.derive_seed(seed, _TAG_DIST, j, 1))
        records.append(IterationRecord(index=j, rho_change=change,
                                       psi_residual=psi_res, theta=theta,
                                       wallclock=time.perf_counter() - t0))
        if prev_change is not None and change > prev_change:
            increases += 1
            if increases >= 2:
                theta *= 0.5
                increases = 0
        else:
            increases = 0
        prev_change = change
        m = m_next
        quiet = quiet + 1 if change < config.fp_tol else 0
        if quiet >= 2:
            status = "converged"
            break

    v = _best_response_value(problem, m, config, records)
    repeats = []
    for r in range(3):
        psi_r = _transport(problem, v, m, config, rng.derive_seed(seed, _TAG_CERT, r))
        repeats.append(_distance(psi_r, m, config, rng.derive_seed(seed, _TAG_DIST, 0, r)))
    psi_residual = float(np.mean(repeats))
    psi_stderr = float(np.std(repeats) / math.sqrt(len(repeats)))
    audit = moment_bound_audit(problem, m, config)
    return MFGSolution(v=v, m=m, status=status, iterations=tuple(records),
                       psi_residual=psi_residual, psi_residual_stderr=psi_stderr,
                       audit=audit,
                       w1_method=w1_method(N, m.M, config.exact_w1_budget))


def _moment_bound(alpha, beta, R):
    """a_k = 3 (beta_k + alpha_k + alpha_k |H_p|^2) for a mode of stationary
    variance alpha_k whose initial second moment is beta_k."""
    return 3.0 * (beta + alpha + alpha * R * R)


def mode_bounds(problem):
    """a_k for the truncated modes."""
    alpha = stationary_variances(problem.spectrum)
    beta = np.array([problem.m0.mode_second_moment(k)
                     for k in range(1, problem.spectrum.N + 1)])
    return _moment_bound(alpha, beta, float(problem.hamiltonian.bound_Hp))


def calibrate_c0(problem, config):
    """Estimate the fourth-moment envelope constant by transporting m0
    under the zero drift and both saturated constant drifts, normalizing by
    1 + E|X_0|^4 + |H_p|^4, and keeping 1.5x the worst supremum."""
    _check_config(problem, config)
    R = float(problem.hamiltonian.bound_Hp)
    N = problem.spectrum.N
    drifts = [DriftField.zero(N)]
    if R > 0:
        u = np.full(N, R / math.sqrt(N))
        drifts += [DriftField.constant(u), DriftField.constant(-u)]
    denom = 1.0 + problem.m0.norm_fourth_moment() + R**4
    worst = 0.0
    for i, w in enumerate(drifts):
        path = propagate(w, problem.m0, problem.spectrum,
                         config.with_(seed=rng.derive_seed(config.seed, _TAG_CAL, i)))
        worst = max(worst, float(moments(path.points).fourth.max()) / denom)
    return 1.5 * worst


@dataclass
class AuditRow:
    mode: int
    bound: float
    observed: float
    stderr: float
    passed: bool
    sampled: bool


@dataclass
class MomentAuditReport:
    rows: tuple
    fourth_bound: float
    fourth_observed: float
    fourth_stderr: float
    fourth_pass: bool
    modulus_constant: float
    c0: float

    @property
    def ok(self):
        return bool(self.fourth_pass and
                    all(r.passed for r in self.rows if r.sampled))


def moment_bound_audit(problem, m, config):
    """Audit a law path against the invariant-set bounds.

    Sampled rows cover modes 1..N (sup over mesh of the empirical second
    moment vs a_k with 3-stderr slack).  When the spectrum declares an
    eigenvalue family, tail rows for the next _TAIL_MODES modes are
    emitted with their analytic bounds only: the truncation carries no mass
    there, so beta_n = 0 and nothing can be sampled.
    """
    bounds = mode_bounds(problem)
    R = float(problem.hamiltonian.bound_Hp)
    mom = moments(m.points)
    rows = []
    for k in range(problem.spectrum.N):
        j = int(np.argmax(mom.second[:, k]))  # the first time at the sup
        obs, err = float(mom.second[j, k]), float(mom.second_stderr[j, k])
        rows.append(AuditRow(mode=k + 1, bound=float(bounds[k]),
                             observed=obs, stderr=err,
                             passed=obs <= bounds[k] + 3 * err,
                             sampled=True))
    fam = problem.spectrum.family
    if fam is not None and fam[0] == "power":
        c, p = float(fam[1]), float(fam[2])
        for n in range(problem.spectrum.N + 1, problem.spectrum.N + 1 + _TAIL_MODES):
            rows.append(AuditRow(mode=n, bound=_moment_bound(1.0 / (2.0 * c * n**p), 0.0, R),
                                 observed=float("nan"), stderr=0.0,
                                 passed=True, sampled=False))
    c0 = calibrate_c0(problem, config)
    c_hat = 1.0 + c0 * (1.0 + problem.m0.norm_fourth_moment() + R**4)
    j = int(np.argmax(mom.fourth))
    fourth_obs, fourth_err = float(mom.fourth[j]), float(mom.fourth_stderr[j])
    modulus = path_modulus(m, exact_budget=config.exact_w1_budget,
                           projections=config.sliced_projections)
    return MomentAuditReport(rows=tuple(rows), fourth_bound=c_hat,
                             fourth_observed=fourth_obs, fourth_stderr=fourth_err,
                             fourth_pass=fourth_obs <= c_hat + 3 * fourth_err,
                             modulus_constant=float(modulus.constant), c0=c0)


@dataclass
class UniquenessReport:
    rho_between: float
    value_sup_distance: float
    status_a: str
    status_b: str
    psi_residual_a: float
    psi_residual_b: float

    @property
    def both_converged(self):
        return self.status_a == "converged" and self.status_b == "converged"


def uniqueness_experiment(problem, start_a, start_b, config):
    """Run the damped iteration from two starts with independent seed
    streams and report how far apart the answers land.  Non-convergence of
    either run is part of the report, never an exception."""
    seed_a = rng.derive_seed(config.seed, _TAG_START_A)
    seed_b = rng.derive_seed(config.seed, _TAG_START_B)
    sol_a = fixed_point_iterate(problem, config.with_(seed=seed_a), initial=start_a)
    sol_b = fixed_point_iterate(problem, config.with_(seed=seed_b), initial=start_b)
    rho = _distance(sol_a.m, sol_b.m, config,
                    rng.derive_seed(config.seed, _TAG_DIST, 0xA, 0xB))
    vsup = float(np.max(np.abs(sol_a.v.values - sol_b.v.values)))
    return UniquenessReport(rho_between=rho, value_sup_distance=vsup,
                            status_a=sol_a.status, status_b=sol_b.status,
                            psi_residual_a=sol_a.psi_residual,
                            psi_residual_b=sol_b.psi_residual), sol_a, sol_b
