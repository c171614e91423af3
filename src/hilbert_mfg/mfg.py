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
every iterate a deterministic function of the configuration.  A run's
outcome is its status, never an exception: "converged", "max-iterations",
or "value-solve-stalled" when an inner value solve does not converge.

The audit quantifies what membership in the iteration's invariant set
means concretely: per-mode second moments below a_k = 3 (beta_k + alpha_k
+ alpha_k |H_p|^2), a fourth-moment cap whose constant is a safety margin
1.5 times the exact Gaussian sup, and a square-root-in-time modulus fit.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import rng
from .config import same_mesh
from .fp_particles import DriftField, propagate
from .hjb import ValueGrid, solve_hjb_mild
from .measures import (
    MeasurePath,
    gaussian_norm_fourth_moment,
    mixture_paths,
    moments,
    path_modulus,
    path_sup_distance,
    path_sup_distances,
    w1_method,
)
from .spectrum import covariance_diag, semigroup_factors, stationary_variances

_TAG_INIT = 0x11
_TAG_ITER = 0x12
_TAG_MIX = 0x13
_TAG_DIST = 0x14
_TAG_CERT = 0x15
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
    psi_residual_stderr: float  # of the three repeats; they share one sliced direction draw
    certificate_budget: float  # fp_tol + 3 psi_residual_stderr
    audit: object  # MomentAuditReport, or None after a value-solve stall
    w1_method: str  # "exact" or "sliced": how the certificate distances were taken

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def certified(self):
        """The psi residual lies below its budget (never after a stall)."""
        return self.psi_residual < self.certificate_budget


def _check_config(problem, config):
    if abs(config.horizon - problem.horizon) > 1e-12:
        raise ValueError("config horizon %g does not match problem horizon %g"
                         % (config.horizon, problem.horizon))


def drift_from_gradient(v, hamiltonian, m):
    """Feedback drift field read off a solved value grid."""
    def fn(t, X):
        return hamiltonian.grad_p(X, v.grad_at(t, X), m.at_time(t))

    return DriftField(fn=fn, bound=float(hamiltonian.bound_Hp), label="feedback")


def stall_message(v):
    """Why a value solve that did not converge stops the best response."""
    return ("inner value solve stalled (weighted changes: %s)"
            % ", ".join("%.3g" % h for h in v.history))


def _transport(problem, v, m, config, fp_seed):
    """m0 carried forward under the feedback drift read off v."""
    w = drift_from_gradient(v, problem.hamiltonian, m)
    return propagate(w, problem.m0, problem.spectrum, config.with_(seed=fp_seed))


def psi_map(problem, m, config, fp_seed=None):
    """One best response: value solve against m, then transport of m0 under
    the feedback drift.  Deterministic given (config, fp_seed)."""
    _check_config(problem, config)
    seed = config.seed if fp_seed is None else fp_seed
    v = solve_hjb_mild(problem.hamiltonian, problem.terminal, m, problem.spectrum, config)
    if v.status != "converged":
        raise RuntimeError(stall_message(v))
    return _transport(problem, v, m, config, seed)


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
    fixed-point residual; the moment audit runs on the final path.  Every
    value solve of the run shares one ValueGrid, so the plan of the time
    integral is built once.  A value solve that does not converge ends the
    run with status "value-solve-stalled": the solution then holds the
    iterations completed so far, the stalled value field and the law path
    it was solved against, NaN for the psi residual, its stderr and the
    budget, and no audit.

    Each iteration takes the psi residual and the change in one
    `path_sup_distances` call from m_j, and the certificate takes its three
    repeats in one call from the final path, so each reference path is
    sorted once per direction in each round.  The three repeats share one
    draw of sliced directions: their stderr measures transport noise only,
    and direction noise cannot widen the budget fp_tol + 3 stderr.
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

    grid = ValueGrid.build(problem.spectrum, config)
    method = w1_method(N, m.M, config.exact_w1_budget)
    theta = float(config.damping)
    records = []

    def value(m):
        return solve_hjb_mild(problem.hamiltonian, problem.terminal, m, problem.spectrum,
                              config, grid=grid)

    def stalled(v, m):
        return MFGSolution(v=v, m=m, status="value-solve-stalled", iterations=tuple(records),
                           psi_residual=math.nan, psi_residual_stderr=math.nan,
                           certificate_budget=math.nan, audit=None, w1_method=method)

    status = "max-iterations"
    prev_change = None
    increases = 0
    quiet = 0
    for j in range(1, config.fp_max + 1):
        t0 = time.perf_counter()
        v = value(m)
        if v.status != "converged":
            return stalled(v, m)
        psi_j = _transport(problem, v, m, config, rng.derive_seed(seed, _TAG_ITER, j))
        m_next = mixture_paths(m, psi_j, 1.0 - theta,
                               seed=rng.derive_seed(seed, _TAG_MIX, j))
        psi_res, change = path_sup_distances(
            m, [psi_j, m_next], config.exact_w1_budget, config.sliced_projections,
            rng.derive_seed(seed, _TAG_DIST, j))
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

    v = value(m)
    if v.status != "converged":
        return stalled(v, m)
    psis = [_transport(problem, v, m, config, rng.derive_seed(seed, _TAG_CERT, r))
            for r in range(3)]
    repeats = path_sup_distances(m, psis, config.exact_w1_budget, config.sliced_projections,
                                 rng.derive_seed(seed, _TAG_DIST, 0))
    psi_residual = float(np.mean(repeats))
    psi_stderr = float(np.std(repeats) / math.sqrt(len(repeats)))
    audit = moment_bound_audit(problem, m, config)
    return MFGSolution(v=v, m=m, status=status, iterations=tuple(records),
                       psi_residual=psi_residual, psi_residual_stderr=psi_stderr,
                       certificate_budget=config.fp_tol + 3.0 * psi_stderr,
                       audit=audit, w1_method=method)


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
    """c0 = 1.5 sup_t E|X_t|^4 / (1 + E|X_0|^4 + |H_p|^4) over the mesh, the
    zero and both saturated constant drifts; the 1.5 is the audit's safety
    margin.  Exact for the Gaussian m0 and runs no transport: a `propagate`
    step under a constant drift u is the OU transition mean -> e^{lambda h}
    mean + u (1 - e^{lambda h}) / |lambda|, var -> e^{2 lambda h} var + q(h)."""
    _check_config(problem, config)
    spec, m0, R = problem.spectrum, problem.m0, float(problem.hamiltonian.bound_Hp)
    u = np.array([[0.0], [1.0], [-1.0]]) * (R / math.sqrt(spec.N))  # one row per drift
    mean, var, worst = m0.mean, m0.var, m0.norm_fourth_moment()  # var is drift-free
    for h in np.diff(config.mesh()):
        growth = semigroup_factors(spec, h)
        mean = growth * mean + u * ((1.0 - growth) / np.abs(spec.lam))
        var = growth ** 2 * var + covariance_diag(spec, h)
        worst = max(worst, float(np.max(gaussian_norm_fourth_moment(mean, var))))
    return 1.5 * worst / (1.0 + m0.norm_fourth_moment() + R**4)


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
                             modulus_constant=modulus, c0=c0)


@dataclass
class UniquenessReport:
    rho_between: float
    value_sup_distance: float
    status_a: str
    status_b: str

    @property
    def both_converged(self):
        return self.status_a == "converged" and self.status_b == "converged"


def uniqueness_experiment(problem, start_a, start_b, config):
    """Run the damped iteration from two starts with independent seed
    streams and report how far apart the answers land.  Non-convergence of
    either run is part of the report, never an exception: the statuses are
    the two solutions' own, and if either inner value solve stalled the two
    distances are NaN."""
    sol_a, sol_b = (fixed_point_iterate(
        problem, config.with_(seed=rng.derive_seed(config.seed, tag)), initial=start)
        for tag, start in ((_TAG_START_A, start_a), (_TAG_START_B, start_b)))
    rho = vsup = math.nan
    if "value-solve-stalled" not in (sol_a.status, sol_b.status):
        rho = path_sup_distance(sol_a.m, sol_b.m, config.exact_w1_budget,
                                config.sliced_projections,
                                rng.derive_seed(config.seed, _TAG_DIST, 0xA, 0xB))
        vsup = float(np.max(np.abs(sol_a.v.values - sol_b.v.values)))
    return UniquenessReport(rho, vsup, sol_a.status, sol_b.status), sol_a, sol_b
