"""Mild-form backward equations on a time mesh x spatial tensor grid.

The value function is represented by its values and spatial gradient on a
tensor grid over [-L, L]^N and solved in mild form,

    v(t, x) = [R_{T-t} G](x) - int_t^T [R_{s-t} H(., Dv(s, .), m(s))](x) ds,

with the semigroup applied by Gauss-Hermite quadrature (ou_kernel).  The
time integrand's gradient carries an (s - t)^{-1/2} singularity, so the
integral is computed after the substitution s = t + tau^2, which turns the
kernel weight into a bounded function of tau; a uniform trapezoid rule in
tau then converges at its usual rate.  At tau = 0 both integrands vanish
(the value one carries the factor 2 tau, the gradient one is 2 tau times a
quantity converging to the integrand's own spatial gradient), so the left
endpoint contributes exactly zero.

One ValueGrid holds the discretisation of a run, built once from the
spectrum and the config: the time mesh, the axes of the box [-L, L]^N with
L = default_box(spec, None, box_scale), the tensor grid nodes, the OU
kernel at the config's quadrature, and the plan of the time integral's
nodes and their operators, built on its first read.  A solve given no grid
builds its own; the fixed-point iteration builds one and hands it to every
solve of its run.  Every sweep reads it; hjb_residual alone builds its own
kernel, at twice the quadrature nodes, so that it stays an independent
check.

The gradient grid exists only for t < T: the smoothing representation is
singular at the terminal time, and every consumer (drift assembly, norms)
uses the weighted quantity (T-t)^{1/2} Dv, with the final transport step
reading the last available slice.

Between nodes the field is read by multilinear interpolation in space and
linear interpolation in time.  Each coordinate is clipped to the box first,
so a point outside it reads the nearest face.  GridValueField.value_at and
grad_at read point clouds (the drift, the residual audit): one call finds
each point's cell and hat weights once and shares them across both time
slices and every gradient component, and interpolates one mode at a time,
mode 0 first, each step (1 - y) lo + y hi.

A sweep reads no point cloud.  Per mesh time t_j it tabulates the
integrand H(x, Dv(s, x), m(s)) on the G^N grid nodes at all n tau nodes at
once, with Dv the stored gradient table mixed in time, and applies the
semigroup to the multilinear interpolant of each node's table.  The images
of the grid nodes form a tensor product (in mode k the (G, Q) table
decay_k x_i + sd_k z_q), so the quadrature of the interpolant factorises
into one (G, G) operator per mode,

    K_k[i, i'] = sum_q w_q hat_{i'}(clip(decay_k x_i + sd_k z_q)),

applied as a mode product; gradient component k uses the weights
w_q z_q Lambda_k in mode k and K_l in every other mode l.  Hat weights are
nonnegative and each row of K_k sums to sum_q w_q = 1, so the applied
operator averages: the image of a table is bounded by its sup norm.  Per
mesh time the plan, built once per grid, holds each mode's operators of
its n nodes, stacked by one bincount and applied by a sweep in one matmul,
and the nodes' gradient reads by _mixes, the one slice-mix rule.  A solve
asks MeasurePath.index_at once per mesh time which measure m(s) its n
nodes read and fixes H on the path once (H.at_measures: a separated H
tabulates F(x, m_i) on the grid nodes for every measure of the path), and
a sweep makes one H call per mesh time, on the nodes' stacked gradients.

The nonlinear solve iterates v^{(0)} = R_{T-t} G and
v^{(j+1)} = RHS(v^{(j)}), stopping when the weighted gradient change
sup_t (T-t)^{1/2} max_grid |Dv^{(j+1)} - Dv^{(j)}| drops below tolerance.
"""

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import check_mesh, same_mesh
from .ou_kernel import OUKernel, QuadratureRule, _as_points, tensor_points
from .spectrum import stationary_variances
from .tables import FLOAT_FMT, write_rows, write_table


def default_box(spec, m0, scale):
    """Half-width L of the grid box [-L, L]^N covering the stationary law
    and the initial law out to `scale` standard deviations."""
    alphas = stationary_variances(spec)
    betas = np.zeros(spec.N)
    if m0 is not None:
        betas = np.array([m0.mode_second_moment(k) for k in range(1, spec.N + 1)])
    return float(scale * np.sqrt(np.max(alphas + betas)))


@dataclass(frozen=True)
class ValueGrid:
    """The discretisation of the value solves of one run: mesh times
    (J+1,), per-mode box axes, their tensor nodes (G^N, N) in C order, the
    OU kernel, and the tau nodes per mesh interval of the time integral.
    Its plan is built on first read and kept for the grid's lifetime, so
    every solve handed the grid shares it."""

    times: np.ndarray
    axes: tuple
    nodes: np.ndarray
    kernel: OUKernel
    tau_nodes: int

    @classmethod
    def build(cls, spec, config):
        box = default_box(spec, None, config.box_scale)
        axes = tuple(np.linspace(-box, box, int(config.grid_points)) for _ in range(spec.N))
        return cls(times=config.mesh(), axes=axes, nodes=tensor_points(axes),
                   kernel=OUKernel(spec, QuadratureRule(config.quad_nodes)),
                   tau_nodes=int(config.tau_nodes))

    @cached_property
    def plan(self):
        """_plan of the grid, built on the first read."""
        return _plan(self)

    @property
    def shape(self):
        return tuple(len(a) for a in self.axes)

    def field(self, values, grads, **kw):
        return GridValueField(times=self.times, axes=self.axes, values=values, grads=grads, **kw)


def _cell(ax, x):
    """Grid cell and hat fraction of each coordinate of x along the axis ax,
    after clipping it to the axis: the lower node index i (the interval
    ax[i] <= x < ax[i+1], the last one closed) and the fraction
    (x - ax[i]) / (ax[i+1] - ax[i]).  The cell guessed from the mean node
    spacing is checked against the nodes; a point outside it is bisected."""
    x = np.clip(x, ax[0], ax[-1])
    top = len(ax) - 2
    i = np.clip(((x - ax[0]) * ((top + 1) / (ax[-1] - ax[0]))).astype(np.intp), 0, top)
    lo, hi = ax[i], ax[i + 1]
    off = (x < lo) | ((x >= hi) & (i < top))
    if off.any():
        # the count of interior nodes at or below x
        i[off] = np.searchsorted(ax[1:-1], x[off], side="right")
        lo, hi = ax[i], ax[i + 1]
    return i, (x - lo) / (hi - lo)


def _corners(axes, pts):
    """The grid cell of each point of pts (P, N), after clipping every
    coordinate to its axis: the flat index of its lowest corner in the C
    order of the grid and, per mode, (stride, 1 - y, y) with y the hat
    fraction.  A NaN coordinate, which no clip places, is refused."""
    if np.isnan(pts).any():
        raise ValueError("points contain NaN")
    strides = np.cumprod([1] + [len(ax) for ax in axes[:0:-1]])[::-1]
    flat, modes = 0, []
    for ax, stride, x in zip(axes, strides, pts.T):
        i, y = _cell(ax, x)
        flat = flat + i * stride
        modes.append((stride, 1.0 - y, y))
    return flat, tuple(modes)


def _lerp(tab, modes, flat):
    """Multilinear interpolation of the (C, G^N) table tab at the cells with
    lowest corners flat, shape (C, P): linear in one mode at a time, mode 0
    first, each step w lo + y hi."""
    if not modes:
        return np.take(tab, flat, axis=1)
    stride, w, y = modes[-1]
    return w * _lerp(tab, modes[:-1], flat) + y * _lerp(tab, modes[:-1], flat + stride)


def _interp(corners, table):
    """Multilinear interpolation of a (*grid, C) table at the points of
    _corners, shape (P, C), all columns at once from a (C, G^N) copy."""
    tab = np.ascontiguousarray(table.reshape(-1, table.shape[-1]).T)
    flat, modes = corners
    return _lerp(tab, modes, flat).T


def _bracket(times, t):
    """Mesh interval j and weight w = (t - t_j) / (t_{j+1} - t_j) of t, or
    of each entry of an array t, clipped to [0, T]; a NaN is refused."""
    if np.isnan(t).any():
        raise ValueError("time is NaN")
    t = np.clip(t, 0.0, times[-1])
    j = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
    return j, (t - times[j]) / (times[j + 1] - times[j])


def _mixes(j, w, n):
    """Whether a read at the bracket (j, w) of n slices mixes in slice j + 1,
    for scalars or arrays: where w > 1e-12 and j is short of the last."""
    return (j < n - 1) & (w > 1e-12)


def _at_time(slices, j, w, read):
    """read(slice j) mixed linearly in time with slice j + 1 where _mixes."""
    out = read(slices[j])
    if _mixes(j, w, len(slices)):
        out = (1.0 - w) * out + w * read(slices[j + 1])
    return out


@dataclass
class GridValueField:
    """Value function and spatial gradient sampled on a time x space grid.

    values has shape (J+1, *grid); grads has shape (J, *grid, N) and stops
    one slice short of the terminal time (see module docstring).
    """

    times: np.ndarray
    axes: tuple
    values: np.ndarray
    grads: np.ndarray
    status: str = "direct"
    history: tuple = field(default_factory=tuple)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = np.asarray(self.values, dtype=float)
        self.grads = np.asarray(self.grads, dtype=float)
        check_mesh(self.times)
        for ax in self.axes:
            if not (ax.ndim == 1 and len(ax) >= 2 and np.all(np.isfinite(ax))
                    and np.all(np.diff(ax) > 0)):
                raise ValueError("each axis needs two or more finite, strictly increasing nodes")
        J = len(self.times) - 1
        shape = tuple(len(a) for a in self.axes)
        if self.values.shape != (J + 1,) + shape:
            raise ValueError("values shape %s does not match mesh/grid" % (self.values.shape,))
        if self.grads.shape != (J,) + shape + (self.n_modes,):
            raise ValueError("grads shape %s does not match mesh/grid" % (self.grads.shape,))
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.grads))):
            raise FloatingPointError("non-finite entry in value field")

    @property
    def n_modes(self):
        return len(self.axes)

    @property
    def T(self):
        return float(self.times[-1])

    @property
    def sup_norm(self):
        return float(np.max(np.abs(self.values)))

    @property
    def weighted_gradient_norm(self):
        """sup over t < T of (T-t)^{1/2} max |Dv(t, .)| on the grid."""
        return _weighted_sup(self.times, self.grads)

    def value_at(self, t, X):
        pts, lead = _as_points(X, self.n_modes)
        corners = _corners(self.axes, pts)
        out = _at_time(self.values[..., None], *_bracket(self.times, t),
                       lambda tab: _interp(corners, tab))
        return out[:, 0].reshape(lead)[()]

    def grad_at(self, t, X):
        """Dv at time t; beyond the last stored slice the terminal-layer
        convention applies and the last slice is returned."""
        pts, lead = _as_points(X, self.n_modes)
        corners = _corners(self.axes, pts)
        out = _at_time(self.grads, *_bracket(self.times, t), lambda tab: _interp(corners, tab))
        return out.reshape(lead + (self.n_modes,))

    def to_dir(self, path, extra=None):
        """Write the field as `times.csv`, `axes.csv` (one column per mode),
        `values.npy` and `grads.npy` (the two arrays as stored, in the NumPy
        .npy format) and a metadata table; extra key/value rows
        (diagnostics computed by the caller) append to the metadata."""
        if len({len(a) for a in self.axes}) != 1:
            raise ValueError("serialization requires equal per-mode resolutions")
        d = Path(path)
        d.mkdir(parents=True, exist_ok=True)
        write_table(d / "times.csv", "t", self.times)
        write_table(d / "axes.csv", ",".join("mode_%d" % (k + 1) for k in range(self.n_modes)),
                    np.stack(self.axes, axis=-1))
        np.save(d / "values.npy", self.values, allow_pickle=False)
        np.save(d / "grads.npy", self.grads, allow_pickle=False)
        write_rows(d / "metadata.csv", ["key", "value"], [
            ["status", self.status], ["sup_norm", self.sup_norm],
            ["weighted_gradient_norm", self.weighted_gradient_norm],
            ["history", "|".join(FLOAT_FMT % h for h in self.history)], *(extra or {}).items()])

    @classmethod
    def from_dir(cls, path):
        """Read a directory `to_dir` wrote; the arrays are loaded without
        pickle support, refused unless float64, and checked by the
        constructor."""
        d = Path(path)
        times = np.loadtxt(d / "times.csv", skiprows=1, ndmin=1)
        axes = np.loadtxt(d / "axes.csv", skiprows=1, delimiter=",", ndmin=2)
        values = np.load(d / "values.npy", allow_pickle=False)
        grads = np.load(d / "grads.npy", allow_pickle=False)
        for name, arr in (("values.npy", values), ("grads.npy", grads)):
            if arr.dtype != np.float64:
                raise ValueError("%s holds %s, not float64" % (name, arr.dtype))
        meta = {}
        with open(d / "metadata.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                meta[row["key"]] = row["value"]
        history = tuple(float(tok) for tok in meta.get("history", "").split("|") if tok)
        return cls(times=times, axes=tuple(axes.T), values=values, grads=grads,
                   status=meta.get("status", "direct"), history=history)


@dataclass
class GeneralHamiltonian:
    """H(x, p, mu) given directly, with declared bounds for the audits."""

    value_fn: object
    grad_p_fn: object
    bound_Hp: float
    lip_p: float = None
    lip_mu: float = None
    label: str = ""

    def at_measures(self, X, measures):
        """(P, idx) -> H(X, P[a], measures[idx[a]]) stacked over a, P stacked
        (n, *X.shape): one value call per node, X broadcast to P[a] as a view."""
        return lambda P, idx: np.stack([self.value(X, p, measures[i]) for p, i in zip(P, idx)])

    def value(self, X, P, mu):
        return np.asarray(self.value_fn(np.broadcast_to(X, P.shape), P, mu), dtype=float)

    def grad_p(self, X, P, mu):
        return np.asarray(self.grad_p_fn(X, P, mu), dtype=float)


@dataclass
class SeparatedHamiltonian:
    """H(x, p, mu) = H0(x, p) - F(x, mu); the separated shape is what the
    monotonicity-based uniqueness argument needs.  h0(X, P) and h0_p(X, P)
    take points X (..., N) and gradients P that X broadcasts against, of
    X's shape or stacked (n, *X.shape), and broadcast X themselves."""

    h0: object
    h0_p: object
    coupling: object  # F(x, mu)
    bound_Hp: float
    lip_p: float = None
    lip_mu: float = None
    label: str = ""

    def at_measures(self, X, measures):
        """(P, idx) -> H(X, P[a], measures[idx[a]]) stacked over a, P stacked
        (n, *X.shape): one h0 call on the stack less the coupling table, row
        i F(X, measures[i]) on X's points, built once per path."""
        table = np.stack([np.broadcast_to(np.asarray(self.coupling(X, mu), dtype=float),
                                          X.shape[:-1]) for mu in measures])
        return lambda P, idx: np.asarray(self.h0(X, P), dtype=float) - table[idx]

    def value(self, X, P, mu):
        return self.at_measures(X, (mu,))(np.asarray(P)[None], [0])[0]

    def grad_p(self, X, P, mu):
        return np.asarray(self.h0_p(X, P), dtype=float)


def zero_hamiltonian():
    return GeneralHamiltonian(
        value_fn=lambda X, P, mu: np.zeros(X.shape[:-1]),
        grad_p_fn=lambda X, P, mu: np.zeros(X.shape[:-1] + (X.shape[-1],)),
        bound_Hp=0.0,
        lip_p=0.0,
        lip_mu=0.0,
        label="zero",
    )


def _weighted_sup(times, grads):
    """sup over t < T of (T-t)^{1/2} max_grid |grads(t)|; 0 without slices."""
    if len(grads) == 0:
        return 0.0
    w = np.sqrt(times[-1] - times[:-1])
    per_slice = np.max(np.abs(grads).reshape(len(grads), -1), axis=1)
    return float(np.max(w * per_slice))


def _terminal_sweep(grid, terminal):
    """R_{T-t} G and D R_{T-t} G on the full grid: the semigroup term of
    the mild right-hand side, which no Picard iterate changes."""
    times, shape, n = grid.times, grid.shape, len(grid.axes)
    T = times[-1]
    J = len(times) - 1
    values = np.empty((J + 1,) + shape)
    grads = np.empty((J,) + shape + (n,))
    for j in range(J):
        v, g = grid.kernel.apply_with_gradient(terminal, T - times[j], grid.nodes)
        values[j] = v.reshape(shape)
        grads[j] = g.reshape(shape + (n,))
    values[J] = grid.kernel.apply_Rt(terminal, 0.0, grid.nodes).reshape(shape)
    return values, grads


def _plan(grid):
    """The nodes of every sweep on a grid, per mesh time t_j < T a tuple
    (taus, s, reads, ops): the grid's tau nodes on [0, (T - t_j)^{1/2}], the
    times s = t_j + tau^2 of the n nodes with tau > 0 (at tau = 0 the
    integrand carries the factor 2 tau = 0), their gradient reads
    (lo, hi, mix, w): the slice lo of each and, where _mixes, hi = lo + 1
    and the weight w shaped to scale a slice; and per mode k the
    (n, 2, G, G) stack of the nodes' operators at t = tau^2: the value
    operator K_k (weights w_q) and the gradient operator (weights
    w_q z_q Lambda_k, Lambda_k = decay_k / sd_k).  It depends on the grid
    alone and holds no measure: ValueGrid.plan builds it once per grid."""
    times, axes = grid.times, grid.axes
    w, z = grid.kernel.rule.weights, grid.kernel.rule.nodes
    plan = []
    for j in range(len(times) - 1):
        taus = np.linspace(0.0, np.sqrt(times[-1] - times[j]), grid.tau_nodes)
        s = times[j] + taus[1:] * taus[1:]
        lo, ws = _bracket(times, s)
        mix = _mixes(lo, ws, len(times) - 1)
        reads = (lo, lo[mix] + 1, mix, ws[mix].reshape((-1,) + (1,) * (len(axes) + 1)))
        decay, sd = grid.kernel.factors((taus[1:] * taus[1:])[:, None])
        lam = decay / sd
        ops = []
        for k, ax in enumerate(axes):
            # the cells of mode k's (n, G, Q) image tables decay_k x_i + sd_k z_q
            i, y = _cell(ax, (ax * decay[:, k, None])[:, :, None] + (sd[:, k, None] * z)[:, None])
            grad = w * z * lam[:, k, None]
            ops.append(_hat_operators(i, y, np.stack([np.broadcast_to(w, grad.shape), grad], axis=1)))
        plan.append((taus, s, reads, tuple(ops)))
    return plan


def _hat_operators(i, y, wq):
    """The (n, C, G, G) matrices sum_q wq[a, c, q] hat_{i'}(x_agq) of n image
    tables whose clipped entries x_agq lie in the cells (i, y), both
    (n, G, Q): row g spreads each weight over the two nodes of its cell,
    all by one bincount of 2 n C G Q entries, laid out node-major so that
    each matrix sums in the order of a one-node build."""
    n, g, _ = i.shape
    c = wq.shape[1]
    lower = (np.arange(g)[:, None] * g + i).reshape(n, 1, -1)
    index = np.concatenate([lower, lower + 1], axis=2) + g * g * np.arange(n * c).reshape(n, c, 1)
    weights = np.concatenate([(1.0 - y)[:, None], y[:, None]], axis=2) * wq[:, :, None, :]
    return np.bincount(index.ravel(), weights.ravel(), minlength=n * c * g * g).reshape(n, c, g, g)


def _along(op, stack, k):
    """n operators op (n, G_k, G_k) applied along grid mode k of n stacks of
    tables (n, C, *grid), each to its own, by one matmul over the
    (G_k, rest) matrices of the stacks."""
    shape = stack.shape
    rest = math.prod(shape[k + 3:])
    return np.matmul(op[:, None], stack.reshape(shape[0], -1, shape[k + 2], rest)).reshape(shape)


def _semigroup(ops, tabs):
    """R_t h and D R_t h on the grid, (n, N + 1, *grid), at n nodes with
    per-mode operators ops (n, 2, G, G), for h the interpolant of each
    node's table in tabs (n, *grid).  The stack holds the value so far and
    the gradient components begun; in mode k all of them take K_k, and the
    value so far begins component k by taking the gradient operator."""
    stack = tabs[:, None]
    for k, op in enumerate(ops):
        stack = np.concatenate([_along(op[:, 0], stack, k), _along(op[:, 1], stack[:, :1], k)],
                               axis=1)
    return stack


def _mild_sweep(grid, base, integrand):
    """One evaluation of the mild right-hand side on the full grid.

    base is the (values, grads) pair of _terminal_sweep, computed once per
    solve and shared by every sweep; this subtracts the time integral of
    R_{s-t} H and D R_{s-t} H over the nodes of grid.plan.  integrand(j, s)
    returns the integrand on the grid nodes at the node times s of mesh
    time t_j, shape (n, G^N); it is evaluated once per mesh time for both
    reductions and all n nodes.
    """
    shape = grid.shape
    values, grads = base[0].copy(), base[1].copy()
    for j, (taus, s, _, ops) in enumerate(grid.plan):
        tabs = np.asarray(integrand(j, s), dtype=float).reshape((len(s),) + shape)
        # per tau node the value (entry 0) and the gradient components
        out = np.zeros((len(taus), len(shape) + 1) + shape)
        out[1:] = (2.0 * taus[1:]).reshape((-1,) + (1,) * (len(shape) + 1)) * _semigroup(ops, tabs)
        integral = np.trapezoid(out, x=taus, axis=0)
        values[j] -= integral[0]
        grads[j] -= np.moveaxis(integral[1:], 0, -1)
    return values, grads


def solve_kolmogorov(f, phi, spec, config):
    """Linear backward equation dv/dt + L0 v = f, v(T) = phi, in mild form
    v(t) = R_{T-t} phi - int_t^T R_{s-t} f(s) ds, with f(s) tabulated on
    the grid nodes like the value solve's integrand."""
    grid = ValueGrid.build(spec, config)
    values, grads = _terminal_sweep(grid, phi)
    if f is not None:
        values, grads = _mild_sweep(grid, (values, grads),
                                    lambda j, s: np.stack([f(t, grid.nodes) for t in s]))
    return grid.field(values, grads, status="direct")


def weighted_gradient_change(a, b):
    """sup_t (T-t)^{1/2} max_grid |Da - Db| between two fields on the same
    mesh and grid; the metric both the Picard stop rule and the
    data-continuity audit use."""
    if not same_mesh(a.times, b.times):
        raise ValueError("fields live on different meshes")
    return _weighted_sup(a.times, a.grads - b.grads)


def solve_hjb_mild(H, G, m, spec, config, grid=None):
    """Nonlinear mild solve against a frozen measure path m.

    Iterates the right-hand side from v = R_{T-t} G(., m(T)); each sweep
    evaluates H at every (t_j, tau) node on the grid nodes, with the
    previous sweep's gradient table mixed in time by the plan's reads and
    the measure path at its nearest mesh point.  Per mesh time the solve
    asks m.index_at once for the indices of all n nodes, from m.times (they
    may differ from the grid's by rounding that same_mesh admits, and some
    nodes are ties), and fixes H on the path once by H.at_measures (one
    coupling table for a separated H): a sweep makes one H call per mesh
    time.  Stops on the weighted gradient change; a run that exhausts
    the iteration budget is returned with status "stalled" and the full
    change history.  grid is a ValueGrid.build(spec, config) to share,
    with its plan, across solves; by default the solve builds its own.
    """
    if m.N != spec.N:
        raise ValueError("measure path has %d modes, the spectrum %d" % (m.N, spec.N))
    if grid is None:
        grid = ValueGrid.build(spec, config)
    if not same_mesh(m.times, grid.times):
        raise ValueError("measure path mesh does not match the config mesh")
    mT = m.at_time(grid.times[-1])
    terminal = lambda X: np.asarray(G(X, mT), dtype=float)

    base = _terminal_sweep(grid, terminal)
    idx = [m.index_at(s) for _, s, _, _ in grid.plan]
    H_path = H.at_measures(grid.nodes, m.measures)
    current = grid.field(*base)
    history = []
    status = "stalled"
    for _ in range(config.picard_max):
        prev = current

        def integrand(j, s):
            lo, hi, mix, w = grid.plan[j][2]
            P = prev.grads[lo]
            P[mix] = (1.0 - w) * P[mix] + w * prev.grads[hi]
            return H_path(P.reshape((len(s),) + grid.nodes.shape), idx[j])

        current = grid.field(*_mild_sweep(grid, base, integrand))
        history.append(_weighted_sup(grid.times, current.grads - prev.grads))
        if history[-1] < config.picard_tol:
            status = "converged"
            break
    return grid.field(current.values, current.grads, status=status, history=tuple(history))


def hjb_residual(v, H, G, m, samples, spec, config):
    """Max defect of the mild identity over (t, x) samples, recomputed with
    an independent, finer quadrature (double the spatial nodes, double the
    tau resolution)."""
    kernel = OUKernel(spec, QuadratureRule(2 * config.quad_nodes))
    tau_nodes = 2 * config.tau_nodes - 1
    mT = m.at_time(v.T)
    terminal = lambda X: np.asarray(G(X, mT), dtype=float)
    worst = 0.0
    for t, x in samples:
        t, x = float(t), np.asarray(x, dtype=float)
        if not (0.0 <= t < v.T and np.all(np.isfinite(x))):
            raise ValueError("residual samples need 0 <= t < T and a finite x")
        horizon = v.T - t
        rhs = kernel.apply_Rt(terminal, horizon, x)
        taus = np.linspace(0.0, np.sqrt(horizon), tau_nodes)
        s = t + taus * taus
        vals = np.zeros(tau_nodes)
        for i, k in enumerate(m.index_at(s)[1:], start=1):
            fld = lambda X: H.value(X, v.grad_at(s[i], X), m.measures[k])
            vals[i] = 2.0 * taus[i] * kernel.apply_Rt(fld, taus[i] * taus[i], x)
        rhs = rhs - np.trapezoid(vals, x=taus)
        worst = max(worst, abs(v.value_at(t, x) - rhs))
    return float(worst)
