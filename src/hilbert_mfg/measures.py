"""Empirical measures on mode coordinates, Wasserstein-1 geometry, the
moment and path functionals the invariant-set audit reads, and the initial
law: a product Gaussian on the modes, whose zero variance is a point mass.

Measures are equal-weight particle clouds on the first N mode coordinates.
A law path is one read-only (J+1, M, N) array over the time mesh, with one
particle count for the whole path; its per-time measures are views into
that array.  Every moment audit reads one routine, `moments`, which takes
any (..., M, N) stack of clouds.  A path directory holds `times.csv` and
that array as one `points.npy` (NumPy .npy format, no pickles).

Every distance compares two clouds, or two paths, of one mode count and
one particle count, and refuses any other pair through one check,
`_require_compatible`.  Each caller names the W1 method once by one rule,
`w1_method`.  Between equal-weight clouds of one count W1 is an
assignment problem.  On one mode the sorted coupling solves it, so W1 is
exact at the cost of a sort.  On N >= 2 modes exact W1 is the linear
assignment with Euclidean ground cost, run by one helper, `_assignment`,
which returns the distance and the optimal permutation; beyond the
configured budget a sliced surrogate (average of 1-D sorted-coupling
distances over random unit directions) is used.  All randomized
surrogates are deterministic functions of their seed.  By assignment
`path_sup_distances` takes `wasserstein1` at each mesh time.
`path_modulus` returns only the envelope constant, the maximum of
d / (sqrt(g) + g) over every pair of mesh times, so by assignment it
bounds each pair by a coupling it already has (the trajectory identity,
or two known couplings glued through a middle time) and runs the
assignment only where that bound could beat the running maximum.

Every sorted distance is a sum over unit directions, one direction at a
time.  One kernel, `_sorted_projections`, projects a (C, M, N) stack of
clouds on one direction and sorts each row; on one mode the single
direction [1.0] leaves the coordinate itself.  Per direction
`path_sup_distances` sorts the reference path and each other path once
and adds the row sums of |o - r| per mesh time, `wasserstein1_sliced`
runs the same loop on one pair of clouds, and `path_modulus` sorts its
one path and takes the pairs (i, i + k) of each time offset k as the
slice pair s[k:] - s[:-k].  Each divides the sums once by P M, so a
one-mode distance is the mean gap of the sorted coordinates, bit for bit,
and no call holds more than a few (C, M) arrays of one direction.
"""

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import rng
from .config import check_mesh, same_mesh
from .spectrum import mode_index
from .tables import write_table

# Stream tags for the auxiliary randomness consumers in this module.
_TAG_SLICE = 0x51
_TAG_POOL_A = 0xA0
_TAG_POOL_B = 0xB0


@dataclass
class ParticleMeasure:
    """Equal-weight cloud of M points on N mode coordinates.  A read-only
    array (a time slice of a MeasurePath) is shared, a writable one copied."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("empty measure")
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite coordinate in measure")
        if pts.flags.writeable:
            pts = pts.copy()
            pts.flags.writeable = False
        self.points = pts

    @property
    def M(self):
        return self.points.shape[0]

    @property
    def N(self):
        return self.points.shape[1]

    def mode_second_moment(self, k):
        """(1/M) sum_i <x_i, e_k>^2 for 1-based mode k."""
        return float(moments(self.points).second[mode_index(k, self.N)])

    def norm_fourth_moment(self):
        """(1/M) sum_i |x_i|^4."""
        return float(moments(self.points).fourth)


@dataclass
class MeasurePath:
    """Law path on a mesh over [0, T]: one read-only (J+1, M, N) array of
    particle positions, the same M particles at every mesh time.

    A C-contiguous float array is taken without a copy and marked read-only;
    `measures` holds one ParticleMeasure view per mesh time, checked once
    here, so `at_time`, the measure at `index_at`, neither copies nor checks.
    """

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        pts = np.ascontiguousarray(self.points, dtype=float)
        if pts.ndim != 3 or t.ndim != 1 or len(t) != len(pts):
            raise ValueError("points must be a (J+1, M, N) array aligned with the times")
        check_mesh(t)
        t.flags.writeable = False
        pts.flags.writeable = False
        self.times, self.points = t, pts
        self.measures = tuple(ParticleMeasure(x) for x in pts)

    @property
    def M(self):
        return self.points.shape[1]

    @property
    def N(self):
        return self.points.shape[2]

    def index_at(self, t):
        """Nearest mesh index of t or of each entry of t, the earlier at a tie; NaN refused."""
        if np.isnan(t).any():
            raise ValueError("time is NaN")
        return np.argmin(np.abs(self.times - np.asarray(t)[..., None]), axis=-1)

    def at_time(self, t):
        """Measure at the mesh point nearest to t."""
        return self.measures[self.index_at(t)]


@dataclass(frozen=True)
class Moments:
    """Moments of the clouds in an (..., M, N) array: per cloud and mode the
    mean of x_k^2, per cloud the mean of |x|^4, each with the standard
    error std / sqrt(M)."""

    second: np.ndarray          # (..., N)
    second_stderr: np.ndarray   # (..., N)
    fourth: np.ndarray          # (...)
    fourth_stderr: np.ndarray   # (...)


def moments(points):
    """The one moment routine every audit reads.

    Each mean and std reduces a contiguous particle axis, so every entry
    equals the 1-D formula on one cloud and one mode, `(x[:, k]**2).mean()`
    and `.std() / sqrt(M)`, bit for bit (a strided reduction over the
    particle axis sums in another order).  Clouds are reduced one at a
    time, which keeps the temporaries at the size of one cloud.
    """
    pts = np.asarray(points, dtype=float)
    lead, (M, N) = pts.shape[:-2], pts.shape[-2:]
    root_m = math.sqrt(M)
    second, second_stderr = np.empty(lead + (N,)), np.empty(lead + (N,))
    fourth, fourth_stderr = np.empty(lead), np.empty(lead)
    for i in np.ndindex(lead):
        sq = np.square(pts[i].T, order="C")  # (N, M)
        second[i], second_stderr[i] = sq.mean(axis=-1), sq.std(axis=-1) / root_m
        norm4 = sq.sum(axis=0) ** 2  # modes summed in order, as np.sum(x**2, axis=-1)
        fourth[i], fourth_stderr[i] = norm4.mean(), norm4.std() / root_m
    return Moments(second=second, second_stderr=second_stderr,
                   fourth=fourth, fourth_stderr=fourth_stderr)


# ---------------------------------------------------------------------------
# Initial laws


@dataclass
class ProductGaussian:
    """Independent Gaussian modes of given means and variances; a zero variance is a point mass."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.var = np.atleast_1d(np.asarray(self.var, dtype=float))
        if self.mean.shape != self.var.shape:
            raise ValueError("mean and var must have equal length")
        if self.mean.size == 0:
            raise ValueError("initial law needs at least one mode")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("mean must be finite")
        if not np.all(np.isfinite(self.var) & (self.var >= 0)):
            raise ValueError("var must be finite and >= 0")

    @property
    def n_modes(self):
        return len(self.mean)

    def mode_second_moment(self, k):
        i = mode_index(k, self.n_modes)
        return float(self.mean[i] ** 2 + self.var[i])

    def norm_fourth_moment(self):
        return float(gaussian_norm_fourth_moment(self.mean, self.var))

    def sample(self, M, seed):
        if M < 1:
            raise ValueError("empty sample requested")
        n = int(M) * self.n_modes  # block 0 of the stream, as propagate reserves it
        z = rng.normal_stream(seed, 0, rng.aligned(n))[:n].reshape(-1, self.n_modes)
        return self.mean + np.sqrt(self.var) * z


def gaussian_norm_fourth_moment(mean, var):
    """E|X|^4 = (sum_k EX_k^2)^2 + sum_k Var X_k^2 of independent Gaussian modes on axis -1."""
    return (np.sum(mean ** 2 + var, axis=-1) ** 2
            + np.sum(2.0 * var * (2.0 * mean ** 2 + var), axis=-1))


def Dirac(point):
    """Point mass at `point`: the product Gaussian of zero variance."""
    return ProductGaussian(mean=point, var=np.zeros(np.shape(point)))


# ---------------------------------------------------------------------------
# Wasserstein-1


def _require_compatible(a, b):
    """The one check of two clouds or two paths: one mode count and one
    particle count."""
    if a.N != b.N:
        raise ValueError("mode count mismatch: %d vs %d" % (a.N, b.N))
    if a.M != b.M:
        raise ValueError("particle count mismatch: %d vs %d" % (a.M, b.M))


def _assignment(a, b):
    """The one exact assignment: W1 between the equal-size point arrays a
    and b under Euclidean ground cost, and the optimal permutation, which
    sends a[p] to b[perm[p]]."""
    # imported here: only exact W1 on N >= 2 modes runs an assignment, and
    # importing scipy.optimize takes 0.4 to 0.6 s and adds about 47 MB of
    # resident memory
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    cost = cdist(a, b)
    rows, perm = linear_sum_assignment(cost)
    return float(cost[rows, perm].mean()), perm


def wasserstein1(mu, nu):
    """Exact W1 between equal-weight clouds of one particle count: linear
    assignment with Euclidean ground cost."""
    _require_compatible(mu, nu)
    return _assignment(mu.points, nu.points)[0]


def _slice_directions(seed, projections, n_modes):
    """The sliced surrogate's unit directions, a deterministic function of
    the seed: one draw serves every pair that shares the seed."""
    if isinstance(projections, bool) or not isinstance(projections, numbers.Integral):
        raise ValueError("projections: must be an integer, got %r" % (projections,))
    if projections < 1:
        raise ValueError("need at least one projection")
    g = rng.generator(seed, _TAG_SLICE)
    dirs = g.standard_normal((int(projections), n_modes))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0] = 1.0
    dirs /= norms[:, None]
    return dirs


def w1_method(n_modes, n_points, exact_budget):
    """The one rule for how W1 between clouds of `n_points` points each is
    taken: "exact" on one mode (the sorted coupling, an optimal assignment)
    and within the budget on N >= 2 modes (assignment), "sliced" beyond."""
    return "exact" if n_modes == 1 or n_points <= exact_budget else "sliced"


# The one direction of a one-mode cloud: its projection is the coordinate.
_UNIT = np.ones((1, 1))


def _sorted_projections(points, direction):
    """The clouds of a (C, M, N) stack projected on one unit direction, a
    (C, M) array with each row sorted."""
    proj = points @ direction
    proj.sort(axis=-1)
    return proj


def _sorted_gap_sums(ref, others, dirs):
    """Sum over the directions of the row sums of |o - r|, o and r the
    sorted projections of the clouds others[k][c] and ref[c], as a
    (len(others), C) array; ref and each other are (C, M, N) stacks.  One
    direction at a time, ref is sorted once for all the others."""
    sums = np.zeros((len(others), len(ref)))
    for d in dirs:
        r = _sorted_projections(ref, d)
        for k, o in enumerate(others):
            gaps = _sorted_projections(o, d)
            gaps -= r  # in place: a fresh array of this size costs its page faults
            sums[k] += np.abs(gaps, out=gaps).sum(axis=-1)
    return sums


def wasserstein1_sliced(mu, nu, projections=64, seed=0):
    """Sliced surrogate: average over random unit directions of the 1-D
    sorted-coupling W1 of the projected samples."""
    _require_compatible(mu, nu)
    dirs = _slice_directions(seed, projections, mu.N)
    return float(_sorted_gap_sums(mu.points[None], [nu.points[None]], dirs)[0, 0]
                 / (len(dirs) * mu.M))


# ---------------------------------------------------------------------------
# Path functionals


def path_sup_distances(ref, others, exact_budget=512, projections=64, seed=0):
    """[sup over mesh points of d_1(ref(t), o(t)) for each path o in others],
    each d_1 taken as `w1_method` names: on N >= 2 modes the sliced
    surrogate beyond the exact budget.  One draw of directions serves
    every other path, and each ref(t) is sorted once per direction."""
    for o in others:
        if not same_mesh(ref.times, o.times):
            raise ValueError("paths live on different meshes")
        _require_compatible(ref, o)
    method = w1_method(ref.N, ref.M, exact_budget)
    if method == "exact" and ref.N > 1:
        return [max(wasserstein1(a, b) for a, b in zip(ref.measures, o.measures))
                for o in others]
    dirs = _UNIT if method == "exact" else _slice_directions(seed, projections, ref.N)
    sums = _sorted_gap_sums(ref.points, [o.points for o in others], dirs)
    return (sums / (len(dirs) * ref.M)).max(axis=1).tolist()


def path_sup_distance(m1, m2, exact_budget=512, projections=64, seed=0):
    """sup over mesh points of d_1(m1(t), m2(t)): `path_sup_distances` with
    the one other path m2."""
    return path_sup_distances(m1, [m2], exact_budget, projections, seed)[0]


# Relative slack of the assignment modulus's pruning test: a pair is skipped
# only when its coupling bound lies this far below the running maximum,
# which covers the rounding of both the bound's mean and the assignment's.
_PRUNE_MARGIN = 1e-9


def _bounded_assignments(path, pairs):
    """The modulus constant by assignment: the largest d / (sqrt(g) + g)
    over the pairs (i, j) of `pairs`, g the time gap and d the exact W1.

    The pairs are taken in increasing time gap, ties in (i, j) order.  A
    pair (i, j) is first bounded by the cheaper of two couplings: the
    identity, which pairs each particle with itself, and the composition
    known[k, j][known[i, k]] through a mesh time k between i and j of two
    couplings already found or bounded.  Every permutation is a coupling,
    so its mean cost bounds W1 from above, and the composition glues two
    couplings through k, so it costs at most the sum of theirs.  The
    assignment runs only when the bound over sqrt(g) + g reaches the
    running maximum, less the margin; otherwise the bounding coupling is
    kept for the wider pairs.  Every pair left unassigned lies below the
    maximum, so the maximum is the one all pairs give, bit for bit."""
    times, points = path.times, path.points
    order = sorted(pairs, key=lambda p: (times[p[1]] - times[p[0]], p))
    identity = np.arange(path.M)
    known, running = {}, 0.0
    for i, j in order:
        g = times[j] - times[i]
        perms = np.stack([identity] + [known[k, j][known[i, k]] for k in range(i + 1, j)
                                       if (i, k) in known and (k, j) in known])
        costs = np.linalg.norm(points[j][perms] - points[i], axis=-1).mean(axis=-1)
        best = int(np.argmin(costs))
        if costs[best] / (math.sqrt(g) + g) < running * (1.0 - _PRUNE_MARGIN):
            known[i, j] = perms[best]
            continue
        d, known[i, j] = _assignment(points[i], points[j])
        running = max(running, d / (math.sqrt(g) + g))
    return float(running)


def path_modulus(path, exact_budget=512, projections=64, seed=0):
    """The envelope constant C of the sqrt-plus-linear modulus
    d_1(m(t), m(s)) <= C (sqrt|t-s| + |t-s|): the largest
    d_1 / (sqrt(g) + g) over every pair of mesh times, g the time gap and
    each d_1 taken as `w1_method` names.  By assignment (N >= 2 modes
    within the budget) a pair is assigned only when its coupling bound
    could beat the running maximum (`_bounded_assignments`).  Sorted, the
    path is sorted once per direction, and the pairs (i, i + k) of each
    time offset k are the slice pair s[k:] - s[:-k]."""
    J = len(path.measures)
    if J < 2:
        raise ValueError("need at least two mesh points")
    method = w1_method(path.N, path.M, exact_budget)
    if method == "exact" and path.N > 1:
        return _bounded_assignments(path, [(i, j) for i in range(J) for j in range(i + 1, J)])
    dirs = _UNIT if method == "exact" else _slice_directions(seed, projections, path.N)
    sums = {k: np.zeros(J - k) for k in range(1, J)}  # sums[k][i]: the pair (i, i + k)
    for d in dirs:
        s = _sorted_projections(path.points, d)
        for k, total in sums.items():
            gaps = s[k:] - s[:-k]
            total += np.abs(gaps, out=gaps).sum(axis=-1)
    constant = 0.0
    for k, total in sums.items():
        g = path.times[k:] - path.times[:-k]
        constant = max(constant, np.max(total / (len(dirs) * path.M) / (np.sqrt(g) + g)))
    return float(constant)


# ---------------------------------------------------------------------------
# Mixtures by particle pooling (damped iteration support)


def _pool_indices(M, lam, seed):
    k = math.ceil(lam * M)
    perm_a = rng.generator(seed, _TAG_POOL_A).permutation(M)
    perm_b = rng.generator(seed, _TAG_POOL_B).permutation(M)
    return perm_a[:k], perm_b[: M - k]


def mixture_paths(path_a, path_b, lam, seed=0):
    """Poolwise mixture of two paths; one index selection is reused across
    all mesh times so pooled trajectories stay time-coherent.  `lam` is the
    share drawn from path_a, in [0, 1]."""
    if not 0.0 <= lam <= 1.0:  # refuses nan too
        raise ValueError("lam: must lie in [0, 1], got %r" % (lam,))
    if not same_mesh(path_a.times, path_b.times):
        raise ValueError("paths live on different meshes")
    _require_compatible(path_a, path_b)
    ia, ib = _pool_indices(path_a.M, lam, seed)
    points = np.concatenate([path_a.points[:, ia], path_b.points[:, ib]], axis=1)
    return MeasurePath(times=path_a.times, points=points)


# ---------------------------------------------------------------------------
# Path directories


def path_to_dir(path_obj, dirpath):
    """Write a law path as `times.csv` plus `points.npy`, the (J+1, M, N)
    points array in the NumPy .npy format."""
    os.makedirs(dirpath, exist_ok=True)
    write_table(os.path.join(dirpath, "times.csv"), "t", path_obj.times)
    np.save(os.path.join(dirpath, "points.npy"), path_obj.points, allow_pickle=False)


def path_from_dir(dirpath):
    """Read a directory `path_to_dir` wrote.  Raises ValueError unless
    `points.npy` is a pickle-free float64 array that MeasurePath accepts:
    3-D, with one slice per time in `times.csv`."""
    times = np.loadtxt(os.path.join(dirpath, "times.csv"), delimiter=",", skiprows=1, ndmin=1)
    points = np.load(os.path.join(dirpath, "points.npy"), allow_pickle=False)
    if points.dtype != np.float64:
        raise ValueError("points.npy holds %s, not float64" % points.dtype)
    return MeasurePath(times=times, points=points)
