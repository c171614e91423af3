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
surrogates are deterministic functions of their seed.  Every W1 goes
through one dispatcher over pairs, `_pair_distances`, except the
modulus's assignments: `path_modulus` returns only the envelope
constant, the maximum of d / (sqrt(g) + g) over every pair of mesh
times, so by assignment it bounds each pair by a coupling it already has
(the trajectory identity, or two known couplings glued through a middle
time) and runs the assignment only where that bound could beat the
running maximum.

Every sorted distance has one layout.  A cloud's profile is its
projections `dirs @ points.T` on P unit directions, a (P, M) array with
each row sorted, and a distance is the mean |a - b| of two profiles.  One
mode is the case of the single direction [[1.0]], whose projection is the
coordinate itself.  The dispatcher draws the directions once per call and,
in a working set of two row times, sorts each cloud once per block of rows
instead of twice per pair, projecting into profile buffers it reuses for
the length of the call: `path_modulus` hands it the mesh times and every
pair of them, `path_sup_distances` the clouds [ref(t), o_1(t), ...] of a
reference path and its others with the pairs from ref(t), so each ref(t)
is sorted once for all the others, and `wasserstein1_sliced` one pair.
"""

import itertools
import math
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
        """Nearest mesh index of t or of each entry of t, the earlier at a tie."""
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
    if projections < 1:
        raise ValueError("need at least one projection")
    g = rng.generator(seed, _TAG_SLICE)
    dirs = g.standard_normal((int(projections), n_modes))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0] = 1.0
    dirs /= norms[:, None]
    return dirs


# The one direction of a one-mode cloud: its projection is the coordinate.
_UNIT = np.ones((1, 1))


def _sorted_profile(points, dirs, out):
    """One cloud's sorted profile, written into the (P, M) buffer `out`: its
    projections `dirs @ points.T` on the (P, N) unit directions, each row
    sorted in place."""
    np.matmul(dirs, points.T, out=out)
    out.sort(axis=-1)
    return out


def _gap(a, b, out):
    """mean |a - b| of two sorted profiles: the W1 of their sorted coupling,
    averaged over the directions.  The gaps go to `out`, which may be
    either profile."""
    np.subtract(a, b, out=out)
    np.abs(out, out=out)
    return float(out.mean())


def w1_method(n_modes, n_points, exact_budget):
    """The one rule for how W1 between clouds of `n_points` points each is
    taken: "exact" on one mode (the sorted coupling, an optimal assignment)
    and within the budget on N >= 2 modes (assignment), "sliced" beyond."""
    return "exact" if n_modes == 1 or n_points <= exact_budget else "sliced"


def _pair_distances(clouds, pairs, method, projections, seed):
    """The one W1 dispatcher: d_1(clouds[i], clouds[j]) for each pair
    (i, j), i < j, given in (i, j) order, taken as `method` names.

    "exact" on N >= 2 modes is one assignment per pair.  Every other
    distance is the sorted coupling of two equal-size clouds along one
    draw of directions, `_UNIT` on one mode or the sliced surrogate's.
    The pairs are taken in blocks of two row times i in {b, b + 1}.  A
    block holds its row profiles and streams each later time its pairs
    need, once, so each cloud is sorted once per block.  A gap is written
    into the streamed profile at its last use and into a scratch profile
    otherwise.  A profile no longer read goes back to a free list that the
    next one is projected into, so a single pair holds two profiles and no
    call more than four: two rows, one streamed time and the scratch."""
    if method == "exact" and clouds[0].N > 1:
        return np.array([wasserstein1(clouds[i], clouds[j]) for i, j in pairs])
    dirs = _UNIT if method == "exact" else _slice_directions(seed, projections, clouds[0].N)
    shape = (len(dirs), clouds[0].M)
    free = []  # profiles no longer read, for the length of this call

    def take():
        return free.pop() if free else np.empty(shape)

    dists = np.empty(len(pairs))
    for _, block in itertools.groupby(enumerate(pairs), key=lambda item: item[1][0] // 2):
        partners = {}  # time -> (pair index, row time) of the pairs ending there
        for n, (i, j) in block:
            partners.setdefault(i, [])
            partners.setdefault(j, []).append((n, i))
        last_row = i  # the pairs come in (i, j) order
        held = {}
        for t in sorted(partners):
            profile = _sorted_profile(clouds[t].points, dirs, take())
            for n, row in partners[t]:
                last_use = t > last_row and n == partners[t][-1][0]
                out = profile if last_use else take()
                dists[n] = _gap(held[row], profile, out=out)
                if not last_use:
                    free.append(out)
            if t <= last_row:
                held[t] = profile
            else:
                free.append(profile)  # a streamed time is done before the next is sorted
        free.extend(held.values())
    return dists


def wasserstein1_sliced(mu, nu, projections=64, seed=0):
    """Sliced surrogate: average over random unit directions of the 1-D
    sorted-coupling W1 of the projected samples."""
    _require_compatible(mu, nu)
    return float(_pair_distances((mu, nu), [(0, 1)], "sliced", projections, seed)[0])


# ---------------------------------------------------------------------------
# Path functionals


def path_sup_distances(ref, others, exact_budget=512, projections=64, seed=0):
    """[sup over mesh points of d_1(ref(t), o(t)) for each path o in others],
    each d_1 taken as `w1_method` names: on N >= 2 modes the sliced
    surrogate beyond the exact budget.  One dispatcher call, so one draw
    of directions serves every other path and each ref(t) is sorted once."""
    for o in others:
        if not same_mesh(ref.times, o.times):
            raise ValueError("paths live on different meshes")
        _require_compatible(ref, o)
    K = len(others)
    method = w1_method(ref.N, ref.M, exact_budget)
    clouds = [c for row in zip(ref.measures, *(o.measures for o in others)) for c in row]
    pairs = [(base, base + 1 + k) for base in range(0, len(clouds), K + 1) for k in range(K)]
    dists = _pair_distances(clouds, pairs, method, projections, seed)
    return dists.reshape(len(ref.times), K).max(axis=0).tolist()


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
    could beat the running maximum (`_bounded_assignments`)."""
    J = len(path.measures)
    if J < 2:
        raise ValueError("need at least two mesh points")
    pairs = [(i, j) for i in range(J) for j in range(i + 1, J)]
    method = w1_method(path.N, path.M, exact_budget)
    if method == "exact" and path.N > 1:
        return _bounded_assignments(path, pairs)
    dists = _pair_distances(path.measures, pairs, method, projections, seed)
    gaps = np.array([path.times[j] - path.times[i] for i, j in pairs])
    return float(np.max(dists / (np.sqrt(gaps) + gaps)))


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
