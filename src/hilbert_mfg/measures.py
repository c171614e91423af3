"""Empirical measures on mode coordinates, Wasserstein-1 geometry, and the
moment and path functionals the invariant-set audit reads.

Measures are equal-weight particle clouds on the first N mode coordinates.
A law path is one read-only (J+1, M, N) array over the time mesh, with one
particle count for the whole path; its per-time measures are views into
that array.  Every moment audit reads one routine, `moments`, which takes
any (..., M, N) stack of clouds.  A path directory holds `times.csv` and
that array as one `points.npy` (NumPy .npy format, no pickles).

Path distances resolve W1 through one dispatcher, which one rule,
`w1_method`, steers.  On one mode the sorted coupling is optimal, so W1 is
exact for any particle count at the cost of a sort.  On N >= 2 modes exact
W1 between equal-count clouds is the linear assignment problem with
Euclidean ground cost; beyond the configured budget a sliced surrogate
(average of 1-D sorted-coupling distances over random unit directions) is
used.  All randomized surrogates are deterministic functions of their seed.

Every sorted distance has one layout.  A cloud's profile is its
projections `dirs @ points.T` on P unit directions, a (P, M) array with
each row sorted, and a distance is the mean |a - b| of two profiles.  One
mode is the case of the single direction [[1.0]], whose projection is the
coordinate itself.  `path_modulus` draws the directions once and, in a
working set of two row times, sorts each mesh time once per block of rows
instead of twice per pair.
"""

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import rng
from .config import same_mesh
from .tables import write_table

# Resampling cap when reconciling unequal particle counts to a common size.
_COMMON_SIZE_CAP = 4096

# Stream tags for the auxiliary randomness consumers in this module.
_TAG_RESAMPLE = 0xC0
_TAG_SLICE = 0x51
_TAG_POOL_A = 0xA0
_TAG_POOL_B = 0xB0
_TAG_PAIRS = 0x9A


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
        if not 1 <= k <= self.N:
            raise IndexError("mode index %d out of range 1..%d" % (k, self.N))
        return float(moments(self.points).second[k - 1])

    def norm_fourth_moment(self):
        """(1/M) sum_i |x_i|^4."""
        return float(moments(self.points).fourth)


@dataclass
class MeasurePath:
    """Law path on a mesh over [0, T]: one read-only (J+1, M, N) array of
    particle positions, the same M particles at every mesh time.

    A C-contiguous float array is taken without a copy and marked read-only;
    `measures` holds one ParticleMeasure view per mesh time, checked once
    here, so `at_time` neither copies nor checks.
    """

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        pts = np.ascontiguousarray(self.points, dtype=float)
        if pts.ndim != 3 or t.ndim != 1 or len(t) != len(pts):
            raise ValueError("points must be a (J+1, M, N) array aligned with the times")
        if len(t) < 1 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must start at 0 and increase strictly")
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

    def at_time(self, t):
        """Measure at the mesh point nearest to t."""
        return self.measures[int(np.argmin(np.abs(self.times - t)))]


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
class Dirac:
    """Point mass at a fixed state."""

    point: np.ndarray

    def __post_init__(self):
        self.point = np.atleast_1d(np.asarray(self.point, dtype=float))

    @property
    def n_modes(self):
        return len(self.point)

    def mode_second_moment(self, k):
        if not 1 <= k <= self.n_modes:
            raise IndexError("mode index %d out of range 1..%d" % (k, self.n_modes))
        return float(self.point[k - 1] ** 2)

    def norm_fourth_moment(self):
        return float(np.sum(self.point ** 2) ** 2)

    def sample(self, M, seed):
        if M < 1:
            raise ValueError("empty sample requested")
        return np.tile(self.point, (int(M), 1))


@dataclass
class ProductGaussian:
    """Independent Gaussian modes with given means and variances."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.var = np.atleast_1d(np.asarray(self.var, dtype=float))
        if self.mean.shape != self.var.shape:
            raise ValueError("mean and var must have equal length")
        if np.any(self.var < 0):
            raise ValueError("variances must be >= 0")

    @property
    def n_modes(self):
        return len(self.mean)

    def mode_second_moment(self, k):
        if not 1 <= k <= self.n_modes:
            raise IndexError("mode index %d out of range 1..%d" % (k, self.n_modes))
        return float(self.mean[k - 1] ** 2 + self.var[k - 1])

    def norm_fourth_moment(self):
        # E|X|^4 = sum_k EX_k^4 + (sum_k EX_k^2)^2 - sum_k (EX_k^2)^2
        m2 = self.mean ** 2 + self.var
        m4 = self.mean ** 4 + 6.0 * self.mean ** 2 * self.var + 3.0 * self.var ** 2
        return float(np.sum(m4) + np.sum(m2) ** 2 - np.sum(m2 ** 2))

    def sample(self, M, seed):
        if M < 1:
            raise ValueError("empty sample requested")
        M = int(M)
        n = M * self.n_modes
        z = rng.normal_stream(seed, 0, rng.aligned(n))[:n].reshape(M, self.n_modes)
        return self.mean + np.sqrt(self.var) * z


# ---------------------------------------------------------------------------
# Wasserstein-1


def _require_compatible(mu, nu):
    if mu.N != nu.N:
        raise ValueError("mode count mismatch: %d vs %d" % (mu.N, nu.N))


def _common_size(mu, nu, seed):
    """Reconcile unequal counts: exact lcm replication when it fits the cap,
    deterministic bootstrap to the cap otherwise."""
    if mu.M == nu.M:
        return mu, nu
    common = math.lcm(mu.M, nu.M)
    if common <= _COMMON_SIZE_CAP:
        a = np.repeat(mu.points, common // mu.M, axis=0)
        b = np.repeat(nu.points, common // nu.M, axis=0)
    else:
        g = rng.generator(seed, _TAG_RESAMPLE)
        a = mu.points[g.integers(0, mu.M, _COMMON_SIZE_CAP)]
        b = nu.points[g.integers(0, nu.M, _COMMON_SIZE_CAP)]
    return ParticleMeasure(a), ParticleMeasure(b)


def wasserstein1(mu, nu, seed=0):
    """Exact W1 between equal-weight clouds: linear assignment with Euclidean
    ground cost.  Unequal counts are first reconciled to a common size."""
    # imported here: only exact W1 on N >= 2 modes runs an assignment, and
    # importing scipy.optimize is about a third of `import hilbert_mfg.mfg`
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    _require_compatible(mu, nu)
    mu, nu = _common_size(mu, nu, seed)
    cost = cdist(mu.points, nu.points)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


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


def _sorted_profile(points, dirs):
    """One cloud's sorted profile: its projections `dirs @ points.T` on the
    (P, N) unit directions, (P, M), each row sorted in contiguous memory."""
    profile = dirs @ points.T
    profile.sort(axis=-1)
    return profile


def _gap(a, b, out):
    """mean |a - b| of two sorted profiles: the W1 of their sorted coupling,
    averaged over the directions.  The gaps go to `out` (which may be `a`)."""
    np.subtract(a, b, out=out)
    np.abs(out, out=out)
    return float(out.mean())


def _sorted_distance(mu, nu, dirs):
    """The sorted-coupling distance of two equal-size clouds along `dirs`:
    exact W1 on one mode with `_UNIT`, the sliced surrogate otherwise.  Two
    profiles are all it holds; the gaps are written into the first."""
    a = _sorted_profile(mu.points, dirs)
    return _gap(a, _sorted_profile(nu.points, dirs), out=a)


def wasserstein1_sliced(mu, nu, projections=64, seed=0):
    """Sliced surrogate: average over random unit directions of the 1-D
    sorted-coupling W1 of the projected samples."""
    _require_compatible(mu, nu)
    dirs = _slice_directions(seed, projections, mu.N)
    return _sorted_distance(*_common_size(mu, nu, seed), dirs)


# ---------------------------------------------------------------------------
# Path functionals


def w1_method(n_modes, n_points, exact_budget):
    """The one rule for how W1 between clouds of up to `n_points` points is
    taken: "exact" on one mode (the sorted coupling, optimal at any count)
    and within the budget on N >= 2 modes (assignment), "sliced" beyond."""
    return "exact" if n_modes == 1 or n_points <= exact_budget else "sliced"


def _pair_distance(mu, nu, exact_budget, projections, seed):
    """The one W1 dispatcher, by `w1_method`: the sorted coupling on one
    mode, exact assignment within the budget on N >= 2 modes, the sliced
    surrogate beyond it."""
    _require_compatible(mu, nu)
    if w1_method(mu.N, max(mu.M, nu.M), exact_budget) == "sliced":
        return wasserstein1_sliced(mu, nu, projections=projections, seed=seed)
    if mu.N == 1:
        return _sorted_distance(*_common_size(mu, nu, seed), _UNIT)
    return wasserstein1(mu, nu, seed=seed)


def path_sup_distance(m1, m2, exact_budget=512, projections=64, seed=0):
    """sup over mesh points of d_1(m1(t), m2(t)), each taken as `w1_method`
    names: on N >= 2 modes the sliced surrogate beyond the exact budget."""
    if not same_mesh(m1.times, m2.times):
        raise ValueError("paths live on different meshes")
    return max(_pair_distance(a, b, exact_budget, projections, seed)
               for a, b in zip(m1.measures, m2.measures))


@dataclass
class ModulusTable:
    """Pairs (|t-s|, d_1(m(t), m(s))) plus the fitted envelope constant C in
    d_1 <= C (sqrt|t-s| + |t-s|)."""

    gaps: np.ndarray
    dists: np.ndarray
    constant: float
    method: str = "exact"


def path_modulus(path, max_pairs=250, exact_budget=512, projections=64, seed=0):
    """Tabulate W1 against time gaps over mesh pairs (budgeted subsample) and
    fit the envelope constant of the sqrt-plus-linear modulus.

    Pairs the dispatcher settles by sorting go through `_sorted_pair_gaps`,
    which sorts each mesh time once per block of two row times; each pair's
    distance is bit for bit what `_pair_distance` returns for it."""
    J = len(path.measures)
    if J < 2:
        raise ValueError("need at least two mesh points")
    if max_pairs < 1:
        raise ValueError("max_pairs must be at least 1, got %r" % (max_pairs,))
    pairs = [(i, j) for i in range(J) for j in range(i + 1, J)]
    if len(pairs) > max_pairs:
        g = rng.generator(seed, _TAG_PAIRS)
        keep = g.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[i] for i in np.sort(keep)]
    gaps = np.array([path.times[j] - path.times[i] for i, j in pairs])
    method = w1_method(path.N, path.M, exact_budget)
    if method == "sliced":
        dists = _sorted_pair_gaps(path.points, pairs,
                                  _slice_directions(seed, projections, path.N))
    elif path.N == 1:
        dists = _sorted_pair_gaps(path.points, pairs, _UNIT)
    else:
        dists = np.array([_pair_distance(path.measures[i], path.measures[j],
                                         exact_budget, projections, seed)
                          for i, j in pairs])
    constant = float(np.max(dists / (np.sqrt(gaps) + gaps)))
    return ModulusTable(gaps=gaps, dists=dists, constant=constant, method=method)


def _sorted_pair_gaps(points, pairs, dirs):
    """Sorted-coupling distances along `dirs` of the clouds `points[i]`,
    `points[j]` for each pair (i, j), i < j, in (i, j) order.

    The pairs are taken in blocks of two row times i in {b, b + 1}.  A
    block holds its row profiles and streams each later time its pairs
    need, once, so each such time is sorted once per block and at most four
    profile-sized arrays are live: two rows, one streamed time and the gap
    buffer."""
    buf = np.empty((len(dirs), points.shape[1]))
    dists = np.empty(len(pairs))
    for _, block in itertools.groupby(enumerate(pairs), key=lambda item: item[1][0] // 2):
        partners = {}  # time -> (pair index, row time) of the pairs ending there
        for n, (i, j) in block:
            partners.setdefault(i, [])
            partners.setdefault(j, []).append((n, i))
        last_row = i  # the pairs come in (i, j) order
        held = {}
        for t in sorted(partners):
            profile = _sorted_profile(points[t], dirs)
            for n, row in partners[t]:
                dists[n] = _gap(held[row], profile, out=buf)
            if t <= last_row:
                held[t] = profile
            del profile  # a streamed time is dropped before the next is sorted
    return dists


# ---------------------------------------------------------------------------
# Mixtures by particle pooling (damped iteration support)


def _pool_indices(M, lam, seed):
    k = math.ceil(lam * M)
    perm_a = rng.generator(seed, _TAG_POOL_A).permutation(M)
    perm_b = rng.generator(seed, _TAG_POOL_B).permutation(M)
    return perm_a[:k], perm_b[: M - k]


def mixture_paths(path_a, path_b, lam, seed=0):
    """Poolwise mixture of two paths; one index selection is reused across
    all mesh times so pooled trajectories stay time-coherent."""
    if not same_mesh(path_a.times, path_b.times):
        raise ValueError("paths live on different meshes")
    M = path_a.M
    if M != path_b.M:
        raise ValueError("pooling requires equal particle counts")
    ia, ib = _pool_indices(M, lam, seed)
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
