"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox-keyed stream in
which the n-th double is a pure function of (seed, n).  One Philox counter
increment emits four 64-bit words and Generator.random consumes exactly one
word per double, so advance(c) positions the double stream at index 4c;
block offsets are therefore padded to multiples of 4, and any 4-aligned
chunking of the same index range reproduces identical numbers.  Parallel
and serial traversals of a block agree bit for bit.

Normal variates are the inverse normal CDF of the uniform stream.  A
ziggurat sampler would consume a data-dependent number of uniforms per
normal and void the indexing contract.

The inverse CDF is a numpy port of Cephes ndtri (S. L. Moshier), the
routine behind scipy.special.ndtri, and reproduces it bit for bit on the
floored stream's domain [2^-54, 1 - 2^-53]: the same coefficients, Horner
order, branches (|u - 1/2| against 1/2 - e^-2, and x = sqrt(-2 log y)
against 8) and operation order, with no fused multiply-add.  Every
operation but log is correctly rounded in IEEE arithmetic, so only the
logs can differ: numpy's own float64 log is a SIMD routine that misses
the C library's result, by up to 2 ulp, on about 2 in 10^4 tail values.
The two tail logs therefore go through the complex log, which numpy
hands to the C library's clog; for a real argument outside [0.5, 2)
glibc computes its real part as log(hypot(x, 0)) = log(x), the very call
Cephes makes.  The tail's arguments stay outside that interval: y lies in
[2^-54, e^-2] and x in [2, 8.66].  The port costs about 20 ns more per
normal than scipy's compiled loop; importing scipy.special cost about
0.3 s and 25 MB per process (2-vCPU Xeon, scipy 1.17), and a lazy import
would only move that cost into the first draw.
"""

import numpy as np

# random() emits 53-bit uniforms in [0, 1); 0.0 occurs with probability
# 2^-53 and would map to -inf, so the stream is floored just below the
# smallest positive emitted value.
_U_FLOOR = 2.0 ** -54
_DRAW = 1 << 15  # most normals in one inverse-CDF pass of short blocks

# Cephes ndtri: the rational approximations on the centre (|u - 1/2| <=
# 1/2 - e^-2), on the tail with 2 <= x < 8 and on the far tail x >= 8,
# numerator coefficients highest degree first, denominators monic.
_EXP_M2 = 0.13533528323661269189  # e^-2
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _rational(x, p, q):
    """x * polevl(x, p) / p1evl(x, q), in Cephes' operation order."""
    num = x * p[0]
    for c in p[1:]:
        num += c
        num *= x
    den = x + q[0]
    for c in q[1:]:
        den *= x
        den += c
    num /= den
    return num


def _clib_log(y):
    """The C library's log of each y > 0 outside [0.5, 2), via clog."""
    z = y.astype(np.complex128)
    return np.log(z, out=z).real


def _ndtri(u):
    """scipy.special.ndtri(u) bit for bit, for u in [2^-54, 1 - 2^-53].

    The centre's formula runs over the whole draw and the tail (about 27%
    of it) overwrites its entries.  Cephes reflects u > 1 - e^-2 to
    y = 1 - u, which is exact and below e^-2, so the tail is exactly
    u <= e^-2 (negative normals) together with u > 1 - e^-2.
    """
    y = u - 0.5
    x = _rational(y * y, _P0, _Q0)
    x *= y
    x += y
    x *= _S2PI
    lo = np.flatnonzero(u <= _EXP_M2)
    hi = np.flatnonzero(u > 1.0 - _EXP_M2)
    s = np.sqrt(-2.0 * _clib_log(np.concatenate([u[lo], 1.0 - u[hi]])))
    z = 1.0 / s
    x1 = _rational(z, _P1, _Q1)
    far = np.flatnonzero(s >= 8.0)
    if far.size:
        x1[far] = _rational(z[far], _P2, _Q2)
    tail = s - _clib_log(s) / s
    tail -= x1
    x[lo] = -tail[:lo.size]
    x[hi] = tail[lo.size:]
    return x


def aligned(n):
    """Smallest multiple of 4 that is >= n (Philox emits 4 doubles per counter tick)."""
    return -4 * (-int(n) // 4)


def _positioned(seed, start):
    """A Generator whose next double is index start of the stream keyed by seed."""
    if start % 4 != 0:
        raise ValueError("stream offset %d is not 4-aligned" % start)
    bg = np.random.Philox(key=int(seed))
    bg.advance(start // 4)
    return np.random.Generator(bg)


def uniform_stream(seed, start, n):
    """Doubles start .. start+n-1 of the stream keyed by seed. start must be 4-aligned."""
    return _positioned(seed, start).random(int(n))


def normal_blocks(seed, start, n, count):
    """The count consecutive blocks of n standard normals from index start
    of the stream keyed by seed: block b holds normals start + b*n ..
    start + (b+1)*n - 1.  The stream is positioned once.  Consecutive
    blocks go through one inverse-CDF pass up to _DRAW values (at least one
    block per pass), since each numpy call of the port costs about a
    microsecond whatever its size."""
    g = _positioned(seed, start)
    n, per_draw = int(n), max(1, _DRAW // max(int(n), 1))  # n = 0: empty blocks
    for b in range(0, count, per_draw):
        k = min(per_draw, count - b)
        u = g.random(k * n)
        np.maximum(u, _U_FLOOR, out=u)
        yield from _ndtri(u).reshape(k, n)


def normal_stream(seed, start, n):
    """Standard normals start .. start+n-1 of the stream keyed by seed."""
    return next(normal_blocks(seed, start, n, 1))


def double_at(seed, index):
    """Reference accessor for a single stream element (contract checks)."""
    bg = np.random.Philox(key=int(seed))
    bg.advance(int(index) // 4)
    return np.random.Generator(bg).random(4)[int(index) % 4]


def derive_seed(seed, *tags):
    """A 64-bit sub-seed that is a pure function of (seed, tags).

    Used to hand independent streams to auxiliary randomness (pool shuffles,
    sliced-W1 projections, bootstrap draws) without touching the particle
    stream layout.
    """
    ss = np.random.SeedSequence([int(seed)] + [int(t) & 0xFFFFFFFF for t in tags])
    return int(ss.generate_state(1, np.uint64)[0])


def generator(seed, *tags):
    """A numpy Generator on a Philox stream keyed by derive_seed(seed, *tags)."""
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, *tags)))
