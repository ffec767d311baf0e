"""Special-function and numerical kernels used throughout the package.

Everything here is self-contained (numpy and the stdlib only): log-gamma
(math.lgamma behind a domain check), the modified Bessel function K_nu by
the trapezoid rule on its cosh integral (one table for all orders per band
of z, nested step halving that stops once a halving moves every sum by at
most 3e-7, which the rule's error-squaring puts within 1e-13), exactly
rounded summation (math.fsum behind a finiteness check), composite Simpson
quadrature on uniform grids (one function or one per row), and a
Sturm-multisection eigensolver for symmetric tridiagonal matrices.

Bessel K's cost is its tables: a table holds e^{-z cosh t} for its points
times its nodes.  Small z needs a long cutoff and large z a fine step, so
bessel_k_many splits the z into bands no wider than a factor _BAND_RATIO,
and each band takes its own cutoff, step and halvings.  Cells
(points x nodes, summed over bands) then follow each point's own needs,
for the price of a few numpy calls per band and halving.

The eigensolver's cost is its Sturm counts.  sturm_count counts the
negative pivots of a twisted factorization, whose forward pivots step down
from the first row and backward pivots up from the last, for all shifts at
once and a block of rows at a time: a Python-level step (two small ufunc
calls) advances both sides by a row, so a pass steps about n/2 rows.  A
mirror-symmetric (persymmetric) matrix, such as the FD Hamiltonian of an
even potential, splits into even and odd sectors that share their forward
pivots, and their backward pivots start at the centre, so a pass steps
about n/4 rows over three columns per shift.  Each block then fills its
rows by two matrix products and reads every pivot a few more times
(|pivot|, its minimum, log|det|, its sign), allocating nothing.  A pass
costs about 0.9 us per step plus about 4 ns per cell (one column of one
step): on the 7,999-row PT matrix of the FD oracle, 2,000 steps, it took
2.2 ms at 16 shifts, 3.3 ms at 64, 5.7 ms at 160 and 9.8 ms at 320 with
log|det| (min of 100 on a 2-core shared host, interleaved with the
previous block loop, which took 2.8, 4.3, 6.9 and 12.2 ms), so the steps
dominate below about 70 shifts and the cells above.

So the eigensolver saves passes first and shifts second.  Levels that
share a bracket share its probes.  The first pass, which must find every
level, holds _PROBES probes per level: a geometric ladder about 0 over the
whole Gershgorin bracket, or about each hint's midpoint, given hints.
Every later pass holds _PROBES probes per bracket still open, so a pass
that is left with few levels to close is cheap.  Once a bracket isolates
one eigenvalue, half its probes step out from an anchor x*, the zero of
an inverse quadratic through the signed determinant at the bracket's ends
and one outside probe, which sturm_count's log|det(T - x)| gives from the
pivots it already holds.  The innermost pair of a ladder sits at
x* -/+ 0.45 tol, so an anchor within that of its eigenvalue closes the
bracket in that pass.  The other half of the probes stay uniform, so
every later pass shrinks every bracket at least 9x, and only Sturm counts
ever move a bracket: x* is a place to look, never an answer, and the
result is the midpoint of a bracket of width at most tol, as with plain
multisection.  Floating-point Sturm counts from the guarded recurrence
are monotone in the shift in practice (Demmel, Dhillon & Ren 1995), and a
bracket update that reads only the first probe at or past its level
stays valid where they are not.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "TridiagonalMatrix",
    "log_gamma",
    "bessel_k_many",
    "compensated_sum",
    "quadrature",
    "sturm_count",
    "tridiag_smallest_eigenvalues",
]


# Float64 cells of one kernel buffer (a block of Sturm pivots, or of their
# couplings; a Bessel-K table): 2^15 cells, 256 KB, so memory stays flat
# whatever the problem size.
_BLOCK_CELLS = 1 << 15


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [x_min, x_max] with `count` points (endpoints included)."""

    x_min: float
    x_max: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if self.x_min >= self.x_max:
            raise ValueError("grid requires x_min < x_max")
        if self.count < 3:
            raise ValueError("grid requires count >= 3")

    @property
    def h(self):
        return (self.x_max - self.x_min) / (self.count - 1)

    def points(self):
        return np.linspace(self.x_min, self.x_max, self.count)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a function on a uniform grid.

    values holds one function, shape (count,), or one function per row,
    shape (rows, count).
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim not in (1, 2) or vals.shape[-1] != self.grid.count:
            raise ValueError("values length must match grid count")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix given by its diagonal and off-diagonal.

    The entries are read-only copies, so what sturm_count derives from them
    once per matrix (_sturm_chains) cannot go stale.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.array(self.diag, dtype=float)
        e = np.array(self.offdiag, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or e.size != d.size - 1:
            raise ValueError("offdiag length must be diag length - 1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("matrix entries must be finite")
        d.flags.writeable = False
        e.flags.writeable = False
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def dim(self):
        return self.diag.size

    @cached_property
    def _sturm_chains(self):
        return _chains(self.diag, self.offdiag)


# ---------------------------------------------------------------------------
# log-gamma

def log_gamma(x):
    """ln Gamma(x) for real x > 0 (math.lgamma behind a domain check)."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError("log_gamma requires finite x > 0")
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# modified Bessel K via the cosh integral representation


_BESSEL_TAIL = 46.0  # ln of the relative level the Bessel-K integral may drop
_HALVINGS = 8  # most step halvings of the Bessel-K trapezoid rule
# Largest relative change of a step halving that accepts the finer sum:
# a halving at least squares the relative error here (see bessel_k_many),
# so a change of at most 3e-7 leaves the finer sum within 9e-14 < 1e-13.
_SETTLED = 3e-7
# Widest z_max / z_min of one Bessel-K table, the fastest of 2-24 measured
# on verify_measure_moments: 6 and 12 took 1.03-1.06x its time, 4 and 8
# 1.10-1.12x, 24 1.14x, 2 1.3x and one unbanded table 1.55x.  Below 8 the
# 88-point call of the tail ladders (z spanning up to 7.5x) splits in two
# and runs 1.6x slower.
_BAND_RATIO = 16.0


def _bessel_cutoff(nu_max, z_min):
    # Solve z_min*(cosh(T) - 1) - nu_max*T ~ _BESSEL_TAIL: past T the
    # integrand is below e^{-46} of the e^{-z} scale of K, for every order and z.
    t = 2.0
    for _ in range(40):
        t_new = math.acosh(1.0 + (_BESSEL_TAIL + nu_max * t) / z_min)
        if abs(t_new - t) < 1e-3:
            t = t_new
            break
        t = t_new
    if not math.isfinite(t):
        raise ValueError(
            f"bessel_k_many: z={z_min:g} is too small, its integration "
            "cutoff overflows")
    return max(t, 1.0)


def _bessel_band(nus, z, z_min):
    # Trapezoid sums of K_nu(z) for every order in nus and every z of one
    # band (z_min <= z <= _BAND_RATIO z_min), shape (len(nus), z.size), and
    # whether the last halving moved each of them by at most _SETTLED
    # relative, which puts the sum it returns within 1e-13 of K.
    col = z.reshape(-1, 1)
    nu_max = float(nus.max())
    t_max = _bessel_cutoff(nu_max, z_min)
    # A table entry below e^{-z - 46 - nu_max T} stays below e^{-46} of K's
    # e^{-z} scale even after the cosh(nu t) factor, so raising entries to
    # that floor moves no sum beyond round-off, and it keeps exp off its
    # slow path for results that underflow (7x slower per element).
    floor = -(col + (_BESSEL_TAIL + nu_max * t_max))
    neg_z = -col

    def node_sum(t, w=1.0):
        # sum over nodes t of w e^{-z cosh t} cosh(nu t), shape (len(nu), z.size);
        # the table is built in place, at most _BLOCK_CELLS cells at a time
        cosh_t = np.cosh(t)
        weights = np.cosh(t[:, None] * nus) * w
        out = np.empty((nus.size, z.size))
        rows = max(1, min(z.size, _BLOCK_CELLS // t.size))
        block = np.empty((rows, t.size))
        for lo in range(0, z.size, rows):
            table = block[:min(rows, z.size - lo)]
            np.multiply(neg_z[lo:lo + rows], cosh_t, out=table)
            np.maximum(table, floor[lo:lo + rows], out=table)
            np.exp(table, table)
            out[:, lo:lo + rows] = (table @ weights).T
        return out

    intervals = math.ceil(2.0 * t_max)
    h = t_max / intervals
    ends = np.ones((intervals + 1, 1))
    ends[0] = ends[-1] = 0.5
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        total = node_sum(np.arange(intervals + 1) * h, ends)
        val = h * total
        for _ in range(_HALVINGS):
            if not np.isfinite(val).all():
                break
            total = total + node_sum((np.arange(intervals) + 0.5) * h)
            intervals *= 2
            h *= 0.5
            new = h * total
            converged = bool((np.abs(new - val) <= _SETTLED * np.abs(new)).all())
            val = new
            if converged:
                break
    return val, converged


def bessel_k_many(nu, z):
    """K_nu(z) for an array of z > 0 and one order or a sequence of orders.

    Integrates e^{-z cosh t} cosh(nu t) on [0, T] by the trapezoid rule,
    which converges geometrically for this even, analytic integrand
    (Trefethen & Weideman, SIAM Review 56, 2014).  All orders share one
    table of e^{-z cosh t}, and each step halving evaluates only the new
    midpoints and adds them to the running sum.

    Stop rule.  Once the rule is in its asymptotic regime, the relative
    error e(h) of the sum with step h falls as exp(-c/h) where the
    integrand's decay is double-exponential (small z) and as exp(-c/h^2)
    where it is a Gaussian of width 1/sqrt(z) about t = 0 (large z), so
    each halving at least squares it: e(h/2) <= e(h)^2.  The change
    d = |T(h/2) - T(h)| / |T(h/2)| of a halving is then e(h) to first
    order, and a band accepts T(h/2) once d <= _SETTLED = 3e-7 for every
    order and point, which leaves e(h/2) <= (3e-7)^2 (1 + O(3e-7)) < 1e-13.
    The assumption is that two successive sums that agree to 3e-7 are
    past the pre-asymptotic steps; the initial step is at most 0.5 and the
    cutoff T holds the truncation error below e^{-46}, and the agreement
    with scipy.special.kv to 1e-13 over orders 0-40 and z in [0.02, 100]
    is a test.  Accepting on agreement of the sums themselves to 1e-13
    would cost one more halving, the most expensive one, whose only work
    is to confirm a sum already within tolerance.

    The cutoff T grows as z falls (about acosh(46 / z)), while the step
    the rule needs shrinks as z grows (the integrand's peak is about
    1/sqrt(z) wide), so one table for z from 0.06 to 70 would pay the
    smallest z's T at the largest z's step for every point.  The z are
    therefore split into bands, each from the smallest z not yet in a band
    up to _BAND_RATIO times that, and each band gets its own T, initial
    step (<= 0.5) and halvings.  A band costs points x nodes table cells
    plus a few numpy calls per halving.  A call whose z span at most a
    factor _BAND_RATIO is one band, and a band's values equal those of a
    call on that band alone, bit for bit.  Bands are found by comparisons,
    not by sorting: numpy's first sort call alone adds 256 KB to the peak
    RSS.  A scalar nu gives z.shape, a sequence (len(nu),) + z.shape.
    Raises OverflowError naming nu and z if a value is not finite, and
    RuntimeError naming the orders and the band's z range if _HALVINGS
    halvings leave a relative change above _SETTLED, so that the stop rule
    cannot place the sum within 1e-13.
    """
    orders = np.asarray(nu, dtype=float)
    if orders.ndim > 1 or np.any(~(orders >= 0.0)):
        raise ValueError("bessel_k requires nu >= 0")
    z = np.asarray(z, dtype=float)
    if np.any(~(z > 0.0)):
        raise ValueError("bessel_k requires z > 0")
    nus = np.atleast_1d(orders)
    flat = z.ravel()
    val = np.empty((nus.size, flat.size))
    rest = np.ones(flat.size, dtype=bool)  # points not yet in a band
    unsettled = None  # z range of the first band left unconverged
    while rest.any():
        z_min = float(flat[rest].min())
        band = rest & (flat <= _BAND_RATIO * z_min)
        band_z = flat[band]
        val[:, band], converged = _bessel_band(nus, band_z, z_min)
        if not converged and unsettled is None:
            unsettled = (z_min, float(band_z.max()))
        rest &= ~band
    bad = ~np.isfinite(val)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise OverflowError(
            f"bessel_k_many: K_nu(z) overflows double precision at "
            f"nu={nus[i]:g}, z={flat[j]:g} ({int(bad.sum())} value(s) "
            "not finite)")
    if unsettled is not None:
        raise RuntimeError(
            f"bessel_k_many: trapezoid rule not converged to 1e-13 after "
            f"{_HALVINGS} halvings (the last moved a sum by more than "
            f"{_SETTLED:g} relative) for nu={nus.tolist()}, "
            f"z in [{unsettled[0]:g}, {unsettled[1]:g}]")
    return val.reshape(nus.shape + z.shape) if orders.ndim else val.reshape(z.shape)


# ---------------------------------------------------------------------------
# summation


def compensated_sum(terms):
    """Exactly rounded sum of a sequence of finite reals (math.fsum).

    A 2-D array gives one exactly rounded sum per row, as a float array, from
    one .tolist() of the whole array; every row must be finite.
    """
    terms = np.asarray(terms, dtype=float)
    if terms.ndim == 2:
        totals = np.array(list(map(math.fsum, terms.tolist())))
        finite = np.isfinite(totals).all()
    else:
        totals = math.fsum(terms.tolist())
        finite = math.isfinite(totals)
    if not finite:
        raise ValueError("compensated_sum requires finite terms")
    return totals


# ---------------------------------------------------------------------------
# quadrature


def quadrature(f):
    """Integral of a GridFunction by composite Simpson (odd point count only).

    One function gives a complex, rows give an array of one integral per row.
    """
    n = f.grid.count
    if n % 2 == 0:
        raise ValueError(f"quadrature requires an odd point count, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    total = (f.values @ w) * (f.grid.h / 3.0)
    return total if total.ndim else complex(total)


# ---------------------------------------------------------------------------
# tridiagonal eigensolver (Sturm bisection)

_PIVMIN = 1e-290
_PROBES = 16  # shifts per level in a first pass, per open bracket in later ones


def _pivot_rows(coupling, prev, rows, guard):
    # rows[j] holds diag - x on entry and the pivot on exit; prev is the
    # pivot carried over from the last block and coupling[j] the squared
    # coupling of rows[j] to the pivot before it, overwritten.  Carrying
    # each row as the next one's `prev` saves a view per step, and local
    # names save two attribute lookups.
    divide, subtract = np.divide, np.subtract
    for e, row in zip(coupling, rows):
        divide(e, prev, e)  # positional out: cheaper to parse than out=
        subtract(row, e, row)
        if guard:
            row[np.abs(row) < _PIVMIN] = -_PIVMIN
        prev = row


def _sectors(diag, off):
    # Tridiagonals whose Sturm counts add up to the matrix's, as (diag, e)
    # pairs with e[i] the squared coupling of rows i-1 and i, and
    # e[0] = e[size] = 0: the matrix itself or, for a mirror image of
    # itself, its even and odd sectors, which differ only in the last row.
    n = diag.size
    e = np.concatenate([[0.0], off ** 2, [0.0]])
    if n < 2 or not (np.array_equal(diag, diag[::-1])
                     and np.array_equal(off, off[::-1])):
        return [(diag, e)]
    r = (n - 1) // 2
    if n % 2:  # the centre row couples to the even sector by sqrt(2) b_{r-1}
        e_even = np.append(e[:r + 1], 0.0)
        e_even[r] *= 2.0
        return [(diag[:r + 1], e_even), (diag[:r], np.append(e[:r], 0.0))]
    even, odd = diag[:r + 1].copy(), diag[:r + 1].copy()
    even[r] += off[r]
    odd[r] -= off[r]
    e = np.append(e[:r + 1], 0.0)
    return [(even, e), (odd, e)]


def _chains(diag, off):
    # What every Sturm pass over one matrix reads (see sturm_count): the
    # forward chain of rows 0..k-1, which all sectors share, then each
    # sector's backward chain, from its last row up to row k + 1, as columns
    # padded at the top to `steps` rows.  `fill` holds their diagonals and a
    # last column of ones, `coupling` their squared couplings; each chain's
    # first row couples by e = 0 to a unit pivot.  Sector 0 is the longest
    # and the others at most a row shorter, so all chains take the same
    # steps once a chain a row short is led by a row whose pivot is exactly
    # 1 (`pad`).  Then the forward chain's weight (how many sectors share
    # it) and the twist row k: its diagonal per sector, its forward coupling
    # and its backward coupling per sector.
    sectors = _sectors(diag, off)
    a0, e0 = sectors[0]
    k = (a0.size - 1) // 2
    chains = [(a0[:k], e0[:k])] + [(a[:k:-1], e[:k + 1:-1]) for a, e in sectors]
    steps = max(a.size for a, _ in chains)
    groups = len(chains)
    fill = np.zeros((steps, groups + 1))
    fill[:, groups] = 1.0
    coupling = np.zeros((steps, groups))
    for g, (a, e) in enumerate(chains):
        fill[steps - a.size:, g] = a
        coupling[steps - a.size:, g] = e
    if not np.isfinite(coupling).all():
        # sturm_count spreads couplings over columns by a matrix product,
        # where inf * 0 would give NaN
        raise OverflowError("sturm_count: a squared off-diagonal entry "
                            "overflows double precision")
    pad = np.array([a.size < steps for a, _ in chains])
    weight = np.array([len(sectors)] + [1] * len(sectors))
    twist = np.array([[a[k]] for a, _ in sectors])
    e_back = np.array([[e[k + 1]] for _, e in sectors])
    return fill, coupling, pad, weight, twist, e0[k], e_back


def _add_log_abs(mags, rows, total, grouped, ones):
    # total += the column sums of log(mags), mags = |rows|, overwriting
    # mags.  `grouped` says no |pivot| is below 2^-120, so no partial
    # product of eight of them underflows; then the rows are multiplied in
    # place, halves onto halves, into products of eight, and one log per
    # product does, unless a product overflows, which leaves a sum that is
    # not finite and |rows| is taken again.  Column sums are matrix-vector
    # products: numpy's sum over the first axis of a few columns takes
    # about twice as long.
    n = len(mags)
    q = n // 8 if grouped else 0
    if q:
        for half in (4 * q, 2 * q, q):
            np.multiply(mags[:half], mags[half:2 * half], mags[:half])
        rest = n - 8 * q  # leftover rows, moved up behind the products
        mags[q:q + rest] = mags[8 * q:]
        used = mags[:q + rest]
        np.log(used, used)
        part = ones[:q + rest] @ used
        if np.isfinite(part).all():
            total += part
            return
        np.abs(rows, mags)
    np.log(mags, mags)
    total += ones[:n] @ mags


def sturm_count(matrix, x, logdet=None):
    """Number of eigenvalues of `matrix` strictly below each shift in x.

    Counts the negative pivots of a twisted factorization of T - x
    (Dhillon & Parlett 2004; LAPACK's dlaneg), which by Sylvester's law of
    inertia has as many as T - x has negative eigenvalues.  With e_i the
    squared coupling of rows i-1 and i, the forward pivots
    d_i = (a_i - x) - e_i / d_{i-1} run down from row 0 to row k - 1, the
    backward pivots g_i = (a_i - x) - e_{i+1} / g_{i+1} run up from the
    last row to row k + 1, and they meet in the twist
    gamma_k = (a_k - x) - e_k / d_{k-1} - e_{k+1} / g_{k+1}.  Every pivot
    of magnitude below _PIVMIN is replaced by -_PIVMIN (the guard of
    LAPACK's dstebz), so a tiny gamma_k counts as negative.  The twist row k
    balances the two sides, so a pass steps about n/2 rows: the forward and
    backward pivots of all shifts are columns of one array, stepped
    together by two in-place ufunc calls per row.

    A matrix equal to its own mirror image (diag and offdiag palindromes,
    tested exactly) is orthogonally similar to the direct sum of an even and
    an odd sector, which share all rows but the one at the centre, where
    the backward pivots start.  For n = 2r + 1 the even sector is rows
    0..r with the coupling of rows r-1 and r scaled by sqrt(2) and the odd
    one rows 0..r-1; for n = 2r + 2 both are rows 0..r, ending in diagonals
    a_r + b_r and a_r - b_r.  The sectors share their forward pivots, which
    count twice, so a pass steps about n/4 rows over three columns per
    shift.  Where one side is a row shorter than the other, it starts with
    a pivot of exactly 1 that couples to nothing.

    Rows are processed in blocks of at most _BLOCK_CELLS cells of pivots
    (one row where the shifts' columns are more), with as many of
    couplings.  The chains of diagonals and couplings that every pass
    steps are built once per matrix (TridiagonalMatrix._sturm_chains).  A
    block is filled by two matrix products: [diag | 1] times
    [selection; -x] gives diag - x, and the couplings times the selection
    spread each chain's couplings over its shifts' columns.  Every output
    has one nonzero product besides -x, so it is exact.  The block then
    runs the recurrence unguarded, takes |pivot| once into the spent
    couplings, and is redone row by row with the guard only if that shows
    a pivot that is tiny, zero or NaN (LAPACK's dlaneg strategy).  A block
    that passes that check had nothing to guard, so the counts equal those
    of the guarded recurrence bit for bit.  No pivot is then 0, so a
    column's negative pivots number (rows - sum of signs) / 2, with the
    signs taken into the same buffer and summed by a matrix-vector
    product.  The cost is one Python-level step per row plus a few
    whole-block numpy calls per block, and memory stays at the two blocks,
    whatever the matrix dimension: a block allocates nothing.  The twisted
    and the plain forward recurrence round differently, so at a shift on
    an eigenvalue their counts may differ.

    `logdet`, if given, is an output-only float array shaped like x that
    receives log|det(T - x)|, the sum of log|pivot| over both sides and
    gamma_k (over both sectors for a mirror-symmetric matrix).  It is taken
    once per block, in place from the block's |pivot|, after the guard
    check, so it adds no row steps: while no pivot of a block is below
    2^-120 in magnitude and no product overflows, it is one log per product
    of eight pivots, else one per pivot.  Its value is only as good as the
    pivots: where they cancel it may be off by far more than a rounding, so
    use it as a hint, never to decide a count.  Non-finite shifts raise
    ValueError, and a matrix whose squared off-diagonal overflows raises
    OverflowError (in the selection product inf * 0 would be NaN); an empty
    x gives an empty count.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError(f"sturm_count: shifts must be finite, got "
                         f"{x[~np.isfinite(x)].tolist()}")
    if x.size == 0:
        return np.zeros(0, dtype=np.int64)
    fill, coupling, pad, weight, twist, e_twist, e_back = matrix._sturm_chains
    steps, groups = coupling.shape
    cols = groups * x.size
    # fill @ shift is diag - x and coupling @ shift[:groups] the couplings,
    # each group's spread over its x.size columns
    shift = np.zeros((groups + 1, groups, x.size))
    shift[np.arange(groups), np.arange(groups)] = 1.0
    shift[groups] = -x
    shift = shift.reshape(groups + 1, cols)
    block_rows = max(1, min(steps, _BLOCK_CELLS // cols))
    piv = np.empty((block_rows + 1, cols))
    piv[0] = 1.0
    spent = np.empty((block_rows, cols))  # couplings, then |pivots|, then signs
    ones = np.ones(block_rows)
    signs = np.zeros(cols)
    total = np.zeros(cols) if logdet is not None else None

    def fill_block(start, rows, cpl):
        np.matmul(fill[start:start + len(rows)], shift, out=rows)
        np.matmul(coupling[start:start + len(rows)], shift[:groups], out=cpl)
        if start == 0:
            rows[0].reshape(groups, x.size)[pad] = 1.0

    with np.errstate(all="ignore"):
        for start in range(0, steps, block_rows):
            rows = piv[1:min(block_rows, steps - start) + 1]
            mags = spent[:len(rows)]
            fill_block(start, rows, mags)
            _pivot_rows(mags, piv[0], rows, guard=False)
            np.abs(rows, mags)
            smallest = mags.min()
            if not smallest >= _PIVMIN:
                fill_block(start, rows, mags)
                _pivot_rows(mags, piv[0], rows, guard=True)
                np.abs(rows, mags)
                smallest = _PIVMIN  # the guard leaves every |pivot| at least this
            piv[0] = rows[-1]
            if total is not None:
                _add_log_abs(mags, rows, total, smallest >= 2.0 ** -120, ones)
            np.sign(rows, mags)
            signs += ones[:len(rows)] @ mags
        last = piv[0].reshape(groups, x.size)
        gamma = (twist - x) - e_twist / last[0] - e_back / last[1:]
        if total is not None:
            logdet[...] = (weight @ total.reshape(groups, x.size)
                           + np.log(np.maximum(np.abs(gamma), _PIVMIN)).sum(axis=0))
    # no pivot is 0, so each column has (steps - sum of signs) / 2 negative
    # ones; a twist below _PIVMIN in magnitude counts as negative
    negative = 0.5 * (steps - signs)
    count = weight @ negative.reshape(groups, x.size) + (gamma < _PIVMIN).sum(axis=0)
    return count.astype(np.int64)


def _max_rounds(width, tol):
    # The first pass shrinks nothing for sure.  Every later pass cuts each
    # bracket into _PROBES // 2 + 1 equal parts by its uniform probes and
    # keeps at most one, so ceil(log_9(width / tol)) passes reach tol; two
    # more absorb the rounding of the probes.
    if not math.isfinite(width):
        raise OverflowError("tridiag_smallest_eigenvalues: the Gershgorin "
                            "bracket overflows double precision")
    shrink = math.log(max(width, tol)) - math.log(tol)
    return 3 + math.ceil(shrink / math.log(_PROBES // 2 + 1))


def _ladder(centre, lo, hi, near, k):
    # k shifts per bracket in (lo, hi) on one geometric ladder per side of
    # `centre`, each stepping by its own ratio out to the bracket's far end;
    # the sides share the k rungs in proportion to the decades they span.
    # Where the centre lies inside the bracket the innermost rungs are
    # centre -/+ near; a side that starts at a bracket end starts half a
    # step in from it, so no rung repeats the end.
    near_l = np.maximum(centre - hi, near)
    near_r = np.maximum(lo - centre, near)
    span_l = np.log(np.maximum(centre - lo, near_l) / near_l)
    span_r = np.log(np.maximum(hi - centre, near_r) / near_r)
    total = span_l + span_r
    share = np.rint(k * span_l / np.where(total > 0.0, total, 1.0))
    k_l = np.clip(share, 1.0 * (span_l > 0.0), k - 1.0 * (span_r > 0.0))[:, None]
    j = np.arange(k)
    left = j < k_l
    rung = np.where(left, k_l - 1 - j, j - k_l)
    start = 0.5 * np.where(left, near_l[:, None] > near, near_r[:, None] > near)
    span = np.where(left, span_l[:, None], span_r[:, None])
    dist = np.where(left, near_l[:, None], near_r[:, None]) * np.exp(
        span * (rung + start) / np.maximum(np.where(left, k_l, k - k_l), 1.0))
    return np.where(left, centre[:, None] - dist, centre[:, None] + dist)


def _anchor(lo, hi, l_lo, l_hi, x3, l3, below):
    # Where to look for an isolated bracket's eigenvalue: the zero of the
    # inverse quadratic through the signed determinant (-1)^count e^(L - L_max)
    # at lo, hi and x3, an outside point with the count of lo (`below`) or
    # of hi; where that fit is not finite or leaves (lo, hi), the
    # regula-falsi point of lo and hi.  The Lagrange weights of x(f) at
    # f = 0 are taken relative to lo, so x* keeps lo's digits.
    top = np.fmax(np.fmax(l_lo, l_hi), l3)
    f0 = np.exp(l_lo - top)
    f1 = -np.exp(l_hi - top)
    f2 = np.where(below, 1.0, -1.0) * np.exp(l3 - top)
    x = lo + ((hi - lo) * (f0 * f2 / ((f1 - f0) * (f1 - f2)))
              + (x3 - lo) * (f0 * f1 / ((f2 - f0) * (f2 - f1))))
    secant = lo + (hi - lo) / (1.0 + np.exp(l_hi - l_lo))
    return np.where(np.isfinite(x) & (x > lo) & (x < hi), x, secant)


def tridiag_smallest_eigenvalues(matrix, count, tol=1e-10, brackets=None,
                                 stats=None):
    """The `count` smallest eigenvalues, ascending, by Sturm multisection.

    Level j's bracket (lo, hi) always has fewer than j eigenvalues below lo
    and at least j below or at hi, and only Sturm counts move it.  A pass is
    one vectorized sturm_count over all probes of all open brackets; levels
    whose brackets coincide share their probes.  The first pass holds
    _PROBES * count shifts spread over the distinct brackets and every
    later pass _PROBES per distinct open bracket: on a 7,999-row matrix a
    pass costs its 2,000 row steps (about 1.8 ms) plus about 25 us per
    shift, so 16 shifts cost about 1.2 times the steps and 160 about 3
    times (see the module docstring).  The bookkeeping between passes
    (placing probes, updating brackets; about 150 numpy calls on arrays
    of one entry per level or bracket) costs about 0.25 ms a pass,
    whatever the matrix.  After a pass every level takes the tightest
    bracket its probes give.

    - A ladder about a centre c has one geometric run of probes per side,
      from c -/+ 0.45 tol out to the bracket's ends, so an eigenvalue
      within 0.45 tol of c ends in a bracket narrower than tol.
    - The first pass puts a bracket's probes on a ladder about 0, which
      finds eigenvalues of any scale within a large Gershgorin bracket in
      one pass, or, given `brackets`, about each hint's midpoint.
    - Every later pass puts half of a bracket's probes uniformly inside it,
      so each pass shrinks each bracket at least 9x, and the other half on
      a ladder: about 0 again, unless the bracket isolates its level
      (count(lo) = j - 1, count(hi) = j) with finite L = log|det(T - x)| at
      both ends.  Then the ladder is about the anchor x*: the zero of the
      inverse quadratic through f = (-1)^count e^(L - L_max) at lo, hi and
      the last pass's nearest probe outside (lo, hi) whose count equals
      that of the end next to it, or, where that fit is not finite or
      leaves the bracket, the regula-falsi point
      lo + (hi - lo) / (1 + exp(L_hi - L_lo)).  x* only places probes and
      is never returned, so a noisy L costs passes, never accuracy.

    Brackets are narrowed to width <= tol (or until no float lies strictly
    inside), in at most the passes whose guaranteed shrink takes the
    Gershgorin bracket to tol; a bracket still open after them raises
    RuntimeError naming its level and width.  tol must be positive.

    `brackets`, if given, is a (lo, hi) pair of per-eigenvalue starting
    intervals (e.g. from a coarser discretization).  The first pass probes
    their ends and ladders about their midpoints, and a level whose hint
    misses its eigenvalue keeps the bracket the first pass's probes give
    it, at worst the Gershgorin bracket, so a poor hint costs time but
    never correctness.  `stats`, if given, is a dict that receives the
    number of Sturm passes under "passes"; the solve is the same either way.
    """
    n = matrix.dim
    if not (1 <= count <= n):
        raise ValueError("count must be in [1, matrix dimension]")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    radius = np.zeros(n)
    radius[:-1] += np.abs(matrix.offdiag)
    radius[1:] += np.abs(matrix.offdiag)
    g_lo = float(np.min(matrix.diag - radius))
    g_hi = float(np.max(matrix.diag + radius))
    rounds = _max_rounds(g_hi - g_lo, tol)
    want = np.arange(1, count + 1)  # j-th eigenvalue: smallest x with count>=j
    # level j's bracket, with the counts and log|det| at its ends
    lo = np.full(count, g_lo)
    hi = np.full(count, g_hi)
    c_lo = np.zeros(count, dtype=np.int64)
    c_hi = np.full(count, n, dtype=np.int64)
    l_lo = np.full(count, np.nan)
    l_hi = np.full(count, np.nan)
    # the third anchor point, beside lo if `below`, else beside hi
    x3 = np.full(count, np.nan)
    l3 = np.full(count, np.nan)
    below = np.zeros(count, dtype=bool)
    if brackets is None:
        place_lo, place_hi, ends = lo, hi, np.empty(0)
    else:
        place_lo = np.clip(np.asarray(brackets[0], dtype=float), g_lo, g_hi)
        place_hi = np.clip(np.asarray(brackets[1], dtype=float), g_lo, g_hi)
        if place_lo.shape != (count,) or place_hi.shape != (count,) \
                or np.any(place_lo > place_hi):
            raise ValueError("brackets must be valid (lo, hi) arrays")
        ends = np.concatenate([place_lo, place_hi])
    is_open = np.ones(count, dtype=bool)
    passes = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while is_open.any() and passes < rounds:
            # distinct open brackets, each placed by its lowest level; levels
            # that share a bracket are neighbours while counts are monotone
            level = np.flatnonzero(is_open)
            b_lo, b_hi = place_lo[level], place_hi[level]
            new = np.ones(level.size, dtype=bool)
            new[1:] = (b_lo[1:] != b_lo[:-1]) | (b_hi[1:] != b_hi[:-1])
            level, b_lo, b_hi = level[new], b_lo[new], b_hi[new]
            per = _PROBES * count // b_lo.size if passes == 0 else _PROBES
            rungs = per if passes == 0 else per // 2
            uniform = per - rungs
            width = b_hi - b_lo
            if passes:
                # ladders about x* in isolated brackets, about 0 elsewhere;
                # after the first pass a bracket is its lowest level's (lo, hi)
                isolated = ((c_lo == want - 1) & (c_hi == want)
                            & np.isfinite(l_hi - l_lo))
                centre = np.where(isolated, _anchor(
                    lo, hi, l_lo, l_hi, x3, l3, below), 0.0)[level]
            elif brackets is None:
                centre = np.zeros(b_lo.size)
            else:  # a hinted first pass
                centre = 0.5 * (b_lo + b_hi)
            frac = np.arange(1, uniform + 1) / (uniform + 1)
            probes = np.concatenate([
                ends,
                (b_lo[:, None] + width[:, None] * frac).ravel(),
                _ladder(centre, b_lo, b_hi, 0.45 * tol, rungs).ravel()])
            probes.sort()
            logdet = np.empty(probes.size)
            c = sturm_count(matrix, probes, logdet)
            passes += 1
            # level j's new hi is its first probe inside (lo, hi) with count
            # >= j; every probe below that has count < j, so the largest of
            # them is its new lo, even where rounding makes counts
            # non-monotone in the shift
            inside = (probes > lo[:, None]) & (probes < hi[:, None])
            up = inside & (c >= want[:, None])
            k = np.argmax(up, axis=1)
            got = up.any(axis=1)
            hi = np.where(got, probes[k], hi)
            c_hi = np.where(got, c[k], c_hi)
            l_hi = np.where(got, logdet[k], l_hi)
            k = np.searchsorted(probes, hi) - 1
            got = (k >= 0) & (probes[np.maximum(k, 0)] > lo)
            lo = np.where(got, probes[k], lo)
            c_lo = np.where(got, c[k], c_lo)
            l_lo = np.where(got, logdet[k], l_lo)
            # the third anchor point: the nearer of the probes just outside
            # (lo, hi) whose count is that of the bracket end next to it
            above = np.minimum(np.searchsorted(probes, hi, side="right"),
                               probes.size - 1)
            under = np.maximum(np.searchsorted(probes, lo) - 1, 0)
            gap_above = np.where((probes[above] > hi) & (c[above] == c_hi),
                                 probes[above] - hi, np.inf)
            gap_under = np.where((probes[under] < lo) & (c[under] == c_lo),
                                 lo - probes[under], np.inf)
            below = gap_under < gap_above
            k = np.where(below, under, above)
            x3 = probes[k]
            l3 = np.where(np.minimum(gap_above, gap_under) < np.inf,
                          logdet[k], np.nan)
            # a bracket wider than tol must at least have no float inside
            is_open = (hi - lo > tol) & (np.nextafter(lo, np.inf) < hi)
            place_lo, place_hi, ends = lo, hi, np.empty(0)
    if stats is not None:
        stats["passes"] = passes
    unsettled = np.flatnonzero(is_open)
    if unsettled.size:
        raise RuntimeError(
            f"tridiag_smallest_eigenvalues: levels {unsettled.tolist()} not "
            f"narrowed to tol={tol:g} in {rounds} rounds; final bracket "
            f"widths {(hi - lo)[unsettled].tolist()}")
    return 0.5 * (lo + hi)
