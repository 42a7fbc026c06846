"""Permanent evaluation: brute force, Ryser, Glynn and its repeated-index
variants, the Glynn-Kan double sum, and the Cauchy-Binet composition rule.

Conventions, taken by every formula from :func:`_entry`: the empty (0 x 0)
matrix has permanent 1, MacMahon's constant term, and a non-square matrix 0.
Per(A_{p,q}) is 0, with a :class:`WeightMismatchWarning`, when |p| != |q|, as
A_{p,q} is rectangular, and 1 when |p| = 0.  On the 0 x 0 matrix that is the
int 1; else an int on exact input and a complex on float input.  Every
formula states its term count, and raises `TooLarge`, naming that count and
the budget, when it exceeds the budget.

Exact input, int / Fraction entries as nested sequences or as an object
array (`combinatorics._is_exact_rows`), returns a Fraction when an entry is
one, else an int.  Its sign sums are multi-modular: the rows are scaled to
integers, one kernel, :func:`_multiplicity_residues`, sums mod a few primes
below 2^25 in float64 numpy, and the Chinese remainder theorem rebuilds the
permanent from a bound on |Per|.  Glynn gives Per(A_{p,q}) by Glynn's sum on
A_{p,q} with the sign vectors of each repeated column grouped by their sum,
prod_j (q_j + 1) terms (:func:`permanent_glynn_multiplicity`), of which the
kernel sums one of each pair of equal terms; Glynn and repeated-row Glynn
are its q = 1 case, and Ryser is the same kernel on [C 1 | C], priced by
its own bound.  The brute-force sum, :func:`_naive_sum`, is the independent
route: it walks the permutation prefix tree, on an object array here and on
float input alike; exact zero partial products drop their subtree.

Float input has one sign-sum kernel, :func:`_sign_sums`, batched over many
(p, q), for Ryser (on [A 1 | A]), Glynn, repeated-row Glynn, the multiplicity
sums and the sampler; like the exact kernel it sums half the grid, and both
take one pair on its rows repeated p_i times, multiplied straight down the
rows, and a batch on a table of each row's powers.  One grid
serves the multiplicity sum in both rings: :func:`_grid` builds its split,
float64 points and exact integer weights once per set of column
multiplicities; the float kernel reads the weights' float64, the exact one
their residues mod each prime (:func:`_residue_grid`).  Every batch of
multiplicity sums has one entry, :func:`_repeated_permanents`, which prices
it and picks the kernel: the multiplicity sum, Cauchy-Binet's inner
permanents and the identity verifiers' permanent sides go through it.  Glynn
and repeated-row Glynn, one pair that `_glynn_rows` has priced, call a
kernel directly: `_sign_sums` on float input, `_exact_multiplicity_sums` on
exact input.

Glynn-Kan's double sum over x, y of w(x) w(y) (x^T A y)^n is one kernel,
:func:`_grid_double_sum`.  Glynn-Kan runs it on the sign vectors of
`_vertices` (the order-2 grid) with x_1 = y_1 = +1, 4^(m-1) pairs priced at
the full 4^m, in float or, on int/Fraction input, on an object array of
Python ints, exactly.  Repeated-index Glynn-Kan (which the estimators'
`pown_grid_expectation` returns) and the roots-of-unity sum run on
:func:`_root_grid`, numeric-only: for exponents e, the grid prod_j
mu_{e_j + 1}, whose root orders follow from e so that nothing aliases x^e.
Every integer power in these grid kernels, and in the 'pown' estimator,
comes from one in-place squaring helper, :func:`_power`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Optional, Union

import numpy as np

from .combinatorics import (
    RepetitionPattern,
    _is_exact_rows,
    enumerate_weight,
    factorial_product,
    weight,
)
from .errors import TERM_BUDGET, DimensionMismatch, WeightMismatchWarning, check_budget
from .numerics import ComplexMatrix, UnitaryMatrix, as_array

NAIVE_MAX_DIM = 10

Scalar = Union[complex, Fraction, int]


@dataclass(frozen=True)
class PermanentResult:
    value: Scalar
    algorithm: str
    term_count: int


def _coerce(a):
    """Normalize input to (data, nrows, ncols, exact).

    Exact input (int / Fraction entries, as nested sequences or an object
    array) gives ``data`` as a tuple of row tuples; anything else a finite
    complex128 array.  An object array's shape is its own: a 0 x k one has
    no rows to carry its width.
    """
    if isinstance(a, np.ndarray) and _is_exact_rows(a):
        return tuple(map(tuple, a.tolist())), *a.shape, True
    if not isinstance(a, (np.ndarray, ComplexMatrix, UnitaryMatrix)):
        rows = tuple(tuple(row) for row in a)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        if _is_exact_rows(rows):
            return rows, len(rows), ncols, True
        a = rows
    arr = _finite_array(a)
    return arr, arr.shape[0], arr.shape[1], False


def _finite_array(a) -> np.ndarray:
    arr = as_array(a)
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def _entry(a, algorithm: str, pattern: Optional[RepetitionPattern] = None, numeric: bool = False) -> tuple:
    """(data, exact, p, q, result): what every formula starts from.

    ``data`` and ``exact`` are `_coerce`'s, p and q the pattern's (None
    without one; a pattern needs a square matrix as large as it is long).
    ``result`` is the permanent wherever no sum is needed, by the module's
    conventions, with 0 terms for 0 and 1 term for 1; else None.  A
    ``numeric`` formula sums in floats whatever the input, so its values are
    complex and exact data comes to it as a complex array.
    """
    data, nrows, ncols, exact = _coerce(a)
    # the shape of the matrix whose permanent is asked: A, or A_{p,q}, |p| x |q|
    p, q, rows, cols = None, None, nrows, ncols
    if pattern is not None:
        if nrows != ncols or pattern.length != nrows:
            raise DimensionMismatch("pattern length must equal the square matrix dimension")
        p, q = pattern.rows, pattern.cols
        rows, cols = weight(p), weight(q)
        if rows != cols:
            warnings.warn(WeightMismatchWarning())
    if rows == cols != 0:
        if numeric and exact:
            data, exact = as_array(data), False
        return data, exact, p, q, None
    per = int(rows == cols)  # the empty matrix's 1, or a rectangular one's 0
    as_int = (exact and not numeric) or nrows == ncols == 0
    return data, exact, p, q, PermanentResult(per if as_int else complex(per), algorithm, per)


# Bits of the sign vector (or up to 2^_LOW_BITS points of the multiplicity
# grid) enumerated by one matmul; the rest is an outer loop, so the kernels'
# temporaries hold m * 2^_LOW_BITS entries at most.
_LOW_BITS = 10


@lru_cache(maxsize=None)
def _vertices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2^k points of {-1, 1}^k as rows (bit j of the row index is x_j = +1)
    and each point's sign prod_j x_j.  Read-only."""
    x = 2.0 * ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1) - 1.0
    points, signs = x.astype(np.complex128), x.prod(axis=1)
    points.setflags(write=False)
    signs.setflags(write=False)
    return points, signs


def _aligned(shape: tuple, dtype) -> np.ndarray:
    """An uninitialised array for a buffer that a kernel's outer loop reuses,
    on a 64-byte boundary when it takes 128 KiB or more.  glibc malloc serves
    such blocks by mmap, 16 bytes past a boundary (until it frees a larger
    mmapped block), and float Glynn's loop at m = 18 took 1.4x as long on
    such a buffer; smaller ones are not moved, as the move costs a few us."""
    size, itemsize = math.prod(shape), np.dtype(dtype).itemsize
    if size * itemsize < 1 << 17:
        return np.empty(shape, dtype=dtype)
    raw = np.empty(size + 64 // itemsize - 1, dtype=dtype)
    start = -raw.ctypes.data % 64 // itemsize
    return raw[start : start + size].reshape(shape)


# Entries (rows x low grid points) of one chunk's product block in _sign_sums.
_SUMS_ENTRIES = 1 << 15


def _column_span(mults) -> tuple[int, int]:
    """(Q, step) of the values y = q - 2v, 0 <= v <= q, that any of the
    multiplicities q of one column needs: -Q..Q for Q = max q, in steps of 2 if
    every q has one parity, else of 1."""
    return int(max(mults)), 2 if len({q % 2 for q in mults}) == 1 else 1


def _column_values(mults) -> np.ndarray:
    """The values -Q..Q of `_column_span` for the multiplicities of one column."""
    top, step = _column_span(mults)
    return np.arange(-top, top + 1, step)


def _multiplicity_weight(q: int, y: int) -> int:
    """(-1)^v C(q, v) where y = q - 2v with 0 <= v <= q, else 0."""
    v, odd = divmod(q - y, 2)
    return 0 if odd or not 0 <= v <= q else (-1) ** v * math.comb(q, v)


def _grid_size(qs) -> int:
    """The number of points of the grid for the multiplicity rows qs, a product
    of `_column_span` counts per column."""
    return math.prod(2 * top // step + 1 for top, step in map(_column_span, zip(*qs)))


def _int_dtype(bound: int) -> type:
    """The dtype of exact integer work whose values and partial sums all stay
    within ``bound`` in absolute value: int64 below 2^63, else object (Python ints)."""
    return np.int64 if bound < 1 << 63 else object


@lru_cache(maxsize=64)
def _grid(qs: tuple[tuple[int, ...], ...]) -> tuple:
    """(low, block, size, points, weights): the grid that the multiplicity rows qs need.

    Column j takes `_column_values` of the q_j in qs; the first ``low``
    columns, as many as fit, make ``block`` <= 2^_LOW_BITS points, of ``size``
    in all.  ``points`` holds the float64 points y of the low columns (block x
    low) and of the others (one row per outer point), each part's first column
    the fastest digit; ``weights`` holds each part's rows, row r at y being
    prod_j (-1)^{v_j} C(q_j, v_j) for q = qs[r] and y = q - 2v, else 0: int64
    while the product of the part's column maxima, a bound on every weight and
    partial product, is below 2^63, else Python ints (`_int_dtype`, as in the
    exact (Az)^p expansions).  For q = (1, ..., 1), low and high assembled,
    these are the points and signs of `_vertices(k)`.  Read-only.
    """
    columns = [_column_values(col) for col in zip(*qs)]
    low, block = 0, 1
    while low < len(columns) and block * columns[low].size <= 1 << _LOW_BITS:
        block *= columns[low].size
        low += 1
    points, weights = [], []
    for part in (range(low), range(low, len(columns))):
        # column j's largest weight is C(Q, Q // 2), Q its largest value
        top = math.prod(math.comb(int(columns[j][-1]), int(columns[j][-1]) // 2) for j in part)
        dtype = _int_dtype(top)
        index = np.arange(math.prod(columns[j].size for j in part))
        x = np.empty((index.size, len(part)))
        w = np.ones((len(qs), index.size), dtype=dtype)
        stride = 1
        for t, j in enumerate(part):
            digit = index // stride % columns[j].size
            x[:, t] = columns[j][digit]
            # one weight row per distinct q_j, taken by each q in qs
            mults = sorted({q[j] for q in qs})
            table = np.array([[_multiplicity_weight(c, int(y)) for y in columns[j]] for c in mults], dtype=dtype)
            w *= table[np.searchsorted(mults, [q[j] for q in qs])][:, digit]
            stride *= columns[j].size
        points.append(x)
        weights.append(w)
    for a in (*points, *weights):
        a.setflags(write=False)
    return low, block, math.prod(c.size for c in columns), tuple(points), tuple(weights)


def _sign_sums(cols: np.ndarray, powers: np.ndarray, mults: Optional[list] = None) -> np.ndarray:
    """For each row p of the N x m int array ``powers``, with q the matching
    tuple of column multiplicities in the list ``mults`` (all ones when
    omitted), half of Glynn's sign sum (Glynn, EJC 2010) on ``cols`` (m x k)
    with column j repeated q_j times, its sign vectors grouped by how many -1
    each column's copies hold: the sum of prod_j (-1)^{v_j} C(q_j, v_j)
    prod_i ((cols y)_i)^{p_i} over the points y = q - 2v whose first nonzero
    y_j is positive, in `_multiplicity_residues`' grid order.  The term at -y
    is (-1)^{|p| + |q|} times that at y, so where |p| = |q| = n >= 1 this is
    2^(n-1) Per(A_{p,q}) for cols = A.

    The grid's first columns, at most 2^_LOW_BITS points, come in one matmul,
    the rest in an outer loop priced by the callers.  One row p runs on cols
    with row i repeated p_i times, multiplied down the rows; more rows gather
    from a table of the powers (cols y)^e, e <= max(p), per outer point.
    """
    if not np.isfinite(cols).all():
        raise ValueError("matrix entries must be finite")
    index = {(1,) * cols.shape[1]: 0} if mults is None else {}
    which = np.array([index.setdefault(q[::-1], len(index)) for q in mults or ()], dtype=np.intp)
    qs = tuple(index)
    low, block, size, (x_low, x_high), weights = _grid(qs)
    # exact below 2^53; a Python int past float range raises OverflowError
    w_low, w_high = (w.astype(np.float64) for w in weights)
    one = powers.shape[0] == 1
    if one:
        cols = np.repeat(cols, powers[0], axis=0)
    m = cols.shape[0]
    first, skip = divmod((size + 1) // 2, block)
    if first == x_high.shape[0] - 1:
        # one outer point: only the block's upper part is summed
        x_low, w_low, block, skip = x_low[skip:], w_low[:, skip:], block - skip, 0
    cols = cols[:, ::-1]
    part = cols[:, :low] @ x_low.T
    # each outer point's share of cols y; none when every column is low
    shifts = x_high[first:] @ cols[:, low:].T if x_high.shape[1] else None
    step = _SUMS_ENTRIES // block
    # cols y per outer point; a single outer point's values overwrite `part`
    v = part if first == x_high.shape[0] - 1 else _aligned(part.shape, np.complex128)
    if not one:
        # row e holds (cols y)^e
        table = np.empty((int(powers.max(initial=0)) + 1, m, block), dtype=np.complex128)
        table[0] = 1.0
    out = np.zeros(powers.shape[0], dtype=np.complex128)
    for t, h in enumerate(range(first, x_high.shape[0])):
        lo = skip if t == 0 else 0
        if shifts is not None:
            np.add(part[:, lo:], shifts[t, :, None], out=v[:, lo:])
        if one:
            out += w_high[0, h] * (v[:, lo:].prod(axis=0) @ w_low[0, lo:])
            continue
        tab = table[:, :, lo:]
        for e in range(1, tab.shape[0]):
            np.multiply(tab[e - 1], v[:, lo:], out=tab[e])
        for start in range(0, powers.shape[0], step):
            chunk = powers[start : start + step]
            acc = tab[chunk[:, 0], 0]
            for i in range(1, m):
                acc *= tab[chunk[:, i], i]
            if len(qs) == 1:
                out[start : start + step] += w_high[0, h] * (acc @ w_low[0, lo:])
            else:
                rows = which[start : start + step]
                out[start : start + step] += w_high[rows, h] * np.einsum("ij,ij->i", acc, w_low[rows, lo:])
    return out


def _integer_rows(rows) -> tuple[list[int], list[list[int]]]:
    """(d, C) for int/Fraction rows: d_i is the lcm of row i's denominators and c_ij = d_i a_ij."""
    dens = [math.lcm(*(v.denominator for v in row)) for row in rows]
    return dens, [[v.numerator * (d // v.denominator) for v in row] for row, d in zip(rows, dens)]


def _exact_type(value, rows) -> Scalar:
    """An exact permanent of ``rows`` as a Fraction when an entry is one, else as an int."""
    return Fraction(value) if any(isinstance(v, Fraction) for row in rows for v in row) else int(value)


@lru_cache(maxsize=None)
def _others(k: int) -> np.ndarray:
    """k x (k - 1) index rows: row t lists 0..k-1 without t.  Read-only."""
    idx = np.arange(k - 1)
    rows = idx + (idx >= np.arange(k)[:, None])
    rows.setflags(write=False)
    return rows


def _naive_sum(arr: np.ndarray) -> Scalar:
    """sum over permutations s of prod_i arr[i, s(i)], m >= 1, in lexicographic order.

    Level i holds each partial product over rows < i once, with the columns it
    has not used; row i multiplies in by one gather.  On an object (int /
    Fraction) array a zero partial product drops its subtree.
    """
    m = arr.shape[0]
    exact = arr.dtype == object
    prods, free = arr[0], _others(m)
    for i in range(1, m):
        if exact:
            keep = prods != 0
            prods, free = prods[keep], free[keep]
        k = free.shape[1]
        # contiguous operands: a stride-0 broadcast rounds some products differently
        prods = np.repeat(prods, k) * arr[i][free].reshape(-1)
        if k > 1:
            free = free[:, _others(k)].reshape(-1, k - 1)
    # the sum is a Fraction whenever an entry is one, pruned terms or not
    return _exact_type(sum(prods.tolist()), arr) if exact else complex(prods.sum())


def permanent_naive(a) -> PermanentResult:
    """Sum over all m! permutations of products of entries."""
    data, exact, _, _, result = _entry(a, "naive")
    if result is not None:
        return result
    m = len(data)
    if m > NAIVE_MAX_DIM:
        check_budget(f"naive permanent of dimension {m}", math.factorial(m), math.factorial(NAIVE_MAX_DIM))
    arr = np.array(data, dtype=object) if exact else data
    return PermanentResult(_naive_sum(arr), "naive", math.factorial(m))


# The exact kernel computes with integers held in float64, which is exact
# for every integer of magnitude below 2^53.  Every float it makes is such
# an integer:
# - a shared row's values (C y)_i lie within its reach r_i, and a group's
#   product of them within the product of the group's bounds (each at least
#   1), which stays below 2^52 (`_row_groups`).  One pair repeats row i p_i
#   times: each copy is bounded by r_i, and a group's product of reaches
#   stays below 2^52, so a group multiplied straight down its rows is exact.
#   More pairs bound row i by r_i^{P_i}, P_i its largest power, which bounds
#   its tabled powers too;
# - a per-prime row holds balanced residues, and its sums of them times the
#   grid's values, at most 2^24 sum_j Q_j < 2^52 on grids of fewer than
#   2^28 points, are reduced before use;
# - `_balanced` gives residues in [-(p - 1)/2, (p - 1)/2], and its q p stays
#   below 2^52 + 2^25;
# - a per-prime factor adds two balanced residues (below 2^25), so a product
#   of two factors, or of a factor and a weight residue, is below 2^50 before
#   it is reduced;
# - a block's weighted sum of at most 2^_LOW_BITS factors below 2^25 is
#   below 2^52 for weights below 2^17; larger weights are multiplied in and
#   reduced first;
# - the block sums are reduced in int64, times their outer weights' residues
#   (products below 2^49) and reduced again, so that no total passes 2^62.
_PRIME_BITS = 25
_EXACT = 1 << 52


@lru_cache(maxsize=None)
def _prime_below(n: int) -> int:
    """The largest prime below n > 3, by trial division."""
    c = (n - 2) | 1
    while not all(c % d for d in range(3, math.isqrt(c) + 1, 2)):
        c -= 2
    return c


def _crt_primes(bound: int) -> list[int]:
    """The largest primes below 2^_PRIME_BITS, as few as make their product
    exceed ``bound``, largest first.  Each is found on first use and cached."""
    primes, product = [], 1
    while product <= bound:
        primes.append(_prime_below(primes[-1] if primes else 1 << _PRIME_BITS))
        product *= primes[-1]
    return primes


def _balanced(x: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """x mod p in [-(p - 1)/2, (p - 1)/2] for integer-valued float64 |x| < 2^52 and odd p < 2^25.

    x/p lies at least 1/(2p) from a half-integer, and float division moves it
    by less than |x/p| 2^-53 < 1/(2p), so rint gives the nearest integer q;
    then |q p| <= |x| + p/2 < 2^53 and x - q p are exact.
    """
    q = x / primes
    np.rint(q, out=q)
    q *= primes
    return np.subtract(x, q, out=q)


def _row_groups(bounds: list) -> tuple[list[int], list[tuple[int, int]], list[int]]:
    """(shared, groups, per_prime) for rows whose values are bounded by ``bounds`` (each >= 1).

    A row with bound below 2^52 is shared: its values are exact float64
    integers for every prime at once.  ``groups`` cuts the list ``shared``
    into runs (lo, hi) of consecutive rows whose bounds multiply to less than
    2^52, so that a run's product is exact before it is reduced mod each
    prime.  The other rows, ``per_prime``, hold residues mod each prime.
    """
    shared = [i for i, b in enumerate(bounds) if b < _EXACT]
    groups, start, product = [], 0, 1
    for t, i in enumerate(shared):
        if product * bounds[i] >= _EXACT:
            groups.append((start, t))
            start, product = t, 1
        product *= bounds[i]
    if shared:
        groups.append((start, len(shared)))
    return shared, groups, [i for i, b in enumerate(bounds) if b >= _EXACT]


@lru_cache(maxsize=64)
def _residue_grid(qs: tuple, primes: tuple) -> tuple:
    """What `_multiplicity_residues` needs of `_grid(qs)`: its (low, block,
    size), the low points as low x block and the high ones, each part's
    weights mod each prime, balanced, as (len(qs), len(primes), points), or
    (len(qs), 1, points) when every weight of the part is at most half of
    each prime and so its own residue, the low part's in float64 and the
    high part's in int64, and whether every low residue is below 2^17, so
    that a block's weighted sum of factors below 2^25 stays below 2^52."""
    low, block, size, (x_low, x_high), weights = _grid(qs)
    residues = []
    for w, dtype in zip(weights, (np.float64, np.int64)):
        w = w[:, None, :]
        if np.abs(w).max() > min(primes) // 2:
            ps = np.array(primes, dtype=w.dtype)[:, None]
            w = (w % ps + ps // 2) % ps - ps // 2
        residues.append(w.astype(dtype))
        residues[-1].setflags(write=False)
    direct = bool(np.abs(residues[0]).max() < 1 << (52 - _PRIME_BITS - _LOW_BITS))
    return (low, block, size, x_low.T, x_high, *residues, direct)


def _multiplicity_residues(ints: list, powers: np.ndarray, mults: list, primes: list) -> np.ndarray:
    """`_sign_sums` on the integer rows ``ints``, mod each prime, as an N x k
    int64 array in [0, p): row r for p = powers[r] and q = mults[r].  The one
    exact sign-sum kernel: 2^(|q| - 1) Per(C_{p,q}) where |p| = |q|, for
    Glynn's forms, and 2^m Per(C) on Ryser's [C 1 | C].

    The grid is `_grid`'s with the column order reversed, so the grid
    indices i and G - 1 - i hold the points y and -y, and the sum runs over
    i >= (G + 1) // 2: the points whose first nonzero y_j is positive.  Rows
    with no power and columns with no multiplicity are left out.

    The split is `_sign_sums`': the first columns' points, at most
    2^_LOW_BITS, in one matmul, the rest an outer loop.  Row i's values
    (C y)_i are bounded by its reach r_i = sum_j |c_ij| Q_j, with Q_j the
    largest q_j.  One pair runs, as in `_sign_sums`, on C with row i
    repeated p_i times, each copy bounded by r_i, and multiplies each group
    of `_row_groups` straight down the rows.  More pairs table, per outer
    point, each row's powers up to its largest p_i, bounded by r_i^{P_i}, and
    each chunk of pairs gathers its own.  A shared row's values are exact, a
    per-prime row's are residues.  Each group's product is reduced, the
    factors multiplied and reduced in turn, and contracted with the weight
    residues of `_residue_grid`; the block sums of up to _SUMS_ENTRIES / (N k)
    outer points are reduced and weighted by those points' residues together.
    """
    one = len(mults) == 1
    top = powers.max(axis=0).tolist()
    widest = [max(col) for col in zip(*mults)]
    cols = [j for j, t in enumerate(widest) if t][::-1]
    # one pair: row i repeated p_i times, so that every power is 1
    rows = [i for i, e in enumerate(top) for _ in range(e if one else min(e, 1))]
    tops = [1 if one else top[i] for i in rows]
    reach = [sum(map(mul, map(abs, ints[i]), widest)) for i in rows]
    shared, groups, big = _row_groups([max(r, 1) ** e for r, e in zip(reach, tops)])
    if not one:
        pw_shared, pw_big = (powers[:, [rows[i] for i in part]] for part in (shared, big))
    ints = [[ints[i][j] for j in cols] for i in rows]
    index: dict = {}
    which = np.array([index.setdefault(tuple(q[j] for j in cols), len(index)) for q in mults], dtype=np.intp)
    qs, k, n = tuple(index), len(primes), len(mults)
    low, block, size, x_low, x_high, w_low, w_high, direct = _residue_grid(qs, tuple(primes))
    ps = np.array(primes, dtype=np.float64)
    ps2 = ps[:, None]
    exact_rows = np.array([ints[i] for i in shared], dtype=np.float64).reshape(len(shared), len(cols))
    part = exact_rows[:, :low] @ x_low
    # row e of a table holds the e-th powers, for e up to the largest power of its rows
    table = _aligned((max((tops[i] for i in shared), default=1) + 1, len(shared), block), np.float64)
    table[0] = 1.0
    if big:
        # the per-prime rows mod each prime, balanced, (rows, primes, columns)
        picked = np.array([ints[i] for i in big], dtype=object)[:, None] % np.array(primes, dtype=object)[:, None]
        residues = _balanced(picked.astype(np.float64), ps2)
        part_big = _balanced(residues[..., :low] @ x_low, ps2)
        table_big = np.ones((max(tops[i] for i in big) + 1, len(big), k, block))
    # the primes along whole rows: a (k, 1) column would be a slower broadcast
    moduli = np.repeat(ps2, block, axis=1)
    step = max(1, _SUMS_ENTRIES // (k * block))
    first, skip = divmod((size + 1) // 2, block)
    held = np.empty((min(max(1, _SUMS_ENTRIES // (n * k)), x_high.shape[0] - first), n, k))
    pick = slice(0, 1) if len(qs) == 1 else which
    modulus = np.array(primes, dtype=np.int64)
    total = np.zeros((n, k), dtype=np.int64)
    for t, h in enumerate(range(first, x_high.shape[0])):
        lo = skip if t == 0 else 0
        tab, mod = table[:, :, lo:], moduli[:, lo:]
        np.add(part[:, lo:], (exact_rows[:, low:] @ x_high[h])[:, None], out=tab[1])
        for e in range(2, tab.shape[0]):
            np.multiply(tab[e - 1], tab[1], out=tab[e])
        if big:
            tab_big = table_big[..., lo:]
            tab_big[1] = part_big[..., lo:] + _balanced(residues[..., low:] @ x_high[h], ps)[..., None]
            for e in range(2, tab_big.shape[0]):
                tab_big[e] = _balanced(tab_big[e - 1] * tab_big[1], ps2)
        for start in range(0, n, step):
            chunk = slice(start, start + step)
            # the chunk's powers of each row, (pairs, rows, points); one pair's are tab[1]
            at = tab[1] if one else tab[pw_shared[chunk], np.arange(len(shared))]
            factors = [_balanced(at[..., lo_:hi_, :].prod(axis=-2)[..., None, :], mod) for lo_, hi_ in groups]
            if big:
                factors += list(tab_big[1] if one else tab_big[pw_big[chunk], np.arange(len(big))].swapaxes(0, 1))
            acc = factors[0]
            for f in factors[1:]:
                acc = _balanced(acc * f, mod)
            w = w_low[pick if len(qs) == 1 else which[chunk], :, lo:]
            if direct:
                # a batched dot product: einsum's broadcasting path is slower
                held[t % len(held), chunk] = np.matmul(acc[..., None, :], w[..., None])[..., 0, 0]
            else:
                held[t % len(held), chunk] = _balanced(acc * w, mod).sum(axis=-1)
        if t % len(held) == len(held) - 1 or h == x_high.shape[0] - 1:
            got = held[: t % len(held) + 1].astype(np.int64) % modulus
            weights = w_high[pick, :, h + 1 - len(got) : h + 1].transpose(2, 0, 1)
            total += (got * weights % modulus).sum(axis=0)
    return total % modulus


def _crt(residues: list, primes: list) -> list[int]:
    """Per row r of ``residues``, the x with |x| < M/2 and x = r_t mod p_t for
    each prime p_t, M = prod p (odd)."""
    modulus = math.prod(primes)
    coeffs = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    out = []
    for row in residues:
        x = sum(map(mul, row, coeffs)) % modulus
        out.append(x - modulus if 2 * x > modulus else x)
    return out


def _exact_multiplicity_sums(rows, pairs) -> list[Scalar]:
    """Per(A_{p,q}) per pair, for int/Fraction rows and |p| = |q| >= 1, multi-modular.

    Row i is scaled to integers by the lcm d_i of its denominators, which
    scales Per(A_{p,q}) by prod_i d_i^{p_i}, and for the scaled rows C
    |Per(C_{p,q})| <= B = prod_i max(sum_j |c_ij| q_j, 1)^{p_i}.  The largest
    primes below 2^25 are taken until their product M exceeds 2B for every
    pair.  `_multiplicity_residues` gives half the sign sum mod each prime;
    times the inverse of 2^{|q| - 1} that is Per(C_{p,q}) mod p, and the
    Chinese remainder theorem rebuilds it in (-M/2, M/2).  A result is a
    Fraction when an entry of A_{p,q} is one, else an int.
    """
    dens, ints = _integer_rows(rows)
    reach = (np.abs(np.array(ints, dtype=object)) @ np.array([q for _, q in pairs], dtype=object).T).T.tolist()
    primes = _crt_primes(2 * max(math.prod(max(r, 1) ** e for r, e in zip(rs, p)) for rs, (p, _) in zip(reach, pairs)))
    half = _multiplicity_residues(ints, np.array([p for p, _ in pairs]), [q for _, q in pairs], primes)
    inverses = {n: [pow(2, 1 - n, p) for p in primes] for n in {weight(q) for _, q in pairs}}
    scale = np.array([inverses[weight(q)] for _, q in pairs], dtype=np.int64)
    values = _crt((half * scale % np.array(primes, dtype=np.int64)).tolist(), primes)
    # the places of the Fractions; the other exact entries are ints (bools among them)
    fractions = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if not isinstance(v, int)]
    out: list[Scalar] = []
    for (p, q), value in zip(pairs, values):
        value = Fraction(value, math.prod(d**e for d, e in zip(dens, p)))
        out.append(value if any(p[i] and q[j] for i, j in fractions) else int(value))
    return out


def permanent_ryser(a) -> PermanentResult:
    """Ryser's inclusion-exclusion over column subsets: (2^m - 1) terms.

    Both rings run Glynn's sign sum on [A 1 | A] with every p_i = 1: its half
    with y_0 = +1 is 2^m Per(A), as A 1 + A y = 2 A x for x = (1 + y) / 2,
    the subset's indicator.  Float input runs `_sign_sums`.  Int/Fraction
    input is exact and multi-modular: row i is scaled to integers by the lcm
    d_i of its denominators, and |Per| <= B = prod_i max(sum_j |c_ij|, 1)
    for the scaled entries c.  The largest primes below 2^25 are taken until
    their product M exceeds 2B; `_multiplicity_residues` gives 2^m Per mod
    each prime, times the inverse of 2^m that is Per mod p, and the Chinese
    remainder theorem rebuilds it in (-M/2, M/2), then divides by prod_i d_i.
    It costs about 2^m * m * k float operations for k ~ log2(2B) / 25
    primes.  The result is a Fraction when an entry is one, else an int.
    """
    data, exact, _, _, result = _entry(a, "ryser")
    if result is not None:
        return result
    m = len(data)
    check_budget("Ryser sum", 1 << m)
    ones = np.ones((1, m), dtype=np.intp)
    if not exact:
        rows = np.concatenate((data.sum(axis=1, keepdims=True), data), axis=1)
        return PermanentResult(complex(_sign_sums(rows, ones)[0] / (1 << m)), "ryser", (1 << m) - 1)
    dens, ints = _integer_rows(data)
    primes = _crt_primes(2 * math.prod(max(sum(map(abs, row)), 1) for row in ints))
    half = _multiplicity_residues([[sum(row), *row] for row in ints], ones, [(1,) * (m + 1)], primes)[0]
    (value,) = _crt([[h * pow(2, -m, p) % p for h, p in zip(half.tolist(), primes)]], primes)
    return PermanentResult(_exact_type(Fraction(value, math.prod(dens)), data), "ryser", (1 << m) - 1)


def _glynn_rows(data, exact: bool, q, algorithm: str) -> PermanentResult:
    """Glynn's sum on A_{q,1}, row i repeated q_i times, x_1 fixed to +1:
    2^(n-1) terms for |q| = n = m >= 1.  Float input runs `_sign_sums` with
    the powers q, exact input the multiplicity sum with every q_j = 1."""
    n = len(q)
    check_budget("Glynn sum over all sign vectors", 1 << n)
    if exact:
        (value,) = _exact_multiplicity_sums(data, [(q, (1,) * n)])
    else:
        value = complex(_sign_sums(data, np.array([q]))[0] / (1 << (n - 1)))
    return PermanentResult(value, algorithm, 1 << (n - 1))


def permanent_glynn(a) -> PermanentResult:
    """Glynn's sign-vector formula with x_1 fixed to +1 (2^(m-1) terms)."""
    data, exact, _, _, result = _entry(a, "glynn")
    return result or _glynn_rows(data, exact, (1,) * len(data), "glynn")


def permanent_glynn_repeated_rows(a, q) -> PermanentResult:
    """Glynn-type sum for Per(A_{q,1}): row i enters with exponent q_i.

    The Kronecker delta in the formula makes the result 0, with `_entry`'s
    warning for the pattern (q, 1), unless |q| equals the dimension of A.  It
    is Glynn's sum on the row-repeated matrix, x_1 fixed to +1 (2^(n-1) terms).
    """
    data, exact, q, _, result = _entry(a, "glynn_repeated_rows", RepetitionPattern(q, (1,) * len(q)))
    return result or _glynn_rows(data, exact, q, "glynn_repeated_rows")


def permanent_glynn_multiplicity(a, pattern: RepetitionPattern) -> PermanentResult:
    """Per(A_{p,q}) = 2^{-|q|} sum_{0 <= v <= q} prod_j (-1)^{v_j} C(q_j, v_j) prod_i ((A(q - 2v))_i)^{p_i}.

    Glynn's formula on A_{p,q} (Glynn, EJC 2010) with the sign vectors of each
    repeated column grouped by their sum, as Kan (2008) groups moments:
    prod_j (q_j + 1) terms where Glynn on A_{p,q} takes 2^{|q| - 1}.  It runs
    through `_repeated_permanents`: float input on `_sign_sums` on the
    multiplicity grid, int/Fraction input on its multi-modular twin
    (`_exact_multiplicity_sums`); both sum one of the equal terms at v and
    q - v, and the float route reports the whole grid.  Exact results have the type
    `permanent_naive` gives on A_{p,q}.  TooLarge applies to prod_j (q_j + 1),
    and on float input also to the kernel's cost, that count times the number
    of columns.
    """
    data, exact, p, q, result = _entry(a, "glynn_multiplicity", pattern)
    if result is not None:
        return result
    terms = _multiplicity_terms(q)
    check_budget("multiplicity sign sum", terms)
    (value,) = _repeated_permanents((data, [(p, q)]))[0].values()
    return PermanentResult(value, "glynn_multiplicity", terms // 2 if exact else terms)


def _multiplicity_terms(q) -> int:
    """Terms of the multiplicity sign sum for column multiplicities q: prod_j (q_j + 1)."""
    return math.prod(c + 1 for c in q)


def _batches(pairs: list, *keys) -> list[list]:
    """[pairs] when one shared grid for them all costs at most the term budget
    (pairs times grid points), else the pairs grouped by keys[0](q), each
    group split again by the other keys; the last groups stay whole."""
    if not keys or len(pairs) * _grid_size([q for _, q in pairs]) <= TERM_BUDGET:
        return [pairs]
    groups: dict = {}
    for p, q in pairs:
        groups.setdefault(keys[0](q), []).append((p, q))
    return [batch for group in groups.values() for batch in _batches(group, *keys[1:])]


def _repeated_permanents(*jobs) -> list[dict]:
    """Per (matrix A, pairs) job, {(p, q): Per(A_{p,q})} over its multi-index
    pairs, 0 where |p| != |q|, `DimensionMismatch` where p or q does not fit
    A's shape: the one entry for batches of multiplicity sums.

    One walk per job prices its pairs, prod_j (q_j + 1) terms per listed pair
    with |p| = |q| (repeats and p = q = 0 included), and sorts out the distinct
    pairs that need a kernel; the jobs together must fit the term budget.  Per
    job, one kernel call takes every pair, unless their shared grid would cost
    more than the term budget.  Then the pairs whose q agree in parity, whose
    grid is prod_j (max q_j + 1) points, share a call, and a parity class over
    the budget takes one call per q.  The kernel is `_sign_sums` on float
    input, priced per call at its grid times the columns, and its
    multi-modular twin, `_exact_multiplicity_sums`, on int/Fraction input.
    """
    terms, plans = 0, []
    for a, pairs in jobs:
        data, nrows, ncols, exact = _coerce(a)
        out, todo = {}, {}
        for p, q in pairs:
            if len(p) != nrows or len(q) != ncols:
                raise DimensionMismatch(f"patterns of length {len(p)}, {len(q)} do not fit a {nrows} x {ncols} matrix")
            wp, wq, count = 0, 0, 1
            for pj, qj in zip(p, q):
                wp, wq, count = wp + pj, wq + qj, count * (qj + 1)
            if wp != wq:
                out[p, q] = 0
                continue
            terms += count
            if wp:
                todo[p, q] = wp
            else:
                out[p, q] = 1
        plans.append((data, exact, out, todo))
    check_budget("permanent side", terms)
    for data, exact, out, todo in plans:
        for batch in _batches(list(todo), lambda q: tuple(c % 2 for c in q), lambda q: q) if todo else ():
            if exact:
                out.update(zip(batch, _exact_multiplicity_sums(data, batch)))
                continue
            qs = [q for _, q in batch]
            check_budget("sign sum", _grid_size(qs) * max(len(qs[0]), 1))
            sums = _sign_sums(data, np.array([p for p, _ in batch]), qs)
            for pair, s in zip(batch, sums.tolist()):
                out[pair] = s / (1 << (todo[pair] - 1))
    return [out for _, _, out, _ in plans]


def _root_grid(e, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points x of prod_j mu_{e_j + 1} numbered by ``ids`` (mixed-radix digits, the
    last fastest) and their weights x^{-e} = prod_j x_j.  Over the grid x^{c - e} sums to 0
    for every c >= 0 with |c| = |e| but c = e, as c_j = e_j mod e_j + 1 forces c_j >= e_j."""
    radix = [c + 1 for c in e]
    digits = np.unravel_index(ids, radix)
    x = np.stack([np.exp(2j * np.pi * np.arange(r) / r)[d] for r, d in zip(radix, digits)], axis=1)
    return x, x.prod(axis=1)


# Values of x^T A y in one block of `_grid_double_sum`, so that a block stays in cache.
_DOUBLE_SUM_ENTRIES = 1 << 14


def _power(z: np.ndarray, n: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """z^n for an int n >= 0 by binary powering into ``out`` (a new array when
    omitted), squaring z in place, so z ends as a power of itself.

    numpy's complex `**` takes about as long at n = 1 as at n = 9, ten
    multiplies' time; this takes floor(log2 n) squarings and one multiply
    per further set bit of n, and is as accurate.  An object (int /
    Fraction) array stays exact.  The grid kernels take every integer power
    from here.
    """
    out = np.empty_like(z) if out is None else out
    if n == 0:
        out[...] = 1
        return out
    while not n & 1:
        np.multiply(z, z, out=z)
        n >>= 1
    np.copyto(out, z)
    while n := n >> 1:
        np.multiply(z, z, out=z)
        if n & 1:
            np.multiply(out, z, out=out)
    return out


def _grid_double_sum(arr: np.ndarray, xs: np.ndarray, wx: np.ndarray, ys: np.ndarray, wy: np.ndarray, power: int):
    """sum over the rows x of ``xs`` and y of ``ys`` of wx(x) wy(y) (x^T A y)^power.

    Blocks of x hold at most _DOUBLE_SUM_ENTRIES values of x^T A y.  Each
    block's values go into one buffer and its powers into a second, both
    reused by every block, as a fresh 256 KiB array would be mmapped anew.
    On an object (int / Fraction) array, with int64 points and weights,
    every value stays a Python int or Fraction, so the sum is exact.
    """
    ayt = arr @ ys.T  # column g = A y_g
    step = max(1, _DOUBLE_SUM_ENTRIES // ys.shape[0])
    values = np.empty((min(step, xs.shape[0]), ys.shape[0]), dtype=np.result_type(xs, ayt))
    powers = np.empty_like(values)
    total = 0
    for lo in range(0, xs.shape[0], step):
        x = xs[lo : lo + step]
        block = np.matmul(x, ayt, out=values[: len(x)])
        total += wx[lo : lo + step] @ _power(block, power, powers[: len(x)]) @ wy
    return total


def permanent_roots_of_unity(a, pattern: RepetitionPattern) -> PermanentResult:
    """Per(A_{p,q}) = (q!/G) * sum over the G = prod_j (q_j + 1) points x of `_root_grid(q)` of x^{-q} (Ax)^p."""
    arr, _, p, q, result = _entry(a, "roots_of_unity", pattern, numeric=True)
    if result is not None:
        return result
    grid = _multiplicity_terms(q)
    check_budget("roots-of-unity grid prod(q_j + 1)", grid)
    p_idx = [(i, pi) for i, pi in enumerate(p) if pi]
    total = 0j
    for lo in range(0, grid, _SUMS_ENTRIES):
        x, term = _root_grid(q, np.arange(lo, min(lo + _SUMS_ENTRIES, grid), dtype=np.int64))
        w = x @ arr.T
        factor = np.empty_like(term)
        for i, pi in p_idx:
            term *= _power(w[:, i], pi, factor)
        total += term.sum()
    value = complex(factorial_product(q) * total / grid)
    return PermanentResult(value, "roots_of_unity", grid)


def permanent_glynn_kan(a) -> PermanentResult:
    """Symmetrized double sign sum: (1/(4^m m!)) sum_{x,y} (prod x)(prod y)(x^T A y)^m.

    x -> -x multiplies both prod x and (x^T A y)^m by (-1)^m, and so does
    y -> -y, so the pairs (+-x, +-y) give four equal terms: the sum runs over
    the 4^(m-1) pairs with x_1 = y_1 = +1, over 4^(m-1) m!, as Glynn's fixes
    x_1 (Glynn, EJC 2010).  It is priced at the full 4^m, as Glynn at 2^m.
    `_grid_double_sum` on the sign vectors, exact on int/Fraction input.
    """
    data, exact, _, _, result = _entry(a, "glynn_kan")
    if result is not None:
        return result
    m = len(data)
    check_budget("Glynn-Kan sum", 4**m)
    terms = 4 ** (m - 1)
    denom = terms * math.factorial(m)
    # bit 0 of a row index of `_vertices` is x_1: the odd rows have x_1 = +1
    points, signs = (v[1::2] for v in _vertices(m))
    if not exact:
        total = _grid_double_sum(data, points, signs, points, signs, m)
        return PermanentResult(complex(total) / denom, "glynn_kan", terms)
    # Per(A) = Per(DA) / prod(d) for the row scaling D that makes the entries integers
    dens, ints = _integer_rows(data)
    points, signs = points.real.astype(np.int64), signs.astype(np.int64)
    total = _grid_double_sum(np.array(ints, dtype=object), points, signs, points, signs, m)
    return PermanentResult(_exact_type(Fraction(total, denom * math.prod(dens)), data), "glynn_kan", terms)


def permanent_glynn_kan_repeated(a, pattern: RepetitionPattern) -> PermanentResult:
    """Per(A_{p,q}) = p!q!/(n! G_x G_y) * sum over the G_x points x of `_root_grid(p)` and the
    G_y points y of `_root_grid(q)` of x^{-p} y^{-q} (x^T A y)^n, n = |p| = |q|."""
    arr, _, p, q, result = _entry(a, "glynn_kan_repeated", pattern, numeric=True)
    if result is not None:
        return result
    n = weight(p)
    gx, gy = _multiplicity_terms(p), _multiplicity_terms(q)
    check_budget("roots-of-unity double grid prod(p_i + 1) prod(q_j + 1)", gx * gy)
    scalefac = float(Fraction(factorial_product(p) * factorial_product(q), gx * gy * math.factorial(n)))
    xs, wx = _root_grid(p, np.arange(gx))
    ys, wy = _root_grid(q, np.arange(gy))
    value = complex(_grid_double_sum(arr, xs, wx, ys, wy, n)) * scalefac
    return PermanentResult(value, "glynn_kan_repeated", gx * gy)


def permanent_cauchy_binet(a, b, pattern: RepetitionPattern) -> PermanentResult:
    """Per((AB)_{p,q}) = sum over |k| = |p| of Per(A_{p,k}) Per(B_{k,q}) / k!.

    The inner permanents come from one `_repeated_permanents` call, one job
    per matrix, as Per((A^T)_{k,p}) and Per(B_{k,q}): each job's pairs share
    one column multiplicity (p, then q), so each is one multiplicity sum of
    prod_j (p_j + 1), resp. prod_j (q_j + 1), terms per k.  TooLarge applies
    to |K| (prod_j (p_j + 1) + prod_j (q_j + 1)) for the |K| multi-indices k;
    the reported term count is |K|.
    """
    # B's shape by the same rule; its pattern (q, q) has equal weights, so no second warning
    rows_b, exact_b, *_ = _entry(b, "cauchy_binet", RepetitionPattern(pattern.cols, pattern.cols))
    rows_a, exact, p, q, result = _entry(a, "cauchy_binet", pattern, numeric=not exact_b)
    if result is not None:
        return result
    m, npq = len(rows_a), weight(p)
    terms = math.comb(npq + m - 1, m - 1)
    check_budget("Cauchy-Binet inner multiplicity sums", terms * (_multiplicity_terms(p) + _multiplicity_terms(q)))
    kind = object if exact else np.complex128
    ks = list(enumerate_weight(m, npq))
    per_at, per_b = _repeated_permanents(
        (np.array(rows_a, dtype=kind).T, [(k, p) for k in ks]), (np.array(rows_b, dtype=kind), [(k, q) for k in ks])
    )
    total: Scalar = 0
    for k in ks:
        pa, pb, kfac = per_at[k, p], per_b[k, q], factorial_product(k)
        total += Fraction(pa * pb, kfac) if exact else pa * pb / kfac
    # permanent_naive's type on (AB)_{p,q}: a Fraction when one sits in a row i of A
    # with p_i > 0 or in a column j of B with q_j > 0, else an int
    used = [*(row for row, e in zip(rows_a, p) if e), *(col for col, e in zip(zip(*rows_b), q) if e)]
    total = _exact_type(total, used) if exact else complex(total)
    return PermanentResult(total, "cauchy_binet", terms)


ALGORITHMS = {
    "naive": permanent_naive,
    "ryser": permanent_ryser,
    "glynn": permanent_glynn,
    "glynn-repeated-rows": permanent_glynn_repeated_rows,
    "glynn-multiplicity": permanent_glynn_multiplicity,
    "roots-of-unity": permanent_roots_of_unity,
    "glynn-kan": permanent_glynn_kan,
    "glynn-kan-repeated": permanent_glynn_kan_repeated,
    "cauchy-binet": permanent_cauchy_binet,
}
