"""Exact permanent evaluation: brute force, Ryser, Glynn and its repeated-index
variants, the Glynn-Kan double sum, and the Cauchy-Binet composition rule.

Conventions: the permanent of a non-square matrix is 0, the permanent of the
empty (0 x 0) matrix is 1.  Formulas that require |p| = |q| = n return 0 with
a :class:`WeightMismatchWarning` when the weights differ, matching the fact
that the corresponding repeated matrix is rectangular.

Exact (int / Fraction) inputs run the sign-vector sums (Ryser, Glynn,
Glynn-Kan) as pure-Python Gray-code loops, so they stay exact and serve as the
independent reference for the float path.  Float inputs run one chunked numpy
kernel, :func:`_sign_sum`, for all of them (Glynn-Kan shares its vertex
table); :func:`_sign_sums` is its batched form over many exponent rows, for
the sampler's distributions.  The roots-of-unity grids are vectorized with
numpy and are numeric-only.
The brute-force sum, :func:`_naive_sum`, walks the permutation prefix tree
on float and exact input alike; exact zero partial products drop their subtree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .combinatorics import (
    RepetitionPattern,
    _is_exact_rows,
    enumerate_weight,
    factorial_product,
    repeat_matrix,
    weight,
)
from .errors import DimensionMismatch, TooLarge, WeightMismatchWarning
from .numerics import ComplexMatrix, UnitaryMatrix, as_array

TERM_BUDGET = 10**7

NAIVE_MAX_DIM = 10
RYSER_MAX_DIM = 30
GLYNN_KAN_MAX_DIM = 14

Scalar = Union[complex, Fraction, int]


@dataclass(frozen=True)
class PermanentResult:
    value: Scalar
    algorithm: str
    term_count: int


def _coerce(a):
    """Normalize input to (data, nrows, ncols, exact).

    Exact input (nested sequences of int / Fraction) gives ``data`` as a
    tuple of row tuples; anything else a finite complex128 array.
    """
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


def _degenerate(nrows: int, ncols: int, algorithm: str) -> Optional[PermanentResult]:
    if nrows == 0 and ncols == 0:
        return PermanentResult(1, algorithm, 1)
    if nrows != ncols:
        return PermanentResult(0, algorithm, 0)
    return None


# Bits of the sign vector enumerated by one matmul; the rest is an outer loop,
# so the kernel's temporaries hold m * 2^_LOW_BITS entries at most.
_LOW_BITS = 10


@lru_cache(maxsize=None)
def _vertices(k: int, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2^k points of {lo, 1}^k as rows (bit j of the row index is x_j) and
    each point's sign prod_j s(x_j), with s(lo) = -1 and s(1) = +1.  Read-only."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    points = np.where(bits == 1, 1.0, float(lo)).astype(np.complex128)
    signs = np.prod(2.0 * bits - 1.0, axis=1)
    points.setflags(write=False)
    signs.setflags(write=False)
    return points, signs


def _sign_sum(cols: np.ndarray, lo: int, base: Optional[np.ndarray] = None) -> complex:
    """sum over x in {lo, 1}^k of (prod_j s(x_j)) prod_i (base + cols x)_i.

    ``cols`` is m x k and ``base`` defaults to 0.  Ryser is lo = 0, Glynn
    lo = -1.  The low bits of x come from the cached vertex table in one
    matmul; the high bits are an outer loop.
    """
    k = cols.shape[1]
    low = min(k, _LOW_BITS)
    x_low, s_low = _vertices(low, lo)
    part = cols[:, :low] @ x_low.T
    if base is not None:
        part += base[:, None]
    if k == low:
        return complex(part.prod(axis=0) @ s_low)
    x_high, s_high = _vertices(k - low, lo)
    high_cols = cols[:, low:]
    return sum(
        sh * complex((part + (high_cols @ xh)[:, None]).prod(axis=0) @ s_low) for xh, sh in zip(x_high, s_high)
    )


# Entries (outcomes x low sign vectors) of one chunk's product block in _sign_sums.
_SUMS_ENTRIES = 1 << 15


def _sign_sums(cols: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """For each row p of the N x m int array ``powers``, sum over x in {-1, 1}^k
    of (prod x) prod_i ((cols x)_i)^{p_i}, with ``cols`` m x k.

    Per vertex block, the powers (cols x)^e, e <= max(p), are built by repeated
    multiplication; each chunk of outcomes multiplies its gathered rows.
    """
    if not np.isfinite(cols).all():
        raise ValueError("matrix entries must be finite")
    m, k = cols.shape
    if (1 << k) * max(k, 1) > TERM_BUDGET:
        raise TooLarge(f"sign sum over 2^{k} terms exceeds the budget")
    low = min(k, _LOW_BITS)
    x_low, s_low = _vertices(low, -1)
    x_high, s_high = _vertices(k - low, -1)
    part = cols[:, :low] @ x_low.T
    step = _SUMS_ENTRIES >> low
    table = np.empty((int(powers.max(initial=0)) + 1, m, 1 << low), dtype=np.complex128)
    table[0] = 1.0
    out = np.zeros(powers.shape[0], dtype=np.complex128)
    for xh, sh in zip(x_high, s_high):
        v = part + (cols[:, low:] @ xh)[:, None]
        for e in range(1, table.shape[0]):
            np.multiply(table[e - 1], v, out=table[e])
        for start in range(0, powers.shape[0], step):
            chunk = powers[start : start + step]
            acc = table[chunk[:, 0], 0]
            for i in range(1, m):
                acc *= table[chunk[:, i], i]
            out[start : start + step] += sh * (acc @ s_low)
    return out


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
    if not exact:
        return complex(prods.sum())
    # the sum is a Fraction whenever an entry is one, pruned terms or not
    zero = Fraction(0) if any(isinstance(v, Fraction) for v in arr.flat) else 0
    return sum(prods.tolist(), zero)


def permanent_naive(a) -> PermanentResult:
    """Sum over all m! permutations of products of entries."""
    data, nrows, ncols, exact = _coerce(a)
    deg = _degenerate(nrows, ncols, "naive")
    if deg is not None:
        return deg
    m = nrows
    if m > NAIVE_MAX_DIM:
        raise TooLarge(f"naive permanent limited to dim <= {NAIVE_MAX_DIM}, got {m}")
    arr = np.array(data, dtype=object) if exact else data
    return PermanentResult(_naive_sum(arr), "naive", math.factorial(m))


def _columns(rows, m: int, ncols: int):
    return [tuple(rows[i][j] for i in range(m)) for j in range(ncols)]


def permanent_ryser(a) -> PermanentResult:
    """Inclusion-exclusion over column subsets with Gray-code row-sum updates."""
    data, nrows, ncols, exact = _coerce(a)
    deg = _degenerate(nrows, ncols, "ryser")
    if deg is not None:
        return deg
    m = nrows
    if m > RYSER_MAX_DIM or (1 << m) > TERM_BUDGET:
        raise TooLarge(f"Ryser sum over 2^{m} subsets exceeds the budget")
    if not exact:
        # x_j = 1 puts column j in the subset; the sign (-1)^(m - |S|) is Ryser's
        return PermanentResult(_sign_sum(data, 0), "ryser", (1 << m) - 1)
    cols = _columns(data, m, ncols)
    sums = [0] * m
    total = 0
    size = 0
    for k in range(1, 1 << m):
        j = (k & -k).bit_length() - 1
        col = cols[j]
        if ((k ^ (k >> 1)) >> j) & 1:
            size += 1
            for i in range(m):
                sums[i] += col[i]
        else:
            size -= 1
            for i in range(m):
                sums[i] -= col[i]
        term = 1
        for s in sums:
            term *= s
        total += term if size % 2 == 0 else -term
    value = total if m % 2 == 0 else -total
    return PermanentResult(value, "ryser", (1 << m) - 1)


def permanent_glynn(a) -> PermanentResult:
    """Glynn's sign-vector formula with x_1 fixed to +1 (2^(m-1) terms)."""
    data, nrows, ncols, exact = _coerce(a)
    deg = _degenerate(nrows, ncols, "glynn")
    if deg is not None:
        return deg
    m = nrows
    if m > RYSER_MAX_DIM or (1 << m) > TERM_BUDGET:
        raise TooLarge(f"Glynn sum over 2^{m - 1} sign vectors exceeds the budget")
    denom = 1 << (m - 1)
    if not exact:
        value = _sign_sum(data[:, 1:], -1, base=data[:, 0]) / denom
        return PermanentResult(value, "glynn", denom)
    cols = _columns(data, m, ncols)
    sums = [sum(row) for row in data]
    xs = [1] * m
    sign = 1
    term = 1
    for s in sums:
        term *= s
    total = term
    for k in range(1, 1 << (m - 1)):
        j = (k & -k).bit_length()  # flip x_{j+1}; x_1 stays +1
        xs[j] = -xs[j]
        d = 2 * xs[j]
        col = cols[j]
        for i in range(m):
            sums[i] += d * col[i]
        sign = -sign
        term = 1
        for s in sums:
            term *= s
        total += sign * term
    return PermanentResult(Fraction(total, denom), "glynn", denom)


def permanent_glynn_repeated_rows(a, q) -> PermanentResult:
    """Glynn-type sum for Per(A_{q,1}): row i enters with exponent q_i.

    The Kronecker delta in the formula makes the result 0 unless |q| equals
    the dimension of A.
    """
    data, nrows, ncols, exact = _coerce(a)
    if nrows != ncols:
        raise DimensionMismatch("matrix must be square")
    n = nrows
    q = tuple(int(v) for v in q)
    if len(q) != n:
        raise DimensionMismatch("repetition vector length must equal the matrix dimension")
    if weight(q) != n:
        return PermanentResult(0, "glynn_repeated_rows", 0)
    if n > RYSER_MAX_DIM or (1 << n) > TERM_BUDGET:
        raise TooLarge(f"sum over 2^{n} sign vectors exceeds the budget")
    denom = 1 << n
    if not exact:
        # row i repeated q_i times raises (A x)_i to the power q_i
        value = _sign_sum(np.repeat(data, q, axis=0), -1) / denom
        return PermanentResult(value, "glynn_repeated_rows", denom)
    cols = _columns(data, n, n)
    sums = [sum(row) for row in data]
    xs = [1] * n
    sign = 1
    powered = [i for i in range(n) if q[i]]

    def product():
        term = 1
        for i in powered:
            term *= sums[i] ** q[i]
        return term

    total = product()
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        xs[j] = -xs[j]
        d = 2 * xs[j]
        col = cols[j]
        for i in range(n):
            sums[i] += d * col[i]
        sign = -sign
        total += sign * product()
    return PermanentResult(Fraction(total, denom), "glynn_repeated_rows", denom)


def _root_grid_digits(ids: np.ndarray, n: int, m: int) -> np.ndarray:
    digits = np.empty((ids.size, m), dtype=np.int64)
    rest = ids
    for j in range(m - 1, -1, -1):
        digits[:, j] = rest % n
        rest = rest // n
    return digits


def _root_grid_double_sum(arr: np.ndarray, p, q, order: int, power: int, chunk: int = 256) -> complex:
    """sum over x, y in mu_order^m of x^{-p} y^{-q} (x^T A y)^power, over chunks of x."""
    m = arr.shape[0]
    grid = order**m
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    pts = roots[_root_grid_digits(np.arange(grid, dtype=np.int64), order, m)]  # (grid, m)
    conj = np.conj(pts)
    wx = np.ones(grid, dtype=np.complex128)
    wy = np.ones(grid, dtype=np.complex128)
    for i in range(m):
        if p[i]:
            wx *= conj[:, i] ** p[i]
        if q[i]:
            wy *= conj[:, i] ** q[i]
    ayt = arr @ pts.T  # column g = A y_g
    total = 0j
    for lo in range(0, grid, chunk):
        hi = min(lo + chunk, grid)
        s = pts[lo:hi] @ ayt  # (chunk, grid): x_g . (A y_h)
        total += wx[lo:hi] @ (s**power) @ wy
    return complex(total)


def permanent_roots_of_unity(a, pattern: RepetitionPattern, chunk: int = 1 << 15) -> PermanentResult:
    """Per(A_{p,q}) = (q!/n^m) * sum over x in mu_n^m of x^{-q} (Ax)^p, n = |p| = |q|."""
    arr = _finite_array(a)
    m = arr.shape[0]
    if arr.shape[1] != m or pattern.length != m:
        raise DimensionMismatch("pattern length must equal the square matrix dimension")
    p, q = pattern.rows, pattern.cols
    n = weight(p)
    if weight(q) != n:
        warnings.warn("|p| != |q|: permanent of a rectangular repetition is 0", WeightMismatchWarning)
        return PermanentResult(0j, "roots_of_unity", 0)
    if n == 0:
        return PermanentResult(1 + 0j, "roots_of_unity", 1)
    grid = n**m
    if grid > TERM_BUDGET:
        raise TooLarge(f"roots-of-unity grid n^m = {grid} exceeds the budget")
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    p_idx = [(i, p[i]) for i in range(m) if p[i]]
    q_idx = [(j, q[j]) for j in range(m) if q[j]]
    total = 0j
    for lo in range(0, grid, chunk):
        ids = np.arange(lo, min(lo + chunk, grid), dtype=np.int64)
        x = roots[_root_grid_digits(ids, n, m)]
        w = x @ arr.T
        term = np.ones(ids.size, dtype=np.complex128)
        for i, pi in p_idx:
            term *= w[:, i] ** pi
        for j, qj in q_idx:
            term *= np.conj(x[:, j]) ** qj
        total += term.sum()
    value = complex(factorial_product(q) * total / grid)
    return PermanentResult(value, "roots_of_unity", grid)


def _glynn_kan_sum(arr: np.ndarray) -> complex:
    """sum over x, y in {-1,1}^m of (prod x)(prod y)(x^T A y)^m, over chunks of y
    that keep each chunk's block of x^T A y values at 2^14 entries or fewer."""
    m = arr.shape[0]
    points, signs = _vertices(m, -1)
    ay = points @ arr.T  # row y is (A y)^T
    step = max(1, (1 << 14) >> m)
    total = 0j
    for start in range(0, 1 << m, step):
        xay = ay[start : start + step] @ points.T
        total += complex(signs[start : start + step] @ (xay**m @ signs))
    return total


def permanent_glynn_kan(a) -> PermanentResult:
    """Symmetrized double sign sum: (1/(4^m m!)) sum_{x,y} (prod x)(prod y)(x^T A y)^m."""
    data, nrows, ncols, exact = _coerce(a)
    deg = _degenerate(nrows, ncols, "glynn_kan")
    if deg is not None:
        return deg
    m = nrows
    if m > GLYNN_KAN_MAX_DIM or 4**m > TERM_BUDGET:
        raise TooLarge(f"Glynn-Kan sum over 4^{m} sign pairs exceeds the budget")
    denom = 4**m * math.factorial(m)
    if not exact:
        return PermanentResult(_glynn_kan_sum(data) / denom, "glynn_kan", 4**m)
    cols = _columns(data, m, ncols)
    w = [sum(row) for row in data]  # w_i = (A y)_i, y = all ones
    ys = [1] * m
    sign_y = 1
    total = 0
    for ky in range(1 << m):
        if ky:
            j = (ky & -ky).bit_length() - 1
            ys[j] = -ys[j]
            d = 2 * ys[j]
            col = cols[j]
            for i in range(m):
                w[i] += d * col[i]
            sign_y = -sign_y
        s = sum(w)
        sign_x = 1
        inner = s**m
        xs = [1] * m
        for kx in range(1, 1 << m):
            i = (kx & -kx).bit_length() - 1
            xs[i] = -xs[i]
            s += 2 * xs[i] * w[i]
            sign_x = -sign_x
            inner += sign_x * s**m
        total += sign_y * inner
    return PermanentResult(Fraction(total, denom), "glynn_kan", 4**m)


def permanent_glynn_kan_repeated(a, pattern: RepetitionPattern, chunk: int = 256) -> PermanentResult:
    """Per(A_{p,q}) = p!q!/(n^{2m} n!) * sum over x,y in mu_n^m of x^{-p} y^{-q} (x^T A y)^n."""
    arr = _finite_array(a)
    m = arr.shape[0]
    if arr.shape[1] != m or pattern.length != m:
        raise DimensionMismatch("pattern length must equal the square matrix dimension")
    p, q = pattern.rows, pattern.cols
    n = weight(p)
    if weight(q) != n:
        warnings.warn("|p| != |q|: permanent of a rectangular repetition is 0", WeightMismatchWarning)
        return PermanentResult(0j, "glynn_kan_repeated", 0)
    if n == 0:
        return PermanentResult(1 + 0j, "glynn_kan_repeated", 1)
    if n ** (2 * m) > TERM_BUDGET:
        raise TooLarge(f"roots-of-unity grid n^(2m) = {n ** (2 * m)} exceeds the budget")
    grid = n**m
    scalefac = float(Fraction(factorial_product(p) * factorial_product(q), grid * grid * math.factorial(n)))
    value = _root_grid_double_sum(arr, p, q, n, n, chunk) * scalefac
    return PermanentResult(value, "glynn_kan_repeated", grid * grid)


def permanent_cauchy_binet(a, b, pattern: RepetitionPattern) -> PermanentResult:
    """Per((AB)_{p,q}) = sum over |k| = |p| of Per(A_{p,k}) Per(B_{k,q}) / k!."""
    rows_a, ra, ca, exact_a = _coerce(a)
    rows_b, rb, cb, exact_b = _coerce(b)
    if ra != ca or rb != cb or ra != rb:
        raise DimensionMismatch("Cauchy-Binet needs two square matrices of equal dimension")
    m = ra
    if pattern.length != m:
        raise DimensionMismatch("pattern length must equal the matrix dimension")
    p, q = pattern.rows, pattern.cols
    npq = weight(p)
    if weight(q) != npq:
        return PermanentResult(0, "cauchy_binet", 0)
    terms = math.comb(npq + m - 1, m - 1)
    if terms * (1 << min(npq, 60)) * max(npq, 1) > TERM_BUDGET:
        raise TooLarge("Cauchy-Binet inner-permanent budget exceeded")
    exact = exact_a and exact_b
    if not exact:
        rows_a, rows_b = as_array(rows_a), as_array(rows_b)
    total: Scalar = 0
    for k in enumerate_weight(m, npq):
        pa = permanent_ryser(repeat_matrix(rows_a, RepetitionPattern(p, k))).value
        pb = permanent_ryser(repeat_matrix(rows_b, RepetitionPattern(k, q))).value
        kfac = factorial_product(k)
        if exact:
            total += Fraction(pa * pb, kfac)
        else:
            total += pa * pb / kfac
    if not exact:
        total = complex(total)
    return PermanentResult(total, "cauchy_binet", terms)


ALGORITHMS = {
    "naive": permanent_naive,
    "ryser": permanent_ryser,
    "glynn": permanent_glynn,
    "glynn-repeated-rows": permanent_glynn_repeated_rows,
    "roots-of-unity": permanent_roots_of_unity,
    "glynn-kan": permanent_glynn_kan,
    "glynn-kan-repeated": permanent_glynn_kan_repeated,
    "cauchy-binet": permanent_cauchy_binet,
}
