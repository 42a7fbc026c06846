"""Independent reference implementations used only by the test suite.

These deliberately avoid the code paths they check: determinants by cofactor
expansion, Hermitian eigenvalues by cyclic Jacobi rotations, polynomial-matrix
determinants and permanents by the plain permutation sum, repeated-index
permanents by a sum over contingency tables, and the series
inverse, inverse square root, exp and log by their order-by-order recursions
over single coefficients.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def cofactor_determinant(a: np.ndarray) -> complex:
    m = a.shape[0]
    if m == 0:
        return 1.0 + 0.0j
    if m == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    rest = a[1:]
    for j in range(m):
        minor = np.delete(rest, j, axis=1)
        total += (-1) ** j * complex(a[0, j]) * cofactor_determinant(minor)
    return total


def jacobi_eigenvalues(h: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic complex Jacobi rotations.

    Stops when the off-diagonal Frobenius norm drops below ``tol``.
    """
    h = np.array(h, dtype=np.complex128)
    m = h.shape[0]
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.abs(h - np.diag(np.diagonal(h))) ** 2))
        if off <= tol:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = h[p, q]
                if abs(apq) == 0.0:
                    continue
                phase = apq / abs(apq)
                delta = (h[p, p].real - h[q, q].real) / 2.0
                denom = abs(delta) + np.hypot(delta, abs(apq))
                t = abs(apq) / denom if denom else 1.0
                if delta < 0:
                    t = -t
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(m, dtype=np.complex128)
                rot[p, p] = c
                rot[p, q] = -s * phase
                rot[q, p] = s * np.conj(phase)
                rot[q, q] = c
                h = rot.conj().T @ h @ rot
    return np.sort(np.real(np.diagonal(h)))


def leibniz_determinant(mat, zero):
    """Plain permutation-sum determinant; works for scalars and series alike."""
    k = len(mat)
    total = zero
    for perm in itertools.permutations(range(k)):
        inversions = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        term = mat[0][perm[0]]
        for i in range(1, k):
            term = term * mat[i][perm[i]]
        total = total + term if inversions % 2 == 0 else total - term
    return total


def permutation_permanent(a):
    """Permutation-sum permanent, one term at a time in lexicographic order.

    Nested int / Fraction rows stay exact.  The terms of a numpy array are
    summed by ``math.fsum`` per real and imaginary part, so the sum adds no
    rounding of its own to that of the term products.
    """
    rows = a.tolist() if isinstance(a, np.ndarray) else a
    terms = []
    for perm in itertools.permutations(range(len(rows))):
        term = 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        terms.append(term)
    if isinstance(a, np.ndarray):
        return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return sum(terms)


def table_permanent(rows, p, q):
    """Per(A_{p,q}) = p! q! sum over the m x m tables K of non-negative integers
    with row sums p and column sums q of prod_ij a_ij^{k_ij} / k_ij!.

    A permutation of the expanded matrix sends k_ij copies of row i to copies
    of column j; p! q! / prod k_ij! permutations share one table K.  Exact on
    int / Fraction rows: the result is a Fraction.
    """
    m = len(rows)

    def tables(i, left):
        if i == m:
            if not any(left):
                yield ()
            return
        for row in _compositions(p[i], left):
            for rest in tables(i + 1, tuple(c - k for c, k in zip(left, row))):
                yield (row,) + rest

    total = Fraction(0)
    for table in tables(0, tuple(q)):
        term = Fraction(1)
        for i, row in enumerate(table):
            for j, k in enumerate(row):
                term *= Fraction(rows[i][j]) ** k / math.factorial(k)
        total += term
    return total * math.prod(map(math.factorial, p)) * math.prod(map(math.factorial, q))


def _compositions(n, caps):
    """Tuples k with sum n and 0 <= k_j <= caps_j."""
    if not caps:
        if n == 0:
            yield ()
        return
    for k in range(min(n, caps[0]) + 1):
        for rest in _compositions(n - k, caps[1:]):
            yield (k,) + rest


def _power_product(v, p) -> complex:
    out = 1.0 + 0.0j
    for vi, pi in zip(v.tolist(), p):
        if pi:
            out *= vi**pi
    return out


def gray_code_cat_sign_sum(cols: np.ndarray, p) -> complex:
    """sum over x in {-1,1}^n of (prod x) * prod_i (cols @ x)_i^{p_i}, one sign
    vector at a time with Gray-code column updates."""
    n = cols.shape[1]
    v = cols.sum(axis=1)
    sign = 1
    total = _power_product(v, p)
    xs = [1] * n
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        xs[j] = -xs[j]
        v = v + (2 * xs[j]) * cols[:, j]
        sign = -sign
        total += sign * _power_product(v, p)
    return total


def series_recursion(op: str, caps, coeffs):
    """inverse / sqrt_inverse / exp / log of a dense series, one coefficient at
    a time in flat (row-major) order: each coefficient sums over every lower
    exponent it dominates.  `coeffs` are Fraction or complex; returns a list."""
    exps = list(itertools.product(*(range(c + 1) for c in caps)))
    deg = [sum(e) for e in exps]
    below = [[j for j in range(i + 1) if all(f <= g for f, g in zip(exps[j], exps[i]))] for i in range(len(exps))]
    s = list(coeffs)
    zero = s[0] * 0
    out = [zero] * len(s)
    if op == "inverse":
        out[0] = 1 / s[0]
        for i in range(1, len(s)):
            out[i] = -out[0] * sum((s[j] * out[i - j] for j in below[i] if j), zero)
    elif op == "sqrt_inverse":
        u = series_recursion("inverse", caps, coeffs)
        out[0] = s[0] ** 0
        for i in range(1, len(s)):
            out[i] = (u[i] - sum((out[j] * out[i - j] for j in below[i] if 0 < j < i), zero)) / 2
    elif op == "exp":
        out[0] = s[0] ** 0
        for i in range(1, len(s)):
            out[i] = sum((deg[j] * s[j] * out[i - j] for j in below[i]), zero) / deg[i]
    elif op == "log":
        for i in range(1, len(s)):
            acc = sum((deg[j] * out[j] * s[i - j] for j in below[i] if 0 < j < i), zero)
            out[i] = (deg[i] * s[i] - acc) / deg[i]
    else:
        raise ValueError(op)
    return out
