"""Independent reference implementations used only by the test suite.

These deliberately avoid the code paths they check: determinants by cofactor
expansion, Hermitian eigenvalues by cyclic Jacobi rotations, polynomial-matrix
determinants and permanents by the plain permutation sum, repeated-index
permanents by a sum over contingency tables, products of powers of linear
forms by the multinomial theorem over a plain dict, and the series
inverse, inverse square root, exp and log by their order-by-order recursions
over single coefficients, the torus estimator's integrand from float
angles and float powers, the sampler's inverse-CDF map by one binary
search per draw, sampling, keeping |p| = n and conditioning on it over a
plain dict, and the identity checks' comparison one entry at a time.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from permkit.bosonic import OVERFLOW
from permkit.numerics import scaled_error


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


def linear_form_power(rows, p, caps) -> dict:
    """(Az)^p = prod_i (a_i . z)^{p_i} as {exponent tuple: coefficient}, kept
    within caps: each factor by the multinomial theorem,
    (a . z)^k = sum_{|c| = k} k!/c! prod_j a_j^{c_j} z^c, and the factors
    multiplied term by term.  Fractions on int / Fraction rows, else complex."""
    exact = all(isinstance(v, (int, Fraction)) for row in rows for v in row)
    poly = {(0,) * len(caps): Fraction(1) if exact else 1 + 0j}
    for row, k in zip(rows, p):
        factor = {}
        for c in _compositions(k, caps):
            coef = math.factorial(k) // math.prod(map(math.factorial, c))
            factor[c] = coef * math.prod(a**e for a, e in zip(row, c))
        product: dict = {}
        for e, u in poly.items():
            for c, v in factor.items():
                f = tuple(x + y for x, y in zip(e, c))
                if all(x <= cap for x, cap in zip(f, caps)):
                    product[f] = product.get(f, 0) + u * v
        poly = product
    return poly


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


def inverse_cdf_indices(cdf, raw) -> np.ndarray:
    """The sampler's inverse-CDF map by one binary search per raw uint64 word:
    min(searchsorted(cdf, raw * (cdf[-1] / 2^64), side="right"), L), with L
    the last outcome whose CDF step is positive."""
    cdf = np.asarray(cdf, dtype=np.float64)
    keys = np.asarray(raw, dtype=np.uint64) * (cdf[-1] / 2.0**64)
    last = np.flatnonzero(np.diff(cdf, prepend=0.0) > 0)[-1]
    return np.minimum(np.searchsorted(cdf, keys, side="right"), last)


def dict_draws(probs: dict, truncated_mass: float, count: int, seed: int) -> tuple[list, np.ndarray]:
    """The outcomes of ``probs`` in dict order, then OVERFLOW when the
    truncated mass is not 0, and the index of each of `count` draws into them
    by `inverse_cdf_indices` on the seed's raw Philox words."""
    outcomes, weights = list(probs), [float(v) for v in probs.values()]
    if truncated_mass != 0.0:
        outcomes.append(OVERFLOW)
        weights.append(truncated_mass)
    raw = np.random.Philox(key=seed & ((1 << 64) - 1)).random_raw(count)
    return outcomes, inverse_cdf_indices(np.cumsum(weights), raw)


def dict_sample(probs: dict, truncated_mass: float, count: int, seed: int) -> list:
    outcomes, idx = dict_draws(probs, truncated_mass, count, seed)
    return [outcomes[i] for i in idx.tolist()]


def dict_kept_draws(probs: dict, truncated_mass: float, n: int, count: int, seed: int, reference: dict):
    """(outcomes, indices of the draws with |p| = n, TV distance of their
    empirical law from ``reference``), one outcome at a time."""
    outcomes, idx = dict_draws(probs, truncated_mass, count, seed)
    at_n = np.array([o is not OVERFLOW and sum(o) == n for o in outcomes])
    counts = np.bincount(idx, minlength=len(outcomes)) * at_n
    kept = int(counts.sum())
    empirical = {outcomes[i]: c / kept for i, c in enumerate(counts.tolist()) if c}
    keys = set(empirical) | set(reference)
    tv = 0.5 * sum(abs(empirical.get(k, 0.0) - reference.get(k, 0.0)) for k in keys)
    return outcomes, idx[at_n[idx]], tv


def dict_reject_to_fixed_n(probs: dict, n: int):
    """P(p) / sum_{|q| = n} P(q) over |p| = n, or None without mass there."""
    kept = {p: v for p, v in probs.items() if sum(p) == n}
    mass = sum(kept.values())
    return {p: v / mass for p, v in kept.items()} if mass > 0.0 else None


def torus_integrand_samples(
    a, p, q, f: str, samples: int, seed: int, streams: int, batch: int, jump: int = 0
) -> np.ndarray:
    """Per-point values of the torus integrand p!q! f(x^T A y) / (x^p y^q f^(n)(0))
    on the estimator's 12-bit fields of raw Philox words, drawn the direct way:
    each field k is an angle theta = 2 pi k / 4096, x = exp(i theta), and the
    inverse monomial is a product of float powers of conj(x) and conj(y).  A
    call of `batch` points draws ceil(2 batch m / 5) words W; field j of word w
    (bits 12j..12j+11) is angle j W + w, and coordinate i of point t takes
    angle i batch + t, x first, then y.  Stream s is the generator jumped
    s + jump times and gets samples // streams points, the last one the
    remainder."""
    a = np.asarray(a, dtype=np.complex128)
    m = a.shape[0]
    n = sum(p)
    pq = math.prod(math.factorial(k) for k in p) * math.prod(math.factorial(k) for k in q)
    r = math.sqrt(0.5 / float(np.abs(a).sum())) if f == "geom" and np.abs(a).sum() else 1.0
    counts = [samples // streams] * streams
    counts[-1] += samples - sum(counts)
    out = []
    for s, n_s in enumerate(counts):
        bg = np.random.Philox(key=seed % (1 << 64))
        if s + jump:
            bg = bg.jumped(s + jump)
        for done in range(0, n_s, batch):
            b = min(batch, n_s - done)
            words = bg.random_raw(-(-2 * b * m // 5))
            fields = np.concatenate([(words // 4096**j) % 4096 for j in range(5)])
            angles = fields[: 2 * b * m].astype(np.float64) * (2.0 * np.pi / 4096)
            x = np.exp(1j * angles[: b * m].reshape(m, b).T)
            y = np.exp(1j * angles[b * m :].reshape(m, b).T)
            w = np.einsum("bi,ij,bj->b", x, a, y)
            inv = np.prod(np.conj(x) ** np.array(p, float), axis=1) * np.prod(np.conj(y) ** np.array(q, float), axis=1)
            if f == "pown":
                vals = pq / math.factorial(n) * w**n * inv
            elif f == "exp":
                vals = pq * np.exp(w) * inv
            else:
                vals = pq / math.factorial(n) * inv / ((1.0 - r * r * w) * r ** (2 * n))
            out.append(vals)
    return np.concatenate(out)


def one_by_one_errors(checks) -> tuple[float, int]:
    """(largest error, entries compared) over the (value, reference) pairs of
    flat (numerators, denominators) arrays that the identity checks compare,
    one entry at a time: each side made a Fraction, or complex over a float,
    and equal entries skipped, then `scaled_error`."""
    largest, count = 0.0, 0
    for (vn, vd), (rn, rd) in checks:
        exact = vn.dtype == object
        for a, b, c, d in zip(vn.tolist(), vd.tolist(), rn.tolist(), rd.tolist()):
            count += 1
            value, reference = (Fraction(a, b), Fraction(c, d)) if exact else (a / b, c / d)
            if value != reference:
                largest = max(largest, scaled_error(complex(value), complex(reference)))
    return largest, count
