"""Executable verification of permanent identities.

Every verifier computes both sides of an identity independently and reports
the maximum coefficient discrepancy.  A matrix is held in one form: an
object array of int/Fraction entries, checked in the rational ring, or a
complex128 array, checked in the complex ring (`_normalize`).  The permanent
side comes from the multiplicity-aware Glynn sum: each verifier collects its
(p, q) pairs and gets every Per(A_{p,q}) of each matrix from one call to
`permanents._repeated_permanents`; only even-single takes the brute-force
permanent of its matrix.  The closed-form side comes from determinants and
truncated series.  Every determinant has the form Det(I - D_1 A_1 ... D_N A_N)
with diagonal variable matrices D_t, and one builder (`_det_side`) gives its
polynomial from minors by Cauchy-Binet, keeping only the monomials within
the caps.  MacMahon, the two-matrix and the N-matrix theorems share
1/Det(I - Z_1 A_1 ... Z_N A_N) (`_n_matrix_rhs`); the even-matrix modes use
the half-swap form.  Caps must be non-negative integers.  Before any
series work a verifier raises `TooLarge` when its permanent side needs more
than the term budget, prod_j (q_j + 1) terms per pair.

Exact MacMahon and Dixon check each coefficient against a third route that
shares nothing with the other two: [z^p](Az)^p, the product of linear forms
prod_i (a_i . z)^{p_i} expanded directly on integer-scaled rows and
computed only on the exponent box that each check reads.  One linear form
is multiplied in at a time (`_times_form`): `_form_power` gives (Az)^p on a
box, in either ring, for Dixon and the monomial-form verifier, and
`_monomial_table` every [z^p](Az)^p of MacMahon's box from a parent tree.
Both exact expansions run on int64 when B = prod_i max(sum_j |c_ij|, 1)^{e_i}
< 2^63 for the integer-scaled rows c, e = p for `_form_power` and the caps
for `_monomial_table` (`_form_dtype`, on the multiplicity grid's
`permanents._int_dtype`), else on Python ints; their results are Python ints.

The sides are compared table-wise (`_report`): a coefficient table's
permanent side is one flat array over the series' row-major layout, each
pair placed once at its flat index and divided by the exponent factorials
(`_table`), and meets the coefficient array in one numpy step.  Rational
entries are compared exactly (a literal 0.0 error when the identity holds);
a complex max_abs_error is `numerics.scaled_error` of the worst entry, bit
for bit what a one-by-one comparison gives.
"""

from __future__ import annotations

import inspect
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import rng
from .combinatorics import (
    RepetitionPattern,
    _bounded_weight,
    _is_int,
    _sub_indices,
    count_weight,
    enumerate_splits,
    enumerate_weight,
    factorial_product,
    weight,
)
from .errors import DimensionMismatch, OddDimension, AmplitudeOutOfRange, WeightMismatch, check_budget
from .numerics import as_array, scaled_error
from .permanents import (
    NAIVE_MAX_DIM,
    _coerce,
    _int_dtype,
    _integer_rows,
    _repeated_permanents,
    permanent_naive,
)
from .series import COMPLEX, RATIONAL, TruncatedSeries, _flat_index, _layout

#: Matrix whose doubly-repeated permanents encode Dixon's alternating
#: binomial-cube sum.
DIXON_MATRIX = ((0, 1, -1), (-1, 0, 1), (1, -1, 0))


@dataclass(frozen=True)
class IdentityReport:
    identity_name: str
    max_abs_error: float
    num_coefficients_checked: int
    caps_used: tuple[int, ...]
    passed: bool
    tolerance: float
    ring: str = COMPLEX
    tail_bound: Optional[float] = None

    def to_json_dict(self) -> dict:
        out = {
            "identity_name": self.identity_name,
            "max_abs_error": self.max_abs_error,
            "num_coefficients_checked": self.num_coefficients_checked,
            "caps_used": list(self.caps_used),
            "passed": self.passed,
            "tolerance": self.tolerance,
            "ring": self.ring,
        }
        if self.tail_bound is not None:
            out["tail_bound"] = self.tail_bound
        return out


# Errors within this relative margin of the largest are evaluated again one by
# one: numpy's complex abs may differ from Python's in the last bit.
_NEAR = 1e-9


def _report(name, caps, tolerance, ring, *checks, tail_bound=None) -> IdentityReport:
    """The report on ``checks``, (value, reference) pairs of flat arrays in the
    ring (`_side`), compared in one numpy step.

    Rational entries n/d and n'/d' are equal when n d' = n' d; only unequal
    ones get an error.  Complex errors |v - r| / max(1, |r|) are taken
    array-wide, and those within _NEAR of the largest again by `scaled_error`,
    so that max_abs_error is the one-by-one rule's to the last bit.  A NaN
    error is reported and fails.
    """
    vn, vd, rn, rd = (np.concatenate([c[k][j] for c in checks]) for k in (0, 1) for j in (0, 1))
    if ring == RATIONAL:
        top, near = 0.0, np.flatnonzero(vn * rd != rn * vd)
        v, r = vn[near] / vd[near], rn[near] / rd[near]
    else:
        # complex / real as Python divides it: each part by the real divisor
        v, r = ((n.view(np.float64) / np.repeat(d, 2)).view(np.complex128) for n, d in ((vn, vd), (rn, rd)))
        err = np.abs(v - r) / np.maximum(1.0, np.abs(r))
        top = float(err.max(initial=0.0))
        near = np.flatnonzero((err > 0) & (err >= top * (1 - _NEAR)))
        v, r = v[near], r[near]
    max_err = max(map(scaled_error, v.tolist(), r.tolist()), default=top)
    return IdentityReport(name, max_err, vn.size, tuple(caps), max_err <= tolerance, tolerance, ring, tail_bound)


def _side(ring, values) -> tuple[np.ndarray, np.ndarray]:
    """int/Fraction or complex values as a flat array in the ring: (numerators, denominators)."""
    if ring == RATIONAL:
        nums = np.array([v.numerator for v in values], dtype=object)
        return nums, np.array([v.denominator for v in values], dtype=object)
    return np.array(values, dtype=np.complex128), np.ones(len(values))


def _series_side(s: TruncatedSeries) -> tuple[np.ndarray, np.ndarray]:
    """Every coefficient of s, flat in row-major order, as `_side` gives them."""
    flat = s._array.ravel()
    return flat, np.full(flat.size, s._den, dtype=object if s.ring == RATIONAL else np.float64)


def _table(ring, caps, entries: dict) -> tuple[np.ndarray, np.ndarray]:
    """{flat index: value} entries over the layout of caps, zero elsewhere, each
    over the factorial product e! of its exponent e, as `_side` gives them; a
    complex e! is a float64 product: exact below 2^53, rounded above, inf past float64 (entry 0)."""
    exponents, _, _ = _layout(caps)
    fact = [math.factorial(k) if ring == RATIONAL or k <= 170 else math.inf for k in range(max(caps, default=0) + 1)]
    with np.errstate(over="ignore"):
        den = np.array(fact, dtype=object if ring == RATIONAL else np.float64)[exponents].prod(axis=1)
    index = np.fromiter(entries, dtype=np.intp, count=len(entries))
    if ring == RATIONAL:
        num, scale = np.zeros(len(den), dtype=object), np.ones(len(den), dtype=object)
        num[index], scale[index] = _side(ring, entries.values())
        return num, den * scale
    num = np.zeros(len(den), dtype=np.complex128)
    num[index] = list(entries.values())
    return num, den


def _normalize(a):
    """-> (matrix, ring): an object array of the entries for int/Fraction input
    (the rational ring), else a finite complex128 array (the complex ring).
    A matrix that is not square raises `DimensionMismatch`.

    Series builders read entries from ``matrix.tolist()``, which gives Python
    int/Fraction or complex values, not numpy scalars.
    """
    data, nrows, ncols, exact = _coerce(a)
    if nrows != ncols:
        raise DimensionMismatch("matrix must be square")
    if exact:
        return np.array(data, dtype=object).reshape(nrows, ncols), RATIONAL
    return data, COMPLEX


def _ratio(ring: str, num, den: int):
    """num / den in the ring: a Fraction in the rational ring, else a float
    or complex quotient."""
    return Fraction(num, den) if ring == RATIONAL else num / den


def _equal_weight_pairs(ps, q_caps) -> list:
    """The pairs (p, q) with p in ps, q <= q_caps and |p| = |q|, p-major, each
    p's partners in lexicographic order (`_bounded_weight`)."""
    return [(p, q) for p in ps for q in _bounded_weight(q_caps, weight(p))]


@lru_cache(maxsize=64)
def _box_weights(caps: tuple, power: int, top: int) -> tuple[int, ...]:
    """Entry w <= top: the sum over the exponents e <= caps with |e| = w of
    prod_j (e_j + 1)^power, their number for power 0.  These are the low
    coefficients of prod_j T_j(x), T_j = sum_{k <= caps_j} (k + 1)^power x^k.

    (k + 1)^power has no differences of order power + 1, so T_j (1 - x)^(power + 1)
    has at most 2 (power + 1) nonzero coefficients: each factor is that many
    shifted sums, then power + 1 running sums.
    """
    poly = [int(w == 0) for w in range(top + 1)]
    for c in caps:
        diff = [(k + 1) ** power for k in range(c + 1)] + [0] * (power + 1)
        for _ in range(power + 1):
            diff = diff[:1] + [b - a for a, b in zip(diff, diff[1:])]
        out = [0] * (top + 1)
        for k, d in enumerate(diff[: top + 1]):
            if d:
                out[k:] = [o + d * v for o, v in zip(out[k:], poly)]
        for _ in range(power + 1):
            out = list(itertools.accumulate(out))
        poly = out
    return tuple(poly)


def _pair_price(p_caps, q_caps, power: int = 1, keep=None) -> int:
    """The sum of prod_j (q_j + 1)^power over the pairs p <= p_caps, q <= q_caps
    with |p| = |q| (and keep(|p|) true, when given): with power 1, the terms
    that `_repeated_permanents` counts for their `_equal_weight_pairs`,
    without listing them."""
    top = min(sum(p_caps), sum(q_caps))
    counts, prices = _box_weights(p_caps, 0, top), _box_weights(q_caps, power, top)
    return sum(n * s for w, (n, s) in enumerate(zip(counts, prices)) if keep is None or keep(w))


def _caps(cap: Union[int, Sequence[int]], nvars: int) -> tuple[int, ...]:
    """One cap for every variable, or one per variable: integers (numpy's
    included, bools not) that are non-negative, else ValueError."""
    caps = (cap,) * nvars if np.ndim(cap) == 0 else tuple(cap)
    if len(caps) != nvars:
        raise ValueError(f"expected {nvars} caps, got {len(caps)}")
    if not all(map(_is_int, caps)):
        raise ValueError(f"caps must be integers, got {caps}")
    if min(caps, default=0) < 0:
        raise ValueError("caps must be non-negative")
    return tuple(int(c) for c in caps)


# ---------------------------------------------------------------------------
# Determinant side: Det(I - D_1 A_1 ... D_N A_N) from minors
# ---------------------------------------------------------------------------

# Entries gathered per batched determinant call: the number of k x k matrices times k^2.
_MINOR_BLOCK = 1 << 18


def _subset_counts(var_of, caps) -> list[int]:
    """n_k for k = 0..len(var_of): the size-k row subsets S whose monomial
    prod_{i in S} z[var_of[i]] is within the caps."""
    counts = [1]
    for v, r in Counter(var_of).items():
        ways = [math.comb(r, j) for j in range(min(r, caps[v]) + 1)]
        counts = [
            sum(counts[k - j] * w for j, w in enumerate(ways) if 0 <= k - j < len(counts))
            for k in range(len(counts) + len(ways) - 1)
        ]
    return counts + [0] * (len(var_of) + 1 - len(counts))


def _row_subsets(var_of, caps, strides) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per size k, the row subsets S counted by `_subset_counts`, as an (n_k, k)
    array, and the flat series index of each one's monomial.

    A subset's rows come in any order: each subset gives the rows of one
    minor and the columns of the next, so the sign of a reordering cancels.
    """
    by_var: dict = {}
    for i, v in enumerate(var_of):
        by_var.setdefault(v, []).append(i)
    picks = [
        [c for j in range(min(len(rows), caps[v]) + 1) for c in itertools.combinations(rows, j)]
        for v, rows in by_var.items()
    ]
    sizes: list = [[] for _ in range(len(var_of) + 1)]
    for choice in itertools.product(*picks):
        sizes[sum(map(len, choice))].append(list(itertools.chain.from_iterable(choice)))
    return [
        (
            np.array(subsets, dtype=np.intp).reshape(len(subsets), k),
            np.array([sum(strides[var_of[i]] for i in s) for s in subsets], dtype=np.intp),
        )
        for k, subsets in enumerate(sizes)
    ]


@lru_cache(maxsize=16)
def _chain_plan(var_of: tuple, caps: tuple) -> list:
    """The chains S_1 -> S_2 -> ... -> S_N -> S_1 of `_det_side` for one
    variable map, after pricing them by the term budget; read-only.

    One entry (k, pairs, shapes, index) per size k >= 1 that every matrix has
    subsets of.  pairs[t] = (rows, cols) lists the minors of A_t, one per
    (row subset, column subset) pair, ordered so that reshaped to shapes[t]
    they broadcast over the chain axes (S_1, ..., S_N): the axes of S_t and
    S_{t+1}, or of S_1 and S_N for the last matrix.  index is each chain's
    flat series index, raveled.
    """
    if sum(len(set(v)) for v in var_of) != len(set().union(*var_of)):
        raise ValueError("a variable may appear in one matrix's map only")
    n_mats, m = len(var_of), len(var_of[0])
    counts = [_subset_counts(v, caps) for v in var_of]
    check_budget("determinant side", sum(math.prod(c[k] for c in counts) for k in range(m + 1)))
    strides = [math.prod(c + 1 for c in caps[i + 1 :]) for i in range(len(caps))]
    subsets = [_row_subsets(v, caps, strides) for v in var_of]
    plan = []
    for k in range(1, m + 1):
        sets = [subs[k][0] for subs in subsets]
        sizes = [len(s) for s in sets]
        if not all(sizes):
            continue
        pairs, shapes, index = [], [], 0
        for t in range(n_mats):
            shape = [1] * n_mats
            shape[t] = sizes[t]
            index = index + subsets[t][k][1].reshape(shape)
            if n_mats == 1:
                pairs.append((sets[0], sets[0]))
            elif t < n_mats - 1:
                shape[t + 1] = sizes[t + 1]
                pairs.append((np.repeat(sets[t], sizes[t + 1], axis=0), np.tile(sets[t + 1], (sizes[t], 1))))
            else:
                shape[0] = sizes[0]
                pairs.append((np.tile(sets[t], (sizes[0], 1)), np.repeat(sets[0], sizes[t], axis=0)))
            shapes.append(tuple(shape))
        arrays = [index.ravel()] + [a for pair in pairs for a in pair]
        for a in arrays:
            a.setflags(write=False)
        plan.append((k, pairs, shapes, arrays[0]))
    return plan


def _float_minors(a: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """det a[..., S, T] for each pair S = rows[r], T = cols[r] of one size k >= 1:
    shape a.shape[:-2] + (len(rows),), batched per block of pairs."""
    batch, k = math.prod(a.shape[:-2]), rows.shape[1]
    step = max(1, _MINOR_BLOCK // (batch * k * k))
    out = np.empty(a.shape[:-2] + (len(rows),), dtype=np.complex128)
    for lo in range(0, len(rows), step):
        r, c = rows[lo : lo + step], cols[lo : lo + step]
        out[..., lo : lo + step] = np.linalg.det(a[..., r[:, :, None], c[:, None, :]])
    return out


def _bareiss(a: list) -> int:
    """Determinant of a k x k integer matrix (a list of rows, overwritten) by
    fraction-free Gaussian elimination: every division is exact."""
    k, sign, prev = len(a), 1, 1
    for c in range(k - 1):
        if a[c][c] == 0:
            pivot = next((r for r in range(c + 1, k) if a[r][c]), None)
            if pivot is None:
                return 0
            a[c], a[pivot], sign = a[pivot], a[c], -sign
        top, p = a[c], a[c][c]
        for row in a[c + 1 :]:
            rc = row[c]
            for j in range(c + 1, k):
                row[j] = (row[j] * p - rc * top[j]) // prev
        prev = p
    return sign * a[-1][-1]


def _exact_minors(ints: list, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """det C[S, T] of the integer rows C for each pair S = rows[r], T = cols[r],
    as an object array of ints."""
    out = np.empty(len(rows), dtype=object)
    for r, (s, t) in enumerate(zip(rows.tolist(), cols.tolist())):
        out[r] = _bareiss([[ints[i][j] for j in t] for i in s])
    return out


def _det_side(mats, var_of, ring, caps) -> TruncatedSeries:
    """Det(I - D_1 A_1 D_2 A_2 ... D_N A_N), D_t = Diag(z[var_of[t][i]]), truncated at caps.

    Cauchy-Binet gives the coefficient of z^{S_1} ... z^{S_N}, for row subsets
    S_t of one size k and z^S = prod_{i in S} z[var_of[t][i]], as
    (-1)^k det A_1[S_1, S_2] det A_2[S_2, S_3] ... det A_N[S_N, S_1]; chains
    with one monomial add up.  For N = 1 that is the principal-minor
    expansion.  Only subsets whose monomial is within the caps are formed, so
    nothing beyond the caps is computed; this is exact because a variable may
    appear in one map only.  The chains, sum_k prod_t n_t(k), are priced by
    the term budget before any minor is computed.

    Complex minors come from batched `np.linalg.det`.  Exact input is scaled
    to integer rows C_t = Diag(d_t) A_t (`_integer_rows`) and its minors taken
    by Bareiss: det A[S, T] = det C[S, T] / prod_{i in S} d_i, so each chain
    is an integer over the common denominator prod_t prod_i d_{t,i}.
    """
    plan = _chain_plan(tuple(tuple(v) for v in var_of), tuple(caps))
    exact = ring == RATIONAL
    flat = np.zeros(math.prod(c + 1 for c in caps), dtype=object if exact else np.complex128)
    den = 1
    if exact:
        scaled = [_integer_rows(mat.tolist()) for mat in mats]
        den = math.prod(math.prod(d) for d, _ in scaled)
    flat[0] = den
    for k, pairs, shapes, index in plan:
        values = (-1) ** k
        for t, (mat, (rows, cols), shape) in enumerate(zip(mats, pairs, shapes)):
            if exact:
                dens, ints = scaled[t]
                whole = math.prod(dens)
                # det C[S, T] prod_{i not in S} d_i: the minor over the denominator prod_i d_i
                rest = np.array([whole // math.prod(dens[i] for i in s) for s in rows.tolist()], dtype=object)
                minors = _exact_minors(ints, rows, cols) * rest
            else:
                minors = _float_minors(mat, rows, cols)
            values = values * minors.reshape(shape)
        np.add.at(flat, index, values.ravel())
    shape = tuple(c + 1 for c in caps) or (1,)
    return TruncatedSeries._new(tuple(caps), ring, flat.reshape(shape), den)


def _xtay_series(mat, ring, caps) -> TruncatedSeries:
    """x^T A y with x = vars[0:m], y = vars[m:2m].

    Terms beyond the caps are dropped: monomial exponents only grow under
    multiplication, so they can never reach a within-cap coefficient.
    """
    m = len(mat)
    terms = {}
    for i, row in enumerate(mat.tolist()):
        for j, v in enumerate(row):
            if v != 0 and caps[i] > 0 and caps[m + j] > 0:
                e = [0] * (2 * m)
                e[i] = 1
                e[m + j] = 1
                terms[tuple(e)] = v
    return TruncatedSeries.from_terms(caps, ring, terms)


# ---------------------------------------------------------------------------
# MacMahon master theorem and Dixon's identity
# ---------------------------------------------------------------------------


def _times_form(arr: np.ndarray, row) -> np.ndarray:
    """arr * sum_l row_l z_l on arr's own box (an int64 or object array of
    ints, or a complex array, indexed by exponent), one shifted slice per
    nonzero row_l."""
    out = np.zeros_like(arr)
    for l, a in enumerate(row):
        if a and arr.shape[l] > 1:
            lead = (slice(None),) * l
            out[lead + (slice(1, None),)] += a * arr[lead + (slice(-1),)]
    return out


def _form_dtype(ints, exponents) -> type:
    """The dtype that expands prod_i (c_i . z)^{e_i} exactly (`_int_dtype`).

    Each `_times_form` product and partial sum is within the product of the
    1-norms of the forms multiplied so far, so within
    B = prod_i max(sum_j |c_ij|, 1)^{e_i}: a zero form zeroes the product, not
    the tables before it.
    """
    return _int_dtype(math.prod(max(sum(map(abs, row)), 1) ** e for row, e in zip(ints, exponents)))


def _monomial_table(mat, caps) -> tuple[np.ndarray, np.ndarray]:
    """[z^p](Az)^p for every p <= caps of an int/Fraction matrix, flat in
    row-major order, as `_side` gives them.

    The rows are scaled to integers, C = Diag(d) A (`_integer_rows`), and
    [z^p](Az)^p = [z^p](Cz)^p / prod_i d_i^{p_i}.  Entry p holds (Cz)^p and is
    its parent p - e_i, i the first nonzero coordinate of p, times (Cz)_i.
    Every descendant of p agrees with p beyond i, so entry p is kept only on
    the box c_j <= caps_j for j <= i, c_j <= p_j for j > i (all of the caps for
    p = 0): each child's box lies in its parent's.  The entries are int64
    where `_form_dtype` of the caps allows; the results are Python ints.
    """
    dens, ints = _integer_rows(mat.tolist())
    full = tuple(c + 1 for c in caps)
    strides = [math.prod(full[i + 1 :]) for i in range(len(caps))]
    root = np.zeros(full, dtype=_form_dtype(ints, caps))
    root[(0,) * len(caps)] = 1
    entries = [root]
    num, den = np.empty(root.size, dtype=object), np.empty(root.size, dtype=object)
    num[0] = den[0] = 1
    for idx, p in enumerate(itertools.islice(_sub_indices(caps), 1, None), 1):
        i = next(k for k, e in enumerate(p) if e)
        parent = idx - strides[i]
        box = full[: i + 1] + tuple(e + 1 for e in p[i + 1 :])
        entry = _times_form(entries[parent][tuple(map(slice, box))], ints[i])
        entries.append(entry)
        num[idx], den[idx] = int(entry[p]), den[parent] * dens[i]
    return num, den


def _form_power(mat, ring, p, caps) -> TruncatedSeries:
    """(Az)^p = prod_i (a_i . z)^{p_i} on the exponent box c <= caps, one
    linear form at a time.  In the rational ring the rows are scaled to
    integers, C = Diag(d) A (`_integer_rows`), and (Az)^p is (Cz)^p over
    prod_i d_i^{p_i}, expanded in int64 where `_form_dtype` allows and
    returned as Python ints; in the complex ring the rows are taken as they are."""
    exact = ring == RATIONAL
    if exact:
        dens, rows = _integer_rows(mat.tolist())
        den = math.prod(d**e for d, e in zip(dens, p))
    else:
        rows, den = mat.tolist(), 1
    arr = np.zeros(tuple(c + 1 for c in caps) or (1,), dtype=_form_dtype(rows, p) if exact else np.complex128)
    arr.flat[0] = 1
    for row, e in zip(rows, p):
        for _ in range(e):
            arr = _times_form(arr, row)
    return TruncatedSeries._new(tuple(caps), ring, arr.astype(object) if exact else arr, den)


def verify_macmahon(a, cap: Union[int, Sequence[int]] = 2, tolerance: float = 1e-8) -> IdentityReport:
    """sum_p z^p/p! Per(A_{p,p}) = 1/Det(I - Diag(z) A), coefficientwise up to cap.

    Every coefficient is compared with its permanent; in the exact ring the
    monomial coefficient [z^p](Az)^p is a second check of each.
    """
    mat, ring = _normalize(a)
    caps = _caps(cap, len(mat))
    # sum over p <= caps of prod_j (p_j + 1), priced before the exponents are listed
    check_budget("permanent side", math.prod((c + 1) * (c + 2) // 2 for c in caps))
    exponents = list(_sub_indices(caps))
    (per,) = _repeated_permanents((mat, [(p, p) for p in exponents]))
    ref = _table(ring, caps, {idx: per[p, p] for idx, p in enumerate(exponents)})
    checks = [(_series_side(_n_matrix_rhs([mat], ring, caps)), ref)]
    if ring == RATIONAL:
        checks.append((_monomial_table(mat, caps), ref))
    return _report("macmahon", caps, tolerance, ring, *checks)


def _dixon_routes(n_max: int):
    """Per n = 1..n_max, p = (2n, 2n, 2n) and Dixon's four routes on the 3x3
    cyclic sign matrix A, each times p!: (p, p![z^p](1/Det(I-ZA)),
    p![z^p](Az)^p, p! * sum_k (-1)^k C(2n,k)^3, p! * (-1)^n (3n)!/(n!)^3)."""
    mat, ring = _normalize(DIXON_MATRIX)
    inv = _n_matrix_rhs([mat], ring, (2 * n_max,) * 3)
    for n in range(1, n_max + 1):
        p = (2 * n,) * 3
        pf = factorial_product(p)
        binom_sum = sum((-1) ** k * math.comb(2 * n, k) ** 3 for k in range(2 * n + 1))
        closed = (-1) ** n * math.factorial(3 * n) // math.factorial(n) ** 3
        yield p, pf * inv.coefficient(p), pf * _form_power(mat, ring, p, p).coefficient(p), pf * binom_sum, pf * closed


def verify_dixon(n_max: int = 4, tolerance: float = 0.0) -> IdentityReport:
    """Dixon's identity from the doubly-repeated 3x3 cyclic sign matrix:
    the four routes of `_dixon_routes` must agree exactly."""
    values, refs = [], []
    for _, det, *others in _dixon_routes(n_max):
        values += [det] * 3
        refs += others
    return _report("dixon", (2 * n_max,) * 3, tolerance, RATIONAL, (_side(RATIONAL, values), _side(RATIONAL, refs)))


# ---------------------------------------------------------------------------
# Two-matrix / N-matrix generalizations
# ---------------------------------------------------------------------------


def _common_ring(matrices) -> tuple[list, str]:
    """The normalized matrices and their ring; they must share the ring and the dimension."""
    norm = [_normalize(a) for a in matrices]
    if len({ring for _, ring in norm}) > 1:
        raise ValueError("matrices must live over the same ring")
    mats = [mat for mat, _ in norm]
    if len({mat.shape for mat in mats}) > 1:
        raise ValueError("matrices must have equal dimension")
    return mats, norm[0][1]


def verify_mmmt_two(a, b, cap: Union[int, Sequence[int]] = 2, tolerance: float = 1e-8) -> IdentityReport:
    """Two-matrix master theorem, both formulations.

    Checks sum x^p y^q/(p!q!) Per(A_{p,q}) Per(B_{q,p}) = 1/Det(I-XAYB), the
    equivalent form with Per(B^T_{p,q}) inside, and that the two left-hand
    coefficient tables agree.
    """
    (mat_a, mat_b), ring = _common_ring((a, b))
    m = len(mat_a)
    caps = _caps(cap, 2 * m)
    # the three jobs below, priced before the pairs are listed
    check_budget("permanent side", 2 * _pair_price(caps[:m], caps[m:]) + _pair_price(caps[m:], caps[:m]))
    pairs = _equal_weight_pairs(_sub_indices(caps[:m]), caps[m:])
    swapped = [(q, p) for p, q in pairs]
    per_a, per_b, per_bt = _repeated_permanents((mat_a, pairs), (mat_b, swapped), (mat_b.T, pairs))
    index = [_flat_index(p + q, caps, "pair") for p, q in pairs]
    lhs1 = _table(ring, caps, {i: per_a[p, q] * per_b[q, p] for i, (p, q) in zip(index, pairs)})
    lhs2 = _table(ring, caps, {i: per_a[p, q] * per_bt[p, q] for i, (p, q) in zip(index, pairs)})
    rhs = _series_side(_n_matrix_rhs([mat_a, mat_b], ring, caps))
    return _report("mmmt-two", caps, tolerance, ring, (lhs1, rhs), (lhs2, rhs), (lhs1, lhs2))


def _n_matrix_rhs(mats, ring, caps) -> TruncatedSeries:
    """1/Det(I - Z_1 A^(1) ... Z_N A^(N)), variable block k holding Diag(z_k).

    N = 1 is MacMahon's 1/Det(I - Diag(z) A) and N = 2 the two-matrix 1/Det(I - XAYB).
    """
    m = len(mats[0])
    return _det_side(mats, [range(t * m, (t + 1) * m) for t in range(len(mats))], ring, caps).inverse()


def verify_mmmt_n(matrices, cap: Union[int, Sequence[int]] = 1, tolerance: float = 1e-8) -> IdentityReport:
    """N-matrix chain: sum prod z_k^{p_k}/p_k! Per(A^(k)_{p_k, p_{k+1}}) = 1/Det(I - Z_1 A^(1) ... Z_N A^(N))."""
    mats, ring = _common_ring(matrices)
    n_mats = len(mats)
    if n_mats < 2:
        raise ValueError("need at least two matrices")
    m = len(mats[0])
    caps = _caps(cap, n_mats * m)
    check_budget("mmmt-n coefficient table", math.prod(c + 1 for c in caps), 200_000, "coefficients")
    blocks = [caps[k * m : (k + 1) * m] for k in range(n_mats)]
    per_block = [list(_sub_indices(block)) for block in blocks]
    pers = _repeated_permanents(
        *((mats[k], _equal_weight_pairs(per_block[k], blocks[(k + 1) % n_mats])) for k in range(n_mats))
    )
    # only chains of one weight have a nonzero product
    lhs = {}
    for w in range(sum(caps) + 1):
        for ps in itertools.product(*([p for p in block if weight(p) == w] for block in per_block)):
            value = 1
            for k in range(n_mats):
                value = value * pers[k][ps[k], ps[(k + 1) % n_mats]]
            lhs[_flat_index(sum(ps, ()), caps, "chain")] = value
    rhs = _series_side(_n_matrix_rhs(mats, ring, caps))
    return _report("mmmt-n", caps, tolerance, ring, (_table(ring, caps, lhs), rhs))


def verify_corollary_rank_one(a, p, q, tolerance: float = 1e-8) -> IdentityReport:
    """Per(A_{p,q}) = (p!q!/n!) [x^p y^q] (x^T A y)^n for |p| = |q| = n."""
    mat, ring = _normalize(a)
    p, q = tuple(p), tuple(q)
    n = weight(p)
    if weight(q) != n:
        raise WeightMismatch(f"|p| = {n} but |q| = {weight(q)}")
    caps = p + q
    (per,) = _repeated_permanents((mat, [(p, q)]))
    coef = _xtay_series(mat, ring, caps).power(n).coefficient(caps)
    factor = _ratio(ring, factorial_product(p) * factorial_product(q), math.factorial(n))
    check = (_side(ring, [per[p, q]]), _side(ring, [factor * coef]))
    return _report("corollary-rank-one", caps, tolerance, ring, check)


# ---------------------------------------------------------------------------
# Generating-function family
# ---------------------------------------------------------------------------

GENERATING_CHOICES = ("exp", "geom", "pow", "log")


def verify_generating_function(
    a,
    f: str,
    cap: Union[int, Sequence[int]] = 2,
    tolerance: float = 1e-8,
    power: Optional[int] = None,
) -> IdentityReport:
    """f(x^T A y) = sum f_n n! x^p y^q/(p!q!) Per(A_{p,q}), coefficientwise.

    f is one of 'exp' (Jackson's formula), 'geom' (1/(1-z), the rank-one
    corollary's generating form), 'pow' (z^power), or 'log' (-log(1-z)).
    """
    if f not in GENERATING_CHOICES:
        raise ValueError(f"unknown generating function {f!r}")
    if f == "pow" and power is None:
        raise ValueError("power must be given for f='pow'")
    mat, ring = _normalize(a)
    m = len(mat)
    caps = _caps(cap, 2 * m)

    def fn_times_nfac(n: int):
        # f_n * n! for the chosen f, exact.
        if f == "exp":
            return 1
        if f == "geom":
            return math.factorial(n)
        if f == "pow":
            return math.factorial(n) if n == power else 0
        return 0 if n == 0 else math.factorial(n - 1)

    check_budget("permanent side", _pair_price(caps[:m], caps[m:], keep=fn_times_nfac))
    ps = (p for p in _sub_indices(caps[:m]) if fn_times_nfac(weight(p)))
    (per,) = _repeated_permanents((mat, _equal_weight_pairs(ps, caps[m:])))
    w = _xtay_series(mat, ring, caps)
    one = TruncatedSeries.one(caps, ring)
    if f == "exp":
        lhs_series = w.exp()
    elif f == "geom":
        lhs_series = (one - w).inverse()
    elif f == "pow":
        lhs_series = w.power(power)
    else:
        lhs_series = -((one - w).log())
    ref = {_flat_index(p + q, caps, "pair"): fn_times_nfac(weight(p)) * v for (p, q), v in per.items()}
    return _report(f"generating-{f}", caps, tolerance, ring, (_series_side(lhs_series), _table(ring, caps, ref)))


def verify_monomial_glynn(a, p, cap: Union[int, Sequence[int]] = 2, tolerance: float = 1e-8) -> IdentityReport:
    """sum_q z^q/q! Per(A_{p,q}) = (Az)^p, coefficientwise up to cap."""
    mat, ring = _normalize(a)
    p = tuple(p)
    caps = _caps(cap, len(mat))
    if len(p) != len(mat):  # checked here, as no pair reaches `_repeated_permanents` where no |q| = |p|
        raise DimensionMismatch(f"p of length {len(p)} does not fit a {len(mat)} x {len(mat)} matrix")
    # the box of (|p|,) holds one exponent of each weight, and |p| is kept
    check_budget("permanent side", _pair_price((weight(p),), caps, keep=weight(p).__eq__))
    (per,) = _repeated_permanents((mat, _equal_weight_pairs([p], caps)))
    lhs = _table(ring, caps, {_flat_index(q, caps, "pair"): v for (_, q), v in per.items()})
    return _report("monomial", caps, tolerance, ring, (lhs, _series_side(_form_power(mat, ring, p, caps))))


# ---------------------------------------------------------------------------
# Sum formula, Laplace expansion, sum of two permanents
# ---------------------------------------------------------------------------


def _split_coef(ring, num: int, parts, den: int = 1):
    """num / (den * prod of the parts' factorials), in the ring."""
    return _ratio(ring, num, den * math.prod(factorial_product(s) for s in parts))


def verify_sum_formula(a, b, pattern: RepetitionPattern, tolerance: float = 1e-8) -> IdentityReport:
    """Per((A+B)_{p,q}) = sum over splits s+t=p, u+v=q of p!q!/(s!t!u!v!) Per(A_{s,u})Per(B_{t,v})."""
    (mat_a, mat_b), ring = _common_ring((a, b))
    p, q = pattern.rows, pattern.cols
    splits = [
        (s, t, u, v) for s, t in enumerate_splits(p, 2) for u, v in enumerate_splits(q, 2) if weight(s) == weight(u)
    ]
    pairs_a = [(s, u) for s, _, u, _ in splits]
    pairs_b = [(t, v) for _, t, _, v in splits]
    per_sum, per_a, per_b = _repeated_permanents((mat_a + mat_b, [(p, q)]), (mat_a, pairs_a), (mat_b, pairs_b))
    pq_fact = factorial_product(p) * factorial_product(q)
    total = 0
    for s, t, u, v in splits:
        total += _split_coef(ring, pq_fact, (s, t, u, v)) * (per_a[s, u] * per_b[t, v])
    return _report("sum-formula", p + q, tolerance, ring, (_side(ring, [per_sum[p, q]]), _side(ring, [total])))


def verify_laplace(a, pattern: RepetitionPattern, k: int, tolerance: float = 1e-8) -> IdentityReport:
    """Laplace expansion: Per(A_{p,q}) = (k!l!/(k+l)!) sum over weight-(k,l) splits."""
    mat, ring = _normalize(a)
    p, q = pattern.rows, pattern.cols
    n = weight(p)
    if weight(q) != n:
        raise WeightMismatch(f"|p| = {n} but |q| = {weight(q)}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}")
    l = n - k
    splits = [(s, t, u, v) for s, t in enumerate_splits(p, 2, (k, l)) for u, v in enumerate_splits(q, 2, (k, l))]
    pairs = [(p, q)] + [(s, u) for s, _, u, _ in splits] + [(t, v) for _, t, _, v in splits]
    (per,) = _repeated_permanents((mat, pairs))
    # the prefactor k!l!/n! joins each split coefficient, so each is made once in the ring
    num = math.factorial(k) * math.factorial(l) * factorial_product(p) * factorial_product(q)
    total = 0
    for s, t, u, v in splits:
        total += _split_coef(ring, num, (s, t, u, v), math.factorial(n)) * (per[s, u] * per[t, v])
    return _report("laplace", p + q, tolerance, ring, (_side(ring, [per[p, q]]), _side(ring, [total])))


def verify_sum_of_permanents(a, b, pattern: RepetitionPattern, tolerance: float = 1e-8) -> IdentityReport:
    """Sum of two permanents from the -log(1-z) generating function.

    Per(A_{p,q}) + Per(B_{p,q}) equals an alternating sum over three-way
    splits with weight pattern (k, k, n-2k), weighted by 1/C(n-1, k).
    """
    (mat_a, mat_b), ring = _common_ring((a, b))
    p, q = pattern.rows, pattern.cols
    n = weight(p)
    if weight(q) != n:
        raise WeightMismatch(f"|p| = {n} but |q| = {weight(q)}")
    if n < 1:
        raise ValueError("need |p| = |q| >= 1")
    splits = [
        [(x, y) for x in enumerate_splits(p, 3, (k, k, n - 2 * k)) for y in enumerate_splits(q, 3, (k, k, n - 2 * k))]
        for k in range(n // 2 + 1)
    ]
    flat = [xy for ksplits in splits for xy in ksplits]
    pairs_a = [(p, q)] + [(x[0], y[0]) for x, y in flat]
    pairs_b = [(p, q)] + [(x[1], y[1]) for x, y in flat]
    pairs_sum = [(x[2], y[2]) for x, y in flat]
    per_a, per_b, per_sum = _repeated_permanents((mat_a, pairs_a), (mat_b, pairs_b), (mat_a + mat_b, pairs_sum))
    pq_fact = factorial_product(p) * factorial_product(q)
    total = 0
    for k, ksplits in enumerate(splits):
        ksum = 0
        for (aa, bb, cc), (aa2, bb2, cc2) in ksplits:
            coef = _split_coef(ring, pq_fact, (aa, bb, cc, aa2, bb2, cc2))
            ksum += coef * (per_a[aa, aa2] * per_b[bb, bb2] * per_sum[cc, cc2])
        total += _ratio(ring, (-1) ** k, math.comb(n - 1, k)) * ksum
    lhs = per_a[p, q] + per_b[p, q]
    return _report("sum-of-permanents", p + q, tolerance, ring, (_side(ring, [lhs]), _side(ring, [total])))


# ---------------------------------------------------------------------------
# Even-matrix square-root identities
# ---------------------------------------------------------------------------


def verify_even_matrix(a, mode: str = "single", cap: Union[int, Sequence[int]] = 2, tolerance: float = 1e-8) -> IdentityReport:
    """Square-root determinant identities for a (2m) x (2m) matrix M.

    mode='single': Per(M) is the z^m coefficient of the sign-averaged
    1/sqrt(Det(I - z V_x M V_y M^T)).
    mode='full': sum x^p y^q/(p!q!) Per(M_{p+p,q+q}) = 1/sqrt(Det(I - V_x M V_y M^T))
    in 2m formal variables, where p+p repeats both halves identically.

    With P the half swap, V_x = Diag(x, x) P, so both determinants are
    Det(I - Diag(x, x)(MP) Diag(y, y)(M^T P)): `_det_side` with each variable
    on both halves for 'full', and for 'single' the characteristic polynomial
    of C = Diag(x, x)(MP) Diag(y, y)(M^T P), whose z^k coefficient is (-1)^k
    times the sum of C's k x k principal minors.
    """
    mat = as_array(_normalize(a)[0])
    dim = mat.shape[0]
    if dim % 2 != 0:
        raise OddDimension(f"matrix dimension {dim} is odd")
    m = dim // 2
    swap = [(i + m) % dim for i in range(dim)]
    left, right = mat[:, swap], mat.T[:, swap]
    if mode == "single":
        if dim > NAIVE_MAX_DIM:
            check_budget("brute-force permanent side", math.factorial(dim), math.factorial(NAIVE_MAX_DIM))
        caps = (m,)
        # x -> -x turns C into -C, which multiplies the z^m coefficient and the
        # parity by (-1)^m, as does y -> -y: the pairs with x_1 = y_1 = +1 suffice
        signs = np.array(list(itertools.product((1, -1), repeat=m)), dtype=np.float64)[: max(1, 1 << m >> 1)]
        pairs = len(signs) ** 2
        halves = np.hstack([signs, signs])[:, :, None]
        # C for each of those sign pairs (x, y), x-major
        c = ((halves * left)[:, None] @ (halves * right)[None]).reshape(pairs, dim, dim)
        coeffs = np.ones((len(c), m + 1), dtype=np.complex128)
        for k in range(1, m + 1):
            rows = np.array(list(itertools.combinations(range(dim), k)), dtype=np.intp)
            coeffs[:, k] = (-1) ** k * _float_minors(c, rows, rows).sum(axis=1)
        parity = signs.prod(axis=1)
        total = 0j
        for sign, row in zip(np.outer(parity, parity).ravel(), coeffs):
            g = TruncatedSeries(caps, COMPLEX, row).sqrt_inverse().coefficient((m,))
            total = total + g if sign > 0 else total - g
        check = (_side(COMPLEX, [total * (1.0 / pairs)]), _side(COMPLEX, [permanent_naive(mat).value]))
        return _report("even-single", caps, tolerance, COMPLEX, check)
    if mode != "full":
        raise ValueError(f"unknown mode {mode!r}")
    caps = _caps(cap, 2 * m)
    # (q_j + 1)^2 terms for the repeated halves q + q
    check_budget("permanent side", _pair_price(caps[:m], caps[m:], 2))
    pairs = [(p + p, q + q) for p, q in _equal_weight_pairs(_sub_indices(caps[:m]), caps[m:])]
    (per,) = _repeated_permanents((mat, pairs))
    var_of = [[i % m for i in range(dim)], [m + i % m for i in range(dim)]]
    g = _det_side([left, right], var_of, COMPLEX, caps).sqrt_inverse()
    ref = _table(COMPLEX, caps, {_flat_index(p[:m] + q[:m], caps, "pair"): v for (p, q), v in per.items()})
    return _report("even-full", caps, tolerance, COMPLEX, (_series_side(g), ref))


def verify_tmss_overlap(u, lam, mu, trunc: int = 6, tolerance: float = 1e-6) -> IdentityReport:
    """Doubly-repeated permanent series against the Gaussian overlap.

    sum_{p,q} lam^p mu^q/(p!q!) Per(U_{p+p,q+q}) (truncated to |p|,|q| <= trunc)
    is compared with 1/sqrt(Det(I - V_lam U V_mu U^T)); the reported
    tail_bound is the geometric bound on the dropped terms.
    """
    arr = as_array(u)
    lam = np.asarray(lam, dtype=np.complex128)
    mu = np.asarray(mu, dtype=np.complex128)
    m = lam.size
    if arr.shape[0] != 2 * m or mu.size != m:
        raise ValueError("matrix must be 2m x 2m with length-m amplitude vectors")
    if np.any(np.abs(lam) >= 1) or np.any(np.abs(mu) >= 1):
        raise AmplitudeOutOfRange("need |lam_k| < 1 and |mu_k| < 1")
    half = [(p, q) for k in range(trunc + 1) for p in enumerate_weight(m, k) for q in enumerate_weight(m, k)]
    (per,) = _repeated_permanents((arr, [(p + p, q + q) for p, q in half]))
    lhs = 0j
    for p, q in half:
        coef = np.prod(lam**np.array(p)) * np.prod(mu**np.array(q))
        lhs += coef * per[p + p, q + q] / (factorial_product(p) * factorial_product(q))
    vl = np.diag(lam)
    vm = np.diag(mu)
    zero = np.zeros((m, m), dtype=np.complex128)
    v_lam = np.block([[zero, vl], [vl, zero]])
    v_mu = np.block([[zero, vm], [vm, zero]])
    det = np.linalg.det(np.eye(2 * m) - v_lam @ arr @ v_mu @ arr.T)
    rhs = 1.0 / np.sqrt(complex(det))
    r = float(np.max(np.abs(lam)) * np.max(np.abs(mu)))
    tail = 0.0
    k = trunc + 1
    while k < trunc + 10_000:
        term = count_weight(m, k) ** 2 * r**k
        tail += term
        if term < 1e-30:
            break
        k += 1
    check = (_side(COMPLEX, [lhs]), _side(COMPLEX, [rhs]))
    return _report("tmss-overlap", (trunc,) * (2 * m), tolerance, COMPLEX, check, tail_bound=tail)


# ---------------------------------------------------------------------------
# Binomial-square application
# ---------------------------------------------------------------------------


def s_n(n: int, a: Fraction, b: Fraction) -> Fraction:
    """S_n(a, b) = sum_k C(n,k)^2 a^k b^(n-k)."""
    a, b = Fraction(a), Fraction(b)
    return sum(Fraction(math.comb(n, k) ** 2) * a**k * b ** (n - k) for k in range(n + 1))


def verify_sn_identity(a, b, n: int, tolerance: float = 0.0) -> IdentityReport:
    """S_n(a,b)^2 = sum_l C(2l,l) C(n+l,2l) (-1)^(n-l) (a-b)^(2n-2l) S_l(a^2,b^2), exactly.

    Also asserts the a=b=1 specialization sum_k C(n,k)^2 = C(2n,n).
    """
    a, b = Fraction(a), Fraction(b)
    lhs = s_n(n, a, b) ** 2
    rhs = sum(
        Fraction(math.comb(2 * l, l) * math.comb(n + l, 2 * l) * (-1) ** (n - l))
        * (a - b) ** (2 * n - 2 * l)
        * s_n(l, a**2, b**2)
        for l in range(n + 1)
    )
    values, refs = [lhs, s_n(n, Fraction(1), Fraction(1))], [rhs, Fraction(math.comb(2 * n, n))]
    return _report("sn", (n,), tolerance, RATIONAL, (_side(RATIONAL, values), _side(RATIONAL, refs)))


# ---------------------------------------------------------------------------
# Registry / batch runner
# ---------------------------------------------------------------------------


# Each battery takes (seed, tol) and, as keyword arguments, exactly the
# overrides it reads, with their defaults; `run_battery` rejects any other.


def _battery_macmahon(seed, tol, matrix=None, cap=2):
    mat = matrix if matrix is not None else rng.unit_disk_matrix(3, seed)
    return [verify_macmahon(mat, cap, tol), verify_macmahon(DIXON_MATRIX, 4, 0.0)]


def _battery_dixon(seed, tol):
    return [verify_dixon(4, 0.0)]


def _battery_mmmt_two(seed, tol, matrix=None, matrix_b=None, cap=2):
    a = matrix if matrix is not None else rng.unit_disk_matrix(2, seed)
    b = matrix_b if matrix_b is not None else rng.unit_disk_matrix(2, seed + 1)
    m = len(a)
    return [
        verify_mmmt_two(a, b, cap, tol),
        verify_mmmt_two(a, np.eye(m), 2, tol),
        verify_mmmt_two(a, np.ones((m, m)), 2, tol),
    ]


def _battery_mmmt_n(seed, tol):
    mats = [rng.unit_disk_matrix(2, seed + k) for k in range(3)]
    return [verify_mmmt_n(mats, 1, tol), verify_mmmt_n(mats[:2], 2, tol)]


def _battery_corollary(seed, tol, matrix=None, rows=(2, 1, 0), cols=(1, 1, 1)):
    a = matrix if matrix is not None else rng.unit_disk_matrix(3, seed)
    return [verify_corollary_rank_one(a, rows, cols, tol)]


def _battery_generating(f):
    def run(seed, tol, matrix=None, cap=2):
        a = matrix if matrix is not None else rng.unit_disk_matrix(2, seed)
        kwargs = {"power": 2} if f == "pow" else {}
        return [verify_generating_function(a, f, cap, tol, **kwargs)]

    return run


def _battery_monomial(seed, tol, matrix=None, rows=(1, 2, 0), cap=3):
    a = matrix if matrix is not None else rng.unit_disk_matrix(3, seed)
    return [verify_monomial_glynn(a, rows, cap, tol)]


def _battery_sum_formula(seed, tol, matrix=None, matrix_b=None):
    a = matrix if matrix is not None else rng.unit_disk_matrix(3, seed)
    b = matrix_b if matrix_b is not None else rng.unit_disk_matrix(3, seed + 1)
    pat = RepetitionPattern((1, 1, 1), (1, 1, 1))
    return [verify_sum_formula(a, b, pat, tol)]


def _battery_laplace(seed, tol, matrix=None):
    a = matrix if matrix is not None else rng.unit_disk_matrix(3, seed)
    return [
        verify_laplace(a, RepetitionPattern((1, 1, 1), (1, 1, 1)), 1, tol),
        verify_laplace(rng.unit_disk_matrix(2, seed + 1), RepetitionPattern((2, 2), (2, 2)), 2, tol),
    ]


def _battery_sum_of_permanents(seed, tol, matrix=None, matrix_b=None):
    a = matrix if matrix is not None else rng.unit_disk_matrix(3, seed)
    b = matrix_b if matrix_b is not None else rng.unit_disk_matrix(3, seed + 1)
    out = [verify_sum_of_permanents(a, b, RepetitionPattern((1, 1, 1), (1, 1, 1)), tol)]
    a2 = rng.unit_disk_matrix(2, seed + 2)
    b2 = rng.unit_disk_matrix(2, seed + 3)
    out.append(verify_sum_of_permanents(a2, b2, RepetitionPattern((2, 1), (1, 2)), tol))
    return out


def _battery_even_single(seed, tol, matrix=None):
    a = matrix if matrix is not None else rng.unit_disk_matrix(4, seed)
    return [verify_even_matrix(a, "single", tolerance=tol)]


def _battery_even_full(seed, tol, matrix=None, cap=2):
    a = matrix if matrix is not None else rng.unit_disk_matrix(4, seed)
    return [verify_even_matrix(a, "full", cap, tol)]


def _battery_tmss(seed, tol):
    u = rng.haar_unitary(2, seed)
    return [verify_tmss_overlap(u, [0.2], [0.15 + 0.1j], trunc=6, tolerance=max(tol, 1e-6))]


def _battery_sn(seed, tol):
    g = rng.generator(seed)
    a = Fraction(int(g.integers(-9, 10)), int(g.integers(1, 10)))
    b = Fraction(int(g.integers(-9, 10)), int(g.integers(1, 10)))
    return [verify_sn_identity(3, -1, 5, 0.0), verify_sn_identity(a, b, 4, 0.0)]


IDENTITY_REGISTRY: dict[str, Callable] = {
    "macmahon": _battery_macmahon,
    "dixon": _battery_dixon,
    "mmmt-two": _battery_mmmt_two,
    "mmmt-n": _battery_mmmt_n,
    "corollary-rank-one": _battery_corollary,
    "generating-exp": _battery_generating("exp"),
    "generating-geom": _battery_generating("geom"),
    "generating-pow": _battery_generating("pow"),
    "generating-log": _battery_generating("log"),
    "monomial": _battery_monomial,
    "sum-formula": _battery_sum_formula,
    "laplace": _battery_laplace,
    "sum-of-permanents": _battery_sum_of_permanents,
    "even-single": _battery_even_single,
    "even-full": _battery_even_full,
    "tmss-overlap": _battery_tmss,
    "sn": _battery_sn,
}


def run_battery(
    names: Optional[Sequence[str]] = None,
    seed: int = 7,
    tolerance: float = 1e-8,
    **overrides,
) -> list[IdentityReport]:
    """Run identity batteries in registry order.

    Raises ValueError for an override that a named battery does not read.
    """
    if names is None:
        names = list(IDENTITY_REGISTRY)
    for name in names:
        if name not in IDENTITY_REGISTRY:
            raise KeyError(f"unknown identity {name!r}")
        accepted = list(inspect.signature(IDENTITY_REGISTRY[name]).parameters)[2:] if overrides else []
        unread = sorted(set(overrides) - set(accepted))
        if unread:
            takes = ", ".join(accepted) or "no overrides"
            raise ValueError(f"identity {name!r} does not read {', '.join(unread)} (it takes {takes})")
    return [report for name in names for report in IDENTITY_REGISTRY[name](seed, tolerance, **overrides)]
