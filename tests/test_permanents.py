import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permkit import permanents, rng
from permkit.combinatorics import RepetitionPattern, enumerate_weight, factorial_product, repeat_matrix
from permkit.errors import DimensionMismatch, TooLarge, WeightMismatchWarning
from permkit.estimators import pown_grid_expectation
from permkit.numerics import ComplexMatrix, scaled_error
from permkit.permanents import (
    TERM_BUDGET,
    _grid,
    _multiplicity_weight,
    _repeated_permanents,
    _vertices,
    permanent_cauchy_binet,
    permanent_glynn,
    permanent_glynn_kan,
    permanent_glynn_kan_repeated,
    permanent_glynn_multiplicity,
    permanent_glynn_repeated_rows,
    permanent_naive,
    permanent_roots_of_unity,
    permanent_ryser,
)

from oracles import permutation_permanent, table_permanent

DIXON = np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], dtype=complex)


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


class TestNaive:
    def test_two_by_two_definition(self):
        a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
        assert permanent_naive(((a, b), (c, d))).value == a * d + b * c

    def test_all_ones(self):
        assert permanent_naive(np.ones((3, 3))).value == pytest.approx(6)

    def test_repeated_identity_is_pfact_delta(self):
        eye = np.eye(3)
        p = (2, 1, 0)
        same = repeat_matrix(eye, RepetitionPattern(p, p))
        assert permanent_naive(same).value == pytest.approx(factorial_product(p))
        other = repeat_matrix(eye, RepetitionPattern(p, (1, 1, 1)))
        assert permanent_naive(other).value == pytest.approx(0.0)

    def test_empty_and_rectangular(self):
        assert permanent_naive(np.zeros((0, 0))).value == 1
        assert permanent_naive(np.ones((2, 3))).value == 0

    def test_too_large(self):
        for a in (np.ones((11, 11)), [[1] * 11] * 11):
            with pytest.raises(TooLarge):
                permanent_naive(a)

    def test_term_count(self):
        assert permanent_naive(np.ones((4, 4))).term_count == 24


# The prefix-tree kernel against the term-by-term permutation loop, m = 0..9.
# Exact entries are a / b with a in [-3, 3] and b dividing 6, so zeros occur
# and 6A is an integer matrix; the reference loop runs on 6A, since its
# Fraction arithmetic takes seconds at m = 9.
NAIVE_DIMS = range(10)
EXACT_KINDS = ("int", "fraction", "mixed", "zero-row", "repeated")
COMPLEX_KINDS = ("complex", "zeros", "zero-row", "repeated")


def _repeated(m, base):
    """A_{p,p} for a 3 x 3 base A and |p| = m."""
    p = (m - 2 * (m // 3), m // 3, m // 3)
    return repeat_matrix(base, RepetitionPattern(p, p))


def _exact_rows(kind, m):
    if kind == "repeated":
        # as lists: the 0 x 0 repetition comes back as an empty numpy array
        return [list(r) for r in _repeated(m, ((0, 1, -1), (-1, 0, 1), (1, -1, 0)))]
    g = rng.generator(700 + m)
    num = g.integers(-3, 4, size=(m, m)).tolist()
    if kind == "int":
        return num
    if kind == "zero-row" and m:
        num[m // 2] = [0] * m
    den = g.choice((1, 2, 3, 6), size=(m, m)).tolist()
    rows = [[Fraction(a, b) for a, b in zip(r, d)] for r, d in zip(num, den)]
    if kind == "mixed":
        return [[v if v.denominator > 1 else int(v) for v in r] for r in rows]
    return rows


def _complex_matrix(kind, m):
    g = rng.generator(800 + m)
    if kind == "repeated":
        return _repeated(m, g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3)))
    a = g.normal(size=(m, m)) + 1j * g.normal(size=(m, m))
    if kind == "zeros":
        a[g.random((m, m)) < 0.4] = 0
    if kind == "zero-row" and m:
        a[m // 2] = 0
    return a


@pytest.mark.parametrize("m", NAIVE_DIMS)
@pytest.mark.parametrize("kind", EXACT_KINDS)
def test_naive_exact_matches_permutation_loop(kind, m):
    rows = _exact_rows(kind, m)
    got = permanent_naive(rows)
    per = Fraction(permutation_permanent([[int(6 * v) for v in r] for r in rows]), 6**m)
    # the loop's sum is a Fraction exactly when an entry is one
    if any(isinstance(v, Fraction) for r in rows for v in r):
        want = per
    else:
        want = int(per)
    assert got.value == want
    assert type(got.value) is type(want)
    assert got.term_count == math.factorial(m)
    if m <= 6:
        direct = permutation_permanent(rows)
        assert got.value == direct and type(got.value) is type(direct)


@pytest.mark.parametrize("m", NAIVE_DIMS)
@pytest.mark.parametrize("kind", COMPLEX_KINDS)
def test_naive_float_matches_permutation_loop(kind, m):
    a = _complex_matrix(kind, m)
    got = permanent_naive(a)
    # the 0 x 0 permanent is the exact 1 for every input form
    assert isinstance(got.value, complex) == (m > 0)
    assert scaled_error(got.value, permutation_permanent(a)) <= 1e-13
    assert got.term_count == math.factorial(m)


class TestRyser:
    def test_identity(self):
        assert permanent_ryser(np.eye(4)).value == pytest.approx(1.0)

    def test_against_naive(self):
        a = rng.unit_disk_matrix(6, 3)
        assert close(permanent_ryser(a).value, permanent_naive(a).value)

    def test_all_ones_five(self):
        assert permanent_ryser(np.ones((5, 5))).value == pytest.approx(120)

    def test_exact_integers(self):
        assert permanent_ryser(((1, 2), (3, 4))).value == 10

    def test_term_count(self):
        assert permanent_ryser(np.eye(3)).term_count == 7

    def test_dimension_guard(self):
        with pytest.raises(TooLarge):
            permanent_ryser(np.eye(31))


class TestGlynn:
    def test_scalar(self):
        assert permanent_glynn(np.array([[2.5 + 1j]])).value == pytest.approx(2.5 + 1j)

    def test_against_naive(self):
        a = rng.unit_disk_matrix(6, 4)
        assert close(permanent_glynn(a).value, permanent_naive(a).value)

    def test_dixon_matrix_vanishes(self):
        assert permanent_naive(DIXON).value == pytest.approx(0.0)
        assert abs(permanent_glynn(DIXON).value) <= 1e-12

    def test_term_count_half_sum(self):
        assert permanent_glynn(np.eye(5)).term_count == 16


class TestGlynnRepeatedRows:
    def test_uniform_reduces_to_glynn(self):
        a = rng.unit_disk_matrix(4, 5)
        assert close(
            permanent_glynn_repeated_rows(a, (1, 1, 1, 1)).value,
            permanent_glynn(a).value,
        )

    def test_weight_mismatch_is_zero(self):
        a = rng.unit_disk_matrix(3, 6)
        with pytest.warns(WeightMismatchWarning):
            assert permanent_glynn_repeated_rows(a, (2, 1, 1)).value == 0

    def test_empty_matrix_is_one(self):
        for a in ([], np.zeros((0, 0))):
            res = permanent_glynn_repeated_rows(a, ())
            assert res.value == 1 and type(res.value) is int and res.term_count == 1

    def test_against_naive_on_repeated(self):
        a = rng.unit_disk_matrix(4, 7)
        q = (2, 1, 1, 0)
        rep = repeat_matrix(a, RepetitionPattern(q, (1, 1, 1, 1)))
        assert close(permanent_glynn_repeated_rows(a, q).value, permanent_naive(rep).value)


class TestRootsOfUnity:
    def test_uniform_cross_check_glynn(self):
        a = rng.unit_disk_matrix(5, 8)
        got = permanent_roots_of_unity(a, RepetitionPattern.uniform(5)).value
        assert close(got, permanent_glynn(a).value, 1e-8)

    def test_repeated_rows_only(self):
        a = rng.unit_disk_matrix(2, 9)
        pat = RepetitionPattern((2, 0), (1, 1))
        rep = repeat_matrix(a, pat)
        assert close(permanent_roots_of_unity(a, pat).value, permanent_naive(rep).value)

    def test_identity_doubled(self):
        got = permanent_roots_of_unity(np.eye(2), RepetitionPattern((2, 0), (2, 0))).value
        assert got == pytest.approx(2.0)

    def test_weight_mismatch_warns_and_returns_zero(self):
        with pytest.warns(WeightMismatchWarning):
            res = permanent_roots_of_unity(np.eye(2), RepetitionPattern((2, 0), (1, 0)))
        assert res.value == 0

    def test_term_count(self):
        res = permanent_roots_of_unity(np.eye(2), RepetitionPattern.uniform(2))
        assert res.term_count == 4


@pytest.mark.parametrize("m, top", [(1, 4), (2, 4), (3, 4), (4, 3)])
def test_root_grid_routes_match_naive_on_every_pattern(m, top):
    # every pattern, also those with a q_j (or p_j) equal to n: roots of unity of order n alias x^n with x^0
    a = rng.unit_disk_matrix(m, 600 + m)
    for n in range(top + 1):
        for p in enumerate_weight(m, n):
            for q in enumerate_weight(m, n):
                pat = RepetitionPattern(p, q)
                ref = permanent_naive(repeat_matrix(a, pat)).value
                roots = permanent_roots_of_unity(a, pat)
                kan = permanent_glynn_kan_repeated(a, pat)
                assert scaled_error(roots.value, ref) <= 1e-10, (p, q)
                assert scaled_error(kan.value, ref) <= 1e-10, (p, q)
                assert scaled_error(pown_grid_expectation(a, pat), ref) <= 1e-10, (p, q)
                if n:
                    assert roots.term_count == math.prod(c + 1 for c in q)
                    assert kan.term_count == math.prod(c + 1 for c in p + q)


class TestGlynnKan:
    def test_scalar(self):
        assert permanent_glynn_kan(np.array([[1.5 - 2j]])).value == pytest.approx(1.5 - 2j)

    def test_against_naive(self):
        a = rng.unit_disk_matrix(5, 10)
        assert close(permanent_glynn_kan(a).value, permanent_naive(a).value, 1e-8)

    def test_all_ones_four(self):
        assert permanent_glynn_kan(np.ones((4, 4))).value == pytest.approx(24)

    def test_exact(self):
        assert permanent_glynn_kan(((1, 2), (3, 4))).value == 10


class TestGlynnKanRepeated:
    def test_uniform_matches_glynn_kan(self):
        a = rng.unit_disk_matrix(3, 11)
        got = permanent_glynn_kan_repeated(a, RepetitionPattern.uniform(3)).value
        assert close(got, permanent_glynn_kan(a).value, 1e-8)

    def test_repeated_versus_naive(self):
        a = rng.unit_disk_matrix(2, 12)
        pat = RepetitionPattern((2, 1), (1, 2))
        rep = repeat_matrix(a, pat)
        assert close(permanent_glynn_kan_repeated(a, pat).value, permanent_naive(rep).value, 1e-8)

    def test_zero_matrix(self):
        res = permanent_glynn_kan_repeated(np.zeros((2, 2)), RepetitionPattern((1, 1), (1, 1)))
        assert res.value == 0

    def test_budget_guard_at_m6(self):
        # Every index three times on a 6x6 needs 4^6 * 4^6 grid points, beyond the 1e7 budget.
        with pytest.raises(TooLarge):
            permanent_glynn_kan_repeated(np.eye(6), RepetitionPattern((3,) * 6, (3,) * 6))


class TestCauchyBinet:
    def test_identity_composition(self):
        res = permanent_cauchy_binet(np.eye(3), np.eye(3), RepetitionPattern.uniform(3))
        assert res.value == pytest.approx(1.0)

    def test_product_rule(self):
        a = rng.unit_disk_matrix(3, 13)
        b = rng.unit_disk_matrix(3, 14)
        got = permanent_cauchy_binet(a, b, RepetitionPattern.uniform(3)).value
        assert close(got, permanent_naive(a @ b).value)

    def test_repeated_product_rule(self):
        a = rng.unit_disk_matrix(3, 15)
        b = rng.unit_disk_matrix(3, 16)
        pat = RepetitionPattern((2, 0, 0), (1, 1, 0))
        got = permanent_cauchy_binet(a, b, pat).value
        ref = permanent_naive(repeat_matrix(a @ b, pat)).value
        assert close(got, ref)

    def test_weight_mismatch_zero(self):
        with pytest.warns(WeightMismatchWarning):
            res = permanent_cauchy_binet(np.eye(2), np.eye(2), RepetitionPattern((2, 0), (1, 0)))
        assert res.value == 0

    @pytest.mark.parametrize("m", (3, 4))
    @pytest.mark.parametrize("kind", (int, Fraction))
    def test_exact_equals_naive_on_the_repeated_product(self, m, kind):
        g = rng.generator(40 + m)
        cases = []
        for _ in range(8):
            a = g.integers(-4, 5, size=(m, m)).tolist()
            b = g.integers(-4, 5, size=(m, m)).tolist()
            if kind is Fraction:
                b = [[Fraction(v, int(d)) for v, d in zip(row, g.integers(1, 7, size=m))] for row in b]
            n = int(g.integers(1, 6))
            cases.append((a, b, RepetitionPattern(_split(g, m, n), _split(g, m, n))))
        # A's one Fraction sits in row 1, which p = (2, 0) leaves out of (AB)_{p,q} and p = (1, 1) takes
        p = (2, 0) if kind is int else (1, 1)
        cases.append(([[1, 2], [Fraction(1, 2), 3]], [[1, 0], [0, 1]], RepetitionPattern(p, (1, 1))))
        for a, b, pat in cases:
            got = permanent_cauchy_binet(a, b, pat).value
            want = permanent_naive(repeat_matrix(np.array(a, dtype=object) @ np.array(b, dtype=object), pat)).value
            assert type(got) is type(want) is kind
            assert got == want

    @pytest.mark.parametrize("m", (3, 4))
    def test_float_against_exact_on_the_same_dyadic_entries(self, m):
        g = rng.generator(60 + m)
        for _ in range(8):
            a, b = g.uniform(-1.0, 1.0, size=(m, m)), g.uniform(-1.0, 1.0, size=(m, m))
            n = int(g.integers(1, 6))
            pat = RepetitionPattern(_split(g, m, n), _split(g, m, n))
            exact = permanent_cauchy_binet(
                [[Fraction(v) for v in row] for row in a.tolist()], [[Fraction(v) for v in row] for row in b.tolist()], pat
            ).value
            assert scaled_error(permanent_cauchy_binet(a, b, pat).value, exact) <= 1e-13


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_transpose_invariance(m, seed):
    a = rng.unit_disk_matrix(m, seed)
    pat = RepetitionPattern.uniform(m)
    for fn in (permanent_naive, permanent_ryser, permanent_glynn, permanent_glynn_kan):
        assert close(fn(a.T).value, fn(a).value, 1e-10)
    assert close(
        permanent_roots_of_unity(a.T, pat).value,
        permanent_roots_of_unity(a, pat).value,
        1e-9,
    )
    assert close(
        permanent_glynn_kan_repeated(a.T, pat).value,
        permanent_glynn_kan_repeated(a, pat).value,
        1e-9,
    )


def test_transpose_invariance_repeated_forms():
    # Per(M^T) = Per(M) for the repeated-index forms relates different calls:
    # row repetitions of A are column repetitions of A^T, and (AB)^T = B^T A^T.
    a = rng.unit_disk_matrix(3, 777)
    b = rng.unit_disk_matrix(3, 778)
    q = (2, 1, 0)
    lhs = permanent_glynn_repeated_rows(a, q).value
    rhs = permanent_roots_of_unity(a.T, RepetitionPattern((1, 1, 1), q)).value
    assert close(lhs, rhs, 1e-9)
    p, ones = (2, 1, 0), (1, 1, 1)
    cb = permanent_cauchy_binet(a, b, RepetitionPattern(p, ones)).value
    cbt = permanent_cauchy_binet(b.T, a.T, RepetitionPattern(ones, p)).value
    assert close(cb, cbt, 1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_row_scaling(m, seed):
    a = rng.unit_disk_matrix(m, seed)
    scaled = a.copy()
    scaled[0] *= 2.5j
    assert close(permanent_naive(scaled).value, 2.5j * permanent_naive(a).value, 1e-10)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_block_diagonal(ma, mb, seed):
    a = rng.unit_disk_matrix(ma, seed)
    b = rng.unit_disk_matrix(mb, seed + 1)
    block = np.zeros((ma + mb, ma + mb), dtype=complex)
    block[:ma, :ma] = a
    block[ma:, ma:] = b
    lhs = permanent_naive(block).value
    rhs = permanent_naive(a).value * permanent_naive(b).value
    assert close(lhs, rhs, 1e-10)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_unitary_permanent_in_unit_disk(m):
    u = rng.haar_unitary(m, 70 + m)
    assert abs(permanent_glynn(u).value) <= 1.0 + 1e-10


def test_wrapper_types_accepted():
    from permkit.numerics import ComplexMatrix

    u = rng.haar_unitary(3, 17)
    arr = u.data
    assert permanent_naive(u).value == permanent_naive(arr).value
    assert permanent_ryser(ComplexMatrix(arr)).value == permanent_ryser(arr).value
    assert permanent_roots_of_unity(u, RepetitionPattern.uniform(3)).value == pytest.approx(
        permanent_roots_of_unity(arr, RepetitionPattern.uniform(3)).value
    )


def test_oracle_equivalence_small_battery():
    pat_cache = {}
    for m in range(1, 5):
        pat = pat_cache.setdefault(m, RepetitionPattern.uniform(m))
        for seed in range(5):
            a = rng.unit_disk_matrix(m, 90 + 10 * m + seed)
            ref = permanent_naive(a).value
            for fn in (permanent_ryser, permanent_glynn, permanent_glynn_kan):
                assert close(fn(a).value, ref, 1e-8)
            assert close(permanent_roots_of_unity(a, pat).value, ref, 1e-8)
            assert close(permanent_glynn_kan_repeated(a, pat).value, ref, 1e-8)
            assert close(permanent_glynn_repeated_rows(a, (1,) * m).value, ref, 1e-8)


# Integer matrices (entries in [-9, 9]) at dimensions on both sides of the
# float kernel's 10-bit vertex table: n <= 10 runs one chunk, n > 10 the
# outer loop over the high bits.  The exact int path is the reference.
KERNEL_DIMS = (1, 2, 9, 10, 11, 14)


def _int_matrix(n):
    g = rng.generator(500 + n)
    return [[int(v) for v in row] for row in g.integers(-9, 10, size=(n, n))]


def _repetition(n):
    return (1,) if n == 1 else (2, 0) + (1,) * (n - 2)


@pytest.mark.parametrize("n", KERNEL_DIMS)
def test_float_kernel_matches_exact_int_path(n):
    exact = _int_matrix(n)
    arr = np.array(exact, dtype=float)
    q = _repetition(n)
    pairs = [
        (permanent_ryser(arr), permanent_ryser(exact)),
        (permanent_glynn(arr), permanent_glynn(exact)),
        (permanent_glynn_repeated_rows(arr, q), permanent_glynn_repeated_rows(exact, q)),
    ]
    for got, ref in pairs:
        assert isinstance(got.value, complex)
        assert scaled_error(got.value, ref.value) <= 1e-10
        assert got.term_count == ref.term_count
    assert pairs[0][1].value == pairs[1][1].value


@pytest.mark.parametrize("n", KERNEL_DIMS)
def test_float_glynn_kan_matches_exact_int_path(n):
    exact = _int_matrix(n)
    arr = np.array(exact, dtype=float)
    if 4**n > TERM_BUDGET:
        with pytest.raises(TooLarge):
            permanent_glynn_kan(arr)
        return
    got = permanent_glynn_kan(arr)
    # exact Glynn-Kan takes seconds at n = 11; exact Ryser gives the same int
    ref = permanent_glynn_kan(exact) if n <= 10 else permanent_ryser(exact)
    assert scaled_error(got.value, ref.value) <= 1e-10
    assert got.term_count == 4**(n - 1)


@pytest.mark.parametrize("m", (9, 10))
@pytest.mark.parametrize("kind", ("int", "fraction"))
def test_exact_glynn_kan_matches_exact_ryser_across_blocks(kind, m):
    # 4^(m-1) values of x^T A y: 4 blocks of the double sum at m = 9, 16 at m = 10
    assert 4**(m - 1) >= 4 * permanents._DOUBLE_SUM_ENTRIES
    g = rng.generator(1300 + m)
    rows = g.integers(-9, 10, size=(m, m)).tolist()
    if kind == "fraction":
        rows = [[Fraction(v, d) for v, d in zip(row, dens)] for row, dens in zip(rows, g.integers(1, 7, size=(m, m)).tolist())]
    got, ref = permanent_glynn_kan(rows).value, permanent_ryser(rows).value
    assert got == ref and type(got) is type(ref)
    assert isinstance(got, Fraction) == (kind == "fraction")


def test_power_of_zero_is_ones():
    for z in (np.array([0.5 - 2j, 0j, 3.0]), np.array([Fraction(1, 3), 0, -4], dtype=object)):
        got = permanents._power(z.copy(), 0)
        assert got.dtype == z.dtype and got.tolist() == [1, 1, 1]


@pytest.mark.parametrize("n", range(1, 41))
def test_power_matches_repeated_multiplication(n):
    # the rounding of either route grows about linearly in n, and so does the bound
    z = rng.generator(1400).normal(size=(500, 2)) @ np.array([1, 1j])
    ref = z.copy()
    for _ in range(n - 1):
        ref = ref * z
    got = permanents._power(z.copy(), n, np.empty_like(z))
    assert np.all(np.abs(got - ref) <= n * 2.0**-52 * np.abs(ref))


def test_power_is_exact_on_object_arrays():
    z = np.array([Fraction(-2, 3), 7, 0, Fraction(5, 1), -1], dtype=object)
    for n in range(13):
        got = permanents._power(z.copy(), n)
        assert got.tolist() == [v**n for v in z.tolist()]
        # n = 0 fills in the int 1
        assert [type(v) for v in got.tolist()] == [type(v**n) if n else int for v in z.tolist()]


@pytest.mark.parametrize("kind", ("int", "fraction", "float"))
def test_grid_double_sum_with_a_partial_last_block(kind, monkeypatch):
    # the whole sign cube {-1, 1}^5 as x and y, in blocks of 3 of its 32 rows: the last holds 2
    m = 5
    monkeypatch.setattr(permanents, "_DOUBLE_SUM_ENTRIES", 3 << m)
    rows = _int_matrix(m)
    if kind == "fraction":
        rows = [[Fraction(v, 1 + (i + j) % 4) for j, v in enumerate(row)] for i, row in enumerate(rows)]
    points, signs = _vertices(m)
    denom = 4**m * math.factorial(m)
    ref = permanent_ryser(rows).value
    if kind == "float":
        total = permanents._grid_double_sum(np.array(rows, dtype=float), points, signs, points, signs, m)
        assert scaled_error(complex(total) / denom, ref) <= 1e-12
        return
    dens, ints = permanents._integer_rows(rows)
    points, signs = points.real.astype(np.int64), signs.astype(np.int64)
    total = permanents._grid_double_sum(np.array(ints, dtype=object), points, signs, points, signs, m)
    assert Fraction(total, denom * math.prod(dens)) == ref


@pytest.mark.parametrize("n", (2, 11))
def test_float_kernel_same_value_for_every_input_form(n):
    arr = np.array(_int_matrix(n), dtype=float)
    u = rng.haar_unitary(n, 600 + n)
    q = _repetition(n)
    for fn in (permanent_ryser, permanent_glynn, permanent_glynn_kan, lambda a: permanent_glynn_repeated_rows(a, q)):
        want = fn(arr).value
        assert fn(arr.tolist()).value == want
        assert fn(ComplexMatrix(arr)).value == want
        want = fn(u.data).value
        assert fn(u).value == want
        assert fn(u.matrix).value == want
        assert fn(u.data.tolist()).value == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_non_finite_entries_fail_loudly(bad):
    a = np.eye(3, dtype=complex)
    a[1, 2] = bad
    pat = RepetitionPattern.uniform(3)
    calls = [
        lambda m: permanent_naive(m),
        lambda m: permanent_ryser(m),
        lambda m: permanent_glynn(m),
        lambda m: permanent_glynn_kan(m),
        lambda m: permanent_glynn_repeated_rows(m, (1, 1, 1)),
        lambda m: permanent_roots_of_unity(m, pat),
        lambda m: permanent_glynn_kan_repeated(m, pat),
        lambda m: permanent_cauchy_binet(m, np.eye(3), pat),
    ]
    for call in calls:
        for form in (a, a.tolist()):
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                call(form)


# The multiplicity sign sum against the brute-force permanent of the expanded
# matrix A_{p,q}, |p| = |q| <= 9 on m = 1..4 (the base matrices of the naive
# tests above), with zero multiplicities, zero rows, all-even q and q = 1.


def _split(g, m, n):
    return tuple(np.bincount(g.integers(0, m, size=n), minlength=m).tolist())


def _multiplicity_patterns(m):
    g = rng.generator(900 + m)
    pairs = [(_split(g, m, n), _split(g, m, n)) for n in range(10) for _ in range(2 if n < 8 else 1)]
    pairs.append(((0,) * (m - 1) + (4,), (4,) + (0,) * (m - 1)))
    pairs.append(((2,) * m, (2,) * m))
    pairs.append(((1,) * m, (1,) * m))
    return pairs


def _grid_size(q):
    """prod_j (q_j + 1), the float term count; the empty repetition counts 1."""
    return math.prod(c + 1 for c in q) if sum(q) else 1


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("kind", ("int", "fraction", "mixed", "zero-row"))
def test_multiplicity_exact_matches_naive(kind, m):
    rows = _exact_rows(kind, m)
    # 6A is an integer matrix; its brute-force permanent is quick at |p| = 9
    numerators = [[int(6 * v) for v in row] for row in rows]
    for p, q in _multiplicity_patterns(m):
        pat = RepetitionPattern(p, q)
        got = permanent_glynn_multiplicity(rows, pat)
        want = Fraction(permanent_naive(repeat_matrix(numerators, pat)).value, 6 ** sum(p))
        if not any(isinstance(rows[i][j], Fraction) for i in range(m) if p[i] for j in range(m) if q[j]):
            want = int(want)
        assert got.value == want and type(got.value) is type(want), (p, q)
        if sum(p) <= 6:
            direct = permanent_naive(repeat_matrix(rows, pat)).value
            assert got.value == direct and type(got.value) is type(direct)
        # the exact kernel sums one of the equal terms at v and q - v
        assert got.term_count == (_grid_size(q) // 2 if sum(q) else 1)


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("kind", ("complex", "zeros", "zero-row"))
def test_multiplicity_float_matches_naive(kind, m):
    a = _complex_matrix(kind, m)
    for p, q in _multiplicity_patterns(m):
        pat = RepetitionPattern(p, q)
        got = permanent_glynn_multiplicity(a, pat)
        assert isinstance(got.value, complex)
        assert scaled_error(got.value, permanent_naive(repeat_matrix(a, pat)).value) <= 1e-13, (p, q)
        assert got.term_count == _grid_size(q)


@pytest.mark.parametrize("n", range(8, 13))
def test_multiplicity_float_matches_exact_fraction_path(n):
    # every float64 is a dyadic rational, so the exact kernel on Fraction(x) is exact
    g = rng.generator(950 + n)
    for m in (2, 3, 4):
        a = g.uniform(-1.0, 1.0, size=(m, m))
        pat = RepetitionPattern(_split(g, m, n), _split(g, m, n))
        got = permanent_glynn_multiplicity(a, pat).value
        want = permanent_glynn_multiplicity([[Fraction(float(x)) for x in row] for row in a], pat).value
        scale = factorial_product(pat.rows) * factorial_product(pat.cols)
        assert scaled_error(got / scale, complex(want / scale)) <= 1e-12


def test_multiplicity_weight_mismatch_warns_and_returns_zero():
    for a in (np.eye(2), [[1, 0], [0, 1]]):
        with pytest.warns(WeightMismatchWarning):
            res = permanent_glynn_multiplicity(a, RepetitionPattern((2, 0), (1, 0)))
        assert res.value == 0 and res.term_count == 0


def test_multiplicity_q_ones_is_glynn():
    exact = _int_matrix(11)
    ones = RepetitionPattern.uniform(11)
    got = permanent_glynn_multiplicity(exact, ones)
    assert got.value == permanent_ryser(exact).value and type(got.value) is int
    assert got.term_count == permanent_glynn(exact).term_count == 1 << 10


def _assembled_grid(qs):
    """`_grid(qs)`'s size, points and weights with the low and high parts
    assembled: point i + block * h is (low point i, high point h)."""
    _, block, size, (x_low, x_high), (w_low, w_high) = _grid(qs)
    points = np.hstack([np.tile(x_low, (len(x_high), 1)), np.repeat(x_high, block, axis=0)])
    return size, points, (w_low[:, None, :] * w_high[:, :, None]).reshape(len(qs), -1)


@pytest.mark.parametrize("k", range(12))
def test_multiplicity_grid_of_ones_is_the_vertex_table(k):
    # q = (1, ..., 1) is the sign cube: point for point and sign for sign the
    # `_vertices` table that Glynn-Kan reads, so one order serves every kernel
    size, points, weights = _assembled_grid(((1,) * k,))
    vertices, signs = _vertices(k)
    assert size == len(vertices) and np.array_equal(points, vertices)
    assert np.array_equal(weights[0], signs)


# `_sign_sums` sums the grid points whose first nonzero y_j is positive.
# Where |p| = |q| (mod 2) and |p| >= 1 the term at -y equals the term at y and
# y = 0 adds 0, so twice the half sum is the sum over every grid point.


def _full_grid_sum(cols, p, q):
    """sum over every integer point y with |y_j| <= q_j of
    prod_j _multiplicity_weight(q_j, y_j) prod_i ((cols y)_i)^{p_i}."""
    total = 0j
    for y in itertools.product(*(range(-c, c + 1) for c in q)):
        w = math.prod(_multiplicity_weight(c, v) for c, v in zip(q, y))
        total += w * np.prod((cols @ np.array(y, dtype=float)) ** np.array(p))
    return total


HALF_GRID_CASES = {
    # q all even: the grid's middle point is y = 0
    "even-q": [((2, 1, 1), (2, 0, 2))],
    # one block of 8 points: the sum starts at its middle
    "one-block": [((1, 1, 1), (1, 1, 1))],
    "many-rows": [((2, 1, 1), (1, 2, 1)), ((0, 3, 1), (1, 2, 1)), ((1, 1, 2), (1, 2, 1))],
    # two parity classes in one batch: each column takes -Q..Q in steps of 1
    "two-parities": [((1, 1, 0), (1, 1, 0)), ((2, 0, 0), (2, 0, 0)), ((0, 1, 3), (1, 1, 2))],
    # with 2^2-point blocks, (2, 2, 1) reversed has blocks of 2 and 18 points: the half starts mid-block
    "mid-block": [((1, 2, 2), (2, 2, 1))],
    "rectangular": [((1, 2), (1, 1, 1)), ((3, 0), (0, 1, 2))],
}


@pytest.fixture
def fresh_grids():
    """`_grid`'s cache emptied before and after a test that changes `_LOW_BITS`."""
    permanents._grid.cache_clear()
    yield
    permanents._grid.cache_clear()


@pytest.mark.parametrize("low_bits", [permanents._LOW_BITS, 2])
@pytest.mark.parametrize("case", sorted(HALF_GRID_CASES))
def test_sign_sums_are_half_the_full_grid_sum(case, low_bits, monkeypatch, fresh_grids):
    monkeypatch.setattr(permanents, "_LOW_BITS", low_bits)
    pairs = HALF_GRID_CASES[case]
    cols = rng.unit_disk_matrix(max(len(pairs[0][0]), len(pairs[0][1])), 970)[: len(pairs[0][0]), : len(pairs[0][1])]
    if case == "mid-block" and low_bits == 2:
        _, block, size, (_, x_high), _ = _grid(((1, 2, 2),))
        assert len(x_high) > 1 and (size + 1) // 2 % block
    want = [_full_grid_sum(cols, p, q) for p, q in pairs]
    # all pairs in one call (one row in the one-pair cases), and each pair alone
    for batch in (pairs, *([pair] for pair in pairs)):
        got = permanents._sign_sums(cols, np.array([p for p, _ in batch]), [q for _, q in batch])
        for g, pair in zip(got.tolist(), batch):
            w = want[pairs.index(pair)]
            assert abs(2 * g - w) <= 1e-13 * max(1.0, abs(w)), (case, pair)


@pytest.mark.parametrize("m", [20, 23])
def test_float_glynn_and_ryser_reach_the_kernel_below_the_budget(m, monkeypatch):
    # the kernel itself does not price: Glynn's 2^m and Ryser's 2^m terms are the only checks
    calls = []

    def kernel(cols, powers, mults=None):
        calls.append((cols.shape, powers.tolist(), mults))
        return np.zeros(len(powers), dtype=np.complex128)

    monkeypatch.setattr(permanents, "_sign_sums", kernel)
    a = rng.unit_disk_matrix(m, 980)
    assert permanent_glynn(a).term_count == 1 << (m - 1)
    assert permanent_ryser(a).term_count == (1 << m) - 1
    assert calls == [((m, m), [[1] * m], None), ((m, m + 1), [[1] * m], None)]
    for call in (permanent_glynn, permanent_ryser):
        with pytest.raises(TooLarge, match=f"needs {1 << 24} terms"):
            call(rng.unit_disk_matrix(24, 981))
    assert len(calls) == 2


@pytest.mark.parametrize(
    "qs, dtypes",
    [
        (((2, 3, 1), (4, 1, 0), (1, 1, 2)), (np.int64, np.int64)),
        (((30, 30), (28, 2)), (np.int64, np.int64)),
        # C(60, 30) C(15, 7) > 2^63: the low block's weights are Python ints
        (((60, 15),), (object, np.int64)),
        (((15, 60), (3, 2)), (object, np.int64)),
        # C(40, 20)^2 > 2^63: the high part's weights are Python ints
        (((40, 40, 40),), (np.int64, object)),
        # C(66, 33) < 2^63 < C(67, 33): either side of the int64 rule
        (((66,),), (np.int64, np.int64)),
        (((67,),), (object, np.int64)),
    ],
)
def test_grid_weights_are_the_exact_column_products(qs, dtypes):
    parts = _grid(qs)[4]
    assert tuple(w.dtype for w in parts) == tuple(map(np.dtype, dtypes))
    assert not any(w.flags.writeable for w in parts)
    size, points, weights = _assembled_grid(qs)
    assert points.shape == (size, len(qs[0])) and weights.shape == (len(qs), size)
    for q, row in zip(qs, weights.tolist()):
        assert row == [math.prod(_multiplicity_weight(c, int(y)) for c, y in zip(q, pt)) for pt in points]


def test_grid_size_counts_the_column_values():
    # per column Q + 1 values when its multiplicities share a parity, else 2Q + 1
    g = rng.generator(961)
    for _ in range(300):
        m, rows = int(g.integers(0, 5)), int(g.integers(1, 4))
        qs = [tuple(int(v) for v in g.integers(0, 9, size=m)) for _ in range(rows)]
        got = permanents._grid_size(qs)
        assert type(got) is int
        assert got == math.prod(permanents._column_values(col).size for col in zip(*qs)), qs


def test_exact_multiplicity_sum_with_weights_past_int64():
    # the low block's weights reach C(60, 30) C(15, 7) > 2^63; in int64 they would wrap silently
    rows = [[2, -1], [1, 3]]
    got = permanent_glynn_multiplicity(rows, RepetitionPattern((40, 35), (60, 15))).value
    assert got == table_permanent(rows, (40, 35), (60, 15)) and type(got) is int


def test_exact_weights_past_float_range():
    # C(1100, 550) is past float64: the weights stay Python ints on the exact route
    got = permanent_glynn_multiplicity([[1]], RepetitionPattern((1100,), (1100,))).value
    assert got == math.factorial(1100) and type(got) is int


@pytest.mark.parametrize("budget", [TERM_BUDGET, 1])
def test_batched_permanents_match_naive(monkeypatch, budget):
    # budget 1: the shared grid is over the budget, so each q gets its own call
    monkeypatch.setattr(permanents, "TERM_BUDGET", budget)
    a = rng.unit_disk_matrix(3, 940)
    exact = _exact_rows("mixed", 3)
    pairs = [(p, q) for p, q in _multiplicity_patterns(3) if sum(p) <= 6]
    pairs += [((1, 0, 0), (0, 2, 0)), ((0, 0, 0), (0, 0, 0))]
    got, got_exact = _repeated_permanents((a, pairs), (exact, pairs))
    assert set(got) == set(pairs)
    for p, q in pairs:
        pat = RepetitionPattern(p, q)
        assert scaled_error(got[p, q], permanent_naive(repeat_matrix(a, pat)).value) <= 1e-13
        assert got_exact[p, q] == permanent_naive(repeat_matrix(exact, pat)).value


@pytest.mark.parametrize(
    "call, terms, budget",
    [
        (lambda: permanent_ryser(np.eye(31)), 2**31, TERM_BUDGET),
        (lambda: permanent_glynn([[1] * 24] * 24), 2**24, TERM_BUDGET),
        (lambda: permanent_naive(np.ones((11, 11))), math.factorial(11), math.factorial(10)),
        (lambda: permanent_glynn_kan(np.eye(12)), 4**12, TERM_BUDGET),
        (lambda: permanent_glynn_kan_repeated(np.eye(12), RepetitionPattern.uniform(12)), 4**12, TERM_BUDGET),
        (lambda: permanent_roots_of_unity(np.eye(24), RepetitionPattern.uniform(24)), 2**24, TERM_BUDGET),
        (lambda: permanent_glynn_multiplicity(np.eye(3), RepetitionPattern((300,) * 3, (300,) * 3)), 301**3, TERM_BUDGET),
    ],
    ids=["ryser", "glynn", "naive", "glynn-kan", "glynn-kan-repeated", "roots-of-unity", "glynn-multiplicity"],
)
def test_too_large_states_terms_and_budget(call, terms, budget):
    with pytest.raises(TooLarge, match=f"needs {terms} terms; the budget is {budget}"):
        call()


# Exact Ryser and exact Glynn (with its repeated-index forms) run mod primes
# below 2^25 in float64 and rebuild Per by the Chinese remainder theorem, on
# two formulas: Ryser's column subsets and Glynn's sign sum on the
# multiplicity grid.  They must equal each other, the brute-force sum (an
# object prefix tree) and the contingency-table sum in value and type on
# every kind of exact input.

P1, P2, P3 = permanents._crt_primes(2**60)[:3]
EDGE = (1 << 52) - 1


def _sum_row(total, n, signs):
    """n entries with the given signs whose absolute values sum to ``total``."""
    head = total - 3 * (n - 1)
    return [s * v for s, v in zip(signs, [head] + [3] * (n - 1))]


def _ryser_cases():
    g = rng.generator(1200)
    cases = {f"int-{n}": g.integers(-9, 10, size=(n, n)).tolist() for n in range(1, 10)}
    num, den = g.integers(-9, 10, size=(6, 6)).tolist(), g.integers(1, 30, size=(6, 6)).tolist()
    cases["fraction"] = [[Fraction(a, b) for a, b in zip(r, d)] for r, d in zip(num, den)]
    cases["near-1e30"] = [[10**30 * int(s) + int(v) for s, v in zip(r, t)]
                          for r, t in zip(g.choice((-1, 1), size=(6, 6)), g.integers(-99, 100, size=(6, 6)))]
    cases["dyadic"] = [[Fraction(float(x)) for x in row] for row in g.uniform(-1.0, 1.0, size=(7, 7))]
    signs = g.choice((-1, 1), size=(5, 5)).tolist()
    sums = (EDGE, EDGE + 1, EDGE + 2, EDGE - 1, 40)
    cases["row-sums-near-2^52"] = [_sum_row(t, 5, s) for t, s in zip(sums, signs)]
    cases["two-shared-at-2^52"] = [_sum_row(EDGE, 4, s[:4]) for s in signs[:4]]
    # one shared product of bound 2^52 - 2^26, which the full subset reaches
    cases["shared-product-near-2^52"] = [_sum_row(2**26, 3, (1, 1, 1)), _sum_row(2**26 - 1, 3, (1, 1, 1)), [1, -1, 1]]
    # |Per| = B, with 2B just below the largest prime, just above it, and just
    # below the product of the two and of the three largest primes
    cases["crt-edge-one-prime"] = [[(P1 - 1) // 2]]
    cases["crt-edge-past-one-prime"] = [[-(P1 + 1) // 2]]
    cases["crt-edge-shared"] = [[(P1 * P2 - 1) // 2, 0, 0], [0, 1, 0], [0, 0, -1]]
    cases["crt-edge-per-prime"] = [[-1, 0], [0, (P1 * P2 * P3 - 1) // 2]]
    cases["zero-row"] = [[1, 2, 3], [0, 0, 0], [4, 5, 6]]
    cases["fraction-zero-row"] = [[1, 2], [Fraction(0), 0]]
    cases["1x1"] = [[-7]]
    cases["1x1-fraction"] = [[Fraction(-7, 3)]]
    cases["0x0"] = []
    cases["2x3"] = [[1, 2, 3], [4, 5, 6]]
    return cases


RYSER_CASES = _ryser_cases()


def _assert_exact_routes_agree(rows):
    got = permanent_ryser(rows).value
    for ref in (permanent_glynn(rows).value, permanent_naive(rows).value):
        assert got == ref and type(got) is type(ref)
    return got


@pytest.mark.parametrize("name", RYSER_CASES)
def test_exact_ryser_matches_glynn_and_naive(name):
    rows = RYSER_CASES[name]
    got = _assert_exact_routes_agree(rows)
    assert isinstance(got, Fraction) == any(isinstance(v, Fraction) for r in rows for v in r)


def test_exact_ryser_crt_edges_are_the_bound():
    assert permanent_ryser(RYSER_CASES["crt-edge-one-prime"]).value == (P1 - 1) // 2
    assert permanent_ryser(RYSER_CASES["crt-edge-past-one-prime"]).value == -(P1 + 1) // 2
    assert permanent_ryser(RYSER_CASES["crt-edge-shared"]).value == -(P1 * P2 - 1) // 2
    assert permanent_ryser(RYSER_CASES["crt-edge-per-prime"]).value == -(P1 * P2 * P3 - 1) // 2


@pytest.mark.parametrize("n", (11, 13))
def test_exact_ryser_high_bits_match_glynn(n):
    g = rng.generator(1250 + n)
    for rows in (
        g.integers(-9, 10, size=(n, n)).tolist(),
        [[int(v) * 10**12 + 1 for v in row] for row in g.integers(-9, 10, size=(n, n))],
        [[Fraction(float(x)) for x in row] for row in g.uniform(-1.0, 1.0, size=(n, n))],
    ):
        got, ref = permanent_ryser(rows).value, permanent_glynn(rows).value
        assert got == ref and type(got) is type(ref)


ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.integers(-(10**30), 10**30),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**9),
    st.floats(-1.0, 1.0).map(Fraction),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_exact_ryser_property_matches_glynn_and_naive(rows):
    _assert_exact_routes_agree(rows)


def _pattern_for(m):
    """A repetition pattern of weight m with a repeated row, a repeated column and zeros."""
    if m < 2:
        return (m,) * m, (m,) * m
    return (2, 0) + (1,) * (m - 2), (1,) * (m - 2) + (0, 2)


@pytest.mark.parametrize("name", RYSER_CASES)
def test_exact_multiplicity_routes_match_ryser_and_naive(name):
    rows = RYSER_CASES[name]
    m = len(rows)
    if any(len(r) != m for r in rows):
        with pytest.raises(DimensionMismatch):
            permanent_glynn_multiplicity(rows, RepetitionPattern.uniform(m))
        return
    want = permanent_ryser(rows).value
    ones = RepetitionPattern.uniform(m)
    for got in (permanent_glynn_multiplicity(rows, ones), permanent_glynn_repeated_rows(rows, (1,) * m)):
        assert got.value == want and type(got.value) is type(want)
        assert got.term_count == (1 << (m - 1) if m else 1)
    p, q = _pattern_for(m)
    expanded = repeat_matrix(rows, RepetitionPattern(p, q))
    want = permanent_ryser(expanded).value
    assert want == permanent_naive(expanded).value
    got = permanent_glynn_multiplicity(rows, RepetitionPattern(p, q))
    assert got.value == want and type(got.value) is type(want)
    assert got.term_count == (_grid_size(q) // 2 if m else 1)
    expanded = repeat_matrix(rows, RepetitionPattern(p, (1,) * m))
    want = permanent_ryser(expanded).value
    got = permanent_glynn_repeated_rows(rows, p)
    assert got.value == want and type(got.value) is type(want)


# Multiplicities whose binomial weights prod_j C(q_j, v_j) pass 2^25 (C(26, 13)
# = 10400600 * 2 and more) and 2^53 (C(60, 30), C(40, 20) C(20, 10) in both
# column orders, C(23, 11)^3), where float64 weights are no longer exact, and
# all-even ones, whose grid has a centre y = 0.
BIG_Q_CASES = [
    ((60,), (60,)),
    ((30, 30), (40, 20)),
    ((30, 30), (20, 40)),
    ((46, 23, 0), (23, 23, 23)),
    ((30,), (30,)),
    ((20, 10), (28, 2)),
    ((14, 16), (30, 0)),
    ((16, 16), (26, 6)),
    ((1, 27), (28, 0)),
    ((6, 6, 6), (4, 4, 10)),
    ((2, 2, 2), (2, 2, 2)),
    ((3, 1), (2, 2)),
    ((0, 4), (4, 0)),
]


@pytest.mark.parametrize("p, q", BIG_Q_CASES, ids=[f"{p}-{q}" for p, q in BIG_Q_CASES])
@pytest.mark.parametrize("kind", ("int", "fraction", "big"))
def test_exact_multiplicity_large_and_even_q_match_the_table_sum(kind, p, q):
    m = len(p)
    g = rng.generator(1400 + sum(q) + m)
    rows = g.integers(-3, 4, size=(m, m)).tolist()
    if kind == "fraction":
        rows = [[Fraction(v, d) for v, d in zip(r, e)] for r, e in zip(rows, g.integers(1, 5, size=(m, m)).tolist())]
    elif kind == "big":
        rows = [[v * 10**9 + 1 for v in r] for r in rows]
    got = permanent_glynn_multiplicity(rows, RepetitionPattern(p, q))
    want = table_permanent(rows, p, q)
    if not any(isinstance(rows[i][j], Fraction) for i in range(m) if p[i] for j in range(m) if q[j]):
        want = int(want)
    assert got.value == want and type(got.value) is type(want)
    assert got.term_count == _grid_size(q) // 2
    if m == 1:
        assert got.value == math.factorial(p[0]) * rows[0][0] ** p[0]


def test_exact_batches_match_single_pairs():
    # one shared grid for mixed q, parities and weights past 2^25, then one call per q
    rows = [[1, Fraction(-2, 3), 3], [0, 5, -1], [2, 2, Fraction(1, 2)]]
    pairs = [(p, q) for p, q in BIG_Q_CASES if len(p) == 3]
    pairs += [((1, 2, 0), (0, 1, 2)), ((3, 0, 0), (1, 1, 1)), ((0, 0, 2), (2, 0, 0)), ((1, 1, 1), (1, 1, 1))]
    pairs += [((12, 0, 14), (26, 0, 0)), ((0, 1, 0), (1, 0, 0))]
    want = {pair: permanent_glynn_multiplicity(rows, RepetitionPattern(*pair)).value for pair in pairs}
    (got,) = _repeated_permanents((rows, pairs))
    assert got == want and all(type(got[k]) is type(want[k]) for k in pairs)
    for pair in pairs[:3]:
        assert want[pair] == table_permanent(rows, *pair)


# `_multiplicity_residues` runs one pair on C with row i repeated p_i times,
# multiplied straight down the rows, and a batch on a table of each row's
# powers; both give 2^(|q| - 1) Per(C_{p,q}) mod each prime, pair for pair.
RESIDUE_CASES = {
    # the reach of rows 0 and 1 passes 2^52: per-prime rows on both paths
    "per-prime": (
        [[2**53 + 1, -3, 5], [7, 2**52 - 1, 1], [1, 2, 3]],
        [((2, 1, 1), (1, 2, 1)), ((1, 1, 2), (2, 1, 1)), ((3, 0, 1), (1, 1, 2))],
    ),
    # 48^30 is past 2^52: a per-prime power table in a batch, 30 shared copies alone
    "p-up-to-30": ([[1, -2], [3, 1]], [((30, 2), (16, 16)), ((2, 30), (30, 2)), ((1, 1), (2, 0))]),
    # row 0 and column 1 are zero; column 3 has no multiplicity in any pair
    "zero-rows-and-columns": (
        [[0, 0, 0, 0], [1, 0, 2, 5], [-3, 0, 1, 7], [2, 0, -1, 4]],
        [((0, 1, 1, 1), (1, 1, 1, 0)), ((1, 2, 0, 0), (2, 0, 1, 0)), ((0, 2, 1, 0), (1, 0, 2, 0)), ((0, 0, 2, 1), (3, 0, 0, 0))],
    ),
    "fraction": (
        [[Fraction(1, 2), -2, Fraction(3, 7)], [1, Fraction(-5, 3), 0], [2, 2, Fraction(1, 4)]],
        [((1, 1, 1), (1, 1, 1)), ((2, 0, 2), (1, 3, 0)), ((0, 3, 1), (2, 0, 2))],
    ),
    # with 2^2-point blocks, (2, 2, 1) reversed has blocks of 2 and 18 points: the half starts mid-block
    "mid-block": ([[2, -1, 3], [1, 4, -2], [-3, 1, 1]], [((1, 2, 2), (2, 2, 1)), ((2, 2, 1), (1, 2, 2)), ((1, 1, 1), (1, 1, 1))]),
}


@pytest.fixture
def fresh_residue_grids(fresh_grids):
    """`_residue_grid`'s cache emptied too, as it holds `_grid`'s split."""
    permanents._residue_grid.cache_clear()
    yield
    permanents._residue_grid.cache_clear()


@pytest.mark.parametrize("low_bits", [permanents._LOW_BITS, 2])
@pytest.mark.parametrize("case", sorted(RESIDUE_CASES))
def test_one_pair_and_batched_residues_agree(case, low_bits, monkeypatch, fresh_residue_grids):
    monkeypatch.setattr(permanents, "_LOW_BITS", low_bits)
    if low_bits == 2:
        # small chunks of pairs, and the block sums of a few outer points reduced at a time
        monkeypatch.setattr(permanents, "_SUMS_ENTRIES", 64)
    rows, pairs = RESIDUE_CASES[case]
    ints = permanents._integer_rows(rows)[1]
    primes = permanents._crt_primes(2**80)
    want = [[int(2 ** (sum(q) - 1) * table_permanent(ints, p, q)) % prime for prime in primes] for p, q in pairs]
    if case == "mid-block" and low_bits == 2:
        _, block, size, (_, x_high), _ = _grid(((1, 2, 2),))
        assert len(x_high) > 1 and (size + 1) // 2 % block
    splits = []
    row_groups = permanents._row_groups
    monkeypatch.setattr(permanents, "_row_groups", lambda bounds: splits.append(row_groups(bounds)) or splits[-1])
    # the whole batch (the table path), then each pair alone (the one-pair path)
    for batch in (pairs, *([pair] for pair in pairs)):
        got = permanents._multiplicity_residues(ints, np.array([p for p, _ in batch]), [q for _, q in batch], primes)
        assert got.tolist() == [want[pairs.index(pair)] for pair in batch], (case, batch)
    if case in ("per-prime", "p-up-to-30"):
        assert splits[0][2], "the batch has a per-prime row"
    if case == "per-prime":
        assert all(big for _, _, big in splits), "every call has a per-prime row"


MULTI_INDEX_PAIRS = st.integers(1, 3).flatmap(
    lambda m: st.tuples(
        st.lists(st.lists(ENTRIES, min_size=m, max_size=m), min_size=m, max_size=m),
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, m - 1), min_size=n, max_size=n),
                st.lists(st.integers(0, m - 1), min_size=n, max_size=n),
            )
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(MULTI_INDEX_PAIRS)
def test_exact_multiplicity_property_matches_table_and_naive(case):
    rows, (row_picks, col_picks) = case
    m = len(rows)
    p = tuple(row_picks.count(i) for i in range(m))
    q = tuple(col_picks.count(j) for j in range(m))
    got = permanent_glynn_multiplicity(rows, RepetitionPattern(p, q)).value
    want = permanent_naive(repeat_matrix(rows, RepetitionPattern(p, q))).value
    assert got == want and type(got) is type(want)
    assert got == table_permanent(rows, p, q)


def test_direct_contraction_only_for_weights_below_2_17():
    # a block's sum of up to 2^10 products of a factor below 2^25 and a weight
    # stays below 2^52 only for weights below 2^17; C(16, 8) = 12870, C(20, 10) = 184756
    primes = tuple(permanents._crt_primes(2**80))
    for qs, direct in ((((1,) * 12,), True), (((16,),), True), (((20,),), False), (((2, 2), (16, 1)), True), (((30, 2),), False)):
        assert permanents._residue_grid(qs, primes)[-1] is direct, qs


@pytest.mark.parametrize("a", [1, 2, 4, 5, 7])
def test_block_sums_of_weights_past_2_17_are_reduced_first(a):
    # q = (3, 30, 30): the low block is the last two columns, 961 points whose
    # weights C(30, u) C(30, v) enter as residues near 2^24, past the 2^17 of
    # the direct contraction.  Those columns are zero, so Per = 0 exactly,
    # while each block sums one factor times ~480 weight residues: summed
    # without reducing each product first, such sums pass 2^53 and round.
    rows = [[a, 0, 0], [a + 1, 0, 0], [2 * a - 1, 0, 0]]
    assert permanent_glynn_multiplicity(rows, RepetitionPattern((21, 21, 21), (3, 30, 30))).value == 0


@pytest.mark.parametrize("rows", [[[-3, -3], [1, -2]], [[0, -1], [2, 2]], [[3, 3], [-2, -3]], [[-2, 2], [-3, 1]]])
def test_weight_products_past_2_52_are_reduced_first(rows):
    # both columns of q = (30, 30) share the low block; C(30, 15)^2 > 2^52, so
    # the first column's weights become residues before the second multiplies them
    pattern = RepetitionPattern((30, 30), (30, 30))
    assert permanent_glynn_multiplicity(rows, pattern).value == table_permanent(rows, (30, 30), (30, 30))


def test_aligned_buffers_of_128_kib_start_on_64_bytes():
    for shape, dtype in (((18, 1024), np.complex128), ((16385,), np.float64), ((2, 9, 1024), np.float64), ((3, 5), np.float64)):
        buf = permanents._aligned(shape, dtype)
        assert buf.shape == shape and buf.dtype == dtype and buf.flags.c_contiguous
        assert buf.nbytes < 1 << 17 or buf.ctypes.data % 64 == 0


def test_repeated_rows_rejects_invalid_q_on_both_routes():
    for a in ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], np.eye(3)):
        for q in ((-1, 2, 2), (1.5, 1, 0.5), (True, 1, 1)):
            with pytest.raises(ValueError, match="multi-index components"):
                permanent_glynn_repeated_rows(a, q)


def test_balanced_residues_are_exact_at_the_float_limits():
    # x up to 2^52 - 1 with the rounding of x/p at its worst, near half-integers
    for p in (P1, permanents._crt_primes(2**2000)[-1]):
        top = (1 << 52) // p
        xs = [EDGE, EDGE - 1, 1, 0, p, (p - 1) // 2, (p + 1) // 2]
        xs += [j * p + h for j in (top - 1, top // 3) for h in ((p - 1) // 2, (p + 1) // 2)]
        xs += [-x for x in xs]
        assert all(abs(x) <= EDGE for x in xs)
        got = permanents._balanced(np.array(xs, dtype=np.float64), np.array([[float(p)]]))[0]
        for x, r in zip(xs, got.tolist()):
            want = x % p - p if x % p > p // 2 else x % p
            assert r == want and abs(r) <= (p - 1) // 2, (x, p)


def test_crt_primes_are_the_largest_primes_below_2_25():
    primes = permanents._crt_primes(2**1000)
    assert math.prod(primes) > 2**1000 >= math.prod(primes[:-1])
    assert primes == sorted(primes, reverse=True) and primes[0] < 1 << 25
    assert all(p % d for p in primes for d in range(2, math.isqrt(p) + 1))
    gaps = [n for a, b in zip(primes, primes[1:]) for n in range(b + 1, a)]
    assert not any(all(n % d for d in range(2, math.isqrt(n) + 1)) for n in gaps)
    assert permanents._crt_primes(0) == [] and permanents._crt_primes(1) == primes[:1]


def test_no_primes_at_import():
    code = (
        "import permkit.permanents as p; assert p._prime_below.cache_info().currsize == 0; "
        "p.permanent_ryser([[2]]); print(p._prime_below.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(permanents.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "1"


EXACT_ROUTES = {
    "naive": permanent_naive,
    "ryser": permanent_ryser,
    "glynn": permanent_glynn,
    "glynn-repeated-rows": lambda a: permanent_glynn_repeated_rows(a, (1,) * len(a)),
    "glynn-multiplicity": lambda a: permanent_glynn_multiplicity(a, RepetitionPattern.uniform(len(a))),
    "glynn-kan": permanent_glynn_kan,
    "cauchy-binet": lambda a: permanent_cauchy_binet(a, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], RepetitionPattern.uniform(3)),
}


def test_exact_routes_cover_the_algorithm_table():
    assert set(EXACT_ROUTES) == set(permanents.ALGORITHMS) - {"roots-of-unity", "glynn-kan-repeated"}


@pytest.mark.parametrize("route", EXACT_ROUTES)
@pytest.mark.parametrize(
    "rows, kind",
    [
        ([[1, 2, 0], [3, 4, 1], [0, 1, 1]], int),
        ([[True, 2, 0], [3, 4, 1], [0, 1, 1]], int),
        ([[Fraction(1), 2, 0], [3, 4, 1], [0, 1, 1]], Fraction),
        ([[1, 2, 0], [3, 4, 1], [0, 1, Fraction(1, 2)]], Fraction),
    ],
    ids=["int", "bool", "integral-fraction", "fraction"],
)
def test_exact_result_is_a_fraction_iff_an_entry_is(route, rows, kind):
    got = EXACT_ROUTES[route](rows).value
    assert type(got) is kind
    assert got == permanent_naive(rows).value


def test_exact_ryser_prices_its_primes_by_the_absolute_row_sums(monkeypatch):
    # Ryser's own bound prod_i max(sum_j |c_ij|, 1), not the reach of [C 1 | C]
    asked = []
    crt_primes = permanents._crt_primes
    monkeypatch.setattr(permanents, "_crt_primes", lambda bound: asked.append(bound) or crt_primes(bound))
    for name, rows in RYSER_CASES.items():
        asked.clear()
        permanent_ryser(rows)
        if not rows or len(rows) != len(rows[0]):
            assert asked == [], name
            continue
        ints = permanents._integer_rows(rows)[1]
        assert asked == [2 * math.prod(max(sum(map(abs, row)), 1) for row in ints)], name


@pytest.fixture
def checked_balanced(monkeypatch):
    """`_balanced` asserting its stated precondition, integer-valued float64 |x| < 2^52; counts its calls."""
    calls = []
    balanced = permanents._balanced

    def checked(x, primes):
        assert np.all(np.abs(x) < 2.0**52) and np.array_equal(x, np.rint(x))
        calls.append(x.size)
        return balanced(x, primes)

    monkeypatch.setattr(permanents, "_balanced", checked)
    return calls


@pytest.mark.parametrize("name", RYSER_CASES)
def test_exact_routes_keep_balanced_within_its_precondition(name, checked_balanced):
    rows = RYSER_CASES[name]
    if not rows or len(rows) != len(rows[0]):
        return
    want = permanent_naive(rows).value
    for route in ("ryser", "glynn", "glynn-repeated-rows", "glynn-multiplicity"):
        assert EXACT_ROUTES[route](rows).value == want
    p, q = _pattern_for(len(rows))
    permanent_glynn_multiplicity(rows, RepetitionPattern(p, q))
    assert checked_balanced


@pytest.mark.parametrize("p, q", BIG_Q_CASES, ids=[f"{p}-{q}" for p, q in BIG_Q_CASES])
def test_big_q_keeps_balanced_within_its_precondition(p, q, checked_balanced):
    m = len(p)
    rows = rng.generator(1500 + sum(q) + m).integers(-3, 4, size=(m, m)).tolist()
    for a in (rows, [[v * 10**9 + 1 for v in r] for r in rows], [[Fraction(v, 3) for v in r] for r in rows]):
        got = permanent_glynn_multiplicity(a, RepetitionPattern(p, q)).value
        assert got == table_permanent(a, p, q)
    assert checked_balanced


ALL_ROUTES = {
    **EXACT_ROUTES,
    "roots-of-unity": lambda a: permanent_roots_of_unity(a, RepetitionPattern.uniform(len(a))),
    "glynn-kan-repeated": lambda a: permanent_glynn_kan_repeated(a, RepetitionPattern.uniform(len(a))),
}


@pytest.mark.parametrize("route", ALL_ROUTES)
@pytest.mark.parametrize(
    "rows",
    [[[1, 2, 0], [3, 4, 1], [0, 1, -2]], [[1, 2, 0], [3, Fraction(1, 3), 1], [0, 1, -2]]],
    ids=["int", "fraction"],
)
def test_object_array_equals_nested_rows(route, rows):
    assert set(ALL_ROUTES) == set(permanents.ALGORITHMS)
    want = ALL_ROUTES[route](rows).value
    got = ALL_ROUTES[route](np.array(rows, dtype=object)).value
    assert type(got) is type(want) and got == want


def test_object_array_exactness_in_repeat_matrix():
    rows = [[1, 2], [3, Fraction(1, 3)]]
    pat = RepetitionPattern((2, 0), (1, 1))
    got = repeat_matrix(np.array(rows, dtype=object), pat)
    assert type(got) is tuple and got == repeat_matrix(rows, pat) == ((1, 2), (1, 2))
    # an object array holding a float is float input
    floats = np.array([[1, 2], [3, 1.5]], dtype=object)
    assert repeat_matrix(floats, pat).dtype == np.complex128
    assert permanent_ryser(floats).value == permanent_naive(floats).value == 7.5 + 0j


# Float accuracy against the exact value: every float64 is a dyadic rational,
# so exact Ryser on Fraction(x) entries is the true permanent of the float
# matrix.  The a-priori scale of the rounding error is n * 2^-52 * B with
# B = prod_i sum_j |a_ij| >= |Per|.


@pytest.mark.parametrize("n", (8, 10, 12))
def test_float_error_within_the_a_priori_bound(n):
    a = rng.generator(1300 + n).uniform(-1.0, 1.0, size=(n, n))
    exact = [[Fraction(float(x)) for x in row] for row in a]
    want = permanent_ryser(exact).value
    assert permanent_glynn(exact).value == want
    bound = n * Fraction(2) ** -52 * math.prod(sum(abs(v) for v in row) for row in exact)
    for kernel in (permanent_glynn, permanent_ryser):
        got = kernel(a).value
        assert got.imag == 0
        assert abs(Fraction(got.real) - want) <= bound, kernel.__name__


# The rule table of `permanents._entry`, which every formula starts from: the
# permanent wherever no sum is needed, its ring, its term count and warnings.
PLAIN_ALGOS = ("naive", "ryser", "glynn", "glynn-kan")
NUMERIC_ONLY = ("roots-of-unity", "glynn-kan-repeated")
INPUT_FORMS = ("list", "object", "float")
SHAPE_MESSAGE = "^pattern length must equal the square matrix dimension$"


def _form(form, rows, ncols):
    if form == "list":
        return [list(r) for r in rows]
    return np.array(rows, dtype=object if form == "object" else float).reshape(len(rows), ncols)


def _call(algo, a, pattern, b=None):
    """ALGORITHMS[algo] on a (and on b for Cauchy-Binet, a by default), with the
    WeightMismatchWarnings it gave; repeated-row Glynn takes the pattern's rows."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f = permanents.ALGORITHMS[algo]
        if algo in PLAIN_ALGOS:
            res = f(a)
        elif algo == "glynn-repeated-rows":
            res = f(a, pattern.rows)
        elif algo == "cauchy-binet":
            res = f(a, a if b is None else b, pattern)
        else:
            res = f(a, pattern)
    return res, sum(issubclass(w.category, WeightMismatchWarning) for w in caught)


def _assert_result(res, value, kind, terms):
    assert res.value == value and type(res.value) is kind and res.term_count == terms


@pytest.mark.parametrize("form", INPUT_FORMS + ("ndarray-zeros",))
@pytest.mark.parametrize("algo", permanents.ALGORITHMS)
def test_empty_matrix_is_the_exact_one_for_every_formula(algo, form):
    a = np.zeros((0, 0)) if form == "ndarray-zeros" else _form(form, [], 0)
    res, warned = _call(algo, a, RepetitionPattern((), ()))
    _assert_result(res, 1, int, 1)
    assert warned == 0


@pytest.mark.parametrize("form", INPUT_FORMS)
@pytest.mark.parametrize("algo", PLAIN_ALGOS)
def test_plain_formulas_on_a_rectangular_matrix_give_zero(algo, form):
    for rows, ncols in (([[1, 2, 3], [4, 5, 6]], 3), ([[1], [2]], 1)):
        res, warned = _call(algo, _form(form, rows, ncols), None)
        _assert_result(res, 0, complex if form == "float" else int, 0)
        assert warned == 0


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
@pytest.mark.parametrize("algo", permanents.ALGORITHMS)
def test_empty_object_arrays_keep_their_width(algo, shape):
    # an object array with no rows is 0 x 3, not the 0 x 0 matrix
    a = np.empty(shape, dtype=object)
    if algo in PLAIN_ALGOS:
        res, warned = _call(algo, a, None)
        _assert_result(res, 0, int, 0)
        assert warned == 0
    else:
        with pytest.raises(DimensionMismatch, match=SHAPE_MESSAGE):
            _call(algo, a, RepetitionPattern((0, 0, 0), (0, 0, 0)))


PATTERN_ALGOS = [algo for algo in permanents.ALGORITHMS if algo not in PLAIN_ALGOS]


@pytest.mark.parametrize("form", INPUT_FORMS)
@pytest.mark.parametrize("algo", PATTERN_ALGOS)
def test_pattern_formulas_follow_the_rule_table(algo, form):
    kind = complex if form == "float" or algo in NUMERIC_ONLY else int
    square = _form(form, [[1, 2], [3, 4]], 2)
    # |p| != |q|: a rectangular repetition, 0 with 0 terms and one warning
    res, warned = _call(algo, square, RepetitionPattern((2, 1), (1, 1)))
    _assert_result(res, 0, kind, 0)
    assert warned == 1
    # |p| = 0: the empty repetition, 1 with 1 term (repeated-row Glynn has |q| = m)
    if algo != "glynn-repeated-rows":
        res, warned = _call(algo, square, RepetitionPattern((0, 0), (0, 0)))
        _assert_result(res, 1, kind, 1)
        assert warned == 0
    # a non-square matrix, or a pattern whose length is not m
    for a, pattern in (
        (_form(form, [[1, 2], [3, 4], [5, 6]], 2), RepetitionPattern((1, 1), (1, 1))),
        (_form(form, [[1, 2], [3, 4]], 2), RepetitionPattern((1, 1, 0), (1, 1, 0))),
    ):
        with pytest.raises(DimensionMismatch, match=SHAPE_MESSAGE):
            _call(algo, a, pattern)


@pytest.mark.parametrize("forms", [("list", "float"), ("float", "object"), ("object", "list")])
def test_cauchy_binet_is_exact_only_when_both_matrices_are(forms):
    a, b = (_form(form, [[1, 2], [3, 4]], 2) for form in forms)
    kind = complex if "float" in forms else int
    res, warned = _call("cauchy-binet", a, RepetitionPattern((2, 1), (1, 1)), b)
    _assert_result(res, 0, kind, 0)
    assert warned == 1
    res, warned = _call("cauchy-binet", a, RepetitionPattern((0, 0), (0, 0)), b)
    _assert_result(res, 1, kind, 1)
    assert warned == 0
    res, _ = _call("cauchy-binet", a, RepetitionPattern((1, 1), (1, 1)), b)
    # Per(AB) for AB = [[7, 10], [15, 22]]
    assert type(res.value) is kind and abs(res.value - 304) <= 1e-9
    empty_a, empty_b = (_form(form, [], 0) for form in forms)
    res, _ = _call("cauchy-binet", empty_a, RepetitionPattern((), ()), empty_b)
    _assert_result(res, 1, int, 1)
    # B's shape goes through the same rule, with no second warning
    for bad in (_form(forms[1], [[1, 2, 3], [4, 5, 6]], 3), _form(forms[1], [[1]], 1)):
        with pytest.raises(DimensionMismatch, match=SHAPE_MESSAGE):
            _call("cauchy-binet", a, RepetitionPattern((2, 1), (1, 1)), bad)


@pytest.mark.parametrize("algo", permanents.ALGORITHMS)
def test_float_input_gives_a_python_complex_for_every_formula(algo):
    for a in (np.eye(3), rng.unit_disk_matrix(3, 990)):
        res, _ = _call(algo, a, RepetitionPattern((2, 1, 0), (1, 1, 1)))
        assert type(res.value) is complex, (algo, type(res.value))
