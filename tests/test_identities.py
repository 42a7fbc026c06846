import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import permkit.identities as ident
import permkit.permanents as permanents
from permkit import rng
from permkit.combinatorics import RepetitionPattern, repeat_matrix
from permkit.errors import DimensionMismatch, OddDimension, TooLarge, WeightMismatch
from permkit.identities import (
    DIXON_MATRIX,
    GENERATING_CHOICES,
    IDENTITY_REGISTRY,
    IdentityReport,
    run_battery,
    s_n,
    verify_corollary_rank_one,
    verify_dixon,
    verify_even_matrix,
    verify_generating_function,
    verify_laplace,
    verify_macmahon,
    verify_mmmt_n,
    verify_mmmt_two,
    verify_monomial_glynn,
    verify_sn_identity,
    verify_sum_formula,
    verify_sum_of_permanents,
    verify_tmss_overlap,
)
from permkit.permanents import permanent_naive
from permkit.numerics import scaled_error
from permkit.series import COMPLEX, RATIONAL, TruncatedSeries

from oracles import leibniz_determinant, one_by_one_errors


class TestMacMahon:
    def test_zero_matrix(self):
        r = verify_macmahon(np.zeros((2, 2)), 2)
        assert r.passed and r.max_abs_error == 0.0

    def test_dixon_exact_moderate_caps(self):
        r = verify_macmahon(DIXON_MATRIX, 4, tolerance=0.0)
        assert r.passed and r.max_abs_error == 0.0 and r.ring == RATIONAL

    @pytest.mark.parametrize("seed", range(3))
    def test_random_complex(self, seed):
        r = verify_macmahon(rng.unit_disk_matrix(3, 100 + seed), 3)
        assert r.passed and r.max_abs_error <= 1e-8
        assert r.num_coefficients_checked == 64


class TestDixon:
    def test_exact_n_to_4(self):
        r = verify_dixon(4)
        assert r.passed and r.max_abs_error == 0.0

    def test_binomial_sum_values(self):
        # Alternating cube sums behind the identity, frozen by direct evaluation.
        for n, expected in [(1, -6), (2, 90), (3, -1680), (4, 34650)]:
            got = sum((-1) ** k * math.comb(2 * n, k) ** 3 for k in range(2 * n + 1))
            assert got == expected
            assert got == (-1) ** n * math.factorial(3 * n) // math.factorial(n) ** 3

    def test_permanent_cross_check(self):
        # Per(A_{(2,2,2),(2,2,2)}) for the cyclic sign matrix equals (2!)^3 * (-6).
        rep = repeat_matrix(DIXON_MATRIX, RepetitionPattern((2, 2, 2), (2, 2, 2)))
        assert permanent_naive(rep).value == 8 * -6


class TestMmmtTwo:
    def test_random_pair(self):
        a, b = rng.unit_disk_matrix(2, 1), rng.unit_disk_matrix(2, 2)
        r = verify_mmmt_two(a, b, 2)
        assert r.passed and r.max_abs_error <= 1e-8

    def test_reduction_b_identity(self):
        a = rng.unit_disk_matrix(2, 3)
        assert verify_mmmt_two(a, np.eye(2), 2).passed

    def test_reduction_b_all_ones(self):
        a = rng.unit_disk_matrix(2, 4)
        assert verify_mmmt_two(a, np.ones((2, 2)), 2).passed

    def test_exact_integers(self):
        a = ((1, 2), (0, 1))
        b = ((1, 1), (1, 3))
        r = verify_mmmt_two(a, b, 2, tolerance=0.0)
        assert r.passed and r.max_abs_error == 0.0 and r.ring == RATIONAL

    def test_all_ones_rhs_is_rank_one_geometric(self):
        # With B all-ones the determinant collapses to 1 - x^T A y.
        a = rng.unit_disk_matrix(2, 5)
        caps = (2, 2, 2, 2)
        rhs = ident._n_matrix_rhs([a, np.ones((2, 2))], COMPLEX, caps)
        w = ident._xtay_series(a, COMPLEX, caps)
        geom = (ident.TruncatedSeries.one(caps, COMPLEX) - w).inverse()
        diff = max(abs(x - y) for x, y in zip(rhs.coeffs, geom.coeffs))
        assert diff <= 1e-10


@pytest.mark.parametrize(
    "verify",
    [lambda a: verify_macmahon(a, 2, 0.0), lambda a: verify_mmmt_two(a, ((1, 1), (Fraction(1, 2), 3)), 2, 0.0)],
    ids=["macmahon", "mmmt-two"],
)
def test_object_array_is_verified_exactly(verify):
    rows = ((1, Fraction(1, 2)), (-1, 3))
    got = verify(np.array(rows, dtype=object))
    assert got == verify(rows)
    assert got.ring == RATIONAL and got.passed and got.max_abs_error == 0.0


class TestMmmtN:
    def test_three_matrices(self):
        mats = [rng.unit_disk_matrix(2, 10 + k) for k in range(3)]
        r = verify_mmmt_n(mats, 1)
        assert r.passed and r.max_abs_error <= 1e-8

    def test_identity_tail_reduces_to_n2(self):
        # A chain ending in the identity matrix adds a factor delta_{p3,p1}/p3!,
        # so the check still closes against the same determinant.
        mats = [rng.unit_disk_matrix(2, 22), rng.unit_disk_matrix(2, 23), np.eye(2)]
        assert verify_mmmt_n(mats, 1).passed

    def test_needs_two(self):
        with pytest.raises(ValueError):
            verify_mmmt_n([np.eye(2)], 1)


class TestCorollaryRankOne:
    def test_weight_zero(self):
        r = verify_corollary_rank_one(rng.unit_disk_matrix(2, 30), (0, 0), (0, 0))
        assert r.passed

    def test_all_ones_two(self):
        r = verify_corollary_rank_one(np.ones((2, 2)), (1, 1), (1, 1))
        assert r.passed
        rep = permanent_naive(np.ones((2, 2))).value
        assert rep == pytest.approx(2.0)

    def test_random(self):
        r = verify_corollary_rank_one(rng.unit_disk_matrix(3, 31), (2, 1, 0), (1, 1, 1))
        assert r.passed and r.max_abs_error <= 1e-8

    def test_weight_mismatch(self):
        with pytest.raises(WeightMismatch):
            verify_corollary_rank_one(np.eye(2), (1, 0), (1, 1))


class TestGeneratingFunctions:
    def test_exp_zero_matrix(self):
        r = verify_generating_function(np.zeros((2, 2)), "exp", 2)
        assert r.passed and r.max_abs_error == 0.0

    @pytest.mark.parametrize("f", ["exp", "geom", "log"])
    def test_random(self, f):
        r = verify_generating_function(rng.unit_disk_matrix(2, 40), f, 2)
        assert r.passed and r.max_abs_error <= 1e-8

    def test_pow_matches_corollary(self):
        a = rng.unit_disk_matrix(2, 41)
        assert verify_generating_function(a, "pow", 2, power=2).passed
        assert verify_corollary_rank_one(a, (1, 1), (2, 0)).passed

    def test_pow_needs_power(self):
        with pytest.raises(ValueError):
            verify_generating_function(np.eye(2), "pow", 2)


class TestMonomial:
    def test_weight_zero_row_pattern(self):
        r = verify_monomial_glynn(rng.unit_disk_matrix(2, 50), (0, 0), 2)
        assert r.passed

    def test_identity_matrix(self):
        r = verify_monomial_glynn(np.eye(3), (1, 2, 0), 3)
        assert r.passed and r.max_abs_error <= 1e-12

    def test_random(self):
        r = verify_monomial_glynn(rng.unit_disk_matrix(3, 51), (1, 2, 0), 3)
        assert r.passed and r.max_abs_error <= 1e-8

    def test_complex_cap_past_float64_factorials(self):
        # 171! overflows float64: that coefficient's divisor is inf and it reads 0
        r = verify_monomial_glynn(rng.unit_disk_matrix(1, 1), (1,), 171)
        assert r.passed and r.max_abs_error == 0.0 and r.num_coefficients_checked == 172


class TestSumFormula:
    def test_zero_b(self):
        a = rng.unit_disk_matrix(2, 60)
        r = verify_sum_formula(a, np.zeros((2, 2)), RepetitionPattern((1, 1), (1, 1)))
        assert r.passed

    def test_equal_matrices(self):
        a = rng.unit_disk_matrix(2, 61)
        pat = RepetitionPattern((1, 1), (1, 1))
        assert verify_sum_formula(a, a, pat).passed
        doubled = permanent_naive(2 * a).value
        assert abs(doubled - 4 * permanent_naive(a).value) <= 1e-10 * abs(doubled)

    def test_random(self):
        a, b = rng.unit_disk_matrix(3, 62), rng.unit_disk_matrix(3, 63)
        r = verify_sum_formula(a, b, RepetitionPattern((1, 1, 1), (1, 1, 1)))
        assert r.passed and r.max_abs_error <= 1e-8


class TestLaplace:
    def test_k_zero_degenerate(self):
        a = rng.unit_disk_matrix(2, 70)
        assert verify_laplace(a, RepetitionPattern((1, 1), (1, 1)), 0).passed

    def test_three_by_three(self):
        a = rng.unit_disk_matrix(3, 71)
        r = verify_laplace(a, RepetitionPattern((1, 1, 1), (1, 1, 1)), 1)
        assert r.passed and r.max_abs_error <= 1e-8

    def test_doubled_pattern(self):
        a = rng.unit_disk_matrix(2, 72)
        r = verify_laplace(a, RepetitionPattern((2, 2), (2, 2)), 2)
        assert r.passed and r.max_abs_error <= 1e-8


class TestSumOfPermanents:
    def test_n1_reduces_to_sum_formula(self):
        a, b = rng.unit_disk_matrix(2, 80), rng.unit_disk_matrix(2, 81)
        r = verify_sum_of_permanents(a, b, RepetitionPattern((1, 0), (0, 1)))
        assert r.passed

    def test_unit_pattern_special_case(self):
        a, b = rng.unit_disk_matrix(3, 82), rng.unit_disk_matrix(3, 83)
        r = verify_sum_of_permanents(a, b, RepetitionPattern((1, 1, 1), (1, 1, 1)))
        assert r.passed and r.max_abs_error <= 1e-8

    def test_mixed_pattern(self):
        a, b = rng.unit_disk_matrix(2, 84), rng.unit_disk_matrix(2, 85)
        r = verify_sum_of_permanents(a, b, RepetitionPattern((2, 1), (1, 2)))
        assert r.passed and r.max_abs_error <= 1e-8

    def test_weight_mismatch(self):
        with pytest.raises(WeightMismatch):
            verify_sum_of_permanents(np.eye(2), np.eye(2), RepetitionPattern((1, 1), (1, 0)))


class TestEvenMatrix:
    def test_identity_two_by_two(self):
        r = verify_even_matrix(np.eye(2), "single")
        assert r.passed and r.max_abs_error <= 1e-12

    def test_single_random(self):
        r = verify_even_matrix(rng.unit_disk_matrix(4, 90), "single", tolerance=1e-7)
        assert r.passed and r.max_abs_error <= 1e-7

    def test_full_random(self):
        r = verify_even_matrix(rng.unit_disk_matrix(4, 91), "full", 2)
        assert r.passed and r.max_abs_error <= 1e-8

    def test_block_diagonal_factorization(self):
        # For M = A (+) B the doubly-repeated permanents factor into the
        # two-matrix product form.
        a, b = rng.unit_disk_matrix(2, 92), rng.unit_disk_matrix(2, 93)
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2] = a
        block[2:, 2:] = b
        assert verify_even_matrix(block, "full", 2).passed
        for p in [(1, 0), (1, 1), (2, 1)]:
            for q in [(0, 1), (1, 1), (1, 2)]:
                lhs = permanent_naive(repeat_matrix(block, RepetitionPattern(p + p, q + q))).value
                rhs = (
                    permanent_naive(repeat_matrix(a, RepetitionPattern(p, q))).value
                    * permanent_naive(repeat_matrix(b, RepetitionPattern(p, q))).value
                )
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_odd_dimension(self):
        with pytest.raises(OddDimension):
            verify_even_matrix(np.eye(3), "single")

    @pytest.mark.parametrize("mode", ["single", "full"])
    def test_nested_exact_input_matches_array(self, mode):
        rows = [[Fraction(1, 2), 1, 0, Fraction(-1, 3)], [0, 1, 1, 0], [1, 0, Fraction(2, 3), 1], [1, 1, 0, 1]]
        as_array = np.array([[complex(v) for v in row] for row in rows])
        assert verify_even_matrix(rows, mode) == verify_even_matrix(as_array, mode)
        with pytest.raises(OddDimension):
            verify_even_matrix([[1, 2, 3]] * 3, mode)


class TestTmssOverlap:
    def test_zero_amplitudes(self):
        r = verify_tmss_overlap(rng.haar_unitary(2, 95), [0.0], [0.0], trunc=0)
        assert r.passed and r.max_abs_error <= 1e-12

    def test_haar_02(self):
        r = verify_tmss_overlap(rng.haar_unitary(2, 96), [0.2], [0.2], trunc=8, tolerance=1e-6)
        assert r.passed and r.max_abs_error <= 1e-6
        assert r.tail_bound is not None and r.tail_bound < 1e-6

    def test_identity_closed_form(self):
        lam, mu = 0.3, 0.25
        r = verify_tmss_overlap(np.eye(2), [lam], [mu], trunc=9, tolerance=1e-9)
        assert r.passed
        # the overlap itself collapses to the geometric product 1/(1 - lam*mu)
        assert abs(1 / np.sqrt(np.linalg.det(np.eye(2) - _v(lam) @ np.eye(2) @ _v(mu))) - 1 / (1 - lam * mu)) < 1e-12

    def test_amplitude_guard(self):
        from permkit.errors import AmplitudeOutOfRange

        with pytest.raises(AmplitudeOutOfRange):
            verify_tmss_overlap(np.eye(2), [1.0], [0.2], trunc=2)

    def test_budget_guard(self):
        # sum_{k <= 320} (k + 1)^2 sign-sum terms for the pairs (k, k), (k, k)
        with pytest.raises(TooLarge):
            verify_tmss_overlap(np.eye(2), [0.1], [0.1], trunc=320)

    def test_former_budget_case_runs(self):
        r = verify_tmss_overlap(rng.haar_unitary(2, 97), [0.1], [0.1], trunc=12, tolerance=1e-9)
        assert r.passed and r.tail_bound < 1e-9


def _v(w):
    return np.array([[0, w], [w, 0]], dtype=complex)


class TestSn:
    def test_n1_unit(self):
        assert s_n(1, Fraction(1), Fraction(1)) == 2 == math.comb(2, 1)
        assert verify_sn_identity(1, 1, 1).passed

    def test_n2_mixed(self):
        assert verify_sn_identity(1, 2, 2).passed

    def test_n5_negative(self):
        assert verify_sn_identity(3, -1, 5).passed

    def test_permanent_route(self):
        # Per of the doubly repeated 2x2 [[1,a],[1,b]] equals (n!)^2 S_n(a,b).
        for n, a, b in [(1, 2, 3), (2, 1, -2), (3, Fraction(1, 2), 2)]:
            mat = ((1, a), (1, b))
            rep = repeat_matrix(mat, RepetitionPattern((n, n), (n, n)))
            assert permanent_naive(rep).value == math.factorial(n) ** 2 * s_n(n, a, b)


class TestRegistry:
    def test_every_verifier_is_registered(self):
        verifier_names = {
            "verify_macmahon": "macmahon",
            "verify_dixon": "dixon",
            "verify_mmmt_two": "mmmt-two",
            "verify_mmmt_n": "mmmt-n",
            "verify_corollary_rank_one": "corollary-rank-one",
            "verify_generating_function": "generating-exp",
            "verify_monomial_glynn": "monomial",
            "verify_sum_formula": "sum-formula",
            "verify_laplace": "laplace",
            "verify_sum_of_permanents": "sum-of-permanents",
            "verify_even_matrix": "even-single",
            "verify_tmss_overlap": "tmss-overlap",
            "verify_sn_identity": "sn",
        }
        module_verifiers = {name for name in dir(ident) if name.startswith("verify_")}
        assert module_verifiers == set(verifier_names)
        for registry_name in verifier_names.values():
            assert registry_name in IDENTITY_REGISTRY
        # both modes of the even-matrix identity are registered
        assert "even-full" in IDENTITY_REGISTRY
        # every generating-function choice is registered
        for f in ("exp", "geom", "pow", "log"):
            assert f"generating-{f}" in IDENTITY_REGISTRY

    def test_run_battery_order_and_passing(self):
        reports = run_battery(["sn", "dixon"], seed=5)
        assert [r.identity_name for r in reports] == ["sn", "sn", "dixon"]
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize(
        "name, overrides",
        [("dixon", {"cap": 99}), ("sn", {"matrix": np.eye(2)}), ("macmahon", {"rows": (1, 1, 1)})],
    )
    def test_run_battery_rejects_unread_override(self, name, overrides):
        with pytest.raises(ValueError, match=next(iter(overrides))):
            run_battery([name], seed=5, **overrides)

    def test_run_battery_reads_declared_overrides(self):
        reports = run_battery(["macmahon"], seed=5, matrix=rng.unit_disk_matrix(2, 3), cap=3)
        assert reports[0].caps_used == (3, 3)
        assert all(r.passed for r in reports)

    def test_full_battery(self):
        reports = run_battery(seed=11)
        assert all(isinstance(r, IdentityReport) for r in reports)
        assert all(r.passed for r in reports)
        names = {r.identity_name for r in reports}
        assert names == set(IDENTITY_REGISTRY)


@pytest.mark.parametrize("seed", range(20))
def test_randomized_battery_sweep(seed):
    """Spec-level invariant: randomized instances pass at 1e-7 (float) / exactly (rational)."""
    base = 1000 + 37 * seed
    a2 = rng.unit_disk_matrix(2, base)
    b2 = rng.unit_disk_matrix(2, base + 1)
    a3 = rng.unit_disk_matrix(3, base + 2)
    b3 = rng.unit_disk_matrix(3, base + 3)
    tol = 1e-7
    assert verify_macmahon(a3, 2, tol).passed
    assert verify_mmmt_two(a2, b2, 2, tol).passed
    assert verify_mmmt_n([a2, b2, rng.unit_disk_matrix(2, base + 4)], 1, tol).passed
    assert verify_corollary_rank_one(a3, (1, 1, 0), (0, 1, 1), tol).passed
    for f in ("exp", "geom", "log"):
        assert verify_generating_function(a2, f, 2, tol).passed
    assert verify_generating_function(a2, "pow", 2, tol, power=2).passed
    assert verify_monomial_glynn(a3, (2, 0, 1), 3, tol).passed
    pat3 = RepetitionPattern((1, 1, 1), (1, 1, 1))
    assert verify_sum_formula(a3, b3, pat3, tol).passed
    assert verify_laplace(a3, pat3, 1, tol).passed
    assert verify_sum_of_permanents(a3, b3, pat3, tol).passed
    assert verify_even_matrix(rng.unit_disk_matrix(4, base + 5), "single", tolerance=tol).passed
    assert verify_even_matrix(rng.unit_disk_matrix(4, base + 6), "full", 2, tol).passed
    g = rng.generator(base + 7)
    lam = [complex(0.25 * g.random(), 0.25 * g.random()) for _ in range(2)]
    mu = [complex(0.25 * g.random(), 0.25 * g.random()) for _ in range(2)]
    assert verify_tmss_overlap(rng.haar_unitary(4, base + 8), lam, mu, trunc=3, tolerance=1e-3).passed
    num = int(g.integers(-6, 7))
    den = int(g.integers(1, 5))
    assert verify_sn_identity(Fraction(num, den), Fraction(den, 3), 4).passed


ONE = RepetitionPattern((1,), (1,))


class TestSquareMatrices:
    """Every matrix verifier rejects a non-square matrix in any input form."""

    @pytest.mark.parametrize(
        "mat",
        [[[1, 2]], np.array([[1, 2]], dtype=object), np.array([[1.0, 2.0]]), [[]]],
        ids=["nested", "object", "float", "empty-row"],
    )
    @pytest.mark.parametrize(
        "run",
        [
            lambda a: verify_macmahon(a, 1),
            lambda a: verify_mmmt_two(a, a, 1),
            lambda a: verify_mmmt_n([a, a], 1),
            lambda a: verify_corollary_rank_one(a, (1,), (1,)),
            lambda a: verify_generating_function(a, "exp", 1),
            lambda a: verify_monomial_glynn(a, (1,), 1),
            lambda a: verify_sum_formula(a, a, ONE),
            lambda a: verify_laplace(a, ONE, 0),
            lambda a: verify_sum_of_permanents(a, a, ONE),
            lambda a: verify_even_matrix(a, "single"),
            lambda a: verify_even_matrix(a, "full", 1),
        ],
        ids=[
            "macmahon", "mmmt-two", "mmmt-n", "corollary", "generating", "monomial",
            "sum-formula", "laplace", "sum-of-permanents", "even-single", "even-full",
        ],
    )
    def test_non_square_raises_dimension_mismatch(self, run, mat):
        with pytest.raises(DimensionMismatch, match="square"):
            run(mat)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_object_array_is_not_square(self, shape):
        # an object array with no rows (or no columns) keeps its shape
        with pytest.raises(DimensionMismatch, match="square"):
            ident._normalize(np.empty(shape, dtype=object))


class TestPatternLengths:
    """A pattern whose length does not fit the matrix raises DimensionMismatch:
    from `_repeated_permanents`, or from the monomial verifier itself."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda a, p: verify_monomial_glynn(a, p, 2),
            lambda a, p: verify_corollary_rank_one(a, p, p),
            lambda a, p: verify_sum_formula(a, a, RepetitionPattern(p, p)),
            lambda a, p: verify_laplace(a, RepetitionPattern(p, p), 1),
            lambda a, p: verify_sum_of_permanents(a, a, RepetitionPattern(p, p)),
        ],
        ids=["monomial", "corollary", "sum-formula", "laplace", "sum-of-permanents"],
    )
    @pytest.mark.parametrize("p", [(1,), (1, 2, 3), (1, 1, 1, 1)])
    def test_wrong_length_raises_dimension_mismatch(self, run, p):
        with pytest.raises(DimensionMismatch, match="fit a 2 x 2 matrix"):
            run(rng.unit_disk_matrix(2, 5), p)


class TestOracleLimitBeforeSeriesWork:
    """Verifiers whose permanent side needs more than TERM_BUDGET sign-sum
    terms, prod_j (q_j + 1) per pair (p, q), raise TooLarge before building
    any series."""

    @pytest.fixture(autouse=True)
    def no_series(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("series work started")

        for name in ("_det_side", "_xtay_series", "_form_power", "_monomial_table"):
            monkeypatch.setattr(ident, name, fail)

    @pytest.mark.parametrize(
        "run",
        [
            # 66^4 terms over the pairs (p, p), p <= (10, 10, 10, 10)
            lambda: verify_macmahon(rng.unit_disk_matrix(4, 1), 10),
            # three tables of sum_{k <= 3000} (k + 1) terms
            lambda: verify_mmmt_two(rng.unit_disk_matrix(1, 1), rng.unit_disk_matrix(1, 2), 3000),
            lambda: verify_generating_function(rng.unit_disk_matrix(1, 1), "log", 5000),
            lambda: verify_corollary_rank_one(rng.unit_disk_matrix(4, 1), (60,) * 4, (60,) * 4),
            lambda: verify_monomial_glynn(rng.unit_disk_matrix(2, 1), (200, 200), 400),
            lambda: verify_even_matrix(rng.unit_disk_matrix(2, 1), "full", 320),
            lambda: verify_even_matrix(rng.unit_disk_matrix(12, 1), "single"),
        ],
        ids=["macmahon", "mmmt-two", "generating", "corollary", "monomial", "even-full", "even-single"],
    )
    def test_raises_before_series(self, run):
        with pytest.raises(TooLarge):
            run()

    def test_macmahon_prices_before_listing_exponents(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("exponents listed")

        monkeypatch.setattr(ident, "_sub_indices", fail)
        # 6^12 terms, priced before the 3^12 exponents would be listed
        with pytest.raises(TooLarge, match=f"needs {6**12} terms"):
            verify_macmahon(rng.unit_disk_matrix(12, 1), 2)

    @pytest.mark.parametrize(
        "run, terms",
        [
            (lambda: verify_mmmt_two(rng.unit_disk_matrix(7, 1), rng.unit_disk_matrix(7, 2), 2), 178468056),
            (lambda: verify_generating_function(rng.unit_disk_matrix(6, 1), "exp", 3), 312229425),
            (lambda: verify_generating_function(rng.unit_disk_matrix(6, 1), "pow", 3, power=9), 42676400),
            (lambda: verify_even_matrix(rng.unit_disk_matrix(12, 1), "full", 2), 341364446),
            (lambda: verify_monomial_glynn(rng.unit_disk_matrix(3, 1), (150, 0, 0), 150), 698526906),
        ],
        ids=["mmmt-two", "generating-exp", "generating-pow", "even-full", "monomial"],
    )
    def test_table_verifiers_price_before_listing_exponents(self, monkeypatch, run, terms):
        # the counts are those that pricing the listed pairs gives
        def fail(*args, **kwargs):
            raise AssertionError("exponents listed")

        monkeypatch.setattr(ident, "_sub_indices", fail)
        with pytest.raises(TooLarge, match=f"^permanent side needs {terms} terms; the budget is 10000000$"):
            run()

    def test_exact_macmahon_above_the_limit_uses_the_monomial_route(self):
        caps = (4, 4, 4)
        assert sum(caps) > ident.NAIVE_MAX_DIM
        with pytest.raises(AssertionError, match="series work started"):
            verify_macmahon(DIXON_MATRIX, caps)


class TestPermanentSideAboveTheOldDimensionLimit:
    """Inputs whose permanent side once needed a brute-force permanent above
    dimension 10 now run on the multiplicity sign sum and pass."""

    def test_complex_macmahon_4x4_cap_3(self):
        r = verify_macmahon(rng.unit_disk_matrix(4, 1), 3)
        assert r.passed and r.max_abs_error <= 1e-8
        assert r.num_coefficients_checked == 4**4

    @pytest.mark.parametrize(
        "run",
        [
            lambda: verify_mmmt_two(rng.unit_disk_matrix(2, 1), rng.unit_disk_matrix(2, 2), 6),
            lambda: verify_generating_function(rng.unit_disk_matrix(2, 1), "log", 6),
            lambda: verify_corollary_rank_one(rng.unit_disk_matrix(2, 1), (6, 5), (5, 6)),
            lambda: verify_monomial_glynn(rng.unit_disk_matrix(3, 1), (4, 4, 3), 4),
            lambda: verify_even_matrix(rng.unit_disk_matrix(4, 1), "full", 3),
        ],
        ids=["mmmt-two", "generating", "corollary", "monomial", "even-full"],
    )
    def test_former_limit_cases_pass(self, run):
        r = run()
        assert r.passed and r.max_abs_error <= 1e-8

    def test_exact_macmahon_checks_every_coefficient_against_a_permanent(self):
        # 125 coefficients, each against its permanent and the monomial route
        r = verify_macmahon(DIXON_MATRIX, 4, 0.0)
        assert r.passed and r.max_abs_error == 0.0
        assert r.num_coefficients_checked == 2 * 5**3

    def test_term_rule_message_states_terms_and_budget(self):
        with pytest.raises(TooLarge, match=r"needs 18974736 terms; the budget is 10000000"):
            verify_macmahon(rng.unit_disk_matrix(4, 1), 10)


def max_total_degree(s):
    """The largest total degree of a nonzero coefficient of s, 0 for the zero series."""
    exponents = itertools.product(*(range(c + 1) for c in s.caps))
    return max((sum(e) for e, c in zip(exponents, s.coeffs) if c), default=0)


def explicit_det(mats, var_of, ring, caps):
    """Det(I - D_1 A_1 ... D_N A_N) by the permutation sum over the explicit
    matrix of series; a variable with cap 0 enters as 0."""
    k = len(mats[0])
    one, zero = TruncatedSeries.one(caps, ring), TruncatedSeries.zero(caps, ring)
    prod = [[one if i == j else zero for j in range(k)] for i in range(k)]
    for mat, vars_ in zip(mats, var_of):
        z = [TruncatedSeries.variable(caps, ring, v) if caps[v] else zero for v in vars_]
        step = [[z[i].scale(a) for a in row] for i, row in enumerate(mat.tolist())]
        prod = [[sum((prod[i][l] * step[l][j] for l in range(k)), zero) for j in range(k)] for i in range(k)]
    return leibniz_determinant([[(one if i == j else zero) - prod[i][j] for j in range(k)] for i in range(k)], zero)


def random_matrix(g, k, ring):
    if ring == RATIONAL:
        entries = [Fraction(int(n), int(d)) for n, d in zip(g.integers(-2, 3, k * k), g.integers(1, 4, k * k))]
        return np.array(entries, dtype=object).reshape(k, k)
    return g.normal(size=(k, k)) + 1j * g.normal(size=(k, k))


# (rows k, variable map per matrix, caps): one map per matrix, every variable in one map
DET_SIDE_CASES = [
    (1, [[0]], (2,)),
    (3, [[0, 1, 2]], (1, 0, 2)),
    (5, [[0, 1, 2, 3, 4]], (1, 2, 1, 0, 1)),
    (6, [[0, 1, 2, 3, 4, 5]], (1, 1, 1, 1, 1, 1)),
    (2, [[0, 1], [2, 3]], (1, 2, 0, 1)),
    (3, [[0, 1, 2], [3, 4, 5]], (1, 1, 1, 1, 0, 1)),
    # even-full's map: rows i and i + m share a variable
    (4, [[0, 1, 0, 1], [2, 3, 2, 3]], (2, 1, 1, 2)),
    (6, [[0, 1, 2, 0, 1, 2], [3, 4, 5, 3, 4, 5]], (1, 1, 0, 1, 2, 1)),
    (2, [[0, 1], [2, 3], [4, 5]], (1, 1, 1, 0, 1, 1)),
]


class TestDetSide:
    """`_det_side` against the permutation-sum determinant of the explicit series matrix."""

    @pytest.mark.parametrize("ring", [RATIONAL, COMPLEX])
    @pytest.mark.parametrize("k, var_of, caps", DET_SIDE_CASES)
    def test_matches_leibniz(self, k, var_of, caps, ring):
        g = np.random.default_rng(31 * k + len(var_of) + sum(caps))
        mats = [random_matrix(g, k, ring) for _ in var_of]
        got = ident._det_side(mats, var_of, ring, caps)
        ref = explicit_det(mats, var_of, ring, caps)
        if ring == RATIONAL:
            assert got.coeffs == ref.coeffs
        else:
            assert np.allclose(got.coeffs, ref.coeffs, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(ref.coeffs))))

    def test_dixon_matrix_against_leibniz(self):
        mat = ident._normalize(DIXON_MATRIX)[0]
        caps = (2, 2, 2)
        got = ident._det_side([mat], [range(3)], RATIONAL, caps)
        assert got.coeffs == explicit_det([mat], [range(3)], RATIONAL, caps).coeffs

    def test_singular_minors_are_zero(self):
        # every 2 x 2 minor vanishes: the determinant is 1 - trace
        mat = ident._normalize([[1, 2, 3], [2, 4, 6], [Fraction(1, 2), 1, Fraction(3, 2)]])[0]
        d = ident._det_side([mat], [range(3)], RATIONAL, (1, 1, 1))
        assert d.coeffs == explicit_det([mat], [range(3)], RATIONAL, (1, 1, 1)).coeffs
        assert max_total_degree(d) == 1

    def test_polynomiality_degree_bound(self):
        # Det(I - Diag(z) A) has total degree <= m in the formal variables.
        mat = ident._normalize([[i + j + 1 for j in range(3)] for i in range(3)])[0]
        assert max_total_degree(ident._det_side([mat], [range(3)], RATIONAL, (3, 3, 3))) <= 3

    def test_too_large(self, monkeypatch):
        def fail(*args):
            raise AssertionError("minor computed")

        monkeypatch.setattr(ident, "_float_minors", fail)
        with pytest.raises(TooLarge, match="determinant side needs"):
            ident._det_side([np.eye(12)] * 3, [range(12 * t, 12 * t + 12) for t in range(3)], COMPLEX, (1,) * 36)

    @pytest.mark.parametrize(
        "run",
        [
            lambda a: verify_macmahon(a, 1),
            lambda a: verify_mmmt_two(a, a, 1),
            lambda a: verify_even_matrix(a, "full", 1),
            lambda a: verify_even_matrix(a, "single"),
        ],
        ids=["macmahon", "mmmt-two", "even-full", "even-single"],
    )
    def test_empty_matrix_determinant_is_one(self, run):
        # Per and Det of the 0 x 0 matrix are both 1
        r = run(np.zeros((0, 0)))
        assert r.passed and r.max_abs_error == 0.0

    def test_variable_in_two_maps_rejected(self):
        with pytest.raises(ValueError, match="one matrix's map"):
            ident._det_side([np.eye(2)] * 2, [[0, 1], [1, 2]], COMPLEX, (1, 1, 1))


class TestCaps:
    @pytest.mark.parametrize(
        "run",
        [
            lambda: verify_macmahon(rng.unit_disk_matrix(2, 1), (1, 0)),
            lambda: verify_macmahon(DIXON_MATRIX, (2, 0, 1), 0.0),
            lambda: verify_mmmt_two(rng.unit_disk_matrix(2, 1), rng.unit_disk_matrix(2, 2), (1, 1, 0, 1)),
            lambda: verify_mmmt_n([rng.unit_disk_matrix(2, k) for k in range(3)], (1, 0, 1, 1, 0, 1)),
            lambda: verify_even_matrix(rng.unit_disk_matrix(4, 1), "full", 0),
            lambda: verify_even_matrix(rng.unit_disk_matrix(4, 1), "full", (2, 0, 1, 1)),
        ],
        ids=["macmahon", "macmahon-exact", "mmmt-two", "mmmt-n", "even-full", "even-full-mixed"],
    )
    def test_zero_cap_passes(self, run):
        r = run()
        assert r.passed

    @pytest.mark.parametrize("cap", [(1.5, 1), 2.0, True, (1, "1")])
    def test_non_integer_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="caps must be integers"):
            verify_macmahon(rng.unit_disk_matrix(2, 1), cap)

    def test_numpy_integer_caps(self):
        a = rng.unit_disk_matrix(2, 1)
        assert verify_macmahon(a, np.int64(2)).caps_used == (2, 2)
        assert verify_macmahon(a, np.array([2, 1])).caps_used == (2, 1)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: verify_macmahon(rng.unit_disk_matrix(2, 1), -1),
            lambda: verify_mmmt_two(rng.unit_disk_matrix(2, 1), rng.unit_disk_matrix(2, 2), (1, 1, -1, 1)),
            lambda: verify_mmmt_n([rng.unit_disk_matrix(2, k) for k in range(3)], -1),
            lambda: verify_even_matrix(rng.unit_disk_matrix(4, 1), "full", -1),
            lambda: verify_generating_function(rng.unit_disk_matrix(2, 1), "exp", -1),
            lambda: verify_monomial_glynn(rng.unit_disk_matrix(2, 1), (1, 0), (0, -1)),
        ],
        ids=["macmahon", "mmmt-two", "mmmt-n", "even-full", "generating", "monomial"],
    )
    def test_negative_cap_rejected_before_permanent_work(self, run, monkeypatch):
        def fail(*args):
            raise AssertionError("permanent work started")

        monkeypatch.setattr(ident, "_repeated_permanents", fail)
        with pytest.raises(ValueError, match="^caps must be non-negative$"):
            run()


class TestPermanentSidePricing:
    """`_repeated_permanents` counts prod_j (q_j + 1) for each pair with
    |p| = |q|, over all the jobs, and refuses before any kernel work."""

    JOBS = [
        # 2001^2, 2000 * 2002 and 1001 * 2001 terms; the pairs of unequal weight cost nothing
        [((4000, 0), (2000, 2000)), ((1, 0), (10**6, 10**6))],
        [((0, 4000), (1999, 2001)), ((2, 2), (0, 0))],
        [((3000, 0), (1000, 2000))],
    ]

    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        def fail(*args):
            raise AssertionError("kernel work started")

        for name in ("_sign_sums", "_exact_multiplicity_sums"):
            monkeypatch.setattr(permanents, name, fail)

    def test_over_budget_raises_before_kernel_work(self):
        with pytest.raises(TooLarge, match=r"^permanent side needs 10011002 terms; the budget is 10000000$"):
            ident._repeated_permanents(*((np.eye(2), pairs) for pairs in self.JOBS))

    def test_within_budget_reaches_the_kernel(self):
        # 2001^2 + 2000 * 2002 = 8008001 terms
        with pytest.raises(AssertionError, match="kernel work started"):
            ident._repeated_permanents(*((np.eye(2), pairs) for pairs in self.JOBS[:2]))

    @pytest.mark.parametrize("exact", [False, True])
    def test_repeated_and_weight_zero_pairs_are_priced(self, exact):
        # 2000 * 2500 terms twice, and 1 for (0, 0): one over the budget
        pair, zero = ((4498, 0), (1999, 2499)), ((0, 0), (0, 0))
        a = [[1, 0], [0, 1]] if exact else np.eye(2)
        with pytest.raises(TooLarge, match=r"^permanent side needs 10000001 terms; the budget is 10000000$"):
            ident._repeated_permanents((a, [pair, zero, pair]))
        with pytest.raises(AssertionError, match="kernel work started"):
            ident._repeated_permanents((a, [pair, pair]))


def _filtered_pairs(ps, q_caps) -> list:
    """The pairs (p, q), |p| = |q|, listed by filtering the whole box q <= q_caps for each p."""
    return [(p, q) for p in ps for q in ident._sub_indices(q_caps) if sum(q) == sum(p)]


@pytest.mark.parametrize(
    "p_caps, q_caps",
    # mmmt-two and even-full: the two blocks of a cap tuple, equal or not, zero caps among them
    [((2, 2), (2, 2)), ((3, 1), (0, 2)), ((0, 0, 0), (1, 2, 0)), ((1, 0, 2), (2, 2, 2)), ((), ())],
)
def test_equal_weight_pairs_on_two_blocks(p_caps, q_caps):
    # each p's weight layer against the test-side filter of the whole q-box: same pairs, same order
    ps = list(ident._sub_indices(p_caps))
    assert ident._equal_weight_pairs(ps, q_caps) == _filtered_pairs(ps, q_caps)


@pytest.mark.parametrize(
    "ps, q_caps",
    [
        # generating: the ps whose weight f keeps
        ([p for p in itertools.product(range(3), range(4)) if sum(p) % 2], (3, 2)),
        # monomial: one p against the whole cap tuple, |p| within it, beyond it or 0
        ([(1, 2, 0)], (3, 3, 3)),
        ([(5, 0)], (1, 1)),
        ([(0, 0, 0)], (0, 2, 1)),
        ([(2, 0, 1)], (2, 0, 1)),
    ],
)
def test_equal_weight_pairs_for_chosen_ps(ps, q_caps):
    assert ident._equal_weight_pairs(ps, q_caps) == _filtered_pairs(ps, q_caps)


@pytest.mark.parametrize(
    "caps, n_mats", [((1,) * 6, 3), ((2, 0, 1, 3, 0, 1), 3), ((2, 2, 1, 0), 2), ((0, 1, 2, 1, 0, 0, 1, 2), 4)]
)
def test_equal_weight_pairs_on_the_cyclic_blocks(caps, n_mats):
    # mmmt-n: block k's exponents against block k + 1's caps, the last block's against the first's
    m = len(caps) // n_mats
    blocks = [caps[k * m : (k + 1) * m] for k in range(n_mats)]
    for k in range(n_mats):
        ps = list(ident._sub_indices(blocks[k]))
        nxt = blocks[(k + 1) % n_mats]
        assert ident._equal_weight_pairs(ps, nxt) == _filtered_pairs(ps, nxt)


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize(
    "p_caps, q_caps",
    [((), ()), ((0,), (3,)), ((2, 0, 1), (1, 3, 0)), ((4, 1), (2, 2)), ((3, 3, 3), (5,) * 3), ((1,) * 5, (2,) * 5)],
)
def test_pair_price_counts_the_listed_pairs(p_caps, q_caps, power):
    # the closed form against the pair-by-pair count over the listed pairs
    def price(pairs):
        return sum(math.prod((c + 1) ** power for c in q) for _, q in pairs)

    pairs = _filtered_pairs(ident._sub_indices(p_caps), q_caps)
    assert ident._equal_weight_pairs(ident._sub_indices(p_caps), q_caps) == pairs
    assert ident._pair_price(p_caps, q_caps, power) == price(pairs)
    odd = [(p, q) for p, q in pairs if sum(p) % 2]
    assert ident._pair_price(p_caps, q_caps, power, keep=lambda w: w % 2) == price(odd)


class TestDeterminantSideBeyondEightRows:
    """Sizes the series-matrix determinant refused (more than 8 rows)."""

    @pytest.mark.parametrize("m", [9, 10])
    def test_complex_macmahon_cap_1(self, m):
        r = verify_macmahon(rng.unit_disk_matrix(m, 1), 1)
        assert r.passed and r.max_abs_error <= 1e-8
        assert r.num_coefficients_checked == 2**m

    def test_even_full_m_5_cap_1(self):
        r = verify_even_matrix(rng.unit_disk_matrix(10, 1), "full", 1)
        assert r.passed and r.max_abs_error <= 1e-8
        assert r.num_coefficients_checked == 4**5


# SHA-256 of the JSON of run_battery(seed=s), recorded from the version that
# sums half of each float sign-sum grid and a quarter of even-single's sign
# pairs, and expands the monomial form's (Az)^p one linear form at a time
# (numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64): every field, max_abs_error
# to the last bit.
BATTERY_DIGESTS = {
    5: "4ccfc8fcfb5662ba722dacb0453806c9beeaea0f5d133b61b61702e7607de9a8",
    7: "b1644d590ee2dc6c29fbd96c539bd840b7850664bb3f4613b98df0501cd3f698",
    123: "144711c08bf21f6e6d21550f7d88de0a5b84ac3da84a2595325160febc2220fe",
    901: "6ac66cec1acef32e235cbcc175b8498c9e0d77c82fbc2031772744cbf11cfd13",
    902: "cfb334b106e6319ba6886b7a1c92bec17e6474c74d9a5d5c29fc4c0aa5020c34",
}


def _spy(monkeypatch) -> list:
    """Record each report with the checks it was made from."""
    seen, real = [], ident._report

    def spy(*args, **kwargs):
        report = real(*args, **kwargs)
        seen.append((report, args[4:]))
        return report

    monkeypatch.setattr(ident, "_report", spy)
    return seen


def _alter_rhs(monkeypatch, index, change):
    """Make `_n_matrix_rhs` apply ``change`` to one entry of its coefficient
    array: a numerator in the rational ring."""
    real = ident._n_matrix_rhs

    def altered(*args):
        s = real(*args)
        s._array.flat[index] = change(s._array.flat[index])
        return s

    monkeypatch.setattr(ident, "_n_matrix_rhs", altered)


A2, B2, A3, A4 = (rng.unit_disk_matrix(m, 60 + k) for k, m in enumerate((2, 2, 3, 4)))
ONES = RepetitionPattern((1, 1, 1), (1, 1, 1))
COUNTS = {
    # the exact ring checks every coefficient twice, against 1/Det and against (Az)^p
    "macmahon-dixon-cap4": (lambda: verify_macmahon(DIXON_MATRIX, 4, 0.0), 2 * 5**3),
    "macmahon-complex": (lambda: verify_macmahon(A3, 2), 3**3),
    "dixon": (lambda: verify_dixon(4), 3 * 4),
    "mmmt-two": (lambda: verify_mmmt_two(A2, B2, 2), 3 * 3**4),
    "mmmt-n-3": (lambda: verify_mmmt_n([A2, B2, A2], 1), 2**6),
    "mmmt-n-2": (lambda: verify_mmmt_n([A2, B2], 2), 3**4),
    "generating-log-cap4": (lambda: verify_generating_function(A2, "log", 4), 5**4),
    "monomial": (lambda: verify_monomial_glynn(A3, (1, 2, 0), 3), 4**3),
    "even-full": (lambda: verify_even_matrix(A4, "full", (2, 1, 1, 2)), 3 * 2 * 2 * 3),
    "even-single": (lambda: verify_even_matrix(A4, "single"), 1),
    "corollary": (lambda: verify_corollary_rank_one(A3, (2, 1, 0), (1, 1, 1)), 1),
    "sum-formula": (lambda: verify_sum_formula(A3, A3.T, ONES), 1),
    "laplace": (lambda: verify_laplace(A3, ONES, 1), 1),
    "sum-of-permanents": (lambda: verify_sum_of_permanents(A3, A3.T, ONES), 1),
    "tmss": (lambda: verify_tmss_overlap(rng.haar_unitary(2, 3), [0.2], [0.1j]), 1),
    "sn": (lambda: verify_sn_identity(3, -1, 5), 2),
}


class TestTableWiseComparison:
    @pytest.mark.parametrize("seed", sorted(BATTERY_DIGESTS))
    def test_battery_reports_are_pinned(self, seed):
        payload = json.dumps([r.to_json_dict() for r in run_battery(seed=seed)])
        assert hashlib.sha256(payload.encode()).hexdigest() == BATTERY_DIGESTS[seed]

    @pytest.mark.parametrize("seed", [901, 7])
    def test_battery_equals_the_one_by_one_rule(self, seed, monkeypatch):
        seen = _spy(monkeypatch)
        run_battery(seed=seed)
        for f in GENERATING_CHOICES:
            run_battery([f"generating-{f}"], seed=seed, cap=4)
        assert len(seen) == 28
        for report, checks in seen:
            assert (report.max_abs_error, report.num_coefficients_checked) == one_by_one_errors(checks)

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_coefficients_checked(self, name):
        run, count = COUNTS[name]
        report = run()
        assert report.passed and report.num_coefficients_checked == count

    @pytest.mark.parametrize(
        "matrix, index, delta",
        [(rng.unit_disk_matrix(2, 3), 4, 1e-6), (DIXON_MATRIX, 13, 1)],
        ids=["complex", "rational"],
    )
    def test_a_moved_coefficient_fails_with_its_scalar_error(self, matrix, index, delta, monkeypatch):
        seen = _spy(monkeypatch)
        assert verify_macmahon(matrix, 2).passed
        (vn, vd), (rn, rd) = seen[0][1][0]
        _alter_rhs(monkeypatch, index, lambda v: v + delta)
        report = verify_macmahon(matrix, 2)
        if isinstance(delta, int):
            want = scaled_error(Fraction(vn[index] + 1, vd[index]), Fraction(rn[index], rd[index]))
        else:
            want = scaled_error(complex(vn[index]) + delta, complex(rn[index]) / float(rd[index]))
        assert not report.passed and report.max_abs_error == want > 1e-8
        assert report.num_coefficients_checked == seen[0][0].num_coefficients_checked

    def test_nan_fails(self, monkeypatch):
        _alter_rhs(monkeypatch, 1, lambda v: complex("nan"))
        report = verify_macmahon(rng.unit_disk_matrix(2, 3), 2)
        assert math.isnan(report.max_abs_error) and not report.passed
