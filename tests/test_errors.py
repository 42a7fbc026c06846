"""Every TooLarge message states what was counted, the count and the budget;
every input check raises its own exception type with its own message."""

import numpy as np
import pytest

from permkit import bosonic, combinatorics, estimators, identities, numerics, permanents, series
from permkit.bosonic import CatInputSpec
from permkit.combinatorics import RepetitionPattern
from permkit.errors import DimensionMismatch, ExceedsCap, TooLarge, WeightMismatch, check_budget
from permkit.series import RATIONAL, TruncatedSeries

SIX = RepetitionPattern((3,) * 6, (3,) * 6)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: bosonic.bs_distribution(np.eye(40), 8),
            "outcome support of 8 photons in 40 modes needs 314457495 outcomes; the budget is 1000000",
        ),
        (
            lambda: bosonic.cat_distribution(np.eye(40), bosonic.CatInputSpec(0.5, 2, 40), 8),
            "outcome support of 2..8 photons in 40 modes needs 322726785 outcomes; the budget is 1000000",
        ),
        (
            lambda: permanents.permanent_glynn_kan_repeated(np.eye(6), SIX),
            # 4^6 points for x times 4^6 for y
            r"roots-of-unity double grid prod\(p_i \+ 1\) prod\(q_j \+ 1\) needs 16777216 terms; the budget is 10000000",
        ),
        (
            lambda: identities.verify_mmmt_n([np.eye(3)] * 3, 3),
            "mmmt-n coefficient table needs 262144 coefficients; the budget is 200000",
        ),
        (
            # sum_k C(12, k)^3 chains S_1 -> S_2 -> S_3 -> S_1 of row subsets
            lambda: identities._det_side(
                [np.eye(12)] * 3, [range(12 * t, 12 * t + 12) for t in range(3)], series.COMPLEX, (1,) * 36
            ),
            "determinant side needs 2046924400 terms; the budget is 10000000",
        ),
        (
            # |K| = C(23, 7) multi-indices k, each 3^8 + 3^8 terms
            lambda: permanents.permanent_cauchy_binet(np.eye(8), np.eye(8), RepetitionPattern((2,) * 8, (2,) * 8)),
            "Cauchy-Binet inner multiplicity sums needs 3216950154 terms; the budget is 10000000",
        ),
    ],
    ids=["bs-distribution", "cat-distribution", "pown-grid", "mmmt-n", "det-side", "cauchy-binet"],
)
def test_too_large_states_count_and_budget(call, message):
    with pytest.raises(TooLarge, match=f"^{message}$"):
        call()


def test_check_budget_passes_at_the_budget_and_rounds_huge_counts():
    check_budget("x", 10, 10)
    with pytest.raises(TooLarge, match=r"^x needs about 10\^30 terms; the budget is 10$"):
        check_budget("x", 10**30, 10)


ONE = RepetitionPattern((1,), (1,))
ONES = RepetitionPattern((1, 1), (1, 1))
MISMATCH = RepetitionPattern((2, 0), (1, 0))
INPUT_CHECKS = {
    # bosonic
    "cat-spec-n": (lambda: CatInputSpec(0.5, 3, 2), ValueError, "need 0 < n <= m, got n=3, m=2"),
    "fock-outcome-length": (
        lambda: bosonic.fock_amplitude(np.eye(2), (1,), (1, 0)),
        DimensionMismatch,
        "outcome length must equal the mode count",
    ),
    "bs-n": (lambda: bosonic.bs_distribution(np.eye(2), 3), ValueError, "need 0 <= n <= m, got n=3, m=2"),
    "cat-outcome-length": (
        lambda: bosonic.cat_amplitude(np.eye(2), CatInputSpec(0.5, 1, 2), (1,)),
        DimensionMismatch,
        "outcome length must equal the mode count",
    ),
    "cat-amplitude-spec-modes": (
        lambda: bosonic.cat_amplitude(np.eye(2), CatInputSpec(0.5, 1, 3), (1, 0)),
        DimensionMismatch,
        "spec mode count must match the unitary dimension",
    ),
    "cat-distribution-spec-modes": (
        lambda: bosonic.cat_distribution(np.eye(2), CatInputSpec(0.5, 1, 3)),
        DimensionMismatch,
        "spec mode count must match the unitary dimension",
    ),
    "regime-n": (lambda: bosonic.amplitude_regime_check(0, 10, 1.0), ValueError, "need n >= 1 and m >= 1"),
    # combinatorics
    "repeat-exact-pattern-length": (
        lambda: combinatorics.repeat_matrix([[1, 2], [3, 4]], ONE),
        DimensionMismatch,
        "pattern length must equal the matrix dimension",
    ),
    "weight-array-m": (lambda: combinatorics.weight_array(0, 1), ValueError, "need m >= 1"),
    "weight-array-n": (lambda: combinatorics.weight_array(1, -1), ValueError, "need n >= 0"),
    "split-part-weights": (
        lambda: list(combinatorics.enumerate_splits((1, 1), 2, (1,))),
        ValueError,
        "part_weights must have one entry per part",
    ),
    # estimators
    "estimate-pattern-length": (
        lambda: estimators.estimate_permanent(np.eye(2), ONE),
        DimensionMismatch,
        "pattern length must equal the square matrix dimension",
    ),
    "estimate-f": (
        lambda: estimators.estimate_permanent(np.eye(1), ONE, f="bogus"),
        ValueError,
        "unknown estimator choice 'bogus'",
    ),
    # identities
    "caps-count": (lambda: identities.verify_macmahon(np.eye(2), cap=(1, 1, 1)), ValueError, "expected 2 caps, got 3"),
    "common-ring": (
        lambda: identities.verify_sum_formula([[1]], np.eye(1), ONE),
        ValueError,
        "matrices must live over the same ring",
    ),
    "common-dimension": (
        lambda: identities.verify_sum_formula(np.eye(1), np.eye(2), ONE),
        ValueError,
        "matrices must have equal dimension",
    ),
    "generating-f": (
        lambda: identities.verify_generating_function(np.eye(1), "bogus"),
        ValueError,
        "unknown generating function 'bogus'",
    ),
    "laplace-weights": (
        lambda: identities.verify_laplace(np.eye(2), MISMATCH, 0),
        WeightMismatch,
        "|p| = 2 but |q| = 1",
    ),
    "laplace-k": (lambda: identities.verify_laplace(np.eye(2), ONES, 3), ValueError, "need 0 <= k <= 2"),
    "sum-of-permanents-empty": (
        lambda: identities.verify_sum_of_permanents(np.eye(2), np.eye(2), RepetitionPattern((0, 0), (0, 0))),
        ValueError,
        "need |p| = |q| >= 1",
    ),
    "even-mode": (lambda: identities.verify_even_matrix(np.eye(2), mode="bogus"), ValueError, "unknown mode 'bogus'"),
    "tmss-shape": (
        lambda: identities.verify_tmss_overlap(np.eye(4), [0.1], [0.1, 0.2]),
        ValueError,
        "matrix must be 2m x 2m with length-m amplitude vectors",
    ),
    "battery-name": (lambda: identities.run_battery(["bogus"]), KeyError, "unknown identity 'bogus'"),
    # numerics
    "as-array-ndim": (lambda: numerics.as_array([1, 2]), DimensionMismatch, "expected a 2-d array, got shape (2,)"),
    "complex-matrix-empty": (
        lambda: numerics.ComplexMatrix(np.zeros((0, 0))),
        DimensionMismatch,
        "matrix dimension must be at least 1",
    ),
    "determinant-square": (
        lambda: numerics.determinant(np.ones((2, 3))),
        DimensionMismatch,
        "determinant requires a square matrix",
    ),
    "embed-square": (
        lambda: numerics.embed_contraction(np.ones((2, 3))),
        DimensionMismatch,
        "embed_contraction requires a square matrix",
    ),
    # series
    "monomial-length": (
        lambda: TruncatedSeries.monomial((2,), RATIONAL, (1, 0)),
        DimensionMismatch,
        "exponent tuple length must match the number of variables",
    ),
    "monomial-cap": (
        lambda: TruncatedSeries.monomial((2,), RATIONAL, (3,)),
        ExceedsCap,
        "monomial (3,) exceeds caps (2,)",
    ),
    "negative-caps": (lambda: TruncatedSeries.zero((-1,), RATIONAL), ValueError, "caps must be non-negative"),
    "unknown-ring": (lambda: TruncatedSeries.zero((1,), "real"), ValueError, "unknown ring 'real'"),
    "coefficient-count": (
        lambda: TruncatedSeries((1,), RATIONAL, (1,)),
        ValueError,
        "expected 2 coefficients, got 1",
    ),
    "coefficient-length": (
        lambda: TruncatedSeries.one((1,), RATIONAL).coefficient((0, 0)),
        DimensionMismatch,
        "exponent tuple length must match the number of variables",
    ),
    "negative-power": (
        lambda: TruncatedSeries.one((1,), RATIONAL).power(-1),
        ValueError,
        "negative powers not supported; use inverse()",
    ),
}


@pytest.mark.parametrize("name", INPUT_CHECKS)
def test_input_check_raises_its_type_and_message(name):
    call, kind, message = INPUT_CHECKS[name]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and info.value.args == (message,)
