"""Every TooLarge message states what was counted, the count and the budget."""

import numpy as np
import pytest

from permkit import bosonic, estimators, identities, permanents, series
from permkit.combinatorics import RepetitionPattern
from permkit.errors import TooLarge, check_budget

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
            lambda: estimators.pown_grid_expectation(np.eye(6), SIX),
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
