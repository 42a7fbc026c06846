"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Tolerances are pinned here and nowhere else; comparisons use the global
policy (relative above magnitude 1, absolute below)."""

import math
import time
from fractions import Fraction

import numpy as np

from permkit import rng
from permkit.bosonic import (
    CatInputSpec,
    OVERFLOW,
    bs_distribution,
    cat_distribution,
    hong_ou_mandel_unitary,
    photon_fraction,
    reject_to_fixed_n,
    sample,
    tv_distance,
)
from permkit.combinatorics import RepetitionPattern, repeat_matrix, weight
from permkit.errors import TooLarge
from permkit.estimators import estimate_permanent
from permkit.identities import (
    DIXON_MATRIX,
    verify_corollary_rank_one,
    verify_dixon,
    verify_even_matrix,
    verify_generating_function,
    verify_macmahon,
    verify_mmmt_n,
    verify_mmmt_two,
    verify_sum_of_permanents,
)
from permkit.numerics import scaled_error
from permkit.permanents import (
    permanent_cauchy_binet,
    permanent_glynn,
    permanent_glynn_kan,
    permanent_glynn_kan_repeated,
    permanent_glynn_repeated_rows,
    permanent_naive,
    permanent_roots_of_unity,
    permanent_ryser,
)


def _record(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} {name} failed: {detail}"


def test_criterion_1_oracle_equivalence():
    tol = 1e-8
    budget_s = 60.0
    start = time.monotonic()
    worst = 0.0
    for m in range(1, 7):
        pat = RepetitionPattern.uniform(m)
        ones = (1,) * m
        for i in range(100):
            a = rng.unit_disk_matrix(m, 10_000 * m + i)
            b = rng.unit_disk_matrix(m, 20_000 * m + i)
            ref = permanent_naive(a).value
            values = [
                permanent_ryser(a).value,
                permanent_glynn(a).value,
                permanent_glynn_kan(a).value,
                permanent_glynn_repeated_rows(a, ones).value,
                permanent_roots_of_unity(a, pat).value,
            ]
            for v in values:
                worst = max(worst, scaled_error(v, ref))
            cb = permanent_cauchy_binet(a, b, pat).value
            worst = max(worst, scaled_error(cb, permanent_naive(a @ b).value))
    elapsed = time.monotonic() - start
    _record(
        1,
        "oracle equivalence (Ryser/Glynn/Glynn-Kan/sign+roots variants/Cauchy-Binet)",
        worst <= tol and elapsed < budget_s,
        f"worst={worst:.2e}, elapsed={elapsed:.1f}s",
    )


def test_criterion_1b_double_roots_variant_within_budget():
    # The double roots-of-unity sum costs prod_i (p_i + 1) prod_j (q_j + 1)
    # terms; at m = 6 with every index three times that is 4^12 > 1e7, which
    # the term budget rejects.
    tol = 1e-8
    worst = 0.0
    for m in range(1, 5):
        pat = RepetitionPattern.uniform(m)
        for i in range(100):
            a = rng.unit_disk_matrix(m, 30_000 * m + i)
            worst = max(
                worst,
                scaled_error(permanent_glynn_kan_repeated(a, pat).value, permanent_naive(a).value),
            )
    for i in range(5):
        a = rng.unit_disk_matrix(5, 35_000 + i)
        worst = max(
            worst,
            scaled_error(
                permanent_glynn_kan_repeated(a, RepetitionPattern.uniform(5)).value,
                permanent_naive(a).value,
            ),
        )
    try:
        permanent_glynn_kan_repeated(np.eye(6), RepetitionPattern((3,) * 6, (3,) * 6))
        budget_enforced = False
    except TooLarge:
        budget_enforced = True
    _record(
        1,
        "double roots-of-unity variant (term budget permitting)",
        worst <= tol and budget_enforced,
        f"worst={worst:.2e}, m=6 budget enforced={budget_enforced}",
    )


def test_criterion_2_macmahon():
    worst = 0.0
    for i in range(20):
        rep = verify_macmahon(rng.unit_disk_matrix(3, 40_000 + i), 3, tolerance=1e-8)
        worst = max(worst, rep.max_abs_error)
    exact = verify_macmahon(DIXON_MATRIX, 8, tolerance=0.0)
    _record(
        2,
        "MacMahon master theorem (float cap 3^3, exact Dixon cap 8^3)",
        worst <= 1e-8 and exact.max_abs_error == 0.0,
        f"float worst={worst:.2e}, exact err={exact.max_abs_error}",
    )


def test_criterion_3_dixon_identity():
    start = time.monotonic()
    rep = verify_dixon(4, tolerance=0.0)
    elapsed = time.monotonic() - start
    _record(
        3,
        "Dixon's identity n=1..4 (series vs monomial vs binomial sums, exact)",
        rep.max_abs_error == 0.0 and elapsed < 30.0,
        f"err={rep.max_abs_error}, elapsed={elapsed:.1f}s",
    )


def test_criterion_4_two_and_n_matrix_theorems():
    start = time.monotonic()
    worst = 0.0
    for i in range(10):
        a = rng.unit_disk_matrix(2, 50_000 + i)
        b = rng.unit_disk_matrix(2, 51_000 + i)
        worst = max(worst, verify_mmmt_two(a, b, 2, 1e-8).max_abs_error)
    for i in range(5):
        mats = [rng.unit_disk_matrix(2, 52_000 + 10 * i + k) for k in range(3)]
        worst = max(worst, verify_mmmt_n(mats, 2, 1e-8).max_abs_error)
    # exact reductions in the rational ring: B = I and B = all-ones
    a_exact = ((1, 2), (3, 5))
    red_i = verify_mmmt_two(a_exact, ((1, 0), (0, 1)), 2, tolerance=0.0)
    red_j = verify_mmmt_two(a_exact, ((1, 1), (1, 1)), 2, tolerance=0.0)
    elapsed = time.monotonic() - start
    _record(
        4,
        "two-matrix and N-matrix master theorems",
        worst <= 1e-8 and red_i.max_abs_error == 0.0 and red_j.max_abs_error == 0.0 and elapsed < 120.0,
        f"worst={worst:.2e}, exact reductions 0.0, elapsed={elapsed:.1f}s",
    )


def test_criterion_5_generating_family():
    worst = 0.0
    for i in range(10):
        a = rng.unit_disk_matrix(2, 60_000 + i)
        for f, kwargs in (("exp", {}), ("geom", {}), ("log", {}), ("pow", {"power": 2})):
            worst = max(worst, verify_generating_function(a, f, 2, 1e-8, **kwargs).max_abs_error)
        # the z^n choice must reproduce the rank-one corollary route
        worst = max(worst, verify_corollary_rank_one(a, (1, 1), (2, 0), 1e-8).max_abs_error)
        worst = max(worst, verify_corollary_rank_one(a, (2, 1), (1, 2), 1e-8).max_abs_error)
    _record(
        5,
        "generating-function family (exp / geometric / power / log)",
        worst <= 1e-8,
        f"worst={worst:.2e}",
    )


def test_criterion_6_sum_of_two_permanents():
    start = time.monotonic()
    worst = 0.0
    patterns = [
        (2, (1, 1), (1, 1)),
        (2, (2, 1), (1, 2)),
        (2, (2, 2), (2, 2)),
        (3, (1, 1, 1), (1, 1, 1)),
        (3, (2, 1, 1), (1, 1, 2)),
    ]
    count = 0
    i = 0
    while count < 50:
        m, p, q = patterns[i % len(patterns)]
        a = rng.unit_disk_matrix(m, 70_000 + i)
        b = rng.unit_disk_matrix(m, 71_000 + i)
        rep = verify_sum_of_permanents(a, b, RepetitionPattern(p, q), 1e-8)
        worst = max(worst, rep.max_abs_error)
        count += 1
        i += 1
    elapsed = time.monotonic() - start
    _record(
        6,
        "sum of two permanents (50 instances incl. unit patterns)",
        worst <= 1e-8 and elapsed < 60.0,
        f"worst={worst:.2e}, elapsed={elapsed:.1f}s",
    )


def test_criterion_7_even_matrix_identities():
    worst_single = 0.0
    for m, base in ((4, 80_000), (6, 81_000)):
        for i in range(20):
            rep = verify_even_matrix(rng.unit_disk_matrix(m, base + i), "single", tolerance=1e-7)
            worst_single = max(worst_single, rep.max_abs_error)
    worst_full = 0.0
    for i in range(5):
        rep = verify_even_matrix(rng.unit_disk_matrix(4, 82_000 + i), "full", 2, 1e-8)
        worst_full = max(worst_full, rep.max_abs_error)
    _record(
        7,
        "even-matrix sqrt-determinant identities (single z^m coefficient + full series)",
        worst_single <= 1e-7 and worst_full <= 1e-8,
        f"single worst={worst_single:.2e}, full worst={worst_full:.2e}",
    )


def test_criterion_8_binomial_square_identity():
    from permkit.identities import verify_sn_identity

    g = rng.generator(90_001)
    ok = True
    for n in range(1, 9):
        for _ in range(10):
            a = Fraction(int(g.integers(-9, 10)), int(g.integers(1, 8)))
            b = Fraction(int(g.integers(-9, 10)), int(g.integers(1, 8)))
            rep = verify_sn_identity(a, b, n, tolerance=0.0)
            ok = ok and rep.passed and rep.max_abs_error == 0.0
        unit = verify_sn_identity(1, 1, n, tolerance=0.0)
        ok = ok and unit.max_abs_error == 0.0
    _record(8, "binomial-square identity (exact, n <= 8, incl. a=b=1)", ok)


def test_criterion_9_monte_carlo_estimators():
    ok = True
    details = []
    for inst in range(2):
        a = rng.unit_disk_matrix(3, 91_000 + inst)
        pat = RepetitionPattern.uniform(3)
        ref = permanent_naive(a).value
        for f in ("pown", "exp"):
            estimates, stderrs = [], []
            for seed in range(30):
                rep = estimate_permanent(a, pat, f, 100_000, 92_000 + 100 * inst + seed)
                estimates.append(rep.estimate)
                stderrs.append(rep.stderr)
            grand = complex(np.mean(estimates))
            pooled = math.sqrt(sum(s**2 for s in stderrs)) / len(stderrs)
            dev = abs(grand - ref)
            ok = ok and dev <= 5 * pooled
            details.append(f"{f}[{inst}]: dev/se={dev / pooled:.2f}")
    worst_grid = 0.0
    for n in range(0, 4):
        a = rng.unit_disk_matrix(2, 93_000 + n)
        for p in {(n, 0), (n - n // 2, n // 2)}:
            for q in {(0, n), (n // 2, n - n // 2)}:
                pat = RepetitionPattern(p, q)
                got = permanent_glynn_kan_repeated(a, pat).value
                ref = permanent_naive(repeat_matrix(a, pat)).value
                worst_grid = max(worst_grid, abs(got - ref))
    ok = ok and worst_grid <= 1e-10
    _record(
        9,
        "Monte Carlo estimators (30 seeds x 1e5, pown+exp) and discrete-grid exactness",
        ok,
        "; ".join(details) + f"; grid worst={worst_grid:.2e}",
    )


def test_criterion_10_cat_state_sampling():
    start = time.monotonic()
    ok = True
    details = []
    n = 2
    for idx, alpha in enumerate((0.2, 0.5, 1.0)):
        u = rng.haar_unitary(4, 95_000 + idx)
        spec = CatInputSpec(alpha, n, 4)
        cat = cat_distribution(u, spec, 8)
        bs = bs_distribution(u, n)
        frac = photon_fraction(alpha, n)
        mass_err = abs(cat.mass_at_weight(n) - frac)
        ok = ok and mass_err <= 1e-10
        tv = tv_distance(reject_to_fixed_n(cat, n).probs, bs.probs)
        ok = ok and tv <= 1e-12
        draws = sample(cat, 100_000, 96_000 + idx)
        kept = sum(1 for o in draws if o is not OVERFLOW and weight(o) == n)
        kept_fraction = kept / 100_000
        stderr = math.sqrt(frac * (1 - frac) / 100_000)
        ok = ok and abs(kept_fraction - frac) <= 3 * stderr
        details.append(
            f"alpha={alpha}: mass_err={mass_err:.1e}, tv={tv:.1e}, |kept-frac|/se={abs(kept_fraction - frac) / max(stderr, 1e-300):.2f}"
        )
    hom = bs_distribution(hong_ou_mandel_unitary(), 2)
    ok = ok and hom.probs[(1, 1)] <= 1e-12
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _record(
        10,
        "cat-state sampling (mass, rejection exactness, kept fraction, interference null)",
        ok,
        "; ".join(details) + f"; HOM={hom.probs[(1, 1)]:.1e}; elapsed={elapsed:.1f}s",
    )
