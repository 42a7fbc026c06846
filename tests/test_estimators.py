import math

import numpy as np
import pytest

from permkit import rng
from permkit.combinatorics import RepetitionPattern, repeat_matrix
from permkit.errors import DimensionMismatch, WeightMismatch
from permkit.estimators import (
    default_geom_radius,
    estimate_permanent,
    estimator_variance_scan,
    pown_grid_expectation,
)
from permkit.permanents import permanent_naive


class TestEstimatePermanent:
    def test_zero_matrix_pown_is_exactly_zero(self):
        rep = estimate_permanent(np.zeros((2, 2)), RepetitionPattern.uniform(2), "pown", 1000, 1)
        assert rep.estimate == 0j
        assert rep.stderr == 0.0

    def test_all_ones_pown(self):
        rep = estimate_permanent(np.ones((2, 2)), RepetitionPattern.uniform(2), "pown", 100_000, 7)
        assert abs(rep.estimate - 2.0) <= 5 * rep.stderr

    @pytest.mark.parametrize("f", ["pown", "exp"])
    def test_random_within_five_stderr(self, f):
        a = rng.unit_disk_matrix(3, 55)
        ref = permanent_naive(a).value
        rep = estimate_permanent(a, RepetitionPattern.uniform(3), f, 100_000, 3)
        assert abs(rep.estimate - ref) <= 5 * rep.stderr

    def test_seed_determinism(self):
        a = rng.unit_disk_matrix(3, 56)
        pat = RepetitionPattern.uniform(3)
        r1 = estimate_permanent(a, pat, "pown", 20_000, 9)
        r2 = estimate_permanent(a, pat, "pown", 20_000, 9)
        assert r1.estimate == r2.estimate and r1.stderr == r2.stderr

    def test_angle_stream_bit_identical(self):
        raw1 = rng.bit_generator(123).random_raw(64)
        raw2 = rng.bit_generator(123).random_raw(64)
        assert np.array_equal(raw1, raw2)

    def test_stream_partition_deterministic(self):
        a = rng.unit_disk_matrix(2, 57)
        pat = RepetitionPattern.uniform(2)
        r1 = estimate_permanent(a, pat, "pown", 20_000, 4, streams=4)
        r2 = estimate_permanent(a, pat, "pown", 20_000, 4, streams=4)
        assert r1.estimate == r2.estimate

    def test_weight_mismatch_raises(self):
        with pytest.raises(WeightMismatch):
            estimate_permanent(np.eye(2), RepetitionPattern((1, 1), (1, 0)), "pown", 100, 0)

    def test_repeated_pattern(self):
        a = rng.unit_disk_matrix(2, 58)
        pat = RepetitionPattern((2, 1), (1, 2))
        ref = permanent_naive(repeat_matrix(a, pat)).value
        rep = estimate_permanent(a, pat, "pown", 200_000, 5)
        assert abs(rep.estimate - ref) <= 5 * rep.stderr


class TestGeometricChoice:
    def test_radius_respects_convergence_bound(self):
        a = rng.unit_disk_matrix(3, 60)
        r = default_geom_radius(a)
        assert r**2 * np.sum(np.abs(a)) < 1.0

    def test_converges_within_ten_stderr(self):
        a = rng.unit_disk_matrix(2, 61)
        ref = permanent_naive(a).value
        rep = estimate_permanent(a, RepetitionPattern.uniform(2), "geom", 200_000, 8)
        assert abs(rep.estimate - ref) <= 10 * rep.stderr

    def test_all_ones_has_bounded_integrand(self):
        # sup over the torus of |x^T J y| is m^2, which the radius must tame.
        a = np.ones((3, 3))
        r = default_geom_radius(a)
        assert r**2 * 9.0 < 1.0


class TestGridExpectation:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_exact_for_m2(self, n):
        a = rng.unit_disk_matrix(2, 70 + n)
        for p in [(n, 0), (n - 1, 1) if n >= 1 else (n, 0)]:
            q = (p[1], p[0])
            pat = RepetitionPattern(p, q)
            got = pown_grid_expectation(a, pat)
            ref = permanent_naive(repeat_matrix(a, pat)).value
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize(
        "m, pattern",
        [(2, RepetitionPattern((1, 1, 0), (1, 0, 1))), (3, RepetitionPattern((1, 1), (1, 1)))],
    )
    def test_pattern_length_must_equal_dimension(self, m, pattern):
        with pytest.raises(DimensionMismatch):
            pown_grid_expectation(np.ones((m, m)), pattern)


class TestVarianceScan:
    def test_singleton_matches_estimate(self):
        a = rng.unit_disk_matrix(2, 80)
        pat = RepetitionPattern.uniform(2)
        table = estimator_variance_scan(a, pat, ["pown"], 10_000, 2)
        rep = estimate_permanent(a, pat, "pown", 10_000, 2)
        assert len(table) == 1
        assert table[0]["estimate_re"] == rep.estimate.real
        assert table[0]["stderr"] == rep.stderr

    def test_zero_matrix_pown_variance_zero(self):
        table = estimator_variance_scan(np.zeros((2, 2)), RepetitionPattern.uniform(2), ["pown"], 1000, 0)
        assert table[0]["variance"] == 0.0

    def test_all_fs_finite_on_ones(self):
        table = estimator_variance_scan(np.ones((3, 3)), RepetitionPattern.uniform(3), ["pown", "exp"], 20_000, 3)
        assert all(math.isfinite(row["variance"]) for row in table)
        assert {row["f"] for row in table} == {"pown", "exp"}


class TestNonFiniteMatrix:
    @staticmethod
    def matrix(bad):
        a = np.array(rng.unit_disk_matrix(3, 57))
        a[2, 1] = bad
        return a

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("f", ["pown", "exp", "geom"])
    def test_estimate_rejects(self, bad, f):
        with pytest.raises(ValueError, match="finite"):
            estimate_permanent(self.matrix(bad), RepetitionPattern.uniform(3), f, 100, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_grid_expectation_rejects(self, bad):
        with pytest.raises(ValueError, match="finite"):
            pown_grid_expectation(self.matrix(bad), RepetitionPattern.uniform(3))


def test_empirical_unbiasedness_across_seeds():
    a = rng.unit_disk_matrix(3, 90)
    pat = RepetitionPattern.uniform(3)
    ref = permanent_naive(a).value
    for f in ("pown", "exp"):
        estimates, stderrs = [], []
        for seed in range(30):
            rep = estimate_permanent(a, pat, f, 20_000, 1000 + seed)
            estimates.append(rep.estimate)
            stderrs.append(rep.stderr)
        grand = np.mean(estimates)
        pooled = math.sqrt(sum(s**2 for s in stderrs)) / len(stderrs)
        assert abs(grand - ref) <= 5 * pooled
