import json
import math
import time

import numpy as np
import pytest

from oracles import torus_integrand_samples
from permkit import estimators, rng
from permkit.combinatorics import RepetitionPattern, repeat_matrix
from permkit.errors import DimensionMismatch, WeightMismatch
from permkit.estimators import (
    _BATCH,
    _CHUNK,
    _EXP_LIMIT,
    _circle,
    _turns,
    default_geom_radius,
    estimate_permanent,
    estimator_variance_scan,
)
from permkit.permanents import permanent_glynn_kan_repeated, permanent_naive


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
            got = permanent_glynn_kan_repeated(a, pat).value
            ref = permanent_naive(repeat_matrix(a, pat)).value
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize(
        "m, pattern",
        [(2, RepetitionPattern((1, 1, 0), (1, 0, 1))), (3, RepetitionPattern((1, 1), (1, 1)))],
    )
    def test_pattern_length_must_equal_dimension(self, m, pattern):
        with pytest.raises(DimensionMismatch):
            permanent_glynn_kan_repeated(np.ones((m, m)), pattern)


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
            permanent_glynn_kan_repeated(self.matrix(bad), RepetitionPattern.uniform(3))


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


def test_empirical_unbiasedness_at_sixteen_photons():
    # p = q = (4, 4, 4, 4), n = 16: the grid is exact for any n < N / 2, not just one photon per mode
    a = rng.unit_disk_matrix(4, 91)
    pat = RepetitionPattern((4,) * 4, (4,) * 4)
    ref = permanent_glynn_kan_repeated(a, pat).value
    for f in ("pown", "geom"):
        estimates, stderrs = [], []
        for seed in range(30):
            rep = estimate_permanent(a, pat, f, 20_000, 2000 + seed)
            estimates.append(rep.estimate)
            stderrs.append(rep.stderr)
        grand = np.mean(estimates)
        pooled = math.sqrt(sum(s**2 for s in stderrs)) / len(stderrs)
        assert abs(grand - ref) <= 5 * pooled, f


def turns_of(words, p, q):
    m = len(p)
    out = np.empty((2 * m + 1, len(words) * 5 // (2 * m)), dtype=np.int64)
    return _turns(np.asarray(words, dtype=np.uint64), np.array(p + q, dtype=np.int64), out)


class TestIntegerPhases:
    def test_table_phase_matches_exp_of_the_turn(self):
        k = np.arange(4096)
        table = _circle()
        assert table.shape == (4096,) and not table.flags.writeable
        assert np.max(np.abs(table - np.exp(2j * np.pi * (k / 4096.0)))) <= 1e-15
        assert table[0] == 1.0

    def test_fields_are_read_field_by_field(self):
        # word w holds 100 j + w in field j; turn j W + w is that field
        words = [sum((100 * j + w) << (12 * j) for j in range(5)) for w in range(6)]
        k = turns_of(words, (1, 2, 0), (0, 1, 2))
        assert k[:-1].reshape(-1).tolist() == [100 * j + w for j in range(5) for w in range(6)]

    def test_mask_keeps_twelve_bits_and_drops_the_top_four(self):
        k = turns_of([(1 << 64) - 1, 0xF << 60], (1,), (1,))
        assert k[:-1].tolist() == [[4095, 0, 4095, 0, 4095], [0, 4095, 0, 4095, 0]]

    @pytest.mark.parametrize("p, q", [((3, 0, 2, 1), (1, 1, 1, 3)), ((0, 0, 0, 0), (0, 0, 0, 0)), ((7, 0, 0, 1), (2, 2, 2, 2))])
    def test_integer_inverse_monomial_equals_float_powers(self, p, q):
        m, c = len(p), 1000
        words = np.random.default_rng(4).integers(0, 1 << 64, size=2 * m * c // 5, dtype=np.uint64)
        ph = _circle()[turns_of(words, p, q)]
        assert ph.shape == (2 * m + 1, c)
        ref = np.prod(np.conj(ph[:m]).T ** np.array(p), axis=1) * np.prod(np.conj(ph[m:-1]).T ** np.array(q), axis=1)
        assert np.max(np.abs(ph[-1] - ref)) <= 1e-14

    def test_inverse_turn_wraps_mod_4096(self):
        # p.k_x + q.k_y = 2 * 4095 + 4095 = 12285 = 3 * 4096 - 3, so the inverse turn is 3
        words = [(1 << 60) - 1] * 2
        k = turns_of(words, (2,), (1,))
        assert k[:, 0].tolist() == [4095, 4095, 3]


def _pattern(m: int):
    g = np.random.default_rng(m)
    n = m + 1
    return tuple(np.bincount(g.integers(0, m, n), minlength=m).tolist()), tuple(np.bincount(g.integers(0, m, n), minlength=m).tolist())


class TestAgainstFloatAngleFormula:
    """The integer-phase kernel against the float-angle formula on the same raw words."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("f", ["pown", "exp", "geom"])
    def test_estimate_and_stderr_agree(self, f, m):
        a = rng.unit_disk_matrix(m, 100 + m)
        p, q = _pattern(m)
        for streams in (1, 2, 3):
            for samples in (2, _BATCH - 1, _BATCH + 1, _CHUNK + 1):
                seed = 17 * m + streams
                v = torus_integrand_samples(a, p, q, f, samples, seed, streams, _BATCH)
                mean = v.mean()
                var_re = max(0.0, (np.sum(v.real**2) - samples * mean.real**2) / (samples - 1))
                var_im = max(0.0, (np.sum(v.imag**2) - samples * mean.imag**2) / (samples - 1))
                stderr = math.sqrt((var_re + var_im) / samples)
                rep = estimate_permanent(a, RepetitionPattern(p, q), f, samples, seed, streams)
                case = (streams, samples)
                assert rep.samples == samples, case
                assert abs(rep.estimate - mean) <= 1e-12 * abs(mean), case
                # The one-pass variance carries rounding on the scale of mean |v|^2;
                # at m = 1 the integrand is constant and the variance is that rounding.
                assert abs(rep.stderr**2 - stderr**2) <= 1e-12 * np.mean(np.abs(v) ** 2) / samples, case
                if m > 1:
                    assert abs(rep.stderr - stderr) <= 1e-12 * stderr, case

    @pytest.mark.parametrize("f", ["pown", "exp", "geom"])
    def test_empty_streams_are_skipped(self, f):
        # samples // streams = 0, so only the last stream draws, and it draws all
        a = rng.unit_disk_matrix(3, 103)
        p, q = _pattern(3)
        streams, seed = 10**9, 41
        start = time.perf_counter()
        rep = estimate_permanent(a, RepetitionPattern(p, q), f, 2, seed, streams)
        assert time.perf_counter() - start < 0.5
        v = torus_integrand_samples(a, p, q, f, 2, seed, 1, _BATCH, jump=streams - 1)
        var = (np.sum(np.abs(v) ** 2) - 2 * abs(v.mean()) ** 2) / 1
        assert rep.samples == 2 and rep.streams == streams
        assert abs(rep.estimate - v.mean()) <= 1e-12 * abs(v.mean())
        assert rep.stderr == pytest.approx(math.sqrt(var / 2), rel=1e-9)

    @pytest.mark.parametrize("f", ["pown", "exp", "geom"])
    def test_one_sample_names_the_limit(self, f):
        with pytest.raises(ValueError, match="samples >= 2"):
            estimate_permanent(np.eye(2), RepetitionPattern.uniform(2), f, 1, 0)


class TestOverflow:
    @pytest.mark.parametrize("f", ["pown", "exp", "geom"])
    @pytest.mark.parametrize("scale", [1e200, 1e100])
    def test_overflowing_integrand_raises(self, f, scale):
        with pytest.raises(OverflowError, match=f):
            estimate_permanent(np.full((3, 3), scale), RepetitionPattern.uniform(3), f, 1000, 1)

    def test_variance_scan_raises(self):
        with pytest.raises(OverflowError):
            estimator_variance_scan(np.full((3, 3), 1e200), RepetitionPattern.uniform(3), ["exp"], 1000, 1)

    @pytest.mark.parametrize("f", ["pown", "exp", "geom"])
    def test_large_but_finite_passes(self, f):
        rep = estimate_permanent(np.full((2, 2), 1e50 if f != "exp" else 10.0), RepetitionPattern.uniform(2), f, 1000, 1)
        assert math.isfinite(rep.stderr) and np.isfinite(rep.estimate)

    @staticmethod
    def hadamard(total):
        # |x^T H y| <= sum |h_ij| / sqrt(8) on the torus, so e^(x^T H y) stays finite just below the limit
        h = np.array([[(-1) ** bin(i & j).count("1") for j in range(8)] for i in range(8)], dtype=float)
        return h * (total / 64)

    def test_exp_passes_just_below_the_alias_limit(self):
        rep = estimate_permanent(self.hadamard(_EXP_LIMIT * (1 - 1e-9)), RepetitionPattern.uniform(8), "exp", 1000, 1)
        assert math.isfinite(rep.stderr) and np.isfinite(rep.estimate)

    def test_exp_is_refused_from_the_alias_limit_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(estimators, "bit_generator", _no_draw)
        with pytest.raises(OverflowError, match=r"^the 'exp' integrand's bound e\^\(sum \|a_ij\|\) = e\^753\.4\d* overflows float64$"):
            estimate_permanent(self.hadamard(_EXP_LIMIT * (1 + 1e-9)), RepetitionPattern.uniform(8), "exp", 1000, 1)

    @pytest.mark.parametrize("f", ["pown", "exp", "geom"])
    def test_171_photons_are_refused_before_any_draw(self, monkeypatch, f):
        # 171! is past float64, which keeps n < N / 2 = 2048 wherever phases are drawn
        monkeypatch.setattr(estimators, "bit_generator", _no_draw)
        with pytest.raises(OverflowError):
            estimate_permanent(np.eye(171) / 171, RepetitionPattern.uniform(171), f, 1000, 1)


def _no_draw(*args, **kwargs):
    raise AssertionError("a phase was drawn")


class TestArgumentTypes:
    @pytest.mark.parametrize("samples", [1000.5, 100.0, True, "100", None])
    def test_samples_not_an_integer(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            estimate_permanent(np.eye(2), RepetitionPattern.uniform(2), "pown", samples, 0)

    @pytest.mark.parametrize("streams", [2.0, True, "2"])
    def test_streams_not_an_integer(self, streams):
        with pytest.raises(ValueError, match="streams must be an integer"):
            estimate_permanent(np.eye(2), RepetitionPattern.uniform(2), "pown", 100, 0, streams)

    @pytest.mark.parametrize("streams", [0, -1])
    def test_streams_below_one(self, streams):
        with pytest.raises(ValueError, match="streams >= 1"):
            estimate_permanent(np.eye(2), RepetitionPattern.uniform(2), "pown", 100, 0, streams)

    def test_numpy_integers_give_plain_ints(self):
        pat = RepetitionPattern.uniform(2)
        rep = estimate_permanent(np.eye(2), pat, "pown", np.int64(100), np.uint32(3), np.int16(2))
        assert (type(rep.samples), type(rep.seed), type(rep.streams)) == (int, int, int)
        json.dumps(rep.to_json_dict())
        assert rep == estimate_permanent(np.eye(2), pat, "pown", 100, 3, 2)

    def test_variance_scan_needs_two_samples(self):
        with pytest.raises(ValueError, match="samples >= 2"):
            estimator_variance_scan(np.eye(2), RepetitionPattern.uniform(2), ["pown"], 1, 0)
