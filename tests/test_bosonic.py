import hashlib
import math
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permkit import bosonic, rng
from permkit.bosonic import (
    _GUIDE_BITS,
    DRAW_BUDGET,
    OVERFLOW,
    CatInputSpec,
    OutcomeDistribution,
    amplitude_regime_check,
    bs_distribution,
    cat_total_photon_pmf,
    cat_amplitude,
    cat_distribution,
    fock_amplitude,
    hong_ou_mandel_unitary,
    kept_draws,
    photon_fraction,
    reject_to_fixed_n,
    rejection_sampling_pipeline,
    sample,
    tv_distance,
)
from permkit.combinatorics import count_weight, enumerate_weight, weight_array
from permkit.errors import DimensionMismatch, EmptyConditioning, TooLarge, ZeroAmplitude
from permkit.permanents import _LOW_BITS, _SUMS_ENTRIES, _sign_sums

from oracles import dict_kept_draws, dict_reject_to_fixed_n, dict_sample, gray_code_cat_sign_sum, inverse_cdf_indices


class TestFockAmplitude:
    def test_identity_diagonal(self):
        assert fock_amplitude(np.eye(3), (2, 0, 1), (2, 0, 1)) == pytest.approx(1.0)

    def test_hong_ou_mandel_cancels(self):
        hom = hong_ou_mandel_unitary()
        assert abs(fock_amplitude(hom, (1, 1), (1, 1))) <= 1e-12

    def test_photon_conservation(self):
        u = rng.haar_unitary(3, 5)
        assert fock_amplitude(u, (1, 0, 0), (1, 1, 0)) == 0j


class TestBsDistribution:
    def test_identity_single_photon(self):
        d = bs_distribution(np.eye(3), 1)
        assert d.probs[(1, 0, 0)] == pytest.approx(1.0)
        assert d.probs[(0, 1, 0)] == pytest.approx(0.0)

    def test_hong_ou_mandel_bunching(self):
        d = bs_distribution(hong_ou_mandel_unitary(), 2)
        assert d.probs[(2, 0)] == pytest.approx(0.5)
        assert d.probs[(0, 2)] == pytest.approx(0.5)
        assert d.probs[(1, 1)] == pytest.approx(0.0, abs=1e-12)

    def test_normalization_random_haar(self):
        d = bs_distribution(rng.haar_unitary(4, 10), 2)
        assert abs(d.total_enumerated() - 1.0) <= 1e-9
        assert d.truncated_mass == 0.0
        assert all(sum(p) == 2 for p in d.probs)

    def test_weights_past_float64_raise(self):
        # not a unitary: the sign sums 1e400 are past float64, which would read as NaN weights
        with pytest.raises(OverflowError, match="amplitude of 2 photons is past float64"):
            bs_distribution(1e200 * np.eye(2), 2)
        # amplitudes of about 1e160 hold, but their squares do not
        with pytest.raises(OverflowError, match="weights of 2 photons total past float64"):
            bs_distribution(1e80 * np.eye(2), 2)


class TestCatAmplitude:
    def test_below_threshold_is_zero(self):
        u = rng.haar_unitary(4, 20)
        spec = CatInputSpec(0.5, 2, 4)
        assert cat_amplitude(u, spec, (1, 0, 0, 0)) == 0j

    def test_wrong_parity_is_zero(self):
        u = rng.haar_unitary(4, 21)
        spec = CatInputSpec(0.5, 2, 4)
        assert cat_amplitude(u, spec, (1, 1, 1, 0)) == 0j

    def test_ratio_to_single_photon(self):
        u = rng.haar_unitary(4, 22)
        alpha = 0.4 + 0.3j
        spec = CatInputSpec(alpha, 2, 4)
        expected = alpha**2 / math.sinh(abs(alpha) ** 2)
        for p in [(1, 1, 0, 0), (2, 0, 0, 0), (0, 1, 0, 1)]:
            fock = fock_amplitude(u, p, (1, 1, 0, 0))
            cat = cat_amplitude(u, spec, p)
            assert cat == pytest.approx(expected * fock, abs=1e-12)

    def test_zero_alpha_rejected(self):
        with pytest.raises(ZeroAmplitude):
            CatInputSpec(0.0, 1, 2)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, complex(0.5, math.nan), complex(0.0, math.inf)])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            CatInputSpec(alpha, 1, 2)


class TestCatDistribution:
    def test_mass_at_n_is_cutoff_independent(self):
        u = rng.haar_unitary(4, 30)
        spec = CatInputSpec(0.5, 2, 4)
        masses = []
        for cutoff in (2, 4, 8):
            d = cat_distribution(u, spec, cutoff)
            masses.append(d.mass_at_weight(2))
        expected = photon_fraction(0.5, 2)
        for mass in masses:
            assert abs(mass - expected) <= 1e-10

    def test_small_alpha_concentrates(self):
        u = rng.haar_unitary(3, 31)
        spec = CatInputSpec(0.05, 2, 3)
        d = cat_distribution(u, spec, 6)
        assert d.mass_at_weight(2) >= 0.99

    def test_single_mode_fock_expansion(self):
        alpha = 0.7
        spec = CatInputSpec(alpha, 1, 1)
        d = cat_distribution(np.eye(1), spec, 9)
        s = math.sinh(alpha**2)
        for p in range(1, 10, 2):
            expected = alpha ** (2 * p) / (math.factorial(p) * s)
            assert d.probs[(p,)] == pytest.approx(expected, rel=1e-12)

    def test_parity_support(self):
        u = rng.haar_unitary(3, 32)
        d = cat_distribution(u, CatInputSpec(0.6, 1, 3), 5)
        assert all(sum(p) % 2 == 1 for p in d.probs)

    def test_mass_accounting(self):
        u = rng.haar_unitary(4, 33)
        d = cat_distribution(u, CatInputSpec(0.8, 2, 4), 8)
        assert abs(d.total_enumerated() + d.truncated_mass - 1.0) <= 1e-9
        assert 0.0 <= d.truncated_mass <= d.tail_bound + 1e-12

    def test_photon_number_marginal_matches_input_law(self):
        # A passive interferometer conserves total photon number, so the
        # output weight marginal must reproduce the input cat photon-number
        # distribution at EVERY weight, not just at n; this pins down the
        # above-threshold amplitudes through an independent route.
        from permkit.bosonic import cat_total_photon_pmf

        u = rng.haar_unitary(3, 34)
        alpha = 0.9
        n, cutoff = 2, 8
        d = cat_distribution(u, CatInputSpec(alpha, n, 3), cutoff)
        pmf = cat_total_photon_pmf(alpha, n, cutoff)
        for total in range(n, cutoff + 1, 2):
            assert d.mass_at_weight(total) == pytest.approx(pmf[total], abs=1e-12)

    def test_cutoff_below_n_rejected(self):
        with pytest.raises(ValueError):
            cat_distribution(np.eye(2), CatInputSpec(0.5, 2, 2), 1)

    def test_support_count_matches_the_sum_over_weights(self):
        for m in range(1, 9):
            for n in range(1, 6):
                for cutoff in [*range(n, n + 12), n + 31, 64]:
                    want = sum(count_weight(m, k) for k in range(n, cutoff + 1, 2))
                    top = cutoff - (cutoff - n) % 2
                    got = bosonic._same_parity_outcomes(m, top) - bosonic._same_parity_outcomes(m, n - 2)
                    assert got == want, (m, n, cutoff)

    def test_cutoff_past_170_photons(self):
        # 171! is past float64; at |alpha|^2 ~ 180 the weights past 170 hold a third of the mass
        u, alpha = rng.haar_unitary(2, 36), 13.4
        spec = CatInputSpec(alpha, 1, 2)
        d = cat_distribution(u, spec, 200)
        pmf = cat_total_photon_pmf(alpha, 1, 200)
        assert sum(pmf[171:]) > 0.3
        for k in range(1, 201, 2):
            assert d.mass_at_weight(k) == pytest.approx(pmf[k], rel=1e-10, abs=1e-300), k
        assert d.truncated_mass == pytest.approx(d.tail_bound, rel=1e-9)
        # the weights below 171 are bit for bit those of cutoff 170
        below = cat_distribution(u, spec, 170).probs
        assert all(d.probs[p] == v for p, v in below.items())
        for p in [(171, 0), (100, 81), (0, 199), (200, 1)]:
            want = d.probs[p] if sum(p) <= 200 else None
            got = abs(cat_amplitude(u, spec, p)) ** 2
            assert 0 < got < math.inf and (want is None or got == pytest.approx(want, rel=1e-12, abs=0)), p

    def test_scale_and_root_factorial_past_float64(self):
        # at |alpha|^2 ~ 301 the scale alpha^k / sinh^(1/2) is past float64 from
        # k = 303 on, and sqrt(p!) is inf wherever p! is past float64, though their quotient is not
        alpha, cutoff = 17.35, 401
        spec, pmf = CatInputSpec(alpha, 1, 2), cat_total_photon_pmf(alpha, 1, cutoff)
        assert pmf[301] > 0.02 and sum(pmf[303:]) > 0.4
        with pytest.raises(OverflowError):
            _cat_scale(alpha, 1, 303)
        for k, inf_rows in [(180, 30), (301, 302)]:
            plan = bosonic._build_plan(2, k)
            past = [math.factorial(a) * math.factorial(b) > sys.float_info.max for a, b in plan.table.tolist()]
            assert np.isinf(plan.root_fact).tolist() == past and sum(past) == inf_rows, k
        # one cat into the first of two uncoupled modes: |amp|^2 is the one-mode pmf
        eye = np.eye(2)
        for k in (301, 303, 401):
            assert abs(cat_amplitude(eye, spec, (k, 0))) ** 2 == pytest.approx(pmf[k], rel=1e-10), k
            assert cat_amplitude(eye, spec, (k - 1, 1)) == 0j
        d = cat_distribution(eye, spec, cutoff)
        assert d.probs[(301, 0)] == pytest.approx(pmf[301], rel=1e-10)
        assert d.truncated_mass == pytest.approx(d.tail_bound, abs=1e-12)
        # a coupled pair: every weight keeps its mass, rows (200, 201) included
        u = rng.haar_unitary(2, 38)
        d = cat_distribution(u, spec, cutoff)
        for k in range(1, cutoff + 1, 2):
            assert d.mass_at_weight(k) == pytest.approx(pmf[k], rel=1e-9, abs=1e-300), k
        assert d.truncated_mass == pytest.approx(d.tail_bound, abs=1e-12)
        for p in [(301, 0), (0, 303), (200, 201), (150, 251)]:
            assert abs(cat_amplitude(u, spec, p)) ** 2 == pytest.approx(d.probs[p], rel=1e-10, abs=0), p
        # two cats, whose amplitudes carry a factor 2^-1: the scale is past float64 from k = 344 on
        spec, pmf = CatInputSpec(13.5, 2, 2), cat_total_photon_pmf(13.5, 2, 440)
        _cat_scale(13.5, 2, 342)
        with pytest.raises(OverflowError):
            _cat_scale(13.5, 2, 344)
        d = cat_distribution(u, spec, 440)
        for k in range(2, 441, 2):
            assert d.mass_at_weight(k) == pytest.approx(pmf[k], rel=1e-9, abs=1e-300), k
        assert sum(pmf[344:]) > 0.5
        # where the true amplitude is itself below float64, it reads 0
        assert cat_amplitude(u, CatInputSpec(1.0, 1, 2), (301, 0)) == 0j

    def test_cat_amplitude_past_float64_raises(self):
        # not a unitary: its sign sum 5^401 holds, but the amplitude 5^401 * e^128 does not
        with pytest.raises(OverflowError, match="^an amplitude of 401 photons is past float64$"):
            cat_amplitude(np.full((2, 2), 5.0), CatInputSpec(17.35, 1, 2), (200, 201))

    def test_direct_quotient_past_float64_is_taken_in_log_space(self):
        # not a unitary: 10 * I scales the amplitude of (169, 0) by 10^169 to about 1e160,
        # though the scale times the sign sum, about 1e144 * 1e169, is past float64
        spec, pmf = CatInputSpec(17.35, 1, 2), cat_total_photon_pmf(17.35, 1, 169)
        amp = cat_amplitude(10 * np.eye(2), spec, (169, 0))
        assert 1e150 < abs(amp) < 1e170
        assert 2 * math.log(abs(amp)) - 338 * math.log(10) == pytest.approx(math.log(pmf[169]), abs=1e-9)

    def test_cat_distribution_past_float64_raises(self):
        # not a unitary: the amplitudes of 71 photons hold, but two of their squares do not
        spec = CatInputSpec(1.0, 1, 2)
        with pytest.raises(OverflowError, match=r"^the weights of 1\.\.71 photons total past float64$"):
            cat_distribution(1000 * np.eye(2), spec, 71)
        # and the sign sums 1000^k are past float64 from 103 photons on
        with pytest.raises(OverflowError, match="^an amplitude of 103 photons is past float64$"):
            cat_distribution(1000 * np.eye(2), spec, 121)

    def test_huge_cutoff_is_refused_at_once(self):
        # the support is counted in closed form, not summed weight by weight up to the cutoff
        u, cutoff = rng.haar_unitary(3, 35), 10**20
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=rf"^outcome support of 2\.\.{cutoff} photons in 3 modes needs about 10\^\d+ outcomes"):
            cat_distribution(u, CatInputSpec(0.5, 2, 3), cutoff)
        assert time.perf_counter() - start < 1.0


class TestPhotonFraction:
    def test_zero_photons(self):
        assert photon_fraction(0.7, 0) == 1.0

    def test_single_photon_unit_alpha(self):
        assert photon_fraction(1.0, 1) == pytest.approx(1.0 / math.sinh(1.0))

    def test_two_photons_half_alpha(self):
        assert photon_fraction(0.5, 2) == pytest.approx(0.0625 / math.sinh(0.25) ** 2)

    def test_complex_alpha_uses_modulus(self):
        assert photon_fraction(0.3 + 0.4j, 2) == pytest.approx(photon_fraction(0.5, 2))

    def test_zero_amplitude(self):
        with pytest.raises(ZeroAmplitude):
            photon_fraction(0.0, 1)


class TestRejection:
    def test_already_conditioned_unchanged(self):
        d = bs_distribution(rng.haar_unitary(3, 40), 2)
        r = reject_to_fixed_n(d, 2)
        assert tv_distance(r.probs, d.probs) <= 1e-12

    def test_cat_rejection_equals_single_photon(self):
        u = rng.haar_unitary(4, 41)
        spec = CatInputSpec(0.5, 2, 4)
        cat = cat_distribution(u, spec, 8)
        bs = bs_distribution(u, 2)
        assert tv_distance(reject_to_fixed_n(cat, 2).probs, bs.probs) <= 1e-12

    @pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (4, 3)])
    def test_rejection_exact_across_sizes(self, m, n):
        u = rng.haar_unitary(m, 42 + m)
        cat = cat_distribution(u, CatInputSpec(0.6, n, m), n + 4)
        bs = bs_distribution(u, n)
        assert tv_distance(reject_to_fixed_n(cat, n).probs, bs.probs) <= 1e-12

    def test_outcomewise_proportionality(self):
        u = rng.haar_unitary(4, 45)
        alpha = 0.7
        spec = CatInputSpec(alpha, 2, 4)
        cat = cat_distribution(u, spec, 6)
        bs = bs_distribution(u, 2)
        frac = photon_fraction(alpha, 2)
        for p, prob in bs.probs.items():
            expected = frac * prob
            assert abs(cat.probs[p] - expected) <= 1e-10 * max(1e-300, abs(expected))

    def test_toy_distribution(self):
        d = OutcomeDistribution({(1, 0): 0.3, (2, 0): 0.7}, cutoff=2, truncated_mass=0.0)
        r = reject_to_fixed_n(d, 1)
        assert r.probs == {(1, 0): 1.0}

    def test_empty_conditioning(self):
        d = OutcomeDistribution({(2, 0): 1.0}, cutoff=2, truncated_mass=0.0)
        with pytest.raises(EmptyConditioning):
            reject_to_fixed_n(d, 1)


class TestSampling:
    def test_point_mass(self):
        d = OutcomeDistribution({(3, 1): 1.0}, cutoff=4, truncated_mass=0.0)
        assert sample(d, 10, 0) == [(3, 1)] * 10

    def test_seed_determinism(self):
        d = bs_distribution(rng.haar_unitary(3, 50), 2)
        assert sample(d, 100, 12) == sample(d, 100, 12)

    def test_empirical_convergence(self):
        d = bs_distribution(rng.haar_unitary(3, 51), 2)
        count = 40_000
        draws = sample(d, count, 8)
        freq: dict = {}
        for o in draws:
            freq[o] = freq.get(o, 0.0) + 1.0 / count
        assert tv_distance(freq, d.probs) <= 3.0 * math.sqrt(len(d.probs) / count)

    def test_overflow_sentinel_frequency(self):
        d = OutcomeDistribution({(1,): 0.5}, cutoff=1, truncated_mass=0.5)
        draws = sample(d, 4000, 5)
        overflow = sum(1 for o in draws if o is OVERFLOW)
        assert 0.4 <= overflow / 4000 <= 0.6


def _edge_words(bits: int) -> np.ndarray:
    """0, 2^64 - 1 and the words either side of bucket edges of a 2^bits
    guide: every edge up to 2^6 buckets, else the outer ones, the middle ones
    and a seeded sample."""
    buckets = 1 << bits
    if bits <= 6:
        starts = list(range(buckets))
    else:
        starts = [0, 1, 2, buckets // 2 - 1, buckets // 2, buckets // 2 + 1, buckets - 1]
        starts += rng.generator(bits).integers(0, buckets, 48).tolist()
    words = {0, (1 << 64) - 1}
    for b in starts:
        first = b << (64 - bits)
        words.update(w for w in (first - 1, first, first + 1, first + (1 << (64 - bits)) - 1) if w >= 0)
    return np.array(sorted(words), dtype=np.uint64)


def _dyadic_grid(bits: int) -> np.ndarray:
    """2^bits weights summing to 1, every other one zero: the CDF steps sit on
    the keys of bucket edges of every guide with at least 2^(bits - 1) buckets."""
    return np.tile([0.0, 2.0 ** (1 - bits)], 1 << (bits - 1))


SEARCH_CDFS = {
    "one outcome": np.array([0.3]),
    "flat steps": np.cumsum([0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0]),
    "last outcome empty": np.cumsum([0.5, 0.5, 0.0]),
    "skewed": np.cumsum(rng.generator(3).random(3000) ** 30),
    "beyond the guide cap": np.cumsum(rng.generator(4).random((1 << _GUIDE_BITS) + 5000)),
    # total / 2^64 rounds up to 2^-1073, so high words' keys reach the total
    "scale rounded up": np.array([1.5 * 2.0**-1010]),
    # ... and whole top buckets reach it, past an empty last outcome
    "scale rounded up, last outcome empty": np.array([1.5 * 2.0**-1010] * 2),
}
COUNTS = [0, 1, 2, 3, 7, 9, 255, 257, 4095, 4097, (1 << 17) - 1, (1 << 17) + 1]


class TestGuideTable:
    """The guide-table search must return exactly the binary search's index for
    every raw word: earlier versions searched once per draw."""

    @pytest.mark.parametrize("name", sorted(SEARCH_CDFS))
    @pytest.mark.parametrize("count", COUNTS)
    def test_adversarial_words(self, name, count):
        cdf = SEARCH_CDFS[name]
        edges = _edge_words(bosonic._guide_bits(count, cdf.size))
        filler = rng.bit_generator(count).random_raw(count)
        # every edge word once, in calls of `count` draws so the guide keeps its size
        for start in range(0, edges.size, max(count, 1)):
            raw = filler.copy()
            chunk = edges[start : start + count]
            raw[: chunk.size] = chunk
            assert np.array_equal(bosonic._inverse_cdf(cdf, raw), inverse_cdf_indices(cdf, raw)), start

    @pytest.mark.parametrize("count", [1, 5, 64, 4097, 1 << 16])
    @pytest.mark.parametrize("grid_bits", [1, 2, 5, 8])
    def test_steps_on_bucket_edges(self, count, grid_bits):
        cdf = np.cumsum(_dyadic_grid(grid_bits))
        assert cdf[-1] == 1.0
        raw = np.resize(_edge_words(bosonic._guide_bits(count, cdf.size)), count)
        assert np.array_equal(bosonic._inverse_cdf(cdf, raw), inverse_cdf_indices(cdf, raw))

    def test_steps_between_adjacent_words(self):
        # Words below 2^53 keep distinct keys, so a step can fall between a
        # bucket's last word and the word before it.  4097 draws from 4096
        # outcomes give 2^13 buckets; the first four steps sit on the keys of
        # the last words of buckets 0..3, and the total is 1.
        count, size = 4097, 4096
        bits = bosonic._guide_bits(count, size)
        assert bits == 13
        last_words = [((b + 1) << (64 - bits)) - 1 for b in range(4)]
        cdf = np.concatenate([np.array(last_words, dtype=np.float64) / 2.0**64, np.linspace(0.5, 1.0, size - 4)])
        raw = np.resize(np.array([w + d for w in last_words for d in (-1, 0, 1)], dtype=np.uint64), count)
        expected = inverse_cdf_indices(cdf, raw)
        assert expected[:12].tolist() == [0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4]
        assert np.array_equal(bosonic._inverse_cdf(cdf, raw), expected)

    def test_top_word_takes_the_last_outcome(self):
        # the key of 2^64 - 1 equals the total, so it is capped at the last
        # outcome of positive weight: earlier versions took N - 1 even where
        # that outcome had zero probability
        top = np.array([0, (1 << 64) - (1 << 10) - 1, (1 << 64) - (1 << 10), (1 << 64) - 1], dtype=np.uint64)
        assert bosonic._inverse_cdf(SEARCH_CDFS["last outcome empty"], top).tolist() == [0, 1, 1, 1]
        assert bosonic._inverse_cdf(SEARCH_CDFS["flat steps"], top).tolist() == [1, 6, 6, 6]
        assert bosonic._inverse_cdf(np.cumsum([0.5, 0.0, 0.5]), top).tolist() == [0, 2, 2, 2]

    def test_guide_size(self):
        assert bosonic._guide_bits(0, 10) == 1
        assert bosonic._guide_bits(10**7, 10**6) == _GUIDE_BITS
        # fewer draws than outcomes: draws^2 / outcomes buckets
        assert bosonic._guide_bits(10_000, 54_264) == (10_000**2 // 54_264).bit_length()

    @settings(max_examples=150, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1e300), st.floats(0.0, 1e-300), st.integers(1, 8).map(lambda k: 2.0**-k)),
            min_size=1,
            max_size=80,
        ),
        words=st.lists(
            st.one_of(
                st.integers(0, (1 << 64) - 1),
                st.tuples(st.integers(1, _GUIDE_BITS), st.integers(0, 1 << _GUIDE_BITS), st.integers(-1, 1)).map(
                    lambda t: min(max(((t[1] % (1 << t[0])) << (64 - t[0])) + t[2], 0), (1 << 64) - 1)
                ),
            ),
            max_size=300,
        ),
    )
    def test_matches_binary_search(self, weights, words):
        with np.errstate(over="ignore"):
            cdf = np.cumsum(weights)
        if not 0.0 < cdf[-1] < math.inf:
            return
        raw = np.array(words, dtype=np.uint64)
        assert np.array_equal(bosonic._inverse_cdf(cdf, raw), inverse_cdf_indices(cdf, raw))


def _wide_distribution():
    """70,000 outcomes, more than the guide has buckets."""
    weights = rng.generator(203).random(70_000) ** 4
    return OutcomeDistribution({(i,): w for i, w in enumerate(weights.tolist())}, cutoff=1, truncated_mass=0.0)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _pipeline_fields():
    rep = rejection_sampling_pipeline(rng.haar_unitary(5, 204), CatInputSpec(0.7, 2, 5), 6, 30_000, 16)
    return (rep.total_samples, rep.kept_samples, rep.support_size, rep.cutoff, f"{rep.tv_kept_vs_single_photon:.9e}")


def _kept_fields():
    u = rng.haar_unitary(6, 205)
    dist = cat_distribution(u, CatInputSpec(0.9, 3, 6), 7)
    outcomes, kept, tv = kept_draws(dist, 3, 50_000, 17, bs_distribution(u, 3).probs)
    return outcomes, kept.tolist(), f"{tv:.9e}"


# SHA-256 of each output's repr, recorded from the version that searched the
# CDF once per draw; the sampler must keep every draw.
PINNED = {
    "toy": (
        lambda: sample(OutcomeDistribution({(2, 0): 0.0, (1, 1): 0.375, (0, 2): 0.125, (3, 0): 0.0}, 3, 0.5), 4097, 11),
        "cf85f7a4e23a11c001cc40bb6c560bb106bc29619c630aea6329ace2fc22e91a",
    ),
    "one": (
        lambda: sample(OutcomeDistribution({(1,): 1.0}, 1, 0.0), 1, 15),
        "2f89a856b49d78145fad2bef112e0a7279679104ddb8b55e95b949266fe943ac",
    ),
    "bs": (
        lambda: sample(bs_distribution(rng.haar_unitary(5, 201), 3), 10_001, 12),
        "ccab3ac50f9971a250cb65b16460e18e74a066e6010660e2e5da9a79f93e6714",
    ),
    "cat": (
        lambda: sample(cat_distribution(rng.haar_unitary(6, 202), CatInputSpec(0.8, 2, 6)), 100_000, 13),
        "b8b0e33ee27171bdadf4a6dd13686ea6f5499509105e7e429764994d6f467628",
    ),
    "wide": (
        lambda: sample(_wide_distribution(), (1 << 17) + 1, 14),
        "204159460c73f25e60e08158f6ec44f80db885e08f7d408c6d7a2ce55e1c76a2",
    ),
    "pipeline": (_pipeline_fields, "7a0a719bd814fd6c4ca566dd88cd4abe38a3c78364885322f77e5de809d49840"),
    "kept_draws": (_kept_fields, "01740e38353cfec55a237bf884665ba399b991912c295fab94258794d0597fe0"),
}


class TestSameDraws:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_digest(self, name):
        run, digest = PINNED[name]
        assert _digest(run()) == digest

    @pytest.mark.parametrize(
        "dist",
        [
            OutcomeDistribution({(1, 1): 1.0}, 2, 0.0),
            OutcomeDistribution({(0, 2): 0.0, (1, 1): 0.25, (2, 0): 0.0, (0, 1): 0.75}, 2, 0.0),
            OutcomeDistribution({(1, 0): 0.1, (0, 1): 0.0}, 1, 0.9),
            _wide_distribution(),
        ],
        ids=["one outcome", "zero-probability outcomes", "overflow mass", "beyond the guide cap"],
    )
    @pytest.mark.parametrize("count", [0, 1, 2, 255, 257, (1 << 17) + 1])
    def test_sample_matches_binary_search(self, dist, count):
        assert sample(dist, count, count + 3) == dict_sample(dict(dist.probs), dist.truncated_mass, count, count + 3)


class TestBadDraws:
    @pytest.mark.parametrize(
        "probs,mass",
        [
            ({(1,): math.nan, (0,): 0.5}, 0.0),
            ({(1,): 0.5, (0,): math.inf}, 0.0),
            ({(1,): -0.1, (0,): 1.1}, 0.0),
            ({(1,): 0.0, (0,): 0.0}, 0.0),
            ({}, 0.0),
            ({(1,): 1e308, (0,): 1e308}, 0.0),
            ({(1,): 0.5}, math.nan),
            ({(1,): 0.5}, -0.5),
        ],
        ids=["nan", "inf", "negative", "all zero", "empty", "total overflows", "nan mass", "negative mass"],
    )
    def test_bad_weights_raise(self, probs, mass):
        dist = OutcomeDistribution(probs, 1, mass)
        with pytest.raises(ValueError, match="finite and non-negative"):
            sample(dist, 5, 0)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="count"):
            sample(OutcomeDistribution({(1,): 1.0}, 1, 0.0), -1, 0)

    def test_count_over_budget_refused_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("draws were generated")

        monkeypatch.setattr(bosonic, "bit_generator", no_draws)
        dist = OutcomeDistribution({(1,): 1.0}, 1, 0.0)
        with pytest.raises(TooLarge, match=f"budget is {DRAW_BUDGET}"):
            sample(dist, 10**12, 0)
        with pytest.raises(TooLarge):
            kept_draws(dist, 1, DRAW_BUDGET + 1, 0, dist.probs)


class TestPipeline:
    def test_summary_matches_closed_forms(self):
        u = rng.haar_unitary(4, 60)
        spec = CatInputSpec(0.3, 2, 4)
        rep = rejection_sampling_pipeline(u, spec, 8, 20_000, 9)
        assert abs(rep.kept_fraction - rep.expected_fraction) <= 3 * rep.fraction_stderr
        assert rep.tv_kept_vs_single_photon <= 3.0 * math.sqrt(rep.support_size / rep.kept_samples)
        assert rep.expected_fraction == pytest.approx(photon_fraction(0.3, 2))

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        u = rng.haar_unitary(3, 61)
        with pytest.raises(ValueError, match="count"):
            rejection_sampling_pipeline(u, CatInputSpec(0.5, 2, 3), 3, count, 0)


class TestBatchedSignSums:
    """The distributions evaluate one batched sign sum per photon weight; each
    probability must match an independent per-outcome route."""

    @staticmethod
    def assert_same_law(got, expected):
        assert list(got) == list(expected)
        scale = max(expected.values())
        for p, v in expected.items():
            assert abs(got[p] - v) <= 1e-12 * scale, p

    @pytest.mark.parametrize("m,n", [(3, 1), (4, 2), (6, 3), (7, 3), (10, 5)])
    def test_bs_distribution_matches_ryser_route(self, m, n):
        u = rng.haar_unitary(m, 70 + m)
        q = (1,) * n + (0,) * (m - n)
        expected = {p: abs(fock_amplitude(u, p, q)) ** 2 for p in enumerate_weight(m, n)}
        self.assert_same_law(bs_distribution(u, n).probs, expected)

    def test_outcomes_span_several_chunks(self):
        # the (10, 5) case above: 2002 outcomes x 2^5 sign vectors
        assert count_weight(10, 5) << 5 > _SUMS_ENTRIES

    @pytest.mark.parametrize("m,n,cutoff,alpha", [(1, 1, 9, 0.7), (3, 1, 7, 0.9), (4, 2, 8, 0.4 + 0.3j), (5, 3, 7, 0.8)])
    def test_cat_distribution_matches_gray_code_loop(self, m, n, cutoff, alpha):
        u = rng.haar_unitary(m, 80 + m)
        cols = np.asarray(u.matrix.data)[:, :n]
        a2 = abs(alpha) ** 2
        expected = {}
        for k in range(n, cutoff + 1, 2):
            scale = alpha**k / (2**n * math.sinh(a2) ** (n / 2))
            for p in enumerate_weight(m, k):
                amp = scale * gray_code_cat_sign_sum(cols, p) / math.sqrt(math.prod(map(math.factorial, p)))
                expected[p] = abs(amp) ** 2
        self.assert_same_law(cat_distribution(u, CatInputSpec(alpha, n, m), cutoff).probs, expected)

    def test_cat_amplitude_across_vertex_blocks(self):
        n = m = 11
        assert n > _LOW_BITS
        u = rng.haar_unitary(m, 90)
        alpha = 0.6 - 0.2j
        spec = CatInputSpec(alpha, n, m)
        scale = alpha**n / math.sinh(abs(alpha) ** 2) ** (n / 2)
        for p in [(1,) * 11, (3, 0, 2, 0, 0, 1, 1, 0, 2, 0, 2), (0,) * 10 + (11,)]:
            expected = scale * fock_amplitude(u, p, (1,) * n)
            assert abs(cat_amplitude(u, spec, p) - expected) <= 1e-12 * abs(scale)

    def test_cat_amplitude_sign_sum_budget(self):
        u = rng.haar_unitary(20, 91)
        with pytest.raises(TooLarge):
            cat_amplitude(u, CatInputSpec(0.5, 20, 20), (1,) * 20)

    def test_pipeline_kept_count_matches_per_draw_count(self):
        u = rng.haar_unitary(5, 92)
        spec = CatInputSpec(0.8, 2, 5)
        rep = rejection_sampling_pipeline(u, spec, 6, 30_000, 17)
        draws = sample(cat_distribution(u, spec, 6), 30_000, 17)
        kept = [o for o in draws if o is not OVERFLOW and sum(o) == 2]
        empirical: dict = {}
        for o in kept:
            empirical[o] = empirical.get(o, 0) + 1 / len(kept)
        assert rep.kept_samples == len(kept)
        assert rep.tv_kept_vs_single_photon == pytest.approx(tv_distance(empirical, bs_distribution(u, 2).probs), abs=1e-12)


def _cat_scale(alpha, n, total):
    """alpha^total / (2^(n-1) sinh^{n/2}(|alpha|^2)) from `_cat_log_scale`; OverflowError past float64."""
    phase, log_scale = bosonic._cat_log_scale(alpha, n, total)
    return phase * math.exp(log_scale)


def _direct_cat_probs(u, spec, cutoff):
    """cat_distribution's probabilities with every weight enumerated afresh."""
    cols = np.asarray(u.matrix.data)[:, : spec.n]
    probs = {}
    for k in range(spec.n, cutoff + 1, 2):
        powers = weight_array(spec.m, k)
        root_fact = np.sqrt([math.prod(map(math.factorial, p)) for p in powers.tolist()])
        amps = _cat_scale(spec.alpha, spec.n, k) * _sign_sums(cols, powers) / root_fact
        probs.update(zip(map(tuple, powers.tolist()), (np.abs(amps) ** 2).tolist()))
    return probs


def _direct_bs_probs(u, n):
    """bs_distribution's probabilities with the outcomes enumerated afresh."""
    arr = np.asarray(u.matrix.data)
    powers = weight_array(arr.shape[0], n)
    root_fact = np.sqrt([math.prod(map(math.factorial, p)) for p in powers.tolist()])
    amps = _sign_sums(arr[:, :n], powers) / (2 ** (n - 1) * root_fact)
    return dict(zip(map(tuple, powers.tolist()), (np.abs(amps) ** 2).tolist()))


@pytest.fixture
def fresh_plans(monkeypatch):
    """An empty plan cache for one test."""
    cache = bosonic._PlanCache()
    monkeypatch.setattr(bosonic, "_plans", cache)
    return cache


class TestOutcomePlans:
    """Each (m, k) outcome space is enumerated once and kept in a cache bounded
    by the outcomes it holds; the distributions read it."""

    @staticmethod
    def assert_identical(got, expected):
        assert list(got.items()) == list(expected.items())

    def test_warm_cache_matches_direct_enumeration(self, fresh_plans):
        u6, u7 = rng.haar_unitary(6, 110), rng.haar_unitary(7, 111)
        s6, s7 = CatInputSpec(0.8, 2, 6), CatInputSpec(0.6j, 3, 7)
        calls = [
            (lambda: cat_distribution(u6, s6, 8).probs, lambda: _direct_cat_probs(u6, s6, 8)),
            (lambda: bs_distribution(u7, 3).probs, lambda: _direct_bs_probs(u7, 3)),
            (lambda: cat_distribution(u7, s7, 7).probs, lambda: _direct_cat_probs(u7, s7, 7)),
            (lambda: bs_distribution(u6, 4).probs, lambda: _direct_bs_probs(u6, 4)),
        ]
        for _ in range(2):
            for run, direct in calls:
                self.assert_identical(run(), direct())
        assert fresh_plans.held == sum(count_weight(6, k) for k in (2, 4, 6, 8)) + sum(count_weight(7, k) for k in (3, 5, 7))

    def test_bs_distribution_reuses_the_cat_plan(self, fresh_plans):
        u = rng.haar_unitary(6, 112)
        cat = cat_distribution(u, CatInputSpec(0.9, 3, 6), 7)
        held = fresh_plans.held
        bs = bs_distribution(u, 3)
        assert fresh_plans.held == held
        at_n = [p for p in cat.probs if sum(p) == 3]
        assert all(a is b for a, b in zip(at_n, bs.probs, strict=True))
        self.assert_identical(bs.probs, _direct_bs_probs(u, 3))

    def test_plan_arrays_are_read_only(self, fresh_plans):
        plan = fresh_plans.get(5, 3)
        for arr in (plan.table, plan.powers, plan.root_fact):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_held_outcomes_stay_within_the_bound(self, fresh_plans, monkeypatch):
        monkeypatch.setattr(bosonic, "_PLAN_OUTCOMES", 100)
        shapes = [(4, 2), (6, 2), (4, 3), (5, 3), (6, 3), (4, 2), (7, 3), (3, 5), (6, 2), (5, 3)]
        for m, k in shapes:
            plan = fresh_plans.get(m, k)
            assert plan.table.size == count_weight(m, k)
            assert fresh_plans.held <= 100
            assert fresh_plans.get(m, k) is plan

    def test_least_recently_used_plan_goes_first(self, fresh_plans, monkeypatch):
        monkeypatch.setattr(bosonic, "_PLAN_OUTCOMES", 60)
        a, b = fresh_plans.get(4, 2), fresh_plans.get(6, 2)  # 10 and 21 outcomes
        assert fresh_plans.get(4, 2) is a
        fresh_plans.get(4, 3)  # 20 more, 51 held
        fresh_plans.get(3, 3)  # 10 more: b, the least recently used, is dropped
        assert fresh_plans.held == 40
        assert fresh_plans.get(4, 2) is a
        assert fresh_plans.get(6, 2) is not b

    def test_oversize_plan_is_returned_but_not_kept(self, fresh_plans, monkeypatch):
        monkeypatch.setattr(bosonic, "_PLAN_OUTCOMES", 100)
        kept = fresh_plans.get(4, 2)
        big = fresh_plans.get(6, 4)  # 126 outcomes
        assert big.table.tolist() == list(enumerate_weight(6, 4))
        assert fresh_plans.held == 10
        assert fresh_plans.get(6, 4) is not big
        assert fresh_plans.get(4, 2) is kept
        u = rng.haar_unitary(6, 113)
        self.assert_identical(bs_distribution(u, 4).probs, _direct_bs_probs(u, 4))
        assert fresh_plans.held == 10

    def test_threads_keep_the_held_count(self, fresh_plans, monkeypatch):
        monkeypatch.setattr(bosonic, "_PLAN_OUTCOMES", 150)
        shapes = [(m, k) for m in range(2, 7) for k in range(1, 5)]
        errors = []

        def worker(offset):
            try:
                for i in range(200):
                    m, k = shapes[(offset + 7 * i) % len(shapes)]
                    assert fresh_plans.get(m, k).table.size == count_weight(m, k)
            except Exception as exc:  # re-raised in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors, errors
        assert fresh_plans.held == sum(p.table.size for p in fresh_plans._plans.values()) <= 150

    def test_mutating_probs_leaves_the_next_call_alone(self, fresh_plans):
        u = rng.haar_unitary(5, 114)
        spec = CatInputSpec(0.7, 2, 5)
        first = cat_distribution(u, spec, 6)
        expected = dict(first.probs)
        with pytest.raises(TypeError):
            first.probs[(2, 0, 0, 0, 0)] = 5.0
        with pytest.raises(TypeError):
            first.probs[(9, 9, 9, 9, 9)] = 1.0
        with pytest.raises(TypeError):
            del first.probs[(0, 0, 0, 0, 2)]
        with pytest.raises(TypeError):
            bs_distribution(u, 2).probs.clear()
        self.assert_identical(cat_distribution(u, spec, 6).probs, expected)
        self.assert_identical(bs_distribution(u, 2).probs, _direct_bs_probs(u, 2))


def _random_probs(seed):
    """A dict of outcomes of mixed photon numbers in random order, about a third
    of them of weight zero, and a truncated mass that is zero at even seeds."""
    g = rng.generator(seed)
    m = int(g.integers(1, 5))
    outcomes = sorted({tuple(g.integers(0, 4, m).tolist()) for _ in range(int(g.integers(1, 60)))})
    g.shuffle(outcomes)
    weights = g.random(len(outcomes)) ** 3
    weights[g.random(len(outcomes)) < 0.35] = 0.0
    weights[int(g.integers(len(outcomes)))] += 0.25
    return dict(zip(outcomes, weights.tolist())), float(g.random()) if seed % 2 else 0.0


class TestDistributionArrays:
    """A distribution is held as arrays in enumeration order; every reader
    gives what the dict-based readers of `oracles` give."""

    @pytest.mark.parametrize("seed", range(24))
    def test_readers_match_the_dict_oracle(self, seed):
        probs, mass = _random_probs(seed)
        dist = OutcomeDistribution(probs, 9, mass)
        assert list(dist.probs.items()) == list(probs.items())
        assert sample(dist, 3001, seed) == dict_sample(probs, mass, 3001, seed)
        for n in range(max(map(sum, probs)) + 2):
            expected = dict_reject_to_fixed_n(probs, n)
            if expected is None:
                with pytest.raises(EmptyConditioning):
                    reject_to_fixed_n(dist, n)
                continue
            got = reject_to_fixed_n(dist, n)
            assert list(got.probs.items()) == list(expected.items())
            assert (got.cutoff, got.truncated_mass, got.tail_bound) == (n, 0.0, None)
            outcomes, kept, tv = kept_draws(dist, n, 2001, seed + n, expected)
            want = dict_kept_draws(probs, mass, n, 2001, seed + n, expected)
            assert (outcomes, kept.tolist(), tv) == (want[0], want[1].tolist(), want[2])

    def test_probs_is_a_read_only_view(self):
        u, spec = rng.haar_unitary(5, 130), CatInputSpec(0.7, 2, 5)
        probs, expected = cat_distribution(u, spec, 6).probs, _direct_cat_probs(u, spec, 6)
        with pytest.raises(TypeError):
            probs[(1, 1, 0, 0, 0)] = 0.5
        with pytest.raises(TypeError):
            del probs[(2, 0, 0, 0, 0)]
        with pytest.raises(TypeError):
            probs.clear()
        assert list(probs) == list(expected) and probs == expected and expected == probs
        given = {(1, 0): 0.25, (0, 1): 0.75}
        dist = OutcomeDistribution(given, 1, 0.0)
        given[(1, 0)] = 0.5
        assert dist.probs == {(1, 0): 0.25, (0, 1): 0.75}
        for view in (probs, dist.probs, reject_to_fixed_n(dist, 1).probs):
            for arr in (view.outcomes, view.weights, view.photons):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[1]

    def test_readers_never_build_the_dict(self, monkeypatch):
        def refuse(self, outcome):
            raise AssertionError("the probs dict was built")

        monkeypatch.setattr(bosonic._Probs, "__getitem__", refuse)
        u, spec = rng.haar_unitary(6, 131), CatInputSpec(0.8, 2, 6)
        cat = cat_distribution(u, spec, 6)
        assert len(sample(cat, 1000, 1)) == 1000
        assert len(bs_distribution(u, 2).probs) == count_weight(6, 2)
        assert len(reject_to_fixed_n(cat, 2).probs) == count_weight(6, 2)
        assert 0.0 < cat.mass_at_weight(2) < cat.total_enumerated() < 1.0
        assert len(cat.probs) == sum(count_weight(6, k) for k in (2, 4, 6))
        assert kept_draws(cat, 2, 1000, 1, {})[1].size > 0


def _small_dist():
    return bs_distribution(rng.haar_unitary(4, 120), 2)


class TestArgumentChecks:
    """Counts, cutoffs, photon numbers and seeds must be integers: numpy's are
    accepted and give the same draws, bools, floats and strings raise
    ValueError naming the argument."""

    @pytest.mark.parametrize(
        "run,name",
        [
            (lambda u: cat_distribution(u, CatInputSpec(0.8, 2, 4), 7.5), "cutoff"),
            (lambda u: cat_distribution(u, CatInputSpec(0.8, 2, 4), "6"), "cutoff"),
            (lambda u: cat_distribution(u, CatInputSpec(0.8, 2, 4), True), "cutoff"),
            (lambda u: bs_distribution(u, 2.0), "n"),
            (lambda u: bs_distribution(u, True), "n"),
            (lambda u: sample(_small_dist(), 10.0, 0), "count"),
            (lambda u: sample(_small_dist(), True, 0), "count"),
            (lambda u: sample(_small_dist(), 3, 1.5), "seed"),
            (lambda u: sample(_small_dist(), 3, "1"), "seed"),
            (lambda u: kept_draws(_small_dist(), 2, 10.0, 0, {}), "count"),
            (lambda u: kept_draws(_small_dist(), 2, 10, 0.5, {}), "seed"),
            (lambda u: kept_draws(_small_dist(), 2.0, 10, 0, {}), "n"),
            (lambda u: rejection_sampling_pipeline(u, CatInputSpec(0.8, 2, 4), 6, 10.0, 0), "count"),
            (lambda u: rejection_sampling_pipeline(u, CatInputSpec(0.8, 2, 4), 6, True, 0), "count"),
            (lambda u: rejection_sampling_pipeline(u, CatInputSpec(0.8, 2, 4), 6.5, 10, 0), "cutoff"),
            (lambda u: rejection_sampling_pipeline(u, CatInputSpec(0.8, 2, 4), 6, 10, 1.5), "seed"),
            (lambda u: CatInputSpec(0.8, 2.0, 4), "n"),
            (lambda u: CatInputSpec(0.8, 2, 4.0), "m"),
            (lambda u: photon_fraction(0.5, 2.5), "n"),
            (lambda u: cat_total_photon_pmf(0.5, 2.0, 7), "n"),
            (lambda u: cat_total_photon_pmf(0.5, 2, 7.5), "cutoff"),
            (lambda u: amplitude_regime_check(2.5, 10, 1.0), "n"),
            (lambda u: amplitude_regime_check(2, 10.0, 1.0), "m"),
            (lambda u: reject_to_fixed_n(_small_dist(), 2.0), "n"),
        ],
    )
    def test_non_integer_refused(self, run, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            run(rng.haar_unitary(4, 121))

    @pytest.mark.parametrize(
        "run",
        [
            lambda u: fock_amplitude(u, (1.5, 0.5, 0, 0), (1, 1, 0, 0)),
            lambda u: fock_amplitude(u, (1, 1, 0, 0), (True, 1, 0, 0)),
            lambda u: cat_amplitude(u, CatInputSpec(0.8, 2, 4), (2.0, 0, 0, 0)),
            lambda u: cat_amplitude(u, CatInputSpec(0.8, 2, 4), (3, -1, 0, 0)),
        ],
    )
    def test_outcome_components_must_be_counts(self, run):
        with pytest.raises(ValueError, match="^multi-index components must be "):
            run(rng.haar_unitary(4, 124))

    def test_numpy_integers_give_the_same_results(self):
        u = rng.haar_unitary(5, 122)
        spec, np_spec = CatInputSpec(0.8, 2, 5), CatInputSpec(0.8, np.int64(2), np.uint8(5))
        assert np_spec == spec and type(np_spec.n) is int
        cat = cat_distribution(u, spec, 6)
        assert cat_distribution(u, np_spec, np.int32(6)) == cat
        bs = bs_distribution(u, 2)
        assert bs_distribution(u, np.int64(2)) == bs
        assert sample(cat, np.int64(5000), np.uint64(7)) == sample(cat, 5000, 7)
        outcomes, kept, tv = kept_draws(cat, np.int16(2), np.int64(5000), np.int32(7), bs.probs)
        expected = kept_draws(cat, 2, 5000, 7, bs.probs)
        assert (outcomes, kept.tolist(), tv) == (expected[0], expected[1].tolist(), expected[2])
        rep = rejection_sampling_pipeline(u, spec, np.int64(6), np.int64(5000), np.uint32(7))
        assert rep == rejection_sampling_pipeline(u, spec, 6, 5000, 7)
        assert type(rep.seed) is int and type(rep.total_samples) is int
        p = np.array([1, 0, 1, 0, 0])
        assert fock_amplitude(u, p, p) == fock_amplitude(u, (1, 0, 1, 0, 0), (1, 0, 1, 0, 0))
        assert cat_amplitude(u, spec, p) == cat_amplitude(u, spec, (1, 0, 1, 0, 0))

    def test_seeds_are_masked_to_64_bits(self):
        dist = _small_dist()
        assert sample(dist, 200, -1) == sample(dist, 200, (1 << 64) - 1)
        assert sample(dist, 200, (1 << 70) | 5) == sample(dist, 200, 5)

    def test_negative_counts_refused(self):
        with pytest.raises(ValueError, match="^need count >= 0, got -1$"):
            sample(_small_dist(), np.int64(-1), 0)
        with pytest.raises(ValueError, match="^need count >= 1, got 0$"):
            rejection_sampling_pipeline(rng.haar_unitary(4, 123), CatInputSpec(0.8, 2, 4), 6, np.int8(0), 0)
        with pytest.raises(ValueError, match="^need n >= 0, got -1$"):
            photon_fraction(0.5, -1)


class TestNonSquareUnitary:
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    @pytest.mark.parametrize(
        "run",
        [
            lambda u, spec, p: fock_amplitude(u, p, p),
            lambda u, spec, p: bs_distribution(u, 1),
            lambda u, spec, p: cat_amplitude(u, spec, p),
            lambda u, spec, p: cat_distribution(u, spec, 3),
            lambda u, spec, p: rejection_sampling_pipeline(u, spec, 3, 10, 1),
        ],
        ids=["fock_amplitude", "bs_distribution", "cat_amplitude", "cat_distribution", "pipeline"],
    )
    def test_refused_naming_the_shape(self, run, shape):
        u, spec, p = np.ones(shape) / 2, CatInputSpec(0.5, 1, shape[0]), (1,) + (0,) * (shape[0] - 1)
        message = f"^the interferometer must be a square matrix, got shape {re.escape(str(shape))}$"
        with pytest.raises(DimensionMismatch, match=message):
            run(u, spec, p)


class TestNonFiniteUnitary:
    @staticmethod
    def nan_unitary(m):
        u = np.array(rng.haar_unitary(m, 93).matrix.data)
        u[1, 0] = np.nan
        return u

    def test_bs_distribution(self):
        with pytest.raises(ValueError, match="finite"):
            bs_distribution(self.nan_unitary(3), 2)

    def test_cat_distribution(self):
        with pytest.raises(ValueError, match="finite"):
            cat_distribution(self.nan_unitary(3), CatInputSpec(0.5, 2, 3), 4)

    def test_cat_amplitude(self):
        with pytest.raises(ValueError, match="finite"):
            cat_amplitude(self.nan_unitary(3), CatInputSpec(0.5, 2, 3), (1, 1, 0))


class TestRegimeCheck:
    def test_lemma_scaling_value(self):
        rep = amplitude_regime_check(16, 100, 1.0)
        assert rep.defined
        assert rep.alpha == pytest.approx(16 ** (-0.25) * math.log(100) ** 0.25)
        assert rep.fraction >= 1.0 / 100

    def test_leading_order_agreement(self):
        rep = amplitude_regime_check(16, 100, 1.0)
        # ln(fraction) = -n(a^4/6 - a^8/180 + ...), so the defect is O(n a^8)
        defect = abs(math.log(rep.fraction) + 16 * rep.alpha**4 / 6.0)
        assert defect <= 16 * rep.alpha**8

    def test_zero_scaling_flagged(self):
        rep = amplitude_regime_check(4, 10, 0.0)
        assert not rep.defined and rep.fraction is None

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("m", [1, 10])
    def test_non_finite_scaling_raises(self, c, m):
        with pytest.raises(ValueError, match="^need a finite c, got"):
            amplitude_regime_check(4, m, c)


class TestLargeAmplitudeNormalisation:
    """sinh(|alpha|^2) and its powers overflow a double long before the ratios
    they normalise do; those ratios must come out finite (possibly 0)."""

    def test_photon_fraction_matches_direct_formula(self):
        assert photon_fraction(2.0, 5) == pytest.approx((4.0 / math.sinh(4.0)) ** 5, rel=1e-12)

    def test_photon_fraction_underflows_instead_of_raising(self):
        assert photon_fraction(40.0, 1) == 0.0

    def test_regime_fraction_of_many_modes(self):
        rep = amplitude_regime_check(2000, 100, 5.0)
        a2 = rep.alpha**2
        expected = math.exp(2000 * (math.log(a2) - math.log(math.sinh(a2))))
        assert 0.0 < rep.fraction == pytest.approx(expected, rel=1e-9)

    def test_cat_distribution_at_alpha_40(self):
        u = rng.haar_unitary(2, 35)
        d = cat_distribution(u, CatInputSpec(40.0, 1, 2), 3)
        assert all(v == 0.0 for v in d.probs.values())
        assert d.truncated_mass == 1.0
        assert d.tail_bound == 1.0
        assert all(o is OVERFLOW for o in sample(d, 20, 1))
