import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permkit.combinatorics import (
    RepetitionPattern,
    _as_int,
    as_multi_index,
    count_weight,
    enumerate_splits,
    enumerate_weight,
    factorial_product,
    repeat_matrix,
    weight,
)
from permkit.errors import DimensionMismatch, WeightMismatchWarning
from permkit.permanents import permanent_glynn_multiplicity, permanent_naive, permanent_ryser


class TestFactorialProduct:
    def test_zeros(self):
        assert factorial_product((0, 0, 0)) == 1

    def test_mixed(self):
        assert factorial_product((2, 1, 3)) == 12

    def test_fives(self):
        assert factorial_product((5, 5)) == 14400

    def test_big_integer(self):
        assert factorial_product((25,)) == math.factorial(25)


class TestRepeatMatrix:
    def test_spec_layout(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        out = repeat_matrix(a, RepetitionPattern((2, 1), (1, 2)))
        assert np.array_equal(out, np.array([[1, 2, 2], [1, 2, 2], [3, 4, 4]]))

    def test_uniform_is_identity_transformation(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(repeat_matrix(a, RepetitionPattern.uniform(2)), a)

    def test_empty_pattern_gives_permanent_one(self):
        a = np.ones((2, 2))
        out = repeat_matrix(a, RepetitionPattern((0, 0), (0, 0)))
        assert out.shape == (0, 0)
        assert permanent_naive(out).value == 1

    def test_shapes(self):
        a = np.ones((3, 3))
        out = repeat_matrix(a, RepetitionPattern((2, 0, 1), (1, 1, 4)))
        assert out.shape == (3, 6)

    def test_exact_stays_exact(self):
        a = ((Fraction(1, 2), 2), (3, 4))
        out = repeat_matrix(a, RepetitionPattern((2, 1), (1, 1)))
        assert out == ((Fraction(1, 2), 2), (Fraction(1, 2), 2), (3, 4))

    @pytest.mark.parametrize("rows", [((1, 2), (3, 4)), ((Fraction(1, 2), 2), (3, 4))])
    @pytest.mark.parametrize("p, q", [((0, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 0), (2, 1)), ((0, 0), (0, 0))])
    def test_exact_empty_repetition_stays_exact(self, rows, p, q):
        # an empty A_{p,q} of exact input is an object array: the brute-force and
        # Ryser permanents of it are the int the multiplicity sum gives, not 0j
        pattern = RepetitionPattern(p, q)
        out = repeat_matrix(rows, pattern)
        assert out.dtype == object and out.shape == (sum(p), sum(q))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeightMismatchWarning)
            want = permanent_glynn_multiplicity(rows, pattern).value
        assert type(want) is int and want == int(sum(p) == sum(q))
        for per in (permanent_naive, permanent_ryser):
            got = per(out).value
            assert type(got) is int and got == want

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            repeat_matrix(np.ones((2, 2)), RepetitionPattern((1, 1, 1), (1, 1, 1)))


class TestEnumerateWeight:
    def test_two_vars(self):
        assert list(enumerate_weight(2, 2)) == [(0, 2), (1, 1), (2, 0)]

    def test_zero_weight(self):
        assert list(enumerate_weight(3, 0)) == [(0, 0, 0)]

    def test_count_example(self):
        assert len(list(enumerate_weight(3, 4))) == 15

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10))
    def test_stars_and_bars(self, m, n):
        items = list(enumerate_weight(m, n))
        assert len(items) == count_weight(m, n) == math.comb(n + m - 1, m - 1)
        assert all(weight(p) == n for p in items)
        assert items == sorted(items)
        assert len(set(items)) == len(items)


class TestEnumerateSplits:
    def test_two_parts_unit(self):
        assert list(enumerate_splits((1, 0), 2)) == [((0, 0), (1, 0)), ((1, 0), (0, 0))]

    def test_two_parts_count(self):
        assert len(list(enumerate_splits((1, 1), 2))) == 4

    def test_three_parts_count(self):
        assert len(list(enumerate_splits((2, 1), 3))) == 18

    def test_parts_sum_back(self):
        p = (2, 0, 3)
        for split in enumerate_splits(p, 3):
            assert tuple(sum(c) for c in zip(*split)) == p

    def test_weight_filter(self):
        splits = list(enumerate_splits((2, 2), 2, (1, 3)))
        assert splits
        assert all(weight(s) == 1 and weight(t) == 3 for s, t in splits)

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            list(enumerate_splits((1,), 4))

    @pytest.mark.parametrize("nvars", [2, 3])
    @pytest.mark.parametrize("parts", [2, 3])
    def test_weighted_splits_equal_the_filtered_splits(self, nvars, parts):
        # every p with |p| <= 6 and every weight vector from -1 to |p| + 1 per part,
        # impossible ones included: the splits of those weights, in the same order
        for p in itertools.product(range(7), repeat=nvars):
            n = sum(p)
            if n > 6:
                continue
            by_weights: dict = {}
            for split in enumerate_splits(p, parts):
                by_weights.setdefault(tuple(map(weight, split)), []).append(split)
            for w in itertools.product(range(-1, n + 2), repeat=parts):
                assert list(enumerate_splits(p, parts, w)) == by_weights.get(w, []), (p, w)


class TestRepetitionPattern:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RepetitionPattern((-1, 1), (0, 0))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            RepetitionPattern((1,), (1, 1))

    @pytest.mark.parametrize("rows", [(2.5, 0.5), (2.0, 1), (True, 2), (np.float64(1.0), 2), ("1", 2)])
    def test_non_integer_rejected(self, rows):
        with pytest.raises(ValueError, match="multi-index components must be integers"):
            RepetitionPattern(rows, (1, 2))

    def test_numpy_integers_accepted(self):
        pat = RepetitionPattern(np.array([1, 2]), (np.int64(2), np.uint8(1)))
        assert pat.rows == (1, 2) and pat.cols == (2, 1)
        assert all(type(k) is int for k in pat.rows + pat.cols)


class TestIntegerArguments:
    @pytest.mark.parametrize("p", [(True,), (1.0,), (1, np.float64(2.0)), (1, "2"), (Fraction(1),)])
    def test_as_multi_index_refuses_non_integers(self, p):
        with pytest.raises(ValueError, match="^multi-index components must be integers: "):
            as_multi_index(p)

    def test_as_multi_index_refuses_negatives(self):
        with pytest.raises(ValueError, match=r"^multi-index components must be non-negative: \(1, -1\)$"):
            as_multi_index((1, np.int8(-1)))

    def test_as_multi_index_plain_ints(self):
        out = as_multi_index([np.int64(2), np.uint8(0), 3])
        assert out == (2, 0, 3) and all(type(k) is int for k in out)
        assert as_multi_index(()) == ()

    @pytest.mark.parametrize("value", [True, False, 1.0, "1", None, Fraction(2), 1 + 0j])
    def test_as_int_refuses(self, value):
        with pytest.raises(ValueError, match=f"^count must be an integer, got {re.escape(repr(value))}$"):
            _as_int("count", value)

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint16(3), -(1 << 70)])
    def test_as_int_accepts(self, value):
        out = _as_int("seed", value)
        assert out == value and type(out) is int

    def test_as_int_lower_bound(self):
        assert _as_int("count", np.int32(1), 1) == 1
        with pytest.raises(ValueError, match="^need count >= 1, got 0$"):
            _as_int("count", 0, 1)
