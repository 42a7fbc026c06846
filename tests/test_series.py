import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permkit import identities
from permkit.errors import (
    BadConstantTerm,
    CapMismatch,
    ConstantTermNotOne,
    ExceedsCap,
    NonInvertibleConstantTerm,
    RingMismatch,
)
from permkit.identities import (
    DIXON_MATRIX,
    _det_side,
    _form_power,
    _monomial_table,
    _normalize,
    verify_dixon,
)
from permkit.numerics import scaled_error
from permkit.permanents import _int_dtype
from permkit.series import COMPLEX, RATIONAL, TruncatedSeries, _layout

from oracles import linear_form_power, series_recursion


def rational_series(caps, min_exp=-6, max_exp=6):
    """Hypothesis strategy: random rational series with constant term 1."""
    size = math.prod(c + 1 for c in caps)

    @st.composite
    def build(draw):
        nums = draw(st.lists(st.integers(min_exp, max_exp), min_size=size, max_size=size))
        dens = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
        coeffs = [Fraction(n, d) for n, d in zip(nums, dens)]
        coeffs[0] = Fraction(1)
        return TruncatedSeries(caps, RATIONAL, tuple(coeffs))

    return build()


class TestBasics:
    def test_one_minus_z_squared(self):
        one = TruncatedSeries.one((2,), RATIONAL)
        z = TruncatedSeries.variable((2,), RATIONAL, 0)
        prod = (one + z) * (one - z)
        assert prod.coeffs == (1, 0, -1)

    def test_mul_by_one(self):
        s = TruncatedSeries.from_terms((2, 2), RATIONAL, {(1, 0): 3, (2, 1): Fraction(1, 2)})
        assert (s * TruncatedSeries.one((2, 2), RATIONAL)).coeffs == s.coeffs

    def test_binomial_coefficient(self):
        xy = TruncatedSeries.from_terms((3, 3), RATIONAL, {(1, 0): 1, (0, 1): 1})
        assert xy.power(3).coefficient((2, 1)) == 3

    def test_coefficient_basics(self):
        one = TruncatedSeries.one((2,), RATIONAL)
        assert one.coefficient((0,)) == 1
        sq = TruncatedSeries.from_terms((2, 2), RATIONAL, {(1, 0): 1, (0, 1): 1}).power(2)
        assert sq.coefficient((1, 1)) == 2

    def test_exceeds_cap(self):
        s = TruncatedSeries.one((2,), RATIONAL)
        with pytest.raises(ExceedsCap):
            s.coefficient((3,))

    def test_cap_and_ring_mismatch(self):
        a = TruncatedSeries.one((2,), RATIONAL)
        b = TruncatedSeries.one((3,), RATIONAL)
        c = TruncatedSeries.one((2,), COMPLEX)
        with pytest.raises(CapMismatch):
            a + b
        with pytest.raises(RingMismatch):
            a * c


class TestCoefficientChecks:
    @pytest.mark.parametrize("bad", [1.5, 0.25 + 0j, "1", None])
    def test_rational_ring_takes_only_int_and_fraction(self, bad):
        with pytest.raises(ValueError, match="int or Fraction"):
            TruncatedSeries((1,), RATIONAL, (1, bad))
        with pytest.raises(ValueError):
            TruncatedSeries.from_terms((1,), RATIONAL, {(1,): bad})
        with pytest.raises(ValueError):
            TruncatedSeries.constant((1,), RATIONAL, bad)

    def test_rational_float_pair_from_the_old_failure(self):
        with pytest.raises(ValueError):
            TruncatedSeries((1,), RATIONAL, (1.5, 0.25))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf), complex(math.nan, 1), "x"])
    def test_complex_ring_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            TruncatedSeries((1,), COMPLEX, (1, bad))
        with pytest.raises(ValueError):
            TruncatedSeries.monomial((1,), COMPLEX, (1,), bad)
        with pytest.raises(ValueError):
            TruncatedSeries.one((1,), COMPLEX).scale(bad)

    def test_accepted_values_keep_their_value_and_type(self):
        s = TruncatedSeries((2,), RATIONAL, (1, Fraction(-2, 6), np.int64(4)))
        assert s.coeffs == (1, Fraction(-1, 3), 4)
        assert all(type(c) is Fraction for c in s.coeffs)
        z = TruncatedSeries((2,), COMPLEX, (1, 0.5, np.complex128(2j)))
        assert z.coeffs == (1, 0.5, 2j)
        assert all(type(c) is complex for c in z.coeffs)


class TestNoVariables:
    def test_constant_series_ring_operations(self):
        s = TruncatedSeries.constant((), RATIONAL, 3)
        assert (s * s).coeffs == (9,)
        assert (s + s - s).coeffs == (3,)
        assert s.inverse().coeffs == (Fraction(1, 3),)
        assert s.power(3).coefficient(()) == 27
        assert TruncatedSeries.one((), COMPLEX).log().coeffs == (0j,)
        assert TruncatedSeries.zero((), COMPLEX).exp().sqrt_inverse().coeffs == (1 + 0j,)


class TestInverse:
    def test_geometric(self):
        one = TruncatedSeries.one((5,), RATIONAL)
        z = TruncatedSeries.variable((5,), RATIONAL, 0)
        assert (one - z).inverse().coeffs == (1,) * 6

    def test_inverse_of_one(self):
        one = TruncatedSeries.one((3, 3), RATIONAL)
        assert one.inverse().coeffs == one.coeffs

    def test_zero_constant_rejected(self):
        z = TruncatedSeries.variable((3,), RATIONAL, 0)
        with pytest.raises(NonInvertibleConstantTerm):
            z.inverse()

    @settings(max_examples=25, deadline=None)
    @given(rational_series((2, 2)))
    def test_round_trip(self, s):
        assert s.inverse().inverse().coeffs == s.coeffs

    @settings(max_examples=25, deadline=None)
    @given(rational_series((2, 2)))
    def test_mul_inverse_is_one(self, s):
        assert (s * s.inverse()).coeffs == TruncatedSeries.one((2, 2), RATIONAL).coeffs

    @pytest.mark.parametrize("caps, c0", [((6,), -2), ((3, 3), -3)])
    def test_negative_constant_term(self, caps, c0):
        # each layer divides by c0 < 0, so its own denominator is negative
        # until the common one, lcm(...) > 0, takes over
        g = np.random.default_rng(len(caps))
        size = math.prod(c + 1 for c in caps)
        nums, dens = g.integers(-5, 6, size - 1).tolist(), g.integers(1, 5, size - 1).tolist()
        coeffs = [Fraction(c0)] + [Fraction(n, d) for n, d in zip(nums, dens)]
        s = TruncatedSeries(caps, RATIONAL, coeffs)
        t = s.inverse()
        assert (s * t).coeffs == TruncatedSeries.one(caps, RATIONAL).coeffs
        z = TruncatedSeries(caps, COMPLEX, [complex(c) for c in coeffs]).inverse()
        assert max(scaled_error(b, complex(a)) for a, b in zip(t.coeffs, z.coeffs)) <= 1e-12


@pytest.mark.parametrize("caps", [(), (0,), (3,), (2, 5, 1), (30, 30, 30)])
def test_layout_layers_are_the_degree_sets(caps):
    # layer d holds the flat indices of total degree d, ascending
    exponents, degree, layers = _layout.__wrapped__(caps)
    want = [np.flatnonzero(exponents.sum(axis=1) == d) for d in range(sum(caps) + 1)]
    assert np.array_equal(degree, exponents.sum(axis=1))
    assert len(layers) == len(want)
    assert all(got.dtype == w.dtype and np.array_equal(got, w) for got, w in zip(layers, want))


def test_layout_cache_is_bounded():
    # an entry holds arrays the size of the exponent box
    for k in range(40):
        _layout((k % 5, k // 5))
    assert _layout.cache_info().currsize <= 32


class TestSqrtInverse:
    def test_one(self):
        one = TruncatedSeries.one((4,), RATIONAL)
        assert one.sqrt_inverse().coeffs == one.coeffs

    def test_geometric_square(self):
        one = TruncatedSeries.one((5,), RATIONAL)
        z = TruncatedSeries.variable((5,), RATIONAL, 0)
        s = (one - z) * (one - z)
        assert s.sqrt_inverse().coeffs == (1,) * 6

    def test_constant_term_guard(self):
        s = TruncatedSeries.constant((3,), RATIONAL, 2)
        with pytest.raises(ConstantTermNotOne):
            s.sqrt_inverse()

    @settings(max_examples=25, deadline=None)
    @given(rational_series((3, 2)))
    def test_square_times_s_is_one(self, s):
        t = s.sqrt_inverse()
        assert (t * t * s).coeffs == TruncatedSeries.one((3, 2), RATIONAL).coeffs


class TestExpLog:
    def test_exp_coefficients(self):
        z = TruncatedSeries.variable((6,), RATIONAL, 0)
        assert z.exp().coeffs == tuple(Fraction(1, math.factorial(k)) for k in range(7))

    def test_log_of_geometric(self):
        one = TruncatedSeries.one((6,), RATIONAL)
        z = TruncatedSeries.variable((6,), RATIONAL, 0)
        series = (one - z).inverse().log()
        assert series.coeffs == (0,) + tuple(Fraction(1, k) for k in range(1, 7))

    def test_exp_guard(self):
        with pytest.raises(BadConstantTerm):
            TruncatedSeries.one((3,), RATIONAL).exp()

    def test_log_guard(self):
        with pytest.raises(BadConstantTerm):
            TruncatedSeries.constant((3,), RATIONAL, 2).log()

    @settings(max_examples=25, deadline=None)
    @given(rational_series((2, 2)))
    def test_exp_log_round_trip(self, s):
        assert s.log().exp().coeffs == s.coeffs


class TestRingAxioms:
    @settings(max_examples=20, deadline=None)
    @given(rational_series((2, 2)), rational_series((2, 2)), rational_series((2, 2)))
    def test_exact_ring_axioms(self, a, b, c):
        assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs

    def test_float_ring_axioms(self):
        import numpy as np

        g = np.random.default_rng(3)
        caps = (2, 2)
        size = 9

        def rand_series():
            vals = g.standard_normal(size) + 1j * g.standard_normal(size)
            return TruncatedSeries(caps, COMPLEX, tuple(complex(v) for v in vals))

        a, b, c = rand_series(), rand_series(), rand_series()
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert max(abs(x - y) for x, y in zip(lhs.coeffs, rhs.coeffs)) <= 1e-10


def dense_product(a, b):
    """Reference product: every pair of stored coefficients, zeros included."""
    exps = list(itertools.product(*(range(c + 1) for c in a.caps)))
    zero = Fraction(0) if a.ring == RATIONAL else 0j
    out = dict.fromkeys(exps, zero)
    for ea, ca in zip(exps, a.coeffs):
        for eb, cb in zip(exps, b.coeffs):
            e = tuple(x + y for x, y in zip(ea, eb))
            if e in out:
                out[e] += ca * cb
    return tuple(out[e] for e in exps)


def random_series(g, caps, ring, zero_frac):
    """Sparse series; rational entries have denominators 1..12, complex entries
    are dyadic, so every complex product and sum is exact in any order."""
    size = math.prod(c + 1 for c in caps)
    coeffs = []
    for _ in range(size):
        if g.random() < zero_frac:
            coeffs.append(Fraction(0) if ring == RATIONAL else 0j)
        elif ring == RATIONAL:
            coeffs.append(Fraction(int(g.integers(-9, 10)), int(g.integers(1, 13))))
        else:
            coeffs.append(complex(int(g.integers(-9, 10)) / 4, int(g.integers(-9, 10)) / 8))
    return TruncatedSeries(caps, ring, tuple(coeffs))


class TestProductKernel:
    CAPS = [(0,), (4,), (2, 3), (0, 3), (3, 0, 2), (2, 2, 2)]

    def assert_matches_reference(self, a, b):
        got = (a * b).coeffs
        ref = dense_product(a, b)
        assert got == ref
        assert [type(c) for c in got] == [type(c) for c in ref]

    @pytest.mark.parametrize("ring", [RATIONAL, COMPLEX])
    @pytest.mark.parametrize("caps", CAPS)
    def test_random_against_dense_reference(self, ring, caps):
        g = np.random.default_rng(sum(caps) + len(caps))
        for zero_frac in (0.0, 0.5, 0.9, 1.0):
            a = random_series(g, caps, ring, zero_frac)
            b = random_series(g, caps, ring, 0.5)
            self.assert_matches_reference(a, b)
            self.assert_matches_reference(b, a)

    @pytest.mark.parametrize("ring, x, y", [(RATIONAL, Fraction(1, 3), Fraction(-5, 6)), (COMPLEX, 0.25, -0.625j)])
    def test_cancellation_to_exact_zero(self, ring, x, y):
        caps = (3, 2)
        a = TruncatedSeries.from_terms(caps, ring, {(0, 0): 1, (1, 0): x, (0, 1): y})
        b = TruncatedSeries.from_terms(caps, ring, {(0, 0): 1, (1, 0): -x, (0, 1): -y})
        prod = a * b
        assert prod.coefficient((1, 0)) == 0 and prod.coefficient((0, 1)) == 0
        self.assert_matches_reference(a, b)

    @pytest.mark.parametrize("ring", [RATIONAL, COMPLEX])
    def test_all_zero_operand(self, ring):
        caps = (2, 0, 3)
        zero = TruncatedSeries.zero(caps, ring)
        a = random_series(np.random.default_rng(5), caps, ring, 0.2)
        assert (a * zero).coeffs == zero.coeffs == (zero * a).coeffs
        self.assert_matches_reference(a, zero)

    def test_dixon_checks_twelve_coefficients(self):
        rep = verify_dixon(4)
        assert rep.passed
        assert rep.num_coefficients_checked == 12

    # mixed caps, 0 among them, for m <= 5
    TABLE_CAPS = [(4, 4, 4), (2, 0, 3), (0,), (3,), (1, 2), (0, 2), (2, 1, 0, 2), (1, 0, 2, 1, 1)]

    @staticmethod
    def random_rows(g, m, kind):
        """An m x m matrix of small ints, of Fractions with small denominators,
        or of complex entries in the unit disk, as nested lists."""
        if kind is complex:
            return (g.uniform(-0.7, 0.7, (m, m)) + 1j * g.uniform(-0.7, 0.7, (m, m))).tolist()
        rows = g.integers(-3, 4, size=(m, m)).tolist()
        if kind is Fraction:
            rows = [[Fraction(v, int(g.integers(1, 5))) for v in row] for row in rows]
        return rows

    def test_monomial_power_matches_table(self):
        # the box table against [z^p](Az)^p of the dict expansion, every p <= caps
        g = np.random.default_rng(17)
        for caps in self.TABLE_CAPS:
            for kind in (int, Fraction):
                rows = self.random_rows(g, len(caps), kind)
                mat, _ = _normalize(rows)
                num, den = _monomial_table(mat, caps)
                assert num.size == den.size == math.prod(c + 1 for c in caps)
                for idx, p in enumerate(itertools.product(*(range(c + 1) for c in caps))):
                    assert Fraction(num[idx], den[idx]) == linear_form_power(rows, p, p).get(p, 0)

    # (p, caps): p with zeros, a zero cap, caps below |p| (and below some p_i), no variables
    FORM_CASES = [
        ((), ()),
        ((0,), (3,)),
        ((4,), (2,)),
        ((1, 0, 2), (2, 2, 2)),
        ((2, 1), (0, 3)),
        ((0, 0, 0), (1, 2, 0)),
        ((3, 0, 1), (2, 1, 3)),
        ((2, 2, 2), (1, 1, 1)),
        ((1, 2, 0, 1), (1, 0, 2, 1)),
        ((2, 0, 1, 1, 0), (1, 2, 0, 1, 2)),
    ]

    @pytest.mark.parametrize("kind", [int, Fraction, complex])
    @pytest.mark.parametrize("p, caps", FORM_CASES)
    def test_form_power_matches_the_dict_expansion(self, p, caps, kind):
        # every coefficient of the box: exactly on int/Fraction rows, within 1e-13 (scaled) on complex ones
        g = np.random.default_rng(sum(caps) + 7 * len(p))
        rows = self.random_rows(g, len(p), kind)
        mat, ring = _normalize(np.array(rows, dtype=complex).reshape(len(p), len(p)) if kind is complex else rows)
        assert ring == (COMPLEX if kind is complex else RATIONAL)
        got = _form_power(mat, ring, p, caps)
        want = linear_form_power(rows, p, caps)
        assert got.caps == caps and len(got.coeffs) == math.prod(c + 1 for c in caps)
        for e, v in zip(itertools.product(*(range(c + 1) for c in caps)), got.coeffs):
            if kind is complex:
                assert type(v) is complex and scaled_error(v, want.get(e, 0)) <= 1e-13, (e, v, want.get(e))
            else:
                assert type(v) is Fraction and v == want.get(e, 0), (e, v, want.get(e))

    def test_box_table_on_all_ones_rows(self):
        # row i of A is all 1/(i + 1), so (Az)^p = (z_1 + ... + z_m)^{|p|} / prod_i (i + 1)^{p_i}
        # and [z^p](Az)^p = |p|!/p! / prod_i (i + 1)^{p_i}: every entry of a dense matrix
        # reaches every coordinate, so a box one too narrow anywhere loses terms
        for caps in self.TABLE_CAPS:
            m = len(caps)
            mat, _ = _normalize([[Fraction(1, i + 1)] * m for i in range(m)])
            num, den = _monomial_table(mat, caps)
            for idx, p in enumerate(itertools.product(*(range(c + 1) for c in caps))):
                scale = math.prod((i + 1) ** e for i, e in enumerate(p))
                want = Fraction(math.factorial(sum(p)), math.prod(map(math.factorial, p)) * scale)
                assert Fraction(num[idx], den[idx]) == want
                assert _form_power(mat, RATIONAL, p, p).coefficient(p) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dixon_chain_matches_monomial_power(self, n):
        mat, _ = _normalize(DIXON_MATRIX)
        p = (2 * n,) * 3
        got = _form_power(mat, RATIONAL, p, p).coefficient(p)
        assert got == linear_form_power(DIXON_MATRIX, p, p)[p]
        assert got == (-1) ** n * math.factorial(3 * n) // math.factorial(n) ** 3

    def test_chain_matches_monomial_power_beyond_p(self):
        # the box c <= p against the box one past p in every variable, and both against the dict expansion
        g = np.random.default_rng(29)
        for p in [(0, 0, 0), (2, 0, 1), (0, 3, 2), (1, 1, 1)]:
            rows = self.random_rows(g, 3, Fraction)
            mat, _ = _normalize(rows)
            caps = tuple(e + 1 for e in p)
            got = _form_power(mat, RATIONAL, p, p).coefficient(p)
            assert got == _form_power(mat, RATIONAL, p, caps).coefficient(p) == linear_form_power(rows, p, caps)[p]


class TestIntegerExpansion:
    """`_form_power` and `_monomial_table` expand on int64 while
    B = prod_i max(sum_j |c_ij|, 1)^{e_i} < 2^63 (e = p, or the caps), else on
    Python ints, and return Python ints either way."""

    # (2^63 - 1) / 7^2: the rows (7) and (N) with p = (2, 1) give B = 2^63 - 1
    N = (2**63 - 1) // 49

    @staticmethod
    def dtypes(monkeypatch):
        """The dtypes of the tables that `_times_form` is given, in call order."""
        seen, inner = [], identities._times_form

        def record(arr, row):
            seen.append(arr.dtype)
            return inner(arr, row)

        monkeypatch.setattr(identities, "_times_form", record)
        return seen

    @staticmethod
    def assert_exact(series, rows, p, caps):
        # every coefficient against the dict expansion, as a Fraction of Python ints
        want = linear_form_power(rows, p, caps)
        for e in itertools.product(*(range(c + 1) for c in caps)):
            got = series.coefficient(e)
            assert type(got) is Fraction and type(got.numerator) is int, (e, got)
            assert got == want.get(e, 0), (e, got, want.get(e))

    @staticmethod
    def assert_table(mat, rows, caps):
        num, den = _monomial_table(mat, caps)
        for idx, p in enumerate(itertools.product(*(range(c + 1) for c in caps))):
            assert type(num[idx]) is int and type(den[idx]) is int, (p, num[idx])
            assert Fraction(num[idx], den[idx]) == linear_form_power(rows, p, p).get(p, 0), p

    def test_bound_2_63_minus_1_runs_on_int64(self, monkeypatch):
        seen = self.dtypes(monkeypatch)
        rows = [[7], [self.N]]
        got = _form_power(np.array(rows, dtype=object), RATIONAL, (2, 1), (3,))
        assert got.coefficient((3,)) == 2**63 - 1
        self.assert_exact(got, rows, (2, 1), (3,))
        # a square matrix on the same bound, 7^2 N, through the table with caps (2, 1)
        rows = [[3, 4], [self.N - 5, 5]]
        mat, _ = _normalize(rows)
        self.assert_table(mat, rows, (2, 1))
        assert seen and set(seen) == {np.dtype(np.int64)}

    def test_bound_2_63_falls_back_to_python_ints(self, monkeypatch):
        seen = self.dtypes(monkeypatch)
        mat, _ = _normalize([[2]])
        got = _form_power(mat, RATIONAL, (63,), (63,))
        assert got.coefficient((63,)) == 2**63
        self.assert_exact(got, [[2]], (63,), (63,))
        self.assert_table(mat, [[2]], (63,))
        assert seen and set(seen) == {np.dtype(object)}

    def test_zero_rows(self, monkeypatch):
        # a zero row is counted as 1 in B: 3^40 > 2^63 takes Python ints,
        # though the zero row makes every entry with p_2 > 0 vanish
        seen = self.dtypes(monkeypatch)
        rows = [[3, 0], [0, 0]]
        mat, _ = _normalize(rows)
        self.assert_table(mat, rows, (40, 1))
        self.assert_exact(_form_power(mat, RATIONAL, (40, 1), (40, 1)), rows, (40, 1), (40, 1))
        self.assert_exact(_form_power(mat, RATIONAL, (40, 0), (40, 1)), rows, (40, 0), (40, 1))
        assert seen and set(seen) == {np.dtype(object)}
        seen.clear()
        self.assert_table(mat, rows, (39, 2))
        assert seen and set(seen) == {np.dtype(np.int64)}

    def test_fraction_rows_are_bounded_after_scaling(self, monkeypatch):
        # the denominators scale the rows, so the bound is on C = Diag(d) A, not on A
        seen = self.dtypes(monkeypatch)
        rows = [[Fraction(1, 2**31), Fraction(-1, 3)], [Fraction(5, 7), 0]]
        mat, _ = _normalize(rows)
        self.assert_exact(_form_power(mat, RATIONAL, (1, 2), (2, 2)), rows, (1, 2), (2, 2))
        self.assert_exact(_form_power(mat, RATIONAL, (2, 2), (2, 2)), rows, (2, 2), (2, 2))
        self.assert_table(mat, rows, (2, 2))
        # C = ((3, -2^31), (5, 0)): B = (2^31 + 3) 5^2 at p = (1, 2), (2^31 + 3)^2 5^2 > 2^63 at (2, 2)
        assert np.dtype(np.int64) in seen and np.dtype(object) in seen

    def test_rule(self):
        assert _int_dtype(2**63 - 1) is np.int64 and _int_dtype(2**63) is object
        assert identities._form_dtype([[3, -4], [0, 0]], (2, 5)) is np.int64
        assert identities._form_dtype([[2, 0], [0, 0]], (63, 0)) is object


class TestLayeredRecursions:
    """The layer-at-a-time recursions against the per-coefficient reference:
    equal in the rational ring, within a few ulps of the coefficient scale in
    the complex ring (the summation order differs)."""

    CAPS = [(5,), (2, 3), (3, 0, 2), (2, 2, 2)]
    OPS = ["inverse", "sqrt_inverse", "exp", "log"]

    @staticmethod
    def operand(g, caps, ring, op, zero_frac):
        s = random_series(g, caps, ring, zero_frac)
        c0 = {"exp": 0, "inverse": 3}.get(op, 1)
        return TruncatedSeries(caps, ring, (Fraction(c0) if ring == RATIONAL else complex(c0),) + s.coeffs[1:])

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("caps", CAPS)
    def test_rational_equal(self, op, caps):
        g = np.random.default_rng(len(caps) * 7 + sum(caps))
        for zero_frac in (0.0, 0.6, 0.95):
            s = self.operand(g, caps, RATIONAL, op, zero_frac)
            got = getattr(s, op)().coeffs
            assert list(got) == series_recursion(op, caps, s.coeffs)
            assert all(type(c) is Fraction for c in got)

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("caps", CAPS)
    def test_complex_close(self, op, caps):
        g = np.random.default_rng(len(caps) * 11 + sum(caps))
        for zero_frac in (0.0, 0.6, 0.95):
            s = self.operand(g, caps, COMPLEX, op, zero_frac).scale(0.25)
            if op != "exp":
                s = s + TruncatedSeries.constant(caps, COMPLEX, 0.75 if op != "inverse" else 0)
            ref = np.array(series_recursion(op, caps, s.coeffs))
            got = getattr(s, op)().coeffs
            assert all(type(c) is complex for c in got)
            assert np.max(np.abs(np.array(got) - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_exact_dixon_inverse_at_caps_8(self):
        caps = (8, 8, 8)
        det = _det_side([_normalize(DIXON_MATRIX)[0]], [range(3)], RATIONAL, caps)
        assert det.inverse().coeffs == tuple(series_recursion("inverse", caps, det.coeffs))
