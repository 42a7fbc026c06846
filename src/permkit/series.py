"""Truncated multivariate power series over exact rationals or complex floats.

Coefficients are stored densely, indexed mixed-radix by exponent tuples:
``index(e) = sum_i e_i * strides_i`` with per-variable caps.  Every exponent
beyond the cap is dropped identically, so the ring operations are arithmetic
modulo the cap ideal.  Two coefficient rings are supported:

- ``"rational"``: ``fractions.Fraction`` entries, exact;
- ``"complex"``: Python complex entries, double precision.

Multiplication is a double loop over the nonzero support of both factors with
early cap rejection; in the rational ring it multiplies and adds integer
numerators over one common denominator, so each output coefficient is built
as a single ``Fraction``.  Inversion, square root, exp and log run
order-by-order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence, Union

from .errors import (
    BadConstantTerm,
    CapMismatch,
    ConstantTermNotOne,
    DimensionMismatch,
    ExceedsCap,
    NonInvertibleConstantTerm,
    RingMismatch,
    TooLarge,
)

RATIONAL = "rational"
COMPLEX = "complex"

DET_SERIES_MAX_DIM = 8

Coeff = Union[Fraction, complex]


@lru_cache(maxsize=None)
def _layout(caps: tuple[int, ...]):
    """(strides, exponent table, total degrees) for a cap tuple."""
    size = math.prod(c + 1 for c in caps)
    strides = []
    acc = 1
    for c in reversed(caps):
        strides.append(acc)
        acc *= c + 1
    strides = tuple(reversed(strides))
    exponents = []
    degrees = []
    for idx in range(size):
        rest = idx
        e = []
        for s, c in zip(strides, caps):
            d, rest = divmod(rest, s)
            e.append(d)
        exponents.append(tuple(e))
        degrees.append(sum(e))
    return strides, tuple(exponents), tuple(degrees)


def _zero(ring: str) -> Coeff:
    return Fraction(0) if ring == RATIONAL else 0j


def _one(ring: str) -> Coeff:
    return Fraction(1) if ring == RATIONAL else 1 + 0j


def _coerce_coeff(ring: str, v) -> Coeff:
    if ring == RATIONAL:
        return v if isinstance(v, Fraction) else Fraction(v)
    return complex(v)


def _numerators(items):
    """Items with rational coefficients as integer numerators over their lcm denominator."""
    d = math.lcm(*(c.denominator for _, _, c in items))
    return [(i, e, c.numerator * (d // c.denominator)) for i, e, c in items], d


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    caps: tuple[int, ...]
    ring: str
    coeffs: tuple

    def __post_init__(self) -> None:
        caps = tuple(int(c) for c in self.caps)
        if any(c < 0 for c in caps):
            raise ValueError("caps must be non-negative")
        if self.ring not in (RATIONAL, COMPLEX):
            raise ValueError(f"unknown ring {self.ring!r}")
        size = math.prod(c + 1 for c in caps)
        if len(self.coeffs) != size:
            raise ValueError(f"expected {size} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, caps: Sequence[int], ring: str) -> "TruncatedSeries":
        caps = tuple(caps)
        size = math.prod(c + 1 for c in caps)
        return cls(caps, ring, (_zero(ring),) * size)

    @classmethod
    def constant(cls, caps: Sequence[int], ring: str, value) -> "TruncatedSeries":
        caps = tuple(caps)
        size = math.prod(c + 1 for c in caps)
        coeffs = [_zero(ring)] * size
        coeffs[0] = _coerce_coeff(ring, value)
        return cls(caps, ring, tuple(coeffs))

    @classmethod
    def one(cls, caps: Sequence[int], ring: str) -> "TruncatedSeries":
        return cls.constant(caps, ring, 1)

    @classmethod
    def monomial(cls, caps: Sequence[int], ring: str, exponents: Sequence[int], value=1) -> "TruncatedSeries":
        caps = tuple(caps)
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != len(caps):
            raise DimensionMismatch("exponent tuple length must match the number of variables")
        if any(e > c for e, c in zip(exponents, caps)):
            raise ExceedsCap(f"monomial {exponents} exceeds caps {caps}")
        strides, _, _ = _layout(caps)
        size = math.prod(c + 1 for c in caps)
        coeffs = [_zero(ring)] * size
        coeffs[sum(e * s for e, s in zip(exponents, strides))] = _coerce_coeff(ring, value)
        return cls(caps, ring, tuple(coeffs))

    @classmethod
    def variable(cls, caps: Sequence[int], ring: str, i: int) -> "TruncatedSeries":
        exps = [0] * len(tuple(caps))
        exps[i] = 1
        return cls.monomial(caps, ring, exps)

    @classmethod
    def from_terms(cls, caps: Sequence[int], ring: str, terms: Mapping[tuple, object]) -> "TruncatedSeries":
        caps = tuple(caps)
        strides, _, _ = _layout(caps)
        size = math.prod(c + 1 for c in caps)
        coeffs = [_zero(ring)] * size
        for exps, value in terms.items():
            exps = tuple(int(e) for e in exps)
            if any(e > c for e, c in zip(exps, caps)):
                raise ExceedsCap(f"term {exps} exceeds caps {caps}")
            idx = sum(e * s for e, s in zip(exps, strides))
            coeffs[idx] = coeffs[idx] + _coerce_coeff(ring, value)
        return cls(caps, ring, tuple(coeffs))

    # -- basics -------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return len(self.caps)

    def _compat(self, other: "TruncatedSeries") -> None:
        if self.caps != other.caps:
            raise CapMismatch(f"caps differ: {self.caps} vs {other.caps}")
        if self.ring != other.ring:
            raise RingMismatch(f"rings differ: {self.ring} vs {other.ring}")

    def items(self):
        """(index, exponents, coefficient) triples for nonzero coefficients."""
        _, exponents, _ = _layout(self.caps)
        return [(i, exponents[i], c) for i, c in enumerate(self.coeffs) if c]

    def coefficient(self, p: Sequence[int]) -> Coeff:
        p = tuple(int(k) for k in p)
        if len(p) != self.num_vars:
            raise DimensionMismatch("exponent tuple length must match the number of variables")
        if any(e > c for e, c in zip(p, self.caps)):
            raise ExceedsCap(f"exponent {p} exceeds caps {self.caps}")
        strides, _, _ = _layout(self.caps)
        return self.coeffs[sum(e * s for e, s in zip(p, strides))]

    def constant_term(self) -> Coeff:
        return self.coeffs[0]

    def max_total_degree(self) -> int:
        _, _, degrees = _layout(self.caps)
        nz = [degrees[i] for i, c in enumerate(self.coeffs) if c]
        return max(nz) if nz else 0

    # -- ring operations ----------------------------------------------
    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compat(other)
        return TruncatedSeries(self.caps, self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compat(other)
        return TruncatedSeries(self.caps, self.ring, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.caps, self.ring, tuple(-a for a in self.coeffs))

    def scale(self, value) -> "TruncatedSeries":
        v = _coerce_coeff(self.ring, value)
        return TruncatedSeries(self.caps, self.ring, tuple(v * a for a in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compat(other)
        caps = self.caps
        nv = len(caps)
        a_items = self.items()
        b_items = other.items()
        if len(b_items) < len(a_items):
            a_items, b_items = b_items, a_items
        rational = self.ring == RATIONAL
        if rational:
            a_items, da = _numerators(a_items)
            b_items, db = _numerators(b_items)
            out = [0] * len(self.coeffs)
        else:
            out = [0j] * len(self.coeffs)
        for ia, ea, ca in a_items:
            for ib, eb, cb in b_items:
                ok = True
                for k in range(nv):
                    if ea[k] + eb[k] > caps[k]:
                        ok = False
                        break
                if ok:
                    out[ia + ib] += ca * cb
        if rational:
            d = da * db
            zero = _zero(RATIONAL)
            out = [Fraction(v, d) if v else zero for v in out]
        return TruncatedSeries(caps, self.ring, tuple(out))

    def inverse(self) -> "TruncatedSeries":
        """t with self * t = 1 up to the cap (order-by-order recursion)."""
        c0 = self.coeffs[0]
        if c0 == _zero(self.ring):
            raise NonInvertibleConstantTerm("constant term is zero")
        inv0 = (Fraction(1) / c0) if self.ring == RATIONAL else 1.0 / c0
        _, exponents, _ = _layout(self.caps)
        s_items = [(i, e, c) for i, e, c in self.items() if i != 0]
        out = [_zero(self.ring)] * len(self.coeffs)
        out[0] = inv0
        nv = self.num_vars
        for idx in range(1, len(self.coeffs)):
            e = exponents[idx]
            acc = _zero(self.ring)
            for j, f, sc in s_items:
                ok = True
                for k in range(nv):
                    if f[k] > e[k]:
                        ok = False
                        break
                if ok:
                    acc += sc * out[idx - j]
            out[idx] = -inv0 * acc
        return TruncatedSeries(self.caps, self.ring, tuple(out))

    def sqrt_inverse(self) -> "TruncatedSeries":
        """t with t^2 * self = 1 up to the cap; requires constant term exactly 1."""
        if self.coeffs[0] != _one(self.ring):
            raise ConstantTermNotOne(f"constant term {self.coeffs[0]!r} != 1")
        u = self.inverse()
        _, exponents, _ = _layout(self.caps)
        out = [_zero(self.ring)] * len(self.coeffs)
        out[0] = _one(self.ring)
        nv = self.num_vars
        two = 2
        for idx in range(1, len(self.coeffs)):
            e = exponents[idx]
            acc = _zero(self.ring)
            for j in range(1, idx):
                f = exponents[j]
                ok = True
                for k in range(nv):
                    if f[k] > e[k]:
                        ok = False
                        break
                if ok and out[j]:
                    acc += out[j] * out[idx - j]
            out[idx] = (u.coeffs[idx] - acc) / two
        return TruncatedSeries(self.caps, self.ring, tuple(out))

    def exp(self) -> "TruncatedSeries":
        """Formal exponential via the Euler-operator recursion; constant term must be 0."""
        if self.coeffs[0] != _zero(self.ring):
            raise BadConstantTerm("exp needs constant term 0")
        _, exponents, degrees = _layout(self.caps)
        s_items = [(i, e, c, degrees[i]) for i, e, c in self.items()]
        out = [_zero(self.ring)] * len(self.coeffs)
        out[0] = _one(self.ring)
        nv = self.num_vars
        for idx in range(1, len(self.coeffs)):
            e = exponents[idx]
            d = degrees[idx]
            acc = _zero(self.ring)
            for j, f, sc, df in s_items:
                if j > idx:
                    continue
                ok = True
                for k in range(nv):
                    if f[k] > e[k]:
                        ok = False
                        break
                if ok:
                    acc += df * sc * out[idx - j]
            out[idx] = acc / d
        return TruncatedSeries(self.caps, self.ring, tuple(out))

    def log(self) -> "TruncatedSeries":
        """Formal logarithm via the Euler-operator recursion; constant term must be 1."""
        if self.coeffs[0] != _one(self.ring):
            raise BadConstantTerm("log needs constant term 1")
        _, exponents, degrees = _layout(self.caps)
        out = [_zero(self.ring)] * len(self.coeffs)
        nv = self.num_vars
        for idx in range(1, len(self.coeffs)):
            e = exponents[idx]
            d = degrees[idx]
            acc = _zero(self.ring)
            for j in range(1, idx):
                if not out[j]:
                    continue
                f = exponents[j]
                ok = True
                for k in range(nv):
                    if f[k] > e[k]:
                        ok = False
                        break
                if ok:
                    acc += degrees[j] * out[j] * self.coeffs[idx - j]
            out[idx] = (d * self.coeffs[idx] - acc) / d
        return TruncatedSeries(self.caps, self.ring, tuple(out))

    def power(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("negative powers not supported; use inverse()")
        result = TruncatedSeries.one(self.caps, self.ring)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result


def det_series(mat: Sequence[Sequence[TruncatedSeries]]) -> TruncatedSeries:
    """Determinant of a square matrix of series.

    Runs as a minor expansion over row subsets (2^k states instead of the k!
    permutation terms of the plain Leibniz sum; same value).
    """
    k = len(mat)
    if any(len(row) != k for row in mat):
        raise DimensionMismatch("series matrix must be square")
    if k == 0:
        raise DimensionMismatch("empty series matrix")
    if k > DET_SERIES_MAX_DIM:
        raise TooLarge(f"det_series limited to dim <= {DET_SERIES_MAX_DIM}")
    first = mat[0][0]
    zero = TruncatedSeries.zero(first.caps, first.ring)
    table: dict[int, TruncatedSeries] = {0: TruncatedSeries.one(first.caps, first.ring)}
    for mask in range(1, 1 << k):
        c = mask.bit_count() - 1  # expand along column index c
        col_sign = 1 if c % 2 == 0 else -1
        acc = zero
        pos = 0
        rest = mask
        while rest:
            r = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            term = mat[r][c] * table[mask ^ (1 << r)]
            if col_sign * (1 if pos % 2 == 0 else -1) < 0:
                acc = acc - term
            else:
                acc = acc + term
            pos += 1
        table[mask] = acc
    return table[(1 << k) - 1]


def series_mat_mul(
    a: Sequence[Sequence[TruncatedSeries]], b: Sequence[Sequence[TruncatedSeries]]
) -> list[list[TruncatedSeries]]:
    rows, inner, cols = len(a), len(b), len(b[0])
    if any(len(r) != inner for r in a):
        raise DimensionMismatch("incompatible series matrix product")
    out = []
    for i in range(rows):
        out_row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for t in range(1, inner):
                acc = acc + a[i][t] * b[t][j]
            out_row.append(acc)
        out.append(out_row)
    return out
