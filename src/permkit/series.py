"""Truncated multivariate power series over exact rationals or complex floats.

A series in ``len(caps)`` variables keeps the coefficient of every exponent
tuple ``e`` with ``e_i <= caps_i``; exponents beyond a cap are dropped, so the
ring operations are arithmetic modulo the cap ideal.  The coefficients live
in a dense ndarray of shape ``caps + 1``, indexed by the exponent tuple:

- ``"complex"``: a ``complex128`` array, double precision;
- ``"rational"``: an ``object`` array of Python-int numerators over one
  positive common denominator, reduced so that the gcd of the denominator
  and all numerators is 1.  Results are exact.

``coeffs`` gives the coefficients as a flat row-major tuple of ``Fraction``
or Python ``complex``.  Construction rejects a float in the rational ring
and a NaN or infinity in the complex ring.

A product adds one scaled, shifted slice of one factor per nonzero entry of
the sparser factor (one ``np.convolve`` for a single variable).  Inverse,
inverse square root, exp and log are solved one total-degree layer at a time
from the Euler-operator identities E(t)·s = α·t·E(s) for t = s^α,
E(t) = E(g)·t for t = exp(g) and E(t)·s = E(s) for t = log(s), where E
multiplies each coefficient by its total degree; each layer gathers from the
lower layers once per nonzero entry of the operand.

Determinants are not built here: the identities take theirs in closed form
from matrix minors (`identities._det_side`).
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import (
    BadConstantTerm,
    CapMismatch,
    ConstantTermNotOne,
    DimensionMismatch,
    ExceedsCap,
    NonInvertibleConstantTerm,
    RingMismatch,
)

RATIONAL = "rational"
COMPLEX = "complex"

Coeff = Union[Fraction, complex]

_NONES = itertools.repeat(None)


# an entry holds arrays the size of the exponent box (39 MB at caps (100, 100, 100));
# one verify round, the battery and the generating family at cap 4, uses 8 cap tuples
@lru_cache(maxsize=32)
def _layout(caps: tuple[int, ...]):
    """(exponent table, total degree, flat indices of each degree layer) for a cap tuple."""
    shape = [c + 1 for c in caps]
    # one row per exponent, row-major: a transposed view of the index grids, not a copy
    exponents = np.indices(shape, dtype=np.intp).reshape(len(caps), math.prod(shape)).T
    degree = exponents.sum(axis=1)
    # one stable sort by degree keeps each layer's indices ascending
    order = np.argsort(degree, kind="stable")
    layers = tuple(np.split(order, np.cumsum(np.bincount(degree, minlength=sum(caps) + 1))[:-1]))
    return exponents, degree, layers


def _coerce(ring: str, v) -> Coeff:
    """One coefficient, checked for the ring: int/Fraction, or a finite complex number."""
    if ring == RATIONAL:
        if type(v) is Fraction:
            return v
        if isinstance(v, numbers.Rational):
            return Fraction(int(v.numerator), int(v.denominator))
        raise ValueError(f"rational series coefficients must be int or Fraction, got {type(v).__name__} {v!r}")
    if type(v) in (complex, float, int) or isinstance(v, numbers.Complex):
        z = complex(v)
        if math.isfinite(z.real) and math.isfinite(z.imag):
            return z
    raise ValueError(f"complex series coefficients must be finite numbers, got {v!r}")


def _flat_index(exponents: tuple[int, ...], caps: tuple[int, ...], what: str) -> int:
    if len(exponents) != len(caps):
        raise DimensionMismatch("exponent tuple length must match the number of variables")
    idx = 0
    for e, c in zip(exponents, caps):
        if not 0 <= e <= c:
            raise ExceedsCap(f"{what} {exponents} exceeds caps {caps}")
        idx = idx * (c + 1) + e
    return idx


def _array_of(caps: tuple[int, ...], ring: str, entries: Mapping[int, Coeff]):
    """(coefficient array, denominator) holding already coerced {flat index: value} entries."""
    if min(caps, default=0) < 0:
        raise ValueError("caps must be non-negative")
    if ring not in (RATIONAL, COMPLEX):
        raise ValueError(f"unknown ring {ring!r}")
    # a series in no variables is a constant, kept as one entry of a 1-d array
    shape = tuple(c + 1 for c in caps) or (1,)
    if ring == RATIONAL:
        den = math.lcm(*(v.denominator for v in entries.values()))
        array = np.zeros(shape, dtype=object)
        flat = array.reshape(-1)
        for i, v in entries.items():
            flat[i] = v.numerator * (den // v.denominator)
        return array, den
    array = np.zeros(shape, dtype=np.complex128)
    flat = array.reshape(-1)
    for i, v in entries.items():
        flat[i] = v
    return array, 1


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two coefficient arrays of one shape.

    One variable: a single convolution.  Otherwise one scaled, shifted slice
    of the denser factor per nonzero entry of the sparser one.
    """
    if a.ndim == 1:
        return np.convolve(a, b)[: a.size]
    nz_a, nz_b = np.nonzero(a), np.nonzero(b)
    if nz_b[0].size < nz_a[0].size:
        a, b, nz_a = b, a, nz_b
    shape = b.shape
    out = np.zeros_like(b)
    for e in zip(*(idx.tolist() for idx in nz_a)):
        out[tuple(map(slice, e, _NONES))] += a[e] * b[tuple(map(slice, map(operator.sub, shape, e)))]
    return out


class TruncatedSeries:
    """A truncated power series; see the module docstring for the storage."""

    __slots__ = ("caps", "ring", "_array", "_den")

    def __init__(self, caps: Sequence[int], ring: str, coeffs: Sequence) -> None:
        caps = tuple(int(c) for c in caps)
        coeffs = tuple(coeffs)
        size = math.prod(c + 1 for c in caps)
        if len(coeffs) != size:
            raise ValueError(f"expected {size} coefficients, got {len(coeffs)}")
        array, den = _array_of(caps, ring, {i: _coerce(ring, v) for i, v in enumerate(coeffs)})
        self._assign(caps, ring, array, den)

    def _assign(self, caps, ring, array, den) -> None:
        if ring == RATIONAL:
            g = math.gcd(den, *array.ravel().tolist())
            if g != 1:
                array, den = array // g, den // g
        self.caps, self.ring, self._array, self._den = caps, ring, array, den

    @classmethod
    def _new(cls, caps, ring, array, den=1) -> "TruncatedSeries":
        """A series on an array built by the ring operations (no coefficient checks)."""
        out = object.__new__(cls)
        out._assign(caps, ring, array, den)
        return out

    @classmethod
    def _from_entries(cls, caps, ring, entries: Mapping[int, Coeff]) -> "TruncatedSeries":
        """A series with the given {flat index: coerced coefficient} entries, zero elsewhere."""
        return cls._new(tuple(caps), ring, *_array_of(caps, ring, entries))

    def __repr__(self) -> str:
        return f"TruncatedSeries(caps={self.caps!r}, ring={self.ring!r}, coeffs={self.coeffs!r})"

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, caps: Sequence[int], ring: str) -> "TruncatedSeries":
        return cls._from_entries(caps, ring, {})

    @classmethod
    def constant(cls, caps: Sequence[int], ring: str, value) -> "TruncatedSeries":
        return cls._from_entries(caps, ring, {0: _coerce(ring, value)})

    @classmethod
    def one(cls, caps: Sequence[int], ring: str) -> "TruncatedSeries":
        return cls.constant(caps, ring, 1)

    @classmethod
    def monomial(cls, caps: Sequence[int], ring: str, exponents: Sequence[int], value=1) -> "TruncatedSeries":
        caps = tuple(caps)
        idx = _flat_index(tuple(int(e) for e in exponents), caps, "monomial")
        return cls._from_entries(caps, ring, {idx: _coerce(ring, value)})

    @classmethod
    def variable(cls, caps: Sequence[int], ring: str, i: int) -> "TruncatedSeries":
        exps = [0] * len(tuple(caps))
        exps[i] = 1
        return cls.monomial(caps, ring, exps)

    @classmethod
    def from_terms(cls, caps: Sequence[int], ring: str, terms: Mapping[tuple, object]) -> "TruncatedSeries":
        caps = tuple(caps)
        entries: dict[int, Coeff] = {}
        for exps, value in terms.items():
            idx = _flat_index(tuple(int(e) for e in exps), caps, "term")
            v = _coerce(ring, value)
            entries[idx] = entries[idx] + v if idx in entries else v
        return cls._from_entries(caps, ring, entries)

    # -- basics -------------------------------------------------------
    @property
    def coeffs(self) -> tuple:
        """Every coefficient, flat in row-major exponent order, as Fraction or complex."""
        values = self._array.ravel().tolist()
        if self.ring == COMPLEX:
            return tuple(values)
        den = self._den
        return tuple(Fraction(n, den) for n in values)

    def _compat(self, other: "TruncatedSeries") -> None:
        if self.caps != other.caps:
            raise CapMismatch(f"caps differ: {self.caps} vs {other.caps}")
        if self.ring != other.ring:
            raise RingMismatch(f"rings differ: {self.ring} vs {other.ring}")

    def _value(self, v) -> Coeff:
        return Fraction(v, self._den) if self.ring == RATIONAL else complex(v)

    def coefficient(self, p: Sequence[int]) -> Coeff:
        p = tuple(map(int, p))
        if len(p) != len(self.caps):
            raise DimensionMismatch("exponent tuple length must match the number of variables")
        if any(map(operator.gt, p, self.caps)) or min(p, default=0) < 0:
            raise ExceedsCap(f"exponent {p} exceeds caps {self.caps}")
        return self._value(self._array[p or 0])

    def constant_term(self) -> Coeff:
        return self._value(self._array.flat[0])

    # -- ring operations ----------------------------------------------
    def _combine(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        self._compat(other)
        if self.ring == COMPLEX:
            return self._new(self.caps, self.ring, self._array + sign * other._array)
        den = math.lcm(self._den, other._den)
        array = self._array * (den // self._den) + other._array * (sign * (den // other._den))
        return self._new(self.caps, self.ring, array, den)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "TruncatedSeries":
        return self._new(self.caps, self.ring, -self._array, self._den)

    def scale(self, value) -> "TruncatedSeries":
        v = _coerce(self.ring, value)
        if self.ring == COMPLEX:
            return self._new(self.caps, self.ring, self._array * v)
        return self._new(self.caps, self.ring, self._array * v.numerator, self._den * v.denominator)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compat(other)
        return self._new(self.caps, self.ring, _product(self._array, other._array), self._den * other._den)

    def _solve_layers(self, t0, weight, divisor, rhs: bool = False) -> "TruncatedSeries":
        """Series t with t_0 = t0 and, for each exponent e of total degree d >= 1,

            divisor(d) * t_e = [d * c_e if rhs] + sum_f c_f * weight(|f|, d) * t_{e-f},

        where c is this series' numerator array (the coefficients times the
        denominator) and f runs over its nonzero non-constant exponents with
        f <= e.  Layer d only reads layers below it, so it is one gather per f.
        In the rational ring each layer keeps its own reduced denominator
        until the end.
        """
        exact = self.ring == RATIONAL
        exponents, degree, layers = _layout(self.caps)
        c = self._array.ravel()
        terms = [
            (j, int(degree[j]), c[j], np.all(exponents >= exponents[j], axis=1))
            for j in np.flatnonzero(c).tolist()
            if j
        ]
        t = np.zeros_like(c)
        top = len(layers) - 1
        dens = [1] * (top + 1)
        if exact:
            t0 = Fraction(t0)
            t[0], dens[0] = t0.numerator, t0.denominator
        else:
            t[0] = t0
        # every nonzero layer of t has a degree divisible by that of all terms
        step = math.gcd(*(k for _, k, _, _ in terms)) or top + 1
        for d in range(step, top + 1, step):
            pos = layers[d]
            lcm = math.lcm(*(dens[d - k] for _, k, _, _ in terms if k <= d)) if exact else 1
            acc = c[pos] * (d * lcm) if rhs else np.zeros(pos.size, dtype=c.dtype)
            for j, k, cj, ok in terms:
                w = weight(k, d) if k <= d else 0
                if not w:
                    continue
                sel = ok[pos]
                factor = cj * w * (lcm // dens[d - k]) if exact else cj * w
                acc[sel] += t[pos[sel] - j] * factor
            q = divisor(d)
            if exact:
                # den < 0 where divisor(d) is; the common denominator below, lcm(*dens), is positive
                den = lcm * q
                g = math.gcd(den, *acc.tolist())
                t[pos], dens[d] = acc // g, den // g
            else:
                t[pos] = acc / q
        den = 1
        if exact:
            den = math.lcm(*dens)
            t = t * np.array([den // x for x in dens], dtype=object)[degree]
        return self._new(self.caps, self.ring, t.reshape(self._array.shape), den)

    def _has_constant(self, value: int) -> bool:
        return self._array.flat[0] == value * self._den

    def inverse(self) -> "TruncatedSeries":
        """t with self * t = 1 up to the cap."""
        c0 = self._array.flat[0]
        if c0 == 0:
            raise NonInvertibleConstantTerm("constant term is zero")
        t0 = Fraction(self._den, c0) if self.ring == RATIONAL else 1.0 / c0
        return self._solve_layers(t0, lambda k, d: -1, lambda d: c0)

    def sqrt_inverse(self) -> "TruncatedSeries":
        """t with t^2 * self = 1 up to the cap; requires constant term exactly 1."""
        if not self._has_constant(1):
            raise ConstantTermNotOne(f"constant term {self.constant_term()!r} != 1")
        c0 = self._array.flat[0]
        return self._solve_layers(1, lambda k, d: k - 2 * d, lambda d: 2 * d * c0)

    def exp(self) -> "TruncatedSeries":
        """Formal exponential; constant term must be 0."""
        if not self._has_constant(0):
            raise BadConstantTerm("exp needs constant term 0")
        den = self._den
        return self._solve_layers(1, lambda k, d: k, lambda d: d * den)

    def log(self) -> "TruncatedSeries":
        """Formal logarithm; constant term must be 1."""
        if not self._has_constant(1):
            raise BadConstantTerm("log needs constant term 1")
        c0 = self._array.flat[0]
        return self._solve_layers(0, lambda k, d: k - d, lambda d: d * c0, rhs=True)

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

