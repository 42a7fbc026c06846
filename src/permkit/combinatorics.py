"""Multi-index arithmetic, repetition patterns, and restricted enumerations.

A multi-index is a plain tuple of non-negative ints.  ``repeat_matrix``
builds A_{p,q}: row i repeated p_i times (deleted when p_i = 0), then
column j repeated q_j times.  The result may be rectangular or empty;
permanent routines map those to 0 and 1 respectively.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch
from .numerics import ComplexMatrix, UnitaryMatrix, as_array

MultiIndex = tuple[int, ...]


def _is_int(v) -> bool:
    """True for an int or a numpy integer; a bool, a float or a string is not one.

    A plain int skips the `numbers.Integral` check, which goes through the
    ABC machinery on every call."""
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


def _as_int(name: str, value, least: Optional[int] = None) -> int:
    """`value` as a plain int (>= `least` if given); floats, bools and strings raise ValueError."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    return int(value)


def as_multi_index(p: Sequence[int]) -> MultiIndex:
    """``p`` as a tuple of ints.  A component that is not an integer (a float
    or a bool included) or is negative raises ValueError."""
    if not all(map(_is_int, p)):
        raise ValueError(f"multi-index components must be integers: {tuple(p)}")
    out = tuple(map(int, p))
    if min(out, default=0) < 0:
        raise ValueError(f"multi-index components must be non-negative: {out}")
    return out


def weight(p: Sequence[int]) -> int:
    """|p| = p_1 + ... + p_m."""
    return sum(p)


def factorial_product(p: Sequence[int]) -> int:
    """p! = p_1! * ... * p_m!, exact big integer."""
    return math.prod(math.factorial(int(k)) for k in p)


@dataclass(frozen=True)
class RepetitionPattern:
    """Row/column repetition counts of equal length."""

    rows: MultiIndex
    cols: MultiIndex

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", as_multi_index(self.rows))
        object.__setattr__(self, "cols", as_multi_index(self.cols))
        if len(self.rows) != len(self.cols):
            raise DimensionMismatch(
                f"row pattern length {len(self.rows)} != column pattern length {len(self.cols)}"
            )

    @property
    def length(self) -> int:
        return len(self.rows)

    @classmethod
    def uniform(cls, m: int) -> "RepetitionPattern":
        ones = (1,) * m
        return cls(ones, ones)


def _is_exact_rows(a) -> bool:
    """True when every entry is an int or a Fraction, given as nested sequences
    or as a 2-d object array; exact routes keep such input exact."""
    if isinstance(a, (ComplexMatrix, UnitaryMatrix)):
        return False
    if isinstance(a, np.ndarray) and (a.dtype != object or a.ndim != 2):
        return False
    return all(isinstance(v, (int, Fraction)) for row in a for v in row)


def repeat_matrix(a, pattern: RepetitionPattern):
    """Return A_{p,q} with rows repeated first, then columns.

    Numeric input yields an ``np.ndarray`` of shape (|p|, |q|); exact input
    (int / Fraction entries, see `_is_exact_rows`) yields nested tuples so
    downstream arithmetic stays exact, or, when |p| or |q| is 0, an empty
    object array of that shape, which permanent routines also take as exact.
    """
    p, q = pattern.rows, pattern.cols
    if _is_exact_rows(a):
        rows = [tuple(row) for row in a]
        if len(rows) != len(p) or (rows and len(rows[0]) != len(q)):
            raise DimensionMismatch("pattern length must equal the matrix dimension")
        if weight(p) == 0 or weight(q) == 0:
            # nested tuples cannot carry a 0 x k shape; an object array can
            return np.empty((weight(p), weight(q)), dtype=object)
        expanded_rows = []
        for i, reps in enumerate(p):
            expanded_rows.extend([rows[i]] * reps)
        out = []
        for row in expanded_rows:
            new_row = []
            for j, reps in enumerate(q):
                new_row.extend([row[j]] * reps)
            out.append(tuple(new_row))
        return tuple(out)
    arr = as_array(a)
    if arr.shape[0] != len(p) or arr.shape[1] != len(q):
        raise DimensionMismatch("pattern length must equal the matrix dimension")
    return np.repeat(np.repeat(arr, p, axis=0), q, axis=1)


def weight_array(m: int, n: int) -> np.ndarray:
    """All p in N^m with |p| = n as array rows, in ascending lexicographic order:
    the gaps between m - 1 bars among n + m - 1 slots, bars in lexicographic order."""
    if m < 1:
        raise ValueError("need m >= 1")
    if n < 0:
        raise ValueError("need n >= 0")
    count = count_weight(m, n)
    bars = itertools.chain.from_iterable(itertools.combinations(range(n + m - 1), m - 1))
    edges = np.empty((count, m + 1), dtype=np.intp)
    edges[:, 0] = -1
    edges[:, 1:m] = np.fromiter(bars, dtype=np.intp, count=count * (m - 1)).reshape(count, m - 1)
    edges[:, m] = n + m - 1
    return np.diff(edges, axis=1) - 1


def enumerate_weight(m: int, n: int) -> Iterator[MultiIndex]:
    """All p in N^m with |p| = n, in ascending lexicographic order."""
    yield from map(tuple, weight_array(m, n).tolist())


def count_weight(m: int, n: int) -> int:
    """Number of p in N^m with |p| = n (stars and bars)."""
    return math.comb(n + m - 1, m - 1)


def enumerate_splits(
    p: Sequence[int],
    parts: int,
    part_weights: Optional[Sequence[int]] = None,
) -> Iterator[tuple[MultiIndex, ...]]:
    """Ordered tuples of multi-indices summing componentwise to p, the first
    part lexicographic, then the second.

    ``parts`` must be 2 or 3.  When ``part_weights`` is given, only splits
    whose k-th part has weight part_weights[k] are made: each part but the
    last runs over the s <= (what is left of p) with |s| = its weight
    (`_bounded_weight`), in the same order.
    """
    if parts not in (2, 3):
        raise ValueError("parts must be 2 or 3")
    p = as_multi_index(p)
    if part_weights is not None and len(part_weights) != parts:
        raise ValueError("part_weights must have one entry per part")
    if part_weights is not None and sum(part_weights) != weight(p):
        return

    def firsts(bound, k):
        return _sub_indices(bound) if part_weights is None else _bounded_weight(bound, part_weights[k])

    for s in firsts(p, 0):
        remainder = tuple(pi - si for pi, si in zip(p, s))
        if parts == 2:
            yield s, remainder
            continue
        for t in firsts(remainder, 1):
            yield s, t, tuple(ri - ti for ri, ti in zip(remainder, t))


@lru_cache(maxsize=256)
def _bounded_weight(bound: MultiIndex, w: int) -> tuple[MultiIndex, ...]:
    """All s with 0 <= s <= bound componentwise and |s| = w, lexicographic.

    Cached: the identity verifiers ask for each layer of a cap block once
    per exponent of the other block."""
    if not bound:
        return ((),) if w == 0 else ()
    head, rest = bound[0], sum(bound[1:])
    return tuple(
        (s0,) + tail for s0 in range(max(0, w - rest), min(head, w) + 1) for tail in _bounded_weight(bound[1:], w - s0)
    )


def _sub_indices(p: Sequence[int]) -> Iterator[MultiIndex]:
    """All s with 0 <= s <= p componentwise, lexicographic."""
    return itertools.product(*(range(c + 1) for c in p))
