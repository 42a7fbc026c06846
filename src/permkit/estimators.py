"""Monte Carlo permanent estimators from the generating-function expectation.

Per(A_{p,q}) = E_{x,y in T^m}[ p!q!/(x^p y^q) * f(x^T A y) / f^(n)(0) ] for
any series f with f_n != 0, where T is the complex unit circle and
n = |p| = |q|.  Supported choices: f(z) = z^n ('pown'), f(z) = e^z ('exp'),
and f(z) = 1/(1-z) ('geom').

The geometric choice has a finite convergence radius, so it is evaluated on
a shrunken torus x -> r x, y -> r y with r^2 * sum_ij |a_ij| < 1 and the
result divided by r^(2n); this keeps |r^2 x^T A y| < 1 pointwise.

The frozen reference `pown_grid_expectation` is the exact 'pown' average
over the root-of-unity grids of order n + 1, summed by the double-sum
kernel that Glynn-Kan uses, `permanents._grid_double_sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .combinatorics import RepetitionPattern, factorial_product, weight
from .errors import DimensionMismatch, WeightMismatch, ZeroDerivative
from .permanents import _check_terms, _finite_array, _grid_double_sum, _root_grid
from .rng import bit_generator

F_CHOICES = ("pown", "exp", "geom")

# Phase vectors drawn per generator call; seeded estimates depend on it.
_BATCH = 1 << 14


@dataclass(frozen=True)
class EstimateReport:
    estimate: complex
    stderr: float
    samples: int
    seed: int
    f_choice: str
    streams: int = 1

    def to_json_dict(self) -> dict:
        return {
            "estimate": {"re": self.estimate.real, "im": self.estimate.imag},
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
            "f": self.f_choice,
            "streams": self.streams,
        }


def _series_coefficient(f: str, n: int) -> Fraction:
    if f == "pown":
        return Fraction(1)
    if f == "exp":
        return Fraction(1, math.factorial(n))
    if f == "geom":
        return Fraction(1)
    raise ValueError(f"unknown estimator choice {f!r}")


def default_geom_radius(arr: np.ndarray) -> float:
    """r with r^2 * sum_ij |a_ij| = 1/2, so the geometric series converges on the torus."""
    s1 = float(np.sum(np.abs(arr)))
    if s1 == 0.0:
        return 1.0
    return math.sqrt(0.5 / s1)


def estimate_permanent(
    a,
    pattern: RepetitionPattern,
    f: str = "pown",
    samples: int = 100_000,
    seed: int = 0,
    streams: int = 1,
) -> EstimateReport:
    """Average the torus integrand over i.i.d. uniform phase vectors.

    Deterministic given (seed, streams): stream s draws from the Philox
    generator jumped s times, and partial moments merge by summation.
    """
    arr = _finite_array(a)
    m = arr.shape[0]
    if arr.shape[1] != m or pattern.length != m:
        raise DimensionMismatch("pattern length must equal the square matrix dimension")
    if f not in F_CHOICES:
        raise ValueError(f"unknown estimator choice {f!r}")
    if samples < 1 or streams < 1:
        raise ValueError("need samples >= 1 and streams >= 1")
    p, q = pattern.rows, pattern.cols
    n = weight(p)
    if weight(q) != n:
        raise WeightMismatch(f"|p| = {n} but |q| = {weight(q)}")
    if _series_coefficient(f, n) == 0:
        raise ZeroDerivative(f"f_n = 0 at order {n} for {f!r}")
    pq = float(factorial_product(p) * factorial_product(q))
    nfac = float(math.factorial(n))
    r = default_geom_radius(arr) if f == "geom" else 1.0
    p_arr = np.array(p, dtype=np.float64)
    q_arr = np.array(q, dtype=np.float64)

    count = 0
    total = 0.0 + 0.0j
    total_sq_re = 0.0
    total_sq_im = 0.0
    per_stream = [samples // streams] * streams
    per_stream[-1] += samples - sum(per_stream)
    for s, n_s in enumerate(per_stream):
        bg = bit_generator(seed, stream=s)
        done = 0
        while done < n_s:
            b = min(_BATCH, n_s - done)
            angles = bg.random_raw(2 * b * m) * (2.0 * np.pi / 2.0**64)
            x = np.exp(1j * angles[: b * m].reshape(b, m))
            y = np.exp(1j * angles[b * m :].reshape(b, m))
            w = np.einsum("bi,ij,bj->b", x, arr, y)
            inv = np.prod(np.conj(x) ** p_arr, axis=1) * np.prod(np.conj(y) ** q_arr, axis=1)
            if f == "pown":
                vals = (pq / nfac) * (w**n) * inv
            elif f == "exp":
                vals = pq * np.exp(w) * inv
            else:
                wr = (r * r) * w
                vals = (pq / nfac) * inv / ((1.0 - wr) * r ** (2 * n))
            total += vals.sum()
            total_sq_re += float(np.sum(vals.real**2))
            total_sq_im += float(np.sum(vals.imag**2))
            done += b
            count += b
    mean = total / count
    if count > 1:
        var_re = max(0.0, (total_sq_re - count * mean.real**2) / (count - 1))
        var_im = max(0.0, (total_sq_im - count * mean.imag**2) / (count - 1))
        stderr = math.sqrt((var_re + var_im) / count)
    else:
        stderr = float("nan")
    return EstimateReport(complex(mean), stderr, count, seed, f, streams)


def estimator_variance_scan(
    a,
    pattern: RepetitionPattern,
    f_list: Sequence[str] = F_CHOICES,
    samples: int = 100_000,
    seed: int = 0,
) -> list[dict]:
    """Run `estimate_permanent` per f and tabulate empirical variances."""
    rows = []
    for f in f_list:
        rep = estimate_permanent(a, pattern, f, samples, seed)
        rows.append(
            {
                "f": f,
                "estimate_re": rep.estimate.real,
                "estimate_im": rep.estimate.imag,
                "stderr": rep.stderr,
                "variance": rep.stderr**2 * rep.samples,
                "samples": rep.samples,
            }
        )
    return rows


def pown_grid_expectation(a, pattern: RepetitionPattern) -> complex:
    """Exact expectation of the 'pown' integrand over the root-of-unity grids of order n + 1.

    On per-variable grids of order n + 1 the discrete expectation equals
    Per(A_{p,q}) exactly (no aliasing survives), which makes this a frozen
    reference for the continuous-torus estimator.  The double sum is
    `permanents._grid_double_sum` on `permanents._root_grid`.
    """
    arr = _finite_array(a)
    m = arr.shape[0]
    if arr.shape[1] != m or pattern.length != m:
        raise DimensionMismatch("pattern length must equal the square matrix dimension")
    p, q = pattern.rows, pattern.cols
    n = weight(p)
    if weight(q) != n:
        raise WeightMismatch(f"|p| = {n} but |q| = {weight(q)}")
    order = n + 1
    grid = order**m
    _check_terms(f"discrete grid {order}^(2m)", grid * grid)
    pq = float(factorial_product(p) * factorial_product(q))
    points, (wx, wy) = _root_grid(order, m, np.arange(grid, dtype=np.int64), p, q)
    return complex(_grid_double_sum(arr, points, wx, wy, n)) * pq / math.factorial(n) / (grid * grid)
