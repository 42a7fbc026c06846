"""Monte Carlo permanent estimators from the generating-function expectation.

Per(A_{p,q}) = E_{x,y in T^m}[ p!q!/(x^p y^q) * f(x^T A y) / f^(n)(0) ] for
any series f with f_n != 0, where T is the complex unit circle and
n = |p| = |q|.  Supported choices: f(z) = z^n ('pown'), f(z) = e^z ('exp'),
and f(z) = 1/(1-z) ('geom').

The geometric choice has a finite convergence radius, so it is evaluated on
a shrunken torus x -> r x, y -> r y with r^2 * sum_ij |a_ij| < 1 and the
result divided by r^(2n); this keeps |r^2 x^T A y| < 1 pointwise.

Points are drawn as integers.  Each coordinate of x and y is the top 48 bits
k of one raw Philox word, read as the phase e^(2 pi i k / 2^48), and looked
up in four 4096-entry tables, one per 12-bit limb of k.  The inverse
monomial conj(x)^p conj(y)^q is the same lookup at the turn
-(p.k_x + q.k_y) mod 2^48, exact in uint64 wrap-around arithmetic.  Each
generator call draws 2 b m words (x from the first b m, y from the rest)
for a batch of b = _BATCH points, which are evaluated in chunks of _CHUNK.
Results are bit-reproducible per (seed, streams); they differ by ~1e-13
relative from versions that drew x = exp(i theta) from the full 64-bit word.
An integrand sum that overflows raises OverflowError.

The frozen reference `pown_grid_expectation` is the exact 'pown' average
over the root-of-unity grids prod_i mu_{p_i + 1} and prod_j mu_{q_j + 1}:
the repeated Glynn-Kan double sum, `permanents.permanent_glynn_kan_repeated`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combinatorics import RepetitionPattern, _as_int, factorial_product, weight
from .errors import DimensionMismatch, WeightMismatch
from .permanents import _finite_array, _power, permanent_glynn_kan_repeated
from .rng import bit_generator

F_CHOICES = ("pown", "exp", "geom")

# Phase vectors drawn per generator call; seeded estimates depend on it.
_BATCH = 1 << 14
# Phase vectors evaluated per numpy pass.  At m = 3 a chunk's arrays take
# ~1.5 MB and stay in cache; whole-batch passes were memory-bound and took
# 1.6x as long (50,000 samples per f, one core).
_CHUNK = 1 << 12

# A phase is a 48-bit turn k, e^(2 pi i k / 2^48): the top bits of a raw word.
_TURN_BITS = 48
_TURN_SHIFT = np.uint64(64 - _TURN_BITS)
_TURN_MASK = np.uint64((1 << _TURN_BITS) - 1)
_LIMB_BITS = 12
_LIMB_MASK = np.uint64((1 << _LIMB_BITS) - 1)
_LIMB_SHIFTS = tuple(np.uint64(_LIMB_BITS * j) for j in range(4))


@functools.cache
def _phase_tables() -> tuple:
    """Table j holds e^(2 pi i l 2^(12 j) / 2^48) for each value l of the j-th
    12-bit limb of a turn.  Built on first use, so importing permkit stays cheap."""
    tables = tuple(np.exp(2j * np.pi * np.arange(1 << _LIMB_BITS) * 2.0 ** (_LIMB_BITS * j - _TURN_BITS)) for j in range(4))
    for table in tables:
        table.setflags(write=False)
    return tables


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


def default_geom_radius(arr: np.ndarray) -> float:
    """r with r^2 * sum_ij |a_ij| = 1/2, so the geometric series converges on the torus."""
    s1 = float(np.sum(np.abs(arr)))
    if s1 == 0.0:
        return 1.0
    return math.sqrt(0.5 / s1)


def _phases(turns: np.ndarray, out: np.ndarray, limb: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """out = e^(2 pi i turns / 2^48): a product of one table entry per 12-bit limb.

    `turns` is uint64 below 2^48; `limb` (uint64) and `factor` (complex128)
    are scratch buffers of its shape.  Every limb is below 4096, so take's
    mode="wrap" never wraps; unlike the default mode it writes straight into
    `out` instead of through a buffer.
    """
    tables = _phase_tables()
    np.right_shift(turns, _LIMB_SHIFTS[3], out=limb)
    np.take(tables[3], limb.view(np.int64), out=out, mode="wrap")
    for j in (2, 1, 0):
        np.right_shift(turns, _LIMB_SHIFTS[j], out=limb)
        np.bitwise_and(limb, _LIMB_MASK, out=limb)
        np.take(tables[j], limb.view(np.int64), out=factor, mode="wrap")
        np.multiply(out, factor, out=out)
    return out


def _fill_turns(words: np.ndarray, exponents: np.ndarray, turns: np.ndarray) -> None:
    """Turns of one chunk from its raw words, shaped (2, c, m) as x then y.

    Rows 0..m-1 of `turns` (2m+1, c) get the turns of x, rows m..2m-1 those
    of y, and the last row the turn of conj(x)^p conj(y)^q, which is
    -(p.k_x + q.k_y) mod 2^48 in uint64 wrap-around arithmetic; `exponents`
    is p then q as uint64.
    """
    m = words.shape[2]
    np.right_shift(words[0].T, _TURN_SHIFT, out=turns[:m])
    np.right_shift(words[1].T, _TURN_SHIFT, out=turns[m:-1])
    np.dot(exponents, turns[:-1], out=turns[-1])
    np.negative(turns[-1], out=turns[-1])
    np.bitwise_and(turns[-1], _TURN_MASK, out=turns[-1])


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
    Needs samples >= 2 for a standard error.
    """
    arr = _finite_array(a)
    m = arr.shape[0]
    if arr.shape[1] != m or pattern.length != m:
        raise DimensionMismatch("pattern length must equal the square matrix dimension")
    if f not in F_CHOICES:
        raise ValueError(f"unknown estimator choice {f!r}")
    samples = _as_int("samples", samples, 2)
    streams = _as_int("streams", streams, 1)
    seed = _as_int("seed", seed)
    p, q = pattern.rows, pattern.cols
    n = weight(p)
    if weight(q) != n:
        raise WeightMismatch(f"|p| = {n} but |q| = {weight(q)}")
    pq = float(factorial_product(p) * factorial_product(q))
    nfac = float(math.factorial(n))
    r = default_geom_radius(arr) if f == "geom" else 1.0
    # Exponents mod 2^48 fit uint64 and leave every turn mod 2^48 unchanged.
    exponents = np.array([k & ((1 << _TURN_BITS) - 1) for k in p + q], dtype=np.uint64)

    # Every stream draws samples // streams points and the last one also the
    # remainder, so with more streams than samples only the last one draws.
    base, extra = divmod(samples, streams)
    width = min(_CHUNK, base + extra)
    turns = np.empty((2 * m + 1, width), dtype=np.uint64)
    limb = np.empty_like(turns)
    phase = np.empty(turns.shape, dtype=np.complex128)
    factor = np.empty_like(phase)

    count = 0
    total = 0.0 + 0.0j
    total_sq_re = 0.0
    total_sq_im = 0.0
    # Overflow is caught from the sums below, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for s in range(0 if base else streams - 1, streams):
            n_s = base + extra if s == streams - 1 else base
            bg = bit_generator(seed, stream=s)
            for done in range(0, n_s, _BATCH):
                b = min(_BATCH, n_s - done)
                raw = bg.random_raw(2 * b * m).reshape(2, b, m)
                for lo in range(0, b, _CHUNK):
                    c = min(_CHUNK, b - lo)
                    _fill_turns(raw[:, lo : lo + c], exponents, turns[:, :c])
                    ph = _phases(turns[:, :c], phase[:, :c], limb[:, :c], factor[:, :c])
                    x, y, inv = ph[:m], ph[m:-1], ph[-1]
                    w = ((arr.T @ x) * y).sum(axis=0)
                    if f == "pown":
                        vals = (pq / nfac) * _power(w, n) * inv
                    elif f == "exp":
                        vals = pq * np.exp(w) * inv
                    else:
                        wr = (r * r) * w
                        vals = (pq / nfac) * inv / ((1.0 - wr) * r ** (2 * n))
                    total += vals.sum()
                    total_sq_re += float(np.sum(vals.real**2))
                    total_sq_im += float(np.sum(vals.imag**2))
                    if not (np.isfinite(total) and math.isfinite(total_sq_re + total_sq_im)):
                        raise OverflowError(f"the {f!r} integrand overflows float64 on this matrix")
                    count += c
    mean = total / count
    var_re = max(0.0, (total_sq_re - count * mean.real**2) / (count - 1))
    var_im = max(0.0, (total_sq_im - count * mean.imag**2) / (count - 1))
    stderr = math.sqrt((var_re + var_im) / count)
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
    """Exact expectation of the 'pown' integrand over the root-of-unity grids of
    `permanents.permanent_glynn_kan_repeated`, where no aliasing survives, so it
    equals Per(A_{p,q}): a frozen reference for the continuous-torus estimator."""
    p, q = pattern.rows, pattern.cols
    if weight(q) != weight(p):
        raise WeightMismatch(f"|p| = {weight(p)} but |q| = {weight(q)}")
    return complex(permanent_glynn_kan_repeated(a, pattern).value)
