"""Monte Carlo permanent estimators from the generating-function expectation.

Per(A_{p,q}) = E_{x,y in T^m}[ p!q!/(x^p y^q) * f(x^T A y) / f^(n)(0) ] for
any series f with f_n != 0, where T is the complex unit circle and
n = |p| = |q|.  Supported choices: f(z) = z^n ('pown'), f(z) = e^z ('exp'),
and f(z) = 1/(1-z) ('geom').

The geometric choice has a finite convergence radius, so it is evaluated on
a shrunken torus x -> r x, y -> r y with r^2 * sum_ij |a_ij| < 1 and the
result divided by r^(2n); this keeps |r^2 x^T A y| < 1 pointwise.

Every phase is drawn from the N-th roots of unity mu_N, N = 4096: a 12-bit
turn k is read as e^(2 pi i k / N), one lookup in a single N-entry table.  A
raw Philox word holds five turns, field j being bits 12j..12j+11, so each
generator call draws ceil(2 b m / 5) words for a batch of b = _BATCH points
(x from the first b m turns, y from the rest), which are evaluated in chunks
of _CHUNK.  The inverse monomial conj(x)^p conj(y)^q is one more lookup, at
the turn -(p.k_x + q.k_y) mod N.

On mu_N a Laurent polynomial of degree below N averages to exactly its
constant term, so the grid changes no expectation that matters here:
  - 'pown': the mean, E|v|^2 and E v^2 equal their continuous-torus values
    when N > 2n, which always holds, as float(n!) refuses n >= 171.
  - 'geom': the aliased terms have degree >= n + N; with r^2 sum|a| = 1/2
    their total is at most 2^(1-N) (p!q!/n!) (sum|a|)^n.
  - 'exp': while sum|a_ij| < N / (2e) ~ 753 the aliased mass is at most
    2^(1-N) p!q!, below any float64 result.  From there e^(sum|a_ij|) is past
    float64 and 'exp' raises OverflowError before drawing anything.
Results are bit-reproducible per (seed, streams); stream s is the generator
jumped s times.  Seeded estimates changed once when the draws moved from
48-bit turns to this grid.  An integrand sum that overflows raises
OverflowError.

The exact 'pown' average over the root-of-unity grids prod_i mu_{p_i + 1}
and prod_j mu_{q_j + 1}, where no aliasing survives, is the repeated
Glynn-Kan double sum, `permanents.permanent_glynn_kan_repeated`: the frozen
reference for the continuous-torus estimator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combinatorics import RepetitionPattern, _as_int, factorial_product, weight
from .errors import DimensionMismatch, WeightMismatch
from .permanents import _finite_array, _power
from .rng import bit_generator

F_CHOICES = ("pown", "exp", "geom")

# Phase vectors drawn per generator call; seeded estimates depend on it.
_BATCH = 1 << 14
# Phase vectors evaluated per numpy pass.  At m = 3 a chunk's arrays take
# ~1.5 MB and stay in cache; whole-batch passes were memory-bound and took
# 1.6x as long (50,000 samples per f, one core).
_CHUNK = 1 << 12

# Every phase is a root of unity e^(2 pi i k / N) with a 12-bit turn k, and
# a raw 64-bit word holds five turns: field j is bits 12 j .. 12 j + 11.
_TURNS = 1 << 12
_FIELD_SHIFTS = np.arange(0, 60, 12, dtype=np.int64)[:, None]
# Below this sum_ij |a_ij| the 'exp' grid average aliases < 2^(1 - N) p!q!.
_EXP_LIMIT = _TURNS / (2 * math.e)


@functools.cache
def _circle() -> np.ndarray:
    """e^(2 pi i k / N) for k = 0 .. N - 1.  Built on first use, so importing
    permkit stays cheap."""
    table = np.exp(2j * np.pi / _TURNS * np.arange(_TURNS))
    table.setflags(write=False)
    return table


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


def _turns(words: np.ndarray, exponents: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Turns of b points from W raw words into `out` (2m + 1, b), int64.

    Turn j W + w is field j of word w, and row i < 2m of `out` takes turns
    i b .. i b + b - 1: rows 0..m-1 are the coordinates of x, rows m..2m-1
    those of y.  The last row is the turn of conj(x)^p conj(y)^q,
    -(p.k_x + q.k_y) mod N; `exponents` is p then q as int64.  The words are
    shifted as int64, whose sign bits the mask drops.
    """
    k = out[:-1]
    fields = words.view(np.int64) >> _FIELD_SHIFTS
    np.bitwise_and(fields.reshape(-1)[: k.size].reshape(k.shape), _TURNS - 1, out=k)
    np.bitwise_and(-(exponents @ k), _TURNS - 1, out=out[-1])
    return out


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
    # float(n!) refuses n >= 171, so N > 2n: the premise of the grid's exactness.
    pq = float(factorial_product(p) * factorial_product(q))
    nfac = float(math.factorial(n))
    r = default_geom_radius(arr) if f == "geom" else 1.0
    if f == "exp" and (s1 := float(np.sum(np.abs(arr)))) >= _EXP_LIMIT:
        raise OverflowError(f"the 'exp' integrand's bound e^(sum |a_ij|) = e^{s1:.6g} overflows float64")
    exponents = np.array(p + q, dtype=np.int64)

    # Every stream draws samples // streams points and the last one also the
    # remainder, so with more streams than samples only the last one draws.
    base, extra = divmod(samples, streams)
    turns = np.empty((2 * m + 1, min(_BATCH, base + extra)), dtype=np.int64)
    phase = np.empty((2 * m + 1, min(_CHUNK, base + extra)), dtype=np.complex128)

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
                k = _turns(bg.random_raw(-(-2 * b * m // 5)), exponents, turns[:, :b])
                for lo in range(0, b, _CHUNK):
                    c = min(_CHUNK, b - lo)
                    # Every turn is below N, so mode="wrap" never wraps; unlike the
                    # default mode it writes straight into `phase`, not through a buffer.
                    ph = np.take(_circle(), k[:, lo : lo + c], out=phase[:, :c], mode="wrap")
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
