"""Desk-scale linear-optical sampler: Fock amplitudes, odd cat-state inputs,
enumerated outcome distributions, and the photon-number rejection reduction.

Amplitudes follow the permanent rule <p|U|q> = Per(U_{p,q})/sqrt(p! q!).
A cat input (the odd superposition of +/- alpha coherent states) in the
first n of m modes has closed-form amplitudes given by a 2^n sign sum; the
distribution restricted to total photon number n is proportional to the
single-photon distribution, with proportionality |alpha|^{2n}/sinh^n(|alpha|^2).
Both are one repeated-row Glynn sign sum at different output weights, and
the enumerated distributions take it once per weight, batched over all its
outcomes; :func:`fock_amplitude` keeps the Ryser route as the reference.

Every other amplitude is one rule, `_amplitudes`: scale * sign sum / sqrt(p!),
the scale 2^{1-n} for single photons and alpha^k/(2^{n-1} sinh^{n/2}|alpha|^2)
for cats, taken in log space where a factor or the quotient is past float64.
An amplitude, or a distribution's total weight, past float64 raises OverflowError.

The outcomes of weight k in m modes depend on nothing else, so they are
enumerated once into an outcome plan (`_OutcomePlan`): the read-only object
array of the outcome tuples (the outcome table), and the read-only exponent
array and sqrt(p!).  Distributions hold outcome tables, float64 weights and
photon numbers in plan order; ``probs`` is a read-only view (`_Probs`).  Plans
are kept least recently used first, up to _PLAN_OUTCOMES outcomes in total,
tens of MB at m <= 20; a plan beyond that bound serves its call and is not kept.
"""

from __future__ import annotations

import cmath
import math
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .combinatorics import (
    RepetitionPattern,
    _as_int,
    as_multi_index,
    count_weight,
    factorial_product,
    repeat_matrix,
    weight,
    weight_array,
)
from .errors import (
    DimensionMismatch,
    EmptyConditioning,
    ZeroAmplitude,
    check_budget,
)
from .numerics import ComplexMatrix, UnitaryMatrix, as_array
from .permanents import _sign_sums, permanent_ryser
from .rng import bit_generator

FockOutcome = tuple[int, ...]

SUPPORT_BUDGET = 10**6
DRAW_BUDGET = 10**7


class _OverflowType:
    """Sentinel outcome carrying the enumerated distribution's truncated mass."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OVERFLOW"


OVERFLOW = _OverflowType()

Outcome = Union[FockOutcome, _OverflowType]


@dataclass(frozen=True)
class CatInputSpec:
    """Cat states of amplitude alpha in the first n of m modes, vacuum elsewhere."""

    alpha: complex
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.alpha == 0:
            raise ZeroAmplitude("cat amplitude must be nonzero")
        alpha = complex(self.alpha)
        if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
            raise ValueError(f"cat amplitude must be finite, got {alpha}")
        object.__setattr__(self, "n", _as_int("n", self.n))
        object.__setattr__(self, "m", _as_int("m", self.m))
        if not 0 < self.n <= self.m:
            raise ValueError(f"need 0 < n <= m, got n={self.n}, m={self.m}")
        object.__setattr__(self, "alpha", alpha)


class _Probs(Mapping):
    """A read-only view of three read-only arrays in plan order: outcomes (tuples),
    float64 weights and photon numbers.  Only a key lookup builds (and keeps) a dict."""

    def __init__(self, outcomes: np.ndarray, weights: np.ndarray, photons: np.ndarray) -> None:
        self.outcomes, self.weights, self.photons, self._dict = outcomes, weights, photons, None
        for arr in (outcomes, weights, photons):
            arr.setflags(write=False)

    def __getitem__(self, outcome):
        if self._dict is None:
            self._dict = dict(zip(self.outcomes.tolist(), self.weights.tolist()))
        return self._dict[outcome]

    def __iter__(self):
        return iter(self.outcomes.tolist())

    def __len__(self) -> int:
        return self.outcomes.size

    def clear(self):
        raise TypeError("outcome probabilities are read-only")

    def total(self, at=...) -> float:
        """0.0 plus the weights ``at`` selects one by one, as sum() and the sampler's np.cumsum add them."""
        return float(np.cumsum(np.append(0.0, self.weights[at]))[-1])


@dataclass(frozen=True)
class OutcomeDistribution:
    """Enumerated photon-count distribution plus the mass beyond the cutoff."""

    probs: Mapping[FockOutcome, float]
    cutoff: int
    truncated_mass: float
    tail_bound: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.probs, _Probs):  # a Mapping, converted here, once
            outcomes = np.fromiter(self.probs, dtype=object, count=len(self.probs))
            weights = np.fromiter(self.probs.values(), dtype=np.float64, count=outcomes.size)
            photons = np.fromiter(map(weight, outcomes), dtype=np.intp, count=outcomes.size)
            object.__setattr__(self, "probs", _Probs(outcomes, weights, photons))

    def total_enumerated(self) -> float:
        return self.probs.total()

    def mass_at_weight(self, n: int) -> float:
        return self.probs.total(self.probs.photons == n)


def tv_distance(p: Mapping[FockOutcome, float], q: Mapping[FockOutcome, float]) -> float:
    """Total variation distance, half the L1 difference over the union support."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _interferometer(u) -> np.ndarray:
    """``u`` as a square complex128 array; any other shape raises `DimensionMismatch`."""
    arr = as_array(u)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"the interferometer must be a square matrix, got shape {arr.shape}")
    return arr


def fock_amplitude(u, p: Sequence[int], q: Sequence[int]) -> complex:
    """<p|U|q> = Per(U_{p,q})/sqrt(p! q!); 0 when |p| != |q| (photon conservation)."""
    arr = _interferometer(u)
    m = arr.shape[0]
    p, q = as_multi_index(p), as_multi_index(q)
    if len(p) != m or len(q) != m:
        raise DimensionMismatch("outcome length must equal the mode count")
    if weight(p) != weight(q):
        return 0j
    per = permanent_ryser(repeat_matrix(arr, RepetitionPattern(p, q))).value
    return complex(per) / math.sqrt(factorial_product(p) * factorial_product(q))


# The outcome plans kept between calls hold at most this many outcomes in
# total.  A plan takes about 56 + 16m bytes per outcome (its tuple, table
# entry, exponent row and sqrt(p!); tracemalloc measured 167-193 B at m = 8
# and 377-379 B at m = 20), so the bound is about 24 MB at m = 8 and 49 MB at m = 20.
_PLAN_OUTCOMES = 1 << 17


@dataclass(frozen=True)
class _OutcomePlan:
    """The outcomes of one weight in enumeration order: as the outcome table
    (the object array of their tuples) that every distribution built from the
    plan shares, as an N x m exponent array, and sqrt(p!) of each; read-only."""

    table: np.ndarray
    powers: np.ndarray
    root_fact: np.ndarray


def _log_root_factorials(powers: np.ndarray) -> np.ndarray:
    """log sqrt(p!) of each row p of the int array powers, sum_i lgamma(p_i + 1) / 2."""
    log_fact = np.array([math.lgamma(e + 1) for e in range(int(powers.max(initial=0)) + 1)])
    return 0.5 * log_fact[powers].sum(axis=1)


def _root_factorials(powers: np.ndarray) -> np.ndarray:
    """sqrt(p!) of each row p of the int array powers, from the float64
    factorials (170! is the largest): inf where p! is past float64."""
    top = int(powers.max(initial=0))
    factorials = np.array([math.factorial(e) if e <= 170 else math.inf for e in range(top + 1)], dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.sqrt(factorials[powers].prod(axis=1))


def _build_plan(m: int, k: int) -> _OutcomePlan:
    powers = weight_array(m, k)
    root_fact = _root_factorials(powers)
    table = np.fromiter(map(tuple, powers.tolist()), dtype=object, count=len(powers))
    for arr in (table, powers, root_fact):
        arr.setflags(write=False)
    return _OutcomePlan(table, powers, root_fact)


class _PlanCache:
    """Outcome plans by (m, k), least recently used first.  Together they hold
    at most _PLAN_OUTCOMES outcomes: older plans are dropped to make room, and
    a larger plan is built and returned but not kept."""

    def __init__(self) -> None:
        self._plans: OrderedDict[tuple[int, int], _OutcomePlan] = OrderedDict()
        self._lock = threading.Lock()
        self.held = 0

    def get(self, m: int, k: int) -> _OutcomePlan:
        key = (m, k)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
        plan = _build_plan(m, k)
        size = plan.table.size
        if size > _PLAN_OUTCOMES:
            return plan
        with self._lock:
            if key not in self._plans:
                self._plans[key] = plan
                self.held += size
            while self.held > _PLAN_OUTCOMES:
                self.held -= self._plans.popitem(last=False)[1].table.size
        return plan


_plans = _PlanCache()


def _amplitudes(phase: complex, log_scale: float, total: int, sign_sums: np.ndarray, powers: np.ndarray, root_fact: np.ndarray) -> np.ndarray:
    """phase * e^log_scale * sign_sums / root_fact: the amplitudes of the outcomes
    p of weight total, the rows of powers, with root_fact their sqrt(p!).

    Where sqrt(p!) is inf, where e^log_scale is past float64 (then every row),
    or where the direct quotient is not finite, the row is taken in log space
    instead, phase * s * exp(log_scale - log sqrt(p!)), so every amplitude
    that float64 holds comes out; one still past float64 raises OverflowError.
    """
    try:
        scale = phase * math.exp(log_scale)
    except OverflowError:  # no row's direct quotient is finite at an inf scale
        scale = math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # the rows past float64 are redone below
        amps = scale * sign_sums / root_fact
        if root_fact.max(initial=0.0) < math.inf and cmath.isfinite(amps.sum()):
            return amps
        far = np.isinf(root_fact) | ~np.isfinite(amps)
        amps[far] = phase * sign_sums[far] * np.exp(log_scale - _log_root_factorials(powers[far]))
    if not np.isfinite(amps).all():
        raise OverflowError(f"an amplitude of {total} photons is past float64")
    return amps


def bs_distribution(u, n: int) -> OutcomeDistribution:
    """Single-photon sampling distribution: P(p) = |Per(U_{p,1+0})|^2 / p! over |p| = n."""
    n = _as_int("n", n)
    arr = _interferometer(u)
    m = arr.shape[0]
    if not 0 <= n <= m:
        raise ValueError(f"need 0 <= n <= m, got n={n}, m={m}")
    check_budget(f"outcome support of {n} photons in {m} modes", count_weight(m, n), SUPPORT_BUDGET, "outcomes")
    plan = _plans.get(m, n)
    # the half sign sum has no term at n = 0, where the vacuum's amplitude is 1
    amps = _amplitudes(2.0 ** (1 - n), 0.0, n, _sign_sums(arr[:, :n], plan.powers), plan.powers, plan.root_fact) if n else np.ones(1)
    weights = np.abs(amps) ** 2
    if not math.isfinite(weights.sum()):
        raise OverflowError(f"the weights of {n} photons total past float64")
    return OutcomeDistribution(_Probs(plan.table, weights, np.full(plan.table.size, n)), n, 0.0)


def _log_sinh(x: float) -> float:
    """log sinh(x) for x > 0, finite for every finite x: x + log(1 - e^{-2x}) - log 2."""
    return x + math.log(-math.expm1(-2.0 * x)) - math.log(2.0)


def _cat_log_scale(alpha: complex, n: int, total: int) -> tuple[complex, float]:
    """The phase (alpha/|alpha|)^total / 2^(n-1) and the log of |alpha|^total / sinh^{n/2}(|alpha|^2),
    formed in log space, so a large |alpha| does not overflow sinh."""
    r = abs(alpha)
    return (alpha / r) ** total / 2 ** (n - 1), total * math.log(r) - 0.5 * n * _log_sinh(r * r)


def cat_amplitude(u, spec: CatInputSpec, p: Sequence[int]) -> complex:
    """Amplitude <p|U(cat^n, vacuum^(m-n))> via the closed-form sign sum.

    Zero when |p| < n or |p| - n is odd (each cat mode carries odd photon
    parity); at |p| = n the value is alpha^n/sinh^{n/2}(|alpha|^2) times the
    single-photon amplitude.
    """
    arr = _interferometer(u)
    m = arr.shape[0]
    p = as_multi_index(p)
    if len(p) != m:
        raise DimensionMismatch("outcome length must equal the mode count")
    if spec.m != m:
        raise DimensionMismatch("spec mode count must match the unitary dimension")
    n = spec.n
    total = weight(p)
    if total < n or (total - n) % 2 != 0:
        return 0j
    check_budget("sign sum", (1 << n) * n)
    powers = np.array([p], dtype=np.intp)
    sign_sums = _sign_sums(arr[:, :n], powers)
    return complex(_amplitudes(*_cat_log_scale(spec.alpha, n, total), total, sign_sums, powers, _root_factorials(powers))[0])


def photon_fraction(alpha: complex, n: int) -> float:
    """Probability that n cat inputs carry exactly n photons in total:
    |alpha|^{2n} / sinh^n(|alpha|^2)."""
    n = _as_int("n", n, 0)
    if n == 0:
        return 1.0
    if alpha == 0:
        raise ZeroAmplitude("cat amplitude must be nonzero")
    a2 = abs(alpha) ** 2
    return math.exp(n * (math.log(a2) - _log_sinh(a2)))


def cat_total_photon_pmf(alpha: complex, n: int, cutoff: int) -> list[float]:
    """Exact input photon-number distribution of n cat modes, up to cutoff.

    Each cat mode carries k photons with probability |alpha|^{2k}/(k! sinh|alpha|^2)
    for odd k; the total is the n-fold convolution.  Since the interferometer
    preserves photon number, this is also the output total-photon marginal.
    """
    n, cutoff = _as_int("n", n, 0), _as_int("cutoff", cutoff, 0)
    a2 = abs(alpha) ** 2
    log_a2, log_s = math.log(a2), _log_sinh(a2)
    per_mode = [0.0] * (cutoff + 1)
    for k in range(1, cutoff + 1, 2):
        per_mode[k] = math.exp(k * log_a2 - math.lgamma(k + 1) - log_s)
    conv = [1.0] + [0.0] * cutoff
    for _ in range(n):
        new = [0.0] * (cutoff + 1)
        for tot, ptot in enumerate(conv):
            if ptot == 0.0:
                continue
            for k in range(1, cutoff + 1 - tot, 2):
                new[tot + k] += ptot * per_mode[k]
        conv = new
    return conv


def _same_parity_outcomes(m: int, top: int) -> int:
    """The outcomes of the weights k <= top with k = top (mod 2) in m modes,
    sum_k C(k + m - 1, m - 1), in O(m) integer steps; 0 for top < 0.

    The weights of either parity up to top give C(top + m, m) outcomes, and
    the alternating sum over them is 2^-m + (-1)^top sum_{s < m} 2^(s-m) C(top + s, s),
    so the count is (2^m C(top + m, m) + (-1)^top + sum_{s < m} 2^s C(top + s, s)) / 2^(m + 1).
    """
    if top < 0:
        return 0
    total, binom = (-1) ** top, 1
    for s in range(m):
        total += binom << s
        binom = binom * (top + s + 1) // (s + 1)  # C(top + s + 1, s + 1)
    return (total + (binom << m)) >> (m + 1)


def cat_distribution(u, spec: CatInputSpec, cutoff: Optional[int] = None) -> OutcomeDistribution:
    """Enumerate cat-input outcome probabilities for |p| <= cutoff.

    Only weights with |p| >= n and |p| = n (mod 2) can occur.  The input
    state itself is never truncated (the amplitudes are closed-form); only
    the output enumeration stops at the cutoff, and the dropped mass is
    reported both empirically (1 - enumerated) and analytically (tail of
    the exact total-photon-number distribution).
    """
    arr = _interferometer(u)
    m = arr.shape[0]
    if spec.m != m:
        raise DimensionMismatch("spec mode count must match the unitary dimension")
    n = spec.n
    cutoff = n + 6 if cutoff is None else _as_int("cutoff", cutoff)
    if cutoff < n:
        raise ValueError(f"cutoff {cutoff} below the minimum photon number {n}")
    support = _same_parity_outcomes(m, cutoff - (cutoff - n) % 2) - _same_parity_outcomes(m, n - 2)
    check_budget(f"outcome support of {n}..{cutoff} photons in {m} modes", support, SUPPORT_BUDGET, "outcomes")
    segments = []
    for k in range(n, cutoff + 1, 2):
        plan = _plans.get(m, k)
        amps = _amplitudes(*_cat_log_scale(spec.alpha, n, k), k, _sign_sums(arr[:, :n], plan.powers), plan.powers, plan.root_fact)
        segments.append((plan.table, np.abs(amps) ** 2, np.full(plan.table.size, k)))
    probs = _Probs(*map(np.concatenate, zip(*segments)))
    total = probs.total()
    if not math.isfinite(total):
        raise OverflowError(f"the weights of {n}..{cutoff} photons total past float64")
    tail = max(0.0, 1.0 - sum(cat_total_photon_pmf(spec.alpha, n, cutoff)))
    return OutcomeDistribution(probs, cutoff=cutoff, truncated_mass=max(0.0, 1.0 - total), tail_bound=tail)


def reject_to_fixed_n(dist: OutcomeDistribution, n: int) -> OutcomeDistribution:
    """Condition on |p| = n: P(p) -> P(p) / sum_{|q|=n} P(q)."""
    n = _as_int("n", n)
    mass = dist.mass_at_weight(n)
    if mass <= 0.0:
        raise EmptyConditioning(f"no enumerated mass at photon number {n}")
    probs, at_n = dist.probs, dist.probs.photons == n
    return OutcomeDistribution(_Probs(probs.outcomes[at_n], probs.weights[at_n] / mass, probs.photons[at_n]), n, 0.0)


# The guide has at most 2^_GUIDE_BITS buckets, indexed by the top bits of a raw word.
_GUIDE_BITS = 16


def _guide_bits(draws: int, outcomes: int) -> int:
    """log2 of the guide's bucket count for `draws` draws from `outcomes` outcomes.

    About sqrt(draws * outcomes) buckets balance building the guide against
    the searches it saves.  With fewer draws than outcomes the guide shrinks
    to draws^2 / outcomes buckets, as most buckets of a flat distribution
    would straddle a step; it has at least 2 buckets and at most 2^_GUIDE_BITS.
    """
    target = min(math.isqrt(draws * outcomes), draws * draws // outcomes)
    return min(max(1, target.bit_length()), _GUIDE_BITS)


def _guide(cdf: np.ndarray, scale: np.float64, bits: int, last: int) -> np.ndarray:
    """For each of the 2^bits buckets of words that share their top bits, the
    index that all its words take, at most ``last``, or -1 where the bucket
    straddles a step.

    The index of a bucket's first and last word, keyed with the draws' own
    `scale`, bound that of every word in it.  searchsorted(cdf, keys,
    side="right") counts the CDF entries <= each key; the same counts come
    from placing each of the N entries among the keys and accumulating, one
    search per entry instead of two per bucket.
    """
    words = np.repeat(np.arange(1 << bits, dtype=np.uint64) << np.uint64(64 - bits), 2)
    words[1::2] |= np.uint64((1 << (64 - bits)) - 1)
    below = np.bincount(np.searchsorted(words * scale, cdf, side="left"), minlength=words.size + 1)
    bounds = np.minimum(below[:-1].cumsum(), last).reshape(-1, 2)
    return np.where(bounds[:, 0] == bounds[:, 1], bounds[:, 0], -1)


def _inverse_cdf(cdf: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """min(searchsorted(cdf, raw * (cdf[-1] / 2^64), side="right"), L) for each
    raw uint64 word, by a guide table over the words' top bits; L is the last
    outcome whose CDF step is positive, the first that reaches the total.

    A key below the total searches no further than L.  One that reaches it,
    as for the words from 2^64 - 2^10 up, whose float64 is 2^64, is capped at
    L, so no draw takes a trailing outcome of zero weight.

    Converting a word to float64 and scaling it are both correctly rounded,
    hence monotone, so the index never decreases as the word grows.  The guide
    splits the words into buckets by their top bits, and the indices of a
    bucket's first and last word bound those of every word in it.  A draw in a
    bucket where the two agree takes that index by one gather; only draws in
    buckets that straddle a step of the CDF are searched.
    """
    scale = cdf[-1] / 2.0**64
    last = int(np.searchsorted(cdf, cdf[-1], side="left"))
    bits = _guide_bits(raw.size, cdf.size)
    idx = _guide(cdf, scale, bits, last)[(raw >> np.uint64(64 - bits)).view(np.int64)]
    straddle = np.flatnonzero(idx < 0)
    idx[straddle] = np.minimum(np.searchsorted(cdf, raw[straddle] * scale, side="right"), last)
    return idx


def _sample_indices(dist: OutcomeDistribution, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF draws as indices into the outcome table, an object array
    that ends with the OVERFLOW sentinel when the distribution has truncated
    mass.  Every draw equals that of earlier versions, which searched the CDF
    once per draw (`_inverse_cdf` says why).

    Raises ValueError for a count or seed that is not an integer, for a
    negative count, for a NaN, infinite or negative weight and for a zero
    total, and TooLarge above DRAW_BUDGET draws.
    """
    count = _as_int("count", count, 0)
    seed = _as_int("seed", seed)
    check_budget("sampling", count, DRAW_BUDGET, "draws")
    table, weights = dist.probs.outcomes, dist.probs.weights
    # a truncated mass that is not a valid weight is kept, so the check below sees it
    if dist.truncated_mass != 0.0:
        table, weights = np.append(table, OVERFLOW), np.append(weights, dist.truncated_mass)
    with np.errstate(over="ignore"):  # an overflowing total is refused below
        cdf = np.cumsum(weights)
    if not (weights.size and weights.min() >= 0.0 and 0.0 < cdf[-1] < math.inf):
        raise ValueError("outcome weights must be finite and non-negative with a positive total")
    return table, _inverse_cdf(cdf, bit_generator(seed).random_raw(count))


def sample(dist: OutcomeDistribution, count: int, seed: int) -> list[Outcome]:
    """Inverse-CDF sampling; the truncated mass maps to the OVERFLOW sentinel.

    Draw i is outcome min(searchsorted(cdf, w_i * total / 2^64, side="right"),
    L) for the i-th raw Philox word w_i of `seed`, over the outcomes in
    enumeration order followed by OVERFLOW, with L the last of positive
    weight: the same draws as earlier versions, which capped at N - 1, except
    that a top word never takes a trailing outcome of zero weight.
    """
    table, idx = _sample_indices(dist, count, seed)
    return table[idx].tolist()


def kept_draws(
    dist: OutcomeDistribution, n: int, count: int, seed: int, reference: Mapping[FockOutcome, float]
) -> tuple[list[Outcome], np.ndarray, float]:
    """Draw as `sample` does and keep |p| = n: the outcome list, the kept draws'
    indices into it in draw order, and the TV distance of their empirical law
    from ``reference``, counted per outcome index."""
    n = _as_int("n", n)
    table, idx = _sample_indices(dist, count, seed)
    at_n = np.append(dist.probs.photons == n, False)[: table.size]  # OVERFLOW, if in the table, is not at n
    counts = np.bincount(idx, minlength=table.size) * at_n
    drawn = np.flatnonzero(counts)
    empirical = dict(zip(table[drawn].tolist(), (counts[drawn] / counts.sum()).tolist()))
    return table.tolist(), idx[at_n[idx]], tv_distance(empirical, reference)


@dataclass(frozen=True)
class PipelineReport:
    total_samples: int
    kept_samples: int
    kept_fraction: float
    expected_fraction: float
    fraction_stderr: float
    tv_kept_vs_single_photon: float
    support_size: int
    cutoff: int
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def rejection_sampling_pipeline(
    u,
    spec: CatInputSpec,
    cutoff: int,
    count: int,
    seed: int,
) -> PipelineReport:
    """Sample the cat distribution, keep |p| = n, compare with single-photon sampling."""
    count = _as_int("count", count, 1)
    seed = _as_int("seed", seed)
    dist = cat_distribution(u, spec, cutoff)
    n = spec.n
    bs = bs_distribution(u, n)
    _, kept, tv = kept_draws(dist, n, count, seed, bs.probs)
    expected = photon_fraction(spec.alpha, n)
    stderr = math.sqrt(expected * (1.0 - expected) / count)
    return PipelineReport(
        total_samples=count,
        kept_samples=kept.size,
        kept_fraction=kept.size / count,
        expected_fraction=expected,
        fraction_stderr=stderr,
        tv_kept_vs_single_photon=tv,
        support_size=len(bs.probs),
        cutoff=dist.cutoff,
        seed=seed,
    )


@dataclass(frozen=True)
class RegimeReport:
    n: int
    m: int
    c: float
    alpha: float
    defined: bool
    fraction: Optional[float]
    leading_order: Optional[float]

    def to_json_dict(self) -> dict:
        return asdict(self)


def amplitude_regime_check(n: int, m: int, c: float) -> RegimeReport:
    """Evaluate the kept fraction at alpha = c * n^(-1/4) * (ln m)^(1/4).

    At this scaling the fraction behaves like exp(-n|alpha|^4/6) to leading
    order, i.e. an inverse-polynomial fraction of samples survives the
    photon-number filter.  alpha = 0 (c = 0 or m = 1) is flagged: sampling
    is undefined there.  A NaN or infinite c raises ValueError: its row
    would hold NaN, which is not JSON.
    """
    n, m, c = _as_int("n", n), _as_int("m", m), float(c)
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if not math.isfinite(c):
        raise ValueError(f"need a finite c, got {c}")
    alpha = c * n ** (-0.25) * math.log(m) ** 0.25 if m > 1 else 0.0
    if alpha <= 0.0:
        return RegimeReport(n, m, c, alpha, False, None, None)
    fraction = photon_fraction(alpha, n)
    leading = math.exp(-n * alpha**4 / 6.0)
    return RegimeReport(n, m, c, alpha, True, fraction, leading)


def hong_ou_mandel_unitary() -> UnitaryMatrix:
    """Balanced beamsplitter [[1, 1], [1, -1]]/sqrt(2)."""
    return UnitaryMatrix(ComplexMatrix(np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)))
