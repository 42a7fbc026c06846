"""The benchmark's workloads: verify, kernels, optics and cli.

Each workload is a closed loop with one client and one op at a time.  Ops
come in rounds.  A round is a fixed list of op kinds and sizes; only the
values inside the inputs change from round to round, drawn from the
workload seed and the round index.  A run always finishes the round it is
in, so every run measures whole rounds of one fixed mix, and a latency
quantile does not depend on how many rounds fitted in the run.

Every op is checked by a second route after its timed call, outside any
traced span.  A check returns None when the op is right, or a `Fail` that
says whether the op returned a wrong result or did not complete.

permkit functions are always looked up on their module at call time, so
the tracer's rebinding of module names reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

import numpy as np

from permkit import bosonic, cli, combinatorics, estimators, identities, permanents, rng
from permkit.combinatorics import RepetitionPattern
from permkit.numerics import ComplexMatrix, scaled_error

FLOAT_TOL = 1e-8
SIGMAS = 5.0
WARMUP_ROUND = (1 << 31) - 1


@dataclass(frozen=True)
class Fail:
    reason: str
    wrong: bool  # True: the op returned a result its check rejected


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], Optional[Fail]]
    key: Any = None  # checks see the round's results under these keys
    argv: Optional[list] = None  # cli ops: the command line


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def _wrong(reason: str) -> Fail:
    return Fail(reason, True)


def _ryser(a) -> complex:
    return complex(permanents.permanent_ryser(a).value)


# ---------------------------------------------------------------------------
# verify: the identity battery
# ---------------------------------------------------------------------------


def _battery(name: str, seed: int, kwargs: dict):
    return identities.run_battery([name], seed=seed, **kwargs)


def _all_passed(reports, done) -> Optional[Fail]:
    bad = [r.identity_name for r in reports if not r.passed]
    return _wrong(f"identities failed: {bad}") if bad else None


class Verify:
    """Every registry entry once per round at that round's battery seed, plus
    generating-{exp,geom,pow,log} at cap 4 on a 2x2 complex matrix."""

    name = "verify"
    tail_percentile = 90
    reference_speed = True

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        names = list(identities.IDENTITY_REGISTRY)
        if size == "tiny":
            names = [n for n in names if n not in ("dixon", "macmahon")]
        cap = 4 if size == "full" else 2
        self.entries = [(n, {}) for n in names]
        self.entries += [(f"generating-{f}", {"cap": cap}) for f in ("exp", "geom", "pow", "log")]

    def warmup_ops(self) -> list[Op]:
        return self.round_ops(WARMUP_ROUND)

    def round_ops(self, r: int) -> list[Op]:
        s = round_seed(self.seed, r)
        return [
            Op(f"{name}.cap{kw['cap']}" if kw else name, partial(_battery, name, s, kw), _all_passed)
            for name, kw in self.entries
        ]


# ---------------------------------------------------------------------------
# kernels: single large permanents
# ---------------------------------------------------------------------------

PATTERNS = (
    RepetitionPattern((2, 1, 1, 0), (1, 1, 1, 1)),
    RepetitionPattern((1, 2, 0, 1), (0, 2, 1, 1)),
)


def _per(func: str, *args):
    return getattr(permanents, func)(*args)


def _check_pair(kind: str, n: int, other_algo: str, a, result, done) -> Optional[Fail]:
    other = done.get((kind, n, other_algo))
    ref = other.value if other is not None else _per(f"permanent_{other_algo}", a).value
    if kind == "exact":
        return None if result.value == ref else _wrong(f"exact {n}: {result.value} != {ref}")
    err = scaled_error(result.value, ref)
    return None if err <= FLOAT_TOL else _wrong(f"float {n}: scaled error {err:.3g}")


def _check_value(ref: complex, result, done) -> Optional[Fail]:
    err = scaled_error(result.value, ref)
    return None if err <= FLOAT_TOL else _wrong(f"{result.algorithm}: scaled error {err:.3g}")


def _check_against_ryser(matrix, result, done) -> Optional[Fail]:
    return _check_value(_ryser(matrix), result, done)


class Kernels:
    """Float glynn/ryser pairs at n = 12..18, exact pairs at n = 12..15, glynn_kan
    at n = 8, 9 and the repeated-pattern formulas on a 4x4 matrix.  Each pair
    runs both algorithms on one matrix, so each is the other's second route."""

    name = "kernels"
    tail_percentile = 90
    reference_speed = True

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        full = size == "full"
        self.float_dims = tuple(range(12, 19)) if full else (4, 5, 6)
        self.exact_dims = tuple(range(12, 16)) if full else (4, 5)
        self.kan_dims = (8, 9) if full else (3, 4)

    def warmup_ops(self) -> list[Op]:
        return self._ops(WARMUP_ROUND, self.float_dims[:1], self.exact_dims[:1], self.kan_dims[:1])

    def round_ops(self, r: int) -> list[Op]:
        return self._ops(r, self.float_dims, self.exact_dims, self.kan_dims)

    def _ops(self, r, float_dims, exact_dims, kan_dims) -> list[Op]:
        s = round_seed(self.seed, r)
        g = rng.generator(s)
        ops = []
        for kind, dims in (("float", float_dims), ("exact", exact_dims)):
            for n in dims:
                if kind == "float":
                    a = rng.unit_disk_matrix(n, s + n)
                else:
                    a = [[int(v) for v in row] for row in g.integers(-9, 10, size=(n, n))]
                for algo, other in (("glynn", "ryser"), ("ryser", "glynn")):
                    ops.append(
                        Op(
                            f"{algo}.{kind}.{n}",
                            partial(_per, f"permanent_{algo}", a),
                            partial(_check_pair, kind, n, other, a),
                            key=(kind, n, algo),
                        )
                    )
        for n in kan_dims:
            a = rng.unit_disk_matrix(n, s + 100 + n)
            ops.append(
                Op(f"glynn_kan.{n}", partial(_per, "permanent_glynn_kan", a), partial(_check_against_ryser, a))
            )
        a = rng.unit_disk_matrix(4, s + 200)
        b = rng.unit_disk_matrix(4, s + 201)
        rep = combinatorics.repeat_matrix
        for i, pat in enumerate(PATTERNS):
            rows_only = RepetitionPattern(pat.rows, (1,) * 4)
            ops += [
                Op(f"roots_of_unity.{i}", partial(_per, "permanent_roots_of_unity", a, pat),
                   partial(_check_against_ryser, rep(a, pat))),
                Op(f"glynn_kan_repeated.{i}", partial(_per, "permanent_glynn_kan_repeated", a, pat),
                   partial(_check_against_ryser, rep(a, pat))),
                Op(f"glynn_repeated_rows.{i}", partial(_per, "permanent_glynn_repeated_rows", a, pat.rows),
                   partial(_check_against_ryser, rep(a, rows_only))),
            ]
        pat = PATTERNS[0]
        ops.append(
            Op("cauchy_binet", partial(_per, "permanent_cauchy_binet", a, b, pat), partial(_check_against_ryser, rep(a @ b, pat)))
        )
        return ops


# ---------------------------------------------------------------------------
# optics: the library calls behind `sample` and `estimate`
# ---------------------------------------------------------------------------

EST_PATTERNS = (
    RepetitionPattern((2, 1, 0), (1, 1, 1)),
    RepetitionPattern((1, 1, 1), (0, 1, 2)),
)


def _bs_op(u, n: int, count: int, seed: int):
    dist = bosonic.bs_distribution(u, n)
    return dist, bosonic.sample(dist, count, seed)


def _check_bs(n: int, count: int, result, done) -> Optional[Fail]:
    dist, draws = result
    total = dist.total_enumerated()
    if abs(total - 1.0) > FLOAT_TOL:
        return _wrong(f"Fock probabilities sum to {total!r}")
    if len(draws) != count or any(sum(d) != n for d in draws):
        return _wrong("draws outside the n-photon support")
    return None


def _cat_op(u, spec, count: int, seed: int):
    dist = bosonic.cat_distribution(u, spec)
    return dist, bosonic.sample(dist, count, seed)


def _check_cat(spec, count: int, result, done) -> Optional[Fail]:
    dist, draws = result
    total = dist.total_enumerated() + dist.tail_bound
    if abs(total - 1.0) > FLOAT_TOL:
        return _wrong(f"enumerated mass plus exact tail is {total!r}")
    at_n = dist.mass_at_weight(spec.n)
    expected = bosonic.photon_fraction(spec.alpha, spec.n)
    if abs(at_n - expected) > FLOAT_TOL:
        return _wrong(f"mass at n = {at_n!r}, photon_fraction = {expected!r}")
    if len(draws) != count:
        return _wrong("wrong number of draws")
    for d in draws:
        if d is not bosonic.OVERFLOW and (sum(d) < spec.n or (sum(d) - spec.n) % 2):
            return _wrong(f"draw {d} has the wrong photon parity")
    return None


def _pipeline(u, spec, cutoff: int, count: int, seed: int):
    return bosonic.rejection_sampling_pipeline(u, spec, cutoff, count, seed)


def _check_pipeline(result, done) -> Optional[Fail]:
    dev = abs(result.kept_fraction - result.expected_fraction)
    sigma = math.sqrt(result.expected_fraction * (1 - result.expected_fraction) / result.total_samples)
    return None if dev <= SIGMAS * sigma else _wrong(f"kept fraction {dev / sigma:.2f} sigma off")


def _estimate(a, pattern, f: str, samples: int, seed: int):
    return estimators.estimate_permanent(a, pattern, f, samples, seed)


def _check_estimate(a, pattern, result, done) -> Optional[Fail]:
    ref = _ryser(combinatorics.repeat_matrix(a, pattern))
    dev = abs(result.estimate - ref)
    return None if dev <= SIGMAS * result.stderr else _wrong(f"estimate {dev / result.stderr:.2f} sigma off")


class Optics:
    """Enumerated boson-sampling and cat-state distributions with sampling, the
    rejection pipeline, and the torus estimators for each f."""

    name = "optics"
    tail_percentile = 85
    reference_speed = True

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        full = size == "full"
        self.bs_sizes = ((8, 4), (10, 5)) if full else ((4, 2),)
        self.bs_draws = 10_000 if full else 500
        self.cat_sizes = ((6, 2), (6, 3), (7, 2), (7, 3), (8, 2)) if full else ((4, 2),)
        self.cat_draws = 100_000 if full else 1_000
        self.pipelines = ((6, 3, 7), (7, 2, 6)) if full else ((4, 2, 4),)  # m, n, cutoff
        self.samples = 50_000 if full else 2_000

    def warmup_ops(self) -> list[Op]:
        """The smallest op of each kind; one estimate per f."""
        return self._ops(WARMUP_ROUND, self.bs_sizes[:1], self.cat_sizes[:1], self.pipelines[:1], EST_PATTERNS[:1])

    def round_ops(self, r: int) -> list[Op]:
        return self._ops(r, self.bs_sizes, self.cat_sizes, self.pipelines, EST_PATTERNS)

    def _ops(self, r, bs_sizes, cat_sizes, pipelines, patterns) -> list[Op]:
        s = round_seed(self.seed, r)
        g = rng.generator(s)
        ops = []
        for m, n in bs_sizes:
            u = rng.haar_unitary(m, s + m)
            ops.append(Op(f"bs.{m}x{n}", partial(_bs_op, u, n, self.bs_draws, s), partial(_check_bs, n, self.bs_draws)))
        for m, n in cat_sizes:
            u = rng.haar_unitary(m, s + m)
            spec = bosonic.CatInputSpec(float(g.uniform(0.6, 1.0)), n, m)
            ops.append(Op(f"cat.{m}x{n}", partial(_cat_op, u, spec, self.cat_draws, s), partial(_check_cat, spec, self.cat_draws)))
        for m, n, cutoff in pipelines:
            spec = bosonic.CatInputSpec(float(g.uniform(0.6, 1.0)), n, m)
            u = rng.haar_unitary(m, s + 50 + m)
            ops.append(Op(f"pipeline.{m}x{n}", partial(_pipeline, u, spec, cutoff, self.cat_draws, s), _check_pipeline))
        a = rng.unit_disk_matrix(3, s + 60)
        for i, pattern in enumerate(patterns):
            for f in estimators.F_CHOICES:
                ops.append(
                    Op(f"estimate.{f}.{i}", partial(_estimate, a, pattern, f, self.samples, s), partial(_check_estimate, a, pattern))
                )
        return ops


# ---------------------------------------------------------------------------
# cli: real `python -m permkit.cli` processes
# ---------------------------------------------------------------------------


def _parse_stdout(proc) -> tuple[list, dict]:
    """JSON lines, the last one the payload with its manifest; ValueError otherwise."""
    try:
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        payload = lines[-1]
        payload["manifest"]["wall_time_ms"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"stdout is not the documented JSON: {exc!r}") from None
    return lines[:-1], payload


def _cli_check(expect_ok: bool, validate, proc, done) -> Optional[Fail]:
    err = proc.stderr.decode("utf-8", "replace")
    if proc.returncode not in (0, 1, 2):
        return Fail(f"exit code {proc.returncode}", False)
    if "Traceback" in err:
        return Fail("traceback: " + err.strip().splitlines()[-1], False)
    if proc.returncode != 0:
        return Fail(f"exit code {proc.returncode}: {err.strip()}", False) if expect_ok else None
    try:
        lines, payload = _parse_stdout(proc)
    except ValueError as exc:
        return Fail(str(exc), False)
    return validate(lines, payload) if validate is not None else None


def _value_is(ref: complex):
    def validate(lines, payload):
        err = scaled_error(complex(payload["re"], payload["im"]), ref)
        return None if err <= FLOAT_TOL else _wrong(f"permanent off by scaled error {err:.3g}")

    return validate


def _reports_pass(lines, payload):
    bad = [r["identity_name"] for r in payload["reports"] if not r["passed"]]
    return _wrong(f"identities failed: {bad}") if bad or not payload["reports"] else None


def _estimate_near(ref: complex):
    def validate(lines, payload):
        est = complex(payload["estimate"]["re"], payload["estimate"]["im"])
        dev = abs(est - ref)
        return None if dev <= SIGMAS * payload["stderr"] else _wrong(f"estimate {dev / payload['stderr']:.2f} sigma off")

    return validate


def _fock_lines(n: int, count: int, support: int):
    def validate(lines, payload):
        if len(lines) != count or any(sum(x["counts"]) != n for x in lines):
            return _wrong("fock draws outside the n-photon support")
        return None if payload["support_size"] == support else _wrong("wrong support size")

    return validate


def _cat_lines(n: int, count: int):
    def validate(lines, payload):
        if len(lines) != count:
            return _wrong("wrong number of cat draws")
        for x in lines:
            if not x.get("overflow") and (sum(x["counts"]) < n or (sum(x["counts"]) - n) % 2):
                return _wrong(f"cat draw {x} has the wrong photon parity")
        return None

    return validate


def _kept_lines(n: int, count: int):
    def validate(lines, payload):
        if len(lines) != payload["kept"] or any(sum(x["counts"]) != n for x in lines):
            return _wrong("kept draws outside the n-photon support")
        e = payload["expected_fraction"]
        sigma = math.sqrt(e * (1 - e) / count)
        dev = abs(payload["kept_fraction"] - e)
        return None if dev <= SIGMAS * sigma else _wrong(f"kept fraction {dev / sigma:.2f} sigma off")

    return validate


def _variance_near(ref: complex):
    def validate(lines, payload):
        rows = payload["table"]
        if [r["f"] for r in rows] != list(estimators.F_CHOICES):
            return _wrong("variance table does not list every f")
        for r in rows:
            dev = abs(complex(r["estimate_re"], r["estimate_im"]) - ref)
            if dev > SIGMAS * r["stderr"]:
                return _wrong(f"{r['f']} estimate {dev / r['stderr']:.2f} sigma off")
        return None

    return validate


def _regime_table(lines, payload):
    return None if payload.get("table") else _wrong("empty regime table")


CLI_KINDS = (
    "verify-all",
    "verify-macmahon",
    "per-glynn",
    "per-ryser",
    "per-roots-of-unity",
    "per-cauchy-binet",
    "estimate-pown",
    "estimate-exp",
    "report-variance",
    "sample-fock",
    "sample-cat",
    "sample-cat-reject",
    "edge-cat-alpha40",
    "edge-regime-overflow",
    "edge-count-negative",
)


class Cli:
    """The README's command mix as real processes, plus a fixed share of edge inputs."""

    name = "cli"
    tail_percentile = 85
    # CPU times as measured: the worker's loop (worker.probe) does not track
    # the speed of the command processes, and scaling by it made the cli
    # figures spread more across runs, not less.
    reference_speed = False

    def __init__(self, seed: int, size: str, src_dir: str, work_dir: str) -> None:
        self.seed = seed
        full = size == "full"
        self.count = 5_000 if full else 200
        self.samples = 20_000 if full else 2_000
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=work_dir)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir] + ([path] if path else [])))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _write(self, name: str, data) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def run(self, argv: list[str]):
        return subprocess.run(
            [sys.executable, "-m", "permkit.cli", *argv], capture_output=True, env=self.env, timeout=120
        )

    def replay(self, op: Op) -> None:
        """Run the op's command in this process through `cli.main`, output discarded."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.main(op.argv)
            except Exception:  # the edge inputs raise; the subprocess op already counted it
                pass

    def stdout_bytes(self, proc) -> int:
        """Bytes on stdout, less the digits of the manifest's wall time, which vary."""
        try:
            _, payload = _parse_stdout(proc)
        except ValueError:
            return len(proc.stdout)
        return len(proc.stdout) - len(str(payload["manifest"]["wall_time_ms"]))

    def _op(self, kind: str, argv: list[str], expect_ok: bool = True, validate=None) -> Op:
        return Op(kind, partial(self.run, argv), partial(_cli_check, expect_ok, validate), argv=argv)

    def warmup_ops(self) -> list[Op]:
        """One light command per subcommand."""
        a3 = self._write("warm-a3.json", ComplexMatrix(rng.unit_disk_matrix(3, 1)).to_json_dict())
        u = self._write("warm-u3.json", rng.haar_unitary(3, 1).matrix.to_json_dict())
        return [
            self._op("warm-verify", ["verify", "--identity", "sn"]),
            self._op("warm-per", ["per", "--algo", "glynn", "--matrix", a3]),
            self._op("warm-estimate", ["estimate", "--matrix", a3, "--rows", "[1,1,1]", "--cols", "[1,1,1]", "--samples", "1000"]),
            self._op("warm-sample", ["sample", "--unitary", u, "--n", "2", "--count", "10"]),
            self._op("warm-report", ["report", "--kind", "regime", "--n", "10", "--m", "20"]),
        ]

    def round_ops(self, r: int) -> list[Op]:
        s = round_seed(self.seed, r)
        g = rng.generator(s)
        a8 = rng.unit_disk_matrix(8, s + 8)
        a3 = rng.unit_disk_matrix(3, s + 3)
        b3 = rng.unit_disk_matrix(3, s + 4)
        u6 = rng.haar_unitary(6, s + 6)
        alpha = round(float(g.uniform(0.6, 1.0)), 6)
        f8 = self._write("a8.json", ComplexMatrix(a8).to_json_dict())
        f3 = self._write("a3.json", ComplexMatrix(a3).to_json_dict())
        fb = self._write("b3.json", ComplexMatrix(b3).to_json_dict())
        fu = self._write("u6.json", ComplexMatrix(u6.matrix.data).to_json_dict())
        rows, cols = "[2,1,0]", "[1,1,1]"
        pattern = RepetitionPattern((2, 1, 0), (1, 1, 1))
        rep = combinatorics.repeat_matrix
        ref_rep = _ryser(rep(a3, pattern))
        seed = str(s)
        count = str(self.count)
        sample = ["sample", "--unitary", fu, "--seed", seed]
        cat = sample + ["--input", "cat", "--alpha", f"{alpha},0", "--n", "2", "--count", count]
        estimate = ["estimate", "--matrix", f3, "--rows", rows, "--cols", cols, "--samples", str(self.samples), "--seed", seed]
        return [
            self._op("verify-all", ["verify", "--all", "--seed", seed], validate=_reports_pass),
            self._op("verify-macmahon", ["verify", "--identity", "macmahon", "--matrix", f3, "--cap", "3"], validate=_reports_pass),
            self._op("per-glynn", ["per", "--algo", "glynn", "--matrix", f8], validate=_value_is(_ryser(a8))),
            self._op("per-ryser", ["per", "--algo", "ryser", "--matrix", f8], validate=_value_is(_per("permanent_glynn", a8).value)),
            self._op("per-roots-of-unity", ["per", "--algo", "roots-of-unity", "--matrix", f3, "--rows", rows, "--cols", cols],
                     validate=_value_is(ref_rep)),
            self._op("per-cauchy-binet",
                     ["per", "--algo", "cauchy-binet", "--matrix", f3, "--matrix-b", fb, "--rows", rows, "--cols", cols],
                     validate=_value_is(_ryser(rep(a3 @ b3, pattern)))),
            self._op("estimate-pown", estimate, validate=_estimate_near(ref_rep)),
            self._op("estimate-exp", estimate + ["--f", "exp"], validate=_estimate_near(ref_rep)),
            self._op("report-variance", ["report", "--kind", "variance", "--matrix", f3, "--rows", rows, "--cols", cols,
                                         "--samples", str(self.samples // 4), "--seed", seed],
                     validate=_variance_near(ref_rep)),
            self._op("sample-fock", sample + ["--input", "fock", "--n", "3", "--count", count],
                     validate=_fock_lines(3, self.count, math.comb(8, 3))),
            self._op("sample-cat", cat, validate=_cat_lines(2, self.count)),
            self._op("sample-cat-reject", cat + ["--reject-to", "2"], validate=_kept_lines(2, self.count)),
            self._op("edge-cat-alpha40", sample + ["--input", "cat", "--alpha", "40,0", "--n", "1", "--cutoff", "3"],
                     expect_ok=False),
            self._op("edge-regime-overflow", ["report", "--kind", "regime", "--n", "2000", "--m", "100", "--c", "5"],
                     expect_ok=False, validate=_regime_table),
            self._op("edge-count-negative", sample + ["--input", "fock", "--n", "3", "--count", "-1"], expect_ok=False),
        ]


WORKLOADS = {w.name: w for w in (Verify, Kernels, Optics, Cli)}
