"""permkit command line: permanents, identity verification, estimation, sampling.

All results go to standard output as JSON (full double precision); errors go
to standard error.  Exit codes: 0 success, 1 input/usage error, 2 at least
one identity verification failed.  Every invocation embeds a manifest
(command, parameters, seed, version, wall time); seeded commands reproduce
their output exactly when replayed with the same inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings

from . import __version__, _deferred
from .combinatorics import RepetitionPattern, repeat_matrix, weight
from .errors import DimensionMismatch, PermkitError, WeightMismatchWarning
from .numerics import ComplexMatrix, UnitaryMatrix
from .permanents import ALGORITHMS, permanent_cauchy_binet, permanent_glynn_repeated_rows

# The identities, series, bosonic and estimators modules are imported by the
# subcommands that run them.  `cli.run_battery` stays readable, served from
# identities, because the bench's tracer test and the start-up tests read it.
__getattr__, __dir__ = _deferred(__name__, {"identities": ("run_battery",)})

PLAIN_ALGOS = {name: ALGORITHMS[name] for name in ("naive", "ryser", "glynn", "glynn-kan")}
PATTERN_ALGOS = {name: fn for name, fn in ALGORITHMS.items() if name not in PLAIN_ALGOS}


def _load_json(arg: str):
    text = arg.strip()
    try:
        if text.startswith("[") or text.startswith("{"):
            return json.loads(text)
        with open(arg, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _load_matrix(arg: str) -> ComplexMatrix:
    return ComplexMatrix.from_json_dict(_load_json(arg))


def _load_multi_index(arg: str) -> tuple[int, ...]:
    data = _load_json(arg)
    # bool is an int subclass, but JSON true is no repetition count
    if not isinstance(data, list) or not all(type(k) is int for k in data):
        raise ValueError(f"multi-index must be a JSON array of integers, got {arg!r}")
    return tuple(data)


def _parse_cap(text: str):
    if "," in text:
        return tuple(int(c) for c in text.split(","))
    return int(text)


def _parse_complex(text: str) -> complex:
    if "," in text:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    return complex(float(text), 0.0)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


class _IdentityNames:
    """The identity registry's names, sorted, as argparse choices.

    argparse reads choices only to check a given value or to print usage, so
    the identities module is imported then, not when the parser is built.
    """

    def __iter__(self):
        from .identities import IDENTITY_REGISTRY

        return iter(sorted(IDENTITY_REGISTRY))

    def __contains__(self, name) -> bool:
        return name in iter(self)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="permkit")
    parser.add_argument("--tolerance", type=float, default=1e-8, help="comparison tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    per = sub.add_parser("per", help="evaluate a permanent")
    per.add_argument("--algo", required=True, choices=sorted(PLAIN_ALGOS | PATTERN_ALGOS.keys()))
    per.add_argument("--matrix", required=True)
    per.add_argument("--matrix-b", help="second matrix (cauchy-binet)")
    per.add_argument("--rows", help="row repetition multi-index (JSON array or file)")
    per.add_argument("--cols", help="column repetition multi-index")

    verify = sub.add_parser("verify", help="verify permanent identities")
    group = verify.add_mutually_exclusive_group(required=True)
    # set after add_argument, which may format (and so read) the choices
    group.add_argument("--identity").choices = _IdentityNames()
    group.add_argument("--all", action="store_true")
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--matrix")
    verify.add_argument("--matrix-b")
    verify.add_argument("--rows")
    verify.add_argument("--cols")
    verify.add_argument("--cap")

    est = sub.add_parser("estimate", help="Monte Carlo permanent estimate")
    est.add_argument("--matrix", required=True)
    est.add_argument("--rows", required=True)
    est.add_argument("--cols", required=True)
    est.add_argument("--f", default="pown", choices=("exp", "pown", "geom"))
    est.add_argument("--samples", type=int, default=100_000)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--streams", type=int, default=1)

    smp = sub.add_parser("sample", help="sample a linear-optical outcome distribution")
    smp.add_argument("--unitary", required=True)
    smp.add_argument("--input", default="fock", choices=("fock", "cat"))
    smp.add_argument("--alpha", default="0.5", help="cat amplitude as re,im")
    smp.add_argument("--n", type=int, required=True, help="number of occupied input modes")
    smp.add_argument("--cutoff", type=int, help="max total photons enumerated (cat input)")
    smp.add_argument("--count", type=_non_negative_int, default=1000)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--reject-to", type=int, dest="reject_to")

    rep = sub.add_parser("report", help="estimator variance scan / amplitude regime table")
    rep.add_argument("--kind", required=True, choices=("variance", "regime"))
    rep.add_argument("--matrix")
    rep.add_argument("--rows")
    rep.add_argument("--cols")
    rep.add_argument("--f", default="pown,exp,geom")
    rep.add_argument("--samples", type=int, default=100_000)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--n", type=int)
    rep.add_argument("--m", type=int)
    rep.add_argument("--c", default="1.0", help="comma-separated scaling constants")

    return parser


def _manifest(args: argparse.Namespace, wall_ms: int) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k != "command" and v is not None
    }
    return {
        "command": args.command,
        "parameters": params,
        "seed": int(getattr(args, "seed", 0) or 0),
        "tool_version": __version__,
        "wall_time_ms": wall_ms,
    }


def _cmd_per(args) -> tuple[object, int, list]:
    mat = _load_matrix(args.matrix)
    rows = _load_multi_index(args.rows) if args.rows else None
    cols = _load_multi_index(args.cols) if args.cols else None
    algo = args.algo
    if algo in PLAIN_ALGOS:
        target = mat
        if rows is not None or cols is not None:
            m = mat.dim
            pattern = RepetitionPattern(rows or (1,) * m, cols or (1,) * m)
            if pattern.length != m:
                raise DimensionMismatch("pattern length must equal the matrix dimension")
            if weight(pattern.rows) == weight(pattern.cols):
                target = repeat_matrix(mat, pattern)
            else:
                # the pattern algorithms' warning, and a 1 x 0 stand-in for the rectangular A_{p,q}
                warnings.warn(WeightMismatchWarning())
                target = [[]]
        result = PLAIN_ALGOS[algo](target)
    elif algo == "glynn-repeated-rows":
        if cols is not None:
            raise ValueError("glynn-repeated-rows repeats rows only; it takes --rows, not --cols")
        q = rows if rows is not None else (1,) * mat.dim
        result = permanent_glynn_repeated_rows(mat, q)
    elif algo == "cauchy-binet":
        if not args.matrix_b:
            raise ValueError("cauchy-binet needs --matrix-b")
        mat_b = _load_matrix(args.matrix_b)
        pattern = RepetitionPattern(rows or (1,) * mat.dim, cols or (1,) * mat.dim)
        result = permanent_cauchy_binet(mat, mat_b, pattern)
    else:
        pattern = RepetitionPattern(rows or (1,) * mat.dim, cols or (1,) * mat.dim)
        result = PATTERN_ALGOS[algo](mat, pattern)
    value = complex(result.value)
    payload = {"re": value.real, "im": value.imag, "algo": result.algorithm, "terms": result.term_count}
    return payload, 0, []


def _cmd_verify(args, tolerance: float) -> tuple[object, int, list]:
    from .identities import run_battery

    overrides = {}
    if args.matrix:
        overrides["matrix"] = _load_matrix(args.matrix).data
    if args.matrix_b:
        overrides["matrix_b"] = _load_matrix(args.matrix_b).data
    if args.rows:
        overrides["rows"] = _load_multi_index(args.rows)
    if args.cols:
        overrides["cols"] = _load_multi_index(args.cols)
    if args.cap:
        overrides["cap"] = _parse_cap(args.cap)
    if args.all and overrides:
        raise ValueError("--matrix/--rows/--cols/--cap overrides require --identity")
    names = None if args.all else [args.identity]
    reports = run_battery(names, seed=args.seed, tolerance=tolerance, **overrides)
    payload = [r.to_json_dict() for r in reports]
    code = 0 if all(r.passed for r in reports) else 2
    return payload, code, []


def _cmd_estimate(args) -> tuple[object, int, list]:
    from .estimators import estimate_permanent

    mat = _load_matrix(args.matrix)
    pattern = RepetitionPattern(_load_multi_index(args.rows), _load_multi_index(args.cols))
    rep = estimate_permanent(mat, pattern, args.f, args.samples, args.seed, streams=args.streams)
    return rep.to_json_dict(), 0, []


def _outcome_lines(draws) -> list[str]:
    """One JSON line per draw, each distinct outcome formatted once."""
    from .bosonic import OVERFLOW

    text = {o: json.dumps({"overflow": True} if o is OVERFLOW else {"counts": list(o)}) for o in set(draws)}
    return [text[o] for o in draws]


def _cmd_sample(args) -> tuple[object, int, list]:
    from .bosonic import (
        CatInputSpec,
        bs_distribution,
        cat_distribution,
        kept_draws,
        photon_fraction,
        reject_to_fixed_n,
        sample as sample_outcomes,
    )

    u = UnitaryMatrix(_load_matrix(args.unitary))
    if args.input == "fock":
        dist = bs_distribution(u, args.n)
        if args.reject_to is not None:
            dist = reject_to_fixed_n(dist, args.reject_to)
        lines = _outcome_lines(sample_outcomes(dist, args.count, args.seed))
        summary = {
            "input": "fock",
            "count": args.count,
            "support_size": len(dist.probs),
            "truncated_mass": dist.truncated_mass,
        }
        return summary, 0, lines
    spec = CatInputSpec(_parse_complex(args.alpha), args.n, u.dim)
    dist = cat_distribution(u, spec, args.cutoff)
    if args.reject_to is not None:
        n = args.reject_to
        outcomes, kept, tv = kept_draws(dist, n, args.count, args.seed, bs_distribution(u, n).probs)
        lines = _outcome_lines([outcomes[i] for i in kept.tolist()])
        summary = {
            "input": "cat",
            "count": args.count,
            "kept": kept.size,
            "kept_fraction": kept.size / args.count if args.count else None,
            "expected_fraction": photon_fraction(spec.alpha, n),
            "tv_estimate": tv,
            "cutoff": dist.cutoff,
            "truncated_mass": dist.truncated_mass,
        }
        return summary, 0, lines
    lines = _outcome_lines(sample_outcomes(dist, args.count, args.seed))
    summary = {
        "input": "cat",
        "count": args.count,
        "support_size": len(dist.probs),
        "cutoff": dist.cutoff,
        "truncated_mass": dist.truncated_mass,
        "tail_bound": dist.tail_bound,
    }
    return summary, 0, lines


def _cmd_report(args) -> tuple[object, int, list]:
    if args.kind == "variance":
        from .estimators import estimator_variance_scan

        if not (args.matrix and args.rows and args.cols):
            raise ValueError("variance report needs --matrix, --rows, --cols")
        mat = _load_matrix(args.matrix)
        pattern = RepetitionPattern(_load_multi_index(args.rows), _load_multi_index(args.cols))
        f_list = tuple(args.f.split(","))
        table = estimator_variance_scan(mat, pattern, f_list, args.samples, args.seed)
        return {"kind": "variance", "table": table}, 0, []
    if args.n is None or args.m is None:
        raise ValueError("regime report needs --n and --m")
    from .bosonic import amplitude_regime_check

    rows = []
    for c in (float(x) for x in args.c.split(",")):
        rows.append(amplitude_regime_check(args.n, args.m, c).to_json_dict())
    return {"kind": "regime", "table": rows}, 0, []


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one `warning: ...` line on stderr, as errors are given."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the exit-code contract reserves
        # 2 for verification failures, so misuse maps to 1.
        return 0 if exc.code == 0 else 1
    start = time.monotonic()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
                raise ValueError(f"--tolerance must be a finite, non-negative number, got {args.tolerance}")
            if args.command == "per":
                payload, code, lines = _cmd_per(args)
            elif args.command == "verify":
                payload, code, lines = _cmd_verify(args, args.tolerance)
            elif args.command == "estimate":
                payload, code, lines = _cmd_estimate(args)
            elif args.command == "sample":
                payload, code, lines = _cmd_sample(args)
            else:
                payload, code, lines = _cmd_report(args)
    except (PermkitError, ValueError, KeyError, OSError, OverflowError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    wall_ms = int((time.monotonic() - start) * 1000)
    manifest = _manifest(args, wall_ms)
    if isinstance(payload, list):
        record = {"reports": payload, "manifest": manifest}
    else:
        record = dict(payload)
        record["manifest"] = manifest
    try:
        sys.stdout.write("".join(line + "\n" for line in lines))
        print(json.dumps(record))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`permkit ... | head`).  As Python's
        # signal docs advise, stdout goes to devnull so that the flush at
        # exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
