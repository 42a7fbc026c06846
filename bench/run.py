"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run it from the root of a permkit checkout; it needs nothing built.  The
workload runs in a fresh worker process (bench/worker.py).  Times are CPU
times of the worker and of the processes it starts, which on a shared
machine do not count the time spent waiting for a CPU; those of the
in-process workloads are also put at the reference speed of a fixed loop
timed next to each op (see worker.py).  The detail line also gives unscaled
CPU and wall-clock figures.  With --trace 0 the worker measures for the
whole time, and for at least six rounds, and ``setup_s`` is the median
set-up time, from process start to the first timed op, of that worker and
of SETUP_RUNS more worker processes that only set up.  With --trace 1 one worker runs a traced
run and the per-layer metrics are printed instead.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it gives details such as the tail percentile
and how many ops lie beyond it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 2
RUN_LIMIT_S = 170.0
# BLAS libraries run single-threaded.  On two CPUs an idle OpenBLAS worker
# thread spins for tens of milliseconds after each call, which adds CPU time
# to whatever runs next by an amount that depends on scheduling luck.
SINGLE_THREADED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def start_worker(args, extra: list, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its JSON line and its set-up CPU time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, *extra,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, env=dict(os.environ, **SINGLE_THREADED_BLAS))
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    res = json.loads(out.decode().strip().splitlines()[-1])
    return res, res["setup_s"]


def nearest_rank(sorted_values: list, percentile: int):
    """Nearest-rank percentile of ascending values, and how many values lie beyond it."""
    n = len(sorted_values)
    rank = max(1, -(-percentile * n // 100))
    return sorted_values[rank - 1], n - rank


def kind_medians(kinds: list, latencies: list) -> dict:
    """Each op kind's median latency over all rounds, in ascending order."""
    by_kind = defaultdict(list)
    for kind, lat in zip(kinds, latencies):
        by_kind[kind].append(lat)
    return dict(sorted(((k, statistics.median(v)) for k, v in by_kind.items()), key=lambda kv: kv[1]))


def end_to_end(res: dict, key: str = "latencies") -> tuple[dict, dict]:
    """The end-to-end metrics other than setup_s from one worker's ops.

    Every kind runs once per round, so a round's latencies are one value per
    kind.  The median and the tail are taken over those, each kind at its
    median over all rounds, so one op slowed by a burst of host noise cannot
    become the median or the tail op.
    """
    attempted, failed, rounds = res["attempted"], res["failed"], res["rounds"]
    percentile = res["tail_percentile"]
    per_kind = kind_medians(res["kinds"], res[key])
    ranked = list(per_kind.values())
    p50, _ = nearest_rank(ranked, 50)
    tail, kinds_beyond = nearest_rank(ranked, percentile)
    busy = sum(res[key])
    metrics = {
        "ops_per_s": (attempted - failed) / busy if busy > 0 else 0.0,
        "op_p50_ms": p50 * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }
    detail = {
        "rounds": rounds,
        "ops": attempted,
        "tail_percentile": percentile,
        "ops_beyond_tail": kinds_beyond * rounds,
        "fail_frac": failed / attempted,
        "kind_median_ms": {k: round(v * 1e3, 3) for k, v in per_kind.items()},
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="permkit benchmark: one workload run")
    parser.add_argument("--workload", required=True, choices=("verify", "kernels", "optics", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: small inputs, for self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "permkit" / "__init__.py").is_file():
        print(f"error: no permkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        res, setup = start_worker(args, [], deadline)
        setups = [setup]
        if not args.trace:
            setups += [start_worker(args, ["--setup-only"], deadline)[1] for _ in range(SETUP_RUNS)]
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        detail = res["detail"]
        units = detail.pop("units")
        metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()}
    else:
        values, detail = end_to_end(res)
        detail["cpu_time"] = {k: v for k, v in end_to_end(res, "cpu")[0].items() if k.startswith("op")}
        detail["wall_clock"] = {k: v for k, v in end_to_end(res, "wall")[0].items() if k.startswith("op")}
        values["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
    detail.update(workload=args.workload, seed=args.seed, setups_s=setups, wrong=res["wrong"],
                  warmup_failures=res["warmup_failures"], failures=res["reasons"])
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
