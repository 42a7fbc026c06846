"""One workload process: set up, then measure whole rounds of ops for a while.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny] [--setup-only]

Started by bench/run.py.  Set-up is the interpreter start, the import,
building the workload's inputs from the seed, and one untimed warm-up op of
each kind.  The worker prints one JSON line with the CPU time it and its
children used from process start to the end of set-up.  With --setup-only
it stops there.  With --trace 0 it adds every op's kind, CPU time and wall
time; with --trace 1 it adds the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Every time the benchmark reports is CPU time at reference speed.  An op's
# CPU time is the user plus system seconds of the worker and of the
# processes it waited for (the cli commands).  On a shared virtual machine
# wall time also holds the time a process waited for a CPU that the host or
# a neighbour had; the kernel leaves that time, and time stolen by the host,
# out of a process's CPU time.  What a CPU second buys drifts too, by tens of
# percent between runs, with what the neighbours run on the same core.  So
# the worker and every process it starts keep to one CPU, and after every op
# the worker times a fixed pure-Python loop there by its own thread's CPU
# time, and each op's CPU time is multiplied by REF_LOOP_S over
# the median loop time of the PROBE_WINDOW loops on either side of it.
# Threads the program leaves running do not add to the loop's CPU time.
# Unscaled CPU and wall-clock figures are reported in the detail line.  A
# change that spreads work over threads or processes shows here as the CPU
# it costs, not as the wall time it saves.  The cli workload's ops run in
# processes of their own, whose speed the worker's loop does not track: its
# times are CPU times as measured (see workloads.Cli).
LOOP_N = 150_000
REF_LOOP_S = 0.003  # about the loop's median CPU time on the machine the baseline comes from
PROBE_WINDOW = 10
# A --trace 0 run measures at least this many rounds, so that every op
# kind's median is over at least this many runs of it.  A command process's
# CPU time alone varies by 10% or more from run to run on a shared machine.
MIN_ROUNDS = 6
# The traced half of a --trace 1 run starts at this round, whatever the
# untraced half managed, so its inputs and exact work counts depend only on
# the seed.
TRACED_ROUND = 1 << 20


def cpu_s() -> float:
    """CPU seconds of this process and of its waited-for children so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def probe() -> float:
    """This thread's CPU seconds for a fixed pure-Python loop, over REF_LOOP_S."""
    x = 0
    start = thread_time()
    for _ in itertools.repeat(None, LOOP_N):
        x ^= 1
    return (thread_time() - start) / REF_LOOP_S


@dataclass
class Phase:
    wall: list = field(default_factory=list)  # wall seconds per op
    cpu: list = field(default_factory=list)  # CPU seconds per op
    probes: list = field(default_factory=list)  # loop times over REF_LOOP_S: one before the first op, one after each op
    latencies: list = field(default_factory=list)  # CPU seconds at reference speed per op, set by `normalise`
    scales: list = field(default_factory=list)  # per op: reference seconds per CPU second
    ids: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    rounds: int = 0
    reasons: Counter = field(default_factory=Counter)
    op_round: dict = field(default_factory=dict)
    first_round: int = 0
    stdout_bytes: int = 0  # cli: over the first round of a traced phase

    def ops_per_s(self) -> float:
        busy = sum(self.latencies)
        return (self.attempted - self.failed) / busy if busy > 0 else 0.0

    def normalise(self) -> None:
        if not self.probes:
            self.scales = [1.0] * len(self.cpu)
            self.latencies = list(self.cpu)
            return
        for i, cpu in enumerate(self.cpu):
            near = self.probes[max(0, i + 1 - PROBE_WINDOW): i + 1 + PROBE_WINDOW]
            self.scales.append(1.0 / statistics.median(near))
            self.latencies.append(cpu * self.scales[-1])


def run_ops(workload, ops, phase: Phase, r: int, tracer=None, next_id: int = 0, probing: bool = False) -> int:
    """Time each op, then check all of them outside the timed calls; returns the next op id.

    A traced op's times exclude the tracer's counting work (`Tracer.note_s`,
    `Tracer.note_cpu_s`).
    """
    from workloads import Fail

    results = []
    for op in ops:
        op_id = next_id
        next_id += 1
        phase.op_round[op_id] = r
        noted = (tracer.note_s, tracer.note_cpu_s) if tracer is not None else (0.0, 0.0)
        with tracer.op(op_id) if tracer is not None else nullcontext():
            cpu = cpu_s()
            start = perf_counter()
            try:
                result, exc = op.run(), None
            except Exception as e:  # an op that raises counts as failed
                result, exc = None, e
            elapsed = perf_counter() - start
            cpu = cpu_s() - cpu
        if tracer is not None:
            elapsed -= tracer.note_s - noted[0]
            cpu -= tracer.note_cpu_s - noted[1]
        if probing:
            phase.probes.append(probe())
        if tracer is not None and hasattr(workload, "replay"):
            with tracer.op(op_id):
                workload.replay(op)
        results.append((op_id, op, result, exc, elapsed, cpu))
    done = {op.key: res for _, op, res, exc, _, _ in results if op.key is not None and exc is None}
    for op_id, op, result, exc, elapsed, cpu in results:
        if exc is not None:
            fail = Fail(f"raised {type(exc).__name__}: {exc}", False)
        else:
            try:
                fail = op.check(result, done)
            except Exception as e:  # a result the check cannot read is a wrong result
                fail = Fail(f"check raised {type(e).__name__}: {e}", True)
        phase.wall.append(elapsed)
        phase.cpu.append(cpu)
        phase.ids.append(op_id)
        phase.kinds.append(op.kind)
        phase.attempted += 1
        if fail is not None:
            phase.failed += 1
            phase.wrong += fail.wrong
            phase.reasons[f"{op.kind}: {fail.reason}"[:200]] += 1
        if exc is None and tracer is not None and r == phase.first_round and hasattr(workload, "stdout_bytes"):
            phase.stdout_bytes += workload.stdout_bytes(result)
    return next_id


def run_phase(
    workload, seconds: float, first_round: int, tracer=None, next_id: int = 0, min_rounds: int = 1
) -> tuple[Phase, int]:
    """Whole rounds from `first_round` on until `seconds` of wall time and `min_rounds` rounds have passed."""
    phase = Phase(first_round=first_round)
    deadline = time.monotonic() + seconds
    r = first_round
    if workload.reference_speed:
        phase.probes.append(probe())
    while True:
        next_id = run_ops(workload, workload.round_ops(r), phase, r, tracer, next_id, workload.reference_speed)
        r += 1
        phase.rounds += 1
        if time.monotonic() >= deadline and phase.rounds >= min_rounds:
            phase.normalise()
            return phase, next_id


def import_seconds(env: dict, repeats: int = 3) -> float:
    """Median CPU time to import permkit.cli in a fresh interpreter."""
    code = "import time; t = time.process_time(); import permkit.cli; print(time.process_time() - t)"
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def traced_metrics(workload, args) -> tuple[dict, dict, list]:
    """Half the time untraced, half traced; per-layer metrics from the traced half."""
    import layers
    from permkit import identities
    from tracing import Tracer
    from workloads import CLI_KINDS

    half = args.seconds / 2.0
    plain, next_id = run_phase(workload, half, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run_phase(workload, half, TRACED_ROUND, tracer, next_id)
    finally:
        tracer.close()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")

    entries = list(identities.IDENTITY_REGISTRY)
    # Spans are wall-clock.  An in-process op's spans are scaled by its
    # latency over its wall time; the cli replays' stay wall-clock.
    op_scale = dict(zip(traced.ids, traced.scales)) if hasattr(workload, "replay") else {
        i: lat / wall for i, lat, wall in zip(traced.ids, traced.latencies, traced.wall) if wall > 0
    }
    metrics = layers.per_layer_metrics(
        tracer.spans, traced.op_round, traced.first_round, traced.rounds, op_scale, entries, CLI_KINDS
    )
    metrics["cli.import_s"] = import_seconds(dict(os.environ, PYTHONPATH=str(SRC)))
    if workload.name == "cli":
        walls = defaultdict(list)
        for phase in (plain, traced):
            for kind, wall in zip(phase.kinds, phase.wall):
                walls[kind].append(wall)
        for kind in CLI_KINDS:
            metrics[f"cli.{kind}.wall_ms"] = statistics.median(walls[kind]) * 1e3
        metrics["cli.stdout_bytes"] = traced.stdout_bytes
    untraced_rate = plain.ops_per_s()
    metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_s() / untraced_rate if untraced_rate > 0 else 0.0
    detail = {
        "rounds": [plain.rounds, traced.rounds],
        "ops": [plain.attempted, traced.attempted],
        "spans": len(tracer.spans),
        "note_s": tracer.note_s,
        "units": layers.metric_units(entries, CLI_KINDS),
    }
    return metrics, detail, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # One CPU for the worker and the processes it starts (see above).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "cli":
        OUT_DIR.mkdir(exist_ok=True)
        workload = workloads.Cli(args.seed, args.size, str(SRC), str(OUT_DIR))
    else:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    try:
        warm = Phase()
        run_ops(workload, workload.warmup_ops(), warm, workloads.WARMUP_ROUND)
        setup_cpu = cpu_s()
        setup_scale = 1.0
        if workload.reference_speed:
            # Scaled by loops taken after set-up, whose CPU time it does not hold.
            setup_scale /= statistics.median(probe() for _ in range(2 * PROBE_WINDOW))
        out, phases = {}, []
        if args.trace:
            metrics, detail, phases = traced_metrics(workload, args)
            out = {"metrics": metrics, "detail": detail}
        elif not args.setup_only:
            phase, _ = run_phase(workload, args.seconds, 0, min_rounds=MIN_ROUNDS)
            usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF)
            out = {
                "kinds": phase.kinds,
                "latencies": phase.latencies,
                "cpu": phase.cpu,
                "wall": phase.wall,
                "rounds": phase.rounds,
                "tail_percentile": workload.tail_percentile,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
            }
            phases = [phase]
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    reasons = Counter()
    for p in (warm, *phases):
        reasons.update(p.reasons)
    out.update(
        setup_s=setup_cpu * setup_scale,
        attempted=sum(p.attempted for p in phases),
        failed=sum(p.failed for p in phases),
        wrong=sum(p.wrong for p in phases) + warm.wrong,
        warmup_failures=warm.failed,
        reasons=dict(reasons.most_common(10)),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
