"""Self-tests of the benchmark harness (not of permkit).

    python3 -m pytest bench/test_bench.py -q

Workload runs use --size tiny; the whole file takes about two minutes.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
EXACT_COUNTS = (
    "permanents.terms",
    "series.mul.pairs",
    "identities.coeffs_checked",
    "bosonic.amplitudes",
    "cli.stdout_bytes",
)


@functools.lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int, seed: int, seconds: float = 0) -> tuple[dict, dict]:
    """The result line and the detail line of a --size tiny run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("detail: ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail: "):])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_reports_every_metric(workload, trace, section):
    out, _ = tiny_run(workload, trace, 5)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_work_counts_repeat_for_a_seed(workload):
    # The second run's untraced half fits more rounds than the first run's,
    # so counts taken on rounds that follow the untraced half would differ.
    first, _ = tiny_run(workload, 1, 5)
    second, detail = tiny_run(workload, 1, 5, 16 if workload == "cli" else 1)
    assert detail["rounds"][0] > 1
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def _bindings() -> dict:
    """Every object reachable as a permkit module attribute, dict item or series method."""
    from permkit import identities, series

    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "permkit" or modname.startswith("permkit."):
            for name, obj in vars(mod).items():
                out[(modname, name)] = obj
                if isinstance(obj, dict) and not name.startswith("__"):
                    for key, value in obj.items():
                        out[(modname, name, key)] = value
    for name, obj in vars(series.TruncatedSeries).items():
        out[("TruncatedSeries", name)] = obj
    for key, value in identities.IDENTITY_REGISTRY.items():
        out[("IDENTITY_REGISTRY", key)] = value
    return out


def test_traced_run_restores_every_wrapped_function():
    from permkit import bosonic, cli, identities, permanents

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        # Names imported by value are rebound too.
        assert identities.permanent_naive is not before[("permkit.identities", "permanent_naive")]
        assert bosonic.permanent_ryser is permanents.permanent_ryser
        assert cli.PLAIN_ALGOS["glynn"] is permanents.permanent_glynn
        assert cli.run_battery is identities.run_battery
        for cls in (workloads.Verify, workloads.Kernels, workloads.Optics):
            wl = cls(3, "tiny")
            phase = worker.Phase(first_round=0)
            worker.run_ops(wl, wl.round_ops(0), phase, 0, tracer=tracer)
            assert phase.failed == 0, phase.reasons
    finally:
        tracer.close()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert tracer.wrapped and all(
        before[("permkit.permanents", name.rsplit(".", 1)[1])] is fn
        for name, fn in tracer.wrapped.items()
        if name.startswith("permkit.permanents.")
    )
    layers_seen = {s[0] for s in tracer.spans}
    assert layers_seen >= {"permanents", "series", "identities", "estimators", "bosonic", "combinatorics"}


def test_self_time_subtracts_the_union_of_child_spans():
    parent = ["identities", "macmahon", 0.0, 10.0, None, 0, None, None]
    same_layer = ["identities", "verify_macmahon", 1.0, 9.0, parent, 0, None, None]
    spans = [
        parent,
        same_layer,
        ["series", "mul", 2.0, 4.0, same_layer, 0, None, None],
        ["permanents", "naive", 3.0, 6.0, same_layer, 0, None, None],  # overlaps, as from a pool thread
    ]
    own = layers.self_times(spans)
    assert own[id(parent)] == 2.0
    assert own[id(same_layer)] == 4.0
    assert layers.layer_self_times(spans, "identities")[id(parent)] == 6.0


def test_counting_after_a_span_is_taken_out_of_its_ancestors():
    parent = ["identities", "macmahon", 0.0, 10.0, None, 0, None, None]
    same_layer = ["identities", "verify_macmahon", 1.0, 9.0, parent, 0, {}, (9.0, 9.5)]
    mul = ["series", "mul", 2.0, 4.0, same_layer, 0, {}, (4.0, 5.0)]
    spans = [parent, same_layer, mul]
    own = layers.self_times(spans)
    assert own[id(same_layer)] == 8.0 - 2.0 - 1.0
    assert own[id(parent)] == 10.0 - 8.0 - 0.5
    assert layers.layer_self_times(spans, "identities")[id(parent)] == 10.0 - 0.5 - 2.0 - 1.0
    busy = layers.busy_times(spans)
    assert (busy[id(parent)], busy[id(same_layer)], busy[id(mul)]) == (8.5, 7.0, 2.0)


def test_traced_op_time_leaves_out_the_counting():
    tracer = Tracer()
    tracer.install()
    try:
        wl = workloads.Verify(3, "tiny")
        phase = worker.Phase(first_round=0)
        worker.run_ops(wl, wl.round_ops(0)[:3], phase, 0, tracer=tracer)
    finally:
        tracer.close()
    noted = [s[7][1] - s[7][0] for s in tracer.spans if s[7] is not None]
    assert noted and tracer.note_s == pytest.approx(sum(noted))
    busy = layers.busy_times(tracer.spans)
    for op_id, wall in zip(phase.ids, phase.wall):
        top = [s for s in tracer.spans if s[5] == op_id and s[4] is None]
        # The op's time is its outermost spans' time less the counting inside them and after them.
        assert abs(wall - sum(busy[id(s)] for s in top)) < 1e-3


def test_op_times_are_cpu_times_of_the_worker_and_its_children():
    spin = "import time; t = time.process_time()\nwhile time.process_time() - t < 0.2: pass"
    ops = [
        workloads.Op("sleep", functools.partial(time.sleep, 0.3), lambda result, done: None),
        workloads.Op("child", functools.partial(subprocess.run, [sys.executable, "-c", spin], check=True),
                     lambda result, done: None),
    ]
    phase = worker.Phase()
    worker.run_ops(workloads.Verify(3, "tiny"), ops, phase, 0)
    # Idle BLAS threads left spinning by earlier tests may still add a little CPU time.
    assert phase.wall[0] >= 0.3 and phase.cpu[0] < 0.15
    assert phase.cpu[1] >= 0.2


def test_cpu_times_are_put_at_reference_speed():
    phase = worker.Phase(cpu=[1.0, 2.0, 3.0], probes=[2.0, 2.0, 2.0, 1.0])
    phase.normalise()
    # Each op uses the median loop time of the probes nearest it.
    assert phase.latencies == [0.5, 1.0, 1.5]


def test_tail_is_nearest_rank():
    values = list(range(1, 41))
    assert run.nearest_rank(values, 75) == (30, 10)
    assert run.nearest_rank(values, 90) == (36, 4)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
