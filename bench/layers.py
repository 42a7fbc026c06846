"""Per-layer metrics from the spans of a traced run.

Span times are wall-clock, scaled by their op's end-to-end latency over its
wall time, so that like the latencies they leave out waiting for a CPU and
are at reference speed (worker.py); the spans of cli's in-process replays
stay wall-clock.  Self times leave out child spans and the
tracer's counting after them.  They are summed per layer and function and
divided by the number of traced rounds, so they read as seconds per round of
the workload's fixed mix and stay comparable when a faster program fits
more rounds in a run.  Work counts ("count/round") come from the first
traced round alone, whose index is fixed (worker.TRACED_ROUND), so they
repeat exactly for a seed.  Rates divide all work by all the time spent.
A metric reads 0 when the workload never reaches that function.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import ERROR

GLYNN_RYSER = ("glynn", "ryser")
OTHER_KERNELS = ("naive", "glynn_kan", "roots_of_unity", "glynn_kan_repeated", "glynn_repeated_rows", "cauchy_binet")
SERIES_OPS = ("mul", "inverse", "sqrt_inverse", "exp", "log", "power", "det_series")
F_CHOICES = ("pown", "exp", "geom")
BOSONIC_TIMED = ("bs_distribution", "cat_distribution", "cat_amplitude", "sample", "rejection_sampling_pipeline")
AMPLITUDES = ("fock_amplitude", "cat_amplitude")


def metric_units(entries, cli_kinds) -> dict[str, str]:
    """Every per-layer metric name and its unit, in output order."""
    u = {}
    for algo in GLYNN_RYSER:
        for kind in ("float", "exact"):
            u[f"permanents.{algo}.{kind}.self_s"] = "s/round"
    for algo in OTHER_KERNELS:
        u[f"permanents.{algo}.self_s"] = "s/round"
    u.update({
        "permanents.calls": "count/round",
        "permanents.terms": "count/round",
        "permanents.terms_per_s": "1/s",
        "permanents.float_max_rel_err": "ratio",
        "permanents.errors": "count",
    })
    for op in SERIES_OPS:
        u[f"series.{op}.calls"] = "count/round"
        u[f"series.{op}.self_s"] = "s/round"
    u.update({
        "series.rational.self_s": "s/round",
        "series.complex.self_s": "s/round",
        "series.mul.pairs": "count/round",
        "series.nonzero_frac": "ratio",
    })
    for entry in entries:
        u[f"identities.{entry}.self_s"] = "s/round"
    u.update({"identities.coeffs_checked": "count/round", "identities.failed": "count"})
    for f in F_CHOICES:
        u[f"estimators.{f}.samples_per_s"] = "1/s"
    u.update({"estimators.samples": "count/round", "estimators.self_s": "s/round"})
    for name in BOSONIC_TIMED:
        u[f"bosonic.{name}.self_s"] = "s/round"
    u.update({
        "bosonic.amplitudes": "count/round",
        "bosonic.amplitudes_per_s": "1/s",
        "bosonic.draws_per_s": "1/s",
        "bosonic.kept_ratio": "ratio",
        "combinatorics.repeat_matrix.calls": "count/round",
        "combinatorics.repeat_matrix.self_s": "s/round",
        "cli.import_s": "s",
    })
    for kind in cli_kinds:
        u[f"cli.{kind}.wall_ms"] = "ms"
    u.update({"cli.main.self_s": "s/round", "cli.stdout_bytes": "bytes/round", "trace.overhead_frac": "ratio"})
    return u


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    lo_run = hi_run = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if hi_run is None or lo > hi_run:
            if hi_run is not None:
                total += hi_run - lo_run
            lo_run, hi_run = lo, hi
        else:
            hi_run = max(hi_run, hi)
    if hi_run is not None:
        total += hi_run - lo_run
    return total


def _children(spans) -> dict[int, list]:
    out = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            out[id(s[4])].append(s)
    return out


def _cover(span) -> list:
    """The intervals a child span takes out of its parents: its run and its counting after it."""
    return [(span[2], span[3])] + ([span[7]] if span[7] is not None else [])


def self_times(spans) -> dict[int, float]:
    """id(span) -> its duration minus the time its child spans and their counting cover."""
    children = _children(spans)
    return {
        id(s): (s[3] - s[2]) - _covered(s[2], s[3], [iv for c in children.get(id(s), ()) for iv in _cover(c)])
        for s in spans
    }


def layer_self_times(spans, layer: str) -> dict[int, float]:
    """id(span) -> duration minus the time of the nearest spans of other layers, for `layer`'s spans.

    Descendants in the same layer count as the span's own time; the counting
    after any descendant does not.
    """
    children = _children(spans)
    out = {}
    for s in spans:
        if s[0] != layer:
            continue
        taken = []
        todo = list(children.get(id(s), ()))
        while todo:
            c = todo.pop()
            if c[0] == layer:
                taken += _cover(c)[1:]
                todo.extend(children.get(id(c), ()))
            else:
                taken += _cover(c)
        out[id(s)] = (s[3] - s[2]) - _covered(s[2], s[3], taken)
    return out


def busy_times(spans) -> dict[int, float]:
    """id(span) -> its duration less the counting after its descendants."""
    out = {id(s): s[3] - s[2] for s in spans}
    for s in spans:
        if s[7] is None:
            continue
        counted = s[7][1] - s[7][0]
        parent = s[4]
        while parent is not None:
            out[id(parent)] -= counted
            parent = parent[4]
    return out


def per_layer_metrics(
    spans, op_round: dict, first_round: int, rounds: int, op_scale: dict, entries, cli_kinds
) -> dict[str, float]:
    """The span-derived per-layer metrics; cli wall, import and overhead figures are left at 0.

    `op_scale` maps an op id to the factor that puts its spans' wall times on its latency's scale.
    """
    units = metric_units(entries, cli_kinds)
    out = dict.fromkeys(units, 0.0)
    own = self_times(spans)
    busy = busy_times(spans)
    entry_own = layer_self_times(spans, "identities")
    sums = defaultdict(float)
    max_err = 0.0
    for s in spans:
        layer, name, note = s[0], s[1], s[6]
        ok = isinstance(note, dict)
        first = op_round.get(s[5]) == first_round
        scale = op_scale.get(s[5], 1.0)
        dur = busy[id(s)] * scale
        t = own[id(s)] * scale
        if layer == "permanents":
            if note == ERROR:
                out["permanents.errors"] += 1
                continue
            key = f"permanents.{name}.{'exact' if note['exact'] else 'float'}.self_s" if name in GLYNN_RYSER else f"permanents.{name}.self_s"
            if key in out:
                out[key] += t
            sums["perm_self"] += t
            sums["perm_terms"] += note["terms"]
            if first:
                out["permanents.calls"] += 1
                out["permanents.terms"] += note["terms"]
            if note["float_err"] is not None:
                max_err = max(max_err, note["float_err"])
        elif layer == "series":
            if name in SERIES_OPS:
                out[f"series.{name}.self_s"] += t
                if first:
                    out[f"series.{name}.calls"] += 1
            if ok:
                out[f"series.{note['ring']}.self_s"] += t
                sums["nonzero"] += note["nonzero"]
                sums["stored"] += note["stored"]
                if name == "mul" and first:
                    out["series.mul.pairs"] += note["pairs"]
        elif layer == "identities":
            key = f"identities.{name}.self_s"
            if key in out:
                out[key] += entry_own[id(s)] * scale
                if ok:
                    out["identities.failed"] += note["failed"]
                    if first:
                        out["identities.coeffs_checked"] += note["coeffs"]
        elif layer == "estimators":
            out["estimators.self_s"] += t
            if name == "estimate_permanent" and ok:
                sums[f"samples.{note['f']}"] += note["samples"]
                sums[f"est_time.{note['f']}"] += dur
                if first:
                    out["estimators.samples"] += note["samples"]
        elif layer == "bosonic":
            if name in BOSONIC_TIMED:
                out[f"bosonic.{name}.self_s"] += t
            if name in AMPLITUDES:
                sums["amps"] += 1
                sums["amp_time"] += dur
                if first:
                    out["bosonic.amplitudes"] += 1
            if name == "sample" and ok:
                sums["draws"] += note["draws"]
                sums["draw_time"] += dur
            if name == "rejection_sampling_pipeline" and ok:
                sums["kept"] += note["kept"]
                sums["drawn"] += note["drawn"]
        elif layer == "combinatorics" and name == "repeat_matrix":
            out["combinatorics.repeat_matrix.self_s"] += t
            if first:
                out["combinatorics.repeat_matrix.calls"] += 1
        elif layer == "cli" and name == "main":
            out["cli.main.self_s"] += t

    def ratio(num, den):
        return sums[num] / sums[den] if sums[den] > 0 else 0.0

    out["permanents.terms_per_s"] = ratio("perm_terms", "perm_self")
    out["permanents.float_max_rel_err"] = max_err
    out["series.nonzero_frac"] = ratio("nonzero", "stored")
    for f in F_CHOICES:
        out[f"estimators.{f}.samples_per_s"] = ratio(f"samples.{f}", f"est_time.{f}")
    out["bosonic.amplitudes_per_s"] = ratio("amps", "amp_time")
    out["bosonic.draws_per_s"] = ratio("draws", "draw_time")
    out["bosonic.kept_ratio"] = ratio("kept", "drawn")
    for key, unit in units.items():
        if unit == "s/round":
            out[key] /= max(rounds, 1)
    return out
