#!/usr/bin/env python3
"""rispeb's benchmark: one workload, measured, checked, reported.

    python3 perfbench/run.py --workload ris_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30     # all three, one process

Run from the root of a source tree (rispeb is imported from ./src). The
run repeats the workload's pass until its passes have taken --seconds
(and at least MIN_QUERIES queries have been timed), with SETUP_PROBES
cold set-ups spread between the passes. It checks that no operation
failed and the outputs against perfbench/oracle.py, writes a result
file under perfbench/out/results/ and prints, as its last line, one
JSON object:
{"correct", "attempted", "failed", "metrics"}. Without --workload it
runs every workload in turn, prints each one's metrics, and ends with
one JSON object keyed by workload; peak_rss_mb is then the process's
peak so far.

--trace 0 reports the end-to-end metrics (END_TO_END). Their times are
at reference speed (see speed.py); the result file also holds them from
the raw wall-clock times (raw_metrics).
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics (PER_LAYER) from the traced ones: call counts of one
traced pass, self times as the median over traced passes. The spans of
the first traced pass are written to perfbench/out/, and the tracing
overhead (traced over untraced pass time) goes to the result file.
Exit code 0 when every check passed, 1 when one failed, 2 when the tree
has no rispeb to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

MIN_QUERIES = 200  # so p95 leaves at least ten samples beyond it
SETUP_PROBES = 15
SPAN_LIMIT = 200_000  # spans kept from the first traced pass

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "channel.gain_ris.calls": "count",
    "channel.gain_ris.self_s": "s",
    "channel.gain_ris.calls_per_cell": "calls/cell",
    "geometry.ris_angles.calls": "count",
    "geometry.ris_angles.self_s": "s",
    "waveform.delay_kernel.calls": "count",
    "waveform.delay_kernel.self_s": "s",
    "waveform.delay_kernel.calls_per_cell": "calls/cell",
    "waveform.kernel_entries": "count",
    "allocation.select_ris.calls": "count",
    "allocation.select_ris.self_s": "s",
    "allocation.build_allocation.calls": "count",
    "allocation.build_allocation.self_s": "s",
    "allocation.patterns_per_select": "patterns/call",
    "fim.fim_total.calls": "count",
    "fim.fim_total.self_s": "s",
    "fim.peb.calls": "count",
    "fim.peb.self_s": "s",
    "fim.count_resolvable_paths.calls": "count",
    "fim.count_resolvable_paths.self_s": "s",
    "sweep.peb_map.self_s": "s",
    "sweep.path_count_map.self_s": "s",
    "sweep.write_map_csv.self_s": "s",
    "sweep.write_cdf_csv.self_s": "s",
    "sweep.csv_bytes": "bytes",
    "config.default_config.calls": "count",
    "config.default_config.self_s": "s",
    "config.load_config.self_s": "s",
    "config.loads_config.self_s": "s",
    "cli.main.self_s": "s",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit(root: str) -> str:
    """HEAD's commit read from .git without running git; "unknown" outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def setup_probe(scenario: str) -> dict:
    """One cold set-up in a fresh interpreter: raw seconds and slowness."""
    done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT, scenario],
                          capture_output=True, text=True, timeout=120, check=True)
    raw, slowness = (float(v) for v in done.stdout.split())
    return {"raw_s": raw, "slowness": slowness}


def pin_to_one_core() -> None:
    """Keep this process, its speed sampler and its probes on one core.

    The cores of a shared machine drift apart in speed, so a speed sample
    taken on one core does not scale work done on the other.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, probe):
    """Passes until they have taken `seconds` and MIN_QUERIES queries are
    timed, with SETUP_PROBES calls of probe() spread evenly between them.

    Probes follow the passes' progress, so drift in the machine falls on
    set-up and passes alike; their time is not counted in `seconds`.
    """
    passes, setups = [], []
    busy = 0.0
    while busy < seconds or sum(len(p.query_s) for p in passes) < MIN_QUERIES:
        start = time.perf_counter()
        passes.append(workload.run_pass())
        busy += time.perf_counter() - start
        while len(setups) < min(SETUP_PROBES, SETUP_PROBES * busy / seconds):
            setups.append(probe())
    return passes, setups


def end_to_end(passes, setups, raw: bool = False) -> dict:
    """The END_TO_END metrics, at reference speed or from the raw times."""
    main = [p.main_raw_s if raw else p.main_s for p in passes]
    queries = [q for p in passes for q in (p.query_raw_s if raw else p.query_s)]
    return {
        "setup_s": statistics.median(s["raw_s"] if raw else s["raw_s"] / s["slowness"]
                                     for s in setups),
        "wall_s": statistics.median(main),
        "cells_per_s": sum(p.cells for p in passes) / sum(main),
        "query_p50_ms": 1e3 * statistics.median(queries),
        "query_p95_ms": 1e3 * percentile(queries, 0.95),
        "peak_rss_mb": peak_rss_mb(),
    }


def measure_traced(workload, seconds: float):
    """Untraced and traced passes in turn; per-pass tracer snapshots."""
    from tracer import Tracer
    untraced, traced, snapshots = [], [], []
    tracer = Tracer(SPAN_LIMIT)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < 2:
        untraced.append(workload.run_pass())
        tracer.reset()
        tracer.recording = not snapshots
        with tracer:
            traced.append(workload.run_pass())
        snapshots.append(tracer.snapshot())
        tracer.recording = False
    return untraced, traced, snapshots, tracer.spans


def per_layer(traced, snapshots) -> dict:
    cells = traced[0].positions
    first = snapshots[0]
    calls = first["calls"]
    out = {}
    for name in PER_LAYER:
        function, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls.get(function, 0)
        elif stat == "self_s":
            out[name] = statistics.median(s["self_s"].get(function, 0.0) for s in snapshots)
        elif stat == "calls_per_cell":
            out[name] = calls.get(function, 0) / cells
    selects = calls.get("allocation.select_ris", 0)
    out["waveform.kernel_entries"] = first["kernel_entries"]
    out["allocation.patterns_per_select"] = (
        first["patterns_in_select"] / selects if selects else 0.0)
    out["sweep.csv_bytes"] = first["csv_bytes"]
    return out


def write_spans(path: str, spans) -> None:
    names = sorted({s[2] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    origin = min((s[3] for s in spans), default=0.0)
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"names": names,
                   "fields": ["id", "parent", "name", "start_s", "end_s"],
                   "spans": [[i, p, index[n], round(a - origin, 7), round(b - origin, 7)]
                             for i, p, n, a, b in spans]}, fh)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure and check one workload; write its result file; return the result."""
    import checks
    from workloads import WORKLOADS
    tag = f"{name}-seed{seed}-trace{trace}"
    workload = WORKLOADS[name](ROOT, os.path.join(OUT, name), seed)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment()}
    try:
        workload.warm()
    except Exception:  # noqa: BLE001 - the passes count the operations that fail
        pass
    if trace:
        untraced, traced, snapshots, spans = measure_traced(workload, seconds)
        passes = untraced + traced
        metrics = per_layer(traced, snapshots)
        overhead = (statistics.median(p.main_s for p in traced)
                    / statistics.median(p.main_s for p in untraced) - 1.0)
        calls_repeat = all(s["calls"] == snapshots[0]["calls"] for s in snapshots)
        span_file = os.path.join(OUT, f"spans-{tag}.json")
        write_spans(span_file, spans)
        record.update(tracing_overhead=overhead, span_file=span_file, spans=len(spans),
                      snapshots=snapshots)
        print(f"{name}: tracing overhead {100 * overhead:.1f}% on wall_s "
              f"({len(traced)} traced, {len(untraced)} untraced passes)", file=sys.stderr)
    else:
        scenario = getattr(workload, "scenario", "default")
        setup_probe(scenario)  # discarded: it compiles a fresh tree's bytecode
        passes, setups = measure(workload, seconds, lambda: setup_probe(scenario))
        metrics = end_to_end(passes, setups)
        record.update(setup_samples_s=setups, raw_metrics=end_to_end(passes, setups, raw=True))
        calls_repeat = True

    chk = checks.Checker()
    chk.expect(calls_repeat, "traced call counts differ between passes of the same work")
    workload.verify(chk)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": chk.ok,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    record.update(result, checks=chk.summary(),
                  passes=[{"main_s": p.main_s, "main_raw_s": p.main_raw_s, "cells": p.cells,
                           "query_s": p.query_s, "query_raw_s": p.query_raw_s,
                           "attempted": p.attempted, "failed": p.failed} for p in passes])
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for message in chk.messages:
        print(f"{name}: check failed: {message}", file=sys.stderr)
    print(f"{name}: {chk.checked} checks, {chk.failed} failed; {len(passes)} passes",
          file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload, or all (the default) in turn in this process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rispeb", "__init__.py")):
        print(f"error: no rispeb package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pin_to_one_core()
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    results = {}
    for name in WORKLOADS:
        result = results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        print(f"{name}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric} {value['value']:.6g} {value['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
