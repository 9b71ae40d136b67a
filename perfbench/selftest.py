#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one pass of each workload and its checks on the program as it is
(they must pass), then on three perturbed programs made here by
rebinding a rispeb function in every module that holds it (they must
fail):

- gain_x1e-6: channel.gain_ris returns its gain times 1 + 1e-6;
- runner_up: allocation.select_ris returns the second-best pattern of
  the program's own ranking;
- peb_raises: fim.peb raises, so every operation fails.

Also checks that BENCHMARK.json names exactly the metrics run.py prints.
Exit code 0 when every expectation holds.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def scaled_gain(original):
    def gain_ris(*args, **kwargs):
        return original(*args, **kwargs) * (1.0 + 1e-6)
    return gain_ris


def runner_up(original):
    from rispeb import allocation, channel, fim

    def select_ris(scene, x_hat, cfg, constraints):
        ranked = []
        for bits in allocation.feasible_activations(len(scene.ris), constraints):
            alloc = allocation.build_allocation(scene, x_hat, cfg, bits)
            value = fim.peb(fim.fim_total(
                channel.build_pathset(scene, alloc, x_hat, cfg, "ris"), cfg))
            ranked.append(((value.value, bits, sum(bits)), alloc, value))
        ranked.sort(key=lambda item: item[0])
        _, alloc, value = ranked[min(1, len(ranked) - 1)]
        return alloc, value
    return select_ris


def raising(original):
    def peb(*args, **kwargs):
        raise FloatingPointError("injected by the self-test")
    return peb


def check_pass(name: str, seed: int) -> checks.Checker:
    workload = WORKLOADS[name](ROOT, os.path.join(run.OUT, "selftest", name), seed)
    workload.run_pass()
    chk = checks.Checker(keep=3)
    workload.verify(chk)
    return chk


def main() -> int:
    ok = True
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        same = declared == table
        ok &= same
        print(f"BENCHMARK.json {key} matches run.py: {same}")

    import rispeb.allocation
    import rispeb.channel
    import rispeb.fim
    perturbations = {
        "gain_x1e-6": (rispeb.channel.gain_ris, scaled_gain),
        "runner_up": (rispeb.allocation.select_ris, runner_up),
        "peb_raises": (rispeb.fim.peb, raising),
    }
    cases = [(None, name) for name in WORKLOADS]
    cases += [(p, name) for p in perturbations for name in ("ris_sweep", "point_queries")]
    seed = 7
    for perturbation, name in cases:
        changed = []
        if perturbation:
            original, make = perturbations[perturbation]
            changed = tracer.rebind(original, make(original))
        try:
            chk = check_pass(name, seed)
        finally:
            tracer.restore(changed)
        expected = perturbation is None
        verdict = "as expected" if chk.ok == expected else "UNEXPECTED"
        ok &= chk.ok == expected
        label = perturbation or "unperturbed"
        print(f"{label:12s} {name:14s} checks {chk.checked:6d} failed {chk.failed:5d}"
              f"  {verdict}")
        for message in chk.messages[:2]:
            print(f"    {message}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
