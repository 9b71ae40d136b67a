"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py ROOT SCENARIO

Imports numpy and rispeb from ROOT/src, loads SCENARIO (a config file,
or "default" for the packaged scenario) and builds the scene, waveform,
grid and selection constraints: everything before a workload's first
timed operation. Prints the seconds that took and the mean slowness of
this core meanwhile (speed.py's interpreter chunk, sampled by a
speed.Sampler whose own time is left out of the seconds).
"""

import sys
import time


def main() -> int:
    root, scenario = sys.argv[1], sys.argv[2]
    import speed  # imports numpy only inside its array chunk
    sys.path.insert(0, f"{root}/src")
    with speed.Sampler(speed.SETUP_INTERVAL_S, (speed.INTERPRETER,)) as sampler:
        start = time.perf_counter()
        import numpy  # noqa: F401
        import rispeb.cli  # noqa: F401
        from rispeb import config
        run = config.default_config() if scenario == "default" else config.load_config(scenario)
        run.scene()
        run.waveform()
        run.grid()
        run.selection_constraints()
        raw, scaled = sampler.work(start, time.perf_counter())
    print(repr(raw), repr(raw / scaled))
    return 0


if __name__ == "__main__":
    sys.exit(main())
