"""The benchmark's own tests: exact counts repeat, seeds matter, and
in-process cold samples are as cold as a fresh interpreter's.

Run from the repository root (about five minutes on a 2-CPU host)::

    python3 perfbench/selfcheck.py

Exits non-zero and names every failed check.  Not collected by pytest:
it runs whole benchmark workloads.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import statistics
import subprocess
import sys

import run as bench

#: numbers of the modelled machine and the compiled design: two runs
#: with the same seed must agree on every one of them exactly
EXACT_E2E = ("simulated_cycles", "area_overhead")
EXACT_LAYER = (
    "hdl.passes.signals_after",
    "analyze.pruned_signals",
    "hdl.codegen.tiers.p",
    "hdl.codegen.tiers.w",
    "hdl.codegen.tiers.v",
    "hdl.codegen.tiers.s",
    "hdl.step.uniform_steps",
    "hdl.step.split_steps",
    "hdl.step.generic_steps",
    "hdl.step.compactions",
    "store.hits",
    "store.misses",
    "store.corrupt",
    "fleet.requeues",
    "fleet.deaths",
    "fleet.fallback_tasks",
)
COLD_SAMPLES = 3
COLD_TOLERANCE = 0.15


def exact_numbers(workload: str, seed: int) -> dict[str, float]:
    with contextlib.redirect_stdout(io.StringIO()):
        result, run = bench.run_workload(workload, seed, 1, trace=True)
    if not result["correct"]:
        raise AssertionError(f"{workload}: reference checks failed: {run.notes}")
    numbers = {name: run.e2e[name] for name in EXACT_E2E}
    numbers.update({name: run.layer.get(name, 0) for name in EXACT_LAYER})
    return numbers


def cold_sample() -> float:
    """Seconds from source text to the first step at 256 lanes, at the
    reference host speed (see ``Run.adjust``)."""
    run = bench.Run("fleet-sweep", 1, 1, trace=False)
    try:
        source = bench.generate_design(bench.LATTICE, bench.PARAMS)
        run.begin()
        return run.adjust(bench.Build(run, source, bench.FLEET_LANES).start_s)
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)


def fresh_cold_sample() -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--cold-sample"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return float(out.stdout.split()[-1])


def main() -> int:
    if "--cold-sample" in sys.argv:
        print(cold_sample())
        return 0
    failures: list[str] = []

    # first, while this process is as fresh as a benchmark run's: memos
    # carried over between samples would make in-process ones faster,
    # while the heap of the workload runs below makes every build slower.
    # Interleaved, so slow drift of the host hits both sides alike.
    inproc, fresh = [], []
    for _ in range(COLD_SAMPLES):
        inproc.append(cold_sample())
        fresh.append(fresh_cold_sample())
    ratio = statistics.median(inproc) / statistics.median(fresh)  # the benchmark's estimator
    print(f"cold start: in-process {[round(s, 3) for s in inproc]} s, "
          f"fresh interpreter {[round(s, 3) for s in fresh]} s, ratio {ratio:.3f}")
    if abs(ratio - 1) > COLD_TOLERANCE:
        failures.append(f"in-process cold samples differ from fresh ones: ratio {ratio:.3f}")

    for workload in bench.RUNNERS:
        first = exact_numbers(workload, 1)
        second = exact_numbers(workload, 1)
        for name, value in first.items():
            if second[name] != value:
                failures.append(f"{workload}: {name} {value} then {second[name]}")
        print(f"{workload}: {len(first)} exact numbers compared")

    if bench.mix_draw(1) == bench.mix_draw(2):
        failures.append("sec43-mix: seeds 1 and 2 draw the same programs")
    if bench.kernel_seeds(1) == bench.kernel_seeds(2):
        failures.append("ni-kernel: seeds 1 and 2 give the same H data")
    if bench.fleet_inputs(1) == bench.fleet_inputs(2):
        failures.append("fleet-sweep: seeds 1 and 2 give the same programs")

    for failure in failures:
        print(f"FAILED: {failure}")
    print("selfcheck " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
