"""Benchmark-regression gate for CI.

Compares a pytest-benchmark ``--benchmark-json`` dump of
``benchmarks/test_perf_toolchain.py`` against the committed
``benchmarks/baseline.json``::

    python benchmarks/check_regression.py BENCH.json            # check
    python benchmarks/check_regression.py BENCH.json --update   # rebaseline

Three metric classes, with different strictness:

* **gates** -- synthesized cell census of the secure processor
  (machine-independent): fail if any count grows more than
  ``--tolerance`` (default 20%) over baseline.
* **ratios** -- machine-relative speedups measured on the same host in
  the same run (batched vs scalar simulation): fail if any ratio drops
  more than ``--tolerance`` below baseline.
* **mean seconds** -- absolute per-benchmark timings.  These vary with
  the runner's machine class, so by default they only fail beyond
  ``--throughput-tolerance`` (default 3x, catching catastrophic
  regressions such as a lost compilation cache); pass ``--strict`` to
  gate them at ``--tolerance`` too, e.g. on a dedicated perf host.
  Both limits scale with host speed: the run's ``reference_s`` reading
  (a fixed pure-Python loop) over the baseline's, so a slower host gets
  proportionally more time.  The bench takes one reading before the
  timed benchmarks (``test_host_reference``) and one after
  (``test_host_reference_after``); the smaller one, which gives the
  stricter limit, is the run's reading.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

BASELINE = pathlib.Path(__file__).parent / "baseline.json"

#: Absolute slack on threshold comparisons so a metric *exactly at* the
#: limit passes despite binary-float rounding (0.8 * 1.5 != 1.2).
EPS = 1e-9

#: extra_info key of the host-speed reading that scales timing limits
HOST_KEY = "reference_s"
#: extra_info keys treated as machine-independent gate counts
GATE_KEYS = ("gates_raw", "gates_optimized", "dff_optimized", "levels_optimized")
#: extra_info keys treated as machine-relative ratios (bigger is better)
RATIO_KEYS = ("batch_speedup", "compaction_speedup", "vector_speedup",
              "warm_start_speedup", "fleet_efficiency", "tag_prune_ratio",
              "opt_speedup", "swar_over_vector_32", "vector_over_swar_512")


def collect(bench_json: dict) -> dict:
    """Flatten a pytest-benchmark JSON dump into the baseline schema."""
    gates: dict[str, int] = {}
    ratios: dict[str, float] = {}
    means: dict[str, float] = {}
    names: list[str] = []
    host: dict[str, float] = {}
    for bench in bench_json.get("benchmarks", []):
        name = bench["name"]
        names.append(name)
        mean = bench["stats"]["mean"]
        # tests that benchmark a stub lambda only to attach extra_info
        # carry no meaningful timing; keep them out of the timing gate
        if mean >= 1e-5:
            means[name] = mean
        for key, value in (bench.get("extra_info") or {}).items():
            if key in GATE_KEYS:
                gates[key] = value
            elif key in RATIO_KEYS:
                ratios[key] = value
            elif key == HOST_KEY:
                host[key] = min(value, host.get(key, value))
    return {"gates": gates, "ratios": ratios, "mean_seconds": means, "names": names, **host}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json", help="pytest-benchmark --benchmark-json output")
    parser.add_argument("--baseline", default=str(BASELINE))
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="relative tolerance for gates and ratios (default 0.20)")
    parser.add_argument("--throughput-tolerance", type=float, default=3.0,
                        help="absolute-timing slowdown factor that fails the "
                             "gate on shared runners (default 3.0)")
    parser.add_argument("--strict", action="store_true",
                        help="gate absolute timings at --tolerance as well")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run and exit")
    args = parser.parse_args(argv)

    current = collect(json.loads(pathlib.Path(args.bench_json).read_text()))
    baseline_path = pathlib.Path(args.baseline)

    if args.update:
        snapshot = {k: v for k, v in current.items() if k != "names"}
        baseline_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"baseline rewritten: {baseline_path}")
        return 0

    baseline = json.loads(baseline_path.read_text())
    failures: list[str] = []
    checked = 0

    for key, base in baseline.get("gates", {}).items():
        cur = current["gates"].get(key)
        if cur is None:
            failures.append(f"gates: {key} missing from run")
            continue
        checked += 1
        limit = base * (1 + args.tolerance)
        status = "FAIL" if cur > limit + EPS else "ok"
        print(f"[{status}] gates/{key}: {cur} vs baseline {base} (limit {limit:.0f})")
        if cur > limit + EPS:
            failures.append(f"gates/{key}: {cur} > {limit:.0f}")

    for key, base in baseline.get("ratios", {}).items():
        cur = current["ratios"].get(key)
        if cur is None:
            failures.append(f"ratios: {key} missing from run")
            continue
        checked += 1
        floor = base * (1 - args.tolerance)
        status = "FAIL" if cur < floor - EPS else "ok"
        print(f"[{status}] ratios/{key}: {cur:.2f} vs baseline {base:.2f} (floor {floor:.2f})")
        if cur < floor - EPS:
            failures.append(f"ratios/{key}: {cur:.2f} < {floor:.2f}")

    factor = (1 + args.tolerance) if args.strict else args.throughput_tolerance
    if HOST_KEY in baseline:
        cur = current.get(HOST_KEY)
        if cur is None:
            failures.append(f"timing: {HOST_KEY} missing from run")
        else:
            host = cur / baseline[HOST_KEY]
            factor *= host
            print(f"host: reference loop {cur * 1e3:.2f} ms vs baseline "
                  f"{baseline[HOST_KEY] * 1e3:.2f} ms, timing limits x{host:.2f}")
    for name, base in baseline.get("mean_seconds", {}).items():
        cur = current["mean_seconds"].get(name)
        if cur is None:
            if name in current.get("names", ()):
                # the benchmark still runs but now finishes below the
                # stub-filter threshold: an improvement, not a regression
                print(f"[ok] time/{name}: below measurable threshold "
                      f"(baseline {base * 1e3:.2f} ms)")
                checked += 1
            else:
                failures.append(f"timing: {name} missing from run")
            continue
        checked += 1
        limit = base * factor
        status = "FAIL" if cur > limit + EPS else "ok"
        print(f"[{status}] time/{name}: {cur * 1e3:.2f} ms vs baseline "
              f"{base * 1e3:.2f} ms (limit {limit * 1e3:.2f} ms)")
        if cur > limit + EPS:
            failures.append(f"time/{name}: {cur * 1e3:.2f} ms > {limit * 1e3:.2f} ms")

    if failures:
        print(f"\n{len(failures)} regression(s):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nall {checked} metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
