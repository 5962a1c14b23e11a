"""Unit tests for the CI benchmark-regression gate.

``benchmarks/check_regression.py`` is the only thing standing between a
perf regression and a green build, and until now it was itself
untested.  Covered here: metric collection from pytest-benchmark JSON,
missing/new metrics, the exact-threshold boundary semantics (a value
*at* the limit passes; one past it fails), the below-measurable-timing
branch, and ``--update`` rebaselining.
"""

import importlib.util
import json
import pathlib

import pytest

_MODPATH = pathlib.Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _MODPATH)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def bench_json(names_means=None, extra=None):
    """A minimal pytest-benchmark --benchmark-json document."""
    benches = []
    for name, mean in (names_means or {}).items():
        benches.append({"name": name, "stats": {"mean": mean},
                        "extra_info": (extra or {}).get(name, {})})
    return {"benchmarks": benches}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


BASE = {
    "gates": {"gates_optimized": 1000},
    "ratios": {"batch_speedup": 3.0, "vector_speedup": 1.5},
    "mean_seconds": {"test_x": 0.1},
}


def run_main(tmp_path, current, baseline=BASE, argv_extra=()):
    bench = write(tmp_path, "bench.json", current)
    basefile = write(tmp_path, "baseline.json", baseline)
    return check_regression.main([bench, "--baseline", basefile, *argv_extra])


def current_doc(gates=1000, batch=3.0, vector=1.5, mean=0.1, reference=None, after=None):
    doc = bench_json(
        {"test_x": mean, "test_gates": 1e-6, "test_ratio": 1e-6},
        extra={
            "test_gates": {"gates_optimized": gates},
            "test_ratio": {"batch_speedup": batch, "vector_speedup": vector},
        },
    )
    for name, value in (("test_host_reference", reference),
                        ("test_host_reference_after", after)):
        if value is not None:
            doc["benchmarks"].append({"name": name, "stats": {"mean": 1e-6},
                                      "extra_info": {"reference_s": value}})
    return doc


class TestCollect:
    def test_collect_classifies_extra_info(self):
        got = check_regression.collect(current_doc())
        assert got["gates"] == {"gates_optimized": 1000}
        assert got["ratios"] == {"batch_speedup": 3.0, "vector_speedup": 1.5}
        # stub benchmarks (attach-only lambdas) stay out of the timing gate
        assert got["mean_seconds"] == {"test_x": 0.1}
        assert set(got["names"]) == {"test_x", "test_gates", "test_ratio"}

    def test_retired_ratios_are_not_gated(self):
        """Ratios whose comparison engine or path no longer exists
        (``swar_speedup``, ``cohort_split_ratio``) and the raw
        ``fleet_speedup`` (superseded by ``fleet_efficiency``) are
        neither collected nor in the committed baseline."""
        retired = {"swar_speedup", "cohort_split_ratio", "fleet_speedup"}
        assert not retired & set(check_regression.RATIO_KEYS)
        committed = json.loads(check_regression.BASELINE.read_text())
        assert not retired & set(committed["ratios"])
        assert set(committed["ratios"]) <= set(check_regression.RATIO_KEYS)

    def test_compaction_speedup_is_a_gated_ratio(self):
        """The skewed-suite compaction ratio gates like the other
        machine-relative speedups; its companion diagnostics
        (occupancy) rides along in extra_info but is informational
        only."""
        assert "compaction_speedup" in check_regression.RATIO_KEYS
        doc = bench_json(
            {"test_skew": 1e-6},
            extra={"test_skew": {"compaction_speedup": 1.7,
                                 "occupancy": 0.41}},
        )
        got = check_regression.collect(doc)
        assert got["ratios"] == {"compaction_speedup": 1.7}
        assert "occupancy" not in got["gates"]

    def test_warm_start_speedup_is_a_gated_ratio(self):
        """The artifact-store warm-start ratio gates like the other
        machine-relative speedups; its companion diagnostic
        (warm_start_ms) is informational only."""
        assert "warm_start_speedup" in check_regression.RATIO_KEYS
        doc = bench_json(
            {"test_warm": 1e-6},
            extra={"test_warm": {"warm_start_speedup": 6.1,
                                 "warm_start_ms": 150.0}},
        )
        got = check_regression.collect(doc)
        assert got["ratios"] == {"warm_start_speedup": 6.1}
        assert "warm_start_ms" not in got["gates"]

    def test_former_tier1_wall_clock_asserts_are_gated_ratios(self):
        """The optimized-vs-raw margin and the SWAR/vector crossover
        are recorded as ratios and gated here, not asserted in tier-1;
        the per-point lane-cycle rates stay informational."""
        keys = ("opt_speedup", "swar_over_vector_32", "vector_over_swar_512")
        assert set(keys) <= set(check_regression.RATIO_KEYS)
        doc = bench_json(
            {"test_opt": 1e-6, "test_scaling": 1e-6},
            extra={"test_opt": {"opt_speedup": 1.5},
                   "test_scaling": {"swar_over_vector_32": 0.9,
                                    "vector_over_swar_512": 3.4,
                                    "swar_lcps_32": 140000}},
        )
        got = check_regression.collect(doc)
        assert got["ratios"] == {"opt_speedup": 1.5, "swar_over_vector_32": 0.9,
                                 "vector_over_swar_512": 3.4}
        assert "swar_lcps_32" not in got["gates"]

    def test_fleet_efficiency_is_a_gated_ratio(self):
        """The multiprocess fleet gates on parallel efficiency (speedup
        per shard), comparable across CPU counts; its companion
        diagnostics (fleet_speedup, fleet_shards,
        fleet_lane_cycles_per_sec, fleet_occupancy) are informational
        only."""
        assert "fleet_efficiency" in check_regression.RATIO_KEYS
        doc = bench_json(
            {"test_fleet": 1e-6},
            extra={"test_fleet": {"fleet_efficiency": 0.6,
                                  "fleet_speedup": 2.4,
                                  "fleet_shards": 4,
                                  "fleet_lane_cycles_per_sec": 500000,
                                  "fleet_occupancy": 0.99}},
        )
        got = check_regression.collect(doc)
        assert got["ratios"] == {"fleet_efficiency": 0.6}
        assert "fleet_occupancy" not in got["gates"]

    def test_fleet_ratio_below_floor_fails(self, tmp_path, capsys):
        base = {k: dict(v) for k, v in BASE.items()}
        base["ratios"]["fleet_efficiency"] = 0.5
        doc = current_doc()
        doc["benchmarks"][2]["extra_info"]["fleet_efficiency"] = 0.39
        assert run_main(tmp_path, doc, baseline=base) == 1  # floor 0.4
        assert "fleet_efficiency" in capsys.readouterr().out
        doc["benchmarks"][2]["extra_info"]["fleet_efficiency"] = 0.4
        assert run_main(tmp_path, doc, baseline=base) == 0

    def test_warm_start_ratio_below_floor_fails(self, tmp_path, capsys):
        base = {k: dict(v) for k, v in BASE.items()}
        base["ratios"]["warm_start_speedup"] = 5.0
        doc = current_doc()
        doc["benchmarks"][2]["extra_info"]["warm_start_speedup"] = 3.9
        assert run_main(tmp_path, doc, baseline=base) == 1  # floor 4.0
        assert "warm_start_speedup" in capsys.readouterr().out
        doc["benchmarks"][2]["extra_info"]["warm_start_speedup"] = 4.0
        assert run_main(tmp_path, doc, baseline=base) == 0

    def test_compaction_ratio_below_floor_fails(self, tmp_path, capsys):
        base = {k: dict(v) for k, v in BASE.items()}
        base["ratios"]["compaction_speedup"] = 1.6
        doc = current_doc()
        doc["benchmarks"][2]["extra_info"]["compaction_speedup"] = 1.27
        assert run_main(tmp_path, doc, baseline=base) == 1  # floor 1.28
        assert "compaction_speedup" in capsys.readouterr().out
        doc["benchmarks"][2]["extra_info"]["compaction_speedup"] = 1.28
        assert run_main(tmp_path, doc, baseline=base) == 0


class TestMissingAndNewMetrics:
    def test_missing_gate_metric_fails(self, tmp_path, capsys):
        doc = current_doc()
        doc["benchmarks"][1]["extra_info"] = {}
        assert run_main(tmp_path, doc) == 1
        assert "gates_optimized missing" in capsys.readouterr().out

    def test_missing_ratio_fails(self, tmp_path, capsys):
        doc = current_doc()
        doc["benchmarks"][2]["extra_info"] = {"batch_speedup": 3.0}
        assert run_main(tmp_path, doc) == 1
        assert "vector_speedup missing" in capsys.readouterr().out

    def test_missing_timing_fails(self, tmp_path, capsys):
        doc = current_doc()
        doc["benchmarks"] = [b for b in doc["benchmarks"] if b["name"] != "test_x"]
        assert run_main(tmp_path, doc) == 1
        assert "test_x missing" in capsys.readouterr().out

    def test_new_metric_not_in_baseline_is_ignored(self, tmp_path):
        doc = current_doc()
        doc["benchmarks"][2]["extra_info"]["brand_new_ratio"] = 9.9
        doc["benchmarks"].append(
            {"name": "test_new", "stats": {"mean": 5.0}, "extra_info": {}}
        )
        assert run_main(tmp_path, doc) == 0

    def test_below_threshold_timing_counts_as_improvement(self, tmp_path, capsys):
        # the benchmark still ran but finished under the stub filter
        doc = current_doc()
        doc["benchmarks"][0]["stats"]["mean"] = 1e-6
        assert run_main(tmp_path, doc) == 0
        assert "below measurable threshold" in capsys.readouterr().out


class TestThresholdBoundaries:
    def test_gates_exactly_at_limit_pass(self, tmp_path):
        assert run_main(tmp_path, current_doc(gates=1200)) == 0  # 1000 * 1.20

    def test_gates_one_past_limit_fail(self, tmp_path):
        assert run_main(tmp_path, current_doc(gates=1201)) == 1

    def test_ratio_exactly_at_floor_passes(self, tmp_path):
        assert run_main(tmp_path, current_doc(vector=1.2)) == 0  # 1.5 * 0.80

    def test_ratio_below_floor_fails(self, tmp_path, capsys):
        assert run_main(tmp_path, current_doc(vector=1.19)) == 1
        assert "vector_speedup" in capsys.readouterr().out

    def test_timing_at_throughput_limit_passes(self, tmp_path):
        assert run_main(tmp_path, current_doc(mean=0.3)) == 0  # 0.1 * 3.0

    def test_timing_past_throughput_limit_fails(self, tmp_path):
        assert run_main(tmp_path, current_doc(mean=0.30001)) == 1

    def test_strict_gates_timings_at_tolerance(self, tmp_path):
        assert run_main(tmp_path, current_doc(mean=0.121), argv_extra=["--strict"]) == 1
        assert run_main(tmp_path, current_doc(mean=0.119), argv_extra=["--strict"]) == 0


class TestHostScaling:
    """Absolute timing limits scale by the run's reference-loop reading
    over the baseline's; gates and ratios do not."""

    BASE = {**BASE, "reference_s": 0.01}

    def test_slower_host_gets_proportionally_more_time(self, tmp_path, capsys):
        # twice as slow a host: 0.5 s is over the unscaled 3x limit of
        # 0.3 s but within the scaled 0.6 s
        doc = current_doc(mean=0.5, reference=0.02)
        assert run_main(tmp_path, doc, baseline=self.BASE) == 0
        assert "timing limits x2.00" in capsys.readouterr().out
        assert run_main(tmp_path, current_doc(mean=0.5)) == 1  # no readings: unscaled

    def test_regression_still_fails_on_a_slow_host(self, tmp_path):
        doc = current_doc(mean=0.60001, reference=0.02)
        assert run_main(tmp_path, doc, baseline=self.BASE) == 1

    def test_faster_host_tightens_the_limit(self, tmp_path):
        doc = current_doc(mean=0.2, reference=0.005)
        assert run_main(tmp_path, doc, baseline=self.BASE) == 1  # limit 0.15

    def test_strict_limit_scales_too(self, tmp_path):
        doc = current_doc(mean=0.23, reference=0.02)
        assert run_main(tmp_path, doc, baseline=self.BASE, argv_extra=["--strict"]) == 0
        doc = current_doc(mean=0.25, reference=0.02)
        assert run_main(tmp_path, doc, baseline=self.BASE, argv_extra=["--strict"]) == 1

    @pytest.mark.parametrize("before, after", [(0.02, 0.03), (0.03, 0.02)])
    def test_smaller_of_two_readings_scales(self, tmp_path, capsys, before, after):
        # readings taken before and after the timed benchmarks: the
        # smaller one (x2.00, limit 0.6 s) gates, whichever came first
        assert check_regression.collect(current_doc(reference=before, after=after))[
            "reference_s"] == 0.02
        doc = current_doc(mean=0.5, reference=before, after=after)
        assert run_main(tmp_path, doc, baseline=self.BASE) == 0
        assert "timing limits x2.00" in capsys.readouterr().out
        # within the larger reading's 0.9 s limit, over the smaller's
        doc = current_doc(mean=0.65, reference=before, after=after)
        assert run_main(tmp_path, doc, baseline=self.BASE) == 1

    def test_reading_missing_from_run_fails(self, tmp_path, capsys):
        assert run_main(tmp_path, current_doc(), baseline=self.BASE) == 1
        assert "reference_s missing" in capsys.readouterr().out

    def test_update_records_the_reading(self, tmp_path):
        bench = write(tmp_path, "bench.json", current_doc(reference=0.012))
        basefile = tmp_path / "baseline.json"
        basefile.write_text(json.dumps(BASE))
        check_regression.main([bench, "--baseline", str(basefile), "--update"])
        assert json.loads(basefile.read_text())["reference_s"] == 0.012

    def test_committed_baseline_and_bench_record_a_reading(self):
        committed = json.loads(check_regression.BASELINE.read_text())
        assert committed["reference_s"] > 0
        source = (_MODPATH.parent / "test_perf_toolchain.py").read_text()
        assert 'extra_info["reference_s"]' in source
        # the second reading is the module's last test, after every timed one
        last_test = source.rsplit("\ndef test_", 1)[1]
        assert last_test.startswith("host_reference_after(")


class TestUpdate:
    def test_update_rewrites_baseline_without_names(self, tmp_path):
        bench = write(tmp_path, "bench.json", current_doc(gates=777, vector=9.0))
        basefile = tmp_path / "baseline.json"
        basefile.write_text(json.dumps(BASE))
        assert check_regression.main(
            [bench, "--baseline", str(basefile), "--update"]
        ) == 0
        snap = json.loads(basefile.read_text())
        assert snap["gates"]["gates_optimized"] == 777
        assert snap["ratios"]["vector_speedup"] == 9.0
        assert "names" not in snap

    def test_updated_baseline_round_trips(self, tmp_path):
        bench = write(tmp_path, "bench.json", current_doc())
        basefile = tmp_path / "baseline.json"
        basefile.write_text(json.dumps(BASE))
        check_regression.main([bench, "--baseline", str(basefile), "--update"])
        assert check_regression.main([bench, "--baseline", str(basefile)]) == 0


@pytest.mark.parametrize("key", ["gates", "ratios", "mean_seconds"])
def test_empty_baseline_section_is_fine(tmp_path, key):
    base = {k: dict(v) for k, v in BASE.items()}
    base[key] = {}
    assert run_main(tmp_path, current_doc(), baseline=base) == 0
