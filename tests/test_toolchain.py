"""Tests for the Toolchain facade and the ``python -m repro`` CLI."""

import gc
import re
import sys
import threading
import weakref
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.hdl.synth import CostReport
from repro.lattice import diamond, two_level
from repro.sapper import samples
from repro.toolchain import (
    BATCH_ENGINES,
    Toolchain,
    get_toolchain,
    lattice_key,
    set_toolchain,
)


class TestToolchain:
    def test_compile_is_cached_by_key(self):
        tc = Toolchain()
        lat = two_level()
        d1 = tc.compile(samples.TDMA, lat, name="tdma")
        d2 = tc.compile(samples.TDMA, lat, name="tdma")
        assert d1 is d2

    def test_distinct_configs_do_not_collide(self):
        tc = Toolchain()
        lat = two_level()
        secure = tc.compile(samples.TDMA, lat, name="tdma")
        base = tc.compile(samples.TDMA, lat, secure=False, name="tdma")
        other = tc.compile(samples.TDMA, diamond(), name="tdma")
        assert secure is not base and secure is not other
        assert not base.reg_tag          # insecure: tags stripped
        assert secure.reg_tag

    def test_backends_share_one_optimized_module(self):
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tdma")
        opt = tc.optimize(design)
        sim = tc.simulator(design)
        assert sim.module is opt
        assert tc.optimize(design) is opt

    def test_simulators_get_fresh_state(self):
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tdma")
        s1 = tc.simulator(design)
        s1.run(10, {"hi_in": 3})
        s2 = tc.simulator(design)
        assert s2.cycles == 0
        assert s2.regs == {r.name: r.init for r in s2.module.regs.values()}

    def test_synth_and_verilog_artifacts_cached(self):
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tdma")
        rpt = tc.synthesize(design)
        assert isinstance(rpt, CostReport)
        assert tc.synthesize(design) is rpt
        text = tc.verilog(design)
        assert "module tdma(" in text
        assert tc.verilog(design) is text

    @pytest.mark.parametrize("level", [-1, 2, 3, True, 1.0, "1"])
    def test_opt_level_is_zero_or_one(self, level):
        """Only the two levels that build different artifacts are
        accepted, so equal builds always share their cache keys."""
        with pytest.raises(ValueError, match=r"opt_level must be 0 \(raw\) or 1 \(optimized\)"):
            Toolchain(opt_level=level)

    def test_cache_info_and_clear(self):
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tdma")
        tc.synthesize(design)
        info = tc.cache_info()
        assert info.get("compile") == 1 and info.get("synth") == 1
        tc.clear_cache()
        assert tc.cache_info() == {}

    def test_lattice_key_is_structural(self):
        assert lattice_key(two_level()) == lattice_key(two_level())
        assert lattice_key(two_level()) != lattice_key(diamond())

    def test_default_toolchain_is_shared_and_replaceable(self):
        first = get_toolchain()
        assert get_toolchain() is first
        fresh = Toolchain()
        set_toolchain(fresh)
        try:
            assert get_toolchain() is fresh
        finally:
            set_toolchain(first)

    def test_processor_build_path_reuses_design(self):
        from repro.proc.machine import SapperMachine, compile_processor

        design = compile_processor(two_level(), secure=True)
        assert compile_processor(two_level(), secure=True) is design
        machine = SapperMachine()
        assert machine.design is design


class TestCacheLRU:
    """The generic keyed cache behind every stage, pinned against an
    executable model: an OrderedDict with move-to-end on hit, append on
    miss, and front eviction past ``max_entries``."""

    @settings(max_examples=200, deadline=None)
    @given(
        max_entries=st.integers(min_value=1, max_value=6),
        accesses=st.lists(st.integers(min_value=0, max_value=9), max_size=60),
    )
    def test_cached_matches_lru_model(self, max_entries, accesses):
        tc = Toolchain(max_entries=max_entries)
        model: OrderedDict = OrderedDict()
        produced = 0
        model_produced = 0

        for n in accesses:
            key = ("stage", n)

            def produce(n=n):
                nonlocal produced
                produced += 1
                return ("artifact", n)

            value = tc.cached(key, produce)
            assert value == ("artifact", n)
            if key in model:
                model.move_to_end(key)
            else:
                model_produced += 1
                model[key] = ("artifact", n)
                while len(model) > max_entries:
                    model.popitem(last=False)

            # the real cache tracks the model exactly: same keys, same
            # recency order (eviction order), same bound
            assert list(tc._cache) == list(model)
            assert len(tc._cache) <= max_entries

        assert produced == model_produced
        counters = tc.counter_snapshot()
        assert counters.get("miss:stage", 0) == model_produced
        assert counters.get("hit:stage", 0) == len(accesses) - model_produced

    def test_hits_return_the_identical_object(self):
        tc = Toolchain(max_entries=4)
        first = tc.cached(("s", 1), lambda: object())
        again = tc.cached(("s", 1), lambda: object())
        assert again is first

    def test_reinsertion_after_eviction_reproduces(self):
        tc = Toolchain(max_entries=2)
        calls = []
        for n in (1, 2, 3, 1):  # 1 evicted by 3, then re-produced
            tc.cached(("s", n), lambda n=n: calls.append(n))
        assert calls == [1, 2, 3, 1]

    def test_pin_lives_with_the_entry_and_dies_on_eviction(self):
        class Pinned:
            pass

        tc = Toolchain(max_entries=2)
        pin = Pinned()
        ref = weakref.ref(pin)
        tc.cached(("s", 0), lambda: "v", pin=pin)
        del pin
        gc.collect()
        assert ref() is not None, "pin must stay alive while its entry is cached"

        tc.cached(("s", 1), lambda: "v")
        tc.cached(("s", 2), lambda: "v")  # evicts ("s", 0)
        gc.collect()
        assert ref() is None, "eviction must drop the pin"

    def test_clear_cache_drops_pins(self):
        class Pinned:
            pass

        tc = Toolchain(max_entries=4)
        pin = Pinned()
        ref = weakref.ref(pin)
        tc.cached(("s", 0), lambda: "v", pin=pin)
        del pin
        tc.clear_cache()
        gc.collect()
        assert ref() is None

    def test_cache_info_is_safe_under_concurrent_inserts(self):
        """Pool threads insert and evict while a ``stats`` request reads
        ``cache_info``: the read must never see the dict mid-mutation."""
        tc = Toolchain(max_entries=8)
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer(offset):
            i = 0
            while not stop.is_set():
                tc.cached(("w", offset, i), lambda: i)
                i += 1

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=writer, args=(n,)) for n in range(2)]
        try:
            for t in threads:
                t.start()
            for _ in range(20_000):
                try:
                    tc.cache_info()
                except RuntimeError as exc:
                    errors.append(exc)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_reserve_and_cached_stress_builds_each_key_once(self):
        """Threads mixing the event-loop entry (reserve/release) with
        plain ``cached`` calls on shared keys: each key is built exactly
        once, everyone sees that one value, and no flight is left open."""
        tc = Toolchain(max_entries=1000)
        keys = [("s", i) for i in range(40)]
        built: dict[tuple, int] = {}
        seen: dict[tuple, set] = {key: set() for key in keys}
        lock = threading.Lock()

        def produce(key):
            with lock:
                built[key] = built.get(key, 0) + 1
            return object()

        errors: list[BaseException] = []

        start = threading.Barrier(8)

        def worker(n):
            try:
                start.wait(timeout=10)
                for key in keys if n % 2 else keys[::-1]:
                    building, mine = tc.reserve(key) if n % 3 else (None, False)
                    if building is not None and not mine:
                        building.result(timeout=10)
                    value = tc.cached(key, lambda key=key: produce(key))
                    if mine:
                        tc.release(key, building)
                    with lock:
                        seen[key].add(id(value))
            except BaseException as exc:
                errors.append(exc)
                raise

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        # daemon: a thread stuck on a lost flight must not hang the run
        threads = [threading.Thread(target=worker, args=(n,), daemon=True) for n in range(8)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert built == {key: 1 for key in keys}
        assert all(len(ids) == 1 for ids in seen.values())
        assert tc._building == {} and tc._reserved == {}

    def test_concurrent_callers_share_one_build(self):
        tc = Toolchain()
        release = threading.Event()
        calls = []

        def producer():
            calls.append(1)
            assert release.wait(timeout=30)
            return object()

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(tc.cached(("k", 1), producer)))
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        while tc.counter_snapshot().get("coalesced:k", 0) < 5:
            threading.Event().wait(0.005)
        release.set()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1 and len(results) == 6
        assert all(r is results[0] for r in results)
        assert tc.counter_snapshot() == {"miss:k": 1, "coalesced:k": 5}

    def test_failed_build_raises_in_every_waiter_and_is_not_cached(self):
        tc = Toolchain()
        release = threading.Event()

        def producer():
            assert release.wait(timeout=30)
            raise ValueError("broken design")

        errors = []

        def call():
            try:
                tc.cached(("k", 2), producer)
            except ValueError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=call) for _ in range(3)]
        for t in threads:
            t.start()
        while tc.counter_snapshot().get("coalesced:k", 0) < 2:
            threading.Event().wait(0.005)
        release.set()
        for t in threads:
            t.join(timeout=30)
        assert errors == ["broken design"] * 3
        assert tc.cached(("k", 2), lambda: "fixed") == "fixed"

    def test_reserved_flight_is_built_by_the_first_cached_call(self):
        tc = Toolchain()
        key = ("k", 3)
        building, mine = tc.reserve(key)
        assert mine and not building.cancel()  # an awaiting task cannot cancel it
        waiting, mine2 = tc.reserve(key)
        assert waiting is building and not mine2
        assert tc.cached(key, lambda: "built") == "built"  # takes the flight up
        # the flight stays open until release: a late async caller still
        # coalesces onto it instead of probing the cache
        assert tc.reserve(key) == (building, False)
        tc.release(key, building)
        assert building.result() == "built"
        assert tc.reserve(key) == (None, False)  # cached, nothing in flight
        assert tc.counter_snapshot() == {"coalesced:k": 2, "miss:k": 1}

    def test_released_unbuilt_flight_wakes_its_waiters(self):
        tc = Toolchain()
        building, _ = tc.reserve(("k", 4))
        waiting, _ = tc.reserve(("k", 4))
        tc.release(("k", 4), building)
        assert waiting.result(timeout=1) is None  # waiters then build it themselves
        assert tc.cached(("k", 4), lambda: "late") == "late"

    def test_max_entries_bounds_real_compiles(self):
        tc = Toolchain(max_entries=3)
        lat = two_level()
        designs = [
            tc.compile(f"// v{i}\n" + samples.TDMA, lat, name="tdma")
            for i in range(5)
        ]
        assert len(tc._cache) <= 3
        # the newest design is still cached (identical object on re-compile)
        assert tc.compile("// v4\n" + samples.TDMA, lat, name="tdma") is designs[4]

    def test_env_store_configures_default_toolchain(self, tmp_path, monkeypatch, capsys):
        previous = get_toolchain()
        try:
            monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
            set_toolchain(None)
            assert get_toolchain().store is not None
            # an unusable directory degrades with a warning, not a crash
            blocker = tmp_path / "file"
            blocker.write_text("in the way")
            monkeypatch.setenv("REPRO_STORE", str(blocker / "store"))
            set_toolchain(None)
            assert get_toolchain().store is None
            assert "REPRO_STORE disabled" in capsys.readouterr().err
        finally:
            set_toolchain(previous)


class TestCli:
    @pytest.fixture()
    def tdma_file(self, tmp_path):
        path = tmp_path / "tdma.sapper"
        path.write_text(samples.TDMA)
        return str(path)

    def test_compile_emits_verilog(self, tdma_file, capsys):
        assert main(["compile", tdma_file]) == 0
        out = capsys.readouterr().out
        assert "module tdma(" in out and out.strip().endswith("endmodule")

    def test_simulate_reports_summary(self, tdma_file, capsys):
        assert main(["simulate", tdma_file, "-n", "8", "-i", "hi_in=3", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "8 cycles" in out and "violation" in out

    HALTING = """
    reg[7:0] cnt; input[7:0] k; output halted : L; output[7:0] v : L;
    state s : L = { cnt := cnt + k; halted := cnt > 9; v := cnt; goto s; }
    """

    def test_simulate_compact_stops_when_all_lanes_halt(self, tmp_path, capsys):
        path = tmp_path / "halting.sapper"
        path.write_text(self.HALTING)
        args = ["simulate", str(path), "-n", "50", "--lanes", "4",
                "-i", "k=3", "--quiet"]
        assert main(args) == 0
        out = capsys.readouterr().out
        # every lane halts at cycle 4; --compact (default) stops there
        assert "# 4 cycles x 4 lanes" in out and "16 active lane-cycles" in out
        assert main([*args, "--no-compact"]) == 0
        out = capsys.readouterr().out
        assert "# 50 cycles x 4 lanes" in out and "200 active lane-cycles" in out

    def test_simulate_per_lane_inputs_compact_partial_retirement(
        self, tmp_path, capsys
    ):
        """Per-lane stimulus (PORT=V0,V1,...) skews the halt times, so
        lanes retire one by one: the partial-compaction branch runs and
        the summary still reports by original lane id."""
        path = tmp_path / "halting.sapper"
        path.write_text(self.HALTING)
        assert main(["simulate", str(path), "-n", "50", "--lanes", "4",
                     "-i", "k=1,2,5,20", "--quiet"]) == 0
        out = capsys.readouterr().out
        # halts at cycles 10/5/2/1: three partial compactions, then the
        # last lane stops the run at cycle 10
        assert "# 10 cycles x 4 lanes" in out
        assert "18 active lane-cycles" in out and "final occupancy 1/4" in out
        assert "# lane 3" in out and "'v': 20" in out  # original-lane mapping

    @pytest.mark.parametrize("cycles", ["0", "-5"])
    def test_simulate_rejects_non_positive_cycles(self, tdma_file, cycles):
        with pytest.raises(SystemExit, match="field 'cycles' must be >= 1"):
            main(["simulate", tdma_file, "-n", cycles, "--quiet"])
        with pytest.raises(SystemExit, match="field 'cycles' must be >= 1"):
            main(["simulate", tdma_file, "-n", cycles, "--lanes", "4", "--quiet"])
        with pytest.raises(SystemExit, match="field 'lanes' must be >= 1"):
            main(["simulate", tdma_file, "--lanes", cycles, "--quiet"])

    def test_simulate_per_lane_inputs_need_lanes(self, tmp_path):
        path = tmp_path / "halting.sapper"
        path.write_text(self.HALTING)
        with pytest.raises(SystemExit, match="batched engine"):
            main(["simulate", str(path), "-n", "5", "-i", "k=1,2", "--quiet"])
        with pytest.raises(SystemExit, match="drives 2 lanes"):
            main(["simulate", str(path), "-n", "5", "--lanes", "3",
                  "-i", "k=1,2", "--quiet"])

    def test_synth_reports_census(self, tdma_file, capsys):
        assert main(["synth", tdma_file]) == 0
        out = capsys.readouterr().out
        assert "gates" in out and "area_um2" in out

    def test_stats_reports_pass_effects(self, tdma_file, capsys):
        assert main(["stats", tdma_file]) == 0
        out = capsys.readouterr().out
        assert "rewrite" in out and "removed" in out
        assert re.search(r"^fixpoint after \d+ sweeps$", out, re.M)

    def test_insecure_and_diamond_options(self, tdma_file, capsys):
        assert main(["compile", tdma_file, "--insecure", "--lattice", "diamond"]) == 0
        out = capsys.readouterr().out
        assert "violation" not in out  # Base design has no checks

    def test_label_outside_the_lattice_is_reported_cleanly(self, tdma_file, capsys):
        # TDMA labels data H; the powerset lattice has no such level
        assert main(["compile", tdma_file, "--lattice", "powerset"]) == 1
        assert "unknown security label 'H'" in capsys.readouterr().err

    def test_missing_file_is_reported(self, capsys):
        assert main(["compile", "/nonexistent/x.sapper"]) == 2
        assert "error" in capsys.readouterr().err

    def test_syntax_error_is_reported_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.sapper"
        bad.write_text("reg[7:0 broken x;\nstate s : L = { goto s; }")
        assert main(["compile", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "line 1" in err

    def test_module_entry_point(self, tdma_file):
        # `python -m repro` must resolve to the CLI
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "synth", tdma_file],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parent.parent),
        )
        assert proc.returncode == 0, proc.stderr
        assert "gates" in proc.stdout


@pytest.mark.parametrize("surface", ["toolchain", "cli"])
def test_unknown_batch_engine_names_the_valid_ones(surface, tmp_path, capsys):
    """``batch`` is not an engine: the Toolchain and the CLI both
    refuse it, and the error names every valid engine."""
    if surface == "cli":
        path = tmp_path / "tdma.sapper"
        path.write_text(samples.TDMA)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(path), "--lanes", "4", "--engine", "batch"])
        assert exc.value.code == 2
        message = capsys.readouterr().err
    else:
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="no_batch")
        with pytest.raises(ValueError, match="unknown batch engine 'batch'") as exc:
            tc.batch_simulator(design, 4, engine="batch")
        message = str(exc.value)
    assert all(engine in message for engine in BATCH_ENGINES), message
