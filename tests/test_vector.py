"""The NumPy vector tier vs N scalar simulators: bit-identical.

The contract under test: a :class:`~repro.hdl.vector.VectorSimulator`
with N lanes produces, per lane and per cycle, exactly the register
contents (architectural *and* shadow-tag), array contents (including
``__tags`` shadow stores and the dense uint64 mirrors), and output-port
values of N scalar :class:`~repro.hdl.sim.Simulator` runs -- for random
programs across the 33-bit and 64-bit dtype boundaries, lane counts up
to 256, mid-run lane compaction, and diverged lane populations.  Engine
selection (toolchain ``engine=``, CLI ``--engine``/auto, the
NumPy-missing gate) and the auto engine's in-place handover to SWAR
once compaction leaves fewer than ``VECTOR_AUTO_LANES`` lanes are
covered at the bottom.

Skips with a reason when NumPy is not importable -- the vector tier is
an optional dependency; nothing here may silently pass without it.
"""

import re

import pytest

np = pytest.importorskip("numpy", reason="the vector engine needs NumPy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import commands
from repro.analyze import default_taint_sources
from repro.hdl import (
    BatchSimulator,
    HConst,
    HOp,
    HRef,
    Module,
    Simulator,
    VectorSimulator,
)
from repro.hdl import batch as batch_mod, vector as vector_mod
from repro.hdl.vector import VECTOR_MAX_WIDTH, _NUMPY_HINT
from repro.lattice import two_level
from repro.sapper import samples
from repro.sapper.analysis import analyze
from repro.sapper.compiler import compile_program
from repro.sapper.crossval import assert_equivalent_suite, encode_inputs
from repro.store import ArtifactStore
from repro.toolchain import VECTOR_AUTO_LANES, Toolchain

from tests import strategies
from tests.test_batch_sim import FSM_SRC, assert_lanes_match_scalars, assert_one_path_per_step
from tests.test_store import _codegen_calls


def assert_dense_mirrors_match(batch):
    """The uint64 dense array mirrors agree with the canonical dicts."""
    for key, dense in batch.sregs.items():
        if not key.startswith("a:"):
            continue
        name = key[2:]
        arr = batch.module.arrays[name]
        for lane in range(batch.lanes):
            lane_arr = batch.arrays[name][lane]
            for idx in range(arr.size):
                want = lane_arr.get(idx, arr.default)
                assert int(dense[lane][idx]) == want, (
                    f"dense mirror {name}[{lane}][{idx}] diverged"
                )


def run_lockstep(design, traces, cycles):
    """Drive a vector batch and per-lane scalar sims in lockstep."""
    module = design.module
    lanes = len(traces)
    batch = VectorSimulator(module, lanes)
    sims = [Simulator(module) for _ in range(lanes)]
    for cycle in range(cycles):
        lane_inputs = [
            encode_inputs(design, traces[lane][cycle % len(traces[lane])])
            for lane in range(lanes)
        ]
        scalar_outs = [sim.step(inp) for sim, inp in zip(sims, lane_inputs)]
        batch_outs = batch.step(lane_inputs)
        assert batch_outs == scalar_outs, f"cycle {cycle}: outputs diverge"
        assert_lanes_match_scalars(module, batch, sims, cycle)
    assert_dense_mirrors_match(batch)
    assert_one_path_per_step(batch)
    return batch


def lockstep_raw(module, batch, input_fn, cycles):
    """Lockstep an already-built vector batch against fresh scalars on
    hand-built IR modules (*input_fn(lane, cycle) -> input dict*)."""
    sims = [Simulator(module, optimize=False) for _ in range(batch.lanes)]
    for lane in range(batch.lanes):
        for name in module.regs:
            sims[lane].regs[name] = batch.get_reg(lane, name)
        for name in module.arrays:
            sims[lane].arrays[name] = dict(batch.arrays[name][lane])
    for cycle in range(cycles):
        inputs = [input_fn(lane, cycle) for lane in range(batch.lanes)]
        want = [s.step(i) for s, i in zip(sims, inputs)]
        assert batch.step(inputs) == want, f"cycle {cycle}: outputs diverge"
        assert_lanes_match_scalars(module, batch, sims, cycle)


class TestRandomizedVectorEquivalence:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.programs(), st.integers(1, 5), st.data())
    def test_vector_matches_scalar_lanes(self, program, lanes, data):
        """N random traces on a random program: every lane bit-identical
        to a scalar run, including shadow-tag registers and tag arrays."""
        lat = two_level()
        info = analyze(program, lat)
        design = compile_program(info, lat, secure=True, name="rand_vec")
        traces = [
            data.draw(strategies.stimulus_traces(cycles=5), label=f"lane{lane}")
            for lane in range(lanes)
        ]
        run_lockstep(design, traces, cycles=5)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.wide_programs(), st.integers(2, 5), st.data())
    def test_wide_widths_cross_dtype_boundaries(self, program, lanes, data):
        """Random programs with 1/2-bit and 32/33/34-bit registers: the
        widths that straddle the old SWAR packing boundary must stay
        bit-identical on uint64 lane arrays."""
        lat = two_level()
        info = analyze(program, lat)
        design = compile_program(info, lat, secure=True, name="rand_vec_wide")
        traces = [
            data.draw(strategies.stimulus_traces(cycles=5), label=f"lane{lane}")
            for lane in range(lanes)
        ]
        run_lockstep(design, traces, cycles=5)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.programs(), st.data())
    def test_uniform_lanes_stay_identical(self, program, data):
        """Identical stimulus on every lane keeps lanes in lockstep --
        the uniform-state fast path must not diverge from scalar."""
        lat = two_level()
        info = analyze(program, lat)
        design = compile_program(info, lat, secure=True, name="rand_vec_uniform")
        trace = data.draw(strategies.stimulus_traces(cycles=6))
        run_lockstep(design, [trace, trace, trace], cycles=6)

    def test_256_lanes_match_scalars(self):
        """A full 256-lane batch with per-lane divergent stimulus: every
        lane bit-identical to its scalar twin (the lane count the
        benchmark gate runs at)."""
        design = compile_program(FSM_SRC, two_level(), name="fsm_256")
        module = design.module
        lanes = 256
        batch = VectorSimulator(module, lanes)
        sims = [Simulator(module) for _ in range(lanes)]
        for cycle in range(24):
            inputs = [
                {"x": (lane * 37 + cycle * 11) & 255, "x__tag": lane & 1}
                for lane in range(lanes)
            ]
            want = [s.step(i) for s, i in zip(sims, inputs)]
            assert batch.step(inputs) == want, f"cycle {cycle}"
        assert_lanes_match_scalars(module, batch, sims, 23)


class TestVectorTier:
    """Tier assignment: datapaths the uint64 lowering admits must land
    in the vector ('v') tier, not silently fall back per-lane, and the
    cases SWAR cannot vectorize (variable shifts, mul/div/mod) must now
    vectorize too."""

    ADDER = """
    reg[31:0] a; reg[31:0] b; reg[32:0] sum; reg[0:0] flag;
    input[7:0] x;
    state s : L = {
        a := a + x;
        b := b ^ (a << 2);
        sum := a + b;
        flag := a < b;
        goto s;
    }
    """

    def test_datapath_lands_in_vector_tier(self):
        design = compile_program(self.ADDER, two_level(), name="vec_adder")
        batch = VectorSimulator(design.module, 4)
        tiers = batch.signal_tiers
        assert set(tiers.values()) <= {"p", "v"}, (
            f"unexpected per-lane fallback: "
            f"{[n for n, k in tiers.items() if k == 's']}"
        )
        assert "v" in tiers.values(), "vector tier unused on a wide datapath"
        # no slot packing: multi-bit registers live as (lanes,) ndarrays
        assert isinstance(batch.sregs["sum"], np.ndarray)
        assert batch.sregs["sum"].dtype == np.uint64

    VARSHIFT = """
    reg[15:0] v; input[3:0] k;
    state s : L = { v := v >> k; goto s; }
    """

    def test_variable_shift_stays_vectorized(self):
        """Variable shifts have no SWAR form but do have a ufunc form;
        the shift cone must land in the vector tier and stay
        bit-identical (including the k >= width clamp)."""
        design = compile_program(self.VARSHIFT, two_level(), name="vec_varshift")
        batch = VectorSimulator(design.module, 3)
        tiers = batch.signal_tiers
        wide_scalar = [
            n for n, k in tiers.items()
            if k == "s" and batch.module.width_of(n) > 1
        ]
        assert not wide_scalar, f"per-lane fallback on shifts: {wide_scalar}"
        sims = [Simulator(design.module) for _ in range(3)]
        for cycle in range(40):
            inputs = [{"v": 0, "k": (cycle + lane) % 16} for lane in range(3)]
            want = [s.step(i) for s, i in zip(sims, inputs)]
            assert batch.step(inputs) == want, cycle
            assert_lanes_match_scalars(design.module, batch, sims, cycle)

    MULMOD = """
    reg[31:0] p; reg[15:0] m; input[7:0] x;
    state s : L = {
        p := (p * 3) + x;
        m := p % (x + 1);
        goto s;
    }
    """

    def test_mul_and_mod_vectorized(self):
        """Multiply and modulo -- per-lane loops under SWAR -- must run
        on the vector tier, matching scalar semantics including the
        divide-by-zero conventions."""
        design = compile_program(self.MULMOD, two_level(), name="vec_mulmod")
        batch = VectorSimulator(design.module, 4)
        wide_scalar = [
            n for n, k in batch.signal_tiers.items()
            if k == "s" and batch.module.width_of(n) > 1
        ]
        assert not wide_scalar, f"per-lane fallback on mul/mod: {wide_scalar}"
        sims = [Simulator(design.module) for _ in range(4)]
        for cycle in range(48):
            inputs = [
                {"x": (lane * 59 + cycle * 13) & 255, "x__tag": 0}
                for lane in range(4)
            ]
            want = [s.step(i) for s, i in zip(sims, inputs)]
            assert batch.step(inputs) == want, cycle
            assert_lanes_match_scalars(design.module, batch, sims, cycle)


class TestDtypeBoundaries:
    """Hand-built IR at the uint64 edges: width 33 (SWAR's old packing
    boundary) and width 64 (the dtype's own wraparound)."""

    @staticmethod
    def _wrap_module(width):
        m = Module(f"wrap{width}")
        x = m.add_input("x", 32)
        m.add_reg("acc", width)
        acc = HRef("acc", width)
        m.assign("prod", HOp("mul", (acc, HOp("zext", (x,), width)), width))
        m.assign("nxt", HOp("add", (HRef("prod", width), HOp("zext", (x,), width)),
                            width))
        m.set_reg_next("acc", HRef("nxt", width))
        m.assign("msb", HOp("slice", (acc,), 1, hi=width - 1, lo=width - 1))
        m.assign("low", HOp("slice", (acc,), 8, hi=7, lo=0))
        m.set_output("msb", HRef("msb", 1))
        m.set_output("low", HRef("low", 8))
        m.validate()
        return m

    @pytest.mark.parametrize("width", [33, VECTOR_MAX_WIDTH])
    def test_accumulator_wraps_like_scalar(self, width):
        """acc := acc * x + x grows ~5 bits/cycle and wraps the declared
        width many times over; uint64 wraparound (and the width-33 mask)
        must agree with the scalar big-int semantics bit-for-bit."""
        m = self._wrap_module(width)
        batch = VectorSimulator(m, 4, optimize=False)
        assert batch.signal_tiers["nxt"] == "v"
        for lane in range(4):
            batch.set_reg(lane, "acc", ((1 << width) - 1) - lane)
        lockstep_raw(
            m, batch,
            lambda lane, cycle: {"x": (23 + lane * 7 + cycle * 5) & 0xFFFFFFFF},
            cycles=40,
        )

    def test_shift_and_compare_at_width_64(self):
        """Shifts, arithmetic shift clamping, and signed compares on
        full-width 64-bit values (sign bit 63) against scalar."""
        w = VECTOR_MAX_WIDTH
        m = Module("edge64")
        k = m.add_input("k", 7)
        x = m.add_input("x", 32)
        m.add_reg("acc", w)
        acc = HRef("acc", w)
        m.assign("nxt", HOp("xor", (
            HOp("shl", (acc, HOp("zext", (k,), w)), w),
            HOp("zext", (x,), w),
        ), w))
        m.set_reg_next("acc", HRef("nxt", w))
        m.assign("sar", HOp("asr", (acc, HOp("zext", (k,), w)), w))
        m.assign("neg", HOp("lts", (acc, HConst(0, w)), 1))
        m.assign("top", HOp("slice", (HRef("sar", w),), 8, hi=63, lo=56))
        m.set_output("top", HRef("top", 8))
        m.set_output("neg", HRef("neg", 1))
        m.validate()
        batch = VectorSimulator(m, 3, optimize=False)
        for lane in range(3):
            batch.set_reg(lane, "acc", (0x8000_0000_0000_0001 + lane * 0x1234) % (1 << w))
        lockstep_raw(
            m, batch,
            lambda lane, cycle: {"k": (cycle * 3 + lane) % 80,
                                 "x": (lane * 977 + cycle * 131) & 0xFFFFFFFF},
            cycles=48,
        )


class TestLowMulWindow:
    """The MIPS-style doubled-width product: ``slice`` windows inside
    the low 64 bits of a ``mul`` wider than 64 vectorize via exact
    uint64 wraparound; windows reaching above bit 63 fall back to the
    scalar tier -- and both stay bit-identical."""

    @staticmethod
    def _mult_module():
        m = Module("mult")
        a = m.add_input("a", 32)
        b = m.add_input("b", 32)
        prod = HOp("mul", (HOp("sext", (a,), 64), HOp("sext", (b,), 64)), 128)
        m.assign("lo", HOp("slice", (prod,), 32, hi=31, lo=0))
        m.assign("hi", HOp("slice", (prod,), 32, hi=63, lo=32))
        m.add_reg("rlo", 32)
        m.add_reg("rhi", 32)
        m.set_reg_next("rlo", HRef("lo", 32))
        m.set_reg_next("rhi", HRef("hi", 32))
        m.set_output("olo", HRef("rlo", 32))
        m.set_output("ohi", HRef("rhi", 32))
        m.validate()
        return m

    def test_low_window_vectorizes_and_matches(self):
        m = self._mult_module()
        batch = VectorSimulator(m, 4, optimize=False)
        tiers = batch.signal_tiers
        assert tiers["lo"] == "v" and tiers["hi"] == "v", tiers
        extremes = [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xDEADBEEF]

        def stim(lane, cycle):
            return {
                "a": extremes[(lane + cycle) % len(extremes)],
                "b": extremes[(lane * 3 + cycle * 2) % len(extremes)],
            }

        lockstep_raw(m, batch, stim, cycles=36)

    def test_high_window_falls_back_per_step(self):
        """A window above bit 63 cannot ride uint64; that signal alone
        drops to the scalar tier while the rest of the step stays
        vectorized -- the per-step fallback contract."""
        m = Module("mult_hi")
        a = m.add_input("a", 40)
        b = m.add_input("b", 40)
        prod = HOp("mul", (HOp("zext", (a,), 64), HOp("zext", (b,), 64)), 80)
        m.assign("top", HOp("slice", (prod,), 16, hi=79, lo=64))
        m.assign("low", HOp("slice", (prod,), 16, hi=15, lo=0))
        m.add_reg("rt", 16)
        m.add_reg("rl", 16)
        m.set_reg_next("rt", HRef("top", 16))
        m.set_reg_next("rl", HRef("low", 16))
        m.set_output("ot", HRef("rt", 16))
        m.set_output("ol", HRef("rl", 16))
        m.validate()
        batch = VectorSimulator(m, 3, optimize=False)
        tiers = batch.signal_tiers
        assert tiers["top"] == "s", tiers  # above the uint64 window
        assert tiers["low"] == "v", tiers  # inside it
        lockstep_raw(
            m, batch,
            lambda lane, cycle: {
                "a": ((1 << 40) - 1 - lane * 7919 - cycle) % (1 << 40),
                "b": (0x55_5555_5555 + lane + cycle * 104729) % (1 << 40),
            },
            cycles=24,
        )


class TestMaskElision:
    """Guard/width masks provably unnecessary must be elided -- in the
    SWAR emitter (guard-band clamp) and the vector emitter (width
    clamp) -- without ever corrupting lane values."""

    ELIDE = """
    reg[7:0] r; input[7:0] x; input[7:0] y;
    state s : L = { r := (x >> 5) + (y >> 5); goto s; }
    """
    CARRY = """
    reg[7:0] r; input[7:0] x; input[7:0] y;
    state s : L = { r := x + y; goto s; }
    """
    MASKED_ADD = re.compile(r"\(\([^()]+ \+ [^()]+\) & ")

    @staticmethod
    def _entry_source(design, cls):
        return cls(design.module, 2)._entry.source

    def test_swar_add_guard_mask_elided(self):
        """Two 3-bit values summed into an 8-bit slot cannot carry into
        the guard bit: the SWAR add must emit no clamp, while a
        full-width add keeps one."""
        elide = compile_program(self.ELIDE, two_level(), name="swar_elide")
        carry = compile_program(self.CARRY, two_level(), name="swar_carry")
        assert not self.MASKED_ADD.search(self._entry_source(elide, BatchSimulator))
        assert self.MASKED_ADD.search(self._entry_source(carry, BatchSimulator))

    def test_vector_add_width_mask_elided(self):
        elide = compile_program(self.ELIDE, two_level(), name="vec_elide")
        carry = compile_program(self.CARRY, two_level(), name="vec_carry")
        assert not self.MASKED_ADD.search(self._entry_source(elide, VectorSimulator))
        assert self.MASKED_ADD.search(self._entry_source(carry, VectorSimulator))

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_elision_never_corrupts_values(self, data):
        """Adversarial boundary stimulus through the elidable design:
        SWAR and vector engines both bit-identical to scalar."""
        design = compile_program(self.ELIDE, two_level(), name="elide_lockstep")
        module = design.module
        for batch in (BatchSimulator(module, 3), VectorSimulator(module, 3)):
            sims = [Simulator(module) for _ in range(3)]
            for cycle in range(12):
                inputs = [
                    {"x": data.draw(st.sampled_from([0, 31, 32, 224, 255])),
                     "y": data.draw(st.sampled_from([0, 31, 32, 224, 255])),
                     "x__tag": 0, "y__tag": 0}
                    for _ in range(3)
                ]
                want = [s.step(i) for s, i in zip(sims, inputs)]
                assert batch.step(inputs) == want, cycle
                assert_lanes_match_scalars(module, batch, sims, cycle)


class TestLaneCompaction:
    """compact() on the vector engine: ndarray re-slicing must keep
    every surviving lane (registers, packed tags, dense array mirrors)
    bit-identical to the scalar run it replaces."""

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.programs(), st.integers(2, 5), st.data())
    def test_compaction_matches_scalar_lanes(self, program, lanes, data):
        lat = two_level()
        info = analyze(program, lat)
        design = compile_program(info, lat, secure=True, name="rand_vec_compact")
        module = design.module
        cycles = 6
        traces = [
            data.draw(strategies.stimulus_traces(cycles=cycles), label=f"lane{lane}")
            for lane in range(lanes)
        ]
        batch = VectorSimulator(module, lanes)
        sims = {lane: Simulator(module) for lane in range(lanes)}
        for cycle in range(cycles):
            active = list(batch.active_lanes)
            lane_inputs = [
                encode_inputs(design, traces[orig][cycle]) for orig in active
            ]
            want = [sims[orig].step(inp) for orig, inp in zip(active, lane_inputs)]
            got = batch.step(lane_inputs)
            assert got == want, f"cycle {cycle}: outputs diverge"
            assert_lanes_match_scalars(
                module, batch, [sims[orig] for orig in active], cycle
            )
            if batch.lanes > 1:
                retired = data.draw(
                    st.lists(
                        st.integers(0, batch.lanes - 1),
                        unique=True,
                        max_size=batch.lanes - 1,
                    ),
                    label=f"retire@{cycle}",
                )
                if retired:
                    gone = batch.compact(retired)
                    for orig in gone:
                        del sims[orig]
                    survivors = [sims[orig] for orig in batch.active_lanes]
                    assert_lanes_match_scalars(module, batch, survivors, cycle)
                    assert_dense_mirrors_match(batch)

    def test_compact_down_to_one_lane(self):
        design = compile_program(samples.TDMA, two_level(), name="vec_c1")
        module = design.module
        batch = VectorSimulator(module, 4)
        sims = [Simulator(module) for _ in range(4)]
        inp = {"hi_in": 9, "hi_in__tag": 1, "lo_in": 4, "lo_in__tag": 0}
        for _ in range(20):
            want = [s.step(inp) for s in sims]
            assert batch.step(inp) == want
        assert batch.compact([0, 1, 3]) == [0, 1, 3]
        assert batch.active_lanes == [2] and batch.lanes == 1
        sims = [sims[2]]
        for cycle in range(30):
            want = [s.step(inp) for s in sims]
            assert batch.step(inp) == want
            assert_lanes_match_scalars(module, batch, sims, cycle)

    def test_retire_when_drives_run_compaction(self):
        design = compile_program(samples.TDMA, two_level(), name="vec_ret")
        module = design.module
        batch = VectorSimulator(
            module, 3,
            retire_when=lambda sim, lane: sim.active_lanes[lane] == 1
            and sim.cycles >= 5,
        )
        outs = batch.run(10)
        assert batch.active_lanes == [0, 2]
        assert batch.lanes == 2 == len(outs)
        assert batch.compactions == 1 and batch.cycles == 10
        twin = VectorSimulator(module, 3)
        twin.run(10)
        for pos, orig in enumerate(batch.active_lanes):
            assert batch.lane_regs(pos) == twin.lane_regs(orig)


class TestMajorityDispatch:
    """Diverged lane populations -- the shapes majority-cohort dispatch
    used to split -- run the generic vector step whenever lanes disagree
    on the control registers, bit-identical to scalar twins, with every
    step on exactly one of the two paths."""

    def _lockstep(self, lanes, lane_x, cycles=160):
        design = compile_program(FSM_SRC, two_level(), name=f"vec_maj{lanes}")
        module = design.module
        batch = VectorSimulator(module, lanes)
        sims = [Simulator(module) for _ in range(lanes)]
        for cycle in range(cycles):
            lane_inputs = [{"x": lane_x[lane], "x__tag": 0} for lane in range(lanes)]
            want = [s.step(i) for s, i in zip(sims, lane_inputs)]
            got = batch.step(lane_inputs)
            assert got == want, f"cycle {cycle}"
            assert_lanes_match_scalars(module, batch, sims, cycle)
        assert_one_path_per_step(batch)
        assert batch.generic_steps > 0, "population never diverged"
        return batch

    def test_half_and_half_split(self):
        self._lockstep(6, [3, 3, 3, 103, 103, 103])

    def test_n_minus_one_vs_one_population(self):
        self._lockstep(5, [3, 3, 3, 3, 103])

    def test_three_way_state_mix(self):
        self._lockstep(6, [3, 3, 53, 53, 103, 103])

    def test_six_and_two_population(self):
        self._lockstep(8, [3] * 6 + [103] * 2)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.programs(), st.integers(3, 6), st.data())
    def test_majority_dispatch_matches_scalars(self, program, lanes, data):
        lat = two_level()
        info = analyze(program, lat)
        design = compile_program(info, lat, secure=True, name="rand_vec_majority")
        traces = [
            data.draw(strategies.stimulus_traces(cycles=5), label=f"lane{lane}")
            for lane in range(lanes)
        ]
        run_lockstep(design, traces, cycles=5)

    def test_split_disabled_by_flag(self):
        """No constructor option brings the cohort split back, and a
        mixed population never counts a split step."""
        design = compile_program(FSM_SRC, two_level(), name="vec_nomaj")
        module = design.module
        for option in ("majority", "specialize"):
            with pytest.raises(TypeError):
                VectorSimulator(module, 6, **{option: False})
        batch = VectorSimulator(module, 6)
        for _ in range(160):
            batch.step([{"x": 3 + 50 * (lane % 3), "x__tag": 0} for lane in range(6)])
        assert_one_path_per_step(batch)
        assert batch.generic_steps > 0


class TestVectorApi:
    def test_entries_cached_per_engine(self):
        design = compile_program(TestVectorTier.ADDER, two_level(), name="vec_cache")
        module = design.module
        vec = VectorSimulator(module, 2)
        assert vec._entry is VectorSimulator(module, 4)._entry
        assert vec._entry is not BatchSimulator(module, 2)._entry

    def test_stored_arrays_are_immutable_values(self):
        """set_reg must copy-before-write: a lane write may never mutate
        an ndarray another consumer could be holding."""
        design = compile_program(TestVectorTier.ADDER, two_level(), name="vec_cow")
        batch = VectorSimulator(design.module, 3)
        before = batch.sregs["sum"]
        snapshot = before.copy()
        batch.set_reg(1, "sum", 0x1_2345_6789 & ((1 << 33) - 1))
        assert batch.sregs["sum"] is not before
        assert (before == snapshot).all(), "stored array mutated in place"
        assert batch.get_reg(1, "sum") == 0x1_2345_6789 & ((1 << 33) - 1)
        assert batch.get_reg(0, "sum") == 0

    @staticmethod
    def _mem_module():
        m = Module("mem")
        a = m.add_input("addr", 4)
        d = m.add_input("data", 8)
        m.add_array("mem", 8, 16)
        m.assign("rd", HOp("read", (a,), 8, array="mem"))
        m.add_reg("acc", 8)
        m.assign("nxt", HOp("add", (HRef("acc", 8), HRef("rd", 8)), 8))
        m.set_reg_next("acc", HRef("nxt", 8))
        m.write_array("mem", a, d, HConst(1, 1))
        m.set_output("o", HRef("acc", 8))
        m.validate()
        return m

    def test_load_array_updates_dense_mirror(self):
        m = self._mem_module()
        batch = VectorSimulator(m, 2, optimize=False)
        assert "a:mem" in batch.sregs, "small array must get a dense mirror"
        batch.load_array(1, "mem", {i: (i * 3 + 1) % 7 for i in range(16)})
        assert_dense_mirrors_match(batch)
        # and the loaded state feeds the vectorized read correctly
        lockstep_raw(
            m, batch,
            lambda lane, cycle: {"addr": (cycle + lane) % 16,
                                 "data": (5 * cycle + lane) & 255},
            cycles=20,
        )

    def test_numpy_missing_raises_actionable_error(self, monkeypatch):
        monkeypatch.setattr(vector_mod, "HAVE_NUMPY", False)
        design = compile_program(samples.TDMA, two_level(), name="vec_nonp")
        with pytest.raises(RuntimeError, match="NumPy"):
            VectorSimulator(design.module, 4)
        # the message must tell the user what to do, not just what broke
        assert "numpy" in _NUMPY_HINT and "swar" in _NUMPY_HINT


class TestToolchainEngines:
    def test_engine_parameter_selects_simulator(self):
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tc_engines")
        vec = tc.batch_simulator(design, 4, engine="vector")
        assert isinstance(vec, VectorSimulator)
        swar = tc.batch_simulator(design, 4, engine="swar")
        assert type(swar) is BatchSimulator
        assert type(tc.batch_simulator(design, 4)) is BatchSimulator
        with pytest.raises(ValueError, match="unknown batch engine"):
            tc.batch_simulator(design, 4, engine="simd")

    def test_default_engine_is_auto(self):
        """One default spelling on every front door: no engine means
        ``engine="auto"``, which is vector at 64 lanes and may hand over
        to SWAR; None is not an engine name."""
        import inspect

        from repro.fleet import FleetRunner
        from repro.proc.machine import BatchedMachines, run_workloads

        for api in (Toolchain.batch_simulator, BatchedMachines, run_workloads, FleetRunner):
            assert inspect.signature(api).parameters["engine"].default == "auto", api
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tc_default")
        default = tc.batch_simulator(design, VECTOR_AUTO_LANES)
        auto = tc.batch_simulator(design, VECTOR_AUTO_LANES, engine="auto")
        assert type(default) is type(auto) is VectorSimulator
        assert default._handover is not None and auto._handover is not None
        with pytest.raises(ValueError, match="unknown batch engine None"):
            tc.batch_simulator(design, 4, engine=None)

    def test_engines_agree_on_tdma(self):
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tc_agree")
        sims = [
            tc.batch_simulator(design, 3, engine=e)
            for e in ("swar", "vector")
        ]
        scalar = tc.simulator(design)
        inp = {"hi_in": 9, "hi_in__tag": 1, "lo_in": 4, "lo_in__tag": 0}
        for cycle in range(40):
            want = scalar.step(inp)
            outs = [s.step(inp) for s in sims]
            assert outs[0] == outs[1] == [want] * 3, cycle

    def test_crossval_suite_over_vector_engine(self):
        stimuli = [
            (lambda lane: lambda cycle: {
                "hi_in": ((7 * lane + cycle) & 255, "H"),
                "lo_in": ((3 * lane + 2 * cycle) & 255, "L"),
            })(lane)
            for lane in range(3)
        ]
        bcv = assert_equivalent_suite(
            samples.TDMA, two_level(), cycles=25, stimuli=stimuli,
            name="vec_crossval", engine="vector",
        )
        assert isinstance(bcv.batch, VectorSimulator)


STAGGERED = """
mem[7:0] buf[16]; reg[7:0] cnt; reg[15:0] sum; reg[39:0] wide;
input[7:0] k; input[7:0] h : H; output halted : L; output[15:0] v;
state top : L = {
    let state warm = { cnt := cnt + 1; if (cnt > 2) { goto run; } else { goto warm; } } in
    let state run = {
        cnt := cnt + k;
        buf[cnt[3:0]] := cnt;
        sum := sum + buf[k[3:0]];
        wide := wide + h;
        v := sum;
        if (cnt > 200) { goto done; } else { goto run; }
    } in
    let state done = { halted := 1; goto done; } in
    fall;
}
"""
HANDOVER_LANES = VECTOR_AUTO_LANES + 8


def _staggered_stimulus(lanes=HANDOVER_LANES):
    """Per-lane drives that halt the lanes of :data:`STAGGERED` at
    staggered cycles (8..200), so compaction walks the live lane count
    down across :data:`VECTOR_AUTO_LANES`."""
    return [{"k": 1 + lane % 25, "h": lane} for lane in range(lanes)]


def _run_staggered(sim, design, stim):
    """Step *sim* until every lane halts, retiring halted lanes; returns
    each original lane's (cycle, outputs, registers, arrays, taint) at
    halting and the engine class after every compaction."""
    tracker = sim.attach_taint(
        sources=default_taint_sources(design),
        lane_masks={"h": sum(1 << lane for lane in range(0, len(stim), 3))},
    )
    final, classes = {}, []
    while True:
        outs = sim.step(stim)
        retire = [pos for pos, out in enumerate(outs) if out["halted"]]
        for pos in retire:
            final[sim.active_lanes[pos]] = (
                sim.cycles,
                outs[pos],
                sim.lane_regs(pos),
                {name: dict(store[pos]) for name, store in sim.arrays.items()},
                tracker.ever_tainted(pos),
            )
        if len(retire) == sim.lanes:
            return final, classes
        if retire:
            sim.compact(retire)
            gone = set(retire)
            stim = [d for pos, d in enumerate(stim) if pos not in gone]
            classes.append((sim.lanes, type(sim)))
        assert sim.taint is tracker


class TestAutoHandover:
    """``engine="auto"`` follows the live lane count: an auto-built
    vector batch whose compaction leaves fewer than
    :data:`VECTOR_AUTO_LANES` lanes continues on the SWAR engine, as the
    same object, bit-identical to every pinned engine."""

    def test_handover_matches_pinned_engines_and_scalars(self):
        tc = Toolchain()
        design = tc.compile(STAGGERED, two_level(), name="staggered")
        stim = _staggered_stimulus()
        runs = {}
        for engine in ("auto", "swar", "vector"):
            sim = tc.batch_simulator(design, HANDOVER_LANES, engine=engine)
            stepped = []
            real_step = sim.step
            sim.step = lambda inputs, real_step=real_step: stepped.append(1) or real_step(inputs)
            final, classes = _run_staggered(sim, design, list(stim))
            assert len(stepped) == sim.cycles  # the wrapped object stepped throughout
            assert_one_path_per_step(sim)
            assert sim.compactions == len(classes) and len(final) == HANDOVER_LANES
            runs[engine] = (final, classes, sim)

        _, classes, auto = runs["auto"]
        assert any(lanes >= VECTOR_AUTO_LANES for lanes, _ in classes)
        for lanes, cls in classes:
            want = VectorSimulator if lanes >= VECTOR_AUTO_LANES else BatchSimulator
            assert cls is want, (lanes, cls)
        assert type(auto) is BatchSimulator and auto._handover is None
        assert "a:buf" not in auto.sregs and auto.uniform_steps and auto.generic_steps
        assert all(cls is VectorSimulator for _, cls in runs["vector"][1])
        assert all(cls is BatchSimulator for _, cls in runs["swar"][1])
        assert runs["auto"][0] == runs["swar"][0] == runs["vector"][0]

        module = auto.module
        for lane, (cycles, out, regs, arrays, _) in runs["auto"][0].items():
            scalar = Simulator(module, optimize=False)
            for _ in range(cycles):
                want = scalar.step(stim[lane])
            assert (out, regs) == (want, dict(scalar.regs)), lane
            assert arrays == {name: dict(a) for name, a in scalar.arrays.items()}, lane

    def test_processor_suite_matches_pinned_vector(self):
        """The six Sec. 4.3 programs on 66 processor lanes whose cycle
        budgets run out one by one once their control has diverged: the
        auto batch hands over at 63 lanes, and every lane's captured
        registers and arrays equal a pinned vector run's."""
        from repro.mips.assembler import assemble
        from repro.proc.machine import BatchedMachines
        from repro.workloads import ALL_WORKLOADS

        names = sorted(ALL_WORKLOADS)
        exes = [assemble(ALL_WORKLOADS[names[lane % 6]].source) for lane in range(66)]
        budgets = [400 + 2 * lane for lane in range(66)]
        runs = {}
        for engine in ("auto", "vector"):
            bm = BatchedMachines(exes, engine=engine, capture_state=True)
            runs[engine] = (bm.run(budgets), bm.sim)
        (auto, auto_sim), (vector, vector_sim) = runs["auto"], runs["vector"]
        assert type(auto_sim) is BatchSimulator and isinstance(vector_sim, VectorSimulator)
        assert auto == vector
        for name in ("cycles", "uniform_steps", "generic_steps", "compactions"):
            assert getattr(auto_sim, name) == getattr(vector_sim, name), name

    def test_simulate_command_hands_over(self):
        """``repro simulate --lanes N`` (auto) gets the handover and
        answers exactly as the pinned engines do."""
        ks = [s["k"] for s in _staggered_stimulus()]
        results = {}
        for engine in ("auto", "swar", "vector"):
            req = commands.SimulateRequest(
                STAGGERED,
                name="staggered",
                cycles=400,
                lanes=HANDOVER_LANES,
                inputs={"k": ks},
                engine=engine,
            )
            results[engine] = commands.simulate(Toolchain(), req)
        assert results["auto"] == results["swar"] == results["vector"]
        assert results["auto"].active_lanes < VECTOR_AUTO_LANES

    def _store_run(self, root, lanes, retire):
        """A store-backed toolchain's auto batch of *lanes* lanes,
        compacted once by *retire* lanes; returns sim and counters."""
        tc = Toolchain(store=ArtifactStore(root))
        design = tc.compile(STAGGERED, two_level(), name="staggered")
        sim = tc.batch_simulator(design, lanes, engine="auto")
        stim = _staggered_stimulus(lanes)
        for _ in range(120):
            sim.step(stim)
        sim.compact(list(range(retire)))
        for _ in range(120):
            sim.step(stim[retire:])
        return sim, tc.counter_snapshot()

    def test_no_swar_entry_while_auto_stays_vector(self, tmp_path):
        retire = HANDOVER_LANES - VECTOR_AUTO_LANES
        sim, counters = self._store_run(tmp_path, HANDOVER_LANES, retire)
        assert isinstance(sim, VectorSimulator) and sim.lanes == VECTOR_AUTO_LANES
        assert counters.get("store_miss:codegen") == 1, counters  # the vector entry only
        assert "swar" not in batch_mod._BATCH_CACHE.get(sim.module)

    def test_warm_handover_reads_the_swar_entry_from_the_store(self, tmp_path):
        cold, counters = self._store_run(tmp_path, HANDOVER_LANES, 16)
        assert type(cold) is BatchSimulator
        assert counters.get("store_miss:codegen") == 2, counters  # vector, then swar
        with _codegen_calls() as calls:
            warm, counters = self._store_run(tmp_path, HANDOVER_LANES, 16)
        assert type(warm) is BatchSimulator
        assert calls == {"emit": 0, "compile": 0, "fold": 0}
        assert counters.get("store_hit:codegen") == 2, counters
        assert "store_miss:codegen" not in counters and "store_miss:fold" not in counters
        for lane in range(warm.lanes):
            assert warm.lane_regs(lane) == cold.lane_regs(lane)


class TestCliEngineSelection:
    @pytest.fixture
    def tdma_file(self, tmp_path):
        path = tmp_path / "tdma.sapper"
        path.write_text(samples.TDMA)
        return str(path)

    @pytest.fixture
    def recorded(self, monkeypatch):
        """The engine each built batch starts on."""
        calls = []
        original = Toolchain.batch_simulator

        def recorder(self, design, lanes, *args, **kwargs):
            sim = original(self, design, lanes, *args, **kwargs)
            calls.append("vector" if isinstance(sim, VectorSimulator) else "swar")
            return sim

        monkeypatch.setattr(Toolchain, "batch_simulator", recorder)
        return calls

    def test_explicit_vector_engine(self, tdma_file, recorded, capsys):
        from repro.cli import main

        assert main(["simulate", tdma_file, "-n", "5", "--lanes", "4",
                     "--engine", "vector", "--quiet"]) == 0
        assert recorded == ["vector"]
        assert "4 lanes" in capsys.readouterr().out

    def test_auto_prefers_vector_at_wide_batches(self, tdma_file, recorded, capsys):
        from repro import cli

        assert cli.main(["simulate", tdma_file, "-n", "3",
                         "--lanes", str(VECTOR_AUTO_LANES), "--quiet"]) == 0
        assert recorded == ["vector"]

    def test_auto_prefers_swar_at_narrow_batches(self, tdma_file, recorded, capsys):
        from repro.cli import main

        assert main(["simulate", tdma_file, "-n", "3", "--lanes", "4",
                     "--quiet"]) == 0
        assert recorded == ["swar"]

    def test_auto_without_numpy_falls_back_to_swar(self, tdma_file, recorded,
                                                   monkeypatch, capsys):
        from repro import cli

        monkeypatch.setattr(vector_mod, "HAVE_NUMPY", False)
        assert cli.main(["simulate", tdma_file, "-n", "3",
                         "--lanes", "128", "--quiet"]) == 0
        assert recorded == ["swar"]

    def test_explicit_vector_without_numpy_is_actionable(self, tdma_file,
                                                         monkeypatch):
        from repro import cli

        monkeypatch.setattr(vector_mod, "HAVE_NUMPY", False)
        with pytest.raises(SystemExit, match="NumPy"):
            cli.main(["simulate", tdma_file, "-n", "3", "--lanes", "4",
                      "--engine", "vector", "--quiet"])
