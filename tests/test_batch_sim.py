"""The lane-batched simulator vs N scalar simulators: bit-identical.

The contract under test: a :class:`~repro.hdl.batch.BatchSimulator`
with N lanes produces, per lane and per cycle, exactly the register
contents (architectural registers *and* the compiler's shadow-tag
registers), array contents (including ``__tags`` shadow stores), and
output-port values of N scalar :class:`~repro.hdl.sim.Simulator` runs
over the same module -- for random programs, random lane counts, and
random per-lane stimulus, on both the generic engine and the
uniform-state specialized fast path.
"""

from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hdl import HAVE_NUMPY, BatchSimulator, Simulator
from repro.hdl.batch import _BatchCodeGen
from repro.hdl.ir import HConst, HOp, HRef, Module
from repro.hdl.passes import optimize
from repro.hdl.sim import nests_within
from repro.lattice import two_level
from repro.sapper import samples
from repro.sapper.analysis import analyze
from repro.sapper.compiler import compile_program
from repro.sapper.crossval import encode_inputs

from tests import strategies


def assert_lanes_match_scalars(module, batch, sims, cycle):
    """Full-state equality between each batch lane and its scalar twin."""
    for lane, sim in enumerate(sims):
        for name in module.regs:
            want = sim.regs[name]
            got = batch.get_reg(lane, name)
            assert want == got, f"cycle {cycle} lane {lane} reg {name}: {want} != {got}"
        for name, arr in module.arrays.items():
            sim_arr = sim.arrays[name]
            lane_arr = batch.arrays[name][lane]
            for idx in set(sim_arr) | set(lane_arr):
                want = sim_arr.get(idx, arr.default)
                got = lane_arr.get(idx, arr.default)
                assert want == got, (
                    f"cycle {cycle} lane {lane} {name}[{idx}]: {want} != {got}"
                )


def run_lockstep(design, traces, cycles, swar=True, majority_fraction=None):
    """Drive a batch and per-lane scalar sims with identical stimulus."""
    module = design.module
    lanes = len(traces)
    batch = BatchSimulator(module, lanes, swar=swar)
    if majority_fraction is not None:
        batch.majority_fraction = majority_fraction
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
    return batch


class TestRandomizedBatchEquivalence:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        strategies.programs(),
        st.integers(1, 5),
        st.data(),
    )
    def test_batch_matches_scalar_lanes(self, program, lanes, data):
        """N random traces on a random program: every lane bit-identical
        to a scalar run, including shadow-tag registers and tag arrays."""
        lat = two_level()
        info = analyze(program, lat)
        design = compile_program(info, lat, secure=True, name="rand_batch")
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
        design = compile_program(info, lat, secure=True, name="rand_uniform")
        trace = data.draw(strategies.stimulus_traces(cycles=6))
        run_lockstep(design, [trace, trace, trace], cycles=6)


class TestSwarTier:
    """The wide-word SWAR tier: mixed register widths across the 33-bit
    packing boundary, non-uniform FSM states, and explicit tier
    assignment (no silent fallback to per-lane loops)."""

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.wide_programs(), st.integers(2, 5), st.data())
    def test_swar_path_matches_scalar_lanes(self, program, lanes, data):
        """Random programs with 1/2-bit and 32/33/34-bit registers:
        per-lane traces diverge the FSM states, and every lane must stay
        bit-identical to its scalar twin through the SWAR engine."""
        lat = two_level()
        info = analyze(program, lat)
        design = compile_program(info, lat, secure=True, name="rand_swar")
        traces = [
            data.draw(strategies.stimulus_traces(cycles=5), label=f"lane{lane}")
            for lane in range(lanes)
        ]
        batch = run_lockstep(design, traces, cycles=5)
        # the two engines must classify identically on the engine flag
        assert batch.swar and "w" not in BatchSimulator(
            design.module, lanes, swar=False
        ).signal_tiers.values()

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.wide_programs(), st.data())
    def test_pre_swar_engine_still_bit_identical(self, program, data):
        """The swar=False engine (the regression-benchmark baseline)
        stays bit-identical on the same mixed-width programs."""
        lat = two_level()
        design = compile_program(analyze(program, lat), lat, secure=True, name="rand_plain")
        trace = data.draw(strategies.stimulus_traces(cycles=4))
        run_lockstep(design, [trace, trace], cycles=4, swar=False)

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

    def test_datapath_lands_in_swar_tier(self):
        """On a pure add/xor/shift/compare datapath every multi-bit
        signal must be assigned to the SWAR tier -- a per-lane fallback
        here is a performance regression, not a preference."""
        design = compile_program(self.ADDER, two_level(), name="swar_adder")
        batch = BatchSimulator(design.module, 4)
        tiers = batch.signal_tiers
        assert set(tiers.values()) <= {"p", "w"}, (
            f"unexpected per-lane fallback: "
            f"{[n for n, k in tiers.items() if k == 's']}"
        )
        assert "w" in tiers.values(), "SWAR tier unused on a wide datapath"
        # 33-bit sum register: packed storage at the boundary width
        assert "sum" in batch.sregs and batch.pitch >= 34

    VARSHIFT = """
    reg[15:0] v; input[3:0] k;
    state s : L = { v := v >> k; goto s; }
    """

    def test_variable_shift_falls_back_per_lane(self):
        """Variable shifts have no SWAR form: they must land in the
        scalar tier (and still simulate bit-identically)."""
        design = compile_program(self.VARSHIFT, two_level(), name="varshift")
        batch = BatchSimulator(design.module, 3)
        tiers = batch.signal_tiers
        shift_sigs = [
            n for n, k in tiers.items()
            if k == "s" and batch.module.width_of(n) > 1
        ]
        assert shift_sigs, "variable-shift cone should be scalar-tier"
        sims = [Simulator(design.module) for _ in range(3)]
        for cycle in range(40):
            inputs = [{"v": 0, "k": (cycle + lane) % 16} for lane in range(3)]
            want = [s.step(i) for s, i in zip(sims, inputs)]
            assert batch.step(inputs) == want, cycle
            assert_lanes_match_scalars(design.module, batch, sims, cycle)

    def test_out_of_width_bitwise_ir_is_rejected(self):
        """Bitwise/mux nodes with operands wider than the node violate
        the width discipline every backend trusts (no engine masks
        them; the packed tag world would silently corrupt neighbouring
        lanes).  validate() rejects them up front, so the batched
        engines never see such IR (regression: a width-1 mux over 8-bit
        arms used to classify as SWAR and crash the generated step)."""
        from repro.hdl import HOp, HRef, Module

        def degenerate(op, args, width):
            m = Module("t")
            m.add_input("sel", 1)
            m.add_input("a", 8)
            m.add_input("b", 8)
            m.add_reg("r", width)
            m.assign("t", HOp(op, args, width))
            m.set_reg_next("r", HRef("t", width))
            m.set_output("o", HRef("t", width))
            return m

        for op, args, width in [
            ("mux", (HRef("sel", 1), HRef("a", 8), HRef("b", 8)), 1),
            ("or", (HRef("a", 8), HRef("sel", 1)), 1),
            ("and", (HRef("a", 8), HRef("b", 8)), 4),
        ]:
            m = degenerate(op, args, width)
            with pytest.raises(ValueError, match="wider operand"):
                m.validate()
            with pytest.raises(ValueError, match="wider operand"):
                BatchSimulator(m, 3, optimize=False)

        # 1-bit ops over 1-bit operands of course stay legal
        ok = degenerate("mux", (HRef("sel", 1), HRef("sel", 1), HRef("sel", 1)), 1)
        ok.validate()
        assert BatchSimulator(ok, 2, optimize=False).step()

    def test_narrowed_slice_does_not_leak_across_lanes(self):
        """The narrowing pass legally shrinks a signal under a slice
        whose lo/hi were sized for the old padded width; the SWAR slice
        emitter must clamp against the operand width instead of
        shifting the neighbouring lane's slot into view (regression:
        lane 0 used to read lanes 3-4's bits)."""
        from repro.hdl import HOp, HRef, Module
        from repro.hdl.passes import run_pipeline

        m = Module("t")
        x = m.add_input("x", 8)
        y = m.add_input("y", 8)
        m.assign("s", HOp("add", (HOp("zext", (x,), 64), HOp("zext", (y,), 64)), 64))
        m.assign("hifield", HOp("slice", (HRef("s", 64),), 6, hi=40, lo=35))
        m.assign("lofield", HOp("slice", (HRef("s", 64),), 6, hi=8, lo=3))
        m.assign("bit", HOp("slice", (HRef("s", 64),), 1, hi=35, lo=35))
        r = m.add_reg("acc", 6)
        m.assign("nxt", HOp("or", (HRef("hifield", 6), HRef("lofield", 6)), 6))
        m.set_reg_next("acc", HRef("nxt", 6))
        m.set_output("o", HRef("nxt", 6))
        m.set_output("b", HRef("bit", 1))
        opt = run_pipeline(m).module
        batch = BatchSimulator(opt, 4, optimize=False)
        sims = [Simulator(opt, optimize=False) for _ in range(4)]
        for cycle in range(24):
            inputs = [
                {"x": (37 * lane + cycle) & 255, "y": (91 * lane + 3 * cycle) & 255}
                for lane in range(4)
            ]
            want = [s.step(i) for s, i in zip(sims, inputs)]
            assert batch.step(inputs) == want, cycle
            assert_lanes_match_scalars(opt, batch, sims, cycle)

    def test_nested_slice_keeps_every_truncation(self):
        """An outer slice reaching past an inner slice's top must see
        zeros, exactly like the scalar engine (regression: the SWAR
        slice flattening clamped only against the innermost operand and
        read the underlying bits instead)."""
        from repro.hdl import HOp, HRef, Module

        m = Module("t")
        x = m.add_input("x", 16)
        m.assign("s1", HOp("slice", (x,), 4, hi=7, lo=4))
        m.assign("s2", HOp("slice", (HRef("s1", 4),), 8, hi=7, lo=0))
        m.assign("deep", HOp("slice", (HOp("slice", (x,), 6, hi=13, lo=8),), 3, hi=4, lo=2))
        r = m.add_reg("acc", 8)
        m.assign("nxt", HOp("or", (HRef("s2", 8), HOp("zext", (HRef("deep", 3),), 8)), 8))
        m.set_reg_next("acc", HRef("nxt", 8))
        m.set_output("o", HRef("nxt", 8))
        m.validate()
        batch = BatchSimulator(m, 4, optimize=False)
        assert batch.signal_tiers["nxt"] == "w"
        sims = [Simulator(m, optimize=False) for _ in range(4)]
        for cycle in range(24):
            inputs = [{"x": (0xFFF0 ^ (2477 * lane + 301 * cycle)) & 0xFFFF}
                      for lane in range(4)]
            want = [s.step(i) for s, i in zip(sims, inputs)]
            assert batch.step(inputs) == want, cycle
            assert_lanes_match_scalars(m, batch, sims, cycle)

    def test_folded_bodies_respect_entry_pitch(self):
        """A narrow-slot module whose scalar cone hides wider
        intermediates: state-folded bodies re-optimize the module and
        must not pack anything wider than the entry's slot pitch."""
        src = """
        reg[7:0] acc; reg[7:0] aux; reg[31:0] wide; input[7:0] x;
        state top : L = {
            let state p = {
                acc := acc + x;
                wide := (wide * 3) + acc;
                if (acc > 200) { goto q; } else { goto p; }
            } in
            let state q = { aux := aux + 1; acc := 0; goto p; } in
            fall;
        }
        state other : L = { acc := acc - 1; goto other; }
        """
        design = compile_program(src, two_level(), name="pitch_fold")
        batch = BatchSimulator(design.module, 4)
        sims = [Simulator(design.module) for _ in range(4)]
        for cycle in range(150):
            inp = {"x": 7, "x__tag": 0}
            assert batch.step(inp) == [s.step(inp) for s in sims], cycle
            assert_lanes_match_scalars(batch.module, batch, sims, cycle)
        assert any(b is not None for b in batch._entry.bodies.values()), (
            "expected at least one specialized body to compile"
        )
        assert batch._entry.pitch == batch.pitch == 33  # 32-bit reg + guard

    def test_one_bit_constant_shifts(self):
        """Width-1 constant shifts are SWAR-eligible and must compile
        and run bit-identically (regression: the flag emitter had no
        shift case and codegen raised ValueError on valid designs)."""
        src = """
        reg[0:0] f; reg[0:0] g; reg[0:0] h; input[0:0] x;
        state s : L = {
            f := (f >> 1) | x;
            g := g >> 0;
            h := x;
            goto s;
        }
        """
        design = compile_program(src, two_level(), name="bitshift")
        for optimize in (True, False):
            batch = BatchSimulator(design.module, 3, optimize=optimize)
            sims = [Simulator(design.module, optimize=optimize) for _ in range(3)]
            for cycle in range(20):
                inputs = [
                    {"x": (cycle >> lane) & 1, "x__tag": 0} for lane in range(3)
                ]
                want = [s.step(i) for s, i in zip(sims, inputs)]
                assert batch.step(inputs) == want, (optimize, cycle)
                assert_lanes_match_scalars(batch.module, batch, sims, cycle)

    def test_engines_cached_per_flag(self):
        design = compile_program(self.ADDER, two_level(), name="swar_cache")
        module = design.module
        b_swar = BatchSimulator(module, 2)
        b_plain = BatchSimulator(module, 2, swar=False)
        assert b_swar._entry is not b_plain._entry
        assert b_swar._entry is BatchSimulator(module, 4)._entry
        assert b_plain._entry is BatchSimulator(module, 4, swar=False)._entry
        assert "w" in b_swar.signal_tiers.values()
        assert "w" not in b_plain.signal_tiers.values()
        # packed state accessors agree across engines
        b_swar.set_reg(1, "sum", 0x1_2345_6789 & ((1 << 33) - 1))
        assert b_swar.get_reg(1, "sum") == 0x1_2345_6789 & ((1 << 33) - 1)
        assert b_swar.get_reg(0, "sum") == 0


FSM_SRC = """
reg[7:0] acc; reg[7:0] aux; input[7:0] x;
state top : L = {
    let state p = {
        acc := acc + x;
        if (acc > 200) { goto q; } else { goto p; }
    } in
    let state q = {
        aux := aux + 1;
        acc := 0;
        goto p;
    } in
    fall;
}
state other : L = { acc := acc - 1; goto other; }
"""


class TestLaneCompaction:
    """compact() must keep every surviving lane bit-identical to the
    scalar run it replaces -- packed tag words, slot-packed sregs,
    per-lane lists, and array state all repack in lane order, down to a
    single lane, with retired lanes mapped through active_lanes."""

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.programs(), st.integers(2, 5), st.data())
    def test_compaction_matches_scalar_lanes(self, program, lanes, data):
        """Random programs and stimuli under a randomized retirement
        schedule: after every compaction the surviving lanes' complete
        state (regs, shadow tags, arrays) equals their scalar twins'."""
        lat = two_level()
        info = analyze(program, lat)
        design = compile_program(info, lat, secure=True, name="rand_compact")
        module = design.module
        cycles = 6
        traces = [
            data.draw(strategies.stimulus_traces(cycles=cycles), label=f"lane{lane}")
            for lane in range(lanes)
        ]
        batch = BatchSimulator(module, lanes)
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

    def test_compact_down_to_one_lane(self):
        design = compile_program(samples.TDMA, two_level(), name="c1")
        module = design.module
        batch = BatchSimulator(module, 4)
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

    def test_compact_immediately_after_specialized_step(self):
        """Compaction right after a specialized-body step must repack
        the state the folded body just wrote (including held registers
        it never touched) without losing a bit."""
        design = compile_program(FSM_SRC, two_level(), name="fsm_compact")
        module = design.module
        batch = BatchSimulator(module, 4)
        sims = [Simulator(module) for _ in range(4)]
        inp = {"x": 7, "x__tag": 0}
        for _ in range(120):
            want = [s.step(inp) for s in sims]
            assert batch.step(inp) == want
        assert batch.uniform_steps > 0, "fast path never fired before compaction"
        batch.compact([0, 2])
        assert batch.active_lanes == [1, 3]
        sims = [sims[1], sims[3]]
        for cycle in range(120):
            want = [s.step(inp) for s in sims]
            assert batch.step(inp) == want
            assert_lanes_match_scalars(module, batch, sims, cycle)

    def test_retire_when_drives_run_compaction(self):
        design = compile_program(samples.TDMA, two_level(), name="ret")
        module = design.module
        batch = BatchSimulator(
            module, 3,
            retire_when=lambda sim, lane: sim.active_lanes[lane] == 1
            and sim.cycles >= 5,
        )
        outs = batch.run(10)
        assert batch.active_lanes == [0, 2]
        assert batch.lanes == 2 == len(outs)
        assert batch.compactions == 1 and batch.cycles == 10
        # identical to an uncompacted twin on the surviving lanes
        twin = BatchSimulator(module, 3)
        twin.run(10)
        for pos, orig in enumerate(batch.active_lanes):
            assert batch.lane_regs(pos) == twin.lane_regs(orig)

    def test_run_reslices_per_lane_inputs_across_compaction(self):
        """run() with a per-lane stimulus list must keep the list
        aligned with the surviving positions after each compaction
        (regression: the original list length tripped _lane_inputs'
        count check on the first post-compaction step)."""
        design = compile_program(FSM_SRC, two_level(), name="ret_inputs")
        module = design.module
        lane_inputs = [{"x": 3 + 50 * lane, "x__tag": 0} for lane in range(3)]
        batch = BatchSimulator(
            module, 3,
            retire_when=lambda sim, lane: sim.active_lanes[lane] == 1
            and sim.cycles >= 4,
        )
        out = batch.run(12, lane_inputs)
        assert batch.active_lanes == [0, 2] and len(out) == 2
        # surviving lanes saw their own stimulus throughout
        sims = [Simulator(module) for _ in range(3)]
        for _cycle in range(12):
            for lane, sim in enumerate(sims):
                sim.step(lane_inputs[lane])
        for pos, orig in enumerate(batch.active_lanes):
            for name in module.regs:
                assert batch.get_reg(pos, name) == sims[orig].regs[name], (orig, name)

    def test_run_stops_when_every_lane_retires(self):
        design = compile_program(samples.TDMA, two_level(), name="ret_all")
        batch = BatchSimulator(design.module, 2, retire_when=lambda sim, lane: True)
        batch.run(10)
        assert batch.cycles == 1 and batch.lanes == 2  # stopped, not compacted

    def test_compact_without_predicate_or_lanes_rejected(self):
        design = compile_program(samples.TDMA, two_level(), name="noretire")
        batch = BatchSimulator(design.module, 2)
        with pytest.raises(ValueError, match="retire_when"):
            batch.compact()
        assert batch.compact([]) == []


class TestMajorityDispatch:
    """Cohort split + mask-merged write-back must equal the generic
    step bit-for-bit for adversarially split lane populations."""

    def _lockstep(self, lanes, lane_x, cycles=160, fraction=0.5):
        design = compile_program(FSM_SRC, two_level(), name=f"fsm_maj{lanes}")
        module = design.module
        batch = BatchSimulator(module, lanes)
        batch.majority_fraction = fraction
        sims = [Simulator(module) for _ in range(lanes)]
        for cycle in range(cycles):
            lane_inputs = [{"x": lane_x[lane], "x__tag": 0} for lane in range(lanes)]
            want = [s.step(i) for s, i in zip(sims, lane_inputs)]
            got = batch.step(lane_inputs)
            assert got == want, f"cycle {cycle}"
            assert_lanes_match_scalars(module, batch, sims, cycle)
        return batch

    def test_half_and_half_split(self):
        batch = self._lockstep(6, [3, 3, 3, 103, 103, 103])
        assert batch.split_steps > 0, "50/50 population never split"

    def test_n_minus_one_vs_one_split(self):
        batch = self._lockstep(5, [3, 3, 3, 3, 103])
        assert batch.split_steps > 0, "N-1/1 population never split"

    def test_three_way_state_mix(self):
        batch = self._lockstep(6, [3, 3, 53, 53, 103, 103], fraction=0.3)
        assert batch.split_steps > 0, "three-way population never split"

    def test_large_cohort_uses_log_step_schedule(self):
        """Cohorts above the positions-loop threshold repack through
        the generalized compress/expand schedule (lane and slot space)
        and must stay bit-identical like the small-cohort loop path."""
        batch = self._lockstep(8, [3] * 6 + [103] * 2)
        assert batch.split_steps > 0
        assert any(maj._steps is not None for maj, _ in batch._plans.values()), (
            "no cohort ever took the log-step schedule"
        )
        assert batch._entry.marshal.reads_s, "slot-space marshalling unexercised"

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.programs(), st.integers(3, 6), st.data())
    def test_majority_dispatch_matches_scalars(self, program, lanes, data):
        """Random programs with per-lane stimulus under an eager split
        threshold: every lane stays bit-identical to its scalar twin
        whichever cohort it lands in."""
        lat = two_level()
        info = analyze(program, lat)
        design = compile_program(info, lat, secure=True, name="rand_majority")
        traces = [
            data.draw(strategies.stimulus_traces(cycles=5), label=f"lane{lane}")
            for lane in range(lanes)
        ]
        run_lockstep(design, traces, cycles=5, majority_fraction=0.34)

    def test_bodies_shared_across_cohort_widths(self):
        """One folded body serves every lane width: the full batch, a
        compacted batch, and majority cohorts all re-enter the same
        cached entry at their own width."""
        design = compile_program(FSM_SRC, two_level(), name="fsm_widths")
        module = design.module
        batch = BatchSimulator(module, 6)
        inp = {"x": 7, "x__tag": 0}
        for _ in range(120):
            batch.step(inp)
        entry = batch._entry
        assert any(b is not None and 6 in b.steps for b in entry.bodies.values())
        batch.compact([4, 5])
        for _ in range(120):
            batch.step(inp)
        shared = [
            b for b in entry.bodies.values()
            if b is not None and {4, 6} <= set(b.steps)
        ]
        assert shared, "specialized bodies must be shared across lane widths"
        # a second simulator over the same module reuses the same bodies
        assert BatchSimulator(module, 3)._entry.bodies is entry.bodies

    def test_split_disabled_by_flag(self):
        design = compile_program(FSM_SRC, two_level(), name="fsm_nomaj")
        module = design.module
        batch = BatchSimulator(module, 6, majority=False)
        ref = BatchSimulator(module, 6)
        ref.majority_fraction = 0.3
        for cycle in range(160):
            lane_inputs = [{"x": 3 + 50 * (lane % 3), "x__tag": 0} for lane in range(6)]
            assert batch.step(lane_inputs) == ref.step(lane_inputs), cycle
        assert batch.split_steps == 0
        assert ref.split_steps > 0


class TestLaneIndexValidation:
    """Per-lane accessors must reject duplicate and out-of-range lane
    indices instead of silently wrapping (negative list indexing) or
    reading zeros past the packed words."""

    def _batch(self, lanes=3):
        design = compile_program(samples.TDMA, two_level(), name="val")
        return BatchSimulator(design.module, lanes)

    def test_duplicate_retired_lanes_rejected(self):
        batch = self._batch()
        with pytest.raises(ValueError, match="duplicate lane"):
            batch.compact([1, 1])
        # the failed call must not have touched any state
        assert batch.lanes == 3 and batch.active_lanes == [0, 1, 2]
        assert batch.compactions == 0

    def test_out_of_range_lanes_rejected(self):
        batch = self._batch()
        for lane in (-1, 3, 17):
            with pytest.raises(ValueError, match="out of range"):
                batch.get_reg(lane, "acc")
            with pytest.raises(ValueError, match="out of range"):
                batch.set_reg(lane, "acc", 1)
            with pytest.raises(ValueError, match="out of range"):
                batch.lane_view(lane)
            with pytest.raises(ValueError, match="out of range"):
                batch.lane_regs(lane)
            with pytest.raises(ValueError, match="out of range"):
                batch.compact([lane])
        with pytest.raises(ValueError, match="out of range"):
            batch.compact([0, 1, -1])

    def test_compacted_batch_rejects_stale_positions(self):
        batch = self._batch(4)
        batch.compact([1, 2])
        with pytest.raises(ValueError, match="out of range"):
            batch.get_reg(2, "acc")
        with pytest.raises(ValueError, match="cannot retire every lane"):
            batch.compact([0, 1])

    def test_load_array_validates_lane(self):
        src = """
        mem[7:0] buf[16]; reg[7:0] a; input[3:0] i;
        state s : L = { a := buf[i]; goto s; }
        """
        design = compile_program(src, two_level(), name="val_mem")
        batch = BatchSimulator(design.module, 2)
        with pytest.raises(ValueError, match="out of range"):
            batch.load_array(2, "buf", [1, 2, 3])


class TestSpecializedFastPath:
    SRC = """
    reg[7:0] acc; reg[7:0] aux; input[7:0] x;
    state top : L = {
        let state p = {
            acc := acc + x;
            if (acc > 200) { goto q; } else { goto p; }
        } in
        let state q = {
            aux := aux + 1;
            acc := 0;
            goto p;
        } in
        fall;
    }
    state other : L = { acc := acc - 1; goto other; }
    """

    def test_fast_path_bodies_bit_identical(self):
        lat = two_level()
        design = compile_program(self.SRC, lat, name="fsm")
        module = design.module
        lanes = 4
        batch = BatchSimulator(module, lanes)
        sims = [Simulator(module) for _ in range(lanes)]
        # identical inputs keep the fall registers uniform: the
        # specialized bodies run, and must match scalar state exactly
        for cycle in range(120):
            inp = {"x": 7, "x__tag": 0}
            scalar_outs = [s.step(inp) for s in sims]
            batch_outs = batch.step(inp)
            assert batch_outs == scalar_outs
            assert_lanes_match_scalars(module, batch, sims, cycle)
        assert batch._entry.dispatch, "expected narrow FSM dispatch registers"
        assert any(body is not None for body in batch._entry.bodies.values()), (
            "uniform lanes never reached a specialized body"
        )

    def test_mixed_states_fall_back_to_generic(self):
        lat = two_level()
        design = compile_program(self.SRC, lat, name="fsm_mixed")
        module = design.module
        lanes = 3
        batch = BatchSimulator(module, lanes)
        sims = [Simulator(module) for _ in range(lanes)]
        for cycle in range(100):
            lane_inputs = [{"x": 3 + 50 * lane, "x__tag": 0} for lane in range(lanes)]
            scalar_outs = [s.step(i) for s, i in zip(sims, lane_inputs)]
            batch_outs = batch.step(lane_inputs)
            assert batch_outs == scalar_outs
            assert_lanes_match_scalars(module, batch, sims, cycle)


class TestBatchSimulatorApi:
    def test_lane_count_validation(self):
        design = compile_program(samples.ADDER_CHECK, two_level(), name="api")
        with pytest.raises(ValueError, match="lane count"):
            BatchSimulator(design.module, 0)
        with pytest.raises(ValueError, match="lane count"):
            BatchSimulator(design.module, -3)

    def test_broadcast_and_per_lane_inputs(self):
        design = compile_program(samples.ADDER_TRACK, two_level(), name="bcast")
        batch = BatchSimulator(design.module, 3)
        outs = batch.step({"in_b": 1, "in_c": 2})
        assert len(outs) == 3 and outs[0] == outs[1] == outs[2]
        outs = batch.step([{"in_b": 1}, {"in_c": 4}, None])
        assert len(outs) == 3
        with pytest.raises(ValueError, match="per-lane"):
            batch.step([{}, {}])

    def test_lane_state_accessors(self):
        design = compile_program(samples.TDMA, two_level(), name="acc")
        batch = BatchSimulator(design.module, 2)
        batch.set_reg(1, "acc", 42)
        assert batch.get_reg(1, "acc") == 42
        assert batch.get_reg(0, "acc") == 0
        view = batch.lane_view(1)
        assert view.regs["acc"] == 42
        assert batch.lane_regs(1)["acc"] == 42
        view.regs["acc"] = 7
        assert batch.get_reg(1, "acc") == 7

    def test_load_array_per_lane(self):
        src = """
        mem[7:0] buf[16]; reg[7:0] a; input[3:0] i;
        state s : L = { a := buf[i]; goto s; }
        """
        design = compile_program(src, two_level(), name="mem")
        batch = BatchSimulator(design.module, 2)
        batch.load_array(0, "buf", [10, 20, 30])
        batch.load_array(1, "buf", {2: 99})
        batch.step({"i": 2})
        out = batch.step({"i": 2})
        assert batch.get_reg(0, "a") == 30
        assert batch.get_reg(1, "a") == 99
        assert len(out) == 2

    def test_run_counts_cycles(self):
        design = compile_program(samples.TDMA, two_level(), name="run")
        batch = BatchSimulator(design.module, 2)
        batch.run(10)
        assert batch.cycles == 10


class TestToolchainBatchCaching:
    def test_shared_compilation_per_module(self):
        from repro.toolchain import Toolchain

        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tc_batch")
        b1 = tc.batch_simulator(design, 4)
        b2 = tc.batch_simulator(design, 4)
        b3 = tc.batch_simulator(design, 2)
        # one entry per module: same factory, same per-lane-count step
        assert b1._entry is b2._entry is b3._entry
        assert b1._step is b2._step
        assert b1._step is not b3._step  # different lane count
        # batched and scalar engines run the same optimized module
        assert b1.module is tc.simulator(design).module

    def test_batch_matches_toolchain_scalar(self):
        from repro.toolchain import Toolchain

        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tc_eq")
        batch = tc.batch_simulator(design, 2)
        scalar = tc.simulator(design)
        inp = {"hi_in": 9, "hi_in__tag": 1, "lo_in": 4, "lo_in__tag": 0}
        for _ in range(50):
            want = scalar.step(inp)
            got = batch.step(inp)
            assert got[0] == want and got[1] == want


# ------------------------------------------------------------ codegen scheduling


def fixpoint_waves(gen, order, pos):
    """Reference scheduler: the rescanning fixpoint the Kahn-wave
    scheduler replaced.  Each wave rescans every signal in source order."""
    deps = {n: [r.name for r in gen.refs[n] if r.name in gen.kinds] for n in order}
    done: set = set()
    phases = []
    while len(done) < len(order):
        progress = False
        for kind in ("s", "w", "p"):
            grabbed = []
            while True:
                wave = [n for n in order if n not in done and gen.kinds[n] == kind
                        and all(d in done for d in deps[n])]
                if not wave:
                    break
                grabbed += wave
                done.update(wave)
            if grabbed:
                phases.append((kind, grabbed))
                progress = True
        if not progress:
            raise ValueError("combinational cycle")
    return phases


def _codegen_makers():
    makers = [lambda m: _BatchCodeGen(m, swar=True), lambda m: _BatchCodeGen(m, swar=False)]
    if HAVE_NUMPY:
        from repro.hdl.vector import _VectorCodeGen

        makers.append(_VectorCodeGen)
    return makers


def _oracle():
    return mock.patch.object(_BatchCodeGen, "_phase_waves", fixpoint_waves)


class TestCodegenScheduling:
    """The Kahn-wave scheduler against the rescanning fixpoint it
    replaced: the same phases in the same grab order on random programs,
    and byte-identical step sources on the shipped designs."""

    def _assert_same_schedule(self, module):
        order = [n for n, _ in module.comb]
        pos = {n: k for k, n in enumerate(order)}
        for make in _codegen_makers():
            gen = make(module)
            gen._schedule()
            assert gen._phase_waves(order, pos) == fixpoint_waves(gen, order, pos)
            ref = make(module)
            with _oracle():
                ref._schedule()
            assert ref.phases == gen.phases

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.programs())
    def test_phases_match_fixpoint_on_random_programs(self, program):
        lat = two_level()
        design = compile_program(analyze(program, lat), lat, secure=True, name="rand_sched")
        self._assert_same_schedule(design.module)
        self._assert_same_schedule(optimize(design.module))

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.wide_programs())
    def test_phases_match_fixpoint_on_wide_programs(self, program):
        lat = two_level()
        design = compile_program(analyze(program, lat), lat, secure=True, name="wide_sched")
        self._assert_same_schedule(design.module)
        self._assert_same_schedule(optimize(design.module))

    @staticmethod
    def _assert_sources_unchanged(entry, module):
        """Generic and every folded body, regenerated with the oracle."""
        bodies = [b for b in entry.bodies.values() if b is not None]
        with _oracle():
            assert entry._make_gen(module).generate() == entry.source
            for body in bodies:
                gen = entry._make_gen(body.module, pitch=entry.pitch, resident=entry.resident)
                assert gen.generate() == body.source
        return len(bodies)

    ENGINES = ["swar", "batch"] + (["vector"] if HAVE_NUMPY else [])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_tdma_sources_byte_identical(self, engine):
        from repro.toolchain import Toolchain

        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tdma_sched")
        sim = tc.batch_simulator(design, 4, engine=engine)
        inp = {"hi_in": 9, "hi_in__tag": 1, "lo_in": 4, "lo_in__tag": 0}
        for _ in range(300):
            sim.step(inp)
        assert self._assert_sources_unchanged(sim._entry, sim.module) >= 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_processor_sources_byte_identical(self, engine):
        from repro.mips.assembler import assemble
        from repro.proc.machine import BatchedMachines
        from repro.workloads import ALL_WORKLOADS

        exe = assemble(ALL_WORKLOADS["specrand"].source)
        machines = BatchedMachines([exe] * 4, engine=engine, compact=False)
        for _ in range(300):
            machines.sim.step()
        sim = machines.sim
        assert self._assert_sources_unchanged(sim._entry, sim.module) >= 1

    def test_cycle_fails_loudly(self):
        """A cyclic module (validate() bypassed) must not lose signals:
        codegen raises, naming the module and a signal on the cycle."""
        m = Module("loopy")
        m.add_input("i", 1)
        m.comb = [
            ("a", HOp("and", (HRef("i", 1), HRef("c", 1)), 1)),
            ("b", HOp("xor", (HRef("a", 1), HConst(1, 1)), 1)),
            ("c", HOp("or", (HRef("b", 1), HRef("i", 1)), 1)),
            ("d", HOp("not", (HRef("c", 1),), 1)),
        ]
        m.outputs = {"o": "d"}
        with pytest.raises(ValueError, match=r"loopy: combinational cycle through '[abc]'"):
            _BatchCodeGen(m).generate()

    def test_dead_cone_peeled_transitively(self):
        """A chain feeding nothing the edge reads is dropped whole, not
        just its last link."""
        m = Module("peel")
        i = m.add_input("i", 8)
        a = m.assign("a", HOp("add", (i, HConst(1, 8)), 8))
        b = m.assign("b", HOp("xor", (a, HConst(3, 8)), 8))
        m.assign("c", HOp("and", (b, HConst(5, 8)), 8))
        m.set_output("o", m.assign("live", HOp("not", (i,), 8)))
        m.validate()
        for make in _codegen_makers():
            gen = make(m)
            gen.generate()
            assert [s for _, sigs in gen.phases for s in sigs] == ["live"]


def exact_depth(code: str) -> int:
    return max(accumulate((1 if ch == "(" else -1 for ch in code if ch in "()"), initial=0))


class TestInlineDepth:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="()x", max_size=300), st.integers(0, 120))
    def test_matches_exact_scan(self, code, limit):
        assert nests_within(code, limit) == (exact_depth(code) <= limit)

    @given(st.integers(0, 120), st.integers(-2, 2), st.integers(0, 200))
    def test_limit_boundary(self, limit, delta, siblings):
        """Nesting exactly at, just under and just over the limit, with
        enough flat sibling groups that the open count alone cannot
        settle the answer."""
        depth = max(limit + delta, 0)
        code = "()" * siblings + "(" * depth + "x" + ")" * depth
        assert exact_depth(code) == max(depth, min(siblings, 1))
        assert nests_within(code, limit) == (exact_depth(code) <= limit)
