"""The lane-batched simulator vs N scalar simulators: bit-identical.

The contract under test: a :class:`~repro.hdl.batch.BatchSimulator`
with N lanes produces, per lane and per cycle, exactly the register
contents (architectural registers *and* the compiler's shadow-tag
registers), array contents (including ``__tags`` shadow stores), and
output-port values of N scalar :class:`~repro.hdl.sim.Simulator` runs
over the same module -- for random programs, random lane counts, and
random per-lane stimulus, on every state-folded body.  The generic
step is the body of the empty binding, so every step runs one body:
``uniform_steps + generic_steps == cycles`` counts the folded and the
empty-binding ones, and a step runs the empty binding's only when its
lanes disagree on every dispatch register.
"""

import ast
from itertools import accumulate
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import commands
from repro.hdl import HAVE_NUMPY, BatchSimulator, Simulator
from repro.hdl import batch as batch_mod
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


def assert_one_path_per_step(batch):
    """Every step ran one body: a folded one or the empty binding's."""
    assert batch.uniform_steps + batch.generic_steps == batch.cycles
    assert batch.split_steps == 0


def assert_diverged(batch):
    """The lanes disagreed on some dispatch register: a partial-binding
    body (a combo holding None, not the empty binding's) ran."""
    entry = batch._entry
    partial = [combo for combo in entry.bodies if None in combo and combo != entry.empty]
    assert partial, f"population never diverged: {list(batch._entry.bodies)}"


def run_lockstep(design, traces, cycles):
    """Drive a batch and per-lane scalar sims with identical stimulus."""
    module = design.module
    lanes = len(traces)
    batch = BatchSimulator(module, lanes)
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
    assert_one_path_per_step(batch)
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
        run_lockstep(design, traces, cycles=5)

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
        """A 9-bit sum under slices whose lo/hi were sized for a 64-bit
        operand (the shape width narrowing used to leave): the SWAR
        slice emitter must clamp against the operand width instead of
        shifting the neighbouring lane's slot into view (regression:
        lane 0 used to read lanes 3-4's bits)."""
        from repro.hdl import HOp, HRef, Module

        m = Module("t")
        x = m.add_input("x", 8)
        y = m.add_input("y", 8)
        m.assign("s", HOp("add", (HOp("zext", (x,), 9), HOp("zext", (y,), 9)), 9))
        m.assign("hifield", HOp("slice", (HRef("s", 9),), 6, hi=40, lo=35))
        m.assign("lofield", HOp("slice", (HRef("s", 9),), 6, hi=8, lo=3))
        m.assign("bit", HOp("slice", (HRef("s", 9),), 1, hi=35, lo=35))
        m.add_reg("acc", 6)
        m.assign("nxt", HOp("or", (HRef("hifield", 6), HRef("lofield", 6)), 6))
        m.set_reg_next("acc", HRef("nxt", 6))
        m.set_output("o", HRef("nxt", 6))
        m.set_output("b", HRef("bit", 1))
        m.validate()
        batch = BatchSimulator(m, 4, optimize=False)
        assert set(batch.signal_tiers.values()) == {"w"}
        sims = [Simulator(m, optimize=False) for _ in range(4)]
        for cycle in range(24):
            inputs = [
                {"x": (37 * lane + cycle) & 255, "y": (91 * lane + 3 * cycle) & 255}
                for lane in range(4)
            ]
            want = [s.step(i) for s, i in zip(sims, inputs)]
            assert batch.step(inputs) == want, cycle
            assert_lanes_match_scalars(m, batch, sims, cycle)

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
        assert batch._entry.bodies, "expected at least one specialized body to compile"
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
        """One compiled entry per (module, engine), shared across lane
        counts; the SWAR tier is always on (there is no engine flag)."""
        design = compile_program(self.ADDER, two_level(), name="swar_cache")
        module = design.module
        b_swar = BatchSimulator(module, 2)
        assert b_swar._entry is BatchSimulator(module, 4)._entry
        if HAVE_NUMPY:
            from repro.hdl import VectorSimulator

            assert b_swar._entry is not VectorSimulator(module, 2)._entry
        assert "w" in b_swar.signal_tiers.values()
        with pytest.raises(TypeError):
            BatchSimulator(module, 2, swar=False)
        # slot-packed state accessors
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

#: One dispatch register (``fall__top``), so lanes split across p and q
#: disagree on every dispatch register.
FSM1_SRC = """
reg[7:0] acc; reg[7:0] aux; input[7:0] x;
state top : L = {
    let state p = {
        acc := acc + x;
        if (acc > 200) { goto q; } else { goto p; }
    } in
    let state q = { aux := aux + 1; acc := 0; goto p; } in
    fall;
}
"""


#: A counter that halts once it passes 40, so lanes driven with
#: different ``x`` halt on different cycles.
HALTING_SRC = """
reg[7:0] cnt; input[7:0] x; output halted : L; output[7:0] v;
state top : L = {
    let state run = { cnt := cnt + x; v := cnt; if (cnt > 40) { goto done; } else { goto run; } } in
    let state done = { halted := 1; goto done; } in
    fall;
}
"""


def generic_lockstep(cls, design, lanes=4, cycles=160):
    """*cls* over *design* with lanes on different x strides, lockstep
    against scalar twins; returns the batch after checking that the
    lanes disagreed on every dispatch register on some step and that
    the empty binding's body (the generic step) was built only then,
    as the module's own step."""
    module = design.module
    batch = cls(module, lanes)
    entry = batch._entry
    assert len(entry.dispatch) == 1 and entry.empty not in entry.bodies
    sims = [Simulator(module) for _ in range(lanes)]
    for cycle in range(cycles):
        lane_inputs = [{"x": 3 + 50 * lane, "x__tag": 0} for lane in range(lanes)]
        want = [s.step(i) for s, i in zip(sims, lane_inputs)]
        assert batch.step(lane_inputs) == want, f"cycle {cycle}"
        assert_lanes_match_scalars(module, batch, sims, cycle)
        assert (entry.empty not in entry.bodies) == (batch.generic_steps == 0), cycle
    assert_one_path_per_step(batch)
    generic = entry.bodies[entry.empty]
    assert not generic.bound
    assert generic.source == entry._make_gen(batch.module).generate()
    return batch


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

    def test_explicit_compact_matches_uncompacted_twin(self):
        design = compile_program(samples.TDMA, two_level(), name="ret")
        module = design.module
        batch = BatchSimulator(module, 3)
        batch.run(5)
        assert batch.compact([1]) == [1]
        outs = batch.run(5)
        assert batch.active_lanes == [0, 2]
        assert batch.lanes == 2 == len(outs)
        assert batch.compactions == 1 and batch.cycles == 10
        # identical to an uncompacted twin on the surviving lanes
        twin = BatchSimulator(module, 3)
        twin.run(10)
        for pos, orig in enumerate(batch.active_lanes):
            assert batch.lane_regs(pos) == twin.lane_regs(orig)

    def test_run_reslices_per_lane_inputs_across_compaction(self):
        """``commands.run_lanes`` with a per-lane stimulus retires each
        lane on the step its ``halted`` output fires, lanes halting at
        different cycles, and keeps the stimulus aligned with the
        surviving positions: every lane, retired or surviving, matches a
        scalar Simulator fed its own stimulus."""
        design = compile_program(HALTING_SRC, two_level(), name="ret_inputs")
        module = design.module
        stim = [{"x": x} for x in (1, 7, 2, 13)]
        batch = BatchSimulator(module, 4)
        run = commands.run_lanes(batch, 18, {}, stim)
        assert batch.active_lanes == [0, 2] and run.active_lanes == 2
        assert batch.compactions == 2, "lanes 1 and 3 must halt on different steps"
        for lane, inputs in enumerate(stim):
            sim = Simulator(module)
            for _ in range(batch.cycles):
                out = sim.step(inputs)
                if out["halted"]:
                    break
            assert run.final[lane] == out, lane
            if lane in batch.active_lanes:
                pos = batch.active_lanes.index(lane)
                assert not out["halted"] and batch.lane_regs(pos) == dict(sim.regs), lane
            else:
                assert out["halted"], lane

    def test_run_stops_when_every_lane_retires(self):
        """``commands.run_lanes`` stops on the step every lane halts,
        without compacting."""
        design = compile_program(HALTING_SRC, two_level(), name="ret_all")
        batch = BatchSimulator(design.module, 2)
        commands.run_lanes(batch, 10, {"x": 50})
        assert batch.cycles < 10 and batch.lanes == 2 and batch.compactions == 0

    def test_compact_without_predicate_or_lanes_rejected(self):
        """compact() takes the lanes to retire: there is no predicate to
        default to, and retiring none is a no-op."""
        design = compile_program(samples.TDMA, two_level(), name="noretire")
        batch = BatchSimulator(design.module, 2)
        with pytest.raises(TypeError):
            batch.compact()
        assert batch.compact([]) == []
        assert batch.lanes == 2 and batch.compactions == 0


class TestMajorityDispatch:
    """Diverged lane populations -- the shapes majority-cohort dispatch
    used to split.  Lanes that still agree on one dispatch register run
    the body folded on it; lanes that disagree on every one run the
    generic step.  Each lane stays bit-identical to its scalar twin, and
    every step takes exactly one of the two paths."""

    def _lockstep(self, lanes, lane_x, cycles=160):
        design = compile_program(FSM_SRC, two_level(), name=f"fsm_maj{lanes}")
        module = design.module
        batch = BatchSimulator(module, lanes)
        sims = [Simulator(module) for _ in range(lanes)]
        for cycle in range(cycles):
            lane_inputs = [{"x": lane_x[lane], "x__tag": 0} for lane in range(lanes)]
            want = [s.step(i) for s, i in zip(sims, lane_inputs)]
            got = batch.step(lane_inputs)
            assert got == want, f"cycle {cycle}"
            assert_lanes_match_scalars(module, batch, sims, cycle)
        assert_one_path_per_step(batch)
        assert_diverged(batch)
        return batch

    def test_half_and_half_split(self):
        self._lockstep(6, [3, 3, 3, 103, 103, 103])

    def test_n_minus_one_vs_one_split(self):
        self._lockstep(5, [3, 3, 3, 3, 103])

    def test_three_way_state_mix(self):
        self._lockstep(6, [3, 3, 53, 53, 103, 103])

    def test_six_and_two_population(self):
        self._lockstep(8, [3] * 6 + [103] * 2)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.programs(), st.integers(3, 6), st.data())
    def test_majority_dispatch_matches_scalars(self, program, lanes, data):
        """Random programs with per-lane stimulus: every lane stays
        bit-identical to its scalar twin whichever path each step took."""
        lat = two_level()
        info = analyze(program, lat)
        design = compile_program(info, lat, secure=True, name="rand_majority")
        traces = [
            data.draw(strategies.stimulus_traces(cycles=5), label=f"lane{lane}")
            for lane in range(lanes)
        ]
        run_lockstep(design, traces, cycles=5)

    def test_bodies_shared_across_cohort_widths(self):
        """One folded body serves every lane width: the full batch and a
        compacted batch re-enter the same cached entry at their own
        width."""
        design = compile_program(FSM_SRC, two_level(), name="fsm_widths")
        module = design.module
        batch = BatchSimulator(module, 6)
        inp = {"x": 7, "x__tag": 0}
        for _ in range(120):
            batch.step(inp)
        entry = batch._entry
        assert any(6 in b.steps for b in entry.bodies.values())
        batch.compact([4, 5])
        for _ in range(120):
            batch.step(inp)
        shared = [
            b for b in entry.bodies.values() if {4, 6} <= set(b.steps)
        ]
        assert shared, "specialized bodies must be shared across lane widths"
        # a second simulator over the same module reuses the same bodies
        assert BatchSimulator(module, 3)._entry.bodies is entry.bodies

    def test_split_disabled_by_flag(self):
        """The cohort split is gone for good: no constructor option or
        class attribute brings it back, and a mixed population never
        counts a split step."""
        design = compile_program(FSM_SRC, two_level(), name="fsm_nomaj")
        module = design.module
        for option in ("majority", "specialize", "swar"):
            with pytest.raises(TypeError):
                BatchSimulator(module, 6, **{option: False})
        batch = BatchSimulator(module, 6)
        assert not hasattr(batch, "majority_fraction")
        for _ in range(160):
            batch.step([{"x": 3 + 50 * (lane % 3), "x__tag": 0} for lane in range(6)])
        assert_one_path_per_step(batch)
        assert_diverged(batch)

    def test_disagreeing_on_every_dispatch_register_runs_generic(self):
        """One dispatch register, lanes split across its states: those
        steps can bind nothing, so the lazily built generic step runs."""
        design = compile_program(FSM1_SRC, two_level(), name="fsm1_generic")
        batch = generic_lockstep(BatchSimulator, design)
        assert batch.uniform_steps > 0 and batch.generic_steps > 0


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
        assert batch._entry.bodies, "uniform lanes never reached a specialized body"

    def test_mixed_states_fall_back_to_generic(self):
        """Lanes in different inner FSM states still agree on the outer
        fall register, so they run the body folded on it (the generic
        step only if they agree on neither), bit-identical to scalars."""
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
        # one entry per module: one generic body, one step per lane count
        assert b1._entry is b2._entry is b3._entry
        generic = b1._entry.body_for(b1.module, b1._entry.empty)
        assert generic is b3._entry.body_for(b3.module, b3._entry.empty)
        assert not generic.bound
        assert generic.step(4) is generic.step(4)
        assert generic.step(4) is not generic.step(2)  # different lane count
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
    makers = [_BatchCodeGen]
    if HAVE_NUMPY:
        from repro.hdl.vector import _VectorCodeGen

        makers.append(_VectorCodeGen)
    return makers


def _entry_makers():
    makers = [batch_mod._BatchEntry]
    if HAVE_NUMPY:
        from repro.hdl.vector import _VectorEntry

        makers.append(_VectorEntry)
    return makers


def processor_lanes(exe, lanes, engine, tc=None):
    """*lanes* copies of *exe* on the secure processor, batched on the
    pinned *engine*; returns the design and the simulator."""
    from repro.proc.machine import compile_processor
    from repro.toolchain import get_toolchain

    tc = tc or get_toolchain()
    design = compile_processor(two_level(), True, toolchain=tc)
    sim = tc.batch_simulator(design, lanes, engine=engine)
    for lane in range(lanes):
        sim.load_array(lane, "memory", exe.as_memory())
    return design, sim


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
        """The generic step (the empty binding's body, built here if no
        step needed it) and every folded body, each regenerated with the
        oracle from its own fold of *module*; returns the number of
        folded bodies."""
        folded = sum(body.bound for body in entry.bodies.values())
        generic = entry.body_for(module, entry.empty)
        with _oracle():
            assert entry._make_gen(module).generate() == generic.source
            for combo, body in entry.bodies.items():
                binding = {reg: v for reg, v in zip(entry.dispatch, combo) if v is not None}
                gen = entry._make_gen(
                    batch_mod._fold_module(module, binding),
                    pitch=entry.pitch, resident=entry.resident,
                )
                assert gen.generate() == body.source, combo
        return folded

    @staticmethod
    def _assert_empty_binding_is_generic(module):
        """On both engines, the empty binding folds nothing and its body
        is the module's own step, byte for byte."""
        assert batch_mod._fold_module(module, {}) is module
        for make in _entry_makers():
            entry = make(module)
            body = entry.body_for(module, entry.empty)
            assert not body.bound and list(entry.bodies) == [entry.empty]
            assert body.source == entry._make_gen(module).generate()

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.programs())
    def test_empty_binding_body_is_generic_on_random_programs(self, program):
        lat = two_level()
        design = compile_program(analyze(program, lat), lat, secure=True, name="rand_empty")
        self._assert_empty_binding_is_generic(design.module)
        self._assert_empty_binding_is_generic(optimize(design.module))

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.wide_programs())
    def test_empty_binding_body_is_generic_on_wide_programs(self, program):
        lat = two_level()
        design = compile_program(analyze(program, lat), lat, secure=True, name="wide_empty")
        self._assert_empty_binding_is_generic(design.module)
        self._assert_empty_binding_is_generic(optimize(design.module))

    ENGINES = ["swar"] + (["vector"] if HAVE_NUMPY else [])

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
        from repro.workloads import ALL_WORKLOADS

        exe = assemble(ALL_WORKLOADS["specrand"].source)
        _design, sim = processor_lanes(exe, 4, engine)
        for _ in range(300):
            sim.step()
        assert self._assert_sources_unchanged(sim._entry, sim.module) >= 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_lockstep_processor_never_generates_generic(self, engine):
        """Eight lanes of one program run 400 cycles past reset into the
        processor's Pipeline state (2,0,0,0) on folded bodies alone: no
        step takes the empty binding's body (the generic step), it is
        never built, and every lane stays bit-identical to a scalar
        Simulator on the raw module."""
        from repro.mips.assembler import assemble
        from repro.toolchain import Toolchain
        from repro.workloads import ALL_WORKLOADS

        exe = assemble(ALL_WORKLOADS["specrand"].source)
        generated = []
        real_generate = _BatchCodeGen.generate

        def generate_spy(gen):
            generated.append(gen.module)
            return real_generate(gen)

        with mock.patch.object(_BatchCodeGen, "generate", generate_spy):
            # a fresh toolchain, so the entry is this run's alone
            design, sim = processor_lanes(exe, 8, engine, Toolchain())
            ref = Simulator(design.module, optimize=False)
            ref.arrays["memory"] = dict(exe.as_memory())
            for cycle in range(400):
                want = ref.step({})
                assert sim.step() == [want] * 8, f"cycle {cycle}"
        assert (2, 0, 0, 0) in sim._entry.bodies, list(sim._entry.bodies)
        assert sim.generic_steps == 0 and sim.uniform_steps == sim.cycles == 400
        assert sim._entry.empty not in sim._entry.bodies
        assert all(module is not sim.module for module in generated)
        assert len(generated) == len(sim._entry.bodies)
        assert_lanes_match_scalars(sim.module, sim, [ref] * 8, sim.cycles)

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


def test_engines_never_import_time():
    """Wall-clock time must never pick the step path: neither batched
    engine module imports anything from ``time``."""
    hdl = Path(batch_mod.__file__).parent
    for name in ("batch.py", "vector.py"):
        tree = ast.parse((hdl / name).read_text(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] != "time", f"{name}:{node.lineno} imports {module}"
