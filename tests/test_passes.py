"""Unit and property tests for the HDL optimization pipeline.

Covers each pass in isolation (the rewrite walk's constant folding,
mux/boolean simplification and value numbering, dead-signal
elimination), the live-cone binder behind the batched simulator's
folded bodies, the pipeline's fixpoint, its
architectural-equivalence contract on sample designs, the memoization
of :func:`repro.hdl.passes.optimize`, and the GLIFT shadow-taint
invariance property: bit-blasting an optimized module must yield the
same value *and* taint behaviour as the raw module on the evaluation
designs.
"""

import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.glift import GliftSimulator
from repro.hdl import HConst, HOp, HRef, Module, Simulator
from repro.hdl.batch import _dispatch_regs
from repro.hdl.ir import ArrayWrite
from repro.hdl.netlist import bit_blast
from repro.hdl.passes import (
    DeadSignalElim,
    PassManager,
    Rewrite,
    bind,
    default_passes,
    optimize,
    rebuild,
    run_pipeline,
)
from repro.lattice import two_level
from repro.proc.machine import compile_processor
from repro.sapper import samples
from repro.sapper.analysis import analyze
from repro.sapper.compiler import compile_program
from repro.toolchain import Toolchain, get_toolchain

from tests import strategies


def find(module: Module, name: str):
    for sig, expr in module.comb:
        if sig == name:
            return expr
    raise KeyError(name)


class TestConstantFold:
    def test_folds_constant_arith(self):
        m = Module("t")
        m.assign("a", HOp("add", (HConst(3, 8), HConst(4, 8)), 8))
        m.set_output("y", HRef("a", 8))
        out, changed = Rewrite().run(m)
        assert changed and find(out, "a") == HConst(7, 8)

    def test_propagates_through_refs(self):
        m = Module("t")
        m.assign("a", HOp("add", (HConst(1, 8), HConst(1, 8)), 8))
        m.assign("b", HOp("mul", (HRef("a", 8), HConst(3, 8)), 8))
        m.set_output("y", HRef("b", 8))
        out, _ = Rewrite().run(m)
        assert find(out, "b") == HConst(6, 8)

    def test_division_by_zero_convention(self):
        m = Module("t")
        m.assign("q", HOp("div", (HConst(9, 8), HConst(0, 8)), 8))
        m.assign("r", HOp("mod", (HConst(9, 8), HConst(0, 8)), 8))
        m.set_output("q", HRef("q", 8))
        m.set_output("r", HRef("r", 8))
        out, _ = Rewrite().run(m)
        assert find(out, "q") == HConst(0xFF, 8)  # all-ones, like the sim
        assert find(out, "r") == HConst(9, 8)     # the dividend

    def test_constant_mux_guard(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("a", HOp("mux", (HConst(1, 1), x, HConst(0, 8)), 8))
        m.set_output("y", HRef("a", 8))
        out, _ = Rewrite().run(m)
        assert find(out, "a") == x

    def test_never_folds_array_reads(self):
        m = Module("t")
        m.add_array("ram", 8, 16)
        m.assign("a", HOp("read", (HConst(3, 4),), 8, array="ram"))
        m.set_output("y", HRef("a", 8))
        out, _ = Rewrite().run(m)
        assert isinstance(find(out, "a"), HOp)


class TestSimplify:
    def simplify(self, m):
        out, _ = Rewrite().run(m)
        return out

    def test_mux_same_arms(self):
        m = Module("t")
        c = m.add_input("c", 1)
        x = m.add_input("x", 8)
        m.assign("a", HOp("mux", (c, x, x), 8))
        m.set_output("y", HRef("a", 8))
        assert find(self.simplify(m), "a") == x

    def test_mux_bool_identity(self):
        m = Module("t")
        c = m.add_input("c", 1)
        m.assign("a", HOp("mux", (c, HConst(1, 1), HConst(0, 1)), 1))
        m.set_output("y", HRef("a", 1))
        assert find(self.simplify(m), "a") == c

    def test_and_with_zero_and_ones(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("a", HOp("and", (x, HConst(0, 8)), 8))
        m.assign("b", HOp("and", (x, HConst(0xFF, 8)), 8))
        m.assign("c", HOp("or", (x, HConst(0, 8)), 8))
        for sig in "abc":
            m.set_output(sig, HRef(sig, 8))
        out = self.simplify(m)
        assert find(out, "a") == HConst(0, 8)
        assert find(out, "b") == x
        assert find(out, "c") == x

    def test_self_comparison(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("a", HOp("eq", (x, x), 1))
        m.assign("b", HOp("ne", (x, x), 1))
        m.set_output("a", HRef("a", 1))
        m.set_output("b", HRef("b", 1))
        out = self.simplify(m)
        assert find(out, "a") == HConst(1, 1)
        assert find(out, "b") == HConst(0, 1)

    def test_add_zero_and_shift_zero(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("a", HOp("add", (x, HConst(0, 8)), 8))
        m.assign("b", HOp("shl", (x, HConst(0, 3)), 8))
        m.set_output("a", HRef("a", 8))
        m.set_output("b", HRef("b", 8))
        out = self.simplify(m)
        assert find(out, "a") == x
        assert find(out, "b") == x

    def test_redundant_zext_slice(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("a", HOp("zext", (x,), 8))
        m.assign("b", HOp("slice", (x,), 8, hi=7, lo=0))
        m.set_output("a", HRef("a", 8))
        m.set_output("b", HRef("b", 8))
        out = self.simplify(m)
        assert find(out, "a") == x
        assert find(out, "b") == x

    def test_same_condition_mux_nesting(self):
        m = Module("t")
        c = m.add_input("c", 1)
        x = m.add_input("x", 8)
        y = m.add_input("y", 8)
        z = m.add_input("z", 8)
        m.assign("inner", HOp("mux", (c, y, z), 8))
        m.assign("a", HOp("mux", (c, x, HRef("inner", 8)), 8))
        m.set_output("a", HRef("a", 8))
        out = self.simplify(m)
        got = find(out, "a")
        assert got == HOp("mux", (c, x, z), 8)


class TestCse:
    def test_dedupes_whole_assignments(self):
        m = Module("t")
        x = m.add_input("x", 8)
        y = m.add_input("y", 8)
        m.assign("a", HOp("add", (x, y), 8))
        m.assign("b", HOp("add", (x, y), 8))
        m.assign("c", HOp("mul", (HRef("a", 8), HRef("b", 8)), 8))
        m.set_output("y0", HRef("c", 8))
        out, changed = Rewrite().run(m)
        assert changed
        assert find(out, "b") == HRef("a", 8)
        # uses of b are redirected to a
        assert find(out, "c") == HOp("mul", (HRef("a", 8), HRef("a", 8)), 8)

    def test_dedupes_nested_subtrees(self):
        m = Module("t")
        x = m.add_input("x", 8)
        y = m.add_input("y", 8)
        m.assign("a", HOp("add", (x, y), 8))
        m.assign("b", HOp("mul", (HOp("add", (x, y), 8), x), 8))
        m.set_output("y0", HRef("b", 8))
        m.set_output("y1", HRef("a", 8))
        out, _ = Rewrite().run(m)
        assert find(out, "b") == HOp("mul", (HRef("a", 8), x), 8)

    def test_rule_made_alias_is_numbered_in_the_same_walk(self):
        m = Module("t")
        c = m.add_input("c", 1)
        x = m.add_input("x", 8)
        m.assign("a", HOp("add", (x, HConst(1, 8)), 8))
        m.assign("b", HOp("mux", (c, HRef("a", 8), HRef("a", 8)), 8))
        m.assign("d", HOp("mul", (HRef("b", 8), x), 8))
        m.assign("e", HOp("mul", (HRef("a", 8), x), 8))
        m.set_output("y", HRef("e", 8))
        out, _ = Rewrite().run(m)
        assert find(out, "b") == HRef("a", 8)
        assert find(out, "d") == HOp("mul", (HRef("a", 8), x), 8)
        assert find(out, "e") == HRef("d", 8)


class TestDce:
    def test_drops_dead_keeps_live(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("live", HOp("add", (x, HConst(1, 8)), 8))
        m.assign("dead", HOp("mul", (x, HConst(7, 8)), 8))
        m.set_output("y", HRef("live", 8))
        out, changed = DeadSignalElim().run(m)
        assert changed
        names = [n for n, _ in out.comb]
        assert names == ["live"]

    def test_keeps_register_feeders_and_arch_state(self):
        m = Module("t")
        r = m.add_reg("r", 8)
        m.assign("nxt", HOp("add", (r, HConst(1, 8)), 8))
        m.set_reg_next("r", HRef("nxt", 8))
        m.add_array("ram", 8, 4)
        out, _ = DeadSignalElim().run(m)
        assert "r" in out.regs and "ram" in out.arrays
        assert [n for n, _ in out.comb] == ["nxt"]

    def test_drops_never_firing_write_port(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.add_array("ram", 8, 4)
        m.write_array("ram", HConst(0, 2), x, HConst(0, 1))
        m.write_array("ram", HConst(1, 2), x, HConst(1, 1))
        out, changed = DeadSignalElim().run(m)
        assert changed and len(out.array_writes) == 1
        assert out.array_writes[0].enable == HConst(1, 1)

    def test_retargets_alias_chains(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("a", HOp("add", (x, HConst(2, 8)), 8))
        m.assign("b", HRef("a", 8))
        m.assign("c", HRef("b", 8))
        m.set_output("y", HRef("c", 8))
        out, _ = DeadSignalElim().run(m)
        assert out.outputs["y"] == "a"
        assert [n for n, _ in out.comb] == ["a"]


def fold_everything(module, binding):
    """The whole-module fold :func:`bind` replaces: the binding
    substituted into every signal and write port, then the pipeline."""

    def sub(e):
        if isinstance(e, HRef) and e.name in binding:
            return HConst(binding[e.name], e.width)
        if isinstance(e, HOp):
            return HOp(e.op, tuple(sub(a) for a in e.args), e.width, e.hi, e.lo, e.array)
        return e

    writes = [
        ArrayWrite(wr.array, sub(wr.addr), sub(wr.data), sub(wr.enable))
        for wr in module.array_writes
    ]
    comb = [(name, sub(e)) for name, e in module.comb]
    return run_pipeline(rebuild(module, comb, array_writes=writes)).module


class TestBind:
    """The live-cone binder: a constant selector demands one arm, a
    write port whose enable folds to zero goes, untouched definitions
    keep their objects, and on random programs one step of the bound
    module equals one step of the raw module from any state holding the
    bound values."""

    @staticmethod
    def fsm():
        m = Module("fsm")
        st_ = m.add_reg("st", 2)
        x = m.add_input("x", 8)
        m.add_array("ram", 8, 4)
        m.assign("busy", HOp("mul", (x, x), 8))
        m.assign("idle", HOp("add", (x, HConst(1, 8)), 8))
        m.assign("go", HOp("eq", (st_, HConst(1, 2)), 1))
        m.assign("y", HOp("mux", (HRef("go", 1), HRef("busy", 8), HRef("idle", 8)), 8))
        m.assign("wen", HOp("eq", (st_, HConst(2, 2)), 1))
        m.assign("wdata", HOp("xor", (x, HConst(5, 8)), 8))
        m.write_array("ram", HConst(0, 2), HRef("wdata", 8), HRef("wen", 1))
        m.set_output("y", HRef("y", 8))
        m.set_reg_next("st", st_)
        m.validate()
        return m

    def test_constant_selector_follows_one_arm(self):
        m = self.fsm()
        idle = find(m, "idle")
        out = bind(m, {"st": 0})
        assert [n for n, _ in out.comb] == ["idle", "y"]
        assert find(out, "y") == HRef("idle", 8)
        assert find(out, "idle") is idle  # nothing under it changed
        assert out.array_writes == []  # the enable folded to zero
        assert [n for n, _ in bind(m, {"st": 1}).comb] == ["busy", "y"]

    def test_live_write_port_keeps_its_cone(self):
        out = bind(self.fsm(), {"st": 2})
        assert [n for n, _ in out.comb] == ["idle", "y", "wdata"]
        assert out.array_writes[0].enable == HConst(1, 1)

    def test_unbound_selector_keeps_both_arms(self):
        m = self.fsm()
        out = bind(m, {})
        assert [n for n, _ in out.comb] == [n for n, _ in m.comb]
        assert all(a is b for (_, a), (_, b) in zip(out.comb, m.comb))

    def test_narrower_arm_keeps_its_mux(self):
        """The mux width guard: an arm narrower than its mux is not
        spliced in, since the concatenation above reads the mux's width."""
        m = Module("guard")
        sel = m.add_reg("sel", 1)
        a, b = m.add_input("a", 4), m.add_input("b", 8)
        m.assign("y", HOp("cat", (HConst(1, 4), HOp("mux", (sel, a, b), 8)), 12))
        m.set_output("y", HRef("y", 12))
        m.set_reg_next("sel", sel)
        folded = run_pipeline(bind(m, {"sel": 1})).module
        assert Simulator(folded, optimize=False).step({"a": 3, "b": 0}) == {"y": 0x103}

    def test_long_chains_do_not_recurse(self):
        m = Module("chain")
        prev = m.add_reg("r", 8)
        for i in range(3 * sys.getrecursionlimit()):
            prev = m.assign(f"c{i}", HOp("add", (prev, HConst(1, 8)), 8))
        m.set_reg_next("r", prev)
        out = bind(m, {"r": 7})
        assert find(out, prev.name) == HConst((7 + 3 * sys.getrecursionlimit()) & 0xFF, 8)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(strategies.programs(), strategies.wide_programs()), st.booleans(), st.data())
    def test_random_bindings_step_like_the_module(self, program, secure, data):
        lat = two_level()
        raw = compile_program(analyze(program, lat), lat, secure=secure, name="bind").module
        module = optimize(raw)
        binding = {
            reg: data.draw(st.integers(0, (1 << module.regs[reg].width) - 1), label=reg)
            for reg in _dispatch_regs(module)
            if data.draw(st.booleans(), label=f"bind {reg}")
        }
        folded = run_pipeline(bind(module, binding)).module
        assert len(folded.comb) <= len(fold_everything(module, binding).comb)

        rng = random.Random(data.draw(st.integers(0, 2**32), label="state seed"))
        regs = {name: rng.getrandbits(r.width) for name, r in raw.regs.items()}
        regs.update(binding)
        arrays = {
            name: {i: rng.getrandbits(a.width) for i in range(min(a.size, 16))}
            for name, a in raw.arrays.items()
        }
        inputs = {name: rng.getrandbits(w) for name, w in raw.inputs.items()}
        ref, got = Simulator(raw, optimize=False), Simulator(folded, optimize=False)
        for sim in (ref, got):
            sim.regs = dict(regs)
            sim.arrays = {name: dict(cells) for name, cells in arrays.items()}
        assert got.step(inputs) == ref.step(inputs)
        assert got.regs == ref.regs
        assert got.arrays == ref.arrays


class TestPipeline:
    SAMPLE_SOURCES = [samples.ADDER_CHECK, samples.ADDER_TRACK, samples.TDMA]

    @pytest.mark.parametrize("secure", [True, False])
    @pytest.mark.parametrize("idx", range(len(SAMPLE_SOURCES)))
    def test_architectural_equivalence(self, idx, secure):
        lat = two_level()
        design = compile_program(self.SAMPLE_SOURCES[idx], lat, secure=secure, name="p")
        raw = Simulator(design.module, optimize=False)
        opt = Simulator(design.module)
        inputs = {name: 0 for name in design.module.inputs}
        for cycle in range(64):
            for i, name in enumerate(inputs):
                inputs[name] = (cycle * 37 + i * 11) & 0xFF
            assert raw.step(inputs) == opt.step(inputs), cycle
            assert raw.regs == opt.regs, cycle
            assert raw.arrays == opt.arrays, cycle

    def test_pipeline_shrinks_the_tdma_design(self):
        lat = two_level()
        design = compile_program(samples.TDMA, lat, name="tdma")
        result = run_pipeline(design.module)
        assert len(result.module.comb) < len(design.module.comb)
        assert result.signals_removed > 0
        assert {s.name for s in result.stats} == {"rewrite", "dce"}

    def test_optimize_is_memoized_and_idempotent(self):
        lat = two_level()
        design = compile_program(samples.TDMA, lat, name="tdma")
        a = optimize(design.module)
        b = optimize(design.module)
        assert a is b
        assert optimize(a) is a  # already-optimized modules pass through

    def test_levels(self):
        """One pipeline; opt level 0 is the raw module, 1 the optimized."""
        assert [p.name for p in default_passes()] == ["rewrite", "dce"]
        raw = compile_program(samples.TDMA, two_level(), name="tdma").module
        assert Toolchain(opt_level=0).optimize(raw) is raw
        assert Toolchain(opt_level=1).optimize(raw) is optimize(raw)

    def test_validates_output(self):
        lat = two_level()
        design = compile_program(samples.ADDER_CHECK, lat, name="a")
        out = PassManager(default_passes()).run(design.module).module
        out.validate()  # must not raise


class _Toggle:
    """A toy pass that flips one named signal between two definitions."""

    def __init__(self, name, src, dst):
        self.name, self.src, self.dst = name, src, dst

    def run(self, module):
        comb = [(n, self.dst if e == self.src else e) for n, e in module.comb]
        if comb == module.comb:
            return module, False
        out = Module(module.name, dict(module.inputs), dict(module.outputs))
        out.comb = comb
        return out, True


class TestFixpoint:
    """The pipeline runs until a sweep changes nothing, and says so
    loudly when it cannot get there."""

    @staticmethod
    def assert_fixpoint(module):
        again = run_pipeline(module)
        assert [s.name for s in again.stats if s.changed] == []
        assert again.sweeps == 1

    def test_passes_that_undo_each_other_raise(self):
        m = Module("toy")
        x = m.add_input("x", 8)
        plus, minus = HOp("add", (x, HConst(1, 8)), 8), HOp("sub", (x, HConst(1, 8)), 8)
        m.assign("a", plus)
        m.set_output("y", HRef("a", 8))
        pm = PassManager([_Toggle("up", plus, minus), _Toggle("down", minus, plus)])
        with pytest.raises(RuntimeError, match=r"toy: .*did not converge.*up, down"):
            pm.run(m)

    def test_tdma_is_a_fixpoint(self):
        design = compile_program(samples.TDMA, two_level(), name="tdma")
        result = run_pipeline(design.module)
        assert result.sweeps >= 2
        self.assert_fixpoint(result.module)

    def test_processor_is_a_fixpoint(self):
        opt = get_toolchain().optimize(compile_processor())
        assert len(opt.comb) <= 7023
        self.assert_fixpoint(opt)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(strategies.programs(), strategies.wide_programs()), st.booleans())
    def test_random_programs_reach_a_fixpoint(self, program, secure):
        lat = two_level()
        design = compile_program(analyze(program, lat), lat, secure=secure, name="rand")
        self.assert_fixpoint(run_pipeline(design.module).module)


class TestGliftInvariance:
    """Shadow taint tracking must not be perturbed by optimization on
    the evaluation designs: bit-blasting the optimized module yields the
    same per-port values *and* taints as the raw module, cycle by cycle.
    """

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 255), st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from(["ADDER_TRACK", "ADDER_CHECK"]),
    )
    def test_shadow_taint_unchanged_by_optimization(self, trace, sample_name):
        lat = two_level()
        src = getattr(samples, sample_name)
        design = compile_program(src, lat, secure=False, name="g")
        raw = GliftSimulator(bit_blast(design.module))
        opt = GliftSimulator(bit_blast(optimize(design.module)))
        ports = list(design.module.inputs)
        for vb, vc, tb, tc in trace:
            values = dict(zip(ports, (vb, vc)))
            taints = dict(zip(ports, (tb, tc)))
            v1, t1 = raw.step_tainted(values, taints)
            v2, t2 = opt.step_tainted(values, taints)
            assert v1 == v2
            assert t1 == t2
