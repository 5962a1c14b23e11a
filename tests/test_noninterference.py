"""Mechanical check of Theorem 1 (noninterference).

Two executions whose configurations are L-equivalent and whose low
inputs agree must remain L-equivalent after every cycle -- and in
particular their low-observable outputs must be identical, cycle for
cycle (the theorem is timing-sensitive).

We test this three ways:

* hand-written attack programs covering every channel the paper
  discusses (explicit flows, implicit flows, goto/timing channels, fall
  channels, array-index channels, setTag laundering);
* randomized programs via hypothesis (tests/strategies.py);
* the same property on the *compiled hardware* for the fixed programs,
  closing the loop on the compiler.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.lattice import two_level
from repro.sapper import samples
from repro.sapper.analysis import analyze
from repro.sapper.noninterference import configs_equivalent
from repro.sapper.parser import parse_program
from repro.sapper.semantics import Interpreter

from tests import strategies


def paired_run(info, lattice, trace_pairs, observer="L"):
    """Run two interpreters; inputs agree on labels everywhere and on
    values wherever the label flows to *observer*.  Assert L-equivalence
    and equal observable outputs at every cycle."""
    it1 = Interpreter(info, lattice)
    it2 = Interpreter(info, lattice)
    for cycle, (in1, in2) in enumerate(trace_pairs):
        out1 = it1.run_cycle(in1)
        out2 = it2.run_cycle(in2)
        for port in out1:
            v1, t1 = out1[port]
            v2, t2 = out2[port]
            vis1 = lattice.leq(t1, observer)
            vis2 = lattice.leq(t2, observer)
            assert vis1 == vis2, f"cycle {cycle}: output {port} visibility differs"
            if vis1:
                assert v1 == v2, f"cycle {cycle}: low output {port}: {v1} != {v2}"
        report = configs_equivalent(it1, it2, observer)
        assert report, f"cycle {cycle}: " + "; ".join(report.mismatches[:8])


def vary_high(trace, observer, lattice, offset=77):
    """Build the paired trace: same labels, values differ iff label is
    not observable at *observer*."""
    pairs = []
    for entry in trace:
        e1, e2 = {}, {}
        for name, (value, label) in entry.items():
            e1[name] = (value, label)
            if lattice.leq(label, observer):
                e2[name] = (value, label)
            else:
                e2[name] = ((value + offset) & 0xFF, label)
        pairs.append((e1, e2))
    return pairs


def build(src):
    lat = two_level()
    return analyze(parse_program(src), lat), lat


class TestAttackPrograms:
    def test_explicit_flow(self):
        info, lat = build(
            """
            reg[7:0] lo : L; input[7:0] hi : H; output[7:0] out_lo : L;
            state s : L = { lo := hi; out_lo := lo; goto s; }
            """
        )
        trace = [{"hi": (i * 13, "H")} for i in range(10)]
        paired_run(info, lat, vary_high(trace, "L", lat))

    def test_implicit_flow(self):
        info, lat = build(
            """
            reg[7:0] lo : L; input h : H; output[7:0] out_lo : L;
            state s : L = {
                if (h) { lo := 1; } else { lo := 2; }
                out_lo := lo;
                goto s;
            }
            """
        )
        trace = [{"h": (i & 1, "H")} for i in range(8)]
        paired_run(info, lat, vary_high(trace, "L", lat))

    def test_goto_timing_channel(self):
        # high data tries to choose which low state runs next cycle
        info, lat = build(
            """
            input h : H; reg[7:0] c1; reg[7:0] c2; output[7:0] out_lo : L;
            state a : L = {
                c1 := c1 + 1;
                out_lo := c1;
                if (h) { goto b; } else { goto a; }
            }
            state b : L = { c2 := c2 + 1; out_lo := c2; goto a; }
            """
        )
        trace = [{"h": (i % 3 == 0, "H")} for i in range(12)]
        paired_run(info, lat, vary_high(trace, "L", lat))

    def test_fall_channel(self):
        # high data tries to choose which child state runs
        info, lat = build(
            """
            input h : H; reg[7:0] w1; reg[7:0] w2; output[7:0] out_lo : L;
            state top : L = {
                let state p = { w1 := w1 + 1; goto q; } in
                let state q = { w2 := w2 + 1; goto p; } in
                if (h) { goto top; } else { fall; }
            }
            """
        )
        trace = [{"h": (i & 1, "H")} for i in range(12)]
        paired_run(info, lat, vary_high(trace, "L", lat))

    def test_array_index_channel(self):
        # writing at a high-dependent index must not alter low-visible cells
        info, lat = build(
            """
            input[2:0] hidx : H; mem[7:0] buf[8] : L; output[7:0] out_lo : L;
            state s : L = {
                buf[hidx] := 1;
                out_lo := buf[0] + buf[1];
                goto s;
            }
            """
        )
        trace = [{"hidx": (i % 8, "H")} for i in range(10)]
        paired_run(info, lat, vary_high(trace, "L", lat, offset=3))

    def test_settag_laundering(self):
        # a high context cannot downgrade data to exfiltrate it
        info, lat = build(
            """
            input h : H; reg[7:0] sec : H; input[7:0] hv : H;
            output[7:0] out_lo : L;
            state s : L = {
                sec := hv;
                if (h) { setTag(sec, L); }
                out_lo := sec otherwise out_lo := 0;
                goto s;
            }
            """
        )
        trace = [{"h": (i & 1, "H"), "hv": (i * 7, "H")} for i in range(10)]
        paired_run(info, lat, vary_high(trace, "L", lat))

    def test_timer_preemption_is_deterministic(self):
        info, lat = build(samples.TDMA)
        trace = [{"hi_in": (i * 5, "H"), "lo_in": (i, "L")} for i in range(120)]
        paired_run(info, lat, vary_high(trace, "L", lat))

    def test_dynamic_state_self_goto(self):
        # a dynamic state branching on high data about whether to re-run itself
        info, lat = build(
            """
            input[7:0] h : H; reg[7:0] c; output[7:0] out_lo : L;
            state top : L = {
                let state p = {
                    if (h > 100) { goto q; } else { goto p; }
                } in
                let state q = { c := c + 1; goto p; } in
                out_lo := out_lo + 1;
                fall;
            }
            """
        )
        trace = [{"h": (i * 31, "H")} for i in range(16)]
        paired_run(info, lat, vary_high(trace, "L", lat))


class TestRandomizedNoninterference:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.programs(), strategies.stimulus_traces(cycles=8))
    def test_theorem1_on_random_programs(self, program, trace):
        lat = two_level()
        info = analyze(program, lat)
        paired_run(info, lat, vary_high(trace, "L", lat))

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.programs(), strategies.stimulus_traces(cycles=6))
    def test_compiler_conformance_on_random_programs(self, program, trace):
        # three-way: interpreter vs raw hardware vs optimized hardware --
        # cycle-by-cycle state, tags, and violation events must all match
        from repro.sapper.crossval import CrossValidation

        lat = two_level()
        info = analyze(program, lat)
        cv = CrossValidation.build(info, lat)
        assert cv.opt_sim is not None
        for entry in trace:
            cv.run_cycle(entry)
        assert not cv.mismatches, str(cv.mismatches[:6])


class TestHardwareNoninterference:
    """The same observation on the compiled design: low-tagged registers
    and outputs of two hardware runs agree when low inputs agree.

    The two runs execute as lanes of one
    :class:`~repro.hdl.batch.BatchSimulator` -- the paired-execution
    shape noninterference checking always has, and exactly what the
    batched engine exists for.  In compact mode (test id
    ``compact+majority``, kept from when the mode also forced cohort
    dispatch) the pair runs inside a four-lane batch and the padding
    lanes are compacted away mid-trace, so the GLIFT tag behaviour is
    verified on the compaction code path, not just the generic step.
    """

    def _run_pair(self, src, trace_pairs, compacted=False):
        from repro.hdl import BatchSimulator
        from repro.sapper.compiler import compile_program
        from repro.sapper.crossval import encode_inputs

        lat = two_level()
        design = compile_program(src, lat, name="ni_hw")
        batch = BatchSimulator(design.module, 4 if compacted else 2)

        for cycle, (in1, in2) in enumerate(trace_pairs):
            enc1, enc2 = encode_inputs(design, in1), encode_inputs(design, in2)
            if batch.lanes == 4:  # padding lanes replay run 1's stimulus
                o1, o2 = batch.step([enc1, enc2, enc1, enc1])[:2]
            else:
                o1, o2 = batch.step([enc1, enc2])
            for port in design.module.outputs:
                if port.endswith("__tag") or port == "violation":
                    continue
                t1, t2 = o1.get(f"{port}__tag", 0), o2.get(f"{port}__tag", 0)
                if t1 == 0 or t2 == 0:  # L-tagged in either run
                    assert t1 == t2 and o1[port] == o2[port], f"cycle {cycle}: {port}"
            for reg, tag_reg in design.reg_tag.items():
                t1, t2 = batch.get_reg(0, tag_reg), batch.get_reg(1, tag_reg)
                if t1 == 0 or t2 == 0:
                    assert t1 == t2, f"tag {reg}"
                    assert batch.get_reg(0, reg) == batch.get_reg(1, reg), f"reg {reg}"
            if compacted and batch.lanes == 4 and cycle >= len(trace_pairs) // 2:
                assert batch.compact([2, 3]) == [2, 3]
                assert batch.active_lanes == [0, 1]
        if compacted:
            assert batch.compactions == 1, "compaction path never exercised"
        assert batch.uniform_steps + batch.generic_steps == batch.cycles

    @pytest.mark.parametrize("compacted", [False, True],
                             ids=["plain", "compact+majority"])
    def test_hardware_implicit_flow(self, compacted):
        lat = two_level()
        src = """
        reg[7:0] lo : L; reg[7:0] d; input h : H; output[7:0] out_lo : L;
        state s : L = {
            if (h) { d := 1; lo := 1; } else { d := 2; }
            out_lo := lo;
            goto s;
        }
        """
        trace = [{"h": (i & 1, "H")} for i in range(8)]
        self._run_pair(src, vary_high(trace, "L", lat), compacted)

    @pytest.mark.parametrize("compacted", [False, True],
                             ids=["plain", "compact+majority"])
    def test_hardware_tdma(self, compacted):
        lat = two_level()
        trace = [{"hi_in": (i * 3, "H"), "lo_in": (i, "L")} for i in range(120)]
        self._run_pair(samples.TDMA, vary_high(trace, "L", lat), compacted)

    def test_hardware_split_dispatch_carries_the_pair(self):
        """A noninterference pair plus two padding lanes whose FSM
        state legitimately diverges through a *low* selector (a high
        selector's goto would be suppressed by enforcement, keeping
        every lane uniform): the split population runs the generic
        step, and the pair's low-observable state must stay equal."""
        from repro.hdl import BatchSimulator
        from repro.sapper.compiler import compile_program
        from repro.sapper.crossval import encode_inputs

        src = """
        input[7:0] h : H; input[1:0] sel : L; reg[7:0] c1; reg[7:0] sec : H;
        output[7:0] out_lo : L;
        state a : L = {
            c1 := c1 + 1; sec := sec + h; out_lo := c1;
            if (sel == 1) { goto b; } else { goto a; }
        }
        state b : L = {
            c1 := c1 + 2; out_lo := c1;
            if (sel == 2) { goto c; } else { goto a; }
        }
        state c : L = { c1 := c1 + 3; goto a; }
        """
        design = compile_program(src, two_level(), name="ni_split")
        batch = BatchSimulator(design.module, 4)
        for cycle in range(24):
            enc1 = encode_inputs(
                design, {"h": (cycle * 7 & 255, "H"), "sel": (cycle % 3, "L")}
            )
            # run 2: same low stimulus, different high values
            enc2 = encode_inputs(
                design, {"h": ((cycle * 7 + 77) & 255, "H"), "sel": (cycle % 3, "L")}
            )
            # padding lanes: a shifted low schedule diverges their FSM
            enc3 = encode_inputs(
                design, {"h": (0, "H"), "sel": ((cycle + 1) % 3, "L")}
            )
            o1, o2 = batch.step([enc1, enc2, enc3, enc3])[:2]
            t1, t2 = o1.get("out_lo__tag", 0), o2.get("out_lo__tag", 0)
            if t1 == 0 or t2 == 0:
                assert t1 == t2 and o1["out_lo"] == o2["out_lo"], f"cycle {cycle}"
            for reg, tag_reg in design.reg_tag.items():
                rt1, rt2 = batch.get_reg(0, tag_reg), batch.get_reg(1, tag_reg)
                if rt1 == 0 or rt2 == 0:
                    assert rt1 == rt2, f"tag {reg}"
                    assert batch.get_reg(0, reg) == batch.get_reg(1, reg), f"reg {reg}"
        assert batch.generic_steps > 0, "the padding lanes never diverged"
        assert batch.uniform_steps + batch.generic_steps == batch.cycles
