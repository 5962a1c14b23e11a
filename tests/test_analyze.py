"""The static analyzer: taint soundness, lint rules, and wiring.

Soundness is pinned differentially: :class:`ShadowSimulator` carries a
dynamic one-bit taint through random programs, and every signal it ever
taints must be marked tainted by the static
:class:`~repro.analyze.taint.TaintCertificate` -- *statically clean is
a proof*.  The lint rules are each proven to fire on a
seeded defect and to stay silent on every shipped sample design.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyze import (
    ShadowSimulator,
    analyze_design,
    analyze_module,
    build_graph,
    compute_taint,
    default_taint_sources,
)
from repro.hdl import HConst, HOp, HRef, Module, Simulator
from repro.lattice import diamond, two_level
from repro.sapper import samples
from repro.sapper.analysis import analyze
from repro.sapper.compiler import compile_program
from repro.sapper.crossval import encode_inputs
from repro.toolchain import Toolchain

from tests import strategies

SAMPLES = {
    "adder_check": samples.ADDER_CHECK,
    "adder_track": samples.ADDER_TRACK,
    "tdma": samples.TDMA,
}


def compile_source(source: str, secure: bool = True, name: str = "design", lattice=None):
    """Fresh compile each call: seeded-defect tests mutate the module."""
    lat = lattice if lattice is not None else two_level()
    return Toolchain().compile(source, lat, secure=secure, name=name)


def input_sources(design) -> tuple[str, ...]:
    """The taint sources that are input ports (what ShadowSimulator takes)."""
    return tuple(s for s in default_taint_sources(design) if s in design.module.inputs)


# -- differential soundness ----------------------------------------------------


class TestSoundness:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(strategies.programs(), strategies.wide_programs()), st.data())
    def test_shadow_values_bit_identical(self, program, data):
        """Carrying taint must not perturb values: ShadowSimulator and
        Simulator agree on outputs, registers, and array contents."""
        design = compile_source_program(program)
        module = design.module
        trace = data.draw(strategies.stimulus_traces(cycles=6))
        sim = Simulator(module, optimize=False)
        shadow = ShadowSimulator(module, input_sources(design))
        for entry in trace:
            inputs = encode_inputs(design, entry)
            assert sim.step(inputs) == shadow.step(inputs)
        assert sim.regs == shadow.regs
        assert sim.arrays == shadow.arrays

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(strategies.programs(), strategies.wide_programs()), st.data())
    def test_dynamic_taint_within_static_cone(self, program, data):
        """Soundness: any signal the dynamic oracle ever taints is
        statically tainted -- the certificate's clean set is a proof."""
        design = compile_source_program(program)
        module = design.module
        sources = input_sources(design)
        cert = compute_taint(module, sources)
        shadow = ShadowSimulator(module, sources)
        for entry in data.draw(strategies.stimulus_traces(cycles=8)):
            shadow.step(encode_inputs(design, entry))
        escaped = shadow.ever_tainted - cert.tainted
        assert not escaped, f"dynamically tainted but statically clean: {sorted(escaped)}"
        # and every tainted node has a valid witness path back to a source
        for node in sorted(shadow.ever_tainted):
            path = cert.witness(node)
            assert path[0] in cert.sources and path[-1] == node

def compile_source_program(program):
    lat = two_level()
    info = analyze(program, lat)
    return compile_program(info, lat, secure=True, name="rand_analyze")


# -- the certificate -----------------------------------------------------------


class TestCertificate:
    def test_witness_paths_follow_graph_edges(self):
        design = compile_source(samples.TDMA, name="tdma")
        module = design.module
        cert = compute_taint(module, default_taint_sources(design))
        graph = build_graph(module)
        assert cert.tainted, "TDMA must have a nonempty taint cone"
        for node in sorted(cert.tainted):
            path = cert.witness(node)
            assert path[0] in cert.sources
            for pred, succ in zip(path, path[1:]):
                assert any(dst == succ for dst, _ in graph.succs[pred]), (
                    f"witness step {pred} -> {succ} is not a graph edge"
                )

    def test_clean_signal_has_no_witness(self):
        design = compile_source(samples.TDMA, name="tdma")
        cert = compute_taint(design.module, default_taint_sources(design))
        clean = next(n for n, _ in design.module.comb if n not in cert.tainted)
        with pytest.raises(ValueError, match="statically clean"):
            cert.witness(clean)

    def test_unknown_source_rejected(self):
        design = compile_source(samples.TDMA, name="tdma")
        with pytest.raises(ValueError, match="unknown taint source"):
            compute_taint(design.module, ("no_such_port",))

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_analysis_builds_one_signal_graph(self, name):
        """analyze_module hands its lint graph to compute_taint: one
        graph build per analysis, and a report identical (findings and
        certificate) to one whose certificate built its own graph."""
        from unittest import mock

        import repro.analyze.lint as lint
        import repro.analyze.taint as taint

        shared, separate = (compile_source(SAMPLES[name], name=name) for _ in range(2))
        sources = default_taint_sources(shared)
        builds = []

        def counted(module):
            builds.append(module.name)
            return build_graph(module)

        with mock.patch.object(lint, "build_graph", counted), \
                mock.patch.object(taint, "build_graph", counted):
            report = analyze_module(shared.module, sources)
        assert len(builds) == 1
        own_graph = lambda module, srcs, graph=None: compute_taint(module, srcs)
        with mock.patch.object(lint, "compute_taint", own_graph):
            reference = analyze_module(separate.module, sources)
        assert report.findings == reference.findings
        assert report.certificate == reference.certificate
        assert report == reference

    def test_stats_census_is_consistent(self):
        design = compile_source(samples.TDMA, name="tdma")
        cert = compute_taint(design.module, default_taint_sources(design))
        stats = cert.stats
        assert stats["signals"] == stats["tainted_signals"] + stats["pruned_signals"]
        assert 0.0 < stats["prune_ratio"] < 1.0


# -- lint: clean on everything we ship ----------------------------------------


class TestLintClean:
    @pytest.mark.parametrize("name", sorted(SAMPLES))
    @pytest.mark.parametrize("secure", [True, False])
    def test_samples_have_zero_errors(self, name, secure):
        design = compile_source(SAMPLES[name], secure=secure, name=name)
        report = analyze_design(design)
        assert report.ok, [f.render() for f in report.errors]

    def test_insecure_design_prunes_everything(self):
        """With no tag ports and no labelled inputs, the whole design is
        statically clean: zero shadow words."""
        design = compile_source(samples.ADDER_TRACK, secure=False, name="adder")
        report = analyze_design(design)
        assert report.certificate.stats["tainted_signals"] == 0
        assert report.certificate.stats["prune_ratio"] == 1.0


# -- lint: every rule fires on a seeded defect --------------------------------


class TestLintRules:
    def seeded(self, mutate) -> list:
        design = compile_source(samples.TDMA, name="tdma")
        mutate(design.module)
        return analyze_module(design.module).findings

    def test_comb_loop_names_the_cycle(self):
        def mutate(m):
            m.comb.append(("loop_a", HOp("not", (HRef("loop_b", 4),), 4)))
            m.comb.append(("loop_b", HOp("not", (HRef("loop_a", 4),), 4)))

        findings = self.seeded(mutate)
        loops = [f for f in findings if f.rule == "comb-loop"]
        assert len(loops) == 1 and loops[0].severity == "error"
        assert "loop_a" in loops[0].message and "loop_b" in loops[0].message
        assert "2 signal(s)" in loops[0].message

    def test_comb_self_loop(self):
        def mutate(m):
            m.comb.append(("selfy", HOp("not", (HRef("selfy", 1),), 1)))

        loops = [f for f in self.seeded(mutate) if f.rule == "comb-loop"]
        assert len(loops) == 1 and "1 signal(s)" in loops[0].message

    def test_undriven_reference(self):
        def mutate(m):
            m.comb.append(("uses_ghost", HOp("not", (HRef("ghost", 4),), 4)))

        findings = [f for f in self.seeded(mutate) if f.rule == "undriven-signal"]
        assert any(f.location == "ghost" and "uses_ghost" in f.message for f in findings)

    def test_register_without_next(self):
        def mutate(m):
            m.add_reg("limbo", 4)

        findings = [f for f in self.seeded(mutate) if f.rule == "undriven-signal"]
        assert any(f.location == "limbo" and "no next-value" in f.message for f in findings)

    def test_multiply_driven(self):
        def mutate(m):
            name = m.comb[0][0]
            m.comb.append((name, HConst(0, 1)))

        findings = [f for f in self.seeded(mutate) if f.rule == "multiply-driven"]
        assert len(findings) == 1 and findings[0].severity == "error"

    def test_dead_input_port(self):
        def mutate(m):
            m.add_input("unused_in", 8)

        findings = [f for f in self.seeded(mutate) if f.rule == "dead-input"]
        assert [f.location for f in findings] == ["unused_in"]
        assert findings[0].severity == "warning"

    def test_width_finding_without_raising(self):
        def mutate(m):
            m.comb.append(("narrowed", HOp("zext", (HRef("slot", 2),), 1)))

        findings = [f for f in self.seeded(mutate) if f.rule == "width"]
        assert len(findings) == 1 and "extensions must widen" in findings[0].message

    def test_unreachable_state(self):
        source = """
        state main : L = {
            goto main;
        }
        state orphan : L = {
            goto main;
        }
        """
        design = compile_source(source, name="orphaned")
        findings = [
            f for f in analyze_design(design).findings if f.rule == "unreachable-state"
        ]
        assert [f.location for f in findings] == ["orphan"]

    def test_unused_level_closed_world(self):
        source = """
        input[7:0] a : L;
        output[7:0] o : L;
        state main : L = {
            o := a;
            goto main;
        }
        """
        design = compile_source(source, name="low_only")
        findings = [
            f for f in analyze_design(design).findings if f.rule == "unused-level"
        ]
        assert [f.location for f in findings] == ["H"]

    def test_unreachable_level_diamond(self):
        source = """
        input[7:0] a : L;
        output[7:0] o : L;
        reg[7:0] r : M1;
        state main : L = {
            r := a;
            o := a;
            goto main;
        }
        """
        design = compile_source(source, name="half_diamond", lattice=diamond())
        report = analyze_design(design)
        unreachable = [f for f in report.findings if f.rule == "unreachable-level"]
        assert {f.location for f in unreachable} == {"M2", "H"}

    def test_dynamic_tag_port_opens_the_world(self):
        """A design with a dynamic tag input can be handed any level:
        no unreachable-level findings."""
        design = compile_source(samples.ADDER_TRACK, name="adder")
        assert any(n.endswith("__tag") for n in design.module.inputs)
        report = analyze_design(design)
        assert not [f for f in report.findings if f.rule == "unreachable-level"]


# -- width discipline: Module.validate rejects, the checker reports -----------


class TestWidthValidate:
    def build(self, expr) -> Module:
        m = Module("width_case")
        m.add_input("a", 8)
        m.assign("y", expr)
        m.set_output("y", HRef("y", expr.width))
        return m

    @pytest.mark.parametrize(
        "expr, pattern",
        [
            (HOp("shr", (HRef("a", 8), HRef("a", 8)), 4), "wider"),
            (HOp("mod", (HRef("a", 8), HRef("a", 8)), 4), "wider"),
            (HOp("zext", (HRef("a", 8),), 4), "extensions must widen"),
            (HOp("sext", (HRef("a", 8),), 4), "extensions must widen"),
            (HOp("cat", (HRef("a", 8), HRef("a", 8)), 12), "bits of parts"),
            (HOp("slice", (HRef("a", 8),), 2, hi=4, lo=2), "inconsistent"),
            (HOp("slice", (HRef("a", 8),), 2, hi=1, lo=2), "inconsistent"),
            (HOp("eq", (HRef("a", 8), HRef("a", 8)), 8), "boolean operator"),
        ],
    )
    def test_validate_rejects(self, expr, pattern):
        m = self.build(expr)
        with pytest.raises(ValueError, match=pattern):
            m.validate()
        report = analyze_module(m)
        assert any(f.rule == "width" for f in report.findings)

    def test_read_width_must_match_array(self):
        m = Module("width_read")
        m.add_input("a", 8)
        m.add_array("buf", 8, 16)
        m.assign("y", HOp("read", (HRef("a", 8),), 4, array="buf"))
        m.set_output("y", HRef("y", 4))
        with pytest.raises(ValueError, match="word width"):
            m.validate()

    def test_write_port_data_must_fit_words(self):
        m = Module("width_write")
        m.add_input("a", 8)
        m.add_array("buf", 4, 16)
        m.write_array("buf", HConst(0, 4), HRef("a", 8), HConst(1, 1))
        with pytest.raises(ValueError, match="4-bit words"):
            m.validate()

    def test_write_port_undefined_ref_rejected(self):
        m = Module("width_write_ghost")
        m.add_array("buf", 8, 16)
        m.write_array("buf", HConst(0, 4), HRef("ghost", 8), HConst(1, 1))
        with pytest.raises(ValueError, match="undefined"):
            m.validate()

    def test_all_samples_still_validate(self):
        for name, source in SAMPLES.items():
            for secure in (True, False):
                compile_source(source, secure=secure, name=name).module.validate()


# -- toolchain + CLI + server wiring ------------------------------------------


class TestToolchainWiring:
    def test_analyze_design_is_cached(self):
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tdma")
        first = tc.analyze(design)
        again = tc.analyze(design)
        assert first is again
        counters = tc.counter_snapshot()
        assert counters.get("miss:check") == 1
        assert counters.get("hit:check") == 1

    def test_analyze_persists_across_toolchains(self, tmp_path):
        from repro.store import ArtifactStore

        tc1 = Toolchain(store=ArtifactStore(tmp_path))
        design1 = tc1.compile(samples.TDMA, two_level(), name="tdma")
        report1 = tc1.analyze(design1)

        tc2 = Toolchain(store=ArtifactStore(tmp_path))
        design2 = tc2.compile(samples.TDMA, two_level(), name="tdma")
        report2 = tc2.analyze(design2)
        assert tc2.counter_snapshot().get("store_hit:check") == 1
        assert report2.to_json() == report1.to_json()

    def test_analyze_plain_module(self):
        m = Module("plain")
        a = m.add_input("a", 8)
        y = m.fresh(HOp("add", (a, a), 8), "y")
        m.set_output("y", y)
        report = Toolchain().analyze(m)
        assert report.ok and report.certificate.stats["tainted_signals"] == 0

    def test_analyze_legacy_front_end_path(self):
        info = Toolchain().analyze(samples.TDMA, two_level())
        assert hasattr(info, "states")

    def test_analyze_source_without_lattice_is_a_type_error(self):
        with pytest.raises(TypeError, match="lattice"):
            Toolchain().analyze(samples.TDMA)


class TestCheckCommand:
    @pytest.fixture
    def tdma_path(self, tmp_path):
        path = tmp_path / "tdma.sapper"
        path.write_text(samples.TDMA)
        return str(path)

    def test_clean_design_exits_zero(self, tdma_path, capsys):
        from repro.cli import main

        assert main(["check", tdma_path]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out and "statically tainted" in out

    def test_json_format(self, tdma_path, capsys):
        from repro.cli import main

        assert main(["check", tdma_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["taint"]["pruned_signals"] > 0

    def test_seeded_comb_loop_exits_nonzero_naming_the_cycle(self, tdma_path, capsys):
        from repro.cli import main

        assert main(["check", tdma_path, "--seed-defect", "comb-loop"]) == 1
        out = capsys.readouterr().out
        assert "comb-loop" in out
        assert "seeded_loop_a -> seeded_loop_b" in out or (
            "seeded_loop_b -> seeded_loop_a" in out
        )

    def test_compile_error_still_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.sapper"
        bad.write_text("state main (L) {")
        assert main(["check", str(bad)]) == 1


class TestServerCheckOp:
    def test_check_op_reports_json(self, tmp_path):
        import asyncio

        from repro.server import ReproServer

        path = tmp_path / "tdma.sapper"
        path.write_text(samples.TDMA)
        server = ReproServer(max_workers=2)
        resp = asyncio.run(
            server.handle_request(
                {"id": 1, "op": "check", "source_path": str(path), "name": "tdma"}
            )
        )
        assert resp["ok"], resp
        result = resp["result"]
        assert result["ok"] is True and result["module"] == "tdma"
        assert result["taint"]["pruned_signals"] > 0
