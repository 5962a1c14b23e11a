"""Design-lint rules over the signal graph (the ``repro check`` engine).

Each rule yields :class:`AnalysisFinding` records with a stable rule id,
a severity, and a location; :class:`AnalysisReport` aggregates them with
the module's :class:`~repro.analyze.taint.TaintCertificate` and renders
as text or JSON.  Severity ``error`` marks IR that a backend would
miscompile or hang on (``repro check`` exits nonzero); ``warning`` and
``info`` mark dead or unused structure that costs area and audit effort
but simulates fine.

:func:`analyze_module` runs the IR-level rules on any module;
:func:`analyze_design` adds the Sapper-level rules (unreachable FSM
states against the :class:`~repro.sapper.analysis.ProgramInfo` state
tree, unused and unproducible lattice levels against the design's
:class:`~repro.lattice.Lattice`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.analyze.graph import SignalGraph, build_graph
from repro.analyze.taint import TaintCertificate, compute_taint, default_taint_sources
from repro.hdl.ir import HOp, Module, op_width_issue

if TYPE_CHECKING:
    from repro.sapper.compiler import CompiledDesign

SEVERITIES = ("error", "warning", "info")

#: Bump when rules or report/certificate shapes change: persisted
#: analysis artifacts key on this, so stale store entries never resurface.
ANALYSIS_VERSION = 1


@dataclass(frozen=True)
class AnalysisFinding:
    """One lint diagnostic: ``[severity] rule @ location: message``."""

    rule: str
    severity: str
    location: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def render(self) -> str:
        return f"[{self.severity}] {self.rule} @ {self.location}: {self.message}"


@dataclass
class AnalysisReport:
    """All findings for one module, plus its taint certificate."""

    module_name: str
    findings: list[AnalysisFinding] = field(default_factory=list)
    certificate: TaintCertificate | None = None

    @property
    def errors(self) -> list[AnalysisFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding is present."""
        return not self.errors

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(SEVERITIES, 0)
        for f in self.findings:
            out[f.severity] += 1
        return out

    def to_json(self) -> dict:
        out: dict = {
            "module": self.module_name,
            "ok": self.ok,
            "counts": self.counts(),
            "findings": [
                {
                    "rule": f.rule,
                    "severity": f.severity,
                    "location": f.location,
                    "message": f.message,
                }
                for f in self.findings
            ],
        }
        if self.certificate is not None:
            out["taint"] = {
                "sources": list(self.certificate.sources),
                **self.certificate.stats,
            }
        return out

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        counts = self.counts()
        summary = (
            f"{self.module_name}: {counts['error']} error(s), "
            f"{counts['warning']} warning(s), {counts['info']} info"
        )
        if self.certificate is not None:
            stats = self.certificate.stats
            summary += (
                f"; taint: {stats['tainted_signals']}/{stats['signals']} signals "
                f"statically tainted ({stats['prune_ratio']:.0%} of shadow state prunable)"
            )
        lines.append(summary)
        return "\n".join(lines)


# -- IR-level rules ------------------------------------------------------------


def _rule_comb_loops(graph: SignalGraph) -> Iterable[AnalysisFinding]:
    for cycle in graph.comb_cycles():
        path = " -> ".join([*cycle, cycle[0]])
        yield AnalysisFinding(
            "comb-loop",
            "error",
            cycle[0],
            f"combinational cycle of {len(cycle)} signal(s): {path}",
        )


def _rule_driven(module: Module, graph: SignalGraph) -> Iterable[AnalysisFinding]:
    undefined = sorted(n for n, k in graph.kinds.items() if k == "undefined")
    for name in undefined:
        readers = sorted({dst for dst, _ in graph.succs.get(name, ())})
        yield AnalysisFinding(
            "undriven-signal",
            "error",
            name,
            f"referenced by {', '.join(readers)} but never driven",
        )
    defined = set(module.inputs) | set(module.regs) | {n for n, _ in module.comb}
    for port, sig in module.outputs.items():
        if sig not in defined:
            yield AnalysisFinding(
                "undriven-signal", "error", port, f"output driven by undefined {sig!r}"
            )
    for reg, sig in module.reg_next.items():
        if sig not in defined:
            yield AnalysisFinding(
                "undriven-signal", "error", reg, f"register loads undefined {sig!r}"
            )
    for reg in module.regs:
        if reg not in module.reg_next:
            yield AnalysisFinding(
                "undriven-signal", "error", reg, "register has no next-value signal"
            )

    seen = set(module.inputs) | set(module.regs)
    for name, _ in module.comb:
        if name in seen:
            kind = (
                "an input" if name in module.inputs
                else "a register" if name in module.regs
                else "an earlier assignment"
            )
            yield AnalysisFinding(
                "multiply-driven", "error", name, f"combinational signal shadows {kind}"
            )
        seen.add(name)


def _rule_dead_inputs(module: Module, graph: SignalGraph) -> Iterable[AnalysisFinding]:
    driven_ports = set(module.outputs.values()) | set(module.reg_next.values())
    for name in module.inputs:
        if not graph.succs.get(name) and name not in driven_ports:
            yield AnalysisFinding(
                "dead-input", "warning", name, "input port is never read"
            )


def _rule_widths(module: Module) -> Iterable[AnalysisFinding]:
    def check(owner: str, expr) -> Iterable[AnalysisFinding]:
        for node in expr.walk():
            if isinstance(node, HOp):
                issue = op_width_issue(node, module.arrays)
                if issue:
                    yield AnalysisFinding("width", "error", owner, issue)

    for name, expr in module.comb:
        yield from check(name, expr)
    for wr in module.array_writes:
        owner = f"write:{wr.array}"
        for expr in (wr.addr, wr.data, wr.enable):
            yield from check(owner, expr)
        arr = module.arrays.get(wr.array)
        if arr is not None and wr.data.width > arr.width:
            yield AnalysisFinding(
                "width",
                "error",
                owner,
                f"stores {wr.data.width}-bit data into {arr.width}-bit words",
            )


def analyze_module(
    module: Module, sources: Iterable[str] = ()
) -> AnalysisReport:
    """Run every IR-level lint rule plus the taint fixpoint on *module*.

    Unlike :meth:`Module.validate` this never raises on broken IR --
    each defect becomes an error-severity finding, and *all* of them
    are reported, not just the first.
    """
    graph = build_graph(module)
    report = AnalysisReport(module_name=module.name)
    report.findings.extend(_rule_comb_loops(graph))
    report.findings.extend(_rule_driven(module, graph))
    report.findings.extend(_rule_dead_inputs(module, graph))
    report.findings.extend(_rule_widths(module))
    report.certificate = compute_taint(module, sources, graph)
    return report


# -- Sapper design-level rules -------------------------------------------------


def _rule_unreachable_states(design: CompiledDesign) -> Iterable[AnalysisFinding]:
    """States the FSM can never enter.

    Reachability fixpoint over the state tree: the implicit root is
    reachable; a reachable state that ``fall``s schedules its default
    child; every ``goto`` inside a reachable state schedules its target
    (gotos also retarget the parent's fall map, but only to states that
    are goto-reachable anyway, so this closure is exact).
    """
    from repro.sapper import ast

    info = design.info
    reachable = {ast.ROOT}
    frontier = [ast.ROOT]
    while frontier:
        state = frontier.pop()
        body = info.states[state].body
        targets = set()
        for cmd in body.walk():
            if isinstance(cmd, ast.Fall):
                child = info.default_child.get(state)
                if child is not None:
                    targets.add(child)
            elif isinstance(cmd, ast.Goto):
                targets.add(cmd.target)
        for target in targets:
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    for name in sorted(info.states):
        if name not in reachable:
            yield AnalysisFinding(
                "unreachable-state",
                "warning",
                name,
                "state is neither the initial fall target nor any goto target",
            )


def _has_tag_from_bits(te) -> bool:
    from repro.sapper import ast

    if isinstance(te, ast.TagFromBits):
        return True
    if isinstance(te, ast.TagJoin):
        return _has_tag_from_bits(te.left) or _has_tag_from_bits(te.right)
    return False


def _rule_lattice_levels(design: CompiledDesign) -> Iterable[AnalysisFinding]:
    """Lattice levels the design never mentions or can never produce.

    A level outside the join closure of the levels the design can
    introduce can never appear as a dynamic tag, so every flow rule
    involving it never fires -- the policy is wider than the design.
    Designs with a dynamic tag input port (``name__tag``) or a
    bits-to-tag conversion can be handed *any* level from outside, so
    every level counts as producible there.
    """
    from repro.sapper import ast

    lattice = design.lattice
    used = design.info.labels_used() & set(lattice.elements)
    for level in lattice.elements:
        if level not in used and level != lattice.bottom:
            yield AnalysisFinding(
                "unused-level",
                "warning",
                level,
                "lattice level is never mentioned by the design",
            )
    open_world = any(name.endswith("__tag") for name in design.module.inputs) or any(
        isinstance(cmd, ast.SetTag) and _has_tag_from_bits(cmd.tag)
        for state in design.info.states.values()
        for cmd in state.body.walk()
    )
    producible = set(lattice.elements) if open_world else set(used) | {lattice.bottom}
    changed = True
    while changed:
        changed = False
        for a in tuple(producible):
            for b in tuple(producible):
                j = lattice.join(a, b)
                if j not in producible:
                    producible.add(j)
                    changed = True
    for level in lattice.elements:
        if level not in producible:
            yield AnalysisFinding(
                "unreachable-level",
                "info",
                level,
                "no tag computation can produce this level; "
                "flow rules involving it never fire",
            )


def analyze_design(
    design: CompiledDesign, sources: Iterable[str] | None = None
) -> AnalysisReport:
    """IR rules plus the Sapper-level rules on a compiled design.

    Taint sources default to
    :func:`~repro.analyze.taint.default_taint_sources` (the design's
    dynamic tag ports and its above-bottom-labelled inputs).
    """
    if sources is None:
        sources = default_taint_sources(design)
    report = analyze_module(design.module, sources)
    report.findings.extend(_rule_unreachable_states(design))
    report.findings.extend(_rule_lattice_levels(design))
    return report
