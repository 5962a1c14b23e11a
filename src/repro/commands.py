"""One implementation of every toolchain op, shared by all front doors.

Each op is a function ``(Toolchain, Request) -> Result`` over frozen
dataclasses: :func:`compile`, :func:`verilog`, :func:`synth`,
:func:`stats`, :func:`check` and :func:`simulate`.  The CLI turns
arguments into a request and renders the result as text; the server
turns a JSON object into the same request and answers
``result.to_json()``; fleet workers step their lane slices through
:func:`run_lanes`.  So one request gets one answer from every door,
and requests validate their own fields (:class:`RequestError` names
the field at fault).
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.analyze import analyze_design
from repro.hdl.batch import LaneOutputs, set_bits
from repro.hdl.ir import HRef
from repro.hdl.passes import run_pipeline
from repro.lattice import Lattice, diamond, from_order, powerset, two_level
from repro.sapper.compiler import CompiledDesign
from repro.toolchain import BATCH_ENGINES, Toolchain, auto_engine


class RequestError(ValueError):
    """A malformed or unserviceable request (reported, never fatal)."""


def proc_powerset(tags: tuple[str, ...] = ("u", "k")) -> Lattice:
    """The powerset lattice over *tags* with its bottom renamed ``L``,
    so the generated processor (whose boot/reset annotations are pinned
    to the low label ``L``) compiles against it unchanged."""
    base = powerset(tags)
    rename = {"{}": "L"}
    elements = [rename.get(e, e) for e in base.elements]
    pairs = [
        (rename.get(a, a), rename.get(b, b))
        for a in base.elements
        for b in base.elements
        if a != b and base.leq(a, b)
    ]
    return from_order(elements, pairs)


#: Lattices a request may name.
LATTICES = {"two": two_level, "diamond": diamond, "powerset": proc_powerset}

ENGINES = ("auto", "scalar", *BATCH_ENGINES)
SEED_DEFECTS = ("comb-loop",)


def check_type(name: str, value: Any, kind: type) -> None:
    """Raise :class:`RequestError` unless field *name* is a *kind*."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise RequestError(f"field {name!r} must be {kind.__name__}, got {value!r}")


# ------------------------------------------------------------- requests


@dataclass(frozen=True)
class DesignRequest:
    """A design to build: Sapper source text and how to compile it
    (the toolchain's ``opt_level`` says whether to optimize it)."""

    source: str
    lattice: str = "two"
    secure: bool = True
    name: str = "design"

    def __post_init__(self) -> None:
        check_type("source", self.source, str)
        check_type("lattice", self.lattice, str)
        if self.lattice not in LATTICES:
            raise RequestError(
                f"unknown lattice {self.lattice!r}; known: {', '.join(sorted(LATTICES))}"
            )
        check_type("secure", self.secure, bool)
        check_type("name", self.name, str)


@dataclass(frozen=True)
class CheckRequest(DesignRequest):
    """:func:`check`; *seed_defect* injects a known defect first."""

    seed_defect: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.seed_defect not in (None, *SEED_DEFECTS):
            raise RequestError(
                f"unknown seed_defect {self.seed_defect!r}; known: {', '.join(SEED_DEFECTS)}"
            )


@dataclass(frozen=True)
class SimulateRequest(DesignRequest):
    """:func:`simulate`: *cycles* steps of *lanes* independent machine
    states.  *inputs* maps a port to one value for every lane, or to a
    per-lane list.  *engine* is ``auto``, ``scalar`` (one lane only) or
    a batched engine; *compact* retires halted lanes; *shards* > 1
    splits the lanes across fleet worker processes."""

    cycles: int = 32
    lanes: int = 1
    inputs: dict[str, int | list[int]] = field(default_factory=dict)
    engine: str = "auto"
    compact: bool = True
    shards: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("cycles", "lanes", "shards"):
            value = getattr(self, name)
            check_type(name, value, int)
            if value < 1:
                raise RequestError(f"field {name!r} must be >= 1, got {value}")
        check_type("compact", self.compact, bool)
        if not isinstance(self.inputs, dict):
            raise RequestError("field 'inputs' must be an object of port drives")
        if self.engine not in ENGINES:
            raise RequestError(f"unknown engine {self.engine!r}; known: {', '.join(ENGINES)}")
        if self.resolved_engine == "scalar":
            if self.lanes > 1:
                raise RequestError(
                    f"engine 'scalar' supports 1 lane only (got {self.lanes}); "
                    f"use {' or '.join(BATCH_ENGINES)}"
                )
            if any(isinstance(v, list) for v in self.inputs.values()):
                raise RequestError(
                    "per-lane input lists need the batched engine; set more than 1 lane"
                )
            if self.shards > 1:
                raise RequestError("sharding needs the batched engine; set more than 1 lane")
        for port, value in self.inputs.items():
            values = value if isinstance(value, list) and value else [value]
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
                raise RequestError(
                    f"input {port!r} must be an integer or a per-lane integer list"
                )
            if isinstance(value, list) and len(value) != self.lanes:
                raise RequestError(
                    f"input {port!r} drives {len(value)} lanes but 'lanes' is {self.lanes}"
                )

    @property
    def resolved_engine(self) -> str:
        """The engine that runs: ``auto`` is scalar at one lane, else
        :func:`~repro.toolchain.auto_engine`."""
        if self.engine != "auto":
            return self.engine
        return "scalar" if self.lanes == 1 else auto_engine(self.lanes)

    def lane_stimulus(self) -> list[dict[str, int]] | None:
        """Per-lane input dicts when any port carries a per-lane list."""
        if not any(isinstance(v, list) for v in self.inputs.values()):
            return None
        return [
            {port: (value[lane] if isinstance(value, list) else value)
             for port, value in self.inputs.items()}
            for lane in range(self.lanes)
        ]


# -------------------------------------------------------------- results


class _Result:
    def to_json(self) -> dict[str, Any]:
        """The result as the server answers it."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CompileResult(_Result):
    name: str
    key: str
    signals: int
    regs: int
    inputs: dict[str, int]
    outputs: list[str]


@dataclass(frozen=True)
class VerilogResult(_Result):
    key: str
    verilog: str


@dataclass(frozen=True)
class SynthResult(_Result):
    key: str
    name: str
    summary: dict[str, float]
    cells: dict[str, int]


@dataclass(frozen=True)
class StatsResult(_Result):
    """What each optimization pass did (*passes*: one dict per step)."""

    key: str
    module: str
    signals_before: int
    signals_after: int
    passes: list[dict[str, Any]]
    sweeps: int


@dataclass(frozen=True)
class CheckResult(_Result):
    key: str
    report: Any  # repro.analyze.AnalysisReport

    def to_json(self) -> dict[str, Any]:
        return {"key": self.key, **self.report.to_json()}


@dataclass(frozen=True)
class SimulateResult(_Result):
    """The scalar engine reports *violations* as one count and
    *outputs* as one dict; batched engines report one of each per
    original lane.  *cycles* counts steps (fewer than requested once
    every lane halted); *active_lanes* is the batch width when the run
    stopped, summed over slices when sharded; *fleet* holds the merged
    fleet counters of a sharded run."""

    key: str
    cycles: int
    lanes: int
    violations: int | list[int]
    outputs: dict[str, int] | list[dict[str, int]]
    lane_cycles: int
    active_lanes: int
    fleet: dict[str, Any] | None = None


# ----------------------------------------------------------- the ops


def _key(tc: Toolchain, design: CompiledDesign) -> str:
    """A digest of *design*'s build: the toolchain's structural key of
    the compile at the toolchain's opt level."""
    build = (design._structural_key, tc.opt_level)
    return hashlib.sha256(repr(build).encode()).hexdigest()


def compile_design(tc: Toolchain, req: DesignRequest) -> CompiledDesign:
    """The requested design, through the toolchain caches."""
    return tc.compile(req.source, LATTICES[req.lattice](), secure=req.secure, name=req.name)


def compile(tc: Toolchain, req: DesignRequest) -> CompileResult:
    """The built module's shape."""
    design = compile_design(tc, req)
    module = tc.optimize(design)
    return CompileResult(
        name=design.name,
        key=_key(tc, design),
        signals=len(module.comb),
        regs=len(module.regs),
        inputs=dict(module.inputs),
        outputs=sorted(module.outputs),
    )


def verilog(tc: Toolchain, req: DesignRequest) -> VerilogResult:
    design = compile_design(tc, req)
    return VerilogResult(key=_key(tc, design), verilog=tc.verilog(design))


def synth(tc: Toolchain, req: DesignRequest) -> SynthResult:
    """Gate census, area, delay and power."""
    design = compile_design(tc, req)
    rpt = tc.synthesize(design)
    return SynthResult(
        key=_key(tc, design),
        name=rpt.name,
        summary=rpt.summary(),
        cells={cell: getattr(rpt.counts, cell) for cell in ("and2", "or2", "xor2", "inv", "dff")},
    )


def stats(tc: Toolchain, req: DesignRequest) -> StatsResult:
    """Run the pass pipeline on the raw module and report each step."""
    design = compile_design(tc, req)
    result = run_pipeline(design.module)
    return StatsResult(
        key=_key(tc, design),
        module=design.module.name,
        signals_before=len(design.module.comb),
        signals_after=len(result.module.comb),
        passes=[dataclasses.asdict(stat) for stat in result.stats],
        sweeps=result.sweeps,
    )


def check(tc: Toolchain, req: CheckRequest) -> CheckResult:
    """Design lint plus the information-flow taint certificate."""
    design = compile_design(tc, req)
    if req.seed_defect == "comb-loop":
        # analyze a mutated copy directly, so the broken report never
        # lands in the cache or store under the clean design's key
        loop = [
            ("seeded_loop_a", HRef("seeded_loop_b", 1)),
            ("seeded_loop_b", HRef("seeded_loop_a", 1)),
        ]
        module = dataclasses.replace(design.module, comb=[*design.module.comb, *loop])
        report = analyze_design(dataclasses.replace(design, module=module))
    else:
        report = tc.analyze(design)
    return CheckResult(key=_key(tc, design), report=report)


@dataclass(frozen=True)
class LaneRun:
    """What :func:`run_lanes` saw, per original lane id."""

    violations: list[int]
    final: list[dict[str, int]]
    steps: int
    lane_cycles: int
    active_lanes: int


def run_lanes(
    sim,
    cycles: int,
    inputs: dict[str, int],
    lane_stim: list[dict[str, int]] | None = None,
    compact: bool = True,
    on_step: Callable[[int, LaneOutputs], None] | None = None,
) -> LaneRun:
    """Step a batched simulator for up to *cycles* cycles, calling
    ``on_step(cycle, outputs)`` after each step.

    Counts violation cycles and keeps the final outputs per original
    lane.  With *compact*, lanes whose ``halted`` output fires are
    retired from the batch (their *lane_stim* entries with them), and
    the run stops once every remaining lane halts.
    """
    violations = [0] * sim.lanes
    last: list = [(None, 0)] * sim.lanes  # lane -> (its last step's outputs, position)
    stim = list(lane_stim) if lane_stim is not None else None
    outs, lanes = None, sim.active_lanes
    for cycle in range(cycles):
        outs = sim.step(stim if stim is not None else inputs)
        lanes = sim.active_lanes
        for pos in set_bits(outs.word("violation")):
            violations[lanes[pos]] += 1
        if on_step is not None:
            on_step(cycle, outs)
        halted = outs.word("halted") if compact else 0
        if halted == (1 << sim.lanes) - 1:
            break  # every lane halted; nothing left to simulate
        if halted:
            retire = list(set_bits(halted))
            for pos in retire:
                last[lanes[pos]] = (outs, pos)
            sim.compact(retire)
            if stim is not None:  # keep stimulus lane-aligned
                stim = [d for pos, d in enumerate(stim) if not halted >> pos & 1]
    for pos, lane in enumerate(lanes):
        last[lane] = (outs, pos)
    final = [{} if got is None else got[pos] for got, pos in last]
    return LaneRun(violations, final, sim.cycles, sim.lane_cycles, sim.lanes)


def simulate(tc: Toolchain, req: SimulateRequest, on_step=None) -> SimulateResult:
    """Run the cycle-accurate simulator; *on_step* (as in
    :func:`run_lanes`) sees every step of an in-process run (sharded
    runs step inside the workers)."""
    from repro.hdl import vector

    engine = req.resolved_engine
    if engine == "vector" and not vector.HAVE_NUMPY:
        raise RequestError(vector._NUMPY_HINT)
    if engine == "scalar":
        design = compile_design(tc, req)
        sim = tc.simulator(design)
        violations = 0
        out: dict[str, int] = {}
        for cycle in range(req.cycles):
            out = sim.step(req.inputs)
            violations += int(bool(out.get("violation", 0)))
            if on_step is not None:
                on_step(cycle, [out])
        return SimulateResult(_key(tc, design), sim.cycles, 1, violations, out, sim.cycles, 1)
    fleet = None
    if req.shards > 1:
        from repro.fleet import simulate_sharded

        if not tc.opt_level:
            raise RequestError("sharded runs share fully optimized artifacts; drop no-opt")
        # the fleet parent compiles into the store its workers share
        design, run, fleet_stats = simulate_sharded(req, store=tc.store)
        fleet = fleet_stats.merged()
    else:
        design = compile_design(tc, req)
        sim = tc.batch_simulator(design, req.lanes, engine=req.engine)
        run = run_lanes(sim, req.cycles, req.inputs, req.lane_stimulus(), req.compact, on_step)
    return SimulateResult(
        _key(tc, design), run.steps, req.lanes, run.violations, run.final,
        run.lane_cycles, run.active_lanes, fleet,
    )
