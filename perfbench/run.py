"""End-to-end benchmark of the Sapper toolchain and its secure processor.

Run from the repository root::

    python3 perfbench/run.py --workload sec43-mix --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --all --seed 1

One run sets up, measures one workload for ``--seconds`` seconds, checks
every output against an independent reference, and prints one JSON line
last: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run records spans around its calls into the toolchain's public
functions and reports the per-layer metrics instead, plus the share of
timed wall time outside every layer span and the tracing overhead
against an untraced segment of the same run; the Chrome trace lands in
``perfbench/out/``.  ``--all`` runs every workload in a fresh
interpreter, prints the end-to-end table and rewrites ``BENCHMARK.json``
from the definitions below and the facts the runs report.

Every run starts with the same set-up, the build flow of ``repro
simulate --lanes N`` at the workload's lane width: the generated
secure-processor source (~40 KB of Sapper) goes cold through a fresh
``Toolchain`` -- parse, analyze, compile, optimize, batched codegen --
to the first step's result (``cold_start_s``), and a fresh ``Toolchain``
over a store populated beforehand does the same warm
(``warm_start_s``); a third fresh ``Toolchain`` takes the source to the
static analyzer's verdict (``check_s``), and the Fig. 9 area ratio
(``area_overhead``) comes from the cold build.  Then the workload's own
inputs are generated from the seed and one warm-up unit visits every
compiled width before the timed units.  One more cold and warm build,
and a check every ``CHECK_GAP`` seconds, are taken between and after
the timed units (see ``Run.probe``).  Each time is reported as the median of its
samples, each scaled to the reference host speed (see ``Run.adjust``).
The load comes from this one process; ``fleet-sweep`` adds its two
worker processes.
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()  # set-up time counts from interpreter start-up

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from spans import Tracer  # noqa: E402

try:
    from repro.fleet import FleetRunner
    from repro.hdl import Simulator
    from repro.hdl.passes import run_pipeline
    from repro.hdl.vector import VectorSimulator
    from repro.kernel import build_kernel_image
    from repro.kernel.image import H_CODE_REGION, H_REGION
    from repro.lattice import encode, two_level
    from repro.mips.assembler import assemble
    from repro.proc.design import ProcParams, generate_design
    from repro.proc.machine import BatchedMachines
    from repro.store import ArtifactStore
    from repro.toolchain import Toolchain, set_toolchain
    from repro.workloads import ALL_WORKLOADS
except ImportError as exc:  # reported by main(), which then exits non-zero
    IMPORT_ERROR: ImportError | None = exc
else:
    IMPORT_ERROR = None
    LATTICE = two_level()
    # compile_processor()'s default configuration: the simulation
    # workloads' machines then reuse the set-up's compiled design
    PARAMS = ProcParams(mem_words=1 << 24, kernel_vector=0x400)

RUN_SECONDS = 6
NAME = "sapper_mips"
BUILD_SAMPLES = 2  # cold and warm builds: one in set-up, one after the timed units
CHECK_GAP = 2.0  # least wall seconds between check samples in the timed phase
MIN_UNITS = 1  # timed units per segment, however long one unit takes
REFERENCE_LOOPS = 4  # loops per reference reading (~26 ms on a quiet host)
READING_GAP = 0.3  # seconds between reference readings inside a sample
#: seconds of one reference loop on the quiet 2-CPU host the benchmark
#: was tuned on: every reported time is scaled to that host speed
REFERENCE_S = 0.0065
LOCKSTEP_CYCLES = 32  # ``repro simulate``'s default cycle count
MIX_LANES = 64
KERNEL_LANES = 64
KERNEL_BUDGET = 400_000
L_RESULT = sum(range(1, 31))  # the kernel's L process sums 1..30
FLEET_WORKLOADS = 1024
FLEET_DISTINCT = 16
FLEET_SHARDS = 2
FLEET_LANES = 256
FLEET_BUDGET = 600
FLEET_ITERS = 20

LANES = {"sec43-mix": MIX_LANES, "ni-kernel": KERNEL_LANES, "fleet-sweep": FLEET_LANES}

#: why each workload is in the benchmark; the facts are filled in by --all
WHY = {
    "sec43-mix": "Seeded lane order of a fixed mix of the six sec-4.3 programs on {lanes} lanes: "
    "divergent control, scalar fallback, compaction and harness carry the time "
    "(auto engine {engine}; nproc {nproc})",
    "ni-kernel": "Sec-4.4 L/H micro-kernel on {lanes} lockstep tag-checked lanes with distinct "
    "seeded H data, no compaction: the step regime sec43-mix lacks "
    "(auto engine {engine}; nproc {nproc})",
    "fleet-sweep": "1024 uniform loop programs through one persistent 2-shard fleet; its set-up "
    "is the repro simulate --lanes {lanes} build flow (auto engine {engine}; nproc {nproc})",
}

END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cold_start_s", "s", "lower", 0.25),
    ("warm_start_s", "s", "lower", 0.25),
    ("check_s", "s", "lower", 0.25),
    ("lane_cycles_per_s", "1/s", "higher", 0.25),
    ("simulated_cycles", "count", "lower", 0.01),
    ("area_overhead", "ratio", "lower", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

PASS_NAMES = ("constfold", "narrow", "simplify", "cse", "dce")

#: span name -> per-layer metric, per cold build
BUILD_SPANS = {
    "sapper.parser.parse": "sapper.parser.parse_s",
    "sapper.analysis.analyze": "sapper.analysis.analyze_s",
    "sapper.compiler.compile": "sapper.compiler.compile_s",
    "hdl.passes.optimize": "hdl.passes.optimize_s",
    "hdl.codegen.construct": "hdl.codegen.construct_s",
    "hdl.codegen.first_step": "hdl.codegen.first_step_s",
}
#: span name -> per-layer metric, per traced timed pass
UNIT_SPANS = {
    "hdl.step": "hdl.step.step_s",
    "hdl.step.compact": "hdl.step.compact_s",
    "proc.machine.run": "proc.machine.harness_s",
    "fleet.run": "fleet.run_s",
}

PER_LAYER = [
    *[(metric, "s", "lower") for metric in list(BUILD_SPANS.values())[:4]],
    *[(f"hdl.passes.{p}_s", "s", "lower") for p in PASS_NAMES],
    ("hdl.passes.signals_after", "count", "lower"),
    ("analyze.check_s", "s", "lower"),
    ("analyze.pruned_signals", "count", "higher"),
    ("hdl.codegen.construct_s", "s", "lower"),
    ("hdl.codegen.first_step_s", "s", "lower"),
    ("hdl.codegen.tiers.p", "count", "higher"),
    ("hdl.codegen.tiers.w", "count", "higher"),
    ("hdl.codegen.tiers.v", "count", "higher"),
    ("hdl.codegen.tiers.s", "count", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.hits", "count", "higher"),
    ("store.misses", "count", "lower"),
    ("store.corrupt", "count", "lower"),
    ("hdl.step.step_s", "s", "lower"),
    ("hdl.step.uniform_steps", "count", "higher"),
    ("hdl.step.split_steps", "count", "higher"),
    ("hdl.step.generic_steps", "count", "lower"),
    ("hdl.step.compactions", "count", "lower"),
    ("hdl.step.compact_s", "s", "lower"),
    ("hdl.step.occupancy", "ratio", "higher"),
    ("proc.machine.harness_s", "s", "lower"),
    ("fleet.run_s", "s", "lower"),
    ("fleet.occupancy", "ratio", "higher"),
    ("fleet.requeues", "count", "lower"),
    ("fleet.deaths", "count", "lower"),
    ("fleet.fallback_tasks", "count", "lower"),
    ("fleet.worker_store_hits", "count", "higher"),
    ("mips.assembler.assemble_s", "s", "lower"),
    ("kernel.image.build_s", "s", "lower"),
    ("trace.untraced_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def reference() -> float:
    """Seconds of a fixed pure-Python loop that shares no code with the
    toolchain, the mean of ``REFERENCE_LOOPS`` runs: how fast the host
    runs this process right now."""
    t0 = perf_counter()
    for _ in range(REFERENCE_LOOPS):
        table: dict[int, int] = {}
        for i in range(40_000):
            table[i & 1023] = table.get(i & 1023, 0) + (i ^ (i >> 3))
    return (perf_counter() - t0) / REFERENCE_LOOPS


def engine_name(sim) -> str:
    """The batched engine ``engine="auto"`` picked for *sim*."""
    return "vector" if isinstance(sim, VectorSimulator) else "swar"


class Run:
    """One benchmark run: tracer, reference checks, collected numbers."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer(trace)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.facts: dict[str, object] = {"nproc": os.cpu_count()}
        self.untraced_units: list[float] = []
        self.traced_units: list[float] = []
        self.trace_mark = 0
        self.source = ""  # the processor's Sapper text, set by prepare()
        self.lanes = 0
        self.store_counters: dict[str, int] = {}
        self.cold_samples: list[float] = []
        self.warm_samples: list[float] = []
        self.check_samples: list[float] = []
        self.last_check = float("-inf")
        self.readings: list[float] = []  # reference() results, in order
        self.reading_s = 0.0  # wall seconds they took
        self.window: list[float] = []  # readings since the current sample began
        self.window_s = 0.0  # wall seconds of those taken inside the sample
        self.next_reading = 0.0  # perf_counter() due for one inside a sample
        OUT.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix=f"run-{workload}-", dir=OUT))

    def span(self, name: str):
        return self.tracer.span(name)

    def expect(self, ok: bool, what: str) -> None:
        """One reference check (``failed_frac`` = failed / attempted)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 8:
                self.notes.append(what)

    def reading(self) -> None:
        """One reference reading; set-up time excludes the time it takes."""
        t0 = perf_counter()
        seconds = reference()
        took = perf_counter() - t0
        self.readings.append(seconds)
        self.window.append(seconds)
        self.reading_s += took
        self.window_s += took
        self.next_reading = perf_counter() + READING_GAP

    def begin(self) -> None:
        """Open a sample: a reading just before it starts."""
        self.window = []
        self.reading()
        self.window_s = 0.0

    def tick(self) -> None:
        """Inside a sample, between calls into the toolchain: a reading
        once ``READING_GAP`` seconds passed since the last one, so the
        adjustment of a long sample follows the host through it."""
        if perf_counter() >= self.next_reading:
            with self.span("reference"):
                self.reading()

    def read_during(self, obj: object, method: str) -> None:
        """``tick`` before every call of ``obj.method``."""
        inner = getattr(obj, method)

        def call(*args, **kwargs):
            self.tick()
            return inner(*args, **kwargs)

        setattr(obj, method, call)

    def adjust(self, seconds: float) -> float:
        """*seconds* of the sample opened by ``begin``, less the readings
        taken inside it, at the reference host speed: scaled by
        ``REFERENCE_S`` over the mean of its readings and one taken now.

        Neighbours on a shared host only ever add time, and slow every
        process on a core alike: on the 2-CPU host this was tuned on, the
        reference loop and every timing ran 1.5-1.9x slower while they
        were busy, in spells from a fraction of a second to minutes.  In
        six fleet-sweep runs on that host, the median of the host-adjusted
        pass times spread 0.13 of its median across runs, the fastest raw
        pass time 0.36."""
        inside = self.window_s
        self.reading()
        return (seconds - inside) * REFERENCE_S / statistics.fmean(self.window)

    def setup_done(self) -> None:
        """``setup_s``: interpreter start to here, less the reference
        readings, at the reference host speed of the readings so far."""
        self.reading()
        wall = perf_counter() - _T0 - self.reading_s
        self.e2e["setup_s"] = wall * REFERENCE_S / statistics.fmean(self.readings)

    def measure(self, unit) -> None:
        """Call ``unit()`` (it returns its timed seconds) until units took
        the run's seconds and ``MIN_UNITS`` ran: all of it untraced, or
        with tracing half untraced and half traced, for the overhead
        comparison.  A probe before every unit and after the last takes
        the build and check samples, so they spread over the timed phase.
        """
        segments = [(False, self.untraced_units)]
        if self.trace:
            segments.append((True, self.traced_units))
        budget = self.seconds / len(segments)
        spent = 0.0
        for traced, samples in segments:
            self.tracer.enabled = traced
            self.trace_mark = len(self.tracer.spans)
            segment = 0.0
            while len(samples) < MIN_UNITS or segment < budget:
                self.probe((spent + segment) / self.seconds)
                gc.collect()
                self.begin()
                seconds = unit()
                segment += seconds
                samples.append(self.adjust(seconds))
            spent += segment
        self.tracer.enabled = self.trace
        self.probe(1.0)

    def probe(self, done: float) -> None:
        """The build sample due once *done* (share of the timed phase
        spent) passes the next of ``BUILD_SAMPLES - 1`` even steps, then
        a check sample if the last is ``CHECK_GAP`` seconds old: samples
        spread over the whole run, so their median does not hang on one
        busy spell of the host (see ``adjust``)."""
        due = 1 + min(int(done * (BUILD_SAMPLES - 1) + 1e-9), BUILD_SAMPLES - 1)
        if len(self.cold_samples) < due:
            build_sample(self)
        if perf_counter() - self.last_check >= CHECK_GAP:
            check_sample(self)


def timed_store(root: Path, tracer: Tracer) -> ArtifactStore:
    """An :class:`ArtifactStore` whose ``get``/``put`` calls are spanned."""
    store = ArtifactStore(root)
    tracer.wrap(store, "get", "store.get")
    tracer.wrap(store, "put", "store.put")
    return store


class Build:
    """The ``repro simulate --lanes N`` flow on a fresh Toolchain: source
    text to the first step's result (then *steady* untimed cycles)."""

    def __init__(self, run: Run, source: str, lanes: int, store=None, steady: int = 0):
        sp = run.span
        self.tc = tc = Toolchain(store=store)
        t0 = perf_counter()
        self.design = front_end(run, tc, source)
        run.tick()
        with sp("hdl.passes.optimize"):
            tc.optimize(self.design)
        run.tick()
        with sp("hdl.codegen.construct"):
            self.sim = sim = tc.batch_simulator(self.design, lanes, engine="auto")
        run.tick()
        with sp("hdl.codegen.first_step"):
            self.outs = [sim.step()]
        self.start_s = perf_counter() - t0
        for _ in range(steady):
            self.outs.append(sim.step())

    def lockstep(self, run: Run, label: str) -> None:
        """Every lane against a scalar Simulator on the raw compiled
        module, cycle by cycle, then the final registers."""
        ref = Simulator(self.design.module, optimize=False)
        wanted = [ref.step({}) for _ in self.outs]
        regs = dict(ref.regs)
        for lane in range(self.sim.lanes):
            ok = all(outs[lane] == want for outs, want in zip(self.outs, wanted))
            ok = ok and self.sim.lane_regs(lane) == regs
            run.expect(ok, f"{label}: lane {lane} diverged from the scalar simulator")


def front_end(run: Run, tc: Toolchain, source: str):
    """Source text to the compiled secure design on *tc*."""
    sp = run.span
    if tc.store is None:  # a warm start never reaches the front end
        with sp("sapper.parser.parse"):
            tc.parse(source, NAME)
        run.tick()
        with sp("sapper.analysis.analyze"):
            tc.analyze(source, LATTICE, NAME)
        run.tick()
    with sp("sapper.compiler.compile"):
        return tc.compile(source, LATTICE, secure=True, name=NAME)


def check_sample(run: Run):
    """Source text to the static analyzer's verdict on a fresh Toolchain;
    returns the report."""
    gc.collect()
    run.begin()
    with run.span("check"):
        tc = Toolchain()
        t0 = perf_counter()
        design = front_end(run, tc, run.source)
        run.tick()
        with run.span("analyze.check"):
            report = tc.analyze(design)
        seconds = perf_counter() - t0
    run.check_samples.append(run.adjust(seconds))
    run.last_check = perf_counter()
    run.expect(report.ok, "static analyzer reported error findings")
    return report


def populate(run: Run, source: str, root: Path) -> None:
    """Fill the artifact store the warm starts read."""
    with run.span("populate"):
        tc = Toolchain(store=timed_store(root, run.tracer))
        tc.optimize(tc.compile(source, LATTICE, secure=True, name=NAME))


def warm_build(run: Run, source: str, lanes: int, root: Path, steady: int = 0) -> Build:
    store = timed_store(root, run.tracer)
    with run.span("warm"):
        build = Build(run, source, lanes, store=store, steady=steady)
    counters = build.tc.counter_snapshot()
    for stage in ("compile", "optimize"):  # a silent recompute is no warm start
        run.expect(counters.get(f"store_hit:{stage}", 0) >= 1, f"warm start recomputed {stage}")
    build.store_counters = dict(store.counters)
    return build


def build_sample(run: Run, lockstep: bool = False) -> Build:
    """One cold and one warm pass of the build flow."""
    steady = LOCKSTEP_CYCLES - 1 if lockstep else 0
    gc.collect()
    run.begin()
    with run.span("cold"):
        cold = Build(run, run.source, run.lanes, steady=steady)
    run.cold_samples.append(run.adjust(cold.start_s))
    gc.collect()
    run.begin()
    warm = warm_build(run, run.source, run.lanes, run.scratch / "store", steady=steady)
    run.warm_samples.append(run.adjust(warm.start_s))
    if lockstep:
        cold.lockstep(run, "cold")
        warm.lockstep(run, "warm")
    run.store_counters = warm.store_counters
    return cold


def prepare(run: Run, lanes: int) -> None:
    """The set-up every workload shares: the build flow of the module
    docstring, then the compiled design made the default toolchain's."""
    run.source = source = generate_design(LATTICE, PARAMS)
    run.lanes = lanes
    populate(run, source, run.scratch / "store")
    cold = build_sample(run, lockstep=True)
    report = check_sample(run)
    run.facts["engine"] = engine_name(cold.sim)
    # BatchedMachines compiles through the default toolchain: it then
    # reuses this design and its compiled step, as one process would
    set_toolchain(cold.tc)
    with run.span("area"):  # Fig. 9: Sapper area over the insecure Base area
        base = cold.tc.compile(source, LATTICE, secure=False, name=NAME)
        secure_area = cold.tc.synthesize(cold.design).area_um2
        run.e2e["area_overhead"] = secure_area / cold.tc.synthesize(base).area_um2
    if run.trace:
        with run.span("pipeline"):
            result = run_pipeline(cold.design.module)
        for p in PASS_NAMES:
            run.layer[f"hdl.passes.{p}_s"] = sum(
                s.seconds for s in result.stats if s.name == p
            )
        run.layer["hdl.passes.signals_after"] = len(result.module.comb)
        run.layer["analyze.pruned_signals"] = report.certificate.stats["pruned_signals"]
        layer_tiers(run, cold.sim)


def finish_builds(run: Run) -> None:
    """Any build samples the probes left owed; the median of each kind."""
    while len(run.cold_samples) < BUILD_SAMPLES:
        build_sample(run)
    run.e2e.update(
        cold_start_s=statistics.median(run.cold_samples),
        warm_start_s=statistics.median(run.warm_samples),
        check_s=statistics.median(run.check_samples),
    )
    for key in ("hits", "misses", "corrupt"):
        run.layer[f"store.{key}"] = run.store_counters[key]


def layer_tiers(run: Run, sim) -> None:
    """Tier census of *sim*'s compiled step (traced run only)."""
    tiers = Counter(sim.signal_tiers.values())
    for tier in "pwvs":
        run.layer[f"hdl.codegen.tiers.{tier}"] = tiers.get(tier, 0)


def layer_steps(run: Run, sim) -> None:
    """Step-layer counters of the last timed unit's simulator."""
    layer_tiers(run, sim)
    run.layer["hdl.step.uniform_steps"] = sim.uniform_steps
    run.layer["hdl.step.split_steps"] = sim.split_steps
    run.layer["hdl.step.generic_steps"] = sim.generic_steps
    run.layer["hdl.step.compactions"] = sim.compactions
    run.layer["hdl.step.occupancy"] = sim.lane_cycles / (sim.cycles * LANES[run.workload])


# ------------------------------------------------------------- workloads


def mix_draw(seed: int) -> list[str]:
    """The sec43-mix lane programs: a seeded order of a fixed mix.

    Every program fills ``MIX_LANES // 6`` lanes and the first
    ``MIX_LANES % 6`` (by name) one more.  The seed only assigns
    programs to lanes: a draw with replacement would change the amount
    of simulated work from seed to seed, and with it every number."""
    names = sorted(ALL_WORKLOADS)
    share, extra = divmod(MIX_LANES, len(names))
    draw = names * share + names[:extra]
    random.Random(seed).shuffle(draw)
    return draw


def workload_sec43_mix(run: Run) -> None:
    prepare(run, MIX_LANES)
    draw = mix_draw(run.seed)
    with run.span("inputs"), run.span("mips.assembler.assemble"):
        exes = {name: assemble(ALL_WORKLOADS[name].source) for name in sorted(set(draw))}
    lane_exes = [exes[name] for name in draw]
    budgets = [ALL_WORKLOADS[name].max_cycles for name in draw]

    def verify(results, bm) -> None:
        for lane, (res, name) in enumerate(zip(results, draw)):
            ok = tuple(res.outputs) == ALL_WORKLOADS[name].expected and res.halted
            run.expect(ok and res.violations == 0, f"lane {lane} ({name}) wrong output")

    simulate_passes(run, lambda: BatchedMachines(lane_exes), budgets, verify)


def kernel_seeds(seed: int) -> list[int]:
    """Distinct H seeds, one per ni-kernel lane."""
    return random.Random(seed).sample(range(1, 1 << 31), KERNEL_LANES)


def workload_ni_kernel(run: Run) -> None:
    prepare(run, KERNEL_LANES)
    with run.span("inputs"), run.span("kernel.image.build"):
        images = [build_kernel_image(h) for h in kernel_seeds(run.seed)]
    high = encode(LATTICE).encode(LATTICE.check("H"))
    tags = {a >> 2: high for lo, hi in (H_REGION, H_CODE_REGION) for a in range(lo, hi, 4)}
    l_addr, h_addr = images[0].l_result_addr >> 2, images[0].h_result_addr >> 2

    def machines():
        bm = BatchedMachines([im.executable for im in images], compact=False)
        for lane in range(KERNEL_LANES):
            bm.sim.load_array(lane, "memory__tags", tags)
        return bm

    def verify(results, bm) -> None:
        memory = bm.sim.arrays["memory"]
        h_results = Counter(memory[lane].get(h_addr, 0) for lane in range(KERNEL_LANES))
        for lane, res in enumerate(results):
            ok = (
                res.halted
                and tuple(res.outputs) == (L_RESULT,)
                and memory[lane].get(l_addr, 0) == L_RESULT
                and res.cycles == results[0].cycles
                and res.violations == 0
                and h_results[memory[lane].get(h_addr, 0)] == 1
            )
            run.expect(ok, f"lane {lane}: the low view depends on H data")

    simulate_passes(run, machines, KERNEL_BUDGET, verify)


def simulate_passes(run: Run, machines, budgets, verify) -> None:
    """A warm-up pass that visits every compiled width, then timed
    passes, each a fresh ``BatchedMachines`` over the same inputs."""
    cycles: list[int] = []
    last = {}

    def one_pass() -> float:
        with run.span("pass"):
            t0 = perf_counter()
            with run.span("proc.machine.construct"):
                bm = machines()
            run.tracer.wrap(bm.sim, "step", "hdl.step")
            run.tracer.wrap(bm.sim, "compact", "hdl.step.compact")
            run.read_during(bm.sim, "step")
            with run.span("proc.machine.run"):
                results = bm.run(budgets)
            seconds = perf_counter() - t0
        verify(results, bm)
        lane_cycles = sum(r.cycles for r in results)
        run.expect(not cycles or lane_cycles == cycles[0], "simulated cycles changed")
        cycles.append(lane_cycles)
        last["sim"] = bm.sim
        return seconds

    run.reading()
    with run.span("warmup"):
        one_pass()
    run.setup_done()
    run.measure(one_pass)
    run.e2e["lane_cycles_per_s"] = cycles[0] / statistics.median(run.untraced_units)
    run.e2e["simulated_cycles"] = cycles[0]
    if run.trace:
        layer_steps(run, last["sim"])


def fleet_inputs(seed: int) -> tuple[list[int], list[int]]:
    """Seeded output values of the distinct programs, and which one
    each of the fleet-sweep's workloads runs."""
    rng = random.Random(seed)
    values = rng.sample(range(1, 1 << 15), FLEET_DISTINCT)
    return values, [rng.randrange(FLEET_DISTINCT) for _ in range(FLEET_WORKLOADS)]


def loop_program(value: int) -> str:
    """A fixed-length loop, then *value* on the output port, then halt."""
    return f"""
.org 0x400
    li   $s0, {FLEET_ITERS}
loop:
    addiu $s0, $s0, -1
    bgt  $s0, $zero, loop
    li   $t9, 0x40000000
    li   $t1, {value}
    sw   $t1, 0($t9)
    li   $t9, 0x40000004
    sw   $zero, 0($t9)
"""


def workload_fleet_sweep(run: Run) -> None:
    prepare(run, FLEET_LANES)
    values, order = fleet_inputs(run.seed)
    with run.span("inputs"), run.span("mips.assembler.assemble"):
        distinct = [assemble(loop_program(v)) for v in values]
    exes = [distinct[k] for k in order]
    cycles: list[int] = []

    def one_pass() -> float:
        with run.span("pass"):
            t0 = perf_counter()
            with run.span("fleet.run"):
                results = fleet.run(exes, max_cycles=FLEET_BUDGET)
            seconds = perf_counter() - t0
        for i, res in enumerate(results):
            ok = res.outputs == [values[order[i]]] and res.halted and res.violations == 0
            run.expect(ok, f"workload {i} wrong output")
        lane_cycles = sum(r.cycles for r in results)
        run.expect(not cycles or lane_cycles == cycles[0], "simulated cycles changed")
        cycles.append(lane_cycles)
        return seconds

    fleet = FleetRunner(
        shards=FLEET_SHARDS,
        lanes_per_worker=FLEET_LANES,
        store=timed_store(run.scratch / "store", run.tracer),
    )
    try:
        with run.span("fleet.start"):
            fleet.start()
        run.reading()
        with run.span("warmup"):
            one_pass()
        run.setup_done()
        run.measure(one_pass)
        merged = fleet.stats.merged()
    finally:
        fleet.close()
    run.expect(not merged["degraded"], f"fleet degraded: {fleet.errors}")
    run.e2e["lane_cycles_per_s"] = cycles[0] / statistics.median(run.untraced_units)
    run.e2e["simulated_cycles"] = cycles[0]
    run.facts["fleet_start_method"] = merged["start_method"]
    if run.trace:
        run.layer["fleet.occupancy"] = merged["occupancy"]
        for key in ("requeues", "deaths", "fallback_tasks"):
            run.layer[f"fleet.{key}"] = merged[key]
        run.layer["fleet.worker_store_hits"] = merged["toolchain"].get("store_hit:compile", 0)


RUNNERS = {
    "sec43-mix": workload_sec43_mix,
    "ni-kernel": workload_ni_kernel,
    "fleet-sweep": workload_fleet_sweep,
}


# --------------------------------------------------------------- reporting


def layer_times(run: Run) -> None:
    """Per-layer seconds from the spans: build-flow layers per cold
    build, step/harness/fleet layers per traced timed unit."""
    tr = run.tracer
    builds = tr.layer_seconds(("cold",))
    n_cold = tr.root_count(("cold",))
    for span, metric in BUILD_SPANS.items():
        run.layer[metric] = builds.get(span, 0.0) / n_cold
    for root, metric in (
        ("check", "analyze.check_s"),
        ("warm", "store.get_s"),
        ("populate", "store.put_s"),
    ):
        span = metric[: -len("_s")]
        run.layer[metric] = tr.layer_seconds((root,)).get(span, 0.0) / tr.root_count((root,))
    inputs = tr.layer_seconds(("inputs",))
    run.layer["mips.assembler.assemble_s"] = inputs.get("mips.assembler.assemble", 0.0)
    run.layer["kernel.image.build_s"] = inputs.get("kernel.image.build", 0.0)
    units = tr.layer_seconds(("pass",), since=run.trace_mark)
    for span, metric in UNIT_SPANS.items():
        run.layer[metric] = units.get(span, 0.0) / len(run.traced_units)
    run.layer["trace.untraced_share"] = tr.outside_share(("pass",), since=run.trace_mark)
    run.layer["trace.overhead"] = (
        statistics.median(run.traced_units) / statistics.median(run.untraced_units) - 1
    )


def report(run: Run) -> dict:
    """Print the metric table and return the result object."""
    if run.trace:
        layer_times(run)
        run.tracer.write_chrome(str(OUT / f"trace-{run.workload}-seed{run.seed}.json"))
        specs = [(name, unit, run.layer.get(name, 0)) for name, unit, _ in PER_LAYER]
    else:
        run.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        specs = [(name, unit, run.e2e[name]) for name, unit, _, _ in END_TO_END]
    print(f"# workload {run.workload}  seed {run.seed}  trace {int(run.trace)}  "
          f"units untraced={len(run.untraced_units)} traced={len(run.traced_units)}")
    for name, unit, value in specs:
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':32s} {run.failed / max(run.attempted, 1):>16.6g} ratio "
          f"({run.failed} of {run.attempted} reference checks)")
    for note in run.notes:
        print(f"# FAILED: {note}")
    print("facts " + json.dumps(run.facts, sort_keys=True))
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in specs},
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, Run]:
    run = Run(workload, seed, seconds, trace)
    try:
        RUNNERS[workload](run)
        finish_builds(run)
    finally:
        set_toolchain(None)
        shutil.rmtree(run.scratch, ignore_errors=True)
    return report(run), run


def manifest(facts: dict[str, dict]) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why.format(lanes=LANES[name], **facts[name])}
            for name, why in WHY.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def run_all(seed: int, seconds: int) -> int:
    """Every workload in a fresh interpreter; table; BENCHMARK.json."""
    facts: dict[str, dict] = {}
    rows: dict[str, dict] = {}
    for name in RUNNERS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        rows[name] = json.loads(lines[-1])
        facts[name] = json.loads(next(ln for ln in lines if ln.startswith("facts "))[6:])
    print(f"{'metric':20s}" + "".join(f"{name:>14s}" for name in rows))
    for metric, unit, _, _ in END_TO_END:
        cells = "".join(f"{rows[n]['metrics'][metric]['value']:>14.5g}" for n in rows)
        print(f"{metric:20s}{cells}  {unit}")
    cells = "".join(f"{r['failed'] / r['attempted']:>14.5g}" for r in rows.values())
    print(f"{'failed_frac':20s}{cells}  ratio")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(facts), indent=2) + "\n")
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    args = parser.parse_args(argv)
    if IMPORT_ERROR is not None:
        print(f"error: cannot import the toolchain from {ROOT / 'src'}: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    origin = Path(sys.modules[Toolchain.__module__].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        print(f"error: benchmarking {origin}, not the checkout's {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
