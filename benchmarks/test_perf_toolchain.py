"""Toolchain performance benchmarks (not a paper figure).

Tracks the speed of the pieces a user iterates on: the Sapper compiler,
the HDL optimization pipeline, the cold ``simulate --lanes 64`` build,
the HDL simulator (cycles/second on the full processor, raw and
optimized), the lane-batched simulator
(aggregate lane-cycles/second vs N scalar runs, the NumPy vector tier
vs SWAR at wide lane counts plus the engine lane-scaling ladder, and
lane compaction on a skewed workload suite), the multiprocess fleet's
parallel efficiency, the reference interpreter, the assembler, and GLIFT
netlist augmentation -- plus a gate-count regression gate asserting the
optimizer never inflates the secure processor's cell census.

``benchmarks/check_regression.py`` compares a ``--benchmark-json`` dump
of this module against the committed ``benchmarks/baseline.json``; the
machine-independent metrics (gate counts, speedup ratios) are attached
to the JSON as ``extra_info`` here.  Wall-clock ratios are recorded,
never asserted: a test here fails only on a bit-identity, counter or
census check, so the outcome never depends on host speed, and the
ratios are gated by ``check_regression.py`` in the bench job.
"""

import os
import time

import pytest

from repro.hdl import HAVE_NUMPY, BatchSimulator, Simulator, VectorSimulator, synthesize
from repro.hdl.netlist import bit_blast
from repro.hdl.passes import run_pipeline
from repro.glift import glift_transform
from repro.lattice import two_level
from repro.mips.assembler import assemble
from repro.proc.design import generate_design
from repro.proc.machine import compile_processor
from repro.sapper import samples
from repro.sapper.analysis import analyze
from repro.sapper.compiler import compile_program
from repro.sapper.parser import parse_program
from repro.sapper.semantics import Interpreter
from repro.workloads import ALL_WORKLOADS


def reference_s() -> float:
    """Seconds of one fixed pure-Python loop that shares no code with
    the toolchain: how fast this host runs Python right now.  It is
    perfbench's ``reference()`` loop, so ``baseline.json``'s
    ``reference_s`` can be perfbench's ``REFERENCE_S`` host reading."""
    t0 = time.perf_counter()
    for _ in range(4):
        table: dict[int, int] = {}
        for i in range(40_000):
            table[i & 1023] = table.get(i & 1023, 0) + (i ^ (i >> 3))
    return (time.perf_counter() - t0) / 4


def test_host_reference(benchmark):
    """A host-speed reading ``check_regression.py`` scales absolute
    timings by: the median of nine reference loops.  It runs first;
    :func:`test_host_reference_after` takes a second reading after the
    timed benchmarks, and the gate keeps the smaller of the two."""
    readings = sorted(reference_s() for _ in range(9))
    benchmark.extra_info["reference_s"] = readings[4]
    benchmark.pedantic(lambda: readings, rounds=1, iterations=1)


def test_compile_tdma(benchmark):
    lat = two_level()
    benchmark(lambda: compile_program(samples.TDMA, lat, name="tdma"))


def test_parse_processor_source(benchmark):
    src = generate_design()
    benchmark(lambda: parse_program(src, "proc"))


def test_compile_processor_full(benchmark):
    src = generate_design()
    lat = two_level()
    info = analyze(parse_program(src, "proc"), lat)
    benchmark.pedantic(
        lambda: compile_program(info, lat, name="proc"), rounds=2, iterations=1
    )


def test_hdl_simulation_speed(benchmark):
    # the headline number: optimized-pipeline throughput on the full
    # secure processor (Simulator optimizes by default)
    design = compile_processor(two_level(), secure=True)
    sim = Simulator(design.module)

    def run_500():
        for _ in range(500):
            sim.step({})
        return sim.cycles

    benchmark.pedantic(run_500, rounds=3, iterations=1)


def test_hdl_simulation_speed_raw(benchmark):
    # unoptimized baseline for the same module (what the seed measured)
    design = compile_processor(two_level(), secure=True)
    sim = Simulator(design.module, optimize=False)

    def run_500():
        for _ in range(500):
            sim.step({})
        return sim.cycles

    benchmark.pedantic(run_500, rounds=3, iterations=1)


def test_optimize_pipeline_speed(benchmark):
    # full pass pipeline (unmemoized) over the secure processor module
    design = compile_processor(two_level(), secure=True)
    benchmark.pedantic(
        lambda: run_pipeline(design.module), rounds=2, iterations=1
    )


def test_optimized_vs_raw_throughput(benchmark):
    """Optimized simulation against raw on the secure processor, with
    bit-identical outputs.

    Compares the best of several interleaved samples per engine (the
    min is the stable estimator for CPU-bound loops); the ratio lands
    in the benchmark JSON as ``extra_info['opt_speedup']`` for the
    regression gate.
    """
    design = compile_processor(two_level(), secure=True)
    raw = Simulator(design.module, optimize=False)
    opt = Simulator(design.module)

    def sample(sim, cycles=250):
        t0 = time.perf_counter()
        for _ in range(cycles):
            sim.step({})
        return time.perf_counter() - t0

    sample(raw, 50), sample(opt, 50)  # warm up caches and branch history
    raw_samples, opt_samples = [], []
    for _ in range(5):  # interleaved so drift hits both engines alike
        raw_samples.append(sample(raw))
        opt_samples.append(sample(opt))
    speedup = min(raw_samples) / min(opt_samples)
    benchmark.extra_info["opt_speedup"] = round(speedup, 3)
    benchmark.pedantic(lambda: speedup, rounds=1, iterations=1)
    # both ran the same cycles from reset: the same outputs
    assert raw.step({}) == opt.step({})


def test_gate_count_regression(benchmark):
    """The optimized secure processor synthesizes to no more cells than
    the seed's (raw) census -- and strictly fewer in practice.  The
    census lands in the benchmark JSON for the CI regression gate."""
    design = compile_processor(two_level(), secure=True)
    raw = synthesize(design.module, optimize=False)
    opt = synthesize(design.module)
    benchmark.extra_info["gates_raw"] = raw.counts.total_gates()
    benchmark.extra_info["gates_optimized"] = opt.counts.total_gates()
    benchmark.extra_info["dff_optimized"] = opt.counts.dff
    benchmark.extra_info["levels_optimized"] = opt.levels
    benchmark.pedantic(lambda: opt.counts.total_gates(), rounds=1, iterations=1)
    assert opt.counts.total_gates() <= raw.counts.total_gates()
    assert opt.counts.dff <= raw.counts.dff
    assert opt.levels <= raw.levels
    # the tag-join/mux dedup is worth a double-digit percentage
    assert opt.counts.total_gates() < 0.9 * raw.counts.total_gates()


BATCH_LANES = 32
BATCH_CYCLES = 500


def _batch_setup():
    """The optimized secure processor plus per-lane workload programs."""
    from repro.toolchain import get_toolchain

    design = compile_processor(two_level(), secure=True)
    module = get_toolchain().optimize(design)
    programs = [assemble(wl.source).as_memory() for wl in ALL_WORKLOADS.values()]
    return module, programs


def _fresh_batch(module, programs, lanes=BATCH_LANES):
    batch = BatchSimulator(module, lanes, optimize=False)
    for lane in range(lanes):
        batch.load_array(lane, "memory", dict(programs[lane % len(programs)]))
    return batch


def _fresh_vector(module, programs, lanes):
    batch = VectorSimulator(module, lanes, optimize=False)
    for lane in range(lanes):
        batch.load_array(lane, "memory", dict(programs[lane % len(programs)]))
    return batch


def _fresh_scalars(module, programs):
    sims = []
    for lane in range(BATCH_LANES):
        sim = Simulator(module, optimize=False)
        sim.load_array("memory", dict(programs[lane % len(programs)]))
        sims.append(sim)
    return sims


def test_batch_simulation_speed(benchmark):
    # aggregate lane-cycles/second: 32 workloads from reset on one
    # batched machine (the bulk-suite scenario the batched engine serves)
    module, programs = _batch_setup()
    _fresh_batch(module, programs).run(BATCH_CYCLES)  # warm compiled bodies

    def run_batch():
        batch = _fresh_batch(module, programs)
        batch.run(BATCH_CYCLES)
        return batch.cycles * BATCH_LANES

    benchmark.pedantic(run_batch, rounds=3, iterations=1)


def test_batch_vs_scalar_throughput(benchmark):
    """The batched (SWAR) engine against N scalar runs at N=32 lanes
    (target >= 3x), with bit-identical per-lane architectural and
    shadow-tag state, and the SWAR tier carrying the datapath.

    Interleaved min-of-rounds sampling keeps the ratio stable on noisy
    machines; the measured ratio lands in the benchmark JSON as
    ``extra_info['batch_speedup']`` for the regression gate.
    """
    module, programs = _batch_setup()
    _fresh_batch(module, programs).run(BATCH_CYCLES)  # warm compiled bodies

    batch = sims = None
    speedup = 0.0
    # up to two measurement attempts: min-of-interleaved-rounds is robust,
    # but a noisy shared runner can still poison one whole attempt
    for _attempt in range(2):
        batch_times, scalar_times = [], []
        for _ in range(3):
            batch = _fresh_batch(module, programs)
            t0 = time.perf_counter()
            batch.run(BATCH_CYCLES)
            batch_times.append(time.perf_counter() - t0)
            sims = _fresh_scalars(module, programs)
            t0 = time.perf_counter()
            for _ in range(BATCH_CYCLES):
                for sim in sims:
                    sim.step({})
            scalar_times.append(time.perf_counter() - t0)
        speedup = max(speedup, min(scalar_times) / min(batch_times))
        if speedup >= 3.0:
            break
    benchmark.extra_info["batch_speedup"] = round(speedup, 3)
    benchmark.extra_info["batch_lane_cycles_per_sec"] = round(
        BATCH_LANES * BATCH_CYCLES / min(batch_times)
    )
    benchmark.pedantic(lambda: speedup, rounds=1, iterations=1)

    # the SWAR tier must actually carry the datapath (no silent fallback)
    tiers = batch.signal_tiers
    counts = {k: sum(1 for t in tiers.values() if t == k) for k in "pws"}
    assert counts["w"] > 4 * counts["s"], f"SWAR tier underused: {counts}"

    # bit-identical per-lane state: every register (architectural and
    # __tag shadows) and every array (memory and __tags shadow stores)
    for lane in range(BATCH_LANES):
        for name in module.regs:
            assert sims[lane].regs[name] == batch.get_reg(lane, name), (
                f"lane {lane} reg {name} diverged"
            )
        for name, arr in module.arrays.items():
            scalar_arr, lane_arr = sims[lane].arrays[name], batch.arrays[name][lane]
            for idx in set(scalar_arr) | set(lane_arr):
                assert scalar_arr.get(idx, arr.default) == lane_arr.get(idx, arr.default), (
                    f"lane {lane} {name}[{idx}] diverged"
                )


VECTOR_LANES = 256


@pytest.mark.skipif(not HAVE_NUMPY, reason="the vector engine needs NumPy")
def test_vector_vs_swar_throughput(benchmark):
    """The NumPy vector engine against the SWAR engine at 256 lanes on
    the secure processor (target >= 2.5x), with bit-identical per-lane
    state between the two engines.

    256 lanes is where ufunc amortization dominates: the SWAR big-int
    words grow with lane count while the vector tier's per-op overhead
    stays constant.  Interleaved min-of-rounds sampling with a retry
    attempt keeps the ratio stable on noisy machines; the measured
    ratio lands in the benchmark JSON as
    ``extra_info['vector_speedup']`` for the regression gate.
    """
    module, programs = _batch_setup()
    # warm compiled step functions and state-folded bodies of both engines
    _fresh_vector(module, programs, VECTOR_LANES).run(BATCH_CYCLES)
    _fresh_batch(module, programs, lanes=VECTOR_LANES).run(BATCH_CYCLES)

    vec_b = swar_b = None
    speedup = 0.0
    best_vec_time = float("inf")
    # up to two measurement attempts: min-of-interleaved-rounds is robust,
    # but a noisy shared runner can still poison one whole attempt
    for _attempt in range(2):
        vec_times, swar_times = [], []
        for _ in range(3):
            vec_b = _fresh_vector(module, programs, VECTOR_LANES)
            t0 = time.perf_counter()
            vec_b.run(BATCH_CYCLES)
            vec_times.append(time.perf_counter() - t0)
            swar_b = _fresh_batch(module, programs, lanes=VECTOR_LANES)
            t0 = time.perf_counter()
            swar_b.run(BATCH_CYCLES)
            swar_times.append(time.perf_counter() - t0)
        best_vec_time = min(best_vec_time, min(vec_times))
        speedup = max(speedup, min(swar_times) / min(vec_times))
        if speedup >= 2.5:
            break
    benchmark.extra_info["vector_speedup"] = round(speedup, 3)
    benchmark.extra_info["vector_lane_cycles_per_sec"] = round(
        VECTOR_LANES * BATCH_CYCLES / best_vec_time
    )
    benchmark.pedantic(lambda: speedup, rounds=1, iterations=1)

    # the vector tier must actually carry the datapath (no silent fallback)
    tiers = vec_b.signal_tiers
    counts = {k: sum(1 for t in tiers.values() if t == k) for k in "pvs"}
    assert counts["v"] > 4 * counts["s"], f"vector tier underused: {counts}"

    # both engines end bit-identical, register for register, cell for cell
    for lane in range(VECTOR_LANES):
        for name in module.regs:
            assert vec_b.get_reg(lane, name) == swar_b.get_reg(lane, name), (
                f"lane {lane} reg {name} diverged between engines"
            )
        for name, arr in module.arrays.items():
            va, sa = vec_b.arrays[name][lane], swar_b.arrays[name][lane]
            for idx in set(va) | set(sa):
                assert va.get(idx, arr.default) == sa.get(idx, arr.default), (
                    f"lane {lane} {name}[{idx}] diverged between engines"
                )


SCALING_LANES = (32, 128, 512)
SCALING_CYCLES = 300


@pytest.mark.skipif(not HAVE_NUMPY, reason="the vector engine needs NumPy")
def test_engine_lane_scaling(benchmark):
    """Aggregate lane-cycles/second per engine across the lane-count
    ladder 32/128/512 over the first 300 cycles from reset.  That window
    is the processor's Boot/Refill start, where the lanes still agree
    and most steps run folded bodies, so it does not measure the
    generic diverged-lane step behind ``VECTOR_AUTO_LANES`` (see
    ARCHITECTURE.md, "Occupancy management"): its 32-lane ratio moves
    with the host and the fold mix (committed baseline 0.897; 1.25-1.66
    on a 2-CPU Xeon host), while the vector tier stays far ahead at 512
    lanes.  Pure telemetry: the per-point throughput numbers land in
    ``extra_info`` (machine-dependent, so not gated), and the two ends
    as the ratios ``swar_over_vector_32`` and ``vector_over_swar_512``,
    gated by ``check_regression.py``."""
    module, programs = _batch_setup()
    engines = {
        "swar": lambda lanes: _fresh_batch(module, programs, lanes=lanes),
        "vector": lambda lanes: _fresh_vector(module, programs, lanes),
    }
    lcps: dict[str, dict[int, float]] = {name: {} for name in engines}
    for lanes in SCALING_LANES:
        for name, fresh in engines.items():
            fresh(lanes).run(SCALING_CYCLES)  # warm compiled bodies
            best = min(
                _timed_run(fresh(lanes), SCALING_CYCLES) for _ in range(2)
            )
            lcps[name][lanes] = lanes * SCALING_CYCLES / best
            benchmark.extra_info[f"{name}_lcps_{lanes}"] = round(lcps[name][lanes])
    # the two ends of the ladder, over the boot window
    benchmark.extra_info["swar_over_vector_32"] = round(
        lcps["swar"][32] / lcps["vector"][32], 3
    )
    benchmark.extra_info["vector_over_swar_512"] = round(
        lcps["vector"][512] / lcps["swar"][512], 3
    )
    benchmark.pedantic(lambda: lcps, rounds=1, iterations=1)
    for name in engines:
        assert lcps[name][512] > 0 and lcps[name][32] > 0


def _timed_run(batch, cycles):
    t0 = time.perf_counter()
    batch.run(cycles)
    return time.perf_counter() - t0


SKEW_LANES = 32
SKEW_PHASE = 192


def _skewed_programs():
    """Loop-then-halt MIPS programs whose run lengths follow a geometric
    ladder (~4 cycles per iteration after a shared ~280-cycle boot):
    half the suite halts early while a long tail runs several times
    longer -- the skewed-suite shape that leaves a fixed-width batch
    mostly idle."""
    programs = []
    for lane in range(SKEW_LANES):
        iters = int(3 * 1.16 ** lane) + 1
        programs.append(assemble(f"""
.org 0x400
    li   $s0, {iters}
loop:
    addiu $s0, $s0, -1
    bgt  $s0, $zero, loop
    li   $t9, 0x40000004
    sw   $zero, 0($t9)
""").as_memory())
    return programs


def _lane_snapshot(batch, pos, module):
    return (
        batch.lane_regs(pos),
        {name: dict(batch.arrays[name][pos]) for name in module.arrays},
    )


def _run_skewed(module, programs, compact):
    """Run the skewed suite to completion, checking for halted lanes at
    every phase boundary (SKEW_PHASE cycles).  Each lane's full state is
    snapshotted at the boundary where it is first seen halted -- the
    same instant in every engine configuration -- and, with *compact*,
    the halted lanes are then retired from the batch."""
    batch = BatchSimulator(module, SKEW_LANES, optimize=False)
    for lane, prog in enumerate(programs):
        batch.load_array(lane, "memory", dict(prog))
    snaps = {}
    cycle = 0
    while True:
        batch.step()
        cycle += 1
        if cycle % SKEW_PHASE:
            continue
        halted = [pos for pos in range(batch.lanes) if batch.get_reg(pos, "halted_r")]
        for pos in halted:
            orig = batch.active_lanes[pos]
            if orig not in snaps:
                snaps[orig] = _lane_snapshot(batch, pos, module)
        if len(halted) == batch.lanes:
            return batch, snaps, cycle
        if compact and halted:
            batch.compact(halted)


def test_compaction_skewed_throughput(benchmark):
    """Lane compaction against the fixed-width engine on a skewed
    (geometric run-length) workload suite (target >= 1.2x), with
    bit-identical per-lane state at every retirement boundary.

    The measured ratio lands in the benchmark JSON as
    ``extra_info['compaction_speedup']`` for the regression gate,
    alongside the mean batch ``occupancy``.
    """
    module, _ = _batch_setup()
    programs = _skewed_programs()
    # warm the compiled step functions and state-folded bodies of both
    # engine configurations (compaction re-enters per-width caches)
    _run_skewed(module, programs, compact=True)
    _run_skewed(module, programs, compact=False)

    # bit-identity: every lane's complete state (architectural and
    # shadow-tag registers, memory and shadow-tag stores) at the
    # boundary it retired on, old engine vs compacted engine
    new_b, new_snaps, new_cycles = _run_skewed(module, programs, compact=True)
    _old_b, old_snaps, old_cycles = _run_skewed(module, programs, compact=False)
    assert new_cycles == old_cycles, "engines disagree on suite length"
    assert new_snaps.keys() == old_snaps.keys()
    for lane in sorted(new_snaps):
        new_regs, new_arrays = new_snaps[lane]
        old_regs, old_arrays = old_snaps[lane]
        assert new_regs == old_regs, f"lane {lane}: registers diverged"
        assert new_arrays == old_arrays, f"lane {lane}: arrays diverged"
    assert new_b.compactions > 0, "skewed suite never compacted"

    speedup = 0.0
    # up to four measurement attempts on noisy shared runners;
    # interleaved min-of-rounds, stopping at the first passing attempt
    for _attempt in range(4):
        old_times, new_times = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            _run_skewed(module, programs, compact=False)
            old_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            _run_skewed(module, programs, compact=True)
            new_times.append(time.perf_counter() - t0)
        speedup = max(speedup, min(old_times) / min(new_times))
        if speedup >= 1.2:
            break
    occupancy = new_b.lane_cycles / (SKEW_LANES * new_cycles)
    benchmark.extra_info["compaction_speedup"] = round(speedup, 3)
    benchmark.extra_info["occupancy"] = round(occupancy, 3)
    benchmark.pedantic(lambda: speedup, rounds=1, iterations=1)

    assert occupancy < 0.7, f"suite not skewed enough (occupancy {occupancy:.2f})"


def test_tag_prune_counters(benchmark):
    """Static tag-cone pruning: the taint certificate must prove part of
    each design statically clean.

    The secure processor (a closed design whose secrets arrive through
    the preloaded ``__tags`` stores) must report nonzero statically
    clean and statically tainted signal counts.  The TDMA controller's
    prune ratio -- the fraction of shadow state the certificate removes
    for the paper's Figure 4 design -- lands in the benchmark JSON as
    ``extra_info['tag_prune_ratio']`` for the regression gate
    (machine-independent: it is a property of the analysis, not of the
    host).
    """
    from repro.analyze import compute_taint, default_taint_sources
    from repro.toolchain import get_toolchain

    module, _programs = _batch_setup()
    sources = tuple(a for a in module.arrays if a.endswith("__tags"))
    proc = compute_taint(module, sources).stats
    assert proc["pruned_signals"] > 0, "processor: nothing statically clean"
    assert proc["tainted_signals"] > 0, "processor: empty taint cone"

    tdma = get_toolchain().compile(samples.TDMA, two_level(), name="tdma")
    cert = compute_taint(tdma.module, default_taint_sources(tdma))
    ratio = cert.stats["prune_ratio"]
    assert ratio > 0.5, f"TDMA shadow state mostly tainted ({ratio:.2f} pruned)"
    benchmark.extra_info["tag_prune_ratio"] = round(ratio, 4)
    benchmark.extra_info["proc_pruned_signals"] = proc["pruned_signals"]
    benchmark.pedantic(lambda: ratio, rounds=1, iterations=1)


WARM_LANES = 64


def test_cold_build_speed(benchmark):
    """Source text to the first step of a 64-lane auto-engine simulator
    on a fresh Toolchain with no store: the cold ``repro simulate
    --lanes 64`` build (front end, pass pipeline, batched codegen and
    the reset binding's fold), timed as a whole."""
    from repro.toolchain import Toolchain

    src = generate_design()
    lat = two_level()

    def cold():
        tc = Toolchain()
        design = tc.compile(src, lat, name="proc")
        return tc.batch_simulator(design, WARM_LANES, engine="auto").step()

    benchmark.pedantic(cold, rounds=3, iterations=1)


def test_warm_start_speedup(benchmark, tmp_path):
    """Source text to the first step's result on a fresh toolchain, warm
    from a populated artifact store against cold (target >= 5x).

    Both sides run the ``repro simulate --lanes 64`` build flow:
    compile, optimize, ``batch_simulator(engine="auto")`` and one
    ``step()``.  Cold pays the front end, the pass pipeline, the
    batched state layout and the reset binding's fold; warm is a fresh ``Toolchain``
    and a fresh ``ArtifactStore`` over the same directory (the
    in-process stand-in for a new process), which must take every one
    of those from the persistent tier -- asserted via the ``store_hit``
    counters, so a silent fallback to recompute cannot masquerade as a
    pass.  Interleaved min-of-rounds sampling with retry attempts keeps
    the ratio stable on noisy machines; the measured ratio lands in the
    benchmark JSON as ``extra_info['warm_start_speedup']`` for the
    regression gate.
    """
    from repro.store import ArtifactStore
    from repro.toolchain import Toolchain

    src = generate_design()
    lat = two_level()
    store_dir = tmp_path / "store"

    def build(store):
        tc = Toolchain(store=store)
        design = tc.compile(src, lat, name="proc")
        tc.optimize(design)
        sim = tc.batch_simulator(design, WARM_LANES, engine="auto")
        return tc, sim, sim.step()

    build(ArtifactStore(store_dir))  # populate every stage the flow reads

    def cold():
        return build(None)

    def warm():
        tc, sim, out = build(ArtifactStore(store_dir))
        counters = tc.counter_snapshot()
        for stage in ("compile", "optimize", "layout", "fold"):
            assert counters.get(f"store_hit:{stage}", 0) >= 1, counters
        return tc, sim, out

    # the warm simulator must be the same hardware, not just fast:
    # 20 lockstep cycles from reset against the cold simulator
    _, cold_sim, cold_out = cold()
    _, warm_sim, warm_out = warm()
    assert warm_out == cold_out, "cycle 0 diverged"
    for cycle in range(1, 20):
        assert warm_sim.step() == cold_sim.step(), f"cycle {cycle} diverged"
    for lane in range(WARM_LANES):
        assert warm_sim.lane_regs(lane) == cold_sim.lane_regs(lane), f"lane {lane}"

    speedup = 0.0
    best_warm_time = float("inf")
    # up to three measurement attempts: min-of-interleaved-rounds is
    # robust, but a noisy shared runner can still poison one attempt
    for _attempt in range(3):
        cold_times, warm_times = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            cold()
            cold_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            warm()
            warm_times.append(time.perf_counter() - t0)
        best_warm_time = min(best_warm_time, min(warm_times))
        speedup = max(speedup, min(cold_times) / min(warm_times))
        if speedup >= 5.0:
            break
    benchmark.extra_info["warm_start_speedup"] = round(speedup, 3)
    benchmark.extra_info["warm_start_ms"] = round(best_warm_time * 1000, 1)
    benchmark.pedantic(lambda: speedup, rounds=1, iterations=1)


FLEET_WORKLOADS = 1024
FLEET_LANES_PER_WORKER = 256
FLEET_BUDGET = 600


def _fleet_suite():
    """~1000 uniform loop-then-halt workloads (distinct output values
    for the bit-identity check).  Uniform run lengths retire whole
    waves at once, so every fleet wave is exactly
    ``FLEET_LANES_PER_WORKER`` lanes wide and one warm-up pass visits
    every compiled batch width the measured runs will use."""
    distinct = [
        assemble(f"""
.org 0x400
    li   $s0, 20
loop:
    addiu $s0, $s0, -1
    bgt  $s0, $zero, loop
    li   $t9, 0x40000000
    li   $t1, {k}
    sw   $t1, 0($t9)
    li   $t9, 0x40000004
    sw   $zero, 0($t9)
""")
        for k in range(16)
    ]
    return [distinct[i % 16] for i in range(FLEET_WORKLOADS)]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="the fleet efficiency gate needs >= 2 CPUs (CI runners have 4)",
)
def test_fleet_speedup(benchmark, tmp_path):
    """The multiprocess fleet pushing a ~1000-workload sweep against the
    single-process batched engine, with bit-identical results.

    The gated figure is parallel efficiency, ``fleet_efficiency`` =
    speedup / shards (target >= 0.5), so hosts with different CPU
    counts compare on one scale; ``fleet_speedup`` and
    ``fleet_shards`` ride along in the benchmark JSON as telemetry.
    Both sides run warm: the single-process comparator reuses the
    process-global toolchain caches, and the fleet is one persistent
    ``FleetRunner`` whose workers pay their store warm-start and batch
    codegen during the warm-up pass.  Interleaved min-of-rounds
    sampling with retry attempts keeps the ratio stable on noisy
    machines.
    """
    from repro.fleet import FleetRunner
    from repro.proc.machine import run_workloads
    from repro.store import ArtifactStore

    shards = min(4, os.cpu_count() or 1)
    exes = _fleet_suite()
    single = run_workloads(exes, max_cycles=FLEET_BUDGET)  # warms in-process
    suite_lane_cycles = sum(r.cycles for r in single)

    with FleetRunner(
        shards=shards,
        lanes_per_worker=FLEET_LANES_PER_WORKER,
        store=ArtifactStore(tmp_path / "store"),
    ) as fleet:
        fleet_results = fleet.run(exes, max_cycles=FLEET_BUDGET)  # warms workers
        assert [
            (r.outputs, r.cycles, r.violations, r.halted) for r in fleet_results
        ] == [(r.outputs, r.cycles, r.violations, r.halted) for r in single]

        speedup = 0.0
        best_fleet_time = float("inf")
        # up to three measurement attempts: min-of-interleaved-rounds
        # is robust, but a noisy runner can still poison one attempt
        for _attempt in range(3):
            single_times, fleet_times = [], []
            for _ in range(2):
                t0 = time.perf_counter()
                run_workloads(exes, max_cycles=FLEET_BUDGET)
                single_times.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                fleet.run(exes, max_cycles=FLEET_BUDGET)
                fleet_times.append(time.perf_counter() - t0)
            best_fleet_time = min(best_fleet_time, min(fleet_times))
            speedup = max(speedup, min(single_times) / min(fleet_times))
            if speedup / shards >= 0.5:
                break
        merged = fleet.stats.merged()

    benchmark.extra_info["fleet_efficiency"] = round(speedup / shards, 3)
    benchmark.extra_info["fleet_shards"] = shards
    benchmark.extra_info["fleet_speedup"] = round(speedup, 3)
    benchmark.extra_info["fleet_lane_cycles_per_sec"] = round(
        suite_lane_cycles / best_fleet_time
    )
    benchmark.extra_info["fleet_occupancy"] = merged["occupancy"]
    benchmark.pedantic(lambda: speedup, rounds=1, iterations=1)

    assert not merged["degraded"], fleet.errors
    assert merged["requeues"] == 0 and merged["deaths"] == 0
    # every worker warm-started from the shared store, never recompiled
    assert merged["toolchain"].get("store_hit:compile", 0) >= shards


def test_interpreter_speed_tdma(benchmark):
    lat = two_level()
    info = analyze(parse_program(samples.TDMA, "tdma"), lat)

    def run_interp():
        it = Interpreter(info, lat)
        it.run(200)
        return it.delta

    benchmark(run_interp)


def test_assembler_speed(benchmark):
    src = ALL_WORKLOADS["sha"].source
    benchmark(lambda: assemble(src))


def test_glift_augmentation_speed(benchmark):
    lat = two_level()
    design = compile_program(samples.ADDER_TRACK, lat, secure=False, name="adder")
    netlist = bit_blast(design.module)
    benchmark(lambda: glift_transform(netlist))


def test_synthesis_speed_tdma(benchmark):
    lat = two_level()
    design = compile_program(samples.TDMA, lat, name="tdma")
    benchmark(lambda: synthesize(design.module))


def test_host_reference_after(benchmark):
    """The second host-speed reading, after every timed benchmark above
    (pytest runs a module's tests in file order)."""
    test_host_reference(benchmark)
