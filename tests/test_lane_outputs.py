"""The batched step's columnar result, and what rides on it.

* :class:`~repro.hdl.batch.LaneOutputs`: a packed word per 1-bit port,
  the engine's native form per wide port, and a lazy per-lane view
  equal to the scalar :class:`~repro.hdl.sim.Simulator`'s output dicts
  on both engines, after compaction and across the vector -> SWAR
  handover.
* The batched consumers (``BatchedMachines.run``,
  ``commands.run_lanes``) build no per-lane dict on a step, and
  ``BatchedMachines`` keeps budget-0 lanes out of the run when it
  compacts.
* Step functions that two threads can run at once: a step function is
  shared by every batch of one (module, lane count), so nothing mutable
  may hang off it; two threads stepping two such batches, and two
  concurrent server ``simulate`` requests, match sequential runs.
"""

from __future__ import annotations

import asyncio
import functools
import sys
import threading
from types import FunctionType
from unittest import mock

import pytest

from repro import commands
from repro.hdl import HAVE_NUMPY, Simulator
from repro.hdl.batch import LaneOutputs, set_bits
from repro.lattice import two_level
from repro.mips.assembler import assemble
from repro.proc.machine import BatchedMachines, SapperMachine, compile_processor
from repro.sapper import samples
from repro.server import ReproServer
from repro.toolchain import VECTOR_AUTO_LANES, Toolchain, get_toolchain

from tests.test_fleet import norm_arrays, norm_regs, program

ENGINES = ["swar"] + (["vector"] if HAVE_NUMPY else [])

#: lanes halt after about 200 / k cycles; ``w`` reads a 40-bit register
#: (a per-lane list on SWAR, a wide value on the vector engine)
STAGGERED = """
reg[7:0] cnt; reg[39:0] wide; input[7:0] k; input[7:0] h : H;
output halted : L; output[15:0] v; output[39:0] w;
state top : L = {
    let state run = {
        cnt := cnt + k;
        wide := wide + h;
        v := cnt;
        w := wide;
        if (cnt > 200) { goto done; } else { goto run; }
    } in
    let state done = { halted := 1; goto done; } in
    fall;
}
"""


@pytest.fixture
def count_rows():
    """Every per-lane dict a :class:`LaneOutputs` builds, as
    ``(id(outputs), lane)``."""
    built: list[tuple[int, int]] = []
    real = LaneOutputs._row

    def row(self, lane):
        built.append((id(self), lane))
        return real(self, lane)

    with mock.patch.object(LaneOutputs, "_row", row):
        yield built


def pinned(tc, engine):
    """*tc* with every batch its front doors build on *engine*."""
    return mock.patch.object(
        tc, "batch_simulator", functools.partial(tc.batch_simulator, engine=engine)
    )


# ------------------------------------------------------------ the view


class TestLaneOutputsView:
    @pytest.mark.parametrize("engine", ["auto", *ENGINES])
    def test_view_matches_scalar_simulator(self, engine):
        """Every step's result against per-lane scalar simulators, as a
        sequence (len, int, negative and slice indexing, iteration,
        ``==`` both ways) and as columns, while compaction walks the
        live lanes down across :data:`VECTOR_AUTO_LANES`; results stay
        valid after later steps, and ``auto`` hands over to SWAR."""
        if engine == "auto" and not HAVE_NUMPY:
            pytest.skip("the handover needs the vector engine")
        tc = Toolchain()
        design = tc.compile(STAGGERED, two_level(), name="staggered_view")
        lanes = VECTOR_AUTO_LANES + 2
        sim = tc.batch_simulator(design, lanes, engine=engine)
        stim = [{"k": 1 + lane % 25, "h": lane} for lane in range(lanes)]
        scalars = [Simulator(design.module, optimize=False) for _ in range(lanes)]
        history = []
        while True:
            want = [s.step(i) for s, i in zip(scalars, stim)]
            outs = sim.step(stim)
            history.append((outs, want))
            n = len(want)
            assert isinstance(outs, LaneOutputs) and len(outs) == n
            assert outs == want and want == outs and not outs != want
            assert list(outs) == want and [outs[i] for i in range(n)] == want
            assert outs[-1] == want[-1] and outs[-n] == want[0]
            assert outs[1:4] == want[1:4] and outs[::-3] == want[::-3]
            for bad in (n, -n - 1):
                pytest.raises(IndexError, outs.__getitem__, bad)
            assert all(type(v) is int for row in outs for v in row.values())
            for port in design.module.outputs:
                assert [outs.value(port, lane) for lane in range(n)] == [
                    w[port] for w in want
                ]
                assert outs.word(port) == sum(bool(w[port]) << i for i, w in enumerate(want))
            assert type(outs.columns["halted"]) is int
            halted = list(set_bits(outs.word("halted")))
            if len(halted) == n:
                break
            if halted:
                sim.compact(halted)
                keep = [pos for pos in range(n) if pos not in halted]
                scalars = [scalars[pos] for pos in keep]
                stim = [stim[pos] for pos in keep]
        assert sim.compactions >= 2
        assert all(outs == want for outs, want in history)
        assert type(sim).__name__ == ("VectorSimulator" if engine == "vector" else "BatchSimulator")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_wide_columns_take_the_engines_form(self, engine):
        """On SWAR a wide port is a per-lane list; on the vector engine
        a wide-tier port is its wide value (ndarray or ``np.uint64``)."""
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tdma_columns")
        sim = tc.batch_simulator(design, 8, engine=engine)
        outs = sim.step([{"lo_in": lane, "lo_in__tag": 0} for lane in range(8)])
        column = outs.columns["lo_out"]
        if engine == "swar":
            assert type(column) is list
        else:
            import numpy as np

            assert isinstance(column, (np.ndarray, np.uint64))
        assert all(type(outs.columns[p]) is int for p in ("violation", "lo_out__tag"))
        assert sim.run(0) == [{}] * 8 and isinstance(sim.run(0), LaneOutputs)


# -------------------------------------------------- batched consumers


class TestNoLaneDicts:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_batched_machines_build_none(self, engine, count_rows):
        """A compacting processor run with outputs, halts and expiring
        budgets reads words only: not one lane dict."""
        specs = [(7, 1), (9, 10), (3, 2), (5, 0)]
        exes = [assemble(program(k, n)) for k, n in specs]
        tc = get_toolchain()
        with pinned(tc, engine):
            bm = BatchedMachines(exes, toolchain=tc)
        results = bm.run([700, 700, 250, 700])
        assert count_rows == []
        assert [r.outputs for r in results] == [[7], [9], [], [5]]
        assert [r.halted for r in results] == [True, True, False, True]
        assert bm.sim.compactions >= 2

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_lanes_builds_only_the_final_rows(self, engine, count_rows):
        """``run_lanes`` builds one dict per lane for its result, however
        many steps and compactions the run takes."""
        tc = Toolchain()
        design = tc.compile(STAGGERED, two_level(), name="staggered_rows")
        lanes = 12
        sim = tc.batch_simulator(design, lanes, engine=engine)
        stim = [{"k": 1 + lane % 25, "h": lane} for lane in range(lanes)]
        run = commands.run_lanes(sim, 400, {}, stim)
        assert sim.compactions >= 2 and sim.cycles > 100
        assert len(count_rows) == lanes
        for lane, inputs in enumerate(stim):
            scalar = Simulator(design.module, optimize=False)
            for _ in range(sim.cycles):
                out = scalar.step(inputs)
                if out["halted"]:
                    break
            assert run.final[lane] == out, lane


class TestBudgetZeroLanes:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("compact", [True, False])
    def test_budget_zero_lanes_with_compaction(self, engine, compact):
        """Budget-0 lanes never run a cycle and are never compacted, so
        after each compaction the lanes still running are found by lane
        id among them: budgets ``[0, 0, 0, 0, 1, 400]`` against scalar
        machines, final state included."""
        specs = [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5)]
        budgets = [0, 0, 0, 0, 1, 400]
        exes = [assemble(program(k, n)) for k, n in specs]
        tc = get_toolchain()
        with pinned(tc, engine):
            bm = BatchedMachines(exes, toolchain=tc, compact=compact, capture_state=True)
        results = bm.run(budgets)
        assert bm.sim.compactions == (1 if compact else 0)
        module = tc.optimize(compile_processor())
        for lane, (exe, budget) in enumerate(zip(exes, budgets)):
            machine = SapperMachine()
            machine.load(exe)
            want = machine.run(budget)
            got = results[lane]
            assert (got.outputs, got.cycles, got.violations, got.halted) == (
                want.outputs, want.cycles, want.violations, want.halted
            ), lane
            assert norm_regs(got.regs, module) == norm_regs(machine.sim.regs, module), lane
            assert norm_arrays(got.arrays, module) == norm_arrays(machine.sim.arrays, module)


# --------------------------------------------------------- threads


def _mutables(fn) -> dict[int, object]:
    """Lists, dicts and writable ndarrays reachable from *fn*'s default
    arguments and closure cells, through nested functions and
    containers (read-only constants are fine to share)."""
    found: dict[int, object] = {}
    seen: set[int] = set()
    stack = [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, FunctionType):
            stack += obj.__defaults__ or ()
            stack += (obj.__kwdefaults__ or {}).values()
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
        elif isinstance(obj, (list, dict)):
            found[id(obj)] = obj
            stack += obj.values() if isinstance(obj, dict) else obj
        elif isinstance(obj, tuple):
            stack += obj
        elif type(obj).__name__ == "ndarray" and obj.flags.writeable:
            found[id(obj)] = obj
    return found


def _tdma_stimulus(salt: int, lanes: int = 64) -> list[dict[str, int]]:
    return [
        {"hi_in": (lane * 7 + salt) & 0xFF, "hi_in__tag": (lane + salt) & 1,
         "lo_in": (lane + 3 * salt) & 0xF, "lo_in__tag": 0}
        for lane in range(lanes)
    ]


class TestThreadSafeSteps:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_step_functions_share_nothing_mutable(self, engine):
        """Two simulators on one (module, lanes) step the same compiled
        functions -- TDMA's bodies and the processor's generic step --
        so any list, dict or writable array reachable from one is
        reachable from the other: there must be none."""
        tc = get_toolchain()
        tdma = tc.compile(samples.TDMA, two_level(), name="tdma_threads")
        proc = compile_processor(toolchain=tc)
        for design in (tdma, proc):
            sims = [tc.batch_simulator(design, 64, engine=engine) for _ in range(2)]
            for salt, sim in enumerate(sims):
                for _ in range(30):
                    sim.step(_tdma_stimulus(salt) if design is tdma else None)
            reach = []
            for sim in sims:
                entry = sim._entry
                entry.body_for(sim.module, entry.empty)
                fns = [body.step(sim.lanes) for body in entry.bodies.values()]
                reach.append({k: v for fn in fns for k, v in _mutables(fn).items()})
            assert sims[0]._entry is sims[1]._entry and len(sims[0]._entry.bodies) >= 2
            shared = reach[0].keys() & reach[1].keys()
            assert not shared, [type(reach[0][k]) for k in shared]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_threads_match_sequential_runs(self, engine):
        """TDMA on 64 lanes for 400 cycles, one batch per thread with
        different inputs, switching threads as often as the interpreter
        allows: every trial's outputs and final registers equal the
        batches run one after the other."""
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tdma_stress")

        def run(salt, results):
            sim = tc.batch_simulator(design, 64, engine=engine)
            stim = _tdma_stimulus(salt)
            outs = [sim.step(stim) for _ in range(400)]
            results[salt] = (outs, [sim.lane_regs(lane) for lane in range(64)])

        want: dict[int, tuple] = {}
        for salt in (0, 1):
            run(salt, want)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got: dict[int, tuple] = {}
                threads = [threading.Thread(target=run, args=(s, got)) for s in (0, 1)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert got == want
        finally:
            sys.setswitchinterval(old)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_concurrent_server_simulates(self, engine):
        """Two ``simulate`` requests for one design and width, in the
        server's pool threads at once, answer as they do one by one."""
        server = ReproServer(max_workers=2)
        reqs = [
            {"id": salt, "op": "simulate", "source": samples.TDMA, "name": "tdma",
             "cycles": 300, "lanes": 64, "engine": engine,
             "inputs": {k: [d[k] for d in _tdma_stimulus(salt)] for k in ("hi_in", "lo_in")}}
            for salt in (0, 1)
        ]
        want = [asyncio.run(server.handle_request(req)) for req in reqs]
        assert all(resp["ok"] for resp in want), want

        async def both():
            return await asyncio.gather(*(server.handle_request(req) for req in reqs))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2):
                assert asyncio.run(both()) == want
        finally:
            sys.setswitchinterval(old)
