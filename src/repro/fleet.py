"""Process-pool fleet for workload suites.

:class:`FleetRunner` shards a suite of workloads across a
:class:`~concurrent.futures.ProcessPoolExecutor` of N workers over a
shared read-through :class:`~repro.store.ArtifactStore`: the parent
compiles the design once and publishes it to the store, and each
worker's initializer warm-starts its own store-backed
:class:`~repro.toolchain.Toolchain` from it (``store_hit:compile`` in
the per-worker counters is the proof).  The parent keeps nothing of
its build.

A task is one chunk of at most ``min(lanes_per_worker, ceil(n /
shards))`` workloads.  Processor suites run a chunk through
:class:`~repro.proc.machine.BatchedMachines`, the lane loop
:func:`~repro.proc.machine.run_workloads` uses, which retires finished
lanes by compaction; ``simulate --shards`` slices run through
:func:`repro.commands.run_lanes`.  Workers and the in-process fallback
run a chunk through the same job code.

Robustness:

* a worker that dies breaks its pool (``BrokenProcessPool``); the
  unfinished chunks go to a fresh pool, at most ``requeue_limit`` times
  each, and then run in-process on a toolchain built from the store;
* graceful degradation: if no multiprocessing start method is usable
  (or the pool cannot be created), the whole suite runs in-process --
  same results, ``stats.degraded`` set;
* deterministic output: results are returned in submission order.
  Every engine is bit-identical per lane, so fleet output equals
  single-process :func:`~repro.proc.machine.run_workloads` output bit
  for bit.

Entry points: :class:`FleetRunner` (persistent pool, cheapest for
repeated suites), ``run_workloads(shards=N)`` (one-shot convenience),
``python -m repro simulate --shards N`` (:func:`simulate_sharded`) and
the NDJSON server's ``fleet`` op.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import tempfile
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

from repro.commands import LaneRun, SimulateRequest, compile_design, run_lanes
from repro.lattice import Lattice, two_level
from repro.mips.assembler import Executable
from repro.proc.machine import BatchedMachines, RunResult, check_budgets, compile_processor
from repro.proc.machine import StateResult as FleetWorkloadResult
from repro.sapper.compiler import CompiledDesign
from repro.store import ArtifactStore, coerce_store
from repro.toolchain import Toolchain

__all__ = [
    "FleetError",
    "FleetRunner",
    "FleetStats",
    "FleetWorkloadResult",
    "simulate_sharded",
]

#: start methods tried in order when none is pinned; fork is cheapest
#: (workers inherit the warm parent image), spawn is the portable
#: fallback, forkserver covers platforms where only it survives.
_START_METHODS = ("fork", "spawn", "forkserver")

#: per-worker counters, summed by :meth:`FleetStats.merged`
_COUNTERS = ("lane_cycles", "steps", "width_cycles")


class FleetError(RuntimeError):
    """A fleet-level scheduling failure (not a workload failure)."""


@dataclass
class FleetStats:
    """Fleet-level counters plus each worker's last counter snapshot."""

    shards: int
    start_method: str | None = None
    degraded: bool = False
    #: workloads resubmitted to a fresh pool after their pool broke
    requeues: int = 0
    #: pool breaks (a dead worker takes its whole pool down)
    deaths: int = 0
    #: workloads run in the parent process
    fallback_tasks: int = 0
    #: worker pid -> its cumulative counters (lane_cycles, steps,
    #: width_cycles, toolchain counters)
    shard: dict[int, dict[str, Any]] = field(default_factory=dict)

    def merged(self) -> dict[str, Any]:
        """One fleet-wide rollup: summed worker counters, weighted
        occupancy, and summed toolchain counters."""
        total = dict.fromkeys(_COUNTERS, 0)
        toolchain: dict[str, int] = {}
        for counters in self.shard.values():
            for key in total:
                total[key] += counters.get(key, 0)
            for key, value in counters.get("toolchain", {}).items():
                toolchain[key] = toolchain.get(key, 0) + value
        width = total.pop("width_cycles")
        occupancy = total["lane_cycles"] / width if width else 0.0
        return {
            **total,
            "occupancy": round(occupancy, 4),
            "toolchain": toolchain,
            "shards": self.shards,
            "start_method": self.start_method,
            "degraded": self.degraded,
            "requeues": self.requeues,
            "deaths": self.deaths,
            "fallback_tasks": self.fallback_tasks,
        }


# --------------------------------------------------------------- jobs
#
# A job says what the fleet runs: ``build(tc)`` compiles and optimizes
# the design (the parent publishes it, each worker warm-starts it), and
# ``run(tc, chunk, counters)`` runs one chunk of payloads, in a worker
# or in-process alike.


class _ProcJob:
    """Workload suites on the secure processor (the default job).

    A payload is ``(executable, budget)``; its result a :class:`RunResult`.
    """

    def __init__(self, lattice: Lattice, secure: bool, capture_state: bool):
        self.lattice = lattice
        self.secure = secure
        self.capture_state = capture_state

    def build(self, tc: Toolchain) -> None:
        tc.optimize(compile_processor(self.lattice, self.secure, toolchain=tc))

    def run(self, tc: Toolchain, chunk: list, counters: dict[str, int]) -> list[RunResult]:
        machines = BatchedMachines(
            [exe for exe, _budget in chunk],
            self.lattice,
            self.secure,
            toolchain=tc,
            capture_state=self.capture_state,
        )
        results = machines.run([budget for _exe, budget in chunk])
        counters["lane_cycles"] += sum(res.cycles for res in results)
        counters["steps"] += machines.sim.cycles
        counters["width_cycles"] += machines.sim.lane_cycles
        return results


class _DesignJob:
    """Lane slices of one generic design (``simulate`` with shards).

    A payload is ``(width, lane_stim)``; its result is the slice's
    :class:`~repro.commands.LaneRun`.
    """

    def __init__(self, request: SimulateRequest):
        self.request = request

    def build(self, tc: Toolchain) -> None:
        tc.optimize(compile_design(tc, self.request))

    def run(self, tc: Toolchain, chunk: list, counters: dict[str, int]) -> list[LaneRun]:
        req = self.request
        design = compile_design(tc, req)
        runs = []
        for width, stim in chunk:
            sim = tc.batch_simulator(design, width, engine=req.engine)
            run = run_lanes(sim, req.cycles, req.inputs, stim, req.compact)
            counters["lane_cycles"] += run.lane_cycles
            counters["steps"] += run.steps
            counters["width_cycles"] += run.steps * width
            runs.append(run)
        return runs


# ------------------------------------------------------------- workers

#: this worker process's state, set by :func:`_init_worker`
_WORKER: dict[str, Any] = {}


def _init_worker(job, store_root: str, doomed: bool) -> None:
    """Pool initializer: warm-start the job's design from the store."""
    tc = Toolchain(store=ArtifactStore(store_root))
    job.build(tc)
    _WORKER.update(job=job, tc=tc, doomed=doomed, counters=dict.fromkeys(_COUNTERS, 0))


def _run_chunk(chunk: list) -> tuple[int, list, dict[str, Any]]:
    """Pool task: one chunk's results plus this worker's pid and
    cumulative counters."""
    if _WORKER["doomed"]:
        os.kill(os.getpid(), signal.SIGKILL)  # fault-injection hook
    tc, counters = _WORKER["tc"], _WORKER["counters"]
    results = _WORKER["job"].run(tc, chunk, counters)
    return os.getpid(), results, {**counters, "toolchain": tc.counter_snapshot()}


# -------------------------------------------------------------- runner


class FleetRunner:
    """A pool of N worker processes running workload suites over one
    shared artifact store.

    Context-managed::

        with FleetRunner(shards=4, store="/tmp/artifacts") as fleet:
            results = fleet.run(executables, max_cycles=budgets)
            again = fleet.run(more_executables)   # workers stay warm

    Workers persist across :meth:`run` calls, so the per-process
    warm-up (store read + batched codegen) is paid once.  *store*
    accepts an :class:`ArtifactStore`, a directory path, or ``None``
    (a private temporary store).  *lanes_per_worker* bounds each
    chunk's lane width, and each chunk's batch picks its engine
    automatically from that width.  ``capture_state=True`` returns
    :class:`FleetWorkloadResult` with final registers and arrays.

    ``_doomed_pools=n`` is a fault-injection hook: every worker of the
    first *n* pools SIGKILLs itself when handed its first chunk (tests
    use it for deterministic crash/requeue coverage).
    """

    def __init__(
        self,
        shards: int = 2,
        lattice: Lattice | None = None,
        secure: bool = True,
        lanes_per_worker: int = 128,
        store: ArtifactStore | str | None = None,
        start_method: str | None = None,
        requeue_limit: int = 2,
        capture_state: bool = False,
        _job=None,
        _doomed_pools: int = 0,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if lanes_per_worker < 1:
            raise ValueError(f"lanes_per_worker must be >= 1, got {lanes_per_worker}")
        self.shards = shards
        self.lanes_per_worker = lanes_per_worker
        self.start_method = start_method
        self.requeue_limit = requeue_limit
        self._tmp: tempfile.TemporaryDirectory | None = None
        self.store = coerce_store(store)
        if self.store is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-fleet-")
            self.store = ArtifactStore(self._tmp.name)
        self._job = _job or _ProcJob(lattice or two_level(), secure, capture_state)
        self._doomed_pools = _doomed_pools
        self._pools_made = 0
        self._ctx = None
        self._pool: ProcessPoolExecutor | None = None
        self._started = False
        self._closed = False
        self.errors: list[str] = []
        self.stats = FleetStats(shards=shards)

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> FleetRunner:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self) -> None:
        """Publish the design to the store and pick a start method.
        No usable method degrades to in-process execution instead of
        raising."""
        if self._started:
            return
        if self._closed:
            raise FleetError("FleetRunner is closed")
        self._started = True
        # the publishing toolchain is dropped here: keeping it would
        # hold the whole build in the parent for the fleet's lifetime
        self._job.build(Toolchain(store=self.store))
        for method in (self.start_method,) if self.start_method else _START_METHODS:
            try:
                self._ctx = mp.get_context(method)
                break
            except ValueError:
                continue
        else:
            self._degrade("no usable multiprocessing start method")
            return
        self.stats.start_method = self._ctx.get_start_method()

    def _degrade(self, reason: str) -> None:
        self.errors.append(reason)
        self.stats.degraded = True

    def _fresh_pool(self) -> ProcessPoolExecutor | None:
        doomed = self._pools_made < self._doomed_pools
        self._pools_made += 1
        try:
            return ProcessPoolExecutor(
                self.shards,
                mp_context=self._ctx,
                initializer=_init_worker,
                initargs=(self._job, str(self.store.root), doomed),
            )
        except (OSError, ValueError, NotImplementedError) as exc:
            self._degrade(f"worker pool startup failed: {exc}")
            return None

    def close(self) -> None:
        """Shut the pool down and remove a private store."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    # -- running ------------------------------------------------------------

    def run(
        self,
        executables: Sequence[Executable],
        max_cycles: int | Sequence[int] = 2_000_000,
    ) -> list[RunResult]:
        """Run the suite; one result per executable, submission order."""
        budgets = check_budgets(max_cycles, len(executables))
        payloads = list(zip(executables, budgets))
        size = max(1, min(self.lanes_per_worker, -(-len(payloads) // self.shards)))
        return self._run_chunks([payloads[lo : lo + size] for lo in range(0, len(payloads), size)])

    def _run_chunks(self, chunks: list[list]) -> list:
        """Run *chunks* on the pool; their results, flattened, in
        submission order.  Chunks a broken pool lost go to a fresh pool
        up to ``requeue_limit`` times, then run in-process."""
        self.start()
        done: list[list | None] = [None] * len(chunks)
        todo = list(range(len(chunks)))
        for attempt in range(self.requeue_limit + 1):
            if not todo or self.stats.degraded:
                break
            if attempt:
                self.stats.requeues += sum(len(chunks[c]) for c in todo)
            todo = self._on_pool(chunks, todo, done)
        missing = [c for c in range(len(chunks)) if done[c] is None]
        if missing:
            # the build is rebuilt from the store only when needed, so
            # the parent holds no design while the pool runs
            tc = Toolchain(store=self.store)
            for c in missing:
                done[c] = self._job.run(tc, chunks[c], dict.fromkeys(_COUNTERS, 0))
                self.stats.fallback_tasks += len(chunks[c])
        return [result for results in done for result in results]

    def _on_pool(self, chunks: list[list], todo: list[int], done: list) -> list[int]:
        """Run chunks *todo* on the pool, filling *done*; returns the
        chunks lost to a pool break (the broken pool is dropped, and the
        next call starts a fresh one)."""
        if self._pool is None:
            self._pool = self._fresh_pool()
            if self._pool is None:
                return todo
        futures = {}
        try:
            for c in todo:
                futures[c] = self._pool.submit(_run_chunk, chunks[c])
        except BrokenProcessPool:
            pass  # a worker died while the rest were being submitted
        lost = [c for c in todo if c not in futures]
        for c, future in futures.items():
            try:
                pid, results, snap = future.result()
            except BrokenProcessPool:
                lost.append(c)
                continue
            done[c] = results
            self.stats.shard[pid] = snap
        if lost:
            self.stats.deaths += 1
            self._pool.shutdown(wait=True)
            self._pool = None
        return sorted(lost)


# ------------------------------------------------- generic design entry


def simulate_sharded(
    request: SimulateRequest, store: ArtifactStore | str | None = None
) -> tuple[CompiledDesign, LaneRun, FleetStats]:
    """Shard a generic design's lane batch across ``request.shards``
    fleet workers.

    The lanes split into contiguous slices, about two per worker, and
    each slice is one chunk: a worker steps it through
    :func:`repro.commands.run_lanes`, so per-lane violations and final
    outputs are bit-identical to the single-process run.  Returns the
    design (read back from the store), the merged run (the longest
    slice's steps, summed lane-cycles and active lanes) and the fleet
    counters.
    """
    lanes = request.lanes
    size = -(-lanes // (request.shards * 2))
    stim = request.lane_stimulus()
    chunks = [
        [(min(size, lanes - lo), stim[lo : lo + size] if stim is not None else None)]
        for lo in range(0, lanes, size)
    ]
    job = _DesignJob(request)
    with FleetRunner(shards=request.shards, store=store, _job=job) as runner:
        runs = runner._run_chunks(chunks)
        design = compile_design(Toolchain(store=runner.store), request)
    merged = LaneRun(
        [count for run in runs for count in run.violations],
        [out for run in runs for out in run.final],
        max(run.steps for run in runs),
        sum(run.lane_cycles for run in runs),
        sum(run.active_lanes for run in runs),
    )
    return design, merged, runner.stats
