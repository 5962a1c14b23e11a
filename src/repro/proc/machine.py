"""Loadable machine wrappers around the Sapper processor and the ISS.

:class:`SapperMachine` compiles the generated processor once per
(lattice, security) configuration through the shared
:class:`~repro.toolchain.Toolchain` (source text, compiled design,
optimized module, and simulator step function are all cached by key),
loads an assembled executable plus per-word memory security tags, and
runs the hardware simulator until the MMIO halt fires -- collecting the
output port trace, the cycle count, and the number of dynamic-check
violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.lattice import Lattice, encode, two_level
from repro.mips.assembler import Executable, assemble
from repro.mips.iss import Iss
from repro.proc.design import ProcParams, generate_design
from repro.sapper.compiler import CompiledDesign
from repro.toolchain import get_toolchain, lattice_key


def compile_processor(
    lattice: Lattice | None = None,
    secure: bool = True,
    mem_words: int = 1 << 24,
    kernel_vector: int = 0x400,
    toolchain=None,
) -> CompiledDesign:
    """Compile (and cache) the processor for *lattice*.

    *toolchain* overrides the process-wide default -- fleet workers pass
    their own store-backed :class:`~repro.toolchain.Toolchain` here so
    the compiled design is read through the shared artifact store
    instead of recompiled per process.
    """
    lattice = lattice or two_level()
    params = ProcParams(mem_words=mem_words, kernel_vector=kernel_vector)
    tc = toolchain or get_toolchain()
    key = ("proc-design", lattice_key(lattice), secure, mem_words, kernel_vector)
    return tc.cached(
        key,
        lambda: tc.compile(
            generate_design(lattice, params), lattice, secure=secure, name="sapper_mips"
        ),
    )


def check_budgets(max_cycles: int | Sequence[int], count: int) -> list[int]:
    """Expand *max_cycles* into one cycle budget per workload lane.

    A single int replicates to every lane.  A sequence must name
    exactly one budget per executable: a short or long sequence used to
    be silently zipped (dropping workloads or budgets); now it raises
    ``ValueError`` naming the lane indices that would have been
    mispaired.
    """
    if isinstance(max_cycles, int):
        return [max_cycles] * count
    budgets = list(max_cycles)
    if len(budgets) == count:
        return budgets
    if len(budgets) < count:
        orphans = range(len(budgets), count)
        detail = f"lanes {orphans.start}..{orphans.stop - 1} have no budget"
    else:
        extra = range(count, len(budgets))
        detail = f"budget indices {extra.start}..{extra.stop - 1} name no lane"
    raise ValueError(
        f"max_cycles sequence has {len(budgets)} entries for {count} "
        f"executable(s): {detail}"
    )


@dataclass
class RunResult:
    outputs: list[int]
    cycles: int
    violations: int
    halted: bool


@dataclass
class StateResult(RunResult):
    """A :class:`RunResult` plus the lane's final architectural state.

    *regs* maps every register (tags included) to its final value,
    *arrays* maps each array to its sparse ``{index: value}`` contents.
    Array snapshots drop default-valued entries; compare through
    ``get(i, default)`` over the key union.
    """

    regs: dict[str, int] | None = None
    arrays: dict[str, dict[int, int]] | None = None


class SapperMachine:
    """The compiled secure processor, ready to load and run programs."""

    def __init__(
        self,
        lattice: Lattice | None = None,
        secure: bool = True,
        mem_words: int = 1 << 24,
        kernel_vector: int = 0x400,
    ):
        self.lattice = lattice or two_level()
        self.design = compile_processor(self.lattice, secure, mem_words, kernel_vector)
        self.encoding = encode(self.lattice)
        self.secure = secure
        self.sim = get_toolchain().simulator(self.design)
        self.outputs: list[int] = []
        self.violations = 0

    # -- loading ------------------------------------------------------------

    def load(self, exe: Executable) -> None:
        self.sim.arrays["memory"] = dict(exe.as_memory())

    def set_word_tag(self, byte_addr: int, label: str) -> None:
        """Pre-set the security tag of one memory word (the harness-side
        equivalent of a kernel ``set-tag`` loop; tests use both paths)."""
        if not self.secure:
            return
        bits = self.encoding.encode(self.lattice.check(label))
        self.sim.arrays["memory__tags"][byte_addr >> 2] = bits

    def tag_region(self, start: int, end: int, label: str) -> None:
        """Tag every word in ``[start, end)`` (byte addresses)."""
        for addr in range(start & ~3, end, 4):
            self.set_word_tag(addr, label)

    def word_tag(self, byte_addr: int) -> str:
        bits = self.sim.arrays["memory__tags"].get(byte_addr >> 2, 0)
        return self.encoding.decode(bits)

    def read_word(self, byte_addr: int) -> int:
        return self.sim.arrays["memory"].get(byte_addr >> 2, 0)

    @property
    def halted(self) -> bool:
        return bool(self.sim.regs["halted_r"])

    def gpr(self, index: int) -> int:
        return 0 if index == 0 else self.sim.regs[f"r{index}"]

    # -- running --------------------------------------------------------------

    def step(self) -> dict[str, int]:
        out = self.sim.step({})
        if out.get("out_valid"):
            self.outputs.append(out["out_port"])
        if out.get("violation"):
            self.violations += 1
        return out

    def run(self, max_cycles: int = 2_000_000) -> RunResult:
        start = self.sim.cycles
        for _ in range(max_cycles):
            self.step()
            if self.halted:
                break
        return RunResult(
            outputs=list(self.outputs),
            cycles=self.sim.cycles - start,
            violations=self.violations,
            halted=self.halted,
        )


class BatchedMachines:
    """N programs on the secure processor as lanes of one batched machine.

    One :class:`~repro.hdl.batch.BatchSimulator` advances every loaded
    executable together; per-lane output traces, violation counts, and
    halt flags are tracked exactly as :class:`SapperMachine` does for a
    single program.  Batching pays once enough lanes are active (the
    packed tag cone is evaluated once per cycle regardless of lane
    count); below :attr:`MIN_LANES` callers are usually better off with
    scalar machines -- :func:`run_workloads` picks automatically.

    With *compact* (the default), lanes are retired from the batch as
    soon as they halt or exhaust their cycle budget: the simulator
    repacks its state down to the surviving lanes, so a skewed suite
    (one long program among many short ones) keeps full occupancy
    instead of paying full-width steps until the slowest lane finishes.
    Results are indexed by the *original* lane order either way.

    *toolchain* overrides the process-wide default, as in
    :func:`compile_processor`.  With *capture_state*, :meth:`run`
    returns :class:`StateResult` with each lane's registers and arrays
    as they were when the lane halted or exhausted its budget.
    """

    #: lane count at which the batched engine overtakes scalar machines
    #: on the full processor (see benchmarks/test_perf_toolchain.py)
    MIN_LANES = 16

    def __init__(
        self,
        executables: list[Executable],
        lattice: Lattice | None = None,
        secure: bool = True,
        compact: bool = True,
        engine: str = "auto",
        toolchain=None,
        capture_state: bool = False,
    ):
        tc = toolchain or get_toolchain()
        self.lattice = lattice or two_level()
        self.design = compile_processor(self.lattice, secure, toolchain=tc)
        self.sim = tc.batch_simulator(self.design, len(executables), engine=engine)
        self.lanes = len(executables)
        self.compact = compact
        self.capture_state = capture_state
        self.state: list[tuple[dict, dict] | None] = [None] * self.lanes
        for lane, exe in enumerate(executables):
            self.sim.load_array(lane, "memory", exe.as_memory())
        self.outputs: list[list[int]] = [[] for _ in range(self.lanes)]
        self.violations = [0] * self.lanes
        self.halted_at: list[int | None] = [None] * self.lanes

    def run(self, max_cycles: int | Sequence[int] = 2_000_000) -> list[RunResult]:
        """Advance all lanes until every lane halts or exhausts its budget.

        *max_cycles* may be one budget for all lanes or a per-lane
        sequence (each workload keeps its own cycle budget, exactly as a
        scalar :meth:`SapperMachine.run` per program would).
        """
        sim = self.sim
        halted_reg = "halted_r"
        budgets = check_budgets(max_cycles, self.lanes)
        spent = [0] * self.lanes
        if self.capture_state:
            self._snapshot(pos for pos, lane in enumerate(sim.active_lanes) if not budgets[lane])
        for cycle in range(1, max(budgets, default=0) + 1):
            outs = sim.step()
            live = False
            retire: list[int] = []
            for pos, out in enumerate(outs):
                lane = sim.active_lanes[pos]
                if self.halted_at[lane] is not None or cycle > budgets[lane]:
                    continue
                spent[lane] = cycle
                if out.get("out_valid"):
                    self.outputs[lane].append(out["out_port"])
                if out.get("violation"):
                    self.violations[lane] += 1
                if sim.get_reg(pos, halted_reg):
                    self.halted_at[lane] = cycle
                    retire.append(pos)
                elif cycle >= budgets[lane]:
                    retire.append(pos)
                else:
                    live = True
            if self.capture_state:
                self._snapshot(retire)
            if not live:
                break
            if self.compact and retire:
                sim.compact(retire)
        results = [
            RunResult(
                outputs=list(self.outputs[lane]),
                cycles=self.halted_at[lane] or spent[lane],
                violations=self.violations[lane],
                halted=self.halted_at[lane] is not None,
            )
            for lane in range(self.lanes)
        ]
        if self.capture_state:
            results = [
                StateResult(**vars(res), regs=regs, arrays=arrays)
                for res, (regs, arrays) in zip(results, self.state)
            ]
        return results

    def _snapshot(self, positions) -> None:
        """Record the registers and arrays of the lanes at *positions*."""
        sim = self.sim
        for pos in positions:
            self.state[sim.active_lanes[pos]] = (
                sim.lane_regs(pos),
                {name: dict(lanes[pos]) for name, lanes in sim.arrays.items()},
            )


def run_workloads(
    executables: list[Executable],
    lattice: Lattice | None = None,
    max_cycles: int | Sequence[int] = 2_000_000,
    batched: bool | None = None,
    compact: bool = True,
    engine: str = "auto",
    shards: int | None = None,
    store=None,
) -> list[RunResult]:
    """Run many programs on the secure processor, one result per program.

    *max_cycles* is one budget or a per-program sequence (a mismatched
    sequence length raises ``ValueError``).  ``batched=None`` picks the
    engine automatically: the lane-batched simulator once
    ``len(executables) >= BatchedMachines.MIN_LANES``, scalar machines
    below that (a batched step costs roughly the same as
    ~ :attr:`~BatchedMachines.MIN_LANES` scalar steps on this design, so
    small suites with skewed run lengths are faster scalar).  *compact*
    lets the batched engine retire finished lanes mid-run (lane
    compaction); results are identical either way.  *engine* pins the
    batched generation (``swar``/``vector``; default ``"auto"``,
    automatic per lane count).

    ``shards=N`` (N >= 2) runs the suite on the multiprocess fleet
    instead: a pool of N worker processes, each running lane-width
    chunks of the suite through :class:`BatchedMachines` over the
    shared artifact store *store* (see :class:`repro.fleet.FleetRunner`).
    Results are bit-identical and in the same order; the pool is started
    and torn down per call, so repeated suites are cheaper through a
    persistent ``FleetRunner``.
    """
    budgets = check_budgets(max_cycles, len(executables))
    if shards is not None and shards > 1:
        from repro.fleet import FleetRunner

        with FleetRunner(
            shards=shards, lattice=lattice, store=store, engine=engine
        ) as fleet:
            return fleet.run(executables, max_cycles=budgets)
    if batched is None:
        batched = len(executables) >= BatchedMachines.MIN_LANES
    if batched:
        return BatchedMachines(
            executables, lattice, compact=compact, engine=engine
        ).run(budgets)
    results = []
    for exe, budget in zip(executables, budgets):
        machine = SapperMachine(lattice)
        machine.load(exe)
        results.append(machine.run(budget))
    return results


def run_on_iss(exe: Executable, max_steps: int = 10_000_000) -> Iss:
    """Run *exe* to halt on the golden reference machine."""
    iss = Iss.load(exe)
    iss.run(max_steps)
    return iss


def run_program(
    source: str, lattice: Lattice | None = None, max_cycles: int = 2_000_000
) -> RunResult:
    """Assemble and run *source* on the secure processor."""
    machine = SapperMachine(lattice)
    machine.load(assemble(source))
    return machine.run(max_cycles)
