"""The unified Sapper toolchain facade.

One object owns the whole flow::

    parse -> analyze -> compile -> optimize -> { simulate | synthesize | emit }

with keyed artifact caching at every stage, replacing the ad-hoc
``lru_cache`` wrappers that used to live in ``repro.proc.design`` and
``repro.proc.machine``.  Cache keys are explicit and structural (source
digest, lattice order, compile flags), so distinct configurations never
collide and the cache can be inspected or cleared as a unit.

Typical use::

    from repro.toolchain import get_toolchain

    tc = get_toolchain()
    design = tc.compile(source, two_level(), name="tdma")
    sim = tc.simulator(design)       # optimized module, fresh state
    report = tc.synthesize(design)   # cached cost report
    text = tc.verilog(design)        # cached Verilog text

Every backend consumes the *same* optimized module object (the pass
pipeline is memoized per module), so simulation, synthesis, and Verilog
agree exactly on what hardware they describe.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import threading
import weakref
from collections import Counter, OrderedDict
from collections.abc import Callable
from concurrent.futures import Future
from typing import TypeVar

from repro.analyze import (
    ANALYSIS_VERSION,
    AnalysisReport,
    analyze_design,
    analyze_module,
)
from repro.hdl import (
    BatchSimulator,
    Simulator,
    emit_verilog as _emit_verilog,
    synthesize as _synthesize,
)
from repro.hdl import batch as _batch, passes as _passes
from repro.hdl.ir import Module
from repro.hdl.passes import optimize as _optimize
from repro.hdl.synth import CostReport
from repro.lattice import Lattice
from repro.sapper import ast
from repro.sapper.analysis import ProgramInfo, analyze
from repro.sapper.compiler import CompiledDesign, compile_program
from repro.sapper.parser import parse_program
from repro.store import MISS, ArtifactStore, StoreError, UnstableKey, persistable_key

T = TypeVar("T")

Source = str | ast.Program | ProgramInfo
Design = CompiledDesign | Module

#: Lane count from which automatic engine selection prefers the NumPy
#: vector tier.  A generic secure-processor step with diverged lanes
#: costs the same on both engines here (1.82 ms vector, 1.84 ms SWAR on
#: a 2-CPU Xeon host); SWAR wins below (1.18 vs 1.83 ms at 32 lanes),
#: vector above (1.78 vs 3.52 ms at 128).  ``engine="auto"`` applies it
#: to the live lane count, so an auto vector batch that compaction
#: takes below it continues on SWAR.
VECTOR_AUTO_LANES = 64

#: The batched simulation engines, by name (``"auto"`` picks one of
#: them, see :func:`auto_engine`).
BATCH_ENGINES = ("swar", "vector")


def check_engine(engine: str) -> None:
    """Raise ValueError unless *engine* is ``"auto"`` or one of
    :data:`BATCH_ENGINES`."""
    if engine not in ("auto", *BATCH_ENGINES):
        raise ValueError(
            f"unknown batch engine {engine!r}; valid engines: auto, {', '.join(BATCH_ENGINES)}"
        )


def auto_engine(lanes: int) -> str:
    """The batched engine automatic selection picks for *lanes* lanes:
    ``"vector"`` from :data:`VECTOR_AUTO_LANES` up when NumPy is
    importable, ``"swar"`` otherwise.  An ``engine="auto"`` batch asks
    again after every compaction, with its live lane count.  Every
    engine is bit-identical per lane, so this is purely a throughput
    choice."""
    if lanes >= VECTOR_AUTO_LANES:
        from repro.hdl.vector import HAVE_NUMPY

        if HAVE_NUMPY:
            return "vector"
    return "swar"


def lattice_key(lattice: Lattice) -> tuple:
    """A hashable, order-independent identity for a lattice."""
    pairs = tuple(
        sorted(
            (a, b)
            for a in lattice.elements
            for b in lattice.elements
            if lattice.leq(a, b) and a != b
        )
    )
    return (tuple(lattice.elements), pairs)


def source_key(source: Source) -> tuple:
    """A hashable identity for program source in any of its forms.

    Text and AST sources key structurally (a digest of the text, or of
    the AST's canonical dataclass repr), so they are stable across
    processes and eligible for the persistent store tier.  Analyzed
    ``ProgramInfo`` objects carry open-ended derived state and are
    identity-keyed via :class:`~repro.store.UnstableKey`; the object is
    pinned by the cache entry so the id cannot be reused while the
    entry lives, and the store tier refuses the key.
    """
    if isinstance(source, str):
        return ("text", hashlib.sha256(source.encode()).hexdigest())
    if isinstance(source, ast.Program):
        return ("ast", hashlib.sha256(repr(source).encode()).hexdigest())
    return ("object", UnstableKey(source))


class _StoreTier:
    """The artifact store as one batched-codegen entry sees it.

    Keys are the entry's ``codegen`` key, restaged per record kind
    (``("fold", *rest, combo)`` for a folded body).  A stored record is
    adopted; a miss, or a record whose code fails to load (ValueError,
    EOFError, TypeError: quarantined as corrupt), is produced afresh
    and written through.  The entry outlives the toolchain that made
    it, so the counters are reached through a weak reference.
    """

    def __init__(self, toolchain: Toolchain, key: tuple):
        self.store = toolchain.store
        self.key = key
        self._bump = weakref.WeakMethod(toolchain.bump)

    def _count(self, counter: str) -> None:
        bump = self._bump()
        if bump is not None:
            bump(counter)

    def through(self, stage: str, extra: tuple, produce: Callable, adopt: Callable):
        key = (stage, *self.key[1:], *extra)
        record = self.store.get(key, default=MISS)
        if record is not MISS:
            try:
                value = adopt(record)
            except (ValueError, EOFError, TypeError):
                self.store.discard(key)
            else:
                self._count(f"store_hit:{stage}")
                return value
        self._count(f"store_miss:{stage}")
        record = produce()
        self.store.put(key, record)
        return adopt(record)


def _flight() -> Future:
    """A build's future, set running so no awaiting task can cancel it."""
    building: Future = Future()
    building.set_running_or_notify_cancel()
    return building


class Toolchain:
    """Facade over the full Sapper flow with keyed artifact caching.

    The cache is LRU-bounded (*max_entries*, default 128 -- generous
    next to the ``lru_cache(maxsize=8)`` wrappers it replaced) so a
    process sweeping many configurations cannot grow without bound;
    evicting an entry also drops its pin, letting the artifact be
    collected.

    With *store* (an :class:`~repro.store.ArtifactStore`), stages whose
    keys are stable across processes (text/AST sources) gain a
    write-through / read-through persistent tier under the in-memory
    LRU: a fresh process warm-starts from disk instead of recompiling
    (batched codegen included, see :meth:`batch_simulator`), and
    corrupt or stale entries fall back to recompute.  ``counters``
    tracks per-stage memory hits/misses, store hits/misses, and
    callers coalesced onto a build already in flight (see :meth:`cached`).

    *opt_level* is 0 (every backend consumes the raw compiled module)
    or 1 (the standard pass pipeline first); anything else raises
    ValueError, so two toolchains that build the same artifacts always
    share their keys.
    """

    def __init__(
        self,
        opt_level: int = 1,
        max_entries: int = 128,
        store: ArtifactStore | None = None,
    ):
        if type(opt_level) is not int or opt_level not in (0, 1):
            raise ValueError(
                f"opt_level must be 0 (raw) or 1 (optimized), got {opt_level!r}"
            )
        self.opt_level = opt_level
        self.max_entries = max_entries
        self.store = store
        self._cache: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        #: key -> the future of its build in progress (single flight)
        self._building: dict[tuple, Future] = {}
        #: flights opened by :meth:`reserve`: "reserved" | "building" | "built"
        self._reserved: dict[tuple, str] = {}
        self.counters: dict[str, int] = {}

    # -- generic keyed cache ------------------------------------------------

    @staticmethod
    def _stage(key: tuple) -> str:
        return key[0] if isinstance(key, tuple) and key else str(key)

    def bump(self, counter: str, by: int = 1) -> None:
        """Increment a named counter (thread-safe)."""
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + by

    def counter_snapshot(self) -> dict[str, int]:
        """A consistent copy of the hit/miss/coalesce counters."""
        with self._lock:
            return dict(self.counters)

    def cached(
        self,
        key: tuple,
        producer: Callable[[], T],
        pin: object = None,
        persist: bool = False,
    ) -> T:
        """Return the artifact for *key*, producing it on first use.

        *pin* keeps an auxiliary object alive alongside the artifact
        (used when the key embeds an identity).  *persist* additionally
        routes misses through the on-disk store tier (when a store is
        configured and the key is stable): read-through on miss,
        write-through after produce.

        Thread-safe and single-flight: the memory cache is consulted
        under a lock, and producers run outside it so distinct keys
        build concurrently.  A caller asking for a key that is being
        built waits for that build instead of starting another, and
        bumps ``coalesced:<stage>``; a failed build raises in every
        waiter.  The first call for a key held by :meth:`reserve`
        builds it.
        """
        stage = self._stage(key)
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
                self.bump(f"hit:{stage}")
                return entry[1]
            building = self._building.get(key)
            owner = building is None or self._reserved.get(key) == "reserved"
            self.bump(f"miss:{stage}" if owner else f"coalesced:{stage}")
            if building is None:
                building = self._building[key] = _flight()
            elif owner:
                self._reserved[key] = "building"
        if not owner:
            return building.result()

        try:
            value = MISS
            use_store = persist and self.store is not None and persistable_key(key)
            if use_store:
                value = self.store.get(key, default=MISS)
                self.bump(f"store_hit:{stage}" if value is not MISS else f"store_miss:{stage}")
            if value is MISS:
                value = producer()
                if use_store:
                    self.store.put(key, value)
        except BaseException as exc:
            self._land(key)
            building.set_exception(exc)
            raise
        with self._lock:
            self._cache[key] = (pin, value)
            while len(self._cache) > self.max_entries:
                self._cache.popitem(last=False)
            self._land(key)
        building.set_result(value)
        return value

    def _land(self, key: tuple) -> None:
        """End *key*'s flight, unless :meth:`reserve` holds it open."""
        with self._lock:
            if key in self._reserved:
                self._reserved[key] = "built"
            else:
                del self._building[key]

    def reserve(self, key: tuple) -> tuple[Future | None, bool]:
        """Single flight for a caller that must not block (an event loop)
        before it submits work that calls ``cached(key)``: ``(None,
        False)`` if *key* is cached; ``(future, False)`` if its flight is
        open (``coalesced:<stage>``), to await before submitting; else
        ``(future, True)``: the caller opened the flight, the first
        ``cached(key)`` builds it, and later callers coalesce onto it
        until the caller hands it to :meth:`release`."""
        with self._lock:
            building = self._building.get(key)
            if building is not None:
                self.bump(f"coalesced:{self._stage(key)}")
                return building, False
            if key in self._cache:
                return None, False
            building = self._building[key] = _flight()
            self._reserved[key] = "reserved"
            return building, True

    def release(self, key: tuple, building: Future) -> None:
        """Close a flight opened by :meth:`reserve`.  If no build took
        it up, its waiters wake with ``None`` and build *key* themselves."""
        with self._lock:
            state = self._reserved.pop(key)
            if state != "building":
                del self._building[key]
        if state == "reserved":
            building.set_result(None)

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    def cache_info(self) -> dict[str, int]:
        """Entry counts per stage (the first key component)."""
        with self._lock:
            return dict(Counter(self._stage(key) for key in self._cache))

    # -- front-end stages ----------------------------------------------------

    def parse(self, source: str, name: str = "design") -> ast.Program:
        return self.cached(
            ("parse", source_key(source), name),
            lambda: parse_program(source, name),
        )

    def analyze(
        self,
        source: Source | Design,
        lattice: Lattice | None = None,
        name: str = "design",
    ) -> ProgramInfo | AnalysisReport:
        """Two analysis stages share this entry point.

        Given program source (text/AST) and a lattice: the front-end
        name/state-tree analysis, returning a
        :class:`~repro.sapper.analysis.ProgramInfo` (as before).

        Given a compiled design or raw module: the static back-end
        analysis of :mod:`repro.analyze` -- lint rules plus the taint
        certificate -- returning an
        :class:`~repro.analyze.AnalysisReport`.  Cached like every
        other stage and persisted in the artifact store under the
        design's structural key (``analyze`` counters beside
        compile/optimize).
        """
        if isinstance(source, (CompiledDesign, Module)):
            return self._analyze_design(source)
        if lattice is None:
            raise TypeError("analyze() of program source requires a lattice")
        if isinstance(source, ProgramInfo):
            return source
        key = ("analyze", source_key(source), lattice_key(lattice), name)
        if isinstance(source, str):
            return self.cached(key, lambda: analyze(self.parse(source, name), lattice))
        return self.cached(key, lambda: analyze(source, lattice), pin=source)

    def _analyze_design(self, design: Design) -> AnalysisReport:
        module = self._module(design)
        if isinstance(design, CompiledDesign):
            producer = lambda: analyze_design(design)
        else:
            producer = lambda: analyze_module(module)
        tail = self._structural_tail(design)
        if tail is None:
            key = ("check", UnstableKey(module), ANALYSIS_VERSION)
        else:
            key = ("check", *tail, ANALYSIS_VERSION)
        return self.cached(key, producer, pin=module, persist=True)

    @staticmethod
    def compile_key(source: Source, lattice: Lattice, secure: bool, name: str) -> tuple:
        """The cache key of a :meth:`compile`; its tail is the design's
        structural identity, shared by all its downstream artifacts."""
        return ("compile", source_key(source), lattice_key(lattice), secure, name)

    def compile(
        self,
        source: Source,
        lattice: Lattice,
        secure: bool = True,
        name: str = "design",
    ) -> CompiledDesign:
        key = self.compile_key(source, lattice, secure, name)
        design = self.cached(
            key,
            lambda: compile_program(
                self.analyze(source, lattice, name), lattice, secure=secure, name=name
            ),
            pin=source if not isinstance(source, str) else None,
            persist=True,
        )
        # remember the structural identity so downstream artifacts
        # (optimized module, synthesis report, Verilog) can join the
        # persistent tier under the same key family
        design._structural_key = key[1:]  # type: ignore[attr-defined]
        return design

    # -- mid-end -------------------------------------------------------------

    @staticmethod
    def _module(design: Design) -> Module:
        return design.module if isinstance(design, CompiledDesign) else design

    @staticmethod
    def _structural_tail(design: Design) -> tuple | None:
        """The persistable key tail of a toolchain-compiled design."""
        tail = getattr(design, "_structural_key", None)
        if tail is not None and persistable_key(tail):
            return tail
        return None

    def optimize(self, design: Design) -> Module:
        """The optimized module for *design*: cached (single flight) and
        persisted under the design's structural key, so a warm start
        skips the whole pass pipeline.  A raw module handed in directly
        is memoized per object by the pass pipeline alone.  At
        ``opt_level`` 0 this is the raw module."""
        module = self._module(design)
        if not self.opt_level:
            return module
        tail = self._structural_tail(design)
        if tail is None:
            return _optimize(module)
        return self.cached(
            ("optimize", *tail, _passes.PASSES_DIGEST),
            lambda: _optimize(module),
            pin=module,
            persist=True,
        )

    # -- backends ------------------------------------------------------------

    def simulator(self, design: Design) -> Simulator:
        """A fresh-state simulator over the (shared) optimized module."""
        return Simulator(self.optimize(design), optimize=False)

    def batch_simulator(
        self,
        design: Design,
        lanes: int,
        retire_when: Callable[[BatchSimulator, int], bool] | None = None,
        engine: str = "auto",
    ) -> BatchSimulator:
        """A fresh-state *lane-batched* simulator over the (shared)
        optimized module: one vectorized step advances *lanes* independent
        machine states, each bit-identical to :meth:`simulator`.

        *engine* names one of :data:`BATCH_ENGINES`: ``"swar"``
        (guard-banded wide-word lane packing) or ``"vector"`` (NumPy
        uint64 lane arrays; needs NumPy); ``"auto"``, the default,
        defers to :func:`auto_engine` (vector from
        :data:`VECTOR_AUTO_LANES` lanes when NumPy is importable, swar
        below) for the whole run: an auto vector batch that compaction
        leaves with fewer lanes continues on swar, as the same object
        (see :meth:`BatchSimulator.compact`; the swar entry is built
        on the first such handover, through the store when there is
        one).  Any other name raises ValueError.  *retire_when*
        installs a lane-retirement predicate (``(sim, lane) -> bool``)
        driving automatic lane compaction in :meth:`BatchSimulator.run`.
        The batched step function, its per-lane-count factories, and
        any state-specialized fast-path bodies are cached per (module
        object, engine) pair -- the same structural key every other
        artifact here hangs off -- so repeated calls (randomized suites,
        the eval driver) compile once per engine, and compacted widths
        re-enter the same per-lane-count cache.  With a store, the step
        and the folded bodies are also persisted (``codegen`` and
        ``fold`` stages, see :meth:`_prime_codegen`).
        """
        check_engine(engine)
        auto = engine == "auto"
        if auto:
            engine = auto_engine(lanes)
        module = self.optimize(design)
        self._prime_codegen(design, module, engine)
        if engine == "vector":
            from repro.hdl.vector import VectorSimulator

            sim = VectorSimulator(module, lanes, optimize=False, retire_when=retire_when)
            if auto:
                sim._handover = functools.partial(self._handover_entry, design, module)
            return sim
        return BatchSimulator(module, lanes, optimize=False, retire_when=retire_when)

    def _handover_entry(
        self, design: Design, module: Module, lanes: int
    ) -> _batch._BatchEntry | None:
        """The SWAR entry an ``engine="auto"`` vector batch continues on
        once compaction leaves it *lanes* lanes, or None while
        :func:`auto_engine` still picks vector.  Built on first use,
        through the store when there is one."""
        if auto_engine(lanes) != "swar":
            return None
        self._prime_codegen(design, module, "swar")
        return _batch._batch_entry(module)

    def _prime_codegen(self, design: Design, module: Module, engine: str) -> None:
        """Build *module*'s batched entry for *engine* through the store
        tier: the generic step as a ``codegen`` record, folded bodies as
        lazily persisted ``fold`` records.  The key ends in the code
        generators' source digest and the interpreter's bytecode magic,
        so a stale record is never served.  Memory-only designs (no
        store, or no structural key) build on first simulator use."""
        tail = self._structural_tail(design)
        if tail is None or self.store is None:
            return
        key = ("codegen", *tail, self.opt_level, engine, _batch.GEN_DIGEST, _batch.MAGIC)
        tier = _StoreTier(self, key)
        if engine == "vector":
            from repro.hdl.vector import HAVE_NUMPY, _vector_entry

            if HAVE_NUMPY:  # else VectorSimulator raises its install hint
                _vector_entry(module, tier)
        else:
            _batch._batch_entry(module, tier)

    def _backend_key(self, stage: str, design: Design) -> tuple:
        """Structural backend key when the design carries one, else the
        legacy identity key (raw modules handed in directly)."""
        tail = self._structural_tail(design)
        if tail is not None:
            return (stage, *tail, self.opt_level, _passes.PASSES_DIGEST)
        # identity-keyed fallback for raw modules: UnstableKey keeps the
        # store tier out (an id() must never cross a process boundary)
        return (stage, UnstableKey(self._module(design)), self.opt_level)

    def synthesize(self, design: Design) -> CostReport:
        """Gate census / area / delay / power of the optimized module (cached)."""
        return self.cached(
            self._backend_key("synth", design),
            lambda: _synthesize(self.optimize(design), optimize=False),
            pin=self._module(design),
            persist=True,
        )

    def verilog(self, design: Design) -> str:
        """Synthesizable Verilog text of the optimized module (cached)."""
        return self.cached(
            self._backend_key("verilog", design),
            lambda: _emit_verilog(self.optimize(design), optimize=False),
            pin=self._module(design),
            persist=True,
        )


#: Process-wide default toolchain instance.
_DEFAULT: Toolchain | None = None


def get_toolchain() -> Toolchain:
    """The shared default :class:`Toolchain` (created on first use).

    If ``REPRO_STORE`` names a directory, the default instance gains a
    persistent artifact-store tier rooted there -- the zero-code way to
    warm-start scripts and notebooks.  An unusable directory degrades
    to the in-memory tier with a warning rather than failing the run.
    """
    global _DEFAULT
    if _DEFAULT is None:
        store = None
        store_dir = os.environ.get("REPRO_STORE")
        if store_dir:
            try:
                store = ArtifactStore(store_dir)
            except StoreError as exc:
                print(f"warning: REPRO_STORE disabled: {exc}", file=sys.stderr)
        _DEFAULT = Toolchain(store=store)
    return _DEFAULT


def set_toolchain(toolchain: Toolchain | None) -> None:
    """Replace the process-wide default (``None`` resets to a fresh one)."""
    global _DEFAULT
    _DEFAULT = toolchain
