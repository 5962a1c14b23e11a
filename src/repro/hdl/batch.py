"""Lane-batched simulation: advance N independent machine states per call.

The scalar :class:`~repro.hdl.sim.Simulator` pays full Python
interpretation overhead for every machine it runs; randomized suites and
the evaluation driver run hundreds of independent simulations of the
*same* module.  :class:`BatchSimulator` compiles one *vectorized* step
function that advances ``n`` lanes at once, bit-identically to ``n``
scalar simulators, using three cooperating evaluation tiers:

**Packed world ("p")** -- every 1-bit signal whose whole expression tree
is 1-bit (the security-tag cone dominates compiled Sapper designs) is
held as a single integer with bit ``l`` = lane ``l``.  One Python ``&``
then advances all lanes of an AND gate at once; muxes become three
bitwise ops.  This is the classic bit-slicing transform, applied across
lanes instead of across a word.

**SWAR world ("w")** -- multi-bit signals up to
:data:`~repro.hdl.swar.SWAR_MAX_WIDTH` bits whose trees use only
SWAR-expressible operators (add/sub, bitwise, compares, constant shifts,
mux, extends, slices, cat) are packed ``n`` lanes per big integer, one
fixed-``pitch`` slot per lane with a guard band above the value bits
(:mod:`repro.hdl.swar`).  A single big-int ``+`` then advances all lanes
of an adder; compares use the guard-bit borrow trick and return either
slot-spaced flags (consumed by SWAR muxes) or lane-contiguous flags
(consumed by the packed tag world) -- layout conversions are a single
multiply, not a per-lane loop.  Registers in 2..33 bits live *packed* in
``sregs``; write-back from the SWAR world is one dict store.

**Scalar world ("s")** -- everything else (array reads, mul/div/mod,
variable shifts, >33-bit values) is evaluated per lane inside a ``for``
loop over lanes, exactly as the scalar simulator would, with per-lane
list buffers, hoisted loop-invariant reads, and boolean-context guard
emission.  Pack/unpack shims move values across the tier boundary:
scalar loops read packed signals with a shift-and-mask, and scalar
results feeding SWAR consumers are accumulated into packed form inside
the loop that computes them.

**Uniform-state fast path** -- when every lane agrees on the value of
the module's narrow control registers (FSM/fall registers), the step
dispatches to a *specialized* body: the module bound to those values
over the cone its sinks still read (:func:`repro.hdl.passes.bind`) and
re-optimized by the standard pass pipeline.  Bodies are compiled lazily
per observed state and cached; bindings that fail to shrink the module
are remembered and skipped.

**Lane compaction** -- :meth:`BatchSimulator.compact` retires lanes
mid-run (halted machines, exhausted budgets), repacking every piece of
state down to the survivors and re-entering the per-lane-count step
cache at the new width, so skewed workload suites keep full occupancy;
:attr:`BatchSimulator.active_lanes` maps compacted positions back to
construction-time lane ids.

Each step runs exactly one of two bit-identical paths, chosen from lane
state alone: the folded body when every lane agrees on the control
registers, the generic step otherwise.

All compiled artifacts are cached per (module object, engine) -- the
same structural identity the :class:`~repro.toolchain.Toolchain` keys
its artifacts by -- so every ``BatchSimulator`` over one module shares a
single compilation.  A toolchain with an artifact store also persists
the generic step and every folded body (see "persistence" below), so a
new process loads them instead of generating them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
from collections import Counter
from pathlib import Path
from types import CodeType
from collections.abc import Callable, Sequence
from typing import NamedTuple

from repro.hdl.ir import HConst, HExpr, HOp, HRef, Module, significant_bits
from repro.hdl.passes import PASSES_DIGEST, bind, run_pipeline
from repro.hdl.passes.base import WeakIdMemo
from repro.hdl.sim import _SIGNED_HELPER, _CodeGen, nests_within
from repro.hdl.swar import SWAR_MAX_WIDTH, get_layout

#: Ops that close over the packed (1-bit lane-sliced) world.
_PACK_OPS = frozenset(
    ["and", "or", "xor", "not", "mux", "land", "lor", "lnot",
     "eq", "ne", "add", "sub", "neg", "slice", "zext", "sext"]
)

#: Ops whose scalar code is a Python comparison/boolean expression that
#: can be used directly in boolean context (mux guards, accumulators).
_BOOL_OPS = frozenset(
    ["eq", "ne", "lt", "le", "gt", "ge", "lts", "les", "gts", "ges",
     "land", "lor", "lnot"]
)

#: Comparison operators the SWAR tier implements with guard-bit tricks.
_CMP_OPS = frozenset(["eq", "ne", "lt", "le", "gt", "ge", "lts", "les", "gts", "ges"])
_SIGNED_CMPS = frozenset(["lts", "les", "gts", "ges"])

_INLINE_LEN = 4000
_INLINE_DEPTH = 90

#: module -> {engine name -> _BatchEntry} with every compiled artifact.
_BATCH_CACHE = WeakIdMemo()


def _packable(e: HExpr) -> bool:
    for node in e.walk():
        if node.width != 1:
            return False
        if isinstance(node, HOp) and node.op not in _PACK_OPS:
            return False
    return True


def _swar_ok(e: HExpr, limit: int = SWAR_MAX_WIDTH) -> bool:
    """Can *e*'s whole tree be evaluated in guard-banded packed slots of
    at least ``limit + 1`` bits?

    Conservative by construction: anything rejected here falls back to
    the bit-exact per-lane loops, so a ``False`` costs speed, never
    correctness.  State-folded bodies pass the entry's fixed slot pitch
    as the limit, so re-optimization can never manufacture a packed
    signal wider than the shared state layout.
    """
    for node in e.walk():
        if node.width > limit:
            return False
        if not isinstance(node, HOp):
            continue
        op = node.op
        if op in ("add", "sub", "neg", "not", "cat"):
            # wide nodes mask/guard wider args away, but the 1-bit flag
            # emitter treats operands as flags and cannot narrow them
            if node.width == 1 and any(a.width != 1 for a in node.args):
                return False
        elif op in ("and", "or", "xor"):
            # the scalar semantics don't mask these, so wider args would
            # leak significant bits past the declared width
            if any(a.width > node.width for a in node.args):
                return False
        elif op == "mux":
            if node.args[0].width != 1:
                return False
            if any(a.width > node.width for a in node.args[1:]):
                return False
        elif op in ("zext", "sext"):
            if node.args[0].width > node.width:
                return False
        elif op == "slice":
            pass  # value-based in both emitters, any arg width works
        elif op in ("shl", "shr", "asr"):
            if not isinstance(node.args[1], HConst):
                return False
            if node.args[0].width != node.width:
                return False
        elif op in ("land", "lor", "lnot"):
            if any(a.width != 1 for a in node.args):
                return False
        elif op in _CMP_OPS:
            if op in _SIGNED_CMPS and (
                node.args[0].width != node.args[1].width or node.args[0].width == 1
            ):
                return False
        else:  # read, mul, div, mod -- per-lane fallback
            return False
    return True


# --------------------------------------------------------------------------- codegen


class _BatchCodeGen(_CodeGen):
    """Emits the hybrid packed/SWAR/scalar batched step function.

    The generated source defines ``_make_batch_step(n)`` returning a
    ``_step(pregs, wregs, sregs, arrays, inputs)`` closure; cross-phase
    lane buffers are allocated once per lane count as default arguments,
    and the SWAR masks for the module's slot layout are bound as factory
    locals (they depend only on the lane count).

    *pitch* and *resident* may be passed explicitly so that specialized
    (state-folded) bodies agree with the main body on the packed state
    layout -- both are properties of the stored machine state, not of
    one particular combinational block.
    """

    def __init__(
        self,
        module: Module,
        pitch: int | None = None,
        resident: frozenset | None = None,
    ):
        super().__init__(module)
        m = module
        self._limit = (pitch - 1) if pitch else SWAR_MAX_WIDTH
        #: comb signal -> 'p' (packed 1-bit) | 'w' (wide tier) | 's' (scalar)
        self.kinds: dict[str, str] = {}
        #: any name -> has a packed (bit-per-lane) representation
        self.packed_src: dict[str, bool] = {}
        #: comb signal -> every HRef in its tree, in walk order with
        #: repeats (one walk here serves every later ref query)
        self.refs: dict[str, list[HRef]] = {}
        for r in m.regs.values():
            self.packed_src[r.name] = r.width == 1
        for name, w in m.inputs.items():
            self.packed_src[name] = w == 1
        for name, e in m.comb:
            self.kinds[name] = self._classify(e)
            self.packed_src[name] = e.width == 1
            self.refs[name] = [node for node in e.walk() if isinstance(node, HRef)]
        self.use_count: dict[str, int] = Counter(
            r.name for refs in self.refs.values() for r in refs
        )
        self.exprs = dict(m.comb)

        # Demote SWAR signals that *mux over* wide scalar values back to
        # the scalar tier.  The SWAR mux is eager (both arms are fully
        # packed before masking) while the scalar emitter's mux is a
        # Python conditional that evaluates only the taken arm -- for
        # select cascades over expensive per-lane values (store
        # byte-merging over an array read, for example) laziness beats
        # packing.  Compares and arithmetic over scalar values stay in
        # the SWAR tier: their pack shim costs two ops per lane once,
        # against a whole per-lane evaluation saved.  Worklist-driven:
        # the wide names appearing in mux arms are collected once, and
        # each demotion propagates through a reverse index.
        arm_refs: dict[str, set[str]] = {}
        for name, e in m.comb:
            if self.kinds[name] != "w":
                continue
            refs: set[str] = set()
            for node in e.walk():
                if isinstance(node, HOp) and node.op == "mux" and node.width > 1:
                    for arm in node.args[1:]:
                        for ref in arm.walk():
                            if isinstance(ref, HRef) and ref.width > 1:
                                refs.add(ref.name)
            if refs:
                arm_refs[name] = refs
        by_ref: dict[str, list[str]] = {}
        for name, refs in arm_refs.items():
            for ref in refs:
                by_ref.setdefault(ref, []).append(name)
        worklist = [
            name for name, refs in arm_refs.items()
            if any(self.kinds.get(r) == "s" for r in refs)
        ]
        while worklist:
            name = worklist.pop()
            if self.kinds[name] != "w":
                continue
            self.kinds[name] = "s"
            worklist.extend(by_ref.get(name, ()))

        # Wide-tier state layout: which registers live in ``sregs``, and
        # (for SWAR) the shared slot pitch.  Both are overridable so the
        # vector tier can widen residency to 64 bits with no pitch.
        self.resident = resident if resident is not None else self._default_resident()
        self.pitch = pitch if pitch is not None else self._compute_pitch()

        # wide scalar signals / inputs whose packed form SWAR trees read
        self.sform_comb: set[str] = set()
        self.sform_inputs: set[str] = set()
        for name, refs in self.refs.items():
            if self.kinds[name] != "w":
                continue
            for node in refs:
                if node.width > 1:
                    if self.kinds.get(node.name) == "s":
                        self.sform_comb.add(node.name)
                    elif node.name in m.inputs:
                        self.sform_inputs.add(node.name)

        self.pinline: dict[str, str] = {}   # packed single-use inlines
        self.winline: dict[str, str] = {}   # SWAR single-use inlines
        self.ncache: dict[str, str] = {}    # selector -> complement local
        self.dcache: dict[str, str] = {}    # name -> spread (slot-base) local
        self.mvcache: dict[tuple[str, int], str] = {}  # (flag, w) -> mask local
        self.dstore: set[str] = set()       # 1-bit w signals with d-form
        self.lane_local: set[str] = set()   # names bound to lane locals
        self._pool: dict[tuple, str] = {}
        self._pool_lines: list[str] = []
        self._sbmemo: dict[int, int] = {}   # significant-bits memo
        self._tmp = 0
        self._use_cp = self._use_sp = False
        self._pending: list[str] = []

    # -- tier classification / state layout (overridable) ------------------

    def _classify(self, e: HExpr) -> str:
        """Evaluation tier for one combinational expression tree."""
        if e.width == 1 and _packable(e):
            return "p"
        if _swar_ok(e, self._limit):
            return "w"
        return "s"

    def _default_resident(self) -> frozenset:
        return frozenset(
            r.name for r in self.module.regs.values()
            if 2 <= r.width <= SWAR_MAX_WIDTH
        )

    def _compute_pitch(self) -> int:
        # only what actually gets packed sizes the slots: nodes of
        # SWAR-classified trees (operands included) and the
        # slot-resident registers -- a 33-bit intermediate inside a
        # scalar-tier mul cone must not widen every packed word
        maxw = 1
        for name, e in self.module.comb:
            if self.kinds[name] != "w":
                continue
            for node in e.walk():
                if node.width <= SWAR_MAX_WIDTH:
                    maxw = max(maxw, node.width)
        for r in self.module.regs.values():
            if r.name in self.resident:
                maxw = max(maxw, r.width)
        return maxw + 1

    # -- scheduling --------------------------------------------------------

    def _schedule(self) -> None:
        m = self.module
        order = [n for n, _ in m.comb]
        pos = {name: k for k, name in enumerate(order)}
        self.consumers: dict[str, list[str]] = {}
        for name in order:
            for r in self.refs[name]:
                if r.name in self.kinds:
                    self.consumers.setdefault(r.name, []).append(name)
        phases = self._phase_waves(order, pos)
        self.phase_of = {}
        for i, (_, sigs) in enumerate(phases):
            for s in sigs:
                self.phase_of[s] = i
        # sink scalar signals into the latest scalar phase preceding their
        # first consumer: fewer wide values cross phases through buffers
        nphases = len(phases)
        for i in range(nphases - 1, -1, -1):
            kind, sigs = phases[i]
            if kind != "s":
                continue
            for s in list(sigs):
                limit = nphases - 1
                for c in self.consumers.get(s, []):
                    cp = self.phase_of[c]
                    limit = min(limit, cp if self.kinds[c] == "s" else cp - 1)
                best = i
                for j in range(limit, i, -1):
                    if phases[j][0] == "s":
                        best = j
                        break
                if best != i:
                    sigs.remove(s)
                    phases[best][1].append(s)
                    self.phase_of[s] = best
        for _, sigs in phases:
            sigs.sort(key=pos.__getitem__)
        self.phases = phases
        # names whose refs feed the clock edge (re-evaluated there);
        # next-value signals of registers that provably hold are not kept
        # alive -- their whole alias chain is skipped at the edge, so a
        # signal feeding only held registers is dead weight (this is what
        # keeps state-folded bodies from dragging every held register's
        # alias through the step)
        self.live_next = [
            (reg, sig) for reg, sig in m.reg_next.items()
            if self._resolve_alias(sig) != reg
        ]
        keep = set(m.outputs.values()) | {sig for _, sig in self.live_next}
        for wr in m.array_writes:
            for e in (wr.addr, wr.data, wr.enable):
                for node in e.walk():
                    if isinstance(node, HRef):
                        keep.add(node.name)
        self.keep = keep
        # scalar wide signals needing a per-lane buffer (cross a phase
        # boundary for scalar consumers or feed the edge)
        self.listed: set[str] = set()
        for name in order:
            if self.kinds[name] != "s" or self.exprs[name].width == 1:
                continue
            if name in keep or any(
                self.phase_of[c] != self.phase_of[name]
                for c in self.consumers.get(name, [])
                if self.kinds[c] == "s"
            ):
                self.listed.add(name)

    def _phase_waves(self, order: list[str], pos: dict[str, int]) -> list[tuple[str, list[str]]]:
        """Tier phases in grab order: rounds of s, w, p phases, each
        grabbing every ready signal of its kind, then the signals those
        grabs made ready, wave by wave, each wave in source order.

        Kahn-style in-degree counts over :attr:`consumers` find each wave
        without rescanning, so this is linear in signals plus edges."""
        kinds, consumers = self.kinds, self.consumers
        pending = dict.fromkeys(order, 0)
        for cs in consumers.values():
            for c in cs:
                pending[c] += 1
        ready: dict[str, list[str]] = {"s": [], "w": [], "p": []}
        for name in order:
            if not pending[name]:
                ready[kinds[name]].append(name)
        phases: list[tuple[str, list[str]]] = []
        left = len(order)
        while left:
            progress = False
            for kind in ("s", "w", "p"):
                grabbed: list[str] = []
                wave = ready[kind]
                while wave:
                    ready[kind] = []
                    wave.sort(key=pos.__getitem__)
                    grabbed.extend(wave)
                    for s in wave:
                        for c in consumers.get(s, ()):
                            pending[c] -= 1
                            if not pending[c]:
                                ready[kinds[c]].append(c)
                    wave = ready[kind]
                if grabbed:
                    phases.append((kind, grabbed))
                    left -= len(grabbed)
                    progress = True
            if not progress:
                raise ValueError(
                    f"{self.module.name}: combinational cycle through "
                    f"{self._on_cycle(pending)!r}"
                )
        return phases

    def _on_cycle(self, pending: dict[str, int]) -> str:
        """A signal on a combinational cycle, given the in-degree counts
        a stalled schedule left behind: every unscheduled signal still
        waits on an unscheduled dependency, so following those from any
        of them must revisit one -- which lies on a cycle."""
        name = next(n for n, left in pending.items() if left)
        seen: set[str] = set()
        while name not in seen:
            seen.add(name)
            name = next(r.name for r in self.refs[name] if pending.get(r.name))
        return name

    # -- SWAR mask / constant pool -----------------------------------------

    def _vm(self, w: int) -> str:
        return self._pooled(("v", w), f"VM{w}", f"_lay.vmask({w})")

    def _gm(self, w: int) -> str:
        return self._pooled(("g", w), f"GM{w}", f"_lay.gmask({w})")

    def _sm(self, w: int) -> str:
        return self._pooled(("s", w), f"SM{w}", f"_lay.smask({w})")

    def _unit(self) -> str:
        return self._pooled(("u",), "UNIT", "_lay.unit")

    def _kr(self, value: int, width: int) -> str:
        if value == 0:
            return "0"
        return self._pooled(
            ("k", value, width), f"KR{len(self._pool)}",
            f"_lay.replicate({value}, {width})",
        )

    def _pooled(self, key: tuple, name: str, expr: str) -> str:
        got = self._pool.get(key)
        if got is None:
            got = self._pool[key] = name
            self._pool_lines.append(f"    {name} = {expr}")
        return got

    def _sig_bits(self, e: HExpr) -> int:
        """Sound upper bound on *e*'s non-zero low bits (memoized)."""
        return significant_bits(e, None, self._sbmemo)

    def _fresh(self, code: str) -> str:
        self._tmp += 1
        name = f"_w{self._tmp}"
        self._pending.append(f"{name} = {code}")
        return name

    def _as_local(self, code: str) -> str:
        """*code* bound to a local unless it is already a bare name."""
        return code if code.isidentifier() or code == "0" else self._fresh(code)

    # -- packed expression emission ---------------------------------------

    def pref(self, name: str) -> str:
        inl = self.pinline.get(name)
        return inl if inl is not None else f"p_{name}"

    def pexpr(self, e: HExpr) -> str:
        if isinstance(e, HConst):
            return "ONES" if e.value else "0"
        if isinstance(e, HRef):
            return self.pref(e.name)
        a = [self.pexpr(c) for c in e.args]
        op = e.op
        if op in ("and", "land"):
            return f"({a[0]} & {a[1]})"
        if op in ("or", "lor"):
            return f"({a[0]} | {a[1]})"
        if op in ("xor", "ne", "add", "sub"):
            # 1-bit add/sub are xor
            return f"({a[0]} ^ {a[1]})"
        if op == "eq":
            return f"(({a[0]} ^ {a[1]}) ^ ONES)"
        if op in ("not", "lnot"):
            return f"({a[0]} ^ ONES)"
        if op in ("neg", "zext", "sext", "slice"):
            return a[0]
        if op == "mux":
            c = a[0]
            nc = self.ncache.get(c) or f"({c} ^ ONES)"
            if a[1] == "ONES":
                return c if a[2] == "0" else f"({c} | ({nc} & {a[2]}))"
            if a[2] == "0":
                return f"({c} & {a[1]})"
            if a[1] == "0":
                return f"({nc} & {a[2]})"
            if a[2] == "ONES":
                return f"({nc} | ({c} & {a[1]}))"
            return f"(({c} & {a[1]}) | ({nc} & {a[2]}))"
        raise ValueError(f"op {op!r} is not packable")  # pragma: no cover

    # -- SWAR expression emission ------------------------------------------
    #
    # Two value spaces cooperate here:
    #   * dform(e) -- 1-bit expressions as *slot-spaced* flags (one 0/1
    #     value at the base of every slot).  Compares produce this form
    #     natively via the guard-bit borrow trick; bitwise combination
    #     stays in the space; a flag's numeric value doubles as its
    #     packed 0/1 value, so zext/mux-data positions need no work.
    #   * wval(e) -- multi-bit expressions as canonical packed slots.
    # Lane-contiguous form (the packed tag world's layout) is produced
    # once per signal with a single compress when the p-world needs it.

    def _spread_flag(self, name: str) -> str:
        """Code converting the packed form of *name* to wide-tier flag
        form (SWAR: slot-spaced; vector: boolean ndarray)."""
        self._use_sp = True
        return f"_sp({self.pref(name)})"

    def _pack_flag(self, code: str) -> str:
        """Code converting a wide-tier flag back to lane-contiguous
        packed form (SWAR: compress; vector: packbits)."""
        self._use_cp = True
        return f"_cp({code})"

    def dref(self, name: str) -> str:
        """Slot-spaced flag form of the 1-bit signal *name*."""
        if self.kinds.get(name) == "w" and name in self.dstore:
            return f"d_{name}"
        got = self.dcache.get(name)
        if got is None:
            self._tmp += 1
            got = self.dcache[name] = f"dc_{self._tmp}"
            self._pending.append(f"{got} = {self._spread_flag(name)}")
        return got

    def dform(self, e: HExpr) -> str:
        if isinstance(e, HConst):
            return self._unit() if e.value else "0"
        if isinstance(e, HRef):
            return self.dref(e.name)
        op = e.op
        if op in _CMP_OPS:
            if all(a.width == 1 for a in e.args) and op in ("eq", "ne"):
                a = [self.dform(c) for c in e.args]
                code = f"({a[0]} ^ {a[1]})"
                return code if op == "ne" else f"({code} ^ {self._unit()})"
            return self._cmp_guards(e)
        a = [self.dform(c) for c in e.args] if op != "slice" else None
        if op in ("and", "land"):
            return f"({a[0]} & {a[1]})"
        if op in ("or", "lor"):
            return f"({a[0]} | {a[1]})"
        if op in ("xor", "add", "sub"):
            return f"({a[0]} ^ {a[1]})"
        if op in ("not", "lnot"):
            return f"({a[0]} ^ {self._unit()})"
        if op in ("neg", "zext", "sext", "cat"):
            return a[0]
        if op in ("shl", "shr", "asr"):
            # 1-bit shift by a constant: asr clamps to w-1 = 0 (identity),
            # shl/shr drop the only bit for any non-zero amount
            if op == "asr" or e.args[1].value == 0:
                return a[0]
            return "0"
        if op == "mux":
            s = self._as_local(a[0])
            return f"(({s} & {a[1]}) | (({s} ^ {self._unit()}) & {a[2]}))"
        if op == "slice":  # extract one bit out of a wide packed value
            if e.lo >= e.args[0].width:
                return "0"  # canonical operands have no bits up there
            v = self.wval(e.args[0])
            shifted = f"({v} >> {e.lo})" if e.lo else v
            return f"({shifted} & {self._unit()})"
        raise ValueError(f"op {op!r} has no slot-flag form")  # pragma: no cover

    def _cmp_guards(self, e: HOp) -> str:
        """Slot-spaced flag code for a comparison over packed values."""
        x, y = (self.wval(a) for a in e.args)
        m = max(a.width for a in e.args)
        op = e.op
        if op in _SIGNED_CMPS:
            sm = self._sm(m)
            x, y = f"({x} ^ {sm})", f"({y} ^ {sm})"
            op = {"lts": "lt", "les": "le", "gts": "gt", "ges": "ge"}[op]
        g = self._gm(m)
        if op in ("eq", "ne"):
            d = x if y == "0" else (y if x == "0" else f"({x} ^ {y})")
            if op == "eq":
                return f"((({g} - {d}) & {g}) >> {m})"
            return f"(((({g} - {d}) & {g}) ^ {g}) >> {m})"
        if op == "le":  # x <= y  <=>  no borrow in y - x
            return f"(((({y} | {g}) - {x}) & {g}) >> {m})"
        if op == "ge":
            return f"(((({x} | {g}) - {y}) & {g}) >> {m})"
        if op == "lt":  # x < y  <=>  borrow in x - y ... 2**m + x - y < 2**m
            return f"((((({x} | {g}) - {y}) & {g}) ^ {g}) >> {m})"
        if op == "gt":
            return f"((((({y} | {g}) - {x}) & {g}) ^ {g}) >> {m})"
        raise ValueError(op)  # pragma: no cover

    def wref(self, name: str) -> str:
        """Packed-slot value form of a wide signal/register/input."""
        inl = self.winline.get(name)
        if inl is not None:
            return inl
        return f"s_{name}"

    def _select_mask(self, d: str, w: int) -> str:
        """Slot-base flag local *d* expanded to a full *w*-bit value mask
        per selected slot, deduplicated per step (control flags select
        many muxes, so the same mask is requested over and over)."""
        got = self.mvcache.get((d, w))
        if got is None:
            got = self.mvcache[(d, w)] = self._fresh(f"(({d} << {w}) - {d})")
        return got

    def _wsel(self, sel: HExpr, w: int) -> str:
        """Mux selector as a full per-slot value mask of width *w*."""
        if isinstance(sel, HConst):
            return self._vm(w) if sel.value else "0"
        return self._select_mask(self._as_local(self.dform(sel)), w)

    def wval(self, e: HExpr) -> str:
        if e.width == 1:
            return self.dform(e)
        w = e.width
        if isinstance(e, HConst):
            return self._kr(e.value, w)
        if isinstance(e, HRef):
            return self.wref(e.name)
        op = e.op
        if op == "add":
            a, b = self.wval(e.args[0]), self.wval(e.args[1])
            # mask elision: when the sum provably cannot carry into the
            # guard bit, the slots stay canonical without the clamp
            if max(self._sig_bits(e.args[0]), self._sig_bits(e.args[1])) + 1 <= w:
                return f"({a} + {b})"
            return f"(({a} + {b}) & {self._vm(w)})"
        if op == "sub":
            a, b = self.wval(e.args[0]), self.wval(e.args[1])
            g = self._gm(max(w, e.args[0].width, e.args[1].width))
            return f"((({a} | {g}) - {b}) & {self._vm(w)})"
        if op == "neg":
            g = self._gm(max(w, e.args[0].width))
            return f"(({g} - {self.wval(e.args[0])}) & {self._vm(w)})"
        if op == "and":
            return f"({self.wval(e.args[0])} & {self.wval(e.args[1])})"
        if op == "or":
            return f"({self.wval(e.args[0])} | {self.wval(e.args[1])})"
        if op == "xor":
            return f"({self.wval(e.args[0])} ^ {self.wval(e.args[1])})"
        if op == "not":
            code = f"({self.wval(e.args[0])} ^ {self._vm(w)})"
            if e.args[0].width > w:
                code = f"({code} & {self._vm(w)})"
            return code
        if op == "mux":
            mv = self._wsel(e.args[0], w)
            a, b = self.wval(e.args[1]), self.wval(e.args[2])
            if b == "0":
                return f"({a} & {mv})"
            if a == "0":
                b = self._as_local(b)
                return f"({b} ^ ({b} & {mv}))"
            b = self._as_local(b)
            return f"({b} ^ (({a} ^ {b}) & {mv}))"
        if op == "zext":
            if e.args[0].width == 1:
                return self.dform(e.args[0])
            return self.wval(e.args[0])
        if op == "sext":
            wf = e.args[0].width
            if wf == 1:
                return self._select_mask(self._as_local(self.dform(e.args[0])), w)
            if wf >= w:
                return self.wval(e.args[0])
            m = self._sm(wf)
            return (f"(((({self.wval(e.args[0])} ^ {m}) | {self._gm(w)}) - {m})"
                    f" & {self._vm(w)})")
        if op == "slice":
            # flatten slice-of-slice to one shift and one mask, clamping
            # the effective width against *every* level's truncation:
            # canonical packed values carry no bits at or above their
            # width, and a mask reaching past pitch - lo would scoop up
            # the neighbouring lane's slot (a slice may be sized for a
            # wider operand than the one it reads)
            arg, lo, limit = e.args[0], e.lo, w
            while True:
                limit = min(limit, arg.width - lo)
                if not (isinstance(arg, HOp) and arg.op == "slice"):
                    break
                lo += arg.lo
                arg = arg.args[0]
            if limit <= 0:
                return "0"
            a = self.wval(arg)
            if lo == 0 and arg.width == w == limit:
                return a
            shifted = f"({a} >> {lo})" if lo else a
            return f"({shifted} & {self._vm(limit)})"
        if op == "cat":
            parts = []
            shift = 0
            for child in reversed(e.args):
                code = self.wval(child) if child.width > 1 else self.dform(child)
                parts.append(f"({code} << {shift})" if shift else code)
                shift += child.width
            return "(" + " | ".join(parts) + ")"
        if op in ("shl", "shr", "asr"):
            a = self.wval(e.args[0])
            k = e.args[1].value
            if op == "asr":
                k = min(k, w - 1)
            if k == 0:
                return a
            if op != "asr" and k >= w:
                return "0"
            if op == "shl":
                # mask elision: a value already fitting w - k bits cannot
                # spill into the guard band when shifted left by k
                if self._sig_bits(e.args[0]) <= w - k:
                    return f"({a} << {k})"
                return f"(({a} & {self._vm(w - k)}) << {k})"
            t = f"(({a} >> {k}) & {self._vm(w - k)})"
            if op == "shr":
                return t
            m = self._kr(1 << (w - 1 - k), w)
            return f"(((({t} ^ {m}) | {self._gm(w)}) - {m}) & {self._vm(w)})"
        raise ValueError(f"op {op!r} has no SWAR form")  # pragma: no cover

    # -- scalar expression emission ----------------------------------------

    def _lane_read(self, name: str, width: int) -> str:
        """Per-lane scalar read of a wide-tier signal or resident register."""
        return f"(s_{name} >> _lp) & {(1 << width) - 1}"

    def ref(self, name: str) -> str:
        inl = self.inline.get(name)
        if inl is not None:
            return inl
        if name in self.lane_local:
            return f"v_{name}"
        if self.packed_src.get(name):
            return f"((p_{name} >> _l) & 1)"
        if self.kinds.get(name) == "w":
            return f"({self._lane_read(name, self.exprs[name].width)})"
        if name in self.listed:
            return f"x_{name}[_l]"
        if name in self.resident:
            return f"({self._lane_read(name, self.module.regs[name].width)})"
        if name in self.module.regs:
            return f"wr_{name}[_l]"
        if name in self.module.inputs:
            return f"wi_{name}[_l]"
        raise KeyError(name)  # pragma: no cover

    @staticmethod
    def _bool_safe(e: HExpr) -> bool:
        """Is the boolean-form code for *e* guaranteed to evaluate to a
        Python bool or a 0/1 int (so it can be used as a value)?"""
        if isinstance(e, HOp):
            if e.op in ("eq", "ne", "lt", "le", "gt", "ge",
                        "lts", "les", "gts", "ges", "lnot"):
                return True
            if e.op in ("land", "lor"):
                return all(_BatchCodeGen._bool_safe(a) for a in e.args)
        return e.width == 1

    def expr(self, e: HExpr) -> str:
        if isinstance(e, HOp):
            if e.op == "read":
                arr = self.module.arrays[e.array]
                addr = self.expr(e.args[0])
                if (1 << e.args[0].width) <= arr.size:
                    return f"a_{e.array}.get({addr}, {arr.default})"
                return f"a_{e.array}.get({addr} % {arr.size}, {arr.default})"
            if e.op == "mux":
                return (f"({self.expr(e.args[1])} if {self.bool_expr(e.args[0])}"
                        f" else {self.expr(e.args[2])})")
            # comparisons yield Python bools -- 0/1 ints, directly usable
            # as values (shifted, or-ed, stored) without a conditional
            if e.op in ("eq", "ne", "lt", "le", "gt", "ge",
                        "lts", "les", "gts", "ges"):
                return self.bool_expr(e)
            if e.op in ("land", "lor", "lnot"):
                if self._bool_safe(e):
                    return self.bool_expr(e)
                return f"(1 if {self.bool_expr(e)} else 0)"
        return super().expr(e)

    def bool_expr(self, e: HExpr) -> str:
        """*e* in Python boolean context (guards, enables, flags)."""
        if isinstance(e, HOp) and e.op in _BOOL_OPS:
            op = e.op
            if op in ("eq", "ne", "lt", "le", "gt", "ge"):
                a = [self.expr(c) for c in e.args]
                sym = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
                       "gt": ">", "ge": ">="}[op]
                return f"({a[0]} {sym} {a[1]})"
            if op in ("lts", "les", "gts", "ges"):
                a = [self.expr(c) for c in e.args]
                aw = [c.width for c in e.args]
                sym = {"lts": "<", "les": "<=", "gts": ">", "ges": ">="}[op]
                return f"(_s({a[0]}, {aw[0]}) {sym} _s({a[1]}, {aw[1]}))"
            if op == "land":
                return f"({self.bool_expr(e.args[0])} and {self.bool_expr(e.args[1])})"
            if op == "lor":
                return f"({self.bool_expr(e.args[0])} or {self.bool_expr(e.args[1])})"
            if op == "lnot":
                return f"(not {self.bool_expr(e.args[0])})"
        return self.expr(e)

    # -- helpers -----------------------------------------------------------

    def _edge_exprs(self) -> list[HExpr]:
        out: list[HExpr] = []
        for wr in self.module.array_writes:
            out += [wr.addr, wr.data, wr.enable]
        return out

    def _wide_regs_in(self, exprs: Sequence[HExpr]) -> set[str]:
        """Per-lane-list (non-resident) wide registers read by *exprs*."""
        module = self.module
        out = set()
        for e in exprs:
            for node in e.walk():
                if (isinstance(node, HRef) and node.name in module.regs
                        and module.regs[node.name].width != 1
                        and node.name not in self.resident):
                    out.add(node.name)
        return out

    @staticmethod
    def _arrays_in(exprs: Sequence[HExpr]) -> set[str]:
        out = set()
        for e in exprs:
            for node in e.walk():
                if isinstance(node, HOp) and node.op == "read":
                    out.add(node.array)
        return out

    def _resolve_alias(self, name: str) -> str:
        """Follow pure-ref combinational aliases to their source name."""
        seen = set()
        while name in self.exprs and name not in seen:
            seen.add(name)
            e = self.exprs[name]
            if isinstance(e, HRef):
                name = e.name
            else:
                break
        return name

    @staticmethod
    def _maybe_lp(stmts: list[str], pitch: int) -> list[str]:
        """Prepend the slot-offset local if any statement reads it."""
        if any("_lp" in s for s in stmts):
            return [f"_lp = _l * {pitch}"] + stmts
        return stmts

    # -- generation --------------------------------------------------------
    #
    # ``generate`` is decomposed into per-section emitters so a subclass
    # (the NumPy vector tier) can replace just the pieces whose lowering
    # differs -- input marshalling, the wide phase, per-lane reads, edge
    # write-back, the factory header -- while sharing the packed tag
    # world, the scheduler, and the overall step structure verbatim.

    def _emit(self, line: str) -> None:
        self._L.append("        " + line)

    def _emit_lane(self, line: str) -> None:
        self._L.append("            " + line)

    def _flush_pending(self) -> None:
        for line in self._pending:
            self._emit(line)
        self._pending.clear()

    def _accumulated(self, s: str) -> bool:
        """Does the 1-bit scalar-rooted signal *s* need packed form?"""
        return (
            any(k in ("p", "w") for k in self.cons_kind.get(s, []))
            or s in self.keep
            or any(self.phase_of[c] != self.phase_of[s]
                   for c in self.consumers.get(s, []))
        )

    def _prep_emission(self) -> None:
        m = self.module

        # complements of packed mux selectors referenced more than once
        ncount: Counter = Counter()
        for name, e in m.comb:
            if self.kinds[name] != "p":
                continue
            for node in e.walk():
                if not isinstance(node, HOp):
                    continue
                if node.op == "mux" and isinstance(node.args[0], HRef):
                    t, f = node.args[1], node.args[2]
                    if not (isinstance(f, HConst) and f.value == 0) and not (
                        isinstance(t, HConst) and t.value == 1
                    ):
                        ncount[node.args[0].name] += 1
                elif node.op in ("not", "lnot") and isinstance(node.args[0], HRef):
                    ncount[node.args[0].name] += 1
        self.nc_emit = {nm for nm, c in ncount.items() if c >= 2}

        self.cons_kind: dict[str, list[str]] = {}
        for cname, refs in self.refs.items():
            for node in refs:
                self.cons_kind.setdefault(node.name, []).append(self.kinds[cname])

        # transitively peel signals that feed only held registers (their
        # write-back is skipped, so the whole alias cone is dead weight;
        # state-folded bodies are mostly held registers)
        live_use = dict(self.use_count)
        keep = self.keep
        work = [name for name in self.exprs if not live_use.get(name) and name not in keep]
        dead: set[str] = set(work)
        while work:
            for node in self.refs[work.pop()]:
                name = node.name
                live_use[name] -= 1
                if not live_use[name] and name in self.exprs and name not in keep:
                    dead.add(name)
                    work.append(name)
        if dead:
            self.phases = [
                (kind, [s for s in sigs if s not in dead])
                for kind, sigs in self.phases
            ]

        # resident registers whose packed word the body actually reads
        edge_names = set(m.outputs.values()) | {sig for _, sig in self.live_next}
        for e in self._edge_exprs():
            for node in e.walk():
                if isinstance(node, HRef):
                    edge_names.add(node.name)
        self.used_sregs = sorted(
            r for r in self.resident
            if live_use.get(r) or r in edge_names
        )
        self.used_pregs = [
            r.name for r in m.regs.values()
            if r.width == 1 and (live_use.get(r.name) or r.name in edge_names)
        ]
        self._L: list[str] = []
        self._bufs: list[str] = []

    def _emit_state_loads(self) -> None:
        # packed registers and inputs into locals (only registers the
        # live body or the clock edge actually reads -- state-folded
        # bodies hold most registers)
        for r in self.used_pregs:
            self._emit(f"p_{r} = pregs[{r!r}]")
        for r in self.used_pregs:
            if r in self.nc_emit:
                self._emit(f"q_{r} = p_{r} ^ ONES")
                self.ncache[f"p_{r}"] = f"q_{r}"
        for r in self.used_sregs:
            self._emit(f"s_{r} = sregs[{r!r}]")

    def _emit_input_marshal(self) -> None:
        m = self.module
        p_inputs = [nm for nm, w in m.inputs.items() if w == 1]
        w_inputs = [nm for nm, w in m.inputs.items() if w != 1]
        if not (p_inputs or w_inputs):
            return
        for nm in p_inputs:
            self._emit(f"p_{nm} = 0")
        for nm in sorted(self.sform_inputs):
            self._emit(f"s_{nm} = 0")
        for nm in w_inputs:
            self._bufs.append(f"wi_{nm}")
        in_stmts = ["_inp = inputs[_l]"]
        for nm in p_inputs:
            in_stmts.append(f"p_{nm} |= (_inp.get({nm!r}, 0) & 1) << _l")
        for nm in w_inputs:
            mask = (1 << m.inputs[nm]) - 1
            in_stmts.append(f"wi_{nm}[_l] = _inp.get({nm!r}, 0) & {mask}")
            if nm in self.sform_inputs:
                in_stmts.append(f"s_{nm} |= wi_{nm}[_l] << _lp")
        self._emit("for _l in range(n):")
        for stmt in self._maybe_lp(in_stmts, self.pitch):
            self._emit_lane(stmt)

    def generate(self) -> str:
        self._schedule()
        self._prep_emission()
        self._emit_state_loads()
        self._emit_input_marshal()
        for name in sorted(self.listed):
            self._bufs.append(f"x_{name}")
        for kind, sigs in self.phases:
            if kind == "p":
                self._emit_packed_phase(sigs)
            elif kind == "w":
                self._emit_wide_phase(sigs)
            else:
                self._emit_scalar_phase(sigs)
        self._emit_edge()
        return self._render()

    def _emit_packed_phase(self, sigs: list[str]) -> None:
        exprs, keep = self.exprs, self.keep
        for name in sigs:
            code = self.pexpr(exprs[name])
            if (self.use_count.get(name, 0) == 1 and name not in keep
                    and self.cons_kind.get(name) == ["p"]
                    and len(code) <= _INLINE_LEN
                    and nests_within(code, _INLINE_DEPTH)):
                self.pinline[name] = code
            else:
                self._emit(f"p_{name} = {code}")
                if name in self.nc_emit:
                    self._emit(f"q_{name} = p_{name} ^ ONES")
                    self.ncache[f"p_{name}"] = f"q_{name}"

    def _emit_wide_phase(self, sigs: list[str]) -> None:
        exprs, keep = self.exprs, self.keep
        for name in sigs:
            e = exprs[name]
            cons = self.cons_kind.get(name, [])
            if e.width == 1:
                # compares and mixed flag logic: slot-spaced
                # d-form feeds SWAR consumers; one compress per
                # signal feeds the packed/scalar worlds
                need_d = any(k == "w" for k in cons)
                need_p = (not need_d) or name in keep or any(
                    k in ("p", "s") for k in cons
                )
                code = self.dform(e)
                self._flush_pending()
                if need_d:
                    self.dstore.add(name)
                    self._emit(f"d_{name} = {code}")
                    code = f"d_{name}"
                if need_p:
                    self._emit(f"p_{name} = {self._pack_flag(code)}")
                    if name in self.nc_emit:
                        self._emit(f"q_{name} = p_{name} ^ ONES")
                        self.ncache[f"p_{name}"] = f"q_{name}"
            else:
                code = self.wval(e)
                self._flush_pending()
                if (self.use_count.get(name, 0) == 1 and name not in keep
                        and cons == ["w"]
                        and len(code) <= _INLINE_LEN
                        and nests_within(code, _INLINE_DEPTH)):
                    self.winline[name] = code
                else:
                    self._emit(f"s_{name} = {code}")

    def _sform_init(self, s: str) -> None:
        """Start the wide-tier accumulator for a scalar signal SWAR reads."""
        self._emit(f"s_{s} = 0")

    def _sform_accum(self, s: str) -> str:
        """Per-lane statement folding ``v_s`` into the wide-tier form."""
        return f"s_{s} |= v_{s} << _lp"

    def _scalar_phase_post(self, sigs: list[str]) -> None:
        """Hook after a scalar phase's lane loop (vector tier converts
        accumulated per-lane lists into ndarrays here)."""

    def _emit_scalar_phase(self, sigs: list[str]) -> None:
        # scalar phase: one loop over lanes
        m, exprs, keep = self.module, self.exprs, self.keep
        phase_set = set(sigs)
        body_exprs = [exprs[s] for s in sigs]
        for s in sigs:
            if exprs[s].width == 1 and self._accumulated(s):
                self._emit(f"p_{s} = 0")
            elif s in self.sform_comb:
                self._sform_init(s)
        for arr in sorted(self._arrays_in(body_exprs)):
            self._emit(f"al_{arr} = arrays[{arr!r}]")
        for wreg in sorted(self._wide_regs_in(body_exprs)):
            self._emit(f"wr_{wreg} = wregs[{wreg!r}]")
        # hoist lane-loop reads used more than once in this phase
        ref_count: Counter = Counter()
        for s in sigs:
            for node in self.refs[s]:
                if node.name not in phase_set:
                    ref_count[node.name] += 1
        self.lane_local = set()
        self.inline = {}
        hoists: list[str] = []
        for nm, cnt in sorted(ref_count.items()):
            if cnt < 2:
                continue
            if self.packed_src.get(nm) and nm not in phase_set:
                hoists.append(f"v_{nm} = (p_{nm} >> _l) & 1")
            elif self.kinds.get(nm) == "w" and nm not in phase_set:
                hoists.append(f"v_{nm} = {self._lane_read(nm, exprs[nm].width)}")
            elif nm in self.listed and nm not in phase_set:
                hoists.append(f"v_{nm} = x_{nm}[_l]")
            elif nm in self.resident:
                hoists.append(f"v_{nm} = {self._lane_read(nm, m.regs[nm].width)}")
            elif nm in m.regs and m.regs[nm].width != 1:
                hoists.append(f"v_{nm} = wr_{nm}[_l]")
            else:
                continue
            self.lane_local.add(nm)
        lane_stmts: list[str] = []
        lane = lane_stmts.append
        for arr in sorted(self._arrays_in(body_exprs)):
            lane(f"a_{arr} = al_{arr}[_l]")
        for h in hoists:
            lane(h)
        for s in sigs:
            e = exprs[s]
            uses = self.use_count.get(s, 0)
            if e.width == 1:
                if not self._accumulated(s):
                    code = self.expr(e)
                    if (uses == 1 and len(code) <= _INLINE_LEN
                            and nests_within(code, _INLINE_DEPTH)):
                        self.inline[s] = f"({code})"
                    else:
                        lane(f"v_{s} = {code}")
                        self.lane_local.add(s)
                elif any(k == "s" for k in self.cons_kind.get(s, [])):
                    lane(f"v_{s} = {self.expr(e)}")
                    lane(f"p_{s} |= v_{s} << _l")
                    self.lane_local.add(s)
                else:
                    lane(f"p_{s} |= {self.expr(e)} << _l")
            elif s in self.listed or s in self.sform_comb:
                code = self.expr(e)
                direct_store = (
                    s in self.listed
                    and s not in self.sform_comb
                    and not any(c in phase_set for c in self.consumers.get(s, []))
                )
                if direct_store:
                    lane(f"x_{s}[_l] = {code}")
                else:
                    lane(f"v_{s} = {code}")
                    self.lane_local.add(s)
                    if s in self.listed:
                        lane(f"x_{s}[_l] = v_{s}")
                    if s in self.sform_comb:
                        lane(self._sform_accum(s))
            else:
                code = self.expr(e)
                if (uses == 1 and s not in keep
                        and len(code) <= _INLINE_LEN
                        and nests_within(code, _INLINE_DEPTH)):
                    self.inline[s] = f"({code})"
                else:
                    lane(f"v_{s} = {code}")
                    self.lane_local.add(s)
        if lane_stmts:
            self._emit("for _l in range(n):")
            for stmt in self._maybe_lp(lane_stmts, self.pitch):
                self._emit_lane(stmt)
        # complements of accumulators used as packed selectors
        for s in sigs:
            if (exprs[s].width == 1 and s in self.nc_emit and self._accumulated(s)
                    and f"p_{s}" not in self.ncache):
                self._emit(f"q_{s} = p_{s} ^ ONES")
                self.ncache[f"p_{s}"] = f"q_{s}"
        self._scalar_phase_post(sigs)

    def _emit_res_pack(self, reg: str, sig: str) -> None:
        """Write back a resident register whose next value is wide-tier."""
        self._emit(f"sregs[{reg!r}] = s_{sig}")

    def _res_lane_init(self, reg: str) -> None:
        self._emit(f"ns_{reg} = 0")

    def _res_lane_accum(self, reg: str, sig: str) -> str:
        return f"ns_{reg} |= {self.ref(sig)} << _lp"

    def _res_lane_commit(self, reg: str) -> None:
        self._emit(f"sregs[{reg!r}] = ns_{reg}")

    def _port_store(self, arr: str, idx: str, data: str) -> list[str]:
        """Statements storing one array-write-port element for lane ``_l``.

        Hook point: the vector tier appends a mirror store into its dense
        ndarray backing alongside the canonical per-lane dict store.
        """
        return [f"al_{arr}[_l][{idx}] = {data}"]

    def _emit_edge(self) -> None:
        # -- clock edge ----------------------------------------------------
        # Packed register updates read packed locals, which still hold the
        # pre-edge values, so the dict stores can happen immediately; the
        # same holds for wide-resident registers whose next value lives in
        # a packed local (one dict store per register, not per lane).
        m = self.module
        for reg, sig in self.live_next:
            if m.regs[reg].width != 1:
                continue
            self._emit(f"pregs[{reg!r}] = p_{sig}")
        res_pack: list[tuple[str, str]] = []   # resident, packed next value
        res_lane: list[tuple[str, str]] = []   # resident, per-lane next value
        wide_next: list[tuple[str, str]] = []  # per-lane-list registers
        for reg, sig in self.live_next:
            if m.regs[reg].width == 1:
                continue
            if reg in self.resident:
                if self.kinds.get(sig) == "w" and sig not in self.winline:
                    res_pack.append((reg, sig))
                else:
                    res_lane.append((reg, sig))
            else:
                wide_next.append((reg, sig))
        for reg, sig in res_pack:
            self._emit_res_pack(reg, sig)
        self.lane_local = set()
        self.inline = {}
        edge_exprs = self._edge_exprs()
        edge_arrays = sorted({wr.array for wr in m.array_writes} | self._arrays_in(edge_exprs))
        for arr in edge_arrays:
            self._emit(f"al_{arr} = arrays[{arr!r}]")
        out_names = list(m.outputs.values())
        edge_reg_reads = {
            nm for nm in ([sig for _, sig in wide_next] + out_names)
            if nm in m.regs and m.regs[nm].width != 1 and nm not in self.resident
        }
        preload = (self._wide_regs_in(edge_exprs) | edge_reg_reads
                   | {r for r, _ in wide_next})
        for wreg in sorted(preload):
            self._emit(f"wr_{wreg} = wregs[{wreg!r}]")
        for reg, _ in res_lane:
            self._res_lane_init(reg)

        # Write ports fire on a handful of lanes most cycles.  When every
        # enable is a 1-bit name (which has a lane-contiguous packed
        # word) or a constant, each port iterates only its *set* enable
        # bits instead of testing all n lanes.  Lanes own their array
        # stores, so per-port loops preserve the per-lane declaration
        # order exactly.
        fast_ports = all(
            isinstance(wr.enable, HConst)
            or (isinstance(wr.enable, HRef) and wr.enable.width == 1)
            for wr in m.array_writes
        )
        ports_in_lane_loop = list(m.array_writes)
        if fast_ports:
            ports_in_lane_loop = []
            for wr in m.array_writes:
                arr = m.arrays[wr.array]
                addr = self.expr(wr.addr)
                idx = addr if (1 << wr.addr.width) <= arr.size else f"{addr} % {arr.size}"
                body = [f"a_{a} = al_{a}[_l]"
                        for a in sorted(self._arrays_in([wr.addr, wr.data]))]
                body.extend(self._port_store(wr.array, idx, self.expr(wr.data)))
                body = self._maybe_lp(body, self.pitch)
                if isinstance(wr.enable, HConst):
                    if wr.enable.value == 0:
                        continue
                    self._emit("for _l in range(n):")
                    for stmt in body:
                        self._emit_lane(stmt)
                else:
                    self._emit(f"_e = {self.pref(wr.enable.name)}")
                    self._emit("while _e:")
                    self._emit_lane("_lb = _e & -_e")
                    self._emit_lane("_l = _lb.bit_length() - 1")
                    self._emit_lane("_e ^= _lb")
                    for stmt in body:
                        self._emit_lane(stmt)

        self._emit("outs = []")
        self._emit("_outs_append = outs.append")
        edge_stmts: list[str] = []
        lane = edge_stmts.append
        if ports_in_lane_loop:
            for arr in sorted(self._arrays_in(edge_exprs)):
                lane(f"a_{arr} = al_{arr}[_l]")
        # 1. next register values, computed from pre-edge state
        for reg, sig in wide_next:
            lane(f"_n_{reg} = {self.ref(sig)}")
        for reg, sig in res_lane:
            lane(self._res_lane_accum(reg, sig))
        # 2. array write ports, in declaration order (old registers visible)
        for wr in ports_in_lane_loop:
            arr = m.arrays[wr.array]
            addr = self.expr(wr.addr)
            idx = addr if (1 << wr.addr.width) <= arr.size else f"{addr} % {arr.size}"
            lane(f"if {self.bool_expr(wr.enable)}:")
            for stmt in self._port_store(wr.array, idx, self.expr(wr.data)):
                lane(f"    {stmt}")
        # 3. output ports (pre-edge register values, current-cycle signals)
        outs = ", ".join(f"{p!r}: {self.ref(sig)}" for p, sig in m.outputs.items())
        lane("_outs_append({" + outs + "})")
        # 4. commit the new per-lane register values
        for reg, _ in wide_next:
            lane(f"wr_{reg}[_l] = _n_{reg}")
        self._emit("for _l in range(n):")
        for stmt in self._maybe_lp(edge_stmts, self.pitch):
            self._emit_lane(stmt)
        for reg, _ in res_lane:
            self._res_lane_commit(reg)
        self._emit("return outs")

    def _render(self) -> str:
        # scratch buffers are allocated once per lane count by the factory
        # and bound as default arguments (plain fast locals in the step);
        # SWAR masks depend only on the lane count and bind the same way
        header = ["def _make_batch_step(n):", "    ONES = (1 << n) - 1"]
        if self._pool_lines or self._use_cp or self._use_sp:
            header.append(f"    _lay = get_layout({self.pitch}, n)")
            if self._use_cp:
                header.append("    _cp = _lay.compressor()")
            if self._use_sp:
                header.append("    _sp = _lay.spreader()")
            header += self._pool_lines
        header += [f"    {b}_buf = [0] * n" for b in self._bufs]
        params = "".join(f", {b}={b}_buf" for b in self._bufs)
        header.append(f"    def _step(pregs, wregs, sregs, arrays, inputs{params}):")
        body = "\n".join(self._L) if self._L else "        pass"
        return _SIGNED_HELPER + "\n".join(header) + "\n" + body + "\n    return _step"


# ------------------------------------------------------------- specialization


def _fold_module(module: Module, binding: dict[str, int]) -> Module:
    """*module* bound to *binding* over its live cone, then re-optimized.
    Architectural state (registers, arrays, ports) is preserved, so the
    folded module is a drop-in step-function source for any cycle on
    which every lane holds the bound values."""
    return run_pipeline(bind(module, binding)).module


def _dispatch_regs(module: Module, max_width: int = 4, max_regs: int = 4) -> list[str]:
    """Control registers worth specializing on: narrow registers compared
    against constants (FSM state codes, fall registers) plus heavily-read
    1-bit mode registers."""
    eq_regs: Counter = Counter()
    ref_count: Counter = Counter()
    for _, e in module.comb:
        for node in e.walk():
            if isinstance(node, HRef) and node.name in module.regs:
                ref_count[node.name] += 1
            if (isinstance(node, HOp) and node.op == "eq"
                    and isinstance(node.args[0], HRef)
                    and isinstance(node.args[1], HConst)):
                name = node.args[0].name
                if name in module.regs and 1 < module.regs[name].width <= max_width:
                    eq_regs[name] += 1
    picks = [name for name, _ in eq_regs.most_common(max_regs)]
    onebit = [
        name for name, cnt in ref_count.most_common()
        if name not in picks and module.regs[name].width == 1 and cnt >= 8
    ]
    return picks + onebit[: max_regs - len(picks)]


#: A folded body must shrink the combinational block at least this much
#: to be worth compiling.
_FOLD_THRESHOLD = 0.5

#: Bound on cached specialized bodies per module.
_MAX_BODIES = 16


# ----------------------------------------------------------- persistence
#
# Generated step modules outlive the process through the toolchain's
# artifact store: a ``codegen`` record per (module, engine) and a
# ``fold`` record per specialized binding, both keyed under the
# optimized module's structural key.  Their keys carry GEN_DIGEST and
# MAGIC, so an edit to any module that shapes the generated code, or a
# different interpreter, can never be served a stale record.


def _gen_digest() -> str:
    """SHA-256 over the source of every module that shapes generated
    step code: the scalar and batched code generators, plus the pass
    pipeline and IR (which shape the folded bodies) via
    :data:`~repro.hdl.passes.PASSES_DIGEST`."""
    hdl = Path(__file__).resolve().parent
    digest = hashlib.sha256(PASSES_DIGEST.encode())
    for name in ("sim", "swar", "batch", "vector"):
        path = hdl / f"{name}.py"
        digest.update(path.relative_to(hdl).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


#: Digest of the code generators' own source (see :func:`_gen_digest`).
GEN_DIGEST = _gen_digest()

#: Marshalled code loads only on the interpreter version that wrote it.
MAGIC = importlib.util.MAGIC_NUMBER.hex()


class _Code:
    """A compiled step module that pickles as its ``marshal`` bytes."""

    __slots__ = ("code",)

    def __init__(self, code: CodeType):
        self.code = code

    def __reduce__(self):
        return _load_code, (marshal.dumps(self.code),)


def _load_code(data: bytes) -> _Code:
    """Unpickle side of :class:`_Code`: undecodable bytes raise
    ValueError/EOFError/TypeError, which the store treats as a corrupt
    entry (quarantined, recomputed)."""
    code = marshal.loads(data)
    if not isinstance(code, CodeType):
        raise TypeError(f"marshalled step holds {type(code).__name__}, not code")
    return _Code(code)


def _compile(source: str, filename: str) -> _Code:
    return _Code(compile(source, filename, "exec"))


class _Codegen(NamedTuple):
    """The ``codegen`` record: everything an entry needs, lane-count free."""

    source: str
    code: _Code
    kinds: dict
    resident: frozenset
    pitch: int
    dispatch: list


class _Fold(NamedTuple):
    """A ``fold`` record's accepted body (refusals persist as None)."""

    module: Module
    source: str
    code: _Code


def _through(tier, stage: str, extra: tuple, produce: Callable, adopt: Callable):
    """The one read-through / write-through seam of batched codegen:
    ``adopt(produce())`` memory-only, or via *tier* (the toolchain's
    store view, see ``Toolchain.batch_simulator``) ``adopt`` a stored
    record, producing and writing one through on a miss."""
    if tier is None:
        return adopt(produce())
    return tier.through(stage, extra, produce, adopt)


class _BatchEntry:
    """All compiled batched artifacts for one (module, engine) pair.

    Subclassable per engine: :meth:`_make_gen` picks the code generator
    and :meth:`_namespace` the exec environment, so the vector tier
    reuses the whole body/dispatch machinery with a different lowering.
    With a store *tier* the generic step and every folded body are
    read through / written through the artifact store.
    """

    def __init__(self, module: Module, tier=None):
        self.tier = tier
        self.steps: dict[int, Callable] = {}
        #: combo -> per-lane-count factory, or None when folding was refused
        self.bodies: dict[tuple, _BatchEntry._Body | None] = {}
        _through(tier, "codegen", (), lambda: self._generate(module), self._adopt)

    def _generate(self, module: Module) -> _Codegen:
        gen = self._make_gen(module)
        source = gen.generate()
        return _Codegen(
            source, _compile(source, f"<hdl-batch:{module.name}>"), dict(gen.kinds),
            gen.resident, gen.pitch, _dispatch_regs(module),
        )

    def _adopt(self, rec: _Codegen) -> None:
        self.factory: Callable[[int], Callable] = self._load(rec.code)
        self.source = rec.source
        self.kinds: dict[str, str] = rec.kinds
        self.resident = rec.resident
        self.pitch = rec.pitch
        self.dispatch = rec.dispatch

    def _load(self, code: _Code) -> Callable[[int], Callable]:
        namespace = self._namespace()
        exec(code.code, namespace)  # noqa: S102
        return namespace["_make_batch_step"]

    def _make_gen(
        self,
        module: Module,
        pitch: int | None = None,
        resident: frozenset | None = None,
    ) -> _BatchCodeGen:
        return _BatchCodeGen(module, pitch=pitch, resident=resident)

    def _namespace(self) -> dict:
        return {"get_layout": get_layout}

    class _Body:
        def __init__(self, module: Module, source: str, factory: Callable[[int], Callable]):
            self.module = module
            self.source = source
            self.factory = factory
            self.steps: dict[int, Callable] = {}

        def step(self, n: int) -> Callable:
            fn = self.steps.get(n)
            if fn is None:
                fn = self.steps[n] = self.factory(n)
            return fn

    def step(self, n: int) -> Callable:
        fn = self.steps.get(n)
        if fn is None:
            fn = self.steps[n] = self.factory(n)
        return fn

    def body_for(self, module: Module, combo: tuple) -> _BatchEntry._Body | None:
        """The specialized body for a uniform *combo*, compiled lazily.

        The folded body is generated with the *entry's* slot pitch and
        resident-register set so it reads and writes exactly the same
        packed state layout as the generic step function.
        """
        if combo in self.bodies:
            return self.bodies[combo]
        binding = {reg: v for reg, v in zip(self.dispatch, combo) if v is not None}
        body: _BatchEntry._Body | None = None
        compiled = sum(1 for b in self.bodies.values() if b is not None)
        if binding and compiled < _MAX_BODIES:
            body = _through(
                self.tier, "fold", (combo,),
                lambda: self._fold(module, binding), self._adopt_body,
            )
        self.bodies[combo] = body
        return body

    def _fold(self, module: Module, binding: dict[str, int]) -> _Fold | None:
        folded = _fold_module(module, binding)
        if len(folded.comb) > _FOLD_THRESHOLD * max(len(module.comb), 1):
            return None
        gen = self._make_gen(folded, pitch=self.pitch, resident=self.resident)
        source = gen.generate()
        code = _compile(source, f"<hdl-batch:{module.name}:fold>")
        return _Fold(folded, source, code)

    def _adopt_body(self, rec: _Fold | None) -> _BatchEntry._Body | None:
        if rec is None:
            return None
        return self._Body(rec.module, rec.source, self._load(rec.code))


def _cached_entry(module: Module, key: str, factory: Callable[[], _BatchEntry]) -> _BatchEntry:
    """The per-(module, engine) compiled-artifact cache behind every
    batched engine, keyed by engine name so the vector tier shares it."""
    entries = _BATCH_CACHE.get(module)
    if entries is None:
        entries = {}
        _BATCH_CACHE.set(module, entries)
    entry = entries.get(key)
    if entry is None:
        entry = entries[key] = factory()
    return entry


def _batch_entry(module: Module, tier=None) -> _BatchEntry:
    return _cached_entry(module, "swar", lambda: _BatchEntry(module, tier))


# ----------------------------------------------------------------- simulator


InputLike = None | dict | Sequence[dict | None]


class _LaneRegs:
    """Dict-like per-lane view of a :class:`BatchSimulator`'s registers,
    compatible with :attr:`repro.hdl.sim.Simulator.regs` consumers."""

    def __init__(self, sim: BatchSimulator, lane: int):
        self._sim = sim
        self._lane = lane

    def __getitem__(self, name: str) -> int:
        return self._sim.get_reg(self._lane, name)

    def __setitem__(self, name: str, value: int) -> None:
        self._sim.set_reg(self._lane, name, value)

    def get(self, name: str, default: int | None = None) -> int | None:
        try:
            return self[name]
        except KeyError:
            return default

    def __contains__(self, name: str) -> bool:
        return name in self._sim.module.regs

    def __iter__(self):
        return iter(self._sim.module.regs)

    def __len__(self) -> int:
        return len(self._sim.module.regs)

    def items(self):
        return ((name, self[name]) for name in self)


class _LaneView:
    """One lane presented with the scalar :class:`Simulator` interface
    (``regs`` mapping, ``arrays`` dict of live per-lane stores)."""

    def __init__(self, sim: BatchSimulator, lane: int):
        self.regs = _LaneRegs(sim, lane)
        self.arrays = {name: store[lane] for name, store in sim.arrays.items()}


class BatchSimulator:
    """N independent executions of one module, advanced together.

    State layout: 1-bit registers live *packed* in :attr:`pregs` (bit
    ``l`` = lane ``l``); registers of 2..33 bits live *slot-packed* in
    :attr:`sregs` (lane ``l`` occupies bits ``[l*pitch, l*pitch+width)``
    of one big integer); wider registers in :attr:`wregs` as per-lane
    lists; arrays in :attr:`arrays` as per-lane sparse dicts.  Use
    :meth:`get_reg` / :meth:`set_reg` / :meth:`lane_view` for scalar
    access -- each lane is bit-identical, cycle for cycle, to a scalar
    :class:`~repro.hdl.sim.Simulator` over the same module.

    ``step`` takes either one input dict broadcast to every lane or a
    sequence of per-lane dicts, and returns the per-lane output-port
    dicts.  Pass ``optimize=False`` to batch the raw IR (the default
    mirrors :class:`Simulator` and runs the module through the shared
    optimization pipeline first).

    **Lane compaction** -- :meth:`compact` drops retired lanes and
    repacks every piece of state (packed tag words, slot-packed
    ``sregs``, per-lane lists, array stores) down to the survivors, then
    re-enters the per-lane-count step-function cache at the new width,
    so skewed suites keep full occupancy.  ``retired`` names *current*
    lane positions; :attr:`active_lanes` maps current positions back to
    the lane ids the simulator was constructed with.  A *retire_when*
    predicate (``(sim, lane) -> bool``) makes :meth:`run` compact
    automatically.  Compaction invalidates previously created
    :meth:`lane_view` objects (lane positions shift).

    **One step path per cycle** -- when every lane agrees on the
    narrow control registers the step runs the state-specialized
    (folded) body, otherwise the generic step.  Both are bit-identical
    per lane, and the choice depends on lane state alone.
    """

    def __init__(
        self,
        module: Module,
        lanes: int,
        optimize: bool = True,
        retire_when: Callable[["BatchSimulator", int], bool] | None = None,
    ):
        if lanes < 1:
            raise ValueError(f"lane count must be >= 1, got {lanes}")
        if optimize:
            from repro.hdl.passes import optimize as _optimize

            module = _optimize(module)
        module.validate()
        self.module = module
        self.lanes = lanes
        self.cycles = 0
        self.retire_when = retire_when
        #: current lane position -> lane id at construction time
        self.active_lanes: list[int] = list(range(lanes))
        #: step counters: uniform fast path / generic, plus compaction
        #: events and aggregate active lane-cycles
        self.uniform_steps = 0
        self.generic_steps = 0
        #: always 0 (there is no cohort-split path); perfbench's layer report reads it
        self.split_steps = 0
        self.compactions = 0
        self.lane_cycles = 0
        #: ``engine="auto"`` vector batches only (set by
        #: :meth:`~repro.toolchain.Toolchain.batch_simulator`): live lane
        #: count -> the SWAR entry to continue on after :meth:`compact`,
        #: or None to stay
        self._handover: Callable[[int], _BatchEntry | None] | None = None
        self._use_entry(self._make_entry(module))
        self.pregs: dict[str, int] = {}
        self.sregs: dict = {}
        self.wregs: dict[str, list[int]] = {}
        for r in module.regs.values():
            if r.width == 1:
                self.pregs[r.name] = ((1 << lanes) - 1) if (r.init & 1) else 0
            elif r.name in self._entry.resident:
                self.sregs[r.name] = self._sreg_new(r)
            else:
                self.wregs[r.name] = [r.init] * lanes
        self.arrays: dict[str, list[dict[int, int]]] = {
            name: [{} for _ in range(lanes)] for name in module.arrays
        }
        #: optional lane-packed shadow-taint layer (see :meth:`attach_taint`)
        self.taint = None
        self._ones = (1 << lanes) - 1
        self._empty_inputs = [{}] * lanes

    # -- engine hooks -------------------------------------------------------
    #
    # Everything an engine generation does differently about the wide
    # (multi-bit resident) state representation funnels through these
    # methods: the SWAR defaults keep 2..33-bit registers slot-packed in
    # big integers, the vector tier overrides them to keep uint64
    # ndarrays.  ``step`` call sites and the dispatch machinery are
    # shared verbatim.

    def _make_entry(self, module: Module) -> _BatchEntry:
        return _batch_entry(module)

    def _use_entry(self, entry: _BatchEntry) -> None:
        """Step with *entry*'s compiled code: its slot pitch, state
        layout and dispatch-register modes."""
        self._entry = entry
        self._step = entry.step(self.lanes)
        self.source = entry.source
        self.pitch = entry.pitch
        self._refresh_layout()
        self._dispatch = []
        for name in entry.dispatch:
            width = self.module.regs[name].width
            if width == 1:
                self._dispatch.append((name, "p", 1))
            elif name in entry.resident:
                self._dispatch.append((name, "w", (1 << width) - 1))
            else:
                self._dispatch.append((name, "s", 0))

    def _refresh_layout(self) -> None:
        self._layout = (
            get_layout(self.pitch, self.lanes) if self._entry.resident else None
        )

    def _sreg_new(self, reg):
        """Initial wide-resident state for one register, all lanes."""
        return self._layout.replicate(reg.init, reg.width)

    def _sreg_get(self, name: str, lane: int, width: int) -> int:
        return self._layout.get(self.sregs[name], lane, width)

    def _sreg_set(self, name: str, lane: int, width: int, value: int) -> None:
        self.sregs[name] = self._layout.set(self.sregs[name], lane, width, value)

    def _compact_sregs(self, keep: Sequence[int]) -> None:
        pitch = self.pitch
        for name, word in self.sregs.items():
            mask = (1 << self.module.regs[name].width) - 1
            self.sregs[name] = sum(
                (((word >> (lane * pitch)) & mask) << (i * pitch))
                for i, lane in enumerate(keep)
            )

    def _sreg_uniform(self, name: str, mask: int) -> int | None:
        """The shared value of *name* across lanes, or None if they differ."""
        word = self.sregs[name]
        v0 = word & mask
        if word == v0 * self._layout.unit:
            return v0
        return None

    # -- state access -------------------------------------------------------

    @property
    def signal_tiers(self) -> dict[str, str]:
        """Combinational signal -> evaluation tier: ``'p'`` (packed
        1-bit), ``'w'`` (SWAR slots), or ``'s'`` (per-lane scalar)."""
        return dict(self._entry.kinds)

    def _check_lane(self, lane: int) -> int:
        """Validate a caller-facing lane index (current position).

        Without this, a negative index would silently wrap on the
        per-lane lists while reading garbage from the packed words, and
        an index past the (possibly compacted) lane count would silently
        read zeros from the packed words.
        """
        if not 0 <= lane < self.lanes:
            raise ValueError(
                f"lane {lane} out of range for {self.lanes} active lane(s)"
            )
        return lane

    def get_reg(self, lane: int, name: str) -> int:
        self._check_lane(lane)
        reg = self.module.regs[name]
        if reg.width == 1:
            return (self.pregs[name] >> lane) & 1
        if name in self.sregs:
            return self._sreg_get(name, lane, reg.width)
        return self.wregs[name][lane]

    def set_reg(self, lane: int, name: str, value: int) -> None:
        self._check_lane(lane)
        reg = self.module.regs[name]
        value &= (1 << reg.width) - 1
        if reg.width == 1:
            bit = 1 << lane
            self.pregs[name] = (self.pregs[name] & ~bit) | (bit if value else 0)
        elif name in self.sregs:
            self._sreg_set(name, lane, reg.width, value)
        else:
            self.wregs[name][lane] = value

    def attach_taint(self, sources=None, certificate=None, lane_masks=None):
        """Attach lane-packed shadow-taint tracking over the tainted cone.

        *sources* names the input ports that inject taint (or pass a
        precomputed :class:`~repro.analyze.taint.TaintCertificate` as
        *certificate*); *lane_masks* optionally restricts each source
        to a packed subset of lanes.  The static certificate prunes the
        shadow state up front: only statically tainted signals get a
        packed taint word, statically clean ones are dropped from the
        tag cone entirely (see ``self.taint.stats``).  Tracking is
        passive -- values, outputs, and every counter stay bit-identical
        with and without it.  The tracker advances with every
        :meth:`step` and repacks with every :meth:`compact`.
        """
        from repro.analyze.taint import PackedTaintTracker, compute_taint

        if certificate is None:
            if sources is None:
                raise ValueError("attach_taint() needs sources or a certificate")
            certificate = compute_taint(self.module, tuple(sources))
        self.taint = PackedTaintTracker(
            self.module, certificate, self.lanes, lane_masks
        )
        return self.taint

    def lane_view(self, lane: int) -> _LaneView:
        return _LaneView(self, self._check_lane(lane))

    def lane_regs(self, lane: int) -> dict[str, int]:
        """A snapshot dict of one lane's registers."""
        self._check_lane(lane)
        return {name: self.get_reg(lane, name) for name in self.module.regs}

    def load_array(self, lane: int, name: str, data: dict | list) -> None:
        """Initialize one lane's array contents (e.g. program memory).

        Mutates the lane's store in place so live views of it (e.g. a
        :meth:`lane_view` held across the load) stay current.
        """
        self._check_lane(lane)
        arr = self.module.arrays[name]
        mask = (1 << arr.width) - 1
        items = enumerate(data) if isinstance(data, list) else data.items()
        store = self.arrays[name][lane]
        store.clear()
        store.update({i: v & mask for i, v in items if v & mask != arr.default})

    # -- occupancy management ----------------------------------------------

    def compact(self, retired: Sequence[int] | None = None) -> list[int]:
        """Drop *retired* lanes and repack all state to the survivors.

        *retired* lists current lane positions (defaults to the lanes
        the *retire_when* predicate selects); duplicates and
        out-of-range positions raise ``ValueError``, as does retiring
        every lane -- at least one must survive.  Packed tag words,
        slot-packed ``sregs``, per-lane register lists, and per-lane
        array stores are all repacked in lane order; the step function
        re-enters the per-lane-count cache at the new width (compiled
        once per width, shared by every simulator over this module).
        A batch with a ``_handover`` (an ``engine="auto"`` vector
        batch) then asks it for the engine the new width should run on,
        and on a SWAR entry continues there in place -- the first such
        handover of a module in a process builds that entry.
        Returns the construction-time ids of the retired lanes, and
        updates :attr:`active_lanes` for the survivors.
        """
        if retired is None:
            if self.retire_when is None:
                raise ValueError(
                    "compact() needs retired lanes or a retire_when predicate"
                )
            retired = [
                lane for lane in range(self.lanes) if self.retire_when(self, lane)
            ]
        retired = list(retired)
        seen: set[int] = set()
        for lane in retired:
            self._check_lane(lane)
            if lane in seen:
                raise ValueError(f"duplicate lane index {lane} in retired lanes")
            seen.add(lane)
        if not seen:
            return []
        if len(seen) == self.lanes:
            raise ValueError("cannot retire every lane; at least one must survive")
        keep = [lane for lane in range(self.lanes) if lane not in seen]
        k = len(keep)
        for name, word in self.pregs.items():
            self.pregs[name] = sum(
                ((word >> lane) & 1) << i for i, lane in enumerate(keep)
            )
        self._compact_sregs(keep)
        for name, lst in self.wregs.items():
            self.wregs[name] = [lst[lane] for lane in keep]
        for name, lst in self.arrays.items():
            self.arrays[name] = [lst[lane] for lane in keep]
        if self.taint is not None:
            self.taint.compact(keep)
        gone = [self.active_lanes[lane] for lane in sorted(seen)]
        self.active_lanes = [self.active_lanes[lane] for lane in keep]
        self.lanes = k
        self._ones = (1 << k) - 1
        self._empty_inputs = [{}] * k
        self._refresh_layout()
        self._step = self._entry.step(k)
        self.compactions += 1
        if self._handover is not None:
            entry = self._handover(k)
            if entry is not None:
                self._retarget(entry)
        return gone

    # -- running -----------------------------------------------------------

    def _lane_inputs(self, inputs: InputLike) -> Sequence[dict]:
        if inputs is None:
            return self._empty_inputs
        if isinstance(inputs, dict):
            return [inputs] * self.lanes
        if len(inputs) != self.lanes:
            raise ValueError(f"expected {self.lanes} per-lane inputs, got {len(inputs)}")
        return [d if d is not None else {} for d in inputs]

    def _uniform_combo(self) -> tuple | None:
        vals = []
        some = False
        for name, mode, mask in self._dispatch:
            if mode == "p":
                p = self.pregs[name]
                if p == 0:
                    vals.append(0)
                    some = True
                elif p == self._ones:
                    vals.append(1)
                    some = True
                else:
                    vals.append(None)
            elif mode == "w":
                v0 = self._sreg_uniform(name, mask)
                vals.append(v0)
                if v0 is not None:
                    some = True
            else:
                lst = self.wregs[name]
                v0 = lst[0]
                for v in lst:
                    if v != v0:
                        vals.append(None)
                        break
                else:
                    vals.append(v0)
                    some = True
        return tuple(vals) if some else None

    def step(self, inputs: InputLike = None) -> list[dict[str, int]]:
        """Advance every lane one clock cycle; returns per-lane outputs."""
        self.cycles += 1
        self.lane_cycles += self.lanes
        if self.taint is not None:
            self.taint.step()
        lane_inputs = self._lane_inputs(inputs)
        if self._dispatch:
            combo = self._uniform_combo()
            if combo is not None:
                body = self._entry.body_for(self.module, combo)
                if body is not None:
                    self.uniform_steps += 1
                    return body.step(self.lanes)(
                        self.pregs, self.wregs, self.sregs, self.arrays, lane_inputs
                    )
        self.generic_steps += 1
        return self._step(self.pregs, self.wregs, self.sregs, self.arrays, lane_inputs)

    def run(self, cycles: int, inputs: InputLike = None) -> list[dict[str, int]]:
        """Advance up to *cycles* cycles; returns the last per-lane outputs.

        With a *retire_when* predicate set, retired lanes are compacted
        away after every step (the returned list covers the surviving
        lanes, in :attr:`active_lanes` order); the run stops early once
        every remaining lane retires.
        """
        per_lane = not (inputs is None or isinstance(inputs, dict))
        if per_lane:
            inputs = list(inputs)  # aligned with current lane positions
        out: list[dict[str, int]] = [{} for _ in range(self.lanes)]
        for _ in range(cycles):
            out = self.step(inputs)
            if self.retire_when is not None:
                retired = [
                    lane for lane in range(self.lanes)
                    if self.retire_when(self, lane)
                ]
                if len(retired) == self.lanes:
                    break
                if retired:
                    gone = set(retired)
                    self.compact(retired)
                    out = [o for lane, o in enumerate(out) if lane not in gone]
                    if per_lane:  # keep the stimulus aligned with survivors
                        inputs = [
                            d for lane, d in enumerate(inputs) if lane not in gone
                        ]
        return out
