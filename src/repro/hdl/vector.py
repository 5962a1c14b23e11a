"""NumPy-vectorized native tier for the lane-batched simulator.

The fourth codegen tier: the dependency-scheduled step functions
:class:`~repro.hdl.batch._BatchCodeGen` produces are lowered to NumPy
``uint64`` arrays with **lanes as the vector axis** -- each multi-bit
signal is a ``(lanes,)`` ndarray, operators are elementwise ufuncs,
1-bit wide-tier signals are boolean arrays, and mux selects are
``np.where`` over boolean masks.  Lane packing, guard bits, and the
per-lane marshalling of the SWAR tier disappear from the hot path:
one ufunc call advances all lanes of an adder in C, with cost
amortized over the lane count instead of linear in it.

The packed 1-bit tag world is deliberately *kept* from the big-int
engine: a bitwise op on one n-bit Python integer is several times
faster than the same op on an n-element boolean ndarray for the lane
counts this simulator targets, and compiled Sapper designs are
dominated by their security-tag cone.  The vector tier therefore
replaces only the SWAR wide world; ``_ub``/``_pb`` convert between
packed words and boolean arrays at the (rare) tier boundaries.

Per-step fallback mirrors the SWAR tier's: any expression tree the
vector lowering cannot express exactly (>64-bit values, sparse array
read ports, non-canonical width mixes) drops to the bit-exact
per-lane scalar loops, which read vector-resident state through
hoisted ``.tolist()`` views.  Registers of 2..64 bits live as
``uint64`` ndarrays in ``sregs``; lane compaction re-slices them with
fancy indexing, and majority-cohort dispatch gathers/scatters cohorts
the same way instead of running ``_pext``/``_pdep`` bit schedules.

Generated step code treats every stored ndarray as an **immutable
value**: no in-place mutation, ever.  State mutation sites outside the
step (``set_reg``, cohort scatter) copy before writing, so write-back
aliasing (two registers latching the same signal's array) is harmless
without defensive copies on the hot path.

NumPy is an optional dependency: importing this module without it
leaves :data:`HAVE_NUMPY` false, and :class:`VectorSimulator` raises a
clear, actionable error instead of an ImportError traceback.
"""

from __future__ import annotations


from repro.hdl.batch import (
    _CMP_OPS,
    _INLINE_DEPTH,
    _INLINE_LEN,
    _SIGNED_CMPS,
    _BatchCodeGen,
    _BatchEntry,
    _CohortPlan,
    _cached_entry,
    _packable,
    BatchSimulator,
)
from repro.hdl.ir import HConst, HExpr, HOp, HRef, Module
from repro.hdl.sim import nests_within

try:
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via the gating tests
    np = None
    HAVE_NUMPY = False

#: Widest value the uint64 lowering can hold exactly.
VECTOR_MAX_WIDTH = 64

#: Largest array (elements) given a dense 2-D ndarray backing.  Small
#: arrays (register files, cache tag/data stores) are mirrored as
#: ``(lanes, size)`` uint64 ndarrays so their read cones vectorize as
#: one fancy-indexing gather per port; big sparse stores (main memory)
#: stay dict-only and their read cones fall back to the scalar tier.
DENSE_MAX = 4096

_NUMPY_HINT = (
    "the vector engine needs NumPy, which is not installed; "
    "install it (pip install numpy) or pick another engine "
    "(swar/batch)"
)


# ------------------------------------------------------- runtime helpers
#
# Injected into the generated step's namespace.  Each mirrors one scalar
# emitter semantic exactly (div-by-zero yields all-ones, mod-by-zero the
# dividend, shifts clamp instead of hitting the C shift-count UB), on
# whole lane vectors at a time.


def _vshl(a, k, w, m):
    """``(a << k) & m`` per lane, 0 where ``k >= w`` (scalar shl)."""
    ok = k < w
    ks = np.where(ok, k, 0)
    return np.where(ok, (a << ks) & m, 0)


def _vshr(a, k, w):
    """``a >> k`` per lane, 0 where ``k >= w`` (scalar shr)."""
    ok = k < w
    ks = np.where(ok, k, 0)
    return np.where(ok, a >> ks, 0)


def _vasr(a, k, w, m):
    """Arithmetic right shift of *w*-bit lanes by ``min(k, w - 1)``."""
    ks = np.minimum(k, np.uint64(w - 1))
    sb = np.uint64(1) << (np.uint64(w - 1) - ks)
    return (((a >> ks) ^ sb) - sb) & m


def _vdiv(x, y, m):
    """``(x // y) & m`` per lane; all-ones where ``y == 0``."""
    z = y == 0
    return np.where(z, m, (x // np.where(z, 1, y)) & m)


def _vmod(x, y):
    """``x % y`` per lane; the dividend where ``y == 0``."""
    z = y == 0
    return np.where(z, x, x % np.where(z, 1, y))


def _sv(x, w):
    """*w*-bit lanes of *x* as signed int64 values."""
    if w == 64:
        return np.asarray(x).view(np.int64)
    s = np.int64(1 << (w - 1))
    return (np.asarray(x).astype(np.int64) ^ s) - s


# ------------------------------------------------------- classification


def _dense_arrays(module: Module) -> frozenset:
    """Arrays small and narrow enough for the dense ndarray backing.

    A pure function of the module, so the codegen, the entry, and the
    simulator (and every specialized folded body -- ``_fold_module``
    preserves ``arrays``) agree on the set without plumbing.
    """
    return frozenset(
        name for name, arr in module.arrays.items()
        if arr.size <= DENSE_MAX and arr.width <= VECTOR_MAX_WIDTH
    )


def _vector_ok(e: HExpr, dense: frozenset = frozenset()) -> bool:
    """Can *e*'s whole tree be evaluated on uint64 lane vectors?

    Same conservative shape as :func:`repro.hdl.batch._swar_ok` -- a
    ``False`` costs speed (per-lane fallback), never correctness -- but
    the uint64 lowering additionally admits mul/div/mod and *variable*
    shift amounts, and runs all the way up to 64-bit values.  The width
    defenses are kept: every emitted value must stay canonical (no
    significant bits at or above its declared width), because the mask
    elision and the dtype both assume it.
    """
    low_mul: set = set()
    for node in e.walk():
        if (isinstance(node, HOp) and node.op == "slice"
                and node.lo + node.width <= VECTOR_MAX_WIDTH
                and isinstance(node.args[0], HOp) and node.args[0].op == "mul"
                and node.args[0].width > VECTOR_MAX_WIDTH
                and all(a.width <= VECTOR_MAX_WIDTH
                        for a in node.args[0].args)):
            # low-64 window of a doubled-width product (a MIPS-style
            # mult writing hi/lo): uint64 wraparound computes the low
            # 64 bits of the product exactly (two's complement), so the
            # over-wide mul node itself never needs to materialize
            low_mul.add(id(node.args[0]))
        if node.width > VECTOR_MAX_WIDTH and id(node) not in low_mul:
            return False
        if not isinstance(node, HOp):
            continue
        op = node.op
        if op in ("add", "sub", "neg", "not", "cat"):
            # wide nodes mask wider args away, but the 1-bit boolean
            # emitter treats operands as flags and cannot narrow them
            if node.width == 1 and any(a.width != 1 for a in node.args):
                return False
        elif op in ("mul", "div", "mod"):
            if node.width == 1:
                return False
            if op == "mod" and node.args[0].width > node.width:
                return False  # x % 0 = x could exceed the declared width
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
        elif op == "zext":
            if node.args[0].width > node.width:
                return False  # scalar zext is an unmasked passthrough
        elif op == "sext":
            pass  # value-based and masked at every width mix
        elif op == "slice":
            pass
        elif op in ("shl", "shr", "asr"):
            # the clamp widths assume arg and node width agree (they do
            # in compiled designs); variable amounts are fine
            if node.args[0].width != node.width:
                return False
        elif op in ("land", "lor", "lnot"):
            if any(a.width != 1 for a in node.args):
                return False
        elif op in _CMP_OPS:
            pass  # signed compares handle per-arg widths via _sv
        elif op == "read":
            # densely-backed arrays gather with one fancy index; sparse
            # dict stores drop the cone to the per-lane fallback
            if node.array not in dense:
                return False
        else:  # pragma: no cover - no other ops reach the batched IR
            return False
    return True


# --------------------------------------------------------------- codegen


class _VectorCodeGen(_BatchCodeGen):
    """Emits the hybrid packed/vector/scalar batched step function.

    Subclasses the SWAR codegen and replaces exactly the wide tier: the
    ``wval``/``dform`` emitters produce ufunc expressions over uint64 /
    boolean lane arrays, flag conversion to and from the packed big-int
    tag world goes through ``packbits``/``unpackbits`` shims, per-lane
    scalar loops read vector values through hoisted ``.tolist()``
    views, and the clock edge writes ndarrays (not slot-packed words)
    into ``sregs``.  Scheduling, the packed world, the scalar world,
    inlining, dead-cone peeling, and the state footprint are all
    inherited verbatim.
    """

    def __init__(
        self,
        module: Module,
        pitch: int | None = None,
        resident: frozenset | None = None,
    ):
        self._xl_needed: set[str] = set()
        self.dense = _dense_arrays(module)
        self._local_memo: dict[str, str] = {}
        self._pbm_max = 0
        self._use_ubm = False
        self._used_R = False
        self._use_whr = False
        self._ucache: dict[str, str] = {}
        super().__init__(module, swar=True, pitch=pitch, resident=resident)

    # -- tier classification / state layout ---------------------------------

    def _classify(self, e: HExpr) -> str:
        if e.width == 1 and _packable(e):
            return "p"
        if _vector_ok(e, self.dense):
            return "w"
        return "s"

    def _default_resident(self) -> frozenset:
        return frozenset(
            r.name for r in self.module.regs.values()
            if 2 <= r.width <= VECTOR_MAX_WIDTH
        )

    def _compute_pitch(self) -> int:
        return 0  # no slot packing: lanes are the array axis

    # -- dense array backing -------------------------------------------------
    #
    # Dense arrays ride in ``sregs`` under reserved ``"a:" + name`` keys
    # (register names cannot contain a colon), which gives them lane
    # compaction, cohort gather/scatter, and footprint-aware marshalling
    # for free: ``_compact_sregs`` and the fancy-indexing gather both
    # select *rows* of a 2-D array exactly as they select elements of a
    # 1-D one.  The per-lane dicts in ``arrays`` remain the canonical
    # store (the scalar tier, ``lane_view``, and cross-validation read
    # them); the dense mirror is written through on every port store.

    def _emit_state_loads(self) -> None:
        super()._emit_state_loads()
        m = self.module
        self._dense_writes = sorted({
            wr.array for wr in m.array_writes
            if wr.array in self.dense
            and not (isinstance(wr.enable, HConst) and wr.enable.value == 0)
        })
        used = set(self._dense_writes)
        for kind, sigs in self.phases:
            if kind != "w":
                continue
            for s in sigs:
                for node in self.exprs[s].walk():
                    if (isinstance(node, HOp) and node.op == "read"
                            and node.array in self.dense):
                        used.add(node.array)
        self._dense_loads = sorted(used)
        for a in self._dense_loads:
            self._emit(f"ad_{a} = sregs[{'a:' + a!r}]")

    def _record_footprint(self) -> None:
        super()._record_footprint()
        # the dense mirrors travel with the cohort like resident
        # registers; written arrays are also read so the scatter-back
        # finds the gathered rows in place
        self.reads_sregs += tuple("a:" + a for a in self._dense_loads)
        self.writes_sregs += tuple("a:" + a for a in self._dense_writes)

    def _port_store(self, arr: str, idx: str, data: str) -> list[str]:
        stmts = super()._port_store(arr, idx, data)
        if arr in self.dense:
            stmts.append(f"ad_{arr}[_l, {idx}] = {data}")
        return stmts

    # -- local temps ---------------------------------------------------------

    def _as_local(self, code: str) -> str:
        """Memoized: the same emitted expression (a mux selector feeding
        many wheres, a repeated ``.astype`` of one flag) is computed once
        per step.  Safe because every vector-world name is assigned once
        per step body (packed/vector/scalar locals are all SSA)."""
        if code.isidentifier() or code == "0":
            return code
        got = self._local_memo.get(code)
        if got is None:
            got = self._local_memo[code] = self._fresh(code)
        return got

    # -- constant pool -------------------------------------------------------

    def _knp(self, value: int) -> str:
        """A pooled ``np.uint64`` scalar (plain int literals are only
        safe as the *second* operand of an array op; standalone values,
        mux arms, and where() branches must carry the dtype)."""
        return self._pooled(("vk", value), f"_K{len(self._pool)}", f"_U64({value})")

    def _kna(self, value: int) -> str:
        """A pooled full ``(n,)`` constant array.  ``np.where`` with two
        array arms is measurably cheaper than with a scalar arm (the
        scalar is broadcast-wrapped on every call), so where() branches
        pull constants from the pool; never mutated, like all stored
        vectors."""
        return self._pooled(
            ("vka", value), f"_F{len(self._pool)}", f"_np.full(n, {value}, _U64)"
        )

    def _btrue(self) -> str:
        return self._pooled(("bt",), "_TRUE", "_np.ones(n, _np.bool_)")

    def _bfalse(self) -> str:
        return self._pooled(("bf",), "_FALSE", "_np.zeros(n, _np.bool_)")

    # -- flag conversion shims ----------------------------------------------

    def _spread_flag(self, name: str) -> str:
        return f"_ub({self.pref(name)})"

    def _pack_flag(self, code: str) -> str:
        return f"_pb({code})"

    # -- boolean-array emission (1-bit wide-tier expressions) ----------------

    def dform(self, e: HExpr) -> str:
        if isinstance(e, HConst):
            return self._btrue() if e.value else self._bfalse()
        if isinstance(e, HRef):
            return self.dref(e.name)
        op = e.op
        if op in _CMP_OPS:
            if all(a.width == 1 for a in e.args) and op in ("eq", "ne"):
                a = [self.dform(c) for c in e.args]
                code = f"({a[0]} ^ {a[1]})"
                return code if op == "ne" else f"(~{code})"
            return self._cmp_vec(e)
        if op == "read":  # 1-bit dense array: gathered values are 0/1
            return f"({self._dense_read(e)} != 0)"
        if op == "slice":  # extract one bit out of a wide vector value
            if e.lo >= e.args[0].width:
                return self._bfalse()
            arg = e.args[0]
            if (isinstance(arg, HOp) and arg.op == "mul"
                    and arg.width > VECTOR_MAX_WIDTH):
                # low-64 bit of a doubled-width product (see _vector_ok)
                v = f"({self.vv(arg.args[0])} * {self.vv(arg.args[1])})"
            else:
                v = self.wval(arg)
            return f"(({v} & {self._knp(1 << e.lo)}) != 0)"
        if op in ("shl", "shr", "asr"):
            # 1-bit shift: asr clamps to w-1 = 0 (identity); shl/shr
            # drop the only bit for any non-zero amount
            if op == "asr":
                return self.dform(e.args[0])
            if isinstance(e.args[1], HConst):
                return self.dform(e.args[0]) if e.args[1].value == 0 else self._bfalse()
            k = self._as_local(self.wval(e.args[1]))
            return f"({self.dform(e.args[0])} & ({k} == 0))"
        if op == "mux" and not isinstance(e.args[0], HConst):
            t, f = self.dform(e.args[1]), self.dform(e.args[2])
            if t == f:
                return t
            return self._where(
                e.args[0], self._as_local(self.dform(e.args[0])), t, f
            )
        a = [self.dform(c) for c in e.args]
        if op in ("and", "land"):
            return f"({a[0]} & {a[1]})"
        if op in ("or", "lor"):
            return f"({a[0]} | {a[1]})"
        if op in ("xor", "add", "sub"):
            return f"({a[0]} ^ {a[1]})"
        if op in ("not", "lnot"):
            return f"(~{a[0]})"
        if op in ("neg", "zext", "sext", "cat"):
            return a[0]
        if op == "mux":
            return f"_np.where({a[0]}, {a[1]}, {a[2]})"
        raise ValueError(f"op {op!r} has no boolean-array form")  # pragma: no cover

    def _cmp_vec(self, e: HOp) -> str:
        """Boolean-array code for a comparison over vector values."""
        x, y = (self.vv(a) for a in e.args)
        op = e.op
        if op in _SIGNED_CMPS:
            x = f"_sv({x}, {e.args[0].width})"
            y = f"_sv({y}, {e.args[1].width})"
            op = {"lts": "lt", "les": "le", "gts": "gt", "ges": "ge"}[op]
        sym = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
               "gt": ">", "ge": ">="}[op]
        return f"({x} {sym} {y})"

    # -- uint64-array emission (multi-bit wide-tier expressions) -------------

    def vv(self, e: HExpr) -> str:
        """*e* as a uint64 lane vector (1-bit values as 0/1 uint64)."""
        if isinstance(e, HConst):
            return self._knp(e.value)  # np scalar: broadcasts, no alloc
        if e.width == 1:
            return self._as_local(f"({self.dform(e)}).astype(_U64)")
        return self.wval(e)

    def _varm(self, e: HExpr) -> str:
        """*e* as a ``np.where`` arm: constants come from the full-array
        pool instead of broadcasting a scalar per call."""
        if isinstance(e, HConst):
            return self._kna(e.value)
        return self.vv(e)

    def _bsel(self, sel: HExpr) -> str | None:
        """Mux selector as a boolean array, or None for a constant."""
        if isinstance(sel, HConst):
            return None
        return self._as_local(self.dform(sel))

    def wval(self, e: HExpr) -> str:
        if e.width == 1:
            return self.vv(e)
        w = e.width
        m = (1 << w) - 1
        if isinstance(e, HConst):
            return self._knp(e.value)
        if isinstance(e, HRef):
            return self.wref(e.name)
        op = e.op
        A = e.args
        if op == "add":
            a, b = self.vv(A[0]), self.vv(A[1])
            # mask elision: a sum that provably fits the width is
            # already canonical (and cannot wrap uint64, since w <= 64)
            if max(self._sig_bits(A[0]), self._sig_bits(A[1])) + 1 <= w:
                return f"({a} + {b})"
            return f"(({a} + {b}) & {m})"
        if op == "sub":
            # uint64 wraparound is two's complement: low w bits exact
            return f"(({self.vv(A[0])} - {self.vv(A[1])}) & {m})"
        if op == "neg":
            return f"((0 - {self.vv(A[0])}) & {m})"
        if op == "mul":
            a, b = self.vv(A[0]), self.vv(A[1])
            if self._sig_bits(A[0]) + self._sig_bits(A[1]) <= w:
                return f"({a} * {b})"
            return f"(({a} * {b}) & {m})"
        if op == "div":
            return f"_vdiv({self.vv(A[0])}, {self.vv(A[1])}, {self._knp(m)})"
        if op == "mod":
            return f"_vmod({self.vv(A[0])}, {self.vv(A[1])})"
        if op == "and":
            return f"({self.vv(A[0])} & {self.vv(A[1])})"
        if op == "or":
            return f"({self.vv(A[0])} | {self.vv(A[1])})"
        if op == "xor":
            return f"({self.vv(A[0])} ^ {self.vv(A[1])})"
        if op == "not":
            return f"((~{self.vv(A[0])}) & {m})"
        if op == "mux":
            if isinstance(A[0], HConst):
                return self.vv(A[1] if A[0].value else A[2])
            t, f = self._varm(A[1]), self._varm(A[2])
            if t == f:
                # write-enable networks emit one chain per register with
                # almost every arm equal to the old value; the identical
                # arms collapse bottom-up through the inlined links
                return t
            return self._where(A[0], self._bsel(A[0]), t, f)
        if op == "zext":
            return self.vv(A[0])
        if op == "sext":
            wf = A[0].width
            if wf == 1:
                s = self._bsel(A[0])
                if s is None:  # pragma: no cover - folded upstream
                    return self._knp(m if A[0].value else 0)
                return self._where(A[0], s, self._kna(m), self._kna(0))
            if wf == w:
                return self.vv(A[0])
            if wf > w:
                return f"({self.vv(A[0])} & {m})"
            return f"((({self.vv(A[0])} ^ {self._knp(1 << (wf - 1))}) - {1 << (wf - 1)}) & {m})"
        if op == "slice":
            # flatten slice-of-slice, clamping the effective width
            # against every level's truncation (canonical values carry
            # no bits at or above their width)
            arg, lo, limit = A[0], e.lo, w
            while True:
                limit = min(limit, arg.width - lo)
                if not (isinstance(arg, HOp) and arg.op == "slice"):
                    break
                lo += arg.lo
                arg = arg.args[0]
            if limit <= 0:
                return self._knp(0)
            if (isinstance(arg, HOp) and arg.op == "mul"
                    and arg.width > VECTOR_MAX_WIDTH):
                # low-64 window of a doubled-width product: wrapped
                # uint64 multiply is exact there (see _vector_ok), and
                # the window always needs the mask -- the wrapped
                # product fills all 64 bits
                prod = f"({self.vv(arg.args[0])} * {self.vv(arg.args[1])})"
                shifted = f"({prod} >> {lo})" if lo else prod
                if lo + limit >= VECTOR_MAX_WIDTH:
                    return shifted
                return f"({shifted} & {(1 << limit) - 1})"
            a = self.vv(arg)
            if lo == 0 and arg.width == w == limit:
                return a
            shifted = f"({a} >> {lo})" if lo else a
            # mask elision: extracting the topmost significant bits of a
            # canonical value leaves nothing above the slice to mask off
            if self._sig_bits(arg) <= lo + limit:
                return shifted
            return f"({shifted} & {(1 << limit) - 1})"
        if op == "cat":
            parts = []
            shift = 0
            cval = 0  # constant parts fold into one pooled scalar
            for child in reversed(A):
                if isinstance(child, HConst):
                    cval |= child.value << shift
                elif child.width == 1 and shift:
                    # bool * uint64-scalar promotes to uint64 in one
                    # ufunc call (vs astype-then-shift's two)
                    parts.append(f"({self.dform(child)} * {self._knp(1 << shift)})")
                else:
                    code = self.vv(child)
                    parts.append(f"({code} << {shift})" if shift else code)
                shift += child.width
            if cval or not parts:
                parts.append(self._knp(cval))
            return "(" + " | ".join(parts) + ")"
        if op in ("shl", "shr", "asr"):
            a = self.vv(A[0])
            if not isinstance(A[1], HConst):
                k = self.vv(A[1])
                # clamp elision: an amount that provably stays below the
                # width never triggers the k >= w => 0 semantics (nor
                # the C shift-count UB), so the np.where clamps drop
                kmax = (1 << self._sig_bits(A[1])) - 1
                if op == "shl":
                    if kmax < w:
                        if self._sig_bits(A[0]) + kmax <= w:
                            return f"({a} << {k})"
                        return f"(({a} << {k}) & {m})"
                    return f"_vshl({a}, {k}, {w}, {m})"
                if op == "shr":
                    if kmax < w:
                        return f"({a} >> {k})"
                    return f"_vshr({a}, {k}, {w})"
                return f"_vasr({a}, {k}, {w}, {m})"
            k = A[1].value
            if op == "asr":
                k = min(k, w - 1)
            if k == 0:
                return a
            if op != "asr" and k >= w:
                return self._knp(0)
            if op == "shl":
                # mask elision: a value already fitting w - k bits
                # cannot reach the masked-off range when shifted
                if self._sig_bits(A[0]) <= w - k:
                    return f"({a} << {k})"
                return f"(({a} << {k}) & {m})"
            if op == "shr":
                return f"({a} >> {k})"
            sb = 1 << (w - 1 - k)
            return f"(((({a} >> {k}) ^ {self._knp(sb)}) - {sb}) & {m})"
        if op == "read":
            return self._dense_read(e)
        raise ValueError(f"op {op!r} has no vector form")  # pragma: no cover

    def _dense_read(self, e: HOp) -> str:
        """All-lanes gather from a dense array backing; address wrap
        mirrors the scalar dict lookup's ``% size`` rule."""
        arr = self.module.arrays[e.array]
        idx = self.vv(e.args[0])
        if (1 << e.args[0].width) > arr.size:
            if arr.size & (arr.size - 1) == 0:
                idx = f"({idx} & {arr.size - 1})"
            else:
                idx = f"({idx} % {arr.size})"
        return f"ad_{e.array}[_R, {idx}]"

    # -- mux-chain gathering -------------------------------------------------
    #
    # Register files compiled without a read port lower to long priority
    # mux chains -- ``idx == 31 ? r31 : idx == 30 ? r30 : ... : 0`` --
    # which cost one np.where per arm.  When every selector in a chain
    # compares the *same* index expression against *distinct* constants,
    # the chain is semantically a table lookup: stack the arms once and
    # gather with one fancy index.  Chains sharing an arm set (two read
    # ports of one register file) also share the stacked table, because
    # ``_as_local`` memoizes by emitted code.

    # -- uniformity-gated selects --------------------------------------------
    #
    # Mode and handshake flags are frequently *uniform* across the lane
    # cohort for a whole step (every lane in the same bus state, no lane
    # raising an exception), and a ``np.where`` over a uniform selector
    # is pure waste: the result is an alias of one arm.  Each gated
    # select routes through ``_whr(u, d, t, f)`` where ``u`` is a 0 /
    # mixed / 2 uniformity tag computed once per selector per step --
    # from the selector's packed big-int form when one exists (two int
    # compares, ~30ns) or from a raw-bytes compare of the boolean array
    # (numpy bools are exactly 0/1 bytes, so ``tobytes`` against
    # all-zeros / all-ones decides uniformity in ~90ns -- 15x cheaper
    # than ``any``+``all`` reductions).  Mixed cohorts pay one extra
    # integer compare per select; uniform ones skip the where.

    _LAZY_LEN = 1200

    def _where(self, sel: HExpr, scode: str, t: str, f: str) -> str:
        u = self._uniform_tag(sel, scode)
        if u is None:
            return f"_np.where({scode}, {t}, {f})"
        if len(t) + len(f) <= self._LAZY_LEN:
            # conditional expression: the untaken arm's inline cone is
            # never evaluated; arm code is duplicated, so cap the size
            return (f"({t} if {u} == 2 else {f} if {u} == 0"
                    f" else _np.where({scode}, {t}, {f}))")
        # long arms become thunks: code appears once (no exponential
        # growth through nested chains) and a gated-out cone -- a whole
        # load-aligner or FPU path with no lane on it -- is skipped
        return f"_whl({u}, {scode}, lambda: {t}, lambda: {f})"

    def _uniform_tag(self, sel: HExpr, scode: str) -> str | None:
        if not scode.isidentifier():  # pragma: no cover - sites _as_local
            return None
        got = self._ucache.get(scode)
        if got is not None:
            return got
        packed = None
        if isinstance(sel, HRef) and not (
                self.kinds.get(sel.name) == "w" and sel.name in self.dstore):
            packed = self.pref(sel.name)
            if not packed.isidentifier():  # inlined packed expr: would
                packed = None              # re-evaluate the cone per tag
        if packed is not None:
            expr = f"0 if {packed} == 0 else (2 if {packed} == ONES else 1)"
        else:
            expr = f"_ut({scode})"
        self._use_whr = True
        u = self._ucache[scode] = self._fresh(expr)
        return u

    def _expr_key(self, e: HExpr) -> tuple:
        """Structural identity key (no emission side effects)."""
        if isinstance(e, HConst):
            return ("c", e.width, e.value)
        if isinstance(e, HRef):
            return ("r", e.width, e.name)
        return (
            ("o", e.op, e.width, getattr(e, "lo", None))
            + tuple(self._expr_key(a) for a in e.args)
        )

    def _sel_eq_const(self, sel: HExpr):
        """``(index_expr, k)`` if *sel* means ``index == k``, else None."""
        e = sel
        if isinstance(e, HRef):
            e = self.exprs.get(e.name)
            if e is None:
                return None
        if not (isinstance(e, HOp) and e.op == "eq"):
            return None
        a, b = e.args
        if isinstance(b, HConst) and not isinstance(a, HConst):
            return (a, b.value)
        if isinstance(a, HConst) and not isinstance(b, HConst):
            return (b, a.value)
        return None

    _GATHER_MIN = 8

    def _chain_members(self) -> set:
        """Mux signals consumed solely as another mux's else-tail.

        The optimizer emits priority chains one link per signal; gather
        detection follows those links, so firing it on the interior
        links too would build one dead table per link.  Only chain tops
        (everything that is *not* a member) attempt the transform.
        """
        got = getattr(self, "_chain_members_set", None)
        if got is None:
            got = set()
            for name, e in self.exprs.items():
                if not (self.kinds.get(name) == "w"
                        and isinstance(e, HOp) and e.op == "mux"):
                    continue
                t = e.args[2]
                if (isinstance(t, HRef) and self._chain_link(t) is not None):
                    got.add(t.name)
            self._chain_members_set = got
        return got

    def _chain_link(self, t: HRef) -> HOp | None:
        """*t*'s defining mux if it is a followable chain link."""
        if (self.kinds.get(t.name) == "w"
                and self.use_count.get(t.name, 0) == 1
                and t.name not in self.keep):
            e = self.exprs.get(t.name)
            if isinstance(e, HOp) and e.op == "mux":
                return e
        return None

    def _wide_sig_code(self, name: str, e: HExpr) -> str:
        if (isinstance(e, HOp) and e.op == "mux"
                and name not in self._chain_members()):
            g = self._mux_chain_code(e)
            if g is not None:
                return g
        return self.wval(e)

    def _mux_chain_code(self, e: HOp) -> str | None:
        """Shrink a priority mux chain, or None if nothing improves.

        The chain (one mux per link signal, followed through single-use
        refs) is analyzed as a whole.  When a suffix adjacent to the
        tail compares one index expression against distinct constants,
        its selectors are mutually exclusive, which licenses two
        rewrites the link-local emitters cannot see:

        * arms whose value is structurally the tail's are dropped --
          selecting one falls through every other (false) suffix arm to
          the very same value.  Register write networks emit one chain
          per register with *every* arm but one equal to the old value;
          they collapse to a single where each.
        * if the survivors still form a mostly-distinct, mostly-full
          small table over a constant tail, the suffix becomes one
          stacked gather (register-file read ports: one fancy index
          instead of 32 wheres).

        Validation is purely structural before anything is emitted: a
        bail-out must not leave dead temporaries behind.
        """
        w = e.width
        arms: list = []
        cur: HExpr = e
        while True:
            if isinstance(cur, HRef):
                nxt = self._chain_link(cur)
                if nxt is None or nxt.width != w:
                    break
                cur = nxt
                continue
            if (isinstance(cur, HOp) and cur.op == "mux" and cur.width == w
                    and not isinstance(cur.args[0], HConst)):
                arms.append((cur.args[0], cur.args[1]))
                cur = cur.args[2]
                continue
            break
        if len(arms) < 2:
            return None
        resolved = []
        for sel, _ in arms:
            rc = self._sel_eq_const(sel)
            resolved.append(
                None if rc is None
                else (self._expr_key(rc[0]), rc[0], rc[1])
            )
        start = len(arms)
        key0 = idx0 = None
        vals: set = set()
        for i in range(len(arms) - 1, -1, -1):
            r = resolved[i]
            if r is None:
                break
            key, idx, val = r
            if key0 is None:
                key0, idx0 = key, idx
            elif key != key0:
                break
            if val in vals:
                break  # duplicate constant: priority would matter
            vals.add(val)
            start = i
        suffix = arms[start:]
        if len(suffix) < 2:
            return None
        tail_key = self._expr_key(cur)
        kept = [  # (selector, arm, compared-against constant)
            (sel, arm, resolved[start + j][2])
            for j, (sel, arm) in enumerate(suffix)
            if self._expr_key(arm) != tail_key
        ]
        size = 1 << self._sig_bits(idx0)
        use_gather = (
            isinstance(cur, HConst)
            and size <= 64
            # arms comparing against values the (canonical) index can
            # never take are dead; require a mostly-full small table of
            # mostly-distinct rows
            and sum(v < size for _, _, v in kept) >= self._GATHER_MIN
            and len({self._expr_key(a) for _, a, _ in kept}) >= self._GATHER_MIN
        )
        if use_gather:
            rows_by_val = {v: arm for _, arm, v in kept}
            default = cur.value
            rows = []
            for v in range(size):
                arm = rows_by_val.get(v)
                if arm is None or isinstance(arm, HConst):
                    rows.append(self._kna(default if arm is None else arm.value))
                else:
                    rows.append(self.vv(arm))
            stk = self._as_local("_np.stack((" + ", ".join(rows) + "))")
            self._used_R = True
            code = f"{stk}[{self.vv(idx0)}, _R]"
        else:
            if len(kept) == len(suffix):
                return None  # nothing dropped: the plain emitters do as well
            code = self._varm(cur)
            for sel, arm, _ in reversed(kept):
                s = self._as_local(self.dform(sel))
                code = self._where(sel, s, self._varm(arm), code)
        for sel, arm in reversed(arms[:start]):
            s = self._as_local(self.dform(sel))
            code = self._where(sel, s, self._varm(arm), code)
        return code

    # -- wide phase: batched flag packing ------------------------------------

    def _emit_wide_phase(self, sigs: list) -> None:
        # Same structure as the base emitter, but the boolean->packed
        # compressions of a whole phase are deferred and fused into one
        # ``_pbm`` call: stacking k flag arrays and running packbits
        # once amortizes the per-call ndarray/bytes overhead that
        # dominates per-flag ``_pb``.  Deferral is safe because
        # same-phase consumers are wide-tier (they read the d-form,
        # which forces ``need_d`` and is still emitted in place) and
        # packed/scalar consumers run in later phases.
        exprs, keep = self.exprs, self.keep
        self._prime_unpacks(sigs)
        packs: list = []
        for name in sigs:
            e = exprs[name]
            cons = self.cons_kind.get(name, [])
            if e.width == 1:
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
                    packs.append((name, code))
            else:
                code = self._wide_sig_code(name, e)
                self._flush_pending()
                if (self.use_count.get(name, 0) == 1 and name not in keep
                        and cons == ["w"]
                        and len(code) <= _INLINE_LEN
                        and nests_within(code, _INLINE_DEPTH)):
                    self.winline[name] = code
                else:
                    self._emit(f"s_{name} = {code}")
        if len(packs) == 1:
            name, code = packs[0]
            self._emit(f"p_{name} = {self._pack_flag(code)}")
        elif packs:
            self._pbm_max = max(self._pbm_max, len(packs))
            names = ", ".join(f"p_{nm}" for nm, _ in packs)
            codes = ", ".join(code for _, code in packs)
            self._emit(f"{names} = _pbm(({codes},))")
        for name, _ in packs:
            if name in self.nc_emit:
                self._emit(f"q_{name} = p_{name} ^ ONES")
                self.ncache[f"p_{name}"] = f"q_{name}"

    def _prime_unpacks(self, sigs: list) -> None:
        """Batch the packed->boolean flag spreads a wide phase needs.

        ``dref`` lazily emits one ``_ub`` call per packed 1-bit signal a
        vector expression consumes; a pre-pass over the phase's trees
        finds them all up front and primes ``dcache`` from a single
        ``_ubm`` call (one ``unpackbits`` over the concatenated words),
        amortizing the per-flag ndarray/bytes overhead."""
        fresh: list[str] = []
        seen: set[str] = set()
        for name in sigs:
            for node in self.refs[name]:
                if node.width == 1 and node.name not in seen:
                    seen.add(node.name)
                    if (self.kinds.get(node.name) != "w"
                            and node.name not in self.dcache):
                        fresh.append(node.name)
        if len(fresh) < 2:
            return
        dcs = []
        for nm in fresh:
            self._tmp += 1
            dc = f"dc_{self._tmp}"
            self.dcache[nm] = dc
            dcs.append(dc)
        self._use_ubm = True
        srcs = ", ".join(self.pref(nm) for nm in fresh)
        self._emit(f"{', '.join(dcs)} = _ubm(({srcs},))")

    # -- scalar-world bridge -------------------------------------------------

    def _lane_read(self, name: str, width: int) -> str:
        """Scalar loops read vector state through a hoisted exact-int
        list view (spliced in by :meth:`_splice_xl`)."""
        self._xl_needed.add(name)
        return f"xl_{name}[_l]"

    def _splice_xl(self, mark: int) -> None:
        lines = [
            f"        xl_{nm} = _bk(s_{nm}).tolist()"
            for nm in sorted(self._xl_needed)
        ]
        self._L[mark:mark] = lines
        self._xl_needed = set()

    def _emit_scalar_phase(self, sigs: list[str]) -> None:
        self._xl_needed = set()
        mark = len(self._L)
        super()._emit_scalar_phase(sigs)
        self._splice_xl(mark)

    def _emit_edge(self) -> None:
        self._xl_needed = set()
        mark = len(self._L)
        super()._emit_edge()
        self._splice_xl(mark)

    def _sform_init(self, s: str) -> None:
        self._emit(f"sb_{s} = []")

    def _sform_accum(self, s: str) -> str:
        return f"sb_{s}.append(v_{s})"

    def _scalar_phase_post(self, sigs: list[str]) -> None:
        for s in sigs:
            if s in self.sform_comb:
                self._emit(f"s_{s} = _np.array(sb_{s}, _U64)")

    def _emit_input_marshal(self) -> None:
        m = self.module
        p_inputs = [nm for nm, w in m.inputs.items() if w == 1]
        w_inputs = [nm for nm, w in m.inputs.items() if w != 1]
        if not (p_inputs or w_inputs):
            return
        for nm in p_inputs:
            self._emit(f"p_{nm} = 0")
        for nm in w_inputs:
            self._bufs.append(f"wi_{nm}")
        in_stmts = ["_inp = inputs[_l]"]
        for nm in p_inputs:
            in_stmts.append(f"p_{nm} |= (_inp.get({nm!r}, 0) & 1) << _l")
        for nm in w_inputs:
            mask = (1 << m.inputs[nm]) - 1
            in_stmts.append(f"wi_{nm}[_l] = _inp.get({nm!r}, 0) & {mask}")
        self._emit("for _l in range(n):")
        for stmt in in_stmts:
            self._emit_lane(stmt)
        for nm in sorted(self.sform_inputs):
            self._emit(f"s_{nm} = _np.array(wi_{nm}, _U64)")

    # -- clock edge ---------------------------------------------------------

    def _emit_res_pack(self, reg: str, sig: str) -> None:
        # _bk guards the (constant-folded) corner where the next value
        # collapsed to one np scalar for every lane
        self._emit(f"sregs[{reg!r}] = _bk(s_{sig})")

    def _res_lane_init(self, reg: str) -> None:
        self._emit(f"ns_{reg} = []")

    def _res_lane_accum(self, reg: str, sig: str) -> str:
        return f"ns_{reg}.append({self.ref(sig)})"

    def _res_lane_commit(self, reg: str) -> None:
        self._emit(f"sregs[{reg!r}] = _np.array(ns_{reg}, _U64)")

    # -- rendering ----------------------------------------------------------

    def _render(self) -> str:
        from repro.hdl.sim import _SIGNED_HELPER

        header = [
            "def _make_batch_step(n):",
            "    ONES = (1 << n) - 1",
            "    _nb = (n + 7) >> 3",
            "    _U64 = _np.uint64",
            "    def _bk(x):",
            "        return x if getattr(x, 'shape', None) else _np.full(n, x)",
            "    def _ub(w):",
            "        return _np.unpackbits(_np.frombuffer(w.to_bytes(_nb,"
            " 'little'), _np.uint8), count=n, bitorder='little')"
            ".view(_np.bool_)",
            "    def _pb(v):",
            "        return int.from_bytes(_np.packbits(_bk(v),"
            " bitorder='little').tobytes(), 'little')",
        ]
        if self._pbm_max:
            # flag rows land in one preallocated buffer (reused every
            # step, consumed before return -- nothing aliases it), so
            # one packbits compresses a whole phase's flags without the
            # per-row ndarray overhead of np.stack
            header += [
                f"    _PBB = _np.empty(({self._pbm_max}, n), _np.bool_)",
                "    def _pbm(vs):",
                "        _k = len(vs)",
                "        _B = _PBB[:_k]",
                "        for _i in range(_k):",
                "            _B[_i] = vs[_i]",
                "        _b = _np.packbits(_B, axis=1,"
                " bitorder='little').tobytes()",
                "        return [int.from_bytes(_b[_i * _nb:_i * _nb + _nb],"
                " 'little') for _i in range(_k)]",
            ]
        if self._use_ubm:
            header += [
                "    def _ubm(ws):",
                "        _b = _np.frombuffer(b''.join(_w.to_bytes(_nb,"
                " 'little') for _w in ws), _np.uint8)",
                "        return list(_np.unpackbits(_b, bitorder='little')"
                ".view(_np.bool_).reshape(len(ws), _nb * 8)[:, :n])",
            ]
        if self._use_whr:
            header += [
                "    _ZB = bytes(n)",
                "    _OB = b'\\x01' * n",
                "    def _ut(d):",
                "        _b = d.tobytes()",
                "        return 0 if _b == _ZB else (2 if _b == _OB else 1)",
                "    def _whl(u, d, t, f):",
                "        if u == 2:",
                "            return t()",
                "        if u == 0:",
                "            return f()",
                "        return _np.where(d, t(), f())",
            ]
        if self._dense_loads or self._used_R:
            header.append("    _R = _np.arange(n)")
        header += self._pool_lines
        header += [f"    {b}_buf = [0] * n" for b in self._bufs]
        params = "".join(f", {b}={b}_buf" for b in self._bufs)
        header.append(f"    def _step(pregs, wregs, sregs, arrays, inputs{params}):")
        body = "\n".join(self._L) if self._L else "        pass"
        return _SIGNED_HELPER + "\n".join(header) + "\n" + body + "\n    return _step"


# ----------------------------------------------------------------- entry


class _VectorEntry(_BatchEntry):
    """Compiled vector-tier artifacts for one module (cached per module
    alongside the swar/batch entries, sharing the body/dispatch
    machinery of :class:`~repro.hdl.batch._BatchEntry`)."""

    def __init__(self, module: Module):
        super().__init__(module, swar=True)

    def _make_gen(
        self,
        module: Module,
        pitch: int | None = None,
        resident: frozenset | None = None,
    ) -> _VectorCodeGen:
        return _VectorCodeGen(module, pitch=pitch, resident=resident)

    def _namespace(self) -> dict:
        return {
            "_np": np,
            "_vshl": _vshl,
            "_vshr": _vshr,
            "_vasr": _vasr,
            "_vdiv": _vdiv,
            "_vmod": _vmod,
            "_sv": _sv,
        }


def _vector_entry(module: Module) -> _VectorEntry:
    return _cached_entry(module, "vector", lambda: _VectorEntry(module))


# ------------------------------------------------------------- simulator


class _VectorPlan(_CohortPlan):
    """A cohort plan whose sregs movement is fancy indexing."""

    def __init__(self, mask: int, lanes: int):
        super().__init__(mask, lanes, 0)
        self.pidx = np.array(self.positions, np.intp)


class VectorSimulator(BatchSimulator):
    """The lane-batched simulator on the NumPy uint64 vector tier.

    Drop-in for :class:`~repro.hdl.batch.BatchSimulator` -- same
    constructor, same step/compact/majority/uniform machinery, same
    bit-identical-per-lane contract -- with every multi-bit resident
    register held as a ``(lanes,)`` uint64 ndarray and the wide
    combinational tier lowered to ufunc expressions.  The packed 1-bit
    tag world and the per-lane scalar fallback are shared with the
    base engine.

    Stored ndarrays are treated as immutable values; all mutation
    sites (:meth:`set_reg`, cohort scatter) copy before writing.
    """

    def __init__(self, module: Module, lanes: int, **kwargs):
        if not HAVE_NUMPY:  # pragma: no cover - exercised via gating tests
            raise RuntimeError(_NUMPY_HINT)
        super().__init__(module, lanes, **kwargs)
        # dense mirrors of small arrays, riding in sregs under reserved
        # "a:" keys (so compaction and cohort gather/scatter re-slice
        # them for free); the per-lane dicts stay canonical, the step's
        # write ports write through to both
        for name in sorted(_dense_arrays(self.module)):
            arr = self.module.arrays[name]
            self.sregs["a:" + name] = np.full(
                (self.lanes, arr.size), arr.default, np.uint64
            )

    def load_array(self, lane: int, name: str, data) -> None:
        super().load_array(lane, name, data)
        key = "a:" + name
        dense = self.sregs.get(key)
        if dense is not None:
            arr = self.module.arrays[name]
            row = np.full(arr.size, arr.default, np.uint64)
            for i, v in self.arrays[name][lane].items():
                if 0 <= i < arr.size:  # out-of-range keys are unreachable
                    row[i] = v
            out = dense.copy()  # stored arrays are immutable values
            out[lane] = row
            self.sregs[key] = out

    # -- engine hooks -------------------------------------------------------

    def _make_entry(self, module: Module) -> _VectorEntry:
        return _vector_entry(module)

    def _refresh_layout(self) -> None:
        self._layout = None  # no slot layout: lanes are the array axis

    def _sreg_new(self, reg):
        mask = (1 << reg.width) - 1
        return np.full(self.lanes, reg.init & mask, np.uint64)

    def _sreg_get(self, name: str, lane: int, width: int) -> int:
        return int(self.sregs[name][lane])

    def _sreg_set(self, name: str, lane: int, width: int, value: int) -> None:
        arr = self.sregs[name].copy()  # stored arrays are immutable values
        arr[lane] = value
        self.sregs[name] = arr

    def _compact_sregs(self, keep) -> None:
        idx = np.array(keep, np.intp)
        for name, arr in self.sregs.items():
            self.sregs[name] = arr[idx]

    def _sreg_uniform(self, name: str, mask: int) -> int | None:
        arr = self.sregs[name]
        v0 = arr[0]
        if (arr == v0).all():
            return int(v0)
        return None

    def _sreg_column(self, name: str, mask: int) -> list[int]:
        return self.sregs[name].tolist()

    def _make_plans(self, mask: int) -> tuple[_VectorPlan, _VectorPlan]:
        return (
            _VectorPlan(mask, self.lanes),
            _VectorPlan(mask ^ self._ones, self.lanes),
        )

    def _sreg_gather(self, plan: _VectorPlan, name: str):
        return self.sregs[name][plan.pidx]

    def _sreg_scatter(self, plan: _VectorPlan, name: str, sub) -> None:
        out = self.sregs[name].copy()  # stored arrays are immutable values
        out[plan.pidx] = sub
        self.sregs[name] = out

    # -- state access -------------------------------------------------------

    @property
    def signal_tiers(self) -> dict[str, str]:
        """Combinational signal -> tier: ``'p'`` (packed 1-bit), ``'v'``
        (uint64 lane vectors), or ``'s'`` (per-lane scalar)."""
        return {
            name: ("v" if kind == "w" else kind)
            for name, kind in self._entry.kinds.items()
        }
