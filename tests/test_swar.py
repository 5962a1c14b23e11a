"""Differential tests for the SWAR lowering the batched codegen emits.

:mod:`repro.hdl.swar` holds only the slot layout; the SWAR arithmetic
exists once, as the formulas ``_BatchCodeGen.wval``/``dform``/
``_cmp_guards`` emit into the generated step.  These tests run that
generated code.  Each op family becomes a *one-op module*: every
combinational signal is one operator over inputs and constants,
latched into its own register and driven to its own output.  The
module is stepped on the SWAR :class:`BatchSimulator` (and on the
:class:`VectorSimulator` when NumPy imports) against the scalar
:class:`Simulator`:

* widths 2..33, the SWAR range (the vector engine adds 63 and 64), at
  the minimum guard band: the slot pitch is ``width + 1``;
* lane counts ``width - 1``, ``65 - width`` and 64, which together
  cover 1..64 and both compress/spread paths;
* operands: every pair of seven boundary values per lane (0, 1,
  all-ones, ...) plus seeded random lanes, and shift amounts up to
  ``width + 5``.

Every run checks each lane's outputs, that every signal really ran on
the wide tier (so a classification change cannot hollow the test out),
and each register's packed state word bit for bit.  For SWAR that last
check is the guard-band invariant: no bit outside a slot's value
region, so a carry or borrow that escapes its slot fails even when the
per-lane reads mask it away.

The layout itself (packing, compress/spread, validation) is checked
directly at the bottom.
"""

import functools
import random

import pytest

from repro.hdl import BatchSimulator, HConst, HOp, HRef, Module, Simulator, VectorSimulator
from repro.hdl.swar import SWAR_MAX_WIDTH, SwarLayout, get_layout
from repro.hdl.vector import HAVE_NUMPY

SWAR_WIDTHS = range(2, SWAR_MAX_WIDTH + 1)
VECTOR_WIDTHS = (*SWAR_WIDTHS, 63, 64)
CMPS = ("eq", "ne", "lt", "le", "gt", "ge", "lts", "les", "gts", "ges")


def top(k: int) -> int:
    return (1 << k) - 1


def X(k: int) -> HRef:
    return HRef(f"x{k}", k)


def Y(k: int) -> HRef:
    return HRef(f"y{k}", k)


def K(value: int, k: int) -> HConst:
    return HConst(value, k)


def op(name: str, width: int, *args, **attrs) -> HOp:
    return HOp(name, args, width, **attrs)


# -------------------------------------------------------------- op families
# family -> width -> the signals of its one-op module.  Every node stays
# at most ``w`` bits wide, so the module's slot pitch is exactly w + 1.


def _arith(name: str, w: int, unary: bool = False) -> list[HOp]:
    if unary:
        sigs = [op(name, w, X(w)), op(name, w, X(w - 1))]
        wide = [op(name, w - 1, X(w))]
    else:
        sigs = [
            op(name, w, X(w), Y(w)),
            op(name, w, X(w), K(top(w), w)),
            op(name, w, K(0, w), Y(w)),
            op(name, w, X(w - 1), Y(w - 1)),  # narrower operands: add elides its mask
        ]
        wide = [op(name, w - 1, X(w), Y(w))]
    # a narrower result over wider operands (not for and/or/xor, which
    # the width discipline rejects)
    return sigs + (wide if w > 2 and name not in ("and", "or", "xor") else [])


def _shift(name: str, w: int) -> list[HOp]:
    return [op(name, w, X(w), K(k, 8)) for k in sorted({0, 1, w // 2, w - 1, w, w + 5})]


def _extend(name: str, w: int) -> list[HOp]:
    return [op(name, w, X(k)) for k in sorted({1, w // 2, w - 1, w})]


def _mux(w: int) -> list[HOp]:
    s = X(1)
    return [
        op("mux", w, s, X(w), Y(w)),
        op("mux", w, s, X(w), K(0, w)),
        op("mux", w, s, K(0, w), Y(w)),
        op("mux", w, Y(1), K(0x5A5A5A5A5A5A5A5A, w), X(w)),
        op("mux", w, K(1, 1), X(w), Y(w)),
        op("mux", w, K(0, 1), X(w), Y(w)),
        op("mux", w, s, X(w - 1), Y(w)),
    ]


def _slice(w: int) -> list[HOp]:
    # reads past the operand's top see zeros, never the neighbour's slot
    bounds = {(w - 1, 0), (w - 1, 1), (w // 2, 0), (w - 1, w - 1), (0, 0),
              (w, w - 1), (w + 1, w), (w + 2, w + 2)}
    return [op("slice", hi - lo + 1, X(w), hi=hi, lo=lo) for hi, lo in sorted(bounds)]


def _cat(w: int) -> list[HOp]:
    sigs = [op("cat", w, X(a), Y(w - a)) for a in sorted({1, w // 2, w - 1})]
    sigs.append(op("cat", w, X(1), Y(1)))  # zero-padded on top
    if w > 2:
        sigs.append(op("cat", w, X(1), Y(w - 2), Y(1)))
    return sigs


def _compares(w: int) -> list[HOp]:
    return [op(c, 1, X(w), Y(w)) for c in CMPS] + [
        op("lt", 1, X(w), Y(w - 1)),
        op("ge", 1, X(w - 1), Y(w)),
        op("eq", 1, X(w), K(0, w)),
        op("ne", 1, K(0, w), Y(w)),
        op("le", 1, X(w), K(top(w), w)),
    ]


def _equal_operands(w: int) -> list[HOp]:
    return [op(c, 1, X(w), X(w)) for c in CMPS]


def _flags(w: int) -> list[HOp]:
    """1-bit operators inside a wide tree: the slot-base flag forms
    ``dform`` emits, zero-extended so the signal lands on the wide tier."""
    a, b = X(1), Y(1)
    flags = [op(o, 1, a, b) for o in ("and", "or", "xor", "land", "lor", "add", "sub", "eq", "ne")]
    flags += [op(o, 1, a) for o in ("not", "lnot", "neg", "zext", "sext", "cat")]
    flags += [op(s, 1, a, K(k, 8)) for s in ("shl", "shr", "asr") for k in (0, 1)]
    flags += [op("mux", 1, a, b, K(1, 1)), op("slice", 1, a, hi=0, lo=0), K(1, 1)]
    return [op("zext", w, f) for f in flags]


FAMILIES = {
    **{name: functools.partial(_arith, name) for name in ("add", "sub", "and", "or", "xor")},
    **{name: functools.partial(_arith, name, unary=True) for name in ("neg", "not")},
    **{name: functools.partial(_shift, name) for name in ("shl", "shr", "asr")},
    **{name: functools.partial(_extend, name) for name in ("zext", "sext")},
    "slice": _slice,
    "cat": _cat,
    "mux": _mux,
    "compares": _compares,
    "equal_operands": _equal_operands,
    "flags": _flags,
}


# ------------------------------------------------------------------ harness


def one_op_module(name: str, sigs: list[HOp]) -> Module:
    """Signal ``t<i>`` = ``sigs[i]``, latched into ``r<i>`` and driven
    to output ``o<i>``; every input the signals read becomes a port."""
    m = Module(name)
    for i, e in enumerate(sigs):
        for node in e.walk():
            if isinstance(node, HRef) and node.name not in m.inputs:
                m.add_input(node.name, node.width)
        t = m.assign(f"t{i}", e)
        m.add_reg(f"r{i}", e.width)
        m.set_reg_next(f"r{i}", t)
        m.set_output(f"o{i}", t)
    return m


@functools.cache
def boundary(k: int) -> list[int]:
    return [0, 1, top(k), top(k) - 1, 1 << (k - 1), top(k - 1), 0xAAAAAAAAAAAAAAAA & top(k)]


def boundary_lanes(module: Module) -> list[dict[str, int]]:
    """64 lanes of inputs: lanes 0..48 take every (x, y) pair of
    :func:`boundary` values, the rest seeded random values."""
    rng = random.Random(module.name)
    lanes = []
    for lane in range(64):
        inp = {}
        for name, k in module.inputs.items():
            pick = lane % 7 if name[0] == "x" else lane // 7
            inp[name] = boundary(k)[pick] if lane < 49 else rng.getrandbits(k)
        lanes.append(inp)
    return lanes


def state_matches(sim: BatchSimulator, reg: str, values: list[int], width: int) -> bool:
    """*reg*'s packed state is exactly *values*; for SWAR that means a
    canonical slot word, nothing set in any guard band.  A vector wide
    value is a ``(lanes,)`` uint64 ndarray or one ``np.uint64`` scalar
    for lanes that all agree, never a Python int."""
    if width == 1:
        return sim.pregs[reg] == sum(v << lane for lane, v in enumerate(values))
    if type(sim) is BatchSimulator:
        return sim.sregs[reg] == get_layout(sim.pitch, len(values)).pack(values, width)
    import numpy as np

    v = sim.sregs[reg]
    if type(v) is np.ndarray:
        if v.dtype != np.uint64 or v.shape != (len(values),):
            return False
    elif type(v) is not np.uint64:
        return False
    return np.broadcast_to(v, len(values)).tolist() == values


def scalar_outputs(module: Module, lane_inputs: list[dict[str, int]]) -> list[dict[str, int]]:
    """One scalar Simulator stepped lane by lane: the signals are
    combinational in the inputs, so its state never matters."""
    scalar = Simulator(module, optimize=False)
    return [scalar.step(inp) for inp in lane_inputs]


@functools.cache
def family_case(family: str, w: int) -> tuple[Module, list[dict[str, int]], list[dict[str, int]]]:
    """*family*'s one-op module at width *w*, its 64 lanes of boundary
    inputs, and the scalar outputs for them (shared by both engines)."""
    module = one_op_module(f"{family}{w}", FAMILIES[family](w))
    lanes = boundary_lanes(module)
    return module, lanes, scalar_outputs(module, lanes)


@pytest.fixture(autouse=True, scope="module")
def _drop_family_cases():
    """The cached cases serve this file's SWAR and vector tests only."""
    yield
    family_case.cache_clear()


def assert_matches_scalar(
    module: Module,
    engine: type,
    lane_inputs: list[dict[str, int]],
    want: list[dict[str, int]],
    lane_counts,
) -> None:
    """*engine* over the first ``n`` of *lane_inputs*, for each ``n`` in
    *lane_counts*, against the scalar outputs *want*."""
    columns = {port: [out[port] for out in want] for port in module.outputs}
    tier = "w" if engine is BatchSimulator else "v"
    for n in lane_counts:
        sim = engine(module, n, optimize=False)
        off = [s for s, kind in sim.signal_tiers.items() if kind != tier]
        assert not off, f"{module.name}: {off} left the {tier!r} tier"
        got = sim.step(lane_inputs[:n])
        for lane in range(n):
            assert got[lane] == want[lane], (
                f"{module.name} lanes={n} lane={lane} inputs={lane_inputs[lane]}: "
                + ", ".join(
                    f"{port} = {module.comb[int(port[1:])][1]} got {v} want {want[lane][port]}"
                    for port, v in got[lane].items() if v != want[lane][port]
                )
            )
        for i, (_, e) in enumerate(module.comb):
            assert state_matches(sim, f"r{i}", columns[f"o{i}"][:n], e.width), (
                f"{module.name} lanes={n}: register r{i} of {e} is not canonical"
            )


def check_family(family: str, engine: type = BatchSimulator) -> None:
    widths = SWAR_WIDTHS if engine is BatchSimulator else VECTOR_WIDTHS
    if family == "flags":  # the flag forms do not depend on the slot width
        widths = [w for w in (2, 17, 33, 64) if w in widths]
    for w in widths:
        module, lanes, want = family_case(family, w)
        assert_matches_scalar(module, engine, lanes, want, sorted({w - 1, 65 - w, 64}))


# -------------------------------------------------------- SWAR op families


class TestArithmetic:
    def test_add_sub_neg(self):
        for family in ("add", "sub", "neg"):
            check_family(family)

    def test_bitwise(self):
        for family in ("and", "or", "xor", "not"):
            check_family(family)

    def test_flags_in_wide_trees(self):
        check_family("flags")


class TestShifts:
    def test_shl_shr(self):
        check_family("shl")
        check_family("shr")

    def test_asr_matches_signed_shift(self):
        check_family("asr")


class TestWidthAdaptation:
    def test_zext_sext(self):
        check_family("zext")
        check_family("sext")

    def test_slice(self):
        check_family("slice")

    def test_cat(self):
        check_family("cat")


class TestCompares:
    def test_all_compares_lane_contiguous(self):
        check_family("compares")

    def test_equal_operands(self):
        check_family("equal_operands")


class TestMux:
    def test_mux_selects_per_lane(self):
        check_family("mux")


class TestGuardNonLeakage:
    """Victim lanes beside all-ones lanes: the widest carry (all-ones
    plus all-ones) and the deepest borrow (0 minus all-ones) must leave
    both neighbours bit-exact.  This is the property the guard band
    exists for."""

    def test_extreme_lane_leaves_neighbours_alone(self):
        for w in SWAR_WIDTHS:
            module = one_op_module(f"victim{w}", [
                op("add", w, X(w), Y(w)),
                op("sub", w, X(w), Y(w)),
                op("neg", w, X(w)),
                op("shl", w, X(w), K(1, 8)),
                op("lt", 1, X(w), Y(w)),
            ])
            # odd lanes alternate the widest carry and the deepest
            # borrow; the even victims between them hold 0 or 1
            extremes = [(top(w), top(w)), (0, top(w))]
            lanes = []
            for lane in range(64):
                x, y = extremes[lane // 2 % 2] if lane % 2 else (lane // 2 % 2, 0)
                lanes.append({f"x{w}": x, f"y{w}": y})
            want = scalar_outputs(module, lanes)
            assert_matches_scalar(module, BatchSimulator, lanes, want, (3, 16, 64))


# ------------------------------------------------------ vector op families


@pytest.mark.skipif(not HAVE_NUMPY, reason="the vector engine needs NumPy")
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_vector_lowering(family):
    """The same one-op modules on the NumPy engine, up to 64 bits."""
    check_family(family, VectorSimulator)


# ------------------------------------------------------------------ layout


class TestLayout:
    def test_compress_spread_roundtrip(self):
        rng = random.Random(0)
        paths = set()
        for pitch in range(2, 68):
            for lanes in sorted({1, 2, pitch - 1, pitch, 64}):
                lay = get_layout(pitch, lanes)
                paths.add(lay._magic is not None)
                for bits in (lay.lane_ones, 0x5555555555555555 & lay.lane_ones,
                             rng.getrandbits(lanes)):
                    spread = lay.spread(bits)
                    assert spread == sum(
                        ((bits >> lane) & 1) << (lane * pitch) for lane in range(lanes)
                    )
                    assert lay.compress(spread) == bits
                    assert lay.spreader()(bits) == spread
                    assert lay.compressor()(spread) == bits
        assert paths == {True, False}, "both the multiply and the doubling path"

    def test_pack_get_set(self):
        rng = random.Random(1)
        for w in SWAR_WIDTHS:
            for pitch in (w + 1, w + 33):
                for lanes in (1, 5, 64):
                    lay = get_layout(pitch, lanes)
                    xs = [rng.getrandbits(w) for _ in range(lanes)]
                    ys = [rng.getrandbits(w) for _ in range(lanes)]
                    word = lay.pack(xs, w)
                    assert word & ~lay.vmask(w) == 0
                    assert [lay.get(word, lane, w) for lane in range(lanes)] == xs
                    for lane in range(lanes):
                        word = lay.set(word, lane, w, ys[lane])
                    assert word == lay.pack(ys, w)

    def test_layout_validation(self):
        with pytest.raises(ValueError, match="pitch"):
            SwarLayout(1, 4)
        with pytest.raises(ValueError, match="lane count"):
            SwarLayout(8, 0)
        with pytest.raises(ValueError, match="fit"):
            get_layout(8, 2).replicate(1, 8)
        with pytest.raises(ValueError, match="fit"):
            get_layout(8, 2).gmask(8)
