"""Cycle-accurate simulation of HDL modules.

For every module a specialized Python step function is generated
(string-compiled once), making simulation fast enough to run whole
benchmark programs on the compiled processor -- this is the repository's
substitute for the paper's ModelSim runs.

Semantics: two-phase synchronous execution.  All combinational signals
evaluate in SSA order reading the *current* register/array contents;
then every register loads its next-value signal and array write ports
apply in declaration order.  Division by zero yields all-ones, remainder
the dividend (matching the Sapper interpreter).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.hdl.ir import HConst, HExpr, HOp, HRef, Module
from repro.hdl.passes.base import WeakIdMemo

#: module -> (source, step function).  The generated function is pure
#: (all state is passed in), so every Simulator over the same module
#: object can share one compilation.
_STEP_CACHE = WeakIdMemo()

_SIGNED_HELPER = (
    "def _s(v, w):\n"
    "    return v - (1 << w) if v >> (w - 1) & 1 else v\n"
)


def _mangle(name: str) -> str:
    return "v_" + name


def paren_depth(code: str) -> int:
    """Maximum parenthesis nesting of *code* (inlining must stay well
    below CPython's parser limit)."""
    d = mx = 0
    for ch in code:
        if ch == "(":
            d += 1
            if d > mx:
                mx = d
        elif ch == ")":
            d -= 1
    return mx


def nests_within(code: str, limit: int) -> bool:
    """``paren_depth(code) <= limit``, cheaply: nesting can never exceed
    the number of opening parentheses, and that count (one C-level scan)
    already settles almost every inlining candidate."""
    return code.count("(") <= limit or paren_depth(code) <= limit


class _CodeGen:
    """Scalar expression emitter shared by :class:`Simulator` and the
    lane-batched codegen in :mod:`repro.hdl.batch` (which subclasses it
    and overrides :meth:`ref` to resolve signals to per-lane storage)."""

    def __init__(self, module: Module):
        self.module = module
        self.lines: list[str] = []
        #: single-use wires inlined textually into their one consumer
        self.inline: dict[str, str] = {}

    def ref(self, name: str) -> str:
        """Code for reading the named signal (overridable)."""
        inlined = self.inline.get(name)
        return inlined if inlined is not None else _mangle(name)

    def expr(self, e: HExpr) -> str:
        m = (1 << e.width) - 1
        if isinstance(e, HConst):
            return repr(e.value)
        if isinstance(e, HRef):
            return self.ref(e.name)
        assert isinstance(e, HOp)
        a = [self.expr(c) for c in e.args]
        aw = [c.width for c in e.args]
        op = e.op
        if op == "add":
            return f"(({a[0]} + {a[1]}) & {m})"
        if op == "sub":
            return f"(({a[0]} - {a[1]}) & {m})"
        if op == "mul":
            return f"(({a[0]} * {a[1]}) & {m})"
        if op == "div":
            return f"(({a[0]} // {a[1]}) & {m} if {a[1]} else {m})"
        if op == "mod":
            return f"(({a[0]} % {a[1]}) if {a[1]} else {a[0]})"
        if op == "and":
            return f"({a[0]} & {a[1]})"
        if op == "or":
            return f"({a[0]} | {a[1]})"
        if op == "xor":
            return f"({a[0]} ^ {a[1]})"
        if op == "shl":
            return f"(({a[0]} << {a[1]}) & {m} if {a[1]} < {e.width} else 0)"
        if op == "shr":
            return f"({a[0]} >> {a[1]} if {a[1]} < {aw[0]} else 0)"
        if op == "asr":
            w0 = aw[0]
            return (
                f"((_s({a[0]}, {w0}) >> ({a[1]} if {a[1]} < {w0} else {w0 - 1})) & {m})"
            )
        if op == "eq":
            return f"(1 if {a[0]} == {a[1]} else 0)"
        if op == "ne":
            return f"(1 if {a[0]} != {a[1]} else 0)"
        if op == "lt":
            return f"(1 if {a[0]} < {a[1]} else 0)"
        if op == "le":
            return f"(1 if {a[0]} <= {a[1]} else 0)"
        if op == "gt":
            return f"(1 if {a[0]} > {a[1]} else 0)"
        if op == "ge":
            return f"(1 if {a[0]} >= {a[1]} else 0)"
        if op == "lts":
            return f"(1 if _s({a[0]}, {aw[0]}) < _s({a[1]}, {aw[1]}) else 0)"
        if op == "les":
            return f"(1 if _s({a[0]}, {aw[0]}) <= _s({a[1]}, {aw[1]}) else 0)"
        if op == "gts":
            return f"(1 if _s({a[0]}, {aw[0]}) > _s({a[1]}, {aw[1]}) else 0)"
        if op == "ges":
            return f"(1 if _s({a[0]}, {aw[0]}) >= _s({a[1]}, {aw[1]}) else 0)"
        if op == "land":
            return f"(1 if {a[0]} and {a[1]} else 0)"
        if op == "lor":
            return f"(1 if {a[0]} or {a[1]} else 0)"
        if op == "lnot":
            return f"(0 if {a[0]} else 1)"
        if op == "not":
            return f"((~{a[0]}) & {m})"
        if op == "neg":
            return f"((-{a[0]}) & {m})"
        if op == "mux":
            return f"({a[1]} if {a[0]} else {a[2]})"
        if op == "cat":
            parts = []
            shift = 0
            for child, code in zip(reversed(e.args), reversed(a)):
                parts.append(f"({code} << {shift})" if shift else code)
                shift += child.width
            return "(" + " | ".join(parts) + ")"
        if op == "slice":
            return f"(({a[0]} >> {e.lo}) & {m})"
        if op == "zext":
            return a[0]
        if op == "sext":
            return f"(_s({a[0]}, {aw[0]}) & {m})"
        if op == "read":
            arr = self.module.arrays[e.array]
            return f"a_{e.array}.get({a[0]} % {arr.size}, {arr.default})"
        raise ValueError(f"cannot generate code for op {op!r}")


class Simulator:
    """Executable instance of a :class:`~repro.hdl.ir.Module`.

    Register state lives in :attr:`regs`; array contents in
    :attr:`arrays` (sparse dicts, missing entries read 0).  Call
    :meth:`step` once per clock cycle.

    By default the module is run through the standard optimization
    pipeline (:func:`repro.hdl.passes.optimize`) before the step
    function is generated -- architectural state and outputs are
    bit-identical, only the dead and duplicated combinational work is
    gone.  Pass ``optimize=False`` to simulate the raw IR (used by
    cross-validation to check the optimizer itself).
    """

    def __init__(self, module: Module, optimize: bool = True):
        if optimize:
            from repro.hdl.passes import optimize as _optimize

            module = _optimize(module)
        module.validate()
        self.module = module
        self.regs: dict[str, int] = {r.name: r.init for r in module.regs.values()}
        self.arrays: dict[str, dict[int, int]] = {a: {} for a in module.arrays}
        self.cycles = 0
        self._step = self._compile()

    def _compile(self) -> Callable:
        m = self.module
        entry = _STEP_CACHE.get(m)
        if entry is not None:
            self.source = entry[0]
            return entry[1]
        gen = _CodeGen(m)
        # Wires consumed exactly once, and only inside the combinational
        # block, are inlined into their consumer: the generated function
        # skips one local store/load per wire, which is a large share of
        # the per-cycle cost on big modules.  Names feeding the clock
        # edge (register next-values, write ports, outputs) stay named --
        # the write section must not re-evaluate array reads after
        # earlier ports have fired.  Textual nesting is capped well
        # below CPython's parser limit.
        use_count: dict[str, int] = {}
        for _, expr in m.comb:
            for node in expr.walk():
                if isinstance(node, HRef):
                    use_count[node.name] = use_count.get(node.name, 0) + 1
        keep = set(m.reg_next.values()) | set(m.outputs.values())
        for wr in m.array_writes:
            for e in (wr.addr, wr.data, wr.enable):
                for node in e.walk():
                    if isinstance(node, HRef):
                        keep.add(node.name)

        lines = ["def _step(regs, arrays, inputs):"]
        for name in m.arrays:
            lines.append(f"    a_{name} = arrays[{name!r}]")
        for name, width in m.inputs.items():
            mask = (1 << width) - 1
            lines.append(f"    {_mangle(name)} = inputs.get({name!r}, 0) & {mask}")
        for name in m.regs:
            lines.append(f"    {_mangle(name)} = regs[{name!r}]")
        for name, expr in m.comb:
            code = gen.expr(expr)
            if (
                use_count.get(name, 0) == 1
                and name not in keep
                and len(code) <= 4000
                and nests_within(code, 100)
            ):
                gen.inline[name] = f"({code})"
            else:
                lines.append(f"    {_mangle(name)} = {code}")
        # Clock edge: register updates then array write ports, in order.
        for reg, sig in m.reg_next.items():
            lines.append(f"    regs[{reg!r}] = {_mangle(sig)}")
        for _i, wr in enumerate(m.array_writes):
            size = m.arrays[wr.array].size
            lines.append(f"    if {gen.expr(wr.enable)}:")
            lines.append(
                f"        a_{wr.array}[{gen.expr(wr.addr)} % {size}] = {gen.expr(wr.data)}"
            )
        outs = ", ".join(f"{p!r}: {_mangle(sig)}" for p, sig in m.outputs.items())
        lines.append("    return {" + outs + "}")
        source = _SIGNED_HELPER + "\n".join(lines)
        namespace: dict = {}
        exec(compile(source, f"<hdl:{m.name}>", "exec"), namespace)  # noqa: S102
        self.source = source
        step = namespace["_step"]
        _STEP_CACHE.set(m, (source, step))
        return step

    def step(self, inputs: dict[str, int] | None = None) -> dict[str, int]:
        """Advance one clock cycle; returns the output-port values."""
        self.cycles += 1
        return self._step(self.regs, self.arrays, inputs or {})

    def run(self, cycles: int, inputs: dict[str, int] | None = None) -> dict[str, int]:
        out: dict[str, int] = {}
        for _ in range(cycles):
            out = self.step(inputs)
        return out

    def load_array(self, name: str, data: dict[int, int] | list[int]) -> None:
        """Initialize array contents (e.g. program memory)."""
        arr = self.module.arrays[name]
        mask = (1 << arr.width) - 1
        items = enumerate(data) if isinstance(data, list) else data.items()
        self.arrays[name] = {i: v & mask for i, v in items if v & mask != arr.default}
