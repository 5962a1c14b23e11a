"""Bind registers to constants over the live cone of a module.

The batched simulator's uniform-state fast path runs the module
specialized to one binding of its control registers (FSM state codes,
mode bits).  Substituting the binding into every signal and optimizing
the whole block would pay for every state's logic to keep the one
state's; :func:`bind` instead demands signals backward from the
architectural sinks -- register next-values, output ports, and the
write ports whose enable does not fold to zero -- and binds only what
they reach.

On the way every node the binding changes is folded and simplified by
the rewrite walk's own rules (:func:`~repro.hdl.passes.rewrite._fold`
and ``_simplify``, width guards included): a signal that becomes a
constant is substituted into its readers, and a mux whose selector
becomes a constant demands only the arm it picks.  A node with nothing
changed beneath it is kept as the same object.  The walk keeps an
explicit stack of signals, so long signal chains never recurse.  The
bound module is then optimized like any other.
"""

from __future__ import annotations

from repro.hdl.ir import ArrayWrite, HConst, HExpr, HOp, HRef, Module
from repro.hdl.passes.base import rebuild
from repro.hdl.passes.rewrite import _fold, _reduce


def bind(module: Module, binding: dict[str, int]) -> Module:
    """*module* with the registers in *binding* read as constants, cut
    down to the signals its sinks still depend on.  Architectural state
    (inputs, registers, arrays, ports) is kept, so the result steps like
    *module* on every cycle whose registers hold the bound values."""
    defs = dict(module.comb)
    done: dict[str, HExpr] = {}  # demanded signal -> its bound definition
    missing: list[str] = []

    def sub(e: HExpr) -> HExpr | None:
        """*e* bound and reduced, or None until the signals it has
        appended to *missing* are bound."""
        if isinstance(e, HConst):
            return e
        if isinstance(e, HRef):
            name = e.name
            if name in binding:
                return HConst(binding[name], e.width)
            if name not in defs:
                return e
            if name not in done:
                missing.append(name)
                return None
            return done[name] if isinstance(done[name], HConst) else e
        if e.op == "mux":
            sel = sub(e.args[0])
            if sel is None:
                return None
            if isinstance(sel, HConst):
                node = HOp("mux", (sel, *e.args[1:]), e.width)
                pick = _fold(node)
                if pick is not node:
                    return sub(pick)
            args = [sel, sub(e.args[1]), sub(e.args[2])]
        else:
            args = [sub(a) for a in e.args]
        if any(a is None for a in args):
            return None
        if all(a is b for a, b in zip(args, e.args)):
            return e
        return _reduce(HOp(e.op, tuple(args), e.width, e.hi, e.lo, e.array), {})

    def drain(stack: list[str]) -> None:
        while stack:
            name = stack[-1]
            if name in done:
                stack.pop()
                continue
            missing.clear()
            new = sub(defs[name])
            if new is None:
                stack.extend(missing)
                continue
            stack.pop()
            done[name] = new

    def bound(e: HExpr) -> HExpr:
        while True:
            missing.clear()
            new = sub(e)
            if new is not None:
                return new
            drain(list(missing))

    roots = [*module.reg_next.values(), *module.outputs.values()]
    drain([name for name in roots if name in defs])
    writes: list[ArrayWrite] = []
    for wr in module.array_writes:
        enable = bound(wr.enable)
        if isinstance(enable, HConst) and enable.value == 0:
            continue
        addr, data = bound(wr.addr), bound(wr.data)
        if addr is not wr.addr or data is not wr.data or enable is not wr.enable:
            wr = ArrayWrite(wr.array, addr, data, enable)
        writes.append(wr)
        roots += [n.name for e in (addr, data, enable) for n in e.walk() if isinstance(n, HRef)]

    live: set[str] = set()
    while roots:
        name = roots.pop()
        if name in live or name not in done:
            continue
        live.add(name)
        roots += [n.name for n in done[name].walk() if isinstance(n, HRef)]
    comb = [(name, done[name]) for name, _ in module.comb if name in live]
    return rebuild(module, comb, array_writes=writes)
