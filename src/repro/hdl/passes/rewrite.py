"""Constant folding, logic simplification and value numbering in one walk.

The Sapper compiler's tag tracking leaves most of the processor's
combinational block as redundant tag joins and muxes.  Folding,
simplification and common-subexpression elimination all feed each
other -- a simplified mux becomes an alias that should be forwarded, a
forwarded alias makes two trees equal -- so they run as one post-order
walk of the SSA block.  At every node, in order:

1. substitute the constants and aliases recorded for earlier signals;
2. fold an operator whose inputs are all constants (:func:`eval_op`);
3. apply the local algebraic rules until the node stops changing:
   identity/absorbing constants (``x & 0``, ``x | 0``, ``x + 0``,
   shifts by zero), idempotence (``x & x``, ``mux(c, x, x)``),
   trivially-decided comparisons (``x == x``), redundant width adapters,
   1-bit boolean algebra and same-condition mux nesting;
4. value-number the result against the definitions of earlier signals.

A signal whose definition reduces to a constant or a reference is
recorded as one and substituted into every later use; any other
definition enters the value-numbering table, so a later equal subtree
becomes a reference to it.

The evaluator mirrors :mod:`repro.hdl.sim`'s generated code *exactly* --
the division-by-zero convention, out-of-range shifts, signed
reinterpretation -- and a node is folded only when its value fits the
declared width.  Every rule preserves the node's declared width; rules
that would change observable out-of-width behaviour (the simulator does
not mask ``and``/``or``/``xor``) fire only when argument widths already
match.
"""

from __future__ import annotations

from repro.hdl.ir import ArrayWrite, HConst, HExpr, HOp, HRef, Module
from repro.hdl.passes.base import Pass, rebuild

#: Bound on rule applications to one node within a walk; a node still
#: changing after that is picked up by the next sweep.
_MAX_LOCAL_STEPS = 8

_ALWAYS_EQ = {"eq": 1, "ne": 0, "lt": 0, "le": 1, "gt": 0, "ge": 1,
              "lts": 0, "les": 1, "gts": 0, "ges": 1}


def _s(v: int, w: int) -> int:
    """Signed reinterpretation of a *w*-bit value (sim's helper)."""
    return v - (1 << w) if (v >> (w - 1)) & 1 else v


def eval_op(e: HOp, vals: list[int]) -> int | None:
    """Evaluate one operator on constant inputs, or None if not foldable.

    Mirrors the expressions emitted by :class:`repro.hdl.sim._CodeGen`
    one for one.  Returns None for ``read`` (array contents unknown) and
    for any result that does not fit ``e.width`` (the simulator would
    carry the oversized value; a constant cannot).
    """
    m = (1 << e.width) - 1
    aw = [a.width for a in e.args]
    op = e.op
    a = vals
    if op == "add":
        r = (a[0] + a[1]) & m
    elif op == "sub":
        r = (a[0] - a[1]) & m
    elif op == "mul":
        r = (a[0] * a[1]) & m
    elif op == "div":
        r = (a[0] // a[1]) & m if a[1] else m
    elif op == "mod":
        r = (a[0] % a[1]) if a[1] else a[0]
    elif op == "and":
        r = a[0] & a[1]
    elif op == "or":
        r = a[0] | a[1]
    elif op == "xor":
        r = a[0] ^ a[1]
    elif op == "shl":
        r = (a[0] << a[1]) & m if a[1] < e.width else 0
    elif op == "shr":
        r = a[0] >> a[1] if a[1] < aw[0] else 0
    elif op == "asr":
        r = (_s(a[0], aw[0]) >> (a[1] if a[1] < aw[0] else aw[0] - 1)) & m
    elif op == "eq":
        r = 1 if a[0] == a[1] else 0
    elif op == "ne":
        r = 1 if a[0] != a[1] else 0
    elif op == "lt":
        r = 1 if a[0] < a[1] else 0
    elif op == "le":
        r = 1 if a[0] <= a[1] else 0
    elif op == "gt":
        r = 1 if a[0] > a[1] else 0
    elif op == "ge":
        r = 1 if a[0] >= a[1] else 0
    elif op == "lts":
        r = 1 if _s(a[0], aw[0]) < _s(a[1], aw[1]) else 0
    elif op == "les":
        r = 1 if _s(a[0], aw[0]) <= _s(a[1], aw[1]) else 0
    elif op == "gts":
        r = 1 if _s(a[0], aw[0]) > _s(a[1], aw[1]) else 0
    elif op == "ges":
        r = 1 if _s(a[0], aw[0]) >= _s(a[1], aw[1]) else 0
    elif op == "land":
        r = 1 if a[0] and a[1] else 0
    elif op == "lor":
        r = 1 if a[0] or a[1] else 0
    elif op == "lnot":
        r = 0 if a[0] else 1
    elif op == "not":
        r = (~a[0]) & m
    elif op == "neg":
        r = (-a[0]) & m
    elif op == "mux":
        r = a[1] if a[0] else a[2]
    elif op == "cat":
        r = 0
        shift = 0
        for child, v in zip(reversed(e.args), reversed(a)):
            r |= v << shift
            shift += child.width
    elif op == "slice":
        r = (a[0] >> e.lo) & m
    elif op == "zext":
        r = a[0]
    elif op == "sext":
        r = _s(a[0], aw[0]) & m
    else:
        return None  # read, or future ops: never folded
    if r != r & m:
        return None  # would not fit the declared width; sim would carry it
    return r


def _fold(e: HOp) -> HExpr:
    """*e* as a constant, or its live arm under a constant mux guard."""
    args = e.args
    if e.op == "mux" and isinstance(args[0], HConst):
        pick = args[1] if args[0].value else args[2]
        if pick.width == e.width:
            return pick
    if e.op != "read" and all(isinstance(a, HConst) for a in args):
        val = eval_op(e, [a.value for a in args])
        if val is not None:
            return HConst(val, e.width)
    return e


def _simplify(e: HOp, defs: dict[str, HExpr]) -> HExpr:
    """One algebraic rule applied to *e*, or *e* itself.  *defs* maps
    earlier signals to their definitions, so rules can look through a
    wire at its driver (for matching only, never substituted
    wholesale)."""

    def peek(x: HExpr) -> HExpr:
        return defs.get(x.name, x) if isinstance(x, HRef) else x

    op, args, w = e.op, e.args, e.width
    aw = [a.width for a in args]

    if op == "mux":
        c, t, f = args
        if t == f and t.width == w:
            return t
        pc = peek(c)
        # c ? 1 : 0  ->  c   and   c ? 0 : 1  ->  !c   (1-bit)
        if (
            w == 1 and c.width == 1
            and isinstance(t, HConst) and isinstance(f, HConst)
        ):
            if (t.value, f.value) == (1, 0):
                return c
            if (t.value, f.value) == (0, 1):
                return HOp("lnot", (c,), 1)
        # same-condition nesting: collapse the redundant arm
        pt, pf = peek(t), peek(f)
        if (
            isinstance(pf, HOp)
            and pf.op == "mux"
            and pf.args[0] == c
            and pf.args[2].width == w
        ):
            return HOp("mux", (c, t, pf.args[2]), w)
        if (
            isinstance(pt, HOp)
            and pt.op == "mux"
            and pt.args[0] == c
            and pt.args[1].width == w
        ):
            return HOp("mux", (c, pt.args[1], f), w)
        if isinstance(pc, HOp) and pc.op == "lnot" and pc.args[0].width == 1:
            return HOp("mux", (pc.args[0], f, t), w)
        return e

    if op in ("and", "or", "xor") and aw[0] == w and aw[1] == w:
        a, b = args
        if a == b:
            return a if op in ("and", "or") else HConst(0, w)
        for x, y in ((a, b), (b, a)):
            if isinstance(y, HConst):
                if y.value == 0:
                    return HConst(0, w) if op == "and" else x
                if y.value == (1 << w) - 1:
                    return x if op == "and" else (
                        HConst(y.value, w) if op == "or" else HOp("not", (x,), w)
                    )
        return e

    if op in ("add", "sub") and aw[0] == w and aw[1] == w:
        if isinstance(args[1], HConst) and args[1].value == 0:
            return args[0]
        if op == "add" and isinstance(args[0], HConst) and args[0].value == 0:
            return args[1]
        return e

    if op == "mul" and aw[0] == w and aw[1] == w:
        for x, y in ((args[0], args[1]), (args[1], args[0])):
            if isinstance(y, HConst):
                if y.value == 1:
                    return x
                if y.value == 0:
                    return HConst(0, w)
        return e

    if op in ("shl", "shr", "asr") and aw[0] == w:
        if isinstance(args[1], HConst) and args[1].value == 0:
            return args[0]
        return e

    if op in _ALWAYS_EQ and args[0] == args[1] and w == 1:
        return HConst(_ALWAYS_EQ[op], 1)

    if op in ("eq", "ne") and aw[0] == 1 and aw[1] == 1:
        # 1-bit equality is the wire itself or its negation
        for x, y in ((args[0], args[1]), (args[1], args[0])):
            if isinstance(y, HConst):
                want = y.value if op == "eq" else 1 - y.value
                return x if want == 1 else HOp("lnot", (x,), 1)
        return e

    if op in ("land", "lor") and aw[0] == 1 and aw[1] == 1:
        a, b = args
        if a == b:
            return a
        for x, y in ((a, b), (b, a)):
            if isinstance(y, HConst):
                if op == "land":
                    return x if y.value else HConst(0, 1)
                return HConst(1, 1) if y.value else x
        return e

    if op == "lnot" and aw[0] == 1:
        inner = peek(args[0])
        if isinstance(inner, HOp) and inner.op == "lnot" and inner.args[0].width == 1:
            return inner.args[0]
        return e

    if op == "not":
        inner = peek(args[0])
        if isinstance(inner, HOp) and inner.op == "not" and inner.args[0].width == w:
            return inner.args[0]
        return e

    if op == "zext" and aw[0] == w:
        return args[0]

    if op == "slice":
        if e.lo == 0 and aw[0] == w:
            return args[0]
        inner = args[0]
        # slicing a zext back down to (or below) the payload width
        if (
            isinstance(inner, HOp) and inner.op == "zext"
            and e.lo == 0 and inner.args[0].width == w
        ):
            return inner.args[0]
        return e

    if op == "cat" and len(args) == 1 and aw[0] == w:
        return args[0]

    return e


def _reduce(node: HOp, defs: dict[str, HExpr]) -> HExpr:
    """*node* folded and simplified until it stops changing (or for
    :data:`_MAX_LOCAL_STEPS` rule applications)."""
    for _ in range(_MAX_LOCAL_STEPS):
        new = _fold(node)
        if new is node:
            new = _simplify(node, defs)
        if new is node or not isinstance(new, HOp):
            return new
        node = new
    return node


class Rewrite(Pass):
    """Fold, simplify and value-number the SSA block in one walk."""

    name = "rewrite"

    def run(self, module: Module) -> tuple[Module, bool]:
        # name -> replacement (HConst for folded signals, HRef for aliases)
        env: dict[str, HExpr] = {}
        # name -> definition, for signals that stayed operators
        defs: dict[str, HExpr] = {}
        # definition -> the earliest signal holding it
        table: dict[HExpr, HRef] = {}

        def rewrite(e: HExpr) -> HExpr:
            if isinstance(e, HConst):
                return e
            if isinstance(e, HRef):
                return env.get(e.name, e)
            args = tuple(rewrite(a) for a in e.args)
            node = e if all(a is b for a, b in zip(args, e.args)) else HOp(
                e.op, args, e.width, hi=e.hi, lo=e.lo, array=e.array
            )
            node = _reduce(node, defs)
            return table.get(node, node) if isinstance(node, HOp) else node

        changed = False
        new_comb: list[tuple[str, HExpr]] = []
        for name, expr in module.comb:
            new = rewrite(expr)
            if new is not expr:
                changed = True
            new_comb.append((name, new))
            if isinstance(new, HOp):
                defs[name] = new
                table.setdefault(new, HRef(name, new.width))
            else:
                env[name] = new

        new_writes = []
        for wr in module.array_writes:
            addr, data, enable = rewrite(wr.addr), rewrite(wr.data), rewrite(wr.enable)
            if addr is not wr.addr or data is not wr.data or enable is not wr.enable:
                changed = True
                wr = ArrayWrite(wr.array, addr, data, enable)
            new_writes.append(wr)

        if not changed:
            return module, False
        return rebuild(module, new_comb, array_writes=new_writes), True
