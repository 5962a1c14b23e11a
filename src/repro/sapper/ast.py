"""Abstract syntax of Sapper (Figure 1 of the paper).

The grammar domains map to Python classes as follows::

    Prog          -> Program
    Def           -> RegDecl (reg / wire / input / output) | ArrDecl (mem)
    State         -> StateDef   (enforced if .label is not None and .enforced)
    Exp           -> Const | RegRef | ArrRef-as-expression (ArrIndex) |
                     BinOp | UnOp | Cond | Slice | Cat | TagOf | LabelLit
    TagExp        -> TagConst | TagOfEntity | TagJoin
    TaggedEntity  -> EntReg | EntState | EntArr
    Cmd           -> Skip | AssignReg | AssignArr | Seq | If | Goto | Fall |
                     SetTag | Otherwise

Values are fixed-width unsigned bit vectors; signedness is explicit in
the operator (``lts`` vs ``lt`` etc.).  Division and remainder by zero
are defined (all-ones and the dividend respectively), matching the HDL
simulator, so that Sapper programs are deterministic total functions of
their inputs -- a prerequisite for the noninterference theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

# -- expressions ------------------------------------------------------------

#: Binary operators.  Comparison and logical operators produce 1-bit results.
#: ``lts/les/gts/ges`` are signed comparisons; ``asr`` is arithmetic shift.
BINARY_OPS = frozenset(
    [
        "+", "-", "*", "/", "%",
        "&", "|", "^",
        "<<", ">>", "asr",
        "==", "!=", "<", "<=", ">", ">=",
        "lts", "les", "gts", "ges",
        "&&", "||",
    ]
)

#: Operators that always produce a single bit.
BOOL_OPS = frozenset(["==", "!=", "<", "<=", ">", ">=", "lts", "les", "gts", "ges", "&&", "||"])

UNARY_OPS = frozenset(["~", "!", "-"])


@dataclass(frozen=True)
class Exp:
    """Base class for expressions."""

    def children(self) -> tuple["Exp", ...]:
        return ()

    def walk(self) -> Iterator["Exp"]:
        """Yield this node and all sub-expressions, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Const(Exp):
    """Integer literal; ``width`` pins the bit width when given."""

    value: int
    width: int | None = None


@dataclass(frozen=True)
class RegRef(Exp):
    """Read of a register, wire, input, or output by name."""

    name: str


@dataclass(frozen=True)
class ArrIndex(Exp):
    """Read of one element of a register array (``a[e]``)."""

    name: str
    index: Exp

    def children(self) -> tuple[Exp, ...]:
        return (self.index,)


@dataclass(frozen=True)
class BinOp(Exp):
    op: str
    left: Exp
    right: Exp

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    def children(self) -> tuple[Exp, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class UnOp(Exp):
    op: str
    operand: Exp

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {self.op!r}")

    def children(self) -> tuple[Exp, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class Cond(Exp):
    """Ternary mux ``cond ? if_true : if_false``."""

    cond: Exp
    if_true: Exp
    if_false: Exp

    def children(self) -> tuple[Exp, ...]:
        return (self.cond, self.if_true, self.if_false)


@dataclass(frozen=True)
class Slice(Exp):
    """Constant bit slice ``base[hi:lo]`` (``hi >= lo``, width hi-lo+1)."""

    base: Exp
    hi: int
    lo: int

    def __post_init__(self) -> None:
        if self.hi < self.lo or self.lo < 0:
            raise ValueError(f"bad slice bounds [{self.hi}:{self.lo}]")

    def children(self) -> tuple[Exp, ...]:
        return (self.base,)


@dataclass(frozen=True)
class Cat(Exp):
    """Concatenation; ``parts[0]`` is the most significant part."""

    parts: tuple[Exp, ...]

    def children(self) -> tuple[Exp, ...]:
        return self.parts


@dataclass(frozen=True)
class Ext(Exp):
    """Zero- or sign-extension to an explicit width."""

    operand: Exp
    width: int
    signed: bool

    def children(self) -> tuple[Exp, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class TagOf(Exp):
    """The tag of an entity read *as a value* (tags are public, so the
    value carries the bottom label -- section 3.2 of the paper)."""

    entity: TaggedEntity

    def children(self) -> tuple[Exp, ...]:
        if isinstance(self.entity, EntArr):
            return (self.entity.index,)
        return ()


@dataclass(frozen=True)
class LabelLit(Exp):
    """A security-label literal used as a value (its hardware encoding)."""

    label: str


# -- tagged entities and tag expressions -------------------------------------


@dataclass(frozen=True)
class TaggedEntity:
    """Base class for things that carry a security tag."""


@dataclass(frozen=True)
class EntReg(TaggedEntity):
    name: str


@dataclass(frozen=True)
class EntState(TaggedEntity):
    name: str


@dataclass(frozen=True)
class EntArr(TaggedEntity):
    name: str
    index: Exp


@dataclass(frozen=True)
class TagExp:
    """Base class for tag expressions (Figure 1's TagExp)."""


@dataclass(frozen=True)
class TagConst(TagExp):
    label: str


@dataclass(frozen=True)
class TagOfEntity(TagExp):
    entity: TaggedEntity


@dataclass(frozen=True)
class TagJoin(TagExp):
    left: TagExp
    right: TagExp


@dataclass(frozen=True)
class TagFromBits(TagExp):
    """A tag computed from a runtime bit pattern (``tagbits(e)``).

    Lets hardware *react to* labels supplied by software -- the paper's
    set-tag ISA instruction passes the desired label in a register.  The
    bits are interpreted in the lattice's hardware encoding and clamped
    upward to the nearest valid label (never downward, which would
    declassify).  The expression's own tag joins into the context guard
    of the enclosing ``setTag``.
    """

    bits: Exp


# -- commands -----------------------------------------------------------------


@dataclass(frozen=True)
class Cmd:
    """Base class for commands."""

    def walk(self) -> Iterator["Cmd"]:
        yield self

    def expressions(self) -> Iterator[Exp]:
        """All expressions read directly by this command (not recursive)."""
        return iter(())


@dataclass(frozen=True)
class Skip(Cmd):
    pass


@dataclass(frozen=True)
class AssignReg(Cmd):
    """``r := e`` -- checked if ``r`` is enforced, tracked if dynamic."""

    target: str
    value: Exp

    def expressions(self) -> Iterator[Exp]:
        yield self.value


@dataclass(frozen=True)
class AssignArr(Cmd):
    """``a[e1] := e2`` with per-element tags."""

    target: str
    index: Exp
    value: Exp

    def expressions(self) -> Iterator[Exp]:
        yield self.index
        yield self.value


@dataclass(frozen=True)
class Seq(Cmd):
    commands: tuple[Cmd, ...]

    def walk(self) -> Iterator[Cmd]:
        yield self
        for c in self.commands:
            yield from c.walk()


@dataclass(frozen=True)
class If(Cmd):
    """``if (e) c1 else c2``; ``label`` is the unique ProgramLabel used by
    the static analysis (``Fcd``) and assigned by the parser."""

    label: str
    cond: Exp
    then: Cmd
    els: Cmd

    def walk(self) -> Iterator[Cmd]:
        yield self
        yield from self.then.walk()
        yield from self.els.walk()

    def expressions(self) -> Iterator[Exp]:
        yield self.cond


@dataclass(frozen=True)
class Goto(Cmd):
    """State transition; takes effect at the clock edge."""

    target: str


@dataclass(frozen=True)
class Fall(Cmd):
    """Transfer control to the current child state (nested states)."""


@dataclass(frozen=True)
class SetTag(Cmd):
    """``setTag(entity, tagexp)`` -- explicit tag manipulation (section 3.5)."""

    entity: TaggedEntity
    tag: TagExp

    def expressions(self) -> Iterator[Exp]:
        if isinstance(self.entity, EntArr):
            yield self.entity.index


@dataclass(frozen=True)
class Otherwise(Cmd):
    """``c1 otherwise c2`` -- designer-specified violation handler
    (section 3.6).  ``primary`` must be a single enforceable command."""

    primary: Cmd
    handler: Cmd

    def walk(self) -> Iterator[Cmd]:
        yield self
        yield from self.primary.walk()
        yield from self.handler.walk()


def seq(*commands: Cmd) -> Cmd:
    """Smart sequence constructor: flattens and drops skips."""
    flat: list[Cmd] = []
    for c in commands:
        if isinstance(c, Seq):
            flat.extend(c.commands)
        elif not isinstance(c, Skip):
            flat.append(c)
    if not flat:
        return Skip()
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


# -- declarations and program --------------------------------------------------

#: Declaration kinds.  ``reg`` persists across cycles; ``wire`` is a
#: per-cycle temporary; ``input``/``output`` are ports.
REG_KINDS = ("reg", "wire", "input", "output")


@dataclass(frozen=True)
class RegDecl:
    """Scalar variable declaration.

    ``label`` not None makes the variable *enforced tagged* with that
    initial label; otherwise it is *dynamic tagged* (section 3.3).
    """

    name: str
    width: int
    kind: str = "reg"
    label: str | None = None
    init: int = 0

    def __post_init__(self) -> None:
        if self.kind not in REG_KINDS:
            raise ValueError(f"bad declaration kind {self.kind!r}")
        if self.width <= 0:
            raise ValueError(f"bad width {self.width} for {self.name!r}")

    @property
    def enforced(self) -> bool:
        return self.label is not None


@dataclass(frozen=True)
class ArrDecl:
    """Register array (``mem``) with a tag per element."""

    name: str
    width: int
    size: int
    label: str | None = None

    def __post_init__(self) -> None:
        if self.width <= 0 or self.size <= 0:
            raise ValueError(f"bad array geometry for {self.name!r}")

    @property
    def enforced(self) -> bool:
        return self.label is not None


@dataclass(frozen=True)
class StateDef:
    """A state of the explicit finite state machine (section 3.4).

    ``label`` not None means *enforced tagged* with that initial label;
    None means *dynamic tagged* (tag tracked at run time, starts at
    bottom).  Children are declared via ``let state ... in`` and execute
    only when the parent ``fall``s into them.
    """

    name: str
    body: Cmd
    label: str | None = None
    children: tuple["StateDef", ...] = ()

    @property
    def enforced(self) -> bool:
        return self.label is not None

    def walk(self) -> Iterator["StateDef"]:
        yield self
        for child in self.children:
            yield from child.walk()


#: Name of the implicit root state (fixed, per Appendix A.1).
ROOT = "_root"


@dataclass(frozen=True)
class Program:
    """A complete Sapper program: declarations plus top-level states.

    The implicit root state (named :data:`ROOT`) is enforced at bottom
    and simply ``fall``s into the current top-level state; the first
    top-level state is the initial one.
    """

    decls: tuple[RegDecl | ArrDecl, ...]
    states: tuple[StateDef, ...]
    name: str = "design"

    def reg_decls(self) -> dict[str, RegDecl]:
        return {d.name: d for d in self.decls if isinstance(d, RegDecl)}

    def arr_decls(self) -> dict[str, ArrDecl]:
        return {d.name: d for d in self.decls if isinstance(d, ArrDecl)}
