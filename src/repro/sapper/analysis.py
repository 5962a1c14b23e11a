"""Static analysis of Sapper programs.

This module implements everything the compiler and the formal semantics
need to know statically:

* name resolution (registers vs. register arrays vs. states), including
  desugaring of ``x[e]`` into a bit-select when ``x`` is a scalar;
* the state tree: ``Fpnt`` (parent), ``Fcmd`` (command), sibling groups,
  default (initial) children, and the implicit fixed root state;
* the control-dependence map ``Fcd``: for each ``if`` label, the set of
  registers / array names assigned under it plus the dynamic states whose
  reachability (via ``goto`` or ``fall``) is control-dependent on it
  (section 3.7 of the paper);
* width inference for expressions;
* the well-formedness conditions of Appendix A.1 (falls only in non-leaf
  states, gotos stay within a sibling group, branch arms agree on
  terminators, every path through a state ends in ``goto`` or ``fall``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lattice import Lattice
from repro.sapper import ast
from repro.sapper.errors import SapperTypeError


@dataclass
class ProgramInfo:
    """The result of :func:`analyze`: a resolved program plus derived maps."""

    program: ast.Program
    regs: dict[str, ast.RegDecl]
    arrays: dict[str, ast.ArrDecl]
    states: dict[str, ast.StateDef]
    parent: dict[str, str | None]          # Fpnt
    children: dict[str, tuple[str, ...]]      # sibling groups, in source order
    default_child: dict[str, str | None]   # initial FallMap
    depth: dict[str, int]
    #: Fcd: if-label -> (dynamic reg names, dynamic array names, dynamic state names)
    fcd_regs: dict[str, frozenset[str]]
    fcd_arrays: dict[str, frozenset[str]]
    fcd_states: dict[str, frozenset[str]]
    #: state name -> enclosing state of each goto/fall (filled during checks)
    goto_sites: dict[str, list[str]] = field(default_factory=dict)

    # -- convenience queries -------------------------------------------------

    @property
    def root(self) -> ast.StateDef:
        return self.states[ast.ROOT]

    def is_enforced_state(self, name: str) -> bool:
        if name == ast.ROOT:
            return True
        return self.states[name].enforced

    def initial_state_tag(self, name: str, lattice: Lattice) -> str:
        """Initial tag of a state: declared label for enforced states,
        bottom for dynamic states and for the implicit root."""
        if name == ast.ROOT:
            return lattice.bottom
        state = self.states[name]
        return lattice.check(state.label) if state.label is not None else lattice.bottom

    def initial_reg_tag(self, name: str, lattice: Lattice) -> str:
        decl = self.regs[name]
        return lattice.check(decl.label) if decl.label is not None else lattice.bottom

    def initial_arr_tag(self, name: str, lattice: Lattice) -> str:
        decl = self.arrays[name]
        return lattice.check(decl.label) if decl.label is not None else lattice.bottom

    def descendants(self, name: str) -> tuple[str, ...]:
        """All strict descendants of *name* in the state tree."""
        out: list[str] = []
        for child in self.children.get(name, ()):
            out.append(child)
            out.extend(self.descendants(child))
        return tuple(out)

    def width_of(self, exp: ast.Exp, tag_width: int = 1) -> int:
        """Inferred bit width of *exp* (tags and label literals are
        *tag_width* bits wide)."""
        return _width_of(exp, self, tag_width)

    def labels_used(self) -> frozenset[str]:
        """All label names mentioned anywhere in the program."""
        out: set[str] = set()
        for decl in self.program.decls:
            if decl.label is not None:
                out.add(decl.label)
        for state in self.states.values():
            if state.label is not None:
                out.add(state.label)
            for cmd in state.body.walk():
                for exp in cmd.expressions():
                    for sub in exp.walk():
                        if isinstance(sub, ast.LabelLit):
                            out.add(sub.label)
                if isinstance(cmd, ast.SetTag):
                    out.update(_tagexp_labels(cmd.tag))
        return frozenset(out)


def _tagexp_labels(te: ast.TagExp) -> set[str]:
    if isinstance(te, ast.TagConst):
        return {te.label}
    if isinstance(te, ast.TagJoin):
        return _tagexp_labels(te.left) | _tagexp_labels(te.right)
    return set()


# -- width inference -----------------------------------------------------------


def _width_of(exp: ast.Exp, info: ProgramInfo, tw: int) -> int:
    if isinstance(exp, ast.Const):
        if exp.width is not None:
            return exp.width
        return max(1, exp.value.bit_length())
    if isinstance(exp, ast.RegRef):
        return info.regs[exp.name].width
    if isinstance(exp, ast.ArrIndex):
        return info.arrays[exp.name].width
    if isinstance(exp, ast.BinOp):
        lw = _width_of(exp.left, info, tw)
        rw = _width_of(exp.right, info, tw)
        if exp.op in ast.BOOL_OPS:
            return 1
        if exp.op in ("+", "-"):
            return max(lw, rw) + 1
        if exp.op == "*":
            return lw + rw
        if exp.op in ("/", "%", "<<", ">>", "asr"):
            return lw
        return max(lw, rw)
    if isinstance(exp, ast.UnOp):
        return 1 if exp.op == "!" else _width_of(exp.operand, info, tw)
    if isinstance(exp, ast.Cond):
        return max(_width_of(exp.if_true, info, tw), _width_of(exp.if_false, info, tw))
    if isinstance(exp, ast.Slice):
        return exp.hi - exp.lo + 1
    if isinstance(exp, ast.Cat):
        return sum(_width_of(p, info, tw) for p in exp.parts)
    if isinstance(exp, ast.Ext):
        return exp.width
    if isinstance(exp, (ast.TagOf, ast.LabelLit)):
        return tw
    raise SapperTypeError(f"cannot infer width of {exp!r}")


# -- name resolution ------------------------------------------------------------


class _Resolver:
    def __init__(
        self, regs: dict[str, ast.RegDecl], arrays: dict[str, ast.ArrDecl], states: set[str]
    ):
        self.regs = regs
        self.arrays = arrays
        self.states = states

    def exp(self, e: ast.Exp) -> ast.Exp:
        if isinstance(e, ast.Const):
            return e
        if isinstance(e, ast.RegRef):
            if e.name not in self.regs:
                raise SapperTypeError(f"undeclared variable {e.name!r}")
            return e
        if isinstance(e, ast.ArrIndex):
            index = self.exp(e.index)
            if e.name in self.arrays:
                return ast.ArrIndex(e.name, index)
            if e.name in self.regs:
                # scalar bit-select desugars to shift-and-mask
                return ast.BinOp("&", ast.BinOp(">>", ast.RegRef(e.name), index), ast.Const(1, 1))
            raise SapperTypeError(f"undeclared array or register {e.name!r}")
        if isinstance(e, ast.BinOp):
            return ast.BinOp(e.op, self.exp(e.left), self.exp(e.right))
        if isinstance(e, ast.UnOp):
            return ast.UnOp(e.op, self.exp(e.operand))
        if isinstance(e, ast.Cond):
            return ast.Cond(self.exp(e.cond), self.exp(e.if_true), self.exp(e.if_false))
        if isinstance(e, ast.Slice):
            return ast.Slice(self.exp(e.base), e.hi, e.lo)
        if isinstance(e, ast.Cat):
            return ast.Cat(tuple(self.exp(p) for p in e.parts))
        if isinstance(e, ast.Ext):
            return ast.Ext(self.exp(e.operand), e.width, e.signed)
        if isinstance(e, ast.TagOf):
            return ast.TagOf(self.entity(e.entity))
        if isinstance(e, ast.LabelLit):
            return e
        raise SapperTypeError(f"unknown expression node {e!r}")

    def entity(self, ent: ast.TaggedEntity) -> ast.TaggedEntity:
        if isinstance(ent, ast.EntReg):
            if ent.name in self.states:
                return ast.EntState(ent.name)
            if ent.name in self.regs:
                return ent
            raise SapperTypeError(f"undeclared tagged entity {ent.name!r}")
        if isinstance(ent, ast.EntState):
            if ent.name not in self.states:
                raise SapperTypeError(f"undeclared state {ent.name!r}")
            return ent
        if isinstance(ent, ast.EntArr):
            if ent.name not in self.arrays:
                raise SapperTypeError(f"undeclared array {ent.name!r}")
            return ast.EntArr(ent.name, self.exp(ent.index))
        raise SapperTypeError(f"unknown entity {ent!r}")

    def tagexp(self, te: ast.TagExp) -> ast.TagExp:
        if isinstance(te, ast.TagConst):
            return te
        if isinstance(te, ast.TagOfEntity):
            return ast.TagOfEntity(self.entity(te.entity))
        if isinstance(te, ast.TagJoin):
            return ast.TagJoin(self.tagexp(te.left), self.tagexp(te.right))
        if isinstance(te, ast.TagFromBits):
            return ast.TagFromBits(self.exp(te.bits))
        raise SapperTypeError(f"unknown tag expression {te!r}")

    def cmd(self, c: ast.Cmd) -> ast.Cmd:
        if isinstance(c, ast.Skip):
            return c
        if isinstance(c, ast.AssignReg):
            if c.target in self.arrays:
                raise SapperTypeError(f"array {c.target!r} needs an index to be assigned")
            if c.target not in self.regs:
                raise SapperTypeError(f"assignment to undeclared variable {c.target!r}")
            if self.regs[c.target].kind == "input":
                raise SapperTypeError(f"cannot assign to input port {c.target!r}")
            return ast.AssignReg(c.target, self.exp(c.value))
        if isinstance(c, ast.AssignArr):
            if c.target not in self.arrays:
                raise SapperTypeError(f"indexed assignment to non-array {c.target!r}")
            return ast.AssignArr(c.target, self.exp(c.index), self.exp(c.value))
        if isinstance(c, ast.Seq):
            return ast.Seq(tuple(self.cmd(x) for x in c.commands))
        if isinstance(c, ast.If):
            return ast.If(c.label, self.exp(c.cond), self.cmd(c.then), self.cmd(c.els))
        if isinstance(c, ast.Goto):
            if c.target not in self.states:
                raise SapperTypeError(f"goto to undeclared state {c.target!r}")
            return c
        if isinstance(c, ast.Fall):
            return c
        if isinstance(c, ast.SetTag):
            entity = self.entity(c.entity)
            if isinstance(entity, ast.EntArr) and not self.arrays[entity.name].enforced:
                raise SapperTypeError(
                    f"setTag on dynamic array {entity.name!r}: dynamic arrays share one "
                    "tag and cannot be zeroed per-element on downgrade; declare the "
                    "array with an initial label to make it enforced"
                )
            if isinstance(entity, ast.EntReg) and self.regs[entity.name].kind != "reg":
                raise SapperTypeError(
                    f"setTag target {entity.name!r} must be a persistent reg, a state, "
                    "or an enforced array element"
                )
            return ast.SetTag(entity, self.tagexp(c.tag))
        if isinstance(c, ast.Otherwise):
            primary = self.cmd(c.primary)
            if not isinstance(
                primary, (ast.AssignReg, ast.AssignArr, ast.Goto, ast.Fall, ast.SetTag)
            ):
                raise SapperTypeError("otherwise must guard a single enforceable command")
            return ast.Otherwise(primary, self.cmd(c.handler))
        raise SapperTypeError(f"unknown command node {c!r}")


# -- terminator discipline (Appendix A.1) -------------------------------------------


def _terminator(c: ast.Cmd, where: str) -> bool:
    """True iff *c* always ends in goto/fall; raises on inconsistent arms
    or on statements following a terminator."""
    if isinstance(c, (ast.Goto, ast.Fall)):
        return True
    if isinstance(c, ast.Otherwise):
        prim = _terminator(c.primary, where)
        hand = _terminator(c.handler, where)
        if prim != hand:
            raise SapperTypeError(
                f"in state {where!r}: otherwise arms disagree on ending with goto/fall"
            )
        return prim
    if isinstance(c, ast.If):
        then_t = _terminator(c.then, where)
        els_t = _terminator(c.els, where)
        if then_t != els_t:
            raise SapperTypeError(
                f"in state {where!r}: both branches of an if must execute a goto/fall "
                "or neither may (Appendix A.1)"
            )
        return then_t
    if isinstance(c, ast.Seq):
        for i, sub in enumerate(c.commands):
            if _terminator(sub, where) and i != len(c.commands) - 1:
                raise SapperTypeError(f"in state {where!r}: unreachable code after goto/fall")
        return _terminator(c.commands[-1], where)
    return False


# -- Fcd -----------------------------------------------------------------------------


def _assigned_regs(c: ast.Cmd) -> set[str]:
    return {x.target for x in c.walk() if isinstance(x, ast.AssignReg)}


def _assigned_arrays(c: ast.Cmd) -> set[str]:
    return {x.target for x in c.walk() if isinstance(x, ast.AssignArr)}


def _collect_fcd(
    state: ast.StateDef,
    info: ProgramInfo,
) -> None:
    """Populate Fcd for every if inside *state*'s body.

    Beyond the registers assigned directly under the ``if``, a branch
    that performs a ``goto`` or ``fall`` makes the *schedule* of an
    entire region of the state tree control-dependent: which sibling (or
    child) runs next, and transitively everything those states can
    schedule.  The paper's GOTO-DYNAMIC prose requires "the security
    tags of all dynamic registers that are assigned in all
    goto-reachable states" to be raised, and notes that this rule "is
    the major cause of label creep in most designs" with nested states
    as the containment mechanism.  Since gotos cannot leave a sibling
    group (Appendix A.1), the sound closure is:

    * if a branch contains a ``goto``: every dynamic register, dynamic
      array, and dynamic state in the subtree of the enclosing state's
      *parent* (the sibling group and everything below it);
    * if a branch only ``fall``s: the subtree of the enclosing state.

    Parent states remain unaffected -- exactly the containment property
    Figure 4's TDMA design relies on.
    """

    def scope_sets(root_name: str) -> tuple[set[str], set[str], set[str]]:
        regs: set[str] = set()
        arrays: set[str] = set()
        states: set[str] = set()
        for member in info.descendants(root_name):
            body = info.states[member].body
            regs |= {r for r in _assigned_regs(body) if info.regs[r].label is None}
            arrays |= {a for a in _assigned_arrays(body) if info.arrays[a].label is None}
            if not info.is_enforced_state(member):
                states.add(member)
        return regs, arrays, states

    def visit(c: ast.Cmd) -> None:
        if isinstance(c, ast.If):
            branch = ast.seq(c.then, c.els)
            regs = {r for r in _assigned_regs(branch) if info.regs[r].label is None}
            arrays = {a for a in _assigned_arrays(branch) if info.arrays[a].label is None}
            states: set[str] = set()
            has_goto = any(isinstance(sub, ast.Goto) for sub in branch.walk())
            has_fall = any(isinstance(sub, ast.Fall) for sub in branch.walk())
            if has_goto:
                parent = info.parent[state.name]
                assert parent is not None
                s_regs, s_arrays, s_states = scope_sets(parent)
                regs |= s_regs
                arrays |= s_arrays
                states |= s_states
            elif has_fall:
                s_regs, s_arrays, s_states = scope_sets(state.name)
                regs |= s_regs
                arrays |= s_arrays
                states |= s_states
            info.fcd_regs[c.label] = frozenset(regs)
            info.fcd_arrays[c.label] = frozenset(arrays)
            info.fcd_states[c.label] = frozenset(states)
            visit(c.then)
            visit(c.els)
        elif isinstance(c, ast.Seq):
            for sub in c.commands:
                visit(sub)
        elif isinstance(c, ast.Otherwise):
            visit(c.primary)
            visit(c.handler)

    visit(state.body)


# -- top level ------------------------------------------------------------------------


def analyze(program: ast.Program, lattice: Lattice | None = None) -> ProgramInfo:
    """Resolve and validate *program*; return the derived :class:`ProgramInfo`.

    When *lattice* is given, every label mentioned in the program is
    checked for membership.
    """
    regs = program.reg_decls()
    arrays = program.arr_decls()
    if set(regs) & set(arrays):
        raise SapperTypeError("register and array names must be distinct")

    # Build the state tree with the implicit root.
    states: dict[str, ast.StateDef] = {}
    parent: dict[str, str | None] = {ast.ROOT: None}
    children: dict[str, tuple[str, ...]] = {}
    default_child: dict[str, str | None] = {}
    depth: dict[str, int] = {ast.ROOT: 0}

    def add_state(s: ast.StateDef, par: str, d: int) -> None:
        if s.name in states or s.name == ast.ROOT:
            raise SapperTypeError(f"duplicate state name {s.name!r}")
        if s.name in regs or s.name in arrays:
            raise SapperTypeError(f"state {s.name!r} clashes with a variable name")
        states[s.name] = s
        parent[s.name] = par
        depth[s.name] = d
        for child in s.children:
            add_state(child, s.name, d + 1)
        children[s.name] = tuple(c.name for c in s.children)
        default_child[s.name] = s.children[0].name if s.children else None

    root = ast.StateDef(ast.ROOT, ast.Fall(), label=None, children=program.states)
    states[ast.ROOT] = root
    for top in program.states:
        add_state(top, ast.ROOT, 1)
    children[ast.ROOT] = tuple(s.name for s in program.states)
    default_child[ast.ROOT] = program.states[0].name

    info = ProgramInfo(
        program=program,
        regs=regs,
        arrays=arrays,
        states=states,
        parent=parent,
        children=children,
        default_child=default_child,
        depth=depth,
        fcd_regs={},
        fcd_arrays={},
        fcd_states={},
    )

    # Resolve every state body (rewrites the AST in place of the old one).
    resolver = _Resolver(regs, arrays, set(states))

    def resolve_state(s: ast.StateDef) -> ast.StateDef:
        body = resolver.cmd(s.body)
        kids = tuple(resolve_state(c) for c in s.children)
        return ast.StateDef(s.name, body, s.label, kids)

    new_tops = tuple(resolve_state(s) for s in program.states)
    program = ast.Program(program.decls, new_tops, program.name)
    info.program = program
    # Rebuild the state map over the resolved tree.
    info.states = {ast.ROOT: ast.StateDef(ast.ROOT, ast.Fall(), None, new_tops)}
    for top in new_tops:
        for s in top.walk():
            info.states[s.name] = s

    # Well-formedness checks (Appendix A.1).
    for s in info.states.values():
        if s.name == ast.ROOT:
            continue
        has_children = bool(info.children[s.name])
        for c in s.body.walk():
            if isinstance(c, ast.Fall) and not has_children:
                raise SapperTypeError(f"leaf state {s.name!r} cannot contain fall")
            if isinstance(c, ast.Goto):
                if info.parent[c.target] != info.parent[s.name]:
                    raise SapperTypeError(
                        f"goto {c.target!r} from {s.name!r} leaves its sibling group "
                        "(Appendix A.1: gotos stay at the same depth and group)"
                    )
        if not _terminator(s.body, s.name):
            raise SapperTypeError(
                f"state {s.name!r} has a path that ends in neither goto nor fall"
            )
        _collect_fcd(s, info)

    # Optional label validation.
    if lattice is not None:
        for label in info.labels_used():
            lattice.check(label)

    return info
