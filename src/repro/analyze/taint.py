"""Static may-carry-taint analysis and the packed dynamic tracker.

:func:`compute_taint` runs a worklist fixpoint over the
:class:`~repro.analyze.graph.SignalGraph`: starting from the designated
source inputs (by default the design's ``__tag`` ports and every input
whose declared label sits above the lattice bottom), taint flows along
every edge kind -- same-cycle through combinational reads, across the
clock edge through register loads and array write ports.  The result is
a :class:`TaintCertificate`: every signal is either *statically tainted*
(with a concrete witness path back to a source) or *statically clean*.

Clean is a proof, never a guess -- the soundness contract, pinned by the
Hypothesis differential suite against :mod:`repro.analyze.shadow`, is
that no signal can ever become dynamically tainted unless the
certificate marked it tainted.  That proof is what lets the batched
simulation tiers prune: :class:`PackedTaintTracker` allocates a
lane-packed shadow word *only* for statically tainted signals, so the
clean part of the design (the entire design, for an insecure
compilation) carries no shadow state at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.analyze.graph import SignalGraph, array_node, build_graph, is_array_node
from repro.hdl.ir import Module
from repro.hdl.passes.base import WeakIdMemo

if TYPE_CHECKING:
    from repro.sapper.compiler import CompiledDesign


@dataclass(frozen=True)
class TaintCertificate:
    """Per-signal static taint classification of one module.

    Node names follow the :mod:`~repro.analyze.graph` convention:
    signals by name, arrays as ``array:NAME``.  The certificate is a
    plain picklable value so the toolchain can persist it in the
    artifact store beside the other compile artifacts.
    """

    module_name: str
    sources: tuple[str, ...]
    tainted: frozenset[str]
    #: tainted node -> (predecessor it was first reached from, edge kind)
    witness_parent: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: census over the module: {kind: (total, tainted)} for
    #: kind in {"signals", "regs", "arrays", "inputs"}
    census: dict[str, tuple[int, int]] = field(default_factory=dict)

    def is_tainted(self, node: str) -> bool:
        return node in self.tainted

    def is_clean(self, node: str) -> bool:
        return node not in self.tainted

    def witness(self, node: str) -> tuple[str, ...]:
        """A concrete source-to-*node* dataflow path proving taintedness."""
        if node not in self.tainted:
            raise ValueError(f"{node!r} is statically clean; no witness exists")
        path = [node]
        while path[-1] not in self.sources:
            pred, _kind = self.witness_parent[path[-1]]
            path.append(pred)
        return tuple(reversed(path))

    @property
    def stats(self) -> dict[str, object]:
        """Prune census: how much shadow state the certificate removes."""
        out: dict[str, object] = {}
        total_all = tainted_all = 0
        for kind, (total, tainted) in self.census.items():
            out[kind] = total
            out[f"tainted_{kind}"] = tainted
            out[f"pruned_{kind}"] = total - tainted
            total_all += total
            tainted_all += tainted
        out["prune_ratio"] = (total_all - tainted_all) / total_all if total_all else 0.0
        return out


def default_taint_sources(design: CompiledDesign) -> tuple[str, ...]:
    """Everything that can carry secrets into *design*'s module.

    Three families: the dynamic tag ports the compiler adds for
    non-enforced inputs (``name__tag``), the data inputs whose declared
    label sits strictly above the lattice bottom (an ``H`` input is
    itself a secret even though its tag port is constant), and the
    shadow tag arrays (``name__tags``) that are loaded from outside
    before simulation starts.  The last family is what makes closed
    designs like the secure processor analyzable: it has no ports at
    all, so its secrets arrive entirely through preloaded tag memory.
    Per-entity tag *registers* are deliberately not sources -- they
    reset to the lattice bottom, so any taint they hold is derived and
    the fixpoint discovers it.
    """
    bottom = design.lattice.bottom
    module = design.module
    sources = []
    for name in module.inputs:
        if name.endswith("__tag"):
            sources.append(name)
            continue
        decl = design.info.regs.get(name)
        if decl is not None and decl.label is not None and decl.label != bottom:
            sources.append(name)
    for name in module.arrays:
        if name.endswith("__tags"):
            sources.append(name)
    return tuple(sources)


#: module -> {sources tuple -> certificate}; the three batched tiers all
#: attach over the same optimized module object, so the fixpoint runs once
_CERT_CACHE = WeakIdMemo()


def compute_taint(
    module: Module, sources: Iterable[str], graph: SignalGraph | None = None
) -> TaintCertificate:
    """Fixpoint may-carry-taint reachability from *sources* (input names).

    *graph* is *module*'s signal graph when the caller already built it
    (the lint pass does), saving a second build on a cache miss."""
    sources = tuple(sources)
    per_module = _CERT_CACHE.get(module)
    if per_module is None:
        per_module = {}
        _CERT_CACHE.set(module, per_module)
    cached = per_module.get(sources)
    if cached is not None:
        return cached
    if graph is None:
        graph = build_graph(module)
    source_list = []
    for name in sources:
        if name in module.arrays:
            name = array_node(name)
        if name not in graph.kinds:
            raise ValueError(f"{module.name}: unknown taint source {name!r}")
        source_list.append(name)

    tainted: set[str] = set(source_list)
    parent: dict[str, tuple[str, str]] = {}
    frontier = list(source_list)
    while frontier:
        node = frontier.pop()
        for succ, kind in graph.succs.get(node, ()):
            if succ not in tainted:
                tainted.add(succ)
                parent[succ] = (node, kind)
                frontier.append(succ)

    comb_names = [name for name, _ in module.comb]
    census = {
        "signals": (len(comb_names), sum(1 for n in comb_names if n in tainted)),
        "regs": (len(module.regs), sum(1 for n in module.regs if n in tainted)),
        "arrays": (
            len(module.arrays),
            sum(1 for n in module.arrays if array_node(n) in tainted),
        ),
        "inputs": (len(module.inputs), sum(1 for n in module.inputs if n in tainted)),
    }
    cert = TaintCertificate(
        module_name=module.name,
        sources=tuple(source_list),
        tainted=frozenset(tainted),
        witness_parent=parent,
        census=census,
    )
    per_module[sources] = cert
    return cert


# -- packed dynamic tracking over the tainted cone ------------------------------


#: module -> {sources tuple -> compiled step function}
_TRACKER_CACHE = WeakIdMemo()


def _signal_term(
    name: str,
    module: Module,
    tainted: frozenset[str],
    sources: frozenset[str],
    local: dict[str, str],
) -> str | None:
    """Python expression for the current taint word of signal *name*
    (None when the signal is statically clean and contributes nothing)."""
    if name in sources:
        return f"src[{name!r}]"
    if name not in tainted:
        return None
    if name in module.regs:
        return f"rt[{name!r}]"
    return local[name]


def _compile_tracker(module: Module, cert: TaintCertificate):
    """Generate the per-cycle taint-propagation step for *module*.

    The generated function is value-independent and conservative: every
    statically tainted combinational signal gets one packed word (bit
    *l* = lane *l* may carry taint this cycle) computed as the OR of its
    operands' words; registers commit two-phase like the value
    simulators; arrays are tracked as one sticky word.  Statically
    clean signals appear nowhere -- that is the prune.
    """
    from repro.hdl.ir import HOp, HRef

    tainted = cert.tainted
    sources = frozenset(s for s in cert.sources if not is_array_node(s))
    local: dict[str, str] = {}
    lines = ["def step(rt, at, src, ev, cur):"]

    def terms_of(expr) -> list[str]:
        terms = []
        for node in expr.walk():
            if isinstance(node, HRef):
                term = _signal_term(node.name, module, tainted, sources, local)
                if term is not None:
                    terms.append(term)
            elif isinstance(node, HOp) and node.op == "read":
                if array_node(node.array) in tainted:
                    terms.append(f"at[{node.array!r}]")
        return sorted(set(terms))

    for i, (name, expr) in enumerate(module.comb):
        if name not in tainted:
            continue
        var = f"t{i}"
        local[name] = var
        terms = terms_of(expr)
        lines.append(f"    {var} = " + (" | ".join(terms) if terms else "0"))
        lines.append(f"    cur[{name!r}] = {var}")
        lines.append(f"    ev[{name!r}] |= {var}")
    for name in sorted(sources):
        lines.append(f"    ev[{name!r}] |= src[{name!r}]")

    # clock edge: register loads then array write ports, both reading
    # the pre-edge words computed above
    commits = []
    for j, (reg, sig) in enumerate(module.reg_next.items()):
        if reg not in tainted:
            continue
        term = _signal_term(sig, module, tainted, sources, local) or "0"
        lines.append(f"    n{j} = {term}")
        commits.append(f"    rt[{reg!r}] = n{j}")
        commits.append(f"    ev[{reg!r}] |= n{j}")
    for wr in module.array_writes:
        node = array_node(wr.array)
        if node not in tainted:
            continue
        terms = []
        for expr in (wr.addr, wr.data, wr.enable):
            terms.extend(terms_of(expr))
        if terms:
            joined = " | ".join(sorted(set(terms)))
            commits.append(f"    at[{wr.array!r}] |= {joined}")
            commits.append(f"    ev[{node!r}] |= at[{wr.array!r}]")
    lines.extend(commits if commits else ["    pass"])

    namespace: dict = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - generated from the IR only
    return namespace["step"]


def _tracker_step(module: Module, cert: TaintCertificate):
    per_module = _TRACKER_CACHE.get(module)
    if per_module is None:
        per_module = {}
        _TRACKER_CACHE.set(module, per_module)
    fn = per_module.get(cert.sources)
    if fn is None:
        fn = per_module[cert.sources] = _compile_tracker(module, cert)
    return fn


class PackedTaintTracker:
    """Lane-packed dynamic taint over the statically tainted cone.

    One integer word per *statically tainted* signal, register, and
    array; bit *l* set means lane *l*'s instance may carry taint.
    Statically clean signals get no word -- the
    :class:`TaintCertificate` proves they never need one -- which is
    the tag-prune the batched tiers report (:attr:`stats`).

    Propagation is value-independent (mux taints as the union of all
    three operands, write ports are sticky), so tracked taint always
    contains the value-aware oracle of :mod:`repro.analyze.shadow` and
    is always contained in the static certificate.  Lanes diverge
    through *lane_masks*: a per-source packed mask of which lanes drive
    tainted data (default: all lanes, every cycle).
    """

    def __init__(
        self,
        module: Module,
        certificate: TaintCertificate,
        lanes: int,
        lane_masks: dict[str, int] | None = None,
    ):
        self.module = module
        self.certificate = certificate
        self.lanes = lanes
        ones = (1 << lanes) - 1
        self._step = _tracker_step(module, certificate)
        tainted = certificate.tainted
        self.reg_taint = {r: 0 for r in module.regs if r in tainted}
        self.arr_taint = {a: 0 for a in module.arrays if array_node(a) in tainted}
        self.src = {s: ones for s in certificate.sources if not is_array_node(s)}
        array_sources = [
            s[len("array:") :] for s in certificate.sources if is_array_node(s)
        ]
        for name in array_sources:
            self.arr_taint[name] = ones
        if lane_masks:
            for name, mask in lane_masks.items():
                if name in self.src:
                    self.src[name] = mask & ones
                elif name in array_sources:
                    self.arr_taint[name] = mask & ones
                else:
                    raise ValueError(f"{name!r} is not a taint source of {module.name}")
        self.cur: dict[str, int] = {}
        self.ever: dict[str, int] = {}
        for name, _ in module.comb:
            if name in tainted:
                self.ever[name] = 0
        for name in self.src:
            self.ever[name] = 0
        for name in self.reg_taint:
            self.ever[name] = 0
        for name, word in self.arr_taint.items():
            self.ever[array_node(name)] = word

    def step(self) -> None:
        """Advance the shadow state one clock cycle (all lanes)."""
        self._step(self.reg_taint, self.arr_taint, self.src, self.ever, self.cur)

    def compact(self, keep: Sequence[int]) -> None:
        """Repack every shadow word to the surviving lane positions."""
        pairs = list(enumerate(keep))

        def repack(word: int) -> int:
            return sum(((word >> lane) & 1) << i for i, lane in pairs)

        for store in (self.reg_taint, self.arr_taint, self.src, self.cur, self.ever):
            for name, word in store.items():
                store[name] = repack(word)
        self.lanes = len(keep)

    def lane_tainted(self, lane: int, node: str) -> bool:
        """Did taint ever reach *node* in lane *lane*?"""
        return bool((self.ever.get(node, 0) >> lane) & 1)

    def ever_tainted(self, lane: int) -> frozenset[str]:
        """All nodes taint ever reached in lane *lane*."""
        return frozenset(n for n, w in self.ever.items() if (w >> lane) & 1)

    @property
    def stats(self) -> dict[str, object]:
        """The certificate's prune census plus live tracker counts."""
        out = self.certificate.stats
        out["tracked_words"] = len(self.ever)
        out["lanes"] = self.lanes
        return out
