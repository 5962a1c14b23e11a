"""Static may-carry-taint analysis.

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
certificate marked it tainted.  ``repro check`` reports the
certificate's prune census (:attr:`TaintCertificate.stats`), and
:meth:`TaintCertificate.witness` gives the source-to-signal path behind
each tainted signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.analyze.graph import SignalGraph, array_node, build_graph
from repro.hdl.ir import Module

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


def compute_taint(
    module: Module, sources: Iterable[str], graph: SignalGraph | None = None
) -> TaintCertificate:
    """Fixpoint may-carry-taint reachability from *sources* (input names).

    *graph* is *module*'s signal graph when the caller already built it
    (the lint pass does), saving a second build."""
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
    return TaintCertificate(
        module_name=module.name,
        sources=tuple(source_list),
        tainted=frozenset(tainted),
        witness_parent=parent,
        census=census,
    )
