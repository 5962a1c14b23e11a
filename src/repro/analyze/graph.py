"""Signal-level dataflow graph over :class:`repro.hdl.ir.Module`.

Nodes are signal names (inputs, registers, combinational wires) plus one
``array:NAME`` node per register array (an array is tracked as a single
storage location; per-cell precision lives in the dynamic oracle, not
here).  Edges carry a kind:

* ``comb`` -- a combinational assignment reads the source signal;
* ``read`` -- a combinational assignment reads the source array;
* ``reg`` -- a register loads the source signal at the clock edge;
* ``write`` -- an array write port (address, data, or enable) reads the
  source signal or array at the clock edge.

``comb``/``read`` edges are same-cycle, ``reg``/``write`` edges cross
the clock edge; taint reachability follows all four, combinational-cycle
detection only the same-cycle wire-to-wire subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdl.ir import HExpr, HOp, HRef, Module

#: Prefix distinguishing array nodes from signal nodes.
ARRAY_PREFIX = "array:"


def array_node(name: str) -> str:
    """Graph node name for the register array *name*."""
    return ARRAY_PREFIX + name


def _expr_sources(expr: HExpr) -> tuple[set[str], set[str]]:
    """Signal names and array names read anywhere inside *expr*."""
    signals: set[str] = set()
    arrays: set[str] = set()
    for node in expr.walk():
        if isinstance(node, HRef):
            signals.add(node.name)
        elif isinstance(node, HOp) and node.op == "read":
            arrays.add(node.array)
    return signals, arrays


@dataclass
class SignalGraph:
    """The dataflow graph of one module (see module docstring)."""

    module: Module
    #: node -> "input" | "reg" | "wire" | "array"
    kinds: dict[str, str] = field(default_factory=dict)
    #: node -> sorted tuple of (successor, edge kind)
    succs: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)
    #: node -> sorted tuple of (predecessor, edge kind)
    preds: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self.kinds)

    def comb_cycles(self) -> list[list[str]]:
        """Combinational cycles, each as an ordered signal list.

        Runs Tarjan's SCC algorithm (iteratively; compiled designs nest
        thousands deep) over the same-cycle wire subgraph: ``comb``
        edges whose both endpoints are combinational wires.  Inputs and
        registers cannot participate (they have no same-cycle
        in-edges), and arrays cannot either (array state only changes
        at the clock edge).  Each non-trivial SCC -- or wire reading
        itself -- is reported as one concrete cycle
        ``[s0, s1, ..., s0-again-implied]`` with every hop a real
        read-of relationship.
        """
        wires = [n for n, k in self.kinds.items() if k == "wire"]
        adj: dict[str, list[str]] = {}
        for name in wires:
            adj[name] = [
                dst
                for dst, kind in self.succs.get(name, ())
                if kind == "comb" and self.kinds.get(dst) == "wire"
            ]

        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = 0
        sccs: list[list[str]] = []

        for root in wires:
            if root in index:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, child_i = work[-1]
                if child_i == 0:
                    index[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                advanced = False
                children = adj[node]
                while child_i < len(children):
                    succ = children[child_i]
                    child_i += 1
                    if succ not in index:
                        work[-1] = (node, child_i)
                        work.append((succ, 0))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if low[node] == index[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    if len(scc) > 1 or node in adj[node]:
                        sccs.append(scc)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])

        return [self._concrete_cycle(set(scc), adj) for scc in sccs]

    def _concrete_cycle(self, scc: set[str], adj: dict[str, list[str]]) -> list[str]:
        """One concrete cycle inside *scc*, as an ordered signal list."""
        start = min(scc)
        path = [start]
        seen = {start: 0}
        node = start
        while True:
            node = next(s for s in adj[node] if s in scc)
            if node in seen:
                return path[seen[node] :]
            seen[node] = len(path)
            path.append(node)


def build_graph(module: Module) -> SignalGraph:
    """Construct the :class:`SignalGraph` of *module*.

    Works on modules that would fail :meth:`Module.validate` (duplicate
    or undefined signals): lint rules need the graph precisely when the
    module is broken.  References to names with no definition become
    dangling source nodes of kind ``"undefined"``.
    """
    kinds: dict[str, str] = {}
    for name in module.inputs:
        kinds[name] = "input"
    for name in module.regs:
        kinds.setdefault(name, "reg")
    for name in module.arrays:
        kinds[array_node(name)] = "array"
    for name, _expr in module.comb:
        kinds.setdefault(name, "wire")

    edges: set[tuple[str, str, str]] = set()

    def note(src: str, dst: str, kind: str) -> None:
        kinds.setdefault(src, "undefined")
        edges.add((src, dst, kind))

    for name, expr in module.comb:
        signals, arrays = _expr_sources(expr)
        for src in signals:
            note(src, name, "comb")
        for arr in arrays:
            note(array_node(arr), name, "read")
    for reg, sig in module.reg_next.items():
        note(sig, reg, "reg")
    for wr in module.array_writes:
        dst = array_node(wr.array)
        kinds.setdefault(dst, "array")
        for expr in (wr.addr, wr.data, wr.enable):
            signals, arrays = _expr_sources(expr)
            for src in signals:
                note(src, dst, "write")
            for arr in arrays:
                note(array_node(arr), dst, "write")

    succs: dict[str, list[tuple[str, str]]] = {}
    preds: dict[str, list[tuple[str, str]]] = {}
    for src, dst, kind in sorted(edges):
        succs.setdefault(src, []).append((dst, kind))
        preds.setdefault(dst, []).append((src, kind))
    return SignalGraph(
        module=module,
        kinds=kinds,
        succs={k: tuple(v) for k, v in succs.items()},
        preds={k: tuple(v) for k, v in preds.items()},
    )
