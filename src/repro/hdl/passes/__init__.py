"""Mid-level optimization passes over the HDL IR.

One optimized module feeds all three backends -- the cycle-accurate
simulator, the gate-count synthesizer, and the Verilog emitter -- so
the redundant tag-join and mux logic the Sapper compiler emits is paid
for once, here, instead of three times downstream.

* :class:`Rewrite` -- one walk that folds constant operators
  (bit-exact with the simulator's semantics), propagates constants and
  aliases, applies mux/boolean/algebraic identities (``mux(c, x, x)``,
  ``x & 0``, constant guards, ...) and value-numbers duplicated tag
  joins, Fcd upgrades, and forwarding comparisons;
* :class:`DeadSignalElim` -- drop signals that feed no register
  next-value, array port, or output; prune never-firing write ports.

``[Rewrite, DeadSignalElim]`` is the one pipeline.  :func:`optimize`
runs it with a per-module memo so every backend sees the same optimized
object without re-running passes.  :func:`bind` specializes a module to
constant register values over the cone its sinks still read (the
batched simulator's folded bodies), and the same pipeline then runs on
that cone alone.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.hdl.ir import Module
from repro.hdl.passes.base import (
    OptResult,
    Pass,
    PassManager,
    PassStat,
    WeakIdMemo,
    rebuild,
)
from repro.hdl.passes.bind import bind
from repro.hdl.passes.dce import DeadSignalElim
from repro.hdl.passes.rewrite import Rewrite, eval_op

def _passes_digest() -> str:
    """SHA-256 over the source that shapes an optimized module: the IR
    and every pass."""
    hdl = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in [hdl / "ir.py", *sorted((hdl / "passes").glob("*.py"))]:
        digest.update(path.relative_to(hdl).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


#: Digest of the pass pipeline's own source (see :func:`_passes_digest`);
#: persisted optimized modules and their backend artifacts key on it.
PASSES_DIGEST = _passes_digest()


def default_passes() -> list[Pass]:
    """The standard pipeline."""
    return [Rewrite(), DeadSignalElim()]


# raw module -> optimized module
_MEMO = WeakIdMemo()


def optimize(module: Module) -> Module:
    """Run the standard pass pipeline on *module* (memoized).

    Already-optimized modules pass through untouched; the same raw
    module object always yields the same optimized object, so the
    simulator, synthesizer, and Verilog emitter all agree on what they
    consume.
    """
    if getattr(module, "_opt_stats", None) is not None:
        return module
    optimized = _MEMO.get(module)
    if optimized is None:
        result = run_pipeline(module)
        optimized = result.module
        optimized._opt_stats = result.stats  # type: ignore[attr-defined]
        _MEMO.set(module, optimized)
    return optimized


def run_pipeline(module: Module) -> OptResult:
    """Run the pipeline without memoization, returning per-pass stats."""
    return PassManager(default_passes()).run(module)


__all__ = [
    "DeadSignalElim",
    "OptResult",
    "PASSES_DIGEST",
    "Pass",
    "PassManager",
    "PassStat",
    "Rewrite",
    "bind",
    "default_passes",
    "eval_op",
    "optimize",
    "rebuild",
    "run_pipeline",
]
