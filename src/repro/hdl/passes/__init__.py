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
* :class:`NarrowWidths` -- shrink provably-narrow operators below the
  SWAR width boundary;
* :class:`DeadSignalElim` -- drop signals that feed no register
  next-value, array port, or output; prune never-firing write ports.

:func:`optimize` runs the standard pipeline with a per-module memo so
every backend sees the same optimized object without re-running passes.
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
from repro.hdl.passes.dce import DeadSignalElim
from repro.hdl.passes.narrow import NarrowWidths
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

#: Highest supported optimization level.
MAX_OPT_LEVEL = 2


def default_passes(level: int = MAX_OPT_LEVEL) -> list[Pass]:
    """The standard pipeline for *level* (0 = none, 1 = rewrite+dce,
    2 = rewrite+narrow+dce)."""
    if level <= 0:
        return []
    if level == 1:
        return [Rewrite(), DeadSignalElim()]
    return [Rewrite(), NarrowWidths(), DeadSignalElim()]


# raw module -> {level: optimized module}
_MEMO = WeakIdMemo()


def optimize(module: Module, level: int = MAX_OPT_LEVEL) -> Module:
    """Run the standard pass pipeline on *module* (memoized).

    Already-optimized modules pass through untouched; the same raw
    module object always yields the same optimized object, so the
    simulator, synthesizer, and Verilog emitter all agree on what they
    consume.
    """
    if level <= 0 or getattr(module, "_opt_level", None) is not None:
        return module
    levels = _MEMO.get(module)
    if levels is None:
        levels = {}
        _MEMO.set(module, levels)
    cached = levels.get(level)
    if cached is not None:
        return cached

    result = PassManager(default_passes(level)).run(module)
    optimized = result.module
    optimized._opt_level = level  # type: ignore[attr-defined]
    optimized._opt_stats = result.stats  # type: ignore[attr-defined]
    levels[level] = optimized
    return optimized


def run_pipeline(module: Module, level: int = MAX_OPT_LEVEL) -> OptResult:
    """Run the pipeline without memoization, returning per-pass stats."""
    return PassManager(default_passes(level)).run(module)


__all__ = [
    "DeadSignalElim",
    "MAX_OPT_LEVEL",
    "NarrowWidths",
    "OptResult",
    "PASSES_DIGEST",
    "Pass",
    "PassManager",
    "PassStat",
    "Rewrite",
    "default_passes",
    "eval_op",
    "optimize",
    "rebuild",
    "run_pipeline",
]
