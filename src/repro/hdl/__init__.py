"""Hardware substrate: a synthesizable-Verilog-subset IR plus tooling.

The Sapper compiler targets this IR; the baselines (GLIFT, Caisson)
transform it.  Tooling:

* :mod:`repro.hdl.ir` -- the dataflow IR (SSA combinational assigns,
  synchronous register update, sequential array write ports).
* :mod:`repro.hdl.sim` -- cycle-accurate simulator; generates a
  specialized Python step function per module (our ModelSim substitute).
* :mod:`repro.hdl.batch` -- lane-batched simulation: one vectorized step
  function advances N independent machine states bit-identically.
* :mod:`repro.hdl.vector` -- the NumPy uint64 native tier over the
  batched engine (lanes as the vector axis; optional dependency).
* :mod:`repro.hdl.verilog` -- synthesizable Verilog text emission.
* :mod:`repro.hdl.synth` / :mod:`repro.hdl.techlib` -- structural
  lowering to gate counts with a 90 nm-style cell library; area, critical
  path and power reports (our Design Compiler substitute).
* :mod:`repro.hdl.passes` -- the shared mid-level optimization pipeline
  (one rewrite walk of constant folding, mux/boolean simplification and
  CSE, width narrowing, dead-signal elimination, run to a fixpoint).
  All three backends consume its output by default.
* :mod:`repro.hdl.netlist` -- an exact gate-level netlist + simulator for
  small designs (used to demonstrate GLIFT executably).
"""

from repro.hdl.batch import BatchSimulator
from repro.hdl.ir import ArrayDef, ArrayWrite, HConst, HExpr, HOp, HRef, Module, RegDef
from repro.hdl.passes import PassManager, optimize
from repro.hdl.sim import Simulator
from repro.hdl.synth import CostReport, synthesize
from repro.hdl.vector import HAVE_NUMPY, VectorSimulator
from repro.hdl.verilog import emit_verilog

__all__ = [
    "Module",
    "RegDef",
    "ArrayDef",
    "ArrayWrite",
    "HExpr",
    "HConst",
    "HRef",
    "HOp",
    "Simulator",
    "BatchSimulator",
    "VectorSimulator",
    "HAVE_NUMPY",
    "synthesize",
    "CostReport",
    "emit_verilog",
    "optimize",
    "PassManager",
]
