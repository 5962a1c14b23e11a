"""Static analysis over the HDL IR (and the Sapper designs built on it).

The package implements the compile-time half of the Sapper story: the
paper derives enforcement logic statically from design + policy, and
this layer proves facts about the *result* before anything simulates.

* :mod:`repro.analyze.graph` -- the signal-level dataflow graph
  (combinational edges, register next-state edges, array read/write
  ports) shared by every analysis.
* :mod:`repro.analyze.taint` -- may-carry-taint reachability from the
  tagged inputs: a :class:`TaintCertificate` classifying every signal
  as statically tainted (with a witness path) or statically clean.
* :mod:`repro.analyze.shadow` -- a deliberately independent shadow-tag
  reference interpreter used to pin the soundness contract: any signal
  that ever becomes dynamically tainted must be statically tainted.
* :mod:`repro.analyze.lint` -- the design-lint rule framework behind
  ``python -m repro check`` (:class:`AnalysisFinding`,
  :class:`AnalysisReport`).
"""

from repro.analyze.graph import SignalGraph, array_node, build_graph
from repro.analyze.lint import (
    ANALYSIS_VERSION,
    AnalysisFinding,
    AnalysisReport,
    analyze_design,
    analyze_module,
)
from repro.analyze.shadow import ShadowSimulator
from repro.analyze.taint import (
    TaintCertificate,
    compute_taint,
    default_taint_sources,
)

__all__ = [
    "ANALYSIS_VERSION",
    "SignalGraph",
    "array_node",
    "build_graph",
    "TaintCertificate",
    "compute_taint",
    "default_taint_sources",
    "ShadowSimulator",
    "AnalysisFinding",
    "AnalysisReport",
    "analyze_design",
    "analyze_module",
]
