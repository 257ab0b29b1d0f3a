"""Static-analysis *and transform* framework over
:class:`repro.isa.program.Program`.

DARSIE's whole-program guarantee rests on the static marking pass never
over-promoting an instruction to DR (Section 4.2): a definitely-redundant
instruction is *skipped* by follower warps, so a marking that is wrong at
runtime silently corrupts results.  This subpackage provides the
independent machinery to check that, to machine-check kernels people add
before they ever reach the simulator, and — since the melding work — to
*rewrite* programs under the same invariants:

- :mod:`repro.staticlib.cfg` — CFG construction (blocks, branch and
  fallthrough edges, reachability, traversal orders, divergent regions).
  The reverse-postorder walk and the one dominator routine
  (``immediate_dominators``, Cooper-Harvey-Kennedy) live in
  :mod:`repro.isa.program`, which computes reconvergence with them;
- :mod:`repro.staticlib.dataflow` — a generic gen/kill worklist solver;
- :mod:`repro.staticlib.reaching` — reaching definitions and def-use
  chains, including synthetic entry definitions that expose
  read-before-write registers;
- :mod:`repro.staticlib.liveness` — backward liveness;
- :mod:`repro.staticlib.lint` — the kernel linter (divergence hazards,
  uninitialized reads, malformed control flow, Section 4.4 store
  hazards), producing Figure-6-style annotated findings;
- :mod:`repro.staticlib.soundness` — the marking soundness cross-checker:
  replays workloads through :mod:`repro.simt.tracer` and asserts every
  statically-DR instruction is dynamically uniform across all warps of
  every TB;
- :mod:`repro.staticlib.regions` — SESE diamond discovery over the CFG
  (the meldable divergent regions of DARM);
- :mod:`repro.staticlib.meld` — instruction-sequence alignment,
  legality, profitability scoring and the predicated splice emitter;
- :mod:`repro.staticlib.passes` — the :class:`PassManager` pipeline that
  applies melds and refuses any transform the linter or the
  reaching-definitions invariants reject;
- :mod:`repro.staticlib.verify` — the differential harness executing
  melded vs unmelded kernels through the functional executor
  (``python -m repro meld-verify``).

Layering: ``cfg``/``dataflow``/``reaching``/``liveness`` and the
transform stack (``regions``/``meld``/``passes``) depend only on
:mod:`repro.isa`, which imports nothing from here (the compiler pass
itself calls into them); ``lint``, ``soundness`` and ``verify``
additionally consume :mod:`repro.core` and :mod:`repro.simt`.
"""

from repro.isa.program import EXIT_NODE
from repro.staticlib.cfg import ControlFlowGraph
from repro.staticlib.dataflow import solve_gen_kill
from repro.staticlib.lint import RULES, Finding, LintReport, lint_program, lint_workload
from repro.staticlib.liveness import Liveness
from repro.staticlib.meld import (
    DEFAULT_THRESHOLD,
    MeldError,
    MeldPlan,
    MeldRecord,
    align_arms,
    apply_meld,
    check_legality,
    meldable_plans,
    plan_meld,
)
from repro.staticlib.passes import (
    MeldPass,
    PassManager,
    PipelineResult,
    Rejection,
    darm_ideal_pass,
    darm_pass,
    meld_program,
)
from repro.staticlib.reaching import (
    ENTRY_PC,
    Definition,
    ReachingDefinitions,
    UninitializedRead,
    find_uninitialized_reads,
)
from repro.staticlib.regions import Diamond, arm_instructions, find_diamonds
from repro.staticlib.soundness import (
    SoundnessReport,
    SoundnessViolation,
    WorkloadAudit,
    audit_all,
    audit_trace,
    audit_workload,
)
from repro.staticlib.verify import (
    MeldVerifyReport,
    WorkloadMeldCheck,
    verify_all,
    verify_workload,
)

__all__ = [
    # cfg / dataflow
    "EXIT_NODE",
    "ControlFlowGraph",
    "solve_gen_kill",
    # reaching / liveness
    "ENTRY_PC",
    "Definition",
    "ReachingDefinitions",
    "UninitializedRead",
    "find_uninitialized_reads",
    "Liveness",
    # lint
    "RULES",
    "Finding",
    "LintReport",
    "lint_program",
    "lint_workload",
    # soundness
    "SoundnessReport",
    "SoundnessViolation",
    "WorkloadAudit",
    "audit_all",
    "audit_trace",
    "audit_workload",
    # regions / meld / passes (the DARM transform stack)
    "Diamond",
    "arm_instructions",
    "find_diamonds",
    "DEFAULT_THRESHOLD",
    "MeldError",
    "MeldPlan",
    "MeldRecord",
    "align_arms",
    "apply_meld",
    "check_legality",
    "meldable_plans",
    "plan_meld",
    "MeldPass",
    "PassManager",
    "PipelineResult",
    "Rejection",
    "darm_pass",
    "darm_ideal_pass",
    "meld_program",
    # differential verification
    "MeldVerifyReport",
    "WorkloadMeldCheck",
    "verify_all",
    "verify_workload",
]
