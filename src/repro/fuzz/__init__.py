"""Differential random-kernel fuzzer (ROADMAP: workload frontier).

The marking-soundness checker and the meld verifier only exercise the
sixteen hand-written workloads; this package turns them into a standing
adversary.  :mod:`repro.fuzz.generate` draws well-formed DSL kernels
over the full opcode surface with hypothesis, :mod:`repro.fuzz.oracles`
runs each candidate through a stack of differential oracles, and
:mod:`repro.fuzz.driver` wires both into ``python -m repro fuzz`` with
shrinking and a committed counterexample corpus (``tests/corpus/``).
"""

from repro.fuzz.spec import KernelSpec, build_fuzz_workload, corpus_specs, load_spec
from repro.fuzz.oracles import (
    ORACLES,
    OracleFailure,
    check_spec,
    oracle_functional_end_state,
    oracle_marking_soundness,
    oracle_meld,
    oracle_never_sleep,
)
from repro.fuzz.driver import (
    FuzzReport,
    fuzz_campaign,
    generator_health,
    replay_corpus,
    save_failure,
)

__all__ = [
    "KernelSpec",
    "build_fuzz_workload",
    "corpus_specs",
    "load_spec",
    "ORACLES",
    "OracleFailure",
    "check_spec",
    "oracle_functional_end_state",
    "oracle_marking_soundness",
    "oracle_meld",
    "oracle_never_sleep",
    "FuzzReport",
    "fuzz_campaign",
    "generator_health",
    "replay_corpus",
    "save_failure",
]
