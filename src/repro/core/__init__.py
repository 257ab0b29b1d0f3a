"""DARSIE core: the paper's primary contribution.

- :mod:`repro.core.taxonomy` — the marking lattice used by the compiler
  pass.
- :mod:`repro.core.compiler_pass` — static DR/CR/VEC marking (Section 4.2).
- :mod:`repro.core.promotion` — kernel-launch-time promotion of
  conditionally redundant markings (Section 4.2).
- :mod:`repro.core.skip_table`, :mod:`repro.core.rename`,
  :mod:`repro.core.coalescer`, :mod:`repro.core.majority` — the hardware
  structures of Section 4.3.
- :mod:`repro.core.darsie` — the fetch-stage instruction skipper tying
  the structures together (Sections 4.1, 4.3.5, 4.4, 4.5).
- :mod:`repro.core.area` — the Section 6.3 area estimate.
"""

from repro.core.area import AreaModel, paper_area_model
from repro.core.coalescer import PCCoalescer
from repro.core.compiler_pass import (
    CompilerAnalysis,
    UninitializedReadError,
    UninitializedReadWarning,
    analyze_program,
)
from repro.core.darsie import DarsieConfig, DarsieFrontend
from repro.core.majority import MajorityPathMask
from repro.core.promotion import promote_markings, promotion_applies, promotion_applies_y
from repro.core.rename import RegisterRenameUnit, RenameError
from repro.core.skip_table import PCSkipTable, SkipTableEntry
from repro.core.taxonomy import Marking

__all__ = [
    "Marking",
    "CompilerAnalysis",
    "analyze_program",
    "UninitializedReadError",
    "UninitializedReadWarning",
    "promote_markings",
    "promotion_applies",
    "promotion_applies_y",
    "PCSkipTable",
    "SkipTableEntry",
    "RegisterRenameUnit",
    "RenameError",
    "PCCoalescer",
    "MajorityPathMask",
    "DarsieConfig",
    "DarsieFrontend",
    "AreaModel",
    "paper_area_model",
]
