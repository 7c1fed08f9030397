"""parlint: kernel-twin / lowering-contract consistency checks (PAR2xx).

Registered as an analysis-framework pass; run it via ``repro analyze --pass
parlint`` (or ``python -m repro.analysis --pass parlint``).  See
:mod:`repro.analysis.parlint.rules` for the rule catalogue and the model
extraction it performs, and DESIGN.md §7 for the framework.
"""

from repro.analysis.parlint.rules import (
    PARLINT_PASS,
    RULES,
    RULES_BY_ID,
    extract_models,
)

__all__ = [
    "PARLINT_PASS",
    "RULES",
    "RULES_BY_ID",
    "extract_models",
]
