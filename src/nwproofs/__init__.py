"""A proof kernel for regular non-wellfounded sequent proofs.

Proofs live at rest as finite coalgebras (states destructing to a
labelled fragment plus links), are checked fragment by fragment against
a local-progress calculus, and are translated corecursively one
fragment at a time.  The bundled instance is the box-modal calculus of
Grzegorczyk logic with full cut elimination.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Any

# the public names, by the submodule that defines them, in ``__all__`` order
_WHERE = {
    name: module
    for module, names in [
        ("trees", ["STAR", "TreeNW", "Truncation"]),
        ("coalgebra", ["Coalgebra"]),
        ("fftree", ["UnfoldBudget", "Unfolding", "unfold", "FFTree", "construct", "validate_fftree"]),
        ("fftree", ["check_pre_proof", "compute_fragmentation", "progressing"]),
        ("calculus", ["CheckReport", "LocalProgressCalculus", "ProofGraph"]),
        ("calculus", ["check_proof_fragment", "check_proof_graph"]),
        ("store", ["bisim_minimize", "canonical_form", "subproof"]),
        ("translate", ["StepContractViolation", "TranslationStep", "extend"]),
        ("translate", ["identity_step", "validate_step"]),
        ("search", ["SearchBudget", "generate_corpus", "search"]),
    ]
    for name in names
}
__all__ = list(_WHERE)


def _resolve(namespace: dict[str, Any], where: dict[str, str], name: str) -> Any:
    """The ``name`` of a module whose globals are ``namespace``, imported on
    first access from the module ``where`` names, relative to its package,
    and kept in ``namespace``, so that loading one module loads only what
    it uses and each later access is a plain global read."""
    if name not in where:
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
    value = getattr(import_module(f".{where[name]}", namespace["__package__"]), name)
    namespace[name] = value
    return value


def __getattr__(name: str) -> Any:
    return _resolve(globals(), _WHERE, name)


class _Package(ModuleType):
    # Loading a submodule binds it on its package; `search` must stay the
    # function, not become the submodule `nwproofs.search`.
    def __setattr__(self, name: str, value: Any) -> None:
        if name not in _WHERE or not isinstance(value, ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
