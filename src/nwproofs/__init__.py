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
from typing import Any, Callable

# the public names, by the submodule that defines them, in ``__all__`` order
_WHERE = {
    name: module
    for module, names in [
        ("trees", ["STAR", "TreeNW", "Truncation"]),
        ("coalgebra", ["Coalgebra"]),
        ("fftree", ["UnfoldBudget", "Unfolding", "unfold", "FFTree"]),
        ("calculus", ["CheckReport", "LocalProgressCalculus", "ProofGraph"]),
        ("calculus", ["check_proof_fragment", "check_proof_graph"]),
        ("store", ["bisim_minimize", "canonical_form"]),
        ("translate", ["StepContractViolation", "TranslationStep", "extend"]),
        ("translate", ["identity_step", "validate_step"]),
        ("search", ["SearchBudget", "generate_corpus", "search"]),
    ]
    for name in names
}
__all__ = list(_WHERE)


def _forwarder(namespace: dict[str, Any], where: dict[str, str]) -> Callable[[str], Any]:
    """The ``__getattr__`` of the module whose globals are ``namespace``: it
    imports each name in ``where`` on first access from the module named
    there and keeps it, so loading one module loads only what it uses.  A
    dunder such as ``__path__``, which every ``from`` import probes for, fails fast."""

    def __getattr__(name: str) -> Any:
        if name not in where:
            if name[:2] == "__":
                raise AttributeError(name)
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        namespace[name] = getattr(import_module(f".{where[name]}", namespace["__package__"]), name)
        return namespace[name]

    return __getattr__


__getattr__ = _forwarder(globals(), _WHERE)


class _Package(ModuleType):
    # Loading a submodule binds it on its package; `search` must stay the
    # function, not become the submodule `nwproofs.search`.
    def __setattr__(self, name: str, value: Any) -> None:
        if name not in _WHERE or not isinstance(value, ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
