"""Grzegorczyk modal logic: formulas, sequent rules, admissible moves,
and cut elimination over regular non-wellfounded proofs."""

from __future__ import annotations

from .. import _forwarder

# the public names, by the submodule that defines them, in ``__all__`` order
_WHERE = {
    name: module
    for module, names in [
        ("formulas", ["Atom", "Bot", "Box", "Formula", "Imp", "Sequent"]),
        ("rules", ["GRZ", "GRZ_CUT"]),
        ("admissible", ["FormulaAbsent", "NotAProof", "weakening", "contr_atom_left"]),
        ("admissible", ["contr_atom_right", "inv_bot_right", "linv_imp_left", "rinv_imp_left"]),
        ("admissible", ["inv_imp_right", "inv_box_right", "local_height"]),
        ("cutelim", ["CutMeasure", "MeasureViolation", "reduce_cut", "cuts_up", "cut_elim"]),
        ("cutelim", ["cut_elimination_step", "rank"]),
    ]
    for name in names
}
__all__ = list(_WHERE)


__getattr__ = _forwarder(globals(), _WHERE)
