"""The corecursive extension of a translation step, read literally.

Extending a step over a proof to depth ``d`` applies the step once,
lays out the fragment it emits, and glues at each star leaf, in leaf
order, the extension of that leaf's residual to depth ``d - 1``.  At
depth 0 the step is still applied, and only the root label of its
fragment is shown.  Nothing is memoized, closed or checked: every
position is stepped afresh, a residual is reached through the store's
own ``arena.view(t)``, and fragments are read through the word API of
:class:`~nwproofs.trees.TreeNW`.  It shares no code with
:func:`nwproofs.translate.extend` or :func:`nwproofs.fftree.unfold_by`,
so the differential tests in ``test_reference_translate.py`` compare
two layouts that can only agree by both being right.  :func:`layout`
reads an :class:`~nwproofs.fftree.Unfolding` in the same terms.
"""

from __future__ import annotations

from nwproofs.store import Arena
from nwproofs.trees import EPSILON, STAR, Truncation

CUT_OFF = "cut off"


def reference_unfolding(step, pg, depth: int) -> tuple[dict, set]:
    """The labels of the extension to ``depth`` by word, a cut-off
    position's as ``(CUT_OFF, root label)``, and its block roots."""
    arena = Arena()
    labels: dict = {}
    roots: set = set()

    def grow(state, at, depth):
        fragment, targets = step.apply(arena.view(state))
        roots.add(at)
        if depth == 0:
            labels[at] = (CUT_OFF, fragment.label(EPSILON))
            return
        for w in fragment.nodes:
            if fragment.label(w) is not STAR:
                labels[at + w] = fragment.label(w)
        for w, t in zip(fragment.leaf_order, targets):
            grow(t, at + w, depth - 1)

    grow(arena.include(pg), EPSILON, depth)
    return labels, roots


def layout(out) -> tuple[dict, set]:
    """The labels and block roots of an unfolding, a truncation mark's
    label as ``(CUT_OFF, root label)``, whatever its name."""
    labels = {
        w: ((CUT_OFF, lab.label) if isinstance(lab, Truncation) else lab)
        for w, lab in out.tree.labels().items()
    }
    return labels, set(out.tree.roots())
