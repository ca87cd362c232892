"""A second, independent checker for Grz and Grz+cut proofs.

It restates the seven rules from their definitions, on
``collections.Counter`` multisets, and walks every reachable state
through the word API of :class:`~nwproofs.trees.TreeNW`: node by node
in word order, each node's premises read off its children.  A glue
point must sit exactly at premise 1 of a box and nowhere else.  It
shares no code with the kernel's checker: it never imports
``nwproofs.calculus``, ``nwproofs.grz.rules`` or ``nwproofs.store``,
so the differential tests in ``test_reference_checker.py`` compare two
walks that can only agree by both being right.

A finding is a tuple ``(state, word, condition, message)`` in the
kernel's order: states breadth first from the root, each state's
successors in leaf-word order, and nodes in word order.
"""

from __future__ import annotations

from collections import Counter

from nwproofs.grz.formulas import Atom, Bot, Box, Imp
from nwproofs.trees import STAR

GRZ_RULES = ("ax", "bot", "impl", "impr", "refl", "box")
GRZ_CUT_RULES = GRZ_RULES + ("cut",)


class Unlabelled(ValueError):
    """A proper node is not labelled with a (sequent, rule) pair."""

    def __init__(self, word):
        super().__init__(f"node {word} is not labelled with (sequent, rule)")
        self.word = word


def _side(mset) -> Counter:
    return Counter({f: n for f, n in mset})


def multisets(sequent) -> tuple[Counter, Counter]:
    """A sequent as its (antecedent, succedent) pair of Counters."""
    return _side(sequent.ante), _side(sequent.succ)


def _plus(c: Counter, f) -> Counter:
    out = Counter(c)
    out[f] += 1
    return out


def _minus(c: Counter, f) -> Counter:
    out = Counter(c)
    out[f] -= 1
    return +out


def _same(a: tuple[Counter, Counter], b: tuple[Counter, Counter]) -> bool:
    return +a[0] == +b[0] and +a[1] == +b[1]


def is_instance(rule: str, premises: tuple, conclusion) -> bool:
    """Is (premises / conclusion) an instance of ``rule``?  Premises and
    conclusion are (antecedent, succedent) Counter pairs."""
    gamma, delta = conclusion
    n = len(premises)
    if rule == "ax":  # p, G |- p, D
        return n == 0 and any(isinstance(f, Atom) and delta[f] > 0 for f in +gamma)
    if rule == "bot":  # false, G |- D
        return n == 0 and gamma[Bot()] > 0
    if rule == "impl":  # G |- A, D and B, G |- D over A -> B, G |- D
        return n == 2 and any(
            _same(premises[0], (rest, _plus(delta, f.left)))
            and _same(premises[1], (_plus(rest, f.right), delta))
            for f in +gamma
            if isinstance(f, Imp)
            for rest in [_minus(gamma, f)]
        )
    if rule == "impr":  # A, G |- B, D over G |- A -> B, D
        return n == 1 and any(
            _same(premises[0], (_plus(gamma, f.left), _plus(_minus(delta, f), f.right)))
            for f in +delta
            if isinstance(f, Imp)
        )
    if rule == "refl":  # A, box A, G |- D over box A, G |- D
        return n == 1 and any(
            _same(premises[0], (_plus(gamma, f.body), delta)) for f in +gamma if isinstance(f, Box)
        )
    if rule == "box":  # G |- A, D and box S |- A (box S within G) over G |- box A, D
        if n != 2:
            return False
        (left0, right0), (left1, right1) = premises
        right1 = +right1
        if sum(right1.values()) != 1:
            return False
        (a,) = right1
        return (
            delta[Box(a)] > 0
            and all(isinstance(f, Box) for f in +left1)
            and all(gamma[f] >= k for f, k in (+left1).items())
            and _same((left0, right0), (gamma, _plus(_minus(delta, Box(a)), a)))
        )
    if rule == "cut":  # G |- A, D and A, G |- D over G |- D
        return n == 2 and any(
            _same(premises[0], (gamma, _plus(delta, f)))
            and _same(premises[1], (_plus(gamma, f), delta))
            for f in +(premises[0][1] - delta)
        )
    return False


def _word(w) -> str:
    return ".".join(str(i) for i in w) if w else "."


def _sequent_rule(label, w):
    if not (isinstance(label, tuple) and len(label) == 2 and isinstance(label[1], str)):
        raise Unlabelled(_word(w))
    return label


def fragment_findings(frag, leaf_sequents, rules, state=None) -> list[tuple]:
    """The findings of one fragment: each proper node in word order is an
    instance of one of ``rules``, and its glue points (star leaves) are
    exactly premise 1 of a box.  Raises
    :class:`Unlabelled` for a proper node without a (sequent, rule)
    label, and KeyError for a star leaf without a sequent."""
    findings = []
    for w in sorted(frag.nodes):
        label = frag.label(w)
        if label is STAR:
            continue
        sequent, rule = _sequent_rule(label, w)
        premises, glue = [], []
        for i in range(frag.arity(w)):
            child = w + (i,)
            lab = frag.label(child)
            if lab is STAR:
                premises.append(leaf_sequents[child])
                glue.append(i)
            else:
                premises.append(_sequent_rule(lab, child)[0])
        if rule not in rules or not is_instance(
            rule, tuple(map(multisets, premises)), multisets(sequent)
        ):
            findings.append((state, w, "rule", f"not an instance of {rule}"))
            continue
        for i in range(len(premises)):
            should = rule == "box" and i == 1
            if (i in glue) != should:
                expect = "a glue point" if should else "an ordinary premise"
                findings.append((state, w + (i,), "progress", f"premise {i} must be {expect}"))
    return findings


def proof_findings(pg, rules) -> list[tuple]:
    """The findings of every state reachable from the root of ``pg``."""
    order, seen = [pg.root], {pg.root}
    for state in order:
        links = pg.links(state)
        for w in sorted(links):
            if links[w] not in seen:
                seen.add(links[w])
                order.append(links[w])
    findings = []
    for state in order:
        links = pg.links(state)
        leaves = {w: pg.fragment(t).label(())[0] for w, t in links.items()}
        findings.extend(fragment_findings(pg.fragment(state), leaves, rules, state))
    return findings
