"""Corecursive extension of one-fragment proof translation steps.

A step consumes a proof of the source calculus and emits one output
fragment plus the residual source proofs hanging at its glue points.
Extending it corecursively yields the full translation: with
memoization, repeated residuals become back links and regular inputs
close into a finite graph; otherwise (or when the key space blows past
the state budget) the output is a depth-budgeted unfolding with
truncation marks.

One extension keeps every proof it handles in one hash-consed
:class:`~nwproofs.store.Arena`, the carrier of the step's coalgebra: a
step gets a view of a stored state and gives each star leaf a state id
of that store as its residual.  The identity step returns the stored
destructor itself; a step that builds a residual elsewhere copies it in
with :meth:`~nwproofs.store.Arena.include`.  The input is copied in and
minimized once; each state added later gets its bisimulation class by a
table lookup, which stays exact because a new state links only to older
ones.  A residual's memo key is its class id, so residuals are keyed up
to bisimilarity, and a view is made once per value checked or stepped.

Both conditions a step must satisfy are checked while extending, and
only there, in ``_Engine``: every glue point must get a stored residual
that passes the source checker (condition 2), and every emitted fragment,
paired with the root sequents of its translated residuals, must pass
the target fragment check (condition 1), which admits (sequent, rule)
labels and stars only, so a truncation mark or any other foreign label
in a step's fragment breaks it.  Closed outputs are views of the
emitted fragments, so this is the only check they get.  Source checks
go through the store's cached check, :func:`~nwproofs.store.check`, so
each state's fragment is checked against the source once.  Target
checks use the store's table of what the checker decided with the
target calculus, so a rule instance that repeats across emitted
fragments is matched once.
``_Engine`` alone decides when a source pass stands in for a target
check.  It finds once, when it is made, the rules whose matcher objects
differ between the two calculi; if their types or progress functions
differ, no source pass stands in at all.  A fragment that a step hands
back unchanged, over the same leaf sequents, is then looked up in the
source's table rather than walked again when it uses none of those
rules: always for an identity step, and for cut elimination from
Grz+cut into Grz when it holds no cut, since the target then decides
each of its instances with the source's objects.  Without closure the
output is laid out by the same driver as
:func:`~nwproofs.fftree.unfold`, :func:`~nwproofs.fftree.unfold_by`,
and :func:`validate_step` is a memo-free extension of one layer.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from .calculus import CalculusError, CheckReport, LocalProgressCalculus, ProofGraph
from .calculus import _is_sequent_rule, check_proof_fragment, recorded_pass
from .coalgebra import BudgetError, BudgetExceeded, Coalgebra, StateId
from .fftree import TruncationNotAllowed, UnfoldBudget, Unfolding, unfold_by
from .store import Arena, check
from .trees import EPSILON, STAR, TreeNW, Word, format_word

StepOutput = tuple[TreeNW, Mapping[Word, StateId]]


@dataclass(frozen=True)
class TranslationStep:
    """One-fragment translation from proofs of ``source`` into ``target``;
    ``apply(pg)`` returns a fragment and a state of ``pg.store`` per star leaf."""

    source: LocalProgressCalculus
    target: LocalProgressCalculus
    apply: Callable[[ProofGraph], StepOutput]
    name: str = "step"


class StepContractViolation(ValueError):
    """A translation step broke one of its two obligations."""

    def __init__(self, condition: int, message: str, report: CheckReport | None = None):
        super().__init__(f"condition {condition}: {message}")
        self.condition = condition
        self.report = report


class NotASourceProof(ValueError):
    """The input of an extension fails the source calculus's check."""


def identity_step(calc: LocalProgressCalculus) -> TranslationStep:
    """The destructor as a step: emit the root fragment, keep the rest."""

    def apply(pg: ProofGraph) -> StepOutput:
        return pg.graph._dest[pg.root]  # read, never written

    return TranslationStep(calc, calc, apply, name="identity")


class _Engine:
    """The worker of one extension; a residual is a state of ``store``,
    viewed once, when it is checked.  A check's ``where`` gives the place
    its error names, and is called only on failure."""

    def __init__(self, step: TranslationStep):
        self.step = step
        self.source = source = step.source
        self.target = target = step.target
        self.store = Arena()
        self.decided = self.store.decided(target)  # shared with the store's checks
        self.source_decided = self.store.decided(source)
        # the rules whose matcher objects differ between the two calculi, or
        # None if their types or progress functions differ: a fragment that
        # uses none of them has each instance decided by the same objects
        self.differing: frozenset[str] | None = None
        if type(source) is type(target) and source.progress is target.progress:
            self.differing = frozenset(
                rule
                for rule in source.rules.keys() | target.rules.keys()
                if source.rules.get(rule) is not target.rules.get(rule)
            )

    def apply(self, pg: ProofGraph) -> StepOutput:
        fragment, links = self.step.apply(pg)
        # the root's sequent is read, as a leaf sequent, before the target check
        if not _is_sequent_rule(fragment.label(EPSILON)):
            raise StepContractViolation(1, "fragment root is not labelled with (sequent, rule)")
        for w in fragment.leaf_order:
            try:
                stored = links[w] in self.store._states
            except (KeyError, TypeError):  # no residual, or one that is no state id
                stored = False
            if not stored:
                raise StepContractViolation(2, f"no stored residual at leaf {format_word(w)}")
        return fragment, links

    def check_value(self, state: StateId, where: Callable[[], str]) -> ProofGraph:
        """The view of a residual that passes the source check."""
        pg = self.store.view(state)
        try:
            report = check(self.source, pg)
        except CalculusError as err:
            raise StepContractViolation(2, f"residual at {where()}: {err}") from None
        if not report.ok:
            raise StepContractViolation(
                2, f"residual at {where()} is not a {self.source.name} proof", report
            )
        return pg

    def check_fragment(self, fragment: TreeNW, leaves: tuple, where: Callable[[], str]) -> None:
        """The target check of an emitted fragment over its leaf sequents,
        in leaf order.  A pass the source check recorded stands in for the
        walk when the fragment uses no rule in ``differing``."""
        differing = self.differing
        if differing is not None and recorded_pass(self.source_decided, fragment, leaves):
            # a recorded pass has (sequent, rule) labels and stars only
            if not differing or differing.isdisjoint(
                [label[1] for label in fragment._labels if label is not STAR]
            ):
                return
        try:
            report = check_proof_fragment(self.target, fragment, leaves, decided=self.decided)
        except CalculusError as err:
            raise StepContractViolation(1, f"fragment at {where()}: {err}") from None
        if not report.ok:
            raise StepContractViolation(
                1, f"fragment at {where()} is not a {self.target.name} fragment", report
            )


def extend(
    step: TranslationStep,
    pg: ProofGraph,
    budget: UnfoldBudget,
    memo: bool = True,
    max_states: int = 512,
) -> ProofGraph | Unfolding:
    """Extend a step over a whole proof.

    Returns a closed :class:`ProofGraph` when memoization finds a finite
    set of residual keys within ``max_states``; otherwise a truncated
    :class:`Unfolding` of the translated proof, bounded by ``budget``.
    A ``max_states`` below 1 raises :class:`BudgetError`.
    """
    if max_states < 1:
        raise BudgetError("budget bounds must be at least 1")
    engine = _Engine(step)
    root = engine.store.view(engine.store.include(pg))
    try:
        report = check(step.source, root)
    except CalculusError as err:
        raise NotASourceProof(f"input is not a {step.source.name} proof:\n{err}") from None
    if not report.ok:
        raise NotASourceProof(f"input is not a {step.source.name} proof:\n{report}")
    if memo:
        closed = _close(engine, root, max_states)
        if closed is not None:
            return closed
    return _unfold(engine, root, budget)


def _close(engine, root, max_states) -> ProofGraph | None:
    """Memoized corecursion to a finite graph; None if the key space is
    exhausted before closing.  A residual's key is its class id in the
    store's class table."""
    classes = engine.store._class  # read, never written
    memo: dict[int, str] = {classes[root.root]: "s0"}
    queue: list[tuple[ProofGraph, str]] = [(root, "s0")]  # grows while it is walked
    emitted: dict[str, tuple[TreeNW, dict[Word, str]]] = {}
    for value, sid in queue:
        fragment, links = engine.apply(value)
        out = {}
        for w in fragment.leaf_order:
            key = classes[links[w]]
            if key not in memo:
                if len(memo) >= max_states:
                    return None
                memo[key] = name = f"s{len(memo)}"
                residual = engine.check_value(links[w], lambda: f"state {sid} leaf {format_word(w)}")
                queue.append((residual, name))
            out[w] = memo[key]
        emitted[sid] = (fragment, out)
    roots = {sid: fragment._labels[0][0] for sid, (fragment, _) in emitted.items()}
    for sid, (fragment, out) in emitted.items():
        leaves = tuple([roots[t] for t in out.values()])  # links run in leaf order
        engine.check_fragment(fragment, leaves, lambda: f"state {sid}")
    # every fragment passed its target check, which admits (sequent, rule)
    # labels and stars only, and has links covering its star leaves exactly,
    # so it needs no second validation
    return ProofGraph._view(Coalgebra.view(emitted), "s0", None)


def _unfold(engine, root, budget) -> Unfolding:
    """Layered translation without closure, through :func:`unfold_by`:
    each value but the root passes the source check before it is
    stepped, truncation marks are named ``t0, t1, ...`` in frontier
    order and carry the translated root labels, and each laid-out
    fragment is then checked against the root labels of the fragments
    stepped at its star leaves, cut-off ones included."""
    stepped: dict[Word, TreeNW] = {}

    def destruct(value, at):
        if at != EPSILON:
            value = engine.check_value(value, lambda: f"position {format_word(at)}")
        fragment, links = engine.apply(value)
        stepped[at] = fragment
        return fragment, links

    names = (f"t{i}" for i in itertools.count())
    try:
        out = unfold_by(destruct, root, budget, lambda _: next(names))
    except BudgetExceeded as err:
        raise BudgetExceeded(f"translated {err}") from None
    except TruncationNotAllowed as err:  # a step fragment holds one on an inner node
        raise StepContractViolation(1, str(err)) from None
    for base, fragment in stepped.items():
        if base not in out.truncations:
            leaves = tuple([stepped[base + w]._labels[0][0] for w in fragment.leaf_order])
            engine.check_fragment(fragment, leaves, lambda: f"position {format_word(base)}")
    return out


@dataclass(frozen=True)
class StepFinding:
    index: int
    condition: int
    message: str


@dataclass
class StepReport:
    checked: int = 0
    findings: list[StepFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def validate_step(step: TranslationStep, corpus: list[ProofGraph]) -> StepReport:
    """Check both step obligations for one application per corpus proof:
    a memo-free extension of one layer, reporting the first broken
    obligation per member (condition 0: the member is no source proof)."""
    report = StepReport()
    for i, pg in enumerate(corpus):
        report.checked += 1
        try:
            extend(step, pg, UnfoldBudget(1), memo=False)
        except NotASourceProof as err:
            report.findings.append(StepFinding(i, 0, str(err)))
        except StepContractViolation as err:
            report.findings.append(StepFinding(i, err.condition, str(err)))
    return report
