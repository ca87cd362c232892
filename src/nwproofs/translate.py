"""Corecursive extension of one-fragment proof translation steps.

A step consumes a proof of the source calculus and emits one output
fragment plus the residual source proofs hanging at its glue points.
Extending it corecursively yields the full translation, in one
breadth-first pass that steps each residual once: with memoization,
repeated residuals become back links and regular inputs close into a
finite graph; otherwise (or when the residuals outnumber the state
budget) the pass stops at a depth budget, and its states are laid out
as an unfolding with truncation marks.

One extension keeps every proof it handles in one hash-consed
:class:`~nwproofs.store.Arena`, the carrier of the step's coalgebra: a
step gets a view of a stored state and gives its star leaves, in leaf
order, a tuple of state ids of that store as their residuals.  The
identity step returns the stored destructor itself; a step that builds
a residual elsewhere copies it in with
:meth:`~nwproofs.store.Arena.include`.  The store holds no two
bisimilar states: the input is copied in minimized, and a state added
later is looked up by its fragment and successor ids, which is exact
because a new state links only to stored ones.  A residual's memo key
is its state id, so residuals are keyed up to bisimilarity, and a view
is made once per value checked or stepped.

Both conditions a step must satisfy are checked while extending, and
only there, in ``_Engine``: every glue point, and nothing else, must get
a stored residual that passes the source checker (condition 2), and
every emitted fragment, paired with the root sequents of its translated
residuals, must pass the target fragment check (condition 1), which
admits (sequent, rule) labels and stars only, so a truncation mark or
any other foreign label in a step's fragment breaks it.  Closed outputs are views of the
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
each of its instances with the source's objects.  An unfolding is laid
out by :func:`~nwproofs.fftree.unfold_by`, as
:func:`~nwproofs.fftree.unfold` lays out a machine, and
:func:`validate_step` is a memo-free extension of one layer.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

from .calculus import CalculusError, CheckReport, LocalProgressCalculus, ProofGraph
from .calculus import _is_sequent_rule, check_proof_fragment, recorded_pass
from .coalgebra import BudgetError, BudgetExceeded, Coalgebra, Destructor, StateId
from .fftree import UnfoldBudget, Unfolding, unfold_by
from .store import Arena, check
from .trees import EPSILON, STAR, TreeNW, format_word

StepOutput = Destructor  # a fragment, and a state of the step's store per star leaf


@dataclass(frozen=True)
class TranslationStep:
    """One-fragment translation from proofs of ``source`` into ``target``;
    ``apply(pg)`` returns a fragment and a tuple holding a state of
    ``pg.store`` per star leaf, in leaf order."""

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
        fragment, targets = self.step.apply(pg)
        # the root's sequent is read, as a leaf sequent, before the target check
        if not _is_sequent_rule(fragment.label(EPSILON)):
            raise StepContractViolation(1, "fragment root is not labelled with (sequent, rule)")
        if not isinstance(targets, tuple) or len(targets) > len(fragment._stars):
            raise StepContractViolation(2, "residuals not a tuple, or more residuals than star leaves")
        for i in range(len(fragment._stars)):
            try:
                stored = targets[i] in self.store._states
            except (LookupError, TypeError):  # no residual, or one that is no state id
                stored = False
            if not stored:
                leaf = format_word(fragment.leaf_order[i])
                raise StepContractViolation(2, f"no stored residual at leaf {leaf}")
        return fragment, targets

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

    With ``memo``, returns a closed :class:`ProofGraph` if the translation
    reaches at most ``max_states`` states.  Otherwise returns an
    :class:`Unfolding` of the translated proof, bounded by ``budget``,
    that steps each state once however often it is laid out.  A
    ``max_states`` below 1 raises :class:`BudgetError`.
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
        closed = _corecurse(engine, root, max_states=max_states)
        if closed is not None:
            # every fragment passed its target check, so the output needs no validation
            names, stepped = closed
            emitted = {
                names[k]: (frag, tuple([names[t] for t in ts])) for k, (frag, ts) in stepped.items()
            }
            return ProofGraph._view(Coalgebra.view(emitted), "s0", None)
    _, stepped = _corecurse(engine, root, budget=budget)
    marks = (f"t{i}" for i in itertools.count())
    try:
        return unfold_by(stepped.__getitem__, root.root, budget, lambda _: next(marks))
    except BudgetExceeded as err:
        raise BudgetExceeded(f"translated {err}") from None


def _corecurse(engine, root, max_states=None, budget=None):
    """Breadth-first corecursion from ``root`` over the store's states,
    each its own memo key: a state is source-checked when first reached
    and named ``s0, s1, ...`` in that order, stepped once, and, unless
    cut off, target-checked once.  With ``max_states``, gives the names
    and steps of a closed output, or None once more states are reached.
    With ``budget``, a state first reached at depth ``max_depth`` is cut
    off: stepped for its root label only.  The states stepped may then
    fill ``max_nodes`` nodes: an expanded one its proper nodes, a cut-off
    one a truncation mark; the layout holds at least as many.
    """
    names: dict[StateId, str] = {root.root: "s0"}
    queue: list[tuple[ProofGraph, int]] = [(root, 0)]  # grows while it is walked
    stepped: dict[StateId, StepOutput] = {}
    expanded: list[StateId] = []
    size = 0
    for value, depth in queue:
        key = value.root
        stepped[key] = fragment, targets = engine.apply(value)
        if budget is not None:
            cut_off = depth == budget.max_depth
            size += 1 if cut_off else len(fragment._labels) - len(fragment._stars)
            if size > budget.max_nodes:
                raise BudgetExceeded(f"translated unfolding exceeds {budget.max_nodes} nodes")
            if cut_off:
                continue
        expanded.append(key)
        for i, t in enumerate(targets):
            if t not in names:
                if max_states is not None and len(names) >= max_states:
                    return None
                names[t] = f"s{len(names)}"
                residual = engine.check_value(
                    t, lambda: f"state {names[key]} leaf {format_word(fragment.leaf_order[i])}"
                )
                queue.append((residual, depth + 1))
    roots = {key: fragment._labels[0][0] for key, (fragment, _) in stepped.items()}
    for key in expanded:
        fragment, targets = stepped[key]
        leaves = tuple([roots[t] for t in targets])
        engine.check_fragment(fragment, leaves, lambda: f"state {names[key]}")
    return names, stepped


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
