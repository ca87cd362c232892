"""Corecursive extension of one-fragment proof translation steps.

A step consumes a proof of the source calculus and emits one output
fragment plus the residual source proofs hanging at its glue points.
Extending it corecursively yields the full translation: with
memoization, repeated residuals become back links and regular inputs
close into a finite graph; otherwise (or when the key space blows past
the state budget) the output is a depth-budgeted unfolding with
truncation marks.

One extension keeps every proof it handles in one hash-consed
:class:`~nwproofs.calculus.Arena`, and residuals are views of it.  The
input is copied in and minimized once; each state added later gets its
bisimulation class by a table lookup, which stays exact because a new
state links only to older ones.  A residual's memo key is its root's
class id, so residuals are keyed up to bisimilarity without rebuilding
a canonical form per residual.

Both conditions a step must satisfy are checked while extending, and
only there, in ``_Engine``: every glue point must get a residual that
passes the source checker (condition 2), and every emitted fragment,
paired with the root sequents of its translated residuals, must pass
the target fragment check (condition 1).  The store remembers which
states passed, so each state's fragment is checked against the source
once.  Without closure the output is laid out by the same driver as
:func:`~nwproofs.coalgebra.unfold`, :func:`~nwproofs.coalgebra.unfold_by`,
and :func:`validate_step` is a memo-free extension of one layer.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Hashable, Mapping
from dataclasses import dataclass, field
from typing import Any

from .calculus import (
    Arena,
    CheckReport,
    LocalProgressCalculus,
    ProofGraph,
    check_proof_fragment,
    check_proof_graph,
)
from .coalgebra import BudgetExceeded, Coalgebra, UnfoldBudget, Unfolding, unfold_by
from .trees import EPSILON, TreeNW, Truncation, Word, format_word

StepOutput = tuple[TreeNW, Mapping[Word, ProofGraph]]


@dataclass(frozen=True)
class TranslationStep:
    """One-fragment translation from proofs of ``source`` into ``target``."""

    source: LocalProgressCalculus
    target: LocalProgressCalculus
    apply: Callable[[ProofGraph], StepOutput]
    name: str = "step"


@dataclass(frozen=True)
class StagedStep:
    """Two steps with a switch: run ``first`` until the switch fires on a
    value, then run ``second`` on everything after it."""

    first: TranslationStep
    second: TranslationStep
    switch: Callable[[ProofGraph], bool]
    compat: Callable[[ProofGraph], bool] | None = None

    def __post_init__(self) -> None:
        if self.first.source is not self.second.source or self.first.target is not self.second.target:
            raise ValueError("staged steps must share source and target calculi")


class StepContractViolation(ValueError):
    """A translation step broke one of its two obligations."""

    def __init__(self, condition: int, message: str, report: CheckReport | None = None):
        super().__init__(f"condition {condition}: {message}")
        self.condition = condition
        self.report = report


class CompatibilityViolation(StepContractViolation):
    """The mixed fragment at a stage switch is not a target fragment."""


class NotASourceProof(ValueError):
    """The input of an extension fails the source calculus's check."""


def identity_step(calc: LocalProgressCalculus) -> TranslationStep:
    """The destructor as a step: emit the root fragment, keep the rest."""

    def apply(pg: ProofGraph) -> StepOutput:
        fragment = pg.fragment(pg.root)
        links = pg.links(pg.root)
        return fragment, {w: pg.at(links[w]) for w in fragment.nw_leaves}

    return TranslationStep(calc, calc, apply, name="identity")


@dataclass
class _Emitted:
    fragment: TreeNW
    links: dict[Word, str] = field(default_factory=dict)
    switched: bool = False  # a stage boundary sits above its successors


class _Engine:
    """Shared worker for plain and staged extension.

    Values are (proof, stage) pairs, the proof a view of ``store``; plain
    extension uses stage 0 only.
    """

    def __init__(self, staged: StagedStep | None, step: TranslationStep):
        self.staged = staged
        self.step = step
        self.source = step.source
        self.target = step.target
        self.store = Arena()

    def apply(self, value: tuple[ProofGraph, int]) -> tuple[TreeNW, dict[Word, tuple[ProofGraph, int]], bool]:
        pg, stage = value
        step, nxt, fires = self.step, 0, False
        if self.staged is not None and stage == 0:
            fires = self.staged.switch(pg)
            if fires and self.staged.compat is not None and not self.staged.compat(pg):
                raise CompatibilityViolation(1, f"compatibility predicate rejected {pg!r}")
            nxt = 1 if fires else 0
        elif self.staged is not None:
            step, nxt = self.staged.second, 1
        fragment, parts = step.apply(pg)
        for w in sorted(fragment.nw_leaves):
            if w not in parts:
                raise StepContractViolation(2, f"no residual at leaf {format_word(w)}")
        return fragment, {w: (self.own(p), nxt) for w, p in parts.items()}, fires

    def own(self, pg: ProofGraph) -> ProofGraph:
        """``pg`` as a view of the store; a residual from another graph is
        copied in once, and never one from the built-in steps."""
        return pg if pg.store is self.store else self.store.view(self.store.include(pg))

    def key(self, value: tuple[ProofGraph, int]) -> Hashable:
        pg, stage = value
        return self.store.class_of(pg.root), stage

    def check_value(self, value: tuple[ProofGraph, int], where: str) -> None:
        report = check_proof_graph(self.source, value[0])
        if not report.ok:
            raise StepContractViolation(
                2, f"residual at {where} is not a {self.source.name} proof", report
            )

    def check_fragment(
        self,
        fragment: TreeNW,
        leaf_sequents: Mapping[Word, Any],
        where: str,
        switched: bool,
    ) -> None:
        report = check_proof_fragment(self.target, fragment, leaf_sequents)
        if report.ok:
            return
        cls = CompatibilityViolation if switched else StepContractViolation
        raise cls(1, f"fragment at {where} is not a {self.target.name} fragment", report)


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
    """
    return _run(_Engine(None, step), pg, budget, memo, max_states)


def extend_staged(
    staged: StagedStep,
    pg: ProofGraph,
    budget: UnfoldBudget,
    memo: bool = True,
    max_states: int = 512,
) -> ProofGraph | Unfolding:
    """Extend a staged step, tracking the stage alongside each residual."""
    return _run(_Engine(staged, staged.first), pg, budget, memo, max_states)


def _require_source_proof(step: TranslationStep, pg: ProofGraph) -> None:
    report = check_proof_graph(step.source, pg)
    if not report.ok:
        raise NotASourceProof(f"input is not a {step.source.name} proof:\n{report}")


def _run(engine, pg, budget, memo, max_states):
    root = engine.own(pg)
    _require_source_proof(engine.step, root)
    root_value = (root, 0)
    if memo:
        closed = _close(engine, root_value, max_states)
        if closed is not None:
            return closed
    return _unfold(engine, root_value, budget)


def _close(engine, root_value, max_states) -> ProofGraph | None:
    """Memoized corecursion to a finite graph; None if the key space is
    exhausted before closing."""
    memo: dict[Hashable, str] = {engine.key(root_value): "s0"}
    queue: list[tuple[tuple, str]] = [(root_value, "s0")]
    emitted: dict[str, _Emitted] = {}
    while queue:
        value, sid = queue.pop(0)
        fragment, parts, switched = engine.apply(value)
        out = _Emitted(fragment, switched=switched)
        for w in sorted(fragment.nw_leaves):
            succ = parts[w]
            key = engine.key(succ)
            if key not in memo:
                if len(memo) >= max_states:
                    return None
                name = f"s{len(memo)}"
                memo[key] = name
                engine.check_value(succ, f"state {sid} leaf {format_word(w)}")
                queue.append((succ, name))
            out.links[w] = memo[key]
        emitted[sid] = out
    for sid, out in emitted.items():
        leaf_sequents = {
            w: emitted[t].fragment.label(EPSILON)[0] for w, t in out.links.items()
        }
        engine.check_fragment(out.fragment, leaf_sequents, f"state {sid}", out.switched)
    graph = Coalgebra({sid: (out.fragment, out.links) for sid, out in emitted.items()})
    return ProofGraph(graph, "s0")


def _unfold(engine, root_value, budget) -> Unfolding:
    """Layered translation without closure, through :func:`unfold_by`:
    each value but the root passes the source check before it is
    stepped, truncation marks are named ``t0, t1, ...`` in frontier
    order and carry the translated root labels, and each laid-out
    fragment is then checked against the labels behind its star leaves."""
    stepped: dict[Word, tuple[TreeNW, bool]] = {}

    def destruct(value, at):
        if at != EPSILON:
            engine.check_value(value, f"position {format_word(at)}")
        fragment, parts, switched = engine.apply(value)
        stepped[at] = fragment, switched
        return fragment, parts

    names = (f"t{i}" for i in itertools.count())
    try:
        out = unfold_by(destruct, root_value, budget, lambda _: next(names))
    except BudgetExceeded as err:
        raise BudgetExceeded(f"translated {err}") from None
    for base, (fragment, switched) in stepped.items():
        if base in out.truncations:
            continue
        leaf_sequents = {}
        for w in fragment.nw_leaves:
            child = out.tree.label(base + w)
            leaf_sequents[w] = (child.label if isinstance(child, Truncation) else child)[0]
        engine.check_fragment(fragment, leaf_sequents, f"position {format_word(base)}", switched)
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
