"""Hand-built proof graphs and small helpers shared by the test suite."""

from __future__ import annotations

from nwproofs.calculus import ProofGraph
from nwproofs.coalgebra import Coalgebra
from nwproofs.grz import Atom, Bot, Box, Imp, Sequent
from nwproofs.store import PLink, PNode, flatten

P = Atom(0)
Q = Atom(1)


def seq(ante=(), succ=()) -> Sequent:
    return Sequent.of(ante, succ)


def node(sequent, rule, *children) -> PNode:
    return PNode(sequent, rule, tuple(children))


def link(state: str) -> PLink:
    return PLink(state)


def graph(root: str, **states: PNode) -> ProofGraph:
    dest = {}
    for name, nested in states.items():
        frag, links = flatten(nested)
        dest[name] = (frag, links)
    return ProofGraph(Coalgebra(dest), root)


def formulas_up_to(size: int, atoms: int) -> list:
    """Every formula of at most ``size`` symbols over ``atoms`` atoms."""
    by_size = {1: [Bot()] + [Atom(i) for i in range(atoms)]}
    for s in range(2, size + 1):
        out = [Box(f) for f in by_size[s - 1]]
        for left_size in range(1, s - 1):
            out.extend(
                Imp(a, b)
                for a in by_size[left_size]
                for b in by_size[s - 1 - left_size]
            )
        by_size[s] = out
    return [f for group in by_size.values() for f in group]


def criterion_8_goals() -> list[Sequent]:
    """The 2,401 sequents of at most one formula a side, formulas of
    size at most 4 over two atoms, that criterion 8 cross-checks."""
    formulas = formulas_up_to(4, 2)
    goals = [Sequent.of([], [g]) for g in formulas]
    goals += [Sequent.of([f], []) for f in formulas]
    goals += [Sequent.of([f], [g]) for f in formulas for g in formulas]
    goals.append(Sequent.of([], []))
    return goals


def box_chain(n: int) -> Sequent:
    """``|- box^n (p0 -> p0)``, the goal of the nested family."""
    f = Imp(Atom(0), Atom(0))
    for _ in range(n):
        f = Box(f)
    return Sequent.of([], [f])


def ax_graph() -> ProofGraph:
    return graph("s0", s0=node(seq([P], [P]), "ax"))


def box_step_graph() -> ProofGraph:
    """box p |- box p: a box rule whose right premise is a separate state."""
    return graph(
        "s0",
        s0=node(
            seq([Box(P)], [Box(P)]),
            "box",
            node(seq([Box(P)], [P]), "refl", node(seq([P, Box(P)], [P]), "ax")),
            link("s1"),
        ),
        s1=node(seq([Box(P)], [P]), "refl", node(seq([P, Box(P)], [P]), "ax")),
    )


# box(p -> box p) -> p: the antecedent whose box admits only cyclic proofs
A = Imp(Box(Imp(P, Box(P))), P)


def s2_node() -> PNode:
    """A proof of box A |- p that must link back to itself."""
    return node(
        seq([Box(A)], [P]),
        "refl",
        node(
            seq([A, Box(A)], [P]),
            "impl",
            node(
                seq([Box(A)], [Box(Imp(P, Box(P))), P]),
                "box",
                node(
                    seq([Box(A)], [Imp(P, Box(P)), P]),
                    "impr",
                    node(
                        seq([P, Box(A)], [Box(P), P]),
                        "box",
                        node(seq([P, Box(A)], [P, P]), "ax"),
                        link("s2"),
                    ),
                ),
                link("s1"),
            ),
            node(seq([P, Box(A)], [P]), "ax"),
        ),
    )


def s1_node() -> PNode:
    return node(
        seq([Box(A)], [Imp(P, Box(P))]),
        "impr",
        node(
            seq([P, Box(A)], [Box(P)]),
            "box",
            node(seq([P, Box(A)], [P]), "ax"),
            link("s2"),
        ),
    )


def self_loop_graph() -> ProofGraph:
    """A valid proof graph with a genuine cycle (s2 links to itself)."""
    return graph("s2", s2=s2_node(), s1=s1_node())


def grz_axiom_graph() -> ProofGraph:
    """A cyclic proof of box(box(p -> box p) -> p) -> p."""
    return graph(
        "s0",
        s0=node(seq([], [Imp(Box(A), P)]), "impr", s2_node()),
        s1=s1_node(),
        s2=s2_node(),
    )


def atomic_cut_graph() -> ProofGraph:
    return graph(
        "s0",
        s0=node(
            seq([P], [P]),
            "cut",
            node(seq([P], [P, P]), "ax"),
            node(seq([P, P], [P]), "ax"),
        ),
    )


def box_principal_cut_graph() -> ProofGraph:
    """Cut on box p where the left premise ends the box rule and the
    right premise ends reflexivity: the principal-formula case."""
    return graph(
        "s0",
        s0=node(
            seq([Box(P), Q], [Q]),
            "cut",
            node(
                seq([Box(P), Q], [Q, Box(P)]),
                "box",
                node(seq([Box(P), Q], [Q, P]), "ax"),
                link("s1"),
            ),
            node(
                seq([Box(P), Box(P), Q], [Q]),
                "refl",
                node(seq([P, Box(P), Box(P), Q], [Q]), "ax"),
            ),
        ),
        s1=node(seq([Box(P)], [P]), "refl", node(seq([P, Box(P)], [P]), "ax")),
    )


def weakening_part_cut_graph() -> ProofGraph:
    """Cut on the atom q sitting in the weakening parts of two box steps."""
    return graph(
        "s0",
        s0=node(
            seq([Box(P)], [Box(P)]),
            "cut",
            node(
                seq([Box(P)], [Box(P), Q]),
                "box",
                node(
                    seq([Box(P)], [P, Q]),
                    "refl",
                    node(seq([P, Box(P)], [P, Q]), "ax"),
                ),
                link("s1"),
            ),
            node(
                seq([Q, Box(P)], [Box(P)]),
                "box",
                node(
                    seq([Q, Box(P)], [P]),
                    "refl",
                    node(seq([Q, P, Box(P)], [P]), "ax"),
                ),
                link("s1"),
            ),
        ),
        s1=node(seq([Box(P)], [P]), "refl", node(seq([P, Box(P)], [P]), "ax")),
    )


def boxed_context_cut_graph() -> ProofGraph:
    """Cut on box p carried inside the boxed context of the right box:
    forces the residual-cut construction behind the progress edge."""
    pp = Imp(P, P)
    return graph(
        "s0",
        s0=node(
            seq([Box(P)], [Box(pp)]),
            "cut",
            node(
                seq([Box(P)], [Box(pp), Box(P)]),
                "box",
                node(
                    seq([Box(P)], [Box(pp), P]),
                    "refl",
                    node(seq([P, Box(P)], [Box(pp), P]), "ax"),
                ),
                link("s1"),
            ),
            node(
                seq([Box(P), Box(P)], [Box(pp)]),
                "box",
                node(
                    seq([Box(P), Box(P)], [pp]),
                    "impr",
                    node(seq([P, Box(P), Box(P)], [P]), "ax"),
                ),
                link("s2"),
            ),
        ),
        s1=node(seq([Box(P)], [P]), "refl", node(seq([P, Box(P)], [P]), "ax")),
        s2=node(
            seq([Box(P), Box(P)], [pp]),
            "impr",
            node(seq([P, Box(P), Box(P)], [P]), "ax"),
        ),
    )


def cut_above_loop_graph() -> ProofGraph:
    """A cut at the root over the cyclic proof: the right premise is the
    self-looping proof weakened by the cut formula."""
    from nwproofs.store import Arena
    from nwproofs.grz import weakening

    pp = Imp(P, P)
    weakened = weakening(self_loop_graph(), Sequent.of([pp], []))
    arena = Arena()
    root = arena.include(weakened)
    right = arena.materialize(root)
    left = node(
        seq([Box(A)], [P, pp]),
        "impr",
        node(seq([P, Box(A)], [P, P]), "ax"),
    )
    return arena.proof(node(seq([Box(A)], [P]), "cut", (left), right))
