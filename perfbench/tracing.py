"""Per-layer tracing from outside the kernel.

:class:`Tracer` wraps public functions of ``nwproofs`` at every place
they are bound: each module that imported the name (``from .calculus
import check_proof_graph`` makes a second binding in ``translate``),
the rule tables of ``GRZ`` and ``GRZ_CUT``, and the classes whose
methods are traced.  A missed binding would read as a silent zero, so
the benchmark's own test asserts a non-zero call count for every
traced function on the workload predicted to use it.

Each call is a span (name, start, end, parent).  Spans are folded into
per-name totals as they close instead of being kept: a pass makes
millions of rule-matcher calls.  Self time is a span's duration minus
the time covered by its child spans; inclusive time counts only the
outermost call of a recursive function.  Formula hashing and
``madd`` are counted, not timed.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, Callable

# (module, attribute path, metric name)
SPANS = [
    ("nwproofs.calculus", "check_proof_graph", "calculus.check_proof_graph"),
    ("nwproofs.calculus", "check_proof_fragment", "calculus.check_proof_fragment"),
    ("nwproofs.calculus", "ProofGraph.__init__", "calculus.ProofGraph.init"),
    ("nwproofs.calculus", "ProofGraph.pruned", "calculus.ProofGraph.pruned"),
    ("nwproofs.coalgebra", "canonical_form", "coalgebra.canonical_form"),
    ("nwproofs.coalgebra", "bisim_minimize", "coalgebra.bisim_minimize"),
    ("nwproofs.coalgebra", "unfold", "coalgebra.unfold"),
    ("nwproofs.translate", "extend", "translate.extend"),
    ("nwproofs.fftree", "FFTree.__init__", "fftree.FFTree.init"),
    ("nwproofs.grz.cutelim", "cuts_up", "grz.cutelim.cuts_up"),
] + [
    ("nwproofs.grz.admissible", name, f"grz.admissible.{name}")
    for name in (
        "weaken_tree",
        "contract_left_tree",
        "contract_right_tree",
        "drop_bot_tree",
        "linv_tree",
        "rinv_tree",
        "inv_imp_right_tree",
        "inv_box_right_tree",
    )
] + [
    ("nwproofs.graphfile", "parse_proof_file", "graphfile.parse_proof_file"),
    ("nwproofs.graphfile", "print_proof_file", "graphfile.print_proof_file"),
    ("nwproofs.syntax", "parse_sequent", "syntax.parse_sequent"),
    ("nwproofs.search", "search", "search.search"),
]

RULE_PREFIX = "grz.rules."
FORMULA_CLASSES = ("Atom", "Bot", "Imp", "Box")

# Metrics beyond .calls/.s/.self_s of each span
EXTRAS = (
    "calculus.check_proof_graph.states",
    "coalgebra.canonical_form.key_states",
    "translate.memo_hit_ratio",
    "grz.cutelim.cuts_up.cuts_in",
    "graphfile.print_proof_file.bytes",
    "search.search.found",
    "grz.formulas.hash_calls",
    "grz.formulas.madd.calls",
)


def rule_span_names() -> list[str]:
    from nwproofs.grz.rules import GRZ, GRZ_CUT

    fns = {fn.__name__ for calc in (GRZ, GRZ_CUT) for fn in calc.rules.values()}
    return [RULE_PREFIX + name for name in sorted(fns)]


def span_names() -> list[str]:
    return [name for _, _, name in SPANS] + rule_span_names()


class _Stat:
    __slots__ = ("calls", "total", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Install with :meth:`install`, then trace only between
    :meth:`start` and :meth:`stop`, so output checks go uncounted."""

    def __init__(self) -> None:
        self.active = False
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._undo: list[Callable[[], None]] = []
        self._canon_in_extend = 0
        self._extend_states = 0

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    # -- wrapping ---------------------------------------------------------

    def _span(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            children = [0.0]
            stack.append(children)
            stat.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - children[0]
                if stat.depth == 0:
                    stat.total += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)
        tracer = self

        def counted(*args: Any, **kwargs: Any) -> Any:
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _rebind_everywhere(self, original: Any, wrapper: Any) -> None:
        """Point every module-level binding of ``original`` at ``wrapper``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "nwproofs" or modname.startswith("nwproofs.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        old = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _set_item(self, table: dict, key: Any, value: Any) -> None:
        old = table[key]
        table[key] = value
        self._undo.append(lambda: table.__setitem__(key, old))

    def install(self) -> None:
        import importlib

        for modname, path, name in SPANS:
            module = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            hooks = self._hooks(name)
            if owner_name:
                owner = getattr(module, owner_name)
                self._set(owner, attr, self._span(name, getattr(owner, attr), *hooks))
            else:
                original = getattr(module, attr)
                self._rebind_everywhere(original, self._span(name, original, *hooks))

        rules = importlib.import_module("nwproofs.grz.rules")
        wrapped: dict[Callable, Callable] = {}
        for table in (rules.GRZ.rules, rules.GRZ_CUT.rules):
            for key, fn in list(table.items()):
                if fn not in wrapped:
                    wrapped[fn] = self._span(RULE_PREFIX + fn.__name__, fn)
                    self._rebind_everywhere(fn, wrapped[fn])
                self._set_item(table, key, wrapped[fn])

        formulas = importlib.import_module("nwproofs.grz.formulas")
        for cls_name in FORMULA_CLASSES:
            cls = getattr(formulas, cls_name)
            self._set(cls, "__hash__", self._counter("grz.formulas.hash_calls", cls.__hash__))
        self._rebind_everywhere(
            formulas.madd, self._counter("grz.formulas.madd.calls", formulas.madd)
        )
        for extra in EXTRAS:
            self.counts.setdefault(extra, 0)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def snapshot(self) -> tuple:
        return (
            {name: (s.calls, s.total, s.self_s) for name, s in self.stats.items()},
            dict(self.counts),
            self._canon_in_extend,
            self._extend_states,
        )

    def restore(self, snap: tuple) -> None:
        """Forget what was recorded since ``snap``: used for items stopped
        by their cap, whose call counts depend on how fast the machine is."""
        stats, counts, self._canon_in_extend, self._extend_states = snap
        for name, stat in self.stats.items():
            stat.calls, stat.total, stat.self_s = stats.get(name, (0, 0.0, 0.0))
        self.counts.update(counts)

    # -- per-call extras, recorded outside the span's timing ---------------

    def _hooks(self, name: str):
        """(before, after) for a span: ``before(args)`` returns a token
        that ``after(args, result, token)`` receives."""
        counts = self.counts
        if name == "calculus.check_proof_graph":
            def after(args, result, _):
                counts["calculus.check_proof_graph.states"] += len(args[1].states)
        elif name == "coalgebra.canonical_form":
            def after(args, result, _):
                counts["coalgebra.canonical_form.key_states"] += len(result)
        elif name == "grz.cutelim.cuts_up":
            def after(args, result, _):
                from nwproofs.grz.rules import CUT

                frag = args[0].fragment(args[0].root)
                counts["grz.cutelim.cuts_up.cuts_in"] += sum(
                    1 for w in frag.proper_nodes if frag.label(w)[1] == CUT
                )
        elif name == "graphfile.print_proof_file":
            def after(args, result, _):
                counts["graphfile.print_proof_file.bytes"] += len(result.encode())
        elif name == "search.search":
            def after(args, result, _):
                counts["search.search.found"] += result is not None
        elif name == "translate.extend":
            return self._canon_calls, self._after_extend
        else:
            return None, None
        return None, after

    def _canon_calls(self, args) -> int:
        return self.stats["coalgebra.canonical_form"].calls

    def _after_extend(self, args, result, canon_before: int) -> None:
        # memo_hit_ratio = 1 - output states / canonical_form calls, over
        # the extends that closed into a graph.
        from nwproofs.calculus import ProofGraph

        if isinstance(result, ProofGraph):
            self._extend_states += len(result.states)
            self._canon_in_extend += self._canon_calls(args) - canon_before

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values of every per-layer metric."""
        out: dict[str, float] = {}
        for name in span_names():
            stat = self.stats.get(name, _Stat())
            out[f"{name}.calls"] = stat.calls / passes
            out[f"{name}.s"] = stat.total / passes
            out[f"{name}.self_s"] = stat.self_s / passes
        for name, value in self.counts.items():
            out[name] = value / passes
        canon = self._canon_in_extend
        out["translate.memo_hit_ratio"] = 1 - self._extend_states / canon if canon else 0.0
        return out
