"""Benchmark of the nwproofs kernel.

    python3 perfbench/run.py --workload nested|corpus|search --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the kernel is imported from
``src/`` and the golden proofs are read from ``corpus/``.  One client
drives the kernel in a closed loop, one item at a time, in whole passes
over the workload's items until ``--seconds`` of kernel time have been
measured.  Every output is checked outside the timing; a failed check,
an exception or a capped item counts as failed and never stops the run.

``--trace 0`` times the kernel untraced and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics of the traced passes, plus the tracing
overhead.  The last line of standard output is the result object; the
line before it holds details (sample counts, input sizes, per-item
problems, and a digest of every printed output).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import workloads  # noqa: E402
from workloads import Item, Outcome, Workload  # noqa: E402

# Set-up is repeated at least this often and for at least this long;
# the median is reported.  Nested and search set up in about 0.2 s, so
# a fixed handful of repeats would leave the median to timer noise.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
# Tracing slows every call; the search cap grows by this factor in a
# traced pass so that the same items are capped as without tracing.
TRACE_CAP_FACTOR = 3.0
# The tail percentile per workload: the highest that has at least ten
# samples beyond it in a 20 s run at the seed commit (nested: 10 items
# a pass, at least three passes; corpus and search: thousands of
# samples).  Fixed, so that a faster kernel is not charged with a
# higher percentile.
TAIL_PERCENTILE = {"nested": 65.0, "corpus": 99.0, "search": 99.0}


class Capped(BaseException):
    """Raised by the alarm in a capped item; a BaseException so that no
    handler inside the kernel can swallow it."""


def _on_alarm(signum, frame):
    raise Capped()


@dataclass
class Sample:
    label: str
    seconds: float
    error: str | None  # the item raised or hit its cap
    outcome: Outcome  # the check of its output (empty after an error)
    capped: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None or self.outcome.problem is not None


@dataclass
class Pass:
    samples: list[Sample] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.samples)

    @property
    def uncapped_seconds(self) -> float:
        """Kernel time without capped items, whose time is just the cap."""
        return sum(s.seconds for s in self.samples if not s.capped)


def run_item(item: Item, cap_factor: float, tracer=None, verified: Outcome | None = None) -> Sample:
    """Time one item, then check its output: in full, or by comparing
    its rendering with ``verified``, an earlier output that passed."""
    cap = item.cap_s * cap_factor if item.cap_s else 0.0
    error, capped = None, False
    if tracer is not None:
        before = tracer.snapshot()
        tracer.start()
    start = time.perf_counter()
    try:
        if cap:
            signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            result = item.run()
        finally:
            if cap:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except Capped:
        error, capped = "no result within the cap", True
    except Exception as err:  # a kernel error fails the item, not the run
        error = f"raised {type(err).__name__}: {err}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.stop()
    if error is not None:
        if capped and tracer is not None:
            tracer.restore(before)
        return Sample(item.label, elapsed, error, Outcome(), capped)
    try:
        text = item.render(result)
        if verified is not None and verified.problem is None and verified.text == text:
            outcome = verified
        else:
            outcome = replace(item.check(result), text=text)
    except Exception as err:
        outcome = Outcome(f"check raised {type(err).__name__}: {err}")
    return Sample(item.label, elapsed, None, outcome)


def run_pass(wl: Workload, cap_factor: float = 1.0, tracer=None, verified: Pass | None = None) -> Pass:
    refs = [s.outcome for s in verified.samples] if verified else [None] * len(wl.items)
    return Pass([run_item(item, cap_factor, tracer, ref) for item, ref in zip(wl.items, refs)])


def signature(p: Pass) -> list[tuple]:
    """What must repeat exactly from pass to pass and run to run."""
    return [
        (s.label, s.error, s.outcome.problem, s.outcome.closed, s.outcome.states,
         s.outcome.nodes, s.outcome.text)
        for s in p.samples
    ]


def setup(name: str, seed: int) -> tuple[Workload, list[float]]:
    """Import the kernel and build the inputs, several times over; the
    run uses the inputs of the last build."""
    times: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        for mod in [m for m in sys.modules if m == "nwproofs" or m.startswith("nwproofs.")]:
            del sys.modules[mod]
        start = time.perf_counter()
        import nwproofs  # noqa: F401  (timed: the import is part of set-up)

        wl = workloads.build(name, seed, ROOT)
        times.append(time.perf_counter() - start)
    return wl, times


def deterministic_counts(p: Pass, wl: Workload) -> dict[str, float]:
    outcomes = [s.outcome for s in p.samples]
    closable = [o.closed for o in outcomes if o.closed is not None]
    theorems = wl.setup_theorems + [
        not s.failed and bool(s.outcome.closed)
        for item, s in zip(wl.items, p.samples)
        if item.known_theorem
    ]
    return {
        "ok_frac": sum(not s.failed for s in p.samples) / len(p.samples),
        "closed_frac": _share(closable),
        "out_states": sum(o.states for o in outcomes),
        "out_nodes": sum(o.nodes for o in outcomes),
        "solved_frac": _share(theorems),
    }


def _share(flags: list[bool]) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def digest(p: Pass) -> str:
    h = hashlib.sha256()
    for s in p.samples:
        h.update(s.outcome.text.encode())
    return h.hexdigest()


def problems(passes: list[Pass]) -> list[str]:
    seen = []
    for p in passes:
        for s in p.samples:
            note = f"{s.label}: {s.error or s.outcome.problem}"
            if s.failed and note not in seen:
                seen.append(note)
    return seen


def wrong_outputs(passes: list[Pass]) -> int:
    """Outputs that failed their check: these make a run incorrect,
    while errors and capped items only count as failed."""
    return sum(s.outcome.problem is not None for p in passes for s in p.samples)


def measure(name: str, wl: Workload, seconds: float) -> tuple[dict, dict, int, int, bool]:
    passes = [run_pass(wl)]
    while sum(p.seconds for p in passes) < seconds:
        passes.append(run_pass(wl, verified=passes[0]))
    samples = [s for p in passes for s in p.samples]
    attempted = len(samples)
    failed = sum(s.failed for s in samples)
    first = signature(passes[0])
    steady = all(signature(p) == first for p in passes[1:])
    kernel_s = sum(s.seconds for s in samples)
    latencies = sorted(s.seconds * 1e3 for s in samples)
    q = TAIL_PERCENTILE[name]
    cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
    # Throughput is that of the fastest pass: every pass does the same
    # work, and other tenants of the machine only ever slow a pass down.
    metrics = {
        "items_per_s": max(sum(not s.failed for s in p.samples) / p.seconds for p in passes),
        "item_p50_ms": statistics.median(latencies),
        "item_tail_ms": cuts[round(q * 10) - 1],
    }
    metrics.update(deterministic_counts(passes[0], wl))
    detail = {
        "passes": len(passes),
        "pass_s": [p.seconds for p in passes],
        "samples": attempted,
        "tail_percentile": q,
        "samples_beyond_tail": sum(x > metrics["item_tail_ms"] for x in latencies),
        "kernel_s": kernel_s,
        "output_digest": digest(passes[0]),
        "passes_identical": steady,
        "problems": problems(passes),
    }
    return metrics, detail, attempted, failed, steady and not wrong_outputs(passes)


def measure_traced(wl: Workload, seconds: float) -> tuple[dict, dict, int, int, bool]:
    import tracing

    tracer = tracing.Tracer()
    plain: list[Pass] = []
    traced: list[Pass] = []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain.append(run_pass(wl, verified=plain[0] if plain else None))
        # Installed only around traced passes: even idle, the wrappers
        # (formula hashing above all) would slow the untraced ones.
        tracer.install()
        try:
            traced.append(run_pass(wl, TRACE_CAP_FACTOR, tracer, verified=plain[0]))
        finally:
            tracer.uninstall()
    reference = signature(plain[0])
    same = all(signature(p) == reference for p in plain + traced)
    samples = [s for p in traced for s in p.samples]
    failed = sum(s.failed for s in samples)
    untraced_s = statistics.median(p.uncapped_seconds for p in plain)
    traced_s = statistics.median(p.uncapped_seconds for p in traced)
    metrics = tracer.metrics(len(traced))
    metrics["trace.untraced_pass_s"] = untraced_s
    metrics["trace.traced_pass_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    detail = {
        "passes": len(traced),
        "traced_same_as_untraced": same,
        "output_digest": digest(traced[0]),
        "counts": deterministic_counts(traced[0], wl),
        "problems": problems(plain + traced),
    }
    return metrics, detail, len(samples), failed, same and not wrong_outputs(plain + traced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nwproofs" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"perfbench: no nwproofs checkout (src/nwproofs, corpus/) at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGALRM, _on_alarm)

    wl, setup_times = setup(args.workload, args.seed)
    if args.trace:
        metrics, detail, attempted, failed, consistent = measure_traced(wl, args.seconds)
    else:
        metrics, detail, attempted, failed, consistent = measure(args.workload, wl, args.seconds)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail.update(
        workload=args.workload,
        seed=args.seed,
        input_items=len(wl.items),
        input_states=wl.input_states,
        input_proper_nodes=wl.input_nodes,
        setup_s=setup_times,
        search_cap_s=workloads.SEARCH_CAP_S,
    )
    units = unit_table()
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


def unit_table() -> dict[str, str]:
    """Units of every metric name, read from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
