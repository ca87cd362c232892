"""Self-test of the benchmark: tracing coverage, traced/untraced
agreement, determinism, and refusal outside a checkout.

    python -m pytest perfbench -q

Each workload is run once traced and once untraced in subprocesses with
different hash seeds, one pass each, which takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

RULES = [f"grz.rules.match_{r}" for r in ("ax", "bot", "box", "cut", "imp_left", "imp_right", "refl")]
NESTED_RULES = [f"grz.rules.match_{r}" for r in ("ax", "box", "cut", "imp_right")]
ADMISSIBLE = [
    f"grz.admissible.{name}"
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
]
COUNTED = ["grz.formulas.hash_calls", "grz.formulas.madd.calls"]

# Per-layer metrics that must be non-zero on the workload predicted to
# exercise them, and the ones predicted to be bypassed there.
USED = {
    "nested": [
        "calculus.check_proof_graph.calls",
        "calculus.check_proof_graph.states",
        "calculus.check_proof_fragment.calls",
        "calculus.ProofGraph.init.calls",
        "calculus.ProofGraph.pruned.calls",
        "coalgebra.canonical_form.calls",
        "coalgebra.canonical_form.key_states",
        "coalgebra.bisim_minimize.calls",
        "translate.extend.calls",
        "translate.memo_hit_ratio",
        "grz.cutelim.cuts_up.calls",
        "grz.cutelim.cuts_up.cuts_in",
    ]
    + [f"{r}.calls" for r in NESTED_RULES]
    + COUNTED,
    "corpus": [
        "coalgebra.unfold.calls",
        "fftree.FFTree.init.calls",
        "graphfile.parse_proof_file.calls",
        "graphfile.print_proof_file.calls",
        "graphfile.print_proof_file.bytes",
        "syntax.parse_sequent.calls",
        "translate.extend.calls",
        "grz.cutelim.cuts_up.calls",
        "grz.cutelim.cuts_up.cuts_in",
    ]
    + [f"{f}.calls" for f in ADMISSIBLE + RULES]
    + COUNTED,
    "search": ["search.search.calls", "search.search.found", "calculus.check_proof_graph.calls"]
    + [f"{r}.calls" for r in RULES if r != "grz.rules.match_cut"]
    + COUNTED,
}
BYPASSED = {
    "nested": [
        "coalgebra.unfold.calls",
        "fftree.FFTree.init.calls",
        "graphfile.parse_proof_file.calls",
        "graphfile.print_proof_file.calls",
        "syntax.parse_sequent.calls",
        "search.search.calls",
    ],
    "corpus": ["search.search.calls"],
    "search": ["translate.extend.calls", "coalgebra.canonical_form.calls"],
}
COUNTS = ["ok_frac", "closed_frac", "out_states", "out_nodes", "solved_frac"]


def _run(workload: str, trace: int, hash_seed: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def _parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def runs(request):
    name = request.param
    return name, _parse(_run(name, 1, "0")), _parse(_run(name, 0, "1"))


def test_trace_reaches_every_predicted_layer(runs):
    name, (detail, traced), _ = runs
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert not [m for m in USED[name] if not metrics[m] > 0]
    assert not [m for m in BYPASSED[name] if metrics[m] != 0]
    assert metrics["trace.overhead_s"] == (
        metrics["trace.traced_pass_s"] - metrics["trace.untraced_pass_s"]
    )


def test_traced_run_agrees_with_untraced_run(runs):
    name, (tdetail, traced), (udetail, untraced) = runs
    assert traced["correct"] and untraced["correct"]
    assert tdetail["traced_same_as_untraced"]
    assert tdetail["output_digest"] == udetail["output_digest"]
    assert tdetail["counts"] == {k: untraced["metrics"][k]["value"] for k in COUNTS}
    assert (traced["attempted"], traced["failed"]) == (untraced["attempted"], untraced["failed"])


def test_failures_are_exactly_the_capped_known_defects(runs):
    name, _, (detail, untraced) = runs
    capped = [
        f"grz axiom at ({h},{s}): no result within the cap"
        for h, s in workloads.GRZ_AXIOM_BUDGETS[1:]
    ]
    assert detail["problems"] == (capped if name == "search" else [])
    assert untraced["failed"] == len(detail["problems"])


def test_same_seed_gives_identical_counts_and_outputs(runs):
    name = runs[0]
    first = runs[1]
    second = _parse(_run(name, 1, "2"))
    assert second[0]["output_digest"] == first[0]["output_digest"]
    assert second[0]["counts"] == first[0]["counts"]
    calls = lambda r: {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
    assert calls(second[1]) == calls(first[1])


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("corpus", 0, "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_known_theorem_status():
    from nwproofs.grz.formulas import Atom, Bot, Box, Imp, Sequent

    p, q = Atom(0), Atom(1)
    assert workloads._status(Sequent.of([], [Imp(p, p)])) is True
    assert workloads._status(Sequent.of([Box(p)], [Box(p)])) is True
    assert workloads._status(Sequent.of([Bot()], [Box(q)])) is True
    assert workloads._status(Sequent.of([], [p])) is False
    assert workloads._status(Sequent.of([Box(p)], [q])) is False
    assert workloads._status(Sequent.of([Box(p)], [p])) is None
