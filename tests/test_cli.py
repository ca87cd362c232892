import hashlib
import re
import sys
from pathlib import Path

import pytest

from grzlib import seq, P
from nwproofs.grz import Box
from nwproofs.cli import main
from nwproofs.graphfile import parse_proof_file

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_check_golden_box_step():
    assert main(["check", str(CORPUS / "box_step.proof")]) == 0


def test_check_all_corpus():
    assert main(["check", "--all", str(CORPUS)]) == 0


def test_check_progress_violation_exits_one(tmp_path, capsys):
    bad = """calculus grz
root s0

state s0
  box p0 |- box p0 : box
    link s1
    link s1

state s1
  box p0 |- p0 : refl
    p0, box p0 |- p0 : ax
"""
    path = write(tmp_path, "bad.proof", bad)
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "node 0" in out and "progress" in out


def test_check_counts_only_the_states_it_checked(tmp_path, capsys):
    # s1 is no axiom instance, but the root does not reach it
    text = "calculus grz\nroot s0\n\nstate s0\n  p0 |- p0 : ax\n\nstate s1\n  p1 |- p0 : ax\n"
    path = write(tmp_path, "unreachable.proof", text)
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == f"{path}: ok (1 states, 1 unreachable not checked)\n"
    assert main(["check", str(CORPUS / "box_step.proof")]) == 0
    assert capsys.readouterr().out == f"{CORPUS / 'box_step.proof'}: ok (2 states)\n"


def test_check_malformed_exits_two(tmp_path, capsys):
    path = write(tmp_path, "junk.proof", "calculus grz\nroot s0\nstate s0\n  what : ax\n")
    assert main(["check", path]) == 2


def test_check_duplicate_header_exits_two(tmp_path, capsys):
    # a cut proof must not pass as grz+cut because a later line says so
    text = (CORPUS / "atomic_cut.proof").read_text()
    text = text.replace("calculus grz+cut", "calculus grz\ncalculus grz+cut")
    assert main(["check", write(tmp_path, "twice.proof", text)]) == 2
    assert capsys.readouterr().err == "error: line 2: duplicate calculus header\n"


@pytest.mark.parametrize("command", ["check", "unfold", "cutelim", "translate", "render"])
def test_non_utf8_file_exits_two_with_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "bytes.proof"
    path.write_bytes(b"\xff\xfe")
    argv = [command, str(path)] + (["--step", "identity"] if command == "translate" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


_WRITING = {
    "render": ["render", str(CORPUS / "box_step.proof")],
    "unfold": ["unfold", str(CORPUS / "self_loop.proof")],
    "cutelim": ["cutelim", str(CORPUS / "atomic_cut.proof")],
    "translate": ["translate", str(CORPUS / "self_loop.proof"), "--step", "identity"],
    "search": ["search", "box p0 |- box p0"],
}


@pytest.mark.parametrize("command", sorted(_WRITING))
@pytest.mark.parametrize("target", ["missing_dir/x.out", "."])
def test_unwritable_output_exits_two_with_one_error_line(tmp_path, capsys, command, target):
    out = tmp_path / target
    assert main(_WRITING[command] + ["-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unfold_output(tmp_path, capsys):
    assert main(["unfold", str(CORPUS / "self_loop.proof"), "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert "[root]" in out and "..." in out


def test_cutelim_atomic(tmp_path, capsys):
    out_path = tmp_path / "out.proof"
    code = main(
        ["cutelim", str(CORPUS / "atomic_cut.proof"), "--max-states", "64", "-o", str(out_path)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "closed: yes" in printed
    name, pg = parse_proof_file(out_path.read_text())
    assert name == "grz"
    assert pg.root_sequent == seq([P], [P])
    assert main(["check", str(out_path)]) == 0


def _one_error_line(capsys) -> str:
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_cutelim_rejects_plain_grz_file(capsys):
    assert main(["cutelim", str(CORPUS / "box_step.proof")]) == 2
    assert _one_error_line(capsys) == "error: cutelim expects a grz+cut file, got grz\n"


def test_cut_elim_step_rejects_plain_grz_file(capsys):
    assert main(["translate", str(CORPUS / "box_step.proof"), "--step", "cut-elim"]) == 2
    assert _one_error_line(capsys) == "error: the cut-elim step expects a grz+cut file\n"


def test_check_with_nothing_to_check_exits_two(tmp_path, capsys):
    assert main(["check"]) == 2
    assert _one_error_line(capsys) == "error: nothing to check\n"
    assert main(["check", "--all", str(tmp_path)]) == 2
    assert _one_error_line(capsys) == "error: nothing to check\n"


def test_search_rejects_a_cut_pool_without_cut(capsys):
    # the default calculus, grz, has no cut rule to use the pool with
    assert main(["search", "p0 |- p0", "--cut-formulas", "p0"]) == 2
    assert "--cut-formulas" in _one_error_line(capsys)


def test_cutelim_non_closing_reports(tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    code = main(
        [
            "cutelim",
            str(CORPUS / "boxed_context_cut.proof"),
            "--max-states",
            "1",
            "--depth",
            "3",
            "-o",
            str(out_path),
        ]
    )
    assert code == 0
    assert "closed: no" in capsys.readouterr().out


def test_translate_identity(tmp_path, capsys):
    out_path = tmp_path / "id.proof"
    assert (
        main(["translate", str(CORPUS / "self_loop.proof"), "--step", "identity", "-o", str(out_path)])
        == 0
    )
    assert main(["check", str(out_path)]) == 0


def test_translate_cut_elim(tmp_path):
    out_path = tmp_path / "ce.proof"
    assert (
        main(
            [
                "translate",
                str(CORPUS / "cut_above_loop.proof"),
                "--step",
                "cut-elim",
                "-o",
                str(out_path),
            ]
        )
        == 0
    )
    text = out_path.read_text()
    assert text.startswith("calculus grz\n")
    assert " cut" not in text
    assert main(["check", str(out_path)]) == 0


def test_render_dot(capsys):
    assert main(["render", str(CORPUS / "box_step.proof"), "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph proof")
    assert "cluster_s0" in out


# the renders of every corpus file, as the DOT writer printed them before
# it escaped names; corpus names hold no quote or backslash
CORPUS_RENDERS_DIGEST = "d692a7a918b6dd3297dab4f5010cafb3161298351a85196dd5e4dfb0fbf9c615"


def test_render_escapes_quotes_and_backslashes_in_names(tmp_path, capsys):
    # a state name is any word without spaces, and a rule name any text
    # after " : ", so both can hold a quote or end in a backslash
    text = (CORPUS / "box_step.proof").read_text().replace("s0", 'a"b').replace("s1", "c\\")
    path = write(tmp_path, "names.proof", text)
    assert main(["check", path]) == 0
    capsys.readouterr()
    path = write(tmp_path, "rule.proof", text.replace(": ax\n", ": ax\\\n", 1))
    assert main(["render", path]) == 0
    out = capsys.readouterr().out
    assert 'subgraph "cluster_a\\"b"' in out and '"c\\\\/." [style=dashed]' in out
    assert "\\nax\\\\" in out
    for line in out.splitlines():
        assert re.sub(r"\\.", "", line).count('"') % 2 == 0, line
    digest = hashlib.sha256()
    for corpus_file in sorted(CORPUS.glob("*.proof")):
        assert main(["render", str(corpus_file)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == CORPUS_RENDERS_DIGEST


def test_search_found_and_not_found(tmp_path, capsys):
    assert main(["search", "p0 |- p0", "--height", "4", "--states", "4"]) == 0
    out = capsys.readouterr().out
    assert "calculus grz" in out
    assert main(["search", "|- p0", "--height", "4", "--states", "4"]) == 1


def test_search_with_cut_pool(tmp_path):
    out_path = tmp_path / "s.proof"
    code = main(
        [
            "search",
            "p0 |- p0",
            "--calculus",
            "grz+cut",
            "--cut-formulas",
            "p0; p0 -> p0",
            "-o",
            str(out_path),
        ]
    )
    assert code == 0
    assert main(["check", str(out_path)]) == 0


def test_search_bad_sequent_exits_two(capsys):
    assert main(["search", "p0 ->"]) == 2


def test_cutelim_then_check_over_corpus(tmp_path, capsys):
    for path in sorted(CORPUS.glob("*.proof")):
        if "calculus grz+cut" not in path.read_text():
            continue
        out_path = tmp_path / (path.stem + ".out.proof")
        assert main(["cutelim", str(path), "--max-states", "200", "-o", str(out_path)]) == 0
        if "closed: yes" in capsys.readouterr().out:
            assert main(["check", str(out_path)]) == 0


def test_search_seed_still_valid(tmp_path):
    out_path = tmp_path / "seeded.proof"
    code = main(
        ["search", "box p0 |- box p0", "--seed", "3", "-o", str(out_path)]
    )
    assert code == 0
    assert main(["check", str(out_path)]) == 0


def test_budgets_out_of_range_exit_two(capsys):
    for argv in (
        ["search", "p0 |- p0", "--height", "0"],
        ["search", "p0 |- p0", "--states", "0"],
        ["unfold", str(CORPUS / "self_loop.proof"), "--depth", "0"],
        ["cutelim", str(CORPUS / "atomic_cut.proof"), "--max-nodes", "0"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == "error: budget bounds must be at least 1\n", argv


def test_max_states_out_of_range_exits_two(capsys):
    for bound in ("0", "-3"):
        for argv in (
            ["cutelim", str(CORPUS / "boxed_context_cut.proof"), "--max-states", bound],
            ["translate", str(CORPUS / "self_loop.proof"), "--step", "identity", "--max-states", bound],
        ):
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert (out, err) == ("", "error: budget bounds must be at least 1\n"), argv


# parses, but the axiom has a premise, so it is no grz+cut proof
NOT_A_PROOF = """calculus grz+cut
root s0

state s0
  p0 |- p0 : ax
    link s0
"""


def test_cutelim_on_invalid_proof_exits_one(tmp_path, capsys):
    path = write(tmp_path, "bad.proof", NOT_A_PROOF)
    assert main(["cutelim", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: input is not a grz+cut proof:\n")
    assert "state s0 node . rule: not an instance of ax" in err


def test_translate_on_invalid_proof_exits_one(tmp_path, capsys):
    path = write(tmp_path, "bad.proof", NOT_A_PROOF)
    assert main(["translate", path, "--step", "identity"]) == 1
    assert "not an instance of ax" in capsys.readouterr().err


def test_search_on_too_deeply_nested_goal_exits_two(capsys):
    assert main(["search", "box " * 600 + "p0 |- p0"]) == 2
    assert "nested deeper than 256" in capsys.readouterr().err


def test_search_deeper_than_the_recursion_limit_exits_one(capsys):
    # p0, p0 -> p1, ..., p999 -> p1000 |- p1000 needs a fragment level per
    # implication, more than the interpreter's recursion limit allows
    n = 1000
    goal = ", ".join(["p0"] + [f"p{i} -> p{i + 1}" for i in range(n)]) + f" |- p{n}"
    assert main(["search", goal, "--height", "1005", "--states", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: search to fragment height 1005 hits recursion limit {sys.getrecursionlimit()}\n"


def _cut_permuting_through_a_refl_chain(n: int) -> str:
    # box p2, box p1, box p0 |- p0 by a root cut on p1 whose left premise is
    # n refl steps on box p2, then refl on box p1 and ax on p1: the cut
    # reduction permutes through every level
    ctx = "box p2, box p1, box p0"
    lines = ["calculus grz+cut", "root s0", "", "state s0", f"  {ctx} |- p0 : cut"]
    for d in range(n + 1):
        lines.append("  " * (d + 2) + ", ".join(["p2"] * d + [ctx]) + " |- p0, p1 : refl")
    lines.append("  " * (n + 3) + ", ".join(["p1"] + ["p2"] * n + [ctx]) + " |- p0, p1 : ax")
    lines += [f"    p1, {ctx} |- p0 : refl", f"      p0, p1, {ctx} |- p0 : ax"]
    return "\n".join(lines) + "\n"


def test_cut_reduction_deeper_than_the_recursion_limit_exits_one(tmp_path, capsys):
    path = write(tmp_path, "deep_reduce.proof", _cut_permuting_through_a_refl_chain(600))
    assert main(["check", path]) == 0
    capsys.readouterr()
    assert main(["cutelim", path, "-o", str(tmp_path / "out.proof")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cut reduction hits recursion limit {sys.getrecursionlimit()}\n"


def test_memo_free_cut_reduction_deeper_than_the_recursion_limit_exits_one(tmp_path, capsys):
    # the step's own error, raised before any layout, so without a "translated" prefix
    path = write(tmp_path, "deep_reduce.proof", _cut_permuting_through_a_refl_chain(600))
    assert main(["cutelim", path, "--no-memo", "-o", str(tmp_path / "out.proof")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cut reduction hits recursion limit {sys.getrecursionlimit()}\n"


def test_check_deep_fragment_reports_findings(tmp_path, capsys):
    # one chain of 1,199 nodes: deeper than the interpreter's recursion limit
    depth = 1199
    lines = ["calculus grz", "root s0", "", "state s0"]
    lines += ["  " * (d + 1) + "p0 |- p0 : ax" for d in range(depth)]
    path = write(tmp_path, "deep.proof", "\n".join(lines) + "\n")
    assert main(["check", path]) == 1
    out = capsys.readouterr().out.splitlines()
    # every node but the leaf has a premise, so it is no axiom
    assert len(out) == depth - 1
    assert all(line.endswith("rule: not an instance of ax") for line in out)


def test_deep_cut_free_fragment_passes_every_command(tmp_path, capsys):
    # a refl chain of 1,100 nodes in one fragment, deeper than the
    # interpreter's recursion limit; it is cut free, so every command
    # hands its fragment through unchanged
    depth = 1100
    lines = ["calculus grz+cut", "root s0", "", "state s0"]
    for d in range(depth):
        ante = ", ".join(["p0"] * d + ["box p0"])
        lines.append("  " * (d + 1) + f"{ante} |- p0 : {'refl' if d < depth - 1 else 'ax'}")
    text = "\n".join(lines) + "\n"
    path = write(tmp_path, "deep.proof", text)
    outs = {name: str(tmp_path / name) for name in ("cutelim", "identity", "no-memo", "dot")}

    assert main(["cutelim", path, "-o", outs["cutelim"]]) == 0
    assert main(["translate", path, "--step", "identity", "-o", outs["identity"]]) == 0
    argv = ["translate", path, "--step", "cut-elim", "--no-memo", "-o", outs["no-memo"]]
    assert main(argv) == 0
    assert main(["render", path, "-o", outs["dot"]]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "closed: yes", "states: 1", "closed: yes", "states: 1", "closed: no"
    ]

    printed = Path(outs["cutelim"]).read_text()
    assert printed == text.replace("calculus grz+cut", "calculus grz", 1)
    assert main(["check", outs["cutelim"]]) == 0
    assert Path(outs["identity"]).read_text() == text
    # the unfolding has no glue point, so it is the fragment itself
    unfolded = Path(outs["no-memo"]).read_text().splitlines()
    assert [line.split("  ", 1)[1] for line in unfolded] == [
        line.strip() + (" [root]" if d == 0 else "") for d, line in enumerate(lines[4:])
    ]
    assert Path(outs["dot"]).read_text().count(" -> ") == depth - 1


def test_cut_over_deep_refl_chain_is_eliminated(tmp_path, capsys):
    # a root cut on p1 whose left premise is a refl chain of 400 nodes:
    # the cut measure reads both premises' heights, which must not recurse
    depth = 400
    lines = ["calculus grz+cut", "root s0", "", "state s0", "  box p0 |- p0 : cut"]
    for d in range(depth):
        ante = ", ".join(["p0"] * d + ["box p0"])
        lines.append("  " * (d + 2) + f"{ante} |- p0, p1 : {'refl' if d < depth - 1 else 'ax'}")
    lines += ["    p1, box p0 |- p0 : refl", "      p0, p1, box p0 |- p0 : ax"]
    path = write(tmp_path, "deep_cut.proof", "\n".join(lines) + "\n")
    out = str(tmp_path / "out.proof")

    assert main(["cutelim", path, "-o", out]) == 0
    assert capsys.readouterr().out.splitlines() == ["closed: yes", "states: 1"]
    assert main(["check", out]) == 0
    calculus, pg = parse_proof_file(Path(out).read_text())
    assert calculus == "grz"
    assert pg.root_sequent == seq([Box(P)], [P])


def _chain_ante(d: int) -> str:
    return ", ".join(["p0"] * d + ["box p0"])


def _cut_at_root_over_chain(depth: int) -> list[str]:
    # a root cut on p1 whose left premise is a refl chain
    lines = ["  box p0 |- p0 : cut"]
    for d in range(depth):
        lines.append("  " * (d + 2) + f"{_chain_ante(d)} |- p0, p1 : {'refl' if d < depth - 1 else 'ax'}")
    return lines + ["    p1, box p0 |- p0 : refl", "      p0, p1, box p0 |- p0 : ax"]


def _cut_at_the_bottom_of_a_chain(depth: int) -> list[str]:
    # a refl chain whose deepest node is a cut on p1 between two axioms
    lines = ["  " * (d + 1) + f"{_chain_ante(d)} |- p0 : {'refl' if d < depth - 1 else 'cut'}" for d in range(depth)]
    ante, pad = _chain_ante(depth - 1), "  " * (depth + 1)
    return lines + [f"{pad}{ante} |- p0, p1 : ax", f"{pad}p1, {ante} |- p0 : ax"]


@pytest.mark.parametrize("build", [_cut_at_root_over_chain, _cut_at_the_bottom_of_a_chain])
def test_cut_in_a_fragment_deeper_than_the_recursion_limit_is_eliminated(tmp_path, capsys, build):
    lines = ["calculus grz+cut", "root s0", "", "state s0"] + build(1200)
    path = write(tmp_path, "deep_cut.proof", "\n".join(lines) + "\n")
    out = str(tmp_path / "out.proof")

    assert main(["cutelim", path, "-o", out]) == 0
    assert capsys.readouterr().out.splitlines() == ["closed: yes", "states: 1"]
    assert main(["check", out]) == 0
    calculus, pg = parse_proof_file(Path(out).read_text())
    assert calculus == "grz"  # which has no cut rule
    assert pg.root_sequent == seq([Box(P)], [P])
