"""The trusted checking core loads on its own, and the package
namespaces resolve their public names lazily."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import nwproofs

SRC = Path(nwproofs.__file__).resolve().parents[1]
CORPUS = Path(__file__).resolve().parents[1] / "corpus"

TRUSTED = {
    "nwproofs",
    "nwproofs.cli",
    "nwproofs.trees",
    "nwproofs.coalgebra",
    "nwproofs.calculus",
    "nwproofs.syntax",
    "nwproofs.graphfile",
    "nwproofs.grz",
    "nwproofs.grz.formulas",
    "nwproofs.grz.rules",
}


def _run(code: str, *args: str):
    """Run ``code`` in a fresh interpreter; it prints one JSON value."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


CHECK_CORPUS = """
import contextlib, io, json, sys
import nwproofs.graphfile
from nwproofs.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["check", "--all", sys.argv[1]])
loaded = {m: sys.modules[m].__file__ for m in sys.modules if m.split(".")[0] == "nwproofs"}
lines = sum(len(open(f).read().splitlines()) for f in loaded.values())
print(json.dumps([code, sorted(loaded), lines]))
"""


def test_check_loads_only_the_trusted_modules():
    code, loaded, lines = _run(CHECK_CORPUS, str(CORPUS))
    assert code == 0
    assert set(loaded) <= TRUSTED
    untrusted = ("commands", "fftree", "store", "translate", "search", "grz.admissible", "grz.cutelim")
    for name in untrusted:
        assert f"nwproofs.{name}" not in loaded
    # the trusted base, counted as CI prints it; it may only shrink
    assert lines <= 1_543


FFTREE_ALONE = """
import json, sys
import nwproofs.fftree
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "nwproofs")))
"""


def test_the_unfolding_module_loads_neither_the_checker_nor_the_store():
    # the paper's definitions that read proofs live in tests/paper_defs.py
    loaded = _run(FFTREE_ALONE)
    assert "nwproofs.fftree" in loaded
    assert "nwproofs.calculus" not in loaded
    assert "nwproofs.store" not in loaded


NAMESPACES = """
import json, sys
from importlib import import_module
import nwproofs.grz.rules
rules_only = sorted(m for m in sys.modules if m.startswith("nwproofs.grz."))
import nwproofs.search
from nwproofs import search
import nwproofs.grz
wrong = [
    f"{pkg.__name__}.{name}"
    for pkg in (nwproofs, nwproofs.grz)
    for name in pkg.__all__
    if getattr(pkg, name) is not getattr(import_module(pkg.__name__ + "." + pkg._WHERE[name]), name)
]
print(json.dumps([rules_only, callable(search) and search.__module__, wrong]))
"""


def test_package_names_resolve_lazily_to_their_submodules():
    rules_only, search_module, wrong = _run(NAMESPACES)
    assert rules_only == ["nwproofs.grz.formulas", "nwproofs.grz.rules"]
    # loading the submodule does not shadow the function of the same name
    assert search_module == "nwproofs.search"
    assert wrong == []
