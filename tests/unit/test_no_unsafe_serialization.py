"""Lint gate: no pickle anywhere in the package.

``pickle.loads`` on network bytes is arbitrary code execution; the binary
wire codec exists so nothing on the transport path ever needs pickle, and
nothing else under ``src/repro/`` does either, so the fence covers the whole
package.  The one-release ``--unsafe-pickle`` escape hatch is gone; the
codec is the only framing there is.

The ban is enforced on the AST (imports of the pickle family), so prose
mentions in docstrings don't trip it; CI additionally runs a grep over
non-comment lines as a fast pre-pytest check.
"""

from __future__ import annotations

import ast
import pathlib

FENCED_TREES = ("src/repro",)
BANNED_MODULES = frozenset({"pickle", "cPickle", "dill", "shelve", "marshal"})
_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _banned_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]]
        else:
            continue
        for name in names:
            if name in BANNED_MODULES:
                offenders.append(
                    f"{path.relative_to(_REPO_ROOT)}:{node.lineno}: "
                    f"imports {name}")
    return offenders


def test_no_pickle_under_the_package():
    offenders = []
    for tree in FENCED_TREES:
        for path in sorted((_REPO_ROOT / tree).rglob("*.py")):
            offenders.extend(_banned_imports(path))
    assert not offenders, (
        "unsafe serialisers are banned under src/repro (network bytes "
        "must never reach pickle.loads); use the wire codec:\n"
        + "\n".join(offenders))


def test_escape_hatch_is_gone():
    assert not (_REPO_ROOT / "src/repro/runtime/unsafe_pickle.py").exists()
    for tree in ("src/repro", "tests", "benchmarks", "examples"):
        for path in sorted((_REPO_ROOT / tree).rglob("*.py")):
            if path == pathlib.Path(__file__).resolve():
                continue
            assert "unsafe_pickle" not in path.read_text(), (
                f"{path.relative_to(_REPO_ROOT)} still refers to the removed "
                "pickle escape hatch")
