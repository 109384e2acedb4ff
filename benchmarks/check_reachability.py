#!/usr/bin/env python3
"""Fail when a ``def`` under ``src/repro`` is never called.

The census runs, in this one process and under a ``sys.setprofile`` hook,
everything that exercises the program: the tier-1 suite (``pytest.main``),
each workload of ``BENCHMARK.json`` through ``benchmarks/e2e/run.py`` at
smoke size with tracing off and on, and every ``examples/*.py`` (tier-1
runs the examples in subprocesses, which the hook does not see).  The hook
is installed before anything imports ``repro``, so functions called at
import time (decorators, ``__init_subclass__``) count as called.

An AST walk then lists every ``def`` under ``src/repro`` whose code object
never ran.  A function code object's ``co_firstlineno`` is its first
decorator's line when it has one, so that is the line a ``def`` is keyed by.
The check fails when

* a never-called ``def`` is not named in ``benchmarks/reachability_allow.txt``
  (one ``path:qualname  # reason`` a line), or
* an entry there has no reason, names no ``def``, or names only ``def``s
  that were called: a stale entry fails, so the list cannot rot.

What to do with a ``def`` it flags: call it from a test if a user reaches
it, delete it if nothing does, and allow-list it only when it must exist
without being called (a ``Protocol`` stub, an abstract method, a hook read
by duck typing).

Usage::

    python benchmarks/check_reachability.py

Exit status 0 when every never-called ``def`` is allow-listed and every
entry is needed, 1 otherwise.  A failing test or workload is reported but
does not fail the census; its calls up to the failure still count.  Takes
several minutes: the hook sees every call of the whole tier-1 suite.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/repro"
ALLOWLIST = "benchmarks/reachability_allow.txt"

#: (path relative to the root, first line, name) of one ``def``.
Key = tuple[str, int, str]


# ------------------------------------------------------------------- census
def defined_functions(root: Path) -> dict[Key, str]:
    """Every ``def`` under the package, keyed as its code object will be,
    mapped to its ``__qualname__``."""
    found: dict[Key, str] = {}
    for path in sorted((root / PACKAGE).rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        _walk(tree, rel, "", found)
    return found


def _walk(node: ast.AST, rel: str, prefix: str, found: dict[Key, str]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            line = min([child.lineno] + [d.lineno for d in child.decorator_list])
            found[(rel, line, child.name)] = qualname
            _walk(child, rel, qualname + ".<locals>.", found)
        elif isinstance(child, ast.ClassDef):
            _walk(child, rel, prefix + child.name + ".", found)
        else:
            _walk(child, rel, prefix, found)


def seen_keys(codes, root: Path) -> set[Key]:
    """The keys of the code objects that ran from files under the package."""
    base = (root / PACKAGE).resolve()
    keys: set[Key] = set()
    for code in codes:
        path = Path(code.co_filename).resolve()
        if path.is_relative_to(base):
            keys.add((path.relative_to(root.resolve()).as_posix(),
                      code.co_firstlineno, code.co_name))
    return keys


def parse_allow_list(text: str) -> dict[str, str]:
    """``path:qualname`` -> reason (empty when the line gives none)."""
    allowed: dict[str, str] = {}
    for line in text.splitlines():
        entry, _, reason = line.partition("#")
        if entry.strip():
            allowed[entry.strip()] = reason.strip()
    return allowed


def census_problems(defined: dict[Key, str], seen: set[Key],
                    allowed: dict[str, str]) -> list[str]:
    """What is wrong; empty when every never-called ``def`` is allow-listed
    with a reason and every entry names at least one never-called ``def``."""
    unreached: dict[str, list[Key]] = {}
    named: set[str] = set()
    for key, qualname in sorted(defined.items()):
        entry = f"{key[0]}:{qualname}"
        named.add(entry)
        if key not in seen:
            unreached.setdefault(entry, []).append(key)
    problems = []
    for entry, keys in unreached.items():
        if entry not in allowed:
            lines = ", ".join(str(key[1]) for key in keys)
            problems.append(f"{entry} (line {lines}) is never called; test "
                            f"it, delete it, or allow-list it in {ALLOWLIST}")
    for entry, reason in allowed.items():
        if entry not in named:
            problems.append(f"{entry}: allow-listed, but no such def exists")
        elif entry not in unreached:
            problems.append(f"{entry}: allow-listed, but it is called")
        elif not reason:
            problems.append(f"{entry}: allow-listed without a reason")
    return problems


# ------------------------------------------------------------------ running
class _Recorder:
    """Every code object that starts running, in any thread."""

    def __init__(self) -> None:
        codes: dict[int, object] = {}

        def hook(frame, event, arg) -> None:
            if event == "call":
                code = frame.f_code
                if id(code) not in codes:
                    codes[id(code)] = code

        self.codes = codes
        self.hook = hook

    def install(self) -> None:
        threading.setprofile(self.hook)
        sys.setprofile(self.hook)

    def uninstall(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)


def _run_everything(recorder: _Recorder) -> list[str]:
    """Run the tier-1 suite, the benchmark workloads and the examples;
    what failed, for the report."""
    import pytest

    failures = []
    status = pytest.main(["-q", "-p", "no:cacheprovider"])
    if status != 0:
        failures.append(f"tier-1 suite exited {int(status)}")
    failures += _require_hook(recorder, "the tier-1 suite")

    spec = importlib.util.spec_from_file_location(
        "e2e_run", ROOT / "benchmarks" / "e2e" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    with open(ROOT / "BENCHMARK.json") as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    for workload in workloads:
        for trace in ("0", "1"):
            status = run.main(["--workload", workload, "--quick",
                               "--trace", trace])
            if status != 0:
                failures.append(f"run.py {workload} --trace {trace} "
                                f"exited {status}")
    failures += _require_hook(recorder, "the benchmark workloads")

    for example in sorted((ROOT / "examples").glob("*.py")):
        try:
            runpy.run_path(str(example), run_name="__main__")
        except SystemExit as stop:
            if stop.code not in (None, 0):
                failures.append(f"{example.name} exited {stop.code}")
    failures += _require_hook(recorder, "the examples")
    return failures


def _require_hook(recorder: _Recorder, phase: str) -> list[str]:
    if sys.getprofile() is recorder.hook:
        return []
    recorder.install()
    return [f"{phase} replaced the profile hook; calls after that are missing"]


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    recorder = _Recorder()
    recorder.install()
    try:
        failures = _run_everything(recorder)
    finally:
        recorder.uninstall()

    defined = defined_functions(ROOT)
    seen = seen_keys(recorder.codes.values(), ROOT)
    allowed = parse_allow_list((ROOT / ALLOWLIST).read_text(encoding="utf-8"))
    problems = census_problems(defined, seen, allowed)
    unreached = sum(1 for key in defined if key not in seen)
    print(f"\nreachability: {len(defined)} defs under {PACKAGE}, "
          f"{unreached} never called, {len(allowed)} allow-list entries")
    for failure in failures:
        print(f"  (not a census failure) {failure}")
    if problems:
        print("reachability census failed:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
