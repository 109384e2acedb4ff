"""The reachability census's decision, on a synthetic source tree."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

_SCRIPT = (pathlib.Path(__file__).resolve().parents[2]
           / "benchmarks" / "check_reachability.py")
_spec = importlib.util.spec_from_file_location("check_reachability", _SCRIPT)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

_SOURCE = '''\
import functools


def called():
    return 1


def never():
    return 2


@functools.lru_cache(maxsize=None)
def decorated():
    return 3


class Box:
    def method(self):
        def inner():
            return 4
        return inner
'''
_MODULE = "src/repro/mod.py"


@pytest.fixture
def tree(tmp_path):
    path = tmp_path / _MODULE
    path.parent.mkdir(parents=True)
    path.write_text(_SOURCE)
    spec = importlib.util.spec_from_file_location("synthetic_mod", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.called()
    module.decorated()
    seen = check.seen_keys([module.called.__code__,
                            module.decorated.__wrapped__.__code__],
                           tmp_path)
    return check.defined_functions(tmp_path), seen, module


def test_every_def_is_listed_under_its_qualname(tree):
    defined, _, _ = tree
    assert sorted(defined.values()) == [
        "Box.method", "Box.method.<locals>.inner", "called", "decorated",
        "never"]


def test_a_decorated_def_is_keyed_by_its_decorator_line(tree):
    defined, seen, module = tree
    line = module.decorated.__wrapped__.__code__.co_firstlineno
    assert _SOURCE.splitlines()[line - 1].startswith("@functools.lru_cache")
    assert (_MODULE, line, "decorated") in defined
    assert (_MODULE, line, "decorated") in seen


def test_unreached_defs_are_flagged(tree):
    defined, seen, _ = tree
    problems = check.census_problems(defined, seen, {})
    flagged = sorted(problem.split(" ", 1)[0] for problem in problems)
    assert flagged == [f"{_MODULE}:Box.method",
                       f"{_MODULE}:Box.method.<locals>.inner",
                       f"{_MODULE}:never"]


def test_allow_listed_defs_pass(tree):
    defined, seen, _ = tree
    allowed = check.parse_allow_list(
        "# comment lines and blank lines are skipped\n\n"
        f"{_MODULE}:never  # kept for a caller to come\n"
        f"{_MODULE}:Box.method  # read by duck typing\n"
        f"{_MODULE}:Box.method.<locals>.inner  # returned, never called\n")
    assert check.census_problems(defined, seen, allowed) == []


def test_stale_and_unexplained_entries_are_flagged(tree):
    defined, seen, _ = tree
    allowed = check.parse_allow_list(
        f"{_MODULE}:never\n"
        f"{_MODULE}:Box.method  # ok\n"
        f"{_MODULE}:Box.method.<locals>.inner  # ok\n"
        f"{_MODULE}:called  # stale: it is called\n"
        f"{_MODULE}:gone  # stale: deleted\n")
    assert check.census_problems(defined, seen, allowed) == [
        f"{_MODULE}:never: allow-listed without a reason",
        f"{_MODULE}:called: allow-listed, but it is called",
        f"{_MODULE}:gone: allow-listed, but no such def exists",
    ]


def test_the_hook_records_each_code_object_that_starts():
    recorder = check._Recorder()
    frame = sys._getframe()
    recorder.hook(frame, "c_call", len)
    assert recorder.codes == {}
    recorder.hook(frame, "call", None)
    recorder.hook(frame, "call", None)
    assert list(recorder.codes.values()) == [frame.f_code]
