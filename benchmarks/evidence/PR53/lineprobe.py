"""Which executable lines of one source file a pytest run never reaches.

Run it from the repository root, with ``lineprobe.py`` standing for this
file's path::

    PYTHONPATH=src python lineprobe.py repro/__main__.py -- -q \\
        tests/unit/test_openloop.py

The first argument names the file by its path below an entry of
``sys.path`` (so ``src`` must be on ``PYTHONPATH``); everything after
``--`` goes to ``pytest.main``.  A ``sys.settrace`` hook, installed before
pytest imports anything, returns a line tracer only for frames of that
file, so the rest of the run sees one call event per frame and no line
events.  The executable lines are the ``co_lines()`` of every code object
nested in the file's module code; module-level lines are left out, since
importing the file runs them all.  Prints the pytest exit code, then each
unreached line with its source, then their count.
"""

from __future__ import annotations

import os
import sys
import threading
import types


def executable_lines(path: str) -> set[int]:
    """Lines of every function, class body and lambda nested in ``path``."""
    with open(path, encoding="utf-8") as handle:
        module = compile(handle.read(), path, "exec")
    lines: set[int] = set()
    stack = [const for const in module.co_consts
             if isinstance(const, types.CodeType)]
    while stack:
        code = stack.pop()
        # The first line is the def/class header: the frame's 'call' event
        # reaches it, so it is counted below, not as a 'line' event.
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None and line != code.co_firstlineno)
        stack.extend(const for const in code.co_consts
                     if isinstance(const, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    target, separator, pytest_args = argv[0], argv[1], argv[2:]
    assert separator == "--", "usage: lineprobe.py FILE -- PYTEST_ARGS..."
    path = next(os.path.join(entry, target) for entry in sys.path
                if os.path.isfile(os.path.join(entry, target)))
    path = os.path.realpath(path)
    reached: set[int] = set()
    is_target: dict[str, bool] = {}

    def line_tracer(frame, event, _arg):
        if event == "line":
            reached.add(frame.f_lineno)
        return line_tracer

    def call_tracer(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if filename not in is_target:
            is_target[filename] = os.path.realpath(filename) == path
        if not is_target[filename]:
            return None
        reached.add(frame.f_code.co_firstlineno)
        return line_tracer

    sys.settrace(call_tracer)
    threading.settrace(call_tracer)
    import pytest

    code = pytest.main(pytest_args)
    sys.settrace(None)
    threading.settrace(None)
    unreached = sorted(executable_lines(path) - reached)
    with open(path, encoding="utf-8") as handle:
        source = handle.read().splitlines()
    print(f"pytest exit code: {int(code)}")
    for line in unreached:
        print(f"{target}:{line}: {source[line - 1].strip()}")
    print(f"unreached lines: {len(unreached)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
