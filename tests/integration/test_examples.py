"""Every example script runs to completion.

The examples are the first code a reader copies, so each one is executed
the way its docstring says — ``PYTHONPATH=src python examples/<name>.py`` —
and must exit 0.  ``crash_recovery.py`` simulates a minute-scale recovery
timeline (~25 s of host time) and is run by the CI ``benchmarks-smoke`` job
instead.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[2]
_RUN_IN_CI_ONLY = {"crash_recovery.py"}
EXAMPLES = sorted(path.name for path in (_ROOT / "examples").glob("*.py"))


@pytest.mark.timeout(120)
@pytest.mark.parametrize(
    "name", [name for name in EXAMPLES if name not in _RUN_IN_CI_ONLY])
def test_example_exits_zero(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, str(_ROOT / "examples" / name)],
                          env=env, cwd=_ROOT, capture_output=True, text=True,
                          timeout=110)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip(), "an example prints what it demonstrates"
