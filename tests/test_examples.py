"""The examples that drive the library surface run to completion.

Each runs as its own process, as a reader runs it
(``PYTHONPATH=src python examples/<name>.py``), and must exit 0.
``dimensionality_walkthrough.py`` machine-checks Figure 3's
classifications, so a change to the trace table that moves them fails
here.  The working directory is a temporary one, so a stray output file
cannot land in the checkout.
"""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
EXAMPLES = os.path.join(os.path.dirname(SRC), "examples")


@pytest.mark.parametrize("name", [
    "quickstart",
    "dimensionality_walkthrough",
    "volume_stencil_3d",
    "kernel_tuning_workflow",
])
def test_example_exits_cleanly(name, tmp_path):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, f"{name}.py")],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
