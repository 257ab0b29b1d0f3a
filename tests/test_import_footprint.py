"""Importing the package loads no third-party code but numpy, its one
runtime dependency."""

import json
import os
import subprocess
import sys

import repro

FOOTPRINT = """
import json, os, sys
before = set(sys.modules)
import repro, repro.__main__

def installed(name):
    parts = (getattr(sys.modules[name], "__file__", None) or "").split(os.sep)
    return "site-packages" in parts or "dist-packages" in parts

loaded = {m.split(".")[0] for m in set(sys.modules) - before} - {"repro"}
print(json.dumps(sorted(name for name in loaded if name in sys.modules and installed(name))))
"""


def test_import_loads_only_numpy():
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert set(json.loads(proc.stdout)) <= {"numpy"}
