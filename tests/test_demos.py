"""The fast demos run to the end: DistanceIndex and PreSampler driven
directly, and reproducible training runs with resume (which also select
references)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name, expect", [
    ("distance_rings.py", "round-trip ok"),
    ("negative_sampling.py", "20000 draws landed at distances"),
    ("reproducible_runs.py", "DIFFER as expected"),
])
def test_demo_runs(name, expect):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
