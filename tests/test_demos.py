"""The demos run to the end: DistanceIndex and PreSampler driven directly,
reproducible training runs with resume (which also select references), the
quickstart, reference answers and score geometries walk-throughs, and the
shell walk-through of the command line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _env(**extra):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.mark.parametrize("name, expect", [
    ("distance_rings.py", "round-trip ok"),
    ("negative_sampling.py", "20000 draws landed at distances"),
    ("reproducible_runs.py", "DIFFER as expected"),
    ("quickstart.py", "for random scoring"),
    ("reference_answers.py", "reference aggregation adds"),
    ("score_geometries.py", "test MRR"),
])
def test_demo_runs(name, expect):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


def test_cli_pipeline_demo_runs(tmp_path):
    # the script calls `vlpkg`; this shim runs the package from src/
    shim = tmp_path / "vlpkg"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m vlpkg.cli "$@"\n')
    shim.chmod(0o755)
    proc = subprocess.run(
        ["sh", str(ROOT / "demos" / "cli_pipeline.sh")],
        env=_env(PATH=os.pathsep.join([str(tmp_path), os.environ["PATH"]])),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    preprocess = proc.stdout.split("== train ==")[0]
    second = preprocess.split("# effective configuration")[2]
    assert second.count("(hit)") == 2
