"""Smoke test of the benchmark at toy sizes.

    python -m pytest -q perfbench

Runs every workload with ``--quick``, untraced and traced, and checks that
each metric named in BENCHMARK.json comes out with its unit and a finite
value, that the two metrics kept out of the JSON are printed, and that the
benchmark refuses to run without the package source next to it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["rand5k-vlp", "rand5k-hlp", "comp-vlp"]  # --workload all


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def results(stdout):
    """(workload, result) per workload block of the output."""
    out, name = [], None
    for line in stdout.splitlines():
        if line.startswith("workload "):
            name = line.split()[1]
        elif line.startswith("{"):
            out.append((name, json.loads(line)))
    return out


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_has_unit_and_finite_value(trace, section):
    proc = run_bench("--workload", "all", "--quick", "--seconds", "0.5",
                     "--trace", str(trace), "--seed", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got = results(proc.stdout)
    assert [name for name, _ in got] == WORKLOADS
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert json.loads(proc.stdout.splitlines()[-1]) == got[-1][1]
    for name, res in got:
        assert res["correct"] is True and res["failed"] == 0, name
        assert res["attempted"] >= 1
        assert set(res["metrics"]) == {m["name"] for m in SPEC[section]}, name
        for metric in SPEC[section]:
            value = res["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"], (name, metric["name"])
            assert math.isfinite(value["value"]), (name, metric["name"])
    if trace == 0:
        for printed in ("test_mrr", "ops_failed_share"):
            assert proc.stdout.count(f"  {printed} ") == len(WORKLOADS)
    else:
        hlp = dict(got)["rand5k-hlp"]["metrics"]
        for name, value in hlp.items():
            if name.startswith("reference.") and (
                    "per_step" in name or "per_query" in name):
                assert value["value"] == 0.0, name


def test_comp_vlp_mrr_repeats_across_processes():
    mrrs = set()
    for _ in range(2):
        proc = run_bench("--workload", "comp-vlp", "--quick", "--seconds",
                         "0.2")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        mrrs.update(line.split()[1] for line in proc.stdout.splitlines()
                    if line.startswith("  test_mrr "))
    assert len(mrrs) == 1


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            dest = tmp_path / "perfbench" / path.relative_to(HERE)
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(path, dest)
    proc = run_bench("--workload", "comp-vlp", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
