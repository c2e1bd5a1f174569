"""The names the benchmark in ``perfbench/`` uses from the package.

perfbench's own smoke test runs the whole benchmark and sits outside the
default test paths, so these checks keep a rename or deletion in the package
from breaking ``perfbench/run.py --trace 1`` unnoticed.
"""

import argparse
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from vlpkg import (FilterIndex, ModelKind, augment_reciprocal,
                   compute_distances, evaluation, init_parameters,
                   select_references)
from vlpkg.synth import random_graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


@pytest.fixture()
def runner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("runner")


def test_every_traced_target_exists(tracing):
    # the tracer looks each target up in the owner's own namespace
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.TARGETS
               if attr not in owner.__dict__]
    assert not missing


def test_table_exposes_what_the_runner_reads():
    kg = random_graph(n_entities=12, n_relations=2, n_train=40, n_valid=5,
                      n_test=5, seed=2)
    table = select_references(kg, compute_distances(kg, cap=4), n_refs=3,
                              train_hash=9)
    assert (table.n_refs, table.train_hash, table.cap) == (3, 9, 4)
    assert table.entries.keys() == {tuple(k) for k in table.keys.tolist()}
    for key, arr in table.entries.items():
        assert isinstance(arr, np.ndarray) and arr.shape[1:] == (2,)
        assert np.array_equal(arr, table.entries[key])


def test_report_exposes_what_the_runner_reads():
    # check_ranks reads report.ranks[row] by split row; check_mrr reads the
    # random baseline
    kg = augment_reciprocal(random_graph(n_entities=30, n_relations=2,
                                         n_train=80, n_valid=5, n_test=20,
                                         seed=4))
    store = init_parameters(ModelKind.TRANSE, 4, kg.n_entities,
                            kg.n_relations, seed=0)
    filt = FilterIndex(kg)
    report = evaluation.evaluate(store, kg, "test", filter_index=filt,
                                 threads=2, keep_ranks=True)
    assert len(report.ranks) == len(kg.test)
    for got, (h, r, t) in zip(report.ranks, kg.test.tolist()):
        assert (got.head, got.relation, got.tail) == (h, r, t)
        assert isinstance(got.rank, float) and got.rank >= 1.0
    baseline = evaluation.random_baseline(kg, filt)
    assert len(baseline) == 2
    assert all(isinstance(x, float) and math.isfinite(x) for x in baseline)


@pytest.mark.parametrize("name", ["rand5k-vlp", "rand5k-hlp", "comp-vlp"])
def test_caches_pass_the_runners_reload_check(runner, tmp_path, name):
    # the correctness gate the benchmark applies to both cache loaders
    bench = runner.Run(runner.WORKLOADS[name],
                       argparse.Namespace(quick=True, seed=1), tmp_path)
    bench.wl.write_inputs(bench.data_dir, 1, quick=True)
    prep, _ = bench.set_up()
    bench.check_caches(prep)
    assert (bench.failed, bench.notes) == (0, [])


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_every_workload_config_validates(runner, quick):
    for workload in runner.WORKLOADS.values():
        assert workload.train_config(quick).validate() == [], workload.name
