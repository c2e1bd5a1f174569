"""One benchmark run of one workload, untraced or traced.

A run generates its inputs, then alternates set-ups (raw files -> ready to
train), training rounds of the workload's fixed step budget and evaluations
of the test split until ``--seconds`` have passed, and checks the outputs.
Operations are set-up phases, train steps, eval queries and output checks;
any that raises or fails counts in ``failed`` and makes the run exit
non-zero.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from vlpkg import data, distances, evaluation, models, reference, sampling, training
from tracing import Summary, Tracer
from workloads import WORKLOADS

MIN_CYCLES = 2


class Abort(Exception):
    """An operation failed and the run cannot go on."""


@dataclass
class Prepared:
    kg: object
    train_hash: int
    dist: object
    table: object
    filt: object
    pre: object
    cache_dir: Path


class Run:
    def __init__(self, workload, args, work):
        self.wl = workload
        self.args = args
        self.quick = args.quick
        self.cfg = workload.train_config(args.quick)
        self.work = work
        self.data_dir = work / "data"
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.printed = {}
        self.tracer = None

    # -- accounting ---------------------------------------------------------

    def attempt(self, what, fn, ops=1):
        self.attempted += ops
        try:
            return fn()
        except Exception as exc:  # any failure of the program is counted
            self.failed += 1
            self.notes.append(f"{what}: {type(exc).__name__}: {exc}")
            raise Abort from exc

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")
        return ok

    # -- phases -------------------------------------------------------------

    def set_up(self):
        """Raw files on disk -> ready to train, as a first ``vlpkg train`` pays.

        Every set-up writes its caches over the previous ones."""
        cfg = self.cfg
        cache_dir = self.work / "cache"
        cache_dir.mkdir(exist_ok=True)
        vlp = cfg.mode == "vlp"

        def body():
            start = time.perf_counter()
            kg = data.augment_reciprocal(data.load_dataset(self.data_dir))
            train_hash = distances.hash_file(self.data_dir / "train.txt")
            dist = distances.compute_distances(kg, cap=cfg.cap,
                                               threads=cfg.threads,
                                               train_hash=train_hash)
            dist.save(cache_dir / "dist.vlpd")
            table = None
            if vlp:
                table = reference.select_references(kg, dist, n_refs=cfg.refs,
                                                    train_hash=train_hash)
                table.save(cache_dir / "refs.vlpr")
            filt = data.FilterIndex(kg)
            pre = sampling.PreSampler(dist, cfg.sampler.alpha0)
            seconds = time.perf_counter() - start
            return Prepared(kg, train_hash, dist, table, filt, pre,
                            cache_dir), seconds

        return self.attempt("set-up", body, ops=9 if vlp else 7)

    def check_caches(self, prep):
        """Distance and reference caches reloaded from disk equal the built ones."""
        dist = prep.dist
        loaded = self.attempt("load distance cache", lambda: distances
                              .DistanceIndex.load(prep.cache_dir / "dist.vlpd"))
        same = ((loaded.n_entities, loaded.cap, loaded.train_hash)
                == (dist.n_entities, dist.cap, dist.train_hash))
        same = same and all(
            np.array_equal(a, b) and np.array_equal(c, d)
            for (a, c), (b, d) in ((loaded.row(i), dist.row(i))
                                   for i in range(dist.n_entities)))
        self.check("distance cache reloads equal to the built index", same)
        if prep.table is None:
            return
        table = prep.table
        loaded = self.attempt("load reference cache", lambda: reference
                              .ReferenceTable.load(prep.cache_dir / "refs.vlpr"))
        same = ((loaded.n_refs, loaded.train_hash)
                == (table.n_refs, table.train_hash)
                and loaded.entries.keys() == table.entries.keys()
                and all(np.array_equal(arr, loaded.entries[key])
                        for key, arr in table.entries.items()))
        self.check("reference cache reloads equal to the built table", same)

    def train_round(self, prep):
        """One training round from a fresh init; seconds exclude validation."""
        cfg = self.cfg
        validation = [0.0]
        inner = evaluation.evaluate

        def timed_evaluate(*a, **k):
            start = time.perf_counter()
            try:
                return inner(*a, **k)
            finally:
                validation[0] += time.perf_counter() - start

        def body():
            evaluation.evaluate = timed_evaluate
            try:
                start = time.perf_counter()
                result = training.train(cfg, prep.kg, table=prep.table,
                                        presampler=prep.pre,
                                        dist_index=prep.dist,
                                        train_hash=prep.train_hash)
                return result, time.perf_counter() - start - validation[0]
            finally:
                evaluation.evaluate = inner

        result, seconds = self.attempt("train", body, ops=cfg.steps)
        losses = result.history[-1][1:4] if result.history else ()
        self.check("final train losses are finite",
                   all(math.isfinite(x) for x in losses))
        return result.store, seconds

    def eval_round(self, prep, store):
        cfg = self.cfg

        def body():
            start = time.perf_counter()
            report = evaluation.evaluate(
                store, prep.kg, "test", table=prep.table, dist_index=prep.dist,
                lam=cfg.lam, mode=cfg.eval_mode, filter_index=prep.filt,
                threads=cfg.threads, keep_ranks=True)
            return report, time.perf_counter() - start

        return self.attempt("evaluate", body, ops=len(prep.kg.test))

    def check_ranks(self, prep, store, report):
        """Ranks from evaluate equal an exhaustive sort of the scalar scores."""
        cfg = self.cfg
        n = len(prep.kg.test)
        rows = np.unique(np.linspace(0, n - 1, min(self.wl.oracle_queries, n))
                         .round().astype(int))
        for row in rows:
            h, r, t = (int(x) for x in prep.kg.test[row])
            if cfg.eval_mode == "fg-only":
                scores = [models.score_fg(store, h, r, e)
                          for e in range(prep.kg.n_entities)]
            else:
                scores = [reference.score_f(store, prep.table, h, r, e, cfg.lam)
                          for e in range(prep.kg.n_entities)]
            known = set(int(x) for x in prep.filt.tails(h, r)) - {t}
            kept = sorted((s for e, s in enumerate(scores) if e not in known),
                          reverse=True)
            gold = scores[t]
            want = 1.0 + kept.index(gold) + 0.5 * (kept.count(gold) - 1)
            got = report.ranks[row]
            self.check(f"rank of test row {row} equals the sort oracle",
                       (got.head, got.relation, got.tail) == (h, r, t)
                       and got.rank == want)

    def check_mrr(self, prep, mrrs):
        self.check("test MRR is identical across evaluations",
                   len(set(mrrs)) == 1)
        if self.wl.min_mrr_sigmas and not self.quick:
            mean, var = evaluation.random_baseline(prep.kg, prep.filt)
            floor = mean + self.wl.min_mrr_sigmas * math.sqrt(var)
            self.check(f"test MRR {mrrs[0]:.4f} beats chance "
                       f"{mean:.4f} by {self.wl.min_mrr_sigmas:g} sigma "
                       f"(> {floor:.4f})", mrrs[0] > floor)

    def quality_guard(self):
        """comp-vlp's model checks, untimed: two training rounds repeat bit
        for bit and the test MRR beats chance. Returns that MRR."""
        guard = Run(WORKLOADS["comp-vlp"], self.args, self.work / "guard")
        mrr = None
        try:
            guard.wl.write_inputs(guard.data_dir, self.args.seed, self.quick)
            prep, _ = guard.set_up()
            first, second = (guard.train_round(prep)[0] for _ in range(2))
            guard.check("training rounds give bit-identical parameters",
                        _digest(first) == _digest(second))
            mrr = guard.eval_round(prep, first)[0].mrr
            guard.check_mrr(prep, [mrr])
        except Abort:
            pass
        self.attempted += guard.attempted
        self.failed += guard.failed
        self.notes += [f"comp-vlp guard: {note}" for note in guard.notes]
        return mrr

    # -- runs ---------------------------------------------------------------

    def timed(self):
        """Untraced run: the end-to-end metrics.

        Set-ups, training rounds and evaluations alternate in cycles until
        ``--seconds`` have passed, so that every metric samples the whole run
        and a slow spell of the machine lands in few samples of each; the
        metrics are medians over the samples.
        """
        wl, cfg = self.wl, self.cfg
        setup_s, train_rates, digests, eval_rates, mrrs = [], [], [], [], []
        prep = None
        cycles = 0
        start = time.perf_counter()
        while (time.perf_counter() - start < self.args.seconds
               or cycles < MIN_CYCLES):
            for _ in range(wl.setups_per_cycle):
                prep = None  # one set of indexes alive at a time, as in a real run
                prep, seconds = self.set_up()
                setup_s.append(seconds)
            store, seconds = self.train_round(prep)
            train_rates.append(cfg.steps * cfg.batch / seconds)
            digests.append(_digest(store))
            for _ in range(wl.evals_per_cycle):
                report, seconds = self.eval_round(prep, store)
                eval_rates.append(len(prep.kg.test) / seconds)
                mrrs.append(report.mrr)
            cycles += 1

        self.check_caches(prep)
        self.check("training rounds give bit-identical parameters",
                   len(set(digests)) == 1)
        self.check_ranks(prep, store, report)
        self.check_mrr(prep, mrrs)
        self.printed = {
            "rounds": f"{cycles} cycles: {len(setup_s)} set-ups, "
                      f"{len(train_rates)} train rounds of {cfg.steps} steps, "
                      f"{len(eval_rates)} evaluations of "
                      f"{len(prep.kg.test)} queries",
            "test_mrr": mrrs[-1] if wl.min_mrr_sigmas else None,
        }
        if wl.quality_guard:
            self.printed["test_mrr"] = self.quality_guard()
        return {
            "setup_s": (statistics.median(setup_s), "s"),
            "train_triples_per_s": (statistics.median(train_rates),
                                    "triples/s"),
            "eval_queries_per_s": (statistics.median(eval_rates), "queries/s"),
            "peak_rss_mb": (_peak_rss_mib(), "MiB"),
        }

    def traced(self):
        """One untraced then one traced pass of each phase: per-layer metrics
        and the tracing overhead as the difference between the two."""
        cfg = self.cfg
        tracer = Tracer()
        plain, traced = {}, {}
        plain["setup"] = self.set_up()[1]
        with tracer:
            with tracer.phase("setup"):
                prep, traced["setup"] = self.set_up()
            with tracer.phase("load"):
                self.check_caches(prep)
        plain["train"] = self.train_round(prep)[1]
        with tracer, tracer.phase("train"):
            store, traced["train"] = self.train_round(prep)
        plain["eval"] = self.eval_round(prep, store)[1]
        with tracer, tracer.phase("eval"):
            report, traced["eval"] = self.eval_round(prep, store)
        self.check_ranks(prep, store, report)
        self.check_mrr(prep, [report.mrr])

        summary = Summary(tracer)
        queries = len(prep.kg.test)
        metrics = layer_metrics(summary, prep, queries)
        metrics["trace.overhead.setup_s"] = (
            traced["setup"] - plain["setup"], "s")
        metrics["trace.overhead.train_ms_per_step"] = (
            1e3 * (traced["train"] - plain["train"]) / cfg.steps, "ms/step")
        metrics["trace.overhead.eval_ms_per_query"] = (
            1e3 * (traced["eval"] - plain["eval"]) / queries, "ms/query")
        metrics["trace.step_busy_over_wall"] = (summary.step_busy_over_wall,
                                                "ratio")
        self.printed = {"rounds": f"{len(tracer.spans)} spans traced"}
        self.tracer = tracer
        return metrics


def layer_metrics(s, prep, queries):
    """Per-layer metrics, layer by layer: self times per set-up, per train
    step, per query or per evaluation, plus counts taken at the same
    boundaries."""
    steps = s.steps
    out = {}

    def setup_s(name, phase="setup"):
        out[f"{name}.s"] = (s.per(phase, name, 1), f"s/{phase}")

    def step_ms(name):
        out[f"{name}.ms_per_step"] = (s.per("train", name, steps, scale=1e3),
                                      "ms/step")

    def step_calls(name):
        out[f"{name}.calls_per_step"] = (s.per("train", name, steps, "calls"),
                                         "calls/step")

    def query_ms(name):
        out[f"{name}.ms_per_query"] = (s.per("eval", name, queries, scale=1e3),
                                       "ms/query")

    for name in ("data.load_dataset", "data.augment_reciprocal",
                 "data.FilterIndex", "distances.hash_file",
                 "distances.compute_distances", "distances.save"):
        setup_s(name)
    setup_s("distances.load", phase="load")
    out["distances.stored_pairs"] = (float(sum(
        len(prep.dist.row(i)[0]) for i in range(prep.dist.n_entities))),
        "pairs")
    out["distances.cache_bytes"] = (
        float(os.path.getsize(prep.cache_dir / "dist.vlpd")), "bytes")
    out["distances.distance.calls"] = (
        s.per("eval", "distances.distance", 1, "calls"), "calls/eval")
    query_ms("distances.distance")

    setup_s("reference.select_references")
    setup_s("reference.save")
    setup_s("reference.load", phase="load")
    out["reference.short_keys"] = (float(0 if prep.table is None else sum(
        len(arr) < prep.table.n_refs for arr in prep.table.entries.values())),
        "keys")
    for name in ("reference.gather_references", "reference.aggregate_batch"):
        step_ms(name)
        step_calls(name)
    step_ms("reference.aggregate_pullback")
    query_ms("reference.context_vector")
    query_ms("reference.cosine_all")

    step_ms("sampling.draw_negative_batch")
    step_calls("sampling.PreSampler.sample")
    step_ms("sampling.negative_weights")

    step_ms("models.query_batch")
    step_calls("models.query_batch")
    for name in ("models.pair_scores", "models.pair_score_pullback",
                 "models.query_pullback"):
        step_ms(name)
    query_ms("models.score_fg_all")

    out["training.train_step.ms_p50"] = (
        statistics.median(s.step_ms) if s.step_ms else 0.0, "ms")
    for name in ("training.postweight_scores", "training.loss_l1",
                 "training.loss_l2", "training.scatter"):
        step_ms(name)
    out["training.scatter.rows_per_step"] = (
        s.per("train", "training.scatter", steps, "count"), "rows/step")
    step_ms("training.adam_apply")

    out["evaluation.evaluate.s"] = (s.per("eval", "evaluation.evaluate", 1),
                                    "s/eval")
    query_ms("evaluation.candidate_scores")
    query_ms("evaluation.rank_from_scores")
    return out


def _digest(store):
    h = hashlib.sha256()
    for arr in store.param_arrays():
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit(root):
    """HEAD of a git checkout, read from the files; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root, wl, cfg, quick, blas_vars):
    return {
        "commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in blas_vars},
        "workload": wl.name,
        "graph": wl.graph,
        "graph_args": dict(wl.graph_args,
                           **(wl.quick_graph_args if quick else {})),
        "config": {k: v for k, v in cfg.to_items()},
    }


def run(args, root, blas_vars):
    wl = WORKLOADS[args.workload]
    work_root = root / ".perfbench"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root))
    bench = Run(wl, args, work)
    env = environment(root, wl, bench.cfg, args.quick, blas_vars)
    metrics = {}
    try:
        wl.write_inputs(bench.data_dir, args.seed, quick=args.quick)
        metrics = bench.traced() if args.trace else bench.timed()
    except Abort:
        pass
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = bench.failed == 0
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}"
          f"{'  quick' if args.quick else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in bench.notes:
        print(f"  FAILED  {note}")
    if "rounds" in bench.printed:
        print(f"  {bench.printed['rounds']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    if not args.trace:
        mrr = bench.printed.get("test_mrr")
        if mrr is None:
            print(f"  {'test_mrr':<48} {'n/a':>14} - (reported on comp-vlp only)")
        else:
            print(f"  {'test_mrr':<48} {mrr:>14.6g} - (comp-vlp model"
                  f"{', quality guard' if wl.quality_guard else ''})")
        share = bench.failed / max(bench.attempted, 1)
        print(f"  {'ops_failed_share':<48} {share:>14.6g} failed/attempted "
              f"({bench.failed} of {bench.attempted})")
    elif bench.tracer is not None:
        print("  note: per-step times are busy time summed over threads; with "
              "threads > 1 they can add up to more than the step's wall time "
              "(see trace.step_busy_over_wall)")
        trace_path = work_root / f"trace-{wl.name}-seed{args.seed}.json"
        bench.tracer.write(trace_path, dict(env, metrics=metrics))
        print(f"  trace written to {trace_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1
