import tracemalloc

import numpy as np
import pytest

from vlpkg import (ModelKind, augment_reciprocal, compute_distances, evaluate,
                   init_parameters, rmp_classify, select_references)
from vlpkg.data import FilterIndex, distance_bucket
import vlpkg.evaluation
from vlpkg.evaluation import (EVAL_MODES, Cell, EvalReport, candidate_scores,
                              context_vector, format_table, random_baseline,
                              rank_from_scores, read_report, report_lines,
                              write_ranks, write_report)
from vlpkg.synth import kg_from_id_triples, random_graph


def _sort_oracle(scores, gold, known):
    """Exhaustive-sort filtered rank with average ties."""
    keep = [i for i in range(len(scores))
            if i == gold or i not in set(int(k) for k in known)]
    order = sorted(keep, key=lambda i: -scores[i])
    positions = [pos + 1 for pos, i in enumerate(order)
                 if scores[i] == scores[gold]]
    return float(np.mean(positions))


def test_rank_matches_exhaustive_sort_oracle(small_kg, small_index):
    store = init_parameters(ModelKind.ROTATE, 6, small_kg.n_entities,
                            small_kg.n_relations, seed=1)
    findex = FilterIndex(small_kg)
    for h, r, t in small_kg.test:
        h, r, t = int(h), int(r), int(t)
        scores = candidate_scores(store, h, r, "fg-only", 0.5)
        known = findex.tails(h, r)
        got = rank_from_scores(scores, t, known)
        assert got == _sort_oracle(scores, t, known)


KINDS = [("transe", "l1"), ("transe", "l2"), ("distmult", "l2"),
         ("complex", "l2"), ("rotate", "l2")]
KIND_IDS = ["transe-l1", "transe-l2", "distmult", "complex", "rotate"]


@pytest.fixture(scope="module")
def graph_with_refs():
    kg = augment_reciprocal(random_graph(60, 3, 300, 10, 40, seed=2))
    return kg, select_references(kg, compute_distances(kg, cap=4), n_refs=3)


def _oracle_ranks(store, kg, table, mode, lam, findex):
    return [rank_from_scores(candidate_scores(store, h, r, mode, lam, table),
                             t, findex.tails(h, r))
            for h, r, t in kg.test.tolist()]


def _integer_store(kind, norm, dtype, kg):
    """Entity rows drawn from 8 small-integer vectors, one of them zero, so
    every gold ties exactly with other candidates; integer relations (and
    rotate phases) keep most scores exact, and rotate's cos/sin make
    near-ties."""
    store = init_parameters(kind, 3, kg.n_entities, kg.n_relations, seed=1,
                            dtype=dtype, norm=norm)
    rng = np.random.default_rng(0)
    pool = rng.choice([-2, -1, 1, 2], size=(8, store.d_k))
    pool[0] = 0
    store.entities[:] = pool[rng.integers(0, 8, kg.n_entities)]
    store.relations[:] = rng.integers(-1, 2, size=store.relations.shape)
    return store


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("mode", EVAL_MODES)
@pytest.mark.parametrize("kind,norm", KINDS, ids=KIND_IDS)
def test_block_ranks_equal_the_oracle_under_ties(kind, norm, mode, dtype,
                                                 graph_with_refs,
                                                 monkeypatch):
    kg, table = graph_with_refs
    findex = FilterIndex(kg)
    store = _integer_store(kind, norm, dtype, kg)
    want = _oracle_ranks(store, kg, table, mode, 0.5, findex)
    rows_of_7 = 16 * kg.n_entities * 7  # a budget of 7-row blocks
    for threads, budget in ((1, None), (3, None), (1, rows_of_7),
                            (3, rows_of_7)):
        if budget:
            monkeypatch.setattr(vlpkg.evaluation, "_BLOCK_BYTES", budget)
        report = evaluate(store, kg, "test", table=table, lam=0.5, mode=mode,
                          filter_index=findex, threads=threads,
                          keep_ranks=True)
        assert [x.rank for x in report.ranks] == want
        assert report.rescored > 0
    findex.codes = findex.codes[::2]  # golds missing from the filter, too
    report = evaluate(store, kg, "test", table=table, lam=0.5, mode=mode,
                      filter_index=findex, keep_ranks=True)
    assert ([x.rank for x in report.ranks]
            == _oracle_ranks(store, kg, table, mode, 0.5, findex))


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("mode", ["fg-only", "combined-f"])
@pytest.mark.parametrize("kind", ["transe", "rotate"])
def test_block_ranks_equal_the_oracle_where_distances_cancel(
        kind, mode, dtype, graph_with_refs, monkeypatch):
    """Entity rows c + noise with |c| = 10 and noise of 1e-4 to 1, and
    near-identity relations: most candidate distances are tiny next to
    |q| + max|e|, so the squared-distance key cancels almost wholly."""
    kg, table = graph_with_refs
    findex = FilterIndex(kg)
    store = init_parameters(kind, 8, kg.n_entities, kg.n_relations, seed=5,
                            dtype=dtype)
    rng = np.random.default_rng(5)
    c = rng.normal(size=store.d_k)
    scale = 10.0 ** rng.uniform(-4, 0, size=(kg.n_entities, 1))
    store.entities[:] = (10 * c / np.linalg.norm(c)
                         + scale * rng.normal(size=store.entities.shape))
    store.relations[:] = 1e-3 * rng.normal(size=store.relations.shape)
    want = _oracle_ranks(store, kg, table, mode, 0.5, findex)
    for budget in (None, 16 * kg.n_entities * 7):  # default, 7-row blocks
        if budget:
            monkeypatch.setattr(vlpkg.evaluation, "_BLOCK_BYTES", budget)
        report = evaluate(store, kg, "test", table=table, lam=0.5, mode=mode,
                          filter_index=findex, keep_ranks=True)
        assert [x.rank for x in report.ranks] == want


def test_an_eval_block_holds_no_float64_block_array_for_float32():
    """fg-only ranking of a float32 rotate store at the default block size
    peaks below 1.5 float64 (rows x entities) arrays: the keys, thresholds
    and comparisons stay in float32."""
    kg = augment_reciprocal(random_graph(5000, 3, 5000, 0, 105, seed=6))
    findex = FilterIndex(kg)
    store = init_parameters(ModelKind.ROTATE, 100, kg.n_entities,
                            kg.n_relations, seed=6)
    rows = vlpkg.evaluation._BLOCK_BYTES // (16 * kg.n_entities)
    assert store.dtype == np.float32 and len(kg.test) >= rows
    tracemalloc.start()
    try:
        evaluate(store, kg, "test", mode="fg-only", filter_index=findex)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = rows * kg.n_entities * 8
    assert peak < 1.5 * block, f"peak {peak / block:.2f} float64 blocks"


@pytest.mark.parametrize("mode", EVAL_MODES)
@pytest.mark.parametrize("kind,norm", KINDS, ids=KIND_IDS)
def test_a_nan_entity_row_falls_back_to_the_oracle(kind, norm, mode,
                                                   graph_with_refs):
    kg, table = graph_with_refs
    findex = FilterIndex(kg)
    store = _integer_store(kind, norm, np.float32, kg)
    store.entities[5] = np.nan
    want = _oracle_ranks(store, kg, table, mode, 0.5, findex)
    for threads in (1, 3):  # at 3, the fallback runs inside the workers
        report = evaluate(store, kg, "test", table=table, lam=0.5, mode=mode,
                          filter_index=findex, threads=threads,
                          keep_ranks=True)
        assert [x.rank for x in report.ranks] == want
        assert report.rescored == 0  # every query took the fallback


def test_a_nan_gold_ranks_last():
    # the gold is among its own kept candidates, and NaN equals nothing, not
    # even itself: it must rank behind every other kept candidate, not at
    # 0.5, so a broken score cannot raise MRR or Hits@1
    scores = np.array([3.0, np.nan, 1.0, np.nan, 0.0])
    assert rank_from_scores(scores, 1, np.array([], dtype=int)) == 5.0
    assert rank_from_scores(scores, 1, np.array([0, 1, 3])) == 3.0
    kg = augment_reciprocal(random_graph(50, 3, 300, 5, 20, seed=1))
    store = init_parameters(ModelKind.ROTATE, 8, kg.n_entities,
                            kg.n_relations, seed=0)
    store.entities[35] = np.nan
    findex = FilterIndex(kg)
    report = evaluate(store, kg, "test", filter_index=findex, keep_ranks=True)
    golds = [x for x in report.ranks if x.tail == 35]
    assert len(golds) == 2
    for x in golds:
        others = set(findex.tails(x.head, x.relation).tolist()) - {35}
        assert x.rank == kg.n_entities - len(others)
    assert min(x.rank for x in report.ranks) >= 1.0


@pytest.mark.parametrize("mode", ["combined-f", "fc-only"])
def test_t_prime_is_built_once_per_block(mode, graph_with_refs, monkeypatch):
    kg, table = graph_with_refs
    store = init_parameters(ModelKind.ROTATE, 8, kg.n_entities,
                            kg.n_relations, seed=3)
    calls = []

    def counted(store, table, h, r):
        calls.append(np.size(h))
        return context_vector(store, table, h, r)

    monkeypatch.setattr(vlpkg.evaluation, "context_vector", counted)
    monkeypatch.setattr(vlpkg.evaluation, "_BLOCK_BYTES",
                        16 * kg.n_entities * 7)  # 7-row blocks
    n = len(kg.test)
    for threads in (1, 3):
        calls.clear()
        report = evaluate(store, kg, "test", table=table, mode=mode,
                          threads=threads)
        assert report.n == n > 7 * threads
        # threads * ceil(n / (threads * 7)) balanced blocks of <= 7 rows
        blocks = np.array_split(kg.test, threads * -(-n // (threads * 7)))
        assert sorted(calls) == sorted(len(b) for b in blocks)
        assert max(calls) <= 7 and sum(calls) == n


@pytest.mark.parametrize("kind,norm", KINDS, ids=KIND_IDS)
def test_the_band_rescores_under_one_percent_of_float_candidates(kind, norm):
    kg = augment_reciprocal(random_graph(300, 4, 2000, 10, 100, seed=4))
    table = select_references(kg, compute_distances(kg, cap=4), n_refs=4)
    findex = FilterIndex(kg)
    store = init_parameters(kind, 16, kg.n_entities, kg.n_relations, seed=4,
                            norm=norm)
    for mode in EVAL_MODES:
        report = evaluate(store, kg, "test", table=table, lam=0.5, mode=mode,
                          filter_index=findex, keep_ranks=True)
        assert ([x.rank for x in report.ranks]
                == _oracle_ranks(store, kg, table, mode, 0.5, findex))
        assert report.rescored < 0.01 * report.n * kg.n_entities


def test_rank_with_deliberate_ties():
    scores = np.array([3.0, 1.0, 1.0, 1.0, 0.0])
    # gold=1 ties with 2 and 3 behind score 3.0: positions 2,3,4, mean 3
    assert rank_from_scores(scores, 1, np.array([], dtype=int)) == 3.0
    # filtering the tied companions out leaves rank 2
    assert rank_from_scores(scores, 1, np.array([2, 3])) == 2.0
    # gold alone on top
    assert rank_from_scores(scores, 0, np.array([], dtype=int)) == 1.0


def test_rank_invariant_under_monotone_transforms():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=40)
    scores[7] = scores[12]  # manufacture one tie
    known = np.array([3, 9])
    for gold in (5, 7, 12):
        base = rank_from_scores(scores, gold, known)
        assert rank_from_scores(2.0 * scores + 3.0, gold, known) == base
        assert rank_from_scores(scores ** 3, gold, known) == base


def test_filtering_never_hurts_the_rank(small_kg):
    store = init_parameters(ModelKind.DISTMULT, 6, small_kg.n_entities,
                            small_kg.n_relations, seed=2)
    findex = FilterIndex(small_kg)
    none = np.array([], dtype=int)
    for h, r, t in small_kg.test:
        h, r, t = int(h), int(r), int(t)
        scores = candidate_scores(store, h, r, "fg-only", 0.5)
        filtered = rank_from_scores(scores, t, findex.tails(h, r))
        unfiltered = rank_from_scores(scores, t, none)
        assert filtered <= unfiltered


def test_evaluate_report_aggregates_consistently(small_kg, small_index):
    store = init_parameters(ModelKind.COMPLEX, 5, small_kg.n_entities,
                            small_kg.n_relations, seed=3)
    table = select_references(small_kg, small_index, n_refs=2)
    report = evaluate(store, small_kg, "test", table=table,
                      dist_index=small_index, lam=0.5, mode="combined-f",
                      keep_ranks=True)
    assert report.n == len(small_kg.test)
    ranks = np.array([r.rank for r in report.ranks])
    assert report.mrr == pytest.approx(float((1.0 / ranks).mean()))
    for k, v in report.hits.items():
        assert v == pytest.approx(float((ranks <= k).mean()))
    assert 0.0 <= report.hits[1] <= report.hits[3] <= report.hits[10] <= 1.0
    # cells partition the test set three ways
    assert sum(c.count for c in report.per_bucket.values()) == report.n
    assert sum(c.count for c in report.per_relation.values()) == report.n
    assert sum(c.count for c in report.per_rmp.values()) == report.n
    # per-direction split mirrors the reciprocal augmentation exactly
    head = sum(c.count for (d, _), c in report.per_rmp.items() if d == "head")
    assert head == report.n // 2


def test_evaluate_threaded_matches_serial(small_kg, small_index):
    store = init_parameters(ModelKind.TRANSE, 6, small_kg.n_entities,
                            small_kg.n_relations, seed=4)
    a = evaluate(store, small_kg, "test", dist_index=small_index,
                 mode="fg-only", keep_ranks=True)
    b = evaluate(store, small_kg, "test", dist_index=small_index,
                 mode="fg-only", threads=3, keep_ranks=True)
    assert a.ranks == b.ranks
    assert report_lines(a) == report_lines(b)
    kg = random_graph(20, 3, 120, 1, 0, seed=3)  # 1 valid triple, no test
    store = init_parameters(ModelKind.TRANSE, 6, kg.n_entities,
                            kg.n_relations, seed=4)
    one = [evaluate(store, kg, "valid", threads=k, keep_ranks=True)
           for k in (1, 3)]
    assert one[0].n == 1 and one[0].ranks == one[1].ranks
    assert report_lines(one[0]) == report_lines(one[1])
    empty = evaluate(store, kg, "test", threads=3, keep_ranks=True)
    assert empty.n == 0 and empty.ranks == []


@pytest.mark.parametrize("threads", [0, -1, 2.0])
def test_evaluate_rejects_a_bad_thread_count(threads, small_kg):
    store = init_parameters(ModelKind.TRANSE, 6, small_kg.n_entities,
                            small_kg.n_relations, seed=4)
    with pytest.raises(ValueError, match="threads"):
        evaluate(store, small_kg, "test", threads=threads)


def test_combined_mode_equals_scalar_combined_score(small_kg, small_index):
    from vlpkg import score_f

    store = init_parameters(ModelKind.ROTATE, 5, small_kg.n_entities,
                            small_kg.n_relations, seed=5)
    table = select_references(small_kg, small_index, n_refs=3)
    h, r = int(small_kg.test[0, 0]), int(small_kg.test[0, 1])
    scores = candidate_scores(store, h, r, "combined-f", 0.3, table=table)
    for t in range(small_kg.n_entities):
        assert scores[t] == score_f(store, table, h, r, t, lam=0.3)


def test_kept_ranks_report_each_rows_bucket(small_kg, small_index):
    store = init_parameters(ModelKind.DISTMULT, 4, small_kg.n_entities,
                            small_kg.n_relations, seed=6)
    report = evaluate(store, small_kg, "test", dist_index=small_index,
                      keep_ranks=True)
    assert len(report.ranks) == report.n
    for res in report.ranks:
        d = small_index.distance(res.head, res.tail)
        assert res.bucket == min(max(d, 1), 4)


@pytest.mark.parametrize("cap", [2, 4])
@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("reciprocal", [True, False],
                         ids=["reciprocal", "plain"])
def test_report_cells_match_an_oracle_over_the_kept_ranks(reciprocal,
                                                          threads, cap):
    """Every cell recomputed from the kept ranks, ``rmp_classify`` and
    ``DistanceIndex.distance``; a reciprocal relation is found by its name."""
    kg = random_graph(40, 3, 200, 20, 30, seed=8)
    if reciprocal:
        kg = augment_reciprocal(kg)
    index = compute_distances(kg, cap=cap)
    store = init_parameters(ModelKind.ROTATE, 6, kg.n_entities,
                            kg.n_relations, seed=8)
    report = evaluate(store, kg, "test", dist_index=index, threads=threads,
                      keep_ranks=True)
    assert ([(x.head, x.relation, x.tail) for x in report.ranks]
            == [tuple(row) for row in kg.test.tolist()])
    names = kg.vocab.relation_names
    classes = rmp_classify(kg)
    want = {"bucket": {}, "relation": {}, "rmp": {}}
    for x in report.ranks:
        d = index.distance(x.head, x.tail)
        bucket = distance_bucket(d) if d < cap or d >= 4 else None
        assert x.bucket == bucket
        name = names[x.relation]
        if name.endswith("^-1"):
            rmp = ("head", classes[names.index(name[:-3])])
        else:
            rmp = ("tail", classes[x.relation])
        for section, key in (("bucket", bucket), ("relation", name),
                             ("rmp", rmp)):
            if key is not None:
                want[section].setdefault(key, Cell()).add(x.rank)
    for section, got in (("bucket", report.per_bucket),
                         ("relation", report.per_relation),
                         ("rmp", report.per_rmp)):
        assert got.keys() == want[section].keys()
        for key, cell in got.items():
            assert cell.count == want[section][key].count
            assert cell.inv_sum == pytest.approx(want[section][key].inv_sum,
                                                 rel=1e-12)
    directions = {d for d, _ in report.per_rmp}
    assert directions == ({"head", "tail"} if reciprocal else {"tail"})
    if cap == 2:
        assert None in {x.bucket for x in report.ranks}


def test_rmp_cells_label_a_reciprocal_relation_by_its_base():
    # relation 0 is 1-N, so its mirror 2 is N-1 on its own pairs; the
    # mirror's queries are head queries of relation 0 and take its class
    kg = augment_reciprocal(kg_from_id_triples(
        5, 2, [(0, 0, 1), (0, 0, 2), (0, 0, 3), (1, 1, 2)], [],
        [(4, 0, 1), (2, 1, 3)]))
    classes = rmp_classify(kg)
    assert (classes[0], classes[1], classes[2]) == ("1-N", "1-1", "N-1")
    store = init_parameters(ModelKind.TRANSE, 4, kg.n_entities,
                            kg.n_relations, seed=0)
    report = evaluate(store, kg, "test")
    assert {key: c.count for key, c in report.per_rmp.items()} == {
        ("tail", "1-N"): 1, ("tail", "1-1"): 1,
        ("head", "1-N"): 1, ("head", "1-1"): 1}


@pytest.mark.parametrize("cap", [2, 3])
def test_buckets_below_cap_4_leave_out_pairs_beyond_the_cap(cap, small_kg):
    """At cap < 4 a pair at the cap may be farther than its exact bucket:
    each row's bucket is its cap-8 bucket, or None beyond the cap."""
    from vlpkg import augment_reciprocal, compute_distances
    from vlpkg.synth import random_graph

    sparse = augment_reciprocal(random_graph(200, 3, 300, 20, 40, seed=5))
    seen = {"near": 0, "beyond": 0}
    for kg in (sparse, small_kg):
        store = init_parameters(ModelKind.TRANSE, 4, kg.n_entities,
                                kg.n_relations, seed=0)
        wide = compute_distances(kg, cap=8)
        low = evaluate(store, kg, "test", keep_ranks=True,
                       dist_index=compute_distances(kg, cap=cap)).ranks
        high = evaluate(store, kg, "test", dist_index=wide,
                        keep_ranks=True).ranks
        for a, b in zip(low, high):
            if wide.distance(b.head, b.tail) >= cap:
                seen["beyond"] += 1
                assert a.bucket is None
            else:
                seen["near"] += 1
                assert a.bucket == b.bucket is not None
    assert seen["near"] and seen["beyond"]


def _baseline_loop(kg, filter_index):
    """random_baseline one query at a time: the rank is uniform on 1..m."""
    means, variances = [], []
    for h, r, _ in kg.test:
        m = kg.n_entities - len(filter_index.tails(int(h), int(r))) + 1
        inv = 1.0 / np.arange(1, m + 1)
        mean = inv.mean()
        means.append(mean)
        variances.append((inv * inv).mean() - mean * mean)
    n = len(means)
    return float(np.mean(means)), float(np.sum(variances) / (n * n))


def test_random_baseline_matches_the_per_query_loop(small_kg):
    # one query of `crowded` keeps 5 of 30 candidates
    crowded = kg_from_id_triples(
        30, 2, [(0, 0, t) for t in range(1, 26)] + [(1, 1, 2)], [],
        [(0, 0, 26), (1, 1, 3), (0, 1, 5)])
    assert crowded.n_entities - len(FilterIndex(crowded).tails(0, 0)) == 4
    plain = random_graph(50, 3, 300, 30, 30, seed=5)
    for kg in (small_kg, plain, crowded):
        findex = FilterIndex(kg)
        got = random_baseline(kg, findex)
        assert got == pytest.approx(_baseline_loop(kg, findex), rel=1e-12)
        assert random_baseline(kg) == got


def test_random_scores_land_inside_three_sigma(small_kg):
    """Analytic MRR mean/variance for random ranking, checked empirically."""
    mean, var = random_baseline(small_kg)
    rng = np.random.default_rng(12)
    findex = FilterIndex(small_kg)
    mrrs = []
    for _ in range(40):
        ranks = []
        for h, r, t in small_kg.test:
            scores = rng.normal(size=small_kg.n_entities)
            ranks.append(rank_from_scores(scores, int(t),
                                          findex.tails(int(h), int(r))))
        mrrs.append(float((1.0 / np.asarray(ranks)).mean()))
    # mean of 40 runs concentrates by another 1/sqrt(40)
    tol = 3.0 * np.sqrt(var / 40)
    assert abs(np.mean(mrrs) - mean) < tol


def test_report_roundtrip_and_rendering(tmp_path, small_kg, small_index):
    store = init_parameters(ModelKind.ROTATE, 4, small_kg.n_entities,
                            small_kg.n_relations, seed=7)
    report = evaluate(store, small_kg, "test", dist_index=small_index,
                      mode="fg-only", keep_ranks=True)
    path = tmp_path / "report.tsv"
    write_report(report, path)
    back = read_report(path)
    overall = {key: value for section, key, _, value in back
               if section == "overall"}
    assert overall["MRR"] == pytest.approx(report.mrr, abs=1e-6)
    assert {s for s, _, _, _ in back} == {"overall", "distance", "relation",
                                          "rmp"}
    lines = report_lines(report)
    assert all(len(line) == 4 for line in lines)
    table = format_table(lines, "distance")
    assert "MRR" in table
    assert "value" in format_table(back, "distance", "value")
    assert format_table(lines, "rmp").count("\n") == len(report.per_rmp)
    with pytest.raises(ValueError, match="section"):
        format_table(lines, "nowhere")
    rank_path = tmp_path / "ranks.tsv"
    write_ranks(report.ranks, rank_path)
    rows = rank_path.read_text().strip().splitlines()
    assert len(rows) == report.n
    assert all(len(row.split("\t")) == 5 for row in rows)


def test_cell_accumulates_mean_reciprocal_rank():
    cell = Cell()
    for rank in (1.0, 2.0, 4.0):
        cell.add(rank)
    assert cell.count == 3
    assert cell.mrr == pytest.approx((1 + 0.5 + 0.25) / 3)


def test_empty_split_yields_empty_report():
    kg = kg_from_id_triples(4, 1, [(0, 0, 1), (1, 0, 2)])
    store = init_parameters(ModelKind.TRANSE, 4, 4, 1, seed=0)
    report = evaluate(store, kg, "test")
    assert report.n == 0
    assert isinstance(report, EvalReport)
