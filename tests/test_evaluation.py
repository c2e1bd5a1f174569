import numpy as np
import pytest

from vlpkg import (ModelKind, evaluate, init_parameters, rank_triple,
                   select_references)
from vlpkg.data import FilterIndex
from vlpkg.evaluation import (Cell, EvalReport, candidate_scores,
                              format_table, random_baseline,
                              rank_from_scores, read_report, report_lines,
                              write_ranks, write_report)
from vlpkg.synth import kg_from_id_triples


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
                 mode="fg-only")
    b = evaluate(store, small_kg, "test", dist_index=small_index,
                 mode="fg-only", threads=3)
    assert a.mrr == b.mrr
    assert a.hits == b.hits


def test_combined_mode_equals_scalar_combined_score(small_kg, small_index):
    from vlpkg import score_f

    store = init_parameters(ModelKind.ROTATE, 5, small_kg.n_entities,
                            small_kg.n_relations, seed=5)
    table = select_references(small_kg, small_index, n_refs=3)
    h, r = int(small_kg.test[0, 0]), int(small_kg.test[0, 1])
    scores = candidate_scores(store, h, r, "combined-f", 0.3, table=table)
    for t in range(small_kg.n_entities):
        assert scores[t] == score_f(store, table, h, r, t, lam=0.3)


def test_rank_triple_reports_bucket(small_kg, small_index):
    store = init_parameters(ModelKind.DISTMULT, 4, small_kg.n_entities,
                            small_kg.n_relations, seed=6)
    findex = FilterIndex(small_kg)
    triple = small_kg.test[0]
    res = rank_triple(store, triple, findex, dist_index=small_index)
    d = small_index.distance(int(triple[0]), int(triple[2]))
    assert res.bucket == min(max(d, 1), 4)


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
    table = format_table(report, "distance")
    assert "MRR" in table
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
