import hashlib
import itertools

import numpy as np
import pytest

from vlpkg import (ModelKind, compute_distances, init_parameters, reference,
                   score_f, score_fc, score_fg, select_references)
from vlpkg.data import augment_reciprocal
from vlpkg.distances import CacheError
from vlpkg.evaluation import candidate_scores
from vlpkg.models import query_batch, query_pullback
from vlpkg.reference import (ReferenceTable, aggregate_batch,
                             aggregate_pullback, context_vector, cosine_all,
                             gather_references, query_keys)
from vlpkg.synth import kg_from_id_triples, random_graph
from vlpkg.training import GradBuffer

from conftest import fd_array, floyd_warshall, max_rel_err


def _selection_oracle(kg, cap, n_refs):
    """Brute-force reference choice: sort every training pair of the
    relation by (distance, head frequency desc, head id, tail id) and keep
    the first N+1. Distances at or beyond cap collapse to cap.
    """
    edges = [(int(h), int(t)) for h, _, t in kg.train]
    dist = floyd_warshall(kg.n_entities, edges, cap)
    freq = kg.entity_frequency()
    expected = {}
    for h, r in query_keys(kg):
        pairs = [(int(a), int(b)) for a, b in kg.relation_pairs(r)]
        order = sorted(pairs, key=lambda p: (dist[h, p[0]], -freq[p[0]],
                                             p[0], p[1]))
        expected[(h, r)] = order[: n_refs + 1]
    return expected


SMALL = dict(n_entities=15, n_relations=3, n_train=60, n_valid=8, n_test=8,
             seed=21)
# one relation with many query heads, some of them far from every pair
LARGE = dict(n_entities=600, n_relations=1, n_train=700, n_valid=30,
             n_test=30, seed=3)


@pytest.mark.parametrize("n_refs, graph", [(1, SMALL), (3, SMALL),
                                           (8, SMALL), (8, LARGE)],
                         ids=["1", "3", "8", "large"])
def test_selection_matches_brute_force(n_refs, graph):
    kg = random_graph(**graph)
    cap = 4
    index = compute_distances(kg, cap=cap)
    table = select_references(kg, index, n_refs=n_refs)
    expected = _selection_oracle(kg, cap, n_refs)
    assert set(table.entries) == set(expected)
    for key, want in expected.items():
        got = [tuple(row) for row in table.entries[key]]
        assert got == want, f"key {key}"


def test_selection_falls_back_past_the_distance_cap():
    """Disconnected components force the beyond-cap branch, which orders
    candidates by frequency then id exactly like a ring at distance cap."""
    train = [(0, 0, 1), (2, 0, 3),          # component A
             (4, 0, 5), (4, 0, 6), (5, 0, 6),  # component B, head 4 is busy
             (7, 0, 8)]                     # component C
    kg = kg_from_id_triples(9, 1, train, test=[(0, 0, 3)])
    cap = 2
    index = compute_distances(kg, cap=cap)
    table = select_references(kg, index, n_refs=4)
    expected = _selection_oracle(kg, cap, 4)
    for key, want in expected.items():
        got = [tuple(row) for row in table.entries[key]]
        assert got == want, f"key {key}"


def _disconnected_kg():
    train = [(0, 0, 1), (2, 0, 3),          # component A
             (4, 0, 5), (4, 0, 6), (5, 0, 6),  # component B, head 4 is busy
             (7, 0, 8)]                     # component C
    return kg_from_id_triples(9, 1, train, test=[(0, 0, 3)])


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_chunk_boundaries_do_not_change_the_table(monkeypatch, chunk):
    """Ring entries and far candidates taken 1, 3 or 7 at a time give the
    brute-force order, at cap 1 too, where every pair but a key head's own
    lies beyond the cap."""
    monkeypatch.setattr(reference, "_CHUNK", chunk)
    cases = [(random_graph(**SMALL), 4, 3), (random_graph(**SMALL), 1, 3),
             (random_graph(**LARGE), 4, 8), (random_graph(**LARGE), 1, 8),
             (_disconnected_kg(), 2, 4), (_disconnected_kg(), 1, 4)]
    for kg, cap, n_refs in cases:
        table = select_references(kg, compute_distances(kg, cap=cap),
                                  n_refs=n_refs)
        expected = _selection_oracle(kg, cap, n_refs)
        assert set(table.entries) == set(expected)
        for key, want in expected.items():
            got = [tuple(row) for row in table.entries[key]]
            assert got == want, (cap, n_refs, key)


# SHA-256 of ``ReferenceTable.save`` for one fixed graph at (cap, N), as the
# earlier selection by dense distance rows wrote it: the ring walk
# reproduces every byte
PINNED_CACHES = {
    (1, 2): "34bc3c7a4f591e5e032ce20ca52d94ce515d3931a1ac60e1e7347f708b5ef65b",
    (2, 3): "57ba023af7963857f03305e1cac378e6d065c527519f30700910df8e6dae7601",
    (4, 8): "bd881baf39e0327e4adac6b5142b52557d6bfe2671e611d8f02c4ca579ae0a85",
    (8, 3): "5369139b9cf3fd9071ccd56c695761f9435455f40856caec718b4caded7adf01",
}


def test_cache_bytes_are_pinned(tmp_path):
    kg = augment_reciprocal(random_graph(300, 5, 900, 10, 10, seed=3))
    path = tmp_path / "refs.vlpr"
    for (cap, n_refs), want in PINNED_CACHES.items():
        select_references(kg, compute_distances(kg, cap=cap), n_refs=n_refs,
                          train_hash=5).save(path)
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == want, (cap, n_refs)


def test_keys_cover_valid_and_test_queries():
    kg = kg_from_id_triples(6, 2, [(0, 0, 1)], valid=[(2, 0, 3)],
                            test=[(4, 1, 5)])
    index = compute_distances(kg, cap=3)
    table = select_references(kg, index, n_refs=2)
    assert (2, 0) in table.entries
    assert (4, 1) in table.entries
    # relation 1 has no training pairs at all
    assert len(table.entries[(4, 1)]) == 0
    assert gather_references(table, [4], [1])[0].tolist() == [0, 0]


def _rows(indptr, pairs):
    """Per row of a gathered batch, the list of its (h_i, t_i)."""
    return [[tuple(p) for p in pairs[a:b].tolist()]
            for a, b in zip(indptr, indptr[1:])]


def _gathered(table, h, r, exclude_tail=None):
    """The (h_i, t_i) pairs of one gathered query."""
    return _rows(*gather_references(
        table, [h], [r], None if exclude_tail is None else [exclude_tail]))[0]


def test_gather_masks_own_answer_without_shrinking():
    kg = kg_from_id_triples(
        8, 1, [(0, 0, 1), (2, 0, 3), (4, 0, 5), (6, 0, 7), (0, 0, 2)])
    index = compute_distances(kg, cap=4)
    table = select_references(kg, index, n_refs=2)
    full = _gathered(table, 0, 0)
    masked = _gathered(table, 0, 0, exclude_tail=1)
    assert len(full) == 2
    assert len(masked) == 2
    assert (0, 1) not in masked


def _gather_oracle(table, h_ids, r_ids, exclude_tails):
    """Per query, the list of its (h_i, t_i): the key's pairs from
    ``entries``, the own pair dropped, cut to N."""
    return [[p for p in map(tuple, table.entries.get((h, r), np.zeros((0, 2)))
                            .tolist()) if p != (h, t)][:table.n_refs]
            for h, r, t in zip(h_ids, r_ids, exclude_tails)]


def test_gather_matches_per_query_oracle():
    # relation 0: head 0 has three pairs, so with N = 2 the key (0, 0)
    # holds three references and the own pair (0, 2) sits in the middle;
    # relation 1 has one pair (fewer than N + 1); relation 2 has none.
    train = [(0, 0, 1), (0, 0, 2), (0, 0, 3), (4, 0, 5), (6, 0, 7),
             (1, 1, 4)]
    kg = kg_from_id_triples(9, 3, train, test=[(8, 2, 0), (2, 1, 3)])
    table = select_references(kg, compute_distances(kg, cap=4), n_refs=2)
    middle = [tuple(p) for p in table.entries[(0, 0)]]
    assert len(middle) == 3 and middle[1] == (0, 2)
    assert len(table.entries[(2, 1)]) == 1
    assert len(table.entries[(8, 2)]) == 0
    assert (5, 1) not in table.entries
    h_ids = [0, 0, 2, 8, 5, 4, 0, 0, 2]
    r_ids = [0, 0, 1, 2, 1, 0, 0, 0, 1]
    tails = [2, 1, 3, 0, 0, 5, 2, 8, 3]
    for excluded in (None, tails):
        indptr, pairs = gather_references(
            table, np.array(h_ids), np.array(r_ids),
            None if excluded is None else np.array(excluded))
        assert indptr.dtype == pairs.dtype == np.int64
        assert pairs.shape == (indptr[-1], 2) and pairs.flags.c_contiguous
        assert _rows(indptr, pairs) == _gather_oracle(
            table, h_ids, r_ids, excluded or [-1] * len(h_ids))
    # the own pair in the middle slot is dropped and the spare moves up
    assert _rows(indptr, pairs)[0] == [(0, 1), (0, 3)]
    # a table without any pairs gives every row none
    empty = ReferenceTable(2, [[0, 0], [1, 0]], [0, 0, 0], np.zeros((0, 2)))
    for excluded in (None, [1, 0, 2]):
        indptr, pairs = gather_references(empty, [0, 1, 2], [0, 0, 0],
                                          excluded)
        assert indptr.tolist() == [0, 0, 0, 0] and pairs.shape == (0, 2)


def test_self_pair_is_first_reference():
    """With distance 0 to itself, the query head's own pairs come first."""
    kg = kg_from_id_triples(6, 1, [(0, 0, 1), (2, 0, 3), (0, 0, 4)])
    index = compute_distances(kg, cap=4)
    table = select_references(kg, index, n_refs=1)
    assert table.entries[(0, 0)][0, 0] == 0


def test_table_roundtrip(tmp_path):
    kg = random_graph(n_entities=12, n_relations=2, n_train=40, n_valid=5,
                      n_test=5, seed=2)
    index = compute_distances(kg, cap=4)
    table = select_references(kg, index, n_refs=3, train_hash=777)
    path = tmp_path / "refs.vlpr"
    table.save(path)
    loaded = ReferenceTable.load(path)
    assert loaded.n_refs == 3
    assert loaded.train_hash == 777
    assert set(loaded.entries) == set(table.entries)
    for key in table.entries:
        assert np.array_equal(loaded.entries[key], table.entries[key])


def test_table_load_rejects_corruption(tmp_path):
    path = tmp_path / "refs.vlpr"
    path.write_bytes(b"JUNK" + b"\x00" * 24)
    with pytest.raises(CacheError):
        ReferenceTable.load(path)
    kg = random_graph(n_entities=10, n_relations=2, n_train=30, n_valid=4,
                      n_test=4, seed=5)
    table = select_references(kg, compute_distances(kg, cap=3), n_refs=2)
    table.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(CacheError):
        ReferenceTable.load(path)
    # a count that no longer sums to the pair count
    bumped = bytearray(blob)
    bumped[40 + 8 * len(table.entries)] += 1
    path.write_bytes(bytes(bumped))
    with pytest.raises(CacheError, match="counts"):
        ReferenceTable.load(path)
    # a key with more than N+1 references
    ReferenceTable(1, [[0, 0]], [0, 3], np.zeros((3, 2))).save(path)
    with pytest.raises(CacheError, match="counts"):
        ReferenceTable.load(path)
    # keys out of order, and a repeated key
    for keys in ([[1, 0], [0, 0]], [[0, 1], [0, 1]]):
        ReferenceTable(1, keys, [0, 1, 2], np.zeros((2, 2))).save(path)
        with pytest.raises(CacheError, match="keys"):
            ReferenceTable.load(path)


def _setup(kind=ModelKind.ROTATE, seed=4, dtype=np.float64, dim=5):
    kg = random_graph(n_entities=14, n_relations=3, n_train=50, n_valid=6,
                      n_test=6, seed=seed)
    index = compute_distances(kg, cap=4)
    table = select_references(kg, index, n_refs=3)
    store = init_parameters(kind, dim, kg.n_entities, kg.n_relations,
                            seed=seed, dtype=dtype)
    return kg, table, store


def test_batch_aggregation_equals_single_query_path():
    """A batched t' row has the bits of the one-row t', at any chunk size,
    with and without the training pair excluded, for every kind and dtype."""
    for kind, dtype in itertools.product(ModelKind, (np.float32, np.float64)):
        kg, table, store = _setup(kind, dtype=dtype, dim=40)
        h_ids, r_ids, t_ids = kg.train.T
        for exclude in (None, t_ids):
            single = np.stack([
                context_vector(store, table, int(h), int(r),
                               None if exclude is None else int(exclude[i]))
                for i, (h, r) in enumerate(zip(h_ids, r_ids))])
            assert single.dtype == dtype
            for size in (1, 3, 7, len(h_ids)):
                parts = [context_vector(
                    store, table, h_ids[i:i + size], r_ids[i:i + size],
                    None if exclude is None else exclude[i:i + size])
                    for i in range(0, len(h_ids), size)]
                np.testing.assert_array_equal(
                    np.concatenate(parts), single,
                    err_msg=f"{kind.value} {dtype.__name__} chunks of {size}")


def test_aggregate_empty_reference_list_uses_zero_pool():
    # relation 1 has no training pairs, so (4, 1) has no references
    kg = kg_from_id_triples(6, 2, [(0, 0, 1), (2, 0, 3)], test=[(4, 1, 5)])
    table = select_references(kg, compute_distances(kg, cap=3), n_refs=2)
    store = init_parameters(ModelKind.ROTATE, 5, kg.n_entities,
                            kg.n_relations, seed=4, dtype=np.float64)
    q = query_batch(store, 4, 1)
    want = np.tanh(store.w_agg @ np.concatenate([np.zeros(store.d_k), q]))
    np.testing.assert_allclose(context_vector(store, table, 4, 1), want,
                               rtol=1e-12)


def test_aggregation_oracle_single_query():
    """Straight-line recomputation of the pooling formula, one query per
    reference, for every kind; TransE's offset r is where the pooled form's
    weight sum W matters. One test id, a loop over the kinds."""
    for kind in ModelKind:
        kg, table, store = _setup(kind=kind)
        h, r = int(kg.test[0, 0]), int(kg.test[0, 1])
        q = query_batch(store, h, r)
        refs = [(store.entities[t_i], q - query_batch(store, h_i, r))
                for h_i, t_i in _gathered(table, h, r)]
        assert len(refs) >= 2
        pooled = np.mean([store.w_node @ k + store.w_edge @ s for k, s in refs],
                         axis=0)
        want = np.tanh(store.w_agg @ np.concatenate([pooled, q]))
        np.testing.assert_allclose(context_vector(store, table, h, r), want,
                                   rtol=1e-12, err_msg=kind.value)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_a_row_without_references_pools_nothing(kind):
    """A batch mixing rows with and without references: the bare row's
    s_bar is 0 (TransE's query(0, r) = r is not), the reference path
    touches only the relations of rows that have references, and every
    gradient matches central differences."""
    train = [(0, 0, 1), (2, 0, 3), (1, 0, 4), (3, 0, 5), (4, 0, 0)]
    kg = kg_from_id_triples(6, 2, train, test=[(2, 1, 5)])
    table = select_references(kg, compute_distances(kg, cap=3), n_refs=2)
    store = init_parameters(kind, 3, kg.n_entities, kg.n_relations, seed=6,
                            dtype=np.float64)
    h, r = np.array([0, 2, 3]), np.array([0, 1, 0])
    refs = gather_references(table, h, r, [1, 5, 5])
    np.testing.assert_array_equal(np.diff(refs[0]) > 0, [True, False, True])
    up = np.random.default_rng(0).normal(size=(3, store.d_k))

    def value():
        q = query_batch(store, h, r)
        return float((aggregate_batch(store, q, r, *refs)[0] * up).sum())

    t_prime, cache = aggregate_batch(store, query_batch(store, h, r), r,
                                     *refs)
    assert not cache.s_bar[1].any() and not cache.h_bar[1].any()
    buf = GradBuffer(store)
    d_q = aggregate_pullback(store, cache, up, buf)
    np.testing.assert_array_equal(np.flatnonzero(buf.touched[1]), [0])
    d_h, d_r = query_pullback(store, h, r, d_q)
    buf.add_entities(h, d_h)
    buf.add_relations(r, d_r)
    for got, arr in zip(buf.grads, store.param_arrays()):
        assert max_rel_err(got, fd_array(value, arr)) < 1e-7


def test_operators_hold_exactly_the_kept_references():
    """Row i of each slot weight operator holds the heads (s_h) or tails
    (s_t) of the row's kept references, in selection order, each weighing
    1 / count; the pullback touches exactly their entities, and the
    relations of rows with references."""
    kg, table, store = _setup(dtype=np.float32)
    bare = next([h, r, 0] for h in range(kg.n_entities)
                for r in range(kg.n_relations) if (h, r) not in table.entries)
    h_ids, r_ids, t_ids = np.concatenate([kg.train[:5], [bare],
                                          kg.test[:3]]).T
    indptr, pairs = gather_references(table, h_ids, r_ids, t_ids)
    want = _gather_oracle(table, h_ids.tolist(), r_ids.tolist(),
                          t_ids.tolist())
    q = query_batch(store, h_ids, r_ids)
    t_prime, cache = aggregate_batch(store, q, r_ids, indptr, pairs)
    for op, col in ((cache.s_h, 0), (cache.s_t, 1)):
        assert op.shape == (len(h_ids), kg.n_entities)
        assert op.dtype == np.float32
        got = [(op.indices[a:b].tolist(), op.data[a:b].tolist())
               for a, b in zip(op.indptr, op.indptr[1:])]
        assert got == [([p[col] for p in refs],
                        [float(np.float32(1) / len(refs)) for _ in refs])
                       for refs in want]
    buf = GradBuffer(store)
    aggregate_pullback(store, cache, np.ones_like(t_prime), buf)
    np.testing.assert_array_equal(np.flatnonzero(buf.touched[0]),
                                  np.unique(pairs))
    np.testing.assert_array_equal(
        np.flatnonzero(buf.touched[1]),
        np.unique([r for r, refs in zip(r_ids, want) if refs]))


def test_a_row_with_references_weighs_its_query_by_exactly_one():
    """W = 1 bit for bit: s_bar is q - query(h_bar, r) also at counts whose
    float32 1/k summed k times is not 1 (k = 11, 12, 14)."""
    kg = kg_from_id_triples(20, 1, [(i, 0, (i + 1) % 20) for i in range(20)])
    index = compute_distances(kg, cap=3)
    store = init_parameters(ModelKind.TRANSE, 4, 20, 1, seed=0,
                            dtype=np.float32)
    h, r = np.arange(3), np.zeros(3, dtype=np.int64)
    q = query_batch(store, h, r)
    for n_refs in (11, 12, 14):
        table = select_references(kg, index, n_refs=n_refs)
        indptr, pairs = gather_references(table, h, r)
        assert (np.diff(indptr) == n_refs).all()
        _, cache = aggregate_batch(store, q, r, indptr, pairs)
        np.testing.assert_array_equal(
            cache.s_bar, q - query_batch(store, None, r, heads=cache.h_bar))


def test_cosine_kernels_agree_and_guard_zero_vectors():
    rng = np.random.default_rng(0)
    entities = rng.normal(size=(9, 6))
    entities[4] = 0.0
    t_prime = rng.normal(size=6)
    allscores = cosine_all(t_prime, entities)
    for t in range(9):
        if t != 4:
            want = (t_prime @ entities[t]
                    / (np.linalg.norm(t_prime) * np.linalg.norm(entities[t])))
            assert allscores[t] == pytest.approx(want, rel=1e-12)
    assert allscores[4] == 0.0
    unit = entities[3] / np.linalg.norm(entities[3])
    assert cosine_all(entities[3], entities)[3] == pytest.approx(1.0)
    assert abs(cosine_all(unit * -2.0, entities)[3] + 1.0) < 1e-12
    assert not cosine_all(np.zeros(6), entities).any()


def test_combined_score_is_cosine_plus_weighted_triple_score():
    kg, table, store = _setup(kind=ModelKind.TRANSE)
    h, r, t = (int(x) for x in kg.test[0])
    lam = 0.3
    want = score_fc(store, table, h, r, t) + lam * score_fg(store, h, r, t)
    assert score_f(store, table, h, r, t, lam=lam) == pytest.approx(want, rel=1e-12)


def test_cosine_of_row_pairs_equals_the_one_query_entries():
    kg, table, store = _setup(kind=ModelKind.ROTATE)
    t_prime = np.stack([context_vector(store, table, int(h), int(r))
                        for h, r, _ in kg.test[:4]])
    cols = np.array([0, 3, 7, 3])
    pairs = cosine_all(t_prime, store.entities[cols])
    for i, col in enumerate(cols):
        assert pairs[i] == cosine_all(t_prime[i], store.entities)[col]


def test_fc_all_bit_equal_single():
    kg, table, store = _setup(kind=ModelKind.COMPLEX)
    for h, r, _ in kg.test[:4]:
        all_fc = candidate_scores(store, int(h), int(r), "fc-only", 0.0,
                                  table=table)
        for t in range(kg.n_entities):
            assert all_fc[t] == score_fc(store, table, int(h), int(r), t)
