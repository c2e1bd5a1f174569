"""Deduplication on the set-up path against ``np.unique``, its oracle."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vlpkg.data import FilterIndex, unique_rows
from vlpkg.synth import kg_from_id_triples, random_graph


@given(hnp.arrays(np.int64, st.tuples(st.integers(0, 40), st.integers(1, 4)),
                  elements=st.integers(-3, 3)))
@example(np.empty((0, 3), np.int64))
@example(np.array([[4, 0, 2]]))
def test_unique_rows_matches_np_unique(arr):
    # elements from a small range, so most arrays repeat rows
    got = unique_rows(arr)
    assert got.dtype == arr.dtype
    assert np.array_equal(got, np.unique(arr, axis=0))


def test_relation_without_training_triples_has_no_pairs():
    kg = kg_from_id_triples(3, 2, [(0, 0, 1)], test=[(1, 1, 2)])
    assert kg.relation_pairs(1).shape == (0, 2)


def test_filter_codes_equal_np_unique():
    # a triple known in two splits gives its code twice before deduplication
    base = random_graph(n_entities=30, n_relations=3, n_train=200, n_valid=40,
                        n_test=40, seed=5)
    kg = kg_from_id_triples(30, 3, base.train, base.train[:50], base.test)
    h, r, t = np.concatenate([kg.train, kg.valid, kg.test]).T
    want = np.unique((h * kg.n_relations + r) * kg.n_entities + t)
    assert np.array_equal(FilterIndex(kg).codes, want)
