import numpy as np
import pytest

from vlpkg import augment_reciprocal, compute_distances, load_dataset, rmp_classify
from vlpkg.data import (RMP_CLASSES, RMP_THRESHOLD, DatasetError,
                        DatasetNotFoundError, FilterIndex, ParseError,
                        Vocabulary, distance_bucket)
from vlpkg.synth import (compositional_graph, kg_from_id_triples, name_triples,
                         random_graph, write_dataset)


def _write(tmp_path, train, valid=(), test=()):
    return write_dataset(tmp_path / "ds", train, valid, test)


def test_load_roundtrip(tmp_path):
    train = [("a", "likes", "b"), ("b", "likes", "c"), ("a", "knows", "c")]
    valid = [("c", "likes", "a")]
    test = [("b", "knows", "a")]
    kg = load_dataset(_write(tmp_path, train, valid, test))
    assert kg.n_entities == 3
    assert kg.n_relations == 2
    assert set(name_triples(kg, "train")) == set(train)
    assert set(name_triples(kg, "valid")) == set(valid)
    assert set(name_triples(kg, "test")) == set(test)


def test_load_deduplicates_and_sorts(tmp_path):
    train = [("b", "r", "a"), ("a", "r", "b"), ("b", "r", "a")]
    kg = load_dataset(_write(tmp_path, train))
    assert len(kg.train) == 2
    assert np.all(kg.train[:-1, 0] <= kg.train[1:, 0])


def test_vocabulary_is_sorted_and_file_order_independent(tmp_path):
    """Ids depend only on the set of names, not the order rows appear in."""
    rows = [("zed", "r2", "mid"), ("ant", "r1", "zed"), ("mid", "r1", "ant")]
    kg1 = load_dataset(_write(tmp_path / "one", rows))
    kg2 = load_dataset(_write(tmp_path / "two", rows[::-1]))
    assert kg1.vocab.entity_names == kg2.vocab.entity_names
    assert list(kg1.vocab.entity_names) == sorted(kg1.vocab.entity_names)
    assert np.array_equal(kg1.train, kg2.train)


def test_vocabulary_lookup():
    vocab = Vocabulary.from_names(["b", "a"], ["r"])
    assert vocab.entity_ids["a"] == 0
    assert vocab.entity_ids["b"] == 1
    assert "missing" not in vocab.entity_ids


def test_missing_split_file_raises(tmp_path):
    directory = _write(tmp_path, [("a", "r", "b")])
    (directory / "valid.txt").unlink()
    with pytest.raises(DatasetNotFoundError):
        load_dataset(directory)


def test_malformed_row_reports_line_number(tmp_path):
    directory = _write(tmp_path, [("a", "r", "b")])
    with open(directory / "train.txt", "a", encoding="utf-8") as handle:
        handle.write("only\ttwo\n")
    with pytest.raises(ParseError) as info:
        load_dataset(directory)
    assert info.value.line_no == 2
    assert "train.txt" in str(info.value)


def test_unknown_test_entities_are_kept_and_reported(tmp_path):
    directory = _write(tmp_path, [("a", "r", "b")],
                       test=[("a", "r", "b"), ("a", "r", "ghost")])
    kg = load_dataset(directory)
    assert "ghost" in kg.vocab.entity_names
    assert len(kg.test) == 2
    assert "ghost" in kg.unknown_entities


def test_reciprocal_augmentation_mirrors_every_split():
    kg = kg_from_id_triples(4, 2, [(0, 0, 1), (1, 1, 2)], [(2, 0, 3)],
                            [(3, 1, 0)])
    aug = augment_reciprocal(kg)
    assert aug.n_relations == 4
    assert len(aug.train) == 4
    assert len(aug.valid) == 2
    assert len(aug.test) == 2
    # the mirror of (0, 0, 1) is (1, 0 + 2, 0)
    assert (1, 2, 0) in {tuple(row) for row in aug.train}
    names = aug.vocab.relation_names
    assert names[2] == names[0] + "^-1"


def test_double_augmentation_rejected():
    kg = kg_from_id_triples(2, 1, [(0, 0, 1)])
    with pytest.raises(DatasetError):
        augment_reciprocal(augment_reciprocal(kg))


def test_filter_index_covers_all_splits():
    kg = kg_from_id_triples(5, 1, [(0, 0, 1), (0, 0, 2)], [(0, 0, 3)],
                            [(0, 0, 4)])
    index = FilterIndex(kg)
    assert list(index.tails(0, 0)) == [1, 2, 3, 4]
    assert list(index.tails(1, 0)) == []


def test_filter_index_matches_brute_force_sets(small_kg):
    known = {}
    for split in (small_kg.train, small_kg.valid, small_kg.test):
        for h, r, t in split:
            known.setdefault((int(h), int(r)), set()).add(int(t))
    index = FilterIndex(small_kg)
    for h in range(small_kg.n_entities):
        for r in range(small_kg.n_relations):
            want = sorted(known.get((h, r), ()))
            assert index.tails(h, r).tolist() == want
    unseen = next((h, r) for h in range(small_kg.n_entities)
                  for r in range(small_kg.n_relations) if (h, r) not in known)
    assert len(index.tails(*unseen)) == 0


def test_relation_pairs_and_frequency():
    kg = kg_from_id_triples(4, 2, [(0, 0, 1), (0, 0, 2), (3, 1, 0)])
    pairs = kg.relation_pairs(0)
    assert pairs.tolist() == [[0, 1], [0, 2]]
    freq = kg.entity_frequency()
    # entity 0 appears as head twice and as tail once
    assert freq[0] == 3
    assert freq[1] == 1
    assert freq.sum() == 2 * len(kg.train)


def test_rmp_classification_thresholds():
    """Average tails-per-head and heads-per-tail split at 1.5 each way."""
    train = []
    # r0: one head, one tail each -> 1-1
    train += [(0, 0, 1), (2, 0, 3)]
    # r1: each head has two tails -> 1-N
    train += [(0, 1, 1), (0, 1, 2), (3, 1, 4), (3, 1, 5)]
    # r2: each tail has two heads -> N-1
    train += [(1, 2, 0), (2, 2, 0), (4, 2, 3), (5, 2, 3)]
    # r3: dense block -> N-N
    train += [(h, 3, t) for h in (0, 1) for t in (2, 3)]
    kg = kg_from_id_triples(6, 4, train)
    classes = rmp_classify(kg)
    assert classes == {0: "1-1", 1: "1-N", 2: "N-1", 3: "N-N"}


def test_rmp_exactly_at_threshold_counts_as_many():
    # 3 triples over 2 heads: tph = 1.5, which lands on the "many" side
    kg = kg_from_id_triples(5, 1, [(0, 0, 1), (0, 0, 2), (3, 0, 4)])
    assert rmp_classify(kg)[0] == "1-N"


def test_rmp_reciprocal_swaps_axes():
    kg = augment_reciprocal(
        kg_from_id_triples(6, 1, [(0, 0, 1), (0, 0, 2), (3, 0, 4), (3, 0, 5)]))
    classes = rmp_classify(kg)
    assert classes[0] == "1-N"
    assert classes[1] == "N-1"


def test_rmp_relation_without_training_triples_is_one_to_one():
    kg = augment_reciprocal(
        kg_from_id_triples(6, 2,
                           [(0, 0, 1), (0, 0, 2), (3, 0, 4), (3, 0, 5)],
                           valid=[(0, 1, 1)]))
    classes = rmp_classify(kg)
    # r1 has no training pairs and neither does its mirror: default 1-1
    assert classes[1] == "1-1"
    assert classes[3] == "1-1"


def _rmp_oracle(kg):
    """The per-relation loop ``rmp_classify`` replaced."""
    classes = {}
    for r in range(kg.n_relations):
        pairs = kg.relation_pairs(r)
        if len(pairs) == 0:
            classes[r] = "1-1"
            continue
        tph = len(pairs) / len(np.unique(pairs[:, 0]))
        hpt = len(pairs) / len(np.unique(pairs[:, 1]))
        classes[r] = RMP_CLASSES[2 * (hpt >= RMP_THRESHOLD)
                                 + (tph >= RMP_THRESHOLD)]
    return classes


@pytest.mark.parametrize("graph", [
    lambda: random_graph(300, 7, 1500, 40, 40, seed=3),
    lambda: random_graph(40, 4, 300, 10, 10, seed=3),  # every relation N-N
    lambda: compositional_graph(n_clusters=5, cluster_size=5, seed=1),
    lambda: kg_from_id_triples(6, 3, [(0, 0, 1), (0, 0, 2), (3, 0, 4)],
                               valid=[(0, 2, 1)]),
], ids=["random", "dense", "compositional", "empty-relation"])
@pytest.mark.parametrize("reciprocal", [False, True])
def test_rmp_classify_matches_the_per_relation_loop(graph, reciprocal):
    kg = graph()
    if reciprocal:
        kg = augment_reciprocal(kg)
    classes = rmp_classify(kg)
    assert classes == _rmp_oracle(kg)
    assert rmp_classify(kg) is classes  # computed once per graph


def test_distance_buckets():
    assert distance_bucket(0) == 1
    assert distance_bucket(1) == 1
    assert distance_bucket(2) == 2
    assert distance_bucket(3) == 3
    assert distance_bucket(4) == 4
    assert distance_bucket(9) == 4
