"""Dataset ingestion: vocabularies, indexed triple stores, reciprocal
augmentation, filtered-candidate sets and relation mapping properties.

Datasets are directories with ``train.txt``, ``valid.txt`` and ``test.txt``,
one ``head<TAB>relation<TAB>tail`` triple per line.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")

RMP_CLASSES = ("1-1", "1-N", "N-1", "N-N")

# tph/hpt threshold separating "1" from "N" on each axis
RMP_THRESHOLD = 1.5

RECIPROCAL_SUFFIX = "^-1"


class DatasetError(Exception):
    """Base class for dataset ingestion failures."""


class DatasetNotFoundError(DatasetError):
    """A split file is missing or the training split is empty."""


class ParseError(DatasetError):
    """A line does not have exactly three TAB-separated fields."""

    def __init__(self, path, line_no, line):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(
            f"{path}:{line_no}: expected 3 TAB-separated fields, got {line!r}"
        )


@dataclass(frozen=True)
class Vocabulary:
    """Bijective name<->id maps with contiguous ids, sorted by name."""

    entity_names: tuple
    relation_names: tuple
    entity_ids: dict = field(repr=False)
    relation_ids: dict = field(repr=False)

    @classmethod
    def from_names(cls, entities, relations):
        ent = tuple(sorted(set(entities)))
        rel = tuple(sorted(set(relations)))
        return cls(
            entity_names=ent,
            relation_names=rel,
            entity_ids={name: i for i, name in enumerate(ent)},
            relation_ids={name: i for i, name in enumerate(rel)},
        )

    @property
    def n_entities(self):
        return len(self.entity_names)

    @property
    def n_relations(self):
        return len(self.relation_names)


class KnowledgeGraph:
    """Immutable indexed triple store with train/valid/test splits.

    Triples are ``(head, relation, tail)`` id rows in int64 arrays, one array
    per split, deduplicated and sorted so that nothing downstream depends on
    the order of lines in the input files.
    """

    def __init__(self, vocab, train, valid, test, reciprocal=False,
                 unknown_entities=(), unknown_relations=()):
        self.vocab = vocab
        self.train = _as_triple_array(train)
        self.valid = _as_triple_array(valid)
        self.test = _as_triple_array(test)
        self.reciprocal = reciprocal
        # valid/test names absent from train; kept and ranked normally
        self.unknown_entities = tuple(unknown_entities)
        self.unknown_relations = tuple(unknown_relations)
        self._rmp = None

    @property
    def n_entities(self):
        return self.vocab.n_entities

    @property
    def n_relations(self):
        return self.vocab.n_relations  # reciprocal names included if augmented

    def split(self, name):
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise ValueError(f"unknown split {name!r}") from None

    def relation_pairs(self, relation):
        """Training (head, tail) pairs of one relation; sorted, as train is."""
        return self.train[self.train[:, 1] == relation][:, [0, 2]]

    def entity_frequency(self):
        """Occurrences of each entity in training triples (head or tail)."""
        return np.bincount(self.train[:, [0, 2]].ravel(),
                           minlength=self.n_entities)


def unique_rows(arr):
    """Distinct rows of a 2-D integer array in lexicographic order: the rows
    sorted, each kept if it differs from the one before it."""
    arr = arr[np.lexsort(arr.T[::-1])]
    keep = np.ones(len(arr), dtype=bool)
    keep[1:] = (arr[1:] != arr[:-1]).any(axis=1)
    return arr[keep]


def _as_triple_array(triples):
    arr = np.asarray(triples, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("triples must be an (n, 3) array")
    return unique_rows(arr)


def _read_split(path):
    triples = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(path, line_no, line)
            triples.append(tuple(fields))
    return triples


def load_dataset(directory):
    """Load a dataset directory into a :class:`KnowledgeGraph`.

    Entity and relation ids are dense, contiguous and assigned in
    lexicographic name order over all three splits. Triples are deduplicated
    within each split. Valid/test names that never occur in train are kept
    (they rank normally) and reported on ``unknown_entities`` /
    ``unknown_relations``.
    """
    directory = Path(directory)
    paths = [directory / name for name in SPLIT_FILES]
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise DatasetNotFoundError(f"missing dataset files: {', '.join(missing)}")

    raw = [_read_split(p) for p in paths]
    if not raw[0]:
        raise DatasetNotFoundError(f"empty training split: {paths[0]}")

    entities = set()
    relations = set()
    for split in raw:
        for h, r, t in split:
            entities.add(h)
            entities.add(t)
            relations.add(r)
    vocab = Vocabulary.from_names(entities, relations)

    train_entities = {n for h, r, t in raw[0] for n in (h, t)}
    train_relations = {r for _, r, _ in raw[0]}
    unknown_entities = sorted(entities - train_entities)
    unknown_relations = sorted(relations - train_relations)
    if unknown_entities:
        logger.warning(
            "%d valid/test entities never occur in train (kept, ranked normally)",
            len(unknown_entities),
        )
    if unknown_relations:
        logger.warning(
            "%d valid/test relations never occur in train", len(unknown_relations)
        )

    splits = [
        [(vocab.entity_ids[h], vocab.relation_ids[r], vocab.entity_ids[t])
         for h, r, t in split]
        for split in raw
    ]
    return KnowledgeGraph(
        vocab, *splits,
        unknown_entities=unknown_entities,
        unknown_relations=unknown_relations,
    )


def augment_reciprocal(kg):
    """Add a mirrored triple (t, r + |R|, h) to every split for every (h, r, t).

    All downstream prediction then answers tail queries only; head queries are
    served through the mirrored relation, and metrics over the augmented test
    set equal the usual head/tail average.
    """
    if kg.reciprocal:
        raise DatasetError("graph is already reciprocal-augmented")
    n_rel = kg.vocab.n_relations
    mirrored = tuple(f"{name}{RECIPROCAL_SUFFIX}"
                     for name in kg.vocab.relation_names)
    clash = sorted(set(mirrored) & set(kg.vocab.relation_names))
    if clash:
        raise DatasetError(f"reciprocal relation names already in use: {clash}")
    names = kg.vocab.relation_names + mirrored
    vocab = Vocabulary(
        entity_names=kg.vocab.entity_names,
        relation_names=names,
        entity_ids=kg.vocab.entity_ids,
        relation_ids={name: i for i, name in enumerate(names)},
    )

    def mirror(split):
        if len(split) == 0:
            return split
        flipped = np.stack(
            [split[:, 2], split[:, 1] + n_rel, split[:, 0]], axis=1
        )
        return np.concatenate([split, flipped])

    return KnowledgeGraph(
        vocab,
        mirror(kg.train), mirror(kg.valid), mirror(kg.test),
        reciprocal=True,
        unknown_entities=kg.unknown_entities,
        unknown_relations=kg.unknown_relations,
    )


class FilterIndex:
    """All known-true tails per (head, relation) over train + valid + test.

    One sorted array of codes (h * |R| + r) * |E| + t, so the tails of one
    key are a contiguous slice.
    """

    def __init__(self, kg):
        self.n_entities = kg.n_entities
        self.n_relations = kg.n_relations
        h, r, t = np.concatenate([kg.train, kg.valid, kg.test]).T
        codes = np.sort((h * self.n_relations + r) * self.n_entities + t)
        self.codes = codes[np.diff(codes, prepend=-1) > 0]

    def tails(self, head, relation):
        base = (int(head) * self.n_relations + int(relation)) * self.n_entities
        lo, hi = np.searchsorted(self.codes, (base, base + self.n_entities))
        return self.codes[lo:hi] - base


def rmp_classify(kg):
    """Classify every relation as 1-1 / 1-N / N-1 / N-N from training triples,
    once per graph: tails-per-head and heads-per-tail, each over the distinct
    sorted (r, h) or (r, t) codes, against ``RMP_THRESHOLD``. A relation
    without training triples averages 0/0 = NaN, which passes neither: 1-1."""
    if kg._rmp is None:
        h, r, t = kg.train.T
        n_rel, n_ent = kg.n_relations, kg.n_entities
        pairs = np.bincount(r, minlength=n_rel)
        keys = (np.sort(r * n_ent + x) for x in (h, t))
        heads, tails = (np.bincount(k[np.diff(k, prepend=-1) > 0] // n_ent,
                                    minlength=n_rel) for k in keys)
        with np.errstate(divide="ignore", invalid="ignore"):
            codes = (2 * (pairs / tails >= RMP_THRESHOLD)
                     + (pairs / heads >= RMP_THRESHOLD))
        kg._rmp = dict(enumerate(RMP_CLASSES[c] for c in codes.tolist()))
    return kg._rmp


def distance_bucket(d):
    """Head-tail distance bucket: 1 (distance <= 1), 2, 3 or 4 (>= 4)."""
    if d <= 1:
        return 1
    return int(min(d, 4))
