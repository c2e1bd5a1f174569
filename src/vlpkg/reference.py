"""Reference answers and their aggregation into context-adjusted candidates.

For a query (h, r), the references are training pairs (h_i, t_i) of the same
relation whose heads are closest to h on the undirected training graph.
Their answer embeddings k_i and query differences s_i = q - q_i are pooled,

    pooled = mean_i( W_node k_i + W_edge s_i )
    t'     = tanh( W_agg [pooled ; q] )

with the store's ``w_node``, ``w_edge`` and ``w_agg``, and a candidate tail
t is scored by cosine(t', k_t). The combined score adds the plain triple
score: f = f_c + lambda * f_g. The code pools first, as W_node mean_i(k_i)
+ W_edge W (q - query(sum_i w_i h_i, r)), w_i the mean weights and W their
sum: equal in exact arithmetic, as each query is affine in h, with one
product and one query per row instead of one per reference.

Selection orders the relation's training pairs by the capped distance
d(h, h_i), ties by (head frequency desc, h_i, t_i): the order a stable sort
by distance of that tie order gives, computed ring by ring of h's distance
row, without dense distance rows. It is precomputed once per dataset and
cached in format 3 (magic ``VLPR``): a header recording N, the cap of the
distances used, the train hash and the key and pair counts, then the keys,
the per-key counts and the pairs, each written whole. In memory the table
is the same three arrays, with the counts held as offsets. Each key stores
one spare reference beyond N so the query's own training answer can be
dropped during training without shrinking the reference set.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .data import ranges, unique_rows
from .distances import CacheError, read_file, write_file
from .models import query_batch, query_pullback, score_fg

DEFAULT_N_REFS = 8

MAGIC = b"VLPR"
VERSION = 3
# after the magic: version, N, cap, key count, train hash, pair count
_HEADER = struct.Struct("<IIIQQQ")

_CHUNK = 1 << 15  # ring entries or far candidates handled at once


class ReferenceTable:
    """(h, r) -> up to N+1 reference pairs (h_i, t_i), selection order.

    The cache file's three arrays, read-only: ``keys`` (K, 2) sorted by
    (h, r) without repeats, and ``pairs`` (P, 2), of which key k owns rows
    ``indptr[k]:indptr[k+1]``. Order within a key: graph distance d(h, h_i)
    ascending, then training frequency of h_i descending, then h_i id, then
    t_i id. Keys cover every (h, r) query seen in any split; keys whose
    relation has no training pairs own no rows (the aggregator then pools
    nothing and t' = tanh(W_agg [0 ; q])).
    """

    def __init__(self, n_refs, keys, indptr, pairs, train_hash=0, cap=0):
        self.n_refs = int(n_refs)
        self.keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        for arr in (self.keys, self.indptr, self.pairs):
            arr.flags.writeable = False
        self.codes = (self.keys[:, 0] << 32) | self.keys[:, 1]  # (h, r) order
        self.train_hash = int(train_hash)
        self.cap = int(cap)  # of the distance index the references came from

    @functools.cached_property
    def entries(self):
        """{(h, r): that key's rows of ``pairs``}, built once on first use,
        for per-key readers; batches go through ``gather_references``."""
        bounds = self.indptr.tolist()
        return {key: self.pairs[a:b] for key, a, b in
                zip(map(tuple, self.keys.tolist()), bounds, bounds[1:])}

    def save(self, path):
        write_file(path, MAGIC + _HEADER.pack(VERSION, self.n_refs, self.cap,
                                              len(self.keys), self.train_hash,
                                              len(self.pairs)),
                   ((self.keys, "<u4"), (np.diff(self.indptr), "u1"),
                    (self.pairs, "<u4")))

    @classmethod
    def load(cls, path):
        _, (n_refs, cap, n_keys, train_hash, n_pairs), (keys, counts, pairs) = (
            read_file(path, MAGIC, {VERSION: _HEADER},
                      lambda _, n_refs, cap, n_keys, train_hash, n_pairs: (
                          ("<u4", 2 * n_keys), ("u1", n_keys),
                          ("<u4", 2 * n_pairs)),
                      "reference cache"))
        if counts.sum() != n_pairs or (n_keys and counts.max() > n_refs + 1):
            raise CacheError(f"{path}: counts disagree with pair count")
        indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        table = cls(n_refs, keys, indptr, pairs, train_hash, cap)
        if np.any(np.diff(table.codes) <= 0):
            raise CacheError(f"{path}: keys out of order or repeated")
        return table


def query_keys(kg):
    """Distinct (h, r) queries over all splits, sorted: a (K, 2) array."""
    triples = np.concatenate([kg.train, kg.valid, kg.test])
    return unique_rows(triples[:, :2])


def _within(values, first):
    """Sums of ``values`` before each entry within its run; the runs start
    at the sorted indices ``first``, the first of them 0."""
    before = np.cumsum(values) - values
    return before - np.repeat(before[first], np.diff(first, append=len(values)))


def _pieces(sizes):
    """``arange(len(sizes))`` cut into runs whose sizes sum to less than
    ``_CHUNK`` plus the size of the run's last entry."""
    block = (np.cumsum(sizes) - sizes) // _CHUNK
    return np.split(np.arange(len(sizes)), np.flatnonzero(np.diff(block)) + 1)


def select_references(kg, index, n_refs=DEFAULT_N_REFS, train_hash=0):
    """Build the full reference table for every query key in the dataset.

    Key (h, r) takes r's training pairs in (d(h, h_i), tie position) order;
    in the tie order each head's pairs sit together. So the keys walk the
    rings of h, nearest first: each ring's heads give their pairs in tie
    position, until the key holds N+1. A key still short at the cap has
    every near pair, and takes the rest from the start of r's tie order,
    skipping heads within the cap. Cost per key: the ring entries up to the
    distance that fills it, plus N, not the pairs of its relation. Each
    step works on about ``_CHUNK`` ring entries or far candidates at once.
    """
    if not 0 <= n_refs <= 254:
        raise ValueError("n_refs must be in [0, 254]")
    n, cap = kg.n_entities, index.cap
    freq = kg.entity_frequency()
    keys = query_keys(kg)
    head, rel = keys.T
    h, r, t = kg.train.T
    tie = np.lexsort((t, h, -freq[h], r))  # per relation, in tie order
    pairs = kg.train[tie][:, [0, 2]]
    first = np.searchsorted(r[tie], np.arange(kg.n_relations + 1))
    want = np.minimum(np.diff(first)[rel], n_refs + 1)
    indptr = np.concatenate(([0], np.cumsum(want)))
    # groups: the runs of one (r, h_i), numbered in tie order
    code = r[tie] * n + pairs[:, 0]
    start = np.flatnonzero(np.diff(code, prepend=-1))
    size = np.diff(start, append=len(code))
    group = np.full(kg.n_relations * n, -1, dtype=np.int32)
    group[code[start]] = np.arange(len(start))
    out = np.empty((indptr[-1], 2), dtype=np.int64)
    taken = np.zeros(len(keys), dtype=np.int64)
    for d in range(cap):
        live = np.flatnonzero(taken < want)
        at = head[live] * cap + d
        ring = index.ring_offsets[at + 1] - index.ring_offsets[at]
        for part in _pieces(ring):
            owner = np.repeat(live[part], ring[part])
            g = group[rel[owner] * n + index.ids[
                ranges(index.ring_offsets[at[part]], ring[part])]]
            hit = g >= 0
            owner, g = np.divmod(np.sort(owner[hit] * len(start) + g[hit]),
                                 len(start))  # by (key, tie position)
            slot = taken[owner] + _within(
                size[g], np.flatnonzero(np.diff(owner, prepend=-1)))
            take = np.clip(want[owner] - slot, 0, size[g])
            owner, g, slot, take = (x[take > 0] for x in (owner, g, slot, take))
            out[ranges(indptr[owner] + slot, take)] = (
                pairs[ranges(start[g], take)])
            np.add.at(taken, owner, take)
    # a short key holds every near pair, so the first ``want`` pairs of its
    # relation hold at least the far ones it lacks
    short = np.flatnonzero(taken < want)
    for part in _pieces(want[short] * cap):
        keyed = short[part]
        owner = np.repeat(keyed, want[keyed])
        cand = ranges(first[rel[keyed]], want[keyed])
        far = index.distance(head[owner], pairs[cand, 0]) == cap
        slot = taken[owner] + _within(far, np.cumsum(want[keyed]) - want[keyed])
        keep = far & (slot < want[owner])
        out[indptr[owner[keep]] + slot[keep]] = pairs[cand[keep]]
    return ReferenceTable(n_refs, keys, indptr, out, train_hash, index.cap)


# ---------------------------------------------------------------------------
# aggregation


def gather_references(table, h_ids, r_ids, exclude_tails=None):
    """References of a batch of queries in the table's ragged form: returns
    ``(indptr (B+1,), pairs (P, 2))``, row i owning ``pairs[indptr[i]:
    indptr[i+1]]``.

    Row i holds the first N pairs of key (h_i, r_i); an (h, r) that is not a
    key gets none. With ``exclude_tails`` (training), the query's own pair
    (h_i, exclude_tails[i]) is dropped first, so the spare (N+1)-th pair
    takes its place.
    """
    h = np.asarray(h_ids, dtype=np.int64)
    codes = (h << 32) | np.asarray(r_ids, dtype=np.int64)
    # left and right insertion points differ only at a key: else first == stop
    first = table.indptr[np.searchsorted(table.codes, codes, side="left")]
    stop = table.indptr[np.searchsorted(table.codes, codes, side="right")]
    slots = first[:, None] + np.arange(table.n_refs + 1)
    live = slots < stop[:, None]
    if exclude_tails is not None:
        row = np.nonzero(live)[0]
        ref = table.pairs[slots[live]]
        live[live] = ((ref[:, 0] != h[row])
                      | (ref[:, 1] != np.reshape(exclude_tails, -1)[row]))
    live &= np.cumsum(live, axis=1) <= table.n_refs
    indptr = np.concatenate(([0], np.cumsum(live.sum(axis=1))))
    return indptr, table.pairs[slots[live]]


@dataclass
class AggCache:
    """Forward intermediates kept for the backward pass: the CSR (B,
    n_entities) slot weight operators s_h and s_t, row i holding 1 / count
    at each of its references' heads and tails, and the (B, d_k) pooled
    h_bar, k_bar and s_bar."""

    r_ids: np.ndarray
    s_h: csr_matrix
    s_t: csr_matrix
    h_bar: np.ndarray
    k_bar: np.ndarray
    s_bar: np.ndarray
    z: np.ndarray
    t_prime: np.ndarray


def aggregate_batch(store, q, r_ids, indptr, pairs):
    """Pooled reference aggregation for a batch; returns (t_prime, cache).

    q: (B, d_k) query vectors; r_ids: (B,) ids; ``indptr`` and ``pairs`` the
    ragged references of ``gather_references``. Row-stable: row i of t' has
    the same bits in a batch of one or of any size: a sparse product sums
    each row's references in order, queries are per row, and each weight
    product is a 3-D matmul.
    """
    ents = store.entities
    counts = np.diff(indptr)
    w = np.repeat((1.0 / np.maximum(counts, 1)).astype(q.dtype), counts)
    s_h, s_t = (csr_matrix((w, pairs[:, j], indptr),
                           shape=(len(q), len(ents))) for j in (0, 1))
    h_bar, k_bar = s_h @ ents, s_t @ ents
    s_bar = (counts > 0)[:, None] * (  # W = 1, or 0 without references
        q - query_batch(store, None, r_ids, heads=h_bar))
    # 3-D matmuls: numpy runs one (1, d) product per row, so a row's bits
    # do not depend on the batch, as a 2-D GEMM's do
    pooled = k_bar[:, None] @ store.w_node.T + s_bar[:, None] @ store.w_edge.T
    z = np.concatenate([pooled[:, 0], q], axis=1)
    t_prime = np.tanh(z[:, None] @ store.w_agg.T)[:, 0]
    return t_prime, AggCache(r_ids, s_h, s_t, h_bar, k_bar, s_bar, z, t_prime)


def aggregate_pullback(store, cache, d_t_prime, buf):
    """Chain an upstream gradient on t' back through the aggregation.

    Adds the weight gradients, the references' rows through the slot weight
    operators and the relations of rows with any to the GradBuffer ``buf``;
    returns the gradient on q, which feeds the caller's own query pullback.
    """
    d_k = store.d_k
    d_pre = d_t_prime * (1.0 - cache.t_prime * cache.t_prime)
    d_z = d_pre @ store.w_agg
    d_pooled = d_z[:, :d_k]
    buf.add_dense(2, d_pooled.T @ cache.k_bar)
    buf.add_dense(3, d_pooled.T @ cache.s_bar)
    buf.add_dense(4, d_pre.T @ cache.z)
    has = np.diff(cache.s_h.indptr) > 0
    d_q = has[:, None] * (d_pooled @ store.w_edge)  # W d_s_bar
    buf.add_entities(cache.s_t, d_pooled @ store.w_node)
    d_h_bar, d_r = query_pullback(store, None, cache.r_ids, -d_q,
                                  heads=cache.h_bar)
    buf.add_entities(cache.s_h, d_h_bar)
    buf.add_relations(cache.r_ids[has], d_r[has])
    return d_z[:, d_k:] + d_q


def context_vector(store, table, h, r, exclude_tail=None):
    """t' for one query, or a (B, d_k) row per query for 1-D ``h`` and
    ``r`` (and ``exclude_tail``): one gather and one ``aggregate_batch``,
    whose rows are the same bits alone or in any batch."""
    h_ids, r_ids = np.atleast_1d(h), np.atleast_1d(r)
    refs = gather_references(table, h_ids, r_ids, exclude_tail)
    t_prime, _ = aggregate_batch(store, query_batch(store, h_ids, r_ids),
                                 r_ids, *refs)
    return t_prime if np.ndim(h) else t_prime[0]


# ---------------------------------------------------------------------------
# cosine scoring


def cosine_all(t_prime, entities):
    """cos(t', k) for every row k of ``entities``; 0 where either is zero.

    Works along the last axis and broadcasts, so row pairs of two (m, d)
    arrays give the same bits as the one-t' call's entries.
    """
    dots = (entities * t_prime).sum(axis=-1)
    tn = np.sqrt((t_prime * t_prime).sum(axis=-1))
    en = np.sqrt((entities * entities).sum(axis=-1))
    denom = tn * en
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom == 0, 0.0, dots / np.where(denom == 0, 1.0, denom))


def score_fc(store, table, h, r, t, exclude_tail=None):
    """Cosine score of one candidate tail against the context vector."""
    t_prime = context_vector(store, table, h, r, exclude_tail=exclude_tail)
    return float(cosine_all(t_prime, store.entities[[t]])[0])


def score_f(store, table, h, r, t, lam, exclude_tail=None):
    """Combined score f = f_c + lambda * f_g."""
    return (score_fc(store, table, h, r, t, exclude_tail=exclude_tail)
            + lam * score_fg(store, h, r, t))
