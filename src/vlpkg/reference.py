"""Reference answers and their aggregation into context-adjusted candidates.

For a query (h, r), the references are training pairs (h_i, t_i) of the same
relation whose heads are closest to h on the undirected training graph.
Their answer embeddings k_i and query differences s_i = q - q_i are pooled,

    pooled = mean_i( W_node k_i + W_edge s_i )
    t'     = tanh( W_agg [pooled ; q] )

and a candidate tail t is scored by cosine(t', k_t). The combined score adds
the plain triple score: f = f_c + lambda * f_g.

Selection is one stable sort: the relation's training pairs, ordered by
(head frequency desc, h_i, t_i), are stable-sorted by the capped distance
d(h, h_i). It is precomputed once per dataset and cached in format 3 (magic
``VLPR``): a header recording N, the cap of the distances used, the train
hash and the key and pair counts, then the keys, the per-key counts and the
pairs, each written whole. In memory the table is the same three arrays,
with the counts held as offsets. Each key stores one spare reference beyond
N so the query's own training answer can be masked out during training
without shrinking the reference set.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .data import unique_rows
from .distances import CacheError, read_file, write_file
from .models import query_batch, query_pullback, score_fg

DEFAULT_N_REFS = 8

MAGIC = b"VLPR"
VERSION = 3
# after the magic: version, N, cap, key count, train hash, pair count
_HEADER = struct.Struct("<IIIQQQ")

_BLOCK = 256  # query heads per block of dense distance rows


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


def select_references(kg, index, n_refs=DEFAULT_N_REFS, train_hash=0):
    """Build the full reference table for every query key in the dataset."""
    if not 0 <= n_refs <= 254:
        raise ValueError("n_refs must be in [0, 254]")
    freq = kg.entity_frequency()
    keys = query_keys(kg)
    per_relation = np.bincount(kg.train[:, 1], minlength=kg.n_relations)
    counts = np.minimum(per_relation[keys[:, 1]], n_refs + 1)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    out = np.empty((indptr[-1], 2), dtype=np.int64)
    for r in range(kg.n_relations):
        rows = np.flatnonzero(keys[:, 1] == r)
        pairs = kg.relation_pairs(r)
        # tie order within one distance: frequency desc, then h_i, then t_i
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0], -freq[pairs[:, 0]]))]
        for start in range(0, len(rows), _BLOCK):
            block = rows[start:start + _BLOCK]
            dist = index.distances_from(keys[block, 0])[:, pairs[:, 0]]
            order = np.argsort(dist, axis=1, kind="stable")[:, :n_refs + 1]
            slots = indptr[block][:, None] + np.arange(order.shape[1])
            out[slots] = pairs[order]
    return ReferenceTable(n_refs, keys, indptr, out, train_hash, index.cap)


# ---------------------------------------------------------------------------
# aggregation


def gather_references(table, h_ids, r_ids, exclude_tails=None):
    """References of a batch of queries as (B, N) id arrays plus a mask.

    Row i holds the first N pairs of key (h_i, r_i), padded with id 0 and
    mask 0; an (h, r) that is not a key gets none. With ``exclude_tails``
    (training), the query's own pair (h_i, exclude_tails[i]) is dropped
    first and the spare (N+1)-th pair moves up.
    """
    n = table.n_refs
    h = np.asarray(h_ids, dtype=np.int64)
    codes = (h << 32) | np.asarray(r_ids, dtype=np.int64)
    # left and right insertion points differ only at a key: else first == stop
    first = table.indptr[np.searchsorted(table.codes, codes, side="left")]
    stop = table.indptr[np.searchsorted(table.codes, codes, side="right")]
    slots = first[:, None] + np.arange(n + 1)
    live = slots < stop[:, None]
    pairs = table.pairs if len(table.pairs) else np.zeros((1, 2), np.int64)
    ref = pairs[np.where(live, slots, 0)]
    if exclude_tails is not None:  # drop the own pair, keep the rest in order
        t = np.asarray(exclude_tails)[:, None]
        live &= (ref[..., 0] != h[:, None]) | (ref[..., 1] != t)
        order = np.argsort(~live, axis=1, kind="stable")
        ref = np.take_along_axis(ref, order[..., None], axis=1)
        live = np.take_along_axis(live, order, axis=1)
    live = live[:, :n]
    return (np.where(live, ref[:, :n, 0], 0), np.where(live, ref[:, :n, 1], 0),
            live.astype(np.float64))


@dataclass
class AggCache:
    """Forward intermediates kept for the backward pass."""

    q: np.ndarray
    r_full: np.ndarray
    ref_h: np.ndarray
    ref_t: np.ndarray
    mask: np.ndarray
    k_refs: np.ndarray
    s_refs: np.ndarray
    denom: np.ndarray
    z: np.ndarray
    t_prime: np.ndarray


def aggregate_batch(store, q, r_ids, ref_h, ref_t, mask):
    """Pooled reference aggregation for a batch; returns (t_prime, cache).

    q: (B, d_k) precomputed query vectors; ref_h/ref_t: (B, N) ids;
    mask: (B, N) 1.0 where the slot holds a real reference.
    """
    agg = store.agg
    dtype = q.dtype
    mask = mask.astype(dtype, copy=False)
    b, n = ref_h.shape
    r_full = np.broadcast_to(np.asarray(r_ids).reshape(b, 1), (b, n))
    k_refs = store.entities[ref_t]
    q_refs = query_batch(store, ref_h, r_full)
    s_refs = q[:, None, :] - q_refs
    msg = k_refs @ agg.w_node.T + s_refs @ agg.w_edge.T
    msg = msg * mask[..., None]
    denom = np.maximum(mask.sum(axis=1), 1.0)
    pooled = msg.sum(axis=1) / denom[:, None]
    z = np.concatenate([pooled, q], axis=1)
    t_prime = np.tanh(z @ agg.w_agg.T)
    cache = AggCache(q=q, r_full=r_full, ref_h=ref_h, ref_t=ref_t, mask=mask,
                     k_refs=k_refs, s_refs=s_refs, denom=denom, z=z,
                     t_prime=t_prime)
    return t_prime, cache


def aggregate_pullback(store, cache, d_t_prime, buf):
    """Chain an upstream gradient on t' back through the aggregation.

    Adds the weight gradients and the rows of the real (unmasked) reference
    slots to the GradBuffer ``buf``; returns the gradient on q, which feeds
    the caller's own query pullback.
    """
    agg = store.agg
    d_k = store.d_k
    d_pre = d_t_prime * (1.0 - cache.t_prime * cache.t_prime)
    d_z = d_pre @ agg.w_agg
    d_q = d_z[:, d_k:].copy()
    d_msg = (d_z[:, :d_k] / cache.denom[:, None])[:, None, :] * cache.mask[..., None]
    buf.add_dense(2, np.einsum("bna,bnk->ak", d_msg, cache.k_refs))
    buf.add_dense(3, np.einsum("bna,bnk->ak", d_msg, cache.s_refs))
    buf.add_dense(4, d_pre.T @ cache.z)
    d_s_refs = d_msg @ agg.w_edge
    d_q += d_s_refs.sum(axis=1)
    d_h_refs, d_r_refs = query_pullback(store, cache.ref_h, cache.r_full,
                                        -d_s_refs)
    live = cache.mask > 0
    buf.add_entities(cache.ref_t[live], (d_msg @ agg.w_node)[live])
    buf.add_entities(cache.ref_h[live], d_h_refs[live])
    buf.add_relations(cache.r_full[live], d_r_refs[live])
    return d_q


def context_vector(store, table, h, r, exclude_tail=None):
    """t' for one query: the batch aggregation on a one-row batch."""
    h_ids = np.array([h])
    r_ids = np.array([r])
    ref_h, ref_t, mask = gather_references(
        table, h_ids, r_ids, None if exclude_tail is None else [exclude_tail])
    t_prime, _ = aggregate_batch(store, query_batch(store, h_ids, r_ids),
                                 r_ids, ref_h, ref_t, mask)
    return t_prime[0]


# ---------------------------------------------------------------------------
# cosine scoring


def cosine_all(t_prime, entities):
    """cos(t', k) for every row k of ``entities``; 0 where either is zero."""
    dots = (entities * t_prime).sum(axis=1)
    tn = np.sqrt((t_prime * t_prime).sum())
    en = np.sqrt((entities * entities).sum(axis=1))
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
