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
pairs, each written whole. Each key stores one spare reference beyond N so
the query's own training answer can be masked out during training without
shrinking the reference set.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

import numpy as np

from .distances import CacheError, write_file
from .models import query_batch, query_pullback

logger = logging.getLogger(__name__)

DEFAULT_N_REFS = 8

MAGIC = b"VLPR"
VERSION = 3
# magic, version, N, cap, key count, train hash, pair count
_HEADER = struct.Struct("<4sIIIQQQ")

_BLOCK = 256  # query heads per block of dense distance rows

_EMPTY_PAIRS = np.zeros((0, 2), dtype=np.int64)


class ReferenceTable:
    """(h, r) -> up to N+1 reference pairs (h_i, t_i), selection order.

    Order: graph distance d(h, h_i) ascending, then training frequency of h_i
    descending, then h_i id, then t_i id. Keys cover every (h, r) query seen
    in any split; keys whose relation has no training pairs map to the empty
    list (the aggregator then pools nothing and t' = tanh(W_agg [0 ; q])).
    """

    def __init__(self, n_refs, entries, train_hash=0, cap=0):
        self.n_refs = int(n_refs)
        self.entries = entries
        self.train_hash = int(train_hash)
        self.cap = int(cap)  # of the distance index the references came from

    def lookup(self, h, r, exclude_tail=None):
        """References for one query, truncated to N.

        With ``exclude_tail`` set (training), the query's own pair
        (h, exclude_tail) is masked out before truncation.
        """
        arr = self.entries.get((int(h), int(r)))
        if arr is None or len(arr) == 0:
            return _EMPTY_PAIRS
        if exclude_tail is not None:
            keep = ~((arr[:, 0] == h) & (arr[:, 1] == exclude_tail))
            arr = arr[keep]
        return arr[:self.n_refs]

    def save(self, path):
        keys = sorted(self.entries)
        arrays = [self.entries[key] for key in keys]
        counts = np.fromiter(map(len, arrays), dtype="u1", count=len(keys))
        pairs = np.concatenate([_EMPTY_PAIRS, *arrays])
        write_file(path, _HEADER.pack(MAGIC, VERSION, self.n_refs, self.cap,
                                      len(keys), self.train_hash, len(pairs)),
                   ((np.array(keys).reshape(-1, 2), "<u4"), (counts, "u1"),
                    (pairs, "<u4")))

    @classmethod
    def load(cls, path):
        with open(path, "rb") as handle:
            data = handle.read()
        if len(data) < 8 or data[:4] != MAGIC:
            raise CacheError(f"{path}: not a reference cache")
        (version,) = struct.unpack_from("<I", data, 4)
        if version != VERSION:
            raise CacheError(f"{path}: unsupported version {version}")
        if len(data) < _HEADER.size:
            raise CacheError(f"{path}: truncated reference cache")
        _, _, n_refs, cap, n_keys, train_hash, n_pairs = _HEADER.unpack_from(data)
        size = _HEADER.size + 9 * n_keys + 8 * n_pairs
        if len(data) < size:
            raise CacheError(f"{path}: truncated reference cache")
        if len(data) > size:
            raise CacheError(f"{path}: trailing bytes in reference cache")
        keys = np.frombuffer(data, "<u4", 2 * n_keys, _HEADER.size)
        counts = np.frombuffer(data, "u1", n_keys, _HEADER.size + 8 * n_keys)
        pairs = np.frombuffer(data, "<u4", 2 * n_pairs, size - 8 * n_pairs)
        if counts.sum() != n_pairs or (n_keys and counts.max() > n_refs + 1):
            raise CacheError(f"{path}: counts disagree with pair count")
        pairs = pairs.reshape(-1, 2).astype(np.int64)
        entries = dict(zip(map(tuple, keys.reshape(-1, 2).tolist()),
                           np.split(pairs, np.cumsum(counts)[:-1])))
        return cls(n_refs, entries, train_hash, cap)


def query_keys(kg):
    """Distinct (h, r) queries over all splits, sorted."""
    triples = np.concatenate([kg.train, kg.valid, kg.test])
    return list(map(tuple, np.unique(triples[:, :2], axis=0).tolist()))


def select_references(kg, index, n_refs=DEFAULT_N_REFS, train_hash=0):
    """Build the full reference table for every query key in the dataset."""
    if not 0 <= n_refs <= 254:
        raise ValueError("n_refs must be in [0, 254]")
    freq = kg.entity_frequency()
    keys = np.array(query_keys(kg), dtype=np.int64).reshape(-1, 2)
    entries = {}
    for r in np.unique(keys[:, 1]).tolist():
        heads = keys[keys[:, 1] == r, 0]
        pairs = kg.relation_pairs(r)
        # tie order within one distance: frequency desc, then h_i, then t_i
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0], -freq[pairs[:, 0]]))]
        for start in range(0, len(heads), _BLOCK):
            block = heads[start:start + _BLOCK]
            dist = index.distances_from(block)[:, pairs[:, 0]]
            order = np.argsort(dist, axis=1, kind="stable")[:, :n_refs + 1]
            entries.update(zip([(h, r) for h in block.tolist()],
                               pairs[order]))
    return ReferenceTable(n_refs, entries, train_hash, index.cap)


# ---------------------------------------------------------------------------
# aggregation


def gather_references(table, h_ids, r_ids, exclude_tails=None, n_refs=None):
    """Pad per-query reference lists into (B, N) id arrays plus a mask."""
    n = table.n_refs if n_refs is None else n_refs
    b = len(h_ids)
    ref_h = np.zeros((b, n), dtype=np.int64)
    ref_t = np.zeros((b, n), dtype=np.int64)
    mask = np.zeros((b, n))
    for i in range(b):
        excl = None if exclude_tails is None else int(exclude_tails[i])
        arr = table.lookup(int(h_ids[i]), int(r_ids[i]), exclude_tail=excl)
        m = min(len(arr), n)
        if m:
            ref_h[i, :m] = arr[:m, 0]
            ref_t[i, :m] = arr[:m, 1]
            mask[i, :m] = 1.0
    return ref_h, ref_t, mask


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


@dataclass
class AggGrads:
    """Backward outputs of the aggregation, ready for scatter-adds.

    d_q feeds the caller's own query pullback; the flat reference arrays are
    already filtered down to real (unmasked) slots.
    """

    d_q: np.ndarray
    d_w_node: np.ndarray
    d_w_edge: np.ndarray
    d_w_agg: np.ndarray
    ref_t_ids: np.ndarray
    d_ref_t: np.ndarray
    ref_h_ids: np.ndarray
    d_ref_h: np.ndarray
    ref_r_ids: np.ndarray
    d_ref_r: np.ndarray


def aggregate_pullback(store, cache, d_t_prime):
    """Chain an upstream gradient on t' back through the aggregation."""
    agg = store.agg
    d_a = agg.d_a
    d_pre = d_t_prime * (1.0 - cache.t_prime * cache.t_prime)
    d_w_agg = d_pre.T @ cache.z
    d_z = d_pre @ agg.w_agg
    d_pooled = d_z[:, :d_a]
    d_q = d_z[:, d_a:].copy()
    d_msg = (d_pooled / cache.denom[:, None])[:, None, :] * cache.mask[..., None]
    d_w_node = np.einsum("bna,bnk->ak", d_msg, cache.k_refs)
    d_w_edge = np.einsum("bna,bnk->ak", d_msg, cache.s_refs)
    d_k_refs = d_msg @ agg.w_node
    d_s_refs = d_msg @ agg.w_edge
    d_q += d_s_refs.sum(axis=1)
    d_h_refs, d_r_refs = query_pullback(store, cache.ref_h, cache.r_full,
                                        -d_s_refs)
    live = cache.mask > 0
    return AggGrads(
        d_q=d_q,
        d_w_node=d_w_node,
        d_w_edge=d_w_edge,
        d_w_agg=d_w_agg,
        ref_t_ids=cache.ref_t[live],
        d_ref_t=d_k_refs[live],
        ref_h_ids=cache.ref_h[live],
        d_ref_h=d_h_refs[live],
        ref_r_ids=cache.r_full[live],
        d_ref_r=d_r_refs[live],
    )


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
# cosine scoring (single-query public kernels; elementwise, bit-stable
# against their all-entities counterparts)


def cosine_all(t_prime, entities):
    """cos(t', k) for every row k of ``entities``; 0 where either is zero."""
    dots = (entities * t_prime).sum(axis=1)
    tn = np.sqrt((t_prime * t_prime).sum())
    en = np.sqrt((entities * entities).sum(axis=1))
    denom = tn * en
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom == 0, 0.0, dots / np.where(denom == 0, 1.0, denom))


def cosine_single(t_prime, entities, t):
    """cos(t', entities[t]) as a python float, via ``cosine_all``."""
    return float(cosine_all(t_prime, entities[[t]])[0])


def score_fc(store, table, h, r, t, exclude_tail=None):
    """Cosine score of one candidate tail against the context vector."""
    t_prime = context_vector(store, table, h, r, exclude_tail=exclude_tail)
    return cosine_single(t_prime, store.entities, t)


def score_fc_all(store, table, h, r, exclude_tail=None):
    """Cosine scores of every entity; row t equals score_fc(..., t) bit-exactly."""
    t_prime = context_vector(store, table, h, r, exclude_tail=exclude_tail)
    return cosine_all(t_prime, store.entities)


def score_f(store, table, h, r, t, lam, exclude_tail=None):
    """Combined score f = f_c + lambda * f_g."""
    from .models import score_fg

    return (score_fc(store, table, h, r, t, exclude_tail=exclude_tail)
            + lam * score_fg(store, h, r, t))
