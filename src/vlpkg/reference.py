"""Reference answers and their aggregation into context-adjusted candidates.

For a query (h, r), the references are training pairs (h_i, t_i) of the same
relation whose heads are closest to h on the undirected training graph.
Their answer embeddings k_i and query differences s_i = q - q_i are pooled,

    pooled = mean_i( W_node k_i + W_edge s_i )
    t'     = tanh( W_agg [pooled ; q] )

and a candidate tail t is scored by cosine(t', k_t). The combined score adds
the plain triple score: f = f_c + lambda * f_g.

Selection is precomputed once per dataset and cached (magic ``VLPR``; the
header records N, the cap of the distances used and the train hash). Each
key stores one spare reference beyond N so the query's own training answer
can be masked out during training without shrinking the reference set.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

import numpy as np

from .distances import CacheError
from .models import query_batch, query_embed, query_pullback

logger = logging.getLogger(__name__)

DEFAULT_N_REFS = 8

MAGIC = b"VLPR"
VERSION = 2
_HEADER = struct.Struct("<4sIIIQQ")  # magic, version, N, cap, keys, hash

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
        with open(path, "wb") as handle:
            handle.write(_HEADER.pack(MAGIC, VERSION, self.n_refs, self.cap,
                                      len(keys), self.train_hash))
            for h, r in keys:
                arr = self.entries[(h, r)]
                handle.write(struct.pack("<IIB", h, r, len(arr)))
                handle.write(np.ascontiguousarray(arr, dtype="<u4").tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as handle:
            data = handle.read()
        if len(data) < 8 or data[:4] != MAGIC:
            raise CacheError(f"{path}: not a reference cache")
        (version,) = struct.unpack_from("<I", data, 4)
        if version != VERSION:
            raise CacheError(f"{path}: unsupported version {version}")
        pos = _HEADER.size
        entries = {}
        try:
            _, _, n_refs, cap, n_keys, train_hash = _HEADER.unpack_from(data)
            for _ in range(n_keys):
                h, r, count = struct.unpack_from("<IIB", data, pos)
                pos += 9
                arr = np.frombuffer(data, dtype="<u4", count=2 * count,
                                    offset=pos).reshape(count, 2)
                pos += 8 * count
                entries[(h, r)] = arr.astype(np.int64)
        except (struct.error, ValueError) as exc:
            raise CacheError(f"{path}: truncated reference cache") from exc
        if pos != len(data):
            raise CacheError(f"{path}: trailing bytes in reference cache")
        return cls(n_refs, entries, train_hash, cap)


def query_keys(kg):
    """Distinct (h, r) queries over all splits, sorted."""
    keys = set()
    for split in (kg.train, kg.valid, kg.test):
        for h, r, _ in split:
            keys.add((int(h), int(r)))
    return sorted(keys)


def select_references(kg, index, n_refs=DEFAULT_N_REFS, train_hash=0):
    """Build the full reference table for every query key in the dataset."""
    if not 0 <= n_refs <= 254:
        raise ValueError("n_refs must be in [0, 254]")
    freq = kg.entity_frequency()
    want = n_refs + 1
    by_relation = {}
    for h, r in query_keys(kg):
        by_relation.setdefault(r, []).append(h)

    entries = {}
    for r, heads in by_relation.items():
        pairs = kg.relation_pairs(r)
        if len(pairs) == 0:
            for h in heads:
                entries[(h, r)] = _EMPTY_PAIRS
            continue
        heads_r = np.unique(pairs[:, 0])
        starts = np.searchsorted(pairs[:, 0], heads_r, side="left")
        ends = np.searchsorted(pairs[:, 0], heads_r, side="right")
        tails_of = {
            int(hd): pairs[s:e, 1] for hd, s, e in zip(heads_r, starts, ends)
        }
        # beyond-cap fallback: all heads by (frequency desc, id asc)
        fallback = heads_r[np.lexsort((heads_r, -freq[heads_r]))]
        for h in heads:
            got = []
            used = set()
            for d in range(index.cap):
                ring = index.ring(h, d)
                if len(ring) == 0:
                    continue
                pos = np.searchsorted(heads_r, ring)
                pos_c = np.minimum(pos, len(heads_r) - 1)
                cand = ring[heads_r[pos_c] == ring]
                if len(cand) == 0:
                    continue
                cand = cand[np.lexsort((cand, -freq[cand]))]
                for h_i in cand:
                    used.add(int(h_i))
                    for t_i in tails_of[int(h_i)]:
                        got.append((int(h_i), int(t_i)))
                        if len(got) == want:
                            break
                    if len(got) == want:
                        break
                if len(got) == want:
                    break
            if len(got) < want:
                for h_i in fallback:
                    if int(h_i) in used:
                        continue
                    for t_i in tails_of[int(h_i)]:
                        got.append((int(h_i), int(t_i)))
                        if len(got) == want:
                            break
                    if len(got) == want:
                        break
            entries[(h, r)] = (np.array(got, dtype=np.int64)
                               if got else _EMPTY_PAIRS)
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


def aggregate(agg, q, references):
    """Single-query aggregation from explicit (k_i, s_i) vector pairs.

    ``references`` is a sequence of (answer-embedding, query-difference)
    pairs; empty sequences pool to the zero vector before the output map.
    """
    q = np.asarray(q)
    pooled = np.zeros(agg.d_a, dtype=q.dtype)
    if references:
        for k_i, s_i in references:
            pooled += agg.w_node @ k_i + agg.w_edge @ s_i
        pooled /= len(references)
    return np.tanh(agg.w_agg @ np.concatenate([pooled, q]))


def reference_vectors(store, h, r, pairs):
    """Materialize (k_i, s_i) pairs for one query from reference id pairs."""
    q = query_embed(store, h, r)
    out = []
    for h_i, t_i in pairs:
        k_i = store.entities[int(t_i)]
        s_i = q - query_embed(store, int(h_i), r)
        out.append((k_i, s_i))
    return q, out


def context_vector(store, table, h, r, exclude_tail=None):
    """t' for one query: select references, embed, aggregate."""
    pairs = table.lookup(h, r, exclude_tail=exclude_tail)
    q, refs = reference_vectors(store, h, r, pairs)
    return aggregate(store.agg, q, refs)


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
