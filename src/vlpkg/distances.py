"""All-pairs truncated graph distances over the undirected training graph.

Distances are hop counts, relation-agnostic and direction-agnostic, computed
by breadth-first search from every entity, level by level as sparse boolean
matrix products, and truncated at ``cap``: anything not reached in fewer
than ``cap`` hops is reported as ``cap``. Only pairs with distance < cap are
stored, so memory stays proportional to the truncated neighbourhood sizes.

The index serializes to a little-endian binary cache (magic ``VLPD``) keyed
by a hash of the raw training file so stale caches are never reused: the
header, then the row offsets, ids and distances, each written whole.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct

import numpy as np
from scipy.sparse import csr_matrix, identity, vstack

from .data import ranges

logger = logging.getLogger(__name__)

DEFAULT_CAP = 8
_CHUNK = 2048  # sources searched together

MAGIC = b"VLPD"
VERSION = 2
_HEADER = struct.Struct("<IIQQQ")  # after the magic: version, cap, n, hash, pairs


class CacheError(Exception):
    """A cache file is missing, truncated, or fails validation."""


def write_file(path, header, arrays):
    """Write ``header`` bytes, then each ``(array, dtype)`` of ``arrays`` as
    a flat array of that dtype, to ``path`` in full: into a per-process temp
    file in the same directory, then ``os.replace`` over ``path``, so a
    concurrent reader sees either the old file or the whole new one. The
    temp file is removed if a write raises."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(header)
            for arr, dtype in arrays:
                handle.write(np.ascontiguousarray(arr, dtype=dtype))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_file(path, magic, headers, layout, what):
    """Read a file ``write_file`` wrote: ``magic``, then the header struct
    ``headers[version]`` (its first field the uint32 version), then the
    arrays ``layout(version, *fields)`` lists as ``(dtype, count)`` pairs.
    The file must be exactly that long. Returns ``(version, fields,
    arrays)``, the arrays read-only views of the file's bytes; raises
    ``CacheError`` naming ``what`` for anything else."""
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < 8 or data[:4] != magic:
        raise CacheError(f"{path}: not a {what}")
    (version,) = struct.unpack_from("<I", data, 4)
    if version not in headers:
        raise CacheError(f"{path}: unsupported {what} version {version}")
    pos = 4 + headers[version].size
    if len(data) < pos:
        raise CacheError(f"{path}: truncated {what}")
    fields = headers[version].unpack_from(data, 4)[1:]
    parts = [(np.dtype(dtype), count)
             for dtype, count in layout(version, *fields)]
    size = pos + sum(dtype.itemsize * count for dtype, count in parts)
    if len(data) < size:
        raise CacheError(f"{path}: truncated {what}")
    if len(data) > size:
        raise CacheError(f"{path}: trailing bytes in {what}")
    arrays = []
    for dtype, count in parts:
        arrays.append(np.frombuffer(data, dtype, count, pos))
        pos += dtype.itemsize * count
    return version, fields, arrays


def hash_file(path, chunk_size=1 << 20):
    """64-bit BLAKE2b (RFC 7693) of a file's raw bytes, read in chunks."""
    digest = hashlib.blake2b(digest_size=8)
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(chunk_size), b""):
            digest.update(chunk)
    return int.from_bytes(digest.digest(), "little")


class DistanceIndex:
    """Truncated distance rows in CSR form.

    Row s is ``ids[indptr[s]:indptr[s + 1]]``: the ids within distance
    cap-1 of s (s itself included at distance 0), sorted by (distance, id),
    with ``dists`` aligned. The ids at exactly distance d from s are the
    slice between ``ring_offsets[s * cap + d]`` and the next offset.
    """

    def __init__(self, n_entities, cap, indptr, ids, dists, train_hash=0):
        self.n_entities = int(n_entities)
        self.cap = int(cap)
        self.train_hash = int(train_hash)
        self.indptr = indptr   # (n+1,) int64
        self.ids = ids         # (pairs,) uint32
        self.dists = dists     # (pairs,) uint8
        # a ring starts at a row's first pair and where the distance changes;
        # an absent ring starts where the next one does, or the next row
        new = np.empty(len(dists), dtype=bool)
        new[:1] = True
        np.not_equal(dists[1:], dists[:-1], out=new[1:])
        new[indptr[:-1][np.diff(indptr) > 0]] = True
        at = np.flatnonzero(new)
        offsets = np.repeat(indptr[1:, None], self.cap + 1, axis=1)
        offsets[np.searchsorted(indptr, at, side="right") - 1, dists[at]] = at
        offsets = np.minimum.accumulate(offsets[:, ::-1], axis=1)[:, ::-1]
        self.ring_offsets = np.append(offsets[:, :-1], indptr[-1:])

    def row(self, source):
        """(ids, dists) arrays for one source, sorted by (distance, id)."""
        lo, hi = self.indptr[source], self.indptr[source + 1]
        return self.ids[lo:hi], self.dists[lo:hi]

    def ring(self, source, distance):
        """Ids at exactly ``distance`` from source, ascending (empty if none)."""
        if distance >= self.cap:
            raise ValueError("rings are only stored for distance < cap")
        i = source * self.cap + distance
        return self.ids[self.ring_offsets[i]:self.ring_offsets[i + 1]]

    def ring_sizes(self, sources):
        """Count of ids at each distance 0..cap-1, plus the remainder bucket
        at index cap (distance >= cap): ``np.shape(sources) + (cap + 1,)``."""
        first = np.asarray(sources, dtype=np.int64)[..., None] * self.cap
        off = self.ring_offsets[first + np.arange(self.cap + 1)]
        rest = self.n_entities - (off[..., -1:] - off[..., :1])
        return np.concatenate([np.diff(off), rest], axis=-1)

    def distance(self, a, b):
        """Hop count between a and b, saturated at cap: an int, or an array
        for arrays of sources a and targets b."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b)[..., None]
        first = a[..., None] * self.cap + np.arange(self.cap)
        lo, hi = self.ring_offsets[first], self.ring_offsets[first + 1]
        end, top = hi, len(self.ids) - 1
        while (lo < hi).any():  # bisect every ring of every a for its b
            mid = (lo + hi) // 2
            less = (mid < hi) & (self.ids[np.minimum(mid, top)] < b)
            lo, hi = np.where(less, mid + 1, lo), np.where(less, hi, mid)
        hit = (lo < end) & (self.ids[np.minimum(lo, top)] == b)
        d = np.where(hit.any(-1), hit.argmax(-1), self.cap)
        return d if d.ndim else int(d)

    def distances_from(self, sources):
        """Dense uint8 distances from one source, shape (n_entities,), or from
        each of an array of sources, shape (len(sources), n_entities)."""
        sources = np.asarray(sources, dtype=np.int64)
        flat = sources.ravel()
        lo = self.indptr[flat]
        counts = self.indptr[flat + 1] - lo
        at = ranges(lo, counts)  # the pair positions of every row, joined
        out = np.full((len(flat), self.n_entities), self.cap, dtype=np.uint8)
        out[np.repeat(np.arange(len(flat)), counts), self.ids[at]] = self.dists[at]
        return out.reshape(sources.shape + (self.n_entities,))

    def save(self, path):
        write_file(path, MAGIC + _HEADER.pack(VERSION, self.cap,
                                              self.n_entities, self.train_hash,
                                              len(self.ids)),
                   ((self.indptr, "<i8"), (self.ids, "<u4"),
                    (self.dists, "u1")))

    @classmethod
    def load(cls, path):
        _, (cap, n, train_hash, pairs), (indptr, ids, dists) = read_file(
            path, MAGIC, {VERSION: _HEADER},
            lambda _, cap, n, train_hash, pairs: (
                ("<i8", n + 1), ("<u4", pairs), ("u1", pairs)),
            "distance cache")
        if (indptr[0] != 0 or indptr[-1] != pairs
                or (np.diff(indptr) < 0).any()):
            raise CacheError(f"{path}: row offsets disagree with pair count")
        if pairs and (ids.max() >= n or dists.max() >= cap):
            raise CacheError(f"{path}: id or distance out of range")
        return cls(n, cap, indptr, ids, dists, train_hash)


def compute_distances(kg, cap=DEFAULT_CAP, threads=1, train_hash=0):
    """Truncated BFS from every entity on the undirected training graph.

    Sources are searched ``_CHUNK`` at a time, level by level: level d is a
    sparse boolean (entities x sources) matrix holding in column i the ids
    at distance d from source i, and level d + 1 is ``adj @ level`` less
    levels d and d - 1 (on an undirected graph, the only seen ids it can
    reach). Stacked, the levels hold id v at distance d in row d * n + v,
    so one transpose to CSR lists each source's pairs in (distance, id)
    order. ``threads`` is accepted for older callers and unused.
    """
    if cap < 1 or cap > 255:
        raise ValueError("cap must be in [1, 255]")
    n = kg.n_entities
    ends = np.concatenate([kg.train[:, [0, 2]], kg.train[:, [2, 0]]])
    adj = csr_matrix((np.ones(len(ends), dtype=bool), ends.T), shape=(n, n))
    eye = identity(n, dtype=bool, format="csc")
    ids, dists = [], []
    for start in range(0, n, _CHUNK):
        level = before = eye[:, start:start + _CHUNK].tocsr()  # level 0
        levels = [level]
        while len(levels) < cap and level.nnz:  # an empty level adds no pair
            level, before = (adj @ level > level) > before, level
            levels.append(level)
        rings = vstack(levels, format="csr").T.tocsr()
        ids.append((rings.indices % n).astype(np.uint32))
        dists.append((rings.indices // n).astype(np.uint8))
    ids = np.concatenate(ids)  # one list of parts at a time
    dists = np.concatenate(dists)
    # each row starts with its source, its one pair at distance 0
    indptr = np.append(np.flatnonzero(dists == 0), len(dists))
    return DistanceIndex(n, cap, indptr, ids, dists, train_hash)
