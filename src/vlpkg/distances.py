"""All-pairs truncated graph distances over the undirected training graph.

Distances are hop counts, relation-agnostic and direction-agnostic, computed
by breadth-first search from every entity, level by level as sparse boolean
matrix products, and truncated at ``cap``: anything not reached in fewer
than ``cap`` hops is reported as ``cap``. Only pairs with distance < cap are
stored, so memory stays proportional to the truncated neighbourhood sizes,
and a pair's distance is not stored at all: it is the ring that holds it.

The index serializes to a little-endian binary cache (magic ``VLPD``) keyed
by a hash of the raw training file so stale caches are never reused: the
header, then the ring offsets and the ids, each written whole.
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
VERSION = 3
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
    """Truncated distance rings in one flat CSR form.

    Ring (s, d), the ids at exactly distance d < cap from s in ascending
    order, is ``ids`` between ``ring_offsets[s * cap + d]`` and the next
    offset. The rings of s follow one another, so row s, the ids within
    distance cap-1 of s sorted by (distance, id), starts at ``indptr[s]``,
    every cap-th ring offset, and ends at ``indptr[s + 1]``.
    """

    def __init__(self, n_entities, cap, ring_offsets, ids, train_hash=0):
        self.n_entities = int(n_entities)
        self.cap = int(cap)
        self.train_hash = int(train_hash)
        self.ring_offsets = ring_offsets  # (n * cap + 1,) int64
        self.ids = ids                    # (pairs,) uint32
        self.indptr = ring_offsets[::self.cap]  # (n + 1,) view

    def row(self, source):
        """(ids, dists) arrays for one source, sorted by (distance, id)."""
        sizes, lo = self.ring_sizes(source)[:-1], self.indptr[source]
        return (self.ids[lo:lo + sizes.sum()],
                np.repeat(np.arange(self.cap, dtype=np.uint8), sizes))

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
        flat = np.ravel(sources)
        sizes = self.ring_sizes(flat)[:, :-1]
        at = np.repeat(np.arange(sizes.size), sizes.ravel())  # row * cap + d
        out = np.full((len(flat), self.n_entities), self.cap, dtype=np.uint8)
        pos = ranges(self.indptr[flat], sizes.sum(axis=1))  # rows' pairs
        out[at // self.cap, self.ids[pos]] = at % self.cap
        return out.reshape(np.shape(sources) + (self.n_entities,))

    def save(self, path):
        write_file(path, MAGIC + _HEADER.pack(VERSION, self.cap,
                                              self.n_entities, self.train_hash,
                                              len(self.ids)),
                   ((self.ring_offsets, "<i8"), (self.ids, "<u4")))

    @classmethod
    def load(cls, path):
        _, (cap, n, train_hash, pairs), (offsets, ids) = read_file(
            path, MAGIC, {VERSION: _HEADER},
            lambda _, cap, n, train_hash, pairs: (
                ("<i8", n * cap + 1), ("<u4", pairs)),
            "distance cache")
        if not 1 <= cap <= 255 or pairs and ids.max() >= n:
            raise CacheError(f"{path}: cap or id out of range")
        if (offsets[0] != 0 or offsets[-1] != pairs
                or (np.diff(offsets) < 0).any()):
            raise CacheError(f"{path}: ring offsets do not rise from 0 to"
                             f" the pair count {pairs}")
        return cls(n, cap, offsets, ids, train_hash)


def compute_distances(kg, cap=DEFAULT_CAP, threads=1, train_hash=0):
    """Truncated BFS from every entity on the undirected training graph.

    Sources are searched ``_CHUNK`` at a time, level by level: level d is a
    sparse boolean (entities x sources) matrix holding in column i the ids
    at distance d from source i, and level d + 1 is ``adj @ level`` less
    levels d and d - 1 (on an undirected graph, the only seen ids it can
    reach). Stacked, the levels hold id v at distance d in row d * n + v,
    so one transpose to CSR lists each source's pairs in (distance, id)
    order; the per-source counts of level d (a ``bincount`` of its column
    indices) are the sizes of the rings (source, d), whose running sum is
    ``ring_offsets``. ``threads`` is accepted for older callers and unused.
    """
    if cap < 1 or cap > 255:
        raise ValueError("cap must be in [1, 255]")
    n = kg.n_entities
    ends = np.concatenate([kg.train[:, [0, 2]], kg.train[:, [2, 0]]])
    adj = csr_matrix((np.ones(len(ends), dtype=bool), ends.T), shape=(n, n))
    eye = identity(n, dtype=bool, format="csc")
    ids, counts = [], np.zeros((n, cap), dtype=np.int64)
    for start in range(0, n, _CHUNK):
        level = before = eye[:, start:start + _CHUNK].tocsr()  # level 0
        levels = [level]
        while len(levels) < cap and level.nnz:  # an empty level adds no pair
            level, before = (adj @ level > level) > before, level
            levels.append(level)
        for d, level in enumerate(levels):  # ring (source, d) sizes
            counts[start:start + level.shape[1], d] = np.bincount(
                level.indices, minlength=level.shape[1])
        rings = vstack(levels, format="csr").T.tocsr()
        ids.append((rings.indices % n).astype(np.uint32))
    return DistanceIndex(n, cap, np.concatenate([[0], np.cumsum(counts)]),
                         np.concatenate(ids), train_hash)
