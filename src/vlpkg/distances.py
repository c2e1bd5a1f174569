"""All-pairs truncated graph distances over the undirected training graph.

Distances are hop counts, relation-agnostic and direction-agnostic, computed
by breadth-first search from every entity and truncated at ``cap``: anything
not reached in fewer than ``cap`` hops is reported as ``cap``. Only pairs
with distance < cap are stored, so memory stays proportional to the
truncated neighbourhood sizes.

The index serializes to a little-endian binary cache (magic ``VLPD``) keyed
by a hash of the raw training file so stale caches are never reused: the
header, then the row offsets, ids and distances, each written whole.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import logging
import os
import struct

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

logger = logging.getLogger(__name__)

DEFAULT_CAP = 8
_CHUNK = 512  # sources per dijkstra call

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
        # s * cap + d is sorted over all pairs, so one search finds every ring
        keys = np.repeat(np.arange(self.n_entities, dtype=np.int64) * self.cap,
                         np.diff(indptr))
        keys += dists
        self.ring_offsets = np.searchsorted(
            keys, np.arange(self.n_entities * self.cap + 1))

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
        """Hop count between a and b, saturated at cap."""
        ids, dists = self.row(a)
        hit = np.flatnonzero(ids == b)
        return int(dists[hit[0]]) if len(hit) else self.cap

    def distances_from(self, sources):
        """Dense uint8 distances from one source, shape (n_entities,), or from
        each of an array of sources, shape (len(sources), n_entities)."""
        sources = np.asarray(sources, dtype=np.int64)
        flat = sources.ravel()
        lo = self.indptr[flat]
        counts = self.indptr[flat + 1] - lo
        # the pair positions of every row, concatenated
        at = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts,
                                                 counts)
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

    Backed by scipy's unweighted shortest-path machinery on a symmetric CSR
    adjacency matrix, parallelised over source chunks; results are identical
    to a plain per-source BFS.
    """
    if cap < 1 or cap > 255:
        raise ValueError("cap must be in [1, 255]")
    n = kg.n_entities
    ends = np.concatenate([kg.train[:, [0, 2]], kg.train[:, [2, 0]]])
    # repeated pairs sum (up to 2|R| each, so float, not int8); an
    # unweighted search reads only which entries exist
    graph = csr_matrix((np.ones(len(ends)), ends.T), shape=(n, n))

    row_ids = [None] * n
    row_dists = [None] * n

    def run_chunk(start):
        sources = np.arange(start, min(start + _CHUNK, n))
        # limit keeps distances <= cap-1; everything else comes back inf
        dmat = dijkstra(graph, directed=False, unweighted=True,
                        indices=sources, limit=cap - 1)
        for i, src in enumerate(sources):
            drow = dmat[i]
            ids = np.flatnonzero(np.isfinite(drow)).astype(np.uint32)
            dists = drow[ids].astype(np.uint8)
            order = np.lexsort((ids, dists))
            row_ids[src] = ids[order]
            row_dists[src] = dists[order]

    starts = range(0, n, _CHUNK)
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, starts))
    else:
        for start in starts:
            run_chunk(start)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(ids) for ids in row_ids], out=indptr[1:])
    return DistanceIndex(n, cap, indptr, np.concatenate(row_ids),
                         np.concatenate(row_dists), train_hash)
