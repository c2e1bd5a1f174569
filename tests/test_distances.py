import collections
import copy
import hashlib
import re
import struct

import numpy as np
import pytest

from vlpkg import augment_reciprocal, compute_distances, distances, hash_file
from vlpkg.distances import CacheError, DistanceIndex
from vlpkg.models import ModelKind, init_parameters, save_checkpoint
from vlpkg.synth import kg_from_id_triples, random_graph

from conftest import floyd_warshall


def _random_kg(rng, n_max=50):
    n = int(rng.integers(2, n_max + 1))
    n_edges = min(int(rng.integers(1, max(2, 3 * n))), n * (n - 1))
    triples = set()
    while len(triples) < n_edges:
        h, t = rng.integers(n, size=2)
        if h != t:
            triples.add((int(h), 0, int(t)))
    return kg_from_id_triples(n, 1, sorted(triples))


def test_matches_floyd_warshall_on_random_graphs():
    """BFS index equals the dense min-plus oracle on 100 random graphs."""
    rng = np.random.default_rng(42)
    for trial in range(100):
        cap = int(rng.integers(2, 9))
        kg = _random_kg(rng)
        index = compute_distances(kg, cap=cap)
        edges = [(int(h), int(t)) for h, _, t in kg.train]
        oracle = floyd_warshall(kg.n_entities, edges, cap)
        for source in range(kg.n_entities):
            got = index.distances_from(source)
            assert np.array_equal(got, oracle[source]), f"trial {trial}"


def test_repeated_pairs_and_a_self_loop_match_floyd_warshall():
    """One pair under 128 relations and their reciprocals sums to 256 in the
    adjacency, which an 8-bit weight wraps to an explicit zero; a self-loop
    adds a diagonal entry."""
    chain = [(1, 0, 2), (2, 1, 3), (3, 2, 4), (5, 3, 6)]
    triples = [(0, r, 1) for r in range(128)] + chain + [(4, 4, 4)]
    kg = augment_reciprocal(kg_from_id_triples(8, 128, triples))
    edges = [(int(h), int(t)) for h, _, t in kg.train]
    for cap in (2, 4, 8):
        index = compute_distances(kg, cap=cap)
        oracle = floyd_warshall(kg.n_entities, edges, cap)
        assert np.array_equal(index.distances_from(np.arange(8)), oracle)


def _repeated_pairs_kg():
    chain = [(1, 0, 2), (2, 1, 3), (3, 2, 4), (5, 3, 6)]
    triples = [(0, r, 1) for r in range(128)] + chain + [(4, 4, 4)]
    return augment_reciprocal(kg_from_id_triples(8, 128, triples))


def test_chunk_boundaries_do_not_change_the_index(monkeypatch):
    """Sources searched 1, 3 or 7 at a time give the Floyd-Warshall
    distances, and a graph wider than one default chunk gives those of a
    plain per-source queue BFS."""
    rng = np.random.default_rng(23)
    graphs = [_random_kg(rng) for _ in range(10)] + [_repeated_pairs_kg()]
    for chunk in (1, 3, 7):
        monkeypatch.setattr(distances, "_CHUNK", chunk)
        for kg, cap in zip(graphs, [2, 3, 4, 5, 6, 7, 8, 2, 4, 8, 4]):
            edges = [(int(h), int(t)) for h, _, t in kg.train]
            oracle = floyd_warshall(kg.n_entities, edges, cap)
            got = compute_distances(kg, cap=cap)
            assert np.array_equal(got.distances_from(
                np.arange(kg.n_entities)), oracle), (chunk, cap)
    monkeypatch.undo()

    n = distances._CHUNK + 500
    kg = augment_reciprocal(random_graph(n, 3, 2 * n, 5, 5, seed=9))
    neighbours = [set() for _ in range(n)]
    for h, _, t in kg.train.tolist():
        neighbours[h].add(t)
        neighbours[t].add(h)
    index = compute_distances(kg, cap=4)
    for source in range(n):
        seen, queue = {source: 0}, collections.deque([source])
        while queue:
            node = queue.popleft()
            if seen[node] < 3:
                for other in neighbours[node] - seen.keys():
                    seen[other] = seen[node] + 1
                    queue.append(other)
        want = sorted((d, v) for v, d in seen.items())
        ids, dists = index.row(source)
        assert list(zip(dists.tolist(), ids.tolist())) == want, source


# SHA-256 of ``DistanceIndex.save`` (format 3) for one fixed graph, and of
# its ids (``<u4``) and ring offsets (``<i8``): the level search reproduces
# every id and offset of the earlier dijkstra-based search, and of format
# 2's index, whose offsets came from a stored distance per pair
PINNED_CACHES = {
    1: "0c8db733b6264c7c5ac9f7b26392c922aa7c4a954fc84fc363bc018c49fc3a0e",
    2: "817eeb7e658b5617eee740035168662c6d58c1551b2961a0a2963dc36f2ca62c",
    4: "55fb0fc678adb16bc9f6147b04a27c7baee41084c811613f34ef4b3973c40d71",
    8: "3e34a1baade65d2c2560dd97c7a8dc7565ce8957573be1ee5e21e0771e39209c",
}
PINNED_IDS = {
    1: "31c4d357f4440759108dcb4b14645a7d75bc02cf3597e7c6e20d8173e33e0fc3",
    2: "f6104cdfdb7da61d9d62128e1cd4f04a6583caf8c8d2e80cbd12493ab8a82f0b",
    4: "e21152a3f14bb87767700ec9b9b835678458aae7b18b2c5f7b9a65a7a8ce9089",
    8: "87599c42ecad33c57abdca239c449a08ef0f7792a322e69c7f5761afcae00f03",
}
PINNED_OFFSETS = {
    1: "9a93dfa212c2bada669dcc6c1ee4f365439f67945634681b5862e48fd7bbf9e8",
    2: "392f6e366980fcbeb19965c8a475fe38570ae16154d84602e303661983f53e07",
    4: "bed16f10140ae8400b524d800fa52fc422dbee72890a26bc8b7d4ba6ee5bf44e",
    8: "183352161eb8bea6b03049285a6f37010c30c6389b032ded3901e45a2c31b385",
}


def _sha256(arr, dtype):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype)).hexdigest()


def test_cache_bytes_are_pinned(tmp_path):
    kg = augment_reciprocal(random_graph(300, 5, 900, 10, 10, seed=3))
    path = tmp_path / "dist.vlpd"
    for cap, want in PINNED_CACHES.items():
        index = compute_distances(kg, cap=cap)
        assert _sha256(index.ids, "<u4") == PINNED_IDS[cap], cap
        assert _sha256(index.ring_offsets, "<i8") == PINNED_OFFSETS[cap], cap
        index.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, cap


def test_single_pair_distance_agrees_with_dense_row():
    kg = _random_kg(np.random.default_rng(7))
    index = compute_distances(kg, cap=5)
    dense = np.stack([index.distances_from(s) for s in range(kg.n_entities)])
    for a in range(kg.n_entities):
        for b in range(kg.n_entities):
            assert index.distance(a, b) == dense[a, b]
    heads, tails = np.indices(dense.shape)  # every pair in one call
    assert np.array_equal(index.distance(heads, tails), dense)


def test_rings_partition_the_entity_set():
    kg = _random_kg(np.random.default_rng(11))
    index = compute_distances(kg, cap=4)
    for source in range(kg.n_entities):
        sizes = index.ring_sizes(source)
        assert sizes.sum() == kg.n_entities
        assert index.ring(source, 0).tolist() == [source]
        seen = np.concatenate([index.ring(source, d) for d in range(4)])
        assert len(np.unique(seen)) == len(seen)


def _searched_ring_offsets(index, dense):
    """Ring offsets by definition: where each s * cap + d sorts among the
    per-pair keys s * cap + distance, each pair's distance read from the
    dense (n, n) distances ``dense``."""
    rows = np.repeat(np.arange(index.n_entities), np.diff(index.indptr))
    keys = rows * index.cap + dense[rows, index.ids]
    return np.searchsorted(keys, np.arange(index.n_entities * index.cap + 1))


def test_ring_offsets_match_a_search_over_per_pair_keys(tmp_path):
    rng = np.random.default_rng(29)
    graphs = [_random_kg(rng) for _ in range(10)] + [_repeated_pairs_kg()]
    for kg in graphs:
        edges = [(int(h), int(t)) for h, _, t in kg.train]
        for cap in (1, 2, 4, 8):
            index = compute_distances(kg, cap=cap)
            oracle = floyd_warshall(kg.n_entities, edges, cap)
            assert np.array_equal(index.ring_offsets,
                                  _searched_ring_offsets(index, oracle)), cap
    # rows a cache may hold but no search writes: empty, or with a gap;
    # row 1 holds 1 at distance 0 and 3 at 2, row 3 holds 2, 0 and 1 at 0,
    # 1 and 3
    dense = np.full((4, 4), 4, dtype=np.uint8)
    dense[1, [1, 3]], dense[3, [2, 0, 1]] = [0, 2], [0, 1, 3]
    index = DistanceIndex(4, 4, np.array([0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 2,
                                          2, 3, 4, 4, 5]),
                          np.array([1, 3, 2, 0, 1], dtype=np.uint32))
    index.save(tmp_path / "gaps.vlpd")
    loaded = DistanceIndex.load(tmp_path / "gaps.vlpd")
    for got in (index, loaded):
        assert np.array_equal(got.ring_offsets,
                              _searched_ring_offsets(got, dense))
        assert np.array_equal(got.distances_from(np.arange(4)), dense)
        assert got.row(0)[0].size == 0 and got.row(2)[1].size == 0
        assert [x.tolist() for x in got.row(3)] == [[2, 0, 1], [0, 1, 3]]
    assert loaded.ring(1, 1).size == 0 and loaded.ring(1, 2).tolist() == [3]
    assert loaded.ring_sizes(3).tolist() == [1, 1, 0, 1, 1]


def test_distances_are_symmetric_and_direction_blind():
    # only a directed edge 0 -> 1 exists; hops ignore direction
    kg = kg_from_id_triples(3, 1, [(0, 0, 1), (2, 0, 1)])
    index = compute_distances(kg, cap=4)
    assert index.distance(0, 1) == 1
    assert index.distance(1, 0) == 1
    assert index.distance(0, 2) == 2


def test_unreachable_saturates_at_cap():
    kg = kg_from_id_triples(4, 1, [(0, 0, 1)])  # 2 and 3 are isolated
    index = compute_distances(kg, cap=6)
    assert index.distance(0, 2) == 6
    assert index.distance(2, 3) == 6
    assert index.distance(2, 2) == 0


def test_threaded_computation_matches_serial():
    kg = _random_kg(np.random.default_rng(13))
    serial = compute_distances(kg, cap=5, threads=1)
    threaded = compute_distances(kg, cap=5, threads=4)
    for source in range(kg.n_entities):
        assert np.array_equal(serial.distances_from(source),
                              threaded.distances_from(source))


def test_cache_roundtrip(tmp_path):
    kg = _random_kg(np.random.default_rng(5))
    index = compute_distances(kg, cap=5, train_hash=12345)
    path = tmp_path / "dist.vlpd"
    index.save(path)
    loaded = DistanceIndex.load(path)
    assert loaded.cap == index.cap
    assert loaded.n_entities == index.n_entities
    assert loaded.train_hash == 12345
    for source in range(kg.n_entities):
        assert np.array_equal(loaded.row(source)[0], index.row(source)[0])
        assert np.array_equal(loaded.row(source)[1], index.row(source)[1])


def test_cache_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.vlpd"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(CacheError):
        DistanceIndex.load(path)


def test_cache_rejects_truncation_and_trailing_bytes(tmp_path):
    kg = _random_kg(np.random.default_rng(5))
    index = compute_distances(kg, cap=5)
    path = tmp_path / "dist.vlpd"
    index.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(CacheError):
        DistanceIndex.load(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(CacheError):
        DistanceIndex.load(path)


def test_cache_rejects_old_version_and_bad_row_offsets(tmp_path):
    kg = _random_kg(np.random.default_rng(5))
    index = compute_distances(kg, cap=5)
    path = tmp_path / "dist.vlpd"
    # a version-1 header: magic, version, cap, n_entities, train hash
    path.write_bytes(b"VLPD" + struct.pack("<IIQQ", 1, 5, kg.n_entities, 0)
                     + b"\x00" * 64)
    with pytest.raises(CacheError, match="version 1"):
        DistanceIndex.load(path)
    # version 2: that header and the pair count, then row offsets, ids and
    # one distance per pair
    ids, dists = zip(*(index.row(s) for s in range(kg.n_entities)))
    path.write_bytes(
        b"VLPD" + struct.pack("<IIQQQ", 2, 5, kg.n_entities, 0,
                              len(index.ids))
        + index.indptr.astype("<i8").tobytes()
        + np.concatenate(ids).astype("<u4").tobytes()
        + np.concatenate(dists).tobytes())
    with pytest.raises(CacheError, match="version 2"):
        DistanceIndex.load(path)


@pytest.mark.parametrize("fault, message", [
    ("first", "ring offsets"),
    ("decrease", "ring offsets"),
    ("last", "ring offsets"),
    ("id", "id out of range"),
])
def test_load_rejects_malformed_ring_offsets(tmp_path, fault, message):
    index = compute_distances(_random_kg(np.random.default_rng(5)), cap=5)
    offsets = index.ring_offsets.copy()
    ids = index.ids.copy()
    if fault == "first":
        offsets[0] = 1
    elif fault == "decrease":  # ring (1, 0), the id 1, ends before it starts
        offsets[5] = offsets[6] + 1
    elif fault == "last":
        offsets[-1] -= 1
    else:
        ids[-1] = index.n_entities
    path = tmp_path / "dist.vlpd"
    DistanceIndex(index.n_entities, 5, offsets, ids).save(path)
    with pytest.raises(CacheError,
                       match=f"{re.escape(str(path))}: .*{message}"):
        DistanceIndex.load(path)


def test_a_save_that_raises_partway_keeps_the_previous_file(tmp_path):
    index = compute_distances(_random_kg(np.random.default_rng(5)), cap=5)
    cache = tmp_path / "dist-c5.vlpd"
    index.save(cache)
    store = init_parameters(ModelKind.TRANSE, 4, 5, 2, seed=0)
    ckpt = tmp_path / "checkpoint.vlpc"
    save_checkpoint(ckpt, store)
    before = {path: path.read_bytes() for path in (cache, ckpt)}

    broken = copy.copy(index)
    broken.ids = ["not an id"]  # raises after the header and offsets
    with pytest.raises(ValueError):
        broken.save(cache)
    params = store.param_arrays()
    moments = (params, params[:-1] + [object()])  # raises in the last array
    with pytest.raises(TypeError):
        save_checkpoint(ckpt, store, moments, step=7)

    assert {path: path.read_bytes() for path in before} == before
    assert sorted(tmp_path.iterdir()) == sorted(before)  # no temp file left


def test_hash_file_known_vectors(tmp_path):
    # 64-bit BLAKE2b digests (``b2sum -l 64``), read as little-endian ints
    path = tmp_path / "blob"
    for payload, expected in [(b"", 0xB4B2797457A0A6E4),
                              (b"a", 0x2F42665B399EF840),
                              (b"foobar", 0xF9514A257F2F219D)]:
        path.write_bytes(payload)
        assert hash_file(path) == expected


def test_hash_file_streams_whole_content(tmp_path):
    path = tmp_path / "blob"
    payload = b"0\tr\t1\n" * 1000
    path.write_bytes(payload)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    for chunk_size in (7, 1 << 20):
        assert hash_file(path, chunk_size) == int.from_bytes(digest, "little")
