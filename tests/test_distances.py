import collections
import copy
import hashlib
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


# SHA-256 of ``DistanceIndex.save`` for one fixed graph, as the earlier
# dijkstra-based search wrote it: the level search reproduces every byte
PINNED_CACHES = {
    1: "caf11b13834b2f32e375909ffe1d4f21c8f411d5a66f5acb8923c0053b4cd57b",
    2: "83bd6c02cfd0e4e4cde5e0caf4878d4ed27fb1893b6a5ce9c84e87c5aace4a39",
    4: "bd7eed4fad6e1c46eadf40721bb24a491fa862167e282ff6a360fb0f2d76215f",
    8: "4003cd8f4ed668f6b2c4d65eb780a255efc904ced5c763be46004dbbd9f811ef",
}


def test_cache_bytes_are_pinned(tmp_path):
    kg = augment_reciprocal(random_graph(300, 5, 900, 10, 10, seed=3))
    path = tmp_path / "dist.vlpd"
    for cap, want in PINNED_CACHES.items():
        compute_distances(kg, cap=cap).save(path)
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


def _searched_ring_offsets(index):
    """Ring offsets by definition: where each s * cap + d sorts among the
    per-pair keys s * cap + distance."""
    keys = np.repeat(np.arange(index.n_entities) * index.cap,
                     np.diff(index.indptr)) + index.dists
    return np.searchsorted(keys, np.arange(index.n_entities * index.cap + 1))


def test_ring_offsets_match_a_search_over_per_pair_keys(tmp_path):
    rng = np.random.default_rng(29)
    graphs = [_random_kg(rng) for _ in range(10)] + [_repeated_pairs_kg()]
    for kg in graphs:
        for cap in (1, 2, 4, 8):
            index = compute_distances(kg, cap=cap)
            assert np.array_equal(index.ring_offsets,
                                  _searched_ring_offsets(index)), cap
    # rows a cache may hold but no search writes: empty, or with a gap
    index = DistanceIndex(4, 4, np.array([0, 0, 2, 2, 5]),
                          np.array([1, 3, 2, 0, 1], dtype=np.uint32),
                          np.array([0, 2, 0, 1, 3], dtype=np.uint8))
    index.save(tmp_path / "gaps.vlpd")
    loaded = DistanceIndex.load(tmp_path / "gaps.vlpd")
    for got in (index, loaded):
        assert np.array_equal(got.ring_offsets, _searched_ring_offsets(got))
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
    index.save(path)
    blob = bytearray(path.read_bytes())
    # after the 36-byte header come the n+1 row offsets; make the last one
    # disagree with the pair count in the header
    end = 36 + 8 * (kg.n_entities + 1)
    struct.pack_into("<q", blob, end - 8, len(index.ids) - 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError, match="row offsets"):
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
    broken.dists = ["not a distance"]  # raises after header, offsets and ids
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
