import hashlib
import re
import struct

import numpy as np
import pytest

from vlpkg import (ModelKind, PreSampler, SamplerConfig, TrainConfig,
                   augment_reciprocal, compute_distances, grad_fg,
                   init_parameters, load_checkpoint, random_graph,
                   save_checkpoint, score_fg, score_fg_all, select_references,
                   train)
from vlpkg.distances import CacheError
from vlpkg.models import (check_fits, entity_width, is_distance_kind,
                          pair_score_pullback, pair_scores, query_batch,
                          relation_width)
from vlpkg.synth import kg_from_id_triples
from vlpkg.training import GradBuffer

KINDS = list(ModelKind)


def _store(kind, dim=6, n_ent=9, n_rel=4, seed=0, norm="l2", dtype=np.float64):
    return init_parameters(kind, dim, n_ent, n_rel, seed=seed, dtype=dtype,
                           norm=norm)


def _fd_rows(fn, arr, rows, h=1e-5):
    """Central finite differences of fn() over the given rows of arr."""
    grad = np.zeros((len(rows), arr.shape[1]))
    for i, row in enumerate(rows):
        for j in range(arr.shape[1]):
            keep = arr[row, j]
            arr[row, j] = keep + h
            up = fn()
            arr[row, j] = keep - h
            down = fn()
            arr[row, j] = keep
            grad[i, j] = (up - down) / (2 * h)
    return grad


def _assert_close(analytic, numeric, tol=1e-6):
    scale = max(1.0, float(np.abs(numeric).max()))
    err = np.abs(analytic - numeric).max() / scale
    assert err < tol, f"relative error {err:.3e}"


@pytest.mark.parametrize("kind", KINDS)
def test_score_gradient_matches_finite_differences(kind):
    store = _store(kind)
    h, r, t = 2, 1, 5
    g = grad_fg(store, h, r, t)
    fd_h = _fd_rows(lambda: score_fg(store, h, r, t), store.entities, [h])
    fd_r = _fd_rows(lambda: score_fg(store, h, r, t), store.relations, [r])
    fd_t = _fd_rows(lambda: score_fg(store, h, r, t), store.entities, [t])
    _assert_close(g.d_head, fd_h[0])
    _assert_close(g.d_relation, fd_r[0])
    _assert_close(g.d_tail, fd_t[0])


def test_transe_l1_gradient_matches_finite_differences():
    store = _store(ModelKind.TRANSE, norm="l1")
    h, r, t = 0, 2, 7
    g = grad_fg(store, h, r, t)
    fd_h = _fd_rows(lambda: score_fg(store, h, r, t), store.entities, [h])
    fd_r = _fd_rows(lambda: score_fg(store, h, r, t), store.relations, [r])
    _assert_close(g.d_head, fd_h[0])
    _assert_close(g.d_relation, fd_r[0])


@pytest.mark.parametrize("kind", KINDS)
def test_head_equals_tail_gradient_accumulates(kind):
    """When h == t both roles contribute to the same entity row."""
    store = _store(kind)
    h = t = 3
    r = 1
    g = grad_fg(store, h, r, t)
    fd = _fd_rows(lambda: score_fg(store, h, r, t), store.entities, [h])
    _assert_close(g.d_head + g.d_tail, fd[0])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_all_candidate_scores_bit_equal_single_scores(kind, dtype):
    """score_fg_all must reproduce score_fg exactly, element for element.

    Evaluation and training rely on this: the rank of the gold tail may not
    move because a vectorized kernel rounded differently.
    """
    store = _store(kind, dim=8, n_ent=17, dtype=dtype)
    norm = "l1" if kind is ModelKind.TRANSE else store.norm
    store.norm = norm
    for h, r in [(0, 0), (5, 2), (16, 3)]:
        allscores = score_fg_all(store, h, r)
        for t in range(store.n_entities):
            assert allscores[t] == score_fg(store, h, r, t)


def test_pair_scores_broadcasts_like_singles():
    store = _store(ModelKind.ROTATE, dim=4, n_ent=8)
    h_ids = np.array([0, 3, 5])
    r_ids = np.array([1, 0, 2])
    q = query_batch(store, h_ids, r_ids)
    neg = np.array([[1, 2], [4, 6], [0, 7]])
    got = pair_scores(store, q[:, None, :], store.entities[neg])
    for i in range(3):
        for j in range(2):
            want = score_fg(store, int(h_ids[i]), int(r_ids[i]), int(neg[i, j]))
            assert got[i, j] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind, norm", [
    (ModelKind.TRANSE, "l1"), (ModelKind.TRANSE, "l2"),
    (ModelKind.ROTATE, "l2"), (ModelKind.DISTMULT, "l2"),
    (ModelKind.COMPLEX, "l2")])
def test_pullback_from_the_forward_direction_equals_from_scratch(kind, norm):
    """The step's pullback, read from the delta that ``pair_scores(...,
    out=)`` left in the gather, equals the from-scratch array gradient:
    -u delta / |delta| for l2 and rotate, u q for dot models, -u sign(delta)
    for l1. Both d_q and the scattered candidate rows are checked. One pair
    has k == q, whose distance gradient is exactly the zero subgradient, with
    no divide warning (warnings fail the suite)."""
    store = _store(kind, n_ent=8, norm=norm)
    cand = np.array([[1, 2, 2, 4], [4, 6, 0, 3], [0, 7, 5, 1]])
    q = query_batch(store, np.array([0, 3, 5]), np.array([1, 0, 2]))
    k = store.entities[cand]
    k[1, 2] = q[1]
    u = np.random.default_rng(6).normal(size=cand.shape)
    delta = k.copy()
    scores = pair_scores(store, q, delta, out=delta)
    np.testing.assert_allclose(scores, pair_scores(store, q[:, None], k),
                               rtol=1e-12)
    d_q, rows, weights = pair_score_pullback(store, q, delta, u, scores)
    assert d_q.shape == q.shape
    diff = k - q[:, None]
    if not is_distance_kind(kind):
        want_k = u[..., None] * q[:, None]
    elif norm == "l1":
        want_k = -u[..., None] * np.sign(diff)
    else:
        norms = np.linalg.norm(diff, axis=-1, keepdims=True)
        want_k = -u[..., None] * diff / np.where(norms > 0, norms, 1.0)
    want_q = ((u[..., None] * k) if not is_distance_kind(kind)
              else -want_k).sum(axis=1)
    np.testing.assert_allclose(d_q, want_q, rtol=1e-6, atol=1e-12)
    pairs = np.broadcast_to(rows, want_k.shape)
    if weights is not None:
        pairs = weights[..., None] * pairs
    np.testing.assert_allclose(pairs, want_k, rtol=1e-6, atol=1e-12)
    if is_distance_kind(kind):
        assert not pairs[1, 2].any()
    buf = GradBuffer(store)
    buf.add_entities(cand, rows, weights)
    want = np.zeros_like(store.entities)
    np.add.at(want, cand.reshape(-1), want_k.reshape(-1, store.d_k))
    np.testing.assert_allclose(buf.grads[0], want, rtol=1e-6, atol=1e-12)


def test_init_is_seed_deterministic():
    a = _store(ModelKind.COMPLEX, seed=9)
    b = _store(ModelKind.COMPLEX, seed=9)
    c = _store(ModelKind.COMPLEX, seed=10)
    for x, y in zip(a.param_arrays(), b.param_arrays()):
        assert np.array_equal(x, y)
    assert not np.array_equal(a.entities, c.entities)


def test_init_bounds_by_model_family():
    dim, gamma = 16, 6.0
    dist = init_parameters(ModelKind.TRANSE, dim, 50, 5, seed=1, gamma=gamma)
    assert np.abs(dist.entities).max() <= (gamma + 2) / dim
    dot = init_parameters(ModelKind.DISTMULT, dim, 50, 5, seed=1)
    assert np.abs(dot.entities).max() <= 6 / np.sqrt(dim)
    rot = init_parameters(ModelKind.ROTATE, dim, 50, 5, seed=1, gamma=gamma)
    assert np.abs(rot.relations).max() <= np.pi
    assert rot.relations.shape[1] == dim  # phases, not realified pairs


@pytest.mark.parametrize("kind", KINDS)
def test_embedding_widths(kind):
    dim = 10
    store = _store(kind, dim=dim)
    assert store.entities.shape[1] == entity_width(kind, dim)
    assert store.relations.shape[1] == relation_width(kind, dim)
    if kind in (ModelKind.COMPLEX, ModelKind.ROTATE):
        assert store.entities.shape[1] == 2 * dim
    if is_distance_kind(kind):
        assert score_fg(store, 0, 0, 0) <= 0.0


def test_checkpoint_roundtrip(tmp_path):
    store = _store(ModelKind.ROTATE, dim=5, n_ent=7, n_rel=3, dtype=np.float32)
    m = [np.full_like(a, 0.25) for a in store.param_arrays()]
    v = [np.full_like(a, 0.5) for a in store.param_arrays()]
    path = tmp_path / "model.vlpc"
    save_checkpoint(path, store, (m, v), step=123, train_hash=99)
    loaded, (m2, v2), step, train_hash = load_checkpoint(path)
    assert step == 123
    assert train_hash == 99
    assert loaded.kind is ModelKind.ROTATE
    assert loaded.dim == 5
    for a, b in zip(store.param_arrays(), loaded.param_arrays()):
        assert np.array_equal(a, b)
    for a, b in zip(m, m2):
        assert np.array_equal(a, b)
    for a, b in zip(v, v2):
        assert np.array_equal(a, b)


def test_checkpoint_records_the_norm(tmp_path):
    store = init_parameters(ModelKind.TRANSE, 4, 5, 2, seed=0, norm="l1")
    path = tmp_path / "model.vlpc"
    save_checkpoint(path, store)
    assert load_checkpoint(path)[0].norm == "l1"


def test_checkpoints_of_formats_1_and_2_are_rejected(tmp_path):
    store = _store(ModelKind.TRANSE, dim=4, n_ent=5, n_rel=2)
    path = tmp_path / "model.vlpc"
    save_checkpoint(path, store)
    blob = path.read_bytes()
    for version in (1, 2):
        path.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        with pytest.raises(CacheError, match=f"version {version}"):
            load_checkpoint(path)


def test_an_unknown_train_hash_is_not_compared_but_the_counts_are(tmp_path):
    store = _store(ModelKind.TRANSE, dim=4, n_ent=5, n_rel=2, norm="l1",
                   dtype=np.float32)
    m = [np.full_like(a, 0.25) for a in store.param_arrays()]
    path = tmp_path / "model.vlpc"
    save_checkpoint(path, store, (m, m), step=7, train_hash=0)
    loaded, (m2, v2), step, train_hash = load_checkpoint(path)
    assert (train_hash, step, loaded.norm) == (0, 7, "l1")
    for a, b in zip(store.param_arrays() + m + m,
                    loaded.param_arrays() + m2 + v2):
        assert np.array_equal(a, b)
    check_fits(loaded, train_hash, kg_from_id_triples(5, 2, [(0, 0, 1)]), 12)
    for n_ent, n_rel in [(6, 2), (5, 3)]:
        with pytest.raises(ValueError, match="entities"):
            check_fits(loaded, train_hash,
                       kg_from_id_triples(n_ent, n_rel, [(0, 0, 1)]), 12)


# rotate d = 8 has 16-wide entity vectors and aggregator, so 36 * 16 bytes
# are one more (or one fewer) aggregator row in each of the three groups
@pytest.mark.parametrize("extra", [-1, 1, -36 * 16, 36 * 16])
def test_checkpoint_must_be_exactly_its_layout(tmp_path, extra):
    store = _store(ModelKind.ROTATE, dim=8, n_ent=20, n_rel=3)
    path = tmp_path / "model.vlpc"
    save_checkpoint(path, store)
    blob = path.read_bytes()
    path.write_bytes(blob[:extra] if extra < 0 else blob + b"\x00" * extra)
    with pytest.raises(CacheError, match="truncated|trailing"):
        load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "model.vlpc"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(CacheError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    store = _store(ModelKind.TRANSE, dim=4, n_ent=5, n_rel=2)
    path = tmp_path / "model.vlpc"
    save_checkpoint(path, store)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CacheError):
        load_checkpoint(path)


# header bytes: the model code and the complex-space flag follow the magic
# and the version; the norm code is the header's last byte
@pytest.mark.parametrize("offset, value, what", [
    (8, 4, "unknown model code 4"), (8, 255, "unknown model code 255"),
    (9, 1, "embedding-space flag"),
    (4 + struct.calcsize("<IBBIQQQ"), 2, "unknown norm code 2")])
def test_checkpoint_header_checks_name_the_file(tmp_path, offset, value,
                                                what):
    # a transe checkpoint: its body fits the real layout whatever the code
    path = tmp_path / "model.vlpc"
    save_checkpoint(path, _store(ModelKind.TRANSE, dim=4, n_ent=5, n_rel=2))
    blob = bytearray(path.read_bytes())
    blob[offset] = value
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError, match=re.escape(f"{path}: {what}")):
        load_checkpoint(path)


_PINNED = {
    "transe-l2":
        "628bcd318f1e6d5e1ecac282508a49fb741397d0c81b13a3827d70124db4046f",
    "transe-l1":
        "cd261febe941ef7b6fb58c346d5748fed497ae6eda8b9db5cdc9f5b2b3545a95",
    "distmult":
        "8dcaa29344e63cbc3b85ffa1604520f2295b2c583bb4807a65cc00bea7d9635d",
    "complex":
        "356995cbd4df8ce559c56507ee85fa71c961f7100f70027ae6ee234d61f8266f",
    "rotate":
        "30f6d4057c77c7cc11f6e373ca7cac7fa4b0a171f18e8c122a8b17ca808ef45b",
    "vlp": "aa1576b829f221e09beea15d63c7991a4872c7f560cb2daab9631be2da8818a1",
    "hlp": "bcfe6febff47a327ad992c3e0359b84d3b03f3f84cc347ee6751bde835653ce0",
}


def test_checkpoint_bytes_are_pinned(tmp_path):
    """The file's model codes, array order and the initial draws, and the
    checkpoint of a short rotate run in each mode. The trained digests also
    depend on numpy's and BLAS's float kernels; they are the same with BLAS
    at one thread and at its default thread count."""
    got = {}
    for kind, norm in [("transe", "l2"), ("transe", "l1"), ("distmult", "l2"),
                       ("complex", "l2"), ("rotate", "l2")]:
        name = kind if kind != "transe" else f"transe-{norm}"
        path = tmp_path / f"{name}.vlpc"
        save_checkpoint(path, init_parameters(kind, 4, 7, 3, seed=0,
                                              norm=norm))
        got[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    kg = augment_reciprocal(random_graph(300, 5, 900, 10, 10, seed=3))
    index = compute_distances(kg, cap=4)
    table = select_references(kg, index, 4)
    for mode in ("vlp", "hlp"):
        cfg = TrainConfig(dataset="x", model="rotate", mode=mode, dim=8,
                          batch=64, steps=5, eval_every=0, refs=4, cap=4,
                          threads=1, sampler=SamplerConfig(mode="red",
                                                           n_negatives=8))
        train(cfg, kg, table=table, presampler=PreSampler(index, 1.0),
              dist_index=index, out_dir=tmp_path / mode)
        got[mode] = hashlib.sha256(
            (tmp_path / mode / "checkpoint.vlpc").read_bytes()).hexdigest()
    assert got == _PINNED
