import tracemalloc

import numpy as np
import pytest

from vlpkg import (AdamState, ModelKind, SamplerConfig, TrainConfig,
                   compute_distances, init_parameters, load_checkpoint,
                   loss_l1, loss_l2, select_references, train, train_step)
from vlpkg.models import is_complex_kind
from vlpkg.sampling import draw_negative_batch, negative_weights
from vlpkg.training import (BETA1, BETA2, EPS, GradBuffer, RNG_STEP,
                            adam_apply, backward, forward, postweight_scores,
                            step_buffers, stream_rng)
from vlpkg.synth import kg_from_id_triples, random_graph

from conftest import fd_array, max_rel_err

KINDS = list(ModelKind)


def _setup(kind, seed=0):
    kg = random_graph(n_entities=9, n_relations=2, n_train=30, n_valid=4,
                      n_test=4, seed=seed)
    index = compute_distances(kg, cap=3)
    table = select_references(kg, index, n_refs=2)
    store = init_parameters(kind, 4, kg.n_entities, kg.n_relations,
                            seed=seed, dtype=np.float64)
    return kg, table, store


def _total_loss(store, table, batch, neg, w, mode, gamma, lam, alpha,
                buf=None):
    fwd = forward(store, table, batch, neg, mode == "vlp")
    if mode == "vlp":
        l1 = loss_l1(fwd)
        l2 = loss_l2(fwd, w, gamma, lam, scale=alpha)
        total = l1 + alpha * l2
    else:
        total = loss_l2(fwd, w, gamma, lam, scale=1.0)
    if buf is not None:
        backward(store, fwd, buf)
    return total


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", ["vlp", "hlp"])
def test_loss_gradients_match_finite_differences(kind, mode):
    """Full objective against central differences, all parameter arrays.

    Negatives and their post-weights are frozen, exactly as a training step
    treats them (the weights are constants by construction). The second
    negatives input has a row that draws one negative twice and its own
    gold tail once, so repeated candidate ids must accumulate.
    """
    kg, table, store = _setup(kind)
    gamma, lam, alpha = 2.0, 0.4, 0.7
    batch = kg.train[:4]
    rng = np.random.default_rng(1)
    drawn = rng.integers(kg.n_entities, size=(len(batch), 3))
    w = negative_weights(SamplerConfig(mode="red"),
                         np.zeros(len(batch)), rng.normal(size=drawn.shape))
    repeats = drawn.copy()
    repeats[0] = [batch[0, 2], 5, 5]

    worst = 0.0
    for neg in (drawn, repeats):
        buf = GradBuffer(store)
        _total_loss(store, table, batch, neg, w, mode, gamma, lam, alpha,
                    buf)

        def value():
            return _total_loss(store, table, batch, neg, w, mode, gamma, lam,
                               alpha)

        arrays = store.param_arrays()
        for got, arr in zip(buf.grads, arrays):
            fd = fd_array(value, arr)
            worst = max(worst, max_rel_err(got, fd))
    assert worst < 1e-6, f"{kind.value}/{mode}: rel err {worst:.3e}"


def test_l1_loss_is_cross_entropy_over_cosines():
    """Value check against a direct softmax cross-entropy computation."""
    from scipy.special import logsumexp

    from vlpkg.reference import context_vector, cosine_all

    kg, table, store = _setup(ModelKind.DISTMULT)
    batch = kg.train[:5]
    want = 0.0
    for h, r, t in batch:
        t_prime = context_vector(store, table, int(h), int(r),
                                 exclude_tail=int(t))
        c = cosine_all(t_prime, store.entities).astype(np.float64)
        want += logsumexp(c) - c[int(t)]
    want /= len(batch)
    got = loss_l1(forward(store, table, batch, batch[:, :0], True))
    assert got == pytest.approx(want, rel=1e-12)


def test_l1_gradient_is_zero_on_a_zero_entity_and_a_zero_t_prime(
        monkeypatch):
    """A zero vector has no direction: the cosine reads 0 against it, and
    L1 sends it a finite, exactly zero gradient. Row 1's head is a zero
    entity with no references, so its t' is tanh(0) = 0; entity 7 is a
    zero row that nothing else reads."""
    import vlpkg.training

    train = [(0, 0, 1), (2, 0, 3), (1, 0, 4), (3, 0, 5), (4, 0, 0)]
    kg = kg_from_id_triples(8, 2, train, test=[(6, 1, 2)])
    table = select_references(kg, compute_distances(kg, cap=3), n_refs=2)
    store = init_parameters("distmult", 4, kg.n_entities, kg.n_relations,
                            seed=3, dtype=np.float64)
    store.entities[[6, 7]] = 0.0
    seen = []
    real = vlpkg.training.aggregate_pullback
    monkeypatch.setattr(vlpkg.training, "aggregate_pullback",
                        lambda store, cache, d_t, buf:
                        seen.append(d_t) or real(store, cache, d_t, buf))
    fwd = forward(store, table, np.array([[0, 0, 1], [6, 1, 2]]),
                  np.zeros((2, 0), dtype=np.int64), True)
    assert not fwd.agg.t_prime[1].any()
    assert not fwd.cos[1].any() and not fwd.cos[:, [6, 7]].any()
    assert np.isfinite(loss_l1(fwd))
    buf = GradBuffer(store)
    backward(store, fwd, buf)
    assert all(np.isfinite(g).all() for g in buf.grads)
    assert not seen[0][1].any() and seen[0][0].any()
    assert not buf.grads[0][[6, 7]].any() and buf.grads[0][1].any()


def test_l2_loss_matches_direct_formula():
    """Value check; the combined score masks the triple's own answer out of
    its references, so the oracle recomputes t' with that exclusion."""
    from scipy.special import log_expit

    from vlpkg import score_f, score_fg

    kg, table, store = _setup(ModelKind.ROTATE)
    gamma, lam = 2.0, 0.4
    batch = kg.train[:3]
    rng = np.random.default_rng(2)
    neg = rng.integers(kg.n_entities, size=(len(batch), 2))
    w = np.full(neg.shape, 0.5)
    for mode in ("vlp", "hlp"):
        want = 0.0
        for i, (h, r, t) in enumerate(batch):
            h, r, t = int(h), int(r), int(t)
            if mode == "vlp":
                def f(x):
                    return score_f(store, table, h, r, x, lam, exclude_tail=t)

            else:
                def f(x):
                    return score_fg(store, h, r, x)

            want += -log_expit(gamma + f(t))
            want += sum(-0.5 * log_expit(-f(int(x)) - gamma) for x in neg[i])
        want /= len(batch)
        got = loss_l2(forward(store, table, batch, neg, mode == "vlp"), w,
                      gamma, lam)
        assert got == pytest.approx(want, rel=1e-10), mode


@pytest.mark.parametrize("kind, norm", [(k, "l2") for k in KINDS]
                         + [(ModelKind.TRANSE, "l1")],
                         ids=[k.value for k in KINDS] + ["transe-l1"])
def test_an_hlp_chunk_holds_one_candidate_array(kind, norm):
    """forward, loss_l2 and backward of an hlp chunk allocate one (B, 1 + l,
    d) array, the candidates' gather. On 50 entities nothing else comes
    near its size, so the traced peak stays below two gathers. TransE-l1
    takes |delta| in blocks of rows and its sign in place."""
    b, l, n = 256, 64, 50
    store = init_parameters(kind, 100 if is_complex_kind(kind) else 200, n,
                            3, seed=0, norm=norm)
    rng = np.random.default_rng(0)
    batch = np.stack([rng.integers(n, size=b), rng.integers(3, size=b),
                      rng.integers(n, size=b)], axis=1)
    neg = rng.integers(n, size=(b, l))
    buf = GradBuffer(store)
    tracemalloc.start()
    try:
        fwd = forward(store, None, batch, neg, False)
        loss_l2(fwd, np.full(neg.shape, 1.0 / l), 6.0, 0.5)
        backward(store, fwd, buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gather = b * (1 + l) * store.d_k * store.dtype.itemsize
    assert peak < 2 * gather, f"peak {peak / gather:.2f} gathers"


def test_a_vlp_chunk_holds_no_entity_wide_array_of_its_own():
    """Given its cosine buffer, GradBuffer and unit entity rows, a vlp
    chunk's forward, losses and backward allocate no (B, n_entities) array:
    the GEMM writes into the buffer, L1 turns it into d_cos in place, and
    L1's entity rows go straight into the GradBuffer."""
    from vlpkg.training import _unit_rows

    b, l = 64, 4
    kg = random_graph(20000, 2, 4000, 0, 0)
    table = select_references(kg, compute_distances(kg, cap=2), n_refs=2)
    store = init_parameters("rotate", 8, kg.n_entities, kg.n_relations,
                            seed=0)
    rng = np.random.default_rng(0)
    batch = kg.train[:b]
    neg = rng.integers(kg.n_entities, size=(b, l))
    cos = np.empty((b, kg.n_entities), store.dtype)
    buf = GradBuffer(store)
    e_unit = _unit_rows(store.entities)
    tracemalloc.start()
    try:
        fwd = forward(store, table, batch, neg, True, e_unit, cos)
        loss_l1(fwd)
        loss_l2(fwd, np.full(neg.shape, 1.0 / l), 6.0, 0.5)
        backward(store, fwd, buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fwd.d_cos is cos and fwd.cos is None
    assert peak < cos.nbytes, f"peak {peak / cos.nbytes:.2f} (B, n) arrays"


@pytest.mark.parametrize("threads", [1, 2])
def test_kept_step_buffers_are_reused_and_change_nothing(threads,
                                                         monkeypatch):
    """Three vlp steps of two STEP_ROWS chunks with kept buffers give the
    parameters and moments of three steps without, bit for bit; every step's
    cosines sit in the kept buffers' memory, and Adam reads the first chunk's
    kept GradBuffer."""
    import concurrent.futures

    import vlpkg.training

    kg = random_graph(n_entities=60, n_relations=3, n_train=80, n_valid=4,
                      n_test=4, seed=2)
    table = select_references(kg, compute_distances(kg, cap=3), n_refs=2)
    cfg = TrainConfig(dataset="x", model="rotate", mode="vlp", dim=4, batch=8,
                      lr=0.01, steps=3, threads=threads,
                      sampler=SamplerConfig(mode="selfadv", n_negatives=3))
    seen, merged = [], []
    real_l1, real_adam = vlpkg.training.loss_l1, vlpkg.training.adam_apply
    monkeypatch.setattr(vlpkg.training, "STEP_ROWS", 4)
    monkeypatch.setattr(vlpkg.training, "loss_l1", lambda fwd, **kw:
                        seen.append(fwd.cos.ctypes.data) or real_l1(fwd, **kw))
    monkeypatch.setattr(vlpkg.training, "adam_apply", lambda *args:
                        merged.append(args[2]) or real_adam(*args))
    runs = []
    for kept in (False, True):
        store = init_parameters("rotate", 4, kg.n_entities, kg.n_relations,
                                seed=2)
        adam = AdamState.zeros(store)
        buffers = step_buffers(store, True, 8)
        seen.clear()
        merged.clear()
        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            for step in range(1, 4):
                train_step(store, adam, cfg, kg.train[8 * step:8 * step + 8],
                           stream_rng(0, RNG_STEP, step), table=table,
                           pool=pool, buffers=buffers if kept else None)
        runs.append(store.param_arrays() + adam.m + adam.v)
    assert len(buffers) == 2
    assert sorted(seen) == sorted([cos.ctypes.data for cos, _ in buffers] * 3)
    assert all(buf is buffers[0][1] for buf in merged) and len(merged) == 3
    for a, b in zip(*runs):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(IndexError):  # one chunk's buffers, two chunks' rows
        train_step(store, adam, cfg, kg.train[:8], stream_rng(0, RNG_STEP, 4),
                   table=table, buffers=step_buffers(store, True, 4))


def test_a_short_last_batch_runs_in_the_kept_buffers_as_without(
        monkeypatch):
    """Batch 5 at STEP_ROWS 2 keeps three 2-row cosine buffers. The epoch's
    last batch, 1 row, runs as one chunk in the first; the run equals one
    whose steps are given no buffers, bit for bit."""
    import vlpkg.training

    kg = random_graph(n_entities=60, n_relations=3, n_train=11, n_valid=0,
                      n_test=0, seed=2)
    table = select_references(kg, compute_distances(kg, cap=3), n_refs=2)
    cfg = TrainConfig(dataset="x", model="rotate", mode="vlp", dim=4, batch=5,
                      lr=0.01, steps=6, threads=2, eval_every=0, refs=2,
                      sampler=SamplerConfig(mode="selfadv", n_negatives=3))
    monkeypatch.setattr(vlpkg.training, "STEP_ROWS", 2)
    real, sizes = vlpkg.training.train_step, []

    def unbuffered(*args, buffers=None, **kwargs):
        sizes.append(len(args[3]))
        return real(*args, **kwargs)

    kept = train(cfg, kg, table=table)
    monkeypatch.setattr(vlpkg.training, "train_step", unbuffered)
    fresh = train(cfg, kg, table=table)
    assert sizes == [5, 5, 1] * 2
    for a, b in zip(kept.store.param_arrays() + kept.adam.m + kept.adam.v,
                    fresh.store.param_arrays() + fresh.adam.m + fresh.adam.v):
        np.testing.assert_array_equal(a, b)


def test_l2_adds_both_draws_of_a_repeated_negative_to_d_cos():
    """A row that draws one negative twice (and its own gold tail once)
    gets every draw's gradient in d_cos, as a per-element loop adds them."""
    from scipy.special import expit

    kg, table, store = _setup(ModelKind.ROTATE)
    gamma, lam, scale = 2.0, 0.4, 0.7
    batch = kg.train[:3]
    neg = np.array([[4, 4, 1], [2, 7, 3], [int(batch[2, 2]), 0, 0]])
    w = np.random.default_rng(5).uniform(0.1, 1.0, size=neg.shape)
    fwd = forward(store, table, batch, neg, True)
    cand = fwd.cand.copy()
    loss_l2(fwd, w, gamma, lam, scale=scale)
    assert np.array_equal(fwd.cand, cand)
    f = fwd.fc + lam * fwd.fg
    want = np.zeros_like(fwd.d_cos)
    for i in range(len(batch)):
        want[i, fwd.cand[i, 0]] -= expit(-(f[i, 0] + gamma)) * scale / 3
        for j in range(neg.shape[1]):
            want[i, neg[i, j]] += (w[i, j] * expit(f[i, j + 1] + gamma)
                                   * scale / 3)
    np.testing.assert_allclose(fwd.d_cos, want, rtol=1e-12, atol=1e-15)
    assert fwd.d_cos[0, 4] == pytest.approx(
        (w[0, 0] * expit(f[0, 1] + gamma) + w[0, 1] * expit(f[0, 2] + gamma))
        * scale / 3, rel=1e-12)


def test_adam_matches_reference_implementation():
    store = init_parameters(ModelKind.DISTMULT, 3, 4, 2, seed=0,
                            dtype=np.float64)
    adam = AdamState.zeros(store)
    rng = np.random.default_rng(3)
    ref_params = [a.copy() for a in store.param_arrays()]
    ref_m = [np.zeros_like(a) for a in ref_params]
    ref_v = [np.zeros_like(a) for a in ref_params]
    lr = 0.05
    for t in range(1, 6):
        grads = [rng.normal(size=a.shape) for a in ref_params]
        buf = GradBuffer(store)
        buf.add_dense(0, grads[0])
        buf.add_relations(np.arange(2), grads[1])
        for i in (2, 3, 4):
            buf.add_dense(i, grads[i])
        adam_apply(store, adam, buf, lr)
        for p, m, v, g in zip(ref_params, ref_m, ref_v, grads):
            m[:] = BETA1 * m + (1 - BETA1) * g
            v[:] = BETA2 * v + (1 - BETA2) * g * g
            mhat = m / (1 - BETA1 ** t)
            vhat = v / (1 - BETA2 ** t)
            p -= lr * mhat / (np.sqrt(vhat) + EPS)
    for got, want in zip(store.param_arrays(), ref_params):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_float32_adam_matches_reference_on_touched_rows():
    """The in-place float32 update follows the float64 reference loop on
    the touched rows; untouched rows and their moments keep their bits."""
    store = init_parameters(ModelKind.DISTMULT, 3, 6, 4, seed=0)
    assert store.dtype == np.float32
    adam = AdamState.zeros(store)
    rng = np.random.default_rng(3)
    ref_params = [a.astype(np.float64) for a in store.param_arrays()]
    ref_m = [np.zeros_like(a) for a in ref_params]
    ref_v = [np.zeros_like(a) for a in ref_params]
    # per step: entities 2 of 6 rows, relations 3 of 4, w_node whole,
    # w_edge and w_agg not at all; rows touched at one step sit out the
    # next with nonzero moments
    schedule = [[np.array([5, 2]), np.array([3, 0, 1]), np.arange(3), [], []],
                [np.array([2, 0]), np.array([2, 3, 1]), np.arange(3), [], []]]
    lr = 0.05
    for t in range(1, 6):
        touched = schedule[t % 2]
        grads = [rng.normal(size=(len(rows), a.shape[1])).astype(np.float32)
                 for rows, a in zip(touched, ref_params)]
        buf = GradBuffer(store)
        buf.add_entities(touched[0], grads[0])
        buf.add_relations(touched[1], grads[1])
        buf.add_dense(2, grads[2])
        before = [a.copy() for a in store.param_arrays() + adam.m + adam.v]
        adam_apply(store, adam, buf, lr)
        for got, was, rows in zip(store.param_arrays() + adam.m + adam.v,
                                  before, touched * 3):
            kept = np.setdiff1d(np.arange(len(was)), rows)
            assert np.array_equal(got[kept], was[kept])
        for p, m, v, g, rows in zip(ref_params, ref_m, ref_v, grads, touched):
            m[rows] = BETA1 * m[rows] + (1 - BETA1) * g
            v[rows] = BETA2 * v[rows] + (1 - BETA2) * g * g
            mhat = m[rows] / (1 - BETA1 ** t)
            vhat = v[rows] / (1 - BETA2 ** t)
            p[rows] -= lr * mhat / (np.sqrt(vhat) + EPS)
    for got, want in zip(store.param_arrays() + adam.m + adam.v,
                         ref_params + ref_m + ref_v):
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
    assert not adam.m[3].any() and not adam.v[4].any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scatter_equals_np_add_at_bit_for_bit(dtype):
    """From a zero buffer the sparse-product scatter sums each id's rows in
    the order given, as np.add.at (kept here as the oracle) does."""
    store = init_parameters(ModelKind.ROTATE, 4, 12, 3, seed=0, dtype=dtype)
    rng = np.random.default_rng(4)
    buf = GradBuffer(store)
    want = [np.zeros_like(a) for a in store.param_arrays()]
    want_touched = [np.zeros(len(a), dtype=bool) for a in want]
    added = []
    for i, add in ((0, buf.add_entities), (1, buf.add_relations)):
        n, d = want[i].shape
        ids = rng.integers(n, size=(7, 5))  # repeated, in no order
        rows = rng.normal(scale=10.0 ** rng.integers(-3, 4, size=(7, 5, 1)),
                          size=(7, 5, d)).astype(dtype)
        assert len(np.unique(ids)) < ids.size
        add(ids, rows)
        np.add.at(want[i], ids.reshape(-1), rows.reshape(-1, d))
        want_touched[i][ids.reshape(-1)] = True
        add(ids[:0], rows[:0])  # an empty id set adds nothing
        added.append((ids, rows))
    for got, expect in zip(buf.grads, want):
        assert got.dtype == dtype
        assert np.array_equal(got, expect)
    for got, expect in zip(buf.touched, want_touched):
        np.testing.assert_array_equal(got, expect)
    # a second scatter of the same rows adds the same sums: exactly twice
    for i, add in ((0, buf.add_entities), (1, buf.add_relations)):
        add(*added[i])
        assert np.array_equal(buf.grads[i], 2 * want[i])
    # weighted pairs, also with one row broadcast over each row of ids: each
    # pair stays its own product, as in np.add.at, where an id repeats in a row
    n, d = store.entities.shape
    for trial in range(10):
        shape = (7, 5 if trial % 2 else 1, d)
        ids = rng.integers(n, size=(7, 5))
        scale = 10.0 ** rng.integers(-3, 4, size=shape[:2] + (1,))
        src = rng.normal(scale=scale, size=shape).astype(dtype)
        if shape[1] == 1:
            assert any(len(set(row)) < len(row) for row in ids)
        w = rng.normal(scale=10.0 ** rng.integers(-3, 4, size=(7, 5)),
                       size=(7, 5)).astype(dtype)
        buf = GradBuffer(store)
        buf.add_entities(ids, src, w)
        want = np.zeros_like(store.entities)
        np.add.at(want, ids.reshape(-1), (w[..., None] * src).reshape(-1, d))
        assert buf.grads[0].dtype == dtype
        assert np.array_equal(buf.grads[0], want)


def test_untouched_rows_stay_bit_identical():
    store = init_parameters(ModelKind.TRANSE, 4, 10, 3, seed=1)
    adam = AdamState.zeros(store)
    before_ent = store.entities.copy()
    before_rel = store.relations.copy()
    buf = GradBuffer(store)
    buf.add_entities(np.array([2, 5]), np.ones((2, 4), dtype=store.dtype))
    buf.add_relations(np.array([1]), np.ones((1, 4), dtype=store.dtype))
    adam_apply(store, adam, buf, 0.1)
    moved = np.array([2, 5])
    kept = np.setdiff1d(np.arange(10), moved)
    assert not np.array_equal(store.entities[moved], before_ent[moved])
    assert np.array_equal(store.entities[kept], before_ent[kept])
    assert np.array_equal(store.relations[[0, 2]], before_rel[[0, 2]])
    # aggregator untouched entirely
    assert (adam.m[2] == 0).all() and (adam.v[4] == 0).all()


def test_an_untouched_array_is_neither_read_nor_written():
    store = init_parameters(ModelKind.ROTATE, 4, 10, 3, seed=1)
    adam = AdamState.zeros(store)
    frozen = (store.w_node, adam.m[2], adam.v[2])
    for arr in frozen:
        arr.flags.writeable = False
    before = [arr.tobytes() for arr in frozen]
    buf = GradBuffer(store)
    buf.add_entities(np.array([2, 5]), np.ones((2, 8), dtype=store.dtype))
    buf.add_dense(3, np.ones_like(store.w_edge))
    adam_apply(store, adam, buf, 0.1)
    assert [arr.tobytes() for arr in frozen] == before
    assert (adam.m[3] != 0).all()


def test_hlp_step_touches_only_batch_and_negative_rows():
    kg, table, store = _setup(ModelKind.TRANSE, seed=5)
    cfg = TrainConfig(dataset="x", model="transe", mode="hlp", dim=4,
                      batch=4, lr=0.01, steps=1, gamma=2.0,
                      sampler=SamplerConfig(mode="selfadv", n_negatives=3))
    adam = AdamState.zeros(store)
    batch = kg.train[:4]
    rng = stream_rng(0, RNG_STEP, 1)
    expected_neg = draw_negative_batch(cfg.sampler, kg.n_entities,
                                       batch[:, 0], stream_rng(0, RNG_STEP, 1))
    before = store.entities.copy()
    train_step(store, adam, cfg, batch, rng, table=None)
    involved = np.union1d(np.union1d(batch[:, 0], batch[:, 2]),
                          expected_neg.reshape(-1))
    spectators = np.setdiff1d(np.arange(kg.n_entities), involved)
    assert np.array_equal(store.entities[spectators], before[spectators])
    assert not np.array_equal(store.entities[involved], before[involved])


def test_zero_learning_rate_changes_nothing():
    kg, table, store = _setup(ModelKind.COMPLEX)
    cfg = TrainConfig(dataset="x", model="complex", mode="vlp", dim=4,
                      batch=4, lr=0.0, steps=1,
                      sampler=SamplerConfig(mode="uniform", n_negatives=2))
    adam = AdamState.zeros(store)
    before = [a.copy() for a in store.param_arrays()]
    train_step(store, adam, cfg, kg.train[:4], stream_rng(0, RNG_STEP, 1),
               table=table)
    for got, want in zip(store.param_arrays(), before):
        assert np.array_equal(got, want)


def test_alpha_zero_equals_pure_l1_step():
    """With alpha = 0 the negative-sampling term contributes nothing."""
    kg, table, store = _setup(ModelKind.DISTMULT)
    cfg = TrainConfig(dataset="x", model="distmult", mode="vlp", dim=4,
                      batch=4, lr=0.05, steps=1, alpha=0.0,
                      sampler=SamplerConfig(mode="uniform", n_negatives=2))
    twin = store.copy()
    adam = AdamState.zeros(store)
    twin_adam = AdamState.zeros(twin)
    batch = kg.train[:4]
    train_step(store, adam, cfg, batch, stream_rng(0, RNG_STEP, 1),
               table=table)
    buf = GradBuffer(twin)
    fwd = forward(twin, table, batch, batch[:, :0], True)  # no negatives
    loss_l1(fwd)
    backward(twin, fwd, buf)
    adam_apply(twin, twin_adam, buf, cfg.lr)
    for got, want in zip(store.param_arrays(), twin.param_arrays()):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("threads", [1, 2])
def test_vlp_step_gathers_and_pulls_back_references_once_per_chunk(
        threads, monkeypatch):
    import concurrent.futures

    import vlpkg.training

    calls = {"gather_references": 0, "aggregate_pullback": 0}
    for name in calls:
        def counted(*args, _fn=getattr(vlpkg.training, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(vlpkg.training, name, counted)
    monkeypatch.setattr(vlpkg.training, "STEP_ROWS", 3)  # 8 rows: 3 chunks
    kg, table, store = _setup(ModelKind.ROTATE)
    cfg = TrainConfig(dataset="x", model="rotate", mode="vlp", dim=4,
                      batch=8, lr=0.01, steps=1, threads=threads,
                      postweight_score="f",
                      sampler=SamplerConfig(mode="selfadv", n_negatives=3))
    with concurrent.futures.ThreadPoolExecutor(threads) as pool:
        train_step(store, AdamState.zeros(store), cfg, kg.train[:8],
                   stream_rng(0, RNG_STEP, 1), table=table, pool=pool)
    assert calls == {"gather_references": 3, "aggregate_pullback": 3}


@pytest.mark.parametrize("mode", ["vlp", "hlp"])
def test_thread_chunks_merge_to_the_single_thread_gradient(mode, monkeypatch):
    """Three STEP_ROWS chunks, merged, give the one-chunk step's gradients and
    touched rows (up to float summation order), and the same bytes on 1, 2
    or 3 threads."""
    import concurrent.futures

    import vlpkg.training

    kg = random_graph(n_entities=60, n_relations=3, n_train=80, n_valid=4,
                      n_test=4, seed=2)
    table = select_references(kg, compute_distances(kg, cap=3), n_refs=2)
    store = init_parameters("rotate", 4, kg.n_entities, kg.n_relations,
                            seed=2, dtype=np.float64)
    seen = []
    monkeypatch.setattr(vlpkg.training, "adam_apply",
                        lambda store, adam, buf, lr: seen.append(buf))
    for rows, threads in ((8, 1), (3, 1), (3, 2), (3, 3)):
        monkeypatch.setattr(vlpkg.training, "STEP_ROWS", rows)
        cfg = TrainConfig(dataset="x", model="rotate", mode=mode, dim=4,
                          batch=8, lr=0.01, steps=1, threads=threads,
                          sampler=SamplerConfig(mode="selfadv",
                                                n_negatives=3))
        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            train_step(store, AdamState.zeros(store), cfg, kg.train[:8],
                       stream_rng(0, RNG_STEP, 1), table=table, pool=pool)
    one, three, *threaded = seen
    for a, b in zip(one.grads, three.grads):
        np.testing.assert_allclose(b, a, rtol=1e-5, atol=1e-12)
    for a, b in zip(one.touched, three.touched):
        np.testing.assert_array_equal(b, a)
    for buf in threaded:
        for a, b in zip(three.grads + three.touched, buf.grads + buf.touched):
            np.testing.assert_array_equal(b, a)
    if mode == "hlp":  # partial masks, so a chunk's lost rows would show
        assert 0 < one.touched[0].sum() < kg.n_entities
    assert all(t.all() for t in one.touched[2:]) == (mode == "vlp")


def test_postweight_scores_are_fg_or_the_combined_score():
    """postweight-score = f gives score_f with the triple's own answer
    masked out of its references; fg, and every hlp run, give f_g."""
    from vlpkg import score_f, score_fg

    kg, table, store = _setup(ModelKind.TRANSE)
    lam = 0.4
    batch = kg.train[:3]
    neg = np.array([[1, 2], [3, 3], [int(batch[2, 2]), 0]])
    cand = np.concatenate([batch[:, 2:], neg], axis=1)
    for mode, score in (("vlp", "f"), ("vlp", "fg"), ("hlp", "f"),
                        ("hlp", "fg")):
        fwd = forward(store, table, batch, neg, mode == "vlp")
        pos, negs = postweight_scores(fwd, lam, score)
        got = np.concatenate([pos[:, None], negs], axis=1)
        for i, (h, r, t) in enumerate(batch):
            h, r, t = int(h), int(r), int(t)
            for j, x in enumerate(cand[i]):
                if mode == "vlp" and score == "f":
                    want = score_f(store, table, h, r, int(x), lam,
                                   exclude_tail=t)
                else:
                    want = score_fg(store, h, r, int(x))
                assert got[i, j] == pytest.approx(want, rel=1e-10), (mode,
                                                                     score)


def test_non_finite_loss_aborts_with_context():
    kg, table, store = _setup(ModelKind.TRANSE)
    store.entities[0] = np.inf
    cfg = TrainConfig(dataset="x", model="transe", mode="hlp", dim=4,
                      batch=4, lr=0.01, steps=1,
                      sampler=SamplerConfig(mode="uniform", n_negatives=2))
    adam = AdamState.zeros(store)
    batch = np.array([[0, 0, 1]] * 4)
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError,
                                                      match="non-finite"):
        train_step(store, adam, cfg, batch, stream_rng(0, RNG_STEP, 1))


def test_stream_rng_is_reproducible_and_purpose_separated():
    a = stream_rng(7, 1, 3).integers(1 << 30, size=5)
    b = stream_rng(7, 1, 3).integers(1 << 30, size=5)
    c = stream_rng(7, 2, 3).integers(1 << 30, size=5)
    d = stream_rng(8, 1, 3).integers(1 << 30, size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _train_cfg(mode="vlp", steps=24, **over):
    base = dict(dataset="x", model="rotate", mode=mode, dim=4, batch=8,
                lr=0.02, steps=steps, gamma=2.0, lam=0.5, alpha=0.5, refs=2,
                cap=3, seed=11, out="x", eval_every=0,
                sampler=SamplerConfig(mode="red", n_negatives=4))
    base.update(over)
    return TrainConfig(**base)


def _train_bits(tmp_path, tag, cfg, kg, table, pre, index, resume=None):
    out = tmp_path / tag
    if resume is not None:
        resume = load_checkpoint(resume)
    result = train(cfg, kg, table=table, presampler=pre, dist_index=index,
                   out_dir=out, resume=resume, train_hash=42)
    return result, (out / "checkpoint.vlpc").read_bytes()


def test_training_is_deterministic_and_resumable(tmp_path):
    kg, table, store = _setup(ModelKind.ROTATE, seed=9)
    index = compute_distances(kg, cap=3)
    from vlpkg import PreSampler

    pre = PreSampler(index, 1.0)
    cfg = _train_cfg()
    _, bits_a = _train_bits(tmp_path, "a", cfg, kg, table, pre, index)
    _, bits_b = _train_bits(tmp_path, "b", cfg, kg, table, pre, index)
    assert bits_a == bits_b

    half = _train_cfg(steps=12)
    _, _ = _train_bits(tmp_path, "c", half, kg, table, pre, index)
    resumed, bits_c = _train_bits(tmp_path, "d", cfg, kg, table, pre, index,
                                  resume=tmp_path / "c" / "checkpoint.vlpc")
    assert bits_c == bits_a
    assert resumed.adam.step == 24


@pytest.mark.parametrize("mode", ["vlp", "hlp"])
def test_checkpoints_are_byte_identical_at_any_thread_count(mode, tmp_path,
                                                            monkeypatch):
    """Batches of three STEP_ROWS chunks (the last, 6 rows, of two) train to
    the same checkpoint bytes on 1, 2 and 3 threads."""
    import vlpkg.training
    from vlpkg import PreSampler

    monkeypatch.setattr(vlpkg.training, "STEP_ROWS", 3)
    kg, table, _ = _setup(ModelKind.ROTATE, seed=9)
    index = compute_distances(kg, cap=3)
    pre = PreSampler(index, 1.0)
    bits = [_train_bits(tmp_path, f"t{threads}",
                        _train_cfg(mode, threads=threads), kg, table, pre,
                        index)[1] for threads in (1, 2, 3)]
    assert bits[0] == bits[1] == bits[2]


def test_resumed_log_drops_the_rows_past_its_checkpoint(tmp_path):
    kg, table, _ = _setup(ModelKind.ROTATE, seed=9)
    index = compute_distances(kg, cap=3)
    from vlpkg import PreSampler

    pre = PreSampler(index, 1.0)
    cfg = _train_cfg(steps=40, eval_every=10)
    _train_bits(tmp_path, "whole", cfg, kg, table, pre, index)
    # a run that went on to step 40, resumed from its step-20 checkpoint
    _train_bits(tmp_path, "cut", _train_cfg(steps=20, eval_every=10), kg,
                table, pre, index)
    (tmp_path / "cut" / "checkpoint.vlpc").rename(tmp_path / "step20.vlpc")
    _train_bits(tmp_path, "cut", cfg, kg, table, pre, index,
                resume=tmp_path / "step20.vlpc")
    _train_bits(tmp_path, "cut", cfg, kg, table, pre, index,
                resume=tmp_path / "step20.vlpc")

    def columns(tag):
        lines = (tmp_path / tag / "train.log.tsv").read_text().splitlines()
        return [line.split("\t")[:5] for line in lines]

    assert [row[0] for row in columns("cut")] == ["10", "20", "30", "40"]
    assert columns("cut") == columns("whole")


def test_resume_rejects_mismatched_model_and_hash(tmp_path):
    kg, table, _ = _setup(ModelKind.ROTATE, seed=9)
    index = compute_distances(kg, cap=3)
    from vlpkg import PreSampler

    pre = PreSampler(index, 1.0)
    cfg = _train_cfg(steps=4)
    train(cfg, kg, table=table, presampler=pre, dist_index=index,
          out_dir=tmp_path / "run", train_hash=42)
    ckpt = load_checkpoint(tmp_path / "run" / "checkpoint.vlpc")
    wrong_model = _train_cfg(steps=8, model="transe")
    with pytest.raises(ValueError, match="checkpoint"):
        train(wrong_model, kg, table=table, presampler=pre, dist_index=index,
              resume=ckpt)
    with pytest.raises(ValueError, match="train-hash"):
        train(_train_cfg(steps=8), kg, table=table, presampler=pre,
              dist_index=index, resume=ckpt, train_hash=43)


def test_resume_rejects_a_graph_with_other_entity_counts(tmp_path):
    kg, _, _ = _setup(ModelKind.ROTATE, seed=9)
    cfg = _train_cfg(mode="hlp", steps=4,
                     sampler=SamplerConfig(mode="uniform", n_negatives=4))
    train(cfg, kg, out_dir=tmp_path / "run", train_hash=42)
    # the same triples over one more entity, with the same train hash
    wider = kg_from_id_triples(kg.n_entities + 1, kg.n_relations, kg.train,
                               kg.valid, kg.test)
    with pytest.raises(ValueError, match="entities"):
        train(_train_cfg(mode="hlp", steps=8, sampler=cfg.sampler), wider,
              resume=load_checkpoint(tmp_path / "run" / "checkpoint.vlpc"),
              train_hash=42)


def test_train_writes_log_and_best_checkpoint(tmp_path):
    kg, table, _ = _setup(ModelKind.DISTMULT, seed=4)
    index = compute_distances(kg, cap=3)
    cfg = _train_cfg(model="distmult", steps=6, eval_every=2,
                     sampler=SamplerConfig(mode="uniform", n_negatives=4))
    out = tmp_path / "run"
    result = train(cfg, kg, table=table, dist_index=index, out_dir=out)
    assert (out / "best.vlpc").exists()
    lines = (out / "train.log.tsv").read_text().strip().splitlines()
    assert len(lines) == len(result.history) == 3
    assert not np.isnan(result.final_valid_mrr)
    store, _, step, _ = load_checkpoint(out / "checkpoint.vlpc")
    assert step == 6
    assert store.kind is ModelKind.DISTMULT


def test_validation_ranks_on_the_runs_threads(monkeypatch):
    import vlpkg.evaluation

    kg, table, _ = _setup(ModelKind.DISTMULT, seed=4)
    index = compute_distances(kg, cap=3)
    inner, seen = vlpkg.evaluation.evaluate, []

    def recorded(*args, threads=1, **kwargs):
        seen.append(threads)
        return inner(*args, threads=threads, **kwargs)

    monkeypatch.setattr(vlpkg.evaluation, "evaluate", recorded)
    cfg = _train_cfg(model="distmult", steps=4, eval_every=2, threads=2,
                     sampler=SamplerConfig(mode="uniform", n_negatives=4))
    result = train(cfg, kg, table=table, dist_index=index)
    assert seen == [2, 2] and len(result.history) == 2


def test_train_requires_consistent_inputs():
    kg, table, _ = _setup(ModelKind.ROTATE, seed=9)
    with pytest.raises(ValueError, match="reference table"):
        train(_train_cfg(steps=1), kg, table=None)
    with pytest.raises(ValueError, match="presampler"):
        train(_train_cfg(steps=1), kg, table=table, presampler=None)


def test_threaded_training_runs_and_stays_finite(tmp_path):
    kg, table, _ = _setup(ModelKind.COMPLEX, seed=2)
    index = compute_distances(kg, cap=3)
    cfg = _train_cfg(model="complex", steps=6, threads=2,
                     sampler=SamplerConfig(mode="uniform", n_negatives=4))
    result = train(cfg, kg, table=table, dist_index=index,
                   out_dir=tmp_path / "run")
    assert np.isfinite(result.history[-1][3])
