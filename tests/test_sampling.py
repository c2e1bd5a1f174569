import numpy as np
import pytest
from scipy import stats

from vlpkg import (ConfigError, PreSampler, SamplerConfig, TrainConfig,
                   compute_distances, post_weights, selfadv_weights)
from vlpkg.sampling import (draw_negative_batch, negative_weights,
                            uniform_weights)
from vlpkg.synth import kg_from_id_triples, random_graph


def _chain_kg():
    # a - b - c, so distances from a are [0, 1, 2]
    return kg_from_id_triples(3, 1, [(0, 0, 1), (1, 0, 2)])


def test_chain_probabilities_match_hand_formula():
    index = compute_distances(_chain_kg(), cap=4)
    sampler = PreSampler(index, alpha0=1.0)
    w = np.exp(-1.0 * np.array([0, 1, 2]))
    np.testing.assert_allclose(sampler.probabilities(0), w / w.sum(),
                               rtol=1e-12)


def test_bucket_weights_sum_to_one(small_kg, small_index):
    sampler = PreSampler(small_index, alpha0=0.7)
    for source in range(small_kg.n_entities):
        w = sampler.bucket_weights(source)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert (w >= 0).all()


def test_empirical_frequencies_match_exact_distribution(small_kg, small_index):
    """Chi-square against the dense oracle on every entity reachable mass."""
    sampler = PreSampler(small_index, alpha0=1.0)
    rng = np.random.default_rng(8)
    source = 0
    draws = 200_000
    got = sampler.sample(source, draws, rng)
    counts = np.bincount(got, minlength=small_kg.n_entities)
    expected = sampler.probabilities(source) * draws
    keep = expected > 0
    _, p = stats.chisquare(counts[keep], expected[keep])
    assert p > 0.001, f"chi-square p = {p}"


def test_beyond_cap_sampling_both_branches():
    """Beyond-cap draws by rejection, for a large and a tiny complement."""
    rng = np.random.default_rng(3)
    # line of 12 entities, cap 2: from node 0 the complement is large
    line = kg_from_id_triples(12, 1, [(i, 0, i + 1) for i in range(11)])
    index = compute_distances(line, cap=2)
    sampler = PreSampler(index, alpha0=0.5)
    draws = sampler.sample(0, 50_000, rng)
    beyond = draws[index.distances_from(0)[draws] >= 2]
    assert len(np.unique(beyond)) == 10  # nodes 2..11 hide past the cap
    p = sampler.probabilities(0)
    counts = np.bincount(draws, minlength=12)
    _, pval = stats.chisquare(counts, p * len(draws))
    assert pval > 0.001

    # star graph with two isolated nodes: the complement is tiny relative
    # to n, so most rejection candidates are refused
    star = kg_from_id_triples(30, 1, [(0, 0, i) for i in range(1, 28)])
    idx2 = compute_distances(star, cap=3)
    s2 = PreSampler(idx2, alpha0=0.5)
    draws2 = s2.sample(1, 20_000, np.random.default_rng(4))
    assert {28, 29} <= set(draws2.tolist())  # isolated nodes keep their mass
    counts2 = np.bincount(draws2, minlength=30)
    _, pval2 = stats.chisquare(counts2, s2.probabilities(1) * len(draws2))
    assert pval2 > 0.001


def test_one_batched_call_matches_each_heads_distribution():
    """One sample call over several heads: each row against its oracle."""
    line = kg_from_id_triples(12, 1, [(i, 0, i + 1) for i in range(11)])
    star = kg_from_id_triples(30, 1, [(0, 0, i) for i in range(1, 28)])
    rand = random_graph(n_entities=60, n_relations=2, n_train=150, n_valid=0,
                        n_test=0, seed=9)
    # star head 1 has a tiny complement: only the isolated 28 and 29
    for kg, cap, heads in ((line, 2, [0, 5, 11, 0]), (star, 3, [1, 0, 28]),
                           (rand, 4, [0, 7, 31, 59])):
        sampler = PreSampler(compute_distances(kg, cap=cap), alpha0=0.5)
        draws = sampler.sample(np.array(heads), 20_000,
                               np.random.default_rng(11))
        for h, row in zip(heads, draws):
            counts = np.bincount(row, minlength=kg.n_entities)
            expected = sampler.probabilities(h) * len(row)
            keep = expected > 0
            assert (counts[~keep] == 0).all()
            _, p = stats.chisquare(counts[keep], expected[keep])
            assert p > 0.001, f"head {h}: chi-square p = {p}"


def test_sample_shape_and_dtype(small_kg, small_index):
    sampler = PreSampler(small_index, alpha0=1.0)
    rng = np.random.default_rng(2)
    n = small_kg.n_entities
    one = sampler.sample(3, 9, rng)
    assert one.shape == (9,) and one.dtype == np.int64
    heads = np.arange(n)
    many = sampler.sample(heads, 9, rng)
    assert many.shape == (n, 9) and many.dtype == np.int64
    assert many.min() >= 0 and many.max() < n
    assert sampler.sample(heads.reshape(-1, 1), 4, rng).shape == (n, 1, 4)
    assert sampler.bucket_weights(heads).shape == (n, small_index.cap + 1)
    np.testing.assert_array_equal(sampler.bucket_weights(heads)[3],
                                  sampler.bucket_weights(3))


def test_draw_negative_batch_calls_sample_once(small_kg, small_index,
                                               monkeypatch):
    calls = []
    real = PreSampler.sample

    def counted(self, sources, l, rng):
        calls.append(np.shape(sources))
        return real(self, sources, l, rng)

    monkeypatch.setattr(PreSampler, "sample", counted)
    cfg = SamplerConfig(mode="red", n_negatives=6)
    h_ids = small_kg.train[:13, 0]
    neg = draw_negative_batch(cfg, small_kg.n_entities, h_ids,
                              np.random.default_rng(0),
                              PreSampler(small_index, cfg.alpha0))
    assert calls == [(13,)]
    assert neg.shape == (13, 6)


def test_small_alpha0_approaches_uniform(small_index):
    sampler = PreSampler(small_index, alpha0=1e-9)
    p = sampler.probabilities(0)
    np.testing.assert_allclose(p, np.full_like(p, 1.0 / len(p)), rtol=1e-6)


def test_alpha0_must_be_positive(small_index):
    for alpha0 in (0.0, float("nan")):
        with pytest.raises(ValueError):
            PreSampler(small_index, alpha0=alpha0)


def test_post_weights_worked_example():
    """Hand-computed two-negative case.

    c = 1, tau = 0.5, alphas = 1: n = 1.0 sits below the boundary so
    w = 1.0; n = 2.0 sits above so w = 1*1 - 1*(2 - 1 - 0.5) = 0.5.
    softmax([1.0, 0.5]) = [0.62246, 0.37754].
    """
    w = post_weights(1.0, [1.0, 2.0], alpha1=1.0, alpha2=1.0, tau=0.5)
    np.testing.assert_allclose(w, [0.6224593312, 0.3775406688], rtol=1e-9)


def test_selfadv_weights_worked_example():
    w = selfadv_weights([1.0, 2.0], alpha1=1.0)
    e = np.exp([1.0, 2.0])
    np.testing.assert_allclose(w, e / e.sum(), rtol=1e-12)


def test_post_weights_rise_then_fall():
    """Raw weight grows with the score up to c + tau and shrinks past it."""
    c, tau = 0.4, 0.3
    grid = np.linspace(-2.0, 3.0, 101)
    w = post_weights(c, grid, alpha1=0.8, alpha2=1.3, tau=tau)
    logw = np.log(w)  # softmax is monotone in the raw weight
    below = grid[1:] <= c + tau
    diffs = np.diff(logw)
    assert (diffs[below] > 0).all()
    assert (diffs[~below] < 0).all()
    peak = grid[np.argmax(w)]
    assert abs(peak - (c + tau)) <= grid[1] - grid[0]


def test_post_weights_rows_sum_to_one():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(64, 33))
    c = rng.normal(size=(64, 1))
    w = post_weights(c, scores, alpha1=1.0, alpha2=0.5, tau=1.0)
    np.testing.assert_allclose(w.sum(axis=1), np.ones(64), atol=1e-9)
    w2 = selfadv_weights(scores, alpha1=1.0)
    np.testing.assert_allclose(w2.sum(axis=1), np.ones(64), atol=1e-9)


def test_post_weight_parameter_validation():
    nan = float("nan")
    for alpha1, alpha2, tau in [(0.0, 1.0, 0.1), (1.0, 1.0, -0.1),
                                (nan, 1.0, 0.1), (1.0, nan, 0.1),
                                (1.0, 1.0, nan)]:
        with pytest.raises(ValueError):
            post_weights(0.0, [1.0], alpha1=alpha1, alpha2=alpha2, tau=tau)
    for alpha1 in (-2.0, nan):
        with pytest.raises(ValueError):
            selfadv_weights([1.0], alpha1=alpha1)


def test_negative_weights_dispatch():
    pos = np.zeros(4)
    neg = np.random.default_rng(1).normal(size=(4, 6))
    red = SamplerConfig(mode="red")
    adv = SamplerConfig(mode="selfadv")
    uni = SamplerConfig(mode="uniform")
    assert negative_weights(red, pos, neg).shape == (4, 6)
    np.testing.assert_allclose(negative_weights(adv, pos, neg),
                               selfadv_weights(neg, adv.alpha1))
    np.testing.assert_allclose(negative_weights(uni, pos, neg),
                               uniform_weights((4, 6)))


def test_ablation_switches_change_modes():
    assert SamplerConfig(mode="red").pre_mode == "distance"
    assert SamplerConfig(mode="red", use_pre=False).pre_mode == "uniform"
    assert SamplerConfig(mode="red", use_post=False).post_mode == "selfadv"
    assert SamplerConfig(mode="selfadv").pre_mode == "uniform"
    assert SamplerConfig(mode="selfadv").post_mode == "selfadv"
    assert SamplerConfig(mode="uniform").post_mode == "uniform"


def test_sampler_config_validation_collects_problems():
    # a SamplerConfig is checked through the TrainConfig that holds it:
    # every bad sampler key is reported in one pass, not just the first
    bad = SamplerConfig(mode="nope", alpha0=-1.0, n_negatives=0)
    problems = TrainConfig(sampler=bad).validate()
    assert len(problems) >= 3
    with pytest.raises(ConfigError) as info:
        TrainConfig(sampler=bad).validated()
    assert info.value.problems == problems


def test_draw_negative_batch_shapes_and_uniform_mode(small_kg, small_index):
    cfg = SamplerConfig(mode="selfadv", n_negatives=10)
    rng = np.random.default_rng(0)
    h_ids = small_kg.train[:7, 0]
    neg = draw_negative_batch(cfg, small_kg.n_entities, h_ids, rng)
    assert neg.shape == (7, 10)
    assert neg.min() >= 0 and neg.max() < small_kg.n_entities

    red = SamplerConfig(mode="red", n_negatives=5)
    with pytest.raises(ValueError):
        draw_negative_batch(red, small_kg.n_entities, h_ids, rng)
    pre = PreSampler(small_index, red.alpha0)
    neg2 = draw_negative_batch(red, small_kg.n_entities, h_ids, rng, pre)
    assert neg2.shape == (7, 5)


def test_sample_negatives_is_seed_deterministic(small_index):
    pre = PreSampler(small_index, 1.0)
    a = pre.sample(0, 100, np.random.default_rng(5))
    b = pre.sample(0, 100, np.random.default_rng(5))
    assert np.array_equal(a, b)


def _rejection_oracle(sampler, sources, l, rng):
    """``PreSampler.sample`` drawn from the same stream, with the cap
    bucket's rejection test read off dense ``distances_from`` rows."""
    index, cap, n = sampler.index, sampler.index.cap, sampler.index.n_entities
    flat = np.asarray(sources, dtype=np.int64).ravel()
    cdf = np.cumsum(sampler.bucket_weights(flat), axis=-1)
    cdf /= cdf[:, -1:]
    u = rng.random((len(flat), l, 1))
    bucket = (u >= cdf[:, None, :-1]).sum(axis=-1).ravel()
    out = np.empty(len(bucket), dtype=np.int64)
    inner = np.flatnonzero(bucket < cap)
    at = flat[inner // l] * cap + bucket[inner]
    lo, hi = index.ring_offsets[at], index.ring_offsets[at + 1]
    out[inner] = index.ids[lo + rng.integers(hi - lo)]
    todo = np.flatnonzero(bucket == cap)
    rows, row_of = np.unique(todo // l, return_inverse=True)
    far = index.distances_from(flat[rows]) == cap
    per = 2 * n // far.sum(axis=1)
    while len(todo):
        owner = np.repeat(np.arange(len(todo)), per[row_of])
        cand = rng.integers(n, size=len(owner))
        hit = np.flatnonzero(far[row_of[owner], cand])
        got, first = np.unique(owner[hit], return_index=True)
        out[todo[got]] = cand[hit[first]]
        todo, row_of = np.delete(todo, got), np.delete(row_of, got)
    return out.reshape(np.shape(sources) + (l,))


def test_sample_draws_equal_a_rejection_oracle_on_dense_rows(small_index):
    """The near mask built from the index rows accepts exactly the
    candidates that dense ``distances_from(s) == cap`` rows accept: the
    same draws, bit for bit, on a large complement (line), a tiny one
    (star) and a random graph."""
    line = kg_from_id_triples(12, 1, [(i, 0, i + 1) for i in range(11)])
    star = kg_from_id_triples(30, 1, [(0, 0, i) for i in range(1, 28)])
    for index, heads in ((compute_distances(line, cap=2), [0, 5, 11, 0]),
                         (compute_distances(star, cap=3), [1, 0, 28, 1]),
                         (small_index, np.arange(small_index.n_entities))):
        sampler = PreSampler(index, alpha0=0.5)
        for seed in range(5):
            got = sampler.sample(np.array(heads), 40,
                                 np.random.default_rng(seed))
            want = _rejection_oracle(sampler, np.array(heads), 40,
                                     np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            sampler.sample(heads[0], 40, np.random.default_rng(7)),
            _rejection_oracle(sampler, heads[0], 40,
                              np.random.default_rng(7)))
