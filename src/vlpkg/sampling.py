"""Negative sampling.

Pre-sampling draws candidate tails t' for a positive (h, r, t) from

    p_0(h, r, t') = exp(-alpha0 * d_g(h, t')) / Z(h)

realized exactly through the truncated distance index, for a batch of heads at
once: pick a distance bucket with probability proportional to |bucket| *
exp(-alpha0 * d) (entities beyond the cap share the cap bucket), then an id
uniformly inside it, by rejection for the cap bucket. Post-weights then
redistribute the loss over the drawn negatives: the relative-distance
scheme rises with the negative score up to c + tau and falls beyond it, the
self-adversarial baseline rises monotonically, and the uniform baseline
weights all negatives equally.

The gold tail is never excluded from sampling; down-weighting likely-true
negatives is exactly what the falling branch is for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import softmax

from .data import ranges

SAMPLER_MODES = ("uniform", "selfadv", "red")


@dataclass
class SamplerConfig:
    mode: str = "red"
    alpha0: float = 1.0
    alpha1: float = 1.0
    alpha2: float = 1.0
    tau: float = 1.0
    n_negatives: int = 64
    use_pre: bool = True    # red only: distance-based pre-sampling
    use_post: bool = True   # red only: relative-distance post-weights

    @property
    def pre_mode(self):
        if self.mode == "red" and self.use_pre:
            return "distance"
        return "uniform"

    @property
    def post_mode(self):
        if self.mode == "red":
            return "red" if self.use_post else "selfadv"
        return self.mode


class PreSampler:
    """Exact sampler for p_0 built on a truncated distance index."""

    def __init__(self, index, alpha0):
        if not alpha0 > 0:
            raise ValueError("alpha0 must be > 0")
        self.index = index
        self.alpha0 = float(alpha0)
        self._decay = np.exp(-self.alpha0 * np.arange(index.cap + 1))

    def bucket_weights(self, sources):
        """Normalized bucket probabilities, one per distance 0..cap, for one
        source or each of an array: ``np.shape(sources) + (cap + 1,)``."""
        w = self.index.ring_sizes(sources) * self._decay
        return w / w.sum(axis=-1, keepdims=True)

    def probabilities(self, source):
        """Dense exact p_0(source, .) over all entities (test oracle)."""
        d = self.index.distances_from(source)
        w = np.exp(-self.alpha0 * d)
        return w / w.sum()

    def sample(self, sources, l, rng):
        """l i.i.d. int64 draws from p_0(s, .) for one source s, shape (l,),
        or for each of an array of sources, ``np.shape(sources) + (l,)``.

        The bucket comes by inverse CDF over ``bucket_weights``; a ring d < cap
        is an integer offset into its slice of ``index.ids``. A draw in the cap
        bucket rejects uniform candidates in s's index row (distance < cap),
        2n / |beyond| of them a round, so it ends in a round w.p. ~1 - e^-2.
        """
        index, cap, n = self.index, self.index.cap, self.index.n_entities
        flat = np.asarray(sources, dtype=np.int64).ravel()
        cdf = np.cumsum(self.bucket_weights(flat), axis=-1)
        cdf /= cdf[:, -1:]  # exactly 1 last: an empty cap bucket never wins
        u = rng.random((len(flat), l, 1))
        bucket = (u >= cdf[:, None, :-1]).sum(axis=-1).ravel()
        out = np.empty(len(bucket), dtype=np.int64)
        inner = np.flatnonzero(bucket < cap)
        at = flat[inner // l] * cap + bucket[inner]
        lo, hi = index.ring_offsets[at], index.ring_offsets[at + 1]
        out[inner] = index.ids[lo + rng.integers(hi - lo)]
        todo = np.flatnonzero(bucket == cap)  # draws still pending
        new = np.diff(todo // l, prepend=-1) > 0  # runs of the sorted rows
        rows, row_of = (todo // l)[new], np.cumsum(new) - 1
        size = np.diff(index.indptr)[flat[rows]]  # ids at distance < cap
        near = np.zeros(len(rows) * n, dtype=bool)  # row-major (rows, n)
        near[np.repeat(np.arange(len(rows)) * n, size)
             + index.ids[ranges(index.indptr[flat[rows]], size)]] = True
        per = 2 * n // (n - size)  # candidates per pending draw, by row
        while len(todo):
            owner = np.repeat(np.arange(len(todo)), per[row_of])
            cand = rng.integers(n, size=len(owner))
            hit = np.flatnonzero(~near[row_of[owner] * n + cand])
            first = hit[np.diff(owner[hit], prepend=-1) > 0]  # sorted runs
            got = owner[first]
            out[todo[got]] = cand[first]
            todo, row_of = np.delete(todo, got), np.delete(row_of, got)
        return out.reshape(np.shape(sources) + (l,))


def draw_negative_batch(config, n_entities, h_ids, rng, presampler=None):
    """(B, l) negative tails; distance-based or uniform per the config."""
    l = config.n_negatives
    if config.pre_mode == "uniform":
        return rng.integers(n_entities, size=(len(h_ids), l))
    if presampler is None:
        raise ValueError("distance-based pre-sampling needs a PreSampler")
    return presampler.sample(h_ids, l, rng)


def post_weights(c, negatives, alpha1, alpha2, tau):
    """Relative-distance weights p_1 = softmax(w) along the last axis.

    w rises with slope alpha1 while n_i <= c + tau and falls with slope
    alpha2 past it (the formula keeps its alpha1*tau drop at the boundary).
    c may be a scalar or an array broadcastable against ``negatives``.
    """
    if not (alpha1 > 0 and alpha2 > 0):
        raise ValueError("post-sampling temperatures must be > 0")
    if not tau >= 0:
        raise ValueError("tau must be >= 0")
    n = np.asarray(negatives, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    w = np.where(n <= c + tau, alpha1 * n, alpha1 * c - alpha2 * (n - c - tau))
    return softmax(w, axis=-1)


def selfadv_weights(negatives, alpha1):
    """Self-adversarial weights softmax(alpha1 * n) along the last axis."""
    if not alpha1 > 0:
        raise ValueError("alpha1 must be > 0")
    n = np.asarray(negatives, dtype=np.float64)
    return softmax(alpha1 * n, axis=-1)


def uniform_weights(shape):
    return np.full(shape, 1.0 / shape[-1])


def negative_weights(config, pos_scores, neg_scores):
    """Dispatch post-weighting per the sampler config (batch axis first)."""
    mode = config.post_mode
    if mode == "red":
        c = np.asarray(pos_scores, dtype=np.float64)
        return post_weights(c[..., None], neg_scores,
                            config.alpha1, config.alpha2, config.tau)
    if mode == "selfadv":
        return selfadv_weights(neg_scores, config.alpha1)
    return uniform_weights(np.asarray(neg_scores).shape)
