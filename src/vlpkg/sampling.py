"""Negative sampling.

Pre-sampling draws candidate tails t' for a positive (h, r, t) from

    p_0(h, r, t') = exp(-alpha0 * d_g(h, t')) / Z(h)

realized exactly through the truncated distance index: pick a distance bucket
with probability proportional to |bucket| * exp(-alpha0 * d) (entities beyond
the cap share the cap bucket), then uniformly inside the bucket. Post-weights
then redistribute the loss over the drawn negatives: the relative-distance
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

DEFAULT_ALPHA0 = 1.0
DEFAULT_ALPHA1 = 1.0
DEFAULT_ALPHA2 = 1.0
DEFAULT_TAU = 1.0

SAMPLER_MODES = ("uniform", "selfadv", "red")


@dataclass
class SamplerConfig:
    mode: str = "red"
    alpha0: float = DEFAULT_ALPHA0
    alpha1: float = DEFAULT_ALPHA1
    alpha2: float = DEFAULT_ALPHA2
    tau: float = DEFAULT_TAU
    n_negatives: int = 64
    use_pre: bool = True    # red only: distance-based pre-sampling
    use_post: bool = True   # red only: relative-distance post-weights

    def validate(self):
        errors = []
        if self.mode not in SAMPLER_MODES:
            errors.append(f"sampler must be one of {SAMPLER_MODES}, got {self.mode!r}")
        for name in ("alpha0", "alpha1", "alpha2"):
            if getattr(self, name) <= 0:
                errors.append(f"{name} must be > 0")
        if self.tau < 0:
            errors.append("tau must be >= 0")
        if self.n_negatives < 1:
            errors.append("negs must be >= 1")
        return errors

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
        if alpha0 <= 0:
            raise ValueError("alpha0 must be > 0")
        self.index = index
        self.alpha0 = float(alpha0)
        self._decay = np.exp(-self.alpha0 * np.arange(index.cap + 1))

    def bucket_weights(self, source):
        """Normalized bucket probabilities, one per distance 0..cap."""
        w = self.index.ring_sizes(source) * self._decay
        return w / w.sum()

    def probabilities(self, source):
        """Dense exact p_0(source, .) over all entities (test oracle)."""
        d = self.index.distances_from(source)
        w = np.exp(-self.alpha0 * d)
        return w / w.sum()

    def sample(self, source, l, rng):
        """l i.i.d. draws from p_0(source, .), with replacement."""
        cap = self.index.cap
        weights = self.bucket_weights(source)
        buckets = rng.choice(cap + 1, size=l, p=weights)
        out = np.empty(l, dtype=np.int64)
        for d in np.unique(buckets):
            slots = np.flatnonzero(buckets == d)
            if d < cap:
                ring = self.index.ring(source, int(d))
                out[slots] = ring[rng.integers(len(ring), size=len(slots))]
            else:
                out[slots] = self._sample_beyond_cap(source, len(slots), rng)
        return out

    def _sample_beyond_cap(self, source, k, rng):
        """k uniform draws from the ids at distance >= cap, by rejection.

        A round holds about twice the candidates that k accepted draws need
        in expectation, n / |beyond| each, so one round nearly always
        suffices. The cap bucket is picked with probability at most
        |beyond| * exp(-alpha0 * cap), so a sample costs at most about
        2n * exp(-alpha0 * cap) candidates in expectation without any
        per-source cache.
        """
        n = self.index.n_entities
        beyond = n - len(self.index.row(source)[0])
        out = np.empty(k, dtype=np.int64)
        filled = 0
        while filled < k:
            cand = rng.integers(n, size=2 * (k - filled) * n // beyond + 16)
            keep = cand[self._beyond_cap_mask(source, cand)]
            take = min(len(keep), k - filled)
            out[filled:filled + take] = keep[:take]
            filled += take
        return out

    def _beyond_cap_mask(self, source, candidates):
        mask = np.ones(len(candidates), dtype=bool)
        for d in range(self.index.cap):
            ring = self.index.ring(source, d)
            if len(ring) == 0:
                continue
            pos = np.minimum(np.searchsorted(ring, candidates), len(ring) - 1)
            mask &= ring[pos] != candidates
        return mask


def draw_negative_batch(config, n_entities, h_ids, rng, presampler=None):
    """(B, l) negative tails; distance-based or uniform per the config."""
    l = config.n_negatives
    if config.pre_mode == "uniform":
        return rng.integers(n_entities, size=(len(h_ids), l))
    if presampler is None:
        raise ValueError("distance-based pre-sampling needs a PreSampler")
    return np.stack([presampler.sample(int(h), l, rng) for h in h_ids])


def post_weights(c, negatives, alpha1, alpha2, tau):
    """Relative-distance weights p_1 = softmax(w) along the last axis.

    w rises with slope alpha1 while n_i <= c + tau and falls with slope
    alpha2 past it (the formula keeps its alpha1*tau drop at the boundary).
    c may be a scalar or an array broadcastable against ``negatives``.
    """
    if alpha1 <= 0 or alpha2 <= 0:
        raise ValueError("post-sampling temperatures must be > 0")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    n = np.asarray(negatives, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    w = np.where(n <= c + tau, alpha1 * n, alpha1 * c - alpha2 * (n - c - tau))
    return softmax(w, axis=-1)


def selfadv_weights(negatives, alpha1):
    """Self-adversarial weights softmax(alpha1 * n) along the last axis."""
    if alpha1 <= 0:
        raise ValueError("alpha1 must be > 0")
    n = np.asarray(negatives, dtype=np.float64)
    return softmax(alpha1 * n, axis=-1)


def uniform_weights(shape):
    arr = np.empty(shape, dtype=np.float64)
    arr.fill(1.0 / arr.shape[-1])
    return arr


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
