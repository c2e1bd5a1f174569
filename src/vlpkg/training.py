"""Training: the two-component loss and its exact gradients, lazy sparse
Adam, and a deterministic, resumable loop.

The loss per batch element couples a dense term and a sampled term over the
same positive triple,

    L = L1 + alpha * L2            (reference mode, "vlp")
    L = L2                         (plain mode, "hlp")

L1 is the cross-entropy of the softmax over cosine scores of all entities;
L2 is the margin sigmoid loss over drawn negatives, weighted by detached
post-sampling weights. Both are computed in 32-bit parameters with 64-bit
loss accumulation, and every gradient here is hand-derived and checked
against central finite differences in the test suite.

Determinism contract: a run is a pure function of (dataset bytes, config,
seed) in a single-worker configuration. Epoch shuffles and per-step sampling
draw from independent seed streams keyed by (seed, purpose, index), so a
resumed run consumes exactly the streams an uninterrupted run would.
"""

from __future__ import annotations

import concurrent.futures
import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, log_expit, logsumexp

from .models import (init_parameters, load_checkpoint, pair_score_pullback,
                     pair_scores, query_batch, query_pullback,
                     save_checkpoint)
from .reference import aggregate_batch, aggregate_pullback, gather_references
from .sampling import draw_negative_batch, negative_weights

logger = logging.getLogger(__name__)

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

RNG_INIT, RNG_STEP, RNG_SHUFFLE = 0, 1, 2

POSTWEIGHT_SCORES = ("fg", "f")  # the score that feeds the post-weights


def stream_rng(seed, purpose, index=0):
    """Independent generator for one purpose/index pair under a base seed."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(purpose, index)))


@dataclass
class AdamState:
    m: list
    v: list
    step: int = 0

    @classmethod
    def zeros(cls, store):
        return cls(m=[np.zeros_like(a) for a in store.param_arrays()],
                   v=[np.zeros_like(a) for a in store.param_arrays()],
                   step=0)


class GradBuffer:
    """Dense gradient accumulators plus touched-row tracking.

    Entity and relation gradients are scatter-added; the touched masks let
    the optimizer skip rows that received no gradient, keeping them
    bit-identical through a step.
    """

    def __init__(self, store):
        self.d_ent = np.zeros_like(store.entities)
        self.d_rel = np.zeros_like(store.relations)
        self.d_agg = [np.zeros_like(store.agg.w_node),
                      np.zeros_like(store.agg.w_edge),
                      np.zeros_like(store.agg.w_agg)]
        self.ent_touched = np.zeros(store.n_entities, dtype=bool)
        self.rel_touched = np.zeros(store.n_relations, dtype=bool)
        self.agg_touched = False

    def add_entities(self, ids, grads):
        ids = np.asarray(ids).reshape(-1)
        np.add.at(self.d_ent, ids, grads.reshape(len(ids), -1))
        self.ent_touched[ids] = True

    def add_entities_dense(self, grads):
        self.d_ent += grads
        self.ent_touched[:] = True

    def add_relations(self, ids, grads):
        ids = np.asarray(ids).reshape(-1)
        np.add.at(self.d_rel, ids, grads.reshape(len(ids), -1))
        self.rel_touched[ids] = True

    def add_agg(self, d_w_node, d_w_edge, d_w_agg):
        self.d_agg[0] += d_w_node
        self.d_agg[1] += d_w_edge
        self.d_agg[2] += d_w_agg
        self.agg_touched = True

    def merge(self, other):
        self.d_ent += other.d_ent
        self.d_rel += other.d_rel
        for mine, theirs in zip(self.d_agg, other.d_agg):
            mine += theirs
        self.ent_touched |= other.ent_touched
        self.rel_touched |= other.rel_touched
        self.agg_touched |= other.agg_touched


def adam_apply(store, adam, buf, lr):
    """One bias-corrected Adam update restricted to touched rows."""
    adam.step += 1
    t = adam.step
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    params = store.param_arrays()
    grads = [buf.d_ent, buf.d_rel] + buf.d_agg
    for i, (param, grad) in enumerate(zip(params, grads)):
        if i == 0:
            rows = np.flatnonzero(buf.ent_touched)
        elif i == 1:
            rows = np.flatnonzero(buf.rel_touched)
        else:
            rows = np.arange(param.shape[0]) if buf.agg_touched else ()
        if len(rows) == 0:
            continue
        g = grad[rows].astype(np.float64)
        m = adam.m[i][rows].astype(np.float64)
        v = adam.v[i][rows].astype(np.float64)
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * g * g
        update = lr * (m / c1) / (np.sqrt(v / c2) + EPS)
        param[rows] = (param[rows].astype(np.float64) - update).astype(param.dtype)
        adam.m[i][rows] = m.astype(adam.m[i].dtype)
        adam.v[i][rows] = v.astype(adam.v[i].dtype)


# ---------------------------------------------------------------------------
# cosine kernels with pullbacks (batched, internal to training)


def _norms(x):
    return np.sqrt((x * x).sum(axis=-1))


def _cosine_forward(t_prime, k):
    """cos(t'_b, k_b...) with intermediates; k broadcasts (B, ..., d)."""
    dots = (t_prime[:, None, :] * k).sum(-1) if k.ndim == 3 else (t_prime * k).sum(-1)
    tn = _norms(t_prime)
    en = _norms(k)
    denom = (tn[:, None] if k.ndim == 3 else tn) * en
    with np.errstate(invalid="ignore", divide="ignore"):
        inv = np.where(denom > 0, 1.0 / np.where(denom > 0, denom, 1.0), 0.0)
    c = dots * inv
    return c, (k, tn, en, inv, c)


def _cosine_pullback(t_prime, cache, g):
    """Gradient of sum(g * c) wrt t_prime and k."""
    k, tn, en, inv, c = cache
    gi = g * inv
    gc = g * c
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_tn2 = np.where(tn > 0, 1.0 / np.where(tn > 0, tn, 1.0) ** 2, 0.0)
        inv_en2 = np.where(en > 0, 1.0 / np.where(en > 0, en, 1.0) ** 2, 0.0)
    if k.ndim == 3:
        dt = (gi[..., None] * k).sum(1) - (gc.sum(1) * inv_tn2)[:, None] * t_prime
        dk = gi[..., None] * t_prime[:, None, :] - (gc * inv_en2)[..., None] * k
    else:
        dt = gi[:, None] * k - (gc * inv_tn2)[:, None] * t_prime
        dk = gi[:, None] * t_prime - (gc * inv_en2)[:, None] * k
    return dt, dk


def _cosine_all_forward(t_prime, entities):
    """cos against every entity: (B, n_entities) plus cache."""
    dots = t_prime @ entities.T
    tn = _norms(t_prime)
    en = _norms(entities)
    denom = tn[:, None] * en[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        inv = np.where(denom > 0, 1.0 / np.where(denom > 0, denom, 1.0), 0.0)
    c = dots * inv
    return c, (tn, en, inv, c)


def _cosine_all_pullback(t_prime, entities, cache, g):
    tn, en, inv, c = cache
    gi = g * inv
    gc = g * c
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_tn2 = np.where(tn > 0, 1.0 / np.where(tn > 0, tn, 1.0) ** 2, 0.0)
        inv_en2 = np.where(en > 0, 1.0 / np.where(en > 0, en, 1.0) ** 2, 0.0)
    dt = gi @ entities - (gc.sum(1) * inv_tn2)[:, None] * t_prime
    d_ent = gi.T @ t_prime - (gc.sum(0) * inv_en2)[:, None] * entities
    return dt, d_ent


# ---------------------------------------------------------------------------
# losses


def _vlp_forward(store, table, h, r, t):
    q = query_batch(store, h, r)
    ref_h, ref_t, mask = gather_references(table, h, r, exclude_tails=t)
    t_prime, cache = aggregate_batch(store, q, r, ref_h, ref_t, mask)
    return q, t_prime, cache


def _backprop_query_and_refs(store, buf, h, r, agg_grads, d_q_extra=None):
    """Scatter aggregation gradients and chain the query pullback."""
    d_q = agg_grads.d_q if d_q_extra is None else agg_grads.d_q + d_q_extra
    d_h, d_r = query_pullback(store, h, r, d_q)
    buf.add_entities(h, d_h)
    buf.add_relations(r, d_r)
    buf.add_agg(agg_grads.d_w_node, agg_grads.d_w_edge, agg_grads.d_w_agg)
    if len(agg_grads.ref_t_ids):
        buf.add_entities(agg_grads.ref_t_ids, agg_grads.d_ref_t)
        buf.add_entities(agg_grads.ref_h_ids, agg_grads.d_ref_h)
        buf.add_relations(agg_grads.ref_r_ids, agg_grads.d_ref_r)


def loss_l1(store, table, batch, buf=None, scale=1.0, normalizer=None):
    """Cross-entropy of softmax over all-entities cosine scores.

    Returns the (already averaged) loss value; gradients scaled by ``scale``
    are accumulated into ``buf`` when given. ``normalizer`` overrides the
    averaging denominator so sub-batches of a larger batch compose exactly.
    """
    h, r, t = batch[:, 0], batch[:, 1], batch[:, 2]
    n = len(batch) if normalizer is None else normalizer
    q, t_prime, cache = _vlp_forward(store, table, h, r, t)
    c, ccache = _cosine_all_forward(t_prime, store.entities)
    c64 = c.astype(np.float64)
    lse = logsumexp(c64, axis=1)
    value = float((lse - c64[np.arange(len(batch)), t]).sum() / n)
    if buf is None or scale == 0.0:
        return value
    p = np.exp(c64 - lse[:, None])
    p[np.arange(len(batch)), t] -= 1.0
    g = (p * (scale / n)).astype(store.dtype)
    dt_prime, d_ent = _cosine_all_pullback(t_prime, store.entities, ccache, g)
    buf.add_entities_dense(d_ent)
    agg_grads = aggregate_pullback(store, cache, dt_prime)
    _backprop_query_and_refs(store, buf, h, r, agg_grads)
    return value


def loss_l2(store, table, batch, negatives, post_w, gamma, lam, mode,
            buf=None, scale=1.0, normalizer=None):
    """Margin sigmoid loss over drawn negatives with detached weights.

    ``negatives`` is (B, l) entity ids, ``post_w`` the (B, l) post-sampling
    weights (treated as constants). In vlp mode the score inside the
    sigmoids is f = f_c + lam * f_g; in hlp mode it is f_g alone.
    """
    h, r, t = batch[:, 0], batch[:, 1], batch[:, 2]
    b = len(batch)
    n = b if normalizer is None else normalizer
    q = query_batch(store, h, r)
    k_pos = store.entities[t]
    k_neg = store.entities[negatives]
    fg_pos = pair_scores(store, q, k_pos)
    fg_neg = pair_scores(store, q[:, None, :], k_neg)
    vlp = mode == "vlp"
    if vlp:
        _, t_prime, cache = _vlp_forward(store, table, h, r, t)
        fc_pos, pos_cc = _cosine_forward(t_prime, k_pos)
        fc_neg, neg_cc = _cosine_forward(t_prime, k_neg)
        f_pos = fc_pos + lam * fg_pos
        f_neg = fc_neg + lam * fg_neg
    else:
        f_pos, f_neg = fg_pos, fg_neg

    x_pos = gamma + f_pos.astype(np.float64)
    x_neg = -f_neg.astype(np.float64) - gamma
    w = np.asarray(post_w, dtype=np.float64)
    value = float(((-w * log_expit(x_neg)).sum(axis=1) - log_expit(x_pos)).sum() / n)
    if buf is None or scale == 0.0:
        return value

    d_pos = (-expit(-x_pos) * (scale / n)).astype(store.dtype)
    d_neg = (w * expit(-x_neg) * (scale / n)).astype(store.dtype)

    fg_up_pos = d_pos * store.dtype.type(lam) if vlp else d_pos
    fg_up_neg = d_neg * store.dtype.type(lam) if vlp else d_neg
    dq_pos, dk_pos = pair_score_pullback(store, q, k_pos, fg_up_pos)
    dq_neg, dk_neg = pair_score_pullback(store, q[:, None, :], k_neg, fg_up_neg)
    d_q = dq_pos + dq_neg.sum(axis=1)
    buf.add_entities(t, dk_pos)
    buf.add_entities(negatives, dk_neg)

    if vlp:
        dt_pos, dck_pos = _cosine_pullback(t_prime, pos_cc, d_pos)
        dt_neg, dck_neg = _cosine_pullback(t_prime, neg_cc, d_neg)
        buf.add_entities(t, dck_pos)
        buf.add_entities(negatives, dck_neg)
        agg_grads = aggregate_pullback(store, cache, dt_pos + dt_neg)
        _backprop_query_and_refs(store, buf, h, r, agg_grads, d_q_extra=d_q)
    else:
        d_h, d_r = query_pullback(store, h, r, d_q)
        buf.add_entities(h, d_h)
        buf.add_relations(r, d_r)
    return value


def postweight_scores(store, table, batch, negatives, lam, cfg):
    """Scores feeding the post-sampling weights (no gradients).

    Defaults to the plain triple score f_g; with postweight-score = f the
    combined score is used instead.
    """
    h, r, t = batch[:, 0], batch[:, 1], batch[:, 2]
    q = query_batch(store, h, r)
    pos = pair_scores(store, q, store.entities[t]).astype(np.float64)
    neg = pair_scores(store, q[:, None, :],
                      store.entities[negatives]).astype(np.float64)
    if cfg.postweight_score == "f" and cfg.mode == "vlp":
        _, t_prime, _ = _vlp_forward(store, table, h, r, t)
        fc_pos, _ = _cosine_forward(t_prime, store.entities[t])
        fc_neg, _ = _cosine_forward(t_prime, store.entities[negatives])
        pos = fc_pos.astype(np.float64) + lam * pos
        neg = fc_neg.astype(np.float64) + lam * neg
    return pos, neg


def train_step(store, adam, cfg, batch, rng, table=None, presampler=None,
               pool=None):
    """One optimization step; returns (L1, L2, L) float diagnostics."""
    negatives = draw_negative_batch(cfg.sampler, store.n_entities,
                                    batch[:, 0], rng, presampler)
    pos_s, neg_s = postweight_scores(store, table, batch, negatives,
                                     cfg.lam, cfg)
    post_w = negative_weights(cfg.sampler, pos_s, neg_s)

    vlp = cfg.mode == "vlp"
    l2_scale = cfg.alpha if vlp else 1.0
    b = len(batch)

    def run_part(rows):
        part = GradBuffer(store)
        sub = batch[rows]
        l1 = (loss_l1(store, table, sub, part, scale=1.0, normalizer=b)
              if vlp else 0.0)
        l2 = loss_l2(store, table, sub, negatives[rows], post_w[rows],
                     cfg.gamma, cfg.lam, cfg.mode, part,
                     scale=l2_scale, normalizer=b)
        return l1, l2, part

    if pool is not None and cfg.threads > 1 and b >= 2 * cfg.threads:
        chunks = np.array_split(np.arange(b), cfg.threads)
        results = list(pool.map(run_part, chunks))
    else:
        results = [run_part(np.arange(b))]

    l1 = sum(r[0] for r in results)
    l2 = sum(r[1] for r in results)
    buf = results[0][2]
    for _, _, part in results[1:]:
        buf.merge(part)

    total = l1 + l2_scale * l2
    if not np.isfinite(total):
        head = ", ".join(str(tuple(tr)) for tr in batch[:3])
        raise RuntimeError(
            f"non-finite loss (L1={l1}, L2={l2}) on batch starting {head}")
    adam_apply(store, adam, buf, cfg.lr)
    return l1, l2, total


@dataclass
class TrainResult:
    store: object
    adam: AdamState
    history: list = field(default_factory=list)
    final_path: str = ""
    best_path: str = ""
    final_valid_mrr: float = float("nan")
    valid_report: object = None  # last validation EvalReport; None: no valid split


def _atomic_save(path, store, adam, step, train_hash):
    tmp = f"{path}.tmp"
    save_checkpoint(tmp, store, (adam.m, adam.v), step, train_hash)
    os.replace(tmp, path)


def train(cfg, kg, table=None, presampler=None, dist_index=None,
          out_dir=None, resume=None, train_hash=0):
    """Run the training loop; returns a TrainResult.

    Checkpoints (final and best-by-validation-MRR) are written under
    ``out_dir`` when given, atomically, so an interrupted run keeps its last
    good files. ``resume`` restores parameters, moments and the step counter
    from a checkpoint and continues as if never interrupted.
    """
    from .data import FilterIndex
    from .evaluation import evaluate  # local import; evaluation is loop-free

    cfg.validated()
    train_triples = kg.train
    if len(train_triples) == 0:
        raise ValueError("empty training split")
    if cfg.mode == "vlp" and table is None:
        raise ValueError("vlp mode needs a reference table")
    if cfg.sampler.pre_mode == "distance" and presampler is None:
        raise ValueError("distance pre-sampling needs a presampler")

    if resume is not None:
        store, (m, v), start_step, ck_hash = load_checkpoint(resume)
        if store.kind.value != cfg.model or store.dim != cfg.dim:
            raise ValueError(
                f"checkpoint is {store.kind.value} d={store.dim}, config says "
                f"{cfg.model} d={cfg.dim}")
        if train_hash and ck_hash and train_hash != ck_hash:
            raise ValueError(
                f"checkpoint train-hash {ck_hash:#018x} != dataset "
                f"{train_hash:#018x}")
        store.norm = cfg.norm
        adam = AdamState(m=m, v=v, step=start_step)
    else:
        store = init_parameters(cfg.model, cfg.dim, kg.n_entities,
                                kg.n_relations, cfg.seed, gamma=cfg.gamma,
                                norm=cfg.norm)
        adam = AdamState.zeros(store)
        start_step = 0

    result = TrainResult(store=store, adam=adam)
    log_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        result.final_path = os.path.join(out_dir, "checkpoint.vlpc")
        result.best_path = os.path.join(out_dir, "best.vlpc")
        log_path = os.path.join(out_dir, "train.log.tsv")
        log_handle = open(log_path, "a" if resume else "w", encoding="utf-8")
    else:
        log_handle = None

    batches_per_epoch = max(1, -(-len(train_triples) // cfg.batch))
    perm = None
    perm_epoch = -1
    best_mrr = -1.0
    t0 = time.perf_counter()
    filter_index = FilterIndex(kg) if len(kg.valid) else None
    pool = (concurrent.futures.ThreadPoolExecutor(max_workers=cfg.threads)
            if cfg.threads > 1 else None)

    def validate_now(step, l1, l2, total):
        nonlocal best_mrr
        if filter_index is None:
            result.history.append((step, l1, l2, total, float("nan"), 0.0))
            return float("nan")
        report = evaluate(store, kg, "valid", table=table,
                          dist_index=dist_index, lam=cfg.lam,
                          mode=cfg.eval_mode, threads=cfg.threads,
                          filter_index=filter_index)
        wall = time.perf_counter() - t0
        line = f"{step}\t{l1:.6f}\t{l2:.6f}\t{total:.6f}\t{report.mrr:.6f}\t{wall:.2f}"
        logger.info("step %d  L1 %.4f  L2 %.4f  L %.4f  valid-MRR %.4f",
                    step, l1, l2, total, report.mrr)
        if log_handle:
            log_handle.write(line + "\n")
            log_handle.flush()
        result.history.append((step, l1, l2, total, report.mrr, wall))
        result.valid_report = report
        if report.mrr > best_mrr:
            best_mrr = report.mrr
            if out_dir is not None:
                _atomic_save(result.best_path, store, adam, step, train_hash)
        return report.mrr

    try:
        last = (0.0, 0.0, 0.0)
        for step in range(start_step + 1, cfg.steps + 1):
            epoch = (step - 1) // batches_per_epoch
            pos = (step - 1) % batches_per_epoch
            if epoch != perm_epoch:
                perm = stream_rng(cfg.seed, RNG_SHUFFLE, epoch).permutation(
                    len(train_triples))
                perm_epoch = epoch
            rows = perm[pos * cfg.batch:(pos + 1) * cfg.batch]
            rng = stream_rng(cfg.seed, RNG_STEP, step)
            last = train_step(store, adam, cfg, train_triples[rows], rng,
                              table=table, presampler=presampler, pool=pool)
            if cfg.eval_every and step % cfg.eval_every == 0:
                validate_now(step, *last)
        if cfg.steps == 0 or not (cfg.eval_every and cfg.steps % cfg.eval_every == 0):
            result.final_valid_mrr = validate_now(max(cfg.steps, start_step), *last)
        else:
            result.final_valid_mrr = result.history[-1][4]
        if out_dir is not None:
            _atomic_save(result.final_path, store, adam, adam.step, train_hash)
    finally:
        if pool is not None:
            pool.shutdown()
        if log_handle:
            log_handle.close()
    return result
