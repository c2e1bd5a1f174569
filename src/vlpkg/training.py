"""Training: the two-component loss and its exact gradients, lazy sparse
Adam, and a deterministic, resumable loop.

The loss per batch element couples a dense term and a sampled term over the
same positive triple,

    L = L1 + alpha * L2            (reference mode, "vlp")
    L = L2                         (plain mode, "hlp")

L1 is the cross-entropy of the softmax over cosine scores of all entities;
L2 is the margin sigmoid loss over drawn negatives, weighted by detached
post-sampling weights. Both read scores in the parameters' dtype (float32
by default) and add gradients back in it; values, L1's row sums and L2's
sigmoid terms are float64. L1 exponentiates in the parameters' dtype with
no max shift (a cosine lies in [-1, 1]), its cosines one GEMM of unit rows.
Every gradient here is hand-derived and checked against central finite
differences in the test suite. Adam keeps its moments in the parameters'
dtype and updates parameters and moments in place in that dtype, with no
float64 round trip.

A step draws its negatives and splits the batch into ceil(B / STEP_ROWS)
balanced chunks at any thread count. A chunk runs one ``forward`` (q, f_g of
the candidates [t | negatives]; in vlp mode one reference gather, t' and one
all-entity cosine GEMM into a kept buffer that L1 turns into ``d_cos``) and
one ``backward``, which scatters each id set once into its kept GradBuffer;
these merge in chunk order. The candidates' k rows are never held whole:
both passes gather them into one buffer of ``_BLOCK_BYTES``, a block of
chunk rows at a time, and score or pull back each block in place.

Determinism contract: a run is a pure function of (dataset bytes, config,
seed) at a fixed BLAS thread count, whatever ``threads`` is. Epoch shuffles
and per-step sampling draw from independent seed streams keyed by (seed,
purpose, index), so a resumed run consumes exactly the streams an
uninterrupted run would.
"""

from __future__ import annotations

import concurrent.futures
import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import _sparsetools, issparse
from scipy.special import expit, log_expit

from . import data, evaluation  # looked up per call: callers may patch them
from .models import (check_fits, init_parameters, is_distance_kind,
                     pair_score_pullback, pair_scores, query_batch,
                     query_pullback, save_checkpoint)
from .reference import aggregate_batch, aggregate_pullback, gather_references
from .sampling import draw_negative_batch, negative_weights

logger = logging.getLogger(__name__)

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

RNG_INIT, RNG_STEP, RNG_SHUFFLE = 0, 1, 2

POSTWEIGHT_SCORES = ("fg", "f")  # the score that feeds the post-weights
STEP_ROWS = 256  # a step's chunks have at most this many rows, at any threads
_BLOCK_BYTES = 2 << 20  # a block of candidate or Adam rows: about one L2


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
    """One gradient accumulator and one touched-row mask per parameter array,
    in ``store.param_arrays()`` order.

    The optimizer skips rows that received no gradient, keeping them
    bit-identical through a step.
    """

    def __init__(self, store):
        self.grads = [np.zeros_like(a) for a in store.param_arrays()]
        self.touched = [np.zeros(len(a), dtype=bool)
                        for a in store.param_arrays()]

    def add_rows(self, i, ids, rows, weights=None):
        """Scatter-add ``weights * rows`` into the rows ``ids`` of parameter
        ``i``. ``weights`` (default 1) is shaped like ``ids``; ``rows`` has a
        row per id, or broadcasts one row over each row of 2-D ids, as a
        (B, 1, d) array does against (B, n) ids. ``ids`` may instead be a
        sparse (len(rows), n) operator S: the rows S^T @ rows are added.
        ``rows`` may also be an iterable of (rows, weights) blocks, each of
        these forms for the next rows of dense ``ids``.

        One sparse (distinct ids x rows) operator, a column per row, adds each
        id's terms in the order given into one sum, a block at a time; the
        sums are added to the rows, in the parameter's dtype.
        """
        grad, touched = self.grads[i], self.touched[i]
        if issparse(ids):  # CSR: row j's ids and weights, in order
            flat, weights, ptr = ids.indices, ids.data, ids.indptr
        else:
            flat, ptr = np.asarray(ids).reshape(-1), None
        present = np.bincount(flat, minlength=len(grad)) > 0
        slot = (np.cumsum(present) - 1)[flat]  # each id's row of the sums
        sums = np.zeros((present.sum(), grad.shape[1]), grad.dtype)
        start = 0  # the block's first id
        for block, w in ([(rows, weights)] if isinstance(rows, np.ndarray)
                         else rows):
            x = block.reshape(-1, grad.shape[1])  # a column per row
            stop = (flat.size if block is rows
                    else start + len(block) * (flat.size // len(ids)))
            per = (stop - start) // max(len(x), 1)  # ids in each column
            _add_product(sums, per * np.arange(len(x) + 1) if ptr is None
                         else ptr, slot[start:stop], w, x)
            start = stop
        grad[present] += sums
        touched |= present

    def clear(self):  # for reuse; returns the buffer
        for arr in self.grads + self.touched:
            arr.fill(0)
        return self

    def add_entities(self, ids, rows, weights=None):
        self.add_rows(0, ids, rows, weights)

    def add_relations(self, ids, rows):
        self.add_rows(1, ids, rows)

    def add_dense(self, i, grad):
        """Add a gradient over every row of parameter ``i``."""
        self.grads[i] += grad
        self.touched[i][:] = True

    def merge(self, other):  # bool masks add as OR
        for mine, theirs in zip(self.grads + self.touched,
                                other.grads + other.touched):
            mine += theirs


def _add_product(sums, ptr, slots, weights, x):
    """``sums += A @ x``, A the CSC operator (weights or 1, slots, ptr), by
    the kernel of ``csc_matrix @``: it adds A x column by column into its
    output, so blocks of columns added in turn into one ``sums`` make one
    product's additions, in its order."""
    w = (np.ones(len(slots), sums.dtype) if weights is None
         else np.asarray(weights, sums.dtype).reshape(-1))
    if len(ptr) != len(x) + 1 or ptr[-1] > min(len(slots), len(w)):
        raise ValueError("scatter rows and weights do not fit their ids")
    x = np.ascontiguousarray(x, sums.dtype)
    _sparsetools.csc_matvecs(len(sums), len(x), sums.shape[1], ptr, slots, w,
                             x.ravel(), sums.ravel())


def adam_apply(store, adam, buf, lr):
    """One bias-corrected Adam update restricted to touched rows, in place
    and in each parameter's dtype, a block of rows at a time: an array with
    a touched row is updated whole, then its untouched rows are put back; an
    array with none is not read or written."""
    adam.step += 1
    t = adam.step
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for param, grad, touched, m_arr, v_arr in zip(
            store.param_arrays(), buf.grads, buf.touched, adam.m, adam.v):
        if not touched.any():
            continue
        rest = np.flatnonzero(~touched)
        kept = param[rest], m_arr[rest], v_arr[rest]
        size = max(1, _BLOCK_BYTES // (5 * grad[:1].nbytes))  # 5 arrays' rows
        for at in (slice(lo, lo + size) for lo in range(0, len(grad), size)):
            p, g, m, v = param[at], grad[at], m_arr[at], v_arr[at]
            step = g * (1.0 - BETA1)
            m *= BETA1
            m += step
            np.multiply(g, g, out=step)
            step *= 1.0 - BETA2
            v *= BETA2
            v += step
            np.divide(v, c2, out=step)
            np.sqrt(step, out=step)
            step += EPS
            np.divide(m, step, out=step)
            step *= lr / c1
            p -= step
        param[rest], m_arr[rest], v_arr[rest] = kept


# ---------------------------------------------------------------------------
# forward, losses, backward


@dataclass
class Forward:
    """One chunk's forward pass, cosine fields None in hlp mode. The losses add
    upstream gradients to ``d_fg`` and ``d_cos``; L1 turns ``cos`` into it."""

    h: np.ndarray
    r: np.ndarray
    cand: np.ndarray     # (B, 1 + l) ids: the gold tail, then the negatives
    q: np.ndarray        # (B, d_k) query vectors
    fg: np.ndarray       # (B, 1 + l) f_g(h, r, cand)
    d_fg: np.ndarray
    agg: object = None   # AggCache of t'
    cos: np.ndarray = None     # (B, n_entities) cos(t', every entity)
    fc: np.ndarray = None      # (B, 1 + l) its cand columns: f_c
    d_cos: np.ndarray = None   # made by the first loss that adds to it
    t_unit: tuple = None   # t' / |t'| (B, d_k) and 1 / |t'| (B,)
    e_unit: tuple = None   # the same for the (n_entities, d_k) entities


def _unit_rows(x):
    """(x / |row|, 1 / |row|) for the rows of ``x``; 0 for a zero row."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return x * inv[:, None], inv


def _unit_pullback(g, unit, inv):
    """x's gradient, in place of ``g``, the one on ``unit`` = x * ``inv``."""
    g -= np.einsum("ij,ij->i", g, unit)[:, None] * unit
    g *= inv[:, None]
    return g


def _gathered(store, cand, q=None):
    """(slice, its k rows) per block of ``cand``'s rows, gathered into one
    buffer (``mode="clip"`` writes there with no whole copy); with ``q``, a
    distance model's delta = k - q, as ``pair_scores`` leaves it."""
    rows = max(1, _BLOCK_BYTES // (cand.shape[1] * store.entities[:1].nbytes))
    k = np.empty((min(len(cand), rows), cand.shape[1], store.d_k), store.dtype)
    for lo in range(0, len(cand), rows):
        at = slice(lo, lo + rows)
        block = np.take(store.entities, cand[at], axis=0,
                        out=k[:len(cand[at])], mode="clip")
        if q is not None and is_distance_kind(store.kind):
            np.subtract(block, q[at, None], out=block)
        yield at, block


def forward(store, table, batch, negatives, vlp, e_unit=None, out=None):
    """Score ``batch`` against its gold tails and (B, l) ``negatives``; vlp
    writes its cosines against ``e_unit`` into ``out``, each made if None."""
    h, r, t = batch[:, 0], batch[:, 1], batch[:, 2]
    cand = np.concatenate([t[:, None], negatives], axis=1)
    q = query_batch(store, h, r)
    fg = np.empty(cand.shape, store.dtype)
    for at, block in _gathered(store, cand):
        fg[at] = pair_scores(store, q[at], block, out=block)
    fwd = Forward(h, r, cand, q, fg, np.zeros_like(fg))
    if vlp:
        refs = gather_references(table, h, r, exclude_tails=t)
        t_prime, fwd.agg = aggregate_batch(store, q, r, *refs)
        fwd.t_unit = _unit_rows(t_prime)
        fwd.e_unit = _unit_rows(store.entities) if e_unit is None else e_unit
        fwd.cos = np.matmul(fwd.t_unit[0], fwd.e_unit[0].T, out=out)
        fwd.fc = np.take_along_axis(fwd.cos, cand, axis=1)
    return fwd


def postweight_scores(fwd, lam, score="fg"):
    """Scores feeding the post-sampling weights, (gold (B,), negatives (B, l)):
    f_g, or f = f_c + lam * f_g with ``score = "f"`` in vlp mode."""
    f = fwd.fg.astype(np.float64)
    if score == "f" and fwd.fc is not None:
        f = fwd.fc.astype(np.float64) + lam * f
    return f[:, 0], f[:, 1:]


def loss_l1(fwd, normalizer=None):
    """Cross-entropy of the softmax over the all-entity cosines (vlp only),
    summed over the chunk and divided by ``normalizer`` (default: its size).
    One exp in place, unshifted as |cos| <= 1, turns ``fwd.cos`` into its
    gradient, added to ``fwd.d_cos``; row sums and value in float64."""
    rows, t = np.arange(len(fwd.cand)), fwd.cand[:, 0]
    n = len(rows) if normalizer is None else normalizer
    p, gold, fwd.cos = fwd.cos, fwd.cos[rows, t], None
    np.exp(p, out=p)
    total = p.sum(axis=1, dtype=np.float64)
    value = float((np.log(total) - gold).sum() / n)
    p *= (1.0 / (total * n)).astype(p.dtype)[:, None]
    p[rows, t] -= 1.0 / n
    fwd.d_cos = p if fwd.d_cos is None else np.add(p, fwd.d_cos, out=p)
    return value


def loss_l2(fwd, post_w, gamma, lam, scale=1.0, normalizer=None):
    """Margin sigmoid loss over the drawn negatives, weighted by the (B, l)
    constants ``post_w``, on f = f_c + lam * f_g (vlp) or f_g (hlp).

    Adds ``scale`` times its gradient to ``fwd.d_fg`` and, in vlp mode,
    scatter-adds it to ``fwd.d_cos``: a row may draw a negative twice.
    """
    b = len(fwd.cand)
    n = b if normalizer is None else normalizer
    f = fwd.fg if fwd.fc is None else fwd.fc + lam * fwd.fg
    sign = np.where(np.arange(f.shape[1]) == 0, 1.0, -1.0)
    x = sign * (f.astype(np.float64) + gamma)
    w = np.concatenate([np.ones((b, 1)), np.asarray(post_w, dtype=np.float64)],
                       axis=1)
    value = float((-w * log_expit(x)).sum() / n)
    d_f = (-w * sign * expit(-x) * (scale / n)).astype(fwd.fg.dtype)
    if fwd.fc is None:
        fwd.d_fg += d_f
    else:
        fwd.d_fg += d_f * d_f.dtype.type(lam)
        if fwd.d_cos is None:
            fwd.d_cos = np.zeros_like(fwd.cos)
        np.add.at(fwd.d_cos, (np.arange(b)[:, None], fwd.cand), d_f)
    return value


def backward(store, fwd, buf):
    """Chain the upstream gradients in ``fwd`` to the parameters in ``buf``."""
    if fwd.fc is not None:  # L1's entity rows first, over buf's zeroed rows
        _unit_pullback(np.matmul(fwd.d_cos.T, fwd.t_unit[0],
                                 out=buf.grads[0]), *fwd.e_unit)
        buf.touched[0][:] = True
    d_q = np.empty_like(fwd.q)

    def pulled_back():  # the candidates' (rows, weights), a block at a time
        for at, delta in _gathered(store, fwd.cand, fwd.q):
            d_q[at], rows, weights = pair_score_pullback(
                store, fwd.q[at], delta, fwd.d_fg[at], fwd.fg[at])
            yield rows, weights

    buf.add_entities(fwd.cand, pulled_back())
    if fwd.fc is not None:
        d_t = _unit_pullback(fwd.d_cos @ fwd.e_unit[0], *fwd.t_unit)
        d_q += aggregate_pullback(store, fwd.agg, d_t, buf)
    d_h, d_r = query_pullback(store, fwd.h, fwd.r, d_q)
    buf.add_entities(fwd.h, d_h)
    buf.add_relations(fwd.r, d_r)


def step_buffers(store, vlp, batch):
    """One (cosine buffer or None, GradBuffer) per chunk of a step of up to
    ``batch`` rows. A run keeps them: freed, they went back to the OS."""
    rows = min(batch, STEP_ROWS)
    return [(np.empty((rows, store.n_entities), store.dtype) if vlp else None,
             GradBuffer(store)) for _ in range(-(-batch // STEP_ROWS))]


def train_step(store, adam, cfg, batch, rng, table=None, presampler=None,
               pool=None, buffers=None):
    """One optimization step; returns (L1, L2, L) float diagnostics. Chunk i
    of the batch runs on ``pool`` (if given) in ``buffers[i]``, from
    ``step_buffers`` (made if None); the chunks merge in order."""
    negatives = draw_negative_batch(cfg.sampler, store.n_entities,
                                    batch[:, 0], rng, presampler)
    vlp = cfg.mode == "vlp"
    l2_scale = cfg.alpha if vlp else 1.0
    e_unit = _unit_rows(store.entities) if vlp else None
    chunks = np.array_split(np.arange(len(batch)), -(-len(batch) // STEP_ROWS))
    buffers = buffers or step_buffers(store, vlp, len(batch))

    def run_part(rows, i):  # buffers[i] fails loudly if made for fewer rows
        cos, part = buffers[i]
        fwd = forward(store, table, batch[rows], negatives[rows], vlp, e_unit,
                      None if cos is None else cos[:len(rows)])
        post_w = negative_weights(cfg.sampler, *postweight_scores(
            fwd, cfg.lam, cfg.postweight_score))
        l1 = loss_l1(fwd, normalizer=len(batch)) if vlp else 0.0
        l2 = loss_l2(fwd, post_w, cfg.gamma, cfg.lam, scale=l2_scale,
                     normalizer=len(batch))
        backward(store, fwd, part.clear())
        return l1, l2, part

    l1, l2, parts = zip(*(map if pool is None else pool.map)(
        run_part, chunks, range(len(chunks))))
    l1, l2, buf = sum(l1), sum(l2), parts[0]
    for part in parts[1:]:
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


def check_resume(cfg, store, ck_hash, kg, train_hash):
    """Reject a checkpoint of another model, dim or norm, or dataset."""
    if (store.kind.value, store.dim, store.norm) != (cfg.model, cfg.dim,
                                                     cfg.norm):
        raise ValueError(
            f"checkpoint is {store.kind.value} d={store.dim} "
            f"norm={store.norm}, config says {cfg.model} d={cfg.dim} "
            f"norm={cfg.norm}")
    check_fits(store, ck_hash, kg, train_hash)


def train(cfg, kg, table=None, presampler=None, dist_index=None,
          out_dir=None, resume=None, train_hash=0):
    """Run the training loop; returns a TrainResult.

    Checkpoints (final and best-by-validation-MRR) are written under
    ``out_dir`` when given, atomically, so an interrupted run keeps its last
    good files; ``config.txt`` is written there once a resume has passed
    its checks. ``resume`` is a loaded checkpoint, the tuple
    ``(store, (m, v), step, train_hash)``: the run continues from those
    parameters, moments and step as if never interrupted, and trains the
    tuple's arrays in place.
    """
    cfg.validated()
    train_triples = kg.train
    if len(train_triples) == 0:
        raise ValueError("empty training split")
    if cfg.mode == "vlp" and table is None:
        raise ValueError("vlp mode needs a reference table")
    if cfg.sampler.pre_mode == "distance" and presampler is None:
        raise ValueError("distance pre-sampling needs a presampler")

    if resume is not None:
        store, (m, v), start_step, ck_hash = resume
        check_resume(cfg, store, ck_hash, kg, train_hash)
        adam = AdamState(m=m, v=v, step=start_step)
    else:
        store = init_parameters(cfg.model, cfg.dim, kg.n_entities,
                                kg.n_relations, cfg.seed, gamma=cfg.gamma,
                                norm=cfg.norm)
        adam = AdamState.zeros(store)
        start_step = 0

    result = TrainResult(store=store, adam=adam)
    best_mrr = -1.0
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.txt"), "w",
                  encoding="utf-8") as handle:
            handle.writelines(f"{key} = {value}\n"
                              for key, value in cfg.to_items())
        result.final_path = os.path.join(out_dir, "checkpoint.vlpc")
        result.best_path = os.path.join(out_dir, "best.vlpc")
        log_path = os.path.join(out_dir, "train.log.tsv")
        kept = []  # a resume keeps the log rows up to its checkpoint
        if resume is not None and os.path.isfile(log_path):
            with open(log_path, encoding="utf-8") as handle:
                kept = [line for line in handle
                        if int(line.split("\t")[0]) <= start_step]
        best_mrr = max((float(line.split("\t")[4]) for line in kept),
                       default=-1.0)
        log_handle = open(log_path, "w", encoding="utf-8")
        log_handle.writelines(kept)
    else:
        log_handle = None

    batches_per_epoch = max(1, -(-len(train_triples) // cfg.batch))
    perm, perm_epoch = None, -1
    t0 = time.perf_counter()
    filter_index = data.FilterIndex(kg) if len(kg.valid) else None
    pool = (concurrent.futures.ThreadPoolExecutor(max_workers=cfg.threads)
            if cfg.threads > 1 else None)
    buffers = step_buffers(store, cfg.mode == "vlp", cfg.batch)

    def validate_now(step, l1, l2, total):
        nonlocal best_mrr
        if filter_index is None:
            result.history.append((step, l1, l2, total, float("nan"), 0.0))
            return float("nan")
        report = evaluation.evaluate(store, kg, "valid", table=table,
                                     dist_index=dist_index, lam=cfg.lam,
                                     mode=cfg.eval_mode,
                                     filter_index=filter_index,
                                     threads=cfg.threads)
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
                save_checkpoint(result.best_path, store, (adam.m, adam.v),
                                step, train_hash)
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
                              table=table, presampler=presampler, pool=pool,
                              buffers=buffers)
            if cfg.eval_every and step % cfg.eval_every == 0:
                validate_now(step, *last)
        end = max(cfg.steps, start_step)
        if not result.history or result.history[-1][0] != end:
            validate_now(end, *last)  # no step ran, or none validated at the end
        result.final_valid_mrr = result.history[-1][4]
        if out_dir is not None:
            save_checkpoint(result.final_path, store, (adam.m, adam.v),
                            adam.step, train_hash)
    finally:
        if pool is not None:
            pool.shutdown()
        if log_handle:
            log_handle.close()
    return result

