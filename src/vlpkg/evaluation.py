"""Filtered ranking evaluation and report assembly.

Every (h, r) test query ranks all entities as candidate tails, removes
other known-true tails (filtered protocol), and scores the gold tail with
the average-tie rank 1 + #strictly-greater + #equal-others / 2. Reports
carry the overall metrics plus per-distance-bucket, per-relation and
per-mapping-property breakdowns; head-direction cells come from reciprocal
relation ids re-labeled with the base relation's class.

``candidate_scores`` + ``rank_from_scores`` are the rank oracle.
``evaluate`` ranks a split in blocks of rows instead, and every rank it
gives equals the oracle's bit for bit:

* A block's t' is one ``context_vector`` call on its rows. t' is a pure
  function of (store, table, h, r), the same bits alone or in any block
  (``aggregate_batch`` is row-stable), so each row is the oracle's t'.
* The gold score comes from the elementwise kernels (``pair_scores``,
  ``cosine_all``), so it is the oracle's entry.
* One float64 GEMM scores every candidate of a block: ``Q @ E.T`` for the
  dot models, sqrt(|q|^2 + |e|^2 - 2 Q.E) for the l2 distances, and unit
  t' rows against unit entity rows for the cosine. TransE-l1 has no GEMM
  form; its rows are ``score_fg_all``'s exact scores. Combined-f adds
  ``fc + lam * fg``. These fast scores only sort candidates out.
* Each fast score has a rigorous bound on |oracle - fast|: the oracle's
  rounding in the store's dtype (unit roundoff u_s) plus the fast path's
  in float64 (u), with gamma_n = n u / (1 - n u) (Higham, *Accuracy and
  Stability of Numerical Algorithms*, section 3.1) over the vector width d.
  By Cauchy-Schwarz |sum_i q_i e_i| <= |q| |e| <= |q| max|e| =: m, so a
  dot model's bound is (gamma_{d+1}(u_s) + gamma_{d+4}(u)) m. An l2 model
  has |D^2_fast - D^2| <= gamma_{d+5}(u) m^2 with m = |q| + max|e|, which
  maps through sqrt by monotonicity to sqrt(gamma_{d+5}(u)) m, and the
  oracle's distance is within gamma_{d+5}(u_s) D of the exact D <= m. A
  cosine is within gamma_{3d+5}(u_s) + gamma_{3d+6}(u), from the dot, the
  two norms and the division. Combined-f's bound is fc's plus |lam| times fg's, plus
  6 u (1 + |lam| max|fg|) for the two sums. The indices carry a few more
  roundings than the kernels make, to cover the arithmetic of the bound
  and of the comparison; 4 d sqrt(smallest subnormal) covers underflow.
* A candidate whose fast score lies above the gold by more than the bound
  counts as greater, one below by more as lower. Each candidate inside the
  band is rescored with the elementwise kernel and compared exactly;
  ``EvalReport.rescored`` counts them.
* A query whose gold score is not finite, whose inputs are not finite or
  large enough to overflow the store's dtype, or (for the cosine) whose t'
  or some entity row is near but not at zero, is ranked through
  ``candidate_scores`` and ``rank_from_scores``. A zero entity row's
  cosines are exactly 0 in both paths.

The known tails of a block come from ``FilterIndex.codes`` in one
``searchsorted``. A block's row count keeps its float64 (rows x entities)
arrays within ``_BLOCK_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import FilterIndex, distance_bucket, ranges, rmp_classify
from .models import (ModelKind, is_distance_kind, pair_scores, query_batch,
                     score_fg_all)
from .reference import context_vector, cosine_all

EVAL_MODES = ("combined-f", "fg-only", "fc-only")

HITS_AT = (1, 3, 10)

BUCKET_LABELS = {1: "1", 2: "2", 3: "3", 4: ">=4"}

SECTIONS = ("overall", "distance", "relation", "rmp")  # of a report

_BLOCK_BYTES = 16 << 20  # both float64 (rows x entities) arrays of a block
_U = np.finfo(np.float64).eps / 2  # float64 unit roundoff


@dataclass
class RankResult:
    head: int
    relation: int
    tail: int
    rank: float
    bucket: int | None = None


@dataclass
class Cell:
    count: int = 0
    inv_sum: float = 0.0

    def add(self, rank):
        self.count += 1
        self.inv_sum += 1.0 / rank

    @property
    def mrr(self):
        return self.inv_sum / self.count if self.count else float("nan")


@dataclass
class EvalReport:
    n: int = 0
    mrr: float = float("nan")
    hits: dict = field(                                # NaN when n == 0
        default_factory=lambda: dict.fromkeys(HITS_AT, float("nan")))
    per_bucket: dict = field(default_factory=dict)     # bucket -> Cell
    per_relation: dict = field(default_factory=dict)   # relation name -> Cell
    per_rmp: dict = field(default_factory=dict)        # (direction, class) -> Cell
    ranks: list = field(default_factory=list)          # RankResults (optional)
    rescored: int = 0  # candidates the band sent to the elementwise kernel


def _check_mode(mode):
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")


def candidate_scores(store, h, r, mode, lam, table=None):
    """Score vector over all entities for one query, per evaluation mode.

    The combined mode adds the vectors in 64-bit so that any single entry
    equals the scalar f_c + lam * f_g computed in python floats.
    """
    _check_mode(mode)
    if mode == "fg-only":
        return score_fg_all(store, h, r)
    t_prime = context_vector(store, table, h, r)
    fc = cosine_all(t_prime, store.entities).astype(np.float64)
    if mode == "fc-only":
        return fc
    return fc + lam * score_fg_all(store, h, r).astype(np.float64)


def rank_from_scores(scores, gold, known_tails):
    """Average-tie filtered rank of the gold tail."""
    gold_score = scores[gold]
    keep = np.ones(len(scores), dtype=bool)
    keep[known_tails] = False
    keep[gold] = True
    kept = scores[keep]
    greater = int((kept > gold_score).sum())
    ties = int((kept == gold_score).sum()) - 1  # the gold itself ties trivially
    return 1.0 + greater + 0.5 * ties


def _gamma(n, u):
    return n * u / (1.0 - n * u)


class _BlockRanker:
    """Ranks blocks of query rows for one ``evaluate`` call, which makes
    the float64 entity table and its norms once for all of its blocks."""

    def __init__(self, store, table, mode, lam, filter_index):
        _check_mode(mode)
        self.store, self.table, self.mode, self.lam = store, table, mode, lam
        self.filter = filter_index
        info = np.finfo(store.dtype)
        d = store.d_k
        self.u_s = float(info.eps) / 2
        self.big = np.sqrt(float(info.max)) / d  # smaller norms never overflow
        self.tiny = float(info.smallest_subnormal) ** 0.25
        self.alpha = 4 * d * np.sqrt(float(info.smallest_subnormal))
        self.rows = max(1, _BLOCK_BYTES // (16 * store.n_entities))
        self.e64 = store.entities.astype(np.float64)
        self.e_sq = (self.e64 * self.e64).sum(axis=1)
        norms = np.sqrt(self.e_sq)
        self.e_max = norms.max(initial=0.0)
        if mode != "fg-only":
            self.e_fit = np.all((norms == 0) | (norms >= self.tiny))
            self.e_unit = np.divide(self.e64, norms[:, None],
                                    where=norms[:, None] > 0,
                                    out=np.zeros_like(self.e64))

    def rank(self, triples):
        """(ranks, rescored candidates) of a block of (h, r, t) rows."""
        h, r, t = triples.T
        with np.errstate(all="ignore"):  # non-finite rows fall back below
            key, gold, err, ok, exact = self.scores(h, r, t)
            keep = self.keep_mask(h, r, t)
            keep[~ok] = False
            keep &= key >= (gold - err)[:, None]  # the rest are lower
            band = keep & (key <= (gold + err)[:, None])
        rows, cols = np.nonzero(band)
        scores, at = exact(rows, cols), gold[rows]
        b = len(triples)
        greater = (np.count_nonzero(keep, axis=1)
                   - np.bincount(rows, minlength=b)
                   + np.bincount(rows, scores > at, minlength=b))
        ties = np.bincount(rows, scores == at, minlength=b)
        ranks = 1.0 + greater + 0.5 * ties
        for i in np.flatnonzero(~ok):
            ranks[i] = rank_from_scores(
                candidate_scores(self.store, h[i], r[i], self.mode, self.lam,
                                 self.table),
                t[i], self.filter.tails(h[i], r[i]))
        return ranks, len(rows)

    def keep_mask(self, h, r, t):
        """(B, n) keep-mask: False at each row's known tails and its gold."""
        f = self.filter
        n = f.n_entities
        base = (h * f.n_relations + r) * n
        lo, hi = np.searchsorted(f.codes, np.stack([base, base + n]))
        counts = hi - lo
        rows = np.repeat(np.arange(len(h)), counts)
        at = ranges(lo, counts)  # into codes
        keep = np.ones((len(h), n), dtype=bool)
        keep[rows, f.codes[at] - base[rows]] = False
        keep[np.arange(len(h)), t] = False
        return keep

    def scores(self, h, r, t):
        """(fast scores (B, n), gold (B,), error bound (B,) or scalar,
        ok (B,), exact(rows, cols)) for a block, all in float64."""
        if self.mode == "fg-only":
            return self.fg(h, r, t)[:5]
        key, gold, err, ok, exact_c = self.fc(h, r, t)
        if self.mode == "fc-only":
            return key, gold, err, ok, exact_c
        lam = self.lam
        fg, gold_g, err_g, ok_g, exact_g, size_g = self.fg(h, r, t)
        fg *= lam
        key += fg
        err = err + abs(lam) * err_g + 6 * _U * (1.0 + abs(lam) * size_g)

        def exact(rows, cols):
            return exact_c(rows, cols) + lam * exact_g(rows, cols)

        return key, gold + lam * gold_g, err, ok & ok_g, exact

    def fg(self, h, r, t):
        """``scores`` for f_g, plus a bound on |f_g| per row."""
        store, d = self.store, self.store.d_k
        q = query_batch(store, h, r)
        gold = pair_scores(store, q, store.entities[t]).astype(np.float64)

        def exact(rows, cols):
            return pair_scores(store, q[rows],
                               store.entities[cols]).astype(np.float64)

        q64 = q.astype(np.float64)
        q_sq = (q64 * q64).sum(axis=1)
        q_norm = np.sqrt(q_sq)
        ok = (q_norm < self.big) & (self.e_max < self.big) & np.isfinite(gold)
        if not is_distance_kind(store.kind):
            key = q64 @ self.e64.T
            size = q_norm * self.e_max
            err = (_gamma(d + 1, self.u_s) + _gamma(d + 4, _U)) * size
        elif store.kind == ModelKind.TRANSE and store.norm == "l1":
            key = np.empty((len(h), store.n_entities))
            for i, (a, b) in enumerate(zip(h, r)):
                key[i] = score_fg_all(store, a, b)
            size = np.sqrt(d) * (q_norm + self.e_max)
            err = 0.0
        else:  # -sqrt(|q|^2 + |e|^2 - 2 q.e)
            key = (2.0 * q64) @ self.e64.T
            key -= self.e_sq
            np.subtract(q_sq[:, None], key, out=key)
            np.maximum(key, 0.0, out=key)
            np.sqrt(key, out=key)
            np.negative(key, out=key)
            size = q_norm + self.e_max
            err = (_gamma(d + 5, self.u_s) + np.sqrt(_gamma(d + 5, _U))) * size
        return key, gold, err + self.alpha, ok, exact, size

    def fc(self, h, r, t):
        """``scores`` for the cosine of t' against every entity."""
        store, d = self.store, self.store.d_k
        t_prime = context_vector(store, self.table, h, r)
        gold = cosine_all(t_prime, store.entities[t]).astype(np.float64)

        def exact(rows, cols):
            return cosine_all(t_prime[rows],
                              store.entities[cols]).astype(np.float64)

        t64 = t_prime.astype(np.float64)
        t_norm = np.sqrt((t64 * t64).sum(axis=1))
        key = (t64 / t_norm[:, None]) @ self.e_unit.T
        ok = ((t_norm >= self.tiny) & (t_norm < self.big) & self.e_fit
              & (self.e_max < self.big) & np.isfinite(gold))
        err = (_gamma(3 * d + 5, self.u_s) + _gamma(3 * d + 6, _U)
               + self.alpha)
        return key, gold, err, ok, exact


def evaluate(store, kg, split="test", table=None, dist_index=None, lam=0.5,
             mode="fg-only", filter_index=None, threads=1, keep_ranks=False):
    """Rank every triple of a split once, in blocks of rows, then read the
    report from those ranks in split order.

    ``threads`` is accepted for older callers and unused: the blocks run
    in the calling thread, which ranked rand5k's combined-f queries as fast
    as two threads did.
    """
    triples = kg.split(split)
    if filter_index is None:
        filter_index = FilterIndex(kg)
    ranker = _BlockRanker(store, table, mode, lam, filter_index)
    report = EvalReport(n=len(triples))
    if not len(triples):
        return report
    ranked = [ranker.rank(triples[i:i + ranker.rows])
              for i in range(0, len(triples), ranker.rows)]
    ranks = np.concatenate([part for part, _ in ranked])
    report.rescored = sum(n for _, n in ranked)
    report.mrr = float((1.0 / ranks).mean())
    report.hits = {k: float((ranks <= k).mean()) for k in HITS_AT}
    classes = rmp_classify(kg)
    half = kg.n_relations // 2 if kg.reciprocal else kg.n_relations
    rel_names = kg.vocab.relation_names
    buckets = [None] * len(triples)
    if dist_index is not None:  # a pair at a cap < 4 may be farther
        dists = dist_index.distance(triples[:, 0], triples[:, 2]).tolist()
        buckets = [distance_bucket(d) if d < dist_index.cap or d >= 4 else None
                   for d in dists]
    for (h, r, t), rank, bucket in zip(triples.tolist(), ranks.tolist(),
                                       buckets):
        if bucket is not None:
            report.per_bucket.setdefault(bucket, Cell()).add(rank)
        report.per_relation.setdefault(rel_names[r], Cell()).add(rank)
        rmp = ("head" if r >= half else "tail", classes[r % half])
        report.per_rmp.setdefault(rmp, Cell()).add(rank)
        if keep_ranks:
            report.ranks.append(RankResult(h, r, t, rank, bucket))
    return report


# ---------------------------------------------------------------------------
# serialization


def report_lines(report):
    """report.tsv rows: (section, key, count, value), in SECTIONS order."""
    lines = [("overall", "MRR", report.n, report.mrr)]
    lines += [("overall", f"H@{k}", report.n, report.hits[k]) for k in HITS_AT]
    lines += [("distance", BUCKET_LABELS[b], c.count, c.mrr)
              for b, c in sorted(report.per_bucket.items())]
    lines += [("relation", name, c.count, c.mrr)
              for name, c in sorted(report.per_relation.items())]
    lines += [("rmp", f"{d}/{cls}", c.count, c.mrr)
              for (d, cls), c in sorted(report.per_rmp.items())]
    return lines


def write_report(report, path):
    with open(path, "w", encoding="utf-8") as handle:
        for section, key, count, value in report_lines(report):
            handle.write(f"{section}\t{key}\t{count}\t{value:.6f}\n")


def read_report(path):
    """Parse a report.tsv back into its rows."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            section, key, count, value = line.split("\t")
            rows.append((section, key, int(count), float(value)))
    return rows


def format_table(lines, section="overall", value_name="MRR"):
    """Aligned text table of one section of report rows, as given by
    ``report_lines`` or ``read_report``."""
    if section not in SECTIONS:
        raise ValueError(f"unknown report section {section!r}")
    rows = [line[1:] for line in lines if line[0] == section]
    if not rows:
        return f"({section}: no cells)"
    width = max(len(key) for key, _, _ in rows)
    out = [f"{'cell'.ljust(width)}  {'count':>8}  {value_name:>8}"]
    for key, count, value in rows:
        out.append(f"{key.ljust(width)}  {count:>8}  {value:>8.4f}")
    return "\n".join(out)


def write_ranks(results, path):
    """ranks.tsv: one line per test triple (h, r, t, rank, bucket)."""
    with open(path, "w", encoding="utf-8") as handle:
        for r in results:
            bucket = "" if r.bucket is None else BUCKET_LABELS[r.bucket]
            handle.write(f"{r.head}\t{r.relation}\t{r.tail}\t{r.rank:g}\t{bucket}\n")


def random_baseline(kg, filter_index=None):
    """Analytic mean and variance of MRR under random scoring.

    For a query with m kept candidates the rank is uniform on 1..m, so
    E[1/rank] = H_m / m and E[1/rank^2] = H2_m / m, with H and H2 the
    harmonic numbers of order 1 and 2. Queries are independent, so the MRR
    over the test set is normal-ish with the returned mean and variance
    (used for 3-sigma sanity bounds).
    """
    if filter_index is None:
        filter_index = FilterIndex(kg)
    n_ent, codes = filter_index.n_entities, filter_index.codes
    base = (kg.test[:, 0] * filter_index.n_relations + kg.test[:, 1]) * n_ent
    known = np.searchsorted(codes, base + n_ent) - np.searchsorted(codes, base)
    m = n_ent - known + 1
    k = np.arange(1.0, n_ent + 2)  # m <= |E| + 1
    mean = np.cumsum(1.0 / k)[m - 1] / m
    var = np.cumsum(1.0 / (k * k))[m - 1] / m - mean * mean
    return float(np.mean(mean)), float(np.sum(var) / len(m) ** 2)
