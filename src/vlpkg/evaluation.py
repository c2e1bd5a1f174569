"""Filtered ranking evaluation and report assembly.

Every (h, r) test query ranks all entities as candidate tails, removes
other known-true tails (filtered protocol), and scores the gold tail with
the average-tie rank 1 + #strictly-greater + #equal-others / 2; a NaN gold
score ranks last, 1 + #others. Reports carry the overall metrics plus
per-distance-bucket, per-relation and per-mapping-property breakdowns;
head-direction cells come from reciprocal relation ids re-labeled with the
base relation's class.

``candidate_scores`` + ``rank_from_scores`` are the rank oracle.
``evaluate`` ranks a split in blocks of rows instead, and every rank it
gives equals the oracle's bit for bit:

* A block's t' is one ``context_vector`` call on its rows. t' is a pure
  function of (store, table, h, r), the same bits alone or in any block
  (``aggregate_batch`` is row-stable), so each row is the oracle's t'.
* The gold score comes from the elementwise kernels (``pair_scores``,
  ``cosine_all``), so it is the oracle's entry.
* One GEMM in the store's dtype keys every candidate of a block: Q E^T
  for the dot models, Y = 2 Q E^T - |e|^2 = |q|^2 - D^2 for the l2
  distances, unit t' rows against unit entity rows for the cosine, and
  ``score_fg_all``'s exact rows for TransE-l1. Combined-f keys are
  fc + lam fg, with fg = -sqrt(max(|q|^2 - Y, 0)) for the distances.
* Each key is within a rigorous bound of the oracle, from gamma_n = n u /
  (1 - n u) (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1)
  over the width d; u is the roundoff of the store's dtype, in which both
  round (float64's covers norms and bounds). Dot keys: 2 gamma_{d+4} |q|
  max|e| (Cauchy-Schwarz); cosine keys: 2 gamma_{3d+10}. For the l2 models
  |q|^2 - Y is within delta = gamma_{d+7} m^2 of D^2, m = |q| + max|e|,
  and the oracle's distance within eps D + a of D, eps = gamma_{d+5}: with
  S the gold's distance, D < (S - a) / (1 + eps) is surely greater and
  D > (S + a) / (1 - eps) surely lower, two thresholds on Y per row.
  Combined-f adds |lam| times fg's bound (eps m + a + sqrt(delta), as
  |sqrt(D^2 + x) - D| <= sqrt(|x|)) and 6 u (1 + |lam| max|fg|) for the
  casts and sums. a = 4 d sqrt(smallest subnormal), and a^2 in delta,
  cover underflow.
* Bounds are rounded outward into the store's dtype (``nextafter``), so no
  (rows x entities) comparison leaves it. A candidate above its row's band
  counts as greater, one below as lower; for combined-f on the distances,
  delta / sqrt(|q|^2 - Y) first tightens each entry in the band. Each one
  still inside is rescored with the elementwise kernel and compared
  exactly; ``EvalReport.rescored`` counts them.
* A query whose gold score is not finite, whose inputs are not finite or
  large enough to overflow the store's dtype, or (for the cosine) whose t'
  or some entity row is near but not at zero, is ranked through
  ``candidate_scores`` and ``rank_from_scores``. A zero entity row's
  cosines are exactly 0 in both paths.

The known tails of a block come from one ``FilterIndex.spans`` call, one
``searchsorted``. A block's row count keeps its (rows x entities) arrays
within ``_BLOCK_BYTES``. ``evaluate(threads=k)`` splits its n triples into
min(n, k' ceil(n / (k' rows))) balanced blocks, k' = min(k, n), and ranks
them on k' worker threads (in the calling thread at k' = 1), so at most k'
blocks are live. Every rank is the oracle's whatever the partition, so the
ranks and the report, read in split order, do not depend on k.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import RMP_CLASSES, FilterIndex, ranges, rmp_classify
from .models import (ModelKind, is_distance_kind, pair_scores, query_batch,
                     score_fg_all)
from .reference import context_vector, cosine_all

EVAL_MODES = ("combined-f", "fg-only", "fc-only")

HITS_AT = (1, 3, 10)

BUCKET_LABELS = {1: "1", 2: "2", 3: "3", 4: ">=4"}

SECTIONS = ("overall", "distance", "relation", "rmp")  # of a report

_BLOCK_BYTES = 16 << 20  # a block's keys and masks, at 16 bytes per entry
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
    """Average-tie filtered rank of the gold tail; a NaN gold ranks last."""
    gold_score = scores[gold]
    keep = np.ones(len(scores), dtype=bool)
    keep[known_tails] = False
    keep[gold] = True
    kept = scores[keep]
    if np.isnan(gold_score):  # equal to nothing, not even itself
        return float(len(kept))
    greater = int((kept > gold_score).sum())
    ties = int((kept == gold_score).sum()) - 1  # the gold itself ties trivially
    return 1.0 + greater + 0.5 * ties


def _gamma(n, u):
    return n * u / (1.0 - n * u)


class _BlockRanker:
    """Ranks blocks of query rows for one ``evaluate`` call, which makes
    the entity table's norms (and unit rows) once for all of its blocks."""

    def __init__(self, store, table, mode, lam, filter_index):
        _check_mode(mode)
        self.store, self.table, self.mode, self.lam = store, table, mode, lam
        self.filter = filter_index
        info = np.finfo(store.dtype)
        d = store.d_k
        self.u = float(info.eps) / 2
        self.eps = _gamma(d + 5, self.u)  # the oracle's relative D error
        self.big = np.sqrt(float(info.max)) / (2 * d)  # m^2 never overflows
        self.tiny = float(info.smallest_subnormal) ** 0.25
        self.alpha = 4 * d * np.sqrt(float(info.smallest_subnormal))
        self.rows = max(1, _BLOCK_BYTES // (16 * store.n_entities))
        e = store.entities
        e_sq = np.einsum("ij,ij->i", e, e, dtype=float)  # no float64 copy
        self.e_sq = e_sq.astype(store.dtype)
        norms = np.sqrt(e_sq)
        self.e_max = norms.max(initial=0.0)
        if mode != "fg-only":
            self.e_fit = np.all((norms == 0) | (norms >= self.tiny))
            nk = norms.astype(store.dtype)[:, None]  # in the keys' dtype
            self.e_unit = np.divide(e, nk, where=nk > 0, out=np.zeros_like(e))

    def rank(self, triples):
        """(ranks, rescored candidates) of a block of (h, r, t) rows."""
        h, r, t = triples.T
        b = len(triples)
        with np.errstate(all="ignore"):  # non-finite rows fall back below
            key, lo, hi, gold, ok, exact, tighten = self.scores(h, r, t)
            lo = np.nextafter(lo.astype(key.dtype), -np.inf)  # outward, so
            hi = np.nextafter(hi.astype(key.dtype), np.inf)  # no pass casts
            keep = self.keep_mask(h, r, t)
            keep[~ok] = False
            keep &= key >= lo[:, None]  # the rest are lower
            rows, cols = np.divmod(  # 2-D np.nonzero is ten times slower
                np.flatnonzero(keep & (key <= hi[:, None])), key.shape[1])
            greater = (keep.sum(axis=1, dtype=np.int32)
                       - np.bincount(rows, minlength=b))
            if tighten is not None:
                fast, err = key[rows, cols], tighten(rows, cols)
                above = fast > gold[rows] + err
                greater = greater + np.bincount(rows, above, minlength=b)
                inside = ~above & (fast >= gold[rows] - err)
                rows, cols = rows[inside], cols[inside]
        scores, at = exact(rows, cols), gold[rows]
        greater = greater + np.bincount(rows, scores > at, minlength=b)
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
        base, lo, hi = self.filter.spans(h, r)
        rows = np.repeat(np.arange(len(h)), hi - lo)
        keep = np.ones((len(h), self.filter.n_entities), dtype=bool)
        keep[rows, self.filter.codes[ranges(lo, hi - lo)] - base[rows]] = False
        keep[np.arange(len(h)), t] = False
        return keep

    def scores(self, h, r, t):
        """(key (B, n), lo, hi, gold, ok (B,), exact, tighten or None): keys
        below lo are surely lower than the gold, keys above hi surely greater,
        and tighten(rows, cols) bounds |key - oracle| at entries between."""
        lam, tighten = self.lam, None
        if self.mode == "fg-only":
            key, gold, err, ok, exact, _, q_sq = self.fg(h, r, t)
            if q_sq is None:
                return key, gold - err, gold + err, gold, ok, exact, None
            near = np.maximum(-gold - self.alpha, 0.0) / (1 + self.eps)
            far = (self.alpha - gold) / (1 - self.eps)
            return (key, q_sq - far * far - err, q_sq - near * near + err,
                    gold, ok, exact, None)
        key, gold, err, ok, exact = self.fc(h, r, t)
        if self.mode == "combined-f":
            fg, gold_g, err_g, ok_g, exact_g, size, q_sq = self.fg(h, r, t)
            exact_c, lam_k = exact, key.dtype.type(lam)
            gold = gold + lam * gold_g
            ok = ok & ok_g & (abs(lam) * size < self.big)
            err = err + 6 * self.u * (1.0 + abs(lam) * size)

            def exact(rows, cols):
                return exact_c(rows, cols) + lam * exact_g(rows, cols)

            if q_sq is None:
                key += np.multiply(fg, lam_k, out=fg)
                err = err + abs(lam) * err_g
            else:  # fg holds Y; g = sqrt(max(K, 0))
                g = np.subtract(q_sq.astype(key.dtype)[:, None], fg, out=fg)
                np.sqrt(np.maximum(g, 0, out=g), out=g)
                key -= lam_k * g
                base = err + abs(lam) * (self.eps * size + self.alpha)
                root = np.sqrt(err_g)

                def tighten(rows, cols):
                    fit = err_g[rows] * (1 + self.u) / g[rows, cols]
                    return base[rows] + abs(lam) * np.minimum(root[rows], fit)

                err = base + abs(lam) * root
        return key, gold - err, gold + err, gold, ok, exact, tighten

    def fg(self, h, r, t):
        """``scores``' parts for f_g, plus size >= |f_g| and, for the l2
        models, |q|^2 (else None); their bound is delta (module docstring)."""
        store, d, u = self.store, self.store.d_k, self.u
        q = query_batch(store, h, r)
        gold = pair_scores(store, q, store.entities[t]).astype(np.float64)

        def exact(rows, cols):
            return pair_scores(store, q[rows],
                               store.entities[cols]).astype(np.float64)

        q_sq = np.einsum("ij,ij->i", q, q, dtype=float)
        q_norm = np.sqrt(q_sq)
        ok = (q_norm < self.big) & (self.e_max < self.big) & np.isfinite(gold)
        if not is_distance_kind(store.kind):
            size = q_norm * self.e_max
            err = 2 * _gamma(d + 4, u) * size + self.alpha
            return q @ store.entities.T, gold, err, ok, exact, size, None
        if store.kind == ModelKind.TRANSE and store.norm == "l1":
            key = np.stack([score_fg_all(store, a, b) for a, b in zip(h, r)])
            size = np.sqrt(d) * (q_norm + self.e_max)
            return key, gold, self.alpha, ok, exact, size, None
        size = q_norm + self.e_max
        key = (2 * q) @ store.entities.T
        key -= self.e_sq
        err = (_gamma(d + 7, u) + _gamma(d + 10, _U)) * size * size
        return key, gold, err + self.alpha ** 2, ok, exact, size, q_sq

    def fc(self, h, r, t):
        """``scores``' parts for the cosine of t' against every entity."""
        store, d, u = self.store, self.store.d_k, self.u
        t_prime = context_vector(store, self.table, h, r)
        gold = cosine_all(t_prime, store.entities[t]).astype(np.float64)

        def exact(rows, cols):
            return cosine_all(t_prime[rows],
                              store.entities[cols]).astype(np.float64)

        t_norm = np.sqrt(np.einsum("ij,ij->i", t_prime, t_prime,
                                   dtype=float))
        key = (t_prime / t_norm.astype(store.dtype)[:, None]) @ self.e_unit.T
        ok = ((t_norm >= self.tiny) & (t_norm < self.big) & self.e_fit
              & (self.e_max < self.big) & np.isfinite(gold))
        return key, gold, 2 * _gamma(3 * d + 10, u) + self.alpha, ok, exact


def evaluate(store, kg, split="test", table=None, dist_index=None, lam=0.5,
             mode="fg-only", filter_index=None, threads=1, keep_ranks=False):
    """Rank every triple of a split once, in blocks of rows, then read the
    report from those ranks in split order. The blocks run on ``threads``
    worker threads (module docstring).
    """
    if not isinstance(threads, int) or threads < 1:
        raise ValueError(f"threads must be an int >= 1, got {threads!r}")
    triples = kg.split(split)
    if filter_index is None:
        filter_index = FilterIndex(kg)
    ranker = _BlockRanker(store, table, mode, lam, filter_index)
    report = EvalReport(n=len(triples))
    if not len(triples):
        return report
    n, k = len(triples), min(threads, len(triples))
    blocks = np.array_split(triples, min(n, k * -(-n // (k * ranker.rows))))
    if k > 1:
        with ThreadPoolExecutor(k) as pool:
            ranked = list(pool.map(ranker.rank, blocks))
    else:
        ranked = list(map(ranker.rank, blocks))
    ranks = np.concatenate([part for part, _ in ranked])
    report.rescored = sum(count for _, count in ranked)
    inv = 1.0 / ranks  # a weighted bincount adds in row order, as Cell.add
    report.mrr = float(inv.mean())
    report.hits = {k: float((ranks <= k).mean()) for k in HITS_AT}
    half = kg.n_relations // 2 if kg.reciprocal else kg.n_relations
    h, r, t = triples.T
    bucket = np.zeros(len(triples), dtype=np.int64)  # 0: no bucket
    if dist_index is not None:  # a pair at a cap < 4 may be farther
        d = dist_index.distance(h, t)
        bucket = np.where((d < dist_index.cap) | (d >= 4), np.clip(d, 1, 4), 0)
    rmp = [RMP_CLASSES.index(c) for c in rmp_classify(kg).values()]
    report.per_bucket = _cells(bucket, inv, (None, *BUCKET_LABELS))
    report.per_relation = _cells(r, inv, kg.vocab.relation_names)
    report.per_rmp = _cells(4 * (r >= half) + np.take(rmp, r % half), inv,
                            [(side, cls) for side in ("tail", "head")
                             for cls in RMP_CLASSES])
    if keep_ranks:
        report.ranks = [RankResult(*row, rank, b or None) for row, rank, b in
                        zip(triples.tolist(), ranks.tolist(), bucket.tolist())]
    return report


def _cells(codes, inv, keys):
    """{keys[c]: Cell} of each code c that occurs (keys[c] not None)."""
    count, sums = (np.bincount(codes, w, len(keys)).tolist()
                   for w in (None, inv))
    return {key: Cell(count[c], sums[c]) for c, key in enumerate(keys)
            if count[c] and key is not None}


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
    n_ent = filter_index.n_entities
    _, lo, hi = filter_index.spans(kg.test[:, 0], kg.test[:, 1])
    m = n_ent - (hi - lo) + 1
    k = np.arange(1.0, n_ent + 2)  # m <= |E| + 1
    mean = np.cumsum(1.0 / k)[m - 1] / m
    var = np.cumsum(1.0 / (k * k))[m - 1] / m - mean * mean
    return float(np.mean(mean)), float(np.sum(var) / len(m) ** 2)
