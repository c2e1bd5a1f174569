"""Filtered ranking evaluation and report assembly.

Every (h, r) test query ranks all entities as candidate tails, removes
other known-true tails (filtered protocol), and scores the gold tail with
the average-tie rank 1 + #strictly-greater + #equal-others / 2. Reports
carry the overall metrics plus per-distance-bucket, per-relation and
per-mapping-property breakdowns; head-direction cells come from reciprocal
relation ids re-labeled with the base relation's class.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

from .data import FilterIndex, distance_bucket, rmp_classify
from .models import score_fg_all
from .reference import context_vector, cosine_all

EVAL_MODES = ("combined-f", "fg-only", "fc-only")

HITS_AT = (1, 3, 10)

BUCKET_LABELS = {1: "1", 2: "2", 3: "3", 4: ">=4"}

SECTIONS = ("overall", "distance", "relation", "rmp")  # of a report


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


def candidate_scores(store, h, r, mode, lam, table=None):
    """Score vector over all entities for one query, per evaluation mode.

    The combined mode adds the vectors in 64-bit so that any single entry
    equals the scalar f_c + lam * f_g computed in python floats.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
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


def evaluate(store, kg, split="test", table=None, dist_index=None, lam=0.5,
             mode="fg-only", filter_index=None, threads=1, keep_ranks=False):
    """Rank every triple of a split once, then read the report from those
    ranks in split order."""
    triples = kg.split(split)
    if filter_index is None:
        filter_index = FilterIndex(kg)

    def rank_rows(rows):  # (rank, distance bucket or None) per row
        out = []
        for h, r, t in triples[rows].tolist():
            scores = candidate_scores(store, h, r, mode, lam, table)
            rank = rank_from_scores(scores, t, filter_index.tails(h, r))
            bucket = None
            if dist_index is not None:
                d = dist_index.distance(h, t)
                if d < dist_index.cap or d >= 4:  # a pair at a cap < 4 may be farther
                    bucket = distance_bucket(d)
            out.append((rank, bucket))
        return out

    rows = np.arange(len(triples))
    if threads > 1 and len(rows) > 4 * threads:
        chunks = np.array_split(rows, 4 * threads)
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            ranked = [x for part in pool.map(rank_rows, chunks) for x in part]
    else:
        ranked = rank_rows(rows)

    report = EvalReport(n=len(ranked))
    if not ranked:
        return report
    ranks = np.array([rank for rank, _ in ranked])
    report.mrr = float((1.0 / ranks).mean())
    report.hits = {k: float((ranks <= k).mean()) for k in HITS_AT}
    classes = rmp_classify(kg)
    half = kg.n_relations // 2 if kg.reciprocal else kg.n_relations
    rel_names = kg.vocab.relation_names
    for (h, r, t), (rank, bucket) in zip(triples.tolist(), ranked):
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
