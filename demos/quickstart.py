"""Smallest end-to-end run: synthesize a graph, train, look at the numbers.

Everything stays in memory; see cli_pipeline.sh for the on-disk version
with caches and report files.
"""

from vlpkg import (PreSampler, SamplerConfig, TrainConfig, augment_reciprocal,
                   compute_distances, evaluate, select_references, train)
from vlpkg.evaluation import format_table, random_baseline, report_lines
from vlpkg.synth import compositional_graph

# clustered graph with a planted two-hop rule, so there is actually
# something to learn (a uniform random graph would not be predictable)
kg = augment_reciprocal(compositional_graph(n_clusters=12, cluster_size=5,
                                            seed=1))
print(f"{kg.n_entities} entities, {kg.n_relations} relations "
      f"(reciprocals included), {len(kg.train)} training triples")

# hop distances on the training graph, then N reference answers per
# (head, relation) query drawn from the nearest training neighbours
dist = compute_distances(kg, cap=8)
table = select_references(kg, dist, n_refs=3)

cfg = TrainConfig(dataset="mem", model="rotate", mode="vlp", dim=32,
                  batch=128, lr=0.02, steps=1000, gamma=6.0, refs=3,
                  seed=0, eval_every=250,
                  sampler=SamplerConfig(mode="red", n_negatives=16))

result = train(cfg, kg, table=table,
               presampler=PreSampler(dist, cfg.sampler.alpha0),
               dist_index=dist)
print(f"finished at validation MRR {result.final_valid_mrr:.3f}")

# the combined score is f_c + lambda * f_g; the mixing weight is cheap to
# tune after training, so pick it on the validation split
best_mrr, lam = max(
    (evaluate(result.store, kg, "valid", table=table, dist_index=dist,
              lam=l, mode="combined-f").mrr, l)
    for l in (0.05, 0.1, 0.3, 0.5, 0.7))
print(f"picked lambda {lam} (valid MRR {best_mrr:.3f})")

report = evaluate(result.store, kg, "test", table=table, dist_index=dist,
                  lam=lam, mode="combined-f")
chance, _ = random_baseline(kg)
print(f"test MRR {report.mrr:.3f} vs {chance:.3f} for random scoring")
print()
lines = report_lines(report)
print(format_table(lines, section="overall"))
print()
print(format_table(lines, section="distance"))
