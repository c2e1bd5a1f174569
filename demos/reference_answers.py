"""Reference answers on a graph with a planted composition rule.

Construction: clusters of sibling entities all point at a shared hub
(r000), the hub points at a target (r001), and most siblings carry the
shortcut edge (sibling, r003, target) in training. For a few held-out
siblings that shortcut is the test triple. A model scoring triples in
isolation has to learn that r000 composed with r001 implies r003. A model
that may also look at reference answers gets the target handed to it: the
nearest training queries with the same relation are the sibling
shortcuts, and their answers all name the right entity.

This script trains the same scoring model both ways under one budget and
prints the gap, which is large by design here. The same mechanism is what
the reference mode buys on real graphs, where the copies are noisier.
"""

import time

from vlpkg import (PreSampler, SamplerConfig, TrainConfig, augment_reciprocal,
                   compute_distances, evaluate, select_references, train)
from vlpkg.data import FilterIndex
from vlpkg.reference import gather_references
from vlpkg.synth import compositional_graph

kg = augment_reciprocal(compositional_graph(n_clusters=25, cluster_size=5,
                                            seed=0))
dist = compute_distances(kg, cap=8)
table = select_references(kg, dist, n_refs=3)
findex = FilterIndex(kg)

# what the table actually hands the model for one held-out query
h, r, t = (int(x) for x in kg.test[0])
print(f"test query: ({kg.vocab.entity_names[h]}, "
      f"{kg.vocab.relation_names[r]}, ?)   gold answer "
      f"{kg.vocab.entity_names[t]}")
print("references (nearest training queries with this relation):")
indptr, pairs = gather_references(table, [h], [r])
for h_i, t_i in pairs[indptr[0]:indptr[1]]:
    print(f"  ({kg.vocab.entity_names[h_i]}, ...) answered "
          f"{kg.vocab.entity_names[t_i]}, {dist.distance(h, h_i)} hops away")

results = {}
for mode in ("hlp", "vlp"):
    cfg = TrainConfig(dataset="mem", model="rotate", mode=mode, dim=32,
                      batch=128, lr=0.02, steps=1500, gamma=6.0, alpha=0.5,
                      refs=3, seed=7, eval_every=0,
                      sampler=SamplerConfig(mode="red", n_negatives=16))
    t0 = time.time()
    out = train(cfg, kg, table=table if mode == "vlp" else None,
                presampler=PreSampler(dist, cfg.sampler.alpha0),
                dist_index=dist)
    if mode == "vlp":
        # mixing weight for the combined score, picked on valid
        _, lam = max((evaluate(out.store, kg, "valid", table=table,
                               dist_index=dist, lam=l, mode="combined-f",
                               filter_index=findex).mrr, l)
                     for l in (0.1, 0.3, 0.5, 0.7, 0.9))
        rep = evaluate(out.store, kg, "test", table=table, dist_index=dist,
                       lam=lam, mode="combined-f", filter_index=findex)
    else:
        rep = evaluate(out.store, kg, "test", dist_index=dist,
                       mode="fg-only", filter_index=findex)
    results[mode] = rep
    print(f"\n{mode}: test MRR {rep.mrr:.3f} "
          f"(trained in {time.time() - t0:.0f}s)")
    for bucket in sorted(rep.per_bucket):
        cell = rep.per_bucket[bucket]
        print(f"  head-tail distance {bucket}: MRR {cell.mrr:.3f} "
              f"over {cell.count} queries")

gap = results["vlp"].mrr - results["hlp"].mrr
print(f"\nreference aggregation adds {gap:+.3f} MRR on this graph")
