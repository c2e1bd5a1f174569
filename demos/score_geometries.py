"""Train each scoring geometry on the same graph with the same budget.

The four models share one interface (score a (head, relation, tail) id
triple) but put the relation in different algebraic roles: a translation,
a diagonal bilinear form, a complex bilinear form, or a pure phase
rotation. The test edges here are two-hop compositions of training
relations, which plays to models whose relation operation composes:
chaining two translations is a translation, chaining two rotations is a
rotation, but a product of bilinear forms is not bilinear in the same
sense, and the diagonal one cannot even tell edge direction apart.

Margin and learning rate are set per model (a short search; the dot
product scores live on a different scale than negated distances, so one
shared margin would be unfair to them).
"""

import time

from vlpkg import (PreSampler, SamplerConfig, TrainConfig, augment_reciprocal,
                   compute_distances, evaluate, train)
from vlpkg.synth import compositional_graph

SETTINGS = {
    "transe": (2.0, 0.05),
    "distmult": (2.0, 0.05),
    "complex": (0.5, 0.05),
    "rotate": (6.0, 0.02),
}

kg = augment_reciprocal(compositional_graph(n_clusters=12, cluster_size=5,
                                            seed=2))
dist = compute_distances(kg, cap=8)
presampler = PreSampler(dist, 1.0)

print(f"{'model':<10} {'gamma':>5} {'lr':>5} {'test MRR':>9} {'H@10':>6} "
      f"{'seconds':>8}")
for model, (gamma, lr) in SETTINGS.items():
    cfg = TrainConfig(dataset="mem", model=model, mode="hlp", dim=32,
                      batch=128, lr=lr, steps=800, gamma=gamma, seed=3,
                      eval_every=0,
                      sampler=SamplerConfig(mode="red", n_negatives=16))
    t0 = time.time()
    result = train(cfg, kg, presampler=presampler, dist_index=dist)
    report = evaluate(result.store, kg, "test", dist_index=dist,
                      mode="fg-only")
    print(f"{model:<10} {gamma:>5.1f} {lr:>5.2f} {report.mrr:>9.3f} "
          f"{report.hits[10]:>6.2f} {time.time() - t0:>8.1f}")
