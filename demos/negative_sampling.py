"""How negatives get picked and how much each one ends up weighing.

Two independent stages:

pre-sampling   which entities are drawn as candidate corruptions. The
               distance-aware sampler prefers entities close to the head
               on the training graph (probability decays like
               exp(-alpha0 * hops)), instead of uniform draws that mostly
               land on unrelated far-away entities.

post-weights   how much each drawn negative contributes to the loss.
               Self-adversarial weighting is a softmax of the negative's
               own score, so the hardest negatives dominate. The
               relative-distance variant caps that: the weight rises with
               the score only up to the positive's score plus a margin
               tau, then falls again, because a "negative" scoring far
               above the positive is quite likely a true fact that the
               filter simply has not seen.
"""

import numpy as np

from vlpkg import PreSampler, compute_distances
from vlpkg.sampling import post_weights, selfadv_weights
from vlpkg.synth import random_graph

kg = random_graph(n_entities=200, n_relations=3, n_train=500, n_valid=0,
                  n_test=0, seed=8)
index = compute_distances(kg, cap=5)
source = 3

print("probability mass per hop distance from entity 3:")
print(f"{'alpha0':>7} " + " ".join(f"d={d:<2}" for d in range(6)))
for alpha0 in (0.5, 1.0, 2.0):
    sampler = PreSampler(index, alpha0)
    mass = sampler.bucket_weights(source)
    print(f"{alpha0:>7.1f} " + " ".join(f"{m:.2f}" for m in mass))

sampler = PreSampler(index, 1.0)
rng = np.random.default_rng(0)
draws = sampler.sample(source, 20_000, rng)
dists = index.distances_from(source)[draws]
counts = np.bincount(dists, minlength=6)
print(f"\n20000 draws landed at distances: {counts.tolist()} "
      "(matches the alpha0=1.0 row)")

# one positive with score c, negatives spread around c + tau
c, tau = np.array([2.0]), 1.0
neg_scores = np.array([[0.5, 1.5, 2.5, 3.0, 3.5, 4.5, 6.0]])
red = post_weights(c, neg_scores, alpha1=1.0, alpha2=1.0, tau=tau)[0]
adv = selfadv_weights(neg_scores, alpha1=1.0)[0]

print(f"\npositive score {c[0]:.1f}, margin tau {tau:.1f}:")
print(f"{'neg score':>10} {'rel-dist w':>11} {'self-adv w':>11}")
for s, wr, wa in zip(neg_scores[0], red, adv):
    marker = "  <- peak region" if abs(s - (c[0] + tau)) < 0.6 else ""
    print(f"{s:>10.1f} {wr:>11.3f} {wa:>11.3f}{marker}")
print("\nself-adversarial piles onto the 6.0 outlier; the relative-distance")
print("weights peak near c + tau and back off beyond it")
