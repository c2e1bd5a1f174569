"""Synthetic knowledge graphs for tests and demos.

Two families:

* ``random_graph`` draws uniform random triples; useful for exercising
  plumbing (loading, ranking, sampling statistics).
* ``compositional_graph`` builds clustered two-hop structure where held-out
  answers are copied verbatim by close neighbours, so reference aggregation
  has signal to exploit while plain triple scoring has to compose relations.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import KnowledgeGraph, Vocabulary


def write_dataset(directory, train, valid, test):
    """Write name triples to train.txt/valid.txt/test.txt under directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, triples in (("train.txt", train), ("valid.txt", valid), ("test.txt", test)):
        with open(directory / name, "w", encoding="utf-8") as handle:
            handle.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in triples)
    return directory


def kg_from_id_triples(n_entities, n_relations, train, valid=(), test=()):
    """Build a KnowledgeGraph directly from id triples (no files involved)."""
    vocab = Vocabulary.from_names([f"e{i:05d}" for i in range(n_entities)],
                                  [f"r{i:03d}" for i in range(n_relations)])
    return KnowledgeGraph(vocab, list(train), list(valid), list(test))


def random_graph(n_entities=20, n_relations=3, n_train=120, n_valid=15,
                 n_test=15, seed=0):
    """Uniform random triples, deduplicated across splits."""
    rng = np.random.default_rng(seed)
    seen = set()
    triples = []
    want = n_train + n_valid + n_test
    while len(triples) < want:
        h = int(rng.integers(n_entities))
        r = int(rng.integers(n_relations))
        t = int(rng.integers(n_entities))
        if h == t or (h, r, t) in seen:
            continue
        seen.add((h, r, t))
        triples.append((h, r, t))
    return kg_from_id_triples(n_entities, n_relations, triples[:n_train],
                              triples[n_train:n_train + n_valid],
                              triples[n_train + n_valid:])


def compositional_graph(n_clusters=25, cluster_size=5, seed=0):
    """Clustered graph with a planted rule r_hub(x,h) ∧ r_target(h,y) → r_rule(x,y).

    Each cluster has ``cluster_size`` chained member entities, one far member
    hanging off the chain, a hub and a target (8 entities per cluster; the
    default is 25 clusters = 200 entities). Chain members link to the hub
    (r_hub), the hub links to the target (r_target), and most members carry
    the rule edge (member, r_rule, target) in training. Held out per cluster:

    * the first chain member's rule edge -> test (head-tail distance 2)
    * the far member's rule edge -> test (distance 3: far-sibling-hub-target)
    * the second chain member's rule edge -> valid

    A held-out query's answer is exposed verbatim by training neighbours one
    or two hops away, so aggregating nearby reference answers can read it off
    while composing r_hub with r_target is the only route for plain triple
    scores.
    """
    rng = np.random.default_rng(seed)
    train, valid, test = [], [], []
    n_entities = n_clusters * (cluster_size + 3)
    ids = iter(range(n_entities))  # each cluster's members, far, hub, target
    for _ in range(n_clusters):
        members = [next(ids) for _ in range(cluster_size)]
        far, hub, target = next(ids), next(ids), next(ids)
        for i, m in enumerate(members):
            train.append((m, 0, hub))               # r_hub
            if i:
                train.append((members[i - 1], 2, m))  # r_sib chain
        train.append((far, 2, members[0]))          # far member: sibling only
        train.append((hub, 1, target))              # r_target
        test.append((members[0], 3, target))        # d_ht = 2
        test.append((far, 3, target))               # d_ht = 3
        valid.append((members[1], 3, target))
        for m in members[2:]:
            train.append((m, 3, target))            # r_rule kept in training
    # shuffle split orders; ingestion must not care
    for split in (train, valid, test):
        rng.shuffle(split)
    return kg_from_id_triples(n_entities, 4, train, valid, test)


def name_triples(kg, split):
    """Convert one split back to name triples (for writing to disk)."""
    ent = kg.vocab.entity_names
    rel = kg.vocab.relation_names
    return [(ent[h], rel[r], ent[t]) for h, r, t in kg.split(split)]
