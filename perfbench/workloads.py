"""The benchmark's workloads: which graph each one generates and how it
trains and evaluates. Why each was chosen is recorded in BENCHMARK.json.

Inputs are made from the workload seed only; the program under test sees
nothing but the dataset files written here. The training seed is part of
each workload's fixed configuration, so for a given input the trained model
(and comp-vlp's test MRR) is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from vlpkg.config import TrainConfig
from vlpkg.sampling import SamplerConfig
from vlpkg.synth import (compositional_graph, name_triples, random_graph,
                         write_dataset)

TRAIN_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str                 # "random" or "compositional"
    graph_args: dict
    config: dict               # TrainConfig fields; "negs" is the sampler's
    steps_per_round: int       # the fixed step budget of one training round
    setups_per_cycle: int      # a cycle is these set-ups, one training round
    evals_per_cycle: int       # and these evaluations of the test split
    oracle_queries: int        # test queries re-ranked by the scalar oracle
    min_mrr_sigmas: float = 0  # > 0: test MRR must beat chance by this many
    quality_guard: bool = False  # also check comp-vlp's model after timing
    quick_graph_args: dict = field(default_factory=dict)

    def train_config(self, quick=False):
        cfg = dict(self.config)
        negs = cfg.pop("negs")
        steps = self.steps_per_round if not quick else min(
            self.steps_per_round, QUICK_STEPS)
        return TrainConfig(
            sampler=SamplerConfig(mode="red", n_negatives=negs),
            steps=steps, eval_every=0, seed=TRAIN_SEED, **cfg).validated()

    def write_inputs(self, directory, seed, quick=False):
        """Generate this workload's graph from ``seed`` and write it to disk."""
        args = dict(self.graph_args)
        if quick:
            args.update(self.quick_graph_args)
        if self.graph == "random":
            kg = random_graph(seed=seed, **args)
        else:
            kg = compositional_graph(seed=seed, **args)
        write_dataset(directory, *(name_triples(kg, s)
                                   for s in ("train", "valid", "test")))
        return directory


# Toy sizes for the smoke test (``--quick``).
QUICK_STEPS = 3
_QUICK_RANDOM = dict(n_entities=300, n_relations=5, n_train=1200, n_valid=10,
                     n_test=20)

# The ROADMAP "Baseline" graph. 300 test triples become 600 ranked queries
# after reciprocal augmentation; 20 valid triples keep the validation pass
# that train() runs (and that the benchmark excludes) short.
_RAND5K = dict(n_entities=5000, n_relations=11, n_train=20000, n_valid=20,
               n_test=300)
_RAND5K_TRAIN = dict(model="rotate", dim=100, batch=512, negs=64, refs=8,
                     cap=4)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="rand5k-vlp",
            graph="random", graph_args=_RAND5K,
            config=dict(_RAND5K_TRAIN, mode="vlp", threads=2),
            steps_per_round=3, setups_per_cycle=1, evals_per_cycle=2,
            oracle_queries=2, quality_guard=True,
            quick_graph_args=_QUICK_RANDOM),
        Workload(
            name="rand5k-hlp",
            graph="random", graph_args=_RAND5K,
            config=dict(_RAND5K_TRAIN, mode="hlp", threads=1),
            steps_per_round=6, setups_per_cycle=1, evals_per_cycle=2,
            oracle_queries=6,
            quick_graph_args=_QUICK_RANDOM),
        # Not in BENCHMARK.json: its timings follow the host's CPU speed too
        # closely to meet any bound on a shared machine. It stays runnable,
        # and rand5k-vlp runs its model checks as a quality guard.
        Workload(
            name="comp-vlp",
            graph="compositional", graph_args={},
            config=dict(model="rotate", mode="vlp", dim=32, batch=128,
                        lr=0.02, negs=16, refs=3, cap=8, threads=1),
            steps_per_round=25, setups_per_cycle=5, evals_per_cycle=20,
            oracle_queries=20,
            min_mrr_sigmas=6.0),
    )
}
