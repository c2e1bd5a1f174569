"""Training is a pure function of (config, seed, data). Prove it.

Three runs on the same data: the same config twice, and once split into
two halves with a checkpoint restore in the middle. All three must end in
byte-for-byte identical checkpoints; a different seed must not. Every
random draw in the loop comes from a counter-keyed generator (seed,
purpose, step), so resuming at step k replays exactly the draws that the
uninterrupted run would have made from step k on.

A fourth check trains batches of 512 rows, two 256-row chunks, on one
thread and on two. A step splits its batch into the same chunks at any
thread count and merges their gradients in chunk order, so both runs end
in the same bytes.
"""

import tempfile
from pathlib import Path

from vlpkg import (PreSampler, SamplerConfig, TrainConfig, augment_reciprocal,
                   compute_distances, load_checkpoint, select_references,
                   train)
from vlpkg.synth import random_graph


def run(workdir, steps, seed, resume=None, batch=32, threads=1):
    cfg = TrainConfig(dataset="mem", model="complex", mode="vlp", dim=16,
                      batch=batch, lr=5e-3, steps=steps, gamma=4.0, refs=2,
                      seed=seed, eval_every=0, threads=threads,
                      sampler=SamplerConfig(mode="red", n_negatives=8))
    train(cfg, kg, table=table, presampler=presampler, dist_index=index,
          out_dir=workdir, resume=resume)
    return (workdir / "checkpoint.vlpc").read_bytes()


kg = augment_reciprocal(random_graph(n_entities=30, n_relations=3,
                                     n_train=300, n_valid=10, n_test=10,
                                     seed=4))
index = compute_distances(kg, cap=6)
table = select_references(kg, index, n_refs=2)
presampler = PreSampler(index, 1.0)

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    a = run(tmp / "a", steps=300, seed=12)
    b = run(tmp / "b", steps=300, seed=12)
    print(f"identical config, identical seed: "
          f"{'same bytes' if a == b else 'DIFFER'} ({len(a)} bytes)")

    run(tmp / "c", steps=150, seed=12)
    c = run(tmp / "c", steps=300, seed=12,
            resume=load_checkpoint(tmp / "c" / "checkpoint.vlpc"))
    print(f"interrupted at 150 and resumed:    "
          f"{'same bytes' if a == c else 'DIFFER'}")

    d = run(tmp / "d", steps=300, seed=13)
    print(f"different seed:                    "
          f"{'DIFFER as expected' if a != d else 'same bytes?!'}")

    # 600 train triples: batches of 512 (two chunks) and of 88 (one)
    one = run(tmp / "e", steps=20, seed=12, batch=512, threads=1)
    two = run(tmp / "f", steps=20, seed=12, batch=512, threads=2)
    print(f"batch 512 on 1 and on 2 threads:   "
          f"{'same bytes' if one == two else 'DIFFER'}")

if a != b or a != c or a == d or one != two:
    raise SystemExit("reproducibility check failed")
