"""Command-line entry point.

Subcommands: preprocess, train, eval, report, sweep. Every run prints its
fully resolved configuration and cache hashes first, so two runs with equal
opening blocks are reproductions of each other.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .config import (CONFIG_KEYS, ConfigError, apply_values,
                     build_config, parse_config_file, parse_value)
from .data import DatasetError, augment_reciprocal, load_dataset
from .distances import CacheError, DistanceIndex, compute_distances, hash_file
from .evaluation import (EVAL_MODES, SECTIONS, evaluate, format_table,
                         read_report, report_lines, write_ranks, write_report)
from .models import check_fits, load_checkpoint
from .reference import ReferenceTable, select_references
from .sampling import PreSampler
from .training import check_resume, train

logger = logging.getLogger("vlpkg")


def cache_dir_for(dataset_dir):
    """Cache directory: the dataset dir, or $VLP_CACHE_DIR/<name>-<hash8>."""
    override = os.environ.get("VLP_CACHE_DIR")
    if not override:
        return Path(dataset_dir)
    abspath = os.path.abspath(dataset_dir)
    tag = hashlib.blake2b(abspath.encode(), digest_size=4).hexdigest()
    path = Path(override) / f"{os.path.basename(abspath)}-{tag}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def load_augmented(dataset_dir):
    kg = augment_reciprocal(load_dataset(dataset_dir))
    train_hash = hash_file(Path(dataset_dir) / "train.txt")
    return kg, train_hash


def ensure_cache(name, path, load, expect, build, lines, auto=True):
    """``load`` the cache at ``path`` if the header fields in ``expect``
    (attribute -> value) match; else ``build`` it and save it there. Appends
    the echo line ``(name, "<path> (hit)")`` or ``"(built, was <why>)"``."""
    if path.is_file():
        try:
            cache = load(path)
            if all(getattr(cache, key) == value
                   for key, value in expect.items()):
                lines.append((name, f"{path} (hit)"))
                return cache
            reason = "stale"
        except CacheError as exc:
            logger.warning("%s", exc)
            reason = "corrupt"
    else:
        reason = "missing"
    if not auto:
        raise CacheError(f"{path}: {reason} {name} and --no-auto given"
                         " (run `vlpkg preprocess` first)")
    logger.info("building %s (%s): %s", name, reason, path)
    cache = build()
    cache.save(path)
    lines.append((name, f"{path} (built, was {reason})"))
    return cache


def load_caches(cfg, kg, train_hash, refs, auto=True):
    """The distance index at ``cfg.cap`` and, with ``refs``, the reference
    table at (cap, N), each from the cache file named by its settings.

    Returns (index, table or None, echo lines)."""
    cache_dir = cache_dir_for(cfg.dataset)
    lines = []
    index = ensure_cache(
        "dist-cache", cache_dir / f"dist-c{cfg.cap}.vlpd", DistanceIndex.load,
        {"train_hash": train_hash, "cap": cfg.cap,
         "n_entities": kg.n_entities},
        lambda: compute_distances(kg, cap=cfg.cap, train_hash=train_hash),
        lines, auto)
    table = None
    if refs:
        table = ensure_cache(
            "refs-cache", cache_dir / f"refs-c{cfg.cap}-n{cfg.refs}.vlpr",
            ReferenceTable.load,
            {"train_hash": train_hash, "n_refs": cfg.refs, "cap": cfg.cap},
            lambda: select_references(kg, index, n_refs=cfg.refs,
                                      train_hash=train_hash), lines, auto)
    return index, table, lines


def norm_from_checkpoint(cfg, given, store):
    """A run on a checkpoint takes its TransE norm unless ``--norm`` or a
    config-file line (``given``, the keys set explicitly) names one."""
    if "norm" not in given:
        cfg.norm = store.norm


def echo_config(cfg, train_hash, lines, keys=None):
    print("# effective configuration")
    for key, value in cfg.to_items():
        if keys is None or key in keys:
            print(f"{key} = {value}")
    print("# caches")
    print(f"train-hash = {train_hash:#018x}")
    for name, value in lines:
        print(f"{name} = {value}")


# ---------------------------------------------------------------------------
# argument plumbing

def add_config_flags(parser, keys=None):
    """One ``--flag`` per config key (all keys when ``keys`` is None); the
    subset is kept as ``args.config_keys`` for resolve_config."""
    parser.set_defaults(config_keys=keys)
    for name in sorted(keys or CONFIG_KEYS):
        key = CONFIG_KEYS[name]
        if key.type is bool:
            parser.add_argument(f"--{key.name}", action="store_const",
                                const=True, help=key.help)
        else:
            parser.add_argument(f"--{key.name}", type=key.type,
                                choices=key.choices, help=key.help)


def cli_values(args):
    values = {}
    for key in args.config_keys or CONFIG_KEYS:
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            values[key] = value
    return values


def resolve_config(args):
    """The run's config, and the keys ``--config`` or a flag set. The
    ``config.txt`` beside the checkpoint read, if any, is the lowest layer."""
    run = getattr(args, "checkpoint", None) or getattr(args, "resume", None)
    run_config = Path(run).parent / "config.txt" if run else None
    run_values = (parse_config_file(run_config)
                  if run_config and run_config.is_file() else {})
    file_values = {}
    if getattr(args, "config", None):
        file_values = parse_config_file(args.config)
    values = cli_values(args)
    cfg = build_config({**run_values, **file_values}, values)
    if not cfg.dataset:
        raise ConfigError(["--dataset is required"])
    return cfg, set(file_values) | set(values)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vlpkg",
        description="Knowledge-graph completion with reference-aggregating "
                    "models and distance-aware negative sampling.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess",
                       help="build the distance and reference caches")
    add_config_flags(p, ["dataset", "cap", "refs"])
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="config file (key = value lines)")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--no-auto", action="store_true",
                   help="fail instead of building missing caches")
    add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=("combined",) + EVAL_MODES,
                   help="score used for ranking (default: the run's)")
    p.add_argument("--split", default="test",
                   choices=("test", "valid") + SECTIONS,
                   help="data split to evaluate, or a breakdown table to "
                        "print (breakdowns imply the test split)")
    p.add_argument("--dump-ranks", action="store_true",
                   help="also write ranks.tsv (h, r, t, rank, bucket)")
    p.add_argument("--no-auto", action="store_true")
    add_config_flags(p, ["dataset", "lambda", "refs", "cap", "norm", "out",
                         "threads"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="print tables from a report.tsv")
    p.add_argument("report", help="path to a report.tsv")
    p.add_argument("--section", default="all",
                   choices=SECTIONS + ("all",))
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="grid-search over config keys")
    p.add_argument("--config", help="base config file")
    p.add_argument("--grid", required=True,
                   help="grid file (key = v1,v2,... lines)")
    p.add_argument("--no-auto", action="store_true")
    add_config_flags(p)
    p.set_defaults(func=cmd_sweep)
    return parser


# ---------------------------------------------------------------------------
# commands


def red_mass(index, alpha0, kg):
    """A PreSampler and its echo line: the mean of its bucket weights over
    the train heads, the expected share of draws at each distance."""
    presampler = PreSampler(index, alpha0)
    mass = presampler.bucket_weights(kg.train[:, 0]).mean(axis=0)
    return presampler, ("red-mass", " ".join(f"{m:.6g}" for m in mass))


def cmd_preprocess(args):
    cfg, _ = resolve_config(args)
    kg, train_hash = load_augmented(cfg.dataset)
    index, _, lines = load_caches(cfg, kg, train_hash, refs=True)
    echo_config(cfg, train_hash, lines + [
        ("entities", kg.n_entities),
        ("relations", kg.n_relations),
        ("source-rows", index.n_entities),
        red_mass(index, cfg.sampler.alpha0, kg)[1],
    ], keys=args.config_keys)
    return 0


def _train_run(cfg, kg, train_hash, auto, echo=(), resume=None):
    """One training run into ``cfg.out``: load or build the caches it needs,
    echo its configuration with the extra ``echo`` lines, and train it from
    scratch or from ``resume``, a loaded checkpoint. Returns the
    TrainResult."""
    index = table = presampler = None
    lines = []
    if cfg.mode == "vlp" or cfg.sampler.pre_mode == "distance":
        index, table, lines = load_caches(cfg, kg, train_hash,
                                          refs=cfg.mode == "vlp", auto=auto)
    if cfg.sampler.pre_mode == "distance":
        presampler, line = red_mass(index, cfg.sampler.alpha0, kg)
        lines.append(line)
    echo_config(cfg, train_hash, lines + list(echo))
    return train(cfg, kg, table=table, presampler=presampler,
                 dist_index=index, out_dir=cfg.out, resume=resume,
                 train_hash=train_hash)


def cmd_train(args):
    cfg, given = resolve_config(args)
    kg, train_hash = load_augmented(cfg.dataset)
    resume = load_checkpoint(args.resume) if args.resume else None
    if resume is not None:  # checked before any cache is built
        store, _, _, ck_hash = resume
        norm_from_checkpoint(cfg, given, store)
        check_resume(cfg, store, ck_hash, kg, train_hash)
    result = _train_run(cfg, kg, train_hash, not args.no_auto, resume=resume)
    print(f"final checkpoint: {result.final_path}")
    if result.valid_report is not None:
        print(format_table(report_lines(result.valid_report)))
    return 0


def cmd_eval(args):
    cfg, given = resolve_config(args)
    mode = args.mode or cfg.eval_mode
    mode = "combined-f" if mode == "combined" else mode
    split = "valid" if args.split == "valid" else "test"
    section = args.split if args.split in SECTIONS else "overall"

    store, _, step, ck_hash = load_checkpoint(args.checkpoint)
    norm_from_checkpoint(cfg, given, store)
    if cfg.norm != store.norm:
        logger.warning("--norm %s overrides the checkpoint's norm %s",
                       cfg.norm, store.norm)
        store.norm = cfg.norm
    kg, train_hash = load_augmented(cfg.dataset)
    check_fits(store, ck_hash, kg, train_hash)

    index, table, lines = load_caches(
        cfg, kg, train_hash, refs=mode in ("combined-f", "fc-only"),
        auto=not args.no_auto)
    echo_config(cfg, train_hash, lines + [
        ("checkpoint", args.checkpoint),
        ("checkpoint-step", step),
        ("eval-mode", mode),
        ("split", split),
    ], keys=args.config_keys)

    report = evaluate(store, kg, split, table=table, dist_index=index,
                      lam=cfg.lam, mode=mode, keep_ranks=args.dump_ranks,
                      threads=cfg.threads)

    out_dir = Path(cfg.out if "out" in given else
                   os.path.dirname(os.path.abspath(args.checkpoint)))
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.tsv"
    write_report(report, report_path)
    print(f"report: {report_path}")
    candidates = report.n * kg.n_entities
    print(f"rescored: {report.rescored} of {candidates} candidates "
          f"({report.rescored / max(candidates, 1):.4%})")
    if args.dump_ranks:
        ranks_path = out_dir / "ranks.tsv"
        write_ranks(report.ranks, ranks_path)
        print(f"ranks: {ranks_path}")
    lines = report_lines(report)
    print(format_table(lines))
    if section != "overall":
        print()
        print(format_table(lines, section))
    return 0


def cmd_report(args):
    rows = read_report(args.report)
    sections = [args.section] if args.section != "all" else SECTIONS
    present = {row[0] for row in rows}
    print("\n\n".join(f"[{section}]\n" + format_table(rows, section, "value")
                      for section in sections if section in present))
    return 0


def parse_grid_file(path):
    """Grid file: config syntax where each value is a comma list."""
    return parse_config_file(path, parse=lambda key, text: [
        parse_value(key, v) for v in text.split(",") if v.strip()])


def cmd_sweep(args):
    base, _ = resolve_config(args)
    grid = parse_grid_file(args.grid)
    keys = sorted(grid)
    combos = list(itertools.product(*(grid[k] for k in keys)))
    print(f"# sweep over {keys}: {len(combos)} runs")
    configs = [apply_values(base, dict(zip(keys, combo))).validated()
               for combo in combos]  # every run is checked before the first

    os.makedirs(base.out, exist_ok=True)
    summary_path = Path(base.out) / "sweep.tsv"
    rows = []
    loaded = {}  # dataset dir -> (kg, train hash); a grid may vary dataset
    for i, (combo, cfg) in enumerate(zip(combos, configs)):
        values = dict(zip(keys, combo))
        cfg.out = str(Path(base.out) / f"sweep-{i:03d}")
        if cfg.dataset not in loaded:
            loaded[cfg.dataset] = load_augmented(cfg.dataset)
        kg, train_hash = loaded[cfg.dataset]
        result = _train_run(cfg, kg, train_hash, not args.no_auto,
                            echo=[("sweep-run", f"{i + 1}/{len(combos)}")])
        rows.append(list(combo) + [result.final_valid_mrr])
        print(f"run {i}: " + " ".join(f"{k}={v}" for k, v in values.items())
              + f" -> valid MRR {result.final_valid_mrr:.4f}")
    with open(summary_path, "w", encoding="utf-8") as handle:
        handle.writelines("\t".join(map(str, row)) + "\n"
                          for row in [keys + ["valid_mrr"]] + rows)
    print(f"summary: {summary_path}")
    return 0


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except (DatasetError, CacheError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
