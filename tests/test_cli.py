import struct

import numpy as np
import pytest

import vlpkg.cli
import vlpkg.evaluation
import vlpkg.models
import vlpkg.training
from vlpkg.cli import build_parser, cache_dir_for, main, parse_grid_file
from vlpkg.config import ConfigError
from vlpkg.distances import DistanceIndex, compute_distances
from vlpkg.models import load_checkpoint
from vlpkg.reference import ReferenceTable
from vlpkg.sampling import PreSampler
from vlpkg.synth import compositional_graph, name_triples, write_dataset


@pytest.fixture()
def dataset(tmp_path):
    kg = compositional_graph(n_clusters=5, cluster_size=5, seed=1)
    return write_dataset(tmp_path / "ds", *(name_triples(kg, s)
                                            for s in ("train", "valid",
                                                      "test")))


FAST = ["--dim", "8", "--batch", "16", "--steps", "12", "--lr", "0.05",
        "--negs", "4", "--refs", "2", "--cap", "4", "--eval-every", "0"]

# the cache files at the default cap and N
DIST = "dist-c8.vlpd"
REFS = "refs-c8-n8.vlpr"


def _cache_lines(out):
    return [line for line in out.splitlines()
            if line.startswith(("dist-cache", "refs-cache"))]


def test_preprocess_builds_then_hits_cache(dataset, capsys):
    assert main(["preprocess", "--dataset", str(dataset)]) == 0
    out = capsys.readouterr().out
    assert "dist-cache" in out and "built, was missing" in out
    assert (dataset / DIST).is_file()
    assert (dataset / REFS).is_file()

    assert main(["preprocess", "--dataset", str(dataset)]) == 0
    out = capsys.readouterr().out
    assert out.count("(hit)") == 2


def test_preprocess_keeps_one_cache_per_cap(dataset, capsys):
    for cap, state in [("4", "built, was missing"), ("5", "built, was missing"),
                       ("4", "hit")]:
        assert main(["preprocess", "--dataset", str(dataset),
                     "--cap", cap]) == 0
        lines = _cache_lines(capsys.readouterr().out)
        assert len(lines) == 2
        assert all(line.endswith(f"({state})") for line in lines)
    for cap in "45":
        assert (dataset / f"dist-c{cap}.vlpd").is_file()
        assert (dataset / f"refs-c{cap}-n8.vlpr").is_file()


def test_preprocess_recovers_from_corrupt_cache(dataset, capsys):
    main(["preprocess", "--dataset", str(dataset)])
    capsys.readouterr()
    (dataset / DIST).write_bytes(b"garbage")
    assert main(["preprocess", "--dataset", str(dataset)]) == 0
    out = capsys.readouterr().out
    assert "built, was corrupt" in out
    # the rebuilt distances equal the old ones, so the references still hold
    refs = next(line for line in out.splitlines()
                if line.startswith("refs-cache"))
    assert refs.endswith("(hit)")


def _format1_distances(path):
    index = DistanceIndex.load(path)
    # format 1: the header, then per row a pair count and (id, distance) pairs
    blob = [b"VLPD", struct.pack("<IIQQ", 1, index.cap, index.n_entities,
                                 index.train_hash)]
    for source in range(index.n_entities):
        ids, dists = index.row(source)
        blob.append(struct.pack("<I", len(ids)))
        blob.extend(struct.pack("<IB", i, d) for i, d in zip(ids, dists))
    return b"".join(blob)


def _format2_references(path):
    table = ReferenceTable.load(path)
    # format 2: the header, then per key (h, r, count) and the pairs
    blob = [struct.pack("<4sIIIQQ", b"VLPR", 2, table.n_refs, table.cap,
                        len(table.entries), table.train_hash)]
    for (h, r), arr in sorted(table.entries.items()):
        blob.append(struct.pack("<IIB", h, r, len(arr)))
        blob.append(arr.astype("<u4").tobytes())
    return b"".join(blob)


@pytest.mark.parametrize("name, echo, old_format", [
    (DIST, "dist-cache", _format1_distances),
    (REFS, "refs-cache", _format2_references),
], ids=[DIST, REFS])
def test_preprocess_rebuilds_an_old_format_cache(dataset, capsys, name, echo,
                                                 old_format):
    main(["preprocess", "--dataset", str(dataset)])
    capsys.readouterr()
    path = dataset / name
    fresh = path.read_bytes()
    path.write_bytes(old_format(path))
    assert main(["preprocess", "--dataset", str(dataset)]) == 0
    lines = dict(line.split(" = ", 1)
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith(("dist-cache", "refs-cache")))
    assert lines.pop(echo).endswith("(built, was corrupt)")
    # the other cache is still valid
    assert all(line.endswith("(hit)") for line in lines.values())
    assert path.read_bytes() == fresh


def _format2_distances(index):
    # format 2: the header, then row offsets, ids and one distance per pair
    ids, dists = zip(*(index.row(s) for s in range(index.n_entities)))
    return b"".join([
        b"VLPD", struct.pack("<IIQQQ", 2, index.cap, index.n_entities,
                             index.train_hash, len(index.ids)),
        index.indptr.astype("<i8").tobytes(),
        np.concatenate(ids).astype("<u4").tobytes(),
        np.concatenate(dists).astype("u1").tobytes()])


def test_a_format2_distance_cache_is_rebuilt_and_its_references_kept(
        dataset, capsys, caplog):
    run = ["preprocess", "--dataset", str(dataset), "--cap", "4"]
    assert main(run) == 0
    dist, refs = dataset / "dist-c4.vlpd", dataset / "refs-c4-n8.vlpr"
    fresh, table = dist.read_bytes(), refs.read_bytes()
    dist.write_bytes(_format2_distances(DistanceIndex.load(dist)))
    capsys.readouterr()
    assert main(run) == 0
    lines = dict(line.split(" = ", 1)
                 for line in _cache_lines(capsys.readouterr().out))
    assert lines == {"dist-cache": f"{dist} (built, was corrupt)",
                     "refs-cache": f"{refs} (hit)"}
    assert any(f"{dist}: unsupported distance cache version 2" in record.message
               for record in caplog.records)
    assert struct.unpack_from("<I", dist.read_bytes(), 4) == (3,)
    assert dist.read_bytes() == fresh and refs.read_bytes() == table
    DistanceIndex.load(dist)


def test_reference_cache_is_stale_after_a_cap_change(dataset, capsys):
    # files copied from cap 3 to the cap-5 names: their headers disagree
    # with their names, so they are rebuilt, not reused
    run = ["preprocess", "--dataset", str(dataset), "--refs", "2"]
    assert main(run + ["--cap", "3"]) == 0
    for old, new in [("dist-c3.vlpd", "dist-c5.vlpd"),
                     ("refs-c3-n2.vlpr", "refs-c5-n2.vlpr")]:
        (dataset / new).write_bytes((dataset / old).read_bytes())
    capsys.readouterr()
    assert main(run + ["--cap", "5"]) == 0
    lines = _cache_lines(capsys.readouterr().out)
    assert len(lines) == 2
    assert all(line.endswith("(built, was stale)") for line in lines)
    assert ReferenceTable.load(dataset / "refs-c5-n2.vlpr").cap == 5
    assert DistanceIndex.load(dataset / "dist-c5.vlpd").cap == 5


def test_caches_are_stale_when_the_training_file_changes(dataset, capsys):
    assert main(["preprocess", "--dataset", str(dataset)]) == 0
    train_txt = dataset / "train.txt"
    # the same triples in another order: same graph, another train hash
    train_txt.write_text("".join(reversed(
        train_txt.read_text().splitlines(keepends=True))))
    capsys.readouterr()
    assert main(["preprocess", "--dataset", str(dataset)]) == 0
    lines = _cache_lines(capsys.readouterr().out)
    assert len(lines) == 2
    assert all(line.endswith("(built, was stale)") for line in lines)


def test_caches_of_another_train_hash_are_rebuilt_once(dataset, capsys):
    # as a cache hashed before the switch to BLAKE2b reads after it
    assert main(["preprocess", "--dataset", str(dataset)]) == 0
    for name, cache in [(DIST, DistanceIndex), (REFS, ReferenceTable)]:
        old = cache.load(dataset / name)
        old.train_hash ^= 1
        old.save(dataset / name)
    capsys.readouterr()
    for state in ("built, was stale", "hit"):
        assert main(["preprocess", "--dataset", str(dataset)]) == 0
        lines = _cache_lines(capsys.readouterr().out)
        assert len(lines) == 2
        assert all(line.endswith(f"({state})") for line in lines)


def test_train_writes_artifacts_and_echoes_config(dataset, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["train", "--dataset", str(dataset), "--out", str(out_dir),
                 "--model", "distmult", "--mode", "vlp"] + FAST)
    assert code == 0
    out = capsys.readouterr().out
    assert "# effective configuration" in out
    assert "model = distmult" in out
    assert "train-hash = 0x" in out
    assert "final checkpoint:" in out
    assert (out_dir / "checkpoint.vlpc").is_file()
    assert (out_dir / "config.txt").is_file()
    text = (out_dir / "config.txt").read_text()
    assert "dim = 8" in text


def test_train_validates_once_and_prints_that_report(dataset, tmp_path,
                                                    capsys, monkeypatch):
    calls = []
    inner = vlpkg.evaluation.evaluate

    def counting(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs.get("split"))
        return inner(*args, **kwargs)

    monkeypatch.setattr(vlpkg.evaluation, "evaluate", counting)
    monkeypatch.setattr(vlpkg.cli, "evaluate", counting)
    assert main(["train", "--dataset", str(dataset), "--mode", "hlp",
                 "--out", str(tmp_path / "run")] + FAST) == 0
    assert calls == ["valid"]
    assert "H@10" in capsys.readouterr().out


def test_train_echoes_the_expected_red_mass_when_pre_sampling(dataset,
                                                              tmp_path,
                                                              capsys):
    """``red-mass`` is p_0's mass at each distance 0..cap, averaged over the
    train triples' heads: here summed from the dense p_0 oracle per head."""
    assert main(["train", "--dataset", str(dataset), "--mode", "hlp",
                 "--out", str(tmp_path / "run")] + FAST) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("red-mass = ")]
    assert len(lines) == 1
    got = np.array(lines[0].split(" = ")[1].split(), dtype=float)
    kg, _ = vlpkg.cli.load_augmented(dataset)
    index = compute_distances(kg, cap=4)
    pre = PreSampler(index, 1.0)
    want = sum(np.bincount(index.distances_from(h), pre.probabilities(h),
                           minlength=5) for h in kg.train[:, 0].tolist())
    np.testing.assert_allclose(got, want / len(kg.train), rtol=1e-5)
    assert main(["train", "--dataset", str(dataset), "--mode", "hlp",
                 "--no-pre", "--out", str(tmp_path / "run")] + FAST) == 0
    assert "red-mass" not in capsys.readouterr().out


def test_train_and_eval_with_empty_valid_split(tmp_path, capsys):
    kg = compositional_graph(n_clusters=5, cluster_size=5, seed=1)
    ds = write_dataset(tmp_path / "ds", name_triples(kg, "train"), [],
                       name_triples(kg, "test"))
    out_dir = tmp_path / "run"
    assert main(["train", "--dataset", str(ds), "--out", str(out_dir),
                 "--mode", "hlp"] + FAST) == 0
    assert (out_dir / "checkpoint.vlpc").is_file()
    assert "H@10" not in capsys.readouterr().out
    assert main(["eval", "--dataset", str(ds), "--split", "valid",
                 "--mode", "fg-only", "--cap", "4",
                 "--checkpoint", str(out_dir / "checkpoint.vlpc")]) == 0
    report = (out_dir / "report.tsv").read_text()
    assert "overall\tMRR\t0\tnan" in report
    assert "overall\tH@10\t0\tnan" in report


def test_train_no_auto_requires_preprocess(dataset, tmp_path, capsys):
    code = main(["train", "--dataset", str(dataset), "--no-auto",
                 "--out", str(tmp_path / "r")] + FAST)
    assert code == 1
    err = capsys.readouterr().err
    assert "preprocess" in err


def test_train_rejects_bad_flags_with_all_problems(dataset, tmp_path, capsys):
    code = main(["train", "--dataset", str(dataset), "--dim", "0",
                 "--gamma", "-3", "--out", str(tmp_path / "r")])
    assert code == 1
    err = capsys.readouterr().err
    assert "dim must be >= 1" in err
    assert "gamma must be > 0" in err


def test_config_file_plus_flag_precedence(dataset, tmp_path, capsys):
    cfg_file = tmp_path / "base.cfg"
    cfg_file.write_text("model = transe\ndim = 8\nbatch = 16\nsteps = 6\n"
                        "lr = 0.05\nnegs = 4\nrefs = 2\ncap = 4\n"
                        "eval-every = 0\nmode = hlp\n")
    out_dir = tmp_path / "run"
    code = main(["train", "--dataset", str(dataset), "--config",
                 str(cfg_file), "--model", "rotate", "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "model = rotate" in out   # flag beat the file
    assert "mode = hlp" in out       # file beat the default


def test_eval_reports_and_dumps_ranks(dataset, tmp_path, capsys):
    out_dir = tmp_path / "run"
    main(["train", "--dataset", str(dataset), "--out", str(out_dir),
          "--model", "rotate", "--mode", "vlp"] + FAST)
    capsys.readouterr()
    code = main(["eval", "--dataset", str(dataset),
                 "--checkpoint", str(out_dir / "checkpoint.vlpc"),
                 "--refs", "2", "--cap", "4",
                 "--split", "distance", "--dump-ranks"])
    assert code == 0
    out = capsys.readouterr().out
    assert "report:" in out and "ranks:" in out
    report_path = out_dir / "report.tsv"
    assert report_path.is_file()
    rows = [line.split("\t") for line in
            report_path.read_text().strip().splitlines()]
    assert all(len(r) == 4 for r in rows)
    sections = {r[0] for r in rows}
    assert {"overall", "distance", "relation", "rmp"} <= sections
    ranks = (out_dir / "ranks.tsv").read_text().strip().splitlines()
    assert len(ranks) == int(rows[0][2])  # one line per ranked triple


@pytest.mark.parametrize("mode", ["hlp", "vlp"])
def test_eval_files_equal_the_per_query_oracles(dataset, tmp_path, capsys,
                                                monkeypatch, mode):
    """report.tsv and ranks.tsv of the block path equal those of a run whose
    ranks come from candidate_scores + rank_from_scores, query by query."""
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset), "--out", str(run),
                 "--model", "rotate", "--mode", mode] + FAST) == 0
    evaluate = ["eval", "--dataset", str(dataset), "--dump-ranks",
                "--checkpoint", str(run / "checkpoint.vlpc"), "--out"]
    assert main(evaluate + [str(tmp_path / "block")]) == 0
    out = capsys.readouterr().out
    n = len((tmp_path / "block" / "ranks.tsv").read_text().splitlines())
    n_entities = vlpkg.cli.load_augmented(dataset)[0].n_entities
    assert f" of {n * n_entities} candidates (" in out

    def oracle_rank(ranker, triples):
        return np.array([vlpkg.evaluation.rank_from_scores(
            vlpkg.evaluation.candidate_scores(ranker.store, h, r, ranker.mode,
                                              ranker.lam, ranker.table),
            t, ranker.filter.tails(h, r)) for h, r, t in triples.tolist()]), 0

    monkeypatch.setattr(vlpkg.evaluation._BlockRanker, "rank", oracle_rank)
    assert main(evaluate + [str(tmp_path / "oracle")]) == 0
    for name in ("report.tsv", "ranks.tsv"):
        assert ((tmp_path / "block" / name).read_bytes()
                == (tmp_path / "oracle" / name).read_bytes())


def test_eval_writes_to_an_explicit_out_run(dataset, tmp_path, monkeypatch,
                                          capsys):
    # "run" is also the default of --out; given explicitly it still wins
    # over the checkpoint's directory
    train_dir = tmp_path / "train"
    assert main(["train", "--dataset", str(dataset), "--out", str(train_dir),
                 "--model", "transe", "--mode", "hlp"] + FAST) == 0
    monkeypatch.chdir(tmp_path)
    assert main(["eval", "--dataset", str(dataset), "--mode", "fg-only",
                 "--checkpoint", str(train_dir / "checkpoint.vlpc"),
                 "--cap", "4", "--out", "run", "--dump-ranks"]) == 0
    assert (tmp_path / "run" / "report.tsv").is_file()
    assert (tmp_path / "run" / "ranks.tsv").is_file()
    assert not (train_dir / "report.tsv").exists()


def test_eval_keeps_the_training_runs_reference_cache(dataset, tmp_path,
                                                      capsys):
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset), "--out", str(run),
                 "--model", "distmult", "--mode", "vlp"] + FAST) == 0
    refs = dataset / "refs-c4-n2.vlpr"
    before = refs.read_bytes(), refs.stat().st_ino, refs.stat().st_mtime_ns
    capsys.readouterr()
    eval_run = ["eval", "--dataset", str(dataset),
                "--checkpoint", str(run / "checkpoint.vlpc")]
    # a plain eval takes the run's cap and N from its config.txt
    assert main(eval_run) == 0
    out = capsys.readouterr().out
    assert _cache_lines(out)[1].endswith(f"{refs} (hit)")
    # the echo shows only the keys eval takes, not training settings
    assert "refs = 2" in out and "cap = 4" in out
    assert "model = " not in out and "dim = " not in out
    # an explicit N is another file, built beside the run's
    assert main(eval_run + ["--refs", "8"]) == 0
    assert _cache_lines(capsys.readouterr().out)[1].endswith(
        "refs-c4-n8.vlpr (built, was missing)")
    assert (refs.read_bytes(), refs.stat().st_ino,
            refs.stat().st_mtime_ns) == before


def test_eval_without_flags_uses_the_runs_cap_refs_and_lambda(dataset,
                                                              tmp_path,
                                                              capsys):
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset), "--out", str(run),
                 "--model", "transe", "--norm", "l1", "--mode", "vlp",
                 "--lambda", "0.3"] + FAST) == 0
    capsys.readouterr()
    ckpt = ["--dataset", str(dataset),
            "--checkpoint", str(run / "checkpoint.vlpc")]
    assert main(["eval", "--out", str(tmp_path / "plain")] + ckpt) == 0
    out = capsys.readouterr().out
    assert "cap = 4" in out and "refs = 2" in out and "lambda = 0.3" in out
    assert all(line.endswith("(hit)") for line in _cache_lines(out))
    assert not (dataset / DIST).exists()
    assert main(["eval", "--mode", "combined-f", "--cap", "4", "--refs", "2",
                 "--lambda", "0.3", "--norm", "l1",
                 "--out", str(tmp_path / "flags")] + ckpt) == 0
    capsys.readouterr()
    assert ((tmp_path / "plain" / "report.tsv").read_text()
            == (tmp_path / "flags" / "report.tsv").read_text())


def test_eval_of_an_hlp_run_ranks_fg_only_by_default(dataset, tmp_path,
                                                    capsys):
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset), "--out", str(run),
                 "--model", "rotate", "--mode", "hlp"] + FAST) == 0
    capsys.readouterr()
    ckpt = ["--dataset", str(dataset),
            "--checkpoint", str(run / "checkpoint.vlpc")]
    assert main(["eval", "--out", str(tmp_path / "plain")] + ckpt) == 0
    assert "eval-mode = fg-only" in capsys.readouterr().out
    assert not list(dataset.glob("refs-*"))  # no aggregator to feed
    assert main(["eval", "--mode", "fg-only",
                 "--out", str(tmp_path / "fg")] + ckpt) == 0
    capsys.readouterr()
    assert ((tmp_path / "plain" / "report.tsv").read_text()
            == (tmp_path / "fg" / "report.tsv").read_text())


def test_resume_without_repeating_flags_matches_an_uninterrupted_run(
        dataset, tmp_path, capsys):
    run = ["train", "--dataset", str(dataset), "--model", "distmult",
           "--mode", "vlp"] + FAST
    whole, cut = tmp_path / "whole", tmp_path / "cut"
    assert main(run + ["--out", str(whole)]) == 0
    assert main(run + ["--steps", "6", "--out", str(cut)]) == 0
    # the run's config.txt supplies everything but the new step count
    assert main(["train", "--steps", "12",
                 "--resume", str(cut / "checkpoint.vlpc")]) == 0
    assert "refs = 2" in capsys.readouterr().out
    assert ((whole / "checkpoint.vlpc").read_bytes()
            == (cut / "checkpoint.vlpc").read_bytes())


def test_train_writes_the_same_bytes_at_any_thread_count(dataset, tmp_path,
                                                          monkeypatch):
    """Batch 16 in three chunks (the toy graph is too small for 256-row
    ones): threads 1 and 2 write the same checkpoint and log values."""
    monkeypatch.setattr(vlpkg.training, "STEP_ROWS", 6)
    run = ["train", "--dataset", str(dataset), "--model", "rotate",
           "--mode", "vlp"] + FAST + ["--eval-every", "4"]
    for threads in ("1", "2"):
        assert main(run + ["--threads", threads,
                           "--out", str(tmp_path / threads)]) == 0

    def columns(threads):
        lines = (tmp_path / threads / "train.log.tsv").read_text().splitlines()
        return [line.split("\t")[:5] for line in lines]

    assert len(columns("1")) == 3 and columns("1") == columns("2")
    assert ((tmp_path / "1" / "checkpoint.vlpc").read_bytes()
            == (tmp_path / "2" / "checkpoint.vlpc").read_bytes())


def test_eval_rejects_checkpoint_from_other_dataset(dataset, tmp_path,
                                                    capsys):
    out_dir = tmp_path / "run"
    main(["train", "--dataset", str(dataset), "--out", str(out_dir),
          "--model", "transe", "--mode", "hlp"] + FAST)
    other = compositional_graph(n_clusters=4, cluster_size=5, seed=9)
    other_dir = write_dataset(tmp_path / "other",
                              *(name_triples(other, s)
                                for s in ("train", "valid", "test")))
    capsys.readouterr()
    code = main(["eval", "--dataset", str(other_dir),
                 "--checkpoint", str(out_dir / "checkpoint.vlpc")])
    assert code == 1
    err = capsys.readouterr().err
    assert "train-hash" in err


def test_eval_uses_the_norm_the_checkpoint_was_trained_with(dataset, tmp_path,
                                                            capsys):
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset), "--out", str(run),
                 "--model", "transe", "--mode", "hlp", "--norm", "l1"]
                + FAST) == 0
    reports = {}
    for name, flags in [("default", []), ("l1", ["--norm", "l1"]),
                        ("l2", ["--norm", "l2"])]:
        capsys.readouterr()
        assert main(["eval", "--dataset", str(dataset), "--mode", "fg-only",
                     "--checkpoint", str(run / "checkpoint.vlpc"),
                     "--out", str(tmp_path / name)] + flags) == 0
        assert f"norm = {flags[-1] if flags else 'l1'}" in capsys.readouterr().out
        reports[name] = (tmp_path / name / "report.tsv").read_text()
    assert reports["default"] == reports["l1"]
    assert reports["l2"] != reports["l1"]


def test_report_command_renders_sections(dataset, tmp_path, capsys):
    out_dir = tmp_path / "run"
    main(["train", "--dataset", str(dataset), "--out", str(out_dir),
          "--model", "rotate", "--mode", "vlp"] + FAST)
    main(["eval", "--dataset", str(dataset),
          "--checkpoint", str(out_dir / "checkpoint.vlpc"),
          "--refs", "2", "--cap", "4"])
    capsys.readouterr()
    code = main(["report", str(out_dir / "report.tsv"), "--section", "rmp"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[rmp]" in out
    assert "tail/" in out
    code = main(["report", str(out_dir / "report.tsv")])
    out = capsys.readouterr().out
    assert "[overall]" in out and "[distance]" in out


def test_resume_from_checkpoint(dataset, tmp_path, capsys):
    out_dir = tmp_path / "run"
    short = ["--dim", "8", "--batch", "16", "--lr", "0.05", "--negs", "4",
             "--refs", "2", "--cap", "4", "--eval-every", "0",
             "--model", "rotate", "--mode", "vlp"]
    main(["train", "--dataset", str(dataset), "--out", str(out_dir),
          "--steps", "6"] + short)
    code = main(["train", "--dataset", str(dataset), "--out", str(out_dir),
                 "--steps", "12", "--resume",
                 str(out_dir / "checkpoint.vlpc")] + short)
    assert code == 0
    _, _, step, _ = load_checkpoint(out_dir / "checkpoint.vlpc")
    assert step == 12
    capsys.readouterr()


def test_resume_reads_the_checkpoint_once(dataset, tmp_path, capsys,
                                          monkeypatch):
    out_dir = tmp_path / "run"
    ckpt = out_dir / "checkpoint.vlpc"
    run = ["train", "--dataset", str(dataset), "--out", str(out_dir),
           "--model", "transe", "--mode", "hlp"] + FAST
    reads = []
    read = vlpkg.models.read_file
    monkeypatch.setattr(vlpkg.models, "read_file", lambda path, *rest: (
        reads.append(str(path)) or read(path, *rest)))
    assert main(run) == 0
    assert main(run + ["--steps", "18", "--resume", str(ckpt)]) == 0
    assert reads.count(str(ckpt)) == 1
    assert load_checkpoint(ckpt)[2] == 18
    capsys.readouterr()


def test_sweep_runs_grid_product(dataset, tmp_path, capsys, monkeypatch):
    grid = tmp_path / "grid.cfg"
    grid.write_text("gamma = 2,4\nlambda = 0.1,0.5\n")
    base = tmp_path / "base.cfg"
    base.write_text("model = distmult\nmode = vlp\ndim = 8\nbatch = 16\n"
                    "steps = 6\nlr = 0.05\nnegs = 4\nrefs = 2\ncap = 4\n"
                    "eval-every = 0\n")
    out_dir = tmp_path / "sweep"
    loads = []
    load = vlpkg.cli.load_augmented
    monkeypatch.setattr(vlpkg.cli, "load_augmented",
                        lambda d: loads.append(d) or load(d))
    code = main(["sweep", "--dataset", str(dataset), "--config", str(base),
                 "--grid", str(grid), "--out", str(out_dir)])
    assert code == 0
    assert len(loads) == 1  # the dataset is read and hashed once per sweep
    out = capsys.readouterr().out
    assert "4 runs" in out
    lines = (out_dir / "sweep.tsv").read_text().strip().splitlines()
    assert lines[0] == "gamma\tlambda\tvalid_mrr"
    assert len(lines) == 5
    values = [line.split("\t")[:2] for line in lines[1:]]
    assert values == [["2.0", "0.1"], ["2.0", "0.5"],
                      ["4.0", "0.1"], ["4.0", "0.5"]]
    for i in range(4):
        assert (out_dir / f"sweep-{i:03d}" / "checkpoint.vlpc").is_file()


def test_sweep_builds_each_cache_once(dataset, tmp_path, capsys,
                                      monkeypatch):
    grid = tmp_path / "grid.cfg"
    grid.write_text("refs = 2,4\nlr = 0.01,0.05\n")
    base = tmp_path / "base.cfg"
    base.write_text("model = distmult\nmode = vlp\ndim = 8\nbatch = 16\n"
                    "steps = 2\nnegs = 4\ncap = 4\neval-every = 0\n")
    calls = {"compute_distances": 0, "select_references": 0}
    for name in calls:
        def counted(*args, _fn=getattr(vlpkg.cli, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(vlpkg.cli, name, counted)
    code = main(["sweep", "--dataset", str(dataset), "--config", str(base),
                 "--grid", str(grid), "--out", str(tmp_path / "sweep")])
    assert code == 0
    # one index for cap 4, one table per refs value, for four runs
    assert calls == {"compute_distances": 1, "select_references": 2}
    out = capsys.readouterr().out
    # runs 2-4 load the index, runs 3-4 the table, from disk
    assert out.count("(hit)") == 3 + 2


def test_sweep_over_the_reference_count(dataset, tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text("n = 0,2\n")  # the alias of refs
    base = tmp_path / "base.cfg"
    base.write_text("model = distmult\nmode = vlp\ndim = 8\nbatch = 16\n"
                    "steps = 6\nlr = 0.05\nnegs = 4\ncap = 4\n"
                    "eval-every = 0\n")
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--dataset", str(dataset), "--config", str(base),
                 "--grid", str(grid), "--out", str(out_dir)])
    assert code == 0
    capsys.readouterr()
    lines = (out_dir / "sweep.tsv").read_text().strip().splitlines()
    assert lines[0] == "refs\tvalid_mrr"
    rows = [line.split("\t") for line in lines[1:]]
    assert [row[0] for row in rows] == ["0", "2"]
    assert all(0 < float(row[1]) <= 1 for row in rows)
    for n in (0, 2):
        assert (dataset / f"refs-c4-n{n}.vlpr").is_file()


def test_resume_keeps_the_checkpoints_norm(dataset, tmp_path, capsys):
    out_dir = tmp_path / "run"
    run = ["train", "--dataset", str(dataset), "--out", str(out_dir),
           "--model", "transe", "--mode", "hlp"] + FAST
    resume = ["--steps", "18", "--resume", str(out_dir / "checkpoint.vlpc")]
    assert main(run + ["--norm", "l1"]) == 0
    capsys.readouterr()
    assert main(run + resume) == 0
    assert "norm = l1" in capsys.readouterr().out
    store, _, step, _ = load_checkpoint(out_dir / "checkpoint.vlpc")
    assert (store.norm, step) == ("l1", 18)
    # a norm named on the command line or in a config file must agree
    cfg_file = tmp_path / "l2.cfg"
    cfg_file.write_text("norm = l2\n")
    for extra in (["--norm", "l2"], ["--config", str(cfg_file)]):
        assert main(run + resume + extra) == 1
        assert "norm=l1" in capsys.readouterr().err
    assert load_checkpoint(out_dir / "checkpoint.vlpc")[0].norm == "l1"


def test_rejected_resume_keeps_the_runs_config(dataset, tmp_path, capsys):
    out_dir = tmp_path / "run"
    run = ["train", "--dataset", str(dataset), "--out", str(out_dir),
           "--model", "transe", "--mode", "hlp", "--norm", "l1", "--dim", "8",
           "--steps", "6"]
    assert main(run) == 0
    written = (out_dir / "config.txt").read_bytes()
    (dataset / DIST).unlink()
    assert main(run + ["--resume", str(out_dir / "checkpoint.vlpc"),
                       "--norm", "l2", "--dim", "16"]) == 1
    assert "norm=l1" in capsys.readouterr().err
    assert (out_dir / "config.txt").read_bytes() == written
    assert not list(dataset.glob("*.vlp?"))  # checked before any cache


def test_resume_keeps_the_best_checkpoint(dataset, tmp_path, capsys):
    run = ["train", "--dataset", str(dataset), "--model", "rotate",
           "--mode", "hlp", "--dim", "8", "--batch", "16", "--lr", "2.0",
           "--eval-every", "4", "--sampler", "selfadv", "--negs", "4"]
    whole, cut = tmp_path / "whole", tmp_path / "cut"
    assert main(run + ["--steps", "40", "--out", str(whole)]) == 0
    assert load_checkpoint(whole / "best.vlpc")[2] < 24  # before the cut
    assert main(run + ["--steps", "24", "--out", str(cut)]) == 0
    assert main(run + ["--steps", "40", "--out", str(cut), "--resume",
                       str(cut / "checkpoint.vlpc")]) == 0
    for name in ("best.vlpc", "checkpoint.vlpc"):
        assert (whole / name).read_bytes() == (cut / name).read_bytes()


def test_bad_values_fail_before_any_cache_is_built(dataset, tmp_path, capsys):
    run = ["train", "--dataset", str(dataset), "--out",
           str(tmp_path / "r")] + FAST
    for flag, value in [("alpha0", "nan"), ("seed", "-1"), ("gamma", "nan"),
                        ("tau", "inf"), ("lr", "-inf")]:
        assert main(run + [f"--{flag}={value}"]) == 1
        assert f"config error: {flag} must be" in capsys.readouterr().err
    grid = tmp_path / "grid.cfg"
    grid.write_text("seed = 0,-1\n")  # the bad value is the second run's
    assert main(["sweep", "--grid", str(grid)] + run[1:]) == 1
    assert "config error: seed must be" in capsys.readouterr().err
    assert not list(dataset.glob("*.vlp?"))
    assert not (tmp_path / "r").exists()


def test_resume_of_a_finished_run_validates_and_exits_cleanly(
        dataset, tmp_path, capsys):
    out_dir = tmp_path / "run"
    args = ["train", "--dataset", str(dataset), "--out", str(out_dir),
            "--model", "rotate", "--mode", "vlp"] + FAST[:-1] + ["6"]
    assert main(args) == 0
    assert main(args + ["--resume", str(out_dir / "checkpoint.vlpc")]) == 0
    assert "MRR" in capsys.readouterr().out


def test_grid_file_rejects_unknown_keys(tmp_path):
    grid = tmp_path / "grid.cfg"
    grid.write_text("gamma = 2,4\nwarmup = 1,2\n")
    with pytest.raises(ConfigError, match="warmup"):
        parse_grid_file(grid)


def test_parser_rejects_unused_and_missing_flags(capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["preprocess", "--dataset", "d",
                                   "--alpha0", "0.5"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["sweep", "--dataset", "d"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--alpha0" in err and "--grid" in err


@pytest.mark.parametrize("command", [["preprocess"],
                                     ["eval", "--checkpoint", "c"]])
def test_preprocess_and_eval_have_no_threads_flag(command, capsys):
    """Only the training step reads ``threads``; the other commands reject
    the flag with argparse's usage error."""
    with pytest.raises(SystemExit) as info:
        main(command + ["--dataset", "d", "--threads", "2"])
    assert info.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_cache_dir_override(dataset, tmp_path, monkeypatch, capsys):
    cache_root = tmp_path / "caches"
    monkeypatch.setenv("VLP_CACHE_DIR", str(cache_root))
    target = cache_dir_for(dataset)
    assert target.parent == cache_root
    assert main(["preprocess", "--dataset", str(dataset)]) == 0
    capsys.readouterr()
    assert (target / DIST).is_file()
    assert not (dataset / DIST).exists()


def test_missing_dataset_is_a_clean_error(tmp_path, capsys):
    code = main(["train", "--dataset", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "r")] + FAST)
    assert code == 1
    assert "error" in capsys.readouterr().err
