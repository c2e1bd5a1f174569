from dataclasses import asdict

import numpy as np
import pytest

from vlpkg import ConfigError, TrainConfig, build_config, parse_config_file
from vlpkg.cli import build_parser, cli_values
from vlpkg.config import KEYS, apply_values, canonical_key, parse_value


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_basic_file(tmp_path):
    path = _write(tmp_path, """
# comment lines and blanks are skipped
model = distmult
dim = 32          # trailing comments too
lr = 0.01
lambda = 0.3
no-pre = true
negs = 12
""")
    values = parse_config_file(path)
    assert values == {"model": "distmult", "dim": 32, "lr": 0.01,
                      "lambda": 0.3, "no-pre": True, "negs": 12}


def test_parse_reports_every_problem_at_once(tmp_path):
    path = _write(tmp_path, "modle = distmult\nbroken line\ndim = many\n")
    with pytest.raises(ConfigError) as info:
        parse_config_file(path)
    message = str(info.value)
    assert "unknown key 'modle'" in message
    assert ":2:" in message
    assert "bad value for dim" in message
    assert len(info.value.problems) == 3


def test_key_canonicalization_and_alias():
    assert canonical_key("Eval_Every") == "eval-every"
    assert canonical_key("N") == "refs"
    assert parse_value("refs", " 4 ") == 4
    assert parse_value("no-post", "yes") is True
    with pytest.raises(ConfigError):
        parse_value("no-post", "maybe")


def test_flag_overrides_file_overrides_default(tmp_path):
    path = _write(tmp_path, "dim = 64\ngamma = 9\n")
    cfg = build_config(parse_config_file(path),
                       {"gamma": 4.0, "dataset": "d", "steps": 1})
    assert cfg.dim == 64          # from file
    assert cfg.gamma == 4.0       # flag wins
    assert cfg.batch == 256       # default survives
    assert cfg.sampler.mode == "red"


def test_sampler_keys_route_into_nested_config():
    cfg = apply_values(TrainConfig(), {
        "sampler": "selfadv", "alpha1": 2.0, "negs": 9, "no-post": True,
        "tau": 0.25,
    })
    assert cfg.sampler.mode == "selfadv"
    assert cfg.sampler.alpha1 == 2.0
    assert cfg.sampler.n_negatives == 9
    assert cfg.sampler.use_post is False
    assert cfg.sampler.tau == 0.25
    # the original default instance is untouched
    assert TrainConfig().sampler.use_post is True


def test_apply_values_does_not_mutate_input_config():
    base = TrainConfig()
    derived = apply_values(base, {"dim": 7, "alpha0": 0.2})
    assert base.dim == 100
    assert base.sampler.alpha0 == 1.0
    assert derived.dim == 7
    assert derived.sampler.alpha0 == 0.2


def test_validation_collects_all_violations():
    cfg = TrainConfig(model="glove", mode="sideways", dim=0, lr=-1.0,
                      refs=999)
    problems = cfg.validate()
    assert len(problems) >= 5
    with pytest.raises(ConfigError) as info:
        cfg.validated()
    assert len(info.value.problems) == len(problems)


def test_validation_checks_nested_sampler():
    cfg = TrainConfig(sampler=TrainConfig().sampler.__class__(
        mode="nope", alpha0=-1.0, n_negatives=0))
    problems = cfg.validate()
    assert problems == [
        "sampler must be one of ('uniform', 'selfadv', 'red'), got 'nope'",
        "alpha0 must be > 0", "negs must be >= 1"]


def _with(key, value):
    cfg = TrainConfig()
    key.set(cfg, value)
    return cfg


def _past(key, bound, direction):
    """The next value of the key's type past ``bound`` in ``direction``."""
    if key.type is int:
        return bound + direction
    return float(np.nextafter(bound, direction * np.inf))


RULED = [key for key in KEYS
         if key.choices or key.low is not None or key.above is not None]


@pytest.mark.parametrize("key", RULED, ids=lambda key: key.name)
def test_every_rule_accepts_its_bounds_and_rejects_past_them(key):
    """Each value at a bound passes; the next one past it, and for a float
    NaN and either infinity, fail with the key's own message."""
    good = list(key.choices or ())
    bad = ["not-a-choice"] if key.choices else []
    if key.low is not None:
        good.append(key.low)
        bad.append(_past(key, key.low, -1))
    if key.above is not None:
        good.append(_past(key, key.above, 1))
        bad.append(key.above)
    if key.high is not None:
        good.append(key.high)
        bad.append(_past(key, key.high, 1))
    if key.type is float:
        bad += [float("nan"), float("inf"), float("-inf")]
    for value in good:
        assert _with(key, value).validate() == [], value
    for value in bad:
        problem = key.problem(_with(key, value))
        assert problem and problem.startswith(f"{key.name} must be"), value
        assert _with(key, value).validate() == [problem]


def test_rule_messages_keep_their_wording():
    cfg = TrainConfig(dim=0, gamma=0.0, refs=255, cap=0, seed=-1,
                      lr=float("nan"))
    assert cfg.validate() == [
        "dim must be >= 1", "lr must be finite, got nan", "gamma must be > 0",
        "refs must be in [0, 254]", "cap must be in [1, 255]",
        "seed must be >= 0"]


def test_eval_mode_follows_training_mode():
    assert TrainConfig(mode="vlp").eval_mode == "combined-f"
    assert TrainConfig(mode="hlp").eval_mode == "fg-only"


def test_to_items_roundtrips_through_the_parser(tmp_path):
    cfg = TrainConfig(dataset="data/x", model="complex", dim=24, lam=0.7,
                      sampler=TrainConfig().sampler.__class__(
                          mode="red", use_pre=False, n_negatives=7))
    text = "\n".join(f"{k} = {v}" for k, v in cfg.to_items())
    values = parse_config_file(_write(tmp_path, text))
    back = apply_values(TrainConfig(), values)
    assert back == cfg


def _fields(cfg):
    """TrainConfig as a flat {field: value} dict, "sampler.x" for sampler."""
    flat = asdict(cfg)
    flat.update((f"sampler.{k}", v) for k, v in flat.pop("sampler").items())
    return flat


def _other_value(key):
    """(flag argv, config-file text) giving the key a non-default value."""
    default = key.get(TrainConfig())
    if key.type is bool:
        return [f"--{key.name}"], "true"
    if key.choices:
        text = next(c for c in key.choices if c != default)
    elif key.type is str:
        text = "other" + default
    else:
        text = str(key.type(default + 1))
    return [f"--{key.name}", text], text


@pytest.mark.parametrize("key", KEYS, ids=lambda key: key.name)
def test_every_key_sets_exactly_its_field(key, tmp_path):
    default = _fields(TrainConfig())
    argv, text = _other_value(key)
    from_flag = apply_values(TrainConfig(), cli_values(
        build_parser().parse_args(["train"] + argv)))
    from_file = apply_values(TrainConfig(), parse_config_file(
        _write(tmp_path, f"{key.name} = {text}\n")))
    assert from_flag == from_file
    changed = {f for f, v in _fields(from_flag).items() if default[f] != v}
    assert changed == {key.field}
    assert dict(from_flag.to_items())[key.name] == text
    back = parse_config_file(_write(tmp_path, "\n".join(
        f"{k} = {v}" for k, v in from_flag.to_items())))
    assert apply_values(TrainConfig(), back) == from_flag


def test_renamed_and_negated_keys_reach_their_fields():
    args = build_parser().parse_args(
        ["train", "--lambda", "0.7", "--negs", "5", "--no-pre", "--no-post"])
    cfg = apply_values(TrainConfig(), cli_values(args))
    assert cfg.lam == 0.7
    assert cfg.sampler.n_negatives == 5
    assert cfg.sampler.use_pre is False
    assert cfg.sampler.use_post is False
    items = dict(cfg.to_items())
    assert items["no-pre"] == "true" and items["no-post"] == "true"
    assert dict(TrainConfig().to_items())["no-pre"] == "false"
