"""Run configuration: defaults, config-file parsing, validation.

Config files are flat UTF-8 ``key = value`` lines with ``#`` comments.
Keys are the CLI flag names (without the leading dashes); a flag given on
the command line overrides the file value. Unknown keys are errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .models import NORMS, ModelKind
from .sampling import SAMPLER_MODES, SamplerConfig
from .training import POSTWEIGHT_SCORES

MODES = ("hlp", "vlp")


class ConfigError(Exception):
    """One or more invalid configuration values; message lists them all."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class TrainConfig:
    dataset: str = ""
    model: str = "rotate"
    mode: str = "vlp"
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    dim: int = 100
    batch: int = 256
    lr: float = 1e-3
    steps: int = 10000
    gamma: float = 6.0
    lam: float = 0.5
    alpha: float = 0.5
    refs: int = 8
    cap: int = 8
    seed: int = 0
    threads: int = 1
    out: str = "run"
    norm: str = "l2"
    eval_every: int = 500
    postweight_score: str = "fg"

    def validate(self):
        return [p for p in (key.problem(self) for key in KEYS) if p]

    def validated(self):
        errors = self.validate()
        if errors:
            raise ConfigError(errors)
        return self

    @property
    def eval_mode(self):
        """Score used for in-training validation and default evaluation."""
        return "combined-f" if self.mode == "vlp" else "fg-only"

    def to_items(self):
        """(key, value) pairs in config-file syntax, sorted by key."""
        return sorted((key.name, _render(key.get(self))) for key in KEYS)


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass(frozen=True)
class ConfigKey:
    """One config-file key (and ``--flag``), the TrainConfig field it sets
    and the rule its value must meet: ``choices``, or bounds ``low`` (>=),
    ``above`` (>) and ``high`` (<=). A float must also be finite."""

    name: str
    field: str            # TrainConfig attribute; "sampler.x" for sampler fields
    type: type            # int, float, str or bool
    help: str
    choices: tuple = None
    negated: bool = False  # a true value sets the field to False
    low: float = None
    above: float = None
    high: float = None

    def _owner(self, cfg):
        owner, _, attr = self.field.rpartition(".")
        return (getattr(cfg, owner) if owner else cfg), attr

    def get(self, cfg):
        owner, attr = self._owner(cfg)
        value = getattr(owner, attr)
        return not value if self.negated else value

    def set(self, cfg, value):
        owner, attr = self._owner(cfg)
        setattr(owner, attr, not value if self.negated else value)

    def problem(self, cfg):
        """Why this key's value in ``cfg`` is invalid, or None; NaN fails."""
        value = self.get(cfg)
        if self.choices and value not in self.choices:
            return f"{self.name} must be one of {self.choices}, got {value!r}"
        if self.type is float and not math.isfinite(value):
            return f"{self.name} must be finite, got {value}"
        if self.high is not None and not self.low <= value <= self.high:
            return f"{self.name} must be in [{self.low}, {self.high}]"
        if self.low is not None and not value >= self.low:
            return f"{self.name} must be >= {self.low}"
        if self.above is not None and not value > self.above:
            return f"{self.name} must be > {self.above}"
        return None


KEYS = (
    ConfigKey("dataset", "dataset", str,
              "dataset directory with train.txt/valid.txt/test.txt"),
    ConfigKey("model", "model", str, "scoring model",
              tuple(kind.value for kind in ModelKind)),
    ConfigKey("mode", "mode", str,
              "hlp: plain triple scoring; vlp: reference aggregation", MODES),
    ConfigKey("sampler", "sampler.mode", str, "negative sampler",
              SAMPLER_MODES),
    ConfigKey("dim", "dim", int, "embedding dimension (per complex component)",
              low=1),
    ConfigKey("batch", "batch", int, "batch size", low=1),
    ConfigKey("lr", "lr", float, "Adam learning rate", above=0),
    ConfigKey("steps", "steps", int, "total optimization steps", low=0),
    ConfigKey("gamma", "gamma", float, "margin in the sampled loss",
              above=0),
    ConfigKey("lambda", "lam", float,
              "weight of f_g inside the combined score f", low=0),
    ConfigKey("alpha", "alpha", float,
              "weight of the sampled loss in the total loss", low=0),
    ConfigKey("alpha0", "sampler.alpha0", float, "pre-sampling temperature",
              above=0),
    ConfigKey("alpha1", "sampler.alpha1", float,
              "post-sampling rise temperature", above=0),
    ConfigKey("alpha2", "sampler.alpha2", float,
              "post-sampling fall temperature", above=0),
    ConfigKey("tau", "sampler.tau", float, "post-sampling margin", low=0),
    ConfigKey("negs", "sampler.n_negatives", int, "negatives per positive",
              low=1),
    ConfigKey("refs", "refs", int, "references per query (N)", low=0,
              high=254),
    ConfigKey("cap", "cap", int, "graph-distance truncation", low=1,
              high=255),
    ConfigKey("seed", "seed", int,
              "rng seed (runs are pure functions of config + seed)", low=0),
    ConfigKey("threads", "threads", int,
              "worker threads: speed only, never the results", low=1),
    ConfigKey("out", "out", str, "output directory"),
    ConfigKey("norm", "norm", str, "transe distance norm", NORMS),
    ConfigKey("eval-every", "eval_every", int,
              "validation period in steps (0: only at the end)", low=0),
    ConfigKey("postweight-score", "postweight_score", str,
              "score feeding post-weights", POSTWEIGHT_SCORES),
    ConfigKey("no-pre", "sampler.use_pre", bool,
              "disable distance-based pre-sampling (red only)", negated=True),
    ConfigKey("no-post", "sampler.use_post", bool,
              "disable relative-distance post-weights (red only)",
              negated=True),
)

CONFIG_KEYS = {key.name: key for key in KEYS}

# sweep grids may use the paper-style axis name for the reference count
KEY_ALIASES = {"n": "refs"}


def canonical_key(key):
    key = key.strip().lower().replace("_", "-")
    return KEY_ALIASES.get(key, key)


def parse_value(key, text):
    text = text.strip()
    try:
        if CONFIG_KEYS[key].type is not bool:
            return CONFIG_KEYS[key].type(text)
        low = text.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    except ValueError as exc:
        raise ConfigError([f"bad value for {key}: {exc}"]) from None


def parse_config_file(path, parse=parse_value):
    """Read ``key = value`` lines into a {canonical key: parse(key, value)}
    dict, reporting every bad line at once."""
    values = {}
    problems = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                problems.append(f"{path}:{line_no}: expected key = value")
                continue
            raw_key, raw_value = line.split("=", 1)
            key = canonical_key(raw_key)
            if key not in CONFIG_KEYS:
                problems.append(f"{path}:{line_no}: unknown key {raw_key.strip()!r}")
                continue
            try:
                values[key] = parse(key, raw_value)
            except ConfigError as exc:
                problems.extend(f"{path}:{line_no}: {p}" for p in exc.problems)
    if problems:
        raise ConfigError(problems)
    return values


def apply_values(cfg, values):
    """Overlay a {key: value} dict onto a TrainConfig, returning a new one."""
    unknown = [k for k in values if k not in CONFIG_KEYS]
    if unknown:
        raise ConfigError([f"unknown key {k!r}" for k in unknown])
    cfg = replace(cfg, sampler=replace(cfg.sampler))
    for key, value in values.items():
        CONFIG_KEYS[key].set(cfg, value)
    return cfg


def build_config(file_values=None, cli_values=None):
    """defaults <- config file <- command line, then validate."""
    cfg = TrainConfig()
    if file_values:
        cfg = apply_values(cfg, file_values)
    if cli_values:
        cfg = apply_values(cfg, cli_values)
    return cfg.validated()
