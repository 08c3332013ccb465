"""Pipeline configuration: defaults, file parsing, hashing, search spaces.

Config files are line-oriented ``key = value`` text with ``#`` comments.
Command-line flags mirror the keys and override file values. Every
artifact the pipeline writes embeds the hash of the exact configuration
that produced it, so outputs can be traced and reruns verified.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

PEEPHOLE_MODES = ("full", "diagonal", "off")

# the largest a size key may be: a product of two sizes, or of one and a
# vocabulary of int32 ids, then stays far inside numpy's array index range
MAX_SIZE = 2 ** 24
_SIZE_KEYS = ("embed_dim", "hidden_dim", "window_size", "n_corruptions",
              "lstm_dim")


@dataclass
class Config:
    """Every knob of the pipeline, with the best-known defaults.

    One ``learning_rate`` drives both the SSWE step (plain SGD:
    ``eta * gradient``) and the scorer's RMSprop step (about ``eta`` per
    coordinate), and ``search`` draws one eta for both. It stays one key
    because it is a single hyperparameter of the random search, which
    judges a trial by the scorer's validation RMSE alone, and because the
    config hash every artifact records covers every key, so a new key
    would change the hash of every existing configuration. The stages run
    as separate commands, so each can take its own value through
    ``--learning-rate`` on its own command line.
    """

    # shared
    seed: int = 0
    min_count: int = 2
    normalize_scores: bool = True
    val_ratio: float = 0.16
    test_ratio: float = 0.20
    # embedding stage
    embed_dim: int = 200
    hidden_dim: int = 100
    window_size: int = 9
    n_corruptions: int = 200
    alpha: float = 0.1
    learning_rate: float = 1e-7
    embed_epochs: int = 5
    # scoring stage
    lstm_dim: int = 10
    layers: int = 1
    bidirectional: bool = False
    dropout: float = 0.5
    peepholes: str = "full"
    epochs: int = 100
    batch_size: int = 32
    patience: int = 25
    rho_rms: float = 0.9
    eps_rms: float = 1e-8
    clip_norm: float = 0.0
    # paths
    data_path: str = "data.tsv"
    range_table: str = ""
    splits_dir: str = "splits"
    models_dir: str = "models"
    reports_dir: str = "reports"
    heatmaps_dir: str = "heatmaps"

    def validate(self):
        # a NaN passes every comparison below, so reject it first
        for name, kind in _FIELDS.items():
            if kind == "float" and not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got "
                                  f"{getattr(self, name)}")
            # no file name holds a NUL, and open() raises ValueError on one
            if kind == "str" and "\0" in getattr(self, name):
                raise ConfigError(f"{name} must not contain a NUL character")
        # numpy's generators take no negative seed
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.min_count < 1:
            raise ConfigError(f"min_count must be >= 1, got {self.min_count}")
        if self.val_ratio < 0 or self.test_ratio < 0 \
                or self.val_ratio + self.test_ratio >= 1.0:
            raise ConfigError(f"split ratios val={self.val_ratio} "
                              f"test={self.test_ratio} leave no training data")
        if self.window_size % 2 == 0 or self.window_size < 3:
            raise ConfigError(f"window size must be odd and >= 3, got {self.window_size}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.n_corruptions < 1:
            raise ConfigError(f"n_corruptions must be >= 1, got {self.n_corruptions}")
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ConfigError("embed_dim and hidden_dim must be positive")
        if self.embed_epochs < 0:
            raise ConfigError(f"embed_epochs must be >= 0, got {self.embed_epochs}")
        if self.lstm_dim < 1:
            raise ConfigError(f"lstm_dim must be positive, got {self.lstm_dim}")
        if self.layers not in (1, 2):
            raise ConfigError(f"layers must be 1 or 2, got {self.layers}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.peepholes not in PEEPHOLE_MODES:
            raise ConfigError(f"peepholes must be one of {PEEPHOLE_MODES}, "
                              f"got {self.peepholes!r}")
        if self.epochs < 0 or self.batch_size < 1 or self.patience < 1:
            raise ConfigError("epochs must be >= 0, batch_size and patience >= 1")
        if not 0.0 < self.rho_rms < 1.0:
            raise ConfigError(f"rho_rms must lie in (0, 1), got {self.rho_rms}")
        # a zero accumulator plus eps_rms divides a zero gradient: with
        # eps_rms = 0 every weight without a gradient would become NaN
        if self.eps_rms <= 0.0:
            raise ConfigError(f"eps_rms must be a finite number > 0, "
                              f"got {self.eps_rms}")
        if self.clip_norm < 0.0:
            raise ConfigError(f"clip_norm must be a finite number >= 0, "
                              f"got {self.clip_norm}")
        for name in _SIZE_KEYS:
            if getattr(self, name) > MAX_SIZE:
                raise ConfigError(f"{name} must be <= {MAX_SIZE}, got "
                                  f"{getattr(self, name)}")


_FIELDS = {f.name: f.type for f in dataclasses.fields(Config)}


def _coerce(key: str, text: str):
    kind = _FIELDS[key]
    text = text.strip()
    if kind == "bool":
        if text.lower() in ("true", "yes", "1", "on"):
            return True
        if text.lower() in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {text!r}")
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind}, got {text!r}") from None
    return text


def parse_config_text(text: str, base: Config | None = None,
                      source: str = "<config>") -> Config:
    """Apply ``key = value`` lines on top of ``base`` (or the defaults)."""
    cfg = dataclasses.replace(base) if base is not None else Config()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        setattr(cfg, key, _coerce(key, value))
    return cfg


def load_config(path, base: Config | None = None) -> Config:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not valid UTF-8: {exc.reason}") from None
    return parse_config_text(text, base=base, source=str(path))


def serialize_config(cfg: Config) -> str:
    """Canonical text form: every key, sorted, one per line."""
    lines = [f"{name} = {getattr(cfg, name)}" for name in sorted(_FIELDS)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: Config) -> str:
    """Short stable digest of the full configuration."""
    digest = hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
    return digest[:16]


def write_config(path, cfg: Config, header: str = ""):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write(serialize_config(cfg))


@dataclass
class SearchSpace:
    """Seeded random search over the tunable hyperparameters.

    Each trial draws, in this order: the learning rate log-uniformly
    from [1e-8, 1e-2]; alpha uniformly from [0, 1], or from
    ``alpha_choices`` when it is non-empty (the ablation comparison pins
    it so); dropout uniformly from [0, 0.7]; then embed_dim 20-200,
    hidden_dim 20-100, window_size from 5, 7 and 9, n_corruptions
    10-200 and lstm_dim 5-30, each uniform over its integers (bounds
    included); and last the trial's seed.
    """

    trials: int = 10
    seed: int = 0
    alpha_choices: tuple[float, ...] = ()

    def validate(self):
        if self.trials < 1:
            raise ConfigError(f"need at least one trial, got {self.trials}")
        for a in self.alpha_choices:
            if not 0.0 <= a <= 1.0:
                raise ConfigError(f"--alpha-choices must lie in [0, 1], got {a}")

    def draw(self, rng, base: Config) -> Config:
        """One trial configuration on top of ``base``."""
        eta = float(np.exp(rng.uniform(np.log(1e-8), np.log(1e-2))))
        if self.alpha_choices:
            alpha = float(self.alpha_choices[rng.integers(len(self.alpha_choices))])
        else:
            alpha = float(rng.uniform(0.0, 1.0))
        return dataclasses.replace(
            base,
            learning_rate=eta,
            alpha=alpha,
            dropout=float(rng.uniform(0.0, 0.7)),
            embed_dim=int(rng.integers(20, 201)),
            hidden_dim=int(rng.integers(20, 101)),
            window_size=(5, 7, 9)[rng.integers(3)],
            n_corruptions=int(rng.integers(10, 201)),
            lstm_dim=int(rng.integers(5, 31)),
            seed=int(rng.integers(2 ** 31)),
        )
