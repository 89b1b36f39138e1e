"""Run configuration: defaults, key=value config files, flag overrides.

Precedence is fixed: built-in defaults < config file < command-line flags.
Unknown and repeated keys are rejected rather than ignored or overridden
so typos cannot silently change a run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

from .errors import ConfigError


#: Each field annotation's (accepted value types, parser of its text in a
#: config file or a flag): exactly int (so no bool) for an int field, int
#: or float for a float field.
FIELD_KINDS = {"int": ((int,), int), "float": ((int, float), float),
               "str | None": ((str, type(None)), str)}


@dataclass(frozen=True)
class Config:
    """Run parameters, validated at construction; replace() derives a copy."""

    max_len: int = 3
    window: int = 10
    k_neighbors: int = 5
    min_sim: float = 0.1
    lambda_domain: float = 1.0
    beta: float = 2.0
    absent_quota: int = 10
    damping: float = 0.85
    tol: float = 1e-6
    max_iter: int = 100
    gamma_absent: float = 0.8
    top_n: int = 10
    stopwords_path: str | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "Config":
        limit = sys.float_info.max
        for f in fields(self):  # types first: the range checks compare eagerly
            value = getattr(self, f.name)
            if type(value) not in FIELD_KINDS[f.type][0]:
                raise ConfigError(f"{f.name} must be {f.type}, "
                                  f"not {type(value).__name__}")
            # a bounds test: NaN fails it, and so does an int beyond the
            # float range, on which math.isfinite raises OverflowError
            if f.type == "float" and not -limit <= value <= limit:
                raise ConfigError(f"{f.name} must be finite")
        checks = [
            (self.max_len >= 1, "max_len must be >= 1"),
            (self.window >= 1, "window must be >= 1"),
            (self.k_neighbors >= 0, "k_neighbors must be >= 0"),
            (0.0 <= self.min_sim <= 1.0, "min_sim must lie in [0, 1]"),
            (self.lambda_domain >= 0.0, "lambda_domain must be >= 0"),
            (self.beta >= 1.0, "beta must be >= 1"),
            (self.absent_quota >= 0, "absent_quota must be >= 0"),
            (0.0 < self.damping < 1.0, "damping must lie in (0, 1)"),
            (self.tol > 0.0, "tol must be positive"),
            (self.max_iter >= 1, "max_iter must be >= 1"),
            (self.gamma_absent >= 0.0, "gamma_absent must be >= 0"),
            (self.top_n >= 1, "top_n must be >= 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(Config)}

    def replace(self, **overrides) -> "Config":
        """A copy with every given value applied, None included."""
        values = self.to_dict()
        for key in overrides:
            if key not in values:
                raise ConfigError(f"unknown config key {key!r}")
        return Config(**{**values, **overrides})


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _coerce(key: str, raw: str, where: str):
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] in "\"'" and raw[-1] == raw[0]:
        raw = raw[1:-1]
    try:
        return FIELD_KINDS[_FIELD_TYPES[key]][1](raw)
    except ValueError:
        raise ConfigError(f"{where}: config key {key!r}: "
                          f"cannot parse {raw!r}") from None


def load_config(path: str | None) -> Config:
    """Read a key = value config file; None yields pure defaults."""
    if path is None:
        return Config()
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, raw = text.partition("=")
                key = key.strip()
                if key not in _FIELD_TYPES:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                if key in values:
                    raise ConfigError(f"{path}:{lineno}: config key {key!r} is set twice")
                values[key] = _coerce(key, raw, f"{path}:{lineno}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not valid UTF-8") from None
    return Config(**values)
