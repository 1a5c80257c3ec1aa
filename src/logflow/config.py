"""Experiment configuration: loading, validation, lossless round-tripping.

Configurations are plain nested dictionaries with a dataclass veneer.  Two
file formats are accepted everywhere: JSON, and a minimal nested key-value
text format with one ``dotted.path = value`` assignment per line (values are
parsed as JSON scalars/arrays).  A config may name a preset and override
individual keys.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .flow import FLOW_KEYS, STEPPERS
from .presets import INITIAL_FAMILIES, experiment_preset

__all__ = ["ExperimentConfig", "load_config", "parse_keyvalue", "merge"]

_PIPELINES = ("flow", "heat", "quadratic_exact", "condition_b", "heat_oracle",
              "expander_stationarity", "expander_cross", "legendre_dual",
              "mcf_verify", "decay", "blowdown", "plane")


@dataclass
class ExperimentConfig:
    pipeline: str
    grid: dict = field(default_factory=lambda: {"n": 1, "L": 4.0, "m": 65})
    initial: dict = field(default_factory=dict)
    flow: dict = field(default_factory=dict)
    expander: dict = field(default_factory=dict)
    mcf: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    check: dict = field(default_factory=dict)
    boundary: str = "auto"
    seed: int = 0
    snapshot_format: str = "binary"
    outdir: str = "out"
    preset: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.pipeline not in _PIPELINES:
            raise ConfigError(f"unknown pipeline {self.pipeline!r}; "
                              f"choose from {_PIPELINES}")
        g = self.grid
        if int(g.get("m", 0)) < 5:
            raise ConfigError(f"grid.m = {g.get('m')} too small: need m >= 5")
        if int(g.get("n", 1)) not in (1, 2, 3):
            raise ConfigError("grid.n must be 1, 2 or 3")
        if float(g.get("L", 0.0)) <= 0:
            raise ConfigError("grid.L must be positive")
        unknown = sorted(set(self.flow) - set(FLOW_KEYS))
        if unknown:
            raise ConfigError(f"unknown flow keys {unknown}; choose from {FLOW_KEYS}")
        tau = float(self.flow.get("tau", 1.0))
        if not 0.0 <= tau <= 1.0:
            raise ConfigError("flow.tau must lie in [0, 1]")
        if self.flow.get("stepper", "rk2") not in STEPPERS:
            raise ConfigError(f"flow.stepper must be one of {STEPPERS}")
        if self.initial and self.initial.get("kind") not in INITIAL_FAMILIES:
            raise ConfigError(
                f"initial.kind must be one of {INITIAL_FAMILIES}")
        if self.snapshot_format not in ("binary", "csv"):
            raise ConfigError("snapshot_format must be 'binary' or 'csv'")

    def domain(self):
        from .grid import BoxDomain
        g = self.grid
        return BoxDomain(n=int(g.get("n", 1)), half_width=float(g.get("L", 4.0)),
                         m=int(g.get("m", 65)), margin=int(g.get("margin", 2)))


def merge(base: dict, override: dict) -> dict:
    """Recursive dictionary merge; override wins on scalar conflicts."""
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = merge(out[key], val)
        else:
            out[key] = val
    return out


def parse_keyvalue(text: str) -> dict:
    """Parse the ``dotted.path = value`` format with line-precise errors."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        try:
            value = json.loads(val.strip())
        except json.JSONDecodeError:
            value = val.strip()  # bare strings are allowed
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}: {key!r} conflicts with a scalar")
        node[parts[-1]] = value
    return out


def load_config(path_or_dict) -> ExperimentConfig:
    """Load a config from a path (JSON or key-value) or a dictionary.

    A ``preset`` key pulls the named preset and merges any other keys on top.
    """
    if isinstance(path_or_dict, dict):
        data = dict(path_or_dict)
    else:
        path = Path(path_or_dict)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json" or text.lstrip().startswith("{"):
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: "
                                  f"{exc.msg}") from exc
        else:
            data = parse_keyvalue(text)
    preset_name = data.pop("preset", None)
    if preset_name is not None:
        base = experiment_preset(preset_name)
        data = merge(base, data)
        cfg = ExperimentConfig.from_dict(data)
        cfg.preset = preset_name
        return cfg
    return ExperimentConfig.from_dict(data)
