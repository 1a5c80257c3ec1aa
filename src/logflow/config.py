"""Experiment configuration: loading, validation, lossless round-tripping.

Configurations are plain nested dictionaries with a dataclass veneer.  Two
file formats are accepted everywhere: JSON, and a minimal nested key-value
text format with one ``dotted.path = value`` assignment per line (values are
parsed as JSON scalars/arrays).  A config may name a preset and override
individual keys.  A config is an object of keys, each section one too, and
``seed`` a nonnegative integer.  An unknown key in any section is a
ConfigError, an unknown section named by the dotted keys it sets: ``grid``
takes ``n``, ``L`` and ``m``, ``flow`` the keyword arguments of
:func:`logflow.flow.run` except the boundary model, which always comes
with the initial data, ``initial`` its family's keys, ``check`` and ``mcf``
what the pipeline table in :mod:`logflow.experiments` declares; a pipeline
that evolves no initial data takes neither ``flow`` nor ``initial``, and
one that does needs ``flow.t_end``.  A key's default sets the type of its
value (a finite number, null or a finite number, a list of finite
numbers), and one table of ranges bounds the numbers: ``flow.tau`` lies in
``[0, 1]``, times, lengths and curvatures are positive.  A ``[lo, hi]``
check bound takes two numbers with ``lo <= hi``, ``flow.snapshot_times``
times in ``[0, flow.t_end]`` and ``mcf.t_start`` a time in
``[0, flow.t_end)``.  A run snapshots at its snapshot times and at
``flow.t_end``, so these fix the snapshots a pipeline reads: the three
states of the duality check, the samples of the decay fit and the
blow-down errors, one per positive time, of which the check compares those
from :data:`logflow.analysis.MONOTONE_FROM` on.  Expander stationarity is
checked on the line expander, so it needs ``grid.n = 1``.  Loading fills
``check`` and ``mcf`` from the pipeline table, so ``config.json`` records
the thresholds and parameters the run used.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import MONOTONE_FROM
from .errors import ConfigError
from .flow import FLOW_KEYS
from .presets import INITIAL_FAMILIES, experiment_preset

__all__ = ["ExperimentConfig", "load_config", "parse_keyvalue", "merge", "check_seeds"]


def _reject_unknown(section: str, values: dict, allowed) -> None:
    # an unknown section is named by the keys it sets, as a key-value file
    # spells them
    unknown = []
    for key in set(values) - set(allowed):
        subs = values[key] if isinstance(values[key], dict) else ()
        unknown += [f"{key}.{sub}" for sub in subs] or [key]
    if unknown:
        hint = f"choose from {sorted(allowed)}" if allowed else "the pipeline reads none"
        raise ConfigError(f"unknown {section} keys {sorted(unknown)}; {hint}")


def _number(value) -> bool:
    """A finite number: an int or a float that is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


# keys with a shape check of their own in ExperimentConfig.validate
_SHAPED = ("A", "b", "seeds")


def _reject_mistyped(section: str, values: dict, defaults: dict) -> None:
    """A key's declared default sets what it takes: a number default a finite
    number, a None default null or a finite number, a list default a list of
    finite numbers."""
    for key, default in defaults.items():
        if key not in values or key in _SHAPED:
            continue
        value = values[key]
        if _number(default):
            ok, what = _number(value), "a finite number"
        elif default is None:
            ok, what = value is None or _number(value), "null or a finite number"
        elif isinstance(default, (list, tuple)):
            ok = isinstance(value, (list, tuple)) and all(map(_number, value))
            what = "a list of finite numbers"
        else:
            continue
        if not ok:
            raise ConfigError(f"{section}.{key} must be {what}, got {value!r}")


# the range of each bounded key, by section, as (test, description): a list
# takes a non-empty list with every entry in range, and null stays admitted
# where the default is None
_POSITIVE = (lambda v: v > 0.0, "positive")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_RANGES = {
    "flow": {"tau": _UNIT, "t_end": _POSITIVE},
    "initial": {"width": _POSITIVE, "c_minus": _POSITIVE, "c_plus": _POSITIVE},
}


def _reject_out_of_range(section: str, values: dict) -> None:
    for key, (test, what) in _RANGES[section].items():
        value = values.get(key)
        if value is None:
            continue
        if isinstance(value, list):
            if not value or not all(map(test, value)):
                raise ConfigError(f"{section}.{key} must be a non-empty list, "
                                  f"each entry {what}, got {value!r}")
        elif not test(value):
            raise ConfigError(f"{section}.{key} must be {what}, got {value!r}")


def _shape(value) -> tuple | None:
    """The shape of an array of finite numbers, or None when value is not one."""
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    return array.shape if np.isfinite(array).all() else None


def check_seeds(seeds, n: int, what: str) -> None:
    """Refuse particle seeds that are not a non-empty list of points with n
    finite coordinates each."""
    shape = _shape(seeds) or ()
    if len(shape) != 2 or shape[0] == 0 or shape[1] != n:
        raise ConfigError(f"{what} must be a non-empty list of points "
                          f"with {n} finite coordinates each")


@dataclass
class ExperimentConfig:
    pipeline: str
    grid: dict = field(default_factory=lambda: {"n": 1, "L": 4.0, "m": 65})
    initial: dict = field(default_factory=dict)
    flow: dict = field(default_factory=dict)
    mcf: dict = field(default_factory=dict)
    check: dict = field(default_factory=dict)
    seed: int = 0
    snapshot_format: str = "binary"
    outdir: str = "out"
    preset: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _reject_unknown("config", data, [f.name for f in dataclasses.fields(cls)])
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @property
    def tau(self) -> float:
        """``flow.tau``, or the default of :func:`logflow.flow.run`."""
        return float(self.flow.get("tau", FLOW_KEYS["tau"]))

    def validate(self) -> None:
        """Check every section; fill ``check`` and ``mcf`` with the
        pipeline's defaults."""
        from .experiments import PIPELINES
        spec = PIPELINES.get(self.pipeline) if isinstance(self.pipeline, str) else None
        if spec is None:
            raise ConfigError(f"unknown pipeline {self.pipeline!r}; "
                              f"choose from {tuple(PIPELINES)}")
        for section in ("grid", "initial", "flow", "mcf", "check"):
            if not isinstance(getattr(self, section), dict):
                raise ConfigError(f"{section} must be an object of keys, "
                                  f"got {getattr(self, section)!r}")
        if not isinstance(self.outdir, str):
            raise ConfigError(f"outdir must be a string, got {self.outdir!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        _reject_unknown("grid", self.grid, ("n", "L", "m"))
        if not spec.evolves:
            for section in ("flow", "initial"):
                _reject_unknown(section, getattr(self, section), ())
        _reject_unknown("flow", self.flow, FLOW_KEYS)
        _reject_mistyped("flow", self.flow, FLOW_KEYS)
        for section in ("check", "mcf"):
            table = getattr(spec, section)
            _reject_unknown(section, getattr(self, section), table)
            _reject_mistyped(section, getattr(self, section), table)
            setattr(self, section, {**copy.deepcopy(table), **getattr(self, section)})
        if self.initial:
            kind = self.initial.get("kind")
            if kind not in INITIAL_FAMILIES:
                raise ConfigError(f"initial.kind must be one of {tuple(INITIAL_FAMILIES)}")
            _reject_unknown(f"initial ({kind})", self.initial,
                            ("kind", *INITIAL_FAMILIES[kind]))
            _reject_mistyped("initial", self.initial, INITIAL_FAMILIES[kind])
        try:
            n = self.domain().n
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"grid {self.grid} is not a box: {exc}") from exc
        if spec.evolves and not _number(self.flow.get("t_end")):
            raise ConfigError(f"pipeline {self.pipeline!r} runs the flow and needs "
                              f"a number flow.t_end, got {self.flow.get('t_end')!r}")
        for section in _RANGES:
            _reject_out_of_range(section, getattr(self, section))
        t_end = self.flow.get("t_end")
        times = self.flow.get("snapshot_times", ())
        if not all(0.0 <= t <= t_end for t in times):
            raise ConfigError(f"flow.snapshot_times must lie in [0, flow.t_end] = "
                              f"[0, {t_end}], got {times}")
        t_start = self.mcf.get("t_start")
        if t_start is not None and not 0.0 <= t_start < t_end:
            raise ConfigError(f"mcf.t_start must lie in [0, flow.t_end) = "
                              f"[0, {t_end}), got {t_start}")
        if spec.evolves:
            # a run snapshots at its snapshot times and at t_end, so the
            # snapshots a pipeline reads are known before it runs
            stored = {float(t) for t in times} | {float(t_end)}
            need, t_from = spec.snapshots
            have = len([t for t in stored if t >= t_from - 1e-12])
            if have < need:
                raise ConfigError(f"pipeline {self.pipeline!r} reads {need} snapshots "
                                  f"from t = {t_from:g}, t_end included; "
                                  f"flow.snapshot_times gives {have}")
            errors = len([t for t in stored if t > 0.0])  # one per positive time
            if self.pipeline == "blowdown" and errors < MONOTONE_FROM + 2:
                raise ConfigError(f"the blow-down check compares its errors from "
                                  f"index {MONOTONE_FROM} on, so it needs "
                                  f"{MONOTONE_FROM + 2} positive times, t_end included; "
                                  f"flow.snapshot_times gives {errors}")
        for key, bound in spec.check.items():
            value = self.check[key]
            if isinstance(bound, list) and (len(value) != 2 or value[0] > value[1]):
                raise ConfigError(f"check.{key} must be [lo, hi] with lo <= hi, "
                                  f"got {value}")
        if "seeds" in self.mcf:
            check_seeds(self.mcf["seeds"], n, "mcf.seeds")
        for key, shapes, what in (("A", [(), (n, n)],
                                   f"a finite scalar or an {n} x {n} finite matrix"),
                                  ("b", [(n,)], f"a finite vector of length {n}")):
            if self.initial.get(key) is not None and _shape(self.initial[key]) not in shapes:
                raise ConfigError(f"initial.{key} must be {what}")
        if self.pipeline == "expander_stationarity" and n != 1:
            raise ConfigError("stationarity is checked on the line expander with "
                              f"u'(0) = slope0 != 0: it needs grid.n = 1, got n = {n}")
        if self.snapshot_format not in ("binary", "csv"):
            raise ConfigError("snapshot_format must be 'binary' or 'csv'")

    def domain(self):
        from .grid import BoxDomain
        return BoxDomain.from_dict({"n": 1, **self.grid})  # grid.n defaults to the line


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
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: a config is an object of keys, "
                              f"got {type(data).__name__}")
    if data.get("preset") is not None:
        data = merge(experiment_preset(data["preset"]), data)
    return ExperimentConfig.from_dict(data)
