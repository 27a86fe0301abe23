"""Strict experiment-configuration documents.

Configs are JSON mappings; unknown keys are rejected at every level so a
mistyped hyperparameter cannot silently fall back to a default, and every
run writes back a snapshot with all defaults materialised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .training import (
    AngleCurriculum,
    ConstantSchedule,
    EnvironmentSpec,
    LinearRampSchedule,
    StepSchedule,
    TrainConfig,
    default_lambda_schedule,
)

KNOWN_ANALYSES = (
    "group-report",
    "equivariance",
    "atlas",
    "project-2d",
    "dimension-usage",
    "angle-sweep",
)

_MISSING = object()


class ConfigError(Exception):
    """Invalid or malformed experiment configuration."""


class _Section:
    """Mapping view that tracks consumed keys and rejects leftovers."""

    def __init__(self, mapping, where: str):
        if not isinstance(mapping, dict):
            raise ConfigError(f"{where} must be a mapping, got {type(mapping).__name__}")
        self._map = mapping
        self._where = where
        self._taken: set[str] = set()

    def take(self, key: str, kind, default=_MISSING):
        self._taken.add(key)
        if key not in self._map:
            if default is _MISSING:
                raise ConfigError(f"missing required field '{key}' in {self._where}")
            return default
        value = self._map[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if kind is int and isinstance(value, bool):
            raise ConfigError(f"{self._where}.{key} must be an integer, got a boolean")
        if not isinstance(value, kind):
            raise ConfigError(
                f"{self._where}.{key} must be {getattr(kind, '__name__', kind)}, "
                f"got {type(value).__name__}"
            )
        return value

    def take_non_negative(self, key: str, default=_MISSING) -> float:
        """A float field that must be finite and >= 0 (a weight or an angle range)."""
        value = self.take(key, float, default)
        if not (np.isfinite(value) and value >= 0):
            raise ConfigError(f"{self._where}.{key} must be finite and >= 0, got {value!r}")
        return value

    def finish(self) -> None:
        unknown = sorted(set(self._map) - self._taken)
        if unknown:
            raise ConfigError(f"unknown key(s) in {self._where}: {', '.join(unknown)}")


def _parse_environment(doc) -> EnvironmentSpec:
    sec = _Section(doc, "environment")
    kind = sec.take("type", str)
    if kind == "torus":
        spec = EnvironmentSpec("torus", p=sec.take("p", int, 5))
    elif kind == "factor":
        spec = EnvironmentSpec(
            "factor", mixed=sec.take("mixed", bool, False), mix_seed=sec.take("mix_seed", int, 0)
        )
    elif kind == "sphere":
        spec = EnvironmentSpec("sphere")
    else:
        raise ConfigError(f"environment.type must be torus, factor or sphere, got {kind!r}")
    sec.finish()
    if spec.kind == "torus" and spec.p < 1:
        raise ConfigError(f"environment.p must be >= 1, got {spec.p}")
    if spec.mix_seed < 0:
        raise ConfigError(f"environment.mix_seed must be >= 0, got {spec.mix_seed}")
    return spec


def _parse_schedule(doc, total_steps: int):
    sec = _Section(doc, "lambda_schedule")
    kind = sec.take("kind", str)
    if kind == "constant":
        schedule = ConstantSchedule(sec.take_non_negative("value"))
    elif kind == "linear_ramp":
        default = default_lambda_schedule(total_steps)
        schedule = LinearRampSchedule(
            sec.take("start_step", int, default.start_step),
            sec.take("end_step", int, default.end_step),
            sec.take_non_negative("max_value", default.max_value),
        )
    elif kind == "step":
        switch_fraction = sec.take("switch_fraction", float, 0.5)
        if not np.isfinite(switch_fraction):
            raise ConfigError(f"lambda_schedule.switch_fraction must be finite, got {switch_fraction!r}")
        schedule = StepSchedule(
            switch_fraction,
            sec.take_non_negative("low"),
            sec.take_non_negative("high"),
        )
    else:
        raise ConfigError(f"lambda_schedule.kind must be constant, linear_ramp or step, got {kind!r}")
    sec.finish()
    return schedule


def _parse_curriculum(doc) -> AngleCurriculum:
    sec = _Section(doc, "curriculum")
    curriculum = AngleCurriculum(
        start_range=sec.take_non_negative("start_range", 2.0 * np.pi / 5.0),
        end_range=sec.take_non_negative("end_range", float(np.pi)),
    )
    sec.finish()
    return curriculum


@dataclass
class ExperimentConfig:
    """A training configuration plus experiment-level extras."""

    train: TrainConfig
    out_dir: str | None = None
    analyses: list[str] = field(default_factory=list)
    seeds: list[int] | None = None


def parse_experiment_config(doc: dict) -> ExperimentConfig:
    sec = _Section(doc, "config")
    env = _parse_environment(sec.take("environment", dict))
    n = sec.take("n", int)
    total_steps = sec.take("total_steps", int, 3000)
    schedule_doc = sec.take("lambda_schedule", dict, None)
    curriculum_doc = sec.take("curriculum", dict, None)
    train = TrainConfig(
        env=env,
        n=n,
        total_steps=total_steps,
        learning_rate=sec.take("learning_rate", float, 3e-3),
        m=sec.take("m", int, 5),
        batch_size=sec.take("batch_size", int, 16),
        lambda_schedule=(
            _parse_schedule(schedule_doc, total_steps)
            if schedule_doc is not None
            else default_lambda_schedule(total_steps)
        ),
        curriculum=(
            _parse_curriculum(curriculum_doc) if curriculum_doc is not None else AngleCurriculum()
        ),
        seed=sec.take("seed", int, 0),
        start=sec.take("start", str, "random"),
        model=sec.take("model", str, "structured"),
    )
    if train.model == "direct" and env.kind == "sphere":
        raise ConfigError("model 'direct' needs discrete actions; the sphere's are continuous")
    out_dir = sec.take("out_dir", str, None)
    analyses = sec.take("analyses", list, [])
    for a in analyses:
        if a not in KNOWN_ANALYSES:
            raise ConfigError(f"unknown analysis {a!r}; known: {', '.join(KNOWN_ANALYSES)}")
    seeds = sec.take("seeds", list, None)
    if seeds is not None:
        if not seeds:
            raise ConfigError("seeds must list at least one seed")
        for s in seeds:
            if not isinstance(s, int) or isinstance(s, bool) or s < 0:
                raise ConfigError(f"seeds must be non-negative integers, got {s!r}")
    sec.finish()
    return ExperimentConfig(train=train, out_dir=out_dir, analyses=list(analyses), seeds=seeds)


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory, or no permission to read
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    try:
        cfg = parse_experiment_config(doc)
    except ValueError as exc:  # TrainConfig invariant violations
        raise ConfigError(str(exc))
    return cfg


def _schedule_dict(schedule) -> dict:
    if isinstance(schedule, ConstantSchedule):
        return {"kind": "constant", "value": schedule.value}
    if isinstance(schedule, LinearRampSchedule):
        return {
            "kind": "linear_ramp",
            "start_step": schedule.start_step,
            "end_step": schedule.end_step,
            "max_value": schedule.max_value,
        }
    return {
        "kind": "step",
        "switch_fraction": schedule.switch_fraction,
        "low": schedule.low,
        "high": schedule.high,
    }


def _environment_dict(env: EnvironmentSpec) -> dict:
    if env.kind == "torus":
        return {"type": "torus", "p": env.p}
    if env.kind == "factor":
        return {"type": "factor", "mixed": env.mixed, "mix_seed": env.mix_seed}
    return {"type": "sphere"}


def resolved_config_dict(cfg: ExperimentConfig) -> dict:
    """The configuration with every default materialised; parses back identically."""
    t = cfg.train
    doc = {
        "environment": _environment_dict(t.env),
        "n": t.n,
        "total_steps": t.total_steps,
        "learning_rate": t.learning_rate,
        "m": t.m,
        "batch_size": t.batch_size,
        "lambda_schedule": _schedule_dict(t.lambda_schedule),
        "curriculum": {
            "start_range": t.curriculum.start_range,
            "end_range": t.curriculum.end_range,
        },
        "seed": t.seed,
        "start": t.start,
        "model": t.model,
        "analyses": list(cfg.analyses),
    }
    if cfg.out_dir is not None:
        doc["out_dir"] = cfg.out_dir
    if cfg.seeds is not None:
        doc["seeds"] = cfg.seeds
    return doc


def save_resolved_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(resolved_config_dict(cfg), indent=2) + "\n")
