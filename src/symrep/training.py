"""Training loop: latent rollout reconstruction plus entanglement regularisation.

One training step generates a fresh batch of trajectories, encodes each
starting observation once, pushes the latent through the per-action rotation
matrices, decodes the latents of all steps in one batch, and scores them in
one binary cross-entropy against the true observations. The objective is the
batch-mean rollout loss, summed over steps, plus lambda times the
entanglement penalty; encoder, decoder and action parameters are updated
jointly by Adam.

Batch generation derives one RNG per (run seed, step, trajectory index), so
results are reproducible and independent of any parallel scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .environments import (
    FactorWorld,
    SphereWorld,
    TorusWorld,
    Trajectory,
    sample_trajectory,
    stack_batch,
    trajectory_rng,
)
from .models import DirectPredictor, SymmetryModel
from .optim import Adam
from .rotations import entanglement_penalty
from .tensor import Tensor, bce_with_logits, gather_rows, mul, reshape


class DivergenceError(RuntimeError):
    """Raised when the reconstruction loss stops being finite."""


@dataclass(frozen=True)
class EnvironmentSpec:
    kind: str  # "torus" | "factor" | "sphere"
    p: int = 5
    mixed: bool = False
    mix_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("torus", "factor", "sphere"):
            raise ValueError(f"unknown environment kind {self.kind!r}")

    def build(self):
        if self.kind == "torus":
            return TorusWorld(self.p)
        if self.kind == "factor":
            return FactorWorld(self.mixed, self.mix_seed)
        return SphereWorld()


@dataclass(frozen=True)
class ConstantSchedule:
    value: float


@dataclass(frozen=True)
class LinearRampSchedule:
    start_step: int
    end_step: int
    max_value: float


@dataclass(frozen=True)
class StepSchedule:
    switch_fraction: float
    low: float
    high: float


def lambda_at(schedule, step: int, total_steps: int) -> float:
    """Regularisation weight at a given optimisation step."""
    if isinstance(schedule, ConstantSchedule):
        return schedule.value
    if isinstance(schedule, LinearRampSchedule):
        span = max(schedule.end_step - schedule.start_step, 1)
        frac = (step - schedule.start_step) / span
        return schedule.max_value * float(np.clip(frac, 0.0, 1.0))
    if isinstance(schedule, StepSchedule):
        return schedule.low if step < schedule.switch_fraction * total_steps else schedule.high
    raise TypeError(f"unknown schedule {type(schedule).__name__}")


def default_lambda_schedule(total_steps: int) -> LinearRampSchedule:
    """Ramp to 0.1 over the first two thirds of training."""
    return LinearRampSchedule(0, max((2 * total_steps) // 3, 1), 0.1)


@dataclass(frozen=True)
class AngleCurriculum:
    """Sampling range for continuous rotation angles, widened linearly."""

    start_range: float = 2.0 * np.pi / 5.0
    end_range: float = np.pi


def curriculum_range(curriculum: AngleCurriculum, step: int, total_steps: int) -> tuple[float, float]:
    """Symmetric angle interval at a step; start range at step 0, end at the last."""
    if total_steps <= 1:
        frac = 0.0
    else:
        frac = float(np.clip(step / (total_steps - 1), 0.0, 1.0))
    r = curriculum.start_range + (curriculum.end_range - curriculum.start_range) * frac
    return (-r, r)


@dataclass
class TrainConfig:
    env: EnvironmentSpec
    n: int
    total_steps: int
    learning_rate: float = 3e-3
    m: int = 5
    batch_size: int = 16
    lambda_schedule: object = None  # defaults to the two-thirds ramp
    curriculum: AngleCurriculum = AngleCurriculum()
    seed: int = 0
    start: str = "random"  # "random" | "center"
    model: str = "structured"  # "structured" | "direct"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"latent dimension must be >= 2, got {self.n}")
        if self.m < 1:
            raise ValueError(f"rollout length must be >= 1, got {self.m}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {self.total_steps}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.start not in ("random", "center"):
            raise ValueError(f"start must be 'random' or 'center', got {self.start!r}")
        if self.model not in ("structured", "direct"):
            raise ValueError(f"model must be 'structured' or 'direct', got {self.model!r}")
        if self.lambda_schedule is None:
            self.lambda_schedule = default_lambda_schedule(self.total_steps)


@dataclass
class TrainReport:
    """Per-step loss records."""

    steps: list[int] = field(default_factory=list)
    l_rec: list[float] = field(default_factory=list)
    l_ent: list[float] = field(default_factory=list)
    lam: list[float] = field(default_factory=list)

    def record(self, step, l_rec, l_ent, lam):
        self.steps.append(step)
        self.l_rec.append(l_rec)
        self.l_ent.append(l_ent)
        self.lam.append(lam)

    @property
    def final_l_rec(self) -> float | None:
        return self.l_rec[-1] if self.l_rec else None

    @property
    def final_l_ent(self) -> float | None:
        return self.l_ent[-1] if self.l_ent else None

    def save_csv(self, path) -> None:
        """Write ``step,l_rec,l_ent,lambda,elapsed_ms``.

        The timing column stays empty, so that identical runs produce
        byte-identical files.
        """
        lines = ["step,l_rec,l_ent,lambda,elapsed_ms"]
        for i, step in enumerate(self.steps):
            lines.append(f"{step},{self.l_rec[i]!r},{self.l_ent[i]!r},{self.lam[i]!r},")
        Path(path).write_text("\n".join(lines) + "\n")


def _summed_bce(logits: Tensor, obs) -> Tensor:
    """Sum over steps k of the batch-mean BCE of logits[k] against obs[:, k + 1].

    One BCE over the (m, B, obs_dim) logits against a strided view of the
    targets: with equal-sized steps, the sum of the m step means is m times
    the overall mean.
    """
    m = logits.shape[0]
    return mul(bce_with_logits(logits, Tensor(obs[:, 1:].swapaxes(0, 1))), float(m))


def rollout_loss(model: SymmetryModel, trajectories):
    """Reconstruction loss of a latent rollout (batch mean, summed over steps).

    The first observation is encoded once; every subsequent step applies the
    action's rotation in latent space, and every intermediate reconstruction
    contributes a mean binary cross-entropy term. Returns the loss and the
    (m, B, obs_dim) logits.
    """
    obs, actions = stack_batch(trajectories)
    logits = model.rollout(obs[:, 0], actions)
    return _summed_bce(logits, obs), logits


def direct_prediction_loss(model: DirectPredictor, trajectories):
    """Teacher-forced one-step losses for the direct-prediction baseline.

    The m steps do not depend on each other, so they run as one batch of
    m * B (observation, action) rows, step-major. Returns the loss and the
    (m, B, obs_dim) logits.
    """
    obs, actions = stack_batch(trajectories)
    batch, m = actions.shape
    inputs = obs[:, :m].swapaxes(0, 1).reshape(m * batch, obs.shape[-1])
    logits = model.predict_logits(inputs, actions.T.ravel())
    logits = reshape(logits, (m, batch, obs.shape[-1]))
    return _summed_bce(logits, obs), logits


def batch_entanglement(model: SymmetryModel, trajectories) -> Tensor:
    """Entanglement penalty over the actions seen in a batch.

    Discrete models contribute one term per distinct action id present;
    continuous models contribute one term per action instance (each carries
    its own angles).
    """
    batch = [trajectories] if isinstance(trajectories, Trajectory) else trajectories
    actions = np.concatenate([t.actions for t in batch])  # stack_batch would copy the observations too
    if model.discrete:
        return entanglement_penalty(gather_rows(model.actions.angles, np.unique(actions)))
    return entanglement_penalty(model.action_angles(actions))


def total_loss(l_rec: Tensor, penalty: Tensor | None, lam: float) -> Tensor:
    """l_rec + lam * penalty; with lam == 0 the reconstruction loss is returned as is."""
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if lam == 0.0 or penalty is None:
        return l_rec
    return l_rec + mul(penalty, lam)


def build_model(config: TrainConfig, env=None):
    """Deterministic model construction; the same seed always gives the same init."""
    env = env if env is not None else config.env.build()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 0])))
    if config.model == "direct":
        if env.continuous:
            raise ValueError("direct-prediction baseline supports discrete environments only")
        return DirectPredictor(rng, env.observation_dim, env.num_actions, latent_dim=config.n)
    num_actions = None if env.continuous else env.num_actions
    return SymmetryModel.build(rng, env.observation_dim, config.n, num_actions)


def _batch_start(env, config: TrainConfig):
    return None if config.start == "random" else env.center_state()


def generate_batch(env, config: TrainConfig, step: int) -> list[Trajectory]:
    """Fresh on-the-fly batch for one optimisation step."""
    angle_range = None
    if env.continuous:
        angle_range = curriculum_range(config.curriculum, step, config.total_steps)
    start = _batch_start(env, config)
    return [
        sample_trajectory(env, trajectory_rng(config.seed, step, i), config.m, start, angle_range)
        for i in range(config.batch_size)
    ]


def train(config: TrainConfig):
    """Run the optimisation loop; returns (model, TrainReport).

    Fully deterministic for a fixed config and seed. Raises
    :class:`DivergenceError` as soon as the reconstruction loss is not
    finite, leaving the report rows collected so far intact.
    """
    env = config.env.build()
    model = build_model(config, env)
    opt = Adam(model.parameters(), config.learning_rate)
    report = TrainReport()
    for step in range(config.total_steps):
        batch = generate_batch(env, config, step)
        if config.model == "direct":
            l_rec, _ = direct_prediction_loss(model, batch)
            penalty = None
        else:
            l_rec, _ = rollout_loss(model, batch)
            penalty = batch_entanglement(model, batch)
        l_rec_value = l_rec.item()
        if not np.isfinite(l_rec_value):
            raise DivergenceError(
                f"reconstruction loss became {l_rec_value} at step {step} "
                f"(lr={config.learning_rate}, seed={config.seed}); try a lower "
                f"learning rate or another seed"
            )
        lam = lambda_at(config.lambda_schedule, step, config.total_steps)
        loss = total_loss(l_rec, penalty, lam)
        opt.zero_grad()
        loss.backward()
        opt.step()
        report.record(step, l_rec_value, penalty.item() if penalty is not None else 0.0, lam)
    return model, report
