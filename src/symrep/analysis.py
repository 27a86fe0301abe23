"""Post-training verification and figure-data generation.

Everything here is read-only over a trained model: group-axiom residuals,
equivariance error, multi-step rollout error curves, latent atlases with 2D
projections, per-dimension usage scores, and sweeps of the continuous
action network. Outputs are plain data structures plus CSV writers; plotting
is left to external tools.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .environments import sample_trajectory, stack_batch
from .rotations import canonical_angles, plane_indices, rotation_matrices
from .tensor import no_grad, sigmoid

__all__ = [
    "GroupReport",
    "group_report",
    "EquivarianceStats",
    "equivariance_error",
    "RolloutCurve",
    "rollout_error_curve",
    "bce_probabilities",
    "latent_atlas",
    "sampled_latent_atlas",
    "ProjectionSpec",
    "project_2d",
    "DimensionUsage",
    "dimension_usage",
    "AngleSweep",
    "continuous_angle_sweep",
    "is_monotone",
]


def _frob(x: np.ndarray) -> float:
    return float(np.linalg.norm(x, ord="fro"))


@dataclass
class GroupReport:
    """Frobenius-norm residuals of the group axioms the environment implies."""

    inverse_residuals: dict[str, float]
    cyclicity_residuals: dict[str, float]
    cyclic_orders: dict[str, int]
    commutators: dict[tuple[str, str], float]

    def max_residual(self) -> float:
        values = (
            list(self.inverse_residuals.values())
            + list(self.cyclicity_residuals.values())
            + list(self.commutators.values())
        )
        return max(values) if values else 0.0

    def summary(self) -> str:
        lines = ["group axiom residuals (Frobenius norm)"]
        for name, r in self.inverse_residuals.items():
            lines.append(f"  inverse   {name:>8}: {r:.3e}")
        for name, r in self.cyclicity_residuals.items():
            lines.append(f"  cyclic^{self.cyclic_orders[name]}  {name:>8}: {r:.3e}")
        for (a, b), r in self.commutators.items():
            lines.append(f"  commute   {a:>8},{b:>8}: {r:.3e}")
        lines.append(f"  worst residual: {self.max_residual():.3e}")
        return "\n".join(lines)

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "action_a", "action_b", "order", "residual"])
            for name, r in self.inverse_residuals.items():
                writer.writerow(["inverse", name, "", "", repr(r)])
            for name, r in self.cyclicity_residuals.items():
                writer.writerow(["cyclicity", name, "", self.cyclic_orders[name], repr(r)])
            for (a, b), r in self.commutators.items():
                writer.writerow(["commutator", a, b, "", repr(r)])


def group_report(model, env) -> GroupReport:
    """Check learned matrices against the environment's known group structure.

    The environment supplies the inverse pairing and the cyclic order of each
    action; commutators are reported for every unordered action pair (both
    discrete worlds here are abelian, so all of them should vanish).
    """
    if env.continuous:
        raise ValueError("group_report requires a discrete environment")
    names = env.action_names
    mats = {a: model.action_matrix(a) for a in range(env.num_actions)}
    eye = np.eye(model.n)

    inverse = {}
    for a in range(env.num_actions):
        inv = env.inverse_action(a)
        inverse[names[a]] = _frob(mats[a] @ mats[inv] - eye)

    cyclicity = {}
    orders = {}
    for a in range(env.num_actions):
        k = env.action_order(a)
        orders[names[a]] = k
        cyclicity[names[a]] = _frob(np.linalg.matrix_power(mats[a], k) - eye)

    commutators = {}
    for a, b in combinations(range(env.num_actions), 2):
        commutators[(names[a], names[b])] = _frob(mats[a] @ mats[b] - mats[b] @ mats[a])

    return GroupReport(inverse, cyclicity, orders, commutators)


@dataclass
class EquivarianceStats:
    mean: float
    max: float
    pairs: int

    def save_csv(self, path) -> None:
        Path(path).write_text(
            "mean_error,max_error,pairs\n"
            f"{self.mean!r},{self.max!r},{self.pairs}\n"
        )


def equivariance_error(model, env, samples: int = 1000, seed: int = 0) -> EquivarianceStats:
    """|encode(step(s, a)) - g_a . encode(s)| over (state, action) pairs.

    Exhaustive for finite environments, sampled for continuous ones. Both
    encodings are unit vectors, so each error is at most 2.
    """
    if env.continuous:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 3])))
        pairs = [
            (env.random_state(rng), (int(rng.integers(0, 3)), float(rng.uniform(-np.pi, np.pi))))
            for _ in range(samples)
        ]
        z = _encode_states(model, env, np.stack([s for s, _ in pairs]))
        z_next = _encode_states(model, env, np.stack([env.step(s, a) for s, a in pairs]))
        with no_grad():
            g = rotation_matrices(model.action_angles([a for _, a in pairs])).data
        errors = np.linalg.norm(z_next - (g @ z[:, :, None])[:, :, 0], axis=1)
    else:
        errors = []
        states = env.all_states()
        encoded = {env.state_id(s): model.encode(env.observe(s)).data for s in states}
        mats = {a: model.action_matrix(a) for a in range(env.num_actions)}
        for s in states:
            z = encoded[env.state_id(s)]
            for a in range(env.num_actions):
                z_next = encoded[env.state_id(env.step(s, a))]
                errors.append(np.linalg.norm(z_next - mats[a] @ z))
        errors = np.array(errors)
    return EquivarianceStats(float(errors.mean()), float(errors.max()), len(errors))


def bce_probabilities(probs: np.ndarray, targets: np.ndarray) -> float | np.ndarray:
    """Mean binary cross-entropy of probabilities (clipped) against targets over the last axis."""
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    t = np.asarray(targets, dtype=np.float64)
    return -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)).mean(axis=-1)


@dataclass
class RolloutCurve:
    """Per-trial, per-step prediction errors for one model."""

    bce: np.ndarray  # (trials, horizon)
    accuracy: np.ndarray  # (trials, horizon), argmax match with the true observation

    @property
    def bce_mean(self) -> np.ndarray:
        return self.bce.mean(axis=0)

    @property
    def bce_ci(self) -> np.ndarray:
        return _ci_half_width(self.bce)

    @property
    def accuracy_mean(self) -> np.ndarray:
        return self.accuracy.mean(axis=0)

    @property
    def accuracy_ci(self) -> np.ndarray:
        return _ci_half_width(self.accuracy)


def _ci_half_width(values: np.ndarray) -> np.ndarray:
    """95% confidence half-width of the mean across the first axis."""
    count = values.shape[0]
    if count < 2:
        return np.zeros(values.shape[1])
    return 1.96 * values.std(axis=0, ddof=1) / np.sqrt(count)


# Held-out trials are scored in batches of at most this many observation
# entries (trials x horizon x obs_dim; at least one trial). That is fewer than
# a training batch of 16 trajectories holds on the 5x5 torus at m=10
# (16 x 11 x 25), so scoring never raises the peak memory that training sets,
# whatever the number of trials.
_EVAL_BATCH_ENTRIES = 1 << 12


def _encode_states(model, env, states: np.ndarray) -> np.ndarray:
    """Latent rows of a (k, 3, 3) stack of continuous states, without a graph.

    States are observed and encoded in stacked batches of at most
    ``_EVAL_BATCH_ENTRIES`` observation entries, so that a thousand states
    raise the peak memory no more than held-out scoring does.
    """
    chunk = max(1, _EVAL_BATCH_ENTRIES // env.observation_dim)
    with no_grad():
        batches = [states[lo : lo + chunk] for lo in range(0, len(states), chunk)]
        return np.concatenate([model.encode(env.observe(batch)).data for batch in batches])


def rollout_error_curve(
    named_models,
    env,
    horizon: int,
    trials: int,
    seed: int = 0,
    start: str = "center",
    angle_range=None,
) -> dict[str, RolloutCurve]:
    """Prediction error per rollout step for several models on shared episodes.

    ``named_models`` is a list of (name, model) pairs; each model must expose
    ``predict_sequence(trajectories) -> (trials, horizon, obs_dim)``
    probabilities. Every trial draws one random action sequence from the
    start state and evaluates all models on it, so the comparison is paired.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 2])))
    start_state = env.center_state() if start == "center" else None
    chunk = max(1, _EVAL_BATCH_ENTRIES // (horizon * env.observation_dim))
    bce = {name: np.empty((trials, horizon)) for name, _ in named_models}
    acc = {name: np.empty((trials, horizon)) for name, _ in named_models}
    for lo in range(0, trials, chunk):
        batch = [
            sample_trajectory(env, rng, horizon, start_state, angle_range)
            for _ in range(min(chunk, trials - lo))
        ]
        truth = stack_batch(batch)[0][:, 1:]
        rows = slice(lo, lo + len(batch))
        for name, model in named_models:
            preds = model.predict_sequence(batch)
            bce[name][rows] = bce_probabilities(preds, truth)
            acc[name][rows] = np.argmax(preds, axis=-1) == np.argmax(truth, axis=-1)
    return {name: RolloutCurve(bce[name], acc[name]) for name in bce}


def latent_atlas(model, env) -> list[tuple[str, np.ndarray]]:
    """Encode every state of a finite environment once."""
    if env.continuous:
        raise ValueError(
            "latent_atlas enumerates states and needs a finite environment; "
            "use sampled_latent_atlas for continuous ones"
        )
    return [(env.state_id(s), model.encode(env.observe(s)).data.copy()) for s in env.all_states()]


def sampled_latent_atlas(model, env, count: int = 500, seed: int = 0) -> list[tuple[str, np.ndarray]]:
    """Latent table over randomly sampled states of a continuous environment."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 4])))
    states = np.stack([env.random_state(rng) for _ in range(count)])
    return [(str(i), z) for i, z in enumerate(_encode_states(model, env, states))]


def save_atlas_csv(atlas, path) -> None:
    n = len(atlas[0][1]) if atlas else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state"] + [f"z{i}" for i in range(n)])
        for state_id, z in atlas:
            writer.writerow([state_id] + [repr(float(v)) for v in z])


@dataclass(frozen=True)
class ProjectionSpec:
    """Two orthonormal latent directions spanning a 2D viewing plane."""

    e1: np.ndarray
    e2: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        for v in (self.e1, self.e2):
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise ValueError("projection directions must be unit norm")
        if abs(float(self.e1 @ self.e2)) > 1e-12:
            raise ValueError("projection directions must be orthogonal")

    @classmethod
    def from_seed(cls, n: int, seed: int) -> "ProjectionSpec":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 5])))
        q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
        return cls(q[:, 0].copy(), q[:, 1].copy(), seed)


def project_2d(atlas, spec: ProjectionSpec) -> list[tuple[str, float, float]]:
    """Inner products of each latent with the plane directions."""
    return [(sid, float(z @ spec.e1), float(z @ spec.e2)) for sid, z in atlas]


def save_projection_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "u", "v"])
        for sid, u, v in rows:
            writer.writerow([sid, repr(u), repr(v)])


@dataclass
class DimensionUsage:
    """Largest wrapped angle magnitude touching each latent dimension."""

    scores: np.ndarray  # (n,), indexed by dimension - 1
    threshold: float

    @property
    def used_dimensions(self) -> list[int]:
        return [d + 1 for d in range(len(self.scores)) if self.scores[d] >= self.threshold]

    @property
    def used_count(self) -> int:
        return len(self.used_dimensions)

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dimension", "score", "used"])
            for d, score in enumerate(self.scores, start=1):
                writer.writerow([d, repr(float(score)), str(score >= self.threshold).lower()])


def dimension_usage(model, threshold: float = 0.05) -> DimensionUsage:
    """Which latent dimensions any action actually rotates.

    A dimension's score is the largest wrapped-angle magnitude over all
    actions and all planes containing it; dimensions scoring under the
    threshold are considered unused.
    """
    if not getattr(model, "discrete", False):
        raise ValueError("dimension_usage needs a discrete action table")
    rows = np.abs(canonical_angles(model.actions.all_angle_rows()))
    n = model.n
    scores = np.zeros(n)
    for k, (i, j) in enumerate(plane_indices(n)):
        peak = rows[:, k].max() if rows.size else 0.0
        scores[i - 1] = max(scores[i - 1], peak)
        scores[j - 1] = max(scores[j - 1], peak)
    return DimensionUsage(scores, threshold)


@dataclass
class AngleSweep:
    """Continuous action network outputs over an input-angle grid, per axis."""

    grid: np.ndarray  # (points,)
    thetas: dict[int, np.ndarray]  # axis -> (points, q)

    def max_abs(self, axis: int) -> np.ndarray:
        return np.abs(self.thetas[axis]).max(axis=0)

    def mean_abs(self, axis: int) -> np.ndarray:
        return np.abs(self.thetas[axis]).mean(axis=0)

    def dominant_component(self, axis: int) -> int:
        return int(np.argmax(self.max_abs(axis)))

    def dominant_values(self, axis: int, lo: float = -np.inf, hi: float = np.inf) -> np.ndarray:
        mask = (self.grid >= lo) & (self.grid <= hi)
        return self.thetas[axis][mask, self.dominant_component(axis)]

    def save_csv(self, path, n: int) -> None:
        planes = plane_indices(n)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["axis", "angle"] + [f"theta_{i}_{j}" for i, j in planes])
            for axis in sorted(self.thetas):
                for angle, row in zip(self.grid, self.thetas[axis]):
                    writer.writerow([axis, repr(float(angle))] + [repr(float(v)) for v in row])


def continuous_angle_sweep(model, grid=None, axes=(0, 1, 2)) -> AngleSweep:
    """Evaluate the continuous action network on an angle grid for each axis."""
    if getattr(model, "discrete", True):
        raise ValueError("continuous_angle_sweep needs a continuous action network")
    grid = np.linspace(-np.pi, np.pi, 41) if grid is None else np.asarray(grid, dtype=np.float64)
    thetas = {}
    for axis in axes:
        feats = np.stack([np.full_like(grid, float(axis)), grid], axis=1)
        thetas[int(axis)] = model.actions.angles_for(feats).data.copy()
    return AngleSweep(grid, thetas)


def is_monotone(values, tol: float = 1e-9) -> bool:
    """True when the sequence never moves against its overall direction."""
    diffs = np.diff(np.asarray(values, dtype=np.float64))
    return bool(np.all(diffs >= -tol) or np.all(diffs <= tol))
