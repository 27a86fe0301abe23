"""Synthetic symmetric environments and trajectory sampling.

Three worlds, each a group acting on a small state space:

* ``TorusWorld``: a ball on a p x p periodic grid, four step actions,
  one-hot observations of length p^2.
* ``FactorWorld``: two independent cyclic factors of order five driven by
  eight actions (six stepping the first factor, two the second); one-hot or
  orthogonally mixed observations of length 25.
* ``SphereWorld``: a ball on the unit sphere moved by continuous axis
  rotations; observations are a 10x10x10 voxel density grid.

States are value objects and the step functions are pure, so sampling for
different seeds can run concurrently.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TorusState",
    "FactorState",
    "TorusWorld",
    "FactorWorld",
    "SphereWorld",
    "Trajectory",
    "stack_batch",
    "sample_trajectory",
    "trajectory_rng",
    "save_trajectories",
    "load_trajectories",
]


@dataclass(frozen=True)
class TorusState:
    row: int
    col: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "row", self.row % self.p)
        object.__setattr__(self, "col", self.col % self.p)


@dataclass(frozen=True)
class FactorState:
    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "a", self.a % 5)
        object.__setattr__(self, "b", self.b % 5)


def _haar_rotation(rng: np.random.Generator, n: int = 3) -> np.ndarray:
    """Random rotation matrix (det +1) from the QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


class TorusWorld:
    """Ball on a p x p grid with periodic boundaries; symmetry group C_p x C_p.

    Convention: "up" decrements the row index (any consistent choice yields
    the same group), "right" increments the column index.
    """

    action_names = ("up", "down", "left", "right")
    continuous = False

    def __init__(self, p: int):
        if p < 1:
            raise ValueError(f"grid periodicity must be >= 1, got {p}")
        self.p = p

    @property
    def num_actions(self) -> int:
        return 4

    @property
    def observation_dim(self) -> int:
        return self.p * self.p

    def step(self, state: TorusState, action: int) -> TorusState:
        dr, dc = ((-1, 0), (1, 0), (0, -1), (0, 1))[action]
        return TorusState(state.row + dr, state.col + dc, self.p)

    def observe(self, state: TorusState) -> np.ndarray:
        obs = np.zeros(self.observation_dim)
        obs[state.row * self.p + state.col] = 1.0
        return obs

    def all_states(self):
        return [TorusState(r, c, self.p) for r in range(self.p) for c in range(self.p)]

    def state_id(self, state: TorusState) -> str:
        return f"{state.row},{state.col}"

    def random_state(self, rng: np.random.Generator) -> TorusState:
        return TorusState(int(rng.integers(self.p)), int(rng.integers(self.p)), self.p)

    def center_state(self) -> TorusState:
        return TorusState(self.p // 2, self.p // 2, self.p)

    def inverse_action(self, action: int) -> int:
        return action ^ 1  # up<->down, left<->right

    def action_order(self, action: int) -> int:
        return self.p


class FactorWorld:
    """Two independent order-5 cyclic factors.

    Six actions step the first factor (three aliases per direction, mirroring
    rotation controls about three axes that all advance the same cycle) and
    two step the second. Observations are one-hot over the 25 joint states,
    optionally mixed through a fixed seeded orthogonal matrix and rescaled
    to [0, 1].
    """

    action_names = ("x+", "x-", "y+", "y-", "z+", "z-", "color+", "color-")
    continuous = False

    def __init__(self, mixed: bool = False, mix_seed: int = 0):
        self.mixed = mixed
        self.mix_seed = mix_seed
        if mixed:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([mix_seed])))
            mix = _haar_rotation(rng, 25)
            lo, hi = mix.min(), mix.max()
            self._obs_table = (mix - lo) / (hi - lo)  # column idx = observation of state idx
        else:
            self._obs_table = np.eye(25)

    @property
    def num_actions(self) -> int:
        return 8

    @property
    def observation_dim(self) -> int:
        return 25

    def step(self, state: FactorState, action: int) -> FactorState:
        delta = 1 if action % 2 == 0 else -1
        if action < 6:
            return FactorState(state.a + delta, state.b)
        return FactorState(state.a, state.b + delta)

    def observe(self, state: FactorState) -> np.ndarray:
        return self._obs_table[:, state.a * 5 + state.b].copy()

    def all_states(self):
        return [FactorState(a, b) for a in range(5) for b in range(5)]

    def state_id(self, state: FactorState) -> str:
        return f"{state.a},{state.b}"

    def random_state(self, rng: np.random.Generator) -> FactorState:
        return FactorState(int(rng.integers(5)), int(rng.integers(5)))

    def center_state(self) -> FactorState:
        return FactorState(0, 0)

    def inverse_action(self, action: int) -> int:
        return action ^ 1

    def action_order(self, action: int) -> int:
        return 5

    def is_first_factor(self, action: int) -> bool:
        return action < 6


class SphereWorld:
    """Ball on the unit sphere, rotated continuously about the x, y, z axes.

    The state is the full orientation matrix; observations depend only on
    the ball position (orientation applied to the reference pole (0, 0, 1)),
    encoded as Gaussian densities over a 10x10x10 voxel grid covering
    [-1, 1]^3, peak-normalised to 1. The voxel centres are kept as a (3, D)
    array, one contiguous row per axis, so the distance sums run along D.
    """

    continuous = True
    grid = 10

    def __init__(self):
        width = 2.0 / self.grid
        centers_1d = -1.0 + width * (np.arange(self.grid) + 0.5)
        xs, ys, zs = np.meshgrid(centers_1d, centers_1d, centers_1d, indexing="ij")
        self._centers = np.stack([xs.ravel(), ys.ravel(), zs.ravel()])
        self._sigma = width  # one voxel width
        self.reference = np.array([0.0, 0.0, 1.0])

    @property
    def observation_dim(self) -> int:
        return self.grid**3

    @staticmethod
    def axis_rotation(axis: int, angle: float) -> np.ndarray:
        c, s = np.cos(angle), np.sin(angle)
        if axis == 0:
            return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)
        if axis == 1:
            return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)
        if axis == 2:
            return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")

    def step(self, orientation: np.ndarray, action) -> np.ndarray:
        axis, angle = action
        out = self.axis_rotation(int(axis), float(angle)) @ orientation
        drift = np.abs(out.T @ out - np.eye(3)).max()
        if drift > 1e-12:
            q, r = np.linalg.qr(out)
            out = q * np.sign(np.diag(r))
        return out

    def observe(self, orientation: np.ndarray) -> np.ndarray:
        """Density grid (D,) of one orientation (3, 3), or (k, D) of a stack (k, 3, 3).

        Each row is normalised by its own peak; a stacked row equals the
        single-state observation bit for bit.
        """
        center = orientation @ self.reference
        d2 = ((self._centers - center[..., :, None]) ** 2).sum(axis=-2)
        density = np.exp(-d2 / (2.0 * self._sigma**2))
        return density / density.max(axis=-1, keepdims=True)

    def center_state(self) -> np.ndarray:
        return np.eye(3)

    def random_state(self, rng: np.random.Generator) -> np.ndarray:
        return _haar_rotation(rng, 3)


@dataclass
class Trajectory:
    """Observations (m+1, D) and the m actions taken between them.

    Actions are an int array of ids for discrete worlds, or an (m, 2) float
    array of (axis, angle) rows for the sphere. The start state is kept for
    replay checks; it is not serialised.
    """

    observations: np.ndarray
    actions: np.ndarray
    start_state: object = None

    @property
    def m(self) -> int:
        return len(self.actions)


def stack_batch(trajectories) -> tuple[np.ndarray, np.ndarray]:
    """Observations (B, m+1, D) and actions (B, m) or (B, m, 2) of equal-length trajectories.

    A single :class:`Trajectory` is a batch of one.
    """
    batch = [trajectories] if isinstance(trajectories, Trajectory) else list(trajectories)
    if not batch:
        raise ValueError("empty trajectory batch")
    if len({t.m for t in batch}) != 1:
        raise ValueError("all trajectories in a batch must share the same length")
    return np.stack([t.observations for t in batch]), np.stack([t.actions for t in batch])


def trajectory_rng(seed: int, step: int, index: int) -> np.random.Generator:
    """Deterministic per-trajectory generator from (run seed, step, index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1, step, index])))


def sample_trajectory(env, rng: np.random.Generator, m: int, start=None, angle_range=None) -> Trajectory:
    """Roll m uniformly random actions from ``start`` (random when omitted).

    For the sphere, axes are uniform over {0, 1, 2} and angles uniform over
    ``angle_range`` (defaults to [-pi, pi]), and the m+1 states are observed
    in one stacked call.
    """
    if m < 1:
        raise ValueError(f"trajectory length must be >= 1, got {m}")
    states = [env.random_state(rng) if start is None else start]
    if env.continuous:
        lo, hi = angle_range if angle_range is not None else (-np.pi, np.pi)
        axes = rng.integers(0, 3, size=m)
        angles = rng.uniform(lo, hi, size=m)
        actions = np.stack([axes.astype(float), angles], axis=1)
        steps = [(int(a), float(t)) for a, t in actions]
    else:
        actions = rng.integers(0, env.num_actions, size=m)
        steps = [int(a) for a in actions]
    for action in steps:
        states.append(env.step(states[-1], action))
    if env.continuous:
        observations = env.observe(np.stack(states))
    else:
        observations = np.stack([env.observe(s) for s in states])
    return Trajectory(observations, np.asarray(actions), states[0])


def save_trajectories(
    csv_path, trajectories, env, environment: dict, seed=None, meta_path=None
) -> None:
    """Write trajectories as CSV rows ``step,action_id,axis,angle,obs...``.

    A new trajectory begins whenever the step column resets to zero; fields
    that do not apply to the environment kind are left empty. The sidecar
    JSON records ``environment`` (the config's mapping that builds ``env``),
    the sampling seed and the shape, which is enough to regenerate the exact
    dataset.
    """
    csv_path = Path(csv_path)
    meta_path = Path(meta_path) if meta_path else csv_path.with_suffix(".meta.json")
    dim = env.observation_dim
    header = ["step", "action_id", "axis", "angle"] + [f"obs{i}" for i in range(dim)]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for traj in trajectories:
            for k, obs in enumerate(traj.observations):
                if k < traj.m:
                    if env.continuous:
                        action_fields = ["", repr(float(traj.actions[k, 0])), repr(float(traj.actions[k, 1]))]
                    else:
                        action_fields = [str(int(traj.actions[k])), "", ""]
                else:
                    action_fields = ["", "", ""]
                writer.writerow([str(k)] + action_fields + [repr(float(v)) for v in obs])
    meta = {
        "environment": environment,
        "seed": seed,
        "trajectory_count": len(trajectories),
        "steps_per_trajectory": trajectories[0].m if trajectories else 0,
        "observation_dim": dim,
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_trajectories(csv_path, meta_path=None):
    """Read back a trajectory CSV; returns (trajectories, metadata dict)."""
    csv_path = Path(csv_path)
    meta_path = Path(meta_path) if meta_path else csv_path.with_suffix(".meta.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    continuous = meta["environment"]["type"] == "sphere"
    trajectories = []
    obs_rows: list[np.ndarray] = []
    act_rows: list = []

    def flush():
        if obs_rows:
            acts = np.asarray(act_rows, dtype=float if continuous else np.int64)
            trajectories.append(Trajectory(np.stack(obs_rows), acts))

    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        for row in reader:
            step = int(row[0])
            if step == 0:
                flush()
                obs_rows, act_rows = [], []
            obs_rows.append(np.array([float(v) for v in row[4:]]))
            if continuous and row[2] != "":
                act_rows.append([float(row[2]), float(row[3])])
            elif not continuous and row[1] != "":
                act_rows.append(int(row[1]))
    flush()
    return trajectories, meta
