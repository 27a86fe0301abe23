"""Reference computations for the benchmark's output checks.

Nothing here imports symrep. Each function re-derives, from the behaviour
the README documents, what the program should produce: the torus and sphere
worlds, the ``weights.symr`` layout, the model's forward pass and the
per-seed aggregation of ``predict-bench``. A check that compares the program
with these functions therefore compares two results reached by independent
paths. Where the program uses matrix products, these functions apply the
same maps in another order (planar rotations one by one to a vector,
Rodrigues' formula for the sphere), so a sign slip on either side shows.
"""

from __future__ import annotations

import itertools
import math
import struct

import numpy as np

# ----------------------------------------------------------------- worlds

# Torus actions in id order: up and down move the row, left and right the column.
TORUS_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))


def torus_observations(p: int, row: int, col: int, actions) -> np.ndarray:
    """One-hot observations (m + 1, p * p) of a walk on the p x p torus.

    The cell (r, c) is index r * p + c, and both coordinates wrap modulo p.
    """
    cells = [(row % p, col % p)]
    for action in actions:
        dr, dc = TORUS_MOVES[int(action)]
        r, c = cells[-1]
        cells.append(((r + dr) % p, (c + dc) % p))
    obs = np.zeros((len(cells), p * p))
    for k, (r, c) in enumerate(cells):
        obs[k, r * p + c] = 1.0
    return obs


SPHERE_GRID = 10
SPHERE_AXES = np.eye(3)


def _voxel_centres() -> np.ndarray:
    """Centres of the 10^3 voxels tiling [-1, 1]^3; x varies slowest, z fastest."""
    width = 2.0 / SPHERE_GRID
    ticks = [-1.0 + width * (i + 0.5) for i in range(SPHERE_GRID)]
    return np.array(list(itertools.product(ticks, ticks, ticks)))


VOXEL_CENTRES = _voxel_centres()
VOXEL_SIGMA = 2.0 / SPHERE_GRID


def rodrigues(vector: np.ndarray, axis: int, angle: float) -> np.ndarray:
    """Right-handed rotation of a 3-vector about a coordinate axis by Rodrigues' formula."""
    k = SPHERE_AXES[axis]
    return (
        vector * math.cos(angle)
        + np.cross(k, vector) * math.sin(angle)
        + k * float(k @ vector) * (1.0 - math.cos(angle))
    )


def sphere_density(position: np.ndarray) -> np.ndarray:
    """Gaussian density of a ball at ``position`` over the voxel centres, peak 1."""
    d2 = ((VOXEL_CENTRES - position) ** 2).sum(axis=1)
    density = np.exp(-d2 / (2.0 * VOXEL_SIGMA**2))
    return density / density.max()


def sphere_observations(orientation: np.ndarray, actions) -> np.ndarray:
    """Observations (m + 1, 1000) of the ball that starts at orientation . (0, 0, 1).

    Each action is an (axis, angle) row rotating the ball's position about
    the x, y or z axis.
    """
    position = np.asarray(orientation, dtype=np.float64)[:, 2].copy()
    frames = [sphere_density(position)]
    for axis, angle in np.asarray(actions, dtype=np.float64):
        position = rodrigues(position, int(axis), float(angle))
        frames.append(sphere_density(position))
    return np.stack(frames)


# ---------------------------------------------------------------- weights

class WeightsError(ValueError):
    """A ``weights.symr`` file that does not follow the documented layout."""


def read_weights(path) -> dict[str, np.ndarray]:
    """Parse ``weights.symr``: magic ``SYMR``, u32 version 1, then records.

    A record is a u32 name length, the utf-8 name, a u32 rank, rank u32
    dimensions and the float64 values, all little-endian.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"SYMR":
        raise WeightsError(f"bad magic {blob[:4]!r}")
    pos = 4

    def take(size: int) -> bytes:
        nonlocal pos
        if pos + size > len(blob):
            raise WeightsError(f"truncated at byte {pos}")
        chunk = blob[pos : pos + size]
        pos += size
        return chunk

    (version,) = struct.unpack("<I", take(4))
    if version != 1:
        raise WeightsError(f"unknown version {version}")
    arrays = {}
    while pos < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        count = math.prod(dims)
        arrays[name] = np.frombuffer(take(8 * count), dtype="<f8").reshape(dims).astype(np.float64)
    return arrays


# ----------------------------------------------------------- forward pass

def planes(n: int) -> list[tuple[int, int]]:
    """Rotation planes (i, j), 0-based, i < j, in lexicographic product order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def latent_dim(q: int) -> int:
    n = 2
    while n * (n - 1) // 2 < q:
        n += 1
    if n * (n - 1) // 2 != q:
        raise ValueError(f"{q} angles fill no SO(n)")
    return n


def rotate(angles: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Apply g(angles) = R_1 R_2 ... R_q to the columns of ``vectors`` (n, k).

    R_k rotates plane (i, j) with +sin above the diagonal: it maps
    (v_i, v_j) to (c v_i + s v_j, -s v_i + c v_j). The rightmost factor acts
    first.
    """
    out = np.array(vectors, dtype=np.float64, copy=True)
    pairs = planes(out.shape[0])
    for k in reversed(range(len(pairs))):
        i, j = pairs[k]
        c, s = math.cos(angles[k]), math.sin(angles[k])
        vi, vj = out[i].copy(), out[j].copy()
        out[i] = c * vi + s * vj
        out[j] = -s * vi + c * vj
    return out


def action_matrix(angles: np.ndarray) -> np.ndarray:
    n = latent_dim(len(angles))
    return rotate(angles, np.eye(n))


def _mlp(w: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    hidden = np.maximum(x @ w[f"{prefix}.hidden.weight"] + w[f"{prefix}.hidden.bias"], 0.0)
    return hidden @ w[f"{prefix}.output.weight"] + w[f"{prefix}.output.bias"]


def encode(w: dict, obs: np.ndarray) -> np.ndarray:
    """Encoder MLP followed by projection onto the unit sphere."""
    z = _mlp(w, "encoder", obs)
    return z / np.sqrt((z * z).sum())


def logistic(x: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -x))


def action_angles(w: dict, action) -> np.ndarray:
    """Angle row of one action: a table row, or the continuous net on (axis, angle)."""
    if "actions.angles" in w:
        return w["actions.angles"][int(action)]
    return _mlp(w, "actions", np.asarray(action, dtype=np.float64))


def predict_structured(w: dict, obs0: np.ndarray, actions) -> np.ndarray:
    """Latent rollout: encode once, rotate per action, decode every step."""
    z = encode(w, obs0)[:, None]
    preds = []
    for action in actions:
        z = rotate(action_angles(w, action), z)
        preds.append(logistic(_mlp(w, "decoder", z[:, 0])))
    return np.stack(preds)


def predict_direct(w: dict, obs0: np.ndarray, actions, num_actions: int) -> np.ndarray:
    """Direct baseline: re-encode its own prediction before every step."""
    obs = obs0
    preds = []
    for action in actions:
        onehot = np.zeros(num_actions)
        onehot[int(action)] = 1.0
        obs = logistic(_mlp(w, "decoder", np.concatenate([encode(w, obs), onehot])))
        preds.append(obs)
    return np.stack(preds)


def clipped_bce(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy with probabilities clipped to [1e-12, 1 - 1e-12]."""
    p = np.minimum(np.maximum(probs, 1e-12), 1.0 - 1e-12)
    return float(np.mean(-(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))))


# ------------------------------------------------------------ aggregation

def read_seed_csv(path) -> dict[str, dict[int, tuple[float, float]]]:
    """``model,step,bce,accuracy`` rows as {model: {step: (bce, accuracy)}}."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[0] != "model,step,bce,accuracy":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    table: dict[str, dict[int, tuple[float, float]]] = {}
    for line in lines[1:]:
        model, step, bce, acc = line.split(",")
        table.setdefault(model, {})[int(step)] = (float(bce), float(acc))
    return table


def mean_and_ci(values: list[float]) -> tuple[float, float]:
    """Mean and 95% half-width 1.96 * s / sqrt(n), s with n - 1; zero for one value."""
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    s = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    return mean, 1.96 * s / math.sqrt(n)
