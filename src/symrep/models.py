"""Learnable components: spherical encoder/decoder, action representations,
and the structureless direct-prediction baseline.

Encoders map observations onto the unit sphere in R^n through a single
64-unit rectified hidden layer; decoders mirror that architecture and emit
logits (probabilities materialise only inside losses and reports). Discrete
actions own a lookup table of rotation angles; continuous actions are mapped
to angles by a small network taking the raw (axis index, angle) pair.
The structured model's batched ``rollout`` serves both the training loss and
held-out prediction; the baseline is trained one step at a time and rolls out
by feeding its own predictions back in.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from . import rotations
from .environments import Trajectory, stack_batch
from .tensor import Tensor, as_tensor, concat, gather_rows, matmul, add, relu, normalize_to_sphere, no_grad, sigmoid

__all__ = [
    "Linear",
    "Encoder",
    "Decoder",
    "ActionTable",
    "ContinuousActionNet",
    "SymmetryModel",
    "DirectPredictor",
    "WeightsFormatError",
    "save_weights",
    "load_weights",
    "write_atomic",
]

WEIGHTS_MAGIC = b"SYMR"
WEIGHTS_VERSION = 1


class Linear:
    """Affine layer with uniform fan-in initialisation."""

    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int):
        bound = 1.0 / np.sqrt(in_dim)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(in_dim, out_dim)), requires_grad=True)
        self.bias = Tensor(rng.uniform(-bound, bound, size=out_dim), requires_grad=True)

    def __call__(self, x) -> Tensor:
        return add(matmul(x, self.weight), self.bias)

    def named_parameters(self, prefix: str):
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.bias", self.bias)]


class Encoder:
    """Observation -> unit-norm latent vector (single hidden layer, ReLU)."""

    def __init__(self, rng, obs_dim: int, latent_dim: int, hidden: int = 64):
        self.obs_dim = obs_dim
        self.latent_dim = latent_dim
        self.hidden = Linear(rng, obs_dim, hidden)
        self.output = Linear(rng, hidden, latent_dim)

    def __call__(self, obs) -> Tensor:
        obs = as_tensor(obs)
        if obs.shape[-1] != self.obs_dim:
            raise ValueError(
                f"encoder expects observations of dimension {self.obs_dim}, got shape {obs.shape}"
            )
        return normalize_to_sphere(self.output(relu(self.hidden(obs))))

    def named_parameters(self, prefix="encoder"):
        return self.hidden.named_parameters(f"{prefix}.hidden") + self.output.named_parameters(
            f"{prefix}.output"
        )


class Decoder:
    """Latent vector -> observation logits, mirroring the encoder."""

    def __init__(self, rng, latent_dim: int, obs_dim: int, hidden: int = 64):
        self.latent_dim = latent_dim
        self.obs_dim = obs_dim
        self.hidden = Linear(rng, latent_dim, hidden)
        self.output = Linear(rng, hidden, obs_dim)

    def __call__(self, z) -> Tensor:
        z = as_tensor(z)
        if z.shape[-1] != self.latent_dim:
            raise ValueError(
                f"decoder expects latents of dimension {self.latent_dim}, got shape {z.shape}"
            )
        return self.output(relu(self.hidden(z)))

    def named_parameters(self, prefix="decoder"):
        return self.hidden.named_parameters(f"{prefix}.hidden") + self.output.named_parameters(
            f"{prefix}.output"
        )


class ActionTable:
    """One learnable rotation-angle row per discrete action id."""

    def __init__(self, rng, num_actions: int, latent_dim: int, init_scale: float = 0.1):
        self.num_actions = num_actions
        self.latent_dim = latent_dim
        q = rotations.plane_count(latent_dim)
        self.angles = Tensor(
            rng.uniform(-init_scale, init_scale, size=(num_actions, q)), requires_grad=True
        )

    def angles_for(self, action_ids) -> Tensor:
        ids = np.asarray(action_ids)
        if not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"discrete action ids must be integers, got dtype {ids.dtype}")
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_actions):
            raise LookupError(f"unknown action id in {ids} (table has {self.num_actions} actions)")
        return gather_rows(self.angles, ids)

    def angle_row(self, action_id: int) -> np.ndarray:
        if not 0 <= action_id < self.num_actions:
            raise LookupError(f"unknown action id {action_id} (table has {self.num_actions})")
        return self.angles.data[action_id].copy()

    def all_angle_rows(self) -> np.ndarray:
        return self.angles.data.copy()

    def named_parameters(self, prefix="actions"):
        return [(f"{prefix}.angles", self.angles)]


class ContinuousActionNet:
    """(axis index, angle) -> rotation angles, one 32-unit rectified hidden layer.

    The axis enters as a raw scalar (0, 1 or 2) alongside the angle.
    """

    def __init__(self, rng, latent_dim: int, hidden: int = 32):
        self.latent_dim = latent_dim
        q = rotations.plane_count(latent_dim)
        self.hidden = Linear(rng, 2, hidden)
        self.output = Linear(rng, hidden, q)

    def angles_for(self, action_features) -> Tensor:
        feats = as_tensor(np.asarray(action_features, dtype=np.float64))
        if feats.shape[-1] != 2:
            raise ValueError(f"continuous actions are (axis, angle) pairs, got shape {feats.shape}")
        return self.output(relu(self.hidden(feats)))

    def named_parameters(self, prefix="actions"):
        return self.hidden.named_parameters(f"{prefix}.hidden") + self.output.named_parameters(
            f"{prefix}.output"
        )


class _Predictor:
    """What both model kinds share: multi-step prediction and weights as named arrays.

    Subclasses provide ``rollout(first_obs, actions) -> list[Tensor]`` and
    ``named_parameters()``.
    """

    def predict_sequence(self, trajectories) -> np.ndarray:
        """Predicted observation probabilities after each action.

        Shape (B, m, obs_dim) for a list of trajectories, (m, obs_dim) for a
        single :class:`Trajectory`. Each rollout starts from the trajectory's
        first observation and sees none of the later ones. No graph is
        recorded, so parameters get no gradient.
        """
        obs, actions = stack_batch(trajectories)
        with no_grad():
            step_logits = self.rollout(obs[:, 0], actions)
        probs = np.stack([sigmoid(logits.data) for logits in step_logits], axis=1)
        return probs[0] if isinstance(trajectories, Trajectory) else probs

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        _load_into(self.named_parameters(), state)


class SymmetryModel(_Predictor):
    """Encoder, decoder and the action representation learnt jointly.

    ``actions`` is an :class:`ActionTable` for discrete environments or a
    :class:`ContinuousActionNet` for continuous ones; either way, every
    action materialises as an orthogonal matrix acting on the latent sphere.
    """

    kind = "structured"

    def __init__(self, encoder: Encoder, decoder: Decoder, actions):
        self.encoder = encoder
        self.decoder = decoder
        self.actions = actions

    @classmethod
    def build(cls, rng, obs_dim: int, latent_dim: int, num_actions: int | None) -> "SymmetryModel":
        """num_actions None selects the continuous action network."""
        encoder = Encoder(rng, obs_dim, latent_dim)
        decoder = Decoder(rng, latent_dim, obs_dim)
        if num_actions is None:
            actions = ContinuousActionNet(rng, latent_dim)
        else:
            actions = ActionTable(rng, num_actions, latent_dim)
        return cls(encoder, decoder, actions)

    @property
    def n(self) -> int:
        return self.encoder.latent_dim

    @property
    def discrete(self) -> bool:
        return isinstance(self.actions, ActionTable)

    def encode(self, obs) -> Tensor:
        return self.encoder(obs)

    def decode(self, z) -> Tensor:
        return self.decoder(z)

    def action_angles(self, actions) -> Tensor:
        """Angle rows for a batch of action records (ids, or (axis, angle) rows)."""
        return self.actions.angles_for(actions)

    def action_matrix(self, action) -> np.ndarray:
        """Representation matrix of one action, for inspection (no gradients)."""
        if self.discrete:
            angles = self.actions.angle_row(int(action))
        else:
            angles = self.actions.angles_for(np.asarray(action, dtype=np.float64)).data
        return rotations.compose_representation(angles)

    def rollout(self, first_obs, actions) -> list[Tensor]:
        """Latent rollout: encode once, rotate by each action's matrix, decode after every step.

        ``first_obs`` is (B, obs_dim) and ``actions`` holds one row of m actions
        per trajectory: (B, m) ids, or (B, m, 2) (axis, angle) pairs. A discrete
        model composes each action's matrix once and gathers it per row; a
        continuous one composes a matrix per action instance. Returns the m
        step logits, each (B, obs_dim).
        """
        actions = np.asarray(actions)
        batch, m = actions.shape[:2]
        if self.discrete:
            mats = rotations.rotation_matrices(self.actions.angles)
            index = actions
        else:
            mats = rotations.rotation_matrices(self.action_angles(actions.reshape(batch * m, 2)))
            index = np.arange(batch * m).reshape(batch, m)
        z = self.encode(first_obs)
        step_logits = []
        for k in range(m):
            z = rotations.rotate_vectors(gather_rows(mats, index[:, k]), z)
            step_logits.append(self.decode(z))
        return step_logits

    def named_parameters(self):
        return (
            self.encoder.named_parameters()
            + self.decoder.named_parameters()
            + self.actions.named_parameters()
        )


class DirectPredictor(_Predictor):
    """Baseline that decodes the next observation from [latent, one-hot action].

    The latent is sphere-normalised like the structured model's, for a fair
    comparison. No transformation structure is assumed: at evaluation time
    the model re-encodes its own output at every step, so errors compound
    through repeated encode/decode round trips.
    """

    kind = "direct"

    def __init__(self, rng, obs_dim: int, num_actions: int, latent_dim: int = 4, hidden: int = 64):
        self.obs_dim = obs_dim
        self.num_actions = num_actions
        self.latent_dim = latent_dim
        self.encoder = Encoder(rng, obs_dim, latent_dim, hidden)
        self.decoder = Decoder(rng, latent_dim + num_actions, obs_dim, hidden)

    def _onehot(self, action_ids) -> np.ndarray:
        ids = np.asarray(action_ids)
        if not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(
                f"direct prediction supports discrete actions only, got dtype {ids.dtype}"
            )
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_actions):
            raise LookupError(f"unknown action id in {ids}")
        hot = np.zeros((ids.size, self.num_actions))
        hot[np.arange(ids.size), ids] = 1.0
        return hot

    def predict_logits(self, obs, action_ids) -> Tensor:
        """Next-observation logits for a batch of (observation, action id) pairs."""
        obs = as_tensor(obs)
        batched = obs.data.ndim == 2
        ids = np.atleast_1d(np.asarray(action_ids))
        z = self.encoder(obs)
        hot = self._onehot(ids)
        if batched:
            return self.decoder(concat([z, Tensor(hot)], axis=1))
        return self.decoder(concat([z, Tensor(hot[0])], axis=0))

    def rollout(self, first_obs, actions) -> list[Tensor]:
        """Iterated one-step prediction from (B, obs_dim) observations and (B, m) ids.

        Each step feeds its own probabilities back in, so no gradient flows
        between steps. Returns the m step logits, each (B, obs_dim).
        """
        actions = np.asarray(actions)
        obs, step_logits = first_obs, []
        for k in range(actions.shape[1]):
            step_logits.append(self.predict_logits(obs, actions[:, k]))
            obs = sigmoid(step_logits[-1].data)
        return step_logits

    def named_parameters(self):
        return self.encoder.named_parameters() + self.decoder.named_parameters()


def _load_into(named_params, state: dict[str, np.ndarray]) -> None:
    names = [name for name, _ in named_params]
    missing = [n for n in names if n not in state]
    extra = [n for n in state if n not in names]
    if missing or extra:
        raise WeightsFormatError(
            f"weights do not match this architecture (missing {missing}, unexpected {extra})"
        )
    for name, param in named_params:
        arr = np.asarray(state[name], dtype=np.float64)
        if arr.shape != param.data.shape:
            raise WeightsFormatError(
                f"shape mismatch for {name}: weights {arr.shape}, model {param.data.shape}"
            )
        param.data = arr.copy()


class WeightsFormatError(Exception):
    """Raised for unreadable weight files or architecture mismatches."""


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` by ``data`` through a temporary sibling and ``os.replace``.

    A reader, or a resumed run, sees the old file or the new one, never a
    partly written one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def save_weights(path, arrays: dict[str, np.ndarray]) -> None:
    """Versioned binary dump: magic, u32 version, then per-tensor records.

    Each record is u32 name length, utf-8 name, u32 rank, u32 dims,
    little-endian float64 values. The round trip is bit-exact, and the file
    is replaced atomically.
    """
    chunks = [WEIGHTS_MAGIC, struct.pack("<I", WEIGHTS_VERSION)]
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        chunks += [struct.pack("<I", len(encoded)), encoded, struct.pack("<I", arr.ndim)]
        chunks += [struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    write_atomic(path, b"".join(chunks))


def load_weights(path) -> dict[str, np.ndarray]:
    """Read a weights file; raises WeightsFormatError on any malformation."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != WEIGHTS_MAGIC:
        raise WeightsFormatError(
            f"{path.name}: bad magic bytes {blob[:4]!r}, expected {WEIGHTS_MAGIC!r}"
        )
    if len(blob) < 8:
        raise WeightsFormatError(f"{path.name}: truncated header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != WEIGHTS_VERSION:
        raise WeightsFormatError(f"{path.name}: unsupported format version {version}")
    arrays: dict[str, np.ndarray] = {}
    offset = 8

    def take(count: int) -> bytes:
        nonlocal offset
        if offset + count > len(blob):
            raise WeightsFormatError(f"{path.name}: truncated record at byte {offset}")
        chunk = blob[offset : offset + count]
        offset += count
        return chunk

    while offset < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        count = int(np.prod(dims)) if dims else 1
        values = np.frombuffer(take(8 * count), dtype="<f8").reshape(dims)
        arrays[name] = values.astype(np.float64)
    return arrays
