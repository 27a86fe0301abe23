"""Output checks: each one tests a property the method must have, or compares
the program's result with one reached by an independent path (reference.py).

A check raises :class:`CheckFailed` with a message naming what differed and
by how much; it returns a short description of what it covered otherwise.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference as ref

SON_TOL = 1e-10  # |G^T G - I|_F and |det G - 1|
MATRIX_AGREE_TOL = 1e-12  # program matrix against the reference product, entrywise
SPHERE_OBS_TOL = 1e-9
DERIVATIVE_STEP = 1e-5
# Relative to the gradient norm, the largest value a directional derivative
# along a unit direction can take: a random direction's own derivative can
# come arbitrarily close to zero, which no tolerance relative to it survives.
DERIVATIVE_RTOL = 1e-7
HELDOUT_RTOL = 1e-9  # mean BCE per step, program against the reference forward pass
AGGREGATE_RTOL = 1e-12  # rollout_curve.csv against the recomputed mean and CI
AGGREGATE_ATOL = 1e-15  # for values that are zero, such as the CI of a single seed


class CheckFailed(AssertionError):
    """An output of the program that fails one of the benchmark's checks."""


def simulate(kind: str, p: int, start, actions) -> np.ndarray:
    """Reference observations of an episode given by its start state and actions."""
    if kind == "torus":
        return ref.torus_observations(p, start.row, start.col, actions)
    return ref.sphere_observations(start, actions)


def trajectories(kind: str, p: int, trajs) -> str:
    """Every observation equals the reference simulation from start state and actions.

    Exact for the torus, within SPHERE_OBS_TOL for the sphere.
    """
    if not trajs:
        raise CheckFailed("no trajectories were captured to check")
    worst = 0.0
    for index, traj in enumerate(trajs):
        want = simulate(kind, p, traj.start_state, traj.actions)
        if kind == "torus":
            if not np.array_equal(traj.observations, want):
                raise CheckFailed(f"torus trajectory {index}: observations differ from the simulation")
        else:
            diff = float(np.abs(traj.observations - want).max())
            worst = max(worst, diff)
            if not diff <= SPHERE_OBS_TOL:
                raise CheckFailed(f"sphere trajectory {index}: observation off by {diff:.3e}")
    return f"{len(trajs)} trajectories replayed (worst {worst:.1e})"


def special_orthogonal(program_mats, reference_mats) -> str:
    """Every matrix is in SO(n) and equals the reference ordered product."""
    worst_orth = worst_det = worst_agree = 0.0
    for index, (g, r) in enumerate(zip(program_mats, reference_mats, strict=True)):
        g = np.asarray(g, dtype=np.float64)
        orth = float(np.linalg.norm(g.T @ g - np.eye(g.shape[0])))
        det = abs(float(np.linalg.det(g)) - 1.0)
        agree = float(np.abs(g - r).max())
        if not (orth < SON_TOL and det < SON_TOL):
            raise CheckFailed(f"action matrix {index} is not in SO(n): |GtG-I|={orth:.2e}, |det-1|={det:.2e}")
        if not agree <= MATRIX_AGREE_TOL:
            raise CheckFailed(f"action matrix {index} differs from the reference product by {agree:.2e}")
        worst_orth, worst_det, worst_agree = max(worst_orth, orth), max(worst_det, det), max(worst_agree, agree)
    return f"{len(program_mats)} matrices in SO(n) (|GtG-I| {worst_orth:.1e}, |det-1| {worst_det:.1e}, vs reference {worst_agree:.1e})"


def directional_derivative(loss_of, params, rng: np.random.Generator) -> str:
    """The gradient of the training loss along a random unit direction matches a central difference.

    ``loss_of()`` builds the scalar loss Tensor from the parameters' current
    values.
    """
    directions = [rng.standard_normal(p.data.shape) for p in params]
    norm = math.sqrt(sum(float((d * d).sum()) for d in directions))
    directions = [d / norm for d in directions]
    originals = [p.data for p in params]
    for p in params:
        p.grad = None
    loss_of().backward()
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    grad_norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
    analytic = sum(float((g * d).sum()) for g, d in zip(grads, directions))

    def loss_at(t: float) -> float:
        for p, o, d in zip(params, originals, directions):
            p.data = o + t * d
        return loss_of().item()

    try:
        numeric = (loss_at(DERIVATIVE_STEP) - loss_at(-DERIVATIVE_STEP)) / (2.0 * DERIVATIVE_STEP)
    finally:
        for p, o in zip(params, originals):
            p.data = o
            p.grad = None
    gap = abs(analytic - numeric)
    if not gap <= DERIVATIVE_RTOL * grad_norm:
        raise CheckFailed(
            f"directional derivative {analytic:.10e} vs central difference {numeric:.10e} "
            f"(gradient norm {grad_norm:.3e})"
        )
    return f"d/dt loss {analytic:.6e}, gap {gap / grad_norm:.1e} of the gradient norm"


def reference_bce(weights: dict, kind: str, p: int, episodes, direct_actions: int | None = None) -> np.ndarray:
    """Per-trial, per-step BCE (trials, horizon) of the reference forward pass.

    ``episodes`` are (start state, actions) pairs; their observations come
    from the reference simulation, not from the program.
    """
    rows = []
    for start, actions in episodes:
        obs = simulate(kind, p, start, actions)
        if direct_actions is None:
            preds = ref.predict_structured(weights, obs[0], actions)
        else:
            preds = ref.predict_direct(weights, obs[0], actions, direct_actions)
        rows.append([ref.clipped_bce(pk, tk) for pk, tk in zip(preds, obs[1:])])
    return np.array(rows)


def bce_agrees(program_means, reference: np.ndarray, what: str) -> str:
    """Per-step mean BCE of the program equals the reference forward pass's."""
    want = reference.mean(axis=0)
    got = np.asarray(program_means, dtype=np.float64)
    rel = float((np.abs(got - want) / np.abs(want)).max())
    if not rel <= HELDOUT_RTOL:
        raise CheckFailed(f"{what}: program BCE {got.tolist()} vs reference {want.tolist()} (rel {rel:.1e})")
    return f"{what}: BCE per step agrees to {rel:.1e}"


def read_curve(path: Path) -> dict[tuple[str, int], tuple[float, float, float, float]]:
    """``rollout_curve.csv`` as {(model, step): (bce_mean, bce_ci, acc_mean, acc_ci)}."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[0] != "model,step,bce_mean,bce_ci95,accuracy_mean,accuracy_ci95":
        raise CheckFailed(f"{path.name}: unexpected header {lines[0]!r}")
    table = {}
    for line in lines[1:]:
        model, step, *values = line.split(",")
        table[(model, int(step))] = tuple(float(v) for v in values)
    return table


def _is_multiple(value: float, unit_count: int) -> bool:
    scaled = value * unit_count
    return abs(scaled - round(scaled)) <= 1e-9 * max(1.0, scaled)


def bench_aggregation(out: Path, seeds, horizon: int, trials: int, variants) -> str:
    """rollout_curve.csv equals the mean and CI recomputed from bench_seed_*.csv.

    Every BCE is finite and positive; every accuracy is a multiple of
    1 / trials (of 1 / (trials * seeds) for the means) in [0, 1].
    """
    per_seed = {s: ref.read_seed_csv(out / f"bench_seed_{s}.csv") for s in seeds}
    curve = read_curve(out / "rollout_curve.csv")
    expected_rows = {(v, k) for v in variants for k in range(1, horizon + 1)}
    if set(curve) != expected_rows:
        raise CheckFailed(f"rollout_curve.csv rows {sorted(curve)} are not {sorted(expected_rows)}")
    for s, table in per_seed.items():
        for v in variants:
            if set(table.get(v, {})) != set(range(1, horizon + 1)):
                raise CheckFailed(f"bench_seed_{s}.csv: steps of {v} are not 1..{horizon}")
            for k, (bce, acc) in table[v].items():
                if not (math.isfinite(bce) and bce > 0.0):
                    raise CheckFailed(f"bench_seed_{s}.csv {v} step {k}: BCE {bce!r}")
                if not (0.0 <= acc <= 1.0 and _is_multiple(acc, trials)):
                    raise CheckFailed(f"bench_seed_{s}.csv {v} step {k}: accuracy {acc!r} is not k/{trials}")
    worst = 0.0
    for (v, k), (bce_mean, bce_ci, acc_mean, acc_ci) in curve.items():
        bce_want = ref.mean_and_ci([per_seed[s][v][k][0] for s in seeds])
        acc_want = ref.mean_and_ci([per_seed[s][v][k][1] for s in seeds])
        for got, want, label in (
            (bce_mean, bce_want[0], "bce_mean"),
            (bce_ci, bce_want[1], "bce_ci95"),
            (acc_mean, acc_want[0], "accuracy_mean"),
            (acc_ci, acc_want[1], "accuracy_ci95"),
        ):
            gap = abs(got - want)
            if not gap <= AGGREGATE_RTOL * abs(want) + AGGREGATE_ATOL:
                raise CheckFailed(f"rollout_curve.csv {v} step {k} {label}: {got!r}, recomputed {want!r}")
            worst = max(worst, gap)
        if not (math.isfinite(bce_mean) and bce_mean > 0.0):
            raise CheckFailed(f"rollout_curve.csv {v} step {k}: BCE {bce_mean!r}")
        if not (0.0 <= acc_mean <= 1.0 and _is_multiple(acc_mean, trials * len(seeds))):
            raise CheckFailed(f"rollout_curve.csv {v} step {k}: accuracy {acc_mean!r} is not k/{trials * len(seeds)}")
    return f"{len(curve)} rows recomputed from {len(per_seed)} per-seed files (worst gap {worst:.1e})"
