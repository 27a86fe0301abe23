"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Training-based criteria allow best-of-3 seeds; the first seed whose run
satisfies the criterion's predicate is kept and re-used by the dependent
checks. Run with ``pytest tests/test_acceptance.py -v -s`` to watch the
per-criterion lines appear.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from symrep import analysis
from symrep.cli import main
from symrep.environments import TorusWorld, sample_trajectory, trajectory_rng
from symrep.models import SymmetryModel, load_weights, save_weights
from symrep.rotations import (
    canonical_angles,
    compose_representation,
    entanglement_penalty,
    plane_count,
    plane_indices,
    rotation_matrices,
)
from symrep.tensor import (
    Tensor,
    bce_with_logits,
    finite_diff_check,
    matmul,
    mul,
    normalize_to_sphere,
    relu,
    sigmoid,
)
from symrep.training import (
    ConstantSchedule,
    EnvironmentSpec,
    LinearRampSchedule,
    StepSchedule,
    TrainConfig,
    rollout_loss,
    total_loss,
    train,
)

SEED_CANDIDATES = (0, 1, 2)

TORUS5 = TrainConfig(
    env=EnvironmentSpec("torus", p=5), n=4, m=5, batch_size=16,
    total_steps=2500, learning_rate=3e-3,
)
TORUS10 = dataclasses.replace(TORUS5, env=EnvironmentSpec("torus", p=10), total_steps=7000)
TORUS10_N5 = dataclasses.replace(TORUS10, n=5)
TORUS10_N6 = dataclasses.replace(TORUS10, n=6)
FACTOR_BASE = TrainConfig(
    env=EnvironmentSpec("factor"), n=5, m=5, batch_size=16,
    total_steps=8000, learning_rate=5e-3,
    lambda_schedule=StepSchedule(0.6, 0.01, 1.0),
)
FACTOR_N4 = dataclasses.replace(FACTOR_BASE, n=4)
SPHERE = TrainConfig(
    env=EnvironmentSpec("sphere"), n=3, m=5, batch_size=16,
    total_steps=6000, learning_rate=3e-3,
    lambda_schedule=LinearRampSchedule(0, 4000, 0.02),
)

BENCH_SEEDS = 20
BENCH_HORIZON = 10
BENCH_TRIALS = 100


def _report(criterion: str, passed: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def best_of_seeds(base: TrainConfig, predicate, seeds=SEED_CANDIDATES):
    """Train with each candidate seed until the predicate passes."""
    last = None
    for seed in seeds:
        cfg = dataclasses.replace(base, seed=seed)
        model, report = train(cfg)
        ok, detail = predicate(model, report, cfg)
        last = {"model": model, "report": report, "cfg": cfg, "ok": ok, "detail": detail, "seed": seed}
        if ok:
            break
    return last


def dominant_planes(model):
    """Per action: (plane, wrapped dominant angle)."""
    rows = canonical_angles(model.actions.all_angle_rows())
    planes = plane_indices(model.n)
    out = []
    for row in rows:
        k = int(np.argmax(np.abs(row)))
        out.append((planes[k], float(row[k])))
    return out


def torus_predicate(p: int):
    target = 2.0 * np.pi / p

    def check(model, report, cfg):
        problems = []
        if report.final_l_ent >= 1e-2:
            problems.append(f"l_ent {report.final_l_ent:.2e} >= 1e-2")
        doms = dominant_planes(model)
        for name, (plane, angle) in zip(("up", "down", "left", "right"), doms):
            if abs(abs(angle) - target) > 0.05:
                problems.append(f"{name} angle {angle:+.3f} not within 0.05 of 2pi/{p}")
        vertical = {doms[0][0], doms[1][0]}
        horizontal = {doms[2][0], doms[3][0]}
        if len(vertical) != 1 or len(horizontal) != 1:
            problems.append(f"planes not shared: {doms}")
        elif set(doms[0][0]) & set(doms[2][0]):
            problems.append(f"planes not disjoint: {doms}")
        if p == 10:
            # the regularised p=10 run additionally shows pi/5 within 0.02
            # and residual angles under 0.02
            rows = canonical_angles(model.actions.all_angle_rows())
            for name, row in zip(("up", "down", "left", "right"), rows):
                k = int(np.argmax(np.abs(row)))
                rest = np.delete(np.abs(row), k)
                if abs(abs(row[k]) - np.pi / 5) > 0.02 or rest.max() >= 0.02:
                    problems.append(f"{name} angles not clean: {np.round(row, 3)}")
        env = cfg.env.build()
        residual = analysis.group_report(model, env).max_residual()
        if residual >= 0.05:
            problems.append(f"group residual {residual:.3f} >= 0.05")
        eq = analysis.equivariance_error(model, env)
        if eq.mean >= 0.1:
            problems.append(f"equivariance mean {eq.mean:.3f} >= 0.1")
        return not problems, "; ".join(problems) or f"seed ok, l_ent={report.final_l_ent:.2e}"

    return check


@pytest.fixture(scope="session")
def torus5_run():
    return best_of_seeds(TORUS5, torus_predicate(5))


@pytest.fixture(scope="session")
def torus10_run():
    return best_of_seeds(TORUS10, torus_predicate(10))


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(0)
    worst = 0.0

    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 3))
    worst = max(worst, finite_diff_check(lambda x: matmul(x, Tensor(b)).sum(), a))
    worst = max(worst, finite_diff_check(lambda x: relu(x).sum(), rng.standard_normal(8) + 0.1))
    worst = max(worst, finite_diff_check(lambda x: normalize_to_sphere(x).mean(), rng.standard_normal(5)))
    t = rng.uniform(0, 1, 10)
    worst = max(worst, finite_diff_check(lambda x: bce_with_logits(x, Tensor(t)), rng.standard_normal(10)))

    upstream = rng.standard_normal((4, 4))
    angles = rng.uniform(-2, 2, plane_count(4))
    worst = max(
        worst, finite_diff_check(lambda th: mul(rotation_matrices(th), Tensor(upstream)).sum(), angles)
    )
    rows = rng.uniform(-1, 1, (3, 6))
    worst = max(worst, finite_diff_check(lambda th: entanglement_penalty(th), rows, step=1e-6))
    primitives_ok = worst < 1e-5

    # full pipeline on a micro instance: torus p=2, n=2, m=2
    env = TorusWorld(2)
    model = SymmetryModel.build(
        np.random.Generator(np.random.PCG64(3)), env.observation_dim, 2, env.num_actions
    )
    traj = sample_trajectory(env, trajectory_rng(2, 0, 0), m=2)

    def pipeline(angles_tensor):
        model.actions.angles = angles_tensor
        return total_loss(
            rollout_loss(model, traj)[0], entanglement_penalty(model.actions.angles), 0.05
        )

    pipeline_err = finite_diff_check(pipeline, model.actions.angles.data.copy())
    _report(
        "criterion 1 gradient correctness",
        primitives_ok and pipeline_err < 1e-4,
        f"primitives {worst:.2e} < 1e-5, pipeline {pipeline_err:.2e} < 1e-4",
    )


def test_criterion_2_structural_son_guarantee():
    rng = np.random.default_rng(1)
    worst_orth, worst_det = 0.0, 0.0
    for trial in range(1000):
        n = 2 + trial % 5
        g = compose_representation(rng.uniform(-np.pi, np.pi, plane_count(n)))
        worst_orth = max(worst_orth, np.linalg.norm(g.T @ g - np.eye(n), ord="fro"))
        worst_det = max(worst_det, abs(np.linalg.det(g) - 1.0))
    _report(
        "criterion 2 structural SO(n)",
        worst_orth < 1e-10 and worst_det <= 1e-10,
        f"1000 draws, orth {worst_orth:.2e}, det dev {worst_det:.2e}",
    )


def test_criterion_3_torus_disentanglement(torus5_run, torus10_run):
    problems = []
    for label, run, p in (("p=5", torus5_run, 5), ("p=10", torus10_run, 10)):
        if not run["ok"]:
            problems.append(f"{label}: {run['detail']}")
            continue
        # autoencoder recovery over every state
        env = run["cfg"].env.build()
        model = run["model"]
        hits = 0
        for s in env.all_states():
            obs = env.observe(s)
            probs = sigmoid(model.decode(model.encode(obs)).data)
            hits += int(np.argmax(probs) == np.argmax(obs))
        if hits / (p * p) < 0.99:
            problems.append(f"{label}: reconstruction recovery {hits}/{p * p}")
        atlas = analysis.latent_atlas(model, env)
        zs = np.stack([z for _, z in atlas])
        dists = np.linalg.norm(zs[:, None, :] - zs[None, :, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        if dists.min() <= 0.01:
            problems.append(f"{label}: latent collapse, min distance {dists.min():.4f}")
    _report(
        "criterion 3 torus disentanglement",
        not problems,
        "; ".join(problems)
        or f"p=5 seed {torus5_run['seed']}, p=10 seed {torus10_run['seed']}",
    )


def test_criterion_4_group_axioms(torus5_run, torus10_run):
    problems = []
    for label, run in (("p=5", torus5_run), ("p=10", torus10_run)):
        if not run["ok"]:
            problems.append(f"{label}: underlying run failed ({run['detail']})")
            continue
        report = analysis.group_report(run["model"], run["cfg"].env.build())
        if report.max_residual() >= 0.05:
            problems.append(f"{label}: worst residual {report.max_residual():.3f}")
    _report("criterion 4 group axioms", not problems, "; ".join(problems) or "all residuals < 0.05")


def _usage_predicate(model, report, cfg):
    usage = analysis.dimension_usage(model)
    ok = usage.used_count == 4 and report.final_l_ent < 1e-2
    return ok, f"used={usage.used_dimensions}, l_ent={report.final_l_ent:.2e}"


def test_criterion_5_superfluous_dimension_collapse():
    n5 = best_of_seeds(TORUS10_N5, _usage_predicate)
    n6 = best_of_seeds(TORUS10_N6, _usage_predicate)
    _report(
        "criterion 5 superfluous dimensions",
        n5["ok"] and n6["ok"],
        f"n=5 {n5['detail']} (seed {n5['seed']}); n=6 {n6['detail']} (seed {n6['seed']})",
    )


def _factor_predicate(model, report, cfg):
    problems = []
    if report.final_l_ent >= 1e-2:
        problems.append(f"l_ent {report.final_l_ent:.2e}")
    doms = dominant_planes(model)
    target = 2.0 * np.pi / 5.0
    for name, (plane, angle) in zip(
        ("x+", "x-", "y+", "y-", "z+", "z-", "color+", "color-"), doms
    ):
        if abs(abs(angle) - target) > 0.05:
            problems.append(f"{name} angle {angle:+.3f}")
    first = {doms[a][0] for a in range(6)}
    second = {doms[a][0] for a in range(6, 8)}
    if len(first) != 1 or len(second) != 1:
        problems.append(f"planes not shared within factors: {doms}")
    elif set(next(iter(first))) & set(next(iter(second))):
        problems.append(f"factor planes overlap: {first} vs {second}")
    return not problems, "; ".join(problems) or "disjoint planes at 2pi/5"


def test_criterion_6_factor_world_disentanglement():
    n5 = best_of_seeds(FACTOR_BASE, _factor_predicate)
    n4 = best_of_seeds(FACTOR_N4, _factor_predicate)
    _report(
        "criterion 6 factor world",
        n5["ok"] and n4["ok"],
        f"n=5 {n5['detail']} (seed {n5['seed']}); n=4 {n4['detail']} (seed {n4['seed']})",
    )


def _sphere_predicate(model, report, cfg):
    sweep = analysis.continuous_angle_sweep(model, grid=np.linspace(-np.pi, np.pi, 41))
    problems = []
    for axis in (0, 1, 2):
        above = np.where(sweep.max_abs(axis) > 0.1)[0]
        if len(above) != 1:
            problems.append(f"axis {axis}: {len(above)} components over 0.1 rad")
            continue
        dom = sweep.dominant_component(axis)
        off = np.delete(sweep.mean_abs(axis), dom)
        if np.any(off >= 0.05):
            problems.append(f"axis {axis}: off-plane mean {off.max():.3f} >= 0.05")
        if not analysis.is_monotone(sweep.dominant_values(axis, -np.pi / 2, np.pi / 2), tol=1e-6):
            problems.append(f"axis {axis}: dominant component not monotone")
    return not problems, "; ".join(problems) or "one active component per axis"


def test_criterion_7_lie_group_mapping():
    run = best_of_seeds(SPHERE, _sphere_predicate)
    _report("criterion 7 Lie-group mapping", run["ok"], f"{run['detail']} (seed {run['seed']})")


def test_criterion_8_multi_step_prediction_ordering(tmp_path, monkeypatch):
    config = {
        "environment": {"type": "torus", "p": 5},
        "n": 4,
        "m": 10,
        "batch_size": 16,
        "total_steps": 1600,
        "learning_rate": 0.003,
        "lambda_schedule": {"kind": "linear_ramp", "start_step": 0, "end_step": 500, "max_value": 0.1},
        "start": "center",
        "seed": 0,
    }
    cfg_path = tmp_path / "bench_config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "bench"
    monkeypatch.setenv("SYMR_THREADS", os.environ.get("SYMR_THREADS", "2"))
    code = main(
        [
            "predict-bench",
            "--config", str(cfg_path),
            "--out", str(out),
            "--seeds", str(BENCH_SEEDS),
            "--horizon", str(BENCH_HORIZON),
            "--trials", str(BENCH_TRIALS),
        ]
    )
    assert code == 0

    rows = {}
    for line in (out / "rollout_curve.csv").read_text().splitlines()[1:]:
        name, step, bce_mean, bce_ci, acc_mean, acc_ci = line.split(",")
        rows[(name, int(step))] = (float(bce_mean), float(bce_ci), float(acc_mean))

    h = BENCH_HORIZON
    reg, reg_ci, reg_acc = rows[("regularised", h)]
    unreg, _, _ = rows[("unregularised", h)]
    direct, direct_ci, direct_acc = rows[("direct", h)]
    direct_acc1 = rows[("direct", 1)][2]

    ordering = reg < unreg < direct
    separation = (direct - reg) > (reg_ci + direct_ci)
    one_step_ok = direct_acc1 >= 0.95
    degradation = direct_acc < rows[("regularised", h)][2]
    _report(
        "criterion 8 prediction ordering",
        ordering and separation and one_step_ok and degradation,
        f"h={h}: reg {reg:.4f}±{reg_ci:.4f} < unreg {unreg:.4f} < direct {direct:.4f}±{direct_ci:.4f}; "
        f"direct 1-step acc {direct_acc1:.3f}",
    )


def test_criterion_9_equivariance(torus5_run):
    if not torus5_run["ok"]:
        _report("criterion 9 equivariance", False, torus5_run["detail"])
    stats = analysis.equivariance_error(torus5_run["model"], torus5_run["cfg"].env.build())
    _report(
        "criterion 9 equivariance",
        stats.mean < 0.1 and stats.pairs == 100,
        f"mean {stats.mean:.4f} over {stats.pairs} pairs",
    )


def test_criterion_10_determinism_and_persistence(tmp_path):
    config = {
        "environment": {"type": "torus", "p": 3},
        "n": 3,
        "m": 3,
        "batch_size": 4,
        "total_steps": 8,
        "learning_rate": 0.003,
        "seed": 11,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    reports_identical = (
        (outs[0] / "train_report.csv").read_bytes() == (outs[1] / "train_report.csv").read_bytes()
    )
    weights_identical = (
        (outs[0] / "weights.symr").read_bytes() == (outs[1] / "weights.symr").read_bytes()
    )

    state = load_weights(outs[0] / "weights.symr")
    rt_path = tmp_path / "roundtrip.symr"
    save_weights(rt_path, state)
    round_trip = rt_path.read_bytes() == (outs[0] / "weights.symr").read_bytes()
    _report(
        "criterion 10 determinism and persistence",
        reports_identical and weights_identical and round_trip,
        "byte-identical reports and weights; bit-exact round trip",
    )
