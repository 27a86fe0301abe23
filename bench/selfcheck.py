#!/usr/bin/env python3
"""The benchmark's own tests: every output check passes on the program's
outputs and fails on a deliberately broken input.

    python3 bench/selfcheck.py

Run it from the root of a symrep checkout. It prints one PASS or FAIL line
per test, writes its files under ./bench_runs/selfcheck/ and exits 1 if
any test fails. It takes a few seconds.
"""

import dataclasses
import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

import checks
import reference as ref
from run import load_program, run_cli, training_loss

symrep = load_program()
from symrep.environments import SphereWorld, TorusWorld, sample_trajectory  # noqa: E402
from symrep.training import EnvironmentSpec, TrainConfig, build_model  # noqa: E402

WORKDIR = Path.cwd() / "bench_runs" / "selfcheck"


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def expect_failure(check, *args, **kwargs) -> None:
    try:
        check(*args, **kwargs)
    except (checks.CheckFailed, ref.WeightsError):
        return
    raise AssertionError(f"{check.__name__} accepted a broken input")


def torus_trajectories(count=20, m=8):
    env = TorusWorld(5)
    r = rng(1)
    return [sample_trajectory(env, r, m) for _ in range(count)]


def sphere_trajectories(count=10, m=5):
    env = SphereWorld()
    r = rng(2)
    return [sample_trajectory(env, r, m) for _ in range(count)]


def model_for(kind: str, n: int, model: str = "structured", seed: int = 3):
    cfg = TrainConfig(env=EnvironmentSpec(kind, p=5), n=n, total_steps=1, model=model, seed=seed)
    env = cfg.env.build()
    return cfg, env, build_model(cfg, env)


def episodes(trajs):
    return [(t.start_state, t.actions) for t in trajs]


def reversed_actions(weights: dict) -> dict:
    """The weights with every action's angles negated: each learnt rotation turned the other way."""
    broken = dict(weights)
    if "actions.angles" in broken:
        broken["actions.angles"] = -broken["actions.angles"]
    else:  # the continuous action net: negate its output layer
        broken["actions.output.weight"] = -broken["actions.output.weight"]
        broken["actions.output.bias"] = -broken["actions.output.bias"]
    return broken


def negated_gradient(loss_of):
    """A loss with the value of ``loss_of()`` whose backward pass gives the negated gradient."""

    def loss():
        value = loss_of()
        return 2.0 * value.item() - value

    return loss


def program_bce(model, trajs) -> np.ndarray:
    curve = []
    for traj in trajs:
        preds = model.predict_sequence(traj)
        curve.append([symrep.analysis.bce_probabilities(p, t) for p, t in zip(preds, traj.observations[1:])])
    return np.array(curve).mean(axis=0)


def test_torus_simulation():
    trajs = torus_trajectories()
    checks.trajectories("torus", 5, trajs)
    shifted = trajs[7].observations.copy()
    shifted[3] = np.roll(shifted[3], 1)  # the ball one cell further on
    broken = trajs[:7] + [dataclasses.replace(trajs[7], observations=shifted)] + trajs[8:]
    expect_failure(checks.trajectories, "torus", 5, broken)


def test_sphere_simulation():
    trajs = sphere_trajectories()
    checks.trajectories("sphere", 0, trajs)
    flipped = trajs[4].actions.copy()
    flipped[:, 1] *= -1.0  # every rotation turned the other way
    broken = trajs[:4] + [dataclasses.replace(trajs[4], actions=flipped)] + trajs[5:]
    expect_failure(checks.trajectories, "sphere", 0, broken)


def test_weights_reader():
    path = WORKDIR / "weights.symr"
    for kind, n in (("torus", 4), ("sphere", 3)):
        _, _, model = model_for(kind, n)
        state = model.state_dict()
        symrep.models.save_weights(path, state)
        read = ref.read_weights(path)
        assert list(read) == list(state), f"{kind}: names {list(read)}"
        for name, value in state.items():
            assert read[name].shape == value.shape and np.array_equal(read[name], value), name
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    expect_failure(ref.read_weights, path)
    path.write_bytes(b"SYMX" + blob[4:])
    expect_failure(ref.read_weights, path)


def test_forward_pass_torus():
    _, env, model = model_for("torus", 4)
    trajs = torus_trajectories(m=10)
    path = WORKDIR / "torus.symr"
    symrep.models.save_weights(path, model.state_dict())
    weights = ref.read_weights(path)
    program = program_bce(model, trajs)
    checks.bce_agrees(program, checks.reference_bce(weights, "torus", 5, episodes(trajs)), "torus")
    flipped = checks.reference_bce(reversed_actions(weights), "torus", 5, episodes(trajs))
    expect_failure(checks.bce_agrees, program, flipped, "torus")
    mats = [model.action_matrix(a) for a in range(env.num_actions)]
    checks.special_orthogonal(mats, [ref.action_matrix(row) for row in weights["actions.angles"]])
    reversed_rows = reversed_actions(weights)["actions.angles"]
    expect_failure(checks.special_orthogonal, mats, [ref.action_matrix(row) for row in reversed_rows])
    reflection = mats[0] @ np.diag([1.0, 1.0, 1.0, -1.0])
    expect_failure(checks.special_orthogonal, [reflection], [reflection])


def test_forward_pass_sphere():
    _, _, model = model_for("sphere", 3)
    trajs = sphere_trajectories()
    weights = model.state_dict()
    program = program_bce(model, trajs)
    checks.bce_agrees(program, checks.reference_bce(weights, "sphere", 0, episodes(trajs)), "sphere")
    flipped = checks.reference_bce(reversed_actions(weights), "sphere", 0, episodes(trajs))
    expect_failure(checks.bce_agrees, program, flipped, "sphere")
    pairs = [(axis, angle) for axis in range(3) for angle in (-2.5, -0.4, 1.1)]
    mats = [model.action_matrix(pair) for pair in pairs]
    checks.special_orthogonal(mats, [ref.action_matrix(ref.action_angles(weights, pair)) for pair in pairs])
    broken = reversed_actions(weights)
    expect_failure(checks.special_orthogonal, mats, [ref.action_matrix(ref.action_angles(broken, pair)) for pair in pairs])


def test_forward_pass_direct():
    _, env, model = model_for("torus", 4, model="direct")
    trajs = torus_trajectories(m=10)
    weights = model.state_dict()
    program = program_bce(model, trajs)
    checks.bce_agrees(program, checks.reference_bce(weights, "torus", 5, episodes(trajs), env.num_actions), "direct")
    shifted = [(start, (actions + 1) % 4) for start, actions in episodes(trajs)]
    expect_failure(checks.bce_agrees, program, checks.reference_bce(weights, "torus", 5, shifted, env.num_actions), "direct")


def test_directional_derivative():
    for kind, n, model_kind in (("torus", 4, "structured"), ("sphere", 3, "structured"), ("torus", 4, "direct")):
        cfg, _, model = model_for(kind, n, model_kind)
        cfg = dataclasses.replace(cfg, total_steps=10)
        trajs = (torus_trajectories if kind == "torus" else sphere_trajectories)(count=cfg.batch_size, m=cfg.m)
        loss = training_loss(symrep, model, cfg, trajs)
        checks.directional_derivative(loss, model.parameters(), rng(4))
        expect_failure(checks.directional_derivative, negated_gradient(loss), model.parameters(), rng(4))


def test_bench_aggregation():
    out = WORKDIR / "bench"
    config = WORKDIR / "bench.json"
    config.write_text(
        '{"environment": {"type": "torus", "p": 5}, "n": 4, "m": 4, "total_steps": 3, "start": "center"}\n'
    )
    run_cli(symrep, ["predict-bench", "--config", config, "--out", out, "--seeds", 3, "--horizon", 4, "--trials", 20])
    variants = ("regularised", "unregularised", "direct")
    checks.bench_aggregation(out, [0, 1, 2], 4, 20, variants)
    seed_csv = out / "bench_seed_1.csv"
    lines = seed_csv.read_text().splitlines()
    model, step, bce, acc = lines[5].split(",")
    lines[5] = ",".join([model, step, repr(float(bce) * 1.001), acc])
    seed_csv.write_text("\n".join(lines) + "\n")
    expect_failure(checks.bench_aggregation, out, [0, 1, 2], 4, 20, variants)


def main() -> int:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    failures = 0
    for name, test in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            test()
            print(f"PASS {name}")
        except Exception:  # report every test, then fail the run
            failures += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
