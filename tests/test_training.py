import tracemalloc

import numpy as np
import pytest

from symrep.environments import (
    SphereWorld,
    TorusWorld,
    Trajectory,
    sample_trajectory,
    stack_batch,
    trajectory_rng,
)
from symrep.models import DirectPredictor, SymmetryModel
from symrep.rotations import entanglement_penalty, rotate_vectors, rotation_matrices
from symrep.tensor import Tensor, bce_with_logits, finite_diff_check
from symrep.training import (
    AngleCurriculum,
    ConstantSchedule,
    DivergenceError,
    EnvironmentSpec,
    LinearRampSchedule,
    StepSchedule,
    TrainConfig,
    batch_entanglement,
    build_model,
    curriculum_range,
    direct_prediction_loss,
    generate_batch,
    lambda_at,
    rollout_loss,
    total_loss,
    train,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestSchedules:
    def test_constant(self):
        for step in (0, 17, 9999):
            assert lambda_at(ConstantSchedule(0.01), step, 10000) == 0.01

    def test_linear_ramp_endpoints_and_midpoint(self):
        sched = LinearRampSchedule(0, 10000, 0.1)
        assert lambda_at(sched, 0, 15000) == 0.0
        assert lambda_at(sched, 5000, 15000) == pytest.approx(0.05)
        assert lambda_at(sched, 10000, 15000) == pytest.approx(0.1)
        assert lambda_at(sched, 14000, 15000) == pytest.approx(0.1)

    def test_step_schedule_switches_at_fraction(self):
        sched = StepSchedule(0.5, 0.001, 0.7)
        total = 1000
        assert lambda_at(sched, 489, total) == 0.001
        assert lambda_at(sched, 500, total) == 0.7

    def test_curriculum_endpoints(self):
        cur = AngleCurriculum()
        lo, hi = curriculum_range(cur, 0, 5000)
        assert (lo, hi) == pytest.approx((-2 * np.pi / 5, 2 * np.pi / 5))
        lo, hi = curriculum_range(cur, 4999, 5000)
        assert (lo, hi) == pytest.approx((-np.pi, np.pi))

    def test_curriculum_width_is_nondecreasing(self):
        cur = AngleCurriculum()
        widths = [curriculum_range(cur, s, 100)[1] for s in range(100)]
        assert np.all(np.diff(widths) >= 0)


class TestLosses:
    def test_identity_actions_scale_single_step_loss(self):
        env = TorusWorld(3)
        model = SymmetryModel.build(rng(0), env.observation_dim, 4, env.num_actions)
        model.actions.angles.data[:] = 0.0  # all representations are the identity
        obs = env.observe(env.center_state())
        m = 4
        traj = Trajectory(np.tile(obs, (m + 1, 1)), np.zeros(m, dtype=np.int64))
        l_rec, _ = rollout_loss(model, traj)
        single = bce_with_logits(model.decode(model.encode(Tensor(obs[None, :]))), Tensor(obs[None, :]))
        assert l_rec.item() == pytest.approx(m * single.item(), rel=1e-12)

    def test_m_equals_one_is_one_step_prediction(self):
        env = TorusWorld(3)
        model = SymmetryModel.build(rng(1), env.observation_dim, 3, env.num_actions)
        traj = sample_trajectory(env, trajectory_rng(0, 0, 0), m=1)
        l_rec, logits = rollout_loss(model, traj)
        assert logits.shape == (1, 1, env.observation_dim)
        assert np.isfinite(l_rec.item())

    def test_rollout_gradient_wrt_angles_finite_diff(self):
        env = TorusWorld(3)
        model = SymmetryModel.build(rng(2), env.observation_dim, 3, env.num_actions)
        traj = sample_trajectory(env, trajectory_rng(1, 0, 0), m=2)

        def f(angles):
            model.actions.angles = angles
            loss, _ = rollout_loss(model, traj)
            return loss

        err = finite_diff_check(f, model.actions.angles.data.copy())
        assert err < 1e-4

    def test_micro_instance_full_gradient_finite_diff(self):
        """End-to-end gradient through every parameter group on a tiny setup."""
        env = TorusWorld(2)
        model = SymmetryModel.build(rng(3), env.observation_dim, 2, env.num_actions)
        traj = sample_trajectory(env, trajectory_rng(2, 0, 0), m=2)

        def loss_value() -> float:
            return total_loss(
                rollout_loss(model, traj)[0],
                entanglement_penalty(model.actions.angles),
                0.05,
            ).item()

        for p in model.parameters():
            p.grad = None
        loss = total_loss(
            rollout_loss(model, traj)[0], entanglement_penalty(model.actions.angles), 0.05
        )
        loss.backward()
        step = 1e-5
        for p in model.parameters():
            analytic = p.grad.ravel()
            base = p.data.copy()
            worst = 0.0
            for j in range(base.size):
                p.data.flat[j] = base.flat[j] + step
                lp = loss_value()
                p.data.flat[j] = base.flat[j] - step
                lm = loss_value()
                p.data.flat[j] = base.flat[j]
                numeric = (lp - lm) / (2 * step)
                worst = max(worst, abs(analytic[j] - numeric) / (abs(analytic[j]) + 1e-10))
            assert worst < 1e-4

    def test_total_loss_identities(self):
        l_rec = Tensor(np.array(1.0))
        penalty = Tensor(np.array(0.05))
        assert total_loss(l_rec, penalty, 0.0) is l_rec
        assert total_loss(l_rec, None, 0.7) is l_rec
        assert total_loss(l_rec, penalty, 2.0).item() == pytest.approx(1.1, abs=1e-15)

        zero_penalty = Tensor(np.array(0.0))
        assert total_loss(l_rec, zero_penalty, 5.0).item() == l_rec.item()

    def test_total_loss_monotone_in_lambda(self):
        l_rec = Tensor(np.array(0.8))
        penalty = Tensor(np.array(0.3))
        values = [total_loss(l_rec, penalty, lam).item() for lam in (0.0, 0.1, 0.5, 2.0)]
        assert np.all(np.diff(values) > 0)

    def test_total_loss_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            total_loss(Tensor(np.array(1.0)), Tensor(np.array(0.0)), -0.1)

    def test_batch_entanglement_covers_only_seen_actions(self):
        env = TorusWorld(3)
        model = SymmetryModel.build(rng(4), env.observation_dim, 3, env.num_actions)
        obs = np.stack([env.observe(env.center_state())] * 3)
        traj = Trajectory(obs, np.array([0, 0], dtype=np.int64))  # only action 0 appears
        penalty = batch_entanglement(model, traj)
        model.actions.angles.grad = None
        penalty.backward()
        grads = model.actions.angles.grad
        assert np.any(grads[0] != 0.0)
        assert np.all(grads[1:] == 0.0)


class TestBatchedLossesMatchPerStepLoop:
    """One decoder pass and one BCE per rollout against the per-step loop they replaced."""

    @staticmethod
    def per_step_loss(model, trajs):
        """Sum over steps of each step's own decode and batch-mean BCE."""
        obs, actions = stack_batch(trajs)
        terms = []
        if model.kind == "direct":
            for k in range(actions.shape[1]):
                logits = model.predict_logits(obs[:, k], actions[:, k])
                terms.append(bce_with_logits(logits, Tensor(obs[:, k + 1])))
        else:
            z = model.encode(obs[:, 0])
            for k in range(actions.shape[1]):
                z = rotate_vectors(rotation_matrices(model.action_angles(actions[:, k])), z)
                terms.append(bce_with_logits(model.decode(z), Tensor(obs[:, k + 1])))
        return sum(terms[1:], terms[0])

    @staticmethod
    def value_and_grads(model, loss_fn):
        for p in model.parameters():
            p.grad = None
        loss = loss_fn()
        loss.backward()
        return loss.item(), [p.grad.copy() for p in model.parameters()]

    @pytest.mark.parametrize("kind", ["discrete", "continuous", "direct"])
    def test_value_and_every_gradient(self, kind):
        env = SphereWorld() if kind == "continuous" else TorusWorld(4)
        if kind == "direct":
            model = DirectPredictor(rng(5), env.observation_dim, env.num_actions, latent_dim=3)
            batched = direct_prediction_loss
        else:
            model = SymmetryModel.build(rng(5), env.observation_dim, 3, None if env.continuous else 4)
            batched = rollout_loss
        gen = rng(6)
        trajs = [sample_trajectory(env, gen, 6) for _ in range(5)]
        value, grads = self.value_and_grads(model, lambda: batched(model, trajs)[0])
        want_value, want_grads = self.value_and_grads(model, lambda: self.per_step_loss(model, trajs))
        assert value == pytest.approx(want_value, rel=1e-12, abs=0)
        for (name, _), got, want in zip(model.named_parameters(), grads, want_grads):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def test_sphere_step_peak_memory():
    """One forward and backward at B=16, m=5 stays under 5 MB of traced allocations.

    The (m * B, 1000) decoder arrays are the largest of the step; computing
    the BCE in place and freeing each interior gradient once it is passed on
    keeps the batched decode from holding more of them at once.
    """
    cfg = TrainConfig(env=EnvironmentSpec("sphere"), n=3, total_steps=1, m=5, batch_size=16)
    env = cfg.env.build()
    model = build_model(cfg, env)
    batch = generate_batch(env, cfg, 0)
    tracemalloc.start()
    try:
        l_rec, _ = rollout_loss(model, batch)
        total_loss(l_rec, batch_entanglement(model, batch), 0.01).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


class TestTrainLoop:
    def test_zero_steps_returns_untouched_init(self):
        cfg = TrainConfig(env=EnvironmentSpec("torus", p=3), n=3, total_steps=0, seed=5)
        model, report = train(cfg)
        fresh = build_model(cfg)
        for a, b in zip(model.parameters(), fresh.parameters()):
            assert np.array_equal(a.data, b.data)
        assert report.steps == []

    def test_identical_seeds_identical_loss_curves(self):
        cfg = TrainConfig(env=EnvironmentSpec("torus", p=3), n=3, total_steps=12, seed=9)
        _, r1 = train(cfg)
        _, r2 = train(cfg)
        assert r1.l_rec == r2.l_rec
        assert r1.l_ent == r2.l_ent

    def test_single_state_environment_loss_nonincreasing(self):
        """Optimiser wiring sanity: p=1 has one state and trivial dynamics."""
        wins = 0
        for seed in range(20):
            cfg = TrainConfig(
                env=EnvironmentSpec("torus", p=1),
                n=2,
                total_steps=100,
                learning_rate=1e-3,
                lambda_schedule=ConstantSchedule(0.0),
                seed=seed,
            )
            model = build_model(cfg)
            model.actions.angles.data[:] = 0.0
            _, report = train(cfg)
            # allow tiny numeric wiggle when comparing first and last
            if report.l_rec[-1] <= report.l_rec[0] + 1e-12:
                wins += 1
        assert wins >= 19

    def test_divergence_guard(self):
        cfg = TrainConfig(
            env=EnvironmentSpec("torus", p=2),
            n=2,
            total_steps=10,
            learning_rate=1e200,  # overflow to non-finite within two steps
            seed=0,
        )
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="step"):
            train(cfg)

    def test_direct_model_trains_and_improves(self):
        cfg = TrainConfig(
            env=EnvironmentSpec("torus", p=3),
            n=3,
            total_steps=120,
            learning_rate=5e-3,
            model="direct",
            seed=0,
        )
        model, report = train(cfg)
        assert report.l_rec[-1] < report.l_rec[0]
        assert report.l_ent[-1] == 0.0

    def test_one_step_changes_every_parameter_group(self):
        cfg = TrainConfig(env=EnvironmentSpec("torus", p=3), n=3, total_steps=1, seed=1,
                          lambda_schedule=ConstantSchedule(0.01))
        before = [p.data.copy() for p in build_model(cfg).parameters()]
        model, _ = train(cfg)
        after = [p.data for p in model.parameters()]
        for b, a in zip(before, after):
            assert not np.array_equal(b, a)

    def test_report_csv_round_trip_and_determinism(self, tmp_path):
        cfg = TrainConfig(env=EnvironmentSpec("torus", p=2), n=2, total_steps=5, seed=2)
        _, r1 = train(cfg)
        _, r2 = train(cfg)
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        r1.save_csv(p1)
        r2.save_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "step,l_rec,l_ent,lambda,elapsed_ms"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(env=EnvironmentSpec("torus"), n=1, total_steps=10)
        with pytest.raises(ValueError):
            TrainConfig(env=EnvironmentSpec("torus"), n=4, total_steps=10, m=0)
        with pytest.raises(ValueError):
            TrainConfig(env=EnvironmentSpec("torus"), n=4, total_steps=10, batch_size=0)
        with pytest.raises(ValueError):
            EnvironmentSpec("maze")
