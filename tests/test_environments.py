import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrep.environments import (
    FactorState,
    FactorWorld,
    SphereWorld,
    TorusState,
    TorusWorld,
    load_trajectories,
    sample_trajectory,
    save_trajectories,
    trajectory_rng,
)
from symrep.training import EnvironmentSpec, TrainConfig, generate_batch

UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestTorus:
    def test_periodic_wrap_up_from_top(self):
        env = TorusWorld(5)
        assert env.step(TorusState(0, 0, 5), UP) == TorusState(4, 0, 5)

    @settings(max_examples=50, deadline=None)
    @given(r=st.integers(0, 4), c=st.integers(0, 4), a=st.integers(0, 3))
    def test_inverse_action_round_trip(self, r, c, a):
        env = TorusWorld(5)
        s = TorusState(r, c, 5)
        assert env.step(env.step(s, a), env.inverse_action(a)) == s

    @settings(max_examples=30, deadline=None)
    @given(r=st.integers(0, 6), c=st.integers(0, 6), a=st.integers(0, 3))
    def test_actions_have_cyclic_order_p(self, r, c, a):
        env = TorusWorld(7)
        s = TorusState(r, c, 7)
        out = s
        for _ in range(7):
            out = env.step(out, a)
        assert out == s

    def test_vertical_and_horizontal_commute(self):
        env = TorusWorld(4)
        for s in env.all_states():
            for va in (UP, DOWN):
                for ha in (LEFT, RIGHT):
                    assert env.step(env.step(s, va), ha) == env.step(env.step(s, ha), va)

    def test_observe_one_hot_indices(self):
        env = TorusWorld(5)
        e0 = env.observe(TorusState(0, 0, 5))
        assert e0[0] == 1.0 and e0.sum() == 1.0 and len(e0) == 25
        e7 = env.observe(TorusState(1, 2, 5))
        assert e7[7] == 1.0 and e7.sum() == 1.0

    def test_observations_injective_over_all_states(self):
        env = TorusWorld(5)
        seen = {tuple(env.observe(s)) for s in env.all_states()}
        assert len(seen) == 25

    def test_observation_deterministic(self):
        env = TorusWorld(3)
        s = TorusState(2, 1, 3)
        assert np.array_equal(env.observe(s), env.observe(s))

    def test_center_state(self):
        assert TorusWorld(5).center_state() == TorusState(2, 2, 5)


class TestFactor:
    def test_five_cycles(self):
        env = FactorWorld()
        s = FactorState(0, 0)
        out = s
        for _ in range(5):
            out = env.step(out, 0)  # x+
        assert out == s
        out = s
        for _ in range(5):
            out = env.step(out, 6)  # color+
        assert out == s

    def test_color_inverse(self):
        env = FactorWorld()
        s = FactorState(3, 1)
        assert env.step(env.step(s, 6), 7) == s

    def test_factor_independence(self):
        env = FactorWorld()
        for s in env.all_states():
            for a in range(6):
                assert env.step(s, a).b == s.b
            for a in (6, 7):
                assert env.step(s, a).a == s.a

    def test_rotation_aliases_share_effect(self):
        env = FactorWorld()
        s = FactorState(2, 4)
        assert env.step(s, 0) == env.step(s, 2) == env.step(s, 4)

    def test_plain_observe_one_hot_and_injective(self):
        env = FactorWorld()
        obs = env.observe(FactorState(0, 0))
        assert obs[0] == 1.0 and obs.sum() == 1.0 and len(obs) == 25
        seen = {tuple(env.observe(s)) for s in env.all_states()}
        assert len(seen) == 25

    def test_mixed_observe_deterministic_ranged_injective(self):
        env1 = FactorWorld(mixed=True, mix_seed=7)
        env2 = FactorWorld(mixed=True, mix_seed=7)
        for s in env1.all_states():
            a, b = env1.observe(s), env2.observe(s)
            assert np.array_equal(a, b)
            assert a.min() >= 0.0 and a.max() <= 1.0
        seen = {tuple(env1.observe(s)) for s in env1.all_states()}
        assert len(seen) == 25


class TestSphere:
    def test_zero_angle_is_noop(self):
        env = SphereWorld()
        s = env.random_state(rng(1))
        assert np.allclose(env.step(s, (1, 0.0)), s, atol=1e-15)

    def test_rotation_inverse(self):
        env = SphereWorld()
        s = env.random_state(rng(2))
        out = env.step(env.step(s, (2, 0.83)), (2, -0.83))
        assert np.abs(out - s).max() < 1e-12

    def test_four_quarter_turns(self):
        env = SphereWorld()
        s = env.random_state(rng(3))
        out = s
        for _ in range(4):
            out = env.step(out, (0, np.pi / 2))
        assert np.abs(out - s).max() < 1e-10

    def test_states_stay_orthogonal(self):
        env = SphereWorld()
        s = env.center_state()
        gen = rng(4)
        for _ in range(200):
            s = env.step(s, (int(gen.integers(3)), float(gen.uniform(-np.pi, np.pi))))
        assert np.abs(s.T @ s - np.eye(3)).max() < 1e-10

    def test_observe_peak_at_reference_pole(self):
        env = SphereWorld()
        obs = env.observe(env.center_state())
        # ball sits at (0, 0, 1): peak voxel has x, y central and z maximal
        idx = np.argmax(obs)
        ix, iy, iz = np.unravel_index(idx, (10, 10, 10))
        assert iz == 9 and ix in (4, 5) and iy in (4, 5)

    def test_observe_range_and_peak_normalisation(self):
        env = SphereWorld()
        obs = env.observe(env.random_state(rng(5)))
        assert obs.min() >= 0.0
        assert obs.max() == 1.0

    def test_full_turn_gives_identical_grid(self):
        env = SphereWorld()
        s = env.random_state(rng(6))
        turned = env.step(s, (1, 2 * np.pi))
        assert np.allclose(env.observe(s), env.observe(turned), atol=1e-9)

    @pytest.mark.parametrize("k", [1, 6, 50])
    def test_stacked_observe_equals_single_calls(self, k):
        env = SphereWorld()
        gen = rng(k)
        states = np.stack([env.random_state(gen) for _ in range(k)] + [env.center_state()])
        stacked = env.observe(states)
        assert stacked.shape == (k + 1, env.observation_dim)
        assert np.array_equal(stacked, np.stack([env.observe(s) for s in states]))
        assert env.observe(env.center_state()).shape == (env.observation_dim,)


class TestTrajectories:
    def test_length_contract(self):
        env = TorusWorld(3)
        traj = sample_trajectory(env, rng(0), m=1)
        assert traj.observations.shape == (2, 9)
        assert len(traj.actions) == 1

    def test_seeded_determinism(self):
        env = TorusWorld(4)
        t1 = sample_trajectory(env, trajectory_rng(9, 0, 0), m=6)
        t2 = sample_trajectory(env, trajectory_rng(9, 0, 0), m=6)
        assert np.array_equal(t1.observations, t2.observations)
        assert np.array_equal(t1.actions, t2.actions)

    @pytest.mark.parametrize("make_env", [lambda: TorusWorld(5), lambda: FactorWorld(), SphereWorld])
    def test_replay_reproduces_observations(self, make_env):
        env = make_env()
        traj = sample_trajectory(env, rng(11), m=5)
        state = traj.start_state
        rebuilt = [env.observe(state)]
        for k in range(traj.m):
            action = int(traj.actions[k]) if not env.continuous else (
                int(traj.actions[k, 0]),
                float(traj.actions[k, 1]),
            )
            state = env.step(state, action)
            rebuilt.append(env.observe(state))
        assert np.array_equal(np.stack(rebuilt), traj.observations)

    def test_sphere_trajectory_observes_once(self, monkeypatch):
        calls = []
        observe = SphereWorld.observe

        def counted(self, orientation):
            calls.append(np.shape(orientation))
            return observe(self, orientation)

        monkeypatch.setattr(SphereWorld, "observe", counted)
        traj = sample_trajectory(SphereWorld(), rng(12), m=5)
        assert calls == [(6, 3, 3)]
        assert traj.observations.shape == (6, 1000)

    @pytest.mark.parametrize("step", [0, 1, 400])
    def test_sphere_training_batch_equals_per_state_replay(self, step):
        config = TrainConfig(env=EnvironmentSpec("sphere"), n=3, total_steps=560)
        env = config.env.build()
        for traj in generate_batch(env, config, step):
            states = [traj.start_state]
            for axis, angle in traj.actions:
                states.append(env.step(states[-1], (int(axis), float(angle))))
            assert np.array_equal(traj.observations, np.stack([env.observe(s) for s in states]))
            assert np.array_equal(traj.observations, env.observe(np.stack(states)))

    def test_continuous_angles_respect_range(self):
        env = SphereWorld()
        traj = sample_trajectory(env, rng(13), m=50, angle_range=(-0.5, 0.5))
        assert np.all(np.abs(traj.actions[:, 1]) <= 0.5)
        assert set(np.unique(traj.actions[:, 0])) <= {0.0, 1.0, 2.0}

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            sample_trajectory(TorusWorld(3), rng(0), m=0)


class TestTrajectoryIO:
    def test_round_trip_discrete(self, tmp_path):
        env = TorusWorld(4)
        trajs = [sample_trajectory(env, trajectory_rng(3, 0, i), m=4) for i in range(3)]
        path = tmp_path / "data.csv"
        save_trajectories(path, trajs, env, {"type": "torus", "p": 4}, seed=3)
        loaded, meta = load_trajectories(path)
        assert meta["environment"] == {"type": "torus", "p": 4}
        assert meta["seed"] == 3
        assert len(loaded) == 3
        for orig, back in zip(trajs, loaded):
            assert np.array_equal(orig.observations, back.observations)
            assert np.array_equal(orig.actions, back.actions)

    def test_round_trip_continuous_exact_floats(self, tmp_path):
        env = SphereWorld()
        trajs = [sample_trajectory(env, trajectory_rng(5, 0, i), m=3) for i in range(2)]
        path = tmp_path / "sphere.csv"
        save_trajectories(path, trajs, env, {"type": "sphere"}, seed=5)
        loaded, _ = load_trajectories(path)
        for orig, back in zip(trajs, loaded):
            assert np.array_equal(orig.observations, back.observations)
            assert np.array_equal(orig.actions, back.actions)

    def test_export_is_byte_deterministic(self, tmp_path):
        env = FactorWorld()
        spec = {"type": "factor", "mixed": False, "mix_seed": 0}
        for name in ("a", "b"):
            trajs = [sample_trajectory(env, trajectory_rng(8, 0, i), m=5) for i in range(2)]
            save_trajectories(tmp_path / f"{name}.csv", trajs, env, spec, seed=8)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_regeneration_from_metadata_seed(self, tmp_path):
        env = TorusWorld(3)
        trajs = [sample_trajectory(env, trajectory_rng(21, 0, i), m=4) for i in range(2)]
        save_trajectories(tmp_path / "d.csv", trajs, env, {"type": "torus", "p": 3}, seed=21)
        loaded, meta = load_trajectories(tmp_path / "d.csv")
        env2 = TorusWorld(meta["environment"]["p"])
        for i, back in enumerate(loaded):
            again = sample_trajectory(
                env2, trajectory_rng(meta["seed"], 0, i), m=meta["steps_per_trajectory"]
            )
            assert np.array_equal(again.observations, back.observations)

    def test_empty_dataset_has_valid_metadata(self, tmp_path):
        env = TorusWorld(3)
        save_trajectories(tmp_path / "empty.csv", [], env, {"type": "torus", "p": 3}, seed=0)
        loaded, meta = load_trajectories(tmp_path / "empty.csv")
        assert loaded == []
        assert meta["trajectory_count"] == 0
