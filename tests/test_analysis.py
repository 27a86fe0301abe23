import numpy as np
import pytest

from symrep import analysis
from symrep.environments import FactorWorld, SphereWorld, TorusWorld
from symrep.models import SymmetryModel
from symrep.rotations import plane_indices
from symrep.training import EnvironmentSpec, TrainConfig, build_model


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def make_torus_model(p=5, n=4, seed=0):
    env = TorusWorld(p)
    return env, SymmetryModel.build(rng(seed), env.observation_dim, n, env.num_actions)


def set_single_plane(model, action, plane_pos, angle):
    model.actions.angles.data[action] = 0.0
    model.actions.angles.data[action, plane_pos] = angle


class TestGroupReport:
    def test_identity_parameters_give_zero_residuals(self):
        env, model = make_torus_model(p=4)
        model.actions.angles.data[:] = 0.0
        report = analysis.group_report(model, env)
        assert report.max_residual() == 0.0

    def test_exact_single_plane_rotations_close_the_group(self):
        p = 5
        env, model = make_torus_model(p=p)
        step_angle = 2 * np.pi / p
        # up/down rotate plane (1, 2) oppositely; left/right rotate plane (3, 4)
        set_single_plane(model, 0, 0, step_angle)
        set_single_plane(model, 1, 0, -step_angle)
        set_single_plane(model, 2, 5, step_angle)
        set_single_plane(model, 3, 5, -step_angle)
        report = analysis.group_report(model, env)
        assert report.max_residual() < 1e-12
        assert all(v < 1e-12 for v in report.cyclicity_residuals.values())

    def test_wrong_order_shows_in_cyclicity(self):
        env, model = make_torus_model(p=5)
        set_single_plane(model, 0, 0, 2 * np.pi / 7)  # order-7 rotation in an order-5 world
        report = analysis.group_report(model, env)
        assert report.cyclicity_residuals["up"] > 0.5

    def test_rejects_continuous_environment(self):
        env = SphereWorld()
        model = SymmetryModel.build(rng(0), env.observation_dim, 3, None)
        with pytest.raises(ValueError, match="discrete"):
            analysis.group_report(model, env)

    def test_csv_and_summary(self, tmp_path):
        env, model = make_torus_model(p=3)
        report = analysis.group_report(model, env)
        report.save_csv(tmp_path / "g.csv")
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[0] == "kind,action_a,action_b,order,residual"
        # 4 inverse + 4 cyclicity + 6 commutator rows
        assert len(lines) == 15
        assert "worst residual" in report.summary()


class TestEquivariance:
    def test_identity_actions_zero_error(self):
        env, model = make_torus_model(p=3, n=3)
        model.actions.angles.data[:] = 0.0

        # an environment whose actions do nothing matches identity matrices
        class FrozenTorus(TorusWorld):
            def step(self, state, action):
                return state

        frozen = FrozenTorus(3)
        stats = analysis.equivariance_error(model, frozen)
        assert stats.mean == 0.0
        assert stats.max == 0.0
        assert stats.pairs == 9 * 4

    def test_error_bounded_by_two(self):
        env, model = make_torus_model(p=4, n=4, seed=3)
        model.actions.angles.data[:] = rng(9).uniform(-3, 3, model.actions.angles.shape)
        stats = analysis.equivariance_error(model, env)
        assert 0.0 <= stats.mean <= stats.max <= 2.0 + 1e-12

    def test_continuous_sampling_path(self):
        env = SphereWorld()
        model = SymmetryModel.build(rng(1), env.observation_dim, 3, None)
        stats = analysis.equivariance_error(model, env, samples=25, seed=4)
        assert stats.pairs == 25
        assert stats.max <= 2.0 + 1e-12


class _OracleModel:
    """Feeds the true observations back as its predictions."""

    def predict_sequence(self, trajectories):
        return np.stack([t.observations[1:] for t in trajectories])


class TestRolloutCurve:
    def test_horizon_one_single_point(self):
        env, model = make_torus_model(p=3, n=3)
        curves = analysis.rollout_error_curve([("m", model)], env, horizon=1, trials=4, seed=0)
        assert curves["m"].bce_mean.shape == (1,)

    def test_oracle_model_scores_zero(self):
        env = TorusWorld(4)
        curves = analysis.rollout_error_curve(
            [("oracle", _OracleModel())], env, horizon=6, trials=8, seed=1
        )
        assert np.all(curves["oracle"].bce_mean < 1e-10)
        assert np.all(curves["oracle"].accuracy_mean == 1.0)

    def test_confidence_interval_shrinks_with_trials(self):
        env, model = make_torus_model(p=3, n=3, seed=5)
        small = analysis.rollout_error_curve([("m", model)], env, horizon=3, trials=200, seed=2)
        large = analysis.rollout_error_curve([("m", model)], env, horizon=3, trials=800, seed=2)
        ratio = small["m"].bce_ci.mean() / large["m"].bce_ci.mean()
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_paired_episodes_across_models(self):
        env, model = make_torus_model(p=3, n=3)
        curves = analysis.rollout_error_curve(
            [("a", _OracleModel()), ("b", _OracleModel())], env, horizon=2, trials=5, seed=3
        )
        assert np.array_equal(curves["a"].bce, curves["b"].bce)

    def test_rejects_zero_horizon(self):
        env, model = make_torus_model(p=3, n=3)
        with pytest.raises(ValueError):
            analysis.rollout_error_curve([("m", model)], env, horizon=0, trials=1)


class TestAtlasAndProjection:
    def test_atlas_counts_and_norms(self):
        env, model = make_torus_model(p=5)
        atlas = analysis.latent_atlas(model, env)
        assert len(atlas) == 25
        for _, z in atlas:
            assert abs(np.linalg.norm(z) - 1.0) < 1e-12

    def test_atlas_factor_world_count(self):
        env = FactorWorld()
        model = SymmetryModel.build(rng(2), env.observation_dim, 5, env.num_actions)
        assert len(analysis.latent_atlas(model, env)) == 25

    def test_atlas_rejects_continuous(self):
        env = SphereWorld()
        model = SymmetryModel.build(rng(2), env.observation_dim, 3, None)
        with pytest.raises(ValueError, match="finite"):
            analysis.latent_atlas(model, env)
        sampled = analysis.sampled_latent_atlas(model, env, count=11, seed=0)
        assert len(sampled) == 11

    def test_projection_of_basis_vectors(self):
        spec = analysis.ProjectionSpec.from_seed(4, seed=0)
        atlas = [("e1", spec.e1.copy()), ("e2", spec.e2.copy())]
        rows = analysis.project_2d(atlas, spec)
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
        assert rows[0][2] == pytest.approx(0.0, abs=1e-12)
        assert rows[1][1] == pytest.approx(0.0, abs=1e-12)
        assert rows[1][2] == pytest.approx(1.0, abs=1e-12)

    def test_projection_is_linear(self):
        spec = analysis.ProjectionSpec.from_seed(5, seed=1)
        z = rng(3).standard_normal(5)
        (_, u1, v1), (_, u2, v2) = analysis.project_2d([("z", z), ("2z", 2 * z)], spec)
        assert u2 == pytest.approx(2 * u1, rel=1e-12)
        assert v2 == pytest.approx(2 * v1, rel=1e-12)

    def test_projection_invariant_under_joint_rotation(self):
        from symrep.rotations import compose_representation, plane_count

        spec = analysis.ProjectionSpec.from_seed(4, seed=2)
        q = compose_representation(rng(4).uniform(-1, 1, plane_count(4)))
        z = rng(5).standard_normal(4)
        rotated_spec = analysis.ProjectionSpec(q @ spec.e1, q @ spec.e2)
        (_, u1, v1) = analysis.project_2d([("z", z)], spec)[0]
        (_, u2, v2) = analysis.project_2d([("qz", q @ z)], rotated_spec)[0]
        assert u2 == pytest.approx(u1, abs=1e-12)
        assert v2 == pytest.approx(v1, abs=1e-12)

    def test_in_plane_reconstruction_is_idempotent(self):
        spec = analysis.ProjectionSpec.from_seed(6, seed=3)
        z = rng(6).standard_normal(6)
        (_, u, v) = analysis.project_2d([("z", z)], spec)[0]
        recon = u * spec.e1 + v * spec.e2
        (_, u2, v2) = analysis.project_2d([("r", recon)], spec)[0]
        assert u2 == pytest.approx(u, abs=1e-12)
        assert v2 == pytest.approx(v, abs=1e-12)

    def test_spec_validates_orthonormality(self):
        with pytest.raises(ValueError):
            analysis.ProjectionSpec(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            analysis.ProjectionSpec(np.array([2.0, 0.0]), np.array([0.0, 1.0]))


class TestDimensionUsage:
    def test_identity_parameters_use_nothing(self):
        env, model = make_torus_model(p=3, n=5)
        model.actions.angles.data[:] = 0.0
        usage = analysis.dimension_usage(model)
        assert usage.used_dimensions == []

    def test_single_plane_uses_its_two_dimensions(self):
        env, model = make_torus_model(p=3, n=4)
        model.actions.angles.data[:] = 0.0
        pos = plane_indices(4).index((1, 4))
        set_single_plane(model, 0, pos, np.pi / 5)
        usage = analysis.dimension_usage(model)
        assert usage.used_dimensions == [1, 4]

    def test_threshold_respected(self):
        env, model = make_torus_model(p=3, n=4)
        model.actions.angles.data[:] = 0.0
        model.actions.angles.data[0, 0] = 0.049
        assert analysis.dimension_usage(model, threshold=0.05).used_dimensions == []
        assert analysis.dimension_usage(model, threshold=0.04).used_dimensions == [1, 2]

    def test_wrapped_angles_are_scored(self):
        env, model = make_torus_model(p=3, n=4)
        model.actions.angles.data[:] = 0.0
        model.actions.angles.data[0, 0] = 2 * np.pi + 1e-4  # wraps to 1e-4, unused
        assert analysis.dimension_usage(model).used_dimensions == []


class TestAngleSweep:
    def test_grid_evaluation_matches_direct_network_calls(self):
        env = SphereWorld()
        model = SymmetryModel.build(rng(7), env.observation_dim, 3, None)
        grid = np.linspace(-1, 1, 5)
        sweep = analysis.continuous_angle_sweep(model, grid=grid)
        direct = model.actions.angles_for(np.array([[1.0, grid[2]]])).data[0]
        assert np.allclose(sweep.thetas[1][2], direct, atol=1e-15)

    def test_zero_grid_returns_bias_driven_outputs(self):
        env = SphereWorld()
        model = SymmetryModel.build(rng(8), env.observation_dim, 3, None)
        sweep = analysis.continuous_angle_sweep(model, grid=np.zeros(3), axes=(0,))
        assert sweep.thetas[0].shape == (3, 3)
        assert np.allclose(sweep.thetas[0][0], sweep.thetas[0][2], atol=1e-15)

    def test_rejects_discrete_model(self):
        env, model = make_torus_model()
        with pytest.raises(ValueError, match="continuous"):
            analysis.continuous_angle_sweep(model)

    def test_monotone_helper(self):
        assert analysis.is_monotone([0.0, 0.1, 0.1, 0.5])
        assert analysis.is_monotone([3.0, 1.0, 0.5])
        assert not analysis.is_monotone([0.0, 1.0, 0.5])
        assert analysis.is_monotone([0.0, 1.0, 1.0 - 1e-12])  # tolerance absorbs jitter
