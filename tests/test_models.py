import numpy as np
import pytest

from symrep import rotations
from symrep.environments import SphereWorld, TorusWorld, sample_trajectory, stack_batch, trajectory_rng
from symrep.models import (
    ActionTable,
    ContinuousActionNet,
    Decoder,
    DirectPredictor,
    SymmetryModel,
    WeightsFormatError,
    load_weights,
    save_weights,
)
from symrep.rotations import plane_count
from symrep.tensor import Tensor, sigmoid
from symrep.training import direct_prediction_loss, rollout_loss


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def make_model(seed=0, obs_dim=25, n=4, num_actions=4):
    return SymmetryModel.build(rng(seed), obs_dim, n, num_actions)


class TestEncoderDecoder:
    def test_encode_output_is_unit_norm(self):
        model = make_model()
        z = model.encode(rng(1).uniform(0, 1, 25))
        assert abs(np.linalg.norm(z.data) - 1.0) < 1e-12
        batch = model.encode(rng(2).uniform(0, 1, (7, 25)))
        assert np.all(np.abs(np.linalg.norm(batch.data, axis=1) - 1.0) < 1e-12)

    def test_encode_deterministic(self):
        model = make_model()
        obs = rng(3).uniform(0, 1, 25)
        assert np.array_equal(model.encode(obs).data, model.encode(obs).data)

    def test_encode_dimension_mismatch(self):
        model = make_model()
        with pytest.raises(ValueError, match="dimension 25"):
            model.encode(np.zeros(16))

    def test_distinct_one_hot_inputs_stay_distinct_under_random_init(self):
        e0 = np.zeros(25)
        e0[0] = 1.0
        e1 = np.zeros(25)
        e1[13] = 1.0
        for seed in range(100):
            model = make_model(seed=seed)
            za = model.encode(e0).data
            zb = model.encode(e1).data
            assert np.linalg.norm(za - zb) > 1e-8

    def test_decode_shape_contract(self):
        model = make_model(n=4)
        logits = model.decode(model.encode(np.eye(25)[3]))
        assert logits.shape == (25,)
        batch = model.decode(Tensor(rng(4).standard_normal((6, 4))))
        assert batch.shape == (6, 25)

    def test_decode_dimension_mismatch(self):
        model = make_model(n=4)
        with pytest.raises(ValueError, match="dimension 4"):
            model.decode(np.zeros(5))


class TestActionRepresentations:
    def test_zero_row_gives_identity_matrix(self):
        model = make_model()
        model.actions.angles.data[2] = 0.0
        assert np.allclose(model.action_matrix(2), np.eye(4), atol=1e-15)

    def test_matrices_always_orthogonal(self):
        gen = rng(5)
        for _ in range(25):
            model = make_model(seed=int(gen.integers(1e6)))
            model.actions.angles.data[:] = gen.uniform(-4, 4, model.actions.angles.shape)
            for a in range(4):
                g = model.action_matrix(a)
                assert np.abs(g.T @ g - np.eye(4)).max() < 1e-12
                assert abs(np.linalg.det(g) - 1.0) < 1e-10

    def test_unknown_action_id(self):
        model = make_model()
        with pytest.raises(LookupError, match="action id"):
            model.action_matrix(9)
        with pytest.raises(LookupError):
            model.action_angles(np.array([0, 4]))

    def test_continuous_net_output_width(self):
        for n in (3, 4):
            net = ContinuousActionNet(rng(0), n)
            out = net.angles_for(np.array([[0.0, 0.3], [2.0, -1.0]]))
            assert out.shape == (2, plane_count(n))

    def test_table_rejects_float_ids(self):
        table = ActionTable(rng(0), 4, 4)
        with pytest.raises(ValueError, match="integers"):
            table.angles_for(np.array([0.5, 1.0]))


class TestDirectPredictor:
    def test_output_shape_and_determinism(self):
        model = DirectPredictor(rng(0), obs_dim=25, num_actions=4)
        obs = rng(1).uniform(0, 1, (3, 25))
        ids = np.array([0, 3, 1])
        out1 = model.predict_logits(Tensor(obs), ids)
        out2 = model.predict_logits(Tensor(obs), ids)
        assert out1.shape == (3, 25)
        assert np.array_equal(out1.data, out2.data)

    def test_rejects_continuous_actions(self):
        model = DirectPredictor(rng(0), obs_dim=25, num_actions=4)
        with pytest.raises(ValueError, match="discrete"):
            model.predict_logits(np.zeros((1, 25)), np.array([1.5]))

    def test_predict_sequence_re_encodes_own_output(self):
        env = TorusWorld(5)
        model = DirectPredictor(rng(0), obs_dim=25, num_actions=4)
        traj = sample_trajectory(env, trajectory_rng(0, 0, 0), m=4)
        preds = model.predict_sequence(traj)
        assert preds.shape == (4, 25)
        assert np.all(preds > 0.0) and np.all(preds < 1.0)


class TestRollout:
    """The batched rollout against the per-trajectory, per-step loop it replaced."""

    @staticmethod
    def reference_predictions(model, traj):
        if model.kind == "direct":
            obs, preds = traj.observations[0], []
            for action in traj.actions:
                obs = sigmoid(model.predict_logits(obs[None], np.array([action])).data[0])
                preds.append(obs)
            return np.stack(preds)
        z = model.encode(traj.observations[0]).data
        preds = []
        for action in traj.actions:
            z = model.action_matrix(action if model.discrete else tuple(action)) @ z
            preds.append(sigmoid(model.decode(Tensor(z)).data))
        return np.stack(preds)

    @staticmethod
    def model_and_trajectories(kind):
        env = SphereWorld() if kind == "continuous" else TorusWorld(4)
        if kind == "direct":
            model = DirectPredictor(rng(7), env.observation_dim, env.num_actions, latent_dim=3)
        else:
            model = SymmetryModel.build(rng(7), env.observation_dim, 3, None if env.continuous else 4)
        gen = rng(8)
        return env, model, [sample_trajectory(env, gen, 6) for _ in range(5)]

    @pytest.mark.parametrize("kind", ["discrete", "continuous", "direct"])
    def test_batched_prediction_matches_per_step_loop(self, kind):
        env, model, trajs = self.model_and_trajectories(kind)
        batched = model.predict_sequence(trajs)
        assert batched.shape == (5, 6, env.observation_dim)
        for traj, preds in zip(trajs, batched):
            assert np.allclose(preds, self.reference_predictions(model, traj), rtol=0, atol=1e-12)
        single = model.predict_sequence(trajs[2])
        assert single.shape == (6, env.observation_dim)
        assert np.allclose(single, batched[2], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["discrete", "continuous", "direct"])
    def test_prediction_records_no_graph(self, kind, monkeypatch):
        _, model, trajs = self.model_and_trajectories(kind)
        obs, actions = stack_batch(trajs)
        with_graph = model.rollout(obs[:, 0], actions)
        assert with_graph.requires_grad and with_graph.shape == (6, 5, obs.shape[-1])
        rolled, rollout = [], model.rollout

        def capture(first_obs, acts):
            rolled.append(rollout(first_obs, acts))
            return rolled[-1]

        monkeypatch.setattr(model, "rollout", capture)
        preds = model.predict_sequence(trajs)
        assert np.array_equal(preds, sigmoid(with_graph.data).swapaxes(0, 1))
        assert len(rolled) == 1 and not rolled[0].requires_grad
        assert all(p.grad is None for p in model.parameters())

    def test_discrete_rollout_composes_each_action_once(self, monkeypatch):
        rows = []
        compose = rotations.rotation_matrices

        def counted(angles):
            rows.append(angles.shape[0])
            return compose(angles)

        monkeypatch.setattr(rotations, "rotation_matrices", counted)
        env = TorusWorld(4)
        model = make_model(obs_dim=env.observation_dim)
        gen = rng(9)
        logits = model.rollout(np.stack([env.observe(env.random_state(gen)) for _ in range(8)]),
                               gen.integers(0, 4, size=(8, 5)))
        assert logits.shape == (5, 8, 16)
        assert rows == [4]

    @pytest.mark.parametrize("kind", ["discrete", "continuous", "direct"])
    def test_one_decoder_call_per_rollout(self, kind, monkeypatch):
        _, model, trajs = self.model_and_trajectories(kind)
        calls = []
        decode = Decoder.__call__

        def counted(decoder, z):
            calls.append(z.shape)
            return decode(decoder, z)

        monkeypatch.setattr(Decoder, "__call__", counted)
        if kind == "direct":
            _, logits = direct_prediction_loss(model, trajs)
        else:
            _, logits = rollout_loss(model, trajs)
        assert len(calls) == 1 and calls[0][0] == 6 * 5
        assert logits.shape == (6, 5, model.decoder.obs_dim)


class TestWeightsPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = make_model(seed=42)
        path = tmp_path / "w.symr"
        save_weights(path, model.state_dict())
        loaded = load_weights(path)
        for name, arr in model.state_dict().items():
            assert loaded[name].dtype == np.float64
            assert np.array_equal(loaded[name], arr)

        # a fresh model restored from the file reproduces outputs exactly
        other = make_model(seed=7)
        other.load_state_dict(loaded)
        obs = rng(1).uniform(0, 1, 25)
        assert np.array_equal(other.encode(obs).data, model.encode(obs).data)

    def test_save_load_save_is_idempotent(self, tmp_path):
        model = make_model(seed=3)
        p1, p2 = tmp_path / "a.symr", tmp_path / "b.symr"
        save_weights(p1, model.state_dict())
        save_weights(p2, load_weights(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_leaves_previous_file_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "w.symr"
        save_weights(path, make_model(seed=1).state_dict())
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr("symrep.models.os.replace", crash)
        with pytest.raises(OSError):
            save_weights(path, make_model(seed=2).state_dict())
        assert path.read_bytes() == before

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.symr"
        save_weights(path, {"x": np.zeros(3)})
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightsFormatError, match="magic"):
            load_weights(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "w.symr"
        save_weights(path, {"x": np.arange(10.0)})
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(WeightsFormatError, match="truncated"):
            load_weights(path)

    def test_architecture_mismatch_rejected(self, tmp_path):
        small = make_model(n=3)
        big = make_model(n=4)
        path = tmp_path / "w.symr"
        save_weights(path, small.state_dict())
        with pytest.raises(WeightsFormatError):
            big.load_state_dict(load_weights(path))

    def test_direct_predictor_round_trip(self, tmp_path):
        model = DirectPredictor(rng(9), obs_dim=25, num_actions=4)
        path = tmp_path / "d.symr"
        save_weights(path, model.state_dict())
        clone = DirectPredictor(rng(1), obs_dim=25, num_actions=4)
        clone.load_state_dict(load_weights(path))
        obs = rng(2).uniform(0, 1, (2, 25))
        ids = np.array([1, 2])
        assert np.array_equal(
            clone.predict_logits(Tensor(obs), ids).data,
            model.predict_logits(Tensor(obs), ids).data,
        )
