import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symrep.cli import main
from symrep.config import (
    ConfigError,
    load_experiment_config,
    parse_experiment_config,
    resolved_config_dict,
)
from symrep.environments import load_trajectories, sample_trajectory, trajectory_rng
from symrep.models import load_weights
from symrep.training import LinearRampSchedule, StepSchedule, build_model, default_lambda_schedule


def tiny_config(**overrides):
    doc = {
        "environment": {"type": "torus", "p": 2},
        "n": 2,
        "m": 2,
        "batch_size": 2,
        "total_steps": 3,
        "learning_rate": 0.003,
        "seed": 0,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestConfigParsing:
    def test_missing_environment_names_the_field(self):
        with pytest.raises(ConfigError, match="'environment'"):
            parse_experiment_config({"n": 4})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="lerning_rate"):
            parse_experiment_config(tiny_config(lerning_rate=0.1))

    def test_unknown_nested_key_rejected(self):
        doc = tiny_config()
        doc["environment"]["q"] = 3
        with pytest.raises(ConfigError, match="environment"):
            parse_experiment_config(doc)

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="n must be int"):
            parse_experiment_config(tiny_config(n="four"))

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ConfigError, match="unknown analysis"):
            parse_experiment_config(tiny_config(analyses=["group-reprot"]))

    def test_schedule_parsing(self):
        cfg = parse_experiment_config(
            tiny_config(lambda_schedule={"kind": "step", "low": 0.01, "high": 1.0})
        )
        assert cfg.train.lambda_schedule == StepSchedule(0.5, 0.01, 1.0)

        cfg = parse_experiment_config(
            tiny_config(lambda_schedule={"kind": "linear_ramp", "end_step": 2, "max_value": 0.2})
        )
        assert cfg.train.lambda_schedule == LinearRampSchedule(0, 2, 0.2)

    @pytest.mark.parametrize("total_steps", [0, 1, 2, 3000])
    def test_bare_linear_ramp_is_the_default_schedule(self, total_steps):
        doc = tiny_config(total_steps=total_steps, lambda_schedule={"kind": "linear_ramp"})
        cfg = parse_experiment_config(doc)
        assert cfg.train.lambda_schedule == default_lambda_schedule(total_steps)

    def test_defaults_materialise_and_round_trip(self):
        cfg = parse_experiment_config({"environment": {"type": "factor"}, "n": 5})
        resolved = resolved_config_dict(cfg)
        assert resolved["m"] == 5
        assert resolved["batch_size"] == 16
        assert resolved["lambda_schedule"]["kind"] == "linear_ramp"
        again = resolved_config_dict(parse_experiment_config(resolved))
        assert again == resolved

    def test_invalid_dimensions_become_config_errors(self, tmp_path):
        path = write_config(tmp_path, tiny_config(n=1))
        with pytest.raises(ConfigError):
            load_experiment_config(path)

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe\x00")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert str(path) in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_experiment_config(tmp_path / "nope.json")


class TestCmdTrain:
    def test_successful_run_writes_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "weights.symr").exists()
        assert (out / "train_report.csv").exists()
        snapshot = json.loads((out / "resolved_config.json").read_text())
        assert snapshot["environment"] == {"type": "torus", "p": 2}

        # the weights round-trip into a freshly built model
        cfg = load_experiment_config(cfg_path)
        model = build_model(cfg.train)
        model.load_state_dict(load_weights(out / "weights.symr"))

    def test_missing_required_field_exits_2(self, tmp_path, capsys):
        doc = tiny_config()
        del doc["environment"]
        cfg_path = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "environment" in capsys.readouterr().err

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "train_report.csv").read_bytes() == (outs[1] / "train_report.csv").read_bytes()
        assert (outs[0] / "weights.symr").read_bytes() == (outs[1] / "weights.symr").read_bytes()

    def test_divergence_exits_3(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(learning_rate=1e200, total_steps=5))
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3

    def test_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        o1, o2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg_path), "--out", str(o1), "--seed", "7"]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", str(o2)]) == 0
        assert (o1 / "weights.symr").read_bytes() != (o2 / "weights.symr").read_bytes()
        assert json.loads((o1 / "resolved_config.json").read_text())["seed"] == 7

    def test_zero_steps_writes_initial_weights_and_header_only_report(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(total_steps=0))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "train_report.csv").read_text() == "step,l_rec,l_ent,lambda,elapsed_ms\n"
        fresh = build_model(load_experiment_config(cfg_path).train)
        assert {k: v.tolist() for k, v in load_weights(out / "weights.symr").items()} == {
            k: v.tolist() for k, v in fresh.state_dict().items()
        }

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config())
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a"), "--seed", "-3"]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        cfg_path = write_config(tmp_path, tiny_config(seed=-3), name="negative.json")
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "predict-bench"])
    @pytest.mark.parametrize("rate", [-1, 0])
    def test_non_positive_learning_rate_exits_2(self, tmp_path, capsys, command, rate):
        cfg_path = write_config(tmp_path, tiny_config(learning_rate=rate, start="center"))
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg_path), "--out", str(out)]
        if command == "predict-bench":
            argv += ["--seeds", "1"]
        assert main(argv) == 2
        assert "learning_rate must be finite and > 0" in capsys.readouterr().err
        assert not (out / "weights.symr").exists()


    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"lambda_schedule": {"kind": "linear_ramp", "max_value": -1.0}}, "lambda_schedule.max_value"),
            ({"lambda_schedule": {"kind": "constant", "value": float("nan")}}, "lambda_schedule.value"),
            ({"lambda_schedule": {"kind": "step", "low": 0.0, "high": float("inf")}}, "lambda_schedule.high"),
            ({"environment": {"type": "sphere"}, "curriculum": {"start_range": -1.0}}, "curriculum.start_range"),
            ({"environment": {"type": "sphere"}, "curriculum": {"end_range": float("inf")}}, "curriculum.end_range"),
            ({"environment": {"type": "sphere"}, "model": "direct"}, "model 'direct' needs discrete actions"),
            ({"environment": {"type": "factor", "mixed": True, "mix_seed": -1}}, "environment.mix_seed must be >= 0"),
            (
                {"lambda_schedule": {"kind": "step", "switch_fraction": float("nan"), "low": 0.0, "high": 0.1}},
                "lambda_schedule.switch_fraction must be finite",
            ),
        ],
    )
    def test_values_training_cannot_use_exit_2(self, tmp_path, capsys, overrides, message):
        cfg_path = write_config(tmp_path, tiny_config(**overrides))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "weights.symr").exists()


@pytest.fixture()
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    cfg_path = write_config(tmp, tiny_config(total_steps=5))
    out = tmp / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    return cfg_path, out


class TestCmdAnalyze:
    def test_group_report_alone_yields_one_csv(self, trained_run, tmp_path):
        cfg_path, run = trained_run
        out = tmp_path / "an"
        code = main(
            [
                "analyze",
                "--weights",
                str(run / "weights.symr"),
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--group-report",
            ]
        )
        assert code == 0
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert csvs == ["group_report.csv"]
        assert (out / "group_report.txt").exists()

    def test_projection_seeds_yield_that_many_csvs(self, trained_run, tmp_path):
        cfg_path, run = trained_run
        out = tmp_path / "an"
        code = main(
            [
                "analyze",
                "--weights",
                str(run / "weights.symr"),
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--project-2d",
                "--proj-seeds",
                "5",
            ]
        )
        assert code == 0
        assert len(list(out.glob("projection_*.csv"))) == 5

    def test_negative_projection_count_exits_2(self, trained_run, tmp_path, capsys):
        cfg_path, run = trained_run
        argv = ["analyze", "--weights", str(run / "weights.symr"), "--config", str(cfg_path)]
        argv += ["--out", str(tmp_path / "an"), "--project-2d", "--proj-seeds", "-1"]
        assert main(argv) == 2
        assert "--proj-seeds must be >= 0" in capsys.readouterr().err

    def test_weights_path_that_is_a_directory_exits_2(self, trained_run, tmp_path, capsys):
        cfg_path, _ = trained_run
        argv = ["analyze", "--weights", str(tmp_path), "--config", str(cfg_path)]
        assert main(argv + ["--out", str(tmp_path / "an"), "--equivariance"]) == 2
        assert "file error" in capsys.readouterr().err

    def test_corrupted_magic_exits_2(self, trained_run, tmp_path, capsys):
        cfg_path, run = trained_run
        bad = tmp_path / "bad.symr"
        blob = bytearray((run / "weights.symr").read_bytes())
        blob[:4] = b"JUNK"
        bad.write_bytes(bytes(blob))
        code = main(
            ["analyze", "--weights", str(bad), "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "magic" in capsys.readouterr().err

    def test_architecture_mismatch_exits_2(self, trained_run, tmp_path):
        cfg_path, run = trained_run
        other_cfg = write_config(tmp_path, tiny_config(n=3), name="other.json")
        code = main(
            [
                "analyze",
                "--weights",
                str(run / "weights.symr"),
                "--config",
                str(other_cfg),
                "--out",
                str(tmp_path / "o"),
                "--group-report",
            ]
        )
        assert code == 2

    def test_invalid_analysis_for_environment_exits_2(self, trained_run, tmp_path):
        cfg_path, run = trained_run
        code = main(
            [
                "analyze",
                "--weights",
                str(run / "weights.symr"),
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / "o"),
                "--angle-sweep",
            ]
        )
        assert code == 2

    def test_no_analyses_selected_exits_2(self, trained_run, tmp_path):
        cfg_path, run = trained_run
        code = main(
            [
                "analyze",
                "--weights",
                str(run / "weights.symr"),
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2

    def test_sphere_model_atlas_and_projection_sample_states(self, tmp_path):
        cfg_path = write_config(tmp_path, {"environment": {"type": "sphere"}, "n": 3, "total_steps": 3})
        run, out = tmp_path / "run", tmp_path / "o"
        assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
        argv = ["analyze", "--weights", str(run / "weights.symr"), "--config", str(cfg_path)]
        assert main(argv + ["--out", str(out), "--atlas", "--project-2d"]) == 0
        atlas = (out / "latent_atlas.csv").read_text().splitlines()
        assert atlas[0] == "state,z0,z1,z2" and len(atlas) == 501
        assert len((out / "projection_0.csv").read_text().splitlines()) == 501

    @pytest.mark.parametrize("flag", ["--group-report", "--equivariance", "--atlas", "--project-2d"])
    def test_direct_model_weights_exit_2(self, tmp_path, capsys, flag):
        cfg_path = write_config(tmp_path, tiny_config(total_steps=1, model="direct"))
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
        weights = str(run / "weights.symr")
        out = str(tmp_path / "o")
        assert main(["analyze", "--weights", weights, "--config", str(cfg_path), "--out", out, flag]) == 2
        assert "direct model" in capsys.readouterr().err


class TestCmdExportDataset:
    def test_zero_count_writes_valid_empty_dataset(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        out = tmp_path / "data"
        assert main(["export-dataset", "--config", str(cfg_path), "--out", str(out), "--count", "0"]) == 0
        trajs, meta = load_trajectories(out / "trajectories.csv")
        assert trajs == []
        assert meta["trajectory_count"] == 0

    def test_reimport_replays_identically(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(total_steps=1))
        out = tmp_path / "data"
        assert main(["export-dataset", "--config", str(cfg_path), "--out", str(out), "--count", "4"]) == 0
        trajs, meta = load_trajectories(out / "trajectories.csv")
        assert len(trajs) == 4
        cfg = load_experiment_config(cfg_path)
        env = cfg.train.env.build()
        for i, traj in enumerate(trajs):
            again = sample_trajectory(
                env, trajectory_rng(meta["seed"], 0, i), meta["steps_per_trajectory"]
            )
            assert np.array_equal(again.observations, traj.observations)
            assert np.array_equal(again.actions, traj.actions)

    def test_negative_count_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config())
        out = tmp_path / "data"
        assert main(["export-dataset", "--config", str(cfg_path), "--out", str(out), "--count", "-1"]) == 2
        assert "--count must be >= 0" in capsys.readouterr().err
        assert not (out / "trajectories.csv").exists()

    def test_fixed_seed_identical_files(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        o1, o2 = tmp_path / "d1", tmp_path / "d2"
        for out in (o1, o2):
            assert main(["export-dataset", "--config", str(cfg_path), "--out", str(out), "--count", "3"]) == 0
        assert (o1 / "trajectories.csv").read_bytes() == (o2 / "trajectories.csv").read_bytes()


    @pytest.mark.parametrize(
        "environment, obs_dim, pinned_environment",
        [
            ({"type": "torus", "p": 3}, 9, '{\n    "type": "torus",\n    "p": 3\n  }'),
            ({"type": "sphere"}, 1000, '{\n    "type": "sphere"\n  }'),
        ],
    )
    def test_metadata_sidecar_bytes_are_pinned(self, tmp_path, environment, obs_dim, pinned_environment):
        cfg_path = write_config(tmp_path, {"environment": environment, "n": 3, "m": 2, "seed": 4})
        out = tmp_path / "data"
        assert main(["export-dataset", "--config", str(cfg_path), "--out", str(out), "--count", "2"]) == 0
        assert (out / "trajectories.meta.json").read_text() == (
            f'{{\n  "environment": {pinned_environment},\n  "seed": 4,\n'
            f'  "trajectory_count": 2,\n  "steps_per_trajectory": 2,\n'
            f'  "observation_dim": {obs_dim}\n}}\n'
        )


class TestCmdPredictBench:
    def test_shape_contract_and_manifest(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(total_steps=2, start="center"))
        out = tmp_path / "bench"
        code = main(
            [
                "predict-bench",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--seeds",
                "1",
                "--horizon",
                "1",
                "--trials",
                "3",
            ]
        )
        assert code == 0
        lines = (out / "rollout_curve.csv").read_text().splitlines()
        assert lines[0] == "model,step,bce_mean,bce_ci95,accuracy_mean,accuracy_ci95"
        assert len(lines) == 4  # three model variants, one step each
        manifest = json.loads((out / "bench_manifest.json").read_text())
        assert manifest["completed"] == {"0": "bench_seed_0.csv"}
        assert (out / "bench_seed_0.csv").exists()
        # every value is a plain float literal that any CSV reader can parse
        for name in ("rollout_curve.csv", "bench_seed_0.csv"):
            for line in (out / name).read_text().splitlines()[1:]:
                model, step, *values = line.split(",")
                assert model in ("regularised", "unregularised", "direct")
                assert int(step) == 1
                assert all(np.isfinite(float(v)) for v in values)

    def test_resume_skips_completed_seeds(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(total_steps=2, start="center"))
        out = tmp_path / "bench"
        args = [
            "predict-bench",
            "--config",
            str(cfg_path),
            "--out",
            str(out),
            "--horizon",
            "2",
            "--trials",
            "3",
        ]
        assert main(args + ["--seeds", "1"]) == 0
        first = (out / "bench_seed_0.csv").read_bytes()
        stamp = (out / "bench_seed_0.csv").stat().st_mtime_ns
        assert main(args + ["--seeds", "2"]) == 0
        # seed 0 results were reused, not recomputed
        assert (out / "bench_seed_0.csv").read_bytes() == first
        assert (out / "bench_seed_0.csv").stat().st_mtime_ns == stamp
        manifest = json.loads((out / "bench_manifest.json").read_text())
        assert set(manifest["completed"]) == {"0", "1"}
        lines = (out / "rollout_curve.csv").read_text().splitlines()
        assert len(lines) == 7  # header + 3 models x 2 steps

    @pytest.mark.parametrize("name", ["bench_manifest.json", "bench_seed_0.csv"])
    def test_truncated_resume_file_exits_2_naming_it(self, tmp_path, capsys, name):
        cfg_path = write_config(tmp_path, tiny_config(total_steps=1, start="center"))
        out = tmp_path / "bench"
        args = ["predict-bench", "--config", str(cfg_path), "--out", str(out), "--seeds", "1"]
        args += ["--horizon", "2", "--trials", "2"]
        assert main(args) == 0
        assert not list(out.glob("*.tmp"))
        path = out / name
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert main(args) == 2
        assert name in capsys.readouterr().err

    def test_changed_parameters_discard_partials(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config(total_steps=2, start="center"))
        out = tmp_path / "bench"
        base = ["predict-bench", "--config", str(cfg_path), "--out", str(out), "--seeds", "1", "--trials", "2"]
        assert main(base + ["--horizon", "1"]) == 0
        assert main(base + ["--horizon", "2"]) == 0
        manifest = json.loads((out / "bench_manifest.json").read_text())
        assert manifest["horizon"] == 2

    def test_continuous_environment_rejected(self, tmp_path):
        cfg_path = write_config(
            tmp_path, {"environment": {"type": "sphere"}, "n": 3, "total_steps": 1}
        )
        code = main(
            ["predict-bench", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--seeds", "1"]
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--seeds", "--horizon", "--trials"])
    def test_counts_below_one_exit_2(self, tmp_path, capsys, flag):
        cfg_path = write_config(tmp_path, tiny_config(total_steps=1, start="center"))
        out = tmp_path / "bench"
        counts = {"--seeds": "1", "--horizon": "1", "--trials": "1", flag: "0"}
        argv = ["predict-bench", "--config", str(cfg_path), "--out", str(out)]
        assert main(argv + [a for pair in counts.items() for a in pair]) == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err
        assert not (out / "rollout_curve.csv").exists()

    def test_empty_config_seeds_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config(total_steps=1, seeds=[]))
        assert main(["predict-bench", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "at least one seed" in capsys.readouterr().err


# One field of a tiny config, or one value of the command line, is changed at a
# time; whatever the change, `main` must end with a documented exit code.
MUTANT_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.sampled_from([-1.0, 0.0, 0.5, 2.5, float("nan"), float("inf"), -float("inf")]),
    st.sampled_from(["", "x", "torus", "factor", "sphere", "cube", "center", "direct", "linear_ramp"]),
    st.sampled_from([[], [1, -1], {}, {"kind": "constant"}, {"type": "cube"}]),
)
MUTABLE_FIELDS = (
    ("environment",),
    ("environment", "type"),
    ("environment", "p"),
    ("n",),
    ("m",),
    ("batch_size",),
    ("total_steps",),
    ("learning_rate",),
    ("seed",),
    ("start",),
    ("model",),
    ("analyses",),
    ("seeds",),
    ("lambda_schedule",),
    ("lambda_schedule", "kind"),
    ("lambda_schedule", "max_value"),
    ("lambda_schedule", "end_step"),
    ("curriculum", "start_range"),
    ("curriculum", "end_range"),
    ("surplus_key",),
)
MUTANT_ARGS = ["-1", "0", "1", "2.5", "abc", ""]


def mutation_base(kind):
    doc = tiny_config(
        lambda_schedule={"kind": "linear_ramp", "start_step": 0, "end_step": 2, "max_value": 0.1},
        curriculum={"start_range": 1.0, "end_range": 2.0},
        analyses=["equivariance"],
        seeds=[0],
    )
    if kind == "sphere":
        doc.update(environment={"type": "sphere"}, n=3)
    return doc


@pytest.fixture(scope="module")
def mutation_weights(tmp_path_factory):
    """Weights of the unmutated torus and sphere configs, for ``analyze``."""
    paths = {}
    for kind in ("torus", "sphere"):
        tmp = tmp_path_factory.mktemp(f"weights_{kind}")
        cfg_path = write_config(tmp, mutation_base(kind))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp)]) == 0
        paths[kind] = tmp / "weights.symr"
    return paths


def command_argv(command, kind, cfg_path, out, weights):
    head = [command, "--config", str(cfg_path), "--out", str(out)]
    if command == "train":
        return head + ["--seed", "1"]
    if command == "analyze":
        flags = ["--equivariance", "--atlas", "--project-2d", "--proj-seeds", "1"]
        if kind == "torus":
            flags += ["--group-report", "--dimension-usage"]
        else:
            flags += ["--angle-sweep"]
        return head + ["--weights", str(weights[kind])] + flags
    if command == "predict-bench":
        return head + ["--seeds", "1", "--horizon", "2", "--trials", "2"]
    return head + ["--count", "2", "--seed", "1"]


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_config_or_argv_ends_with_a_documented_exit_code(data, mutation_weights, tmp_path_factory):
    kind = data.draw(st.sampled_from(["torus", "sphere"]), label="environment")
    command = data.draw(
        st.sampled_from(["train", "analyze", "predict-bench", "export-dataset"]), label="command"
    )
    doc = mutation_base(kind)
    tmp = tmp_path_factory.mktemp("mutant")
    argv = command_argv(command, kind, tmp / "config.json", tmp / "out", mutation_weights)
    if data.draw(st.booleans(), label="mutate the config"):
        *parents, key = data.draw(st.sampled_from(MUTABLE_FIELDS), label="field")
        section = doc
        for name in parents:
            section = section[name]
        if data.draw(st.booleans(), label="remove the field"):
            section.pop(key, None)
        else:
            section[key] = data.draw(MUTANT_VALUES, label="value")
    else:
        values = [i for i in range(2, len(argv)) if not argv[i].startswith("--")]
        i = data.draw(st.sampled_from(values), label="argument")
        if data.draw(st.booleans(), label="remove the option"):
            del argv[i - 1 : i + 1]
        else:
            argv[i] = data.draw(st.sampled_from(MUTANT_ARGS), label="value")
    write_config(tmp, doc)
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)  # a mutated --out or --config may name a relative path
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3), (argv, doc, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
