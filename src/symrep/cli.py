"""Command-line interface: train, analyze, predict-bench, export-dataset.

Every command is deterministic for a fixed config and seed, writes a
resolved-config snapshot next to its outputs, and uses exit code 0 for
success, 2 for configuration or file-format problems, and 3 for numerical
divergence. ``SYMR_THREADS`` caps the parallel seed workers of
``predict-bench`` (default 1); results do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import analysis
from .config import (
    ConfigError,
    ExperimentConfig,
    _environment_dict,
    load_experiment_config,
    resolved_config_dict,
    save_resolved_config,
)
from .environments import sample_trajectory, save_trajectories, trajectory_rng
from .models import WeightsFormatError, load_weights, save_weights, write_atomic
from .training import ConstantSchedule, DivergenceError, TrainConfig, build_model, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

BENCH_VARIANTS = ("regularised", "unregularised", "direct")


def _resolve_out(args, cfg: ExperimentConfig) -> Path:
    out = args.out or cfg.out_dir
    if out is None:
        raise ConfigError("no output directory: pass --out or set out_dir in the config")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require_at_least(low: int, **flags) -> None:
    """Reject command-line counts below ``low`` as configuration errors."""
    for flag, value in flags.items():
        if value is not None and value < low:
            raise ConfigError(f"--{flag} must be >= {low}, got {value}")


def _apply_seed_override(cfg: ExperimentConfig, seed) -> None:
    _require_at_least(0, seed=seed)
    if seed is not None:
        cfg.train.seed = seed


def cmd_train(args) -> int:
    cfg = load_experiment_config(args.config)
    _apply_seed_override(cfg, args.seed)
    out = _resolve_out(args, cfg)
    save_resolved_config(cfg, out / "resolved_config.json")
    model, report = train(cfg.train)
    save_weights(out / "weights.symr", model.state_dict())
    report.save_csv(out / "train_report.csv")
    if report.steps:
        result = f"final l_rec={report.final_l_rec:.6f} l_ent={report.final_l_ent:.6f}"
    else:
        result = "no steps run, initial weights written"
    print(f"trained {cfg.train.model} model on {cfg.train.env.kind} (seed {cfg.train.seed}): {result}")
    print(f"outputs in {out}")
    return EXIT_OK


def _load_model(cfg: ExperimentConfig, weights_path):
    env = cfg.train.env.build()
    model = build_model(cfg.train, env)
    model.load_state_dict(load_weights(weights_path))
    return env, model


def cmd_analyze(args) -> int:
    _require_at_least(0, **{"proj-seeds": args.proj_seeds})
    cfg = load_experiment_config(args.config)
    env, model = _load_model(cfg, args.weights)
    if model.kind == "direct":
        raise ConfigError("analyses inspect learnt action matrices; a direct model has none")
    out = _resolve_out(args, cfg)

    flag_map = {
        "group-report": args.group_report,
        "equivariance": args.equivariance,
        "atlas": args.atlas,
        "project-2d": args.project_2d,
        "dimension-usage": args.dimension_usage,
        "angle-sweep": args.angle_sweep,
    }
    selected = [name for name, on in flag_map.items() if on]
    if not selected:
        selected = list(cfg.analyses)
    if not selected:
        raise ConfigError("no analyses selected: pass flags or set 'analyses' in the config")

    try:
        atlas = None
        for name in selected:
            if name in ("atlas", "project-2d") and atlas is None:
                sample = analysis.sampled_latent_atlas if env.continuous else analysis.latent_atlas
                atlas = sample(model, env)
            if name == "group-report":
                report = analysis.group_report(model, env)
                report.save_csv(out / "group_report.csv")
                (out / "group_report.txt").write_text(report.summary() + "\n")
                print(report.summary())
            elif name == "equivariance":
                stats = analysis.equivariance_error(model, env)
                stats.save_csv(out / "equivariance.csv")
                print(f"equivariance error: mean {stats.mean:.4f}, max {stats.max:.4f}")
            elif name == "atlas":
                analysis.save_atlas_csv(atlas, out / "latent_atlas.csv")
            elif name == "project-2d":
                for seed in range(args.proj_seeds):
                    spec = analysis.ProjectionSpec.from_seed(model.n, seed)
                    rows = analysis.project_2d(atlas, spec)
                    analysis.save_projection_csv(rows, out / f"projection_{seed}.csv")
            elif name == "dimension-usage":
                usage = analysis.dimension_usage(model)
                usage.save_csv(out / "dimension_usage.csv")
                print(f"used dimensions: {usage.used_dimensions}")
            elif name == "angle-sweep":
                sweep = analysis.continuous_angle_sweep(model)
                sweep.save_csv(out / "angle_sweep.csv", model.n)
    except ValueError as exc:
        raise ConfigError(str(exc))
    print(f"analysis outputs in {out}")
    return EXIT_OK


def sample_dataset(train_cfg: TrainConfig, count: int):
    """The trajectories ``export-dataset`` writes for a config and count."""
    env = train_cfg.env.build()
    start = None if train_cfg.start == "random" else env.center_state()
    trajectories = []
    for i in range(count):
        rng = trajectory_rng(train_cfg.seed, 0, i)
        trajectories.append(sample_trajectory(env, rng, train_cfg.m, start))
    return env, trajectories


def cmd_export_dataset(args) -> int:
    _require_at_least(0, count=args.count)
    cfg = load_experiment_config(args.config)
    _apply_seed_override(cfg, args.seed)
    out = _resolve_out(args, cfg)
    env, trajectories = sample_dataset(cfg.train, args.count)
    environment = _environment_dict(cfg.train.env)
    try:
        save_trajectories(out / "trajectories.csv", trajectories, env, environment, seed=cfg.train.seed)
    except OSError as exc:
        raise ConfigError(f"cannot write dataset: {exc}")
    save_resolved_config(cfg, out / "resolved_config.json")
    print(f"wrote {len(trajectories)} trajectories to {out / 'trajectories.csv'}")
    return EXIT_OK


def _bench_variants(base: TrainConfig, seed: int) -> dict[str, TrainConfig]:
    return {
        "regularised": dataclasses.replace(base, seed=seed, model="structured"),
        "unregularised": dataclasses.replace(
            base, seed=seed, model="structured", lambda_schedule=ConstantSchedule(0.0)
        ),
        "direct": dataclasses.replace(base, seed=seed, model="direct"),
    }


def bench_seed(base: TrainConfig, seed: int, horizon: int, trials: int) -> dict:
    """Train the three model variants for one seed and evaluate their curves."""
    models = []
    for name, cfg in _bench_variants(base, seed).items():
        model, _ = train(cfg)
        models.append((name, model))
    env = base.env.build()
    curves = analysis.rollout_error_curve(
        models, env, horizon, trials, seed=seed, start=base.start
    )
    return {
        name: {
            "bce": curve.bce_mean.tolist(),
            "accuracy": curve.accuracy_mean.tolist(),
        }
        for name, curve in curves.items()
    }


def _bench_job(payload):
    base, seed, horizon, trials = payload
    return seed, bench_seed(base, seed, horizon, trials)


def _write_seed_csv(path: Path, result: dict, horizon: int) -> None:
    lines = ["model,step,bce,accuracy"]
    for name in BENCH_VARIANTS:
        for k in range(horizon):
            bce, acc = result[name]["bce"][k], result[name]["accuracy"][k]
            lines.append(f"{name},{k + 1},{float(bce)!r},{float(acc)!r}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def _read_seed_csv(path: Path, horizon: int) -> dict:
    """A completed seed's curves; a malformed or partial file is a file error naming it."""
    result = {name: {"bce": [None] * horizon, "accuracy": [None] * horizon} for name in BENCH_VARIANTS}
    try:
        for line in path.read_text().splitlines()[1:]:
            name, step, bce, acc = line.split(",")
            k = int(step) - 1
            if not 0 <= k < horizon:
                raise ValueError(f"step {step} outside 1..{horizon}")
            result[name]["bce"][k], result[name]["accuracy"][k] = float(bce), float(acc)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"cannot resume from {path}: bad row ({exc}); delete it to start over")
    if any(None in curve for variant in result.values() for curve in variant.values()):
        raise ConfigError(f"cannot resume from {path}: rows are missing; delete it to start over")
    return result


def _read_manifest(path: Path) -> dict:
    """A previous run's manifest; a malformed one is a file error naming it."""
    try:
        manifest = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot resume from {path}: not valid JSON ({exc}); delete it to start over")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("completed"), dict):
        raise ConfigError(f"cannot resume from {path}: no 'completed' mapping; delete it to start over")
    return manifest


def cmd_predict_bench(args) -> int:
    cfg = load_experiment_config(args.config)
    base = cfg.train
    if base.env.kind == "sphere":
        raise ConfigError("predict-bench compares discrete-action models")
    if args.seeds is not None:
        seeds = list(range(args.seeds))
    elif cfg.seeds:
        seeds = list(cfg.seeds)
    else:
        raise ConfigError("no seeds: pass --seeds or set 'seeds' in the config")
    _require_at_least(1, seeds=args.seeds, horizon=args.horizon, trials=args.trials)
    horizon = args.horizon
    trials = args.trials
    out = _resolve_out(args, cfg)
    save_resolved_config(cfg, out / "resolved_config.json")

    manifest_path = out / "bench_manifest.json"
    fingerprint = {
        "horizon": horizon,
        "trials": trials,
        "config": {k: v for k, v in resolved_config_dict(cfg).items() if k != "seeds"},
    }
    manifest = {"completed": {}, **fingerprint}
    if manifest_path.exists():
        previous = _read_manifest(manifest_path)
        if all(previous.get(k) == v for k, v in fingerprint.items()):
            manifest = previous
        else:
            print("bench parameters changed; discarding previous partial results")

    def seed_file(seed: int) -> Path:
        return out / f"bench_seed_{seed}.csv"

    pending = [
        s
        for s in seeds
        if str(s) not in manifest["completed"] or not seed_file(s).exists()
    ]
    results: dict[int, dict] = {
        s: _read_seed_csv(seed_file(s), horizon) for s in seeds if s not in pending
    }

    def record(seed: int, result: dict) -> None:
        _write_seed_csv(seed_file(seed), result, horizon)
        results[seed] = result
        manifest["completed"][str(seed)] = seed_file(seed).name
        write_atomic(manifest_path, (json.dumps(manifest, indent=2) + "\n").encode())

    workers = max(1, int(os.environ.get("SYMR_THREADS", "1")))
    if workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for seed, result in pool.map(
                _bench_job, [(base, s, horizon, trials) for s in pending]
            ):
                record(seed, result)
    else:
        for seed in pending:
            record(seed, bench_seed(base, seed, horizon, trials))

    _write_combined_csv(out / "rollout_curve.csv", results, seeds, horizon)
    print(f"benchmarked {len(seeds)} seeds over horizon {horizon}; outputs in {out}")
    return EXIT_OK


def _write_combined_csv(path: Path, results: dict[int, dict], seeds, horizon: int) -> None:
    """Aggregate per-seed curves: mean and 95% CI half-width across seeds."""
    lines = ["model,step,bce_mean,bce_ci95,accuracy_mean,accuracy_ci95"]
    for name in BENCH_VARIANTS:
        bce = np.array([results[s][name]["bce"] for s in sorted(seeds)])
        acc = np.array([results[s][name]["accuracy"] for s in sorted(seeds)])
        columns = (
            bce.mean(axis=0),
            analysis._ci_half_width(bce),
            acc.mean(axis=0),
            analysis._ci_half_width(acc),
        )
        for k in range(horizon):
            lines.append(",".join([name, str(k + 1)] + [repr(float(c[k])) for c in columns]))
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symrep",
        description="Learn symmetry-structured latent representations of interactive environments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write weights plus a report")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_an = sub.add_parser("analyze", help="run analyses over trained weights")
    p_an.add_argument("--weights", required=True)
    p_an.add_argument("--config", required=True)
    p_an.add_argument("--out", default=None)
    p_an.add_argument("--group-report", action="store_true")
    p_an.add_argument("--equivariance", action="store_true")
    p_an.add_argument("--atlas", action="store_true")
    p_an.add_argument("--project-2d", action="store_true")
    p_an.add_argument("--proj-seeds", type=int, default=1)
    p_an.add_argument("--dimension-usage", action="store_true")
    p_an.add_argument("--angle-sweep", action="store_true")
    p_an.set_defaults(func=cmd_analyze)

    p_bench = sub.add_parser(
        "predict-bench",
        help="train regularised/unregularised/direct variants per seed and compare rollouts",
    )
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--seeds", type=int, default=None, help="number of training seeds (0..N-1)")
    p_bench.add_argument("--horizon", type=int, default=10)
    p_bench.add_argument("--trials", type=int, default=100)
    p_bench.set_defaults(func=cmd_predict_bench)

    p_exp = sub.add_parser("export-dataset", help="write sampled trajectories as CSV")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--count", type=int, required=True)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.set_defaults(func=cmd_export_dataset)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WeightsFormatError as exc:
        print(f"weights error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a missing, unreadable or unwritable path
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
