#!/usr/bin/env python3
"""Run one symrep benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload torus10-n6 --seed 0 --seconds 15 --trace 0

Run it from the root of a symrep checkout: it imports the program from
./src, drives it through ``symrep.cli.main`` in this one process, writes the
outputs under ./bench_runs/<workload>/, checks them, and prints
``{"correct", "attempted", "failed", "metrics"}`` as the last line of
standard output. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones. See bench/README.md.
"""

import os
import sys
import time

# One BLAS thread and one predict-bench worker, fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SYMR_THREADS"] = "1"


def _process_start() -> float:
    """The perf_counter reading at which this process started (10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime since boot
    return time.perf_counter() - (time.clock_gettime(time.CLOCK_BOOTTIME) - started)


PROCESS_START = _process_start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
from hooks import LAYER_METRICS, Hooks, clock  # noqa: E402

HORIZON = 10
HELDOUT_SEED_BASE = 1000  # held-out trials use seed 1000 + --seed
KEPT_TRAINING_TRAJECTORIES = 32  # whole training trajectories the checks replay
KEPT_HELDOUT_TRAJECTORIES = 32  # whole held-out trajectories per curve the checks replay
SPHERE_MATRIX_SAMPLES = 64

# Training length is steps_per_s * --seconds, a fixed step count for a given
# run length, so heldout_bce is deterministic per seed and a faster program
# finishes sooner. The rates leave room in the run for the analyses and the
# held-out curve, whose trial counts are sized to take several seconds: a
# shorter measurement spreads too widely on a shared machine (see README).
TRAIN_WORKLOADS = {
    "torus10-n6": {
        "environment": {"type": "torus", "p": 10},
        "n": 6,
        "steps_per_s": 80,
        "trials": 2000,
        "analyze": ["--group-report", "--equivariance", "--atlas", "--dimension-usage"],
    },
    "torus10-n16": {
        "environment": {"type": "torus", "p": 10},
        "n": 16,
        "steps_per_s": 6,
        "trials": 600,
        "analyze": ["--group-report", "--equivariance", "--atlas", "--dimension-usage"],
    },
    "sphere-n3": {
        "environment": {"type": "sphere"},
        "n": 3,
        "steps_per_s": 35,
        "lambda_max": 0.02,
        "trials": 1600,
        "analyze": ["--equivariance", "--angle-sweep"],
    },
}

# The configuration of acceptance criterion 8, run for seed 0 only.
BENCH_CONFIG = {
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
BENCH_SEEDS = 1
BENCH_TRIALS = 100
# The benchmark's own held-out curve of seed 0's three trained models, so that
# eval_s measures seconds of work rather than predict-bench's 0.5 s.
BENCH_HELDOUT_TRIALS = 600
BENCH_VARIANTS = ("regularised", "unregularised", "direct")
WORKLOADS = (*TRAIN_WORKLOADS, "bench-torus5")

E2E_UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "eval_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "heldout_bce": "nats",
}


def load_program():
    """Import symrep from ./src of the checkout, never from anywhere else."""
    src = Path.cwd() / "src"
    if not (src / "symrep" / "__init__.py").is_file():
        sys.exit("bench/run.py: no ./src/symrep; run it from the root of a symrep checkout")
    sys.path.insert(0, str(src))
    import symrep
    import symrep.analysis
    import symrep.cli
    import symrep.config
    import symrep.environments
    import symrep.models
    import symrep.training

    if Path(symrep.__file__).resolve().parent != (src / "symrep").resolve():
        sys.exit(f"bench/run.py: imported symrep from {symrep.__file__}, not from {src}")
    return symrep


def run_cli(symrep, argv) -> None:
    """One ``symrep`` command in this process; its own output goes to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        code = symrep.cli.main([str(a) for a in argv])
    if code != 0:
        sys.exit(f"bench/run.py: symrep {argv[0]} exited with code {code}")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_config(spec: dict, seconds: int) -> dict:
    steps = max(1, round(spec["steps_per_s"] * seconds))
    doc = {
        "environment": spec["environment"],
        "n": spec["n"],
        "m": 5,
        "batch_size": 16,
        "total_steps": steps,
        "learning_rate": 0.003,
        "seed": 0,
    }
    if "lambda_max" in spec:
        doc["lambda_schedule"] = {
            "kind": "linear_ramp",
            "start_step": 0,
            "end_step": max(2 * steps // 3, 1),
            "max_value": spec["lambda_max"],
        }
    return doc


def kept_calls(rng: np.random.Generator, total_calls: int) -> set[int]:
    count = min(KEPT_TRAINING_TRAJECTORIES, total_calls)
    return {int(i) for i in rng.choice(total_calls, size=count, replace=False)}


# ------------------------------------------------------------------ checks

def check_batch(symrep, config, env, rng: np.random.Generator):
    """A fresh seeded batch of the config's shape, drawn through the program's sampler."""
    envs = symrep.environments
    seed = int(rng.integers(2**31))
    start = env.center_state() if config.start == "center" else None
    angle_range = (-np.pi, np.pi) if env.continuous else None
    return [
        envs.sample_trajectory(env, envs.trajectory_rng(seed, 0, i), config.m, start, angle_range)
        for i in range(config.batch_size)
    ]


def training_loss(symrep, model, config, batch):
    """The full training loss at the last step's lambda, built by the program."""
    training = symrep.training
    if config.model == "direct":
        return lambda: training.direct_prediction_loss(model, batch)[0]
    lam = training.lambda_at(config.lambda_schedule, config.total_steps - 1, config.total_steps)

    def loss():
        l_rec, _ = training.rollout_loss(model, batch)
        return training.total_loss(l_rec, training.batch_entanglement(model, batch), lam)

    return loss


def check_model(symrep, report: list, label: str, model, config, env, weights, rng) -> None:
    """SO(n) membership of the learnt actions and the directional derivative of the loss."""
    if config.model != "direct":
        if env.continuous:
            pairs = [(int(rng.integers(3)), float(rng.uniform(-np.pi, np.pi))) for _ in range(SPHERE_MATRIX_SAMPLES)]
            program = [model.action_matrix(pair) for pair in pairs]
            reference = [ref.action_matrix(ref.action_angles(weights, pair)) for pair in pairs]
        else:
            program = [model.action_matrix(a) for a in range(env.num_actions)]
            reference = [ref.action_matrix(row) for row in weights["actions.angles"]]
        report.append(f"{label} SO(n): " + checks.special_orthogonal(program, reference))
    batch = check_batch(symrep, config, env, rng)
    loss = training_loss(symrep, model, config, batch)
    report.append(f"{label} gradient: " + checks.directional_derivative(loss, model.parameters(), rng))


# --------------------------------------------------------------- workloads

def run_train_workload(symrep, name: str, args, out: Path, hooks: Hooks) -> dict:
    spec = TRAIN_WORKLOADS[name]
    config_path = out / "config.json"
    config_path.write_text(json.dumps(train_config(spec, args.seconds), indent=2) + "\n")
    run_cli(symrep, ["train", "--config", config_path, "--out", out / "train"])
    weights_path = out / "train" / "weights.symr"
    start = clock()
    run_cli(symrep, ["analyze", "--weights", weights_path, "--config", config_path, "--out", out / "analyze", *spec["analyze"]])
    analyze_s = clock() - start

    cfg = symrep.config.load_experiment_config(config_path).train
    env = cfg.env.build()
    model = symrep.training.build_model(cfg, env)
    model.load_state_dict(symrep.models.load_weights(weights_path))
    curve = symrep.analysis.rollout_error_curve([("model", model)], env, HORIZON, spec["trials"],
                                                 seed=HELDOUT_SEED_BASE + args.seed, start=cfg.start)["model"]
    end = clock()

    def verify(report: list, rng) -> None:
        weights = ref.read_weights(weights_path)
        kind, p = cfg.env.kind, cfg.env.p
        report.append("training batches: " + checks.trajectories(kind, p, hooks.kept))
        report.append("held-out trials: " + checks.trajectories(kind, p, hooks.heldout_kept[0]))
        check_model(symrep, report, "model", model, cfg, env, weights, rng)
        reference = checks.reference_bce(weights, kind, p, hooks.heldout[0])
        report.append(checks.bce_agrees(curve.bce_mean, reference, "held-out curve"))

    return {
        "end": end,
        "eval_s": analyze_s + hooks.eval_s,
        "heldout_bce": float(curve.bce_mean[-1]),
        "attempted": hooks.train_steps + spec["trials"],
        "verify": verify,
        "digests": {f: digest(out / "train" / f) for f in ("weights.symr", "train_report.csv")},
    }


def variant_of(config) -> str:
    if config.model == "direct":
        return "direct"
    return "unregularised" if getattr(config.lambda_schedule, "value", None) == 0.0 else "regularised"


def run_bench_workload(symrep, args, out: Path, hooks: Hooks) -> dict:
    config_path = out / "config.json"
    config_path.write_text(json.dumps(BENCH_CONFIG, indent=2) + "\n")
    bench_out = out / "bench"
    argv = ["predict-bench", "--config", config_path, "--out", bench_out, "--seeds", BENCH_SEEDS,
            "--horizon", HORIZON, "--trials", BENCH_TRIALS]
    run_cli(symrep, argv)
    seeds = list(range(BENCH_SEEDS))
    trained = {(c.seed, variant_of(c)): (c, m) for c, m, _, _ in hooks.trained}
    if sorted(trained) != sorted((s, v) for s in seeds for v in BENCH_VARIANTS):
        sys.exit(f"bench/run.py: predict-bench trained {sorted(trained)}")
    env = symrep.config.load_experiment_config(config_path).train.env.build()
    heldout = symrep.analysis.rollout_error_curve(
        [(v, trained[(0, v)][1]) for v in BENCH_VARIANTS], env, HORIZON, BENCH_HELDOUT_TRIALS,
        seed=HELDOUT_SEED_BASE + args.seed, start=BENCH_CONFIG["start"],
    )
    end = clock()
    curve = checks.read_curve(bench_out / "rollout_curve.csv")

    def verify(report: list, rng) -> None:
        report.append("aggregation: " + checks.bench_aggregation(bench_out, seeds, HORIZON, BENCH_TRIALS, BENCH_VARIANTS))
        before = (bench_out / "rollout_curve.csv").read_bytes()
        count = len(hooks.trained)
        run_cli(symrep, argv)
        if len(hooks.trained) != count:
            raise checks.CheckFailed(f"the second predict-bench call trained {len(hooks.trained) - count} models")
        if (bench_out / "rollout_curve.csv").read_bytes() != before:
            raise checks.CheckFailed("the second predict-bench call changed rollout_curve.csv")
        report.append("resume: the second call trained nothing and rewrote rollout_curve.csv byte for byte")
        report.append("training batches: " + checks.trajectories("torus", 5, hooks.kept))
        # rollout_error_curve ran once per seed inside predict-bench, then once here
        *per_seed_trials, heldout_trials = hooks.heldout
        *per_seed_kept, heldout_kept = hooks.heldout_kept
        for seed, trajs in zip(seeds, per_seed_kept, strict=True):
            report.append(f"predict-bench trials, seed {seed}: " + checks.trajectories("torus", 5, trajs))
        report.append("held-out trials: " + checks.trajectories("torus", 5, heldout_kept))
        table = {s: ref.read_seed_csv(bench_out / f"bench_seed_{s}.csv") for s in seeds}
        for (seed, variant), (cfg, model) in sorted(trained.items()):
            label = f"seed {seed} {variant}"
            path = out / "checks" / f"seed{seed}-{variant}.symr"
            path.parent.mkdir(exist_ok=True)
            symrep.models.save_weights(path, model.state_dict())
            weights = ref.read_weights(path)
            check_model(symrep, report, label, model, cfg, env, weights, rng)
            direct = env.num_actions if variant == "direct" else None
            program = [table[seed][variant][k][0] for k in range(1, HORIZON + 1)]
            reference = checks.reference_bce(weights, "torus", 5, per_seed_trials[seed], direct)
            report.append(checks.bce_agrees(program, reference, f"{label}, bench_seed_{seed}.csv"))
            if seed == 0:
                reference = checks.reference_bce(weights, "torus", 5, heldout_trials, direct)
                report.append(checks.bce_agrees(heldout[variant].bce_mean, reference, f"{label}, held-out curve"))

    digests = {p.name: digest(p) for p in sorted(bench_out.glob("*.csv"))}
    return {
        "end": end,
        "eval_s": hooks.eval_s,
        "heldout_bce": curve[("regularised", HORIZON)][0],
        "attempted": hooks.train_steps + len(BENCH_VARIANTS) * (BENCH_TRIALS * BENCH_SEEDS + BENCH_HELDOUT_TRIALS),
        "verify": verify,
        "digests": digests,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    symrep = load_program()
    out = Path.cwd() / "bench_runs" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([args.seed, 7])))
    if args.workload == "bench-torus5":
        calls = len(BENCH_VARIANTS) * BENCH_SEEDS * BENCH_CONFIG["total_steps"] * BENCH_CONFIG["batch_size"]
    else:
        doc = train_config(TRAIN_WORKLOADS[args.workload], args.seconds)
        calls = doc["total_steps"] * doc["batch_size"]
    hooks = Hooks(kept_calls(rng, calls), KEPT_HELDOUT_TRAJECTORIES, trace=bool(args.trace))
    hooks.install()

    if args.workload == "bench-torus5":
        result = run_bench_workload(symrep, args, out, hooks)
    else:
        result = run_train_workload(symrep, args.workload, args, out, hooks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if hooks.first_step_at is None or not hooks.trained:
        sys.exit("bench/run.py: the workload trained no model")

    e2e = {
        "setup_s": hooks.first_step_at - PROCESS_START,
        "train_steps_per_s": hooks.train_steps / hooks.train_s,
        "eval_s": result["eval_s"],
        "total_s": result["end"] - PROCESS_START,
        "peak_rss_mb": peak_rss_mb,
        "heldout_bce": result["heldout_bce"],
    }
    layers = hooks.layer_metrics() if args.trace else {}
    if args.trace:
        hooks.write_spans(out / "spans.csv", PROCESS_START)

    report: list[str] = []
    correct = True
    try:
        result["verify"](report, rng)
    except checks.CheckFailed as exc:
        correct = False
        report.append(f"FAILED: {exc}")
    for line in report:
        print(f"[check] {line}", file=sys.stderr)

    (out / "metrics.json").write_text(
        json.dumps({"end_to_end": e2e, "per_layer": layers, "digests": result["digests"], "checks": report}, indent=2) + "\n"
    )
    shown = layers if args.trace else e2e
    units = LAYER_METRICS if args.trace else E2E_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": 0,
        "metrics": {k: {"value": shown[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
