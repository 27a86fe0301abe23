"""Hooks around the program's entry points, installed from outside it.

No program file is edited: the hooks rebind module attributes and class
methods of the imported ``symrep`` package. :class:`Hooks` always takes the
few timestamps the end-to-end metrics need and keeps what the output checks
replay. With tracing on it also records a span (name, start, end, parent)
around each call into a layer, counts work at the same boundaries, and
derives each layer's self time from the spans once the workload has ended.
Every entry point a hook wraps must exist: a missing one stops the run, so a
renamed function cannot leave its layer's metric silently reading 0.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from statistics import median

clock = time.perf_counter

# Layer spans: (span name, module, function or Class.method).
SPANS = (
    ("config.load", "config", "load_experiment_config"),
    ("models.encode", "models", "Encoder.__call__"),
    ("models.decode", "models", "Decoder.__call__"),
    ("models.action_angles", "models", "ActionTable.angles_for"),
    ("models.action_angles", "models", "ContinuousActionNet.angles_for"),
    ("rotations.entanglement", "rotations", "entanglement_penalty"),
    ("analysis.equivariance", "analysis", "equivariance_error"),
    ("analysis.group_report", "analysis", "group_report"),
    ("cli.seed", "cli", "bench_seed"),
    ("cli.io", "models", "save_weights"),
    ("cli.io", "config", "save_resolved_config"),
    ("cli.io", "training", "TrainReport.save_csv"),
    ("cli.io", "cli", "_write_seed_csv"),
    ("cli.io", "cli", "_write_combined_csv"),
    ("cli.io", "analysis", "save_atlas_csv"),
    ("cli.io", "analysis", "save_projection_csv"),
    ("cli.io", "analysis", "GroupReport.save_csv"),
    ("cli.io", "analysis", "EquivarianceStats.save_csv"),
    ("cli.io", "analysis", "DimensionUsage.save_csv"),
    ("cli.io", "analysis", "AngleSweep.save_csv"),
)
OBSERVERS = ("TorusWorld.observe", "SphereWorld.observe")
PREDICTORS = ("SymmetryModel.predict_sequence", "DirectPredictor.predict_sequence")

# name -> unit, in the order the traced run prints them
LAYER_METRICS = {
    "config.load_ms": "ms",
    "environments.sample_ms_per_step": "ms",
    "environments.observe_calls_per_step": "count",
    "models.encode_ms_per_step": "ms",
    "models.decode_ms_per_step": "ms",
    "models.action_angles_ms_per_step": "ms",
    "rotations.compose_ms_per_step": "ms",
    "rotations.backward_ms_per_step": "ms",
    "rotations.matrices_per_step": "count",
    "rotations.grad_stack_mb": "MB_computed",
    "rotations.entanglement_ms_per_step": "ms",
    "tensor.backward_self_ms_per_step": "ms",
    "tensor.graph_nodes_per_step": "count",
    "optim.adam_ms_per_step": "ms",
    "training.step_ms": "ms",
    "training.forward_ms_per_step": "ms",
    "analysis.rollout_curve_s": "s",
    "analysis.predict_sequence_calls": "count",
    "analysis.equivariance_s": "s",
    "analysis.group_report_s": "s",
    "cli.seed_s": "s",
    "cli.io_ms": "ms",
}


def _rebind(original, wrapper) -> None:
    """Point every name in a symrep module that is bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name == "symrep" or name.startswith("symrep."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(module: str, path: str, make) -> None:
    """Replace ``symrep.<module>.<path>`` by ``make(original)``; raise if it does not exist."""
    owner = importlib.import_module(f"symrep.{module}")
    *classes, attr = path.split(".")
    for name in (*classes, attr):
        parent, owner = owner, getattr(owner, name, None)
        if owner is None:
            raise RuntimeError(f"symrep.{module}.{path} is missing; the benchmark's hooks need it")
    wrapper = make(owner)
    if classes:
        setattr(parent, attr, wrapper)
    else:
        _rebind(owner, wrapper)


class Hooks:
    """Timestamps and captures for one workload run; spans too when ``trace`` is on.

    ``keep_calls`` holds the indices of the training-time ``sample_trajectory``
    calls whose trajectories the checks replay. Of each held-out rollout
    curve, every episode's start state and actions are kept, and the whole
    trajectory of the first ``keep_heldout`` trials. Only these few whole
    trajectories are held, so the captures add little to the peak memory.
    """

    def __init__(self, keep_calls: set[int], keep_heldout: int, trace: bool):
        self.keep_calls = keep_calls
        self.keep_heldout = keep_heldout
        self.trace = trace
        self.first_step_at: float | None = None
        self.trained: list[tuple[object, object, object, float]] = []  # config, model, report, seconds
        self.eval_s = 0.0
        self.heldout: list[list] = []  # (start state, actions) per trial, per rollout_error_curve call
        self.heldout_kept: list[list] = []  # whole trajectories of the first trials, per call
        self.kept: list = []  # whole training trajectories chosen by keep_calls
        self.sample_calls = 0
        self.in_train = False
        self.in_eval = False
        # tracing state
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.step_ms: list[float] = []
        self.step_start = 0.0
        self.last_sample_end = 0.0
        self.forward_s = 0.0
        self.grad_stack_mb = 0.0

    # ------------------------------------------------------------ wrappers

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record = spans[index]
                record[1] = start
                record[2] = end

        return traced

    def _maybe_span(self, name: str, fn):
        return self.span(name, fn) if self.trace else fn

    def install(self) -> None:
        hooks = self

        def make_train(original):
            inner = hooks._maybe_span("training.train", original)

            def train(config, *args, **kwargs):
                hooks.in_train = True
                start = clock()
                try:
                    model, report = inner(config, *args, **kwargs)
                finally:
                    hooks.in_train = False
                hooks.trained.append((config, model, report, clock() - start))
                return model, report

            return train

        def make_adam_init(original):
            def __init__(adam, *args, **kwargs):
                original(adam, *args, **kwargs)
                now = clock()
                if hooks.first_step_at is None:
                    hooks.first_step_at = now
                hooks.step_start = now

            return __init__

        def make_sample(original):
            inner = hooks._maybe_span("environments.sample", original)

            def sample_trajectory(*args, **kwargs):
                traj = inner(*args, **kwargs)
                if hooks.in_eval:
                    episodes = hooks.heldout[-1]
                    if len(episodes) < hooks.keep_heldout:
                        hooks.heldout_kept[-1].append(traj)
                    episodes.append((traj.start_state, traj.actions))
                else:
                    if hooks.sample_calls in hooks.keep_calls:
                        hooks.kept.append(traj)
                    hooks.sample_calls += 1
                hooks.last_sample_end = clock()
                return traj

            return sample_trajectory

        def make_curve(original):
            inner = hooks._maybe_span("analysis.rollout_curve", original)

            def rollout_error_curve(*args, **kwargs):
                hooks.heldout.append([])
                hooks.heldout_kept.append([])
                hooks.in_eval = True
                start = clock()
                try:
                    return inner(*args, **kwargs)
                finally:
                    hooks.eval_s += clock() - start
                    hooks.in_eval = False

            return rollout_error_curve

        for module, path, make in (
            ("training", "train", make_train),
            ("optim", "Adam.__init__", make_adam_init),
            ("environments", "sample_trajectory", make_sample),
            ("analysis", "rollout_error_curve", make_curve),
        ):
            install(module, path, make)
        if self.trace:
            self._install_layers()

    def _install_layers(self) -> None:
        hooks = self
        counts = self.counts

        for name, module, path in SPANS:
            install(module, path, lambda fn, name=name: hooks.span(name, fn))

        def make_counter(key: str, train_only: bool):
            def make(original):
                def counted(*args, **kwargs):
                    if hooks.in_train or not train_only:
                        counts[key] += 1
                    return original(*args, **kwargs)

                return counted

            return make

        for path in OBSERVERS:
            install("environments", path, make_counter("observe", train_only=True))
        for path in PREDICTORS:
            install("models", path, make_counter("predict_sequence", train_only=False))

        def make_compose(original):
            inner = hooks.span("rotations.compose", original)

            def rotation_matrices(angles, *args, **kwargs):
                out = inner(angles, *args, **kwargs)
                n = out.data.shape[-1]
                rows = out.data.shape[0] if out.data.ndim == 3 else 1
                if hooks.in_train:
                    counts["matrices"] += rows
                # the backward pass keeps four (q, rows, n, n) float64 stacks
                stack_mb = 4 * (n * (n - 1) // 2) * rows * n * n * 8 / 1e6
                hooks.grad_stack_mb = max(hooks.grad_stack_mb, stack_mb)
                if out._backward is not None:
                    out._backward = hooks.span("rotations.backward", out._backward)
                return out

            return rotation_matrices

        def make_backward(original):
            inner = hooks.span("tensor.backward", original)

            def backward(tensor):
                if hooks.in_train:
                    hooks.forward_s += clock() - max(hooks.last_sample_end, hooks.step_start)
                return inner(tensor)

            return backward

        def make_toposort(original):
            def _toposort(root):
                order = original(root)
                if hooks.in_train:
                    counts["graph_nodes"] += len(order)
                return order

            return _toposort

        def make_adam_step(original):
            inner = hooks.span("optim.adam", original)

            def step(adam):
                inner(adam)
                now = clock()
                hooks.step_ms.append((now - hooks.step_start) * 1e3)
                hooks.step_start = now

            return step

        install("rotations", "rotation_matrices", make_compose)
        install("tensor", "Tensor.backward", make_backward)
        install("tensor", "_toposort", make_toposort)
        install("optim", "Adam.step", make_adam_step)

    # ------------------------------------------------------------- results

    @property
    def train_steps(self) -> int:
        return sum(len(report.steps) for _, _, report, _ in self.trained)

    @property
    def train_s(self) -> float:
        return sum(seconds for *_, seconds in self.trained)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures from the spans and counts; per-step ones over training only."""
        steps = max(self.train_steps, 1)
        in_train: list[bool] = []
        children = [0.0] * len(self.spans)
        train_total: dict[str, float] = defaultdict(float)
        train_self: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            in_train.append(name == "training.train" or (parent >= 0 and in_train[parent]))
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            if in_train[index]:
                train_total[name] += end - start
                train_self[name] += end - start - children[index]

        def per_step_ms(name: str) -> float:
            return 1e3 * train_total[name] / steps

        def mean(name: str, scale: float) -> float:
            return scale * total[name] / calls[name] if calls[name] else 0.0

        return {
            "config.load_ms": mean("config.load", 1e3),
            "environments.sample_ms_per_step": per_step_ms("environments.sample"),
            "environments.observe_calls_per_step": self.counts["observe"] / steps,
            "models.encode_ms_per_step": per_step_ms("models.encode"),
            "models.decode_ms_per_step": per_step_ms("models.decode"),
            "models.action_angles_ms_per_step": per_step_ms("models.action_angles"),
            "rotations.compose_ms_per_step": per_step_ms("rotations.compose"),
            "rotations.backward_ms_per_step": per_step_ms("rotations.backward"),
            "rotations.matrices_per_step": self.counts["matrices"] / steps,
            "rotations.grad_stack_mb": self.grad_stack_mb,
            "rotations.entanglement_ms_per_step": per_step_ms("rotations.entanglement"),
            "tensor.backward_self_ms_per_step": 1e3 * train_self["tensor.backward"] / steps,
            "tensor.graph_nodes_per_step": self.counts["graph_nodes"] / steps,
            "optim.adam_ms_per_step": per_step_ms("optim.adam"),
            "training.step_ms": median(self.step_ms) if self.step_ms else 0.0,
            "training.forward_ms_per_step": 1e3 * self.forward_s / steps,
            "analysis.rollout_curve_s": total["analysis.rollout_curve"],
            "analysis.predict_sequence_calls": float(self.counts["predict_sequence"]),
            "analysis.equivariance_s": total["analysis.equivariance"],
            "analysis.group_report_s": total["analysis.group_report"],
            "cli.seed_s": mean("cli.seed", 1.0),
            "cli.io_ms": 1e3 * total["cli.io"],
        }

    def write_spans(self, path, origin: float) -> None:
        """Spans as CSV ``index,name,start_s,end_s,parent``, times from ``origin``."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
