"""Dense float64 tensors with reverse-mode automatic differentiation.

Graphs are built define-by-run: every operation returns a fresh
:class:`Tensor` that remembers its operands and a closure routing the output
gradient back to them. Calling :meth:`Tensor.backward` on a scalar result
walks the recorded operations once, in reverse topological order, and
accumulates gradients into every tensor that requires them. The graph is
rebuilt on each forward pass, so rollout lengths may vary freely between
steps.

Everything is float64. The training problems handled here are tiny, and
reproducibility plus gradient-check precision matter more than speed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

NORM_EPS = 1e-12


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function on a plain array.

    exp only ever sees -|x|, so it cannot overflow: the result is
    1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, with e = exp(-|x|).
    Computed in place in two arrays of x's size.
    """
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    out = np.array(x)
    np.negative(out, out=out, where=pos)
    np.exp(out, out=out)
    den = np.add(out, 1.0)
    np.copyto(out, 1.0, where=pos)
    return np.divide(out, den, out=out)


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backward().

    Leaf tensors are either constants (inputs, targets) or parameters
    (``requires_grad=True``). Interior nodes are produced by the module-level
    operations and carry a backward closure. Gradients accumulate across all
    uses of a tensor within one graph, so parameters shared between rollout
    steps receive their full gradient.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar output through the recorded graph.

        Leaves (parameters and inputs) keep their accumulated gradients;
        interior nodes drop theirs as soon as they have been passed on.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar output, got shape {self.data.shape}"
            )
        order = _toposort(self)
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                # An interior gradient is spent once routed to the operands;
                # freeing it keeps one graph's worth of them from piling up.
                node.grad = None

    def sum(self) -> "Tensor":
        src = self

        def backward(g):
            src._accumulate(np.full_like(src.data, float(g)))

        return _node(self.data.sum(), (self,), backward)

    def mean(self) -> "Tensor":
        src = self
        size = self.data.size

        def backward(g):
            src._accumulate(np.full_like(src.data, float(g) / size))

        return _node(self.data.mean(), (self,), backward)

    # Operator sugar for ``a + b`` and for a number minus a tensor.
    def __add__(self, other):
        return add(self, other)

    def __rsub__(self, other):
        return add(as_tensor(other), mul(self, -1.0))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root: Tensor) -> list[Tensor]:
    """Operands-before-results ordering of the gradient-relevant subgraph."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


_grad_enabled = True


@contextmanager
def no_grad():
    """Within this block ops record no graph, so their results hold no operands.

    For forward passes whose gradients are never taken, such as scoring
    held-out trials; values are computed exactly as outside the block.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Wrap an op result; wire graph edges only when a parent needs gradients."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def add(a, b) -> Tensor:
    """Elementwise sum; also accepts a 1-d bias added to every row of a matrix."""
    a, b = as_tensor(a), as_tensor(b)
    bias = False
    if a.shape == b.shape:
        out = a.data + b.data
    elif a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        bias = True
        out = a.data + b.data
    else:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0) if bias else g)

    return _node(out, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise product; the right operand may be a plain python number."""
    a = as_tensor(a)
    if isinstance(b, (int, float)):
        c = float(b)

        def backward_const(g):
            if a.requires_grad:
                a._accumulate(g * c)

        return _node(a.data * c, (a,), backward_const)

    b = as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return _node(a.data * b.data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product for 1-d and 2-d operands, numpy ``@`` semantics."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ValueError(f"matmul supports 1-d/2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g):
        ad, bd = a.data, b.data
        if ad.ndim == 2 and bd.ndim == 2:
            if a.requires_grad:
                a._accumulate(g @ bd.T)
            if b.requires_grad:
                b._accumulate(ad.T @ g)
        elif ad.ndim == 2 and bd.ndim == 1:
            if a.requires_grad:
                a._accumulate(np.outer(g, bd))
            if b.requires_grad:
                b._accumulate(ad.T @ g)
        elif ad.ndim == 1 and bd.ndim == 2:
            if a.requires_grad:
                a._accumulate(bd @ g)
            if b.requires_grad:
                b._accumulate(np.outer(ad, g))
        else:  # 1-d dot product, scalar output
            if a.requires_grad:
                a._accumulate(g * bd)
            if b.requires_grad:
                b._accumulate(g * ad)

    return _node(out, (a, b), backward)


def reshape(a, shape) -> Tensor:
    """View of ``a`` with a new shape of the same size; backward reshapes the gradient back."""
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _node(out, (a,), backward)


def relu(a) -> Tensor:
    """Elementwise max(0, x); the gradient at exactly zero is zero."""
    a = as_tensor(a)
    mask = a.data > 0.0

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return _node(np.maximum(a.data, 0.0), (a,), backward)


def normalize_to_sphere(x) -> Tensor:
    """Project a vector (or every row of a matrix) onto the unit sphere.

    Backward applies the exact quotient rule: for z = x/r with r = |x|,
    dx = (g - z (z.g)) / r per row.
    """
    x = as_tensor(x)
    vec = x.data.ndim == 1
    X = x.data[None, :] if vec else x.data
    if X.ndim != 2:
        raise ValueError(f"normalize_to_sphere requires a vector or matrix, got {x.shape}")
    r = np.linalg.norm(X, axis=1)
    if np.any(r <= NORM_EPS):
        raise ValueError(
            f"cannot normalize a vector with norm <= {NORM_EPS:.0e} "
            f"(smallest norm {r.min():.3e})"
        )
    Z = X / r[:, None]

    def backward(g):
        if not x.requires_grad:
            return
        G = g[None, :] if vec else g
        inner = np.sum(Z * G, axis=1, keepdims=True)
        dX = (G - Z * inner) / r[:, None]
        x._accumulate(dX[0] if vec else dX)

    return _node(Z[0] if vec else Z, (x,), backward)


def bce_with_logits(logits, targets) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits) against targets in [0, 1].

    Uses the log-sum-exp form max(x,0) - x*t + log(1 + exp(-|x|)), which is
    finite for any finite logits; the backward (sigmoid(x) - t) / size is
    defined everywhere. Targets may be a strided view. The forward pass holds
    two arrays of the logits' size, the backward the two of ``sigmoid``.
    """
    logits, targets = as_tensor(logits), as_tensor(targets)
    if logits.shape != targets.shape:
        raise ValueError(f"bce shape mismatch: logits {logits.shape}, targets {targets.shape}")
    t = targets.data
    if t.size and (t.min() < 0.0 or t.max() > 1.0):
        raise ValueError(f"bce targets must lie in [0, 1], got range [{t.min()}, {t.max()}]")
    x = logits.data
    loss = np.maximum(x, 0.0)
    tail = np.multiply(x, t)
    np.subtract(loss, tail, out=loss)
    np.abs(x, out=tail)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    np.add(loss, tail, out=loss)

    def backward(g):
        scale = float(g) / x.size
        if logits.requires_grad:
            dx = sigmoid(x)
            np.subtract(dx, t, out=dx)
            np.multiply(dx, scale, out=dx)
            logits._accumulate(dx)
        if targets.requires_grad:
            targets._accumulate(-x * scale)

    return _node(loss.mean(), (logits, targets), backward)


def gather_rows(x, idx) -> Tensor:
    """Select rows (entries of the first axis) of an array by integer index; backward scatter-adds."""
    x = as_tensor(x)
    if x.data.ndim < 1:
        raise ValueError("gather_rows requires an array with rows, got a scalar")
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"gather_rows requires 1-d indices, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise LookupError(f"row index out of range [0, {x.shape[0]}): {idx}")

    def backward(g):
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            np.add.at(dx, idx, g)
            x._accumulate(dx)

    return _node(x.data[idx], (x,), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    """Concatenate matrices (or vectors along axis 0)."""
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat needs at least one tensor")
    if axis not in (0, 1):
        raise ValueError(f"concat supports axis 0 or 1, got {axis}")
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if not t.requires_grad:
                continue
            t._accumulate(g[lo:hi] if axis == 0 else g[:, lo:hi])

    return _node(out, tuple(ts), backward)


def finite_diff_check(f, x, step: float = 1e-5) -> float:
    """Max relative disagreement between f's analytic gradient and central differences.

    ``f`` maps a Tensor to a scalar Tensor and must be a pure function of its
    argument for the probe evaluations to be meaningful. Returns
    max_i |analytic_i - numeric_i| / (|analytic_i| + 1e-10). Note any
    parameters captured by ``f`` also receive gradient from the analytic
    backward pass; callers reusing those parameters should clear grads.
    """
    x0 = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    probe = Tensor(x0.copy(), requires_grad=True)
    out = f(probe)
    out.backward()
    analytic = probe.grad if probe.grad is not None else np.zeros_like(x0)
    analytic = analytic.ravel()

    worst = 0.0
    for i in range(x0.size):
        xp = x0.copy()
        xp.flat[i] += step
        xm = x0.copy()
        xm.flat[i] -= step
        fp = float(f(Tensor(xp)).data)
        fm = float(f(Tensor(xm)).data)
        numeric = (fp - fm) / (2.0 * step)
        rel = abs(analytic[i] - numeric) / (abs(analytic[i]) + 1e-10)
        worst = max(worst, rel)
    return worst
