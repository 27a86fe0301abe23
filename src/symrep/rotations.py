"""Special-orthogonal action representations built from planar rotations.

An action's representation on an n-dimensional latent space is the ordered
product of one rotation per coordinate plane::

    g(theta) = R_{1,2}(t_{1,2}) . R_{1,3}(t_{1,3}) . ... . R_{n-1,n}(t_{n-1,n})

with the n(n-1)/2 factors sorted lexicographically by plane index (i, j),
1 <= i < j <= n. Each factor is the identity outside rows/columns i and j,
where it carries ``[[cos t, sin t], [-sin t, cos t]]`` (positive sine above
the diagonal). Any angle assignment yields an orthogonal matrix with unit
determinant, so membership in SO(n) is structural rather than enforced by a
penalty. The factors do not commute, and the backward pass respects the
fixed product order.

Angles are unconstrained reals during optimisation. ``canonical_angles``
wraps them into (-pi, pi] for reporting only; wrapping inside training would
introduce gradient discontinuities.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _node, as_tensor

__all__ = [
    "plane_indices",
    "plane_count",
    "latent_dim_for",
    "plane_rotation",
    "compose_representation",
    "rotation_matrices",
    "rotate_vectors",
    "entanglement_penalty",
    "canonical_angles",
]


def plane_indices(n: int) -> list[tuple[int, int]]:
    """All rotation planes (i, j), 1-based, 1 <= i < j <= n, in product order."""
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def plane_count(n: int) -> int:
    return n * (n - 1) // 2


def latent_dim_for(num_angles: int) -> int:
    """Invert q = n(n-1)/2; rejects counts that fit no integer dimension."""
    n = round((1 + (1 + 8 * num_angles) ** 0.5) / 2)
    if n < 2 or plane_count(n) != num_angles:
        raise ValueError(f"{num_angles} angles do not fill the planes of any SO(n)")
    return n


def plane_rotation(i: int, j: int, theta: float, n: int) -> np.ndarray:
    """Rotation by theta embedded in the (i, j) coordinate plane of R^n."""
    if not (1 <= i < j <= n):
        raise IndexError(f"invalid rotation plane ({i}, {j}) for dimension {n}")
    c, s = np.cos(theta), np.sin(theta)
    R = np.eye(n)
    R[i - 1, i - 1] = c
    R[j - 1, j - 1] = c
    R[i - 1, j - 1] = s
    R[j - 1, i - 1] = -s
    return R


def _factor_stack(angles: np.ndarray, n: int) -> np.ndarray:
    """Planar factors for each angle row: shape (q, batch, n, n)."""
    q, batch = angles.shape[1], angles.shape[0]
    F = np.broadcast_to(np.eye(n), (q, batch, n, n)).copy()
    for k, (i, j) in enumerate(plane_indices(n)):
        c = np.cos(angles[:, k])
        s = np.sin(angles[:, k])
        F[k, :, i - 1, i - 1] = c
        F[k, :, j - 1, j - 1] = c
        F[k, :, i - 1, j - 1] = s
        F[k, :, j - 1, i - 1] = -s
    return F


def _factor_derivatives(angles: np.ndarray, n: int) -> np.ndarray:
    """Elementwise derivative of each planar factor w.r.t. its own angle."""
    q, batch = angles.shape[1], angles.shape[0]
    D = np.zeros((q, batch, n, n))
    for k, (i, j) in enumerate(plane_indices(n)):
        c = np.cos(angles[:, k])
        s = np.sin(angles[:, k])
        D[k, :, i - 1, i - 1] = -s
        D[k, :, j - 1, j - 1] = -s
        D[k, :, i - 1, j - 1] = c
        D[k, :, j - 1, i - 1] = -c
    return D


def _compose_batch(angles: np.ndarray, n: int) -> np.ndarray:
    F = _factor_stack(angles, n)
    G = F[0].copy()
    for k in range(1, F.shape[0]):
        G = G @ F[k]
    return G


def _compose_grad_batch(angles: np.ndarray, upstream: np.ndarray, n: int) -> np.ndarray:
    """Gradient of <upstream, g(theta)> per batch row.

    d<U, G>/dt_k = <U, P_k . R'_k . S_k> where P_k and S_k are the ordered
    products of the factors before and after factor k.
    """
    F = _factor_stack(angles, n)
    D = _factor_derivatives(angles, n)
    q, batch = F.shape[0], F.shape[1]
    eye = np.broadcast_to(np.eye(n), (batch, n, n))

    prefixes = np.empty_like(F)
    P = eye.copy()
    for k in range(q):
        prefixes[k] = P
        P = P @ F[k]

    suffixes = np.empty_like(F)
    S = eye.copy()
    for k in range(q - 1, -1, -1):
        suffixes[k] = S
        S = F[k] @ S

    grads = np.empty((batch, q))
    for k in range(q):
        grads[:, k] = np.einsum("bij,bij->b", upstream, prefixes[k] @ D[k] @ suffixes[k])
    return grads


def compose_representation(angles, n: int | None = None) -> np.ndarray:
    """Ordered product of all planar rotations for one angle vector."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 1:
        raise ValueError(f"expected a flat angle vector, got shape {angles.shape}")
    if n is None:
        n = latent_dim_for(angles.size)
    elif plane_count(n) != angles.size:
        raise ValueError(f"dimension {n} needs {plane_count(n)} angles, got {angles.size}")
    return _compose_batch(angles[None, :], n)[0]


def rotation_matrices(angles: Tensor) -> Tensor:
    """Differentiable op mapping angle rows (q,) or (B, q) to matrices.

    The output is (n, n) or (B, n, n); the backward pass routes matrix
    gradients to the angles in the fixed factor order.
    """
    angles = as_tensor(angles)
    single = angles.data.ndim == 1
    A = (angles.data[None, :] if single else angles.data).copy()
    if A.ndim != 2:
        raise ValueError(f"rotation_matrices expects (q,) or (B, q) angles, got {angles.shape}")
    n = latent_dim_for(A.shape[1])
    G = _compose_batch(A, n)

    def backward(g):
        if not angles.requires_grad:
            return
        U = g[None, :, :] if single else g
        dA = _compose_grad_batch(A, U, n)
        angles._accumulate(dA[0] if single else dA)

    return _node(G[0] if single else G, (angles,), backward)


def rotate_vectors(mats: Tensor, vecs: Tensor) -> Tensor:
    """Apply per-row matrices to per-row vectors: out[b] = mats[b] @ vecs[b]."""
    mats, vecs = as_tensor(mats), as_tensor(vecs)
    M, Z = mats.data, vecs.data
    if M.ndim != 3 or Z.ndim != 2 or M.shape[0] != Z.shape[0] or M.shape[2] != Z.shape[1]:
        raise ValueError(f"rotate_vectors shape mismatch: {mats.shape} applied to {vecs.shape}")

    def backward(g):
        if mats.requires_grad:
            mats._accumulate(np.einsum("bi,bj->bij", g, Z))
        if vecs.requires_grad:
            vecs._accumulate(np.einsum("bij,bi->bj", M, g))

    return _node(np.einsum("bij,bj->bi", M, Z), (mats, vecs), backward)


def entanglement_penalty(angles: Tensor) -> Tensor:
    """Differentiable entanglement term over one angle row or a stack of rows.

    The argmax entry of each row is frozen for the backward pass (treated as
    locally constant), so gradients are 2*theta on the non-max entries and
    exactly zero on the exempt one.
    """
    angles = as_tensor(angles)
    single = angles.data.ndim == 1
    A = angles.data[None, :] if single else angles.data
    if A.ndim != 2:
        raise ValueError(f"entanglement_penalty expects (q,) or (B, q) angles, got {angles.shape}")
    # The exempt entry is each row's largest magnitude (the first on ties).
    # Summing only the other squares, rather than subtracting the exempt ones
    # from the total, keeps the value exactly independent of the exempt entry,
    # as its zero gradient says it is.
    keep = np.ones(A.shape, dtype=bool)
    keep[np.arange(A.shape[0]), np.argmax(np.abs(A), axis=1)] = False
    value = float((A[keep] ** 2).sum())

    def backward(g):
        if not angles.requires_grad:
            return
        dA = np.where(keep, 2.0 * A * float(g), 0.0)
        angles._accumulate(dA[0] if single else dA)

    return _node(value, (angles,), backward)


def canonical_angles(angles) -> np.ndarray:
    """Wrap angles into (-pi, pi]; for reporting only, never inside training."""
    w = np.mod(np.asarray(angles, dtype=np.float64), 2.0 * np.pi)
    return np.where(w > np.pi, w - 2.0 * np.pi, w)
