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
fixed product order. Both passes apply the product as 2n-3 layers of
pairwise-disjoint planes (``_layers``), the rectangular Givens mesh of
Clements et al. 2016, in O(B n^2) memory for B angle rows.

Angles are unconstrained reals during optimisation. ``canonical_angles``
wraps them into (-pi, pi] for reporting only; wrapping inside training would
introduce gradient discontinuities.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import Tensor, _node, as_tensor


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


@lru_cache(maxsize=None)
def _layers(n: int) -> tuple[np.ndarray, tuple[tuple[int, int, slice, slice], ...]]:
    """The product as 2n-3 layers of pairwise-disjoint planes.

    Plane (i, j) goes in layer i + j - 2. Of two planes that share an index,
    the one earlier in product order has the smaller index sum, so their
    order is kept; planes without a shared index commute. Applying the
    layers in turn therefore gives the same product. Inside a layer i rises
    and j falls, so its i-columns and its j-columns are each one basic slice.

    Returns the permutation taking lexicographic angle columns into layer
    order, and each layer's (start, stop) range of that order with its
    (I, J) column slices (0-based).
    """
    position = {plane: k for k, plane in enumerate(plane_indices(n))}
    order, layers = [], []
    for total in range(3, 2 * n):
        lo, hi, start = max(1, total - n), (total - 1) // 2, len(order)
        order += [position[(i, total - i)] for i in range(lo, hi + 1)]
        layers.append((start, len(order), slice(lo - 1, hi), slice(total - lo - 1, total - hi - 2, -1)))
    perm = np.array(order, dtype=np.intp)
    perm.setflags(write=False)
    return perm, tuple(layers)


def _rotate_columns(M: np.ndarray, I: slice, J: slice, c: np.ndarray, s: np.ndarray) -> None:
    """In place, M <- M . L for a layer L of disjoint planes; c, s broadcast over rows."""
    MI, MJ = M[..., I], M[..., J]
    new_I = MI * c - MJ * s
    MJ[...] = MI * s + MJ * c
    MI[...] = new_I


def _compose_grad_batch(cos, sin, G, upstream, layers) -> np.ndarray:
    """Gradient of <upstream, G> per row, in layer order.

    With Q_l the product of layers 1..l, the derivative of layer l's factor
    for plane (i, j) is that factor times the unit rotation generator of the
    plane, so the gradient is M_ij - M_ji of M_l = Q_l^T . U . G^T . Q_l.
    M_0 = U . G^T, and M_l = L_l^T . M_(l-1) . L_l: a column update, then the
    same update on rows. Memory is O(B n^2).
    """
    M = upstream @ np.swapaxes(G, 1, 2)
    grads = np.empty_like(cos)
    Mt = np.swapaxes(M, 1, 2)  # row updates of M are column updates of this view
    for start, stop, I, J in layers:
        c, s = cos[:, None, start:stop], sin[:, None, start:stop]
        _rotate_columns(M, I, J, c, s)
        _rotate_columns(Mt, I, J, c, s)
        grads[:, start:stop] = M[:, I, J].diagonal(0, 1, 2) - M[:, J, I].diagonal(0, 1, 2)
    return grads


def compose_representation(angles) -> np.ndarray:
    """Ordered product of all planar rotations for one angle vector."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 1:
        raise ValueError(f"expected a flat angle vector, got shape {angles.shape}")
    return rotation_matrices(angles).data


def rotation_matrices(angles: Tensor) -> Tensor:
    """Differentiable op mapping angle rows (q,) or (B, q) to matrices.

    The output is (n, n) or (B, n, n); the backward pass routes matrix
    gradients to the angles in the fixed factor order.
    """
    angles = as_tensor(angles)
    single = angles.data.ndim == 1
    A = angles.data[None, :] if single else angles.data
    if A.ndim != 2:
        raise ValueError(f"rotation_matrices expects (q,) or (B, q) angles, got {angles.shape}")
    n = latent_dim_for(A.shape[1])
    perm, layers = _layers(n)
    cos, sin = np.cos(A[:, perm]), np.sin(A[:, perm])
    G = np.broadcast_to(np.eye(n), (A.shape[0], n, n)).copy()
    for start, stop, I, J in layers:
        _rotate_columns(G, I, J, cos[:, None, start:stop], sin[:, None, start:stop])

    def backward(g):
        if not angles.requires_grad:
            return
        U = g[None, :, :] if single else g
        dA = np.empty_like(cos)
        dA[:, perm] = _compose_grad_batch(cos, sin, G, U, layers)
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
