import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symrep.rotations import (
    _layers,
    canonical_angles,
    compose_representation,
    entanglement_penalty,
    latent_dim_for,
    plane_count,
    plane_indices,
    plane_rotation,
    rotate_vectors,
    rotation_matrices,
)
from symrep.tensor import Tensor, finite_diff_check, mul


def frob(x):
    return np.linalg.norm(x, ord="fro")


def angle_gradient(angles, upstream):
    """Gradient of <upstream, rotation_matrices(angles)> from the op's backward pass."""
    probe = Tensor(np.array(angles, dtype=np.float64), requires_grad=True)
    mul(rotation_matrices(probe), Tensor(upstream)).sum().backward()
    return probe.grad


def entanglement(rows) -> float:
    return entanglement_penalty(Tensor(np.array(rows, dtype=np.float64))).item()


def entanglement_grad(row):
    probe = Tensor(np.array(row, dtype=np.float64), requires_grad=True)
    entanglement_penalty(probe).backward()
    return probe.grad


def test_plane_indices_order_and_count():
    assert plane_indices(3) == [(1, 2), (1, 3), (2, 3)]
    assert plane_indices(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for n in range(2, 7):
        assert len(plane_indices(n)) == plane_count(n)
        assert latent_dim_for(plane_count(n)) == n


def test_plane_rotation_zero_angle_is_identity():
    assert np.array_equal(plane_rotation(1, 4, 0.0, 4), np.eye(4))


def test_plane_rotation_layout_one_three():
    theta = 0.37
    R = plane_rotation(1, 3, theta, 3)
    expected = np.array(
        [
            [np.cos(theta), 0.0, np.sin(theta)],
            [0.0, 1.0, 0.0],
            [-np.sin(theta), 0.0, np.cos(theta)],
        ]
    )
    assert np.allclose(R, expected, atol=1e-15)


def test_plane_rotation_quarter_turn_two_dims():
    R = plane_rotation(1, 2, np.pi / 2, 2)
    assert np.allclose(R, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)


@pytest.mark.parametrize("i,j,n", [(2, 2, 3), (3, 2, 3), (1, 4, 3), (0, 1, 3)])
def test_plane_rotation_rejects_bad_plane(i, j, n):
    with pytest.raises(IndexError):
        plane_rotation(i, j, 0.1, n)


def test_compose_zero_angles_is_identity():
    for n in (2, 3, 5):
        assert np.allclose(compose_representation(np.zeros(plane_count(n))), np.eye(n), atol=1e-15)


def test_compose_single_plane_block():
    theta = 2 * np.pi / 10
    angles = np.zeros(3)
    angles[2] = theta  # plane (2, 3) of n=3
    G = compose_representation(angles)
    expected = np.eye(3)
    expected[1, 1] = np.cos(theta)
    expected[2, 2] = np.cos(theta)
    expected[1, 2] = np.sin(theta)
    expected[2, 1] = -np.sin(theta)
    assert np.allclose(G, expected, atol=1e-15)


def test_compose_matches_explicit_triple_product():
    angles = np.array([0.4, -1.1, 0.8])
    expected = (
        plane_rotation(1, 2, 0.4, 3)
        @ plane_rotation(1, 3, -1.1, 3)
        @ plane_rotation(2, 3, 0.8, 3)
    )
    assert np.allclose(compose_representation(angles), expected, atol=1e-14)


@pytest.mark.parametrize("n", range(2, 13))
def test_layer_table_splits_planes_into_disjoint_layers(n):
    perm, layers = _layers(n)
    assert sorted(perm.tolist()) == list(range(plane_count(n)))
    assert len(layers) == 2 * n - 3
    assert [start for start, *_ in layers] == [0] + [stop for _, stop, *_ in layers[:-1]]
    assert layers[-1][1] == plane_count(n)
    columns = np.arange(n)
    for start, stop, I, J in layers:
        planes = [plane_indices(n)[k] for k in perm[start:stop]]
        touched = [i for plane in planes for i in plane]
        assert len(set(touched)) == len(touched)  # pairwise disjoint
        assert columns[I].tolist() == [i - 1 for i, _ in planes]
        assert columns[J].tolist() == [j - 1 for _, j in planes]


@pytest.mark.parametrize("n", range(2, 13))
def test_rotation_matrices_match_explicit_factor_product(n):
    rng = np.random.default_rng(100 + n)
    angles = rng.uniform(-np.pi, np.pi, (3, plane_count(n)))
    mats = rotation_matrices(Tensor(angles)).data
    for row, G in zip(angles, mats):
        expected = np.eye(n)
        for theta, (i, j) in zip(row, plane_indices(n)):
            expected = expected @ plane_rotation(i, j, theta, n)
        assert np.max(np.abs(G - expected)) < 1e-13


def test_representation_backward_n16_finite_diff():
    rng = np.random.default_rng(16)
    angles = rng.uniform(-np.pi, np.pi, plane_count(16))
    upstream = rng.standard_normal((16, 16))

    def f(t):
        return mul(rotation_matrices(t), Tensor(upstream)).sum()

    assert finite_diff_check(f, angles) < 1e-5


def test_forward_and_backward_memory_stays_quadratic_in_n():
    # four (q, B, n, n) stacks would be 65 MB at n=32, B=4; the layered kernel needs O(B n^2)
    rng = np.random.default_rng(32)
    angles = rng.uniform(-np.pi, np.pi, (4, plane_count(32)))
    upstream = rng.standard_normal((4, 32, 32))
    angle_gradient(angles, upstream)  # warm the per-n layer table
    tracemalloc.start()
    try:
        angle_gradient(angles, upstream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_structural_orthogonality_and_determinant(n, data):
    angles = data.draw(
        arrays(
            np.float64,
            (plane_count(n),),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        )
    )
    G = compose_representation(angles, n)
    assert frob(G.T @ G - np.eye(n)) < 1e-10
    assert abs(np.linalg.det(G) - 1.0) < 1e-10


def test_single_plane_negation_is_transpose():
    for n in (2, 4):
        for k in range(plane_count(n)):
            angles = np.zeros(plane_count(n))
            angles[k] = 0.9
            plus = compose_representation(angles)
            assert np.allclose(compose_representation(-angles), plus.T, atol=1e-14)


def test_factor_order_matters_for_shared_index():
    # two rotations sharing latent dimension 1 do not commute
    a = plane_rotation(1, 2, 0.7, 3)
    b = plane_rotation(1, 3, 0.5, 3)
    assert frob(a @ b - b @ a) > 1e-3
    # and the composed product uses the fixed lexicographic order
    angles = np.array([0.7, 0.5, 0.0])
    assert np.allclose(compose_representation(angles), a @ b, atol=1e-14)


def test_representation_backward_zero_upstream():
    grads = angle_gradient([0.3, 0.2, 0.1], np.zeros((3, 3)))
    assert np.array_equal(grads, np.zeros(3))


def test_representation_backward_single_angle_finite_diff():
    upstream = np.array([[0.3, -1.2], [0.7, 0.4]])

    def f(t):
        return mul(rotation_matrices(t), Tensor(upstream)).sum()

    assert finite_diff_check(f, np.array([0.6]), step=1e-6) < 1e-7


def test_representation_backward_n4_finite_diff():
    rng = np.random.default_rng(2)
    angles = rng.uniform(-2, 2, plane_count(4))
    upstream = rng.standard_normal((4, 4))

    def f(t):
        return mul(rotation_matrices(t), Tensor(upstream)).sum()

    assert finite_diff_check(f, angles) < 1e-5
    # a row of a (B, q) stack gets the same gradient as the row on its own
    other = rng.uniform(-2, 2, plane_count(4))
    stacked = angle_gradient(np.stack([other, angles]), np.stack([np.zeros((4, 4)), upstream]))
    assert np.array_equal(stacked[0], np.zeros(plane_count(4)))
    assert np.allclose(stacked[1], angle_gradient(angles, upstream), atol=1e-12)


@pytest.mark.parametrize("trial", range(100))
def test_representation_backward_randomized(trial):
    rng = np.random.default_rng(4000 + trial)
    n = int(rng.integers(2, 7))
    angles = rng.uniform(-3, 3, plane_count(n))
    upstream = rng.standard_normal((n, n))

    def f(t):
        return mul(rotation_matrices(t), Tensor(upstream)).sum()

    assert finite_diff_check(f, angles) < 1e-5


def test_rotate_vectors_values_and_gradients():
    rng = np.random.default_rng(8)
    mats = np.stack([compose_representation(rng.uniform(-1, 1, 3)) for _ in range(4)])
    vecs = rng.standard_normal((4, 3))
    out = rotate_vectors(Tensor(mats), Tensor(vecs))
    assert np.allclose(out.data, np.einsum("bij,bj->bi", mats, vecs), atol=1e-14)

    w = rng.standard_normal((4, 3))
    err_v = finite_diff_check(lambda z: mul(rotate_vectors(Tensor(mats), z), Tensor(w)).sum(), vecs)
    err_m = finite_diff_check(lambda m: mul(rotate_vectors(m, Tensor(vecs)), Tensor(w)).sum(), mats)
    assert err_v < 1e-6
    assert err_m < 1e-6


def test_entanglement_metric_examples():
    # one nonzero angle per action is fully disentangled
    assert entanglement([[0.0, 1.3, 0.0]]) == 0.0
    assert entanglement([[0.3, 0.2, 0.1]]) == pytest.approx(0.05, abs=1e-15)
    assert entanglement([np.zeros(6), np.zeros(6)]) == 0.0


def test_entanglement_metric_sums_over_actions():
    total = entanglement([[0.3, 0.2, 0.1], [0.5, 0.4, 0.0]])
    assert total == pytest.approx(0.05 + 0.16, abs=1e-15)


def test_entanglement_backward_examples():
    assert np.array_equal(entanglement_grad([0.0, 0.9, 0.0]), np.zeros(3))
    grads = entanglement_grad([0.3, 0.2, 0.1])
    assert np.allclose(grads, [0.0, 0.4, 0.2], atol=1e-15)


def test_entanglement_tie_exempts_lexicographically_first():
    grads = entanglement_grad([0.4, -0.4, 0.1])
    # |theta_{1,2}| == |theta_{1,3}|: the (1,2) slot wins the exemption
    assert grads[0] == 0.0
    assert grads[1] == pytest.approx(-0.8)


@settings(max_examples=100, deadline=None)
@given(
    angles=arrays(
        np.float64,
        st.integers(min_value=1, max_value=10),
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
)
def test_entanglement_nonnegative_and_zero_iff_single_plane(angles):
    angles = np.where(np.abs(angles) < 1e-6, 0.0, angles)  # keep squares representable
    value = entanglement([angles])
    assert value >= 0.0
    if np.count_nonzero(angles) <= 1:
        assert value == 0.0
    elif value == 0.0:
        assert np.count_nonzero(angles) <= 1


def test_entanglement_penalty_matches_metric_and_gradient():
    rng = np.random.default_rng(12)
    rows = rng.uniform(-1, 1, (3, 6))
    penalty = entanglement_penalty(Tensor(rows))
    # a stack's value is the sum of its rows' values
    assert penalty.item() == pytest.approx(sum(entanglement([r]) for r in rows), abs=1e-14)
    expected_value = sum((r**2).sum() - (r**2).max() for r in rows)
    assert penalty.item() == pytest.approx(expected_value, abs=1e-14)

    probe = Tensor(rows.copy(), requires_grad=True)
    entanglement_penalty(probe).backward()
    expected = 2.0 * rows
    expected[np.arange(3), np.argmax(np.abs(rows), axis=1)] = 0.0
    assert np.allclose(probe.grad, expected, atol=1e-14)
    assert np.array_equal(probe.grad, np.stack([entanglement_grad(r) for r in rows]))

    err = finite_diff_check(lambda t: entanglement_penalty(t), rows, step=1e-6)
    assert err < 1e-6


def test_entanglement_exactly_independent_of_exempt_entry():
    # the exempt entry has gradient exactly zero, so nudging it must not move
    # the value by even one ulp (a finite difference would read round-off)
    moved = []
    for seed in range(50):
        rows = np.random.default_rng(seed).uniform(-1, 1, (3, 6))
        base = entanglement(rows)
        for r, k in enumerate(np.argmax(np.abs(rows), axis=1)):
            for delta in (1e-6, -1e-6):
                probe = rows.copy()
                probe[r, k] += delta
                assert np.argmax(np.abs(probe[r])) == k
                if entanglement(probe) != base:
                    moved.append((seed, r, delta))
    assert moved == []


def test_canonical_angles_examples():
    assert canonical_angles(2 * np.pi + 0.1) == pytest.approx(0.1, abs=1e-12)
    assert canonical_angles(-np.pi) == pytest.approx(np.pi)
    assert canonical_angles(0.3) == pytest.approx(0.3)
    wrapped = canonical_angles(np.array([7.0, -7.0, 0.0]))
    assert np.all(wrapped > -np.pi) and np.all(wrapped <= np.pi)


def test_canonical_wrap_exact_for_single_plane():
    angles = np.zeros(6)
    angles[3] = 2 * np.pi + 0.25
    wrapped = canonical_angles(angles)
    before = compose_representation(angles)
    after = compose_representation(wrapped)
    assert frob(before - after) < 1e-12
