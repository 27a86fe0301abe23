import numpy as np
import pytest

from symrep.tensor import (
    Tensor,
    add,
    bce_with_logits,
    concat,
    finite_diff_check,
    gather_rows,
    matmul,
    mul,
    no_grad,
    normalize_to_sphere,
    relu,
    transpose,
)


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(np.eye(2)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_matmul_quarter_turn_vector():
    rot = Tensor(np.array([[0.0, -1.0], [1.0, 0.0]]))
    out = matmul(rot, Tensor(np.array([1.0, 0.0])))
    assert np.allclose(out.data, [0.0, 1.0])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a0 = rng.standard_normal((3, 3))
    b0 = rng.standard_normal((3, 3))

    err_a = finite_diff_check(lambda a: matmul(a, Tensor(b0)).sum(), a0, step=1e-5)
    err_b = finite_diff_check(lambda b: matmul(Tensor(a0), b).sum(), b0, step=1e-5)
    assert err_a < 1e-6
    assert err_b < 1e-6


def test_relu_basic_and_all_negative():
    out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    x = Tensor(np.array([-3.0, -0.5]), requires_grad=True)
    loss = relu(x).sum()
    loss.backward()
    assert np.array_equal(loss.data, 0.0)
    assert np.array_equal(x.grad, [0.0, 0.0])


def test_relu_gradient_matches_finite_differences():
    err = finite_diff_check(lambda x: relu(x).sum(), np.array([3.0, -3.0]), step=1e-6)
    assert err < 1e-8


def test_normalize_examples():
    out = normalize_to_sphere(Tensor(np.array([3.0, 4.0])))
    assert np.allclose(out.data, [0.6, 0.8], atol=1e-15)

    unit = np.array([0.0, 1.0, 0.0])
    assert np.allclose(normalize_to_sphere(Tensor(unit)).data, unit, atol=1e-15)


def test_normalize_unit_norm_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.standard_normal(5) * rng.uniform(0.1, 50)
        assert abs(np.linalg.norm(normalize_to_sphere(Tensor(v)).data) - 1.0) < 1e-12
    batch = rng.standard_normal((6, 4))
    norms = np.linalg.norm(normalize_to_sphere(Tensor(batch)).data, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-12)


def test_normalize_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal(4)
    w = rng.standard_normal(4)
    err = finite_diff_check(lambda x: mul(normalize_to_sphere(x), Tensor(w)).sum(), x0)
    assert err < 1e-6


def test_normalize_rejects_near_zero():
    with pytest.raises(ValueError, match="norm"):
        normalize_to_sphere(Tensor(np.zeros(3)))


def test_bce_forced_values():
    half = bce_with_logits(Tensor(np.array([0.0])), Tensor(np.array([0.5])))
    assert abs(half.item() - np.log(2.0)) < 1e-12

    saturated = bce_with_logits(Tensor(np.array([20.0])), Tensor(np.array([1.0])))
    assert saturated.item() < 1e-8


def test_bce_rejects_targets_outside_unit_interval():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        bce_with_logits(Tensor(np.zeros(3)), Tensor(np.array([0.0, 1.2, 0.5])))


def test_bce_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal(10)
    targets = rng.uniform(0, 1, 10)
    err = finite_diff_check(lambda x: bce_with_logits(x, Tensor(targets)), logits)
    assert err < 1e-6


def test_gather_and_concat_values_and_gradients():
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal((4, 3))
    idx = np.array([2, 0, 2])

    out = gather_rows(Tensor(x0), idx)
    assert np.array_equal(out.data, x0[idx])

    w = rng.standard_normal((3, 3))
    err = finite_diff_check(lambda x: mul(gather_rows(x, idx), Tensor(w)).sum(), x0)
    assert err < 1e-7

    a0 = rng.standard_normal((2, 3))
    b0 = rng.standard_normal((2, 2))
    joined = concat([Tensor(a0), Tensor(b0)], axis=1)
    assert joined.shape == (2, 5)
    err = finite_diff_check(lambda a: concat([a, Tensor(b0)], axis=1).sum(), a0)
    assert err < 1e-8


def test_gather_rows_of_a_matrix_stack():
    rng = np.random.default_rng(14)
    x0 = rng.standard_normal((3, 2, 2))
    idx = np.array([1, 1, 0, 2])  # a repeated row gets both gradients
    assert np.array_equal(gather_rows(Tensor(x0), idx).data, x0[idx])
    w = rng.standard_normal((4, 2, 2))
    assert finite_diff_check(lambda x: mul(gather_rows(x, idx), Tensor(w)).sum(), x0) < 1e-7


def test_gather_rows_rejects_bad_index():
    with pytest.raises(LookupError):
        gather_rows(Tensor(np.zeros((2, 2))), np.array([0, 5]))


def test_bias_add_gradient():
    rng = np.random.default_rng(17)
    x0 = rng.standard_normal((5, 3))
    b0 = rng.standard_normal(3)
    err = finite_diff_check(lambda b: add(Tensor(x0), b).sum(), b0)
    assert err < 1e-8


def test_repeated_use_accumulates_gradient():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    loss = mul(x, x).sum() + x.sum()  # grad = 2x + 1
    loss.backward()
    assert np.allclose(x.grad, 2 * x.data + 1.0, atol=1e-14)


@pytest.mark.parametrize("trial", range(20))
def test_randomized_primitive_gradients(trial):
    """Five primitives per trial, 100 randomized gradient checks in total."""
    rng = np.random.default_rng(1000 + trial)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    t = rng.uniform(0, 1, (3, 2))
    v = rng.standard_normal(6) + np.sign(rng.standard_normal(6)) * 0.5

    checks = [
        finite_diff_check(lambda x: matmul(x, Tensor(b)).sum(), a),
        finite_diff_check(lambda x: relu(matmul(Tensor(a), x)).sum(), b),
        finite_diff_check(lambda x: bce_with_logits(matmul(Tensor(a), x), Tensor(t)), b),
        finite_diff_check(lambda x: normalize_to_sphere(x).mean(), v),
        finite_diff_check(lambda x: transpose(mul(x, x)).sum(), a),
    ]
    assert max(checks) < 1e-5


def test_chain_rule_three_op_chains():
    rng = np.random.default_rng(23)
    w1 = rng.standard_normal((4, 5))
    w2 = rng.standard_normal((5, 3))
    t = rng.uniform(0, 1, (2, 3))
    x0 = rng.standard_normal((2, 4))

    def chain(x):
        return bce_with_logits(matmul(relu(matmul(x, Tensor(w1))), Tensor(w2)), Tensor(t))

    assert finite_diff_check(chain, x0) < 1e-5

    v0 = rng.standard_normal(4)
    shift = Tensor(np.full(4, 0.5))

    def chain2(x):
        return mul(normalize_to_sphere(relu(x) + shift), Tensor(np.ones(4))).sum()

    assert finite_diff_check(chain2, v0) < 1e-5


def test_finite_diff_check_reference_behaviour():
    w = np.array([2.0, -1.0, 0.5])
    assert finite_diff_check(lambda x: mul(x, Tensor(w)).sum(), np.ones(3)) < 1e-9
    # |x|^2 has analytic gradient 2x
    assert finite_diff_check(lambda x: mul(x, x).sum(), np.array([1.5, -0.3, 2.0])) < 1e-6


def test_backward_requires_scalar_output():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        mul(x, 2.0).backward()


def test_deterministic_recomputation():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    t = rng.uniform(0, 1, (8, 8))

    def run():
        x = Tensor(a, requires_grad=True)
        loss = bce_with_logits(matmul(relu(x), Tensor(b)), Tensor(t))
        loss.backward()
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_no_grad_records_no_graph_and_restores_on_exit():
    w = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
    x = Tensor(np.array([0.3, 0.7]))
    with no_grad():
        inside = relu(matmul(w, x))
    assert not inside.requires_grad and inside._backward is None and inside._parents == ()
    outside = relu(matmul(w, x))
    assert np.array_equal(inside.data, outside.data)
    assert outside.requires_grad
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("leaves the block")
    assert matmul(w, x).requires_grad
