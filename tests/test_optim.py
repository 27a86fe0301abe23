import numpy as np

from symrep.optim import BETA1, BETA2, EPS, Adam
from symrep.tensor import Tensor


def test_zero_gradient_leaves_parameters_unchanged():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    before = p.data.copy()
    opt.step()  # no grads set
    assert np.array_equal(p.data, before)


def test_first_step_moves_against_gradient_sign():
    p = Tensor(np.array([0.3, -0.7, 2.0]), requires_grad=True)
    g = np.array([0.5, -1.5, 2.0])
    p.grad = g.copy()
    before = p.data.copy()
    opt = Adam([p], lr=0.01)
    opt.step()
    delta = p.data - before
    # bias-corrected first step is -lr * g / (|g| + eps), i.e. -lr * sign(g) up to eps
    assert np.allclose(delta, -0.01 * np.sign(g), atol=1e-8)


def test_quadratic_convergence_matches_scalar_reference():
    """Engine Adam against an independently coded scalar Adam on f(w) = w^2."""
    lr, beta1, beta2, eps = 0.05, 0.9, 0.999, 1e-8

    w_ref, m_ref, v_ref = 1.0, 0.0, 0.0
    for t in range(1, 101):
        g = 2.0 * w_ref
        m_ref = beta1 * m_ref + (1 - beta1) * g
        v_ref = beta2 * v_ref + (1 - beta2) * g * g
        w_ref -= lr * (m_ref / (1 - beta1**t)) / ((v_ref / (1 - beta2**t)) ** 0.5 + eps)

    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=lr)
    for _ in range(100):
        p.grad = 2.0 * p.data
        opt.step()

    assert abs(p.data[0] - w_ref) < 1e-12
    assert abs(p.data[0]) < 0.05


def test_parameters_of_several_shapes_follow_the_formula_exactly():
    """Each step equals the update formula bit for bit; a parameter without a grad sees zeros."""
    gen = np.random.default_rng(3)
    shapes = [(3, 4), (4,), (2, 3), ()]
    params = [Tensor(gen.standard_normal(shape), requires_grad=True) for shape in shapes]
    lr = 0.02
    opt = Adam(params, lr=lr)
    w = [p.data.copy() for p in params]
    m = [np.zeros_like(x) for x in w]
    v = [np.zeros_like(x) for x in w]
    for t in range(1, 6):
        grads = [gen.standard_normal(shape) for shape in shapes]
        grads[2] = None  # this parameter gets no gradient on any step
        for p, g in zip(params, grads):
            p.grad = None if g is None else g.copy()
        opt.step()
        for k, g in enumerate(grads):
            g = np.zeros_like(w[k]) if g is None else g
            m[k] = BETA1 * m[k] + (1.0 - BETA1) * g
            v[k] = BETA2 * v[k] + (1.0 - BETA2) * g * g
            m_hat = m[k] / (1.0 - BETA1**t)
            v_hat = v[k] / (1.0 - BETA2**t)
            w[k] = w[k] - lr * m_hat / (np.sqrt(v_hat) + EPS)
            assert np.array_equal(params[k].data, w[k]), (t, k)
            assert np.array_equal(opt.m[k], m[k]) and np.array_equal(opt.v[k], v[k]), (t, k)


def test_step_counter_increments():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=0.01)
    for _ in range(2):
        p.grad = np.array([0.1])
        opt.step()
    assert opt.steps == 2
