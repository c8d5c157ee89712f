import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmkad.gating import (
    GatingParams,
    gate_eval_batch,
    gate_gradient,
    gate_stack,
    gradient_stack,
    init_gating,
    step_stack,
)
from lmkad.kernels import KernelSpec, gram
from gradient_check import make_instance, max_relative_error
from oracles import gate_eval


def zero_softmax(p, d):
    return GatingParams("softmax", np.zeros((p, d)), np.zeros(p))


def assert_gradient_matches(params, alpha, X, grams, rel_tol=1e-4):
    worst = max_relative_error(params, alpha, X, grams)
    assert worst <= rel_tol, f"{params.kind}: {worst}"


def test_softmax_symmetric_logits():
    eta = gate_eval(zero_softmax(3, 2), np.array([0.7, -1.2]))
    assert np.allclose(eta, np.full(3, 1 / 3), atol=1e-15)


def test_sigmoid_zero_logit():
    params = GatingParams("sigmoid", np.zeros((4, 3)), np.zeros(4))
    eta = gate_eval(params, np.array([1.0, 2.0, 3.0]))
    assert np.allclose(eta, 0.5, atol=1e-15)


def test_rbf_zero_distance_dominates():
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    params = GatingParams("rbf", centers, np.ones(3))
    eta = gate_eval(params, centers[0])
    assert eta[0] == eta.max() and eta[0] > 0.9


def test_softmax_overflow_safe():
    params = GatingParams("softmax", np.array([[1000.0], [0.0]]), np.zeros(2))
    eta = gate_eval(params, np.array([1.0]))
    assert np.isfinite(eta).all()
    assert eta[0] == pytest.approx(1.0, abs=1e-12)
    assert eta[1] == pytest.approx(0.0, abs=1e-12)


def test_batch_single_row_matches_eval():
    rng = np.random.default_rng(0)
    params = GatingParams("softmax", rng.normal(size=(3, 4)), rng.normal(size=3))
    x = rng.normal(size=4)
    assert np.array_equal(gate_eval_batch(params, x[None, :])[0], gate_eval(params, x))


@pytest.mark.parametrize("kind", ["softmax", "rbf"])
def test_batch_rows_normalized(kind):
    rng = np.random.default_rng(1)
    if kind == "rbf":
        params = GatingParams("rbf", rng.normal(size=(3, 4)), rng.uniform(0.5, 2, 3))
    else:
        params = GatingParams(kind, rng.normal(size=(3, 4)), rng.normal(size=3))
    H = gate_eval_batch(params, rng.normal(size=(20, 4)))
    assert np.abs(H.sum(axis=1) - 1.0).max() <= 1e-12
    assert H.min() >= 0.0


def test_batch_matches_per_row_loop():
    rng = np.random.default_rng(2)
    for kind in ("softmax", "sigmoid", "rbf"):
        params, _, X, _ = make_instance(kind, rng)
        H = gate_eval_batch(params, X)
        rows = np.vstack([gate_eval(params, x) for x in X])
        assert np.array_equal(H, rows)


def test_softmax_translation_invariance():
    rng = np.random.default_rng(3)
    params = GatingParams("softmax", rng.normal(size=(3, 4)), rng.normal(size=3))
    shifted = GatingParams("softmax", params.matrix, params.vector + 17.5)
    X = rng.normal(size=(10, 4))
    assert np.abs(gate_eval_batch(params, X) - gate_eval_batch(shifted, X)).max() <= 1e-12


def test_sigmoid_open_interval():
    rng = np.random.default_rng(4)
    params = GatingParams("sigmoid", rng.normal(size=(2, 3)), rng.normal(size=2))
    H = gate_eval_batch(params, rng.normal(size=(50, 3)))
    assert np.all(H > 0.0) and np.all(H < 1.0)


def test_gradient_zero_alpha():
    rng = np.random.default_rng(5)
    for kind in ("softmax", "sigmoid", "rbf"):
        params, _, X, grams = make_instance(kind, rng)
        H = gate_eval_batch(params, X)
        grad = gate_gradient(params, np.zeros(X.shape[0]), X, grams, H)
        for arr in grad:
            assert np.array_equal(arr, np.zeros_like(arr))


def test_gradient_softmax_single_kernel_degenerate():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(5, 3))
    grams = [gram(KernelSpec("gaussian", sigma_sq=1.0), X, X)]
    params = GatingParams("softmax", rng.normal(size=(1, 3)), rng.normal(size=1))
    H = gate_eval_batch(params, X)
    assert np.array_equal(H, np.ones((5, 1)))
    alpha = np.full(5, 0.2)
    grad = gate_gradient(params, alpha, X, grams, H)
    assert np.array_equal(grad[0], np.zeros((1, 3)))
    assert np.array_equal(grad[1], np.zeros(1))


@pytest.mark.parametrize("kind", ["softmax", "sigmoid", "rbf"])
def test_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(7)
    for _ in range(3):
        params, alpha, X, grams = make_instance(kind, rng, n=6, p=2, d=3)
        assert_gradient_matches(params, alpha, X, grams)


def test_gradient_shape_mismatch():
    rng = np.random.default_rng(8)
    params, alpha, X, grams = make_instance("softmax", rng)
    H = gate_eval_batch(params, X)
    with pytest.raises(ValueError):
        gate_gradient(params, alpha[:-1], X, grams, H)
    with pytest.raises(ValueError):
        gate_gradient(params, alpha, X, grams[:-1], H)


def test_init_deterministic():
    rng_data = np.random.default_rng(9)
    X = rng_data.normal(size=(10, 4))
    for kind in ("softmax", "sigmoid", "rbf"):
        a = init_gating(kind, 3, 4, X, seed=42)
        b = init_gating(kind, 3, 4, X, seed=42)
        assert np.array_equal(a.matrix, b.matrix) and np.array_equal(a.vector, b.vector)


def test_init_rbf_centers_are_rows():
    rng_data = np.random.default_rng(10)
    X = rng_data.normal(size=(3, 2))
    params = init_gating("rbf", 3, 2, X, seed=0)
    # with N = p the centers are a permutation of the training rows
    got = {tuple(r) for r in params.matrix}
    assert got == {tuple(r) for r in X}
    assert np.all(params.vector > 0)


def test_init_softmax_near_uniform():
    # |logit| <= 0.1 * (||x||_1 + 1), so eta * p lies in [e^-2D, e^2D]
    rng_data = np.random.default_rng(11)
    X = rng_data.normal(size=(10, 4))
    params = init_gating("softmax", 3, 4, X, seed=5)
    for _ in range(20):
        x = rng_data.normal(size=4)
        x *= min(1.0, 3.0 / np.linalg.norm(x))
        bound = 0.1 * (np.abs(x).sum() + 1.0)
        eta = gate_eval(params, x)
        ratios = eta * 3
        assert np.all(ratios >= np.exp(-2 * bound) - 1e-12)
        assert np.all(ratios <= np.exp(2 * bound) + 1e-12)


def test_init_validation():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        init_gating("softmax", 0, 2, X, seed=0)
    with pytest.raises(ValueError):
        init_gating("nope", 2, 2, X, seed=0)


def test_params_validation():
    with pytest.raises(ValueError):
        GatingParams("rbf", np.ones((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        GatingParams("softmax", np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        gate_eval(zero_softmax(2, 3), np.zeros(4))


def test_step_clamps_rbf_spreads():
    _, spreads = step_stack("rbf", np.zeros((2, 2)), np.array([0.5, 1.0]),
                            np.zeros((2, 2)), np.array([100.0, 0.0]), mu=1.0)
    assert spreads[0] > 0  # clamped instead of going negative
    assert spreads[1] == 1.0


@pytest.mark.parametrize("kind", ["softmax", "sigmoid", "rbf"])
@pytest.mark.parametrize("n, d, p", [(1, 4, 3), (7, 13, 3), (129, 8, 2), (1001, 4, 2)])
def test_stacked_forms_match_one_model_calls_bit_for_bit(kind, n, d, p):
    # row b of each stacked form equals the one-model call on fit b, bytes and all
    rng = np.random.default_rng(n + p)
    b = 3
    X = rng.normal(size=(b, n, d))
    spec = KernelSpec("gaussian", sigma_sq=float(d))
    grams = np.stack([[gram(spec, Xb, Xb) * (m + 1) for m in range(p)] for Xb in X])
    alpha = rng.dirichlet(np.ones(n), size=b)
    params = [make_instance(kind, rng, n=n, p=p, d=d)[0] for _ in range(b)]
    pair = (np.stack([q.matrix for q in params]), np.stack([q.vector for q in params]))

    H = gate_stack(kind, X, *pair)
    grad = gradient_stack(kind, *pair, alpha, X, grams, H)
    stepped = step_stack(kind, *pair, *grad, 0.7)
    for r, q in enumerate(params):
        H_r = gate_eval_batch(q, X[r])
        assert H[r].tobytes() == H_r.tobytes()
        one = gate_gradient(q, alpha[r], X[r], list(grams[r]), H_r)
        assert [g[r].tobytes() for g in grad] == [g.tobytes() for g in one]
        one_step = step_stack(kind, q.matrix, q.vector, *one, 0.7)
        assert [s[r].tobytes() for s in stepped] == [s.tobytes() for s in one_step]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), d=st.integers(1, 5), p=st.integers(1, 3),
       scale=st.floats(1e-3, 1e3))
def test_sigmoid_bias_gradient_is_never_positive(seed, n, d, p, scale):
    # With K_m >= 0 entrywise and alpha >= 0, every term of the bias gradient
    # -sum_i eta_m(x_i)(1 - eta_m(x_i)) alpha_i sum_j alpha_j eta_m(x_j) K_m(x_i, x_j)
    # has one sign: each outer step raises every sigmoid bias, so the gates
    # run towards 1 and LMKAD drifts to fixed weights (see test_acceptance)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    B = rng.random((p, n, 4))
    grams = B @ B.swapaxes(1, 2)  # PSD with nonnegative entries
    alpha = rng.random(n) * (rng.random(n) < 0.7)
    matrix, vector = scale * rng.normal(size=(p, d)), scale * rng.normal(size=p)
    H = gate_stack("sigmoid", X, matrix, vector)
    _, grad_vector = gradient_stack("sigmoid", matrix, vector, alpha, X, grams, H)
    assert (grad_vector <= 0.0).all()
