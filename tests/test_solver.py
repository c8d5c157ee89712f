import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmkad.dataset import apply_normalizer, fit_normalizer
from lmkad.gating import gate_eval_batch, init_gating
from lmkad.models import composite_gram_fixed, composite_gram_localized, resolve_kernels
from lmkad.solver import DualProblem, compute_rho, kkt_violation, solve_dual
from qp_oracle import brute_force_qp, random_psd_gram
from smo_reference import reference_solve_dual


def sym2(k):
    return np.array([[1.0, k], [k, 1.0]])


@pytest.mark.parametrize("k", [-0.5, 0.0, 0.3, 0.9])
def test_two_point_symmetry(k):
    sol = solve_dual(DualProblem(sym2(k), nu=1.0))
    assert np.allclose(sol.alpha, [0.5, 0.5], atol=1e-12)
    assert sol.objective == pytest.approx((1 + k) / 4, abs=1e-12)
    assert sol.converged


def test_two_point_rho():
    # (Q a)_i at a = (1/2, 1/2) is 0.5*(1+k) for both rows
    k = 0.3
    sol = solve_dual(DualProblem(sym2(k), nu=1.0))
    assert sol.rho == pytest.approx(0.5 * (1 + k), abs=1e-12)


def test_three_point_identity():
    sol = solve_dual(DualProblem(np.eye(3), nu=1.0))
    assert np.allclose(sol.alpha, np.full(3, 1 / 3), atol=1e-12)
    assert sol.objective == pytest.approx(1 / 6, abs=1e-12)
    assert sol.rho == pytest.approx(1 / 3, abs=1e-12)  # (Q a)_i = 1/N


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(4, 8))
        Q = random_psd_gram(rng, n)
        problem = DualProblem(Q, nu=0.5)
        sol = solve_dual(problem)
        obj_oracle, _ = brute_force_qp(Q, problem.upper_bound)
        assert sol.objective == pytest.approx(obj_oracle, abs=1e-6)


def test_problem_validation():
    with pytest.raises(ValueError, match="infeasible nu"):
        DualProblem(np.eye(3), nu=0.0)
    with pytest.raises(ValueError, match="infeasible nu"):
        DualProblem(np.eye(3), nu=1.5)
    with pytest.raises(ValueError, match="infeasible nu"):
        DualProblem(np.eye(3), nu=0.1)  # nu*N = 0.3 < 1
    with pytest.raises(ValueError, match="symmetric"):
        DualProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), nu=1.0)
    bad = np.eye(2)
    bad[0, 0] = -1.0
    with pytest.raises(ValueError, match="diagonal"):
        DualProblem(bad, nu=1.0)


def test_max_iter_exhaustion_flagged():
    rng = np.random.default_rng(3)
    Q = random_psd_gram(rng, 8)
    sol = solve_dual(DualProblem(Q, nu=0.5), max_iter=1)
    assert not sol.converged
    assert sol.iterations == 1
    # best-so-far output is still feasible
    assert abs(sol.alpha.sum() - 1.0) < 1e-8


@pytest.mark.parametrize("cap", [0, -5])
def test_max_iter_below_one_rejected(cap):
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        solve_dual(DualProblem(np.eye(3), nu=1.0), max_iter=cap)


def test_kkt_violation_solved_case():
    Q = sym2(0.3)
    sol = solve_dual(DualProblem(Q, nu=1.0))
    assert kkt_violation(sol.alpha, Q, 0.5) <= 1e-12


def test_kkt_violation_vertex():
    alpha = np.array([1.0, 0.0, 0.0])
    assert kkt_violation(alpha, np.eye(3), 1.0) == pytest.approx(1.0)


def test_violation_reaches_tolerance():
    rng = np.random.default_rng(11)
    for _ in range(5):
        Q = random_psd_gram(rng, 9)
        sol = solve_dual(DualProblem(Q, nu=0.5), tol=1e-6, record_violations=True)
        assert sol.converged
        assert sol.violation_trace[-1] <= 1e-6
        assert kkt_violation(sol.alpha, Q, DualProblem(Q, nu=0.5).upper_bound) <= 1e-6


def test_objective_nonincreasing_per_pair_step():
    rng = np.random.default_rng(13)
    Q = random_psd_gram(rng, 8)
    problem = DualProblem(Q, nu=0.5)
    prev = np.inf
    for cap in range(1, 40):
        obj = solve_dual(problem, max_iter=cap).objective
        assert obj <= prev + 1e-12
        prev = obj


def test_scale_equivariance():
    rng = np.random.default_rng(17)
    Q = random_psd_gram(rng, 7)
    base = solve_dual(DualProblem(Q, nu=0.5))
    for c in (0.25, 3.0, 100.0):
        scaled = solve_dual(DualProblem(c * Q, nu=0.5))
        assert np.allclose(scaled.alpha, base.alpha, atol=1e-8)
        assert scaled.objective == pytest.approx(c * base.objective, rel=1e-8)


def test_nu_one_forces_uniform():
    rng = np.random.default_rng(19)
    Q = random_psd_gram(rng, 6)
    sol = solve_dual(DualProblem(Q, nu=1.0))
    assert np.allclose(sol.alpha, np.full(6, 1 / 6), atol=1e-15)
    assert len(sol.support_indices) == 6
    assert len(sol.margin_indices) == 0


def test_deterministic():
    rng = np.random.default_rng(23)
    Q = random_psd_gram(rng, 8)
    a = solve_dual(DualProblem(Q, nu=0.5))
    b = solve_dual(DualProblem(Q, nu=0.5))
    assert np.array_equal(a.alpha, b.alpha)
    assert a.objective == b.objective and a.rho == b.rho


def test_warm_start_matches_cold():
    rng = np.random.default_rng(29)
    Q = random_psd_gram(rng, 8)
    problem = DualProblem(Q, nu=0.5)
    cold = solve_dual(problem, tol=1e-8)
    # perturbed-feasible warm start must land on the same optimum
    warm0 = np.clip(cold.alpha + rng.normal(scale=0.01, size=8), 0, problem.upper_bound)
    warm = solve_dual(problem, tol=1e-8, alpha0=warm0)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-7)


def test_rho_modes():
    rng = np.random.default_rng(31)
    Q = random_psd_gram(rng, 8)
    problem = DualProblem(Q, nu=0.5)
    sol = solve_dual(problem, rho_mode="mean-all-train")
    g = Q @ sol.alpha
    assert sol.rho == pytest.approx(g.mean(), abs=1e-12)
    assert compute_rho(sol.alpha, Q, problem.upper_bound, "mean-all-train") == pytest.approx(g.mean())
    sol_m = solve_dual(problem)
    assert sol_m.rho == pytest.approx(g[sol_m.margin_indices].mean(), abs=1e-9)
    with pytest.raises(ValueError):
        solve_dual(problem, rho_mode="bogus")


def test_margin_sv_kkt_recheck():
    # decision values at margin SVs sit on the boundary within 10*tol
    rng = np.random.default_rng(37)
    Q = random_psd_gram(rng, 10, kind="gaussian")
    tol = 1e-6
    sol = solve_dual(DualProblem(Q, nu=0.5), tol=tol)
    g = Q @ sol.alpha
    for i in sol.margin_indices:
        assert g[i] - sol.rho >= -10 * tol


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), nu=st.sampled_from([0.3, 0.5, 0.8, 1.0]))
def test_feasibility_properties(seed, nu):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    if nu * n < 1:
        nu = 1.0
    Q = random_psd_gram(rng, n)
    problem = DualProblem(Q, nu=nu)
    sol = solve_dual(problem)
    assert abs(sol.alpha.sum() - 1.0) <= 1e-8
    assert sol.alpha.min() >= 0.0
    assert sol.alpha.max() <= problem.upper_bound + 1e-10
    assert sol.converged


def _psd(n, nu):
    return DualProblem(random_psd_gram(np.random.default_rng(100 + n), n), nu)


def _iris_gpl(iris):
    """Z-scored first 40 setosa rows and their resolved gpl kernels."""
    X = iris.features[:40]
    Xn = apply_normalizer(fit_normalizer(X), X)
    return Xn, tuple(k.resolved(Xn) for k in resolve_kernels("gpl"))


def _mkad_gpl(iris, nu):
    # the MKAD Gram (diagonal 0.9-75); at nu=0.05 the run takes ~1,800 steps
    Xn, kernels = _iris_gpl(iris)
    return DualProblem(composite_gram_fixed(kernels, np.full(3, 1 / 3), Xn, Xn), nu)


def _lmkad(iris, kind):
    Xn, kernels = _iris_gpl(iris)
    gating = init_gating(kind, 3, Xn.shape[1], Xn, seed=5)
    H = gate_eval_batch(gating, Xn)
    Q = composite_gram_localized(kernels, gating, Xn, Xn, H_X=H, H_Y=H)
    assert not np.array_equal(Q, Q.T)  # symmetric only up to rounding
    return DualProblem(Q, 0.2)


SMO_PATH_CASES = {
    "psd-2": lambda iris: (_psd(2, 0.6), {}),
    "psd-8": lambda iris: (_psd(8, 0.5), {}),
    "psd-40": lambda iris: (_psd(40, 0.3), {}),
    "psd-200": lambda iris: (_psd(200, 0.3), {}),
    "mkad-gpl-iris": lambda iris: (_mkad_gpl(iris, 0.05), {}),
    "lmkad-sigmoid": lambda iris: (_lmkad(iris, "sigmoid"), {}),
    "lmkad-softmax": lambda iris: (_lmkad(iris, "softmax"), {}),
    # warm starts with every multiplier at the upper bound 1/(nu*N) or at 0
    "warm-psd-8-bounds": lambda iris: (_psd(8, 0.5), {"alpha0": np.repeat([0.25, 0.0], 4)}),
    "warm-mkad-bounds": lambda iris: (_mkad_gpl(iris, 0.1), {"alpha0": np.repeat([0.25, 0.0], [4, 36])}),
    "nu-1": lambda iris: (_psd(6, 1.0), {}),
    "max-iter-1": lambda iris: (_mkad_gpl(iris, 0.05), {"max_iter": 1}),
    "max-iter-500": lambda iris: (_mkad_gpl(iris, 0.05), {"max_iter": 500}),
    "tol-1e-9-mean-all-train": lambda iris: (_psd(40, 0.3), {"tol": 1e-9, "rho_mode": "mean-all-train"}),
}


@pytest.mark.parametrize("record", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize("case", sorted(SMO_PATH_CASES))
def test_solve_dual_matches_reference_loop_bit_for_bit(iris, case, record):
    # solve_dual must take exactly the steps of the plain loop in
    # smo_reference.py: same pairs, same roundings, same stopping step
    problem, kwargs = SMO_PATH_CASES[case](iris)
    new = solve_dual(problem, record_violations=record, **kwargs)
    ref = reference_solve_dual(problem, record_violations=record, **kwargs)
    assert np.array_equal(new.alpha, ref.alpha)
    assert new.iterations == ref.iterations
    assert new.converged == ref.converged
    assert new.final_violation == ref.final_violation
    assert new.objective == ref.objective
    assert new.rho == ref.rho
    assert new.violation_trace == ref.violation_trace
    assert len(new.violation_trace) == (new.iterations + new.converged if record else 0)
    if "max_iter" in kwargs:
        assert not new.converged and new.iterations == kwargs["max_iter"]
    elif case == "mkad-gpl-iris":
        assert new.iterations > 1000
