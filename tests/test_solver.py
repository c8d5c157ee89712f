import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmkad.dataset import apply_normalizer, fit_normalizer
from lmkad.gating import gate_eval_batch, init_gating
from lmkad.models import LmkadConfig, composite_gram_fixed, composite_gram_localized, resolve_kernels, train_lmkad
from lmkad import solver
from lmkad.solver import DualProblem, solve_dual, solve_duals
from oracles import compute_rho, kkt_violation
from qp_oracle import brute_force_qp, random_psd_gram
from smo_reference import reference_solve_dual
from check_reference import reference_check_duals


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


def test_symmetry_bound_scales_with_q():
    # |Q - Q^T| may reach 1e-12 * max|Q| (rounding in a large Q), but never
    # less than the absolute 1e-9 a small Q is held to
    Q = np.array([[1e6, 1.0], [1.0, 1e6]])
    Q[0, 1] += 5e-7
    assert solver.check_duals(Q[None]) == {}
    Q[0, 1] += 1e-6
    assert "symmetric" in solver.check_duals(Q[None])[0]
    small = np.array([[1.0, 0.0], [2e-9, 1.0]])
    assert "symmetric" in solver.check_duals(small[None])[0]


#: sizes around CHECK_BLOCK (one block per fit vs block pairs) and the
#: trainer's whole-fit composition limit (181), 300 with a ragged last block
CHECK_SIZES = (1, 2, 3, 40, 128, 129, 181, 182, 300)
FAULTS = ("nan", "inf", "-inf", "asym", "negative-diagonal")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_check_duals_matches_the_whole_stack_check(data):
    n = data.draw(st.sampled_from(CHECK_SIZES), label="n")
    b = data.draw(st.integers(1, 3 if n > solver.CHECK_BLOCK else 25), label="b")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    A = rng.normal(size=(b, n, n))
    Q = (A + A.transpose(0, 2, 1)) * data.draw(st.sampled_from([1.0, 1e6]), label="scale")  # exactly symmetric
    for r in range(b):
        for fault in data.draw(st.lists(st.sampled_from(FAULTS), max_size=2), label=f"faults of row {r}"):
            i = data.draw(st.integers(0, n - 1))
            j = data.draw(st.sampled_from(["upper", "lower", "diagonal"]))
            j = i if j == "diagonal" else rng.integers(i, n) if j == "upper" else rng.integers(0, i + 1)
            if fault == "asym":  # just above or below the absolute and the relative bound
                bound = max(1e-9, 1e-12 * np.abs(Q[r]).max())
                with np.errstate(invalid="ignore"):  # the bound is inf after an inf fault
                    Q[r, i, j] += data.draw(st.sampled_from([0.5, 0.99, 1.01, 2.0])) * bound
            elif fault == "negative-diagonal":
                Q[r, i, i] = -data.draw(st.sampled_from([1e-13, 1e-11, 1.0]))
            else:
                Q[r, i, j] = float(fault)
    assert solver.check_duals(Q) == reference_check_duals(Q)
    finite = np.isfinite(Q).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        exact = np.abs(Q - Q.transpose(0, 2, 1)).max(axis=(1, 2))
    assert np.array_equal(solver._asymmetry(Q)[finite], exact[finite])
    assert not np.isfinite(solver._asymmetry(Q)[~finite]).any()


def test_check_duals_keeps_a_nan_block_behind_finite_ones():
    # a NaN in a block pair that is not the first: Python's max(0.0, nan)
    # is 0.0, so the block maxima must be combined by np.max
    n = 3 * solver.CHECK_BLOCK
    Q = np.zeros((1, n, n))
    Q[0, n - 1, n - 2] = math.nan
    assert solver.check_duals(Q) == {0: "Q contains non-finite entries"}


def test_check_duals_names_a_finite_q_whose_asymmetry_overflows():
    # every entry is finite, but 1e308 - (-1e308) overflows to inf
    Q = np.eye(3)[None].copy()
    Q[0, 0, 2], Q[0, 2, 0] = 1e308, -1e308
    with np.errstate(over="ignore"):
        assert solver.check_duals(Q) == reference_check_duals(Q) == {
            0: "Q is not symmetric within max(1e-9, 1e-12 * max|Q|)"}


@pytest.mark.parametrize("kind", ["sigmoid", "softmax", "rbf"])
def test_localized_fit_of_correlated_wide_rows_is_accepted(kind):
    # 60 targets whose d = 100 features are one factor plus noise: the
    # localized gpp Q has entries up to ~7e7 and |Q - Q^T| up to ~7e-9
    # (~1e-16 of max|Q|), which an absolute 1e-9 bound rejected
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 1)) * np.ones((1, 100)) + 0.1 * rng.normal(size=(60, 100))
    model = train_lmkad(X, "gpp", LmkadConfig(nu=0.2, gating_kind=kind, max_outer=2))
    assert np.isfinite(model.report.objective_trace).all()


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
        sol = solve_dual(DualProblem(Q, nu=0.5), tol=1e-6)
        assert sol.converged
        assert sol.final_violation <= 1e-6
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


@pytest.mark.parametrize("n, kind, nus", [
    (50, "linear", (0.05, 0.1, 0.2, 0.3, 0.5, 0.8)),  # a lockstep stack
    (50, "gaussian", (0.1, 0.5)),
    (100, "gaussian", (0.05, 0.3)),
    (200, "gaussian", (0.1, 0.5)),
], ids=["50-linear-lockstep", "50-gaussian", "100-gaussian", "200-gaussian"])
def test_solve_duals_matches_a_general_qp_solver(n, kind, nus):
    # a KKT gap of at most tol bounds the objective's distance to the
    # optimum by tol (both iterates sum to 1, so g'(a - a*) <= gap), and
    # SLSQP reaches the optimum by another path; alpha is not compared,
    # because a flat optimum's alpha depends on the path
    from scipy.optimize import minimize

    tol = 1e-7
    Q = random_psd_gram(np.random.default_rng(n), n, kind)
    stack = solve_duals(np.stack([Q] * len(nus)), nus, tol=tol)
    for k, nu in enumerate(nus):
        upper = 1.0 / (nu * n)
        res = minimize(lambda a: 0.5 * a @ Q @ a, np.full(n, 1.0 / n), jac=lambda a: Q @ a, method="SLSQP",
                       bounds=[(0.0, upper)] * n, options={"ftol": 1e-14, "maxiter": 500},
                       constraints=[{"type": "eq", "fun": lambda a: a.sum() - 1.0, "jac": lambda a: np.ones(n)}])
        a = res.x
        assert abs(a.sum() - 1.0) <= 1e-9 and a.min() >= -1e-12 and a.max() <= upper + 1e-12
        sol = stack[k]
        assert sol.converged and sol.final_violation <= tol
        assert abs(sol.objective - 0.5 * a @ Q @ a) <= tol


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


NEAR_BOUNDS = np.array([0.25 - 1e-9, 0.25 - 1e-9, 0.25, 0.125 + 1e-9, 0.125, 1e-9, 0.0, 0.0])

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
    # a warm start summing to 0.8 (spread back evenly) and one that is restarted from uniform
    "warm-deficit": lambda iris: (_psd(8, 0.5), {"alpha0": np.linspace(0.05, 0.15, 8)}),
    "warm-restart": lambda iris: (_psd(8, 0.5), {"alpha0": np.eye(8)[0]}),
    # multipliers within EPS_SV_FACTOR * C of 0 and of C = 0.25 after one step
    "warm-near-bounds": lambda iris: (_psd(8, 0.5), {"alpha0": NEAR_BOUNDS, "max_iter": 1}),
    "nu-1": lambda iris: (_psd(6, 1.0), {}),
    "max-iter-1": lambda iris: (_mkad_gpl(iris, 0.05), {"max_iter": 1}),
    "max-iter-500": lambda iris: (_mkad_gpl(iris, 0.05), {"max_iter": 500}),
    "tol-1e-9-mean-all-train": lambda iris: (_psd(40, 0.3), {"tol": 1e-9, "rho_mode": "mean-all-train"}),
}


@pytest.fixture
def loop_spy(monkeypatch):
    """Records the step count of each dual entering the scalar loop, and
    the batch size of every lockstep call."""
    entries, lockstep_rows = [], []
    scalar_loop, lockstep = solver._scalar_loop, solver._lockstep

    def spy_scalar(stack, k, tol):
        entries.append(int(stack.iterations[k]))
        scalar_loop(stack, k, tol)

    def spy_lockstep(stack, tol):
        lockstep_rows.append(len(stack))
        lockstep(stack, tol)

    monkeypatch.setattr(solver, "_scalar_loop", spy_scalar)
    monkeypatch.setattr(solver, "_lockstep", spy_lockstep)
    return entries, lockstep_rows


def _assert_reference_path(new, problem, kwargs):
    """``new`` equals the plain loop's solution of ``problem`` in every field."""
    ref = reference_solve_dual(problem, **kwargs)
    assert np.array_equal(new.alpha, ref.alpha)
    assert new.iterations == ref.iterations
    assert new.converged == ref.converged
    assert new.final_violation == ref.final_violation
    assert new.objective == ref.objective
    assert new.rho == ref.rho
    assert np.array_equal(new.support_indices, ref.support_indices)
    assert np.array_equal(new.margin_indices, ref.margin_indices)


def _stops(steps):
    """Step counts along a path of ``steps`` steps at which the "trace" cases cut it."""
    return sorted({1, max(1, steps // 3), max(1, 2 * steps // 3)})


def _capped(kwargs, cap):
    """``kwargs`` with ``max_iter`` lowered to ``cap``."""
    return {**kwargs, "max_iter": min(cap, kwargs.get("max_iter", cap))}


#: "plain" compares the end of each path with the plain loop's; "trace" also
#: cuts the path at ``_stops`` (``max_iter``) and compares each cut the same
#: way, which pins the path between the start and the end
ALONG_PATH = pytest.mark.parametrize("along", [False, True], ids=["plain", "trace"])


@ALONG_PATH
@pytest.mark.parametrize("case", sorted(SMO_PATH_CASES))
def test_solve_dual_matches_reference_loop_bit_for_bit(iris, case, along, loop_spy):
    # solve_dual (the scalar loop) and a lockstep batch of LOCKSTEP_MIN_ROWS
    # copies must each take exactly the steps of the plain loop in
    # smo_reference.py: same pairs, same roundings, same stopping step
    problem, kwargs = SMO_PATH_CASES[case](iris)
    new = solve_dual(problem, **kwargs)
    _assert_reference_path(new, problem, kwargs)
    if "max_iter" in kwargs:
        assert not new.converged and new.iterations == kwargs["max_iter"]
    elif case == "mkad-gpl-iris":
        assert new.iterations > 1000

    rows = solver.LOCKSTEP_MIN_ROWS
    solver_kwargs = {k: v for k, v in kwargs.items() if k != "alpha0"}
    batch = _solve_stacked([problem] * rows, [kwargs.get("alpha0")] * rows, **solver_kwargs)
    assert loop_spy[1] == [rows]
    for sol in batch:
        _assert_reference_path(sol, problem, kwargs)

    for cap in _stops(new.iterations) if along else ():
        capped = _capped(kwargs, cap)
        _assert_reference_path(solve_dual(problem, **capped), problem, capped)
        for sol in _solve_stacked([problem] * rows, [kwargs.get("alpha0")] * rows, **_capped(solver_kwargs, cap)):
            _assert_reference_path(sol, problem, capped)


def _solve_stacked(problems, alpha0s, **kwargs):
    """Solve the problems as one ``solve_duals`` stack per N, in order; a
    stack's warm starts are all None (cold) or all arrays."""
    groups = {}
    for i, problem in enumerate(problems):
        groups.setdefault(problem.n, []).append(i)
    sols = [None] * len(problems)
    for rows in groups.values():
        starts = [alpha0s[i] for i in rows]
        assert len({a is None for a in starts}) == 1
        alpha0 = None if starts[0] is None else np.stack(starts)
        stack = solve_duals(np.stack([problems[i].q for i in rows]), [problems[i].nu for i in rows],
                            alpha0, **kwargs)
        assert len(stack) == len(rows)
        for r, i in enumerate(rows):
            sols[i] = stack[r]
    return sols


def _psd_nus(n, nus, seed=0):
    rng = np.random.default_rng(seed)
    return [DualProblem(random_psd_gram(rng, n), nu) for nu in nus]


def _mixed(iris):
    # N = 40 (a lockstep group: PSD, MKAD and both localized Grams), N = 8
    # (a group too small for lockstep) and N = 41 (one problem)
    problems = _psd_nus(40, (0.1, 0.2, 0.3, 0.5)) + [
        _mkad_gpl(iris, 0.1),
        _lmkad(iris, "sigmoid"),
        _lmkad(iris, "softmax"),
    ]
    problems += _psd_nus(8, (0.25, 0.5, 1.0)) + _psd_nus(41, (0.2,))
    return problems, [None] * len(problems), {}


def _finish_apart(iris):
    # steps differ per row, so rows finish on different turns and the last
    # LOCKSTEP_MIN_ROWS - 1 are handed to the scalar loop mid-solve
    problems = _psd_nus(40, (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)) + [_mkad_gpl(iris, 0.05)]
    return problems, [None] * len(problems), {}


def _below_threshold(iris):
    problems = _psd_nus(40, np.linspace(0.1, 0.9, solver.LOCKSTEP_MIN_ROWS - 1))
    return problems, [None] * len(problems), {}


def _warm_bounds(iris):
    # N = 8 rows: uniform, warm at 0 and at the bound 1/(nu*N), nu = 1 (uniform is
    # optimal); a uniform start of 1/8 sums to 1 exactly, so it is the cold start
    problems = _psd_nus(8, (0.5, 0.5, 0.5, 1.0, 0.25, 0.75, 0.5))
    at_bounds = np.repeat([0.25, 0.0], 4)
    uniform = np.full(8, 0.125)
    alpha0s = [uniform, at_bounds, at_bounds[::-1].copy(), uniform, uniform, uniform, at_bounds]
    return problems, alpha0s, {}


def _cap(max_iter):
    def build(iris):
        problems, alpha0s, _ = _finish_apart(iris)
        return problems, alpha0s, {"max_iter": max_iter}

    return build


BATCH_CASES = {
    "mixed-n": _mixed,
    "finish-apart": _finish_apart,
    "below-threshold": _below_threshold,
    "warm-bounds": _warm_bounds,
    "max-iter-1": _cap(1),
    "max-iter-cut": _cap(150),
    "tol-1e-9-mean-all-train": lambda iris: (*_finish_apart(iris)[:2], {"tol": 1e-9, "rho_mode": "mean-all-train"}),
}


@ALONG_PATH
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_solve_duals_batch_matches_reference_loop_bit_for_bit(iris, case, along, loop_spy):
    problems, alpha0s, kwargs = BATCH_CASES[case](iris)
    sols = _solve_stacked(problems, alpha0s, **kwargs)
    for problem, alpha0, sol in zip(problems, alpha0s, sols):
        _assert_reference_path(sol, problem, {**kwargs, "alpha0": alpha0})

    entries, lockstep_rows = loop_spy
    steps = [sol.iterations for sol in sols]
    if case == "below-threshold":
        assert lockstep_rows == [] and entries == [0] * len(problems)
    elif case == "mixed-n":
        assert lockstep_rows == [7]  # only the N = 40 group
    elif case in ("finish-apart", "tol-1e-9-mean-all-train"):
        assert lockstep_rows == [len(problems)]
        assert len(set(steps)) == len(steps)  # every row finishes on its own turn
        assert len(entries) == solver.LOCKSTEP_MIN_ROWS - 1 and min(entries) > 0
    elif case == "warm-bounds":
        assert lockstep_rows == [len(problems)] and steps[3] == 0
    elif "max_iter" in kwargs:
        cap = kwargs["max_iter"]
        assert max(steps) == cap and sum(not s.converged for s in sols) >= 1
        if cap > 1:
            assert min(steps) < cap  # some rows converge before the cap cuts the rest

    for cap in _stops(max(steps)) if along else ():
        capped = _capped(kwargs, cap)
        for problem, alpha0, sol in zip(problems, alpha0s, _solve_stacked(problems, alpha0s, **capped)):
            _assert_reference_path(sol, problem, {**capped, "alpha0": alpha0})


def test_solve_duals_rejects_mismatched_warm_starts():
    problems = _psd_nus(8, (0.5, 0.5))
    Q = np.stack([problem.q for problem in problems])
    with pytest.raises(ValueError, match="1 warm starts for 2 problems"):
        solve_duals(Q, [0.5, 0.5], np.full((1, 8), 0.125))
    with pytest.raises(ValueError, match=r"warm-start alpha has shape \(7,\), expected \(8,\)"):
        solve_duals(Q, [0.5, 0.5], np.full((2, 7), 0.125))


def _stacks(iris, warm):
    """Three N = 40 stacks of B = 7, 3 and 1 (two of them below the
    lockstep threshold alone) and their warm starts, or None."""
    problems = _psd_nus(40, (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9), seed=1)
    problems += _psd_nus(40, (0.15, 0.25), seed=2) + [_lmkad(iris, "sigmoid")]
    problems += [_mkad_gpl(iris, 0.1)]
    sizes = (7, 3, 1)
    rng = np.random.default_rng(5)
    alpha0 = rng.dirichlet(np.ones(40), size=len(problems)) if warm else None
    stacks, bounds = [], np.cumsum((0,) + sizes)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        stacks.append((np.stack([p.q for p in problems[lo:hi]]), [p.nu for p in problems[lo:hi]],
                       None if alpha0 is None else alpha0[lo:hi]))
    return stacks


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_solve_duals_rows_match_each_stack_alone(iris, warm, loop_spy):
    # stacks composed into consecutive rows of one Q array, as a trainer's
    # solve group does, share one lockstep, yet each row gets exactly what
    # solving its own stack gives
    stacks = _stacks(iris, warm)
    Q = np.concatenate([Q for Q, _, _ in stacks])
    nus = [nu for _, stack_nus, _ in stacks for nu in stack_nus]
    alpha0 = None if not warm else np.concatenate([a for _, _, a in stacks])
    together = solve_duals(Q, nus, alpha0)
    assert loop_spy[1] == [11] and len(together) == 11

    k = 0
    for Q, stack_nus, stack_alpha0 in stacks:
        alone = solve_duals(Q, stack_nus, stack_alpha0)
        for r in range(len(alone)):
            a, b = together[k], alone[r]
            assert a.alpha.tobytes() == b.alpha.tobytes()
            assert together.g[k].tobytes() == alone.g[r].tobytes()
            assert (a.iterations, a.converged, a.final_violation) == (b.iterations, b.converged, b.final_violation)
            assert (a.objective, a.rho) == (b.objective, b.rho)
            assert np.array_equal(a.support_indices, b.support_indices)
            assert np.array_equal(a.margin_indices, b.margin_indices)
            k += 1
    assert k == 11


def test_solve_duals_takes_one_square_stack():
    small, large = _psd_nus(8, (0.5,)), _psd_nus(9, (0.5,))
    with pytest.raises(ValueError, match=r"^Q must be one \(B, N, N\) array, got list$"):
        solve_duals([small[0].q[None], large[0].q[None]], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"^Q must be one \(B, N, N\) array, got \(1, 8, 9\)$"):
        solve_duals(np.zeros((1, 8, 9)), [0.5])
    with pytest.raises(ValueError, match=r"^Q must be one \(B, N, N\) array, got \(8, 8\)$"):
        solve_duals(small[0].q, [0.5])
    with pytest.raises(ValueError, match="^2 rejection rates for 1 problems$"):
        solve_duals(small[0].q[None], [0.5, 0.5])


@pytest.mark.parametrize("nu, message", [
    (2.0, r"^infeasible nu: 2\.0 not in \(0, 1\]$"),
    (-1.0, r"^infeasible nu: -1\.0 not in \(0, 1\]$"),
    (0.0, r"^infeasible nu: 0\.0 not in \(0, 1\]$"),
    (math.nan, r"^infeasible nu: nan not in \(0, 1\]$"),
    (0.2, r"^infeasible nu: nu\*N = 0\.8 < 1, "),
], ids=["above-1", "negative", "zero", "nan", "nu-n-below-1"])
def test_solve_duals_refuses_nu_it_cannot_solve(nu, message):
    # on Q = I_4, nu = 2 once gave multipliers summing to 0.5 and nu = -1
    # negative ones, both "converged"; nu = 0 divided by zero.  The first
    # bad row is named, by the message DualProblem gives for it
    Q = np.stack([np.eye(4)] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            solve_duals(Q, [0.5, nu, 2.0 if nu != 2.0 else 0.5])
        with pytest.raises(ValueError, match=message):
            DualProblem(np.eye(4), nu)
    assert solver.check_duals(Q) == {}  # the matrices are fine
    assert list(solver._nu_errors([0.25, nu], 4)) == [1]  # nu*N = 1 is feasible


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_solve_duals_refuses_a_tolerance_it_cannot_stop_at(tol):
    # tol <= 0 or NaN ran every dual to its 100 * N**2 cap
    Q = np.eye(4)[None]
    with pytest.raises(ValueError, match=rf"^tol must be finite and > 0, got {tol}$"):
        solve_duals(Q, [0.5], tol=tol)
    with pytest.raises(ValueError, match=rf"^tol must be finite and > 0, got {tol}$"):
        solve_dual(DualProblem(np.eye(4), 0.5), tol=tol)
