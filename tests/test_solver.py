import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmkad.dataset import apply_normalizer, fit_normalizer
from lmkad.gating import gate_eval_batch, init_gating
from lmkad.models import composite_gram_fixed, composite_gram_localized, resolve_kernels
from lmkad import solver
from lmkad.solver import DualProblem, solve_dual, solve_duals
from oracles import compute_rho, kkt_violation
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


def _assert_reference_path(new, problem, kwargs, record):
    """``new`` equals the plain loop's solution of ``problem`` in every field."""
    ref = reference_solve_dual(problem, record_violations=record, **kwargs)
    assert np.array_equal(new.alpha, ref.alpha)
    assert new.iterations == ref.iterations
    assert new.converged == ref.converged
    assert new.final_violation == ref.final_violation
    assert new.objective == ref.objective
    assert new.rho == ref.rho
    assert np.array_equal(new.support_indices, ref.support_indices)
    assert np.array_equal(new.margin_indices, ref.margin_indices)
    assert new.violation_trace == ref.violation_trace
    assert len(new.violation_trace) == (new.iterations + new.converged if record else 0)


@pytest.mark.parametrize("record", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize("case", sorted(SMO_PATH_CASES))
def test_solve_dual_matches_reference_loop_bit_for_bit(iris, case, record, loop_spy):
    # solve_dual (the scalar loop) and a lockstep batch of LOCKSTEP_MIN_ROWS
    # copies must each take exactly the steps of the plain loop in
    # smo_reference.py: same pairs, same roundings, same stopping step
    problem, kwargs = SMO_PATH_CASES[case](iris)
    new = solve_dual(problem, record_violations=record, **kwargs)
    _assert_reference_path(new, problem, kwargs, record)
    if "max_iter" in kwargs:
        assert not new.converged and new.iterations == kwargs["max_iter"]
    elif case == "mkad-gpl-iris":
        assert new.iterations > 1000

    rows = solver.LOCKSTEP_MIN_ROWS
    solver_kwargs = {k: v for k, v in kwargs.items() if k != "alpha0"}
    batch = _solve_stacked([problem] * rows, [kwargs.get("alpha0")] * rows,
                           record_violations=record, **solver_kwargs)
    assert loop_spy[1] == [rows]
    for sol in batch:
        _assert_reference_path(sol, problem, kwargs, record)


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


@pytest.mark.parametrize("record", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_solve_duals_batch_matches_reference_loop_bit_for_bit(iris, case, record, loop_spy):
    problems, alpha0s, kwargs = BATCH_CASES[case](iris)
    sols = _solve_stacked(problems, alpha0s, record_violations=record, **kwargs)
    for problem, alpha0, sol in zip(problems, alpha0s, sols):
        _assert_reference_path(sol, problem, {**kwargs, "alpha0": alpha0}, record)

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


def test_solve_duals_rejects_mismatched_warm_starts():
    problems = _psd_nus(8, (0.5, 0.5))
    Q = np.stack([problem.q for problem in problems])
    with pytest.raises(ValueError, match="1 warm starts for 2 problems"):
        solve_duals(Q, [0.5, 0.5], np.full((1, 8), 0.125))
    with pytest.raises(ValueError, match=r"warm-start alpha has shape \(7,\), expected \(8,\)"):
        solve_duals(Q, [0.5, 0.5], np.full((2, 7), 0.125))


def _parts(iris, warm):
    """Three N = 40 stacks of B = 7, 3 and 1 (two of them below the
    lockstep threshold alone) and their warm starts, or None."""
    problems = _psd_nus(40, (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9), seed=1)
    problems += _psd_nus(40, (0.15, 0.25), seed=2) + [_lmkad(iris, "sigmoid")]
    problems += [_mkad_gpl(iris, 0.1)]
    sizes = (7, 3, 1)
    rng = np.random.default_rng(5)
    alpha0 = rng.dirichlet(np.ones(40), size=len(problems)) if warm else None
    parts, bounds = [], np.cumsum((0,) + sizes)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        parts.append((np.stack([p.q for p in problems[lo:hi]]), [p.nu for p in problems[lo:hi]],
                      None if alpha0 is None else alpha0[lo:hi]))
    return parts


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_solve_duals_parts_match_each_part_alone(iris, warm, loop_spy):
    # duals handed over as several stacks share one lockstep, yet each
    # gets exactly what solving its own stack gives
    parts = _parts(iris, warm)
    nus = [nu for _, part_nus, _ in parts for nu in part_nus]
    alpha0 = None if not warm else np.concatenate([a for _, _, a in parts])
    together = solve_duals([Q for Q, _, _ in parts], nus, alpha0, record_violations=True)
    assert loop_spy[1] == [11] and len(together) == 11

    k = 0
    for Q, part_nus, part_alpha0 in parts:
        alone = solve_duals(Q, part_nus, part_alpha0, record_violations=True)
        for r in range(len(alone)):
            a, b = together[k], alone[r]
            assert a.alpha.tobytes() == b.alpha.tobytes()
            assert together.g[k].tobytes() == alone.g[r].tobytes()
            assert (a.iterations, a.converged, a.final_violation) == (b.iterations, b.converged, b.final_violation)
            assert a.violation_trace == b.violation_trace
            assert (a.objective, a.rho) == (b.objective, b.rho)
            assert np.array_equal(a.support_indices, b.support_indices)
            assert np.array_equal(a.margin_indices, b.margin_indices)
            k += 1
    assert k == 11


def test_solve_duals_rejects_parts_of_another_size():
    small, large = _psd_nus(8, (0.5,)), _psd_nus(9, (0.5,))
    with pytest.raises(ValueError, match=r"Q parts must be \(B, 8, 8\) arrays, got shape \(1, 9, 9\)"):
        solve_duals([small[0].q[None], large[0].q[None]], [0.5, 0.5])
