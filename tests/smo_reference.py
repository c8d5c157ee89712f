"""Reference SMO loop for bit-for-bit checks of ``lmkad.solver.solve_duals``.

The plain numpy-per-step SMO loop, kept verbatim as an oracle: it
rebuilds both bound masks with ``np.where`` at every step, picks the
maximal violating pair with ``np.argmax``/``np.argmin`` and updates the
gradient with ``g += step * (Q[:, j] - Q[:, i])``.  Both loop forms of
``solve_duals`` (the scalar loop behind ``solve_dual`` and the lockstep
batch) must reproduce every iterate of it exactly, so the comparison uses
``np.array_equal`` and ``==``, never a tolerance.  The feasible start and
the rho computation are the one-problem forms in ``oracles.py``, so the
solver's stacked set-up and finish are checked as well.
"""
import numpy as np

from lmkad.solver import RHO_MODES, DEFAULT_TOL, DualSolution
from oracles import feasible_start, support_and_rho


def reference_solve_dual(
    problem,
    tol=DEFAULT_TOL,
    max_iter=None,
    alpha0=None,
    rho_mode="margin",
):
    if rho_mode not in RHO_MODES:
        raise ValueError(f"unknown rho mode {rho_mode!r}")
    Q = problem.q
    n = problem.n
    upper = problem.upper_bound
    if max_iter is None:
        max_iter = 100 * n * n

    alpha = feasible_start(n, upper, alpha0)
    g = Q @ alpha

    converged = False
    iterations = 0
    gap = np.inf
    while iterations < max_iter:
        g_dec = np.where(alpha > 0.0, g, -np.inf)
        g_inc = np.where(alpha < upper, g, np.inf)
        i = int(np.argmax(g_dec))
        j = int(np.argmin(g_inc))
        gap = g_dec[i] - g_inc[j]
        if gap <= tol:
            converged = True
            break
        # exact minimizer of the 2-variable subproblem, then box clipping
        curvature = Q[i, i] + Q[j, j] - 2.0 * Q[i, j]
        if curvature <= 1e-12:
            curvature = 1e-12
        step = min(gap / curvature, alpha[i], upper - alpha[j])
        alpha[i] -= step
        alpha[j] += step
        g += step * (Q[:, j] - Q[:, i])
        iterations += 1

    g = Q @ alpha  # refresh: incremental updates accumulate rounding
    objective = 0.5 * float(alpha @ g)
    support, margin, rho = support_and_rho(alpha, g, upper, rho_mode)
    return DualSolution(
        alpha=alpha,
        objective=objective,
        support_indices=support,
        margin_indices=margin,
        rho=rho,
        converged=converged,
        iterations=iterations,
        final_violation=float(max(0.0, gap if np.isfinite(gap) else 0.0)),
    )
