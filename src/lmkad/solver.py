"""SMO solver for the one-class SVM dual.

Minimizes ``0.5 * a' Q a`` subject to ``0 <= a_i <= 1/(nu*N)`` and
``sum(a) = 1`` by maximal-violating-pair coordinate updates on a dense,
precomputed Gram matrix.  Each pair step solves the two-variable
subproblem exactly and preserves the simplex constraint, so the objective
never increases and every iterate stays feasible.

The loop's cost is numpy call overhead, not arithmetic (duals here are
often N~40), so it makes few numpy calls per step.  The bound masks are
kept incrementally as additive penalty vectors (-inf where ``alpha == 0``,
+inf where ``alpha == upper``) that change only at the two updated rows;
``g + penalty`` goes into a preallocated buffer and the ndarray
``argmax``/``argmin`` methods pick the pair with numpy's first-index tie
rule.  Multipliers and the diagonal are Python floats inside the loop,
and the gradient update ``g += step * (Q[:, j] - Q[:, i])`` runs in a
scratch buffer with the same three roundings per entry.  Every iterate
is therefore bit for bit that of the plain loop kept in
``tests/smo_reference.py``.  Columns, not rows, are read: a localized Q
is symmetric only up to rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: multipliers above EPS_SV_FACTOR * C count as support vectors
EPS_SV_FACTOR = 1e-8
DEFAULT_TOL = 1e-6

RHO_MODES = ("margin", "mean-all-train")


def infeasible_nu(nu: float, n: int) -> str | None:
    """Why ``nu`` is infeasible on ``n`` rows (box 1/(nu*N) < 1/N), or None."""
    if nu * n < 1.0 - 1e-9:
        return (
            f"infeasible nu: nu*N = {nu * n:.6g} < 1, "
            "the simplex constraint cannot be met under the box bound"
        )
    return None


@dataclass(frozen=True)
class DualProblem:
    """Dual QP data: Gram matrix Q, rejection rate nu, box bound 1/(nu*N)."""

    q: np.ndarray
    nu: float

    def __post_init__(self):
        Q = np.asarray(self.q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        if not np.isfinite(Q).all():
            raise ValueError("Q contains non-finite entries")
        if np.max(np.abs(Q - Q.T)) > 1e-9:
            raise ValueError("Q is not symmetric within 1e-9")
        if np.min(np.diagonal(Q)) < -1e-12:
            raise ValueError("Q has a negative diagonal entry")
        n = Q.shape[0]
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"infeasible nu: {self.nu} not in (0, 1]")
        reason = infeasible_nu(self.nu, n)
        if reason is not None:
            raise ValueError(reason)
        object.__setattr__(self, "q", Q)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def upper_bound(self) -> float:
        return 1.0 / (self.nu * self.n)


@dataclass
class DualSolution:
    alpha: np.ndarray
    objective: float  # 0.5 * a' Q a at the solution
    support_indices: np.ndarray
    margin_indices: np.ndarray
    rho: float
    converged: bool
    iterations: int
    final_violation: float
    violation_trace: list[float] = field(default_factory=list, repr=False)


def _feasible_start(n: int, upper: float, alpha0: np.ndarray | None) -> np.ndarray:
    if alpha0 is None:
        alpha = np.full(n, 1.0 / n)
    else:
        alpha = np.clip(np.asarray(alpha0, dtype=float).copy(), 0.0, upper)
        if alpha.shape != (n,):
            raise ValueError(f"warm-start alpha has shape {alpha.shape}, expected ({n},)")
        deficit = 1.0 - alpha.sum()
        if abs(deficit) > 1e-15:
            alpha = np.clip(alpha + deficit / n, 0.0, upper)
        if abs(alpha.sum() - 1.0) > 1e-9:  # badly infeasible input: start over
            alpha = np.full(n, 1.0 / n)
    return np.clip(alpha, 0.0, upper)


def solve_dual(
    problem: DualProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    alpha0: np.ndarray | None = None,
    rho_mode: str = "margin",
    record_violations: bool = False,
) -> DualSolution:
    """Run maximal-violating-pair SMO until the KKT gap is below ``tol``.

    ``alpha0`` warm-starts the iteration (it is projected back into the
    feasible set first).  If ``max_iter`` pair updates elapse before
    convergence the best-so-far solution is returned with
    ``converged=False``; the default cap is ``100 * N**2`` and a cap below
    1 is rejected.  The bound masks are kept incrementally (see the module
    docstring), but the pair rule, the step and its floating-point
    operations are those of the plain loop that rebuilds both masks every
    step, so the iterates, step count and violation trace equal its own.
    """
    if rho_mode not in RHO_MODES:
        raise ValueError(f"unknown rho mode {rho_mode!r}")
    Q = problem.q
    n = problem.n
    upper = problem.upper_bound
    if max_iter is None:
        max_iter = 100 * n * n
    elif max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    start = _feasible_start(n, upper, alpha0)
    g = Q @ start
    trace: list[float] = []

    # loop state (see the module docstring): Python floats, penalty masks, buffers
    upper = float(upper)
    alpha = start.tolist()
    diag = Q.diagonal().tolist()
    cols = Q.T  # cols[j] is the column Q[:, j], not the row Q[j]
    pen_dec = np.where(start > 0.0, 0.0, -np.inf)
    pen_inc = np.where(start < upper, 0.0, np.inf)
    g_dec = np.empty(n)
    g_inc = np.empty(n)
    d = np.empty(n)

    converged = False
    iterations = 0
    gap = math.inf
    while iterations < max_iter:
        np.add(g, pen_dec, out=g_dec)
        np.add(g, pen_inc, out=g_inc)
        i = g_dec.argmax()
        j = g_inc.argmin()
        gap = float(g_dec[i]) - float(g_inc[j])
        if record_violations:
            trace.append(max(0.0, gap if math.isfinite(gap) else 0.0))
        if gap <= tol:
            converged = True
            break
        # exact minimizer of the 2-variable subproblem, then box clipping
        col_i = cols[i]
        col_j = cols[j]
        curvature = diag[i] + diag[j] - 2.0 * float(col_j[i])
        if curvature <= 1e-12:
            curvature = 1e-12
        step = min(gap / curvature, alpha[i], upper - alpha[j])
        alpha[i] -= step
        alpha[j] += step
        a_i = alpha[i]
        a_j = alpha[j]
        pen_dec[i] = 0.0 if a_i > 0.0 else -math.inf
        pen_inc[i] = 0.0 if a_i < upper else math.inf
        pen_dec[j] = 0.0 if a_j > 0.0 else -math.inf
        pen_inc[j] = 0.0 if a_j < upper else math.inf
        # g += step * (Q[:, j] - Q[:, i]) with the same three roundings
        np.subtract(col_j, col_i, out=d)
        d *= step
        g += d
        iterations += 1

    alpha = np.array(alpha)
    g = Q @ alpha  # refresh: incremental updates accumulate rounding
    objective = 0.5 * float(alpha @ g)
    support, margin, rho = _support_and_rho(alpha, g, upper, rho_mode)
    return DualSolution(
        alpha=alpha,
        objective=objective,
        support_indices=support,
        margin_indices=margin,
        rho=rho,
        converged=converged,
        iterations=iterations,
        final_violation=float(max(0.0, gap if np.isfinite(gap) else 0.0)),
        violation_trace=trace,
    )


def _support_and_rho(alpha: np.ndarray, g: np.ndarray, upper: float, rho_mode: str):
    """Support and margin indices of ``alpha``, and rho from ``g = Q @ alpha``.

    Default rho is the mean decision value over margin support vectors (the
    KKT-consistent estimator), falling back to all support vectors when no
    multiplier is strictly inside the box.  ``mean-all-train`` instead
    centers the decision values over every training row.
    """
    eps_sv = EPS_SV_FACTOR * upper
    support = np.flatnonzero(alpha > eps_sv)
    margin = np.flatnonzero((alpha > eps_sv) & (alpha < upper - eps_sv))
    if support.size == 0:
        raise RuntimeError("cannot compute rho: no support vectors")
    if rho_mode == "mean-all-train":
        rho = g.mean()
    elif margin.size > 0:
        rho = g[margin].mean()
    else:
        rho = g[support].mean()
    return support, margin, float(rho)


def compute_rho(alpha: np.ndarray, Q: np.ndarray, upper: float, rho_mode: str = "margin") -> float:
    """Bias from a solved multiplier vector, as ``solve_dual`` computes it."""
    if rho_mode not in RHO_MODES:
        raise ValueError(f"unknown rho mode {rho_mode!r}")
    alpha = np.asarray(alpha, dtype=float)
    return _support_and_rho(alpha, np.asarray(Q, dtype=float) @ alpha, upper, rho_mode)[2]


def kkt_violation(alpha: np.ndarray, Q: np.ndarray, upper: float) -> float:
    """Max gradient over decreasable multipliers minus min over increasable.

    Zero (after flooring) exactly at the dual optimum.
    """
    alpha = np.asarray(alpha, dtype=float)
    g = np.asarray(Q, dtype=float) @ alpha
    eps_sv = EPS_SV_FACTOR * upper
    dec = alpha > eps_sv
    inc = alpha < upper - eps_sv
    if not dec.any() or not inc.any():
        return 0.0
    return max(0.0, float(g[dec].max() - g[inc].min()))
