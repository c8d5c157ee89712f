"""SMO solver for the one-class SVM dual.

Minimizes ``0.5 * a' Q a`` subject to ``0 <= a_i <= 1/(nu*N)`` and
``sum(a) = 1`` by maximal-violating-pair coordinate updates on a dense,
precomputed Gram matrix.  Each pair step solves the two-variable
subproblem exactly and preserves the simplex constraint, so the objective
never increases and every iterate stays feasible.
"""
from __future__ import annotations

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
    ``converged=False``; the default cap is ``100 * N**2``.
    """
    if rho_mode not in RHO_MODES:
        raise ValueError(f"unknown rho mode {rho_mode!r}")
    Q = problem.q
    n = problem.n
    upper = problem.upper_bound
    if max_iter is None:
        max_iter = 100 * n * n

    alpha = _feasible_start(n, upper, alpha0)
    g = Q @ alpha
    trace: list[float] = []

    converged = False
    iterations = 0
    gap = np.inf
    while iterations < max_iter:
        g_dec = np.where(alpha > 0.0, g, -np.inf)
        g_inc = np.where(alpha < upper, g, np.inf)
        i = int(np.argmax(g_dec))
        j = int(np.argmin(g_inc))
        gap = g_dec[i] - g_inc[j]
        if record_violations:
            trace.append(max(0.0, gap if np.isfinite(gap) else 0.0))
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
