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

``solve_duals`` also advances independent duals of one size in
lockstep, so one numpy call steps many duals.  A turn takes one step of
every unfinished dual with elementwise operations on (B, N) state
arrays: the penalty adds, row-wise ``argmax``/``argmin`` (first-index
ties, as above), flat ``take`` of the gaps, diagonals, ``Q[i, j]`` and
multipliers, the per-row step and clipping, penalty ``put`` at i and j,
and the same three-rounding gradient update on columns gathered from a
stack of transposed Grams.  Converged rows are compacted out.  Step
counts are heavy-tailed (in an iris benchmark cell one dual takes 10,356
steps where the median takes 60), and a turn over a few rows costs more
than as many scalar steps, so once fewer than ``LOCKSTEP_MIN_ROWS`` are
unfinished each continues in the scalar loop from its exact state.
Without that tail, lockstep made the iris protocol slower than the
scalar loop alone.  Both loop forms are pinned to the plain loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: multipliers above EPS_SV_FACTOR * C count as support vectors
EPS_SV_FACTOR = 1e-8
DEFAULT_TOL = 1e-6

RHO_MODES = ("margin", "mean-all-train")

#: fewest unfinished duals of one size that ``solve_duals`` advances in
#: lockstep; below it each finishes in the scalar loop, whose step is
#: ~5x cheaper than a lockstep turn over a handful of rows
LOCKSTEP_MIN_ROWS = 6


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

    ``alpha0`` warm-starts the iteration.  This is the one-problem case of
    ``solve_duals`` (see there), which runs it in the scalar loop.
    """
    return solve_duals([problem], [alpha0], tol, max_iter, rho_mode, record_violations)[0]


def solve_duals(
    problems,
    alpha0s=None,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    rho_mode: str = "margin",
    record_violations: bool = False,
) -> list[DualSolution]:
    """Solve independent duals; each gets the iterates it would get alone.

    ``alpha0s`` holds one warm start (or None) per problem; each is
    projected back into the feasible set first.  If ``max_iter`` pair
    updates elapse before convergence the best-so-far solution is
    returned with ``converged=False``; the default cap is ``100 * N**2``
    and a cap below 1 is rejected.

    Problems of equal N that number at least ``LOCKSTEP_MIN_ROWS`` are
    advanced in lockstep, one step of every unfinished dual per turn
    (see the module docstring); once fewer than ``LOCKSTEP_MIN_ROWS``
    remain, each finishes in the scalar loop from its exact state.  In
    both loop forms the pair rule, the step and its floating-point
    operations are those of the plain loop that rebuilds both masks every
    step, so every solution's iterates, step count and violation trace
    equal its own.
    """
    if rho_mode not in RHO_MODES:
        raise ValueError(f"unknown rho mode {rho_mode!r}")
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    problems = list(problems)
    alpha0s = [None] * len(problems) if alpha0s is None else list(alpha0s)
    if len(alpha0s) != len(problems):
        raise ValueError(f"{len(alpha0s)} warm starts for {len(problems)} problems")
    duals = [_Dual(p, a0, max_iter, record_violations) for p, a0 in zip(problems, alpha0s)]
    by_size: dict[int, list[_Dual]] = {}
    for dual in duals:
        by_size.setdefault(dual.q.shape[0], []).append(dual)
    for group in by_size.values():
        if len(group) >= LOCKSTEP_MIN_ROWS:
            _lockstep(group, tol)
        for dual in group:
            if not dual.converged:
                _scalar_loop(dual, tol)
    return [dual.solution(rho_mode) for dual in duals]


class _Dual:
    """The loop state of one dual: multipliers, gradient, step count, last gap.

    The penalty masks are a function of the multipliers and are rebuilt
    from them whenever a loop takes the dual over.
    """

    def __init__(self, problem: DualProblem, alpha0, max_iter, record_violations: bool):
        self.q = Q = problem.q
        n = problem.n
        self.upper = upper = float(problem.upper_bound)
        self.max_iter = 100 * n * n if max_iter is None else max_iter
        start = _feasible_start(n, upper, alpha0)
        self.alpha = start
        self.g = Q @ start
        self.iterations = 0
        self.gap = math.inf
        self.converged = False
        self.trace: list[float] | None = [] if record_violations else None

    def solution(self, rho_mode: str) -> DualSolution:
        alpha = self.alpha
        g = self.q @ alpha  # refresh: incremental updates accumulate rounding
        support, margin, rho = _support_and_rho(alpha, g, self.upper, rho_mode)
        return DualSolution(
            alpha=alpha,
            objective=0.5 * float(alpha @ g),
            support_indices=support,
            margin_indices=margin,
            rho=rho,
            converged=self.converged,
            iterations=self.iterations,
            final_violation=_violation(self.gap),
            violation_trace=[] if self.trace is None else self.trace,
        )


def _violation(gap: float) -> float:
    """The KKT gap as reported: floored at 0, and 0 when not finite."""
    return max(0.0, gap if math.isfinite(gap) else 0.0)


def _scalar_loop(dual: _Dual, tol: float) -> None:
    """Advance one dual from its current state until it converges or hits its cap."""
    Q = dual.q
    n = Q.shape[0]
    upper = dual.upper
    max_iter = dual.max_iter
    trace = dual.trace
    # loop state (see the module docstring): Python floats, penalty masks, buffers
    alpha = dual.alpha.tolist()
    diag = Q.diagonal().tolist()
    cols = Q.T  # cols[j] is the column Q[:, j], not the row Q[j]
    g = dual.g
    pen_dec = np.where(dual.alpha > 0.0, 0.0, -np.inf)
    pen_inc = np.where(dual.alpha < upper, 0.0, np.inf)
    g_dec = np.empty(n)
    g_inc = np.empty(n)
    d = np.empty(n)

    converged = False
    iterations = dual.iterations
    gap = dual.gap
    while iterations < max_iter:
        np.add(g, pen_dec, out=g_dec)
        np.add(g, pen_inc, out=g_inc)
        i = g_dec.argmax()
        j = g_inc.argmin()
        gap = float(g_dec[i]) - float(g_inc[j])
        if trace is not None:
            trace.append(_violation(gap))
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

    dual.alpha = np.array(alpha)
    dual.iterations = iterations
    dual.gap = gap
    dual.converged = converged


def _lockstep(duals: list[_Dual], tol: float) -> None:
    """Advance duals of one size together while ``LOCKSTEP_MIN_ROWS`` are unfinished.

    Row r of the (B, N) state arrays is dual ``live[r]``; a turn is one
    scalar-loop step of every row, each operation applied elementwise
    along the rows.  All duals start at step 0 and share one cap, so
    every row has taken ``turn`` steps.  When rows converge they are
    compacted out of the state arrays (the stack of transposed Grams is
    only indexed) and the turn is redone on the rest, whose state has
    not changed.
    """
    n = duals[0].q.shape[0]
    max_iter = duals[0].max_iter
    record = duals[0].trace is not None
    cols = np.stack([dual.q.T for dual in duals])  # cols[k, j] is the column Q_k[:, j]
    live = np.arange(len(duals))
    alpha = np.stack([dual.alpha for dual in duals])
    g = np.stack([dual.g for dual in duals])
    diag = np.stack([dual.q.diagonal() for dual in duals])
    upper = np.array([dual.upper for dual in duals])
    pen_dec = np.where(alpha > 0.0, 0.0, -np.inf)
    pen_inc = np.where(alpha < upper[:, None], 0.0, np.inf)
    gap = np.full(live.size, math.inf)

    turn = 0
    compacted = True
    while live.size >= LOCKSTEP_MIN_ROWS and turn < max_iter:
        if compacted:
            b = live.size
            g_dec = np.empty_like(g)
            g_inc = np.empty_like(g)
            # positions of (r, i_r) then (r, j_r) in a flattened (B, N) array
            offsets = np.tile(np.arange(b) * n, 2)
            live2 = np.tile(live, 2)
            upper2 = np.tile(upper, 2)
            compacted = False
        np.add(g, pen_dec, out=g_dec)
        np.add(g, pen_inc, out=g_inc)
        ij = np.concatenate((g_dec.argmax(axis=1), g_inc.argmin(axis=1)))
        fij = offsets + ij
        fi = fij[:b]
        fj = fij[b:]
        gap = g_dec.take(fi) - g_inc.take(fj)
        if gap[gap.argmin()] <= tol:
            done = gap <= tol
            for r in np.flatnonzero(done).tolist():
                dual = duals[live[r]]
                dual.alpha = alpha[r].copy()
                dual.iterations = turn
                dual.gap = float(gap[r])
                dual.converged = True
                if record:
                    dual.trace.append(_violation(dual.gap))
            keep = ~done
            live, alpha, g, diag = live[keep], alpha[keep], g[keep], diag[keep]
            upper, pen_dec, pen_inc, gap = upper[keep], pen_dec[keep], pen_inc[keep], gap[keep]
            compacted = True
            continue
        if record:
            for r, value in zip(live.tolist(), gap.tolist()):
                duals[r].trace.append(_violation(value))
        # exact minimizer of the 2-variable subproblem, then box clipping
        col_ij = cols[live2, ij]
        col_i = col_ij[:b]
        col_j = col_ij[b:]
        d_ij = diag.take(fij)
        curvature = d_ij[:b] + d_ij[b:] - 2.0 * col_j.take(fi)
        np.maximum(curvature, 1e-12, out=curvature)
        a_ij = alpha.take(fij)
        # the three candidates are positive, so minimum picks what min() does
        step = gap / curvature
        np.minimum(step, a_ij[:b], out=step)
        np.minimum(step, upper - a_ij[b:], out=step)
        a_ij[:b] -= step
        a_ij[b:] += step
        alpha.put(fij, a_ij)
        pen_dec.put(fij, np.where(a_ij > 0.0, 0.0, -np.inf))
        pen_inc.put(fij, np.where(a_ij < upper2, 0.0, np.inf))
        # g += step * (Q[:, j] - Q[:, i]) with the same three roundings
        np.subtract(col_j, col_i, out=col_j)
        col_j *= step[:, None]
        g += col_j
        turn += 1

    for r, k in enumerate(live.tolist()):
        dual = duals[k]
        dual.alpha = alpha[r].copy()
        dual.g = g[r].copy()
        dual.iterations = turn
        dual.gap = float(gap[r])


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
