"""SMO solver for the one-class SVM dual.

Minimizes ``0.5 * a' Q a`` subject to ``0 <= a_i <= 1/(nu*N)`` and
``sum(a) = 1`` by maximal-violating-pair coordinate updates on a dense,
precomputed Gram matrix.  Each pair step solves the two-variable
subproblem exactly and preserves the simplex constraint, so the objective
never increases and every iterate stays feasible.

``solve_duals`` solves a stack of B independent duals of one size N: Q
is one (B, N, N) array, read as it is; the rejection rates and warm
starts are (B,) and (B, N).  A trainer composes the Q of every fit that
shares N and the inner-solver knobs into consecutive rows of one such
array, so their duals share one lockstep.  The set-up (feasible start,
``g = Q @ alpha``) and the finish (refreshed ``Q @ alpha``, objective,
support and margin masks) each run over the whole stack in a few numpy
calls: stacked ``matmul`` calls the same BLAS routine per dual as a 2-D
``@``, and row sums reduce each row as a 1-D sum does, so every row
equals its one-problem result bit for bit.  Only rho is computed per
dual, when its ``DualSolution`` is read: the mean of ``g`` over the
margin support vectors, or over all support vectors when no multiplier
is strictly inside the box, as for the nu-one-class SVM (Schölkopf et
al., Neural Computation 13(7), 2001).
``DualProblem`` validates one Q (``CHECK_MESSAGES``); a stack's content
is its caller's to check, and its rejection rates are checked where they
enter.  A caller may instead compose Q column by column as the scalar
loop reads it (``solve_duals``' ``columns``).

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

A stack of at least ``LOCKSTEP_MIN_ROWS`` duals is advanced in lockstep,
so one numpy call steps many duals.  A turn takes one step of every
unfinished dual with elementwise operations on (B, N) state arrays: the
penalty adds, row-wise ``argmax``/``argmin`` (first-index ties, as
above), flat ``take`` of the gaps, diagonals, ``Q[i, j]`` and
multipliers, the per-row step and clipping, penalty ``put`` at i and j,
and the same three-rounding gradient update on columns gathered from
one stack of transposed Grams, the only copy of Q.
Converged rows are written back at once and compacted out in bulk.  A
turn costs ~40 us of call overhead however many rows it steps, so the
more duals share a lockstep, the fewer turns and scalar-tail steps a
set of duals takes in all.  Step counts are heavy-tailed (in an iris
benchmark cell one dual takes 10,356 steps where the median takes 60),
and a turn over a few rows costs more than as many scalar steps, so
once fewer than ``LOCKSTEP_MIN_ROWS`` are unfinished each continues in
the scalar loop from its exact state.
Without that tail, lockstep made the iris protocol slower than the
scalar loop alone.  Both loop forms are pinned to the plain loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: multipliers above EPS_SV_FACTOR * C count as support vectors
EPS_SV_FACTOR = 1e-8
DEFAULT_TOL = 1e-6

#: fewest unfinished duals of one size that ``solve_duals`` advances in
#: lockstep; below it each finishes in the scalar loop, whose step is
#: ~5x cheaper than a lockstep turn over a handful of rows
LOCKSTEP_MIN_ROWS = 6


def infeasible_nu(nu: float, n: int) -> str | None:
    """Why ``nu`` is infeasible on ``n`` rows (box 1/(nu*N) < 1/N), or None."""
    if nu * n < 1.0 - 1e-9:
        return (f"infeasible nu: nu*N = {nu * n:.6g} < 1, "
                "the simplex constraint cannot be met under the box bound")
    return None


def nu_out_of_range(nu) -> str | None:
    """Why ``nu`` is not a rejection rate in (0, 1], or None."""
    if not 0.0 < nu <= 1.0:
        return f"infeasible nu: {nu} not in (0, 1]"
    return None


def _nu_errors(nu, n: int) -> dict[int, str]:
    """Why each rate of ``nu`` cannot be solved on ``n`` rows: ``nu_out_of_range``, then ``infeasible_nu``."""
    return {r: reason for r, rate in enumerate(nu) if (reason := nu_out_of_range(rate) or infeasible_nu(rate, n))}


def check_tol(tol, name: str = "tol") -> None:
    """The tolerance rule: SMO stops once the KKT gap is at most ``tol``,
    so a ``tol`` that is not finite and > 0 is refused by ``name``."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be finite and > 0, got {tol}")


#: the messages of ``DualProblem``'s checks of Q, in the order they run
CHECK_MESSAGES = ("Q contains non-finite entries",
                  "Q is not symmetric within max(1e-9, 1e-12 * max|Q|)",
                  "Q has a negative diagonal entry")


@dataclass(frozen=True)
class DualProblem:
    """Dual QP data: Gram matrix Q, rejection rate nu, box bound 1/(nu*N).

    Q must be square and non-empty, then pass these checks in order
    (``CHECK_MESSAGES``): finite, symmetric (``|Q - Q^T| <= max(1e-9,
    1e-12 * max|Q|)``, so the bound grows with a large Q's rounding),
    diagonal >= -1e-12.  Then nu must pass ``solve_duals``' rule.
    """

    q: np.ndarray
    nu: float

    def __post_init__(self):
        Q = np.asarray(self.q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or not Q.size:
            raise ValueError(f"Q must be square and non-empty, got shape {Q.shape}")
        if not np.isfinite(Q).all():
            raise ValueError(CHECK_MESSAGES[0])
        with np.errstate(over="ignore"):  # a finite Q's asymmetry may overflow to inf
            gap = np.abs(Q - Q.T).max()
        if gap > 1e-9 and gap > 1e-12 * np.abs(Q).max():  # max|Q| is read only past the absolute bound
            raise ValueError(CHECK_MESSAGES[1])
        if Q.diagonal().min() < -1e-12:
            raise ValueError(CHECK_MESSAGES[2])
        errors = _nu_errors([self.nu], Q.shape[0])
        if errors:
            raise ValueError(errors[0])
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


def _feasible_start(upper: np.ndarray, alpha0: np.ndarray | None, b: int, n: int) -> np.ndarray:
    """Uniform multipliers, or each warm start projected back into its feasible set."""
    if alpha0 is None:
        alpha = np.full((b, n), 1.0 / n)
    else:
        alpha0 = np.asarray(alpha0, dtype=float)
        if len(alpha0) != b:
            raise ValueError(f"{len(alpha0)} warm starts for {b} problems")
        if alpha0.shape[1:] != (n,):
            raise ValueError(f"warm-start alpha has shape {alpha0.shape[1:]}, expected ({n},)")
        alpha = np.clip(alpha0, 0.0, upper[:, None])
        deficit = 1.0 - alpha.sum(axis=1)
        off = np.abs(deficit) > 1e-15
        alpha[off] = np.clip(alpha[off] + (deficit[off] / n)[:, None], 0.0, upper[off, None])
        alpha[np.abs(alpha.sum(axis=1) - 1.0) > 1e-9] = 1.0 / n  # badly infeasible input: start over
    return np.clip(alpha, 0.0, upper[:, None], out=alpha)


class DualStack:
    """B duals of one size: their loop state while solving, then their solutions.

    Row k of every array is dual k: ``Q`` is (B, N, N), ``alpha`` and
    ``g = Q @ alpha`` are (B, N), and ``columns`` is None or composes Q
    on demand (see ``solve_duals``); ``iterations``, ``gap`` and
    ``converged`` hold each dual's step count, last KKT gap and whether
    it met the tolerance.  Once ``solve_duals`` returns, ``g`` is
    refreshed and ``objective``, ``support`` and ``margin`` (boolean
    masks) are set, and ``stack[k]`` is dual k's ``DualSolution``.
    """

    def __init__(self, Q: np.ndarray, upper: np.ndarray, alpha0, max_iter, columns=None):
        b, n = Q.shape[0], Q.shape[2]
        self.Q, self.upper, self.columns = Q, upper, columns
        self.max_iter = 100 * n * n if max_iter is None else max_iter
        self.alpha = _feasible_start(upper, alpha0, b, n)
        if columns is not None:
            for k, cols in enumerate(columns):
                cols.start(self.alpha[k])
        self.g = self._matvec(self.alpha)
        self.iterations = np.zeros(b, dtype=np.int64)
        self.gap = np.full(b, math.inf)
        self.converged = np.zeros(b, dtype=bool)

    def __len__(self) -> int:
        return self.alpha.shape[0]

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        """Row k is ``Q_k @ x[k]``, by the BLAS call a 2-D ``@`` makes."""
        return np.matmul(self.Q, x[:, :, None])[:, :, 0]

    def _finish(self) -> None:
        self.g = self._matvec(self.alpha)  # refresh: incremental updates accumulate rounding
        self.objective = 0.5 * np.matmul(self.alpha[:, None, :], self.g[:, :, None])[:, 0, 0]
        eps_sv = EPS_SV_FACTOR * self.upper[:, None]
        self.support = self.alpha > eps_sv
        self.margin = self.support & (self.alpha < self.upper[:, None] - eps_sv)

    def __getitem__(self, k: int) -> DualSolution:
        """Dual k's solution.  rho is the mean of ``g`` over margin support
        vectors (the KKT-consistent estimator), falling back to all support
        vectors when no multiplier is strictly inside the box."""
        g = self.g[k]
        support = np.flatnonzero(self.support[k])
        margin = np.flatnonzero(self.margin[k])
        if support.size == 0:
            raise RuntimeError("cannot compute rho: no support vectors")
        rho = g[margin if margin.size else support].mean()
        gap = float(self.gap[k])  # reported floored at 0, and as 0 when not finite
        return DualSolution(
            alpha=self.alpha[k],
            objective=float(self.objective[k]),
            support_indices=support,
            margin_indices=margin,
            rho=float(rho),
            converged=bool(self.converged[k]),
            iterations=int(self.iterations[k]),
            final_violation=max(0.0, gap if math.isfinite(gap) else 0.0),
        )


def solve_dual(
    problem: DualProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    alpha0: np.ndarray | None = None,
) -> DualSolution:
    """Run maximal-violating-pair SMO until the KKT gap is below ``tol``.

    ``alpha0`` warm-starts the iteration.  This is the one-problem case of
    ``solve_duals`` (see there), which runs it in the scalar loop.
    """
    alpha0 = None if alpha0 is None else np.asarray(alpha0, dtype=float)[None]
    return solve_duals(problem.q[None], [problem.nu], alpha0, tol, max_iter)[0]


def solve_duals(
    Q: np.ndarray,
    nu,
    alpha0: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    columns=None,
) -> DualStack:
    """Solve a stack of independent duals; each gets the iterates it would get alone.

    ``Q`` is one (B, N, N) ndarray, read and never copied but for the
    lockstep's one transposed copy; its content is the caller's to
    check (``DualProblem`` for ``solve_dual``; the trainer checks what Q
    is composed from).  ``nu`` holds the B rejection
    rates in row order, each checked here (``nu_out_of_range``, then
    ``infeasible_nu``; the first bad row's message is raised).  ``tol``
    must pass ``check_tol``.  ``alpha0`` is None (every dual starts at uniform
    multipliers) or a (B, N) array of warm starts, each projected back
    into its feasible set first.  If ``max_iter`` pair updates elapse
    before convergence the best-so-far solution is kept with
    ``converged=False``; the default cap is ``100 * N**2`` and a cap
    below 1 is rejected.

    A stack of at least ``LOCKSTEP_MIN_ROWS`` duals is advanced in
    lockstep, one step of every unfinished dual per turn (see the module
    docstring); once fewer than ``LOCKSTEP_MIN_ROWS`` remain, each
    finishes in the scalar loop from its exact state.  In both loop forms
    the pair rule, the step and its floating-point operations are those
    of the plain loop that rebuilds both masks every step, so every
    solution's iterates and step count equal its own.

    ``columns``, when given, holds one object per dual that composes its
    Q as the scalar loop reads it.  ``columns[k].start(alpha)`` composes
    the whole diagonal and the columns where the start ``alpha`` is
    nonzero, which is all that ``g = Q @ alpha`` reads; ``columns[k]``
    then maps j to the column ``Q_k[:, j]``, composing it the first time
    the loop reads it.  Every other entry of Q must be finite: ``g``
    reads such an entry only times a zero of alpha, and the ±0 that
    adds leaves the sum as it is, so ``g`` has the bits of the full
    Q's, and every step reads the two columns it updates ``g`` with.
    The final alpha's support lies within the composed columns, so the
    refreshed ``g`` is exact too.  The lockstep reads every column, so a
    stack of ``LOCKSTEP_MIN_ROWS`` or more duals is refused with ``columns``.
    """
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    check_tol(tol)
    if not isinstance(Q, np.ndarray) or Q.ndim != 3 or Q.shape[1] != Q.shape[2]:
        raise ValueError(f"Q must be one (B, N, N) array, got {getattr(Q, 'shape', type(Q).__name__)}")
    rates = np.asarray(nu, dtype=float)
    if rates.shape != Q.shape[:1]:
        raise ValueError(f"{rates.size} rejection rates for {len(Q)} problems")
    errors = _nu_errors(nu, Q.shape[2])
    if errors:
        raise ValueError(errors[min(errors)])
    if columns is not None and len(Q) >= LOCKSTEP_MIN_ROWS:
        raise ValueError(f"columns composed on demand need fewer than {LOCKSTEP_MIN_ROWS} duals, got {len(Q)}")
    stack = DualStack(Q, 1.0 / (rates * Q.shape[2]), alpha0, max_iter, columns)
    if len(stack) >= LOCKSTEP_MIN_ROWS:
        _lockstep(stack, tol)
    for k in np.flatnonzero(~stack.converged).tolist():
        _scalar_loop(stack, k, tol)
    stack._finish()
    return stack


def _scalar_loop(stack: DualStack, k: int, tol: float) -> None:
    """Advance dual k from its current state until it converges or hits its cap."""
    Q = stack.Q[k]
    n = Q.shape[0]
    upper = float(stack.upper[k])
    max_iter = stack.max_iter
    # loop state (see the module docstring): Python floats, penalty masks, buffers
    alpha = stack.alpha[k].tolist()
    diag = Q.diagonal().tolist()
    # cols[j] is the column Q[:, j], not the row Q[j]; composed on demand with ``columns``
    cols = Q.T if stack.columns is None else stack.columns[k]
    g = stack.g[k]  # a view: updated in place
    pen_dec = np.where(stack.alpha[k] > 0.0, 0.0, -np.inf)
    pen_inc = np.where(stack.alpha[k] < upper, 0.0, np.inf)
    g_dec = np.empty(n)
    g_inc = np.empty(n)
    d = np.empty(n)

    converged = False
    iterations = int(stack.iterations[k])
    gap = float(stack.gap[k])
    while iterations < max_iter:
        np.add(g, pen_dec, out=g_dec)
        np.add(g, pen_inc, out=g_inc)
        i = g_dec.argmax()
        j = g_inc.argmin()
        gap = float(g_dec[i]) - float(g_inc[j])
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

    stack.alpha[k] = alpha
    stack.iterations[k] = iterations
    stack.gap[k] = gap
    stack.converged[k] = converged


def _lockstep(stack: DualStack, tol: float) -> None:
    """Advance the stack's duals together while ``LOCKSTEP_MIN_ROWS`` are unfinished.

    Row r of the (B, N) state arrays is dual ``live[r]``; a turn is one
    scalar-loop step of every row, each operation applied elementwise
    along the rows.  All duals start at step 0 and share one cap, so
    every row has taken ``turn`` steps.  When rows converge they are
    written back and marked dead: a dead row's gap is set to +inf (a
    live gap may be -inf, so it is overwritten, not offset), so it never
    converges again and its steps, the full clipped step, keep it
    feasible and finite.  Dead rows are compacted out of the state
    arrays (the stack of transposed Grams is only indexed) once they
    are a quarter of the rows, and the turn is redone on the rest, whose
    state has not changed.  Compacting at every convergence copied about
    as many rows as the turns stepped.
    """
    n = stack.alpha.shape[1]
    max_iter = stack.max_iter
    cols = stack.Q.transpose(0, 2, 1).copy()  # cols[k, j] is the column Q_k[:, j]
    diag = cols.diagonal(axis1=1, axis2=2).copy()
    cols = cols.reshape(-1, n)  # cols[k * n + j] is the column Q_k[:, j]
    live = np.arange(len(stack))
    alpha = stack.alpha.copy()
    g = stack.g.copy()
    upper = stack.upper.copy()
    pen_dec = np.where(alpha > 0.0, 0.0, -np.inf)
    pen_inc = np.where(alpha < upper[:, None], 0.0, np.inf)
    gap = np.full(live.size, math.inf)
    dead = np.zeros(live.size, dtype=bool)  # rows already written back
    alive = live.size

    turn = 0
    compacted = True
    while alive >= LOCKSTEP_MIN_ROWS and turn < max_iter:
        if compacted:
            b = live.size
            g_dec = np.empty_like(g)
            g_inc = np.empty_like(g)
            ij = np.empty(2 * b, dtype=np.intp)
            # positions of (r, i_r) then (r, j_r) in a flattened (B, N) array,
            # and of the columns Q_k[:, i_r] then Q_k[:, j_r] in cols
            offsets = np.tile(np.arange(b) * n, 2)
            col_offsets = np.concatenate((live, live)) * n
            upper2 = np.concatenate((upper, upper))
            compacted = False
        np.add(g, pen_dec, out=g_dec)
        np.add(g, pen_inc, out=g_inc)
        g_dec.argmax(axis=1, out=ij[:b])
        g_inc.argmin(axis=1, out=ij[b:])
        fij = offsets + ij
        fi = fij[:b]
        fj = fij[b:]
        gap = g_dec.take(fi) - g_inc.take(fj)
        np.putmask(gap, dead, math.inf)
        if gap[gap.argmin()] <= tol:
            done = gap <= tol
            rows = live[done]
            stack.alpha[rows] = alpha[done]
            stack.iterations[rows] = turn
            stack.gap[rows] = gap[done]
            stack.converged[rows] = True
            dead |= done
            gap[done] = math.inf
            alive -= rows.size
            if 4 * alive <= 3 * b or alive < LOCKSTEP_MIN_ROWS:
                keep = ~dead
                live, alpha, g, diag = live[keep], alpha[keep], g[keep], diag[keep]
                upper, pen_dec, pen_inc = upper[keep], pen_dec[keep], pen_inc[keep]
                gap, dead = gap[keep], dead[keep]
                compacted = True
                continue
        # exact minimizer of the 2-variable subproblem, then box clipping
        col_ij = cols.take(col_offsets + ij, axis=0)
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

    keep = ~dead
    rows = live[keep]
    stack.alpha[rows] = alpha[keep]
    stack.g[rows] = g[keep]
    stack.iterations[rows] = turn
    stack.gap[rows] = gap[keep]
