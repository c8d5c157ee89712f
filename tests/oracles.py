"""Plain one-vector oracles that the tests check the library against.

Scalar kernel evaluation, one-row gate evaluation, the KKT gap and the
bias of a solved multiplier vector, each written for one problem with
no stacking, plus the one-problem feasible start and support/rho
computation that ``smo_reference.py`` shares.
"""
import numpy as np

from lmkad.gating import gate_eval_batch
from lmkad.solver import EPS_SV_FACTOR


def kernel_eval(spec, x, y) -> float:
    """Evaluate one kernel on a pair of vectors."""
    if spec.is_auto:
        raise ValueError("gaussian bandwidth is unresolved; call spec.resolved(X) first")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if spec.kind == "linear":
        return float(x @ y)
    if spec.kind == "polynomial":
        return float((x @ y + 1.0) ** spec.q)
    diff = x - y
    return float(np.exp(-(diff @ diff) / spec.sigma_sq))


def gate_eval(params, x) -> np.ndarray:
    """Gate weights for a single input vector; returns a length-p vector."""
    x = np.asarray(x, dtype=float).ravel()
    return gate_eval_batch(params, x[None, :])[0]


def feasible_start(n, upper, alpha0):
    """One dual's start: uniform, or the warm start projected back into the feasible set."""
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


def support_and_rho(alpha, g, upper):
    """Support and margin indices of ``alpha``, and rho from ``g = Q @ alpha``:
    the mean over the margin support vectors, else over all support vectors."""
    eps_sv = EPS_SV_FACTOR * upper
    support = np.flatnonzero(alpha > eps_sv)
    margin = np.flatnonzero((alpha > eps_sv) & (alpha < upper - eps_sv))
    if support.size == 0:
        raise RuntimeError("cannot compute rho: no support vectors")
    if margin.size > 0:
        rho = g[margin].mean()
    else:
        rho = g[support].mean()
    return support, margin, float(rho)


def kkt_violation(alpha, Q, upper) -> float:
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
