"""Shared finite-difference oracle for the gating gradients.

The check perturbs every scalar gating parameter by +/-h and differences
the fixed-multiplier objective J = -0.5 * a' Q(eta) a; the analytic
gradient must match to the stated relative tolerance.
"""
import numpy as np

from lmkad.gating import GatingParams, gate_eval_batch, gate_gradient
from lmkad.kernels import KernelSpec, gram
from lmkad.models import _combine


def make_instance(kind, rng, n=7, p=3, d=4):
    X = rng.normal(size=(n, d))
    kernels = [
        KernelSpec("gaussian", sigma_sq=float(rng.uniform(0.5, 4.0))),
        KernelSpec("polynomial", q=2),
        KernelSpec("linear"),
    ][:p]
    grams = [gram(k, X, X) for k in kernels]
    alpha = rng.uniform(0, 1, n)
    alpha[rng.random(n) < 0.3] = 0.0
    if alpha.sum() == 0:
        alpha[0] = 1.0
    alpha /= alpha.sum()
    if kind == "rbf":
        params = GatingParams("rbf", rng.normal(size=(p, d)), rng.uniform(0.5, 2.0, p))
    else:
        params = GatingParams(kind, rng.normal(scale=0.5, size=(p, d)),
                              rng.normal(scale=0.5, size=p))
    return params, alpha, X, grams


def fixed_alpha_objective(params, alpha, X, grams):
    H = gate_eval_batch(params, X)
    Q = _combine(grams, None, H, H)
    return -0.5 * float(alpha @ Q @ alpha)


def finite_difference_gradient(params, alpha, X, grams, h=1e-5):
    """Central differences of J, as a (matrix, vector) pair."""
    pair = (params.matrix, params.vector)
    out = []
    for which, arr in enumerate(pair):
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            vals = []
            for sgn in (+1, -1):
                pert = list(pair)
                pert[which] = arr.copy()
                pert[which][idx] += sgn * h
                vals.append(fixed_alpha_objective(GatingParams(params.kind, *pert), alpha, X, grams))
            fd[idx] = (vals[0] - vals[1]) / (2 * h)
        out.append(fd)
    return out


def max_relative_error(params, alpha, X, grams, abs_floor=1e-8):
    H = gate_eval_batch(params, X)
    grad = gate_gradient(params, alpha, X, grams, H)
    fd = finite_difference_gradient(params, alpha, X, grams)
    worst = 0.0
    for got, expected in zip(grad, fd):
        err = np.abs(got - expected) / np.maximum(np.abs(expected), abs_floor)
        worst = max(worst, float(err.max()))
    return worst
