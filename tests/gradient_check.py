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
        params = GatingParams(kind="rbf", centers=rng.normal(size=(p, d)),
                              spreads=rng.uniform(0.5, 2.0, p))
    else:
        params = GatingParams(kind=kind, v=rng.normal(scale=0.5, size=(p, d)),
                              v0=rng.normal(scale=0.5, size=p))
    return params, alpha, X, grams


def fixed_alpha_objective(params, alpha, X, grams):
    H = gate_eval_batch(params, X)
    Q = _combine(grams, None, H, H)
    return -0.5 * float(alpha @ Q @ alpha)


def finite_difference_gradient(params, alpha, X, grams, h=1e-5):
    fields = ("centers", "spreads") if params.kind == "rbf" else ("v", "v0")
    out = {}
    for name in fields:
        arr = getattr(params, name)
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            vals = []
            for sgn in (+1, -1):
                pert = arr.copy()
                pert[idx] += sgn * h
                kwargs = {f: getattr(params, f) for f in fields}
                kwargs[name] = pert
                vals.append(
                    fixed_alpha_objective(GatingParams(kind=params.kind, **kwargs), alpha, X, grams)
                )
            fd[idx] = (vals[0] - vals[1]) / (2 * h)
        out[name] = fd
    return out


def max_relative_error(params, alpha, X, grams, abs_floor=1e-8):
    H = gate_eval_batch(params, X)
    grad = gate_gradient(params, alpha, X, grams, H)
    fd = finite_difference_gradient(params, alpha, X, grams)
    worst = 0.0
    for name, expected in fd.items():
        got = getattr(grad, name)
        err = np.abs(got - expected) / np.maximum(np.abs(expected), abs_floor)
        worst = max(worst, float(err.max()))
    return worst
