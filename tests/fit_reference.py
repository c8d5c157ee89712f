"""Reference one-fit trainer for bit-for-bit checks of ``lmkad.models.fit_many``.

The trainer loop as it ran one fit at a time before fits were stacked,
kept as an oracle: per-fit normalizer, kernels and Grams (the whole-array
forms of ``gram_reference``), then per outer
iteration ``gate_eval_batch``, ``reference_combine`` (whole arrays, not
the trainer's tiles), a validated ``DualProblem``, ``solve_dual``
(warm-started), the stopping test, ``gate_gradient`` and ``step_stack``.  ``fit_many`` must return the same model, array bytes and
report included, for every job of any batch.
"""
from dataclasses import replace

import numpy as np

from lmkad.dataset import apply_normalizer, fit_normalizer
from lmkad.gating import GatingParams, gate_eval_batch, gate_gradient, init_gating, step_stack
from lmkad.models import Model, TrainingReport, resolve_kernels
from lmkad.solver import DualProblem, solve_dual
from combine_reference import reference_combine
from gram_reference import reference_bandwidth, reference_gram


def reference_fit(family, train_targets, kernels, config) -> Model:
    X = np.atleast_2d(np.asarray(train_targets, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("need at least one training row")
    norm = fit_normalizer(X)
    Xn = apply_normalizer(norm, X)
    kernels = tuple(replace(k, sigma_sq=reference_bandwidth(Xn)) if k.is_auto else k
                    for k in resolve_kernels(kernels))
    p = len(kernels)
    grams = [reference_gram(k, Xn, Xn) for k in kernels]

    weights = gating = H = None
    if family != "lmkad":
        weights = np.full(p, 1.0 / p)
    elif config.initial_gating is not None:
        gating = config.initial_gating
        if gating.p != p or gating.d != Xn.shape[1]:
            raise ValueError("initial_gating shape does not match kernels/data")
    else:
        gating = init_gating(config.gating_kind, p, Xn.shape[1], Xn, config.seed)

    max_outer = config.max_outer if gating is not None else 1
    alpha_prev = None
    trace = []
    converged = False
    inner_total = nonconverged = 0
    for t in range(max_outer):
        if gating is not None:
            H = gate_eval_batch(gating, Xn)
        Q = reference_combine(grams, weights, H, H)
        sol = solve_dual(DualProblem(Q, config.nu), config.inner_tol, config.inner_max_iter, alpha_prev)
        inner_total += sol.iterations
        nonconverged += not sol.converged
        trace.append(-sol.objective)
        if len(trace) >= 2:
            change = abs(trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-12)
            if change <= config.outer_tol:
                converged = True
                break
        if t == max_outer - 1:
            break
        grad = gate_gradient(gating, sol.alpha, Xn, grams, H)
        if not all(np.isfinite(g).all() for g in grad):
            raise RuntimeError(
                f"non-finite gating gradient at outer iteration {t} "
                f"(kind={gating.kind}, nu={config.nu})"
            )
        mu = config.learning_rate * config.lr_decay**t
        gating = GatingParams(gating.kind, *step_stack(gating.kind, gating.matrix, gating.vector, *grad, mu))
        alpha_prev = sol.alpha

    sv = sol.support_indices
    report = TrainingReport(
        iterations=len(trace),
        objective_trace=trace,
        converged=converged if gating is not None else sol.converged,
        final_violation=sol.final_violation,
        inner_iterations=inner_total,
        inner_nonconverged=nonconverged,
    )
    return Model(
        family=family,
        kernels=kernels,
        sv_features=Xn[sv],
        sv_alpha=sol.alpha[sv],
        rho=sol.rho,
        normalizer=norm,
        nu=config.nu,
        n_train=Xn.shape[0],
        weights=weights,
        gating=gating,
        sv_eta=None if H is None else H[sv],
        report=report,
    )
