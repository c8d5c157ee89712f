"""Gating functions for localized kernel weighting, and their gradients.

A gating function maps an input x to a nonnegative weight per kernel:

* softmax   eta_m(x) = exp(<v_m, x> + v_m0) / sum_k exp(<v_k, x> + v_k0)
* sigmoid   eta_m(x) = 1 / (1 + exp(-<v_m, x> - v_m0))
* rbf       eta_m(x) = exp(-||x - mu_m||^2 / s_m^2) / sum_k exp(-||x - mu_k||^2 / s_k^2)

Nonnegativity keeps the locally combined kernel a Mercer kernel.  The
gradient here is of the dual objective J = -0.5 * a' Q(eta) a with the
multipliers held fixed, which is what the alternating trainer descends.

Every kind has one parameter pair, a (p, d) ``matrix`` and a (p,)
``vector``: rows v_m and biases v_m0 for softmax and sigmoid gates,
centres mu_m and their positive spread s_m for rbf gates.  ``GatingParams``
holds a kind and its pair; ``PAIR_FIELDS`` names the pair's two fields
in the model file.  Each formula is written once, on pairs with any
number of leading stack axes, (..., p, d) and (..., p): ``gate_stack``,
``gradient_stack`` and ``step_stack``.  The trainer calls them on a
(B, ...) stack of fits; ``gate_eval_batch`` and ``gate_gradient`` are
the one-model case.  Every reduction runs along the axis and in the
memory order of the one-model case, so a stacked row equals its
one-model result bit for bit.

A sigmoid gate is scipy's ``expit``, which ``prepare_kind`` imports the
first time a process needs it: constructing a sigmoid ``GatingParams``
does, so the import lands before a fit's Grams or a scoring run's
blocks are allocated, and no other gating kind or detector loads
scipy.  The import of ``scipy.special`` takes ~0.15-0.2 s (0.154 s
cumulative under ``python -X importtime``) and adds ~22.5 MiB (~24 MB) of
RSS, read from ``VmRSS`` before and after it; on the ``score_100k``
benchmark that is, after the ~31 MB of the interpreter, numpy and
lmkad, the largest part of the peak RSS outside the fit.
``1 / (1 + np.exp(-x))`` is still not a substitute: numpy's own SIMD
``exp`` differs from ``expit`` in the last bit on ~2 % of inputs, and
the benchmark CSVs would move.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import gaussian_bandwidth

GATING_KINDS = ("softmax", "sigmoid", "rbf")

#: the model-file names of each gating kind's (matrix, vector) pair
PAIR_FIELDS = {"softmax": ("v", "v0"), "sigmoid": ("v", "v0"), "rbf": ("centers", "spreads")}

#: random init range for softmax/sigmoid weights; small enough that the
#: initial gates stay near uniform on standardized data
INIT_SCALE = 0.1

#: an rbf vector is clamped here after a gradient step to stay positive
MIN_SPREAD = 1e-6

#: scipy.special.expit once ``prepare_kind("sigmoid")`` has imported it
_expit = None


def prepare_kind(kind: str) -> None:
    """Import what gating ``kind`` is evaluated with, once per process: scipy's
    ``expit`` for a sigmoid gate, nothing for the others."""
    global _expit
    if kind == "sigmoid" and _expit is None:
        from scipy.special import expit

        _expit = expit


@dataclass(frozen=True)
class GatingParams:
    """One gating function: its kind and its (p, d) ``matrix`` and (p,)
    ``vector`` (see the module docstring); an rbf vector must be positive."""

    kind: str
    matrix: np.ndarray
    vector: np.ndarray

    def __post_init__(self):
        if self.kind not in GATING_KINDS:
            raise ValueError(f"unknown gating kind {self.kind!r}")
        prepare_kind(self.kind)
        matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        vector = np.asarray(self.vector, dtype=float).ravel()
        if vector.shape[0] != matrix.shape[0]:
            raise ValueError("one vector entry per matrix row required")
        if self.kind == "rbf" and not np.all(vector > 0):
            raise ValueError("rbf spread vector must be positive")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "vector", vector)
        if self.p < 1:
            raise ValueError("need at least one gate")

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


def _normalized_exp(logits: np.ndarray) -> np.ndarray:
    # max-subtraction keeps exp() in range for unnormalized inputs
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _row_logits(X: np.ndarray, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    # broadcast-reduce instead of BLAS so each row's result is independent
    # of the batch size (batch evaluation == per-row evaluation, bitwise)
    return (X[..., :, None, :] * matrix[..., None, :, :]).sum(axis=-1) + vector[..., None, :]


def _row_sq_dists(X: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    diff = X[..., :, None, :] - matrix[..., None, :, :]
    return (diff * diff).sum(axis=-1)


def gate_stack(kind: str, X: np.ndarray, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Gate weights (..., N, p) of the rows X (..., N, d) under the pair
    ``(matrix, vector)`` of shapes (..., p, d) and (..., p)."""
    if kind == "softmax":
        return _normalized_exp(_row_logits(X, matrix, vector))
    if kind == "sigmoid":
        prepare_kind(kind)  # a no-op once any sigmoid GatingParams exists
        return _expit(_row_logits(X, matrix, vector))
    return _normalized_exp(-_row_sq_dists(X, matrix) / (vector**2)[..., None, :])


def gate_eval_batch(params: GatingParams, X: np.ndarray) -> np.ndarray:
    """Gate weights for every row of X; returns an (N, p) matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != params.d:
        raise ValueError(f"gating expects {params.d} features, got {X.shape[1]}")
    return gate_stack(params.kind, X, params.matrix, params.vector)


def gradient_stack(kind, matrix, vector, alpha, X, grams, H) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of J = -0.5 * a' Q(eta) a w.r.t. the pair ``(matrix, vector)``.

    Shapes, with the same leading stack axes throughout: pair (..., p, d)
    and (..., p), ``alpha`` (..., N), rows ``X`` (..., N, d), the base
    Grams ``grams`` (..., p, N, N) and the gate matrix ``H`` (..., N, p).
    Returns the gradient as a pair of the same shapes.  The multipliers
    are constants; pairs where either multiplier is zero contribute
    nothing, so the double sum collapses to support-vector rows.
    """
    # U[m] = alpha * eta_m, contiguous so K_m @ U[m] is one BLAS matrix-vector product
    U = np.swapaxes(H * alpha[..., :, None], -1, -2).copy()
    # W[i, m] = sum_j alpha_i alpha_j eta_m(x_i) K_m(i, j) eta_m(x_j), kept (..., N, p)
    # in C order so that sums over i run in the one-model order
    W = np.swapaxes(U * np.matmul(grams, U[..., None])[..., 0], -1, -2).copy()

    if kind == "sigmoid":
        T = W * (1.0 - H)
        return -(np.swapaxes(T, -1, -2) @ X), -T.sum(axis=-2)

    # softmax-type coupling: sum_k W[i,k] * (delta_mk - eta_m(x_i))
    T = W - H * W.sum(axis=-1, keepdims=True)
    if kind == "softmax":
        return -(np.swapaxes(T, -1, -2) @ X), -T.sum(axis=-2)

    col = T.sum(axis=-2)
    grad_matrix = -(2.0 / vector**2)[..., :, None] * (np.swapaxes(T, -1, -2) @ X - col[..., :, None] * matrix)
    d2 = _row_sq_dists(X, matrix)
    grad_vector = -(2.0 / vector**3) * np.sum(T * d2, axis=-2)
    return grad_matrix, grad_vector


def gate_gradient(
    params: GatingParams,
    alpha: np.ndarray,
    X: np.ndarray,
    per_kernel_grams,
    H: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of J = -0.5 * a' Q(eta) a w.r.t. the gating pair, as a (matrix, vector) pair.

    ``per_kernel_grams`` are the p training Gram matrices K_m and ``H`` the
    (N, p) gate matrix for the same rows (see ``gradient_stack``).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    alpha = np.asarray(alpha, dtype=float).ravel()
    H = np.asarray(H, dtype=float)
    n, p = H.shape
    if alpha.shape[0] != n or X.shape[0] != n:
        raise ValueError("alpha, X and H row counts disagree")
    if len(per_kernel_grams) != p or X.shape[1] != params.d or p != params.p:
        raise ValueError("per-kernel grams / gate matrix / params shapes disagree")
    grams = np.asarray(per_kernel_grams, dtype=float)
    return gradient_stack(params.kind, params.matrix, params.vector, alpha, X, grams, H)


def init_gating(kind: str, p: int, d: int, X_train: np.ndarray, seed) -> GatingParams:
    """Seeded random initialization.

    softmax/sigmoid pairs are uniform on [-0.1, 0.1]; an rbf matrix holds
    training rows sampled without replacement (with replacement if there
    are fewer rows than gates) and its vector is the square root of the
    bandwidth heuristic in every entry.
    """
    if kind not in GATING_KINDS:
        raise ValueError(f"unknown gating kind {kind!r}")
    if p < 1:
        raise ValueError("need at least one gate")
    X = np.atleast_2d(np.asarray(X_train, dtype=float))
    if X.shape[1] != d:
        raise ValueError(f"X_train has {X.shape[1]} features, expected {d}")
    rng = np.random.default_rng(seed)
    if kind in ("softmax", "sigmoid"):
        matrix = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(p, d))
        return GatingParams(kind, matrix, rng.uniform(-INIT_SCALE, INIT_SCALE, size=p))
    n = X.shape[0]
    picks = rng.choice(n, size=p, replace=n < p)
    spread = np.sqrt(gaussian_bandwidth(X)) if n >= 2 else 1.0
    return GatingParams("rbf", X[picks], np.full(p, spread))


def step_stack(kind, matrix, vector, grad_matrix, grad_vector, mu: float):
    """One gradient-descent update of a pair (any leading stack axes); an rbf vector is clamped positive."""
    matrix = matrix - mu * grad_matrix
    vector = vector - mu * grad_vector
    if kind == "rbf":
        vector = np.maximum(vector, MIN_SPREAD)
    return matrix, vector

