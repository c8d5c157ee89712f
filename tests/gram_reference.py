"""Reference Grams for bit-for-bit checks of ``lmkad.kernels.gram`` and ``gaussian_bandwidth``.

The whole-array forms used before the product was mapped in place a tile
of rows at a time, kept as an oracle: one fresh product ``X @ Y.T``, and
for a gaussian a fresh ``xx + yy`` from which the doubled product is
subtracted, then the clip, the divide and the exp over the whole array.
The bandwidth sums the whole array of squared distances.  The tiled
forms must give the same bytes, so the comparison never uses a tolerance.
"""
import numpy as np


def _sq_dists(X, Y):
    G = X @ Y.T
    d2 = np.sum(X * X, axis=1)[:, None] + np.sum(Y * Y, axis=1)
    d2 -= np.multiply(G, 2.0, out=G)
    np.maximum(d2, 0.0, out=d2)
    return d2


def reference_gram(spec, X, Y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if spec.kind == "linear":
        return X @ Y.T
    if spec.kind == "polynomial":
        K = X @ Y.T
        K += 1.0
        K **= spec.q
        return K
    d2 = _sq_dists(X, Y)
    d2 /= -spec.sigma_sq
    return np.exp(d2, out=d2)


def reference_bandwidth(X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n < 2:
        raise ValueError("bandwidth heuristic needs at least 2 points")
    mean = float(np.sum(_sq_dists(X, X)) / (n * (n - 1)))
    return 1.0 if mean < 1e-12 else mean
