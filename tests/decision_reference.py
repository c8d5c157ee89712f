"""Reference scoring for bit-for-bit checks of ``lmkad.models.decision_values``.

The scoring path before kernels were mapped from one shared product,
kept verbatim as an oracle: every block of ``BLOCK_ROWS`` rows builds
each base kernel's whole Gram against the support vectors with its own
product (``reference_gram``, the Gram formulas as they were written before
``kernels.kernel_map``), combines them with ``reference_combine`` and
takes one ``K @ sv_alpha``.  The tiled path must give the same bytes, so
the comparison never uses a tolerance.
"""
import numpy as np

from lmkad.dataset import apply_normalizer
from lmkad.gating import gate_eval_batch
from lmkad.models import BLOCK_ROWS
from combine_reference import reference_combine


def reference_gram(spec, X, Y):
    if spec.kind == "linear":
        return X @ Y.T
    if spec.kind == "polynomial":
        return (X @ Y.T + 1.0) ** spec.q
    xx = np.sum(X * X, axis=1)[:, None]
    yy = np.sum(Y * Y, axis=1)[None, :]
    d2 = xx + yy - 2.0 * (X @ Y.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-d2 / spec.sigma_sq)


def _reference_block(model, Xn):
    H = None if model.gating is None else gate_eval_batch(model.gating, Xn)
    grams = [reference_gram(k, Xn, model.sv_features) for k in model.kernels]
    K = reference_combine(grams, model.weights, H, model.sv_eta)
    return K @ model.sv_alpha - model.rho


def reference_decision_values(model, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Xn = apply_normalizer(model.normalizer, X)
    out = np.empty(Xn.shape[0])
    for start in range(0, Xn.shape[0], BLOCK_ROWS):
        out[start : start + BLOCK_ROWS] = _reference_block(model, Xn[start : start + BLOCK_ROWS])
    return out
