"""Reference kernel composition for bit-for-bit checks of ``lmkad.models._combine``.

The expression ``_combine`` used before it composed in place, kept
verbatim as an oracle: each term is a fresh ``w_m * K_m`` or
``H_X[:, m:m+1] * K_m * H_Y[:, m][None, :]`` and the terms are summed
left to right into fresh arrays.  The in-place form must give the same
bytes, so the comparison never uses a tolerance.
"""
import numpy as np


def reference_combine(grams, weights, H_X, H_Y):
    out = None
    for m, K in enumerate(grams):
        if weights is not None:
            term = weights[m] * K
        else:
            term = H_X[:, m : m + 1] * np.asarray(K) * H_Y[:, m][None, :]
        out = term if out is None else out + term
    return out
