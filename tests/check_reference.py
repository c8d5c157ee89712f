"""Reference dual validation for checks of ``lmkad.solver.check_duals``.

The whole-stack form ``check_duals`` had before it compared Q with its
transpose block by block, kept as an oracle: one ``np.isfinite`` pass
over the stack, then ``|Q - Q^T|`` of every finite row built whole.  The
tiled form must return the same ``{row: message}`` dict on any stack.
"""
import numpy as np

from lmkad.solver import _nu_errors


def reference_check_duals(Q: np.ndarray, nu) -> dict[int, str]:
    b, n = Q.shape[0], Q.shape[-1]
    finite = np.isfinite(Q).all(axis=(1, 2))
    if finite.all():
        asym = np.subtract(Q, Q.transpose(0, 2, 1))
        np.abs(asym, out=asym)
        gap = asym.max(axis=(1, 2))
    else:  # inf - inf would warn; only finite rows reach the symmetry check
        gap = np.array([np.max(np.abs(Q[r] - Q[r].T)) if finite[r] else 0.0 for r in range(b)])
    asym = gap > 1e-9
    for r in np.flatnonzero(asym).tolist():  # max|Q| is read only past the absolute bound
        asym[r] = gap[r] > 1e-12 * np.abs(Q[r]).max()
    negative = Q.diagonal(axis1=1, axis2=2).min(axis=1) < -1e-12
    nu_errors = _nu_errors(nu, n)
    bad = ~finite | asym | negative
    bad[list(nu_errors)] = True
    errors = {}
    for r in np.flatnonzero(bad).tolist():
        if not finite[r]:
            errors[r] = "Q contains non-finite entries"
        elif asym[r]:
            errors[r] = "Q is not symmetric within max(1e-9, 1e-12 * max|Q|)"
        elif negative[r]:
            errors[r] = "Q has a negative diagonal entry"
        else:
            errors[r] = nu_errors[r]
    return errors
