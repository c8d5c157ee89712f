"""Kernel functions, Gram matrices, and the Gaussian bandwidth heuristic.

Three Mercer kernels are supported:

* linear        K(x, y) = <x, y>
* polynomial    K(x, y) = (<x, y> + 1)^q
* gaussian      K(x, y) = exp(-||x - y||^2 / sigma_sq)

A Gaussian spec may be created with ``sigma_sq=None`` ("auto"), in which
case the bandwidth is resolved from training data at fit time via
:func:`gaussian_bandwidth`.

Every kernel is an elementwise map of the product ``G = X @ Y.T``
(:func:`kernel_map`; a gaussian also reads the squared row norms), so
one product serves any number of kernels, and the map of any rows of G
gives those rows of the Gram bit for bit.  :func:`gram` is the product
plus the map, so training and scoring share one formula.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

KERNEL_KINDS = ("linear", "polynomial", "gaussian")


@dataclass(frozen=True)
class KernelSpec:
    """One kernel family plus its parameters.

    ``q`` is only meaningful for polynomial kernels, an ``int`` >= 1 (not a
    bool), ``sigma_sq`` only for gaussian ones.  Only q in {2, 3}
    round-trips through model files (``parse_kernel_spec``); a larger
    degree stays programmatic.  ``sigma_sq=None`` marks an unresolved
    ("auto") bandwidth; such a spec cannot be evaluated until resolved.
    """

    kind: str
    q: int | None = None
    sigma_sq: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "polynomial":
            if type(self.q) is not int or self.q < 1:
                raise ValueError(f"polynomial kernel requires integer degree q >= 1, got q={self.q!r}")
        elif self.q is not None:
            raise ValueError(f"degree q is only valid for polynomial kernels, not {self.kind}")
        if self.kind == "gaussian":
            if self.sigma_sq is not None and not self.sigma_sq > 0:
                raise ValueError("gaussian kernel requires sigma_sq > 0")
        elif self.sigma_sq is not None:
            raise ValueError(f"sigma_sq is only valid for gaussian kernels, not {self.kind}")

    @property
    def is_auto(self) -> bool:
        return self.kind == "gaussian" and self.sigma_sq is None

    def resolved(self, X: np.ndarray) -> "KernelSpec":
        """Return a concrete spec, computing the bandwidth from X if auto."""
        if self.is_auto:
            return replace(self, sigma_sq=gaussian_bandwidth(X))
        return self


def parse_kernel_spec(token: str) -> KernelSpec:
    """Parse a CLI/config kernel token.

    Accepted forms: ``linear``, ``poly:q=2``, ``poly:q=3``, ``gauss:auto``,
    ``gauss:sigma_sq=<float>``.
    """
    if not isinstance(token, str):
        raise ValueError(f"kernel token must be a string, got {token!r}")
    token = token.strip()
    if token == "linear":
        return KernelSpec("linear")
    if token.startswith("poly:q="):
        q = token[len("poly:q="):]
        if q not in ("2", "3"):
            raise ValueError(f"polynomial degree must be 2 or 3, got {q!r}")
        return KernelSpec("polynomial", q=int(q))
    if token == "gauss:auto":
        return KernelSpec("gaussian")
    if token.startswith("gauss:sigma_sq="):
        value = float(token[len("gauss:sigma_sq="):])
        return KernelSpec("gaussian", sigma_sq=value)
    raise ValueError(f"unrecognized kernel token {token!r}")


def format_kernel_spec(spec: KernelSpec) -> str:
    if spec.kind == "linear":
        return "linear"
    if spec.kind == "polynomial":
        return f"poly:q={spec.q}"
    if spec.sigma_sq is None:
        return "gauss:auto"
    return f"gauss:sigma_sq={spec.sigma_sq!r}"


def _check_resolved(spec: KernelSpec):
    if spec.is_auto:
        raise ValueError("gaussian bandwidth is unresolved; call spec.resolved(X) first")


def row_sq_norms(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row of a 2-D array."""
    return np.sum(X * X, axis=1)


def _sq_dists(G, xx, yy, out=None, scratch=None) -> np.ndarray:
    """xx + yy - 2 G, clipped at zero, into ``out``; ``scratch`` holds 2 G."""
    d2 = np.add(xx, yy, out=out)
    d2 -= np.multiply(G, 2.0, out=scratch)
    np.maximum(d2, 0.0, out=d2)
    return d2


def product(X: np.ndarray, Y: np.ndarray, out=None) -> np.ndarray:
    """The inner products ``X @ Y.T`` that every kernel maps, into ``out`` when given."""
    return np.matmul(X, Y.T, out=out)


def kernel_map(spec: KernelSpec, G, xx=None, yy=None, out=None, scratch=None) -> np.ndarray:
    """The Gram entries K(X_i, Y_j) from the product ``G = X @ Y.T``.

    A gaussian also takes the squared row norms ``xx`` (R, 1) of X and
    ``yy`` (S,) of Y.  The map is written into ``out`` and, for a
    gaussian, uses ``scratch`` (fresh arrays when not given; both shaped
    like G).  The linear map is G itself.  G is only read, unless it is
    passed as ``out`` or ``scratch``.
    """
    _check_resolved(spec)
    if spec.kind == "linear":
        return G
    if spec.kind == "polynomial":
        out = np.add(G, 1.0, out=out)
        out **= spec.q
        return out
    d2 = _sq_dists(G, xx, yy, out, scratch)
    d2 /= -spec.sigma_sq  # == -d2 / sigma_sq: negation is exact
    return np.exp(d2, out=d2)


def gram(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gram matrix with entries K(X_i, Y_j): the product and ``kernel_map``."""
    _check_resolved(spec)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]} columns")
    G = product(X, Y)  # mapped in place: one N x M array besides the gaussian's result
    if spec.kind != "gaussian":
        return kernel_map(spec, G, out=G)
    return kernel_map(spec, G, row_sq_norms(X)[:, None], row_sq_norms(Y), scratch=G)


def gaussian_bandwidth(X: np.ndarray) -> float:
    """Mean squared Euclidean distance over unordered point pairs.

    Self-pairs are excluded; with fewer than two points the heuristic is
    undefined, and if all points coincide the degenerate mean is replaced
    by 1 so the kernel stays usable.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n < 2:
        raise ValueError("bandwidth heuristic needs at least 2 points")
    sq = row_sq_norms(X)
    G = product(X, X)
    d2 = _sq_dists(G, sq[:, None], sq, scratch=G)
    mean = float(np.sum(d2) / (n * (n - 1)))
    if mean < 1e-12:
        return 1.0
    return mean
