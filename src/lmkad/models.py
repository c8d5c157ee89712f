"""One model for the three detectors: a one-class SVM over weighted kernels.

A ``Model`` combines p base kernels with per-kernel weights that are
either fixed (``weights``: OCSVM is one kernel with weight 1, MKAD uses
1/p each) or computed per row by a gating function (``gating``: LMKAD,
k(x, y) = sum_m eta_m(x) K_m(x, y) eta_m(y)).  ``family`` is a label.
One trainer serves all three families.

The trainer (``fit_many``) trains many fits as one array program.  Fits
that share family, kernel specs, size and trainer knobs form a stack, and
each outer iteration of a stack is a fixed sequence of numpy calls on
(B, ...) arrays, however many fits it holds: stacked gates and kernel
combination, the duals (lockstep SMO with a scalar tail), the per-fit
stopping test, and the stacked gating gradient and step.  The stacks
that share N and the inner-solver knobs (``inner_tol``,
``inner_max_iter``) form a solve group, which owns one Q array.  A round
first evaluates and checks the gates of every stack of the batch; then
one call per group (``_SolveGroup.solve``) composes its stacks into
consecutive rows of its Q, one loop over cache-sized pieces of whole
fits by rows (``TRAIN_TILE_BYTES``), solves them with one
``solver.solve_duals`` call and advances them, so e.g. every fit of a
benchmark worker's cells at N = 40 shares one lockstep.  A fit is
validated once: its base Grams at set-up (``_gram_error``: finite,
bitwise symmetric, no negative diagonal, no overflowing sum), then each
round only its gates, for finiteness (``_gate_errors``).  A warm round
of a group small enough for the scalar loop at N > 181 composes only the
Q columns SMO reads (``_LazyColumns``) and leaves Q's other entries,
which are finite, as an earlier round left them.  Every fit keeps the
iterates, and so the model, it gets when trained alone;
``tests/fit_reference.py`` keeps the one-fit loop that pins this.
``train_ocsvm``, ``train_mkad`` and ``train_lmkad`` are one-fit calls of
``fit_many``, and every fit's family and kernels pass ``check_family``.

Trained models are immutable; ``decision_values``/``predict_batch``
normalize raw inputs internally.  Scoring runs on a fixed grid of
``BLOCK_ROWS``-row blocks, each with one BLAS product shared by every
kernel; the kernels are mapped and combined tile by tile in buffers that
``ScoreBuffers`` keeps across blocks (see ``decision_values``).
``save_model``/``load_model`` round-trip models through a versioned JSON
container (exact float round-trip).
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, asdict
from typing import NamedTuple

import numpy as np

from .dataset import BLOCK_ROWS, Normalizer, fit_normalizer, apply_normalizer
from .gating import (GATING_KINDS, PAIR_FIELDS, GatingParams, gate_eval_batch, gate_stack, gradient_stack,
                     init_gating, step_stack)
from .kernels import (TRAIN_TILE_BYTES, KernelSpec, format_kernel_spec, gram, kernel_map, parse_kernel_spec,
                      product, row_sq_norms)
from . import solver
from .solver import CHECK_MESSAGES, DEFAULT_TOL, check_tol, infeasible_nu, nu_out_of_range, solve_duals

MODEL_FORMAT = "lmkad-model"
MODEL_VERSION = 1
FAMILIES = ("ocsvm", "mkad", "lmkad")

#: rows of a block whose kernels are mapped and combined at a time; a tile's
#: buffers (p + 2 of TILE_ROWS x SVs) stay in cache for ~100 support vectors
TILE_ROWS = 256

#: estimated bytes of N x N training state that ``fit_many`` trains at once.  A
#: fit holds (p + 2) N x N float64 arrays: its p base Grams, and as the + 2 its
#: Q and the lockstep's transposed copy of Q.  Set-up builds each Gram in its
#: slot of the stack (``gram(..., out=)``) and allocates nothing N x N beyond
#: the Grams, so a fit outside the lockstep peaks at (p + 1) N x N: traced, a
#: gpl fit at N = 1000 peaks at 31.1 MiB, 4.08 N x N float64.  Composition
#: works in a buffer of a few hundred KiB, and the set-up check in one N x N
#: boolean.  At 128 MiB one worker's share of the iris protocol under
#: ``lmkad benchmark --jobs 2`` (17 or 16 cells, 1,700 or 1,600 fits at N=40,
#: 101 or 87 MB estimated) forms one batch, and a gpl fit at N=1000 (40 MB)
#: runs alone.  A worker's peak RSS on that protocol is ~180 MB (~54 MB at 32 MiB, which admitted ~4 cells a batch).
BATCH_BYTES = 128 * 2**20

#: the file naming this process's cgroups, one ``hierarchy:controllers:path`` line each
PROC_CGROUP = "/proc/self/cgroup"

#: per cgroup version, the mount its paths are under and the file in each
#: cgroup directory that holds a memory limit: an integer of bytes, or ``max``
#: for none.  v2 names the process's cgroup on its ``0::`` line, v1 on the
#: line whose controllers include ``memory`` (``memory_bound``).
CGROUP_MEMORY = {"v2": ("/sys/fs/cgroup", "memory.max"), "v1": ("/sys/fs/cgroup/memory", "memory.limit_in_bytes")}

#: named kernel combinations exposed on the CLI
KERNEL_PRESETS = {
    "gpl": ("gauss:auto", "poly:q=2", "linear"),
    "gpp": ("gauss:auto", "poly:q=2", "poly:q=3"),
}


def resolve_kernels(spec) -> tuple[KernelSpec, ...]:
    """Accept a preset name, a comma-joined token string, or spec objects."""
    if isinstance(spec, KernelSpec):
        return (spec,)
    if isinstance(spec, str):
        tokens = KERNEL_PRESETS.get(spec, tuple(t for t in spec.split(",") if t.strip()))
        return tuple(parse_kernel_spec(t) for t in tokens)
    return tuple(k if isinstance(k, KernelSpec) else parse_kernel_spec(k) for k in spec)


def check_family(family: str, specs) -> None:
    """The family rule: a known family with at least one kernel, and OCSVM with exactly one."""
    if family not in FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    if family == "ocsvm" and len(specs) != 1:
        raise ValueError("ocsvm takes exactly one kernel")
    if not specs:
        raise ValueError(f"{family} needs at least one kernel")


@dataclass
class TrainingReport:
    """How a fit went: its outer iterations (rounds) and their dual objectives,
    whether it converged (a gated fit: the outer stopping test; a fixed-weight
    fit: its one dual), the last dual's KKT violation, the SMO steps of all
    rounds, and the number of rounds whose dual stopped at ``inner_max_iter``
    unconverged.  ``q_columns`` counts the columns of Q composed over all
    rounds, N for a round composed whole; it measures the work, not the
    model, so it is neither saved nor compared."""

    iterations: int
    objective_trace: list[float]
    converged: bool
    final_violation: float
    inner_iterations: int = 0
    inner_nonconverged: int = 0
    q_columns: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Model:
    """A trained detector with fixed ``weights`` or a ``gating`` whose
    support-vector gate rows are cached in ``sv_eta``; never both."""

    family: str
    kernels: tuple[KernelSpec, ...]
    sv_features: np.ndarray
    sv_alpha: np.ndarray
    rho: float
    normalizer: Normalizer
    nu: float
    n_train: int
    weights: np.ndarray | None = None
    gating: GatingParams | None = None
    sv_eta: np.ndarray | None = None
    report: TrainingReport = field(repr=False, default=None)


@dataclass(frozen=True)
class LmkadConfig:
    """The trainer settings of every family; fixed-weight fits use only the nu
    and inner-solver ones.  The only record of their defaults.

    The step size at outer iteration t is ``learning_rate * lr_decay**t``;
    the loop stops when the relative change of the dual objective falls
    below ``outer_tol`` or after ``max_outer`` iterations.
    ``initial_gating`` overrides the seeded random init when given.
    A setting that cannot work is refused by name: e.g. a float setting
    that is not a real number (a bool is not one), an integer setting that
    is not an integer, an integer setting below its minimum (1 for
    ``max_outer`` and ``inner_max_iter``, 0 for ``seed``, whatever the
    family), a ``learning_rate`` that is negative or not finite, or an
    ``inner_tol`` that fails ``solver.check_tol``.
    """

    nu: float
    gating_kind: str = "sigmoid"
    learning_rate: float = 20.0
    lr_decay: float = 0.95
    outer_tol: float = 1e-4
    max_outer: int = 100
    inner_tol: float = DEFAULT_TOL
    inner_max_iter: int | None = None
    seed: int = 0
    initial_gating: GatingParams | None = None

    def __post_init__(self):
        for name in ("nu", "learning_rate", "lr_decay", "outer_tol", "inner_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        for name, least in (("max_outer", 1), ("inner_max_iter", 1), ("seed", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)) and not (
                    name == "inner_max_iter" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if self.gating_kind not in GATING_KINDS:
            raise ValueError(f"unknown gating kind {self.gating_kind!r}")
        if not (self.learning_rate >= 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be >= 0 and finite, got {self.learning_rate}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must be in (0, 1]")
        if not self.outer_tol > 0:
            raise ValueError("outer_tol must be positive")
        check_tol(self.inner_tol, "inner_tol")


def _combine(grams, weights, H_X, H_Y, out=None, scratch=None) -> np.ndarray:
    """sum_m w_m K_m with fixed ``weights``; with ``weights=None``, entry (i,j)
    is sum_m eta_m(x_i) K_m(i,j) eta_m(y_j) for gate matrices ``H_X``, ``H_Y``.

    ``grams[m]`` is K_m, of shape (..., R, S) with any leading stack
    axes shared by ``H_X`` (..., R, p) and ``H_Y`` (..., S, p).  Each term
    is ``w_m * K_m`` or ``(H_X[:, m] * K_m) * H_Y[:, m]`` and the terms are
    summed left to right, built in place in ``out`` and one ``scratch``
    buffer (fresh ones when not given); the Grams are only read.
    """
    out = np.empty(np.shape(grams[0])) if out is None else out
    term = out
    for m, K in enumerate(grams):
        if m == 1:
            term = np.empty_like(out) if scratch is None else scratch
        if weights is not None:
            np.multiply(weights[m], K, out=term)
        else:
            np.multiply(H_X[..., :, m : m + 1], K, out=term)
            term *= H_Y[..., None, :, m]
        if m:
            out += term
    return out


def _on_simplex(weights: np.ndarray) -> bool:
    return not np.any(weights < 0) and abs(weights.sum() - 1.0) <= 1e-9


def composite_gram_fixed(kernels, weights, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Convex combination sum_m w_m K_m(X, Y); weights must lie on the simplex."""
    weights = np.asarray(weights, dtype=float).ravel()
    if len(kernels) != weights.shape[0]:
        raise ValueError("one weight per kernel required")
    if not _on_simplex(weights):
        raise ValueError("weights must be nonnegative and sum to 1")
    return _combine([gram(k, X, Y) for k in kernels], weights, None, None)


def composite_gram_localized(
    kernels,
    gating: GatingParams,
    X: np.ndarray,
    Y: np.ndarray,
    H_X: np.ndarray | None = None,
    H_Y: np.ndarray | None = None,
) -> np.ndarray:
    """Locally combined kernel: entry (i,j) = sum_m eta_m(x_i) K_m(x_i, y_j) eta_m(y_j)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if H_X is None:
        H_X = gate_eval_batch(gating, X)
    if H_Y is None:
        H_Y = gate_eval_batch(gating, Y)
    H_X = np.asarray(H_X, dtype=float)
    H_Y = np.asarray(H_Y, dtype=float)
    p = len(kernels)
    if H_X.shape != (X.shape[0], p) or H_Y.shape != (Y.shape[0], p):
        raise ValueError("gate matrices do not match the data/kernel shapes")
    return _combine([gram(k, X, Y) for k in kernels], None, H_X, H_Y)


class FitJob(NamedTuple):
    """One model to train: its family, target rows, kernels and trainer knobs."""

    family: str
    train_targets: np.ndarray
    kernels: object
    config: LmkadConfig


#: the ``LmkadConfig`` fields that may differ between the fits of one stack
PER_FIT_FIELDS = ("nu", "seed", "initial_gating")


def _prepare(train_targets, specs, bound):
    """Z-score the target rows and resolve auto bandwidths on them, once
    ``_check_memory`` has passed on their row count against ``bound``."""
    X = np.atleast_2d(np.asarray(train_targets, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("need at least one training row")
    _check_memory(X.shape[0], len(specs), bound)
    norm = fit_normalizer(X)
    Xn = apply_normalizer(norm, X)
    return norm, Xn, tuple(k.resolved(Xn) for k in specs)


def _initial_gating(family: str, config: LmkadConfig, p: int, Xn: np.ndarray) -> GatingParams | None:
    """The gating an LMKAD fit starts from; None for the fixed-weight families."""
    if family != "lmkad":
        return None
    if config.initial_gating is None:
        return init_gating(config.gating_kind, p, Xn.shape[1], Xn, config.seed)
    if config.initial_gating.p != p or config.initial_gating.d != Xn.shape[1]:
        raise ValueError("initial_gating shape does not match kernels/data")
    return config.initial_gating


def _compact(a: np.ndarray, keep: list[int]) -> np.ndarray:
    """Rows ``keep`` (ascending) of ``a`` moved to its front in place, as a view:
    a large stack is never copied whole."""
    for new, old in enumerate(keep):
        if new != old:
            a[new] = a[old]
    return a[: len(keep)]


def _gram_error(grams: np.ndarray, weights: np.ndarray | None) -> str | None:
    """Why a fit's base Grams (p, N, N) can make a Q that fails ``DualProblem``'s checks, or None.

    Run once per training matrix at set-up, in place of a check of every
    round's Q.  Q sums each Gram scaled entry by entry by its fixed weight
    or by gates in [0, 1] (``_combine``), so it can fail only where a Gram
    does.  The message is that of the first check any Gram fails: finite
    (read from max and min, which NaN and inf reach), equal to its
    transpose bit for bit, as ``gram`` builds it (a lazy round reads a
    Gram's rows as its columns), diagonal >= -1e-12.  Then a sum of finite
    terms must not overflow: the bound sum_m w_m max|K_m| (w_m = 1 under
    gates), summed in Q's order, must be finite.
    """
    extremes = [(float(K.max()), float(K.min())) for K in grams]
    if not all(math.isfinite(hi) and math.isfinite(lo) for hi, lo in extremes):
        return CHECK_MESSAGES[0]
    for m, K in enumerate(grams):
        if not np.array_equal(K.view(np.int64), K.T.view(np.int64)):
            return f"Gram K_{m} is not equal to its transpose bit for bit"
    if any(K.diagonal().min() < -1e-12 for K in grams):
        return CHECK_MESSAGES[2]
    bound = 0.0
    for m, (hi, lo) in enumerate(extremes):
        bound += (1.0 if weights is None else float(weights[m])) * max(hi, -lo)
    return None if math.isfinite(bound) else "Q may overflow: the sum over kernels of max|K_m| is not finite"


def _gate_errors(H: np.ndarray) -> dict[int, str]:
    """Why each fit of a (B, N, p) gate stack cannot be solved this round:
    ``{row: message}`` for the rows with a non-finite gate (an rbf gate can
    reach 0/0), which would make Q non-finite.  Finite gates lie in [0, 1],
    so once ``_gram_error`` has passed they make a Q that passes ``DualProblem``'s checks."""
    return {r: CHECK_MESSAGES[0] for r in np.flatnonzero(~np.isfinite(H).all(axis=(1, 2))).tolist()}


class _LazyColumns(dict):
    """One fit's Q (N, N) in a warm round, composed from its bitwise-symmetric
    Grams (p, N, N) and gates H (N, p) only where the scalar loop reads it
    (``solver.solve_duals``' ``columns``): key j holds the column ``q[:, j]``
    once composed, and a missing key is composed on first read.  Every
    other entry of ``q`` keeps what an earlier round left there, which is
    finite (see ``_SolveGroup``)."""

    def __init__(self, q, grams, H, tile):
        super().__init__()
        self.q, self.grams, self.H, self.tile = q, grams, H, tile

    def start(self, alpha: np.ndarray) -> None:
        """Compose the whole diagonal, then the columns where ``alpha`` is nonzero."""
        n, js = self.q.shape[0], np.flatnonzero(alpha)
        diag, term = self.tile[:n].reshape(n, 1, 1), self.tile[n : 2 * n].reshape(n, 1, 1)
        H = self.H[:, None]  # each diagonal entry as a 1 x 1 block
        _combine((K.diagonal()[:, None, None] for K in self.grams), None, H, H, diag, term)
        np.fill_diagonal(self.q, diag.ravel())
        self.compose(js)

    def compose(self, js: np.ndarray) -> None:
        """Columns ``js``, each entry as ``_combine`` computes it, in pieces
        whose two (N, width) terms share the flat buffer ``tile``, each held
        column by column so that every operand is read along N."""
        n = self.q.shape[0]
        width = self.tile.size // (2 * n)
        for s in range(0, len(js), width):
            cols = js[s : s + width]
            out = self.tile[: n * len(cols)].reshape(len(cols), n).T
            term = self.tile[out.size : 2 * out.size].reshape(len(cols), n).T
            # K_m[:, cols] read as the rows K_m[cols].T of a bitwise-symmetric Gram, one at a time
            _combine((K[cols].T for K in self.grams), None, self.H, self.H[cols], out, term)
            self.q[:, cols] = out
        columns = self.q.T
        self.update((j, columns[j]) for j in js.tolist())

    def __missing__(self, j):
        self.compose(np.array([j]))
        return self[j]


class _Stack:
    """Fits that train as one array program; row r is job ``jobs[r]``.

    The fits share family, kernel specs, N, d, gating kind and every
    ``LmkadConfig`` field but ``PER_FIT_FIELDS``, so every round is the
    same sequence of numpy calls on (B, ...) arrays: rows ``Xn`` (B, N, d),
    base Grams (B, p, N, N), the gating pair (B, p, d) and (B, p), gates
    ``H`` (B, N, p) and warm starts (B, N).  Its Q rows are lent by its
    ``_SolveGroup`` each round; fits that stop are compacted out of every
    array.  The Grams of each training matrix are computed, in place in
    their slots, and checked (``_gram_error``) once; a fit whose Grams
    fail goes to ``failures``.
    """

    def __init__(self, jobs, members, prepared, failures: dict):
        self.jobs = [k for k, _, _ in members]
        first = jobs[self.jobs[0]]
        self.family = first.family
        self.config = first.config
        self.nus = [jobs[k].config.nu for k in self.jobs]
        self.norms = [prepared[key][0] for _, key, _ in members]
        self.kernels = [prepared[key][2] for _, key, _ in members]
        b = len(members)
        n, d = prepared[members[0][1]][1].shape
        p = len(self.kernels[0])
        self.Xn = np.empty((b, n, d))
        self.grams = np.empty((b, p, n, n))
        gatings = [gating for _, _, gating in members]
        self.kind = None if gatings[0] is None else gatings[0].kind
        self.weights = np.full(p, 1.0 / p) if self.kind is None else None
        filled: dict[tuple, int] = {}  # the Grams of a training matrix are computed and checked once
        errors: dict[tuple, str | None] = {}
        for r, (k, key, _) in enumerate(members):
            Xn = prepared[key][1]
            self.Xn[r] = Xn
            if key in filled:
                self.grams[r] = self.grams[filled[key]]
            else:
                filled[key] = r
                for m, spec in enumerate(self.kernels[r]):
                    gram(spec, Xn, Xn, out=self.grams[r, m])
                errors[key] = _gram_error(self.grams[r], self.weights)
            if errors[key] is not None:
                failures.setdefault(k, ValueError(errors[key]))
        self.pair = None if self.kind is None else (np.stack([g.matrix for g in gatings]),
                                                     np.stack([g.vector for g in gatings]))
        self.H = None
        self.alpha = self.prev = None
        self.inner = np.zeros(b, dtype=np.int64)
        self.nonconverged = np.zeros(b, dtype=np.int64)
        self.q_columns = np.zeros(b, dtype=np.int64)
        self.traces: list[list[float]] = [[] for _ in range(b)]

    def gate(self, failures: dict) -> None:
        """Evaluate a gated stack's gates for this round and check them (``_gate_errors``)."""
        if self.kind is not None:
            self.H = gate_stack(self.kind, self.Xn, *self.pair)
            for r, message in _gate_errors(self.H).items():
                failures.setdefault(self.jobs[r], ValueError(message))

    def compose(self, q: np.ndarray, tile: np.ndarray) -> None:
        """Build every fit's Q in ``q`` (B, N, N) from this round's gates, one
        piece of ``fits`` whole fits by ``rows`` rows at a time, each piece's
        terms in the flat buffer ``tile``: as many whole fits as ``tile``
        holds, else as many of one fit's rows as it holds (see
        ``TRAIN_TILE_BYTES``).  ``_combine`` computes every entry alike on
        any piece, so Q has the same bits as when composed whole."""
        b, n = q.shape[:2]
        fits = max(1, tile.size // (n * n))
        rows = min(n, tile.size // (fits * n))
        for f, s in itertools.product(range(0, b, fits), range(0, n, rows)):
            out = q[f : f + fits, s : s + rows]
            H = None if self.H is None else self.H[f : f + fits]
            term = tile[: out.size].reshape(out.shape)
            _combine(self.grams[f : f + fits, :, s : s + rows].swapaxes(0, 1), self.weights,
                     None if H is None else H[:, s : s + rows], H, out, term)

    def advance(self, t: int, sols, rows: slice, q_columns: np.ndarray, models: list, failures: dict) -> None:
        """Take outer iteration ``t``'s duals (``rows`` of ``sols``) and the Q
        columns composed for them, finish the fits that stop, step the rest."""
        c = self.config
        objective = -sols.objective[rows]  # the dual objective J(eta)
        self.inner += sols.iterations[rows]
        self.nonconverged += ~sols.converged[rows]
        self.q_columns += q_columns
        for trace, value in zip(self.traces, objective.tolist()):
            trace.append(value)
        converged = np.zeros(len(self.jobs), dtype=bool)
        if t:
            change = np.abs(objective - self.prev) / np.maximum(np.abs(self.prev), 1e-12)
            converged = change <= c.outer_tol
        last = t == (c.max_outer if self.kind is not None else 1) - 1
        stop = converged | last
        for r in np.flatnonzero(stop).tolist():
            models[self.jobs[r]] = self._model(r, sols[rows.start + r], bool(converged[r]))
        keep = np.flatnonzero(~stop).tolist()
        self._keep(keep)
        if not keep:
            return
        alpha = sols.alpha[rows][keep]
        grad = gradient_stack(self.kind, *self.pair, alpha, self.Xn, self.grams, self.H)
        finite = np.isfinite(grad[0]).all(axis=(1, 2)) & np.isfinite(grad[1]).all(axis=1)
        if not finite.all():  # fit_many raises at the end of this round: no fit here steps
            for r in np.flatnonzero(~finite).tolist():
                failures.setdefault(self.jobs[r], RuntimeError(
                    f"non-finite gating gradient at outer iteration {t} "
                    f"(kind={self.kind}, nu={self.nus[r]})"
                ))
            return
        self.pair = step_stack(self.kind, *self.pair, *grad, c.learning_rate * c.lr_decay**t)
        self.alpha, self.prev = alpha, objective[keep]

    def _keep(self, keep: list[int]) -> None:
        if len(keep) == len(self.jobs):
            return
        for name in ("jobs", "nus", "norms", "kernels", "traces"):
            setattr(self, name, [getattr(self, name)[r] for r in keep])
        self.Xn, self.grams = _compact(self.Xn, keep), _compact(self.grams, keep)
        self.inner, self.nonconverged, self.q_columns = self.inner[keep], self.nonconverged[keep], self.q_columns[keep]
        if self.kind is not None:
            self.H = self.H[keep]
            self.pair = (self.pair[0][keep], self.pair[1][keep])

    def _model(self, r: int, sol, converged: bool) -> Model:
        sv = sol.support_indices
        gated = self.kind is not None
        report = TrainingReport(
            iterations=len(self.traces[r]),
            objective_trace=self.traces[r],
            converged=converged if gated else sol.converged,
            final_violation=sol.final_violation,
            inner_iterations=int(self.inner[r]),
            inner_nonconverged=int(self.nonconverged[r]),
            q_columns=int(self.q_columns[r]),
        )
        return Model(
            family=self.family,
            kernels=self.kernels[r],
            sv_features=self.Xn[r][sv],
            sv_alpha=sol.alpha[sv],
            rho=sol.rho,
            normalizer=self.norms[r],
            nu=self.nus[r],
            n_train=self.Xn.shape[1],
            weights=None if gated else self.weights.copy(),
            gating=GatingParams(self.kind, self.pair[0][r].copy(), self.pair[1][r].copy()) if gated else None,
            sv_eta=self.H[r][sv] if gated else None,
            report=report,
        )


class _SolveGroup:
    """Stacks whose duals one ``solve_duals`` call solves each round: they
    share N and the inner-solver knobs.  The group owns one Q array, sized
    for its fits at round 0, and the composition tile
    (``TRAIN_TILE_BYTES``); each round, once ``fit_many`` has checked
    every gate of the batch, one ``solve`` call composes its stacks into
    consecutive rows from row 0 and solves the rows in use as they are.
    The stacks of a batch share the round, so a group is all cold (t = 0,
    no warm start) or all warm.

    A warm round is lazy when a fit's N x N does not fit in the tile
    (N > 181) and every dual runs in the scalar loop (fewer than
    ``solver.LOCKSTEP_MIN_ROWS``): Q is then composed column by column as
    the loop reads it (``_LazyColumns``).  Cold rounds, fixed weights,
    small N and the lockstep compose every Q whole.

    A lazy round leaves the rest of each Q row as an earlier round left
    it, which ``solve_duals`` allows because every such entry is finite:
    round 0 is never lazy, so every row the group lends is first composed
    whole, from checked Grams and finite gates, and a later round only
    overwrites entries with other such values.
    """

    def __init__(self, stacks: list[_Stack]):
        self.stacks = stacks
        b, n = sum(len(stack.jobs) for stack in stacks), stacks[0].grams.shape[-1]
        self.q = np.empty((b, n, n))
        self.tile = np.empty(max(TRAIN_TILE_BYTES // 8, 2 * n))  # at least two columns or one row

    def solve(self, t: int, models: list, failures: dict) -> None:
        """Round ``t`` of the group, once every gate has passed its check:
        build each stack's Q in its rows (in a lazy round, one ``_LazyColumns``
        per fit instead), solve every dual in one ``solve_duals`` call and
        advance every stack; drop the stacks left without fits."""
        c, n = self.stacks[0].config, self.q.shape[-1]
        ends = np.cumsum([len(stack.jobs) for stack in self.stacks]).tolist()
        spans = [slice(end - len(stack.jobs), end) for stack, end in zip(self.stacks, ends)]
        lazy = t > 0 and n * n > self.tile.size and ends[-1] < solver.LOCKSTEP_MIN_ROWS
        columns = [] if lazy else None
        for stack, rows in zip(self.stacks, spans):
            if lazy:
                columns += [_LazyColumns(self.q[rows.start + r], grams, H, self.tile)
                            for r, (grams, H) in enumerate(zip(stack.grams, stack.H))]
            else:
                stack.compose(self.q[rows], self.tile)
        alpha0 = None if t == 0 else np.concatenate([stack.alpha for stack in self.stacks])
        nus = [nu for stack in self.stacks for nu in stack.nus]
        sols = solve_duals(self.q[: ends[-1]], nus, alpha0, c.inner_tol, c.inner_max_iter, columns)
        q_columns = np.full(ends[-1], n) if columns is None else np.array([len(cols) for cols in columns])
        for stack, rows in zip(self.stacks, spans):
            stack.advance(t, sols, rows, q_columns[rows], models, failures)
        self.stacks = [stack for stack in self.stacks if stack.jobs]


def _solve_groups(jobs: list[FitJob], batch: list[int], failures: dict) -> list[_SolveGroup]:
    """Set up a batch's jobs, group them into stacks and the stacks into
    solve groups (N, ``inner_tol`` and ``inner_max_iter``), each in job order.

    The normalizer, the resolved kernels and the Grams are computed once
    per distinct training matrix (the same object: a fold's candidates
    share one).  A job whose set-up raises, the family rule
    (``check_family``), the memory check (``_check_memory``) and the nu
    rule of ``solve_duals`` on its N included, goes to ``failures``: each
    fit's nu is checked here once, not every round.  ``memory_bound`` is
    read once per batch.
    """
    bound = memory_bound()
    prepared: dict[tuple, tuple] = {}
    groups: dict[tuple, dict[tuple, list]] = {}
    for k in batch:
        family, train_targets, kernels, config = jobs[k]
        try:
            specs = resolve_kernels(kernels)
            check_family(family, specs)
            key = (id(train_targets), specs)
            if key not in prepared:
                prepared[key] = _prepare(train_targets, specs, bound)
            Xn = prepared[key][1]
            gating = _initial_gating(family, config, len(specs), Xn)
            reason = nu_out_of_range(config.nu) or infeasible_nu(config.nu, Xn.shape[0])
            if reason is not None:
                raise ValueError(reason)
        except Exception as exc:  # noqa: BLE001 - re-raised by fit_many in job order
            failures.setdefault(k, exc)
            continue
        knobs = tuple(getattr(config, f.name) for f in fields(config) if f.name not in PER_FIT_FIELDS)
        stack = (family, specs, Xn.shape, None if gating is None else gating.kind, knobs)
        solve = (Xn.shape[0], config.inner_tol, config.inner_max_iter)
        groups.setdefault(solve, {}).setdefault(stack, []).append((k, key, gating))
    return [_SolveGroup([_Stack(jobs, members, prepared, failures) for members in stacks.values()])
            for stacks in groups.values()]


def _fit_bytes(n: int, p: int) -> int:
    """The estimated N x N training state of one fit (see ``BATCH_BYTES``)."""
    return (p + 2) * n * n * 8


def physical_memory_bytes() -> int | None:
    """This machine's physical memory; None where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _cgroup_limit_files() -> list[str]:
    """The memory limit files of this process's cgroups (``PROC_CGROUP``) and
    of every ancestor up to the root, for each version it names."""
    try:
        with open(PROC_CGROUP, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    files = []
    for line in lines:
        hierarchy, controllers, path = (line.split(":", 2) + ["", ""])[:3]
        version = "v2" if hierarchy == "0" and not controllers else "v1" if "memory" in controllers.split(",") else None
        if version is not None:
            root, name = CGROUP_MEMORY[version]
            parts = [part for part in path.split("/") if part]
            files += [os.path.join(root, *parts[:depth], name) for depth in range(len(parts), -1, -1)]
    return files


def memory_bound() -> tuple[int, str] | None:
    """The memory a fit may use and what bounds it: the smallest of physical
    memory and the cgroup limits set on this process's cgroups and their
    ancestors (``_cgroup_limit_files``; ``max`` or a missing file is no
    limit); None where none is known."""
    bounds = [] if (physical := physical_memory_bytes()) is None else [(physical, "physical memory")]
    for path in _cgroup_limit_files():
        try:
            with open(path, encoding="ascii") as fh:
                bounds.append((int(fh.read()), f"the cgroup memory limit ({path})"))
        except (OSError, ValueError):
            continue
    return min(bounds, default=None)


def _check_memory(n: int, p: int, bound: tuple[int, str] | None) -> None:
    """Refuse, before anything N x N is allocated, a fit whose training state
    exceeds ``bound`` (``memory_bound``): it would end in a ``MemoryError`` or an OOM kill."""
    need = _fit_bytes(n, p)
    if bound is not None and need > bound[0]:
        raise ValueError(f"a fit on N={n} rows with {p} kernels needs ~{need / 2**30:.3g} GiB of "
                         f"training state, more than the {bound[0] / 2**30:.3g} GiB of {bound[1]}")


def _state_bytes(job: FitJob) -> int:
    """A job's estimated N x N training state; 0 for one whose set-up will raise,
    so that its error surfaces in its own set-up, in job order."""
    try:
        n = np.atleast_2d(np.asarray(job.train_targets)).shape[0]
        return _fit_bytes(n, len(resolve_kernels(job.kernels)))
    except (ValueError, TypeError):  # raised again by the job's set-up in _solve_groups
        return 0


def _batches(jobs: list[FitJob]):
    """Consecutive runs of job indices whose estimated N x N state fits ``BATCH_BYTES``."""
    batch: list[int] = []
    used = 0
    for k, job in enumerate(jobs):
        size = _state_bytes(job)
        if batch and used + size > BATCH_BYTES:
            yield batch
            batch, used = [], 0
        batch.append(k)
        used += size
    if batch:
        yield batch


def fit_many(jobs) -> list[Model]:
    """Train every ``FitJob``; each model equals the one it would get alone.

    The trainer core, for every family: z-score the targets, resolve auto
    bandwidths, and solve the one-class dual on the combined kernel.
    Fixed weights take one solve.  Gates alternate: each outer iteration
    evaluates them, solves the dual on the locally combined kernel
    (warm-started), then steps the gating parameters down the gradient of
    the dual objective with step size ``learning_rate * lr_decay**t``.
    The model keeps the gating of the final solve.

    Jobs are admitted in consecutive batches under ``BATCH_BYTES`` and
    grouped into stacks (``_Stack``) that run each outer iteration (a
    round) as one array program, and the stacks that share N and the
    inner-solver knobs into solve groups (``_SolveGroup``), formed once
    per batch, each with one Q array.  Set-up checks each training
    matrix's Grams once (``_gram_error``).  A round first evaluates and
    checks the gates of every stack of the batch (``_gate_errors``);
    then one ``_SolveGroup.solve`` call per group composes its stacks
    into consecutive rows of its Q, or, in a lazy round, leaves Q to the
    solver's column reads, solves the group's duals with one
    ``solve_duals`` call, and gives each stack the objective test,
    gradient check and step.

    A batch's checks run in a fixed sequence: set-up (the family, memory,
    nu and Gram checks) together with round 0's gate check, then round
    0's gradient check, round 1's gate check, round 1's gradient check,
    and so on.  Training stops after the first check that any fit fails,
    and the error of the lowest failing job index of that check
    propagates: the error that job raises alone.  So a fit whose gates
    fail in round t wins over a lower-indexed fit whose gradient would
    fail in the same round, as every gate check comes before any solve.
    Batches run in job order, so of the jobs that fail it is the first
    batch's that decides.
    """
    jobs = list(jobs)
    models: list[Model | None] = [None] * len(jobs)
    for batch in _batches(jobs):
        failures: dict[int, Exception] = {}
        groups = _solve_groups(jobs, batch, failures)
        t = 0
        while groups:
            for group in groups:
                for stack in group.stacks:
                    stack.gate(failures)
            if failures:
                break
            for group in groups:
                group.solve(t, models, failures)
            if failures:
                break
            groups = [group for group in groups if group.stacks]
            t += 1
        if failures:
            raise failures[min(failures)]
    return models


def train_ocsvm(
    train_targets: np.ndarray,
    kernel,
    nu: float,
    tol: float = LmkadConfig.inner_tol,
    max_iter: int | None = LmkadConfig.inner_max_iter,
) -> Model:
    """Fit a one-class SVM on target-class rows; ``kernel`` is one spec or token."""
    config = LmkadConfig(nu=nu, inner_tol=tol, inner_max_iter=max_iter)
    return fit_many([FitJob("ocsvm", train_targets, kernel, config)])[0]


def train_mkad(
    train_targets: np.ndarray,
    kernels,
    nu: float,
    tol: float = LmkadConfig.inner_tol,
    max_iter: int | None = LmkadConfig.inner_max_iter,
) -> Model:
    """One-class SVM over the uniform fixed-weight kernel combination."""
    config = LmkadConfig(nu=nu, inner_tol=tol, inner_max_iter=max_iter)
    return fit_many([FitJob("mkad", train_targets, kernels, config)])[0]


def train_lmkad(train_targets: np.ndarray, kernels, config: LmkadConfig) -> Model:
    """Alternating optimization of the dual and the gating parameters (see ``fit_many``)."""
    return fit_many([FitJob("lmkad", train_targets, kernels, config)])[0]


class ScoreBuffers:
    """The scratch arrays ``decision_values`` scores blocks in, reused
    across blocks and calls: the product ``G`` and the combined kernel
    ``K`` for up to ``rows`` rows by the support vectors, one tile's
    mapped kernels (``maps``) and ``scratch``.  They hold no model data,
    only shapes taken from ``model``."""

    def __init__(self, model: Model, rows: int = BLOCK_ROWS):
        n_sv = model.sv_alpha.shape[0]
        tile = min(rows, TILE_ROWS)
        self.G = np.empty((rows, n_sv))
        self.K = np.empty((rows, n_sv))
        self.maps = np.empty((len(model.kernels), tile, n_sv))
        self.scratch = np.empty((tile, n_sv))


def _decision_block(model: Model, Xn: np.ndarray, buf: ScoreBuffers, sv_sq, sv_eta) -> np.ndarray:
    """f on one block: one product, then the kernels mapped and combined tile by tile."""
    rows = Xn.shape[0]
    G = product(Xn, model.sv_features, out=buf.G[:rows])
    K = buf.K[:rows]
    H = None if model.gating is None else gate_eval_batch(model.gating, Xn)
    xx = None if sv_sq is None else row_sq_norms(Xn)[:, None]
    for start in range(0, rows, TILE_ROWS):
        n = min(TILE_ROWS, rows - start)
        tile = slice(start, start + n)
        scratch = buf.scratch[:n]
        grams = [
            kernel_map(k, G[tile], None if xx is None else xx[tile], sv_sq, buf.maps[m, :n], scratch)
            for m, k in enumerate(model.kernels)
        ]
        _combine(grams, model.weights, None if H is None else H[tile], sv_eta, K[tile], scratch)
    return K @ model.sv_alpha - model.rho


def decision_values(model: Model, X: np.ndarray, buffers: ScoreBuffers | None = None) -> np.ndarray:
    """Decision function on raw inputs (normalization applied internally).

    Rows are scored in consecutive blocks of ``BLOCK_ROWS`` starting at
    row 0.  Each block takes one BLAS product ``G = Xn @ SV.T`` and one
    ``K @ sv_alpha``; the low bits of a BLAS result depend on its row
    count, so this grid is fixed, and a caller that slices its input at
    multiples of ``BLOCK_ROWS`` gets the same values bit for bit as one
    call on the whole input.  Between the two products the kernels are
    mapped from G and combined into K in tiles of ``TILE_ROWS`` rows,
    which stay in cache; elementwise work gives the same bits on any
    tiling.  Scoring memory is bounded by ``buffers`` (fresh ones sized
    for the input when not given), whatever the number of rows.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Xn = apply_normalizer(model.normalizer, X)
    buffers = ScoreBuffers(model, min(Xn.shape[0], BLOCK_ROWS)) if buffers is None else buffers
    gaussian = any(k.kind == "gaussian" for k in model.kernels)
    sv_sq = row_sq_norms(model.sv_features) if gaussian else None
    # column-major, so that each kernel's gate column is one contiguous vector
    sv_eta = None if model.sv_eta is None else np.asfortranarray(model.sv_eta)
    out = np.empty(Xn.shape[0])
    for start in range(0, Xn.shape[0], BLOCK_ROWS):
        block = Xn[start : start + BLOCK_ROWS]
        out[start : start + BLOCK_ROWS] = _decision_block(model, block, buffers, sv_sq, sv_eta)
    return out


def predict_batch(model: Model, X: np.ndarray) -> np.ndarray:
    """+1 for targets, -1 for outliers; the boundary f=0 counts as target."""
    return np.where(decision_values(model, X) >= 0.0, 1, -1)


def sv_count(model: Model) -> int:
    return int(model.sv_alpha.shape[0])


# --- serialization ---------------------------------------------------------


def _gating_to_dict(g: GatingParams) -> dict:
    matrix, vector = PAIR_FIELDS[g.kind]
    return {"kind": g.kind, matrix: g.matrix.tolist(), vector: g.vector.tolist()}


def save_model(model: Model, path) -> None:
    """Write a model as a versioned JSON document (see README for layout)."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "family": model.family,
        "nu": model.nu,
        "rho": model.rho,
        "n_train": model.n_train,
        "normalizer": {
            "means": model.normalizer.means.tolist(),
            "stddevs": model.normalizer.stddevs.tolist(),
        },
        "sv_features": model.sv_features.tolist(),
        "sv_alpha": model.sv_alpha.tolist(),
    }
    tokens = [format_kernel_spec(k) for k in model.kernels]
    if model.family == "ocsvm":  # one kernel, implied weight 1
        doc["kernel"] = tokens[0]
    else:
        doc["kernels"] = tokens
    if model.family == "mkad":
        doc["weights"] = model.weights.tolist()
    if model.gating is not None:
        doc["gating"] = _gating_to_dict(model.gating)
        doc["sv_eta"] = model.sv_eta.tolist()
    if model.report is not None:
        doc["report"] = asdict(model.report)
        del doc["report"]["q_columns"]  # a work count, not part of the model
        if not model.report.inner_nonconverged:  # left at its default, so a v1 file saves back byte for byte
            del doc["report"]["inner_nonconverged"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _holds_bool(value) -> bool:
    """Whether a parsed JSON value is or nests a true/false, which numpy reads as 1 or 0."""
    if isinstance(value, list):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


class _ModelFile:
    """The fields of a parsed model file, each read by its dotted name.  A
    field that is missing, of the wrong type or shape, or non-finite raises
    a ``ValueError`` naming the file and the field."""

    def __init__(self, doc: dict, path):
        self.doc, self.path = doc, path
        self.dims = ""  # where the expected array shapes come from, once known

    def error(self, name: str, problem: str) -> ValueError:
        where = "report is not a training report: " if name.startswith("report.") else ""
        return ValueError(f"{self.path}: {where}{name} {problem}")

    def get(self, name: str):
        value = self.doc
        keys = name.split(".")
        for depth, key in enumerate(keys, 1):
            if not isinstance(value, dict) or key not in value:
                raise self.error(".".join(keys[:depth]), "is missing")
            value = value[key]
        return value

    def number(self, name: str) -> float:
        value = self.get(name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise self.error(name, "is not a number")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise self.error(name, "holds a non-finite value")
        return value

    def integer(self, name: str, minimum: int) -> int:
        value = self.get(name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise self.error(name, "is not an integer")
        if value < minimum:
            raise self.error(name, f"is below {minimum}")
        return value

    def flag(self, name: str) -> bool:
        value = self.get(name)
        if not isinstance(value, bool):
            raise self.error(name, "is not true or false")
        return value

    def array(self, name: str, shape: tuple | None) -> np.ndarray:
        """A finite float array; of ``shape`` unless that is None."""
        raw = self.get(name)
        try:
            value = np.asarray(raw)
        except ValueError:  # ragged
            value = None
        if value is None or value.dtype.kind not in "iuf" or _holds_bool(raw):
            raise self.error(name, "is not a rectangular numeric array")
        value = value.astype(float)
        if shape is not None and value.shape != shape:
            raise self.error(name, f"has shape {value.shape}, expected {shape}{self.dims}")
        if not np.all(np.isfinite(value)):
            raise self.error(name, "holds a non-finite value")
        return value

    def kernels(self, name: str) -> tuple[KernelSpec, ...]:
        """``kernel`` (one token) or ``kernels`` (a non-empty list of tokens)."""
        tokens = self.get(name)
        tokens = [tokens] if name == "kernel" else tokens
        if not isinstance(tokens, list) or not tokens or not all(isinstance(t, str) for t in tokens):
            raise self.error(name, "is not a kernel token" if name == "kernel" else "is not a list of kernel tokens")
        try:
            return tuple(parse_kernel_spec(t) for t in tokens)
        except ValueError as exc:
            raise self.error(name, f"holds a bad token: {exc}") from None

    def gating(self, p: int, d: int) -> GatingParams:
        kind = self.get("gating.kind")
        if not isinstance(kind, str) or kind not in PAIR_FIELDS:
            raise self.error("gating.kind", f"{kind!r} is not one of {', '.join(PAIR_FIELDS)}")
        matrix_name, vector_name = (f"gating.{name}" for name in PAIR_FIELDS[kind])
        matrix = self.array(matrix_name, (p, d))
        vector = self.array(vector_name, None)
        if vector.shape != (p,):
            raise ValueError(f"{self.path}: gating: one vector entry per matrix row required, "
                             f"{vector_name} has shape {vector.shape}, expected ({p},){self.dims}")
        if kind == "rbf" and not np.all(vector > 0):
            raise self.error(vector_name, "must be positive")
        return GatingParams(kind, matrix, vector)

    def report(self) -> TrainingReport | None:
        if "report" not in self.doc:
            return None
        report = self.get("report")
        if not isinstance(report, dict):
            raise self.error("report", "is not a training report")
        known = {f.name for f in fields(TrainingReport)} - {"q_columns"}  # never saved
        for key in report:
            if key not in known:
                raise self.error(f"report.{key}", "is not a report field")
        iterations = self.integer("report.iterations", 1)
        values = {
            "iterations": iterations,
            "objective_trace": self.array("report.objective_trace", (iterations,)).tolist(),
            "converged": self.flag("report.converged"),
            "final_violation": self.number("report.final_violation"),
        }
        for name in ("inner_iterations", "inner_nonconverged"):  # optional, 0 by default
            if name in report:
                values[name] = self.integer(f"report.{name}", 0)
        return TrainingReport(**values)


def load_model(path) -> Model:
    """Read a ``save_model`` file.  A field that is missing, of the wrong type,
    ragged, of a shape that disagrees with the others or non-finite raises a
    ``ValueError`` naming the file and the field."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a model file")
    version = doc.get("version")
    if isinstance(version, bool) or version != MODEL_VERSION:  # true == 1 in Python
        raise ValueError(f"{path}: unsupported model version {version}")
    f = _ModelFile(doc, path)
    family = f.get("family")
    if family not in FAMILIES:
        raise ValueError(f"{path}: unknown model family {family!r}")
    gated = family == "lmkad"
    kernel_field = "kernel" if family == "ocsvm" else "kernels"
    kernels = f.kernels(kernel_field)
    sv_features = f.array("sv_features", None)
    if sv_features.ndim != 2:
        raise ValueError(f"{path}: sv_features has shape {sv_features.shape}, expected (n_sv, d)")
    (n_sv, d), p = sv_features.shape, len(kernels)
    f.dims = f" (sv_features: {n_sv} x {d}; {kernel_field}: {p})"
    nu = f.number("nu")
    if not 0 < nu <= 1:
        raise f.error("nu", "is not in (0, 1]")
    normalizer = Normalizer(
        means=f.array("normalizer.means", (d,)),
        stddevs=f.array("normalizer.stddevs", (d,)),
    )
    if not np.all(normalizer.stddevs > 0):
        raise f.error("normalizer.stddevs", "must be positive")
    weights = None if gated else np.ones(1)  # OCSVM: one kernel, implied weight 1
    if family == "mkad":
        weights = f.array("weights", (p,))
        if not _on_simplex(weights):
            raise f.error("weights", "must be nonnegative and sum to 1")
    return Model(
        family=family,
        kernels=kernels,
        sv_features=sv_features,
        sv_alpha=f.array("sv_alpha", (n_sv,)),
        rho=f.number("rho"),
        normalizer=normalizer,
        nu=nu,
        n_train=f.integer("n_train", 1),
        weights=weights,
        gating=f.gating(p, d) if gated else None,
        sv_eta=f.array("sv_eta", (n_sv, p)) if gated else None,
        report=f.report(),
    )
