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
combination, one validation pass (``solver.check_duals``), the duals
(lockstep SMO with a scalar tail), the per-fit stopping test, and the
stacked gating gradient and step.  The duals of all stacks that share N
and the inner-solver knobs are solved by one ``solver.solve_duals`` call
per round, so e.g. every fit of a benchmark worker's cells at N = 40
shares one lockstep.  Every fit keeps the iterates, and so the model, it
gets when trained alone;
``tests/fit_reference.py`` keeps the one-fit loop that pins this.
``train_ocsvm``, ``train_mkad`` and ``train_lmkad`` are one-fit calls of
``fit_many``.

Trained models are immutable; ``decision_values``/``predict_batch``
normalize raw inputs internally.  ``save_model``/``load_model`` round-trip
models through a versioned JSON container (exact float round-trip).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, asdict
from typing import NamedTuple

import numpy as np

from .dataset import Normalizer, fit_normalizer, apply_normalizer
from .gating import (GATING_KINDS, PAIR_FIELDS, GatingParams, gate_eval_batch, gate_stack, gradient_stack,
                     init_gating, step_stack)
from .kernels import KernelSpec, format_kernel_spec, gram, parse_kernel_spec
from .solver import RHO_MODES, check_duals, solve_duals

MODEL_FORMAT = "lmkad-model"
MODEL_VERSION = 1
FAMILIES = ("ocsvm", "mkad", "lmkad")

#: rows scored at a time by ``decision_values`` (and read at a time by ``lmkad predict``)
BLOCK_ROWS = 8192

#: estimated bytes of N x N training state that ``fit_many`` trains at once.  A
#: fit holds (p + 3) N x N float64 arrays: its p base Grams, its Q, the scratch
#: that composition and the symmetry check share, and the lockstep's transposed
#: copy of Q.  At 128 MiB one worker's share of the iris protocol under
#: ``lmkad benchmark --jobs 2`` (17 or 16 cells, 1,700 or 1,600 fits at
#: N=40, ~115 MB estimated) forms one batch, and a gpl fit at N=1000
#: (48 MB) runs alone.  A worker's peak RSS on that protocol is ~180 MB
#: (~54 MB at 32 MiB, which admitted ~4 cells a batch).
BATCH_BYTES = 128 * 2**20

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


@dataclass
class TrainingReport:
    iterations: int
    objective_trace: list[float]
    converged: bool
    final_violation: float
    inner_iterations: int = 0


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
    """Knobs of the trainer; fixed-weight fits use only the nu and inner-solver ones.

    The step size at outer iteration t is ``learning_rate * lr_decay**t``;
    the loop stops when the relative change of the dual objective falls
    below ``outer_tol`` or after ``max_outer`` iterations.
    ``initial_gating`` overrides the seeded random init when given.
    """

    nu: float
    gating_kind: str = "sigmoid"
    learning_rate: float = 20.0
    lr_decay: float = 0.95
    outer_tol: float = 1e-4
    max_outer: int = 100
    inner_tol: float = 1e-6
    inner_max_iter: int | None = None
    seed: int = 0
    rho_mode: str = "margin"
    initial_gating: GatingParams | None = None

    def __post_init__(self):
        if self.gating_kind not in GATING_KINDS:
            raise ValueError(f"unknown gating kind {self.gating_kind!r}")
        if self.rho_mode not in RHO_MODES:
            raise ValueError(f"unknown rho mode {self.rho_mode!r}")
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must be in (0, 1]")
        if not self.outer_tol > 0:
            raise ValueError("outer_tol must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.inner_max_iter is not None and self.inner_max_iter < 1:
            raise ValueError("inner_max_iter must be >= 1")


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


def _prepare(train_targets, specs):
    """Z-score the target rows and resolve auto bandwidths on them."""
    X = np.atleast_2d(np.asarray(train_targets, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("need at least one training row")
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


class _Stack:
    """Fits that train as one array program; row r is job ``jobs[r]``.

    The fits share family, kernel specs, N, d, gating kind and every
    ``LmkadConfig`` field but ``PER_FIT_FIELDS``, so every round is the
    same sequence of numpy calls on (B, ...) arrays: rows ``Xn`` (B, N, d),
    base Grams (B, p, N, N), the gating pair (B, p, d) and (B, p), gates
    ``H`` (B, N, p), ``q`` (B, N, N) and warm starts (B, N).  ``q`` and
    the scratch buffer shared by composition and the symmetry check are
    allocated once; fits that stop are compacted out of every array.
    """

    def __init__(self, jobs, members, prepared):
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
        filled: dict[tuple, int] = {}  # the Grams of a training matrix are computed once
        for r, (_, key, _) in enumerate(members):
            Xn = prepared[key][1]
            self.Xn[r] = Xn
            if key in filled:
                self.grams[r] = self.grams[filled[key]]
                continue
            filled[key] = r
            for m, spec in enumerate(self.kernels[r]):
                self.grams[r, m] = gram(spec, Xn, Xn)
        gatings = [gating for _, _, gating in members]
        self.kind = None if gatings[0] is None else gatings[0].kind
        self.weights = np.full(p, 1.0 / p) if self.kind is None else None
        self.pair = None if self.kind is None else (np.stack([g.matrix for g in gatings]),
                                                     np.stack([g.vector for g in gatings]))
        self.H = None
        self.q = np.empty((b, n, n))
        self.scratch = np.empty((b, n, n))
        self.alpha = self.prev = None
        self.inner = np.zeros(b, dtype=np.int64)
        self.traces: list[list[float]] = [[] for _ in range(b)]

    def compose(self) -> dict[int, str]:
        """Evaluate the gates and build every fit's Q; ``check_duals``' verdict on them."""
        if self.kind is not None:
            self.H = gate_stack(self.kind, self.Xn, *self.pair)
        _combine(self.grams.swapaxes(0, 1), self.weights, self.H, self.H, self.q, self.scratch)
        return check_duals(self.q, self.nus, self.scratch)

    def advance(self, t: int, sols, lo: int, models: list, failures: dict) -> None:
        """Take outer iteration ``t``'s duals (rows ``lo:`` of ``sols``), finish
        the fits that stop, step the rest."""
        c = self.config
        rows = slice(lo, lo + len(self.jobs))
        objective = -sols.objective[rows]  # the dual objective J(eta)
        self.inner += sols.iterations[rows]
        for trace, value in zip(self.traces, objective.tolist()):
            trace.append(value)
        converged = np.zeros(len(self.jobs), dtype=bool)
        if t:
            change = np.abs(objective - self.prev) / np.maximum(np.abs(self.prev), 1e-12)
            converged = change <= c.outer_tol
        last = t == (c.max_outer if self.kind is not None else 1) - 1
        stop = converged | last
        for r in np.flatnonzero(stop).tolist():
            models[self.jobs[r]] = self._model(r, sols[lo + r], bool(converged[r]))
        keep = np.flatnonzero(~stop).tolist()
        self._keep(keep)
        if not keep:
            return
        alpha, objective = sols.alpha[rows][keep], objective[keep]
        grad = gradient_stack(self.kind, *self.pair, alpha, self.Xn, self.grams, self.H)
        finite = np.isfinite(grad[0]).all(axis=(1, 2)) & np.isfinite(grad[1]).all(axis=1)
        if not finite.all():
            for r in np.flatnonzero(~finite).tolist():
                failures.setdefault(self.jobs[r], RuntimeError(
                    f"non-finite gating gradient at outer iteration {t} "
                    f"(kind={self.kind}, nu={self.nus[r]})"
                ))
            keep = np.flatnonzero(finite).tolist()
            self._keep(keep)
            alpha, objective, grad = alpha[keep], objective[keep], (grad[0][keep], grad[1][keep])
        self.pair = step_stack(self.kind, *self.pair, *grad, c.learning_rate * c.lr_decay**t)
        self.alpha, self.prev = alpha, objective

    def _keep(self, keep: list[int]) -> None:
        if len(keep) == len(self.jobs):
            return
        for name in ("jobs", "nus", "norms", "kernels", "traces"):
            setattr(self, name, [getattr(self, name)[r] for r in keep])
        self.Xn, self.grams = _compact(self.Xn, keep), _compact(self.grams, keep)
        self.q, self.scratch = self.q[: len(keep)], self.scratch[: len(keep)]  # rebuilt each round
        self.inner = self.inner[keep]
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


def _stacks(jobs: list[FitJob], batch: list[int], failures: dict) -> list[_Stack]:
    """Set up a batch's jobs and group them into stacks, in job order.

    The normalizer, the resolved kernels and the Grams are computed once
    per distinct training matrix (the same object: a fold's candidates
    share one).  A job whose set-up raises goes to ``failures``.
    """
    prepared: dict[tuple, tuple] = {}
    groups: dict[tuple, list] = {}
    for k in batch:
        family, train_targets, kernels, config = jobs[k]
        try:
            specs = resolve_kernels(kernels)
            key = (id(train_targets), specs)
            if key not in prepared:
                prepared[key] = _prepare(train_targets, specs)
            Xn = prepared[key][1]
            gating = _initial_gating(family, config, len(specs), Xn)
        except Exception as exc:  # noqa: BLE001 - re-raised by fit_many in job order
            failures.setdefault(k, exc)
            continue
        knobs = tuple(getattr(config, f.name) for f in fields(config) if f.name not in PER_FIT_FIELDS)
        group = (family, specs, Xn.shape, None if gating is None else gating.kind, knobs)
        groups.setdefault(group, []).append((k, key, gating))
    return [_Stack(jobs, members, prepared) for members in groups.values()]


def _batches(jobs: list[FitJob]):
    """Consecutive runs of job indices whose estimated N x N state fits ``BATCH_BYTES``."""
    batch: list[int] = []
    used = 0
    for k, job in enumerate(jobs):
        n = np.atleast_2d(np.asarray(job.train_targets)).shape[0]
        size = (len(resolve_kernels(job.kernels)) + 3) * n * n * 8
        if batch and used + size > BATCH_BYTES:
            yield batch
            batch, used = [], 0
        batch.append(k)
        used += size
    if batch:
        yield batch


def _solve_round(stacks: list[_Stack], t: int, models: list, failures: dict) -> None:
    """Solve every composed stack's duals and advance each stack.

    Stacks that share N and the inner-solver knobs are solved by one
    ``solve_duals`` call, their Q arrays passed as they are.  The stacks
    of a batch share the round, so a group is all cold (t = 0, no warm
    start) or all warm.
    """
    groups: dict[tuple, list[_Stack]] = {}
    for stack in stacks:
        c = stack.config
        groups.setdefault((stack.q.shape[1], c.inner_tol, c.inner_max_iter, c.rho_mode), []).append(stack)
    for group in groups.values():
        c = group[0].config
        nus = [nu for stack in group for nu in stack.nus]
        alpha0 = None if t == 0 else np.concatenate([stack.alpha for stack in group])
        sols = solve_duals([stack.q for stack in group], nus, alpha0, c.inner_tol, c.inner_max_iter, c.rho_mode)
        starts = np.cumsum([0] + [len(stack.jobs) for stack in group]).tolist()
        for stack, lo in zip(group, starts):  # advancing compacts a stack's jobs
            stack.advance(t, sols, lo, models, failures)


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
    round) as one array program: gates and composition, one
    ``check_duals`` pass, then, once every stack has composed, one
    ``solve_duals`` call per group of stacks that share N and the
    inner-solver knobs, the objective test, gradient and step.

    If any fit fails, training stops at the end of the round in which it
    failed (a job whose set-up fails counts as failing in round 0), and
    the error of the lowest failing job index of that round propagates:
    the error that job raises alone.  Batches run in job order, so of
    the jobs that fail it is the first batch's that decides.
    """
    jobs = list(jobs)
    models: list[Model | None] = [None] * len(jobs)
    for batch in _batches(jobs):
        failures: dict[int, Exception] = {}
        stacks = _stacks(jobs, batch, failures)
        t = 0
        while stacks:
            for stack in stacks:
                for r, message in stack.compose().items():
                    failures.setdefault(stack.jobs[r], ValueError(message))
            if failures:
                break
            _solve_round(stacks, t, models, failures)
            if failures:
                break
            stacks = [stack for stack in stacks if stack.jobs]
            t += 1
        if failures:
            raise failures[min(failures)]
    return models


def train_ocsvm(
    train_targets: np.ndarray,
    kernel: KernelSpec,
    nu: float,
    tol: float = 1e-6,
    max_iter: int | None = None,
    rho_mode: str = "margin",
) -> Model:
    """Fit a single-kernel one-class SVM on target-class rows."""
    config = LmkadConfig(nu=nu, inner_tol=tol, inner_max_iter=max_iter, rho_mode=rho_mode)
    return fit_many([FitJob("ocsvm", train_targets, (kernel,), config)])[0]


def train_mkad(
    train_targets: np.ndarray,
    kernels,
    nu: float,
    tol: float = 1e-6,
    max_iter: int | None = None,
    rho_mode: str = "margin",
) -> Model:
    """One-class SVM over the uniform fixed-weight kernel combination."""
    config = LmkadConfig(nu=nu, inner_tol=tol, inner_max_iter=max_iter, rho_mode=rho_mode)
    return fit_many([FitJob("mkad", train_targets, kernels, config)])[0]


def train_lmkad(train_targets: np.ndarray, kernels, config: LmkadConfig) -> Model:
    """Alternating optimization of the dual and the gating parameters (see ``fit_many``)."""
    return fit_many([FitJob("lmkad", train_targets, kernels, config)])[0]


def _decision_block(model: Model, Xn: np.ndarray) -> np.ndarray:
    H = None if model.gating is None else gate_eval_batch(model.gating, Xn)
    K = _combine([gram(k, Xn, model.sv_features) for k in model.kernels], model.weights, H, model.sv_eta)
    return K @ model.sv_alpha - model.rho


def decision_values(model: Model, X: np.ndarray) -> np.ndarray:
    """Decision function on raw inputs (normalization applied internally).

    Rows are scored in consecutive blocks of ``BLOCK_ROWS`` starting at
    row 0, so scoring memory is bounded by one block's rows x SVs Grams,
    whatever the number of rows.  The block grid is fixed: a caller that
    slices its input at multiples of ``BLOCK_ROWS`` gets the same values
    bit for bit as one call on the whole input.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Xn = apply_normalizer(model.normalizer, X)
    out = np.empty(Xn.shape[0])
    for start in range(0, Xn.shape[0], BLOCK_ROWS):
        out[start : start + BLOCK_ROWS] = _decision_block(model, Xn[start : start + BLOCK_ROWS])
    return out


def predict_batch(model: Model, X: np.ndarray) -> np.ndarray:
    """+1 for targets, -1 for outliers; the boundary f=0 counts as target."""
    return np.where(decision_values(model, X) >= 0.0, 1, -1)


def sv_count(model: Model) -> int:
    return int(model.sv_alpha.shape[0])


# --- serialization ---------------------------------------------------------


def _field(path, name: str, value, convert, expected: str):
    """``convert(value)`` for a model-file field, naming the file and field when it fails."""
    try:
        return convert(value)
    except (ValueError, TypeError):
        raise ValueError(f"{path}: {name} is not {expected}") from None


def _array(path, name: str, value) -> np.ndarray:
    return _field(path, name, value, lambda v: np.asarray(v, dtype=float), "a rectangular numeric array")


def _get(doc: dict, path, name: str):
    """The model-file field at dotted ``name``; a missing one names the file and field."""
    value = doc
    keys = name.split(".")
    for depth, key in enumerate(keys, 1):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"{path}: {'.'.join(keys[:depth])} is missing")
        value = value[key]
    return value


def _gating_to_dict(g: GatingParams) -> dict:
    matrix, vector = PAIR_FIELDS[g.kind]
    return {"kind": g.kind, matrix: g.matrix.tolist(), vector: g.vector.tolist()}


def _gating_from_dict(doc: dict, path) -> GatingParams:
    kind = _get(doc, path, "gating.kind")
    if kind not in PAIR_FIELDS:
        raise ValueError(f"{path}: gating.kind {kind!r} is not one of {', '.join(PAIR_FIELDS)}")
    pair = [_array(path, f"gating.{name}", _get(doc, path, f"gating.{name}")) for name in PAIR_FIELDS[kind]]
    try:
        return GatingParams(kind, *pair)
    except ValueError as exc:
        raise ValueError(f"{path}: gating: {exc}") from None


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path) -> Model:
    """Read a ``save_model`` file; ragged, mismatched or non-finite fields raise."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a model file")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {doc.get('version')}")

    def get(name):
        return _get(doc, path, name)

    family = get("family")
    if family not in FAMILIES:
        raise ValueError(f"{path}: unknown model family {family!r}")
    gated = family == "lmkad"
    tokens = [get("kernel")] if family == "ocsvm" else get("kernels")
    weights = get("weights") if family == "mkad" else [1.0]
    model = Model(
        family=family,
        kernels=tuple(parse_kernel_spec(t) for t in tokens),
        sv_features=_array(path, "sv_features", get("sv_features")),
        sv_alpha=_array(path, "sv_alpha", get("sv_alpha")),
        rho=_field(path, "rho", get("rho"), float, "a number"),
        normalizer=Normalizer(
            means=_array(path, "normalizer.means", get("normalizer.means")),
            stddevs=_array(path, "normalizer.stddevs", get("normalizer.stddevs")),
        ),
        nu=_field(path, "nu", get("nu"), float, "a number"),
        n_train=_field(path, "n_train", get("n_train"), int, "an integer"),
        weights=None if gated else _array(path, "weights", weights),
        gating=_gating_from_dict(doc, path) if gated else None,
        sv_eta=_array(path, "sv_eta", get("sv_eta")) if gated else None,
        report=(
            _field(path, "report", doc["report"], lambda d: TrainingReport(**d), "a training report")
            if "report" in doc
            else None
        ),
    )
    _check_loaded(model, path)
    return model


def _check_loaded(model: Model, path) -> None:
    """Reject a model whose arrays disagree in shape or hold non-finite values."""
    if model.sv_features.ndim != 2:
        shape = model.sv_features.shape
        raise ValueError(f"{path}: sv_features has shape {shape}, expected (n_sv, d)")
    n_sv, d = model.sv_features.shape
    p = len(model.kernels)
    fields = {
        "rho": (np.float64(model.rho), ()),
        "sv_features": (model.sv_features, (n_sv, d)),
        "sv_alpha": (model.sv_alpha, (n_sv,)),
        "normalizer.means": (model.normalizer.means, (d,)),
        "normalizer.stddevs": (model.normalizer.stddevs, (d,)),
    }
    if model.weights is not None:
        fields["weights"] = (model.weights, (p,))
    if model.gating is not None:
        fields["sv_eta"] = (model.sv_eta, (n_sv, p))
        matrix, vector = PAIR_FIELDS[model.gating.kind]
        fields[f"gating.{matrix}"] = (model.gating.matrix, (p, d))
        fields[f"gating.{vector}"] = (model.gating.vector, (p,))
    for name, (value, shape) in fields.items():
        if value.shape != shape:
            raise ValueError(f"{path}: {name} has shape {value.shape}, expected {shape}")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{path}: {name} holds a non-finite value")
    if model.weights is not None and not _on_simplex(model.weights):
        raise ValueError(f"{path}: weights must be nonnegative and sum to 1")
