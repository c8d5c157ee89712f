"""One model for the three detectors: a one-class SVM over weighted kernels.

A ``Model`` combines p base kernels with per-kernel weights that are
either fixed (``weights``: OCSVM is one kernel with weight 1, MKAD uses
1/p each) or computed per row by a gating function (``gating``: LMKAD,
k(x, y) = sum_m eta_m(x) K_m(x, y) eta_m(y)).  ``family`` is a label.
One trainer core serves all three families.

The trainer core (``_fit``) is a generator that yields each dual it needs
and resumes with the solution.  ``fit_many`` drives many fits at once: each
round, every fit runs to its next dual, and the pending duals go to one
``solver.solve_duals`` call, which advances equal-size duals in lockstep
and hands the last few to the scalar loop.  Every fit keeps the iterates,
and so the model, it gets when trained alone; ``train_ocsvm``,
``train_mkad`` and ``train_lmkad`` are one-fit calls of ``fit_many``.

Trained models are immutable; ``decision_values``/``predict_batch``
normalize raw inputs internally.  ``save_model``/``load_model`` round-trip
models through a versioned JSON container (exact float round-trip).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from .dataset import Normalizer, fit_normalizer, apply_normalizer
from .gating import GatingParams, gate_eval_batch, gate_gradient, init_gating, step_gating
from .kernels import KernelSpec, format_kernel_spec, gram, parse_kernel_spec
from .solver import DualProblem, solve_duals

MODEL_FORMAT = "lmkad-model"
MODEL_VERSION = 1
FAMILIES = ("ocsvm", "mkad", "lmkad")

#: rows scored at a time by ``decision_values`` (and read at a time by ``lmkad predict``)
BLOCK_ROWS = 8192

#: estimated bytes of N x N training state that ``fit_many`` trains at once: the
#: 100 feasible fits of an iris cell (N=40) form one batch, a gpl fit at N=1000 one alone
BATCH_BYTES = 32 * 2**20

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


def _combine(grams, weights, H_X, H_Y) -> np.ndarray:
    """sum_m w_m K_m with fixed ``weights``; with ``weights=None``, entry (i,j)
    is sum_m eta_m(x_i) K_m(i,j) eta_m(y_j) for gate matrices ``H_X``, ``H_Y``.

    Each term is ``w_m * K_m`` or ``(H_X[:, m] * K_m) * H_Y[:, m]`` and the
    terms are summed left to right, built in place in a fresh output and
    one scratch buffer; the Grams are only read.
    """
    out = np.empty(np.shape(grams[0]))
    term = out
    for m, K in enumerate(grams):
        if m == 1:
            term = np.empty_like(out)
        if weights is not None:
            np.multiply(weights[m], K, out=term)
        else:
            np.multiply(H_X[:, m : m + 1], K, out=term)
            term *= H_Y[:, m]
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


def _fit(family: str, train_targets: np.ndarray, kernels, config: LmkadConfig):
    """The trainer core: z-score the targets, resolve auto bandwidths, solve the dual.

    A generator driven by ``fit_many``: it yields each dual it needs as
    ``(DualProblem, alpha0)``, is sent the ``DualSolution`` back, and
    returns the ``Model``.  Fixed weights take one solve.  Gates
    alternate: each outer iteration evaluates them, solves the dual on
    the locally combined kernel (warm-started), then steps the gating
    parameters down the gradient of the dual objective.  The model keeps
    the gating of the final solve.
    """
    X = np.atleast_2d(np.asarray(train_targets, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("need at least one training row")
    norm = fit_normalizer(X)
    Xn = apply_normalizer(norm, X)
    kernels = tuple(k.resolved(Xn) for k in resolve_kernels(kernels))
    p = len(kernels)
    grams = [gram(k, Xn, Xn) for k in kernels]

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
    trace: list[float] = []
    converged = False
    inner_total = 0
    for t in range(max_outer):
        if gating is not None:
            H = gate_eval_batch(gating, Xn)
        # keep Q until the next is built: freeing it per solve re-faults N x N pages (~10 % slower)
        Q = _combine(grams, weights, H, H)
        sol = yield DualProblem(Q, config.nu), alpha_prev
        inner_total += sol.iterations
        trace.append(-sol.objective)  # dual objective J(eta)
        if len(trace) >= 2:
            change = abs(trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-12)
            if change <= config.outer_tol:
                converged = True
                break
        if t == max_outer - 1:
            break
        grad = gate_gradient(gating, sol.alpha, Xn, grams, H)
        if not grad.is_finite():
            raise RuntimeError(
                f"non-finite gating gradient at outer iteration {t} "
                f"(kind={gating.kind}, nu={config.nu})"
            )
        gating = step_gating(gating, grad, config.learning_rate * config.lr_decay**t)
        alpha_prev = sol.alpha

    sv = sol.support_indices
    report = TrainingReport(
        iterations=len(trace),
        objective_trace=trace,
        converged=converged if gating is not None else sol.converged,
        final_violation=sol.final_violation,
        inner_iterations=inner_total,
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


def _batches(jobs: list[FitJob]):
    """Consecutive runs of job indices whose estimated N x N state fits ``BATCH_BYTES``."""
    batch: list[int] = []
    used = 0
    for k, job in enumerate(jobs):
        n = np.atleast_2d(np.asarray(job.train_targets)).shape[0]
        # the base Grams, the combined Gram and its transposed copy in the lockstep stack
        size = (len(resolve_kernels(job.kernels)) + 2) * n * n * 8
        if batch and used + size > BATCH_BYTES:
            yield batch
            batch, used = [], 0
        batch.append(k)
        used += size
    if batch:
        yield batch


def fit_many(jobs) -> list[Model]:
    """Train every ``FitJob``; each model equals the one it would get alone.

    Jobs are admitted in consecutive batches under ``BATCH_BYTES`` of
    live N x N state.  Within a batch every fit runs its trainer core up
    to its next dual, and the pending duals of a round that share solver
    settings go to one ``solve_duals`` call, which keeps every iterate of
    a lone solve.  Gates, kernel combination, validation and the
    gradient stay per fit.  The first training error propagates.
    """
    jobs = list(jobs)
    models: list[Model | None] = [None] * len(jobs)
    for batch in _batches(jobs):
        pending = {}
        for k in batch:
            fit = _fit(*jobs[k])
            pending[k] = (fit, next(fit))
        while pending:
            rounds: dict[tuple, list[int]] = {}
            for k in pending:
                c = jobs[k].config
                rounds.setdefault((c.inner_tol, c.inner_max_iter, c.rho_mode), []).append(k)
            for (tol, max_iter, rho_mode), keys in rounds.items():
                solutions = solve_duals(
                    [pending[k][1][0] for k in keys],
                    [pending[k][1][1] for k in keys],
                    tol=tol,
                    max_iter=max_iter,
                    rho_mode=rho_mode,
                )
                for k, sol in zip(keys, solutions):
                    fit = pending[k][0]
                    try:
                        pending[k] = (fit, fit.send(sol))
                    except StopIteration as done:
                        models[k] = done.value
                        del pending[k]
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
    """Alternating optimization of the dual and the gating parameters (see ``_fit``)."""
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


def _gating_to_dict(g: GatingParams) -> dict:
    if g.kind == "rbf":
        return {"kind": "rbf", "centers": g.centers.tolist(), "spreads": g.spreads.tolist()}
    return {"kind": g.kind, "v": g.v.tolist(), "v0": g.v0.tolist()}


def _gating_from_dict(d: dict, path) -> GatingParams:
    names = ("centers", "spreads") if d["kind"] == "rbf" else ("v", "v0")
    return GatingParams(kind=d["kind"], **{n: _array(path, f"gating.{n}", d[n]) for n in names})


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
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a model file")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {doc.get('version')}")
    family = doc["family"]
    if family not in FAMILIES:
        raise ValueError(f"{path}: unknown model family {family!r}")
    gated = family == "lmkad"
    tokens = [doc["kernel"]] if family == "ocsvm" else doc["kernels"]
    weights = doc["weights"] if family == "mkad" else [1.0]
    model = Model(
        family=family,
        kernels=tuple(parse_kernel_spec(t) for t in tokens),
        sv_features=_array(path, "sv_features", doc["sv_features"]),
        sv_alpha=_array(path, "sv_alpha", doc["sv_alpha"]),
        rho=_field(path, "rho", doc["rho"], float, "a number"),
        normalizer=Normalizer(
            means=_array(path, "normalizer.means", doc["normalizer"]["means"]),
            stddevs=_array(path, "normalizer.stddevs", doc["normalizer"]["stddevs"]),
        ),
        nu=_field(path, "nu", doc["nu"], float, "a number"),
        n_train=_field(path, "n_train", doc["n_train"], int, "an integer"),
        weights=None if gated else _array(path, "weights", weights),
        gating=_gating_from_dict(doc["gating"], path) if gated else None,
        sv_eta=_array(path, "sv_eta", doc["sv_eta"]) if gated else None,
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
        g = model.gating
        matrix, vector = ("centers", "spreads") if g.kind == "rbf" else ("v", "v0")
        fields[f"gating.{matrix}"] = (getattr(g, matrix), (p, d))
        fields[f"gating.{vector}"] = (getattr(g, vector), (p,))
    for name, (value, shape) in fields.items():
        if value.shape != shape:
            raise ValueError(f"{path}: {name} has shape {value.shape}, expected {shape}")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{path}: {name} holds a non-finite value")
    if model.weights is not None and not _on_simplex(model.weights):
        raise ValueError(f"{path}: weights must be nonnegative and sum to 1")
