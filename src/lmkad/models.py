"""The three model families: OCSVM, MKAD, and LMKAD.

All trainers fit a z-score normalizer on the training targets, resolve
auto Gaussian bandwidths on the normalized data, solve the dual QP, and
keep only support vectors.  LMKAD alternates between solving the dual on
the locally combined kernel and taking one gradient step on the gating
parameters, with a decaying step size.

Trained models are immutable; ``decision_values``/``predict_batch``
normalize raw inputs internally.  ``save_model``/``load_model`` round-trip
models through a versioned JSON container (exact float round-trip).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .dataset import Normalizer, fit_normalizer, apply_normalizer
from .gating import GatingParams, gate_eval_batch, gate_gradient, init_gating, step_gating
from .kernels import KernelSpec, format_kernel_spec, gram, parse_kernel_spec
from .solver import DualProblem, DualSolution, solve_dual

MODEL_FORMAT = "lmkad-model"
MODEL_VERSION = 1

#: rows scored at a time by ``decision_values`` (and read at a time by ``lmkad predict``)
BLOCK_ROWS = 8192

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
class OcsvmModel:
    sv_features: np.ndarray
    sv_alpha: np.ndarray
    kernel: KernelSpec
    rho: float
    normalizer: Normalizer
    nu: float
    n_train: int
    report: TrainingReport = field(repr=False, default=None)

    family = "ocsvm"


@dataclass(frozen=True)
class MkadModel:
    sv_features: np.ndarray
    sv_alpha: np.ndarray
    kernels: tuple[KernelSpec, ...]
    weights: np.ndarray
    rho: float
    normalizer: Normalizer
    nu: float
    n_train: int
    report: TrainingReport = field(repr=False, default=None)

    family = "mkad"


@dataclass(frozen=True)
class LmkadModel:
    sv_features: np.ndarray
    sv_alpha: np.ndarray
    sv_eta: np.ndarray
    kernels: tuple[KernelSpec, ...]
    gating: GatingParams
    rho: float
    normalizer: Normalizer
    nu: float
    n_train: int
    report: TrainingReport = field(repr=False, default=None)

    family = "lmkad"


@dataclass(frozen=True)
class LmkadConfig:
    """Knobs of the alternating trainer.

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


def _prepare(train_targets: np.ndarray):
    X = np.atleast_2d(np.asarray(train_targets, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("need at least one training row")
    norm = fit_normalizer(X)
    return apply_normalizer(norm, X), norm


def _report_from(sol: DualSolution, trace=None, converged=None) -> TrainingReport:
    return TrainingReport(
        iterations=len(trace) if trace is not None else 1,
        objective_trace=list(trace) if trace is not None else [-sol.objective],
        converged=sol.converged if converged is None else converged,
        final_violation=sol.final_violation,
        inner_iterations=sol.iterations,
    )


def train_ocsvm(
    train_targets: np.ndarray,
    kernel: KernelSpec,
    nu: float,
    tol: float = 1e-6,
    max_iter: int | None = None,
    rho_mode: str = "margin",
) -> OcsvmModel:
    """Fit a single-kernel one-class SVM on target-class rows."""
    Xn, norm = _prepare(train_targets)
    kernel = kernel.resolved(Xn)
    sol = solve_dual(DualProblem(gram(kernel, Xn, Xn), nu), tol=tol, max_iter=max_iter, rho_mode=rho_mode)
    sv = sol.support_indices
    return OcsvmModel(
        sv_features=Xn[sv],
        sv_alpha=sol.alpha[sv],
        kernel=kernel,
        rho=sol.rho,
        normalizer=norm,
        nu=nu,
        n_train=Xn.shape[0],
        report=_report_from(sol),
    )


def composite_gram_fixed(kernels, weights, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Convex combination sum_m w_m K_m(X, Y); weights must lie on the simplex."""
    weights = np.asarray(weights, dtype=float).ravel()
    if len(kernels) != weights.shape[0]:
        raise ValueError("one weight per kernel required")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    out = None
    for w, k in zip(weights, kernels):
        term = w * gram(k, X, Y)
        out = term if out is None else out + term
    return out


def train_mkad(
    train_targets: np.ndarray,
    kernels,
    nu: float,
    tol: float = 1e-6,
    max_iter: int | None = None,
    rho_mode: str = "margin",
) -> MkadModel:
    """One-class SVM over the uniform fixed-weight kernel combination."""
    Xn, norm = _prepare(train_targets)
    kernels = tuple(k.resolved(Xn) for k in resolve_kernels(kernels))
    weights = np.full(len(kernels), 1.0 / len(kernels))
    Q = composite_gram_fixed(kernels, weights, Xn, Xn)
    sol = solve_dual(DualProblem(Q, nu), tol=tol, max_iter=max_iter, rho_mode=rho_mode)
    sv = sol.support_indices
    return MkadModel(
        sv_features=Xn[sv],
        sv_alpha=sol.alpha[sv],
        kernels=kernels,
        weights=weights,
        rho=sol.rho,
        normalizer=norm,
        nu=nu,
        n_train=Xn.shape[0],
        report=_report_from(sol),
    )


def _combine_localized(grams, H_X: np.ndarray, H_Y: np.ndarray) -> np.ndarray:
    out = None
    for m, K in enumerate(grams):
        term = H_X[:, m : m + 1] * np.asarray(K) * H_Y[:, m][None, :]
        out = term if out is None else out + term
    return out


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
    grams = [gram(k, X, Y) for k in kernels]
    return _combine_localized(grams, H_X, H_Y)


def train_lmkad(train_targets: np.ndarray, kernels, config: LmkadConfig) -> LmkadModel:
    """Alternating optimization of the dual and the gating parameters.

    Each outer iteration evaluates the gates, solves the one-class dual on
    the locally combined kernel (warm-started from the previous
    multipliers), then moves the gating parameters one step down the
    gradient of the dual objective.  The stored model keeps the gating
    that produced the final solve, so multipliers and gates stay
    consistent.
    """
    Xn, norm = _prepare(train_targets)
    kernels = tuple(k.resolved(Xn) for k in resolve_kernels(kernels))
    p = len(kernels)
    grams = [gram(k, Xn, Xn) for k in kernels]

    if config.initial_gating is not None:
        gating = config.initial_gating
        if gating.p != p or gating.d != Xn.shape[1]:
            raise ValueError("initial_gating shape does not match kernels/data")
    else:
        gating = init_gating(config.gating_kind, p, Xn.shape[1], Xn, config.seed)

    alpha_prev = None
    trace: list[float] = []
    converged = False
    sol = None
    H = None
    inner_total = 0
    for t in range(config.max_outer):
        H = gate_eval_batch(gating, Xn)
        Q = _combine_localized(grams, H, H)
        sol = solve_dual(
            DualProblem(Q, config.nu),
            tol=config.inner_tol,
            max_iter=config.inner_max_iter,
            alpha0=alpha_prev,
            rho_mode=config.rho_mode,
        )
        inner_total += sol.iterations
        trace.append(-sol.objective)  # dual objective J(eta)
        if len(trace) >= 2:
            change = abs(trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-12)
            if change <= config.outer_tol:
                converged = True
                break
        if t == config.max_outer - 1:
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
        converged=converged,
        final_violation=sol.final_violation,
        inner_iterations=inner_total,
    )
    return LmkadModel(
        sv_features=Xn[sv],
        sv_alpha=sol.alpha[sv],
        sv_eta=H[sv],
        kernels=kernels,
        gating=gating,
        rho=sol.rho,
        normalizer=norm,
        nu=config.nu,
        n_train=Xn.shape[0],
        report=report,
    )


def _decision_block(model, Xn: np.ndarray) -> np.ndarray:
    if isinstance(model, OcsvmModel):
        return gram(model.kernel, Xn, model.sv_features) @ model.sv_alpha - model.rho
    if isinstance(model, MkadModel):
        K = composite_gram_fixed(model.kernels, model.weights, Xn, model.sv_features)
        return K @ model.sv_alpha - model.rho
    if isinstance(model, LmkadModel):
        H = gate_eval_batch(model.gating, Xn)
        K = composite_gram_localized(
            model.kernels, model.gating, Xn, model.sv_features, H_X=H, H_Y=model.sv_eta
        )
        return K @ model.sv_alpha - model.rho
    raise TypeError(f"not a trained model: {type(model)!r}")


def decision_values(model, X: np.ndarray) -> np.ndarray:
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


def decision_value(model, x: np.ndarray) -> float:
    return float(decision_values(model, np.asarray(x, dtype=float).reshape(1, -1))[0])


def predict_batch(model, X: np.ndarray) -> np.ndarray:
    """+1 for targets, -1 for outliers; the boundary f=0 counts as target."""
    return np.where(decision_values(model, X) >= 0.0, 1, -1)


def predict(model, x: np.ndarray) -> int:
    return 1 if decision_value(model, x) >= 0.0 else -1


def sv_count(model) -> int:
    return int(model.sv_alpha.shape[0])


# --- serialization ---------------------------------------------------------


def _gating_to_dict(g: GatingParams) -> dict:
    if g.kind == "rbf":
        return {"kind": "rbf", "centers": g.centers.tolist(), "spreads": g.spreads.tolist()}
    return {"kind": g.kind, "v": g.v.tolist(), "v0": g.v0.tolist()}


def _gating_from_dict(d: dict) -> GatingParams:
    if d["kind"] == "rbf":
        return GatingParams(kind="rbf", centers=np.asarray(d["centers"]), spreads=np.asarray(d["spreads"]))
    return GatingParams(kind=d["kind"], v=np.asarray(d["v"]), v0=np.asarray(d["v0"]))


def save_model(model, path) -> None:
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
    if isinstance(model, OcsvmModel):
        doc["kernel"] = format_kernel_spec(model.kernel)
    elif isinstance(model, MkadModel):
        doc["kernels"] = [format_kernel_spec(k) for k in model.kernels]
        doc["weights"] = model.weights.tolist()
    elif isinstance(model, LmkadModel):
        doc["kernels"] = [format_kernel_spec(k) for k in model.kernels]
        doc["gating"] = _gating_to_dict(model.gating)
        doc["sv_eta"] = model.sv_eta.tolist()
    else:
        raise TypeError(f"not a trained model: {type(model)!r}")
    if model.report is not None:
        doc["report"] = asdict(model.report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path):
    """Read a ``save_model`` file; fields of mismatched shape or non-finite values raise."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a model file")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {doc.get('version')}")
    norm = Normalizer(
        means=np.asarray(doc["normalizer"]["means"], dtype=float),
        stddevs=np.asarray(doc["normalizer"]["stddevs"], dtype=float),
    )
    report = TrainingReport(**doc["report"]) if "report" in doc else None
    common = dict(
        sv_features=np.asarray(doc["sv_features"], dtype=float),
        sv_alpha=np.asarray(doc["sv_alpha"], dtype=float),
        rho=float(doc["rho"]),
        normalizer=norm,
        nu=float(doc["nu"]),
        n_train=int(doc["n_train"]),
        report=report,
    )
    family = doc["family"]
    if family == "ocsvm":
        model = OcsvmModel(kernel=parse_kernel_spec(doc["kernel"]), **common)
    elif family == "mkad":
        model = MkadModel(
            kernels=tuple(parse_kernel_spec(t) for t in doc["kernels"]),
            weights=np.asarray(doc["weights"], dtype=float),
            **common,
        )
    elif family == "lmkad":
        model = LmkadModel(
            kernels=tuple(parse_kernel_spec(t) for t in doc["kernels"]),
            gating=_gating_from_dict(doc["gating"]),
            sv_eta=np.asarray(doc["sv_eta"], dtype=float),
            **common,
        )
    else:
        raise ValueError(f"{path}: unknown model family {family!r}")
    _check_loaded(model, path)
    return model


def _check_loaded(model, path) -> None:
    """Reject a model whose arrays disagree in shape or hold non-finite values."""
    if model.sv_features.ndim != 2:
        shape = model.sv_features.shape
        raise ValueError(f"{path}: sv_features has shape {shape}, expected (n_sv, d)")
    n_sv, d = model.sv_features.shape
    fields = {
        "rho": (np.float64(model.rho), ()),
        "sv_features": (model.sv_features, (n_sv, d)),
        "sv_alpha": (model.sv_alpha, (n_sv,)),
        "normalizer.means": (model.normalizer.means, (d,)),
        "normalizer.stddevs": (model.normalizer.stddevs, (d,)),
    }
    if isinstance(model, MkadModel):
        fields["weights"] = (model.weights, (len(model.kernels),))
    if isinstance(model, LmkadModel):
        p = len(model.kernels)
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
