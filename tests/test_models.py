import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from lmkad.dataset import apply_normalizer, split_for_occ
from lmkad.gating import GatingParams, gate_eval_batch
from lmkad.kernels import KernelSpec, gram
from lmkad.models import (
    BLOCK_ROWS,
    KERNEL_PRESETS,
    FitJob,
    LmkadConfig,
    composite_gram_fixed,
    composite_gram_localized,
    decision_values,
    fit_many,
    load_model,
    predict_batch,
    resolve_kernels,
    save_model,
    sv_count,
    train_lmkad,
    train_mkad,
    train_ocsvm,
)
from lmkad import models as models_module
from lmkad.evaluation import sv_fraction
from combine_reference import reference_combine
from fit_reference import reference_fit
from oracles import kernel_eval, kkt_violation

GAUSS1 = KernelSpec("gaussian", sigma_sq=1.0)


def blob(seed=0, n=30, d=3):
    rng = np.random.default_rng(seed)
    return rng.normal(loc=2.0, scale=1.0, size=(n, d))


def test_resolve_presets():
    assert [k.kind for k in resolve_kernels("gpl")] == ["gaussian", "polynomial", "linear"]
    gpp = resolve_kernels("gpp")
    assert [k.kind for k in gpp] == ["gaussian", "polynomial", "polynomial"]
    assert [k.q for k in gpp[1:]] == [2, 3]
    assert resolve_kernels("linear,poly:q=2")[1].q == 2
    assert resolve_kernels(GAUSS1) == (GAUSS1,)
    with pytest.raises(ValueError):
        resolve_kernels("bogus")
    assert set(KERNEL_PRESETS) == {"gpl", "gpp"}


def test_single_point_model():
    X = np.array([[3.0, 4.0]])
    model = train_ocsvm(X, GAUSS1, nu=1.0)
    assert np.array_equal(model.sv_alpha, [1.0])
    assert model.rho == 1.0  # K(x, x) after normalization
    assert decision_values(model, X[:1])[0] == 0.0
    assert predict_batch(model, X[:1])[0] == 1  # boundary counts as target


def test_two_identical_points():
    X = np.array([[1.0, 2.0], [1.0, 2.0]])
    model = train_ocsvm(X, GAUSS1, nu=1.0)
    assert decision_values(model, X[:1])[0] == pytest.approx(0.0, abs=1e-12)
    assert predict_batch(model, X[:1])[0] == 1


def test_ocsvm_nu_property_iris(iris, iris_plan):
    train_targets, _, _ = split_for_occ(iris, iris_plan, 0, 0)
    nu = 0.1
    model = train_ocsvm(train_targets, KernelSpec("gaussian"), nu=nu)
    rejected = np.mean(predict_batch(model, train_targets) == -1)
    assert rejected <= nu + 2 / np.sqrt(train_targets.shape[0])


def test_composite_fixed_single_kernel_identity():
    X = blob(1, 8)
    assert np.array_equal(composite_gram_fixed([GAUSS1], [1.0], X, X), gram(GAUSS1, X, X))


def test_composite_fixed_duplicate_kernels():
    X, Y = blob(2, 6), blob(3, 4)
    G = gram(GAUSS1, X, Y)
    assert np.allclose(composite_gram_fixed([GAUSS1, GAUSS1], [0.5, 0.5], X, Y), G, atol=0, rtol=0)


def test_composite_fixed_loop_oracle():
    rng = np.random.default_rng(4)
    X, Y = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
    kernels = [GAUSS1, KernelSpec("polynomial", q=2), KernelSpec("linear")]
    w = np.array([0.2, 0.5, 0.3])
    got = composite_gram_fixed(kernels, w, X, Y)
    expected = np.zeros((5, 4))
    for i in range(5):
        for j in range(4):
            for m, k in enumerate(kernels):
                expected[i, j] += w[m] * kernel_eval(k, X[i], Y[j])
    assert np.allclose(got, expected, atol=1e-12)


def test_composite_fixed_simplex_violation():
    X = blob(5, 4)
    with pytest.raises(ValueError):
        composite_gram_fixed([GAUSS1], [0.9], X, X)
    with pytest.raises(ValueError):
        composite_gram_fixed([GAUSS1, GAUSS1], [1.5, -0.5], X, X)


def test_mkad_single_kernel_reduces_to_ocsvm():
    X = blob(6)
    rng = np.random.default_rng(7)
    grid = rng.normal(loc=2.0, scale=2.0, size=(200, 3))
    a = train_ocsvm(X, GAUSS1, nu=0.5)
    b = train_mkad(X, [GAUSS1], nu=0.5)
    assert np.array_equal(predict_batch(a, grid), predict_batch(b, grid))
    assert np.array_equal(decision_values(a, grid), decision_values(b, grid))


def test_mkad_duplicated_kernel_reduces_to_single():
    X = blob(8)
    rng = np.random.default_rng(9)
    grid = rng.normal(loc=2.0, scale=2.0, size=(100, 3))
    a = train_ocsvm(X, GAUSS1, nu=0.5)
    b = train_mkad(X, [GAUSS1, GAUSS1], nu=0.5)
    assert np.array_equal(predict_batch(a, grid), predict_batch(b, grid))


def test_localized_constant_gating_proportional_to_fixed():
    X, Y = blob(10, 7), blob(11, 5)
    kernels = [GAUSS1, KernelSpec("polynomial", q=2), KernelSpec("linear")]
    p = len(kernels)
    gating = GatingParams("softmax", np.zeros((p, 3)), np.zeros(p))
    loc = composite_gram_localized(kernels, gating, X, Y)
    fixed = composite_gram_fixed(kernels, np.full(p, 1 / p), X, Y)
    assert np.abs(loc - fixed / p).max() <= 1e-12


def test_localized_single_kernel_identity():
    X, Y = blob(12, 6), blob(13, 4)
    gating = GatingParams("softmax", np.zeros((1, 3)), np.zeros(1))
    assert np.array_equal(composite_gram_localized([GAUSS1], gating, X, Y), gram(GAUSS1, X, Y))


@pytest.mark.parametrize("kind", ["softmax", "sigmoid", "rbf"])
def test_localized_gram_psd(kind):
    rng = np.random.default_rng(14)
    X = rng.normal(size=(12, 3))
    kernels = [GAUSS1, KernelSpec("polynomial", q=2), KernelSpec("linear")]
    if kind == "rbf":
        gating = GatingParams("rbf", rng.normal(size=(3, 3)), rng.uniform(0.5, 2, 3))
    else:
        gating = GatingParams(kind, rng.normal(size=(3, 3)), rng.normal(size=3))
    K = composite_gram_localized(kernels, gating, X, X)
    assert np.linalg.eigvalsh(K).min() >= -1e-8


def test_lmkad_frozen_uniform_matches_mkad_signs():
    X = blob(15, 40)
    kernels = resolve_kernels("gpl")
    config = LmkadConfig(nu=0.2, gating_kind="softmax", learning_rate=0.0, seed=0,
                         initial_gating=GatingParams("softmax", np.zeros((3, 3)), np.zeros(3)))
    lm = train_lmkad(X, kernels, config)
    mk = train_mkad(X, kernels, nu=0.2)
    rng = np.random.default_rng(16)
    grid = rng.normal(loc=2.0, scale=2.5, size=(500, 3))
    f_mk = decision_values(mk, grid)
    keep = np.abs(f_mk) > 1e-9
    assert np.array_equal(np.sign(decision_values(lm, grid))[keep], np.sign(f_mk)[keep])
    assert lm.report.converged and lm.report.iterations == 2


def test_lmkad_single_kernel_reduces_to_ocsvm():
    X = blob(17, 25)
    config = LmkadConfig(nu=0.3, gating_kind="softmax", seed=3)
    lm = train_lmkad(X, [GAUSS1], config)
    oc = train_ocsvm(X, GAUSS1, nu=0.3)
    rng = np.random.default_rng(18)
    grid = rng.normal(loc=2.0, scale=2.0, size=(300, 3))
    assert np.array_equal(predict_batch(lm, grid), predict_batch(oc, grid))


def test_lmkad_objective_trace_and_convergence():
    X = blob(19, 30)
    config = LmkadConfig(nu=0.2, gating_kind="sigmoid", seed=1, max_outer=200)
    model = train_lmkad(X, "gpl", config)
    trace = model.report.objective_trace
    assert len(trace) == model.report.iterations
    if model.report.converged:
        rel = abs(trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-12)
        assert rel <= config.outer_tol


def test_lmkad_final_alpha_consistent_with_final_gates():
    X = blob(20, 20)
    config = LmkadConfig(nu=0.5, gating_kind="sigmoid", seed=2, inner_tol=1e-8)
    model = train_lmkad(X, "gpl", config)
    Xn = apply_normalizer(model.normalizer, X)
    H = gate_eval_batch(model.gating, Xn)
    Q = composite_gram_localized(model.kernels, model.gating, Xn, Xn, H_X=H, H_Y=H)
    # rebuild the full multiplier vector by matching stored SV rows
    alpha = np.zeros(len(X))
    for row, a in zip(model.sv_features, model.sv_alpha):
        idx = np.flatnonzero((Xn == row).all(axis=1))
        assert idx.size == 1
        alpha[idx[0]] = a
    C = 1.0 / (config.nu * len(X))
    assert kkt_violation(alpha, Q, C) <= 10 * config.inner_tol
    # cached gate rows agree with a fresh evaluation
    assert np.abs(model.sv_eta - gate_eval_batch(model.gating, model.sv_features)).max() <= 1e-12


def test_lmkad_sv_eta_cache_consistency():
    X = blob(21, 25)
    model = train_lmkad(X, "gpl", LmkadConfig(nu=0.2, gating_kind="rbf", seed=5))
    fresh = gate_eval_batch(model.gating, model.sv_features)
    assert np.abs(model.sv_eta - fresh).max() <= 1e-12


def test_margin_sv_decision_near_zero():
    X = blob(22, 30)
    tol = 1e-8
    model = train_ocsvm(X, GAUSS1, nu=0.5, tol=tol)
    C = 1.0 / (0.5 * 30)
    eps = 1e-8 * C
    interior = (model.sv_alpha > eps * 10) & (model.sv_alpha < C - eps * 10)
    f_sv = decision_values(model, model.sv_features * model.normalizer.stddevs + model.normalizer.means)
    assert np.abs(f_sv[interior]).max() <= 10 * tol


def test_far_point_is_outlier():
    X = blob(23, 20)
    model = train_ocsvm(X, GAUSS1, nu=0.3)
    far = np.full((1, 3), 1e3)
    f = decision_values(model, far)[0]
    assert f == pytest.approx(-model.rho, abs=1e-12)
    assert model.rho > 0 and f < 0
    assert predict_batch(model, far)[0] == -1


def test_serialization_round_trip(tmp_path):
    X = blob(24, 25)
    rng = np.random.default_rng(25)
    grid = rng.normal(loc=2.0, scale=2.0, size=(50, 3))
    models = [
        train_ocsvm(X, KernelSpec("gaussian"), nu=0.2),
        train_mkad(X, "gpl", nu=0.2),
        train_lmkad(X, "gpp", LmkadConfig(nu=0.2, gating_kind="rbf", seed=7)),
    ]
    for i, model in enumerate(models):
        path = tmp_path / f"model_{i}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert type(loaded) is type(model)
        assert np.array_equal(decision_values(loaded, grid), decision_values(model, grid))


def _train(family, X, nu):
    if family == "ocsvm":
        return train_ocsvm(X, GAUSS1, nu=nu)
    if family == "mkad":
        return train_mkad(X, "gpl", nu=nu)
    return train_lmkad(X, "gpl", LmkadConfig(nu=nu, seed=3, max_outer=5))


@pytest.mark.parametrize("family", ["ocsvm", "mkad", "lmkad"])
def test_decision_values_independent_of_block_slicing(family, monkeypatch):
    model = _train(family, blob(29, 25), nu=0.2)
    rows = np.random.default_rng(30).normal(loc=2.0, scale=2.0, size=(BLOCK_ROWS * 5 // 2, 3))
    gram_rows = []

    def spy(kernel, X, Y):
        gram_rows.append(X.shape[0])
        return gram(kernel, X, Y)

    monkeypatch.setattr(models_module, "gram", spy)
    whole = decision_values(model, rows)
    assert set(gram_rows) == {BLOCK_ROWS, BLOCK_ROWS // 2}  # one block's Gram at a time
    starts = range(0, len(rows), BLOCK_ROWS)
    per_block = [decision_values(model, rows[s : s + BLOCK_ROWS]) for s in starts]
    assert [len(b) for b in per_block] == [BLOCK_ROWS, BLOCK_ROWS, BLOCK_ROWS // 2]
    assert np.array_equal(whole, np.concatenate(per_block))


def _gates(rng, n, p):
    H = rng.random((n, p))
    return H / H.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("rows, cols", [(7, 7), (9, 4), (1, 5)])
def test_combine_matches_reference_bit_for_bit(p, rows, cols):
    rng = np.random.default_rng(100 * p + rows)
    X, Y = rng.normal(size=(rows, 3)), rng.normal(size=(cols, 3))
    if rows == cols:
        Y = X  # a training Gram: square, the same gates on both sides
    kernels = [k.resolved(np.vstack((X, Y))) for k in resolve_kernels("gpp")[:p]]
    grams = [gram(k, X, Y) for k in kernels]
    grams[0][0, -1] = -0.0
    copies = [K.copy() for K in grams]
    H_X = _gates(rng, rows, p)
    H_Y = H_X if Y is X else _gates(rng, cols, p)
    cases = [(np.full(p, 1.0 / p), None, None), (rng.dirichlet(np.ones(p)), None, None),
             (None, H_X, H_Y)]
    for weights, hx, hy in cases:
        got = models_module._combine(grams, weights, hx, hy)
        want = reference_combine(grams, weights, hx, hy)
        assert got.shape == want.shape == (rows, cols) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert all(K.tobytes() == C.tobytes() for K, C in zip(grams, copies))


@pytest.mark.parametrize("family", ["mkad", "lmkad"])
def test_training_and_scoring_leave_base_grams_alone(family, monkeypatch):
    built = []

    def spy(kernel, X, Y):
        K = gram(kernel, X, Y)
        built.append((K, K.copy()))
        return K

    monkeypatch.setattr(models_module, "gram", spy)
    model = _train(family, blob(31, 20), nu=0.2)
    decision_values(model, blob(32, 11))
    assert len(built) == 2 * len(model.kernels)
    assert all(np.array_equal(K, copy) for K, copy in built)


def _drop_last_column(rows):
    for row in rows:
        row.pop()


def _poison(values, x):
    values[0] = x


@pytest.mark.parametrize(
    "family, corrupt, message",
    [
        ("ocsvm", lambda doc: doc["sv_alpha"].pop(), r"sv_alpha has shape"),
        ("lmkad", lambda doc: doc["sv_eta"].pop(), r"sv_eta has shape"),
        ("lmkad", lambda doc: _drop_last_column(doc["sv_eta"]), r"sv_eta has shape \(\d+, 2\)"),
        ("lmkad", lambda doc: doc["sv_eta"][0].pop(), r"model.json: sv_eta is not a rectangular"),
        ("ocsvm", lambda doc: doc["normalizer"]["means"].pop(), r"normalizer.means has shape"),
        ("ocsvm", lambda doc: doc["normalizer"]["stddevs"].append(1.0), r"normalizer.stddevs"),
        ("mkad", lambda doc: doc["weights"].append(0.0), r"weights has shape \(4,\), expected"),
        ("lmkad", lambda doc: _drop_last_column(doc["gating"]["v"]), r"gating.v has shape \(3, 2\)"),
        ("ocsvm", lambda doc: _poison(doc["sv_alpha"], float("nan")), r"sv_alpha holds a non-finite"),
        ("ocsvm", lambda doc: doc.update(rho=float("inf")), r"rho holds a non-finite value"),
        ("lmkad", lambda doc: _poison(doc["sv_features"][0], -float("inf")), r"sv_features holds"),
        ("ocsvm", lambda doc: doc.update(rho=[1.0]), r"model.json: rho is not a number"),
        ("mkad", lambda doc: doc["report"].pop("converged"), r"model.json: report is not a training report"),
        ("lmkad", lambda doc: doc["gating"].pop("v0"), r"model.json: gating.v0 is missing$"),
        ("lmkad", lambda doc: doc["gating"].update(kind="foo"), r"model.json: gating.kind 'foo' is not one of"),
        ("lmkad", lambda doc: doc["gating"]["v0"].append(0.0), r"model.json: gating: one vector entry per"),
    ],
)
def test_load_rejects_inconsistent_model(tmp_path, family, corrupt, message):
    path = tmp_path / "model.json"
    save_model(_train(family, blob(31, 20), nu=0.3), path)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_model(path)


V1_DIR = Path(__file__).parent / "data"


@pytest.mark.parametrize("stem", ["ocsvm", "mkad", "lmkad", "lmkad_softmax", "lmkad_rbf"])
def test_v1_model_files_still_load(tmp_path, stem):
    # v1_<stem>.json and their decision values on five fixed rows were
    # written by the format's first implementation (one class per family;
    # v1_lmkad.json has sigmoid gates), the softmax and rbf ones by the
    # code before the gating parameters became one (matrix, vector) pair
    expected = json.loads((V1_DIR / "v1_decision_values.json").read_text())
    path = V1_DIR / f"v1_{stem}.json"
    model = load_model(path)
    family, _, kind = stem.partition("_")
    assert model.family == family
    assert kind == "" or model.gating.kind == kind
    assert decision_values(model, np.array(expected["rows"])).tolist() == expected[stem]
    save_model(model, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("stem, field", [
    *[("ocsvm", f) for f in ("family", "nu", "rho", "n_train", "normalizer", "normalizer.means",
                             "normalizer.stddevs", "sv_features", "sv_alpha", "kernel")],
    ("mkad", "kernels"), ("mkad", "weights"), ("lmkad", "gating"), ("lmkad", "gating.kind"), ("lmkad", "sv_eta"),
])
def test_load_names_a_missing_field(tmp_path, stem, field):
    doc = json.loads((V1_DIR / f"v1_{stem}.json").read_text())
    *parents, name = field.split(".")
    holder = doc
    for key in parents:
        holder = holder[key]
    del holder[name]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(field)} is missing$"):
        load_model(path)


def test_load_rejects_non_model(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a model file"):
        load_model(p)


def test_stored_svs_carry_full_multiplier_sum():
    # dropped non-SV multipliers are each below eps_sv = 1e-8 * C, so the
    # stored alphas keep the simplex sum within eps_sv * N
    X = blob(28, 30)
    for nu in (0.2, 0.5, 1.0):
        model = train_ocsvm(X, GAUSS1, nu=nu)
        C = 1.0 / (nu * 30)
        assert np.all(model.sv_alpha > 0)
        assert np.all(model.sv_alpha <= C + 1e-10)
        assert abs(model.sv_alpha.sum() - 1.0) <= 1e-8 * C * 30 + 1e-8


def test_sv_fraction_single_point():
    model = train_ocsvm(np.array([[1.0, 2.0]]), GAUSS1, nu=1.0)
    assert sv_fraction(model) == 100.0
    assert sv_count(model) == 1


def test_sv_fraction_nu_one_box_forces_all():
    X = blob(26, 12)
    model = train_ocsvm(X, GAUSS1, nu=1.0)
    assert sv_fraction(model) == 100.0


def test_sv_fraction_nu_lower_bound_iris(iris, iris_plan):
    train_targets, _, _ = split_for_occ(iris, iris_plan, 0, 1)
    nu = 0.1
    model = train_ocsvm(train_targets, KernelSpec("gaussian"), nu=nu)
    n = train_targets.shape[0]
    assert sv_fraction(model) >= 100 * (nu - 2 / np.sqrt(n))


def test_lmkad_config_validation():
    with pytest.raises(ValueError, match="unknown gating kind 'rbff'"):
        LmkadConfig(nu=0.5, gating_kind="rbff")
    with pytest.raises(ValueError, match="unknown rho mode 'mean'"):
        LmkadConfig(nu=0.5, rho_mode="mean")
    with pytest.raises(ValueError):
        LmkadConfig(nu=0.5, lr_decay=0.0)
    with pytest.raises(ValueError):
        LmkadConfig(nu=0.5, learning_rate=-1.0)
    with pytest.raises(ValueError):
        LmkadConfig(nu=0.5, outer_tol=0.0)
    with pytest.raises(ValueError):
        LmkadConfig(nu=0.5, max_outer=0)
    with pytest.raises(ValueError, match="inner_max_iter must be >= 1"):
        LmkadConfig(nu=0.5, inner_max_iter=0)
    with pytest.raises(ValueError, match="inner_max_iter must be >= 1"):
        train_mkad(blob(29, 10), "gpl", 0.5, max_iter=-5)


def test_warm_start_matches_cold_objective():
    # alternating trainer warm-starts the inner solver; a cold-start run of
    # the same composite problem must land on the same objective
    from lmkad.solver import DualProblem, solve_dual

    X = blob(27, 20)
    model = train_lmkad(X, "gpl", LmkadConfig(nu=0.4, gating_kind="sigmoid", seed=9))
    Xn = apply_normalizer(model.normalizer, X)
    H = gate_eval_batch(model.gating, Xn)
    Q = composite_gram_localized(model.kernels, model.gating, Xn, Xn, H_X=H, H_Y=H)
    cold = solve_dual(DualProblem(Q, 0.4), tol=1e-6)
    assert -cold.objective == pytest.approx(model.report.objective_trace[-1], abs=1e-5)

def _pin_jobs():
    """Jobs for one ``fit_many`` call covering every path of the stacked trainer."""
    rng = np.random.default_rng(40)
    a = rng.normal(loc=1.0, size=(40, 4))  # shared by many jobs
    a_copy = a.copy()  # equal rows, another matrix
    b = rng.normal(size=(41, 13))
    c = rng.normal(size=(40, 4))
    two = rng.normal(size=(2, 4))
    one = rng.normal(size=(1, 13))
    fixed_gauss = "gauss:sigma_sq=2.0,poly:q=2,linear"

    def lm(kind, nu, seed, **knobs):
        return LmkadConfig(nu=nu, gating_kind=kind, seed=seed, max_outer=knobs.pop("max_outer", 40), **knobs)

    def fixed(nu, **knobs):
        return LmkadConfig(nu=nu, **knobs)

    jobs = [
        FitJob("ocsvm", a, (KernelSpec("gaussian"),), fixed(0.1)),
        FitJob("mkad", a, "gpl", fixed(0.2)),
        FitJob("mkad", b, "gpp", fixed(0.1, rho_mode="mean-all-train")),
        FitJob("ocsvm", one, "gauss:sigma_sq=2.0", fixed(1.0)),
        FitJob("mkad", two, "gpl", fixed(0.5)),
    ]
    # one sigmoid gpl stack of 9 (lockstep), over a shared matrix, its copy and other rows
    for i, nu in enumerate((0.05, 0.1, 0.15, 0.2, 0.3, 0.5)):
        jobs.append(FitJob("lmkad", a, "gpl", lm("sigmoid", nu, seed=i)))
    jobs += [
        FitJob("lmkad", a_copy, "gpl", lm("sigmoid", 0.2, seed=3)),
        FitJob("lmkad", c, "gpl", lm("sigmoid", 0.1, seed=7)),
        FitJob("lmkad", c, "gpl", lm("sigmoid", 0.3, seed=8)),
    ]
    for i, nu in enumerate((0.1, 0.2, 0.3)):
        jobs.append(FitJob("lmkad", b, "gpp", lm("softmax", nu, seed=20 + i)))
        jobs.append(FitJob("lmkad", b, "gpl", lm("rbf", nu, seed=30 + i, max_outer=15)))
        jobs.append(FitJob("lmkad", a, "gpp", lm("rbf", nu, seed=40 + i, rho_mode="mean-all-train")))
    frozen = GatingParams("softmax", np.zeros((3, 4)), np.zeros(3))
    jobs += [
        FitJob("lmkad", a, "gpl", lm("sigmoid", 0.2, seed=0, initial_gating=frozen, learning_rate=0.0)),
        FitJob("lmkad", a, "gpl", lm("sigmoid", 0.1, seed=1, inner_max_iter=5)),
        FitJob("lmkad", a, "gpl", lm("sigmoid", 0.1, seed=2, max_outer=3)),
        FitJob("lmkad", b, (GAUSS1,), lm("softmax", 0.2, seed=4)),
        FitJob("lmkad", two, "gpl", lm("softmax", 0.5, seed=5)),
        FitJob("lmkad", one, fixed_gauss, lm("sigmoid", 1.0, seed=6)),
        FitJob("lmkad", one, fixed_gauss, lm("rbf", 1.0, seed=7)),
        FitJob("ocsvm", c, "linear", fixed(0.2)),
    ]
    return jobs


def _model_bytes(model):
    """Every field of a model, arrays as (shape, dtype, bytes) and floats by repr."""
    arrays = {
        "sv_features": model.sv_features,
        "sv_alpha": model.sv_alpha,
        "normalizer.means": model.normalizer.means,
        "normalizer.stddevs": model.normalizer.stddevs,
        "weights": model.weights,
        "sv_eta": model.sv_eta,
    }
    if model.gating is not None:
        arrays.update({"gating.matrix": model.gating.matrix, "gating.vector": model.gating.vector})
    fields = {name: None if a is None else (a.shape, a.dtype.str, a.tobytes()) for name, a in arrays.items()}
    report = model.report
    fields.update(
        family=model.family,
        kernels=model.kernels,
        gating_kind=None if model.gating is None else model.gating.kind,
        scalars=(repr(model.rho), type(model.rho), repr(model.nu), model.n_train),
        report=json.dumps(dataclasses.asdict(report)),
        report_types=tuple(type(getattr(report, f.name)) for f in dataclasses.fields(report)),
    )
    return fields


@pytest.mark.parametrize("batch_bytes, n_batches", [(models_module.BATCH_BYTES, 1), (200_000, 13)],
                         ids=["one-batch", "split"])
def test_fit_many_matches_the_one_fit_loop_bit_for_bit(batch_bytes, n_batches, monkeypatch):
    jobs = _pin_jobs()
    monkeypatch.setattr(models_module, "BATCH_BYTES", batch_bytes)
    assert len(list(models_module._batches(jobs))) == n_batches
    got = fit_many(jobs)
    reports = [m.report for m in got]
    assert any(r.converged for r in reports) and any(not r.converged for r in reports)
    capped = next(r for job, r in zip(jobs, reports) if job.config.inner_max_iter == 5)
    assert capped.inner_iterations == 5 * capped.iterations  # every solve stopped at the cap
    for job, model in zip(jobs, got):
        assert _model_bytes(model) == _model_bytes(reference_fit(*job)), job


def test_fit_many_shares_set_up_per_training_matrix(monkeypatch):
    built = []

    def spy(kernel, X, Y):
        built.append(kernel)
        return gram(kernel, X, Y)

    monkeypatch.setattr(models_module, "gram", spy)
    X = blob(41, 20)
    fit_many([FitJob("lmkad", X, "gpl", LmkadConfig(nu=nu, seed=1, max_outer=2)) for nu in (0.1, 0.2, 0.3)]
             + [FitJob("lmkad", X.copy(), "gpl", LmkadConfig(nu=0.2, seed=1, max_outer=2))])
    assert len(built) == 2 * 3  # one set of Grams per distinct matrix


def test_fit_many_raises_the_lowest_failing_job():
    X = blob(42, 20)
    bad_q = X.copy()
    bad_q[3, 1] = np.nan  # no auto bandwidth: fails only at the first Q check
    good = FitJob("lmkad", X, "gpl", LmkadConfig(nu=0.2, max_outer=3))
    nan_q = FitJob("lmkad", bad_q, "poly:q=2,linear", LmkadConfig(nu=0.2))
    one_row = FitJob("lmkad", X[:1], "gpl", LmkadConfig(nu=1.0))  # no bandwidth on one row
    with pytest.raises(ValueError, match="^Q contains non-finite entries$"):
        fit_many([good, nan_q, good, one_row])
    with pytest.raises(ValueError, match="^bandwidth heuristic needs at least 2 points$"):
        fit_many([good, one_row, nan_q])
    for job in (nan_q, one_row):
        with pytest.raises(ValueError):
            reference_fit(*job)


def test_fit_many_raises_the_earliest_failing_round(monkeypatch):
    # job 1 fails in round 0 (a non-finite gradient), job 0 would fail in
    # round 1's check; training stops after round 0, so job 1's error wins
    X = blob(43, 20)
    gradient, check = models_module.gradient_stack, models_module.check_duals
    checks = []

    def nan_row_1(*args):
        grad_matrix, grad_vector = gradient(*args)
        grad_vector[1] = np.nan
        return grad_matrix, grad_vector

    def late_failure(Q, nu, scratch):
        checks.append(len(nu))
        return {0: "round 1 failure"} if len(checks) == 2 else check(Q, nu, scratch)

    monkeypatch.setattr(models_module, "gradient_stack", nan_row_1)
    monkeypatch.setattr(models_module, "check_duals", late_failure)
    jobs = [FitJob("lmkad", X, "gpl", LmkadConfig(nu=nu, seed=1)) for nu in (0.2, 0.3)]
    with pytest.raises(RuntimeError, match=r"^non-finite gating gradient at outer iteration 0 "):
        fit_many(jobs)
    assert checks == [2]
