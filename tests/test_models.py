import collections
import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lmkad.dataset import apply_normalizer, split_for_occ
from lmkad.gating import PAIR_FIELDS, GatingParams, gate_eval_batch, prepare_kind
from lmkad.kernels import KernelSpec, gram, kernel_map, product
from lmkad.models import (
    BLOCK_ROWS,
    KERNEL_PRESETS,
    TILE_ROWS,
    ScoreBuffers,
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
from lmkad import kernels as kernels_module, models as models_module, solver as solver_module
from lmkad.evaluation import ClassifierConfig, sv_fraction
from combine_reference import reference_combine
from decision_reference import reference_decision_values
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


@pytest.mark.parametrize("family, kernels, message", [
    ("ocsvm", "gpl", "^ocsvm takes exactly one kernel$"),
    ("ocsvm", "", "^ocsvm takes exactly one kernel$"),
    ("mkad", "", "^mkad needs at least one kernel$"),
    ("foo", "gauss:auto", "^unknown model family 'foo'$"),
], ids=["multi-kernel-ocsvm", "kernel-less-ocsvm", "kernel-less-mkad", "unknown-family"])
def test_family_rule_is_one_check_for_every_entry_point(family, kernels, message):
    # a 3-kernel "OCSVM" once trained, and saved only its first kernel, so the
    # reloaded model scored differently; an unknown family failed only at load
    X = blob(44, 20)
    with pytest.raises(ValueError, match=message):
        fit_many([FitJob(family, X, kernels, LmkadConfig(nu=0.2))])
    with pytest.raises(ValueError, match=message):
        ClassifierConfig(name="x", family=family, kernels=kernels)
    if family == "ocsvm":
        with pytest.raises(ValueError, match=message):
            train_ocsvm(X, kernels, nu=0.2)
    elif family == "mkad":
        with pytest.raises(ValueError, match=message):
            train_mkad(X, kernels, nu=0.2)


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
    product_rows, tile_rows = [], []

    def product_spy(X, Y, out=None):
        product_rows.append(X.shape[0])
        return product(X, Y, out)

    def map_spy(spec, G, *args):
        tile_rows.append(G.shape[0])
        return kernel_map(spec, G, *args)

    monkeypatch.setattr(models_module, "product", product_spy)
    monkeypatch.setattr(models_module, "kernel_map", map_spy)
    whole = decision_values(model, rows)
    assert product_rows == [BLOCK_ROWS, BLOCK_ROWS, BLOCK_ROWS // 2]  # one product per block
    assert max(tile_rows) == TILE_ROWS and len(tile_rows) == len(model.kernels) * len(rows) // TILE_ROWS
    starts = range(0, len(rows), BLOCK_ROWS)
    per_block = [decision_values(model, rows[s : s + BLOCK_ROWS]) for s in starts]
    assert [len(b) for b in per_block] == [BLOCK_ROWS, BLOCK_ROWS, BLOCK_ROWS // 2]
    assert np.array_equal(whole, np.concatenate(per_block))


def _scoring_models():
    """One model of every family, kernel kind and gating kind, each also cut to one SV."""
    X = blob(33, 25)
    trained = [
        train_ocsvm(X, GAUSS1, nu=0.2),
        train_ocsvm(X, "poly:q=3", nu=0.2),
        train_ocsvm(X, "linear", nu=0.2),
        train_mkad(X, "gpp", nu=0.2),
        *(train_lmkad(X, "gpl", LmkadConfig(nu=0.2, gating_kind=kind, seed=4, max_outer=4))
          for kind in ("sigmoid", "softmax", "rbf")),
        *(load_model(V1_DIR / f"v1_{stem}.json")
          for stem in ("ocsvm", "mkad", "lmkad", "lmkad_softmax", "lmkad_rbf")),
    ]
    one_sv = [
        dataclasses.replace(m, sv_features=m.sv_features[:1], sv_alpha=m.sv_alpha[:1],
                            sv_eta=None if m.sv_eta is None else m.sv_eta[:1])
        for m in trained
    ]
    return trained + one_sv


def test_decision_values_match_reference_bit_for_bit():
    cases = _scoring_models()
    assert min(sv_count(m) for m in cases) == 1 and max(sv_count(m) for m in cases) > 1
    counts = (1, TILE_ROWS - 1, TILE_ROWS + 1, BLOCK_ROWS - 1, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 7)
    rows = np.random.default_rng(34).normal(loc=1.0, scale=2.0, size=(max(counts), 3))
    for model in cases:
        buffers = ScoreBuffers(model)
        for n in counts:
            want = reference_decision_values(model, rows[:n]).tobytes()
            assert decision_values(model, rows[:n]).tobytes() == want, (model.family, model.kernels, n)
            # buffers reused across calls, as lmkad predict reuses them across blocks
            assert decision_values(model, rows[:n], buffers).tobytes() == want, (model.family, n)


def test_score_buffers_hold_no_model_data():
    # buffers made for one model score any model of the same SV count and
    # at most as many kernels as that model's, with its own norms and gates
    one_sv = [m for m in _scoring_models() if sv_count(m) == 1]
    shared = ScoreBuffers(max(one_sv, key=lambda m: len(m.kernels)))
    rows = np.random.default_rng(35).normal(size=(TILE_ROWS + 3, 3))
    for model in one_sv:
        want = reference_decision_values(model, rows).tobytes()
        assert decision_values(model, rows, shared).tobytes() == want, (model.family, model.kernels)


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

    def spy(kernel, X, Y, out=None):  # K is a training Gram's own slot of the stack
        K = gram(kernel, X, Y, out=out)
        built.append((K, K.copy()))
        return K

    def map_spy(spec, G, *args):  # scoring maps each kernel from one product
        K = kernel_map(spec, G, *args)
        built.append((K, K.copy()))
        return K

    monkeypatch.setattr(models_module, "gram", spy)
    monkeypatch.setattr(models_module, "kernel_map", map_spy)
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
        FitJob("mkad", b, "gpp", fixed(0.1, inner_tol=1e-7)),
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
        jobs.append(FitJob("lmkad", a, "gpp", lm("rbf", nu, seed=40 + i, inner_tol=1e-7)))
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
    """Every field of a model, arrays as (shape, dtype, bytes) and floats by repr;
    of the report, the fields it compares (not the ``q_columns`` work count)."""
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
    compared = [f.name for f in dataclasses.fields(report) if f.compare]
    fields.update(
        family=model.family,
        kernels=model.kernels,
        gating_kind=None if model.gating is None else model.gating.kind,
        scalars=(repr(model.rho), type(model.rho), repr(model.nu), model.n_train),
        report=json.dumps({name: getattr(report, name) for name in compared}),
        report_types=tuple(type(getattr(report, name)) for name in compared),
    )
    return fields


# the split budget admits 2 gpl fits at N = 40 (5 * 40**2 * 8 = 64,000 bytes each)
@pytest.mark.parametrize("batch_bytes, n_batches", [(models_module.BATCH_BYTES, 1), (166_000, 13)],
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


def _tile_jobs(n, cap=6000):
    """Above the whole-fit limit of TRAIN_TILE_BYTES (N = 181) each fit is
    composed in row tiles, at N = 300 of 109 rows, the last one of 82; below
    it in chunks of whole fits, at N = 40 of 20 fits, and 23 fits leave 3,
    at N = 181 of one.  From N = 181 the jobs are three gated fits and an
    MKAD one, each dual capped at ``cap`` steps."""
    X = blob(48, n, 4)
    if n >= 181:  # above 181 warm rounds are lazy: at N = 300 capped at ~2x the most steps, 2,856
        assert n == 181 or n % (models_module.TRAIN_TILE_BYTES // (8 * n))
        return [FitJob("lmkad", X, "gpl", LmkadConfig(nu=0.1, gating_kind=kind, seed=i, max_outer=4,
                                                      inner_max_iter=cap))
                for i, kind in enumerate(("sigmoid", "softmax", "rbf"))] + [
                FitJob("mkad", X, "gpp", LmkadConfig(nu=0.2, inner_max_iter=cap))]
    jobs = [FitJob("lmkad", X, "gpl", LmkadConfig(nu=0.1 + 0.02 * i, seed=i, max_outer=6)) for i in range(23)]
    assert len(jobs) % (models_module.TRAIN_TILE_BYTES // (8 * n * n))
    return jobs


@pytest.mark.parametrize("n", [300, 40], ids=["row-tiles", "fit-chunks"])
def test_fit_many_composes_in_tiles_bit_for_bit(n):
    jobs = _tile_jobs(n)
    for job, model in zip(jobs, fit_many(jobs)):
        assert _model_bytes(model) == _model_bytes(reference_fit(*job)), job
        assert model.report.inner_nonconverged == 0


@pytest.mark.parametrize("n, grid, pieces", [
    (181, None, {(181, 181)}),
    (182, None, {(180, 182), (2, 182)}),
    (182, (0.05, 0.1, 0.15, 0.2, 0.25, 0.3), {(180, 182), (2, 182)}),
], ids=["n181-whole-fit", "n182-rows-180-and-2", "n182-nu-grid-lockstep"])
def test_fit_many_composes_the_tile_edges_bit_for_bit(n, grid, pieces, monkeypatch):
    # the last N whose pieces are one whole fit, and the first whose pieces
    # are a fit's rows (``pieces``: their rows by columns); a six-fit nu
    # grid at N = 182 runs in the lockstep, so its Q is composed whole every
    # round, not lazily.  Each dual is capped at ~2x the most steps any dual
    # of the case takes (348, 399 and 416), so a wrong Q fails at the cap
    # rather than spinning toward 100 N^2
    shapes, combine = [], models_module._combine

    def spy_combine(grams, weights, H_X, H_Y, out=None, scratch=None):
        shapes.append(out.shape)
        return combine(grams, weights, H_X, H_Y, out, scratch)

    monkeypatch.setattr(models_module, "_combine", spy_combine)
    jobs = _tile_jobs(n, cap=800) if grid is None else [
        FitJob("lmkad", blob(48, n, 4), "gpl", LmkadConfig(nu=nu, seed=1, max_outer=4, inner_max_iter=800))
        for nu in grid]
    got = fit_many(jobs)
    assert {shape[-2:] for shape in shapes if shape[-1] == n} == pieces  # a lazy round's columns are narrower
    for job, model in zip(jobs, got):
        assert _model_bytes(model) == _model_bytes(reference_fit(*job)), job
        assert model.report.inner_nonconverged == 0
    if grid is not None:
        assert [m.report.q_columns for m in got] == [4 * n] * len(grid)  # four rounds, each composed whole


def _spy_lazy_solves(monkeypatch) -> list[bool]:
    """Per dual of every lazy solve, whether its final support holds a column
    that its start's support did not: one composed on demand.  Each lazy
    dual's Q is filled with 1e300 before ``start``, so an entry outside the
    composed columns holds a large finite value, as ``solve_duals`` allows."""
    grew, starts = [], {}
    start, solve = models_module._LazyColumns.start, models_module.solve_duals

    def spy_start(columns, alpha):
        starts[id(columns)] = alpha > 0
        columns.q.fill(1e300)
        start(columns, alpha)

    def spy_solve(Q, nu, alpha0, tol, max_iter, columns):
        sols = solve(Q, nu, alpha0, tol, max_iter, columns)
        grew.extend(bool((sols.support[k] & ~starts[id(c)]).any()) for k, c in enumerate(columns or ()))
        return sols

    monkeypatch.setattr(models_module._LazyColumns, "start", spy_start)
    monkeypatch.setattr(models_module, "solve_duals", spy_solve)
    return grew


@pytest.mark.parametrize("n", [182, 500, 1000])
def test_lazy_rounds_match_the_one_fit_loop_bit_for_bit(n, monkeypatch):
    # above N = 181 the warm rounds of a group of fewer than LOCKSTEP_MIN_ROWS
    # duals compose only the Q columns SMO reads; here one fit of each gating
    # kind, each its own stack of one group of 3, some of whose rounds end with
    # support where they did not start.  A wrong lazy Q makes SMO run on toward
    # its cap, so the cap is ~2x the most steps any dual takes (1,282 at N = 1000)
    grew = _spy_lazy_solves(monkeypatch)
    X = np.random.default_rng([5, n]).standard_normal((n, 6))
    jobs = [FitJob("lmkad", X, "gpl", LmkadConfig(nu=0.1, gating_kind=kind, seed=n, inner_max_iter=3000))
            for kind in ("sigmoid", "softmax", "rbf")]
    got = fit_many(jobs)
    for job, model in zip(jobs, got):
        assert _model_bytes(model) == _model_bytes(reference_fit(*job)), job
        report = model.report
        assert report.iterations > 2 and n < report.q_columns < report.iterations * n
        assert report.inner_nonconverged == 0
    assert len(grew) == sum(m.report.iterations - 1 for m in got) and any(grew)


def test_a_three_fit_stack_runs_lazy_rounds_bit_for_bit(monkeypatch):
    # one stack of 3 duals at N = 300: each runs in the scalar loop on its own Q
    # columns, capped at ~2x the most steps any dual takes (415)
    grew = _spy_lazy_solves(monkeypatch)
    X = blob(51, 300, 5)
    jobs = [FitJob("lmkad", X, "gpp", LmkadConfig(nu=nu, seed=i, max_outer=12, inner_max_iter=1000))
            for i, nu in enumerate((0.1, 0.2, 0.3))]
    got = fit_many(jobs)
    for job, model in zip(jobs, got):
        assert _model_bytes(model) == _model_bytes(reference_fit(*job)), job
        assert model.report.q_columns < model.report.iterations * 300
        assert model.report.inner_nonconverged == 0
    assert len(grew) == sum(m.report.iterations - 1 for m in got) and any(grew)


def test_rounds_composed_whole_count_every_column(monkeypatch):
    # iris-sized fits compose whole fits at a time, and lockstep duals read every column
    X = blob(52, 40, 4)
    small = fit_many([FitJob("lmkad", X, "gpl", LmkadConfig(nu=0.2, seed=i, max_outer=5)) for i in range(8)]
                     + [FitJob("mkad", X, "gpl", LmkadConfig(nu=0.2))])
    assert all(m.report.q_columns == m.report.iterations * 40 for m in small)
    monkeypatch.setattr(solver_module, "LOCKSTEP_MIN_ROWS", 1)
    job = FitJob("lmkad", blob(53, 200, 4), "gpl", LmkadConfig(nu=0.1, seed=3, max_outer=6))
    model = fit_many([job])[0]
    assert model.report.iterations > 1 and model.report.q_columns == model.report.iterations * 200
    assert _model_bytes(model) == _model_bytes(reference_fit(*job))


def test_a_gram_that_is_not_bitwise_symmetric_fails_at_set_up(monkeypatch):
    # a lazy round reads a column of K_m as its row, so every training Gram
    # must equal its transpose bit for bit, as gram builds it; one that is
    # symmetric only within DualProblem's bound fails the fit by name
    def skewed(spec, X, Y, out=None):
        K = gram(spec, X, Y, out=out)
        if spec.kind == "polynomial":
            K += np.triu(np.full(K.shape, 1e-10), 1)
        return K

    monkeypatch.setattr(models_module, "gram", skewed)
    X = blob(56, 200, 4)
    Q = skewed(KernelSpec("polynomial", q=2), X, X)
    solver_module.DualProblem(Q, nu=0.1)  # within the bound
    with pytest.raises(ValueError, match="^Gram K_1 is not equal to its transpose bit for bit$"):
        fit_many([FitJob("lmkad", X, "gpl", LmkadConfig(nu=0.1, seed=4, max_outer=6))])


def test_nan_gates_fail_a_lazy_round_in_that_round(monkeypatch):
    # at N = 300 round 1 composes lazily; its gate check stops training before
    # its solve.  The cap is ~2x the most steps any dual takes (503)
    job = FitJob("lmkad", blob(54, 300, 4), "gpl", LmkadConfig(nu=0.1, seed=2, max_outer=4, inner_max_iter=1000))
    report = fit_many([job])[0].report
    assert report.q_columns < 4 * 300 and report.inner_nonconverged == 0
    rounds, solved = [], []
    gate_stack, solve = models_module.gate_stack, models_module.solve_duals

    def gates(kind, *args):
        H = gate_stack(kind, *args)
        rounds.append(kind)
        if len(rounds) == 2:
            H[0, 7, 1] = np.nan
        return H

    monkeypatch.setattr(models_module, "gate_stack", gates)
    monkeypatch.setattr(models_module, "solve_duals", lambda Q, *args: solved.append(args[-1]) or solve(Q, *args))
    with pytest.raises(ValueError, match="^Q contains non-finite entries$"):
        fit_many([job])
    assert rounds == ["sigmoid", "sigmoid"] and solved == [None]  # round 0 solved whole, round 1 not at all


def test_gram_error_is_the_first_check_any_gram_fails():
    # a Q sums the Grams scaled by weights or gates in [0, 1]: the Grams decide
    # its checks, in order: finite, bitwise symmetric, diagonal, overflow
    eye = np.eye(3)
    skew = eye.copy()
    skew[0, 2] = np.nextafter(0.0, 1.0)  # the least asymmetry, and -0.0 against 0.0
    signed = eye.copy()
    signed[1, 2] = -0.0
    negative = -eye
    assert models_module._gram_error(np.stack([eye, eye]), None) is None
    for bad in (np.nan, np.inf, -np.inf):  # max and min reach each
        nonfinite = eye.copy()
        nonfinite[0, 1] = bad
        assert models_module._gram_error(np.stack([skew, nonfinite]), None) == "Q contains non-finite entries"
    assert models_module._gram_error(np.stack([negative, skew]), None) == (
        "Gram K_1 is not equal to its transpose bit for bit")
    assert models_module._gram_error(np.stack([signed, eye]), None) == (
        "Gram K_0 is not equal to its transpose bit for bit")
    assert models_module._gram_error(np.stack([eye, negative]), None) == "Q has a negative diagonal entry"
    big = np.full((3, 3), 1e308)
    assert models_module._gram_error(np.stack([big, big]), np.array([0.5, 0.5])) is None
    assert models_module._gram_error(np.stack([big, big]), None) == (
        "Q may overflow: the sum over kernels of max|K_m| is not finite")


def test_a_gated_fit_whose_grams_could_overflow_fails_at_set_up():
    # two rows z-scored in d = 99 have x.x = 99, so each poly q=154 Gram peaks at
    # 100**154 = 1e308: MKAD halves each, gates in [0, 1] could sum two of them
    X = blob(55, 2, 99)
    poly = KernelSpec("polynomial", q=154)
    assert np.isfinite(train_mkad(X, (poly, poly), nu=1.0).rho)
    with pytest.raises(ValueError, match=r"^Q may overflow: the sum over kernels of max\|K_m\| is not finite$"):
        train_lmkad(X, (poly, poly), LmkadConfig(nu=1.0, max_outer=3))


def test_training_state_stays_within_the_batch_estimate(monkeypatch):
    # _fit_bytes counts every N x N array of a fit: its p Grams, Q and the
    # lockstep's transposed copy of Q (the lockstep is forced here for one
    # fit).  Set-up builds the Grams in place, in no N x N beyond them.  An
    # N x N array that the estimate does not count, such as a scratch for
    # Q, would exceed the slack of half of one
    n, p = 400, 3
    X = blob(50, n, 6)
    train_lmkad(X[:20], "gpl", LmkadConfig(nu=0.2, max_outer=2))  # imports scipy outside the trace
    monkeypatch.setattr(solver_module, "LOCKSTEP_MIN_ROWS", 1)
    tracemalloc.start()
    try:
        model = train_lmkad(X, "gpl", LmkadConfig(nu=0.2, seed=1, max_outer=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.report.iterations == 3
    assert models_module._fit_bytes(n, p) == (p + 2) * n * n * 8
    assert peak <= models_module._fit_bytes(n, p) + n * n * 8 // 2


def test_a_fit_outside_the_lockstep_holds_its_grams_and_q_and_no_more():
    # the p Grams and Q are a fit's only N x N state: set-up builds each Gram
    # in its slot of the stack (the product mapped in place a tile of rows at
    # a time), and the bandwidth maps its one product in place.  A second
    # N x N array at any point would exceed the 1 MiB of slack, which covers
    # the set-up check's N x N boolean and the composition tile
    n, p = 600, 3
    X = blob(57, n, 6)
    prepare_kind("sigmoid")  # scipy's import stays outside the trace
    tracemalloc.start()
    try:
        model = train_lmkad(X, "gpl", LmkadConfig(nu=0.2, seed=1, max_outer=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.report.iterations == 3
    assert peak <= (p + 1) * n * n * 8 + 2**20


def test_lazy_rounds_stay_within_the_batch_estimate():
    # the scalar loop composes the Q columns it reads in pieces of the
    # composition tile; no N x N array beyond the estimate appears.  The cap
    # is ~2x the most steps any dual takes (459)
    n, p = 400, 3
    X = blob(50, n, 6)
    train_lmkad(X[:20], "gpl", LmkadConfig(nu=0.2, max_outer=2))  # imports scipy outside the trace
    tracemalloc.start()
    try:
        model = train_lmkad(X, "gpl", LmkadConfig(nu=0.2, seed=1, max_outer=3, inner_max_iter=1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.report.iterations == 3 and model.report.q_columns < 3 * n  # rounds 1 and 2 were lazy
    assert model.report.inner_nonconverged == 0
    assert peak <= models_module._fit_bytes(n, p) + n * n * 8 // 2


def test_fit_many_shares_set_up_per_training_matrix(monkeypatch):
    built = []

    def spy(kernel, X, Y, out=None):
        built.append(kernel)
        return gram(kernel, X, Y, out=out)

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


@pytest.mark.parametrize("nu, message", [
    (2.0, r"^infeasible nu: 2\.0 not in \(0, 1\]$"),
    (0.01, r"^infeasible nu: nu\*N = 0\.2 < 1, "),
], ids=["out-of-range", "nu-n-below-1"])
def test_fit_many_checks_nu_once_at_set_up(monkeypatch, nu, message):
    # a fit's nu is checked in its set-up, so a job whose nu is bad and whose
    # Grams hold a NaN reports the nu, as solve_duals does for that nu,
    # and no Gram is checked; a bad-nu job still loses to a lower failing job
    X = blob(42, 20)
    bad_q = X.copy()
    bad_q[3, 1] = np.nan
    checks = []
    check = models_module._gram_error
    monkeypatch.setattr(models_module, "_gram_error", lambda grams, w: checks.append(len(grams)) or check(grams, w))
    both = FitJob("lmkad", bad_q, "poly:q=2,linear", LmkadConfig(nu=nu))
    with pytest.raises(ValueError, match=message):
        fit_many([both])
    with pytest.raises(ValueError, match=message):
        solver_module.solve_duals(np.eye(20)[None], [nu])
    assert checks == []
    nan_q = FitJob("lmkad", bad_q, "poly:q=2,linear", LmkadConfig(nu=0.2))
    with pytest.raises(ValueError, match="^Q contains non-finite entries$"):
        fit_many([nan_q, both])
    with pytest.raises(ValueError, match=message):
        fit_many([both, nan_q])


def test_fit_many_checks_every_round_when_gates_turn_nan(monkeypatch):
    # the other non-finite Q cases put the NaN in X, so they fail at set-up;
    # here gates turn NaN at round 1, which only that round's gate check sees
    X = blob(46, 20)
    poisoned = {}  # gating kind -> the stack row whose gates turn NaN at round 1
    rounds, solved = collections.Counter(), []
    gate_stack, check, solve = models_module.gate_stack, models_module._gate_errors, models_module.solve_duals

    def gates(kind, *args):
        H = gate_stack(kind, *args)
        rounds[kind] += 1
        if rounds[kind] == 2 and kind in poisoned:
            H[poisoned[kind]] = np.nan
        return H

    monkeypatch.setattr(models_module, "gate_stack", gates)
    monkeypatch.setattr(models_module, "solve_duals", lambda Q, *args: solved.append(len(Q)) or solve(Q, *args))
    sigmoid = [FitJob("lmkad", X, "gpl", LmkadConfig(nu=nu, seed=1)) for nu in (0.2, 0.3)]
    poisoned["sigmoid"] = 1
    with pytest.raises(ValueError, match="^Q contains non-finite entries$"):
        fit_many(sigmoid)
    assert rounds == {"sigmoid": 2} and solved == [2]  # round 1 composed, then training stopped

    # job 2's stack is checked first, but job 1 (its own softmax stack) fails in
    # the same round and is lower; each message is tagged with its stack row
    # and size to tell them apart
    rounds.clear()
    solved.clear()
    poisoned["softmax"] = 0
    monkeypatch.setattr(models_module, "_gate_errors",
                        lambda H: {r: f"{m} (row {r} of {len(H)})" for r, m in check(H).items()})
    softmax = FitJob("lmkad", X, "gpl", LmkadConfig(nu=0.2, seed=1, gating_kind="softmax"))
    with pytest.raises(ValueError, match=r"^Q contains non-finite entries \(row 0 of 1\)$"):
        fit_many([sigmoid[0], softmax, sigmoid[1]])
    assert rounds == {"sigmoid": 2, "softmax": 2} and solved == [3]


def test_fit_many_reports_a_bad_kernel_token_in_job_order():
    X = blob(44, 20)
    one_row = FitJob("lmkad", X[:1], "gpl", LmkadConfig(nu=1.0))  # no bandwidth on one row
    bogus = FitJob("mkad", X, "bogus", LmkadConfig(nu=0.2))
    with pytest.raises(ValueError, match="^bandwidth heuristic needs at least 2 points$"):
        fit_many([one_row, bogus])
    with pytest.raises(ValueError, match="^unrecognized kernel token 'bogus'$"):
        fit_many([bogus, one_row])


@pytest.mark.parametrize("sizes", [(20, 20), (20, 25)], ids=["one-n", "two-n"])
def test_fit_many_checks_and_solves_each_solve_group_once_a_round(monkeypatch, sizes):
    # three stacks (mkad, sigmoid and softmax lmkad) over two training
    # matrices; the stacks that share N are one solve group, whose rows
    # are composed into one Q array and solved once a round.  Each stack's
    # Grams are checked once per training matrix at set-up, and each gated
    # stack's gates once a round
    calls = []
    gram_check, gate_check, solve = models_module._gram_error, models_module._gate_errors, models_module.solve_duals

    def spy_gram_check(grams, weights):
        calls.append(("grams", grams.shape, None))
        return gram_check(grams, weights)

    def spy_gate_check(H):
        calls.append(("gates", H.shape, None))
        return gate_check(H)

    def spy_solve(Q, nu, *args):
        calls.append(("solve", Q.shape, Q))
        return solve(Q, nu, *args)

    monkeypatch.setattr(models_module, "_gram_error", spy_gram_check)
    monkeypatch.setattr(models_module, "_gate_errors", spy_gate_check)
    monkeypatch.setattr(models_module, "solve_duals", spy_solve)
    jobs = []
    for i, n in enumerate(sizes):
        X = blob(50 + i, n)
        jobs += [FitJob("mkad", X, "gpl", LmkadConfig(nu=0.2)),
                 FitJob("lmkad", X, "gpl", LmkadConfig(nu=0.2, seed=1, max_outer=3)),
                 FitJob("lmkad", X, "gpl", LmkadConfig(nu=0.3, gating_kind="softmax", seed=2, max_outer=3))]
    got = fit_many(jobs)

    rounds = max(m.report.iterations for m in got)
    assert rounds > 1
    sizes_in_order = list(dict.fromkeys(sizes))
    assert [kind for kind, _, _ in calls[:6]] == ["grams"] * 6  # 3 stacks x 2 matrices
    expected = []
    for t in range(rounds):
        def alive(n, kind=None):
            return sum(len(job.train_targets) == n and t < m.report.iterations
                       and (kind is None or job.config.gating_kind == kind and job.family == "lmkad")
                       for job, m in zip(jobs, got))
        for n in sizes_in_order:
            expected += [("gates", (alive(n, kind), n, 3)) for kind in ("sigmoid", "softmax") if alive(n, kind)]
        expected += [("solve", (alive(n), n, n)) for n in sizes_in_order if alive(n)]
    assert [(kind, shape) for kind, shape, _ in calls[6:]] == expected
    groups = len(sizes_in_order)
    assert sum(kind == "solve" for kind, _ in expected) == rounds * groups  # every group lives every round here
    solved = [q for kind, _, q in calls if kind == "solve"]
    for g in range(groups):  # the group's one Q array, every round
        assert all(np.shares_memory(solved[g], q) for q in solved[g::groups])


@pytest.mark.parametrize("knob, message", [
    ({"inner_tol": -1.0}, r"^inner_tol must be finite and > 0, got -1\.0$"),
    ({"inner_tol": 0.0}, r"^inner_tol must be finite and > 0, got 0\.0$"),
    ({"inner_tol": math.nan}, r"^inner_tol must be finite and > 0, got nan$"),
    ({"inner_tol": math.inf}, r"^inner_tol must be finite and > 0, got inf$"),
    ({"learning_rate": math.inf}, r"^learning_rate must be >= 0 and finite, got inf$"),
    ({"learning_rate": math.nan}, r"^learning_rate must be >= 0 and finite, got nan$"),
    ({"learning_rate": -1.0}, r"^learning_rate must be >= 0 and finite, got -1\.0$"),
    ({"inner_tol": "1e-6"}, r"^inner_tol must be a real number, got '1e-6'$"),
    ({"learning_rate": "20"}, r"^learning_rate must be a real number, got '20'$"),
    ({"lr_decay": True}, r"^lr_decay must be a real number, got True$"),
    ({"outer_tol": None}, r"^outer_tol must be a real number, got None$"),
    ({"nu": "0.5"}, r"^nu must be a real number, got '0\.5'$"),
    ({"max_outer": 2.5}, r"^max_outer must be an integer, got 2\.5$"),
    ({"max_outer": True}, r"^max_outer must be an integer, got True$"),
    ({"max_outer": None}, r"^max_outer must be an integer, got None$"),
    ({"inner_max_iter": 10.0}, r"^inner_max_iter must be an integer, got 10\.0$"),
    ({"seed": "1"}, r"^seed must be an integer, got '1'$"),
], ids=["tol-negative", "tol-zero", "tol-nan", "tol-inf", "lr-inf", "lr-nan", "lr-negative", "tol-string",
        "lr-string", "decay-bool", "outer-tol-none", "nu-string", "max-outer-fraction", "max-outer-bool",
        "max-outer-none", "inner-max-iter-float", "seed-string"])
def test_lmkad_config_names_each_rejected_setting(knob, message):
    # inner_tol <= 0 or NaN ran every dual to its 100 * N**2 cap; an infinite
    # learning rate failed later, at a non-finite Q.  A setting of the wrong
    # type raised a TypeError from a comparison, or none: max_outer=2.5
    # never met the last-round test and ran until the objective settled
    with pytest.raises(ValueError, match=message):
        LmkadConfig(**{"nu": 0.5, **knob})
    if "inner_tol" in knob:
        with pytest.raises(ValueError, match=message):
            train_mkad(blob(29, 10), "gpl", 0.5, tol=knob["inner_tol"])


@pytest.mark.parametrize("seed", [-1, np.int64(-1)])
def test_lmkad_config_refuses_a_negative_seed(seed):
    # numpy's gating init refused it without naming it, and a fixed-weight
    # fit, which draws nothing, took it; the config serves every family
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        LmkadConfig(nu=0.5, seed=seed)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        dataclasses.replace(LmkadConfig(nu=0.5), seed=seed)  # as a benchmark candidate's seed is set


def test_lmkad_config_takes_numpy_numbers():
    config = LmkadConfig(nu=np.float64(0.5), max_outer=np.int64(3), seed=np.uint32(7), learning_rate=np.int64(2))
    assert train_lmkad(blob(29, 10), "gpl", config).report.iterations <= 3


def test_memory_check_runs_before_any_n_by_n_product(monkeypatch):
    # gauss:auto takes its bandwidth from an N x N product of the rows,
    # which at N = 20,000 alone is 3.2 GB: the memory check comes first
    products = []
    real = kernels_module.product

    def spy(X, Y, out=None):
        products.append((len(X), len(Y)))
        return real(X, Y, out=out)

    monkeypatch.setattr(kernels_module, "product", spy)
    monkeypatch.setattr(models_module, "physical_memory_bytes", lambda: 1000)
    with pytest.raises(ValueError, match=r"^a fit on N=300 rows with 1 kernels needs "):
        train_ocsvm(blob(47, 300), "gauss:auto", nu=0.2)
    assert products == []


def test_fit_many_raises_the_earliest_failing_round(monkeypatch):
    # job 1 fails in round 0 (a non-finite gradient), job 0 would fail in
    # round 1's gate check; training stops after round 0, so job 1's error wins
    X = blob(43, 20)
    gradient, check = models_module.gradient_stack, models_module._gate_errors
    checks = []

    def nan_row_1(*args):
        grad_matrix, grad_vector = gradient(*args)
        grad_vector[1] = np.nan
        return grad_matrix, grad_vector

    def late_failure(H):
        checks.append(len(H))
        return {0: "round 1 failure"} if len(checks) == 2 else check(H)

    monkeypatch.setattr(models_module, "gradient_stack", nan_row_1)
    monkeypatch.setattr(models_module, "_gate_errors", late_failure)
    jobs = [FitJob("lmkad", X, "gpl", LmkadConfig(nu=nu, seed=1)) for nu in (0.2, 0.3)]
    with pytest.raises(RuntimeError, match=r"^non-finite gating gradient at outer iteration 0 "):
        fit_many(jobs)
    assert checks == [2]


def test_fit_many_raises_the_first_failing_check_of_a_round(monkeypatch):
    # job 0 (N = 20) has a NaN gradient in round 1, job 1 (N = 25) NaN gates
    # in round 1.  Round 1 checks every fit's gates before any group solves,
    # so job 1's gate check fails first and its error wins over job 0's
    gates, gradient = models_module.gate_stack, models_module.gradient_stack
    calls = collections.Counter()

    def nan_gates(kind, Xn, *pair):
        H = gates(kind, Xn, *pair)
        calls["gates", Xn.shape[1]] += 1
        if Xn.shape[1] == 25 and calls["gates", 25] == 2:
            H[:] = np.nan
        return H

    def nan_gradient(kind, matrix, vector, alpha, Xn, *rest):
        grad_matrix, grad_vector = gradient(kind, matrix, vector, alpha, Xn, *rest)
        calls["gradient", Xn.shape[1]] += 1
        if Xn.shape[1] == 20 and calls["gradient", 20] == 2:
            grad_vector[:] = np.nan
        return grad_matrix, grad_vector

    monkeypatch.setattr(models_module, "gate_stack", nan_gates)
    monkeypatch.setattr(models_module, "gradient_stack", nan_gradient)
    jobs = [FitJob("lmkad", blob(49 + i, n), "gpl", LmkadConfig(nu=0.2, seed=1, outer_tol=1e-12))
            for i, n in enumerate((20, 25))]
    for batch, error, message in [([jobs[0]], RuntimeError, r"^non-finite gating gradient at outer iteration 1 "),
                                  ([jobs[1]], ValueError, r"^Q contains non-finite entries$"),
                                  (jobs, ValueError, r"^Q contains non-finite entries$")]:
        calls.clear()
        with pytest.raises(error, match=message):
            fit_many(batch)
    assert calls == {("gates", 20): 2, ("gates", 25): 2, ("gradient", 20): 1, ("gradient", 25): 1}


def test_inner_nonconvergence_is_counted_alike_stacked_and_alone():
    # every round's dual stops at inner_max_iter=1 unconverged; a gated fit
    # once kept only its outer flag, so these rounds left no trace
    X = blob(45, 20)
    configs = [LmkadConfig(nu=nu, seed=5, max_outer=4, inner_max_iter=1) for nu in (0.2, 0.5)]
    stacked = fit_many([FitJob("lmkad", X, "gpl", c) for c in configs])
    alone = [train_lmkad(X, "gpl", c) for c in configs]
    for a, b in zip(stacked, alone):
        assert a.report.inner_nonconverged == b.report.inner_nonconverged == a.report.iterations == 4
    fixed = train_mkad(X, "gpl", nu=0.2, max_iter=1)
    assert fixed.report.inner_nonconverged == 1 and not fixed.report.converged
    assert train_lmkad(X, "gpl", LmkadConfig(nu=0.2, seed=5, max_outer=4)).report.inner_nonconverged == 0


def test_inner_nonconvergence_round_trips(tmp_path):
    model = train_lmkad(blob(45, 20), "gpl", LmkadConfig(nu=0.2, seed=5, max_outer=3, inner_max_iter=1))
    save_model(model, tmp_path / "m.json")
    assert json.loads((tmp_path / "m.json").read_text())["report"]["inner_nonconverged"] == 3
    assert load_model(tmp_path / "m.json").report == model.report


def test_fit_beyond_physical_memory_fails_at_setup_in_job_order(monkeypatch):
    # (3 + 2) * 200**2 * 8 B = 1.6 MB of training state against 1 MiB of memory
    def no_state(*args):
        raise AssertionError("training state was allocated")

    monkeypatch.setattr(models_module, "physical_memory_bytes", lambda: 2**20)
    monkeypatch.setattr(models_module, "_Stack", no_state)
    big = FitJob("mkad", blob(46, 200), "gpl", LmkadConfig(nu=0.2))
    bogus = FitJob("mkad", blob(46, 20), "bogus", LmkadConfig(nu=0.2))
    message = (r"^a fit on N=200 rows with 3 kernels needs ~0\.00149 GiB of training state, "
               r"more than the 0\.000977 GiB of physical memory$")
    with pytest.raises(ValueError, match=message):
        fit_many([big, bogus])
    with pytest.raises(ValueError, match="^unrecognized kernel token 'bogus'$"):
        fit_many([bogus, big])


def _cgroup_tree(tmp_path, monkeypatch, version, limits: dict) -> dict:
    """A temp directory tree standing in for the cgroup mounts, with this
    process in cgroup ``/a/b``; ``limits`` maps a cgroup path to its limit
    file's content.  Returns the limit file of each path."""
    roots = {v: tmp_path / v for v in models_module.CGROUP_MEMORY}
    monkeypatch.setattr(models_module, "CGROUP_MEMORY", {v: (str(roots[v]), name) for v, (_, name)
                                                         in models_module.CGROUP_MEMORY.items()})
    line = "0::/a/b" if version == "v2" else "4:cpu,memory:/a/b"
    proc = tmp_path / "cgroup"
    proc.write_text(f"7:pids:/\n{line}\n")
    monkeypatch.setattr(models_module, "PROC_CGROUP", str(proc))
    files = {}
    for path, content in limits.items():
        directory = roots[version].joinpath(*path.split("/")[1:])
        directory.mkdir(parents=True, exist_ok=True)
        files[path] = directory / models_module.CGROUP_MEMORY[version][1]
        files[path].write_text(content)
    return files


@pytest.mark.parametrize("content, applies", [("1048576\n", True), ("4194304", False), ("max\n", False),
                                              (None, False)], ids=["below", "above", "max", "absent"])
@pytest.mark.parametrize("version", ["v2", "v1"])
def test_memory_bound_is_the_smaller_of_a_cgroup_limit_and_physical_memory(tmp_path, monkeypatch, version,
                                                                          content, applies):
    # a temp tree stands in for the cgroup mount; the limit sits on this process's own cgroup
    files = _cgroup_tree(tmp_path, monkeypatch, version, {} if content is None else {"/a/b": content})
    monkeypatch.setattr(models_module, "physical_memory_bytes", lambda: 2**21)
    expected = (2**20, f"the cgroup memory limit ({files['/a/b']})") if applies else (2**21, "physical memory")
    assert models_module.memory_bound() == expected


@pytest.mark.parametrize("version", ["v2", "v1"])
def test_memory_bound_takes_the_smallest_limit_up_to_the_root(tmp_path, monkeypatch, version):
    # a cgroup is bounded by every ancestor's limit too; the root files alone missed a limit on /a
    files = _cgroup_tree(tmp_path, monkeypatch, version,
                         {"/a/b": "max\n", "/a": "1048576\n", "": "1572864\n", "/c": "4096\n"})
    monkeypatch.setattr(models_module, "physical_memory_bytes", lambda: 2**21)
    assert models_module.memory_bound() == (2**20, f"the cgroup memory limit ({files['/a']})")
    files["/a"].write_text("max\n")
    assert models_module.memory_bound() == (1572864, f"the cgroup memory limit ({files['']})")
    monkeypatch.setattr(models_module, "PROC_CGROUP", str(tmp_path / "absent"))
    assert models_module.memory_bound() == (2**21, "physical memory")


def test_fit_beyond_a_cgroup_limit_fails_at_setup_naming_it(tmp_path, monkeypatch):
    # 1.6 MB of training state fits 2 MiB of physical memory but not a 1 MiB cgroup limit
    limit = _cgroup_tree(tmp_path, monkeypatch, "v2", {"/a/b": "1048576\n"})["/a/b"]
    monkeypatch.setattr(models_module, "physical_memory_bytes", lambda: 2**21)
    message = (r"^a fit on N=200 rows with 3 kernels needs ~0\.00149 GiB of training state, "
               rf"more than the 0\.000977 GiB of the cgroup memory limit \({re.escape(str(limit))}\)$")
    with pytest.raises(ValueError, match=message):
        train_mkad(blob(46, 200), "gpl", nu=0.2)
    limit.write_text("max\n")
    assert train_mkad(blob(46, 200), "gpl", nu=0.2).n_train == 200


def test_physical_memory_is_known_here():
    assert models_module.physical_memory_bytes() > 2**20


# --- corrupted model files ---------------------------------------------------

#: every field of the v1 fixtures a model cannot load without (``report`` and
#: its defaulted counters are optional), with the families that store it; an
#: LMKAD model also needs its gating pair (``PAIR_FIELDS``)
REQUIRED_FIELDS = {
    "version": "all", "family": "all", "nu": "all", "rho": "all", "n_train": "all", "normalizer": "all",
    "normalizer.means": "all", "normalizer.stddevs": "all", "sv_features": "all", "sv_alpha": "all",
    "kernel": "ocsvm", "kernels": "mkad lmkad", "weights": "mkad", "gating": "lmkad",
    "gating.kind": "lmkad", "sv_eta": "lmkad", "report.iterations": "all", "report.objective_trace": "all",
    "report.converged": "all", "report.final_violation": "all",
}
OPTIONAL_FIELDS = ("report", "report.inner_iterations")
V1_STEMS = ("ocsvm", "mkad", "lmkad", "lmkad_softmax", "lmkad_rbf")


def _fields_of(stem: str, doc: dict) -> list[str]:
    family = stem.partition("_")[0]
    names = [n for n, families in REQUIRED_FIELDS.items() if families == "all" or family in families.split()]
    if family == "lmkad":
        names += [f"gating.{name}" for name in PAIR_FIELDS[doc["gating"]["kind"]]]
    return names


def _holder(doc: dict, name: str):
    *parents, leaf = name.split(".")
    for key in parents:
        doc = doc[key]
    return doc, leaf


def _numbers_in(value) -> list:
    """(container, index) of every number in a nested list, or [] for a non-list."""
    if not isinstance(value, list):
        return []
    found = []
    for k, item in enumerate(value):
        if isinstance(item, list):
            found += _numbers_in(item)
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            found.append((value, k))
    return found


@st.composite
def corrupted_models(draw):
    """A v1 fixture with one field dropped, reshaped, made non-finite or of the wrong type."""
    stem = draw(st.sampled_from(V1_STEMS))
    doc = json.loads((V1_DIR / f"v1_{stem}.json").read_text())
    name = draw(st.sampled_from(_fields_of(stem, doc)))
    holder, leaf = _holder(doc, name)
    value = holder[leaf]
    actions = ["drop", "wrap", "wrong type"]
    if isinstance(value, list) and value:
        actions.append("shorten")
    if isinstance(value, list) and value and isinstance(value[0], list) and len(value[0]) > 1:
        actions.append("ragged")
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if numeric or _numbers_in(value):
        actions.append("non-finite")
    if _numbers_in(value):
        actions.append("boolean entry")
    action = draw(st.sampled_from(actions))
    if action == "drop":
        del holder[leaf]
    elif action == "wrap":
        holder[leaf] = [value]
    elif action == "shorten":
        value.pop()
    elif action == "ragged":
        value[0].pop()
    elif action == "non-finite":
        bad = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        if numeric:
            holder[leaf] = bad
        else:
            container, k = draw(st.sampled_from(_numbers_in(value)))
            container[k] = bad
    elif action == "wrong type":
        wrong = [None, "x", {"a": 1}, [[1.0], [2.0, 3.0]]]
        wrong += [0.5] if isinstance(value, (bool, str)) else [True]
        holder[leaf] = draw(st.sampled_from(wrong))
    else:  # a true/false in place of one number of an array, which numpy would read as 1 or 0
        container, k = draw(st.sampled_from(_numbers_in(value)))
        container[k] = draw(st.booleans())
    return name, action, doc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=corrupted_models())
def test_corrupted_model_file_names_the_field(tmp_path, case):
    name, action, doc = case
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_model(path)
    message = str(info.value)
    assert message.startswith(f"{path}: "), message
    # a count that shapes other fields (rows of sv_features, kernels) is named beside them
    assert re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", message), (name, action, message)


@pytest.mark.parametrize("stem", V1_STEMS)
@pytest.mark.parametrize("name", OPTIONAL_FIELDS)
def test_optional_model_fields_may_be_dropped(tmp_path, stem, name):
    doc = json.loads((V1_DIR / f"v1_{stem}.json").read_text())
    holder, leaf = _holder(doc, name)
    del holder[leaf]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert load_model(path).family == stem.partition("_")[0]


@pytest.mark.parametrize("stem, name, value, problem", [
    *[("ocsvm", "kernel", value, "kernel is not a kernel token") for value in (None, -1, [], {})],
    ("ocsvm", "kernel", "poly:q=4", "kernel holds a bad token: polynomial degree must be 2 or 3, got '4'"),
    *[("lmkad", "kernels", value, "kernels is not a list of kernel tokens") for value in (None, 1e999, [[1, 2], [3]])],
    ("lmkad", "gating.kind", [], "gating.kind [] is not one of softmax, sigmoid, rbf"),
    ("lmkad", "gating.kind", {}, "gating.kind {} is not one of softmax, sigmoid, rbf"),
    ("lmkad", "n_train", 1e999, "n_train is not an integer"),
    ("lmkad", "gating.v0", [0.0] * 4, "gating: one vector entry per matrix row required, gating.v0 has shape (4,), "
                                      "expected (3,) (sv_features: 5 x 3; kernels: 3)"),
    ("ocsvm", "version", True, "unsupported model version True"),
])
def test_load_names_a_field_of_the_wrong_type(tmp_path, stem, name, value, problem):
    # these once raised AttributeError, TypeError or OverflowError, or loaded
    doc = json.loads((V1_DIR / f"v1_{stem}.json").read_text())
    holder, leaf = _holder(doc, name)
    holder[leaf] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(problem)}$"):
        load_model(path)
