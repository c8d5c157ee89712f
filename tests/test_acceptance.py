"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 6 carries a known-failing threshold: LMKAD(S_gpl) measures a
mean Gmean of 0.4815 on the iris-setosa protocol (MKAD(gpl): 0.4751), and
the >= 0.95 assertion is kept as written rather than weakened.  The
trainer's objective drives sigmoid gates to fixed weights (ROADMAP item
4).  The one-class dual has no linear term, so J = -1/2 a'Q(eta)a falls
as the gates scale Q up, and the gradient of J with respect to the bias
of sigmoid gate m is
-sum_i eta_m(x_i)(1 - eta_m(x_i)) a_i sum_j a_j eta_m(x_j) K_m(x_i, x_j).
With K_m >= 0 entrywise (a gaussian kernel, a polynomial kernel of even
degree) and a >= 0 every term has one sign: the gradient is <= 0, every
outer step raises the bias and the gates run to 1
(``test_gating.test_sigmoid_bias_gradient_is_never_positive`` checks the
sign).  Measured: over 400 random problems the bias gradient lies in
[-0.124, -0.053] (gaussian), [-1.83, -0.12] (poly 2) and [-4.96, -0.12]
(poly 3); on the iris folds the mean gate on targets is 0.996
(gaussian), 0.998 (poly 2) and 0.54-0.60 (linear), and LMKAD(S_gpl)
labels agree with MKAD(gpl) on 96.8-97.4 % of the 150 rows.  With
z-scores fit on the training targets, iris outliers land at z ~ +10..+30,
where the poly(2) and linear kernels accept them; normalization alone
moves MKAD(gpl) by up to 0.45 without leakage, while LMKAD(S_gpl) stays
within 0.012 of MKAD(gpl) in all 15 measured cells.  The directional
clauses (LMKAD beats MKAD on Gmean on the same folds, criterion 6, and
uses fewer support vectors, criterion 9) do hold and are asserted.

There is deliberately no test reproducing the full published 25-dataset
result tables; the bundled reference matrix covers the statistics path
instead.
"""
import time
from importlib import resources

import numpy as np
import pytest

from lmkad.dataset import load_csv, plan_folds, split_for_occ
from lmkad.evaluation import (
    ClassifierConfig,
    cross_validate,
    friedman_test,
    read_gmean_matrix_csv,
    sv_fraction,
)
from lmkad.gating import GatingParams
from lmkad.kernels import KernelSpec
from lmkad.models import (
    LmkadConfig,
    composite_gram_localized,
    decision_values,
    predict_batch,
    train_lmkad,
    train_mkad,
    train_ocsvm,
)
from lmkad.solver import DualProblem, solve_dual

from conftest import PROTOCOL_SEED
from gradient_check import make_instance, max_relative_error
from qp_oracle import brute_force_qp, random_psd_gram

NU_GRID = [0.02, 0.05, 0.1, 0.2, 0.3]

TABLE_RANKS = {
    "KPCA(g)": 11.52, "KOC(g)": 8.20, "SVDD(g)": 7.98, "OCSVM(g)": 7.70,
    "OCSVM(p)": 11.84, "OCSVM(l)": 13.60, "MKAD(gpl)": 7.32, "MKAD(gpp)": 6.48,
    "LMKAD(S_gpl)": 5.38, "LMKAD(S_gpp)": 2.98, "LMKAD(So_gpl)": 5.30,
    "LMKAD(So_gpp)": 5.40, "LMKAD(R_gpl)": 5.60, "LMKAD(R_gpp)": 5.70,
}


def report(n, ok, detail):
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def iris_protocol(iris, iris_plan):
    """Criterion 6's full protocol run, shared with criterion 9."""
    mkad = cross_validate(
        iris, ClassifierConfig(name="MKAD(gpl)", family="mkad", kernels="gpl"),
        NU_GRID, iris_plan, base_seed=7,
    )
    lmkad = cross_validate(
        iris, ClassifierConfig(name="LMKAD(S_gpl)", family="lmkad", kernels="gpl",
                         trainer=LmkadConfig(nu=1.0, gating_kind="sigmoid")),
        NU_GRID, iris_plan, base_seed=7,
    )
    return mkad, lmkad


def test_criterion_1_solver_matches_brute_force_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(4, 9))
        nu = (0.3, 0.5, 1.0)[trial % 3]
        Q = random_psd_gram(rng, n)
        problem = DualProblem(Q, nu)
        sol = solve_dual(problem)
        oracle_obj, _ = brute_force_qp(Q, problem.upper_bound)
        worst = max(worst, abs(sol.objective - oracle_obj))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    assert report(1, ok, f"50 instances, max |objective - oracle| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradients_match_finite_differences():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst = {}
    for kind in ("softmax", "sigmoid", "rbf"):
        errs = []
        for _ in range(20):
            n = int(rng.integers(4, 11))
            p = int(rng.integers(1, 4))
            d = int(rng.integers(2, 5))
            params, alpha, X, grams = make_instance(kind, rng, n=n, p=p, d=d)
            errs.append(max_relative_error(params, alpha, X, grams))
        worst[kind] = max(errs)
    elapsed = time.perf_counter() - start
    ok = all(v <= 1e-4 for v in worst.values()) and elapsed < 10.0
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
    assert report(2, ok, f"max rel err {detail}, {elapsed:.2f}s")


def test_criterion_3_reduction_equivalences():
    rng = np.random.default_rng(5150)
    X = rng.normal(loc=1.5, scale=1.0, size=(30, 3))
    grid = rng.normal(loc=1.5, scale=2.5, size=(1000, 3))
    kernel = KernelSpec("gaussian", sigma_sq=2.0)

    # (a) p = 1: OCSVM == MKAD == LMKAD predictions, exact
    ocsvm = train_ocsvm(X, kernel, nu=0.3)
    mkad1 = train_mkad(X, [kernel], nu=0.3)
    lmkad1 = train_lmkad(X, [kernel], LmkadConfig(nu=0.3, gating_kind="softmax", seed=1))
    p_o = predict_batch(ocsvm, grid)
    same_a = np.array_equal(p_o, predict_batch(mkad1, grid)) and np.array_equal(
        p_o, predict_batch(lmkad1, grid)
    )

    # (b) frozen uniform gates vs fixed uniform weights, sign-exact
    kernels = [kernel, KernelSpec("polynomial", q=2), KernelSpec("linear")]
    mkad = train_mkad(X, kernels, nu=0.3)
    frozen = LmkadConfig(
        nu=0.3, gating_kind="softmax", learning_rate=0.0, seed=1,
        initial_gating=GatingParams("softmax", np.zeros((3, 3)), np.zeros(3)),
    )
    lmkad = train_lmkad(X, kernels, frozen)
    f_mkad = decision_values(mkad, grid)
    keep = np.abs(f_mkad) > 1e-9
    same_b = np.array_equal(
        np.sign(decision_values(lmkad, grid))[keep], np.sign(f_mkad)[keep]
    )
    ok = same_a and same_b
    assert report(3, ok, f"p=1 chain exact: {same_a}; frozen-uniform sign match on {keep.sum()}/1000 points: {same_b}")


def test_criterion_4_localized_gram_psd():
    rng = np.random.default_rng(404)
    worst = np.inf
    for kind in ("softmax", "sigmoid", "rbf"):
        for _ in range(20):
            n = int(rng.integers(5, 21))
            d = int(rng.integers(2, 5))
            p = int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            kernels = [
                KernelSpec("gaussian", sigma_sq=float(rng.uniform(0.5, 4.0))),
                KernelSpec("polynomial", q=int(rng.choice([2, 3]))),
                KernelSpec("linear"),
            ][:p]
            if kind == "rbf":
                gating = GatingParams("rbf", rng.normal(size=(p, d)), rng.uniform(0.5, 2.0, p))
            else:
                gating = GatingParams(kind, rng.normal(size=(p, d)), rng.normal(size=p))
            K = composite_gram_localized(kernels, gating, X, X)
            worst = min(worst, float(np.linalg.eigvalsh(K).min()))
    ok = worst >= -1e-8
    assert report(4, ok, f"min eigenvalue over 60 draws: {worst:.2e}")


def test_criterion_5_friedman_reproduction():
    start = time.perf_counter()
    path = resources.files("lmkad").joinpath("data/reference_gmeans.csv")
    datasets, classifiers, M = read_gmean_matrix_csv(path)
    rep = friedman_test(M)
    elapsed = time.perf_counter() - start
    rank_err = max(
        abs(rep.avg_ranks[classifiers.index(name)] - expected)
        for name, expected in TABLE_RANKS.items()
    )
    ok = (
        abs(rep.f_stat - 24.56) <= 0.05
        and (rep.df1, rep.df2) == (13, 312)
        and rank_err <= 0.25
        and elapsed < 1.0
    )
    assert report(5, ok, f"F = {rep.f_stat:.4f}, df = ({rep.df1}, {rep.df2}), "
                         f"max rank deviation = {rank_err:.3f}, {elapsed:.3f}s")


def test_criterion_6_iris_end_to_end(iris_protocol):
    mkad, lmkad = iris_protocol
    directional = lmkad.mean_gmean > mkad.mean_gmean
    threshold = lmkad.mean_gmean >= 0.95
    report(6, directional and threshold,
           f"LMKAD(S_gpl) mean Gmean = {lmkad.mean_gmean:.4f} "
           f"(>= 0.95: {threshold}), MKAD(gpl) = {mkad.mean_gmean:.4f} "
           f"(LMKAD > MKAD: {directional})")
    assert directional, "LMKAD(S_gpl) must beat MKAD(gpl) on the same folds"
    assert threshold, (
        f"LMKAD(S_gpl) mean Gmean {lmkad.mean_gmean:.4f} < 0.95: not reachable under "
        "leakage-free per-fold normalization; see the module docstring for the analysis"
    )


def test_criterion_7_nu_property(iris, iris_plan):
    results = []
    ok = True
    for nu in (0.1, 0.3):
        fracs, sv_pcts, ns = [], [], []
        for fold in range(5):
            train_targets, _, _ = split_for_occ(iris, iris_plan, 0, fold)
            model = train_ocsvm(train_targets, KernelSpec("gaussian"), nu=nu)
            fracs.append(float(np.mean(predict_batch(model, train_targets) == -1)))
            sv_pcts.append(sv_fraction(model))
            ns.append(train_targets.shape[0])
        slack = 2 / np.sqrt(min(ns))
        lo, hi = max(0.0, nu - slack), nu + slack
        in_band = all(lo <= f <= hi for f in fracs)
        sv_ok = all(pct >= 100 * (nu - slack) for pct in sv_pcts)
        ok = ok and in_band and sv_ok
        results.append(f"nu={nu}: reject frac {np.mean(fracs):.3f} in [{lo:.3f}, {hi:.3f}]: {in_band}, "
                       f"sv% >= {100 * (nu - slack):.1f}: {sv_ok}")
    assert report(7, ok, "; ".join(results))


def test_criterion_8_benchmark_determinism(tmp_path, iris_path):
    import json

    from lmkad.cli import main

    config = {
        "seed": 11,
        "n_folds": 5,
        "n_runs": 5,
        "output_dir": str(tmp_path / "unused"),
        "datasets": [
            {"name": "iris-setosa", "path": str(iris_path), "label_column": "species",
             "target_label": "setosa", "header": True},
            {"name": "iris-versicolor", "path": str(iris_path), "label_column": "species",
             "target_label": "versicolor", "header": True},
        ],
        "classifiers": [
            {"name": "OCSVM(g)", "family": "ocsvm", "kernels": "gauss:auto",
             "nu_grid": [0.05, 0.1, 0.3]},
            {"name": "MKAD(gpl)", "family": "mkad", "kernels": "gpl",
             "nu_grid": [0.05, 0.1, 0.3]},
        ],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["benchmark", "--config", str(cfg), "--output-dir", str(out1), "--jobs", "1"]) == 0
    assert main(["benchmark", "--config", str(cfg), "--output-dir", str(out2), "--jobs", "1"]) == 0
    files = ["results.csv", "gmean_matrix.csv", "ranks.csv", "friedman.csv"]
    identical = {f: (out1 / f).read_bytes() == (out2 / f).read_bytes() for f in files}
    ok = all(identical.values())
    assert report(8, ok, f"byte-identical reruns: {identical}")


def test_criterion_9_sparsity_direction(iris_protocol):
    mkad, lmkad = iris_protocol
    ok = lmkad.mean_sv_pct < mkad.mean_sv_pct
    assert report(9, ok, f"LMKAD(S_gpl) mean %SV = {lmkad.mean_sv_pct:.2f} < "
                         f"MKAD(gpl) mean %SV = {mkad.mean_sv_pct:.2f}: {ok}")
