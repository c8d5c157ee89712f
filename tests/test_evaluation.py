import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmkad import cli, evaluation, models
from lmkad.dataset import Dataset, plan_folds, split_for_occ
from lmkad.evaluation import (
    ClassifierConfig,
    ConfusionCounts,
    CvCell,
    FoldOutcome,
    cross_validate,
    cross_validate_many,
    friedman_statistics,
    friedman_test,
    gmean,
    mgmean,
    pmg,
    read_gmean_matrix_csv,
    sv_fraction,
)
from lmkad.models import LmkadConfig
from lmkad.solver import infeasible_nu

#: average ranks of the bundled 25x14 reference Gmean matrix, as published
REFERENCE_RANKS = {
    "KPCA(g)": 11.52, "KOC(g)": 8.20, "SVDD(g)": 7.98, "OCSVM(g)": 7.70,
    "OCSVM(p)": 11.84, "OCSVM(l)": 13.60, "MKAD(gpl)": 7.32, "MKAD(gpp)": 6.48,
    "LMKAD(S_gpl)": 5.38, "LMKAD(S_gpp)": 2.98, "LMKAD(So_gpl)": 5.30,
    "LMKAD(So_gpp)": 5.40, "LMKAD(R_gpl)": 5.60, "LMKAD(R_gpp)": 5.70,
}


def load_reference_matrix():
    path = resources.files("lmkad").joinpath("data/reference_gmeans.csv")
    return read_gmean_matrix_csv(path)


def test_gmean_perfect():
    assert gmean(ConfusionCounts(tp=7, fp=0, tn=3, fn=0)) == 1.0


def test_gmean_no_true_positives():
    assert gmean(ConfusionCounts(tp=0, fp=5, tn=1, fn=2)) == 0.0
    assert gmean(ConfusionCounts(tp=0, fp=0, tn=4, fn=3)) == 0.0


def test_gmean_hand_value():
    # precision = recall = 0.8 -> gmean 0.8
    assert gmean(ConfusionCounts(tp=8, fp=2, tn=0, fn=2)) == pytest.approx(0.8, abs=1e-15)


def test_gmean_all_zero_counts():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=0, fp=0, tn=0, fn=0)
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1, fp=0, tn=1, fn=0)


@given(st.integers(1, 50), st.integers(0, 50), st.integers(0, 50),
       st.integers(0, 1000), st.integers(0, 1000))
def test_gmean_ignores_true_negatives(tp, fp, fn, tn1, tn2):
    a = gmean(ConfusionCounts(tp=tp, fp=fp, tn=tn1, fn=fn))
    b = gmean(ConfusionCounts(tp=tp, fp=fp, tn=tn2, fn=fn))
    assert a == b
    assert 0.0 <= a <= 1.0


def test_confusion_from_predictions():
    y = np.array([1, 1, -1, -1, 1])
    p = np.array([1, -1, -1, 1, 1])
    c = ConfusionCounts.from_predictions(y, p)
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 1, 1)


@given(st.lists(st.tuples(st.sampled_from([1, -1, 0, 2]), st.sampled_from([1, -1, 0, -2])), min_size=1))
def test_confusion_counts_are_the_four_sums(pairs):
    # labels outside +-1 fall in no cell
    y, p = np.array(pairs).T
    sums = [int(np.sum((y == a) & (p == b))) for a, b in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
    if not any(sums):
        with pytest.raises(ValueError, match="all counts are zero"):
            ConfusionCounts.from_predictions(y, p)
        return
    c = ConfusionCounts.from_predictions(y, p)
    assert [c.tp, c.fp, c.tn, c.fn] == sums
    assert all(type(count) is int for count in (c.tp, c.fp, c.tn, c.fn))


def tiny_dataset(seed=0, n_t=15, n_o=10):
    rng = np.random.default_rng(seed)
    targets = rng.normal(0.0, 1.0, size=(n_t, 2))
    outliers = rng.normal(4.0, 1.0, size=(n_o, 2))
    return Dataset(
        features=np.vstack([targets, outliers]),
        labels=[1] * n_t + [-1] * n_o,
        name="tiny",
    )


OCSVM_G = ClassifierConfig(name="OCSVM(g)", family="ocsvm", kernels="gauss:auto")


def test_cross_validate_grid_of_one():
    ds = tiny_dataset()
    plan = plan_folds(ds, 5, 1, seed=3)
    result = cross_validate(ds, OCSVM_G, [0.3], plan, base_seed=1)
    assert all(o.chosen_nu == 0.3 for o in result.folds if o.error is None)
    assert np.isfinite(result.mean_gmean)


def test_cross_validate_duplicate_grid_entries():
    ds = tiny_dataset()
    plan = plan_folds(ds, 5, 1, seed=3)
    a = cross_validate(ds, OCSVM_G, [0.3, 0.5], plan, base_seed=1)
    b = cross_validate(ds, OCSVM_G, [0.3, 0.3, 0.5, 0.5], plan, base_seed=1)
    assert a.mean_gmean == b.mean_gmean
    assert [o.chosen_nu for o in a.folds] == [o.chosen_nu for o in b.folds]


def test_cross_validate_deterministic():
    ds = tiny_dataset()
    plan = plan_folds(ds, 5, 2, seed=3)
    config = ClassifierConfig(name="L", family="lmkad", kernels="gpl", trainer=LmkadConfig(nu=1.0, max_outer=10))
    a = cross_validate(ds, config, [0.3, 0.5], plan, base_seed=9)
    b = cross_validate(ds, config, [0.3, 0.5], plan, base_seed=9)
    assert a.mean_gmean == b.mean_gmean and a.mean_sv_pct == b.mean_sv_pct


@pytest.mark.parametrize("family", ["ocsvm", "lmkad"])
@pytest.mark.parametrize("knob, message", [
    ({"gating": "rbff"}, "unknown gating kind 'rbff'"),
    # rho is always the margin mean: the knob that once chose another rule is unknown
    ({"rho_mode": "margin"}, "has unknown key 'rho_mode'"),
    ({"learning_rate": -1.0}, "learning_rate must be >= 0"),
], ids=["gating", "rho-mode", "learning-rate"])
def test_classifier_config_rejects_an_unknown_knob_value(family, knob, message):
    # checked when a benchmark config's classifier is built, before cross_validate trains anything
    with pytest.raises(ValueError, match=message):
        cli._classifier_from_dict(cli._checked("classifiers[0]", {"name": "x", "family": family, **knob},
                                               cli.CONFIG_KEYS["classifiers"]))


def test_cross_validate_skips_infeasible_candidates():
    ds = tiny_dataset()
    plan = plan_folds(ds, 5, 1, seed=3)
    # nu=0.001 gives nu*N < 1 on every fold; the 0.5 candidate still runs
    result = cross_validate(ds, OCSVM_G, [0.001, 0.5], plan, base_seed=1)
    assert all(o.chosen_nu == 0.5 for o in result.folds if o.error is None)
    assert any("nu=0.001 skipped on 5/5 folds" in w for w in result.warnings)
    # a grid of only infeasible points flags every fold
    failed = cross_validate(ds, OCSVM_G, [0.001], plan, base_seed=1)
    assert math.isnan(failed.mean_gmean)
    assert all(o.error is not None for o in failed.folds)
    assert failed.warnings


@pytest.mark.parametrize("grid, message", [
    ([0.5, 0.0], r"^nu_grid\[1\]: infeasible nu: 0\.0 not in \(0, 1\]$"),
    ((0.5, 1.5), r"^nu_grid\[1\]: infeasible nu: 1\.5 not in \(0, 1\]$"),
    ([True], r"^nu_grid\[0\]: must be a real number, got True$"),
    ([], r"^nu_grid is empty$"),
], ids=["zero", "above-1", "bool", "empty"])
def test_cross_validate_refuses_a_grid_point_that_is_not_a_rate(monkeypatch, grid, message):
    # only nu*N < 1 depends on the fold and skips a candidate; a grid point
    # outside (0, 1] is refused before any fold is split or trained
    monkeypatch.setattr(evaluation, "split_for_occ", None)
    ds = tiny_dataset()
    with pytest.raises(ValueError, match=message):
        cross_validate(ds, OCSVM_G, grid, plan_folds(ds, 5, 1, seed=3), base_seed=1)


def test_cross_validate_refuses_a_negative_base_seed_by_name(monkeypatch):
    # refused before any fold is split or trained, as numpy would refuse it unnamed
    ds = tiny_dataset()
    plan = plan_folds(ds, 5, 1, seed=3)
    monkeypatch.setattr(evaluation, "split_for_occ", None)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        evaluation.cross_validate_many([CvCell(ds, OCSVM_G, [0.5], plan, -1)])


def test_cross_validate_training_error_propagates(monkeypatch):
    # only an infeasible nu skips a candidate; any other failure is loud
    def broken(jobs):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(evaluation, "fit_many", broken)
    ds = tiny_dataset()
    plan = plan_folds(ds, 5, 1, seed=3)
    with pytest.raises(RuntimeError, match="solver blew up"):
        cross_validate(ds, OCSVM_G, [0.001, 0.5], plan, base_seed=1)


PIN_CONFIGS = {
    "ocsvm": ClassifierConfig(name="OCSVM(g)", family="ocsvm", kernels="gauss:auto"),
    "mkad": ClassifierConfig(name="MKAD(gpl)", family="mkad", kernels="gpl"),
    "lmkad-sigmoid": ClassifierConfig(name="S", family="lmkad", kernels="gpl",
                                      trainer=LmkadConfig(nu=1.0, gating_kind="sigmoid")),
    "lmkad-softmax": ClassifierConfig(name="So", family="lmkad", kernels="gpl",
                                      trainer=LmkadConfig(nu=1.0, gating_kind="softmax")),
    "lmkad-rbf": ClassifierConfig(name="R", family="lmkad", kernels="gpp",
                                  trainer=LmkadConfig(nu=1.0, gating_kind="rbf")),
}
#: the protocol's grid; nu = 0.02 is infeasible on the 40-row setosa folds
PIN_GRID = [0.02, 0.05, 0.1, 0.2, 0.3]


def _per_candidate_outcomes(dataset, config, nu_grid, plan, base_seed):
    """The protocol with one ``train_for_config`` call per feasible candidate."""
    outcomes = []
    for run in range(plan.n_runs):
        for fold in range(plan.n_folds):
            train, validation, test = split_for_occ(dataset, plan, run, fold)
            best = None
            for gi, nu in enumerate(nu_grid):
                if infeasible_nu(nu, train.shape[0]) is not None:
                    continue
                seed = evaluation._derived_seed(base_seed, run, fold, gi)
                model = evaluation.train_for_config(config, train, nu, seed)
                score = evaluation._score(model, validation)
                if best is None or score > best[0]:
                    best = (score, nu, model)
            score, nu, model = best
            outcomes.append(
                FoldOutcome(run, fold, nu, score, evaluation._score(model, test), sv_fraction(model))
            )
    return outcomes


@pytest.mark.parametrize("budget", ["one-batch", "several-batches"])
@pytest.mark.parametrize("name", sorted(PIN_CONFIGS))
def test_cross_validate_matches_per_candidate_training(iris, monkeypatch, name, budget):
    # training a cell's candidates together must select and score exactly as
    # training each candidate alone, also when the cell is split into batches
    batches = []
    split = models._batches

    def spy(jobs):
        for batch in split(jobs):
            batches.append(batch)
            yield batch

    monkeypatch.setattr(models, "_batches", spy)
    if budget == "several-batches":
        monkeypatch.setattr(models, "BATCH_BYTES", 500_000)  # 7-13 fits at N = 40
    config = PIN_CONFIGS[name]
    plan = plan_folds(iris, 5, 1, seed=11)
    result = cross_validate(iris, config, PIN_GRID, plan, base_seed=4)
    sizes = [len(batch) for batch in batches]  # 5 folds x 4 feasible candidates
    if budget == "one-batch":
        assert sizes == [20]
    else:
        assert sum(sizes) == 20 and len(sizes) > 1 and min(sizes) > 1
    expected = _per_candidate_outcomes(iris, config, PIN_GRID, plan, base_seed=4)
    assert result.folds == expected


def test_cross_validate_nonfinite_gradient_mid_round_propagates(iris, monkeypatch):
    # the third LMKAD fit of the first round fails mid-round: its row of the
    # round's stacked gradient is NaN, and its error propagates unchanged
    calls = []
    gradient = models.gradient_stack

    def failing_third(kind, matrix, vector, alpha, Xn, grams, H):
        calls.append(alpha.shape)
        grad_matrix, grad_vector = gradient(kind, matrix, vector, alpha, Xn, grams, H)
        if len(calls) == 1:
            grad_vector[2] = np.nan
        return grad_matrix, grad_vector

    monkeypatch.setattr(models, "gradient_stack", failing_third)
    config = PIN_CONFIGS["lmkad-sigmoid"]
    plan = plan_folds(iris, 5, 1, seed=11)
    message = r"^non-finite gating gradient at outer iteration 0 \(kind=sigmoid, nu=0\.2\)$"
    with pytest.raises(RuntimeError, match=message):
        cross_validate(iris, config, PIN_GRID, plan, base_seed=4)
    assert len(calls) == 1 and calls[0][0] > 3  # one stacked call: the whole first round


@pytest.mark.parametrize("budget", ["one-batch", "several-batches"])
def test_cross_validate_many_matches_each_cell_alone(iris, monkeypatch, budget):
    # every cell of two datasets (N = 40 and N = 24 training targets) and
    # all five pinned classifiers trains in one fit_many call, whose
    # rounds solve each N's duals in one solve_duals call; every result
    # equals the cell's own cross_validate
    small = tiny_dataset(seed=5, n_t=30, n_o=10)
    cells = [CvCell(data, PIN_CONFIGS[name], PIN_GRID, plan_folds(data, 5, 1, seed=11), 4)
             for data in (iris, small) for name in sorted(PIN_CONFIGS)]
    expected = [cross_validate(*cell) for cell in cells]

    fits, batches, solves = [], [], []
    fit_many, split, solve_duals = evaluation.fit_many, models._batches, models.solve_duals

    def spy_fit_many(jobs):
        fits.append(len(jobs))
        return fit_many(jobs)

    def spy_batches(jobs):
        for batch in split(jobs):
            batches.append(len(batch))
            yield batch

    def spy_solve(Q, nu, alpha0, *args):
        solves.append((Q[0].shape[-1], len(nu), alpha0 is None))
        return solve_duals(Q, nu, alpha0, *args)

    monkeypatch.setattr(evaluation, "fit_many", spy_fit_many)
    monkeypatch.setattr(models, "_batches", spy_batches)
    monkeypatch.setattr(models, "solve_duals", spy_solve)
    if budget == "several-batches":
        monkeypatch.setattr(models, "BATCH_BYTES", 2_000_000)
    results = cross_validate_many(cells)

    assert results == expected
    assert fits == [200]  # 10 cells x 5 folds x 4 feasible candidates
    if budget == "one-batch":
        assert batches == [200]
        assert solves[:2] == [(40, 100, True), (24, 100, True)]  # round 0: one call per N
    else:
        assert sum(batches) == 200 and len(batches) > 2 and min(batches) > 1
        assert any(n < 100 for _, n, _ in solves[:2])


def test_cross_validate_empty_grid():
    ds = tiny_dataset()
    plan = plan_folds(ds, 5, 1, seed=3)
    with pytest.raises(ValueError):
        cross_validate(ds, OCSVM_G, [], plan)


def test_cross_validate_single_class_warns():
    rng = np.random.default_rng(1)
    ds = Dataset(features=rng.normal(size=(20, 2)), labels=[1] * 20, name="onesided")
    plan = plan_folds(ds, 4, 1, seed=0)
    result = cross_validate(ds, OCSVM_G, [0.5], plan, base_seed=0)
    assert any("no outlier rows" in w for w in result.warnings)


def test_cross_validate_iris_ocsvm_matches_published_band(iris, iris_plan):
    # published mean Gmean for the gaussian one-class SVM on iris is 85.06%,
    # checked with a wide band because the hyperparameter search is unspecified
    result = cross_validate(iris, OCSVM_G, [0.02, 0.05, 0.1, 0.2, 0.3], iris_plan, base_seed=7)
    assert abs(result.mean_gmean - 0.8506) <= 0.10


def test_mgmean_single_dataset():
    M = np.array([[0.5, 0.7, 0.9]])
    assert np.array_equal(mgmean(M), M[0])


def test_mgmean_perfect_column():
    M = np.array([[1.0, 0.2], [1.0, 0.4]])
    assert mgmean(M)[0] == 1.0


def test_pmg_best_everywhere_is_100():
    M = np.array([[0.9, 0.5], [0.8, 0.3]])
    out = pmg(M)
    assert out[0] == pytest.approx(100.0)
    assert np.all(out <= 100.0 + 1e-12)


def test_pmg_half_of_max():
    M = np.array([[1.0, 0.5], [0.8, 0.4]])
    assert pmg(M)[1] == pytest.approx(50.0)


def test_pmg_rejects_zero_rows():
    with pytest.raises(ValueError):
        pmg(np.zeros((2, 2)))


def test_reference_matrix_mgmean_and_pmg():
    datasets, classifiers, M = load_reference_matrix()
    assert (len(datasets), len(classifiers)) == (25, 14)
    col = classifiers.index("LMKAD(S_gpp)")
    assert abs(mgmean(M)[col] - 75.59) <= 0.05
    assert abs(pmg(M)[col] - 98.91) <= 0.05


def test_friedman_two_classifiers_forced_ranks():
    # A beats B on every dataset: chi2 = N*(k-1) = N, the F denominator
    # vanishes and the report is degenerate with +inf F
    M = np.array([[0.9, 0.1]] * 6)
    report = friedman_test(M)
    assert np.array_equal(report.avg_ranks, [1.0, 2.0])
    assert report.chi_sq == pytest.approx(6.0)
    assert math.isinf(report.f_stat) and report.degenerate


def test_friedman_all_tied():
    M = np.ones((5, 4))
    report = friedman_test(M)
    assert np.allclose(report.avg_ranks, 2.5)
    assert report.chi_sq == pytest.approx(0.0, abs=1e-12)
    assert report.f_stat == pytest.approx(0.0, abs=1e-12)
    assert report.p_value == pytest.approx(1.0)


def test_friedman_from_published_rank_column():
    ranks = np.array([REFERENCE_RANKS[c] for c in REFERENCE_RANKS])
    report = friedman_statistics(ranks, n_datasets=25)
    assert report.chi_sq == pytest.approx(164.4, abs=0.2)
    assert abs(report.f_stat - 24.56) <= 0.05
    assert (report.df1, report.df2) == (13, 312)


def test_friedman_on_reference_matrix():
    datasets, classifiers, M = load_reference_matrix()
    report = friedman_test(M)
    assert abs(report.f_stat - 24.56) <= 0.05
    assert (report.df1, report.df2) == (13, 312)
    assert report.p_value < 0.05
    for name, expected in REFERENCE_RANKS.items():
        got = report.avg_ranks[classifiers.index(name)]
        assert abs(got - expected) <= 0.25, name


def test_friedman_duplicate_columns_get_equal_ranks():
    rng = np.random.default_rng(3)
    col = rng.uniform(size=6)
    other = rng.uniform(size=6)
    M = np.column_stack([col, col, other])
    report = friedman_test(M)
    assert report.avg_ranks[0] == report.avg_ranks[1]


def test_friedman_input_validation():
    with pytest.raises(ValueError):
        friedman_test(np.ones((1, 3)))
    with pytest.raises(ValueError):
        friedman_test(np.ones((3, 1)))
    with pytest.raises(ValueError):
        friedman_test(np.array([[1.0, np.nan], [0.5, 0.2]]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(2, 8))
def test_friedman_rank_sanity(seed, k, n):
    rng = np.random.default_rng(seed)
    M = rng.uniform(size=(n, k))
    report = friedman_test(M)
    assert report.avg_ranks.mean() == pytest.approx((k + 1) / 2, abs=1e-9)
    assert np.all(report.avg_ranks >= 1.0) and np.all(report.avg_ranks <= k)
    assert 0.0 <= report.p_value <= 1.0 or report.degenerate


def test_read_matrix_long_format(tmp_path):
    p = tmp_path / "long.csv"
    p.write_text(
        "dataset,classifier,mean_gmean,std_gmean,mean_sv_pct\n"
        "d1,A,0.5,0,1\nd1,B,0.6,0,1\nd2,A,0.7,0,1\nd2,B,0.8,0,1\n"
    )
    datasets, classifiers, M = read_gmean_matrix_csv(p)
    assert datasets == ["d1", "d2"] and classifiers == ["A", "B"]
    assert M.tolist() == [[0.5, 0.6], [0.7, 0.8]]


def test_read_matrix_rejects_incomplete_long(tmp_path):
    p = tmp_path / "long.csv"
    p.write_text(
        "dataset,classifier,mean_gmean,std_gmean,mean_sv_pct\n"
        "d1,A,0.5,0,1\nd2,B,0.8,0,1\n"
    )
    with pytest.raises(ValueError, match="incomplete"):
        read_gmean_matrix_csv(p)


def test_read_matrix_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("dataset,A\nd1,not-a-number\n")
    with pytest.raises(ValueError):
        read_gmean_matrix_csv(p)


LONG_HEADER = "dataset,classifier,mean_gmean,std_gmean,mean_sv_pct\n"


@pytest.mark.parametrize("text, message", [
    (LONG_HEADER + "d1,A,0.5,0,1\nd1,B\n", r"scores.csv: row 1 has 2 cells, expected 5$"),
    ("dataset,A,B\nd1,0.5,0.6\nd2,0.7\n", r"scores.csv: row 1 has 2 cells, expected 3$"),
    (LONG_HEADER + "d1,A,0.5,0,1\nd1,B,x,0,1\n", r"scores.csv: non-numeric value 'x' at row 1, column 2$"),
    ("dataset,A,B\nd1,0.5,0.6\nd2,0.7,high\n", r"scores.csv: non-numeric value 'high' at row 1, column 2$"),
    # a repeated score would overwrite (long) or add (wide) a score and move the ranks
    (LONG_HEADER + "d1,A,0.5,0,1\nd1,B,0.6,0,1\nd2,A,0.7,0,1\nd2,B,0.8,0,1\nd1,A,0.9,0,1\n",
     r"scores.csv: \(dataset, classifier\) pair \('d1', 'A'\) occurs twice$"),
    ("dataset,A,B\nd1,0.5,0.6\nd2,0.7,0.8\nd1,0.9,0.1\n", r"scores.csv: dataset 'd1' occurs twice$"),
    ("dataset,A,A\nd1,0.5,0.6\nd2,0.7,0.8\n", r"scores.csv: classifier 'A' occurs twice$"),
], ids=["long-short-row", "wide-ragged-row", "long-non-numeric", "wide-non-numeric",
        "long-repeated-pair", "wide-repeated-dataset", "wide-repeated-classifier"])
def test_read_matrix_names_a_bad_row(tmp_path, text, message):
    p = tmp_path / "scores.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_gmean_matrix_csv(p)
