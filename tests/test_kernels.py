import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lmkad.kernels import (
    KernelSpec,
    format_kernel_spec,
    gaussian_bandwidth,
    gram,
    kernel_map,
    parse_kernel_spec,
    product,
    row_sq_norms,
)
from decision_reference import reference_gram
from oracles import kernel_eval

LINEAR = KernelSpec("linear")
POLY2 = KernelSpec("polynomial", q=2)
POLY3 = KernelSpec("polynomial", q=3)
GAUSS = KernelSpec("gaussian", sigma_sq=2.0)
ALL_SPECS = [LINEAR, POLY2, POLY3, GAUSS]

vectors = st.lists(st.floats(-10, 10), min_size=1, max_size=5)


def test_parse_round_trip():
    for token in ["linear", "poly:q=2", "poly:q=3", "gauss:auto", "gauss:sigma_sq=1.5"]:
        assert format_kernel_spec(parse_kernel_spec(token)) == token


@pytest.mark.parametrize("bad", ["poly:q=4", "poly:q=0", "gauss:sigma_sq=-1", "rbf", "gauss:", "", 5, None])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):  # a token that is not a string once raised AttributeError
        parse_kernel_spec(bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("polynomial")  # degree required
    with pytest.raises(ValueError):
        KernelSpec("gaussian", sigma_sq=0.0)
    with pytest.raises(ValueError):
        KernelSpec("linear", q=2)
    assert KernelSpec("gaussian").is_auto


def test_linear_dot_product():
    assert kernel_eval(LINEAR, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def test_polynomial_forced_by_formula():
    assert kernel_eval(POLY2, np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 4.0


def test_gaussian_zero_distance():
    for s2 in (0.5, 1.0, 7.3):
        spec = KernelSpec("gaussian", sigma_sq=s2)
        x = np.array([1.0, -2.0, 0.5])
        assert kernel_eval(spec, x, x) == 1.0


def test_gaussian_hand_value():
    # exp(-||(0,0)-(2,0)||^2 / 4) = exp(-1)
    spec = KernelSpec("gaussian", sigma_sq=4.0)
    got = kernel_eval(spec, np.zeros(2), np.array([2.0, 0.0]))
    assert got == pytest.approx(0.3678794411714423, abs=1e-15)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_eval(LINEAR, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        gram(LINEAR, np.zeros((2, 2)), np.zeros((2, 3)))


def test_auto_spec_not_evaluable():
    with pytest.raises(ValueError):
        kernel_eval(KernelSpec("gaussian"), np.zeros(2), np.zeros(2))


def test_gram_single_gaussian_point():
    G = gram(GAUSS, np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
    assert G.shape == (1, 1) and G[0, 0] == 1.0


def test_gram_orthonormal_rows_linear():
    X = np.eye(2)
    assert np.array_equal(gram(LINEAR, X, X), np.eye(2))


def test_gram_psd_random():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 3))
    for spec in ALL_SPECS:
        eigs = np.linalg.eigvalsh(gram(spec, X, X))
        assert eigs.min() >= -1e-8, spec


def test_gram_matches_pairwise_eval():
    rng = np.random.default_rng(1)
    X, Y = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
    for spec in ALL_SPECS:
        G = gram(spec, X, Y)
        for i in range(4):
            for j in range(3):
                assert G[i, j] == pytest.approx(kernel_eval(spec, X[i], Y[j]), rel=1e-12)


def test_bandwidth_single_pair():
    assert gaussian_bandwidth(np.array([[0.0, 0.0], [2.0, 0.0]])) == 4.0


def test_bandwidth_identical_points_fallback():
    assert gaussian_bandwidth(np.ones((3, 2))) == 1.0


def test_bandwidth_three_points_1d():
    # pairs (0,1),(0,2),(1,2) -> distances 1, 4, 1 -> mean 2
    assert gaussian_bandwidth(np.array([[0.0], [1.0], [2.0]])) == pytest.approx(2.0, abs=1e-15)


def test_bandwidth_needs_two_points():
    with pytest.raises(ValueError):
        gaussian_bandwidth(np.array([[1.0, 2.0]]))


@given(vectors, vectors)
def test_symmetry(xl, yl):
    d = min(len(xl), len(yl))
    x, y = np.array(xl[:d]), np.array(yl[:d])
    for spec in ALL_SPECS:
        assert kernel_eval(spec, x, y) == pytest.approx(kernel_eval(spec, y, x), rel=1e-12, abs=1e-12)


@given(vectors, vectors)
def test_gaussian_bounded(xl, yl):
    d = min(len(xl), len(yl))
    x, y = np.array(xl[:d]), np.array(yl[:d])
    k = kernel_eval(GAUSS, x, y)
    assert 0.0 < k <= 1.0
    if not np.array_equal(x, y):
        assert k <= 1.0  # equality only at zero distance


def test_gaussian_gram_unit_diagonal():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(6, 4))
    assert np.array_equal(np.diagonal(gram(GAUSS, X, X)), np.ones(6))


#: a bandwidth whose reciprocal is inexact, so a multiply cannot stand in for the divide
MAP_SPECS = ALL_SPECS + [KernelSpec("gaussian", sigma_sq=1.7)]


@pytest.mark.parametrize("spec", MAP_SPECS)
def test_gram_matches_reference_bit_for_bit(spec):
    rng = np.random.default_rng(17)
    X, Y = rng.normal(size=(9, 3)), rng.normal(size=(5, 3))
    X[0] = Y[0]  # a zero distance
    for A, B in ((X, Y), (X, X), (X[:1], Y), (X, Y[:1])):
        assert gram(spec, A, B).tobytes() == reference_gram(spec, A, B).tobytes()


@pytest.mark.parametrize("spec", MAP_SPECS)
def test_kernel_map_of_any_rows_is_those_rows_of_the_gram(spec):
    rng = np.random.default_rng(18)
    X, Y = rng.normal(size=(11, 4)), rng.normal(size=(6, 4))
    G = product(X, Y)
    before = G.copy()
    xx, yy = row_sq_norms(X)[:, None], row_sq_norms(Y)
    whole = gram(spec, X, Y)
    out, scratch = np.empty((4, 6)), np.empty((4, 6))
    for rows in (slice(0, 1), slice(3, 7), slice(7, 11)):
        n = rows.stop - rows.start
        got = kernel_map(spec, G[rows], xx[rows], yy, out[:n], scratch[:n])
        assert got.tobytes() == whole[rows].tobytes()
    assert G.tobytes() == before.tobytes()  # the product is only read
