import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lmkad.kernels import (
    TRAIN_TILE_BYTES,
    KernelSpec,
    format_kernel_spec,
    gaussian_bandwidth,
    gram,
    kernel_map,
    parse_kernel_spec,
    product,
    row_sq_norms,
)
from conftest import child_env
from decision_reference import reference_gram
from gram_reference import reference_bandwidth, reference_gram as whole_gram
from oracles import kernel_eval

LINEAR = KernelSpec("linear")
POLY2 = KernelSpec("polynomial", q=2)
POLY3 = KernelSpec("polynomial", q=3)
GAUSS = KernelSpec("gaussian", sigma_sq=2.0)
ALL_SPECS = [LINEAR, POLY2, POLY3, GAUSS]

#: a bandwidth whose reciprocal is inexact, so a multiply cannot stand in for the divide
MAP_SPECS = ALL_SPECS + [KernelSpec("gaussian", sigma_sq=1.7)]

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
    assert KernelSpec("polynomial", q=154).q == 154  # programmatic only: no token round-trips it


@pytest.mark.parametrize("q", [2.0, 2.5, True, "2", np.int64(2), 0, -1, None])
def test_polynomial_degree_must_be_an_int(q):
    # 2.0 trained and saved poly:q=2.0, which load_model refuses; 2.5 made NaN
    # Grams; "2" failed later inside the map; a bool is not a degree here
    with pytest.raises(ValueError, match=f"^{re.escape(f'polynomial kernel requires integer degree q >= 1, got q={q!r}')}$"):
        KernelSpec("polynomial", q=q)


#: the sizes around the trainer's whole-fit limit (N = 181) and the widths
#: at which the training Grams of an iris view and of a wide input are built
SYMMETRY_SIZES = [(n, d) for n in (2, 181, 182, 1000) for d in (1, 4, 99)]


def asymmetric_grams() -> list[str]:
    """The kernels and sizes at which ``gram(spec, X, X)`` is not equal to its
    transpose bit for bit (the trainer refuses such a Gram at set-up)."""
    bad = []
    for n, d in SYMMETRY_SIZES:
        X = np.random.default_rng([n, d]).standard_normal((n, d))
        for spec in (LINEAR, POLY2, POLY3, KernelSpec("gaussian").resolved(X)):
            K = gram(spec, X, X)
            if not np.array_equal(K.view(np.int64), K.T.view(np.int64)):
                bad.append(f"{format_kernel_spec(spec)} N={n} d={d}")
    return bad


def test_training_grams_are_bitwise_symmetric():
    # numpy builds X @ X.T with one symmetric product (syrk) and the maps are
    # elementwise, so every kernel's Gram equals its transpose bit for bit
    assert asymmetric_grams() == []


def under_prescott(name: str):
    """``test_kernels.<name>()`` run in a child forced onto OpenBLAS's SSE3
    kernel (the variable is ignored by other BLAS), its result read back as JSON."""
    env = dict(child_env(Path(__file__).parent), OPENBLAS_CORETYPE="Prescott")
    code = f"import json, test_kernels; print(json.dumps(test_kernels.{name}()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout)


def test_training_grams_are_bitwise_symmetric_under_another_blas_kernel():
    # OpenBLAS picks its kernel per CPU; a child forced onto its SSE3 kernel
    # must build the same invariant
    assert under_prescott("asymmetric_grams") == []


#: one tile of rows (N <= 181 at N columns), several, and a partial last tile
#: (182, 1000, 1001); a rectangular Gram has ``WIDE`` columns
TILE_SIZES = (1, 2, 40, 181, 182, 1000, 1001)
WIDE = 300


def grams_off_the_whole_array_form() -> list[str]:
    """The kernels, sizes and shapes at which ``gram`` (into ``out``, a slot of
    a 4-D stack, when square) or ``gaussian_bandwidth`` differs by a bit from
    the whole-array form of ``gram_reference``."""
    bad = []
    for n in TILE_SIZES:
        X = np.random.default_rng([n, 5]).standard_normal((n, 5))
        Y = np.random.default_rng([n, 6]).standard_normal((WIDE, 5))
        specs = MAP_SPECS + ([KernelSpec("gaussian").resolved(X)] if n >= 2 else [])
        stack = np.zeros((2, len(specs), n, n))
        for m, spec in enumerate(specs):
            out = stack[1, m]
            square = gram(spec, X, X, out=out)
            if square is not out or out.tobytes() != whole_gram(spec, X, X).tobytes():
                bad.append(f"{format_kernel_spec(spec)} N={n} into a stack slot")
            for A, B, shape in ((X, Y, f"{n}x{WIDE}"), (Y, X, f"{WIDE}x{n}")):
                if gram(spec, A, B).tobytes() != whole_gram(spec, A, B).tobytes():
                    bad.append(f"{format_kernel_spec(spec)} {shape}")
        if n >= 2 and gaussian_bandwidth(X) != reference_bandwidth(X):
            bad.append(f"bandwidth N={n}")
    return bad


def test_grams_equal_the_whole_array_form_bit_for_bit():
    # gram maps its product in place a tile of rows at a time; every entry
    # goes through the same operations, so the bytes are those of one map of
    # the whole array, and the bandwidth sums the same C-order array
    assert grams_off_the_whole_array_form() == []


def test_grams_equal_the_whole_array_form_under_another_blas_kernel():
    assert under_prescott("grams_off_the_whole_array_form") == []


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: numpy's ufunc buffers, which a broadcast add such as ``xx + yy`` allocates
#: for the call whatever its size: two of ``np.getbufsize()`` float64
UFUNC_BUFFERS = 2 * 8 * np.getbufsize()


@pytest.mark.parametrize("spec", MAP_SPECS, ids=format_kernel_spec)
def test_a_gram_into_out_allocates_one_tile_at_most(spec):
    # the product is written into out and mapped there: nothing N x N is
    # allocated, only a gaussian's tile of scratch and its row norms
    n = 600
    X = np.random.default_rng(7).standard_normal((n, 6))
    out = np.empty((n, n))
    gram(spec, X, X, out=out)  # numpy's first-call allocations stay outside the trace
    peak = traced_peak(lambda: gram(spec, X, X, out=out))
    assert peak <= TRAIN_TILE_BYTES + UFUNC_BUFFERS + 2 * 8 * n


def test_bandwidth_holds_one_product_and_one_tile():
    # the squared distances are mapped in place in the product and summed there
    n = 600
    X = np.random.default_rng(8).standard_normal((n, 6))
    gaussian_bandwidth(X)
    peak = traced_peak(lambda: gaussian_bandwidth(X))
    assert peak <= n * n * 8 + TRAIN_TILE_BYTES + UFUNC_BUFFERS + 8 * n


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
