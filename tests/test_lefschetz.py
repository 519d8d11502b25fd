from fractions import Fraction
from itertools import combinations

import pytest

from conftest import cor_matrix_by_columns, rand_unimodular
from torusmirror import exactlin as xl
from torusmirror.clifford import popcount
from torusmirror.errors import NoHardLefschetz
from torusmirror.lefschetz import (chi_form, generate_g_ns, grading_operator,
                                   lefschetz_e, lefschetz_f,
                                   so_lambda_spinor_image)
from torusmirror.torus import NSVector, make_torus, ns_basis

J_SQUARE = xl.mat([[0, -1], [1, 0]])
KAPPA = xl.mat([[0, 1], [-1, 0]])


def test_wedge_operator_on_curve():
    e = lefschetz_e(KAPPA).mat
    # kappa = x1 ^ x2: sends 1 -> x1 ^ x2, kills everything of degree > 0
    assert e[3, 0] == 1
    assert all(e[i, j] == 0 for i in range(4) for j in range(4) if (i, j) != (3, 0))


def test_sl2_triple_relations():
    e, f, h = lefschetz_e(KAPPA), lefschetz_f(KAPPA), grading_operator(1)
    assert xl.mat_eq(xl.mul(e.mat, f.mat) - xl.mul(f.mat, e.mat), h.mat)
    assert xl.mat_eq(xl.mul(h.mat, e.mat) - xl.mul(e.mat, h.mat), 2 * e.mat)
    assert xl.mat_eq(xl.mul(h.mat, f.mat) - xl.mul(f.mat, h.mat), -2 * f.mat)


def test_sl2_triple_relations_surface(rng):
    kappa = xl.zeros(4)
    kappa[0, 2] = 1
    kappa[2, 0] = -1
    kappa[1, 3] = 1
    kappa[3, 1] = -1
    t = rand_unimodular(rng, 4)
    kappa = xl.mul(t.T, xl.mul(kappa, t))
    e, f, h = lefschetz_e(kappa), lefschetz_f(kappa), grading_operator(2)
    assert xl.mat_eq(xl.mul(e.mat, f.mat) - xl.mul(f.mat, e.mat), h.mat)
    assert f.degree == -2


def test_degenerate_form_has_no_inverse_operator():
    kappa = xl.zeros(4)
    kappa[0, 1] = 1
    kappa[1, 0] = -1  # rank 2 on a surface: cup-square misses the top
    with pytest.raises(NoHardLefschetz):
        lefschetz_f(kappa)


def test_generate_g_ns_elliptic_curve_is_sl2():
    A = make_torus(1, J_SQUARE)
    basis = generate_g_ns(A, ns_basis(A))
    assert basis.dim == 3
    degrees = sorted(op.degree for op in basis.ops)
    assert degrees == [-2, 0, 2]


def test_g_ns_inside_spinor_image_and_chi_invariant():
    A = make_torus(1, J_SQUARE)
    g = generate_g_ns(A, ns_basis(A))
    so = so_lambda_spinor_image(A)
    x = chi_form(1)
    for op in g.ops:
        assert so.contains(op.mat)
        assert xl.is_zero(xl.mul(op.mat.T, x) + xl.mul(x, op.mat))


def test_grading_operator_in_spinor_image():
    A = make_torus(1, J_SQUARE)
    so = so_lambda_spinor_image(A)
    assert so.contains(grading_operator(1).mat)
    assert not so.contains(xl.eye(4))


def test_spinor_image_dimension():
    for n in (1, 2, 3, 4):
        A = make_torus(n, _product_structure(n))
        assert so_lambda_spinor_image(A).dim == 2 * n * (4 * n - 1)


def _product_structure(n):
    j = xl.zeros(2 * n)
    for i in range(n):
        j[2 * i, 2 * i + 1] = -1
        j[2 * i + 1, 2 * i] = 1
    return j


def _so_image_dense(n):
    """The dense route: two products per bracket, scaled by 1/2 entry by entry."""
    size = 1 << (2 * n)
    e = xl.eye(4 * n)
    gens = [cor_matrix_by_columns(n, e[:, k]) for k in range(4 * n)]
    deg = [-1 if k < 2 * n else 1 for k in range(4 * n)]
    echelon = xl.Echelon()
    ops = []
    for a, b in combinations(range(4 * n), 2):
        m = (xl.mul(gens[a], gens[b]) - xl.mul(gens[b], gens[a])) * Fraction(1, 2)
        if echelon.add({i * size + j: m[i, j] for i in range(size)
                        for j in range(size) if m[i, j] != 0}):
            ops.append((m, deg[a] + deg[b]))
    return ops, echelon


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spinor_image_matches_dense_route(n):
    so = so_lambda_spinor_image(make_torus(n, _product_structure(n)))
    ops, echelon = _so_image_dense(n)
    assert [op.degree for op in so.ops] == [d for _, d in ops]
    assert all(xl.mat_eq(op.mat, m) for op, (m, _) in zip(so.ops, ops))
    assert list(so._echelon.rows) == list(echelon.rows)
    assert so._echelon.rows == echelon.rows


def test_chi_form_values():
    x = chi_form(1)
    assert x[0, 3] == -1  # (1, top class)
    assert x[3, 0] == 1  # (top class, 1): the sign depends on the first degree
    assert x[1, 2] == 1  # (x1, x2)
    assert x[2, 1] == -1


def test_chi_form_supported_on_complementary_degrees():
    x = chi_form(2)
    for i in range(16):
        for j in range(16):
            if x[i, j] != 0:
                assert popcount(i) + popcount(j) == 4
                assert i == 15 ^ j
