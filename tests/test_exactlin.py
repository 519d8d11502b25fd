from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FractionEchelon, fraction_add, fraction_det, fraction_mat_eq,
                      fraction_mul, fraction_solve_right, fraction_sub, gauss_jordan_solve,
                      min_entry_by_full_scan, rand_unimodular, smith_by_full_scans,
                      smith_normal_form)
import torusmirror
from torusmirror import exactlin as xl
from torusmirror.errors import Degenerate, NotSkew, NotSymmetric, SingularMatrix

small_ints = st.integers(min_value=-6, max_value=6)


def sq(entries, k):
    return np.array(entries, dtype=object).reshape(k, k)


def test_invert_known_2x2():
    m = xl.mat([[2, 1], [1, 1]])
    inv = xl.invert(m)
    assert xl.mat_eq(inv, xl.mat([[1, -1], [-1, 2]]))


def test_invert_singular_raises():
    with pytest.raises(SingularMatrix):
        xl.invert(xl.mat([[1, 2], [2, 4]]))


@settings(max_examples=30, deadline=None)
@given(st.lists(small_ints, min_size=9, max_size=9))
def test_invert_roundtrip(entries):
    m = sq(entries, 3)
    if xl.det(m) == 0:
        return
    assert xl.mat_eq(xl.mul(m, xl.invert(m)), xl.eye(3))


@settings(max_examples=30, deadline=None)
@given(st.lists(small_ints, min_size=9, max_size=9))
def test_det_multiplicative(entries):
    m = sq(entries, 3)
    assert xl.det(xl.mul(m, m)) == xl.det(m) ** 2


def test_empty_system_is_solved():
    x = xl.solve_right(xl.zeros(0, 0), xl.zeros(0, 3))
    assert x.shape == (0, 3) and x.den == 1
    inv = xl.invert(xl.zeros(0, 0))
    assert inv.shape == (0, 0) and inv.den == 1


def test_empty_determinant_is_the_empty_product():
    # no rows, no pivots: the empty product
    assert xl.det(xl.zeros(0)) == 1
    assert xl.is_unimodular(xl.zeros(0))


def _solve_outcome(f, *args):
    """f(*args), or the message of the SingularMatrix it raises."""
    try:
        return f(*args)
    except SingularMatrix as e:
        return str(e)


@st.composite
def square_systems(draw):
    """(a, b) with a square up to 8x8 or, now and then, one row or column
    short; integral or rational, b over other denominators than a.  Some a
    are upper triangular with their rows reversed, so that every leading
    pivot is 0 and the elimination must swap rows, and some are singular."""
    k = draw(st.integers(1, 8))
    rows, cols = k, k
    shape = draw(st.sampled_from(["dense", "reversed triangle", "singular", "not square"]))
    if shape == "not square":
        rows, cols = draw(st.sampled_from([(k, k + 1), (k + 1, k)]))
    entry = st.one_of(st.just(0), small_ints if draw(st.booleans()) else small_fracs)
    a = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if shape == "reversed triangle":
        for i in range(k):
            a[i][:i] = [0] * i
            a[i][i] = draw(st.sampled_from([-3, -1, 1, 2, Fraction(1, 2), Fraction(-5, 3)]))
        a.reverse()
    elif shape == "singular" and k > 1:
        c = [draw(small_ints) for _ in range(k - 1)]
        a[-1] = [sum(ci * row[j] for ci, row in zip(c, a)) for j in range(k)]
    m = draw(st.integers(1, 3))
    scale = Fraction(1, draw(st.integers(1, 7)))
    return a, [[draw(entry) * scale for _ in range(m)] for _ in range(rows)]


@settings(max_examples=200, deadline=None)
@given(square_systems())
def test_square_solves_match_gauss_jordan(system):
    a, b = system
    n = len(a)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    for got, want in [(_solve_outcome(xl.solve_right, a, b), _solve_outcome(gauss_jordan_solve, a, b)),
                      (_solve_outcome(xl.invert, a), _solve_outcome(gauss_jordan_solve, a, eye))]:
        if isinstance(want, str):
            assert got == want
            continue
        canonical(got)
        assert got.rows == want
        assert got.den == lcm(*(x.denominator for row in want for x in row))
        assert reads_ints_where_integral(got)


def test_rank_and_nullspace():
    m = xl.mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert xl.rank(m) == 2
    ns = _kernel(m)
    assert len(ns) == 1
    assert all(x == 0 for x in xl.mul(m, [[x] for x in ns[0]])[:, 0])


def test_smith_normal_form_divisibility():
    m = xl.mat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    u, d, v = smith_normal_form(m)
    assert xl.mat_eq(xl.mul(u, xl.mul(m, v)), d)
    assert abs(xl.det(u)) == 1 and abs(xl.det(v)) == 1
    diag = [d[i, i] for i in range(3)]
    for a, b in zip(diag, diag[1:]):
        if a != 0 and b != 0:
            assert b % a == 0


def test_positive_definite_via_minors():
    assert xl.definiteness(xl.mat([[2, -1], [-1, 2]])) == 1
    assert xl.definiteness(xl.mat([[1, 2], [2, 1]])) != 1
    # a zero leading minor, then a positive determinant
    assert xl.definiteness(xl.mat([[0, 1, 0], [1, 0, 0], [0, 0, -1]])) != 1
    assert xl.det(xl.mat([[0, 1, 0], [1, 0, 0], [0, 0, -1]])) == 1


def test_skew_normal_form_recovers_divisors(rng):
    base = xl.zeros(4)
    base[0, 2] = 1
    base[2, 0] = -1
    base[1, 3] = 3
    base[3, 1] = -3
    for _ in range(5):
        from conftest import rand_unimodular
        t = rand_unimodular(rng, 4)
        m = xl.mul(t.T, xl.mul(base, t))
        nf = xl.skew_normal_form(m)
        assert nf.deltas == [1, 3]
        u = nf.basis_change
        g = xl.mul(u.T, xl.mul(m, u))
        assert g[0, 2] == 1 and g[1, 3] == 3
        assert xl.is_zero(g[:2, :2]) and xl.is_zero(g[2:, 2:])


def test_skew_normal_form_pins_the_basis_after_the_divisibility_fix_up():
    # the first pair has pivot 2, which does not divide the 3 of the second,
    # so the fix-up adds the third basis vector to the first before the pair
    # is rebuilt: the basis it returns then is pinned entry by entry
    phi = xl.mat([[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]])
    nf = xl.skew_normal_form(phi)
    assert nf.deltas == [1, 6]
    assert nf.basis_change.tolist() == [[1, 0, 0, -3], [0, 3, -1, 0],
                                        [1, 0, 0, -2], [0, -2, 1, 0]]


def test_skew_normal_form_degenerate():
    with pytest.raises(Degenerate):
        xl.skew_normal_form(xl.zeros(2))


def test_saturate_rows_divides_out_content():
    rows = np.array([[2, 0], [0, 3]], dtype=object)
    sat = xl.saturate_rows(rows)
    assert abs(xl.det(sat)) == 1


def _saturate_rows_by_inverse(b):
    """Reference: the first rank(b) rows of V^-1 for the Smith form U b V = D."""
    u, d, v = smith_normal_form(b)
    r = sum(1 for k in range(min(d.shape)) if d.rows[k][k] != 0)
    return xl.to_int(xl.invert(v))[:r]


@st.composite
def integer_rectangles(draw):
    """Integer matrices, some rank-deficient (a last row that combines the
    others) and some zero."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    if draw(st.integers(0, 5)) == 0:
        return np.zeros((rows, cols), dtype=object)
    m = np.array([[draw(small_ints) for _ in range(cols)] for _ in range(rows)], dtype=object)
    if rows > 1 and draw(st.booleans()):
        m[rows - 1] = sum(draw(small_ints) * m[i] for i in range(rows - 1))
    return m


@settings(max_examples=150, deadline=None)
@given(integer_rectangles())
def test_smith_without_v_gives_the_same_u_and_d(b):
    u, d, v = smith_normal_form(b)
    d2, u2 = [list(row) for row in b], xl.eye(b.shape[0])
    xl._smith(d2, u2.num)
    assert xl.mat_eq(u2, u) and xl.mat_eq(xl.mat(d2), d)
    assert xl.mat_eq(xl.mul(u, xl.mul(b, v)), d)


@settings(max_examples=150, deadline=None)
@given(integer_rectangles())
def test_saturate_rows_matches_inverse_route(b):
    sat = xl.saturate_rows(b)
    ref = _saturate_rows_by_inverse(b)
    assert sat.shape == ref.shape == (xl.rank(b), b.shape[1])
    assert xl.mat_eq(sat, ref)
    assert all(type(x) is int for row in sat.rows for x in row)


def test_saturate_rows_of_rank_zero_keeps_its_width():
    assert xl.saturate_rows(xl.zeros(3, 4)).shape == (0, 4)
    assert xl.saturate_rows(xl.zeros(2, 0)).shape == (0, 0)


def _smith_samples(rng):
    """Seeded integer matrices up to 5 x 6: entries in -6..6, and entries in
    {0, +-2, +-3, +-4, +-6}, so that no entry is +-1 and the first pivots
    take the divisibility scan."""
    no_unit = [0, 2, -2, 3, -3, 4, -4, 6, -6]
    for entries in (list(range(-6, 7)), no_unit):
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            yield [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]


def test_smith_stops_give_the_full_scan_u_and_d(rng):
    no_unit_seen = 0
    for b in _smith_samples(rng):
        no_unit_seen += all(abs(x) != 1 for row in b for x in row)
        for with_v in (False, True):
            d, u = [row[:] for row in b], xl.eye(len(b)).num
            d_ref, u_ref = [row[:] for row in b], xl.eye(len(b)).num
            v, v_ref = (xl.eye(len(b[0])).num, xl.eye(len(b[0])).num) if with_v else (None, None)
            xl._smith(d, u, v)
            smith_by_full_scans(d_ref, u_ref, v_ref)
            assert (u, d, v) == (u_ref, d_ref, v_ref)
    assert no_unit_seen >= 40


def test_saturate_rows_and_skew_normal_form_match_the_full_scan_reference(monkeypatch, rng):
    samples = [xl.mat(b) for b in _smith_samples(rng)]
    forms = []
    for deltas in ([1, 3], [2, 6], [1, 1, 2], [3, 3, 6]):
        k = len(deltas)
        base = xl.zeros(2 * k)
        for i, dlt in enumerate(deltas):
            base[i, k + i], base[k + i, i] = dlt, -dlt
        for _ in range(5):
            t = rand_unimodular(rng, 2 * k)
            forms.append(xl.mul(t.T, xl.mul(base, t)))
    got = ([xl.saturate_rows(b) for b in samples],
           [xl.skew_normal_form(m) for m in forms])
    monkeypatch.setattr(xl, "_smith", smith_by_full_scans)
    monkeypatch.setattr(xl, "_min_entry", min_entry_by_full_scan)
    want = ([xl.saturate_rows(b) for b in samples],
            [xl.skew_normal_form(m) for m in forms])
    assert all(map(xl.mat_eq, got[0], want[0]))
    for nf, ref in zip(got[1], want[1]):
        assert nf.deltas == ref.deltas and xl.mat_eq(nf.basis_change, ref.basis_change)


def leibniz_det(m):
    """Reference determinant: the signed sum over all permutations."""
    k = m.shape[0]
    total = Fraction(0)
    for perm in permutations(range(k)):
        inversions = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, p in enumerate(perm):
            term *= m[i, p]
        total += term
    return total


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def matrices(draw, rows, cols):
    """Integer or rational matrices with many zeros; some have a last row
    that is a combination of the others, so singular ones are common."""
    entry = st.one_of(st.just(0), small_ints if draw(st.booleans()) else small_fracs)
    m = np.array([[draw(entry) for _ in range(cols)] for _ in range(rows)], dtype=object)
    if rows > 1 and draw(st.booleans()):
        m[rows - 1] = sum(draw(entry) * m[i] for i in range(rows - 1))
    return m


@st.composite
def systems(draw):
    k = draw(st.integers(1, 6))
    return draw(matrices(k, k)), draw(matrices(k, draw(st.integers(1, 3))))


@st.composite
def rectangles(draw):
    return draw(matrices(draw(st.integers(1, 6)), draw(st.integers(1, 6))))


@settings(max_examples=150, deadline=None)
@given(systems())
def test_det_and_solve_against_leibniz(system):
    a, b = system
    d = leibniz_det(a)
    assert xl.det(a) == d
    assert (xl.rank(a) == a.shape[0]) == (d != 0)
    if d == 0:
        with pytest.raises(SingularMatrix):
            xl.solve_right(a, b)
    else:
        assert xl.mat_eq(xl.mul(a, xl.solve_right(a, b)), b)


@settings(max_examples=150, deadline=None)
@given(rectangles())
def test_nullspace_rank_and_echelon_growth(a):
    ns = _kernel(a)
    for v in ns:
        assert xl.is_zero(xl.mul(a, [[x] for x in v]))
    assert len(ns) + xl.rank(a) == a.shape[1]
    ech = xl.Echelon()
    for i in range(a.shape[0]):
        grew = xl.rank(a[:i + 1]) > xl.rank(a[:i])
        assert ech.add({j: x for j, x in enumerate(a[i]) if x != 0}) == grew
    assert len(ech.int_rows) == xl.rank(a)


INDEX_KEYS = [(1, 2), (-1, -2), 1, (slice(None), 2), (1, slice(None)), slice(1, 3),
              (slice(1, 3), slice(0, 2)), ([2, 0], slice(None)), (slice(None), [3, 1]),
              (slice(None, None, -1), slice(3, 0, -2)), (slice(2, 2), slice(1, 3))]


@pytest.mark.parametrize("key", INDEX_KEYS, ids=repr)
def test_matrix_indexing_follows_numpy(key):
    a = np.array([[Fraction(4 * i + j, 3) for j in range(4)] for i in range(3)], dtype=object)
    m = xl.mat(a)
    got, want = m[key], a[key]
    if getattr(want, "ndim", 0) == 2:
        assert type(got) is xl.Matrix and xl.mat_eq(got, want)
    else:
        assert got == (list(want) if getattr(want, "ndim", 0) == 1 else want)
    value = np.full(np.shape(want), Fraction(7, 2), dtype=object) if np.ndim(want) else 5
    a[key] = value
    m[key] = value
    assert xl.mat_eq(m, a)


def test_matrix_submatrix_transpose_and_arithmetic():
    m = xl.mat([[1, 2, 3], [4, 5, 6]])
    assert xl.mat_eq(m[[1, 0], [2, 0]], [[6, 4], [3, 1]])
    assert m.T.shape == (3, 2) and xl.mat_eq(m.T.T, m)
    c = m.copy()
    c[0, 0] = 9
    assert m[0, 0] == 1
    assert xl.mat_eq(2 * m - m, m) and xl.mat_eq(-m + m, xl.zeros(2, 3))
    assert xl.mat_eq(m * Fraction(1, 2), [[Fraction(1, 2), 1, Fraction(3, 2)], [2, Fraction(5, 2), 3]])
    with pytest.raises(ValueError):
        m + m.T
    with pytest.raises(TypeError):
        m * m
    with pytest.raises(ValueError):
        xl.mat([[1, 2], [3]])


def test_setitem_rejects_a_grid_of_another_shape():
    # two rows of three values, or of one, for a 2x2 submatrix: the row count
    # agrees, the row length does not; int and Fraction values, into int and
    # rational m
    for den in (1, 2):
        for grid in ([[1, 2, 3], [4, 5, 6]], [[Fraction(1, 3), 2, 3], [4, 5, 6]], [[1], [2]]):
            m = xl.mat([[Fraction(i + j, den) for j in range(3)] for i in range(3)])
            before = m.copy()
            with pytest.raises(ValueError,
                               match="^cannot assign 2 rows of values to 2x2 entries$"):
                m[[0, 1], [0, 1]] = grid
            assert xl.mat_eq(m, before)


def _store_a_list_in_one_entry():
    m = xl.eye(2)
    m[0, 0] = [1]


@pytest.mark.parametrize("call, error, message", [
    (lambda: xl.mul(xl.eye(2), xl.zeros(3, 2)), ValueError,
     "cannot multiply a 2x2 matrix by a 3x2 matrix"),
    (lambda: xl.solve_right(xl.eye(2), xl.zeros(3, 1)), ValueError,
     "cannot solve a 2x2 system for a 3x1 right-hand side"),
    (lambda: xl.det(xl.zeros(2, 3)), ValueError, "determinant of a non-square 2x3 matrix"),
    (lambda: xl.to_int([[Fraction(1, 2)]]), ValueError, "matrix is not integral"),
    (lambda: xl.mat([[0.5]]), TypeError, "matrix entry 0.5 is not an integer or a rational"),
    (_store_a_list_in_one_entry, TypeError, "cannot store list in one matrix entry"),
    (lambda: xl.skew_normal_form(xl.zeros(3)), NotSkew, "skew form must be square of even size"),
], ids=["mul", "solve_right", "det", "to_int", "mat", "setitem", "skew_normal_form"])
def test_input_checks_name_the_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def _dense_rows(a):
    return [{j: x for j, x in enumerate(row) if x != 0} for row in a]


def _kernel(a):
    """The right kernel of a as the package reads it: Echelon.kernel of its rows."""
    ech = xl.Echelon()
    for row in _dense_rows(a):
        ech.add(row)
    return ech.kernel(a.shape[1])


@settings(max_examples=150, deadline=None)
@given(rectangles())
def test_echelon_matches_fraction_reference(a):
    ech, ref = xl.Echelon(), FractionEchelon()
    for row in _dense_rows(a):
        assert ech.add(row) == ref.add(row)
    # each int row scaled to 1 at its pivot is the reference's row
    scaled = {p: {c: Fraction(v, row[p]) for c, v in row.items()}
              for p, row in ech.int_rows.items()}
    assert list(scaled) == list(ref.rows)
    assert scaled == ref.rows
    assert ech.kernel(a.shape[1]) == ref.kernel(a.shape[1])
    assert all(not ech.reduce(row) for row in _dense_rows(a))


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_invert_and_det_match_fraction_reference(system):
    a, b = system
    assert xl.det(a) == fraction_det(a)
    ref = fraction_solve_right(a, b)
    if ref is None:
        with pytest.raises(SingularMatrix):
            xl.solve_right(a, b)
        with pytest.raises(SingularMatrix):
            xl.invert(a)
    else:
        assert xl.mat_eq(canonical(xl.solve_right(a, b)), ref)
        assert xl.mat_eq(canonical(xl.invert(a)), fraction_solve_right(a, xl.eye(a.shape[0])))


@st.composite
def symmetric_matrices(draw):
    """m + m^t, or m m^t shifted along the diagonal, so that definite,
    indefinite and singular forms and zero leading minors all occur."""
    k = draw(st.integers(1, 5))
    m = draw(matrices(k, k))
    if draw(st.booleans()):
        return m + m.T
    return m.dot(m.T) + draw(st.integers(-2, 2)) * np.identity(k, dtype=object)


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_positive_definite_matches_leading_minors(s):
    k = s.shape[0]
    assert (xl.definiteness(s) == 1) == all(leibniz_det(s[:i, :i]) > 0 for i in range(1, k + 1))


@st.composite
def definiteness_cases(draw):
    """(kind, s): a symmetric matrix of size 0..6 with integer or rational
    entries, positive definite (m m^t + c), negative definite (its negative),
    singular (m m^t for m with one column fewer than rows, or a zero row
    and column) or any (m + m^t, most often indefinite)."""
    k = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["positive", "negative", "singular", "any"]))
    if k == 0:
        return "positive", xl.zeros(0)
    m = draw(matrices(k, k))
    if kind == "any":
        return kind, xl.mat(m + m.T)
    if kind == "singular":
        s = xl.mat(m.dot(m.T))
        if k > 1 and draw(st.booleans()):
            s = xl.mul(xl.mat(m[:, 1:]), xl.mat(m[:, 1:]).T)
        i = draw(st.integers(0, k - 1))
        if xl.det(s) != 0:
            s[i] = [0] * k
            s[:, i] = [0] * k
        return kind, s
    s = xl.mat(m.dot(m.T)) + draw(st.sampled_from([1, Fraction(1, 3), 2])) * xl.eye(k)
    return kind, s if kind == "positive" else -s


def definiteness_by_minors(s):
    """1, -1 or 0 from the leading minors, each a Fraction elimination."""
    minors = [fraction_det(s[:k, :k]) for k in range(1, s.shape[0] + 1)]
    if all(d > 0 for d in minors):
        return 1
    if all((-1) ** k * d > 0 for k, d in enumerate(minors, 1)):
        return -1
    return 0


@settings(max_examples=200, deadline=None)
@given(definiteness_cases())
def test_definiteness_matches_leading_minors(case):
    kind, s = case
    got = xl.definiteness(s)
    assert got == definiteness_by_minors(s)
    if kind != "any":
        assert got == {"positive": 1, "negative": -1, "singular": 0}[kind]


def test_definiteness_tags():
    assert xl.definiteness(xl.mat([[2, -1], [-1, 2]])) == 1
    assert xl.definiteness(xl.mat([[-2, 1], [1, Fraction(-2, 3)]])) == -1
    assert xl.definiteness(xl.mat([[1, 2], [2, 1]])) == 0
    assert xl.definiteness(xl.mat([[0, 1], [1, 0]])) == 0  # a zero first minor
    assert xl.definiteness(xl.mat([[-1, 0], [0, 0]])) == 0  # a zero last minor
    assert xl.definiteness(xl.zeros(0)) == 1
    with pytest.raises(NotSymmetric, match="^matrix not square$"):
        xl.definiteness(xl.zeros(2, 3))


def _int_where_integral(values):
    return all(type(x) is (int if x.denominator == 1 else Fraction) for x in values)


@settings(max_examples=150, deadline=None)
@given(integer_rectangles())
def test_integral_input_gives_ints_and_primitive_rows(a):
    ech = xl.Echelon()
    for row in _dense_rows(a):
        ech.add(row)
    for p, row in ech.int_rows.items():
        assert all(type(x) is int for x in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1
    assert all(_int_where_integral(v) for v in ech.kernel(a.shape[1]))
    k = min(a.shape)
    square = a[:k, :k]
    d = xl.det(square)
    assert type(d) is int
    if d != 0:
        assert _int_where_integral(x for row in xl.invert(square) for x in row)
        x = xl.solve_right(square, a[:k])
        assert _int_where_integral(v for row in x for v in row)


def canonical(m):
    """m, checked to be one integer matrix num over one positive den with
    gcd(den, num) = 1, where den = 1 exactly when every entry is integral."""
    assert type(m) is xl.Matrix and type(m.den) is int and m.den > 0
    assert len(m.num) == m.shape[0] and all(len(row) == m.ncols for row in m.num)
    assert all(type(x) is int for row in m.num for x in row)
    assert gcd(m.den, *(x for row in m.num for x in row)) == 1
    assert (m.den == 1) == all(Fraction(x).denominator == 1 for row in m.rows for x in row)
    return m


def reads_ints_where_integral(m):
    """Indexing, tolist() and iteration read the same entries, and each is an
    int where it is integral."""
    rows, cols = m.shape
    entries = [m[i, j] for i in range(rows) for j in range(cols)]
    types = [type(x) for x in entries]
    return (types == [int if Fraction(x).denominator == 1 else Fraction for x in entries]
            and [x for row in m.tolist() for x in row] == entries
            and [type(x) for row in m.tolist() for x in row] == types
            and [type(x) for row in m for x in row] == types
            and [list(row) for row in m] == m.tolist() == m.rows)


@st.composite
def operands(draw):
    """a, b and c with a @ b and a +- c defined, integral or rational, and a
    rational scalar."""
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    return (draw(matrices(r, k)), draw(matrices(k, c)), draw(matrices(r, k)),
            draw(st.one_of(small_ints, small_fracs)))


@settings(max_examples=200, deadline=None)
@given(operands())
def test_matrix_arithmetic_matches_fraction_reference(ops):
    a, b, c, x = ops
    ra, rb, rc = (m.tolist() for m in (a, b, c))
    ma, mb, mc = (canonical(xl.mat(m)) for m in (a, b, c))
    results = [
        (xl.mul(a, b), fraction_mul(ra, rb)),
        (xl.mul(ma, mb), fraction_mul(ra, rb)),
        (ma + mc, fraction_add(ra, rc)),
        (ma - mc, fraction_sub(ra, rc)),
        (-ma, [[-v for v in row] for row in ra]),
        (ma * x, [[v * x for v in row] for row in ra]),
        (x * ma, [[x * v for v in row] for row in ra]),
        (ma.T, [list(col) for col in zip(*ra)]),
        (ma[::2, 1:], [row[1:] for row in ra[::2]]),
        (xl.block([[ma, mc], [mc, ma]]), [r + s for r, s in zip(ra + rc, rc + ra)]),
    ]
    for got, want in results:
        canonical(got)
        assert fraction_mat_eq(got.tolist(), want)
        assert reads_ints_where_integral(got)
    for m1, m2 in [(ma, mc), (ma, ra), (ma + mc - mc, ma), (ma * 2 * Fraction(1, 2), ma),
                   (xl.mul(ma, mb), xl.mul(mc, mb))]:
        assert xl.mat_eq(m1, m2) == fraction_mat_eq(xl.asmat(m1).tolist(),
                                                     xl.asmat(m2).tolist())
    assert xl.is_integral(ma) == all(Fraction(v).denominator == 1 for row in ra for v in row)


@settings(max_examples=150, deadline=None)
@given(rectangles())
def test_public_functions_return_canonical_matrices(a):
    m = canonical(xl.mat(a))
    k = min(m.shape)
    canonical(xl.asmat(a))
    canonical(m.copy())
    canonical(m[:k, :k])
    canonical(xl.primitive_int(m))
    canonical(xl.to_int(xl.primitive_int(m)))
    canonical(xl.zeros(*m.shape))
    canonical(xl.eye(k))
    # parts over different dens, zero parts and empty parts give a canonical block
    r, c = m.shape
    parts = [m, m * Fraction(2, 3), xl.zeros(r, c), xl.zeros(r, 0), m * Fraction(5, 4)]
    got = canonical(xl.block([parts]))
    assert xl.mat_eq(got, [sum((p.rows[i] for p in parts), []) for i in range(r)])
    stacked = [m * Fraction(3, 2), xl.zeros(2, c), xl.zeros(0, c), m * Fraction(1, 6)]
    got = canonical(xl.block([[p] for p in stacked]))
    assert xl.mat_eq(got, [row for p in stacked for row in p.rows])
    # a block row with no parts, or parts of unequal height or width, does not fit
    for grid in ([[]], [[xl.eye(2)], []], [[m, xl.zeros(r + 1, 1)]],
                 [[m], [xl.zeros(1, c + 1)]]):
        with pytest.raises(ValueError, match="^blocks do not fit together$"):
            xl.block(grid)
    if xl.det(m[:k, :k]) != 0:
        canonical(xl.invert(m[:k, :k]))
    # writing an entry, a row or a block keeps the form canonical
    w = m.copy()
    w[0, 0] = Fraction(1, 3)
    canonical(w)
    w[0] = [0] * m.ncols
    canonical(w)
    w[:, :] = m
    assert xl.mat_eq(canonical(w), m)
    assert reads_ints_where_integral(m)


def _assigns_through_rows(tree):
    """Lines of assignments whose target is a subscript of some `.rows`."""
    lines = set()
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for target in targets:
            for t in ast.walk(target):
                base = t
                while isinstance(base, ast.Subscript):
                    base = base.value
                if base is not t and isinstance(base, ast.Attribute) and base.attr == "rows":
                    lines.add(node.lineno)
    return sorted(lines)


def test_no_module_assigns_through_rows():
    """`rows` is a new list of a matrix's entries, so a write through it is
    lost: code builds a nested list and calls exactlin.mat instead."""
    src = Path(torusmirror.__file__).parent
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := _assigns_through_rows(ast.parse(path.read_text())))}
    assert found == {}
    bad = ast.parse("m.rows[0][1] = 2\nfor r in m.rows:\n    r[0] = 1\nm.rows[0] += 1\n")
    assert _assigns_through_rows(bad) == [1, 4]


def test_from_int_rows_takes_the_rows_over():
    rows = [[1, -2, 0], [3, 4, 5]]
    m = xl.from_int_rows(rows, 3)
    assert m.num is rows and m.den == 1 and m.shape == (2, 3)
    assert xl.mat_eq(m, xl.mat([[1, -2, 0], [3, 4, 5]]))


def test_setitem_that_clears_every_fraction_gives_den_one():
    # the entries are read back through the lcm of their denominators: when
    # the assignment leaves only integers, that lcm is 1 and each entry an int
    for key, value in (((0, 0), 5), ((0, 0), Fraction(4, 2)), (0, [1, 7]),
                       ((slice(None), 0), [Fraction(6, 3), 3])):
        m = xl.mat([[Fraction(1, 2), 7], [3, 4]])
        assert m.den == 2
        m[key] = value
        assert m.den == 1
        assert all(type(x) is int for row in m.num for x in row)
        assert all(type(x) is int for row in m.rows for x in row)
    assert m.num == [[2, 7], [3, 4]]
