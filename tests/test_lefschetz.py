from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest

from conftest import (cor_matrix_by_columns, gaussian_torus, generate_g_ns_by_all_pairs,
                      in_span, ops_echelon, rand_skew, rand_unimodular, sign_below)
from torusmirror import exactlin as xl
from torusmirror import lefschetz as lf
from torusmirror.clifford import popcount
from torusmirror.errors import NoHardLefschetz, NotSkew
from torusmirror.lefschetz import (chi_form, generate_g_ns, grading_operator,
                                   lefschetz_e, lefschetz_f,
                                   so_lambda_spinor_image)
from torusmirror.torus import NSVector, find_polarization, make_torus, ns_basis

J_SQUARE = xl.mat([[0, -1], [1, 0]])
KAPPA = xl.mat([[0, 1], [-1, 0]])


def _entries(op):
    """The nonzero entries of op as numbers: its num over its den."""
    return {key: Fraction(v, op.den) for key, v in op.num.items()}


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


def _hard_lefschetz_dense(e, n):
    """Reference: e^s maps H^{n-s} onto H^{n+s} for s = 1..n, by dense powers
    and the rank of each degree block."""
    size = 1 << (2 * n)
    masks_by_deg = [[m for m in range(size) if popcount(m) == k] for k in range(2 * n + 1)]
    power = xl.eye(size)
    for s in range(1, n + 1):
        power = xl.mul(power, e)
        block = power[masks_by_deg[n + s], masks_by_deg[n - s]]
        if xl.rank(block) != comb(2 * n, n - s):
            return False
    return True


@pytest.mark.parametrize("n,trials", [(1, 12), (2, 12), (3, 4)])
def test_hard_lefschetz_exactly_for_nondegenerate_kappa(rng, n, trials):
    h = grading_operator(n).mat
    outcomes = set()
    for t in range(trials):
        kappa = rand_skew(rng, 2 * n)
        if t % 2:
            # a zero row and column make kappa degenerate
            k = rng.randrange(2 * n)
            for i in range(2 * n):
                kappa[k, i] = kappa[i, k] = 0
        e = lefschetz_e(kappa).mat
        holds = _hard_lefschetz_dense(e, n)
        outcomes.add(holds)
        if not holds:
            with pytest.raises(NoHardLefschetz):
                lefschetz_f(kappa)
            continue
        f = lefschetz_f(kappa).mat
        assert xl.mat_eq(xl.mul(e, f) - xl.mul(f, e), h)
    assert outcomes == {True, False}


def _lefschetz_e_by_signs(kappa):
    """Reference: wedge with x_j, then x_i, for each c_ij with i < j, with the
    signs counted bit by bit."""
    c = xl.asmat(kappa).rows
    d = len(c)
    size = 1 << d
    entries = {}
    for i, j in combinations(range(d), 2):
        for m in range(size):
            if c[i][j] == 0 or m & (1 << i) or m & (1 << j):
                continue
            s = sign_below(m, j) * sign_below(m | (1 << j), i)
            key = (m | (1 << i) | (1 << j)) * size + m
            entries[key] = entries.get(key, 0) + c[i][j] * s
    return {k: v for k, v in entries.items() if v != 0}


def _lefschetz_f_by_solve(kappa):
    """Reference: solve [e, f] = h for the degree -2 entries of f, one unknown
    per entry; NoHardLefschetz when there is no solution."""
    e = _lefschetz_e_by_signs(kappa)
    n = xl.asmat(kappa).shape[0] // 2
    size = 1 << (2 * n)
    h = _entries(grading_operator(n))
    unknowns = [(t, s) for s in range(size) for t in range(size)
                if popcount(t) == popcount(s) - 2]
    index = {u: k for k, u in enumerate(unknowns)}
    e_rows = [[] for _ in range(size)]
    e_cols = [[] for _ in range(size)]
    for key, v in e.items():
        i, j = divmod(key, size)
        e_rows[i].append((j, v))
        e_cols[j].append((i, v))
    # the augmented system, right-hand side in column ncols
    ncols = len(unknowns)
    ech = xl.Echelon()
    for i in range(size):
        for j in range(size):
            if popcount(i) != popcount(j):
                continue
            row = {}
            for k, v in e_rows[i]:
                if (k, j) in index:
                    row[index[(k, j)]] = row.get(index[(k, j)], 0) + v
            for k, v in e_cols[j]:
                if (i, k) in index:
                    row[index[(i, k)]] = row.get(index[(i, k)], 0) - v
            row = {k: v for k, v in row.items() if v != 0}
            if i * size + j in h:
                row[ncols] = h[i * size + j]
            ech.add(row)
    if ncols in ech.int_rows:
        raise NoHardLefschetz("no degree -2 solution of [e,f] = h")
    assert len(ech.int_rows) == ncols, "the solution of [e, f] = h is not unique"
    return {unknowns[p][0] * size + unknowns[p][1]: Fraction(row[ncols], row[p])
            for p, row in ech.int_rows.items() if row.get(ncols, 0) != 0}


@pytest.mark.parametrize("n,trials", [(1, 8), (2, 8), (3, 4)])
def test_closed_forms_match_wedge_signs_and_linear_solve(rng, n, trials):
    outcomes = set()
    for t in range(trials):
        kappa = rand_skew(rng, 2 * n)
        if t % 2:
            kappa = kappa * Fraction(1, rng.randint(2, 3))
        if t % 4 >= 2:
            k = rng.randrange(2 * n)
            for i in range(2 * n):
                kappa[k, i] = kappa[i, k] = 0
        assert _entries(lefschetz_e(kappa)) == _lefschetz_e_by_signs(kappa)
        try:
            reference = _lefschetz_f_by_solve(kappa)
        except NoHardLefschetz:
            outcomes.add(False)
            with pytest.raises(NoHardLefschetz):
                lefschetz_f(kappa)
            continue
        outcomes.add(True)
        assert _entries(lefschetz_f(kappa)) == reference
    assert outcomes == {True, False}


def test_lefschetz_f_solves_no_system_for_its_entries(monkeypatch):
    n = 4
    kappa = _product_structure(n)
    add = xl.Echelon.add

    def small_add(self, row):
        # the 2n x 2n inverse of kappa may use elimination, nothing larger
        if any(c >= (2 * n) ** 2 for c in row):
            raise AssertionError("an elimination over the entries of f_kappa")
        return add(self, row)

    monkeypatch.setattr(xl.Echelon, "add", small_add)
    f = lefschetz_f(kappa)
    # one term l_{2i-1} l_{2i} per plane, nonzero on the 4^(n-1) monomials holding both bits
    assert f.degree == -2 and len(f.num) == n * 4 ** (n - 1)


@pytest.mark.parametrize("kappa", [[[0, 1], [1, 0]],
                                   [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
                                   [[0, 1, 0, 0], [-1, 0, 0, 0]]])
def test_kappa_must_be_skew_of_even_size(kappa):
    with pytest.raises(NotSkew):
        lefschetz_e(kappa)
    with pytest.raises(NotSkew):
        lefschetz_f(kappa)


def test_generate_g_ns_elliptic_curve_is_sl2():
    A = make_torus(1, J_SQUARE)
    basis = generate_g_ns(A, ns_basis(A))
    assert basis.dim == 3
    degrees = sorted(op.degree for op in basis.ops)
    assert degrees == [-2, 0, 2]


def _g_ns_dense(A, kappas):
    """The dense route: generators as in generate_g_ns, each bracket formed by
    two dense products of the .mat views."""
    size = 1 << (2 * A.n)
    gens = []
    for kappa in kappas:
        gens.append((lefschetz_e(kappa).mat, 2))
        try:
            gens.append((lefschetz_f(kappa).mat, -2))
        except NoHardLefschetz:
            pass
    gens.append((grading_operator(A.n).mat, 0))
    echelon = xl.Echelon()

    def add(m):
        return echelon.add({i * size + j: m[i, j] for i in range(size)
                            for j in range(size) if m[i, j] != 0})

    basis = [(m, d) for m, d in gens if add(m)]
    frontier = list(basis)
    while frontier:
        new = []
        for x, dx in basis:
            for y, dy in frontier:
                m = xl.mul(x, y) - xl.mul(y, x)
                if add(m):
                    new.append((m, dx + dy))
        basis.extend(new)
        frontier = new
    return basis, echelon


@pytest.mark.parametrize("n", [1, 2])
def test_g_ns_matches_dense_bracket_route(n):
    A = make_torus(n, _product_structure(n))
    kappas = ns_basis(A)
    g = generate_g_ns(A, kappas)
    ops, echelon = _g_ns_dense(A, kappas)
    assert [op.degree for op in g.ops] == [d for _, d in ops]
    assert all(xl.mat_eq(op.mat, m) for op, (m, _) in zip(g.ops, ops))
    assert ops_echelon(g.ops).int_rows == echelon.int_rows


@pytest.mark.parametrize("n, with_sum", [(1, False), (2, False), (2, True), (3, False), (3, True)])
def test_g_ns_brackets_each_unordered_pair_once(monkeypatch, n, with_sum):
    # the same basis, in the same order, as the closure over every
    # (basis, frontier) pair, from fewer brackets: no [a, a], no pair taken
    # twice, no pair of equal nonzero degree, no [h, x] = deg(x) x and no
    # [e_k, f_k] = h
    A = make_torus(n, _product_structure(n))
    kappas = ns_basis(A)
    if with_sum:
        kappas.append(NSVector(sum((k.c for k in kappas), xl.zeros(2 * n))))
    ref, ref_brackets = generate_g_ns_by_all_pairs(A, kappas)

    def key(op):
        return tuple(sorted(op.num.items())), op.den

    h = key(grading_operator(n))
    settled = set()
    for kappa in kappas:
        try:
            ef = key(lefschetz_e(kappa)), key(lefschetz_f(kappa))
        except NoHardLefschetz:
            continue
        settled |= {ef, ef[::-1]}
    pairs = []
    bracket = lf._bracket

    def recording_bracket(a, b):
        pairs.append((a, b))
        return bracket(a, b)

    monkeypatch.setattr(lf, "_bracket", recording_bracket)
    g = generate_g_ns(A, kappas)
    assert [(op.num, op.den, op.degree) for op in g.ops] == \
        [(op.num, op.den, op.degree) for op in ref]
    assert g.dim == len(ref) and len(pairs) < ref_brackets
    assert len({frozenset(map(id, p)) for p in pairs}) == len(pairs)
    assert not any(a is b or a.degree == b.degree != 0 for a, b in pairs)
    # _lefschetz_pair brackets each e_k with its f_k once, to check
    # [e_k, f_k] = h; every other bracket is the closure's, of two elements
    # of the basis, and none is an [e_k, f_k] or an [h, x]
    ids = set(map(id, g.ops))
    brackets = [(key(a), key(b)) for a, b in pairs]
    assert sum(ab in settled for ab in brackets) == len(settled) // 2
    closure = [ab for (a, b), ab in zip(pairs, brackets) if ab not in settled
               and id(a) in ids and id(b) in ids]
    assert len(pairs) - len(closure) == len(settled) // 2
    assert not any(h in ab for ab in closure)


@pytest.mark.parametrize("n", [2, 3])
def test_generate_g_ns_ignores_repeated_classes(n):
    # the closure's echelon rejects the operators of a class seen before, so
    # a repeat, as a matrix or as an NSVector, changes no operator of g_NS
    A = make_torus(n, _product_structure(n))
    kappas = ns_basis(A)
    symplectic = NSVector(sum((k.c for k in kappas), xl.zeros(2 * n)))
    degenerate = kappas[0]
    with pytest.raises(NoHardLefschetz):
        lefschetz_f(degenerate)
    want = generate_g_ns(A, [symplectic, degenerate])
    assert want.dim > 3
    for repeated in ([symplectic, xl.mat(symplectic.c), degenerate],
                     [symplectic, degenerate, NSVector(xl.mat(symplectic.c))],
                     [symplectic, degenerate.c, degenerate, NSVector(degenerate.c)]):
        got = generate_g_ns(A, repeated)
        assert got.dim == want.dim
        assert [op.degree for op in got.ops] == [op.degree for op in want.ops]
        assert [(op.num, op.den) for op in got.ops] == [(op.num, op.den) for op in want.ops]


@pytest.mark.parametrize("n", [2, 3])
def test_generate_g_ns_builds_each_lefschetz_operator_once(monkeypatch, n):
    # one e_k per class and one f_k per nondegenerate class: the check
    # [e_k, f_k] = h reads the two operators that join the generators
    A = make_torus(n, _product_structure(n))
    kappas = ns_basis(A)
    kappas.append(NSVector(sum((k.c for k in kappas), xl.zeros(2 * n))))
    nondegenerate = sum(xl.rank(k.c) == 2 * n for k in kappas)
    assert 0 < nondegenerate < len(kappas)
    want = generate_g_ns(A, kappas)
    degrees = []
    form_operator = lf._form_operator

    def counting_form_operator(c, gens, size, degree):
        degrees.append(degree)
        return form_operator(c, gens, size, degree)

    monkeypatch.setattr(lf, "_form_operator", counting_form_operator)
    got = generate_g_ns(A, kappas)
    assert degrees.count(2) == len(kappas) and degrees.count(-2) == nondegenerate
    assert len(degrees) == len(kappas) + nondegenerate
    assert [(op.num, op.den, op.degree) for op in got.ops] == \
        [(op.num, op.den, op.degree) for op in want.ops]


def test_no_dense_operator_is_built(monkeypatch):
    n = 3
    size = 1 << (2 * n)
    A = make_torus(n, _product_structure(n))
    kappas = ns_basis(A)
    symplectic = sum((k.c for k in kappas), xl.zeros(2 * n))
    mul = xl.mul

    def small_mul(a, b):
        if xl.asmat(a).shape[0] >= size or xl.asmat(b).shape[0] >= size:
            raise AssertionError("a dense product of operators on H*")
        return mul(a, b)

    monkeypatch.setattr("torusmirror.lefschetz.xl.mul", small_mul)
    # one symplectic class, so generate_g_ns runs lefschetz_f, and one degenerate
    ops = generate_g_ns(A, [NSVector(symplectic), kappas[0]]).ops
    assert -2 in [op.degree for op in ops]
    ops += so_lambda_spinor_image(A).ops
    assert not any("mat" in vars(op) for op in ops)


def test_g_ns_inside_spinor_image_and_chi_invariant():
    A = make_torus(1, J_SQUARE)
    g = generate_g_ns(A, ns_basis(A))
    so = ops_echelon(so_lambda_spinor_image(A).ops)
    x = chi_form(1)
    for op in g.ops:
        assert in_span(so, op.mat)
        assert xl.is_zero(xl.mul(op.mat.T, x) + xl.mul(x, op.mat))


def test_grading_operator_in_spinor_image():
    A = make_torus(1, J_SQUARE)
    so = ops_echelon(so_lambda_spinor_image(A).ops)
    assert in_span(so, grading_operator(1).mat)
    assert not in_span(so, xl.eye(4))


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
    rebuilt = ops_echelon(so.ops)
    assert list(rebuilt.int_rows) == list(echelon.int_rows)
    assert rebuilt.int_rows == echelon.int_rows


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


# ---------------------------------------------------------------------------
# the num / den layout of the operators


def _assert_canonical(op):
    """num holds nonzero ints over a positive den with gcd(den, num) = 1."""
    assert type(op.den) is int and op.den > 0
    assert all(type(v) is int and v != 0 for v in op.num.values())
    assert gcd(op.den, *op.num.values()) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lefschetz_operators_are_canonical(rng, n):
    dens = set()
    for t in range(6):
        kappa = rand_skew(rng, 2 * n)
        if t % 2:
            kappa = kappa * Fraction(1, rng.randint(2, 3))
        e = lefschetz_e(kappa)
        _assert_canonical(e)
        dens.add(e.den)
        try:
            f = lefschetz_f(kappa)
        except NoHardLefschetz:
            continue
        _assert_canonical(f)
        dens.add(f.den)
    assert len(dens) > 1


@pytest.mark.parametrize("n", [1, 2])
def test_g_ns_and_so_image_operators_are_canonical(n):
    A = make_torus(n, _product_structure(n))
    kappas = ns_basis(A)
    symplectic = sum((k.c for k in kappas), xl.zeros(2 * n))
    # 3 * symplectic has a rational inverse, so its f, added first, is over den 3
    ops = generate_g_ns(A, [NSVector(3 * symplectic)] + kappas).ops
    so = so_lambda_spinor_image(A).ops
    for op in ops + so:
        _assert_canonical(op)
    assert {op.den for op in ops} > {1}
    assert {op.den for op in so} == {1, 2}


def test_generate_g_ns_makes_no_fraction_for_integral_kappa(monkeypatch):
    n = 2
    A = make_torus(n, _product_structure(n))
    kappas = ns_basis(A)
    symplectic = sum((k.c for k in kappas), xl.zeros(2 * n))
    kappas += [NSVector(2 * symplectic), NSVector(3 * kappas[0].c + symplectic)]
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    basis = generate_g_ns(A, kappas)
    monkeypatch.undo()
    assert made == []
    assert basis.dim > 3 and any(op.den > 1 for op in basis.ops)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_g_ns_of_the_gaussian_torus(rng, n):
    # (C/Z[i])^n in a random basis, with its n^2 NS classes and a polarization:
    # g_NS has dimension 4n^2 - 1, with n^2 operators of degree -2, 2n^2 - 1
    # of degree 0 and n^2 of degree +2
    A, _ = gaussian_torus(rng, n)
    kappas = [v.c for v in ns_basis(A)] + [find_polarization(A).c]
    assert len(kappas) == n * n + 1
    g = generate_g_ns(A, kappas)
    degrees = [op.degree for op in g.ops]
    assert g.dim == len(degrees) == {2: 15, 3: 35, 4: 63}[n]
    assert sorted(degrees) == [-2] * n * n + [0] * (2 * n * n - 1) + [2] * n * n
