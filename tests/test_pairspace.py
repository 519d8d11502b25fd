import pytest

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (classify_by_e_form, e_form, gaussian_pair, is_isotropic_by_gram,
                      jprod_matrix, q_matrix, q_right, rand_q_isometry, rand_rational,
                      weak_pair_sample, well_becoming_sample)
from torusmirror import exactlin as xl
from torusmirror import pairspace as ps
from torusmirror.errors import Block12Singular, NotNSForm
from torusmirror.mirror import g_mirror
from torusmirror.pairspace import (WeakPair, classify_pair, conjugate_pair, i_omega,
                                   is_isotropic, is_q_isometry, make_weak_pair, q_gram, q_left,
                                   recover_omega)
from torusmirror.siegel import translation_element
from torusmirror.torus import check_polarization, is_ns_form, make_torus, polarization_form

J_SQUARE = xl.mat([[0, -1], [1, 0]])
PHI = xl.mat([[0, 1], [-1, 0]])


def square_pair(t1=0, t2=1):
    A = make_torus(1, J_SQUARE)
    return make_weak_pair(A, t1 * PHI, t2 * PHI)


def test_weak_pair_rejects_forms_that_are_not_skew():
    A = make_torus(1, J_SQUARE)
    for phi1, phi2 in ((xl.mat([[0, 1], [1, 0]]), PHI), (PHI, xl.mat([[1, 1], [-1, 0]]))):
        with pytest.raises(NotNSForm, match="^phi1/phi2 must be skew and J-invariant$"):
            WeakPair(A, phi1, phi2)
    assert xl.mat_eq(i_omega(WeakPair(A, xl.zeros(2), PHI)), i_omega(square_pair()))


def test_weak_pair_rejects_skew_forms_that_are_not_j_invariant():
    # on the square n = 2 torus J = diag(R, R), e1^e2 + e3^e4 is an NS form
    # and the skew e1^e3 is not
    A = make_torus(2, xl.block([[J_SQUARE, xl.zeros(2)], [xl.zeros(2), J_SQUARE]]))
    e13 = xl.zeros(4)
    e13[0, 2], e13[2, 0] = 1, -1
    phi = xl.block([[PHI, xl.zeros(2)], [xl.zeros(2), PHI]])
    assert is_ns_form(A, phi) and xl.is_skew(e13) and not is_ns_form(A, e13)
    for phi1, phi2 in ((e13, phi), (xl.zeros(4), phi + e13)):
        for make in (WeakPair, make_weak_pair):
            with pytest.raises(NotNSForm, match="^phi1/phi2 must be skew and J-invariant$"):
                make(A, phi1, phi2)
    assert classify_pair(WeakPair(A, xl.zeros(4), phi)) == "AlgebraicPlus"


def test_i_omega_block_22_is_the_product(rng):
    # block (2,2) is -(block (1,1))^T, which is -phi1 phi2^-1 for skew forms
    for n in (1, 2, 3):
        for p in (weak_pair_sample(rng, n), gaussian_pair(rng, n)):
            for q in (p, conjugate_pair(p), recover_omega(p.torus, i_omega(p))):
                want = -xl.mul(q.phi1, xl.invert(q.phi2))
                assert xl.mat_eq(i_omega(q)[2 * n:, 2 * n:], want)


def test_make_weak_pair_validates():
    with pytest.raises(NotNSForm):
        square_pair(t2=0)  # degenerate imaginary part
    A = make_torus(1, J_SQUARE)
    with pytest.raises(NotNSForm):
        make_weak_pair(A, xl.mat([[0, 1], [1, 0]]), PHI)


def test_pair_path_inverts_phi2_once(rng, monkeypatch):
    # make_weak_pair inverts phi2 once; the conjugate pair reads its
    # (-phi2)^-1 = -phi2^-1 off block (1,2) of I_omega and inverts nothing
    invert = xl.invert
    calls = []

    def counting_invert(m):
        calls.append(m)
        return invert(m)

    for n in (1, 2, 3):
        p = weak_pair_sample(rng, n)
        want, want_bar = WeakPair(p.torus, p.phi1, p.phi2), WeakPair(p.torus, p.phi1, -p.phi2)
        monkeypatch.setattr(xl, "invert", counting_invert)
        calls.clear()
        q = make_weak_pair(p.torus, p.phi1, p.phi2)
        assert len(calls) == 1
        bar = conjugate_pair(q)
        assert len(calls) == 1
        monkeypatch.undo()
        assert q == want and bar == want_bar and conjugate_pair(bar) == q
        for got, ref in ((q, want), (bar, want_bar)):
            assert xl.mat_eq(i_omega(got), i_omega(ref))
            assert i_omega(got).num == i_omega(ref).num and i_omega(got).den == i_omega(ref).den
        # the conjugate holds its own phi1
        bar.phi1[0, 1] += 1
        assert q == want
    A = make_torus(1, J_SQUARE)
    for make in (lambda: square_pair(t2=0), lambda: WeakPair(A, PHI, xl.zeros(2))):
        with pytest.raises(NotNSForm, match="^phi2 must be nondegenerate$"):
            make()


def test_i_omega_properties_square_torus():
    p = square_pair()
    q, jp = q_matrix(1), jprod_matrix(p.torus)
    iw = i_omega(p)
    assert xl.mat_eq(xl.mul(iw, iw), -xl.eye(4))
    assert xl.mat_eq(xl.mul(iw.T, xl.mul(q, iw)), q)
    assert xl.det(iw) == 1
    assert xl.mat_eq(xl.mul(iw, jp), xl.mul(jp, iw))


def test_i_omega_properties_random(rng):
    for n in (1, 2, 3):
        for _ in range(5):
            p = weak_pair_sample(rng, n)
            q, jp = q_matrix(n), jprod_matrix(p.torus)
            iw = i_omega(p)
            assert xl.mat_eq(xl.mul(iw, iw), -xl.eye(4 * n))
            assert xl.mat_eq(xl.mul(iw.T, xl.mul(q, iw)), q)
            assert xl.mat_eq(xl.mul(iw, jp), xl.mul(jp, iw))
            assert xl.mat_eq(i_omega(conjugate_pair(p)), -iw)


def test_omega_to_i_injective_on_samples(rng):
    seen = []
    for _ in range(6):
        p = weak_pair_sample(rng, 1)
        iw = i_omega(p)
        for q, jw in seen:
            if xl.mat_eq(iw, jw):
                assert xl.mat_eq(p.phi1, q.phi1) and xl.mat_eq(p.phi2, q.phi2)
        seen.append((p, iw))


def test_e_form_symmetric_and_classification():
    p = square_pair()
    e = e_form(p)
    assert xl.mat_eq(e, e.T)
    assert classify_pair(p) == "AlgebraicPlus"
    assert classify_pair(conjugate_pair(p)) == "AlgebraicMinus"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_pair_matches_e_form(rng, n):
    # phi1 and phi2 independent; n = 1 admits no WeakOnly pair
    tags = {"AlgebraicPlus", "AlgebraicMinus"} | ({"WeakOnly"} if n > 1 else set())
    seen = set()
    for _ in range(60):
        p = gaussian_pair(rng, n)
        tag = classify_pair(p)
        assert tag == classify_by_e_form(p)
        seen.add(tag)
        if seen == tags:
            break
    assert seen == tags


def classify_by_polarizations(p):
    """The tag of p from two polarization checks, of phi2 and of -phi2."""
    if check_polarization(p.torus, p.phi2):
        return "AlgebraicPlus"
    if check_polarization(p.torus, -p.phi2):
        return "AlgebraicMinus"
    return "WeakOnly"


@pytest.mark.parametrize("n", [2, 3])
def test_classify_pair_takes_one_elimination(rng, monkeypatch, n):
    passes = []
    bareiss = xl._bareiss
    monkeypatch.setattr(xl, "_bareiss", lambda a: passes.append(1) or bareiss(a))
    seen = set()
    for _ in range(40):
        p = gaussian_pair(rng, n)
        passes.clear()
        tag = classify_pair(p)
        assert len(passes) == 1
        assert tag == classify_by_polarizations(p) == classify_by_e_form(p)
        seen.add(tag)
    assert seen == {"AlgebraicPlus", "AlgebraicMinus", "WeakOnly"}


def test_e_form_is_congruent_to_polarization_blocks(rng):
    # S^T e S = diag(b, b^-1) for the translation S = [[1, 0], [phi1, 1]] and the
    # polarization form b of phi2, so e is definite exactly when b is
    for n in (1, 2, 3):
        for _ in range(4):
            p = gaussian_pair(rng, n)
            s = translation_element(p.phi1, n)
            b = polarization_form(p.torus, p.phi2)
            z = xl.zeros(2 * n)
            want = xl.block([[b, z], [z, xl.invert(b)]])
            assert xl.mat_eq(xl.mul(s.T, xl.mul(e_form(p), s)), want)


def test_pair_keeps_its_own_forms(rng):
    # editing the caller's matrices afterwards leaves the pair and its I_omega alone
    p = gaussian_pair(rng, 2)
    phi1, phi2 = p.phi1.copy(), p.phi2.copy()
    q = make_weak_pair(p.torus, phi1, phi2)
    phi1[0, 1] += 3
    phi1[1, 0] -= 3
    phi2[0, 0] += 1
    assert xl.mat_eq(q.phi1, p.phi1) and xl.mat_eq(q.phi2, p.phi2)
    assert xl.mat_eq(i_omega(q), i_omega(p))
    assert recover_omega(q.torus, i_omega(q)) == q


def test_recover_omega_roundtrip(rng):
    for n in (1, 2):
        p = weak_pair_sample(rng, n)
        q = recover_omega(p.torus, i_omega(p))
        assert xl.mat_eq(q.phi1, p.phi1) and xl.mat_eq(q.phi2, p.phi2)


def test_recover_omega_rejects_singular_block():
    A = make_torus(1, J_SQUARE)
    with pytest.raises(Block12Singular):
        recover_omega(A, jprod_matrix(A))


def test_recover_omega_rejects_other_shapes():
    # blocks (1,2) and (2,2) read back a valid pair whose I_omega differs
    p = square_pair()
    I = i_omega(p)
    I[0, 0] += 1
    with pytest.raises(ValueError):
        recover_omega(p.torus, I)


def _i_omega_by_formula(phi1, phi2):
    """[[phi2^-1 phi1, -phi2^-1], [phi2 + phi1 phi2^-1 phi1, -phi1 phi2^-1]],
    block by block, for any phi1 and an invertible phi2."""
    inv = xl.invert(phi2)
    return xl.block([[xl.mul(inv, phi1), -inv],
                     [phi2 + xl.mul(phi1, xl.mul(inv, phi1)), -xl.mul(phi1, inv)]])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("block", ["21", "22"])
def test_recover_omega_compares_each_block(monkeypatch, rng, n, block):
    # I differs from the I_omega of the pair read off blocks (1,2) and (2,2) in
    # one block only (block (1,1): test_recover_omega_rejects_other_shapes).
    # Block (2,1) is read nowhere else.  A block (2,2) that differs reads back
    # a phi1 that is not skew, which the NS-form test rejects first; with that
    # test taken out, the comparison rejects it
    d = 2 * n
    p = weak_pair_sample(rng, n)
    I = i_omega(p)
    if block == "21":
        I[d, d - 1] += 1
    else:
        phi1 = p.phi1.copy()
        phi1[0, 0] += 1
        I = _i_omega_by_formula(phi1, p.phi2)
        with pytest.raises(NotNSForm):
            recover_omega(p.torus, I)
        monkeypatch.setattr(ps, "_require_ns_forms", lambda A, phi1, phi2: None)
    with pytest.raises(ValueError, match="^I is not the I_omega of the pair read off its blocks$"):
        recover_omega(p.torus, I)


def test_recover_omega_keeps_its_own_copy_of_i(rng):
    for n in (1, 2, 3):
        p = weak_pair_sample(rng, n)
        I = i_omega(p)
        q = recover_omega(p.torus, I)
        want = WeakPair(p.torus, q.phi1, q.phi2)._i_omega
        assert q._i_omega is not I and (q._i_omega.num, q._i_omega.den) == (want.num, want.den)
        I[0, 0] += 1
        assert xl.mat_eq(i_omega(q), i_omega(p))


def test_i_omega_returns_a_copy():
    p = square_pair()
    before = i_omega(p)
    edited = i_omega(p)
    edited[0, 0] += 1
    assert xl.mat_eq(i_omega(p), before)


def test_q_form_hyperbolic():
    q = q_left(xl.eye(8))  # Q = Q.1
    assert xl.mat_eq(q, q.T)
    assert abs(xl.det(q)) == 1
    assert xl.is_zero(q[:4, :4]) and xl.is_zero(q[4:, 4:])


def _canonical(m):
    return m.den > 0 and gcd(m.den, *(x for row in m.num for x in row)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_q_products_are_half_swaps(rng, n):
    q = q_matrix(n)
    for width in (1, 3, 4 * n):
        for entry in (lambda: rng.randint(-3, 3), lambda: rand_rational(rng)):
            m = xl.mat([[entry() for _ in range(width)] for _ in range(4 * n)])
            for got, want, source in ((q_left(m), xl.mul(q, m), m),
                                      (q_right(m.T), xl.mul(m.T, q), m.T)):
                assert (got.num, got.den, got.ncols) == (want.num, want.den, want.ncols)
                assert _canonical(got)
                assert not any(r is s for r in got.num for s in source.num)


def _rational_eta(rng, d, skew):
    eta = xl.zeros(d)
    for i in range(d):
        for j in range(i if skew else 0, d):
            eta[i, j] = 0 if skew and i == j else rand_rational(rng)
            if skew:
                eta[j, i] = -eta[i, j]
    return eta


def signed_permutation_isometry(rng, n):
    """A Q-isometry that is a signed permutation: diag(u, u) for a signed
    permutation u of Gamma, where u^-T = u, with l_i and x_i swapped for
    random i."""
    d = 2 * n
    u = xl.zeros(d)
    for i, j in enumerate(rng.sample(range(d), d)):
        u[i, j] = rng.choice([-1, 1])
    g = xl.block([[u, xl.zeros(d)], [xl.zeros(d), u]])
    for i in range(d):
        if rng.random() < 0.5:
            g[:, [i, d + i]] = g[:, [d + i, i]]
    return g


def mirror_certificate(rng, n):
    """The alpha of g_mirror on a random well-becoming pair."""
    return g_mirror(*well_becoming_sample(rng, n))[1].alpha


def bump(rng, g):
    """g with one random entry moved by 1, up or down."""
    g = g.copy()
    i, j = rng.randrange(len(g)), rng.randrange(len(g))
    g[i, j] += rng.choice([-1, 1])
    return g


def bump_nonzero(rng, g):
    """g with one random nonzero entry moved by 1, up or down: it has no
    fewer zeros than g."""
    g = g.copy()
    i, j = rng.choice([(i, j) for i, row in enumerate(g.num) for j, x in enumerate(row) if x])
    g[i, j] += rng.choice([-1, 1])
    return g


SPARSE_ISOMETRIES = {"certificate": mirror_certificate,
                     "signed permutation": signed_permutation_isometry}


@st.composite
def square_matrices(draw):
    """(n, g): an integral Q-isometry, one with an entry bumped, a rational
    translation by a skew or a general eta, or a random integer or rational
    matrix, all 4n x 4n for n = 1..3; or a mirror certificate or a signed
    permutation isometry, either with or without an entry bumped, for n = 1..4."""
    kind = draw(st.sampled_from(["isometry", "bumped", "skew", "not skew", "int", "rational",
                                 "certificate", "signed permutation"]))
    n = draw(st.integers(1, 4 if kind in SPARSE_ISOMETRIES else 3))
    rng = draw(st.randoms(use_true_random=False))
    if kind in SPARSE_ISOMETRIES:
        g = SPARSE_ISOMETRIES[kind](rng, n)
        if draw(st.booleans()):
            g = bump(rng, g)
    elif kind in ("isometry", "bumped"):
        g = rand_q_isometry(rng, n)
        if kind == "bumped":
            g = bump(rng, g)
    elif kind in ("skew", "not skew"):
        g = translation_element(_rational_eta(rng, 2 * n, kind == "skew"), n)
    else:
        entry = (lambda: rng.randint(-2, 2)) if kind == "int" else (lambda: rand_rational(rng))
        g = xl.mat([[entry() for _ in range(4 * n)] for _ in range(4 * n)])
    return n, g


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_is_q_isometry_matches_the_product_route(case):
    n, g = case
    q = q_matrix(n)
    assert is_q_isometry(g) == xl.mat_eq(xl.mul(g.T, xl.mul(q, g)), q)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_is_q_isometry_on_sparse_isometries(rng, n):
    # where at least three in four entries are 0 the test runs on the nonzeros;
    # it must give both answers there, so a bump keeps the zeros: at n = 1 a
    # sparse isometry has exactly 12 zeros of 16, and one filled in makes h dense
    q = q_matrix(n)
    seen = set()
    for make in SPARSE_ISOMETRIES.values():
        for _ in range(3):
            g = make(rng, n)
            for h, want in ((g, True), (bump_nonzero(rng, g), False)):
                assert is_q_isometry(h) == want == xl.mat_eq(xl.mul(h.T, xl.mul(q, h)), q)
                if 4 * sum(row.count(0) for row in h.num) >= 3 * (4 * n) ** 2:
                    seen.add(want)
    assert seen == {True, False}


def test_is_q_isometry_on_rational_and_misshapen_matrices():
    # l_1 -> l_1 / 2 and x_1 -> 2 x_1 keeps Q: num's Gram matrix is den^2 Q
    half = xl.eye(4)
    half[0, 0], half[2, 2] = Fraction(1, 2), 2
    assert is_q_isometry(half) and not is_q_isometry(half * 2)
    for g in (xl.zeros(4, 8), xl.zeros(8, 4), xl.eye(8)[:, :7], xl.eye(1), xl.eye(3),
              xl.eye(5)):
        assert not is_q_isometry(g)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_q_gram_is_u_transpose_q_v(rng, n):
    q = q_matrix(n)
    for k1, k2 in ((1, 1), (2, 3), (2 * n, 2 * n), (4 * n, 1)):
        u = xl.mat([[rng.randint(-3, 3) for _ in range(k1)] for _ in range(4 * n)])
        v = xl.mat([[rng.randint(-3, 3) for _ in range(k2)] for _ in range(4 * n)])
        got = q_gram(u.T.rows, v.T.rows)
        assert xl.mat_eq(got, xl.mul(u.T, xl.mul(q, v)))
        assert len(got) == k1 and all(len(row) == k2 for row in got)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_is_isotropic_reads_each_unordered_pair_once(rng, monkeypatch, n):
    # the 2n columns of g e_1 .. g e_2n for a Q-isometry g are isotropic;
    # with one nonzero pair (a, b), a <= b, only the pairs up to it in the
    # order (0, 0), (0, 1), ..., (0, k-1), (1, 1), ... are read, 4n products each
    d = 2 * n
    products = []
    mul = ps.mul

    def counting_mul(x, y):
        products.append(1)
        return mul(x, y)

    monkeypatch.setattr(ps, "mul", counting_mul)
    order = [(a, b) for a in range(d) for b in range(a, d)]
    for _ in range(3):
        g = rand_q_isometry(rng, n)
        cols = [g[:, k] for k in range(4 * n)]
        assert is_isotropic_by_gram(cols[:d])
        products.clear()
        assert is_isotropic(cols[:d])
        assert len(products) == len(order) * 4 * n
        for a, b in {(0, 0), (0, d - 1), (d - 1, d - 1), tuple(sorted(rng.sample(range(d), 2)))}:
            # Q(g e_k, g e_{2n+l}) = 1 for k = l: g e_{2n+b} spoils one pair
            vectors = cols[:d]
            vectors[a] = [x + y for x, y in zip(cols[a], cols[d + b])]
            assert not is_isotropic_by_gram(vectors)
            products.clear()
            assert not is_isotropic(vectors)
            assert len(products) == (order.index((a, b)) + 1) * 4 * n


def test_is_isotropic_matches_the_full_gram(rng):
    # random small vectors, isotropic or not, of every length and count
    seen = set()
    for _ in range(300):
        size = 2 * rng.randint(1, 4)
        vectors = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(size)]
                   for _ in range(rng.randint(0, 3))]
        got = is_isotropic(vectors)
        assert got == is_isotropic_by_gram(vectors)
        seen.add(got)
    assert seen == {True, False}


def test_jprod_is_built_once_from_the_torus_own_j():
    J = xl.mat(J_SQUARE)
    A = make_torus(1, J)
    J[0, 1] = 5  # the caller's J, written before Jprod is first read
    want = xl.block([[J_SQUARE, xl.zeros(2)], [xl.zeros(2), -J_SQUARE.T]])
    assert xl.mat_eq(A.J, J_SQUARE) and xl.mat_eq(A._jprod, want)
    J[1, 0] = 7
    assert xl.mat_eq(A.J, J_SQUARE) and xl.mat_eq(A._jprod, want)
    assert A._jprod is A._jprod
