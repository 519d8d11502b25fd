import pytest

from conftest import (commutes_with_i_omega, rand_q_isometry, rand_rational,
                      siegel_act_by_real_form, weak_pair_sample)
from torusmirror import exactlin as xl
from torusmirror.errors import FormMismatch, NotInvertible, SingularMatrix
from torusmirror.pairspace import classify_pair, i_omega, make_weak_pair
from torusmirror.siegel import (act_on_pair, blocks, require_q_isometry, siegel_act,
                                stabilizer_check, translation_element, u_membership)
from torusmirror.torus import make_torus, ns_basis

J_SQUARE = xl.mat([[0, -1], [1, 0]])
PHI = xl.mat([[0, 1], [-1, 0]])


def square_pair(t1=0, t2=1):
    A = make_torus(1, J_SQUARE)
    return make_weak_pair(A, t1 * PHI, t2 * PHI)


def test_blocks_roundtrip():
    g = translation_element(PHI, 1)
    a, b, c, d = blocks(g)
    assert xl.mat_eq(a, xl.eye(2)) and xl.is_zero(b)
    assert xl.mat_eq(c, PHI) and xl.mat_eq(d, xl.eye(2))


def test_translation_acts_by_addition():
    p = square_pair()
    for k in (1, -2, 3):
        g = translation_element(k * PHI, 1)
        phi1, phi2 = siegel_act(g, (p.phi1, p.phi2))
        assert xl.mat_eq(phi1, p.phi1 + k * PHI)
        assert xl.mat_eq(phi2, p.phi2)


def test_ns_translations_are_group_members():
    A = make_torus(1, J_SQUARE)
    for v in ns_basis(A):
        assert u_membership(translation_element(v.c, 1), A)
    # a skew form that is not of Neron-Severi type breaks the commutation
    z = xl.zeros(2)
    import numpy as np
    J = np.block([[z, xl.eye(2)], [-xl.eye(2), z]])
    eta = xl.zeros(4)
    eta[0, 1], eta[1, 0] = 1, -1
    assert not u_membership(translation_element(eta, 2), make_torus(2, J))


def test_membership_is_false_for_a_wrong_shape():
    A = make_torus(1, J_SQUARE)
    for g in (xl.eye(2), xl.eye(8), xl.zeros(4, 3)):
        assert u_membership(g, A) is False


def test_membership_needs_special_isometry():
    A = make_torus(1, J_SQUARE)
    assert u_membership(xl.eye(4), A)
    assert not u_membership(2 * xl.eye(4), A)
    u = xl.mat([[1, 1], [0, 1]])
    g = xl.zeros(4)
    g[:2, :2] = u
    g[2:, 2:] = xl.to_int(xl.invert(u)).T
    # an isometry of Q whose Gamma-block does not commute with J
    assert not u_membership(g, A)


def test_action_is_a_left_action(rng):
    p = weak_pair_sample(rng, 2)
    omega = (p.phi1, p.phi2)
    g1 = translation_element(p.phi1 * 0 + _int_skew(rng, 4), 2)
    u = xl.eye(4)
    u[0, 1] = 2
    g2 = xl.zeros(8)
    g2[:4, :4] = u
    g2[4:, 4:] = xl.to_int(xl.invert(u)).T
    lhs = siegel_act(xl.mul(g1, g2), omega)
    rhs = siegel_act(g1, siegel_act(g2, omega))
    assert xl.mat_eq(lhs[0], rhs[0]) and xl.mat_eq(lhs[1], rhs[1])


def _int_skew(rng, k):
    m = xl.zeros(k)
    for i in range(k):
        for j in range(i + 1, k):
            v = rng.randint(-2, 2)
            m[i, j] = v
            m[j, i] = -v
    return m


def test_translation_group_law():
    p = square_pair()
    omega = (p.phi1, p.phi2)
    g1 = translation_element(PHI, 1)
    g2 = translation_element(2 * PHI, 1)
    assert xl.mat_eq(xl.mul(g1, g2), translation_element(3 * PHI, 1))
    lhs = siegel_act(xl.mul(g1, g2), omega)
    rhs = siegel_act(g1, siegel_act(g2, omega))
    assert xl.mat_eq(lhs[0], rhs[0]) and xl.mat_eq(lhs[1], rhs[1])


def test_singular_denominator_raises():
    p = square_pair(1, 2)
    zero = xl.zeros(4)
    zero[2:, 2:] = xl.eye(2)  # a = 0, b = 0: denominator identically singular
    # swapping e_1 with its dual is a Q-isometry; for omega = [[0, w], [-w, 0]]
    # it gives a + b.omega = [[0, w], [0, 1]], which is singular
    swap = xl.zeros(4)
    swap[0, 2] = swap[2, 0] = swap[1, 1] = swap[3, 3] = 1
    for g in (zero, swap):
        with pytest.raises(NotInvertible):
            siegel_act(g, (p.phi1, p.phi2))
        with pytest.raises(SingularMatrix):
            _siegel_act_by_inverse(g, (p.phi1, p.phi2))


def _siegel_act_by_inverse(g, omega):
    """Reference: invert a + b.omega through its real 2k x 2k embedding
    [[re, -im], [im, re]], then multiply by c + d.omega over Q(i)."""
    phi1, phi2 = xl.asmat(omega[0]), xl.asmat(omega[1])
    a, b, c, d = blocks(g)
    num_re, num_im = c + xl.mul(d, phi1), xl.mul(d, phi2)
    den_re, den_im = a + xl.mul(b, phi1), xl.mul(b, phi2)
    k = den_re.shape[0]
    inv = xl.invert(xl.block([[den_re, -den_im], [den_im, den_re]]))
    inv_re, inv_im = inv[:k, :k], inv[k:, :k]
    return (xl.mul(num_re, inv_re) - xl.mul(num_im, inv_im),
            xl.mul(num_re, inv_im) + xl.mul(num_im, inv_re))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_siegel_act_matches_inverse_route(rng, n):
    for _ in range(6):
        p = weak_pair_sample(rng, n)
        g = rand_q_isometry(rng, n)
        try:
            ref = _siegel_act_by_inverse(g, (p.phi1, p.phi2))
        except SingularMatrix:
            with pytest.raises(NotInvertible):
                siegel_act(g, (p.phi1, p.phi2))
            continue
        got = siegel_act(g, (p.phi1, p.phi2))
        assert xl.mat_eq(got[0], ref[0]) and xl.mat_eq(got[1], ref[1])


def _no_invert(*args, **kw):
    raise AssertionError("exactlin.invert called")


def test_siegel_act_and_ns_basis_make_no_inverse(rng, monkeypatch):
    p = weak_pair_sample(rng, 3)
    g = rand_q_isometry(rng, 3)
    omega = (p.phi1, p.phi2)
    ref = _siegel_act_by_inverse(g, omega)
    basis = ns_basis(p.torus)
    monkeypatch.setattr(xl, "invert", _no_invert)
    got = siegel_act(g, omega)
    assert xl.mat_eq(got[0], ref[0]) and xl.mat_eq(got[1], ref[1])
    assert ns_basis(p.torus) == basis


def test_non_skew_image_raises():
    # diag(1, 1, 1, 2) is not a Q-isometry; it sends omega to a non-skew matrix
    p = square_pair()
    g = xl.eye(4)
    g[3, 3] = 2
    with pytest.raises(FormMismatch):
        siegel_act(g, (p.phi1, p.phi2))


def test_stabilizer_examples():
    p = square_pair()
    assert stabilizer_check(xl.eye(4), p)
    assert not stabilizer_check(translation_element(PHI, 1), p)
    rot = xl.zeros(4)
    rot[:2, :2] = J_SQUARE
    rot[2:, 2:] = J_SQUARE  # J^{-T} = J for the square structure
    assert u_membership(rot, p.torus)
    assert stabilizer_check(rot, p)
    assert commutes_with_i_omega(rot, p)


def test_stabilizer_iff_centralizer(rng):
    for n in (1, 2):
        for _ in range(10):
            p = weak_pair_sample(rng, n)
            g = rand_q_isometry(rng, n)
            if not u_membership(g, p.torus):
                continue
            assert stabilizer_check(g, p) == commutes_with_i_omega(g, p)


def test_action_equivariance_and_classification(rng):
    for _ in range(5):
        p = weak_pair_sample(rng, 1)
        g = translation_element(_ns_multiple(p), 1)
        assert u_membership(g, p.torus)
        q = act_on_pair(g, p)
        g_inv = xl.to_int(xl.invert(g))
        assert xl.mat_eq(i_omega(q), xl.mul(g, xl.mul(i_omega(p), g_inv)))
        assert classify_pair(q) == classify_pair(p)


def _ns_multiple(p):
    from torusmirror.torus import ns_basis
    return 2 * ns_basis(p.torus)[0].c


def test_require_q_isometry_rejects_a_wrong_shape():
    # g must be 4n x 4n before g^T Q g is formed: a wrong number of rows or
    # of columns is a shape error, named with both shapes
    with pytest.raises(ValueError, match="^g must be 4x4 for n = 1, not 6x4$"):
        require_q_isometry(xl.eye(6)[:, :4], 1)
    with pytest.raises(ValueError, match="^g must be 4x4 for n = 1, not 4x3$"):
        require_q_isometry(xl.eye(4)[:, :3], 1)
    with pytest.raises(FormMismatch):
        require_q_isometry(2 * xl.eye(4), 1)


def test_non_isometry_rejected_by_stabilizer_and_action():
    # 2*I sends omega to a skew pair, but it is not a Q-isometry
    p = square_pair()
    g = 2 * xl.eye(4)
    assert not u_membership(g, p.torus)
    with pytest.raises(FormMismatch):
        stabilizer_check(g, p)
    with pytest.raises(FormMismatch):
        act_on_pair(g, p)


# ---------------------------------------------------------------------------
# the one-product route against the four-product real-form route


def _outcome(route, g, omega):
    """route(g, omega) as (den, num, ncols) of both parts, or the class and
    message of what it raised."""
    try:
        return [(m.den, m.num, m.ncols) for m in route(g, omega)]
    except (NotInvertible, FormMismatch) as e:
        return (type(e), str(e))


def _rational_q_isometry(rng, n):
    """A Q-isometry with rational entries: a rational translation [[1, 0],
    [eta, 1]] and a rational [[u, 0], [0, u^-T]] around an integral one."""
    d = 2 * n
    eta = xl.zeros(d)
    for i in range(d):
        for j in range(i + 1, d):
            eta[i, j] = rand_rational(rng)
            eta[j, i] = -eta[i, j]
    u = xl.eye(d) + xl.mat([[rand_rational(rng) if j == i + 1 else 0 for j in range(d)]
                             for i in range(d)])
    diag = xl.block([[u, xl.zeros(d)], [xl.zeros(d), xl.invert(u).T]])
    return xl.mul(translation_element(eta, n), xl.mul(rand_q_isometry(rng, n), diag))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_siegel_act_matches_the_real_form_route(rng, n):
    kinds = set()
    for k in range(12):
        p = weak_pair_sample(rng, n)
        g = rand_q_isometry(rng, n) if k % 2 else _rational_q_isometry(rng, n)
        omega = (p.phi1, p.phi2)
        got = _outcome(siegel_act, g, omega)
        assert got == _outcome(siegel_act_by_real_form, g, omega)
        kinds.add((xl.is_integral(g), type(got)))
    assert (False, list) in kinds and (True, list) in kinds


def test_siegel_act_raises_as_the_real_form_route_does():
    p = square_pair(1, 2)
    omega = (p.phi1, p.phi2)
    # a + b.omega singular: swapping e_1 with its dual, and a = b = 0
    swap = xl.zeros(4)
    swap[0, 2] = swap[2, 0] = swap[1, 1] = swap[3, 3] = 1
    zero = xl.zeros(4)
    zero[2:, 2:] = xl.eye(2)
    # not a Q-isometry: a non-skew image, and 2*I with a skew one
    stretch = xl.eye(4)
    stretch[3, 3] = 2
    for g, error in ((swap, NotInvertible), (zero, NotInvertible), (stretch, FormMismatch)):
        got = _outcome(siegel_act, g, omega)
        assert got == _outcome(siegel_act_by_real_form, g, omega)
        assert got[0] is error
    assert _outcome(siegel_act, 2 * xl.eye(4), omega) == _outcome(
        siegel_act_by_real_form, 2 * xl.eye(4), omega)
    # a g of the wrong size is malformed input
    for g in (xl.eye(6), xl.eye(4)[:, :3], xl.eye(5)[:, :4], xl.eye(8)[:4]):
        with pytest.raises(ValueError):
            siegel_act(g, omega)

