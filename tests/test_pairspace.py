import pytest

from conftest import weak_pair_sample
from torusmirror import exactlin as xl
from torusmirror.errors import Block12Singular, NotNSForm
from torusmirror.pairspace import (build_lambda, classify_pair,
                                   conjugate_pair, e_form, i_omega,
                                   make_weak_pair, q_form, recover_omega)
from torusmirror.torus import make_torus

J_SQUARE = xl.mat([[0, -1], [1, 0]])
PHI = xl.mat([[0, 1], [-1, 0]])


def square_pair(t1=0, t2=1):
    A = make_torus(1, J_SQUARE)
    return make_weak_pair(A, t1 * PHI, t2 * PHI)


def test_make_weak_pair_validates():
    with pytest.raises(NotNSForm):
        square_pair(t2=0)  # degenerate imaginary part
    A = make_torus(1, J_SQUARE)
    with pytest.raises(NotNSForm):
        make_weak_pair(A, xl.mat([[0, 1], [1, 0]]), PHI)


def test_i_omega_properties_square_torus():
    p = square_pair()
    lam = build_lambda(p.torus)
    iw = i_omega(p)
    assert xl.mat_eq(xl.mul(iw, iw), -xl.eye(4))
    assert xl.mat_eq(xl.mul(iw.T, xl.mul(lam.Q, iw)), lam.Q)
    assert xl.det(iw) == 1
    assert xl.mat_eq(xl.mul(iw, lam.Jprod), xl.mul(lam.Jprod, iw))


def test_i_omega_properties_random(rng):
    for n in (1, 2, 3):
        for _ in range(5):
            p = weak_pair_sample(rng, n)
            lam = build_lambda(p.torus)
            iw = i_omega(p)
            assert xl.mat_eq(xl.mul(iw, iw), -xl.eye(4 * n))
            assert xl.mat_eq(xl.mul(iw.T, xl.mul(lam.Q, iw)), lam.Q)
            assert xl.mat_eq(xl.mul(iw, lam.Jprod), xl.mul(lam.Jprod, iw))
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


def test_recover_omega_roundtrip(rng):
    for n in (1, 2):
        p = weak_pair_sample(rng, n)
        q = recover_omega(p.torus, i_omega(p))
        assert xl.mat_eq(q.phi1, p.phi1) and xl.mat_eq(q.phi2, p.phi2)


def test_recover_omega_rejects_singular_block():
    A = make_torus(1, J_SQUARE)
    with pytest.raises(Block12Singular):
        recover_omega(A, build_lambda(A).Jprod)


def test_recover_omega_rejects_other_shapes():
    # blocks (1,2) and (2,2) read back a valid pair whose I_omega differs
    p = square_pair()
    I = i_omega(p)
    I[0, 0] += 1
    with pytest.raises(ValueError):
        recover_omega(p.torus, I)


def test_i_omega_returns_a_copy():
    p = square_pair()
    before = i_omega(p)
    edited = i_omega(p)
    edited[0, 0] += 1
    assert xl.mat_eq(i_omega(p), before)


def test_q_form_hyperbolic():
    q = q_form(2)
    assert xl.mat_eq(q, q.T)
    assert abs(xl.det(q)) == 1
    assert xl.is_zero(q[:4, :4]) and xl.is_zero(q[4:, 4:])
