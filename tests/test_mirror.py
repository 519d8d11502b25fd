import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import (adapted_halves, adapted_splitting_by_blocks, elliptic_modulus,
                      elliptic_sample, gaussian_pair, gaussian_torus, general_modulus_sample,
                      jprod_matrix, kahler_modulus, q_matrix, rand_q_isometry, rand_rational,
                      rand_unimodular, reduce_modulus, repair_candidates_by_norm, same_modulus,
                      splitting_route, standard_splitting, transversal, well_becoming_sample)
from torusmirror import cli, clifford
from torusmirror import exactlin as xl
from torusmirror import mirror
from torusmirror.errors import (Degenerate, DifferentSource, FormMismatch,
                                IntertwineFailure, NotABasis, NotInvariant,
                                NotInvertible, TransversalityNotFound)
from torusmirror.mirror import (WellBecomingWitness, _adapted_splitting, _certify,
                                _repair_candidates, _witness_basis,
                                compare_mirror_isos,
                                elliptic_factors, elliptic_mirror, g_mirror,
                                mirror_from_splitting, verify_mirror)
from torusmirror.pairspace import WeakPair, classify_pair, i_omega, make_weak_pair
from torusmirror.clifford import IsotropicSplitting
from torusmirror.siegel import siegel_act
from torusmirror.torus import (NSVector, Torus, find_polarization, hom_space, make_torus,
                               ns_basis)

J_SQUARE = xl.mat([[0, -1], [1, 0]])
PHI = xl.mat([[0, 1], [-1, 0]])


def square_pair():
    A = make_torus(1, J_SQUARE)
    return make_weak_pair(A, xl.zeros(2), PHI)


def std_witness(n):
    e = xl.eye(2 * n)
    return WellBecomingWitness([e[:, i] for i in range(n)],
                               [e[:, n + i] for i in range(n)])


def test_verify_mirror_rejects_bad_alpha():
    p = square_pair()
    with pytest.raises(FormMismatch):
        verify_mirror(p, p, 2 * xl.eye(4))
    bad = xl.eye(4)
    bad[0, 1] = 1  # unimodular, but not an isometry of the hyperbolic form
    with pytest.raises(FormMismatch):
        verify_mirror(p, p, bad)


def test_verify_mirror_names_both_ranks_of_pairs_of_different_n(rng):
    pairs = {n: gaussian_pair(rng, n) for n in (1, 2, 3)}
    for na, nb in ((1, 2), (2, 1), (1, 3), (3, 2)):
        with pytest.raises(FormMismatch, match=f"^Lambda_A has rank {4 * na} and Lambda_B "
                                               f"rank {4 * nb}, so no alpha identifies "
                                               f"their forms$"):
            verify_mirror(pairs[na], pairs[nb], xl.eye(4 * na))


def test_verify_mirror_names_the_expected_and_the_given_shape(rng):
    for n in (1, 2):
        p = gaussian_pair(rng, n)
        k = 4 * n
        for shape in ((k, k - 1), (k - 1, k), (2 * k, 2 * k), (k // 2, k), (k, 2 * k)):
            with pytest.raises(ValueError, match=f"^alpha must be {k}x{k}, "
                                                 f"not {shape[0]}x{shape[1]}$"):
                verify_mirror(p, p, xl.zeros(*shape))


def test_verify_mirror_names_a_non_unimodular_alpha():
    # no determinant is taken unless alpha fails to be a Q-isometry, and then
    # it picks the message: det 2 and integral, or det 1 and rational
    p = square_pair()
    det2 = xl.eye(4)
    det2[0, 0], det2[1, 2] = 2, 1
    half = xl.eye(4)
    half[0, 0], half[1, 1] = Fraction(1, 2), 2
    for alpha in (det2, half):
        assert abs(xl.det(alpha)) != 1 or not xl.is_integral(alpha)
        with pytest.raises(FormMismatch, match="^alpha is not an integral unimodular matrix$"):
            verify_mirror(p, p, alpha)
    bad = xl.eye(4)
    bad[0, 1] = 1
    with pytest.raises(FormMismatch, match="^alpha does not identify the hyperbolic forms$"):
        verify_mirror(p, p, bad)


def test_g_mirror_rejects_a_rational_witness_of_det_1():
    p = square_pair()
    witness = WellBecomingWitness([[Fraction(1, 2), 0]], [[0, 2]])
    with pytest.raises(NotABasis, match="^gamma1 \\+ gamma2 is not a Z-basis of Gamma$"):
        g_mirror(p, witness)


def test_verify_mirror_rejects_non_intertwiner():
    A = make_torus(1, J_SQUARE)
    p = make_weak_pair(A, PHI, PHI)  # omega = (1 + i) phi
    with pytest.raises(IntertwineFailure):
        verify_mirror(p, p, xl.eye(4))


@pytest.mark.parametrize("n", [1, 2])
def test_verify_mirror_names_the_first_entry_where_an_identity_fails(monkeypatch, rng, n):
    # adding 1 at (r, c) of I_omegaB or Jprod_B changes row r of I_omegaB.alpha
    # or Jprod_B.alpha by row c of alpha, so the identity first fails at row r,
    # in the first column where row c of alpha is nonzero
    p, w = well_becoming_sample(rng, n)
    pB, cert = g_mirror(p, w)
    alpha = cert.alpha.rows
    for owner, attr, name in ((pB, "_i_omega", "alpha.Jprod_A != I_omegaB.alpha"),
                              (pB.torus, "_jprod", "alpha.I_omegaA != Jprod_B.alpha")):
        for r, c in product(range(4 * n), repeat=2):
            m = getattr(owner, attr).copy()
            m[r, c] += 1
            monkeypatch.setattr(owner, attr, m)
            j = next(j for j, x in enumerate(alpha[c]) if x)
            with pytest.raises(IntertwineFailure,
                               match=f"^{re.escape(name)}, first at row {r}, column {j}$"):
                verify_mirror(p, pB, cert.alpha)
            monkeypatch.undo()
        verify_mirror(p, pB, cert.alpha)


@pytest.mark.parametrize("n", [1, 2])
def test_certifier_names_a_corrupted_product_as_verify_mirror_does(monkeypatch, rng, n):
    # a corrupted alpha.Jprod_A (alpha.I_omegaA) handed to the certifier is the
    # product verify_mirror forms when Jprod_A (I_omegaA) is corrupted by
    # alpha^-1 E_rc, so both name the same first entry in the same words
    p, w = well_becoming_sample(rng, n)
    pB, cert = g_mirror(p, w)
    alpha = cert.alpha
    alpha_inv = xl.invert(alpha)
    products = [xl.mul(alpha, p.torus._jprod), xl.mul(alpha, p._i_omega)]
    assert _certify(p, pB, alpha, *products).alpha is alpha
    for k, (owner, attr) in enumerate(((p.torus, "_jprod"), (p, "_i_omega"))):
        for r, c in product(range(4 * n), repeat=2):
            corrupted = list(products)
            corrupted[k] = products[k].copy()
            corrupted[k][r, c] += 1
            with pytest.raises(IntertwineFailure) as by_certifier:
                _certify(p, pB, alpha, *corrupted)
            shifted = getattr(owner, attr).copy()
            shifted[:, c] = [x + y for x, y in zip(shifted[:, c], alpha_inv[:, r])]
            monkeypatch.setattr(owner, attr, shifted)
            with pytest.raises(IntertwineFailure) as by_verify:
                verify_mirror(p, pB, alpha)
            monkeypatch.undo()
            assert str(by_certifier.value) == str(by_verify.value)
            assert str(by_certifier.value).endswith(f"first at row {r}, column {c}")


def test_standard_splitting_is_not_invariant():
    # the l-half is never I_omega-invariant: I_omega moves it into the x-half
    p = square_pair()
    with pytest.raises(NotInvariant):
        mirror_from_splitting(p, standard_splitting(1))


def test_check_well_becoming_validates_basis():
    p = square_pair()
    e = xl.eye(2)
    for w in (WellBecomingWitness([e[:, 0]], [e[:, 0]]),
              WellBecomingWitness([e[:, 0]], [[2 * x for x in e[:, 1]]])):
        with pytest.raises(NotABasis, match="^gamma1 \\+ gamma2 is not a Z-basis of Gamma$"):
            g_mirror(p, w)
    g_mirror(p, std_witness(1))


def test_check_well_becoming_detects_bad_grouping():
    # product of two square tori, phi pairing the halves: grouping the basis
    # as {e1, e3} / {e2, e4} puts a nonzero entry on a diagonal block of phi
    z = xl.zeros(2)
    J = np.block([[z, xl.eye(2)], [-xl.eye(2), z]])
    phi = np.block([[z, xl.eye(2)], [-xl.eye(2), z]])
    p = make_weak_pair(make_torus(2, J), xl.zeros(4), phi)
    e = xl.eye(4)
    g_mirror(p, std_witness(2))
    bad = WellBecomingWitness([e[:, 0], e[:, 2]], [e[:, 1], e[:, 3]])
    with pytest.raises(NotABasis, match="^witness does not exhibit p as well-becoming$"):
        g_mirror(p, bad)


def test_g_mirror_square_torus():
    p = square_pair()
    pB, cert = g_mirror(p, std_witness(1))
    a = cert.alpha
    assert xl.mat_eq(xl.mul(a.T, xl.mul(q_matrix(1), a)), q_matrix(1))
    assert xl.mat_eq(xl.mul(a, jprod_matrix(p.torus)), xl.mul(i_omega(pB), a))
    g_mirror(pB, std_witness(1))  # pB is well-becoming in the standard basis


def test_g_mirror_random_samples(rng):
    for n in (1, 2):
        for _ in range(5):
            p, w = well_becoming_sample(rng, n)
            pB, cert = g_mirror(p, w)
            g_mirror(pB, std_witness(n))  # well-becoming in the standard basis
            # re-verification from the raw data succeeds
            verify_mirror(p, pB, cert.alpha)


def test_double_mirror_is_isomorphism_of_pairs(rng):
    for n in (1, 2):
        p, w = well_becoming_sample(rng, n)
        pB, c1 = g_mirror(p, w)
        pC, c2 = g_mirror(pB, std_witness(n))
        gamma = xl.mul(c2.alpha, c1.alpha)
        gamma_inv = xl.to_int(xl.invert(gamma))
        jA = jprod_matrix(p.torus)
        jC = jprod_matrix(pC.torus)
        assert xl.mat_eq(xl.mul(gamma, xl.mul(jA, gamma_inv)), jC)
        assert xl.mat_eq(xl.mul(gamma, xl.mul(i_omega(p), gamma_inv)), i_omega(pC))


def test_mirror_preserves_classification(rng):
    for n in (1, 2):
        for _ in range(5):
            p, w = well_becoming_sample(rng, n)
            pB, _cert = g_mirror(p, w)
            assert classify_pair(pB) == classify_pair(p)


def test_compare_mirror_isos():
    p = square_pair()
    _, c1 = g_mirror(p, std_witness(1))
    assert xl.mat_eq(compare_mirror_isos(c1, c1), xl.eye(4))
    e = xl.eye(2)
    flipped = WellBecomingWitness([[-x for x in e[:, 0]]], [e[:, 1]])
    _, c2 = g_mirror(p, flipped)
    gamma = compare_mirror_isos(c1, c2)
    assert xl.is_integral(gamma) and abs(xl.det(gamma)) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compare_mirror_isos_matches_inverse_route(rng, n):
    for _ in range(3):
        p, w = well_becoming_sample(rng, n)
        # the same halves in other bases: another witness of the same pair
        w2 = WellBecomingWitness(xl.mul(w.gamma1, rand_unimodular(rng, n)).T,
                                 xl.mul(w.gamma2, rand_unimodular(rng, n)).T)
        _, c1 = g_mirror(p, w)
        _, c2 = g_mirror(p, w2)
        for a, b in ((c1, c2), (c2, c1), (c1, c1)):
            ref = xl.to_int(xl.mul(xl.invert(b.alpha), a.alpha))
            assert xl.mat_eq(compare_mirror_isos(a, b), ref)


def test_compare_mirror_isos_requires_same_source(rng):
    p1, w1 = well_becoming_sample(rng, 1)
    p2, w2 = well_becoming_sample(rng, 1)
    assert not (p1 == p2)
    _, c1 = g_mirror(p1, w1)
    _, c2 = g_mirror(p2, w2)
    with pytest.raises(DifferentSource):
        compare_mirror_isos(c1, c2)


def test_elliptic_mirror_curve():
    A = make_torus(1, J_SQUARE)
    pA, pB, cert = elliptic_mirror(A, (0, 1), PHI)
    verify_mirror(pA, pB, cert.alpha)
    factors, isogenies = elliptic_factors(pB, [1])
    assert len(factors) == 1
    assert xl.mat_eq(isogenies[0], xl.eye(2))


def test_elliptic_mirror_surface_with_isogeny():
    z = xl.zeros(2)
    J = np.block([[z, xl.eye(2)], [-xl.eye(2), z]])
    c = xl.zeros(4)
    c[0, 2], c[2, 0] = 1, -1
    c[1, 3], c[3, 1] = 2, -2
    pA, pB, cert = elliptic_mirror(make_torus(2, J), (1, 2), c)
    verify_mirror(pA, pB, cert.alpha)
    factors, isogenies = elliptic_factors(pB, [1, 2])
    assert len(factors) == 2
    assert xl.mat_eq(isogenies[1], xl.mat([[1, 0], [0, 2]]))
    for f, iso in zip(factors, isogenies):
        assert xl.mat_eq(xl.mul(f.J, iso), xl.mul(iso, factors[0].J))


def test_elliptic_mirror_rejects_degenerate_form():
    A = make_torus(1, J_SQUARE)
    with pytest.raises(Degenerate):
        elliptic_mirror(A, (0, 1), xl.zeros(2))


def test_elliptic_factors_rejects_non_dividing_deltas():
    z = xl.zeros(2)
    J = np.block([[z, xl.eye(2)], [-xl.eye(2), z]])
    c = xl.zeros(4)
    c[0, 2], c[2, 0] = 1, -1
    c[1, 3], c[3, 1] = 2, -2
    _, pB, _ = elliptic_mirror(make_torus(2, J), (1, 2), c)
    with pytest.raises(ValueError):
        elliptic_factors(pB, [2, 3])


def test_elliptic_factors_rejects_a_torus_that_is_not_a_product():
    # each pair block squares to -1, but J[0][1] couples the pairs (0, 2) and (1, 3)
    A = make_torus(2, [[0, 1, -1, 0], [0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, 0]])
    pB = make_weak_pair(A, xl.zeros(4), find_polarization(A).c)
    with pytest.raises(ValueError, match=re.escape(
            "J of pB couples the index pairs [0, 2] and [1, 3]: J[0, 1] = 1, not 0")):
        elliptic_factors(pB, [1, 1])


def test_elliptic_factors_rejects_deltas_that_do_not_fit():
    # a product of two curves that are not isogenous by diag(1, 1): the
    # deltas are the caller's input, not an invariant the library broke
    A = make_torus(2, [[0, 0, -1, 0], [0, 1, 0, -2], [1, 0, 0, 0], [0, 1, 0, -1]])
    assert xl.mat_eq(A.J[[1, 3], [1, 3]], [[1, -2], [1, -1]])
    pB = make_weak_pair(A, xl.zeros(4), find_polarization(A).c)
    with pytest.raises(ValueError, match=re.escape(
            "deltas [1, 1] do not fit pB: factor 1 is not isogenous to factor 0 by "
            "[[1, 0], [0, 1]]")):
        elliptic_factors(pB, [1, 1])


def block_rotation(n):
    """J = diag(R, ..., R) with R the square structure on (e_2i-1, e_2i)."""
    J = xl.zeros(2 * n)
    for i in range(n):
        J[2 * i:2 * i + 2, 2 * i:2 * i + 2] = J_SQUARE
    return J


def test_elliptic_mirror_needs_both_halves_transversal():
    # W is transversal to J W, but J Sigma meets Sigma, so block (1,2) of the
    # mirror's I_omega would be singular; no repair of the basis changes Sigma
    phi = xl.zeros(4)
    phi[0, 2], phi[2, 0], phi[1, 3], phi[3, 1] = 1, -1, 1, -1
    with pytest.raises(TransversalityNotFound):
        elliptic_mirror(make_torus(2, block_rotation(2)), (0, 1), phi)


# ---------------------------------------------------------------------------
# Reference route for g_mirror and elliptic_mirror: pass the pair to the
# coordinates adapted to u, mirror it across a standard splitting there, and
# carry alpha back to Lambda_A with the inverse of U = [[u, 0], [0, u^-T]]


def _adapted_route(p, u, halves):
    n = p.torus.n
    u_inv = xl.to_int(xl.invert(u))
    A1 = make_torus(n, xl.mul(u_inv, xl.mul(p.torus.J, u)))
    p1 = make_weak_pair(A1, xl.mul(u.T, xl.mul(p.phi1, u)),
                        xl.mul(u.T, xl.mul(p.phi2, u)))
    e = xl.eye(4 * n)
    s = IsotropicSplitting(n, [e[:, i] for i in halves[0]], [e[:, i] for i in halves[1]])
    pB, cert1 = mirror_from_splitting(p1, s)
    z = xl.zeros(2 * n)
    big_u = np.block([[u, z], [z, u_inv.T]])
    return pB, xl.mul(cert1.alpha, xl.to_int(xl.invert(big_u)))


def _w_sigma_indices(n):
    w = list(range(n)) + list(range(3 * n, 4 * n))
    sigma = list(range(2 * n, 3 * n)) + list(range(n, 2 * n))
    return w, sigma


def _old_g_mirror(p, w):
    w_idx, sigma_idx = _w_sigma_indices(p.torus.n)
    return _adapted_route(p, np.block([[w.gamma1, w.gamma2]]), (sigma_idx, w_idx))


def _old_elliptic_mirror(A, tau, c):
    n = A.n
    pA = make_weak_pair(A, tau[0] * c, tau[1] * c)
    nf = xl.skew_normal_form(c)
    u = nf.basis_change
    e = xl.eye(4 * n)
    w_idx, sigma_idx = _w_sigma_indices(n)
    for corr in repair_candidates_by_norm(n, nf.deltas, 5):
        u2 = u.copy()
        u2[:, :n] = u[:, :n] + xl.mul(u[:, n:], corr)
        j1 = xl.mul(xl.to_int(xl.invert(u2)), xl.mul(A.J, u2))
        jprod1 = jprod_matrix(make_torus(n, j1))
        if all(xl.rank(np.block([[e[:, idx], xl.mul(jprod1, e[:, idx])]])) == 4 * n
               for idx in (w_idx, sigma_idx)):
            return (pA,) + _adapted_route(pA, u2, (w_idx, sigma_idx))
    raise TransversalityNotFound("no candidate")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_g_mirror_matches_adapted_route(rng, n):
    for _ in range(4):
        p, w = well_becoming_sample(rng, n)
        pB, cert = g_mirror(p, w)
        pB_ref, alpha_ref = _old_g_mirror(p, w)
        assert pB == pB_ref
        assert xl.mat_eq(cert.alpha, alpha_ref)


def repaired_case():
    """An elliptic_mirror input whose first candidate fails: the basis is
    repaired with C != 0."""
    phi = xl.mat([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 1], [0, -1, -1, 0]])
    return make_torus(2, block_rotation(2)), (1, 2), phi


def elliptic_cases(rng, n):
    return [elliptic_sample(rng, n) for _ in range(3)] + ([repaired_case()] if n == 2 else [])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_elliptic_mirror_matches_adapted_route(rng, n):
    for A, tau, phi in elliptic_cases(rng, n):
        pA, pB, cert = elliptic_mirror(A, tau, phi)
        pA_ref, pB_ref, alpha_ref = _old_elliptic_mirror(A, tau, phi)
        assert pA == pA_ref and pB == pB_ref
        assert xl.mat_eq(cert.alpha, alpha_ref)


def test_g_mirror_computes_i_omega_once_per_pair(rng, monkeypatch):
    # I_omega is computed once, when a pair is made: p's before the pipeline,
    # pB's from the known phi2^-1 = -(block (1,2)), so no pair's phi2 is inverted;
    # the only inverses are of the witness basis and of that block
    from torusmirror import exactlin
    p, w = well_becoming_sample(rng, 2)
    inverted = []
    real = exactlin.invert

    def counted(m):
        inverted.append(m)
        return real(m)

    monkeypatch.setattr(exactlin, "invert", counted)
    pB, cert = g_mirror(p, w)
    verify_mirror(p, pB, cert.alpha)
    classify_pair(p)
    classify_pair(pB)
    monkeypatch.undo()
    computed = [q for q in (p, pB) for m in inverted if m is q.phi2]
    assert computed == []
    assert len(inverted) == 2
    assert xl.mat_eq(inverted[0], xl.block([[w.gamma1, w.gamma2]]))
    assert xl.mat_eq(inverted[1], -xl.invert(pB.phi2))
    pB_ref, alpha_ref = _old_g_mirror(p, w)
    assert pB == pB_ref and xl.mat_eq(cert.alpha, alpha_ref)
    assert cert.pairA is p and cert.pairB is pB


# ---------------------------------------------------------------------------
# the adapted splitting (w, alpha) against the IsotropicSplitting route


def _same(got, ref):
    return all(xl.mat_eq(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adapted_splitting_matches_isotropic_splitting_on_witness_bases(rng, n):
    for _ in range(4 if n < 4 else 2):
        p, w = well_becoming_sample(rng, n)
        u, u_inv = _witness_basis(p, w)
        for w_first in (False, True):
            assert _same(_adapted_splitting(u, u_inv, w_first),
                         splitting_route(u, u_inv, w_first))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adapted_splitting_matches_isotropic_splitting_on_elliptic_bases(rng, monkeypatch, n):
    seen = []
    real = mirror._adapted_splitting

    def spy(u, u_inv, w_first):
        out = real(u, u_inv, w_first)
        seen.append((u, u_inv, w_first, out))
        return out

    monkeypatch.setattr(mirror, "_adapted_splitting", spy)
    cases = elliptic_cases(rng, n)
    for A, tau, phi in cases:
        elliptic_mirror(A, tau, phi)
    monkeypatch.undo()
    assert len(seen) == len(cases)
    repaired = 0
    for (A, tau, phi), (u, u_inv, w_first, out) in zip(cases, seen):
        assert w_first
        assert _same(out, splitting_route(u, u_inv, w_first))
        # u = u0 [[1, 0], [C, 1]] differs from the normal form's u0 iff C != 0
        repaired += not xl.mat_eq(u, xl.skew_normal_form(phi).basis_change)
    assert repaired == (1 if n == 2 else 0)


def test_adapted_splitting_rejects_a_wrong_inverse(rng):
    p, w = well_becoming_sample(rng, 2)
    u, u_inv = _witness_basis(p, w)
    bad = u_inv.copy()
    bad[0, 0] += 1
    # a one-entry corruption, a rational inverse (u2 has det +-2), no inverse
    u2 = xl.mul(u, xl.mat([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    for basis, inverse in ((u, bad), (u2, xl.invert(u2)), (u, xl.zeros(4))):
        for w_first in (False, True):
            with pytest.raises(RuntimeError, match="^u\\.u\\^-1 != 1: "):
                _adapted_splitting(basis, inverse, w_first)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adapted_splitting_matches_the_block_route(rng, monkeypatch, n):
    # the bases of g_mirror's witnesses and of elliptic_mirror's repaired
    # symplectic bases, each with both orders of the halves
    bases = [_witness_basis(*well_becoming_sample(rng, n)) for _ in range(3)]
    real = mirror._adapted_splitting

    def spy(u, u_inv, w_first):
        bases.append((u, u_inv))
        return real(u, u_inv, w_first)

    monkeypatch.setattr(mirror, "_adapted_splitting", spy)
    cases = elliptic_cases(rng, n)
    for A, tau, phi in cases:
        elliptic_mirror(A, tau, phi)
    monkeypatch.undo()
    assert len(bases) == 3 + len(cases)
    for u, u_inv in bases:
        for w_first in (False, True):
            w, alpha = _adapted_splitting(u, u_inv, w_first)
            ref = adapted_splitting_by_blocks(u, u_inv, w_first)
            assert [(m.den, m.num, m.ncols) for m in (w, alpha)] == [
                (m.den, m.num, m.ncols) for m in ref]
            assert xl.mat_eq(xl.mul(alpha, w), xl.eye(4 * n))
            assert all(type(x) is int for m in (w, alpha) for row in m.num for x in row)


def test_g_mirror_and_elliptic_mirror_build_no_isotropic_splitting(rng, monkeypatch):
    built = []
    real = clifford.IsotropicSplitting.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(clifford.IsotropicSplitting, "__init__", counted)
    for n in (1, 2, 3):
        for _ in range(2):
            g_mirror(*well_becoming_sample(rng, n))
        for A, tau, phi in elliptic_cases(rng, n):
            elliptic_mirror(A, tau, phi)
    assert built == []
    standard_splitting(1)  # the counter sees a splitting that is built
    monkeypatch.undo()
    assert len(built) == 1


# ---------------------------------------------------------------------------
# the block test of well-becoming against the rank route


def test_block_test_matches_rank_route(rng):
    # W (Sigma) of u2 = u [[1, 0], [C, 1]] is transversal to Jprod W (Jprod
    # Sigma) exactly when block (2,1) ((1,2)) of u2^-1 J u2 is nonsingular
    seen = {"W": set(), "Sigma": set()}
    cases = 0
    for n in (1, 2, 3):
        zero = xl.zeros(2 * n)
        on_diagonal = xl.zeros(2 * n)
        on_diagonal[n, n] = 1
        for k in range(102):
            if k % 3 == 0:
                J = well_becoming_sample(rng, n)[0].torus.J
            elif k % 3 == 1:
                J = gaussian_torus(rng, n)[0].J
            else:
                J = block_rotation(n)
            u = xl.eye(2 * n) if k % 4 == 2 else rand_unimodular(rng, 2 * n)
            corr = xl.mat([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
            u2 = xl.mul(u, xl.block([[xl.eye(n), xl.zeros(n)], [corr, xl.eye(n)]]))
            u2_inv = xl.to_int(xl.invert(u2))
            j = xl.mul(u2_inv, xl.mul(J, u2))
            jprod_a = jprod_matrix(make_torus(n, J))
            w_half, sigma = adapted_halves(u2, u2_inv)
            w_ok, sigma_ok = transversal(jprod_a, w_half), transversal(jprod_a, sigma)
            assert (xl.det(j[n:, :n]) != 0) == w_ok
            assert (xl.det(j[:n, n:]) != 0) == sigma_ok
            assert mirror._well_becoming(zero, zero, j) == (w_ok and sigma_ok)
            assert not mirror._well_becoming(on_diagonal, zero, j)
            assert not mirror._well_becoming(zero, on_diagonal, j)
            seen["W"].add(w_ok)
            seen["Sigma"].add(sigma_ok)
            cases += 1
    assert cases >= 300
    assert seen == {"W": {False, True}, "Sigma": {False, True}}


def test_mirrors_take_no_rank_and_no_identity_product(rng, monkeypatch):
    ranks, identity_products = [], []
    real_rank, real_mul = xl.rank, xl.mul

    def is_identity(m):
        m = xl.asmat(m)
        return m.shape[0] == m.shape[1] and xl.mat_eq(m, xl.eye(m.shape[0]))

    def counted_rank(a):
        ranks.append(a)
        return real_rank(a)

    def counted_mul(a, b):
        if is_identity(a) or is_identity(b):
            identity_products.append((a, b))
        return real_mul(a, b)

    samples = []
    for n in (1, 2, 3):
        while len(samples) < 2 * n:
            p, w = well_becoming_sample(rng, n)
            if not xl.mat_eq(xl.block([[w.gamma1, w.gamma2]]), xl.eye(2 * n)):
                samples.append((p, w))
    cases = [case for n in (1, 2, 3) for case in elliptic_cases(rng, n)]
    monkeypatch.setattr(xl, "rank", counted_rank)
    monkeypatch.setattr(xl, "mul", counted_mul)
    for p, w in samples:
        g_mirror(p, w)
    assert identity_products == []
    for A, tau, phi in cases:
        elliptic_mirror(A, tau, phi)
    assert ranks == []
    # the counters see a rank and a product with the identity that are taken
    p, w = samples[0]
    e = xl.eye(2 * p.torus.n)
    mirror._in_basis(p, e, e)
    transversal(p.torus._jprod, adapted_halves(e, e)[0])
    monkeypatch.undo()
    assert len(ranks) == 1 and identity_products


def _corrected_block21(jp, t):
    """Block (2,1) of [[1, 0], [-T, 1]] J' [[1, 0], [T, 1]] for T = diag(t):
    J'_21 + J'_22 T - T J'_11 - T J'_12 T."""
    n = len(t)
    T = xl.zeros(n)
    for i, x in enumerate(t):
        T[i, i] = x
    a, b, c, d = jp[:n, :n], jp[:n, n:], jp[n:, :n], jp[n:, n:]
    return c + xl.mul(d, T) - xl.mul(T, a) - xl.mul(T, xl.mul(b, T))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_diagonal_correction_of_norm_one_always_exists(rng, n):
    # the bound elliptic_mirror's search rests on, on the J' = g J0 g^-1 with
    # det J'_12 != 0 for which C = 0 fails: det J'_21 = 0
    j0 = block_rotation(n)
    found = 0
    while found < 8:
        g = rand_unimodular(rng, 2 * n)
        jp = xl.mul(g, xl.mul(j0, xl.to_int(xl.invert(g))))
        if xl.det(jp[:n, n:]) == 0 or xl.det(jp[n:, :n]) != 0:
            continue
        found += 1
        assert any(xl.det(_corrected_block21(jp, t)) != 0
                   for t in product((-1, 0, 1), repeat=n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_repair_candidates_are_the_budgeted_order_up_to_norm_one(n):
    for deltas in ([1] * n, [1] + [2] * (n - 1), [2 ** i for i in range(n)]):
        assert list(_repair_candidates(n, deltas)) == list(repair_candidates_by_norm(n, deltas, 1))


def test_elliptic_mirror_repairs_a_basis_that_c_zero_fails(monkeypatch):
    # J = [[R, diag(1, -1)], [0, R]] and phi in symplectic normal form, so
    # u = 1 and J' = J: det J'_12 = -1, but J'_21 = 0
    J = xl.mat([[0, -1, 1, 0], [1, 0, 0, -1], [0, 0, 0, -1], [0, 0, 1, 0]])
    phi = xl.block([[xl.zeros(2), xl.eye(2)], [-xl.eye(2), xl.zeros(2)]])
    A = make_torus(2, J)
    assert xl.mat_eq(xl.skew_normal_form(phi).basis_change, xl.eye(4))
    assert xl.det(J[:2, 2:]) == -1 and xl.det(J[2:, :2]) == 0
    pA, pB, cert = elliptic_mirror(A, (0, 1), phi)
    verify_mirror(pA, pB, cert.alpha)
    # were the norm-1 corrections to run out, that would be a broken invariant
    monkeypatch.setattr(mirror, "_repair_candidates", lambda n, deltas: iter([xl.zeros(n)]))
    with pytest.raises(RuntimeError, match="Combinatorial Nullstellensatz"):
        elliptic_mirror(A, (0, 1), phi)


def test_exhausted_repair_names_the_candidates_it_tried(monkeypatch, capsys, tmp_path):
    # only C = 0, which fails for the construction above: the broken
    # invariant names the one candidate tried, and the CLI still exits 3 with
    # the broken-invariant payload
    J = [[0, -1, 1, 0], [1, 0, 0, -1], [0, 0, 0, -1], [0, 0, 1, 0]]
    phi = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    monkeypatch.setattr(mirror, "_repair_candidates", lambda n, deltas: iter([xl.zeros(n)]))
    with pytest.raises(RuntimeError) as err:
        elliptic_mirror(make_torus(2, J), (0, 1), phi)
    message = str(err.value)
    assert re.fullmatch(r"none of the (\d+) corrections C of max-norm 1 tried makes J W "
                        r"transversal to W, against the Combinatorial Nullstellensatz bound",
                        message).group(1) == "1"
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(json.dumps({"torus": {"n": 2, "J": J}, "tau": ["0", "1"], "phi": phi}))
    assert cli.main(["elliptic-mirror", "--input", str(inp), "--output", str(out)]) == 3
    assert json.loads(out.read_text()) == {"error": "broken-invariant", "detail": message}
    assert capsys.readouterr().err == f"broken invariant: {message}\n"


def repaired_elliptic_sample(rng, n):
    """(A, tau, phi) for which elliptic_mirror must repair its symplectic basis:
    J = diag(R, ..., R) in a random basis and phi a random nondegenerate
    combination of ns_basis, drawn until det J'_12 != 0 and det J'_21 = 0."""
    while True:
        t = rand_unimodular(rng, 2 * n)
        A = make_torus(n, xl.mul(xl.to_int(xl.invert(t)), xl.mul(block_rotation(n), t)))
        phi = xl.zeros(2 * n)
        for v in ns_basis(A):
            phi = phi + rng.randint(-1, 1) * v.c
        if xl.det(phi) == 0:
            continue
        u = xl.skew_normal_form(phi).basis_change
        jp = xl.mul(xl.to_int(xl.invert(u)), xl.mul(A.J, u))
        if xl.det(jp[:n, n:]) != 0 and xl.det(jp[n:, :n]) == 0:
            return A, (rand_rational(rng), rand_rational(rng, nonzero=True)), phi


@pytest.mark.parametrize("n", [2, 3, 4])
def test_repaired_elliptic_mirror_matches_budgeted_reference(rng, n):
    for _ in range(7):
        A, tau, phi = repaired_elliptic_sample(rng, n)
        pA, pB, cert = elliptic_mirror(A, tau, phi)
        pA_ref, pB_ref, alpha_ref = _old_elliptic_mirror(A, tau, phi)
        assert pA == pA_ref and pB == pB_ref
        assert xl.mat_eq(cert.alpha, alpha_ref)


@pytest.mark.parametrize("deltas", [[0], [], [1, 2], [-1], [1.0], [True]],
                         ids=["zero", "empty", "too-long", "negative", "float", "bool"])
def test_elliptic_factors_rejects_malformed_deltas(deltas):
    A = make_torus(1, J_SQUARE)
    _, pB, _ = elliptic_mirror(A, (0, 1), PHI)
    with pytest.raises(ValueError, match="^deltas must be n = 1 positive multiples of the first"):
        elliptic_factors(pB, deltas)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_gaussian_torus_has_an_elliptic_mirror(rng, n):
    # the paper's 9.6.1, constructively: for omega = (1/2 + i) phi with phi a
    # polarization of A, elliptic_mirror finds a mirror of (A, omega).  With
    # J' = u^-1 J u = [[a, b], [c, d]] in a symplectic basis u of phi, the
    # definite form phi(J x, x) is (b y)^t Delta y on x = (0, y) in Gamma_2,
    # so det b != 0 and the Sigma test passes; the repair always succeeds
    # (see elliptic_mirror)
    for _ in range(10):
        A, principal = gaussian_torus(rng, n)
        for phi in (find_polarization(A).c, principal):
            pA, pB, cert = elliptic_mirror(A, (Fraction(1, 2), 1), phi)
            verify_mirror(pA, pB, cert.alpha)


def _pinned(x):
    """A canonical repr of a pipeline output: a matrix by (den, num, ncols),
    a pair by its torus, forms and I_omega, a certificate by alpha and its pairs."""
    if isinstance(x, xl.Matrix):
        return ("M", x.den, x.num, x.ncols)
    if isinstance(x, Torus):
        return ("T", x.n, _pinned(x.J))
    if isinstance(x, NSVector):
        return ("NS", _pinned(x.c))
    if isinstance(x, WeakPair):
        return ("P", _pinned(x.torus), _pinned(x.phi1), _pinned(x.phi2), _pinned(x._i_omega))
    if isinstance(x, mirror.MirrorCertificate):
        return ("C", _pinned(x.alpha), _pinned(x.pairA), _pinned(x.pairB))
    if isinstance(x, (list, tuple)):
        return tuple(_pinned(y) for y in x)
    return repr(x)


def same_results_outputs():
    """The outputs of the mirror pipeline on seeded inputs at n = 1..3, and the
    classification tags seen; the seed is fixed, so the inputs do not follow
    TORUS_MIRROR_SEED."""
    rng = random.Random(2029)
    out, tags = [], set()
    for n in (1, 2, 3):
        for _ in range(2):
            p, w = well_becoming_sample(rng, n)
            pB, cert = g_mirror(p, w)
            out += [("g_mirror", pB, cert), ("verify_mirror", verify_mirror(p, pB, cert.alpha)),
                    ("classify_pair", classify_pair(p), classify_pair(pB))]
        for A, tau, phi in [elliptic_sample(rng, n) for _ in range(2)] + (
                [repaired_case()] if n == 2 else []):
            pA, pB, cert = elliptic_mirror(A, tau, phi)
            out += [("elliptic_mirror", pA, pB, cert),
                    ("elliptic_factors", elliptic_factors(pB, xl.skew_normal_form(phi).deltas))]
        A, _ = gaussian_torus(rng, n)
        B, _ = gaussian_torus(rng, n)
        out += [("ns_basis", ns_basis(A)), ("hom_space", hom_space(A, A), hom_space(A, B))]
        for _ in range(12):
            p = gaussian_pair(rng, n)
            tag = classify_pair(p)
            tags.add(tag)
            try:
                acted = siegel_act(rand_q_isometry(rng, n), (p.phi1, p.phi2))
            except NotInvertible as e:
                acted = repr(e)
            out += [("classify_pair", p, tag), ("siegel_act", acted)]
    return out, tags


SAME_RESULTS_SHA256 = "127d88a55c678e20b93c7aca0b8293a9c81e9840df8417cb693e43340fd877b3"


def test_mirror_pipeline_outputs_are_pinned():
    # the digest was computed before the mirror path dropped its repeated work
    out, tags = same_results_outputs()
    assert tags == {"AlgebraicPlus", "AlgebraicMinus", "WeakOnly"}
    digest = hashlib.sha256(repr(_pinned(out)).encode()).hexdigest()
    assert digest == SAME_RESULTS_SHA256


# ---------------------------------------------------------------------------
# n = 1: the mirror exchanges the complex and the Kahler modulus


def _reflected(z, flip):
    """The reduced point of z, or of -conj(z) when flip."""
    return reduce_modulus((-z[0], z[1]) if flip else z)


def _exchanges_moduli(pA, pB):
    """tau_B reduces to rho_A, and rho_B to tau_A, up to the reflection
    z -> -conj(z), pinned both ways.  It is needed exactly when one of the
    two moduli was conjugated into the upper half plane and the other was
    not: for tau_B when r of J_B and f2 of A differ in sign, and for rho_B
    when r of J_A and f2 of B do.  So rho_B reduces to tau_A when r of J_A
    and f2 of B agree in sign, and to -conj(tau_A) when they differ.  On a
    tau_A that the reflection fixes the two readings agree;
    general_modulus_sample draws none of those."""
    tau_b, rho_b = elliptic_modulus(pB.torus), kahler_modulus(pB)
    return (reduce_modulus(tau_b) == _reflected(kahler_modulus(pA), _flips(pB, pA))
            and reduce_modulus(rho_b) == _reflected(elliptic_modulus(pA.torus), _flips(pA, pB)))


def _flips(p, q):
    """Do r of J of p and f2 of q differ in sign?"""
    return (p.torus.J[1, 0] > 0) != (q.phi2[0, 1] > 0)


def test_g_mirror_exchanges_the_moduli_at_n_1(rng):
    for _ in range(50):
        p, w = well_becoming_sample(rng, 1)
        assert _exchanges_moduli(p, g_mirror(p, w)[0])


def test_elliptic_mirror_exchanges_the_moduli_at_n_1(rng):
    for _ in range(50):
        pA, pB, _ = elliptic_mirror(*elliptic_sample(rng, 1))
        assert _exchanges_moduli(pA, pB)


def _general_tau_mirrors(rng, build):
    """The pairs (pA, pB) that build makes from 50 general_modulus_samples,
    each tau_A checked to reduce to a point that the reflection moves."""
    out = []
    for _ in range(50):
        A, rho, phi, w = general_modulus_sample(rng)
        tau = elliptic_modulus(A)
        assert reduce_modulus(tau) != _reflected(tau, True)
        out.append(build(A, rho, phi, w))
    return out


def _rho_flips(pairs):
    """Each pair exchanges the moduli; the set of the rho_B reflections used."""
    assert all(_exchanges_moduli(pA, pB) for pA, pB in pairs)
    return {_flips(pA, pB) for pA, pB in pairs}


def test_g_mirror_pins_the_reflection_of_rho_b_on_a_general_tau(rng):
    def build(A, rho, phi, w):
        pA = make_weak_pair(A, rho[0] * phi, rho[1] * phi)
        return pA, g_mirror(pA, w)[0]
    # both rules occur, and on these samples they tell different points apart
    assert _rho_flips(_general_tau_mirrors(rng, build)) == {False, True}


def test_elliptic_mirror_pins_the_reflection_of_rho_b_on_a_general_tau(rng):
    def build(A, rho, phi, w):
        return elliptic_mirror(A, rho, phi)[:2]
    assert _rho_flips(_general_tau_mirrors(rng, build)) == {False, True}


def test_the_moduli_oracle_tells_the_moduli_apart(rng):
    # the relation is not the identity: the mirror's complex modulus is
    # seldom that of the source, and the reduction is the classical one
    same = sum(same_modulus(elliptic_modulus(g_mirror(*sample)[0].torus),
                            elliptic_modulus(sample[0].torus))
               for sample in (well_becoming_sample(rng, 1) for _ in range(50)))
    assert same <= 10
    half = Fraction(1, 2)
    for z, want in (((half, 1), (-half, 1)), ((Fraction(3), Fraction(1, 2)), (0, 2)),
                    ((Fraction(7, 25), Fraction(24, 25)), (-Fraction(7, 25), Fraction(24, 25))),
                    ((Fraction(7, 2), 2), (-half, 2))):
        assert reduce_modulus(z) == want

