"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (with its runtime) straight to the
terminal, independent of pytest's capture, and enforces its time budget.
"""

import time
from contextlib import contextmanager
from functools import reduce

import numpy as np
import pytest

from conftest import (beta_explicit, commutes_with_i_omega, cor_matrix_by_columns,
                      in_span, jprod_matrix, ops_echelon, q_matrix, rand_q_isometry,
                      rand_rational, rand_spin, rand_splitting, rand_unimodular,
                      splitting_cor, standard_splitting, weak_pair_sample,
                      well_becoming_sample)
from torusmirror import exactlin as xl
from torusmirror.clifford import (IsotropicSplitting, SpinVec, beta_iso, beta_parity,
                                  is_spin, popcount, r_of_z)
from torusmirror.corresp import (c1_poincare, pc_exp,
                                 phi_poincare, push_forward_correspondence,
                                 reverse_correspondence, verify_cor_diagram,
                                 xi_from_mirror)
from torusmirror.errors import NotInvertible, TransversalityNotFound
from torusmirror.lefschetz import (chi_form, generate_g_ns, grading_operator,
                                   lefschetz_e, lefschetz_f,
                                   so_lambda_spinor_image)
from torusmirror.mirror import elliptic_factors, elliptic_mirror, g_mirror, verify_mirror
from torusmirror.pairspace import classify_pair, conjugate_pair, i_omega, recover_omega
from torusmirror.siegel import (siegel_act, stabilizer_check, translation_element,
                                u_membership)
from torusmirror.torus import dual_torus, hom_space, make_torus, ns_basis


@pytest.fixture
def report(capfd):
    def _print(line):
        with capfd.disabled():
            print(line, flush=True)
    return _print


@contextmanager
def criterion(report, num, name, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        report(f"ACCEPTANCE {num:02d} {name}: FAIL ({time.monotonic() - t0:.1f}s)")
        raise
    dt = time.monotonic() - t0
    within = budget is None or dt < budget
    status = "PASS" if within else f"FAIL (over {budget:.0f}s budget)"
    report(f"ACCEPTANCE {num:02d} {name}: {status} ({dt:.1f}s)")
    assert within


def test_01_clifford_generators_span_full_matrix_algebra(report):
    with criterion(report, 1, "full matrix algebra from cor generators", 10.0):
        for n in (1, 2):
            d = 2 * n
            size = 1 << d
            e = xl.eye(2 * d)
            gens = [cor_matrix_by_columns(n, e[:, k]) for k in range(2 * d)]
            # an explicit certificate: every matrix unit E_{S,T} is, up to
            # sign, a word in the generators
            full_contract = reduce(xl.mul, gens[:d])
            full_wedge = reduce(xl.mul, gens[d:])
            vac_proj = xl.mul(full_contract, full_wedge)
            units = 0
            for s in range(size):
                w_s = reduce(xl.mul, [gens[d + i] for i in range(d) if s & (1 << i)],
                             xl.eye(size))
                left = xl.mul(w_s, vac_proj)
                for t in range(size):
                    c_t = reduce(xl.mul, [gens[i] for i in range(d) if t & (1 << i)],
                                 xl.eye(size))
                    u = xl.mul(left, c_t)
                    nz = [(i, j) for i in range(size) for j in range(size)
                          if u[i, j] != 0]
                    assert nz == [(s, t)] and u[s, t] in (1, -1)
                    units += 1
            assert units == 1 << (4 * n)


def test_02_spin_twisted_conjugation_homomorphism(report, rng):
    with criterion(report, 2, "spin double cover on samples", 10.0):
        for n in (1, 2):
            size = 1 << (2 * n)
            for c in (1, -1, 2, -2, 3):
                assert is_spin(c * xl.eye(size)) == (abs(c) == 1)
            assert xl.mat_eq(r_of_z(xl.eye(size)), xl.eye(4 * n))
            assert xl.mat_eq(r_of_z(-xl.eye(size)), xl.eye(4 * n))
            for _ in range(25):
                z1 = rand_spin(rng, n)
                z2 = rand_spin(rng, n)
                assert is_spin(z1) and is_spin(z2)
                r1 = r_of_z(z1)
                assert xl.mat_eq(r1, r_of_z(-z1))
                assert xl.mat_eq(r_of_z(xl.mul(z1, z2)),
                                 xl.mul(r1, r_of_z(z2)))


def _intertwining_dimension(s1, s2, lambdas):
    """Q-dimension of {X : X cor_{s1}(l) = cor_{s2}(l) X for l in lambdas}.

    One sparse equation per entry of each commutation relation, over the
    4^{2n} entries of X, so this is practical only for n <= 2.
    """
    size = 1 << (2 * s1.n)
    ech = xl.Echelon()
    for lam in lambdas:
        a_cols = [[(m, v) for m, v in enumerate(col) if v]
                  for col in zip(*splitting_cor(s1, lam).rows)]
        b_rows = [[(m, v) for m, v in enumerate(row) if v]
                  for row in splitting_cor(s2, lam).rows]
        for i in range(size):
            for j in range(size):
                row = {}
                # (X a)[i, j] - (b X)[i, j]
                for m, v in a_cols[j]:
                    row[i * size + m] = row.get(i * size + m, 0) + v
                for m, v in b_rows[i]:
                    row[m * size + j] = row.get(m * size + j, 0) - v
                ech.add({c: v for c, v in row.items() if v != 0})
    return size * size - len(ech.int_rows)


def intertwiner_space_dimension(s1, s2):
    """Q-dimension of the intertwiner space Hom_Cl(I_{s1}, I_{s2}), solved for
    directly on all 4n generators of Lambda (n <= 2); Schur's lemma makes it 1."""
    return _intertwining_dimension(s1, s2, xl.eye(4 * s1.n).rows)


def test_03_intertwiner_uniqueness_and_parity(report, rng):
    with criterion(report, 3, "intertwiner dimension one and parity", 60.0):
        done = 0
        for n in (1, 2):
            for k in range(25):
                s1 = standard_splitting(n) if k % 2 == 0 else rand_splitting(rng, n)
                s2 = rand_splitting(rng, n)
                assert intertwiner_space_dimension(s1, s2) == 1
                beta = beta_iso(s1, s2)
                stacked = np.concatenate([s1.basis1.T, s2.basis1.T], axis=0)
                inter_dim = 4 * n - xl.rank(stacked)
                expected = "Even" if inter_dim % 2 == 0 else "Odd"
                assert beta_parity(beta, s1, s2) == expected
                done += 1
            # negative control: the wedge half of Lambda alone does not pin
            # the intertwiner down
            e = xl.eye(4 * n)
            wedges = [e[:, 2 * n + i] for i in range(2 * n)]
            assert _intertwining_dimension(s1, s2, wedges) > 1
        assert done == 50


def test_04_poincare_correspondence_transform(report):
    with criterion(report, 4, "Poincare kernel transform and inverse sign", 30.0):
        for n in (1, 2, 3):
            e = pc_exp(c1_poincare(n))
            for s in range(1 << (2 * n)):
                v = SpinVec(n, {s: 1})
                fwd = push_forward_correspondence(e, v)
                assert fwd == phi_poincare(n, v)
                back = reverse_correspondence(e, fwd)
                assert back.coeffs == {s: (-1) ** ((n + popcount(s)) % 2)}


def test_05_generator_action_diagram(report):
    with criterion(report, 5, "mirror kernel generator diagram"):
        for n in (1, 2, 3):
            assert verify_cor_diagram(n)


def test_06_i_omega_algebraic_identities(report, rng):
    with criterion(report, 6, "I_omega structure on 200 weak pairs", 60.0):
        counts = {1: 80, 2: 70, 3: 50}
        for n, reps in counts.items():
            q = q_matrix(n)
            for _ in range(reps):
                p = weak_pair_sample(rng, n)
                iw = i_omega(p)
                assert xl.mat_eq(xl.mul(iw, iw), -xl.eye(4 * n))
                assert xl.mat_eq(xl.mul(iw.T, xl.mul(q, iw)), q)
                assert xl.det(iw) == 1
                jp = jprod_matrix(p.torus)
                assert xl.mat_eq(xl.mul(iw, jp), xl.mul(jp, iw))
                assert xl.mat_eq(i_omega(conjugate_pair(p)), -iw)
                assert recover_omega(p.torus, iw) == p


def test_07_classification_matches_polarization_sign(report, rng):
    with criterion(report, 7, "classification via definiteness on 200 pairs"):
        counts = {1: 80, 2: 70, 3: 50}
        for n, reps in counts.items():
            for _ in range(reps):
                p = weak_pair_sample(rng, n)
                b = -xl.mul(p.torus.J.T, p.phi2)
                assert xl.mat_eq(b, b.T)
                if xl.definiteness(b) == 1:
                    expected = "AlgebraicPlus"
                elif xl.definiteness(-b) == 1:
                    expected = "AlgebraicMinus"
                else:
                    expected = "WeakOnly"
                assert classify_pair(p) == expected


def test_08_mirror_construction_end_to_end(report, rng):
    with criterion(report, 8, "mirror pipeline on 100 pairs", 300.0):
        counts = {1: 50, 2: 40, 3: 10}
        for n, reps in counts.items():
            std = standard_splitting(n)
            for _ in range(reps):
                p, w = well_becoming_sample(rng, n)
                pB, cert = g_mirror(p, w)
                verify_mirror(p, pB, cert.alpha)
                assert classify_pair(pB) == classify_pair(p)
                alpha_inv = xl.to_int(xl.invert(cert.alpha))
                s_pre = IsotropicSplitting(
                    n, [alpha_inv[:, i] for i in range(2 * n)],
                    [alpha_inv[:, 2 * n + i] for i in range(2 * n)])
                beta = beta_iso(std, s_pre)
                e = xl.eye(4 * n)
                for k in range(4 * n):
                    lam = e[:, k]
                    assert xl.mat_eq(xl.mul(beta, splitting_cor(std, lam)),
                                     xl.mul(splitting_cor(s_pre, lam), beta))
                expected = "Odd" if n % 2 else "Even"
                assert beta_parity(beta, std, s_pre) == expected


def test_09_elliptic_product_mirrors(report, rng):
    with criterion(report, 9, "elliptic product mirrors on 25 samples"):
        successes = 0
        for k in range(25):
            n = 1 + k % 3
            deltas = [1]
            for _ in range(n - 1):
                deltas.append(deltas[-1] * rng.randint(1, 3))
            delta = xl.zeros(n)
            for i in range(n):
                delta[i, i] = deltas[i]
            z = xl.zeros(n)
            j0 = np.block([[z, xl.eye(n)], [-xl.eye(n), z]])
            phi0 = np.block([[z, delta], [-delta, z]])
            t = rand_unimodular(rng, 2 * n)
            t_inv = xl.to_int(xl.invert(t))
            A = make_torus(n, xl.mul(t_inv, xl.mul(j0, t)))
            phi = xl.mul(t.T, xl.mul(phi0, t))
            tau = (rand_rational(rng), rand_rational(rng, nonzero=True))
            try:
                pA, pB, cert = elliptic_mirror(A, tau, phi)
            except TransversalityNotFound:
                continue
            successes += 1
            verify_mirror(pA, pB, cert.alpha)
            nf_deltas = xl.skew_normal_form(phi).deltas
            factors, isogenies = elliptic_factors(pB, nf_deltas)
            assert len(factors) == n
            for i in range(n):
                for j in range(n):
                    homs = hom_space(factors[i], factors[j])
                    assert any(xl.det(f) != 0 for f in homs)
        assert successes >= 1


def test_10_mirror_kernel_equals_beta(report):
    with criterion(report, 10, "kernel transform equals beta matrix", 10.0):
        for n in (1, 2, 3):
            xi = xi_from_mirror(n)
            size = 1 << (2 * n)
            m = xl.zeros(size)
            for s in range(size):
                img = push_forward_correspondence(xi, SpinVec(n, {s: 1}))
                for t, c in img.coeffs.items():
                    m[t, s] = c
            assert xl.mat_eq(m, beta_explicit(n))


def test_11_neron_severi_lie_algebra(report):
    with criterion(report, 11, "Neron-Severi Lie algebra structure", 120.0):
        A1 = make_torus(1, xl.mat([[0, -1], [1, 0]]))
        kappa = ns_basis(A1)[0]
        e = lefschetz_e(kappa).mat
        f = lefschetz_f(kappa).mat
        h = grading_operator(1).mat
        assert xl.mat_eq(xl.mul(e, f) - xl.mul(f, e), h)
        assert xl.mat_eq(xl.mul(h, e) - xl.mul(e, h), 2 * e)
        assert xl.mat_eq(xl.mul(h, f) - xl.mul(f, h), -2 * f)
        basis1 = generate_g_ns(A1, ns_basis(A1))
        assert basis1.dim == 3
        z = xl.zeros(2)
        A2 = make_torus(2, np.block([[z, xl.eye(2)], [-xl.eye(2), z]]))
        for A in (A1, A2):
            g_ns = generate_g_ns(A, ns_basis(A))
            so = ops_echelon(so_lambda_spinor_image(A).ops)
            x = chi_form(A.n)
            for op in g_ns.ops:
                assert in_span(so, op.mat)
                assert xl.is_zero(xl.mul(op.mat.T, x) + xl.mul(x, op.mat))


def test_12_group_action_on_period_domain(report, rng):
    with criterion(report, 12, "group action, translations, stabilizers"):
        # group-action identity on 100 triples with definite pairs
        done = 0
        while done < 100:
            n = 1 + done % 2
            p = weak_pair_sample(rng, n)
            if classify_pair(p) == "WeakOnly":
                continue
            g1 = rand_q_isometry(rng, n)
            g2 = rand_q_isometry(rng, n)
            omega = (p.phi1, p.phi2)
            try:
                lhs = siegel_act(xl.mul(g1, g2), omega)
                rhs = siegel_act(g1, siegel_act(g2, omega))
            except NotInvertible:
                continue
            assert xl.mat_eq(lhs[0], rhs[0]) and xl.mat_eq(lhs[1], rhs[1])
            done += 1
        # translations shift the real part and sit in the integral group
        for _ in range(20):
            p = weak_pair_sample(rng, 1)
            eta = 2 * ns_basis(p.torus)[0].c
            g = translation_element(eta, 1)
            assert u_membership(g, p.torus)
            phi1, phi2 = siegel_act(g, (p.phi1, p.phi2))
            assert xl.mat_eq(phi1, p.phi1 + eta) and xl.mat_eq(phi2, p.phi2)
            assert stabilizer_check(g, p) == commutes_with_i_omega(g, p)
            assert not stabilizer_check(g, p)
        # fixing omega is the same as commuting with I_omega
        for k in range(50):
            n = 1 + k % 2
            p = weak_pair_sample(rng, n)
            g = _rand_u_element(rng, p.torus)
            assert u_membership(g, p.torus)
            assert stabilizer_check(g, p) == commutes_with_i_omega(g, p)


def _rand_u_element(rng, A):
    """A word in integral symmetries of (Lambda, Q, Jprod): translations by
    invariant integral forms on the torus and on its dual."""
    n = A.n
    lower = [v.c for v in ns_basis(A)]
    upper = [v.c for v in ns_basis(dual_torus(A))]
    g = xl.eye(4 * n)
    for _ in range(3):
        step = xl.eye(4 * n)
        if rng.randrange(2) and lower:
            step[2 * n:, :2 * n] = rng.randint(-2, 2) * rng.choice(lower)
        elif upper:
            step[:2 * n, 2 * n:] = rng.randint(-2, 2) * rng.choice(upper)
        g = xl.mul(g, step)
    return g
