"""Matrices may cross into the library as nested lists, numpy arrays or
exactlin.Matrix values; every form gives the same results, held as python
ints and Fractions.  numpy is used here only to build inputs."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_spin, rand_splitting, well_becoming_sample
from torusmirror import exactlin as xl
from torusmirror.clifford import IsotropicSplitting, beta_iso, r_of_z
from torusmirror.mirror import WellBecomingWitness, g_mirror
from torusmirror.pairspace import i_omega, make_weak_pair
from torusmirror.torus import make_torus

FORMS = {
    "lists": lambda m: xl.asmat(m).tolist(),
    "numpy-object": lambda m: np.array(xl.asmat(m).tolist(), dtype=object),
    "matrix": xl.mat,
}
# integer inputs may also come as fixed-width numpy integers
INT_FORMS = dict(FORMS, **{"numpy-int64": lambda m: np.array(xl.asmat(m).tolist(),
                                                              dtype=np.int64)})


def exact(m):
    return all(type(x) in (int, Fraction) for row in xl.asmat(m).rows for x in row)


@pytest.mark.parametrize("form", list(FORMS))
def test_pair_functions_accept_every_form(rng, form):
    to = FORMS[form]
    p, w = well_becoming_sample(rng, 2)
    A = make_torus(2, to(p.torus.J))
    assert A == p.torus and exact(A.J)
    q = make_weak_pair(A, to(p.phi1), to(p.phi2))
    assert q == p
    iw = i_omega(q)
    assert xl.mat_eq(iw, i_omega(p)) and exact(iw)
    pB, cert = g_mirror(q, WellBecomingWitness(to(w.gamma1.T), to(w.gamma2.T)))
    pB_ref, cert_ref = g_mirror(p, w)
    assert pB == pB_ref and xl.mat_eq(cert.alpha, cert_ref.alpha) and exact(cert.alpha)


@pytest.mark.parametrize("form", list(INT_FORMS))
def test_spinor_functions_accept_every_form(rng, form):
    to = INT_FORMS[form]
    n = 2
    s1, s2 = rand_splitting(rng, n), rand_splitting(rng, n)
    t1 = IsotropicSplitting(n, to(s1.basis1.T), to(s1.basis2.T))
    t2 = IsotropicSplitting(n, to(s2.basis1.T), to(s2.basis2.T))
    beta = beta_iso(t1, t2)
    assert xl.mat_eq(beta, beta_iso(s1, s2)) and exact(beta)
    z = rand_spin(rng, n)
    r = r_of_z(to(z))
    assert xl.mat_eq(r, r_of_z(z)) and exact(r)


def test_fixed_width_entries_become_python_ints():
    # 2^40 * 2^40 wraps around in int64 arithmetic
    a = np.array([[2 ** 40, 1], [0, 1]], dtype=np.int64)
    assert xl.mul(a, a)[0, 0] == 2 ** 80
    assert all(type(x) is int for row in xl.mat(a).rows for x in row)


def test_numpy_operators_defer_to_matrix():
    a = np.array([[1, 2], [3, 4]], dtype=object)
    s = a + xl.eye(2)
    assert type(s) is xl.Matrix and xl.mat_eq(s, [[2, 2], [3, 5]])
    assert (a == xl.mat(a)) is True
    assert xl.mat_eq(np.block([[xl.zeros(1, 2)], [a]]), [[0, 0], [1, 2], [3, 4]])
