import numpy as np
import pytest

from conftest import (rand_spin, rand_splitting, rand_unit_pairing_vector,
                      rand_unimodular)
from torusmirror import exactlin as xl
from torusmirror.clifford import (IsotropicSplitting, SpinVec, beta_iso,
                                  beta_parity, clifford_involution,
                                  cor_action, cor_matrix, is_spin, q_value,
                                  r_of_z, standard_splitting)
from torusmirror.errors import NotEven, NotIsotropic, NotSpin
from torusmirror.pairspace import q_form


def rand_lambda_vec(rng, n):
    return np.array([rng.randint(-3, 3) for _ in range(4 * n)], dtype=object)


def test_clifford_relation(rng):
    for n in (1, 2):
        for _ in range(10):
            u = rand_lambda_vec(rng, n)
            v = rand_lambda_vec(rng, n)
            cu, cv = cor_matrix(n, u), cor_matrix(n, v)
            anti = xl.mul(cu, cv) + xl.mul(cv, cu)
            assert xl.mat_eq(anti, q_value(u, v) * xl.eye(1 << (2 * n)))


def test_involution_fixes_generators_and_antimultiplies(rng):
    n = 2
    u = rand_lambda_vec(rng, n)
    v = rand_lambda_vec(rng, n)
    cu, cv = cor_matrix(n, u), cor_matrix(n, v)
    assert xl.mat_eq(clifford_involution(cu), cu)
    assert xl.mat_eq(clifford_involution(xl.mul(cu, cv)), xl.mul(cv, cu))
    assert xl.mat_eq(clifford_involution(clifford_involution(xl.mul(cu, cv))),
                     xl.mul(cu, cv))


def test_scalars_in_spin():
    size = 4
    assert is_spin(xl.eye(size))
    assert is_spin(-xl.eye(size))
    assert not is_spin(2 * xl.eye(size))


def test_odd_operator_rejected():
    n = 1
    v = np.array([1, 0, 0, 0], dtype=object)
    with pytest.raises(NotEven):
        is_spin(cor_matrix(n, v))


def test_monomial_orders_wedge_factors_left_to_right():
    assert SpinVec.monomial(1, [1, 2]) == SpinVec(1, {0b11: 1})
    assert SpinVec.monomial(1, [2, 1]) == SpinVec(1, {0b11: -1})


def test_r_of_z_requires_spin():
    with pytest.raises(NotSpin):
        r_of_z(2 * xl.eye(4))


def _conjugation_oracle(n, z):
    """Solve z cor(e_k) z^{-1} = sum_i R[i,k] cor(e_i) by dense linear algebra."""
    e = xl.eye(4 * n)
    gens = [cor_matrix(n, e[:, k]) for k in range(4 * n)]
    cols = np.stack([g.reshape(-1) for g in gens], axis=1)
    z_inv = xl.invert(z)
    r = xl.zeros(4 * n)
    for k in range(4 * n):
        target = xl.mul(z, xl.mul(gens[k], z_inv)).reshape(-1)
        r[:, k] = _lstsq_exact(cols, target)
    return r


def _lstsq_exact(cols, target):
    """Exact solution of cols @ x = target (consistent overdetermined system)."""
    m, k = cols.shape
    rows = []
    rhs = []
    for i in range(m):
        if any(cols[i, j] != 0 for j in range(k)) or target[i] != 0:
            rows.append(cols[i])
            rhs.append(target[i])
    a = np.array(rows, dtype=object)
    # pick k independent rows by elimination
    from fractions import Fraction
    aug = np.concatenate([a, np.array(rhs, dtype=object).reshape(-1, 1)], axis=1)
    work = [[Fraction(x) for x in row] for row in aug]
    piv_rows = []
    col = 0
    r = 0
    nrows = len(work)
    while col < k and r < nrows:
        piv = next((i for i in range(r, nrows) if work[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][col]
        work[r] = [x / lead for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        piv_rows.append(col)
        r += 1
        col += 1
    sol = np.zeros(k, dtype=object) + 0
    for row_idx, c in enumerate(piv_rows):
        sol[c] = work[row_idx][k]
    # consistency: remaining rows must be zero
    for i in range(r, nrows):
        assert all(x == 0 for x in work[i])
    return sol


def test_hyperbolic_pair_product_matches_conjugation_oracle(rng):
    n = 1
    v = rand_unit_pairing_vector(rng, n, 1)
    w = rand_unit_pairing_vector(rng, n, 1)
    z = xl.mul(cor_matrix(n, v), cor_matrix(n, w))
    assert is_spin(z)
    r = r_of_z(z)
    oracle = _conjugation_oracle(n, z)
    assert xl.mat_eq(r, xl.to_int(oracle))
    q = q_form(n)
    assert xl.mat_eq(xl.mul(r.T, xl.mul(q, r)), q)
    assert xl.det(r) == 1


@pytest.mark.parametrize("n", [1, 3])
def test_spin_sampling_homomorphism(rng, n):
    z1 = rand_spin(rng, n)
    z2 = rand_spin(rng, n)
    assert is_spin(z1) and is_spin(z2)
    assert xl.mat_eq(r_of_z(z1), r_of_z(-z1))
    assert xl.mat_eq(r_of_z(xl.mul(z1, z2)), xl.mul(r_of_z(z1), r_of_z(z2)))


def test_splitting_rejects_bad_bases():
    e = xl.eye(4)
    with pytest.raises(NotIsotropic):
        # e1 and its Q-partner e3 span a non-isotropic half
        IsotropicSplitting(1, [e[:, 0], e[:, 2]], [e[:, 1], e[:, 3]])
    with pytest.raises(NotIsotropic):
        IsotropicSplitting(1, [e[:, 0], 2 * e[:, 1]], [e[:, 2], e[:, 3]])


def test_beta_identity_on_same_splitting():
    s = standard_splitting(1)
    assert xl.mat_eq(beta_iso(s, s), xl.eye(4))


def test_beta_full_swap_and_half_swap_parity():
    n = 1
    e = xl.eye(4)
    std = standard_splitting(n)
    full_swap = IsotropicSplitting(n, [e[:, 2], e[:, 3]], [e[:, 0], e[:, 1]])
    half_swap = IsotropicSplitting(n, [e[:, 2], e[:, 1]], [e[:, 0], e[:, 3]])
    b_full = beta_iso(std, full_swap)
    b_half = beta_iso(std, half_swap)
    assert beta_parity(b_full, std, full_swap) == "Even"
    assert beta_parity(b_half, std, half_swap) == "Odd"


@pytest.mark.parametrize("n", [2, 3])
def test_beta_intertwines_on_random_pairs(rng, n):
    s1 = rand_splitting(rng, n)
    s2 = rand_splitting(rng, n)
    beta = beta_iso(s1, s2)
    e = xl.eye(4 * n)
    for k in range(4 * n):
        lam = e[:, k]
        assert xl.mat_eq(xl.mul(beta, s1.cor(lam)), xl.mul(s2.cor(lam), beta))


def test_cor_action_matches_matrix(rng):
    n = 2
    v = rand_lambda_vec(rng, n)
    m = cor_matrix(n, v)
    for mask in (0, 1, 5, 10):
        direct = cor_action(v, SpinVec(n, {mask: 1}))
        via_matrix = SpinVec.from_vector(n, xl.mul(m, SpinVec(n, {mask: 1}).to_vector().reshape(-1, 1))[:, 0])
        assert direct == via_matrix
