from fractions import Fraction

import numpy as np
import pytest

from conftest import (beta_explicit, beta_iso_by_kernel, contract_apply, cor_action,
                      cor_matrix_by_columns, fraction_echelon, half_swap, has_grade_by_entries,
                      is_isotropic_by_gram, merge_sign_by_bits, pure_spinor_by_fractions,
                      q_matrix, q_value, rand_q_isometry, rand_spin, rand_splitting,
                      rand_unit_pairing_vector, rand_unimodular, splitting_by_blocks,
                      splitting_coords, splitting_cor, standard_splitting, vacuum_kernel,
                      wedge_apply)
from torusmirror import clifford as cl
from torusmirror import exactlin as xl
from torusmirror.clifford import (IsotropicSplitting, SpinVec, _complement_signs, _cor_apply,
                                  _generator_maps, _has_grade,
                                  _involution_form, _meet_dim, _sign_normalize, _signed,
                                  _source_terms, _transport, beta_iso, beta_parity,
                                  clifford_involution, is_spin, popcount,
                                  pure_spinor, r_of_z, spin_lift)
from torusmirror.errors import (FormMismatch, MixedParity, NoIntertwiner, NotEven, NotIsotropic,
                               NotSpin)
from torusmirror.pairspace import is_isotropic, q_gram


def rand_lambda_vec(rng, n):
    return np.array([rng.randint(-3, 3) for _ in range(4 * n)], dtype=object)


def test_clifford_relation(rng):
    for n in (1, 2):
        for _ in range(10):
            u = rand_lambda_vec(rng, n)
            v = rand_lambda_vec(rng, n)
            cu, cv = cor_matrix_by_columns(n, u), cor_matrix_by_columns(n, v)
            anti = xl.mul(cu, cv) + xl.mul(cv, cu)
            assert xl.mat_eq(anti, q_value(u, v) * xl.eye(1 << (2 * n)))


def test_involution_fixes_generators_and_antimultiplies(rng):
    n = 2
    u = rand_lambda_vec(rng, n)
    v = rand_lambda_vec(rng, n)
    cu, cv = cor_matrix_by_columns(n, u), cor_matrix_by_columns(n, v)
    assert xl.mat_eq(clifford_involution(cu), cu)
    assert xl.mat_eq(clifford_involution(xl.mul(cu, cv)), xl.mul(cv, cu))
    assert xl.mat_eq(clifford_involution(clifford_involution(xl.mul(cu, cv))),
                     xl.mul(cu, cv))


@pytest.mark.parametrize("n", [0, 1])
def test_scalars_in_spin(n):
    # at n = 0 there is no generator: only the norm check rejects 2
    size = 1 << (2 * n)
    assert is_spin(xl.eye(size))
    assert is_spin(-xl.eye(size))
    assert not is_spin(2 * xl.eye(size))
    assert xl.mat_eq(r_of_z(-xl.eye(size)), xl.eye(4 * n))


def test_odd_operator_rejected():
    n = 1
    v = np.array([1, 0, 0, 0], dtype=object)
    with pytest.raises(NotEven):
        is_spin(cor_matrix_by_columns(n, v))
    # a matrix that is not 4^n x 4^n is no Clifford element, even or odd
    for z in (xl.zeros(4, 3), xl.mat([[1] * 8] * 8)):
        for check in (is_spin, r_of_z):
            with pytest.raises(ValueError, match="4\\^n x 4\\^n"):
                check(z)


def test_monomial_orders_wedge_factors_left_to_right():
    assert SpinVec.monomial(1, [1, 2]) == SpinVec(1, {0b11: 1})
    assert SpinVec.monomial(1, [2, 1]) == SpinVec(1, {0b11: -1})


def test_r_of_z_requires_spin():
    with pytest.raises(NotSpin):
        r_of_z(2 * xl.eye(4))


def test_spinvec_sum_rejects_vectors_of_different_sizes():
    with pytest.raises(ValueError, match="n = 1 and n = 2"):
        SpinVec(1, {1: 1}) + SpinVec(2, {8: 1})


def test_spinvec_rejects_masks_outside_its_n():
    with pytest.raises(ValueError, match="^mask 8 does not fit n = 1: masks lie in 0..3$"):
        SpinVec(1, {8: 1})
    with pytest.raises(ValueError, match="^mask -1 does not fit n = 1"):
        SpinVec(1, {0: 2, -1: 1})
    assert SpinVec(1, {3: 1, 0: 0}).coeffs == {3: 1} and SpinVec(0, {0: 5}).coeffs == {0: 5}


def _conjugation_oracle(n, z):
    """Solve z cor(e_k) z^{-1} = sum_i R[i,k] cor(e_i) by dense linear algebra."""
    e = xl.eye(4 * n)
    gens = [cor_matrix_by_columns(n, e[:, k]) for k in range(4 * n)]
    cols = np.stack([np.asarray(g).reshape(-1) for g in gens], axis=1)
    z_inv = xl.invert(z)
    r = xl.zeros(4 * n)
    for k in range(4 * n):
        target = np.asarray(xl.mul(z, xl.mul(gens[k], z_inv))).reshape(-1)
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
    z = xl.mul(cor_matrix_by_columns(n, v), cor_matrix_by_columns(n, w))
    assert is_spin(z)
    r = r_of_z(z)
    oracle = _conjugation_oracle(n, z)
    assert xl.mat_eq(r, xl.to_int(oracle))
    q = q_matrix(n)
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
        IsotropicSplitting(1, [e[:, 0], [2 * x for x in e[:, 1]]], [e[:, 2], e[:, 3]])


@pytest.mark.parametrize("n", [1, 2])
def test_splitting_names_a_misshapen_basis_as_a_value_error(n):
    # a wrong number of vectors or a vector of the wrong length is a shape
    # error, not a failure of isotropy
    d = 2 * n
    e = xl.eye(4 * n)
    cols = [e[:, i] for i in range(4 * n)]
    cases = [(cols[:d - 1], cols[d:], f"{d - 1} and {d} of lengths \\[{2 * d}\\]"),
             (cols[:d], cols[d:] + [cols[0]], f"{d} and {d + 1} of lengths \\[{2 * d}\\]"),
             ([cols[0][:-1]] + cols[1:d], cols[d:],
              f"{d} and {d} of lengths \\[{2 * d - 1}, {2 * d}\\]")]
    for basis1, basis2, shapes in cases:
        with pytest.raises(ValueError, match=f"^splitting bases for n = {n} must be {d} "
                                             f"vectors of length {2 * d}, not {shapes}$"):
            IsotropicSplitting(n, basis1, basis2)


def test_splitting_names_a_non_basis_without_its_determinant():
    z = "^basis1 \\+ basis2 is not a Z-basis of Lambda$"
    e = xl.eye(4)
    cols = [e[:, i] for i in range(4)]
    # integral, neither half isotropic, det 2
    with pytest.raises(NotIsotropic, match=z):
        IsotropicSplitting(1, [cols[0], cols[2]], [cols[1], [2 * x for x in cols[3]]])
    # a unimodular basis with a half that is not isotropic keeps its own message
    with pytest.raises(NotIsotropic, match="^Q does not vanish on a splitting half$"):
        IsotropicSplitting(1, [cols[0], cols[2]], [cols[1], cols[3]])
    # the same two for an isotropic basis1 and a basis2 that is not:
    # Q(l_2 + k x_2, l_2 + k x_2) = 2k, unimodular for k = 1, det 2 for k = 2
    for k, message in ((1, "^Q does not vanish on a splitting half$"), (2, z)):
        with pytest.raises(NotIsotropic, match=message):
            IsotropicSplitting(1, [cols[0], cols[1]],
                               [cols[2], [x + k * y for x, y in zip(cols[1], cols[3])]])
    # isotropic halves whose pairing has det 2, and a singular pairing
    with pytest.raises(NotIsotropic, match=z):
        IsotropicSplitting(1, [cols[0], cols[1]], [cols[2], [2 * x for x in cols[3]]])
    with pytest.raises(NotIsotropic, match=z):
        IsotropicSplitting(1, [cols[0], cols[1]], [cols[2], cols[2]])
    with pytest.raises(NotIsotropic, match=z):
        IsotropicSplitting(1, [cols[0], cols[1]], [cols[2], [Fraction(1, 2) * x for x in cols[3]]])


@pytest.mark.parametrize("n", [1, 2])
def test_a_vector_of_nonzero_norm_is_not_isotropic(n):
    # u = e_1 + e_{2n+1} pairs to 0 with every other vector given, but Q(u, u) = 2
    d = 2 * n
    e = xl.eye(4 * n)
    cols = [e[:, i] for i in range(4 * n)]
    u = [x + y for x, y in zip(cols[0], cols[d])]
    message = "^Q does not vanish on a splitting half$"
    with pytest.raises(NotIsotropic, match=message):
        IsotropicSplitting(n, [u] + cols[1:d], cols[d:])
    with pytest.raises(NotIsotropic, match=message):
        IsotropicSplitting(n, cols[d:], [u] + cols[1:d])
    with pytest.raises(NotIsotropic):
        pure_spinor(n, [u] + cols[1:d])


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


def test_beta_parity_names_an_operator_of_mixed_parity():
    n = 1
    e = xl.eye(4)
    std = standard_splitting(n)
    full_swap = IsotropicSplitting(n, [e[:, 2], e[:, 3]], [e[:, 0], e[:, 1]])
    half_swap = IsotropicSplitting(n, [e[:, 2], e[:, 1]], [e[:, 0], e[:, 3]])
    with pytest.raises(MixedParity, match="^intertwiner is not graded$"):
        beta_parity(xl.zeros(4), std, std)
    mixed = xl.eye(4)
    mixed[0, 1] = 1
    with pytest.raises(MixedParity, match="^intertwiner is not graded$"):
        beta_parity(mixed, std, std)
    # an even intertwiner, against first halves that meet in dimension 1
    with pytest.raises(MixedParity, match="^grading parity disagrees with the intersection rank$"):
        beta_parity(beta_iso(std, full_swap), std, half_swap)


def test_beta_parity_rejects_splittings_of_different_sizes():
    with pytest.raises(ValueError, match="n = 1 and n = 2"):
        beta_parity(xl.eye(4), standard_splitting(1), standard_splitting(2))


def test_beta_parity_rejects_an_operator_of_another_size():
    s = standard_splitting(1)
    with pytest.raises(ValueError, match="4x4, not 16x16"):
        beta_parity(xl.eye(16), s, s)


@pytest.mark.parametrize("n", [2, 3])
def test_beta_intertwines_on_random_pairs(rng, n):
    s1 = rand_splitting(rng, n)
    s2 = rand_splitting(rng, n)
    beta = beta_iso(s1, s2)
    e = xl.eye(4 * n)
    for k in range(4 * n):
        lam = e[:, k]
        assert xl.mat_eq(xl.mul(beta, splitting_cor(s1, lam)), xl.mul(splitting_cor(s2, lam), beta))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vacuum_kernel_matches_dense_route(rng, n):
    # the dense route: nullspace of the stacked cor matrices
    s1, s2 = rand_splitting(rng, n), rand_splitting(rng, n)
    annihilators = [s1.basis1[:, i] for i in range(2 * n)]
    stacked = xl.block([[splitting_cor(s2, m)] for m in annihilators])
    dense = fraction_echelon(stacked.rows).kernel(stacked.ncols)
    assert len(dense) == 1
    assert vacuum_kernel(s2, annihilators) == dense


def swapped_splitting(g, n, swap):
    """The splitting of the Q-isometry g with g e_i and g e_{2n+i} exchanged
    between the halves for each i in swap."""
    d = 2 * n
    return IsotropicSplitting(n, [g[:, d + i] if i in swap else g[:, i] for i in range(d)],
                              [g[:, i] if i in swap else g[:, d + i] for i in range(d)])


def splitting_pairs(rng, n):
    """(s1, s2, k) with k = dim(L & W) for L = M1(s1) in the module of s2, or
    None where k is not known beforehand: two seeded random pairs, then for
    each k = 0..2n a partial swap of k pairs, from the standard splitting
    and from a random one."""
    pairs = [(rand_splitting(rng, n), rand_splitting(rng, n), None) for _ in range(2)]
    for k in range(2 * n + 1):
        for g in (xl.eye(4 * n), rand_q_isometry(rng, n)):
            swap = set(rng.sample(range(2 * n), k))
            pairs.append((swapped_splitting(g, n, set()), swapped_splitting(g, n, swap), k))
    return pairs


def _dense(n, phi):
    return [phi.get(m, 0) for m in range(1 << (2 * n))]


def _in_module(s, vectors):
    """The module coordinates of the vectors in the realization of s."""
    return [splitting_coords(s, v) for v in vectors]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pure_spinor_is_the_vacuum_kernel_line(rng, n):
    for s1, s2, k in splitting_pairs(rng, n):
        lagrangian = [s1.basis1[:, i] for i in range(2 * n)]
        phi = pure_spinor(n, _in_module(s2, lagrangian))
        kernel = vacuum_kernel(s2, lagrangian)
        assert len(kernel) == 1 and phi
        assert xl.rank(xl.mat([_dense(n, phi), kernel[0]])) == 1
        # theta_1 ^ ... ^ theta_k is the lowest-degree part
        if k is not None:
            assert min(popcount(m) for m in phi) == k


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pure_spinor_is_killed_by_its_lagrangian(rng, n):
    for s1, s2, _ in splitting_pairs(rng, n):
        lagrangian = [s1.basis1[:, i] for i in range(2 * n)]
        phi = [[x] for x in _dense(n, pure_spinor(n, _in_module(s2, lagrangian)))]
        coeffs = [rng.randint(-2, 2) for _ in lagrangian]
        combo = [sum(c * v[j] for c, v in zip(coeffs, lagrangian)) for j in range(4 * n)]
        for m in lagrangian + [combo]:
            assert xl.is_zero(xl.mul(splitting_cor(s2, m), phi))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_beta_matches_kernel_transport(rng, n):
    parities = set()
    for s1, s2, k in splitting_pairs(rng, n):
        beta = beta_iso(s1, s2)
        assert xl.mat_eq(beta, beta_iso_by_kernel(s1, s2))
        parity = beta_parity(beta, s1, s2)
        if k is not None:
            assert parity == ("Odd" if k % 2 else "Even")
        parities.add(parity)
    assert parities == {"Even", "Odd"}


def _lagrangian(s):
    return [s.basis1[:, i] for i in range(2 * s.n)]


def _has_wide_pivot(s1, s2):
    """Does the elimination in pure_spinor(s2, M1(s1)) leave a contraction
    pivot other than 1, so that B has a coefficient that is not an integer?"""
    ech = xl.Echelon()
    for v in _in_module(s2, _lagrangian(s1)):
        ech.add({j: x for j, x in enumerate(v) if x})
    return any(row[p] != 1 for p, row in ech.int_rows.items() if p < 2 * s1.n)


def wide_pivot_pairs(rng, n, count=3):
    """count seeded random splitting pairs (s1, s2, None) with _has_wide_pivot."""
    pairs = []
    for _ in range(200):
        s1, s2 = rand_splitting(rng, n), rand_splitting(rng, n)
        if _has_wide_pivot(s1, s2):
            pairs.append((s1, s2, None))
            if len(pairs) == count:
                return pairs
    raise AssertionError(f"no {count} splitting pairs with a pivot other than 1 at n = {n}")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pure_spinor_matches_fraction_route(rng, n):
    for s1, s2, _ in splitting_pairs(rng, n) + wide_pivot_pairs(rng, n):
        lagrangian = _in_module(s2, _lagrangian(s1))
        phi = pure_spinor(n, lagrangian)
        assert phi == pure_spinor_by_fractions(n, lagrangian)
        assert all(type(x) is int for x in phi.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_beta_iso_creates_no_fraction(rng, monkeypatch, n):
    pairs = wide_pivot_pairs(rng, n) + splitting_pairs(rng, n)
    refs = [beta_iso_by_kernel(s1, s2) for s1, s2, _ in pairs]

    def no_fraction(*args, **kw):
        raise AssertionError("a Fraction was created")

    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    betas = [beta_iso(s1, s2) for s1, s2, _ in pairs]
    monkeypatch.undo()
    assert all(xl.mat_eq(beta, ref) for beta, ref in zip(betas, refs))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_meet_dim_matches_stacked_rank(rng, n):
    # M1 & M1' from the 2n x 2n pairing, against the rank of the 4n x 4n
    # stack, on random pairs and on swaps of k = 0..2n pairs (full swap at
    # k = 2n, half swap at k = n), which leave 2n - k vectors of M1 in M1'
    parities = set()
    for s1, s2, k in splitting_pairs(rng, n):
        stacked = 4 * n - xl.rank(xl.block([[s1.basis1.T], [s2.basis1.T]]))
        assert _meet_dim(s1, s2) == stacked
        assert k is None or stacked == 2 * n - k
        parities.add(stacked % 2)
    assert parities == {0, 1}


def _mixed(rng, vectors):
    """The vectors replaced by u applied to them, for a random u in GL(Z)
    other than 1: another basis of their span."""
    u = rand_unimodular(rng, len(vectors))
    while xl.mat_eq(u, xl.eye(len(vectors))):
        u = rand_unimodular(rng, len(vectors))
    return [[sum(c * v[j] for c, v in zip(row, vectors)) for j in range(len(vectors[0]))]
            for row in u.rows]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_splitting_dual_basis_fast_path_matches_solve_path(rng, monkeypatch, n):
    # basis2 is replaced by the Q-dual basis of basis1, whichever basis of M2
    # is given; for the dual basis itself the pairing is 1 and nothing is solved
    d = 2 * n
    invert = xl.invert
    calls = []

    def counting_invert(m):
        calls.append(m)
        return invert(m)

    monkeypatch.setattr(xl, "invert", counting_invert)
    for _ in range(3):
        g = rand_q_isometry(rng, n)
        basis1 = [g[:, i] for i in range(d)]
        basis2 = [g[:, d + i] for i in range(d)]
        mixed = _mixed(rng, basis2)
        calls.clear()
        fast = IsotropicSplitting(n, basis1, basis2)
        assert not calls
        solved = IsotropicSplitting(n, basis1, mixed)
        assert len(calls) == 1
        for name in ("basis1", "basis2", "w", "w_inv"):
            assert xl.mat_eq(getattr(fast, name), getattr(solved, name)), name
        assert xl.mat_eq(fast.basis2, g[:, d:])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_beta_is_the_lift_of_the_change_of_splitting(rng, n):
    for _ in range(8):
        s1, s2 = rand_splitting(rng, n), rand_splitting(rng, n)
        assert xl.mat_eq(beta_iso(s1, s2), spin_lift(xl.mul(s2.w_inv, s1.w)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_change_of_splitting_is_an_integral_q_isometry(rng, n):
    # what beta_iso relies on, checked here against Q itself
    q = q_matrix(n)
    std = standard_splitting(n)
    randoms = [rand_splitting(rng, n) for _ in range(4)]
    pairs = [(std, std), (std, randoms[0]), (randoms[1], std), (randoms[2], randoms[3])]
    for s1, s2 in pairs:
        h = xl.mul(s2.w_inv, s1.w)
        assert xl.is_integral(h)
        assert xl.mat_eq(xl.mul(h.T, xl.mul(q, h)), q)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_beta_runs_no_isometry_or_isotropy_test(rng, monkeypatch, n):
    # the splittings have checked what beta needs; spin_lift checks the map
    # it is given once, and pure_spinor the isotropy of its vectors once
    s1, s2 = rand_splitting(rng, n), rand_splitting(rng, n)
    h = xl.mul(s2.w_inv, s1.w)
    lagrangian = [h[:, i] for i in range(2 * n)]
    calls = []
    for name in ("is_q_isometry", "is_isotropic"):
        def counted(*args, _name=name, _real=getattr(cl, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(cl, name, counted)
    for run, want in ((lambda: beta_iso(s1, s2), []),
                      (lambda: spin_lift(h), ["is_q_isometry"]),
                      (lambda: pure_spinor(n, lagrangian), ["is_isotropic"])):
        del calls[:]
        run()
        assert calls == want


def _reflection(n):
    """The Q-isometry that exchanges l_1 and x_1 alone, of determinant -1."""
    g = xl.eye(4 * n)
    g[:, [0, 2 * n]] = g[:, [2 * n, 0]]
    return g


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spin_lift_intertwines_its_isometry(rng, n):
    e = xl.eye(4 * n)
    for g in [rand_q_isometry(rng, n) for _ in range(3)] + [half_swap(n), _reflection(n)]:
        z = spin_lift(g)
        assert xl.is_integral(z) and z.den == 1
        for k in range(4 * n):
            assert xl.mat_eq(xl.mul(z, cor_matrix_by_columns(n, e[:, k])),
                             xl.mul(cor_matrix_by_columns(n, g[:, k]), z))
    # the reflection has determinant -1, and its lift is odd
    odd = spin_lift(_reflection(n)).num
    assert _has_grade(odd, 1) and not _has_grade(odd, 0)


@pytest.mark.parametrize("n", [1, 2])
def test_spin_lift_is_multiplicative_up_to_sign(rng, n):
    for _ in range(10):
        g, h = rand_q_isometry(rng, n), rand_q_isometry(rng, n)
        product = xl.mul(spin_lift(g), spin_lift(h))
        lift = spin_lift(xl.mul(g, h))
        assert xl.mat_eq(product, lift) or xl.mat_eq(product, -lift)


@pytest.mark.parametrize("n", [1, 2])
def test_spin_check_gives_back_the_lifted_isometry(rng, n):
    # a lift is spin exactly when its spinor norm z z' is 1, and then its
    # rotation is g itself, not g^-1; otherwise z z' = -1
    size = 1 << (2 * n)
    accepted, rejected = [], 0
    for _ in range(10):
        g = rand_q_isometry(rng, n)
        z = spin_lift(g)
        if is_spin(z):
            assert xl.mat_eq(r_of_z(z), g)
            accepted.append(g)
        else:
            assert xl.mat_eq(xl.mul(z, clifford_involution(z)), -xl.eye(size))
            rejected += 1
    assert rejected and any(not xl.mat_eq(xl.mul(g, g), xl.eye(4 * n)) for g in accepted)


@pytest.fixture
def spin_checks(monkeypatch):
    """The elements that _spin_conjugation checks from here on, as matrices;
    the one-element cache of the spin check starts empty."""
    seen = []
    conjugation = cl._spin_conjugation

    def counting_conjugation(z):
        seen.append(xl.mat(z))
        return conjugation(z)

    cl._last_spin_conjugation.cache_clear()
    monkeypatch.setattr(cl, "_spin_conjugation", counting_conjugation)
    yield seen
    cl._last_spin_conjugation.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_is_spin_then_r_of_z_run_one_check(rng, spin_checks, n):
    z = rand_spin(rng, n, pairs=1)
    want = cl._spin_conjugation(z)
    del spin_checks[:]
    assert is_spin(z)
    assert xl.mat_eq(r_of_z(z), want)
    assert len(spin_checks) == 1 and xl.mat_eq(spin_checks[0], z)


def test_a_non_spin_element_is_checked_once(spin_checks):
    z = 2 * xl.eye(4)
    assert not is_spin(z)
    with pytest.raises(NotSpin):
        r_of_z(z)
    assert len(spin_checks) == 1


def test_an_element_edited_in_place_is_checked_again(rng, spin_checks):
    z = np.array(rand_spin(rng, 1).rows, dtype=object)
    assert is_spin(z)
    z *= 2
    with pytest.raises(NotSpin):
        r_of_z(z)
    z //= 2
    assert is_spin(z)
    assert len(spin_checks) == 3


def test_writing_into_the_rotation_leaves_the_next_one_unchanged(rng, spin_checks):
    z = rand_spin(rng, 1)
    r = r_of_z(z)
    want = r.copy()
    r[0, 0] = r[0, 0] + 1
    assert xl.mat_eq(r_of_z(z), want) and is_spin(z)
    assert len(spin_checks) == 1


def test_an_element_that_raises_raises_on_every_call(spin_checks):
    odd = cor_matrix_by_columns(1, np.array([1, 0, 0, 0], dtype=object))
    for z, error in ((xl.zeros(4, 3), ValueError), (odd, NotEven)):
        del spin_checks[:]
        for check in (is_spin, r_of_z, is_spin, r_of_z):
            with pytest.raises(error):
                check(z)
        assert len(spin_checks) == 4


def test_equal_entries_share_one_check_whatever_their_type(rng, spin_checks):
    z = rand_spin(rng, 2, pairs=1)
    r = r_of_z(z)
    for same in (z.rows, np.array(z.rows, dtype=object), xl.mat(z.rows)):
        assert is_spin(same) and xl.mat_eq(r_of_z(same), r)
    assert len(spin_checks) == 1


def test_the_spin_check_keeps_one_element(rng, spin_checks):
    z1 = rand_spin(rng, 1)
    z2 = -z1
    for z in (z1, z2, z1, z2):
        assert is_spin(z)
    assert len(spin_checks) == 4


def test_spin_lift_rejects_a_map_that_is_not_an_integral_q_isometry():
    n = 2
    # l_1 -> l_1 / 2 and x_1 -> 2 x_1 keeps Q but is not integral
    rational = xl.eye(4 * n)
    rational[0, 0], rational[2 * n, 2 * n] = Fraction(1, 2), 2
    assert xl.mat_eq(xl.mul(rational.T, xl.mul(q_matrix(n), rational)), q_matrix(n))
    # l_2 -> l_2 + l_1 without the matching x_1 -> x_1 - x_2
    shear = xl.eye(4 * n)
    shear[0, 1] = 1
    cases = [(rational, "^the map of Lambda is not integral$"),
             (shear, "^the map of Lambda does not preserve Q$"),
             (2 * xl.eye(4 * n), "^the map of Lambda does not preserve Q$"),
             (xl.eye(6), r"^a map of Lambda is a 4n x 4n matrix, not \(6, 6\)$"),
             (xl.zeros(8, 4), r"^a map of Lambda is a 4n x 4n matrix, not \(8, 4\)$")]
    for g, message in cases:
        with pytest.raises(FormMismatch, match=message):
            spin_lift(g)
    assert xl.mat_eq(spin_lift(xl.eye(4 * n)), xl.eye(1 << (2 * n)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_explicit_beta_is_the_lift_of_the_half_swap(n):
    sign = -1 if n * (n - 1) // 2 % 2 else 1
    assert xl.mat_eq(spin_lift(half_swap(n)), sign * beta_explicit(n))


def test_beta_makes_no_row_wider_than_the_lattice(rng, monkeypatch):
    n = 4
    s1, s2 = standard_splitting(n), rand_splitting(rng, n)
    add = xl.Echelon.add

    def narrow_add(self, row):
        if any(c >= 4 * n for c in row):
            raise AssertionError("an elimination row wider than 4n")
        return add(self, row)

    monkeypatch.setattr(xl.Echelon, "add", narrow_add)
    beta = beta_iso(s1, s2)
    monkeypatch.undo()
    assert xl.mat_eq(beta, beta_iso_by_kernel(s1, s2))


def test_sign_normalize_reads_the_numerators_in_place(monkeypatch):
    # beta is 4^n x 4^n, so its sign is read from num, not from a copy of its rows
    cases = [(xl.mat([[0, 0], [-1, 2]]), True), (xl.mat([[0, Fraction(1, 2)], [-3, 0]]), False),
             (xl.mat([[Fraction(-1, 3), 1]]), True), (xl.zeros(2), False)]
    monkeypatch.setattr(xl.Matrix, "rows", property(lambda m: pytest.fail("rows was copied")))
    for m, flips in cases:
        out = _sign_normalize(m)
        assert xl.mat_eq(out, -m) if flips else out is m


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pure_spinor_needs_a_lagrangian(n):
    d = 2 * n
    e = xl.eye(4 * n)
    cols = [e[:, i] for i in range(4 * n)]
    cases = [(NoIntertwiner, cols[:d - 1]),
             (NoIntertwiner, cols[:d - 1] + [cols[0]]),
             # e_1 and its Q-partner e_{2n+1} pair to 1
             (NotIsotropic, cols[:d - 1] + [cols[d]])]
    for error, vectors in cases:
        with pytest.raises(error):
            pure_spinor(n, vectors)


def test_cor_action_matches_matrix(rng):
    n = 2
    v = rand_lambda_vec(rng, n)
    m = cor_matrix_by_columns(n, v)
    for mask in (0, 1, 5, 10):
        direct = cor_action(v, SpinVec(n, {mask: 1}))
        column = [[int(k == mask)] for k in range(1 << (2 * n))]
        image = xl.mul(m, column)[:, 0]
        via_matrix = SpinVec(n, dict(enumerate(image)))
        assert direct == via_matrix


# ---------------------------------------------------------------------------
# the dense routes the signed-permutation code replaced, kept as references


def _involution_form_dense(n):
    """B by the double loop: the vacuum coefficient of the reversal word of
    x_S * l_1...l_{2n} applied to every monomial x_T."""
    size = 1 << (2 * n)
    d = 2 * n
    b = xl.zeros(size)
    for s_mask in range(size):
        word = [("l", i) for i in range(d, 0, -1)]
        word += [("x", i) for i in range(d, 0, -1) if s_mask & (1 << (i - 1))]
        for t_mask in range(size):
            coeffs = {t_mask: 1}
            for kind, idx in reversed(word):
                apply = contract_apply if kind == "l" else wedge_apply
                coeffs = apply(n, idx, coeffs)
            if 0 in coeffs:
                b[s_mask, t_mask] = coeffs[0]
    return b


def _involution_signs_by_words(n):
    """sigma_S by applying the reversal word of x_S * l_1...l_{2n} to the one
    monomial x_{full ^ S} that it takes to the vacuum."""
    size = 1 << (2 * n)
    d = 2 * n
    full = size - 1
    signs = []
    for s_mask in range(size):
        word = [("l", i) for i in range(d, 0, -1)]
        word += [("x", i) for i in range(d, 0, -1) if s_mask & (1 << (i - 1))]
        coeffs = {full ^ s_mask: 1}
        for kind, idx in reversed(word):
            apply = contract_apply if kind == "l" else wedge_apply
            coeffs = apply(n, idx, coeffs)
        signs.append(coeffs.get(0, 0))
    return tuple(signs)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_involution_signs_match_word_route(n):
    assert _involution_form(n) == _involution_signs_by_words(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_involution_form_is_one_immutable_table_per_n(n):
    signs = _involution_form(n)
    assert _involution_form(n) is signs and type(signs) is tuple
    fresh = _involution_form.__wrapped__(n)
    assert fresh is not signs and fresh == signs == _involution_signs_by_words(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_complement_signs_are_one_immutable_table_per_n(n):
    full = (1 << (2 * n)) - 1
    eps = _complement_signs(n)
    assert _complement_signs(n) is eps and type(eps) is tuple
    assert eps == tuple(merge_sign_by_bits(t, full ^ t) for t in range(full + 1))


def test_transport_takes_only_int_inputs():
    n = 1
    terms = _source_terms(n)
    wedges = [[0, 0, 1, 0], [0, 0, 0, 1]]
    phi = [1, 0, 0, 0]
    assert xl.mat_eq(_transport(terms, wedges, phi), xl.eye(4))
    for bad_wedges, bad_phi in ((wedges, [Fraction(1)] + phi[1:]),
                                ([[0, 0, Fraction(1, 2), 0], wedges[1]], phi)):
        with pytest.raises(TypeError):
            _transport(terms, bad_wedges, bad_phi)


def _spin_conjugation_dense(z):
    """R with dense generators, dense sums and dense products, else None."""
    size = z.shape[0]
    n = size.bit_length() // 2
    d = 2 * n
    b = _involution_form_dense(n)
    z_rev = xl.mul(b.T, xl.mul(z.T, b))
    if not xl.mat_eq(xl.mul(z, z_rev), xl.eye(size)):
        return None
    e = xl.eye(4 * n)
    gens = [cor_matrix_by_columns(n, e[:, k]) for k in range(4 * n)]
    r = xl.zeros(4 * n)
    for k in range(4 * n):
        zg = xl.mul(z, gens[k])
        row0 = xl.mul(zg[:1], z_rev)[0]
        col0 = xl.mul(zg, z_rev[:, :1])[:, 0]
        recon = xl.zeros(size)
        for i in range(d):
            r[i, k] = row0[1 << i]
            r[d + i, k] = col0[1 << i]
            recon = recon + r[i, k] * gens[i] + r[d + i, k] * gens[d + i]
        if not xl.mat_eq(zg, xl.mul(recon, z)):
            return None
    if not xl.is_integral(r) or abs(xl.det(r)) != 1:
        return None
    return r


def _rand_rational_matrix(rng, size):
    return np.array([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      if rng.random() < 0.4 else 0 for _ in range(size)]
                     for _ in range(size)], dtype=object)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_involution_matches_dense_form(rng, n):
    b = _involution_form_dense(n)
    assert xl.mat_eq(xl.mul(b, b.T), xl.eye(1 << (2 * n)))
    for _ in range(2):
        z = _rand_rational_matrix(rng, 1 << (2 * n))
        assert xl.mat_eq(clifford_involution(z), xl.mul(b.T, xl.mul(z.T, b)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spin_conjugation_matches_dense_route(rng, n):
    z = rand_spin(rng, n)
    r = _spin_conjugation_dense(z)
    assert r is not None and is_spin(z)
    assert xl.mat_eq(r_of_z(z), r)
    # one even entry off: both routes reject it
    i, j = next((i, j) for i in range(z.shape[0]) for j in range(z.shape[0])
                if z[i, j] != 0 and (popcount(i) + popcount(j)) % 2 == 0)
    bad = z.copy()
    bad[i, j] += 1
    assert _spin_conjugation_dense(bad) is None
    assert not is_spin(bad)
    with pytest.raises(NotSpin):
        r_of_z(bad)
    if n > 1:
        # row 10 is not 0, a unit, full or full ^ unit, so R, the vacuum and
        # the norm are read as for z: only the transport of the vacuum sees it
        bad = z.copy()
        bad[10, 5] += 1
        assert _spin_conjugation_dense(bad) is None
        assert not is_spin(bad)
        with pytest.raises(NotSpin):
            r_of_z(bad)


def test_spin_conjugation_controls_past_the_norm_check():
    # 1 + x_1^...^x_6 is even with z z' = 1, but conjugating l_1 by it leaves
    # a 5-vector: z cor(e_k) = recon z fails
    z = xl.eye(64)
    z[63, 0] = 1
    assert xl.mat_eq(xl.mul(z, clifford_involution(z)), xl.eye(64))
    assert _spin_conjugation_dense(z) is None and not is_spin(z)
    # cor(v) cor(u/2) with cor(v)^2 = cor(u)^2 = 2 has norm one and
    # normalizes Lambda (x) Q, but its R is not integral
    v = np.array([1, 0, 2, 0], dtype=object)
    u = np.array([0, 1, 0, 2], dtype=object)
    z = xl.mul(cor_matrix_by_columns(1, v), cor_matrix_by_columns(1, u * Fraction(1, 2)))
    assert xl.mat_eq(xl.mul(z, clifford_involution(z)), xl.eye(4))
    assert _spin_conjugation_dense(z) is None and not is_spin(z)


def _norm_minus_one(rng, n):
    """cor(v) cor(u) with cor(v)^2 = 1 and cor(u)^2 = -1: even, z z' = -1."""
    v = rand_unit_pairing_vector(rng, n, 1)
    u = rand_unit_pairing_vector(rng, n, -1)
    return xl.mul(cor_matrix_by_columns(n, v), cor_matrix_by_columns(n, u))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spin_check_matches_dense_route_off_the_group(rng, n):
    z = rand_spin(rng, n)
    minus = _norm_minus_one(rng, n)
    # minus conjugates Lambda onto itself, so only its spinor norm is wrong;
    # R read through z' = -z^-1 is minus the true one, so z cor(e_k) = recon_k z
    # already fails before the [0, 0] entry of z z' is read
    assert xl.mat_eq(xl.mul(minus, clifford_involution(minus)), -xl.eye(1 << (2 * n)))
    cases = [z, -z, 2 * z, z * Fraction(1, 2), minus, xl.mul(z, minus),
             xl.zeros(1 << (2 * n))]
    for w in cases:
        ref = _spin_conjugation_dense(xl.asmat(w))
        assert is_spin(w) == (ref is not None)
        if ref is not None:
            assert xl.mat_eq(r_of_z(w), ref)
        else:
            with pytest.raises(NotSpin):
                r_of_z(w)
    assert is_spin(z) and is_spin(-z) and not is_spin(2 * z) and not is_spin(minus)


def test_spin_check_at_n4(rng):
    z = rand_spin(rng, 4)
    assert is_spin(z) and is_spin(-z) and not is_spin(2 * z)
    bad = z.copy()
    bad[10, 5] += 1
    assert not is_spin(bad)
    r = r_of_z(z)
    q = q_matrix(4)
    assert xl.is_integral(r) and xl.mat_eq(xl.mul(r.T, xl.mul(q, r)), q)
    assert xl.det(r) == 1
    assert xl.mat_eq(r_of_z(-z), r)


@pytest.mark.parametrize("n", [2, 3])
def test_spin_check_rejects_one_changed_column_entry(rng, n):
    # rows 3 and 9 are none of 0, a unit, full or full ^ unit, so R and the
    # norm are read as for z; the entries are in column 0, the last column
    # and two middle ones, each where the grading allows a nonzero entry.  A
    # change in column 0 moves the vacuum, so the cor(R l_i) no longer kill
    # it; one in any other column is seen only by the column comparison
    z = rand_spin(rng, n)
    full = (1 << (2 * n)) - 1
    assert is_spin(z)
    for i, j in ((3, 0), (3, full), (9, 5), (3, (1 << (2 * n - 1)) | 1)):
        assert (popcount(i) + popcount(j)) % 2 == 0
        for delta in (1, -2, Fraction(1, 2)):
            bad = z.copy()
            bad[i, j] += delta
            assert not is_spin(bad)
            with pytest.raises(NotSpin):
                r_of_z(bad)


@pytest.mark.parametrize("n", [2, 3])
def test_spin_check_builds_no_module_sized_matrix(rng, monkeypatch, n):
    z = rand_spin(rng, n)
    ref = r_of_z(z)
    mat = xl.mat
    sizes = []

    def counting_mat(rows):
        m = mat(rows)
        sizes.append(m.shape[0])
        return m

    monkeypatch.setattr(xl, "mat", counting_mat)
    # positive control: a 4^n x 4^n matrix built with xl.mat is counted
    xl.mat([[0] * (1 << (2 * n))] * (1 << (2 * n)))
    assert 1 << (2 * n) in sizes
    sizes.clear()
    assert is_spin(z) and xl.mat_eq(r_of_z(z), ref)
    bad = z.copy()
    bad[9, 5] += 1
    assert not is_spin(bad)
    # R is read into one 4n-row Matrix per check; z only by its own rows
    assert sizes and 1 << (2 * n) not in sizes


def test_spin_check_makes_no_dense_product(rng, monkeypatch):
    z = rand_spin(rng, 3)
    bad = _norm_minus_one(rng, 3)
    ref = _spin_conjugation_dense(z)

    def no_mul(*args, **kw):
        raise AssertionError("exactlin.mul called")

    monkeypatch.setattr(xl, "mul", no_mul)
    assert is_spin(z) and xl.mat_eq(r_of_z(z), ref)
    assert not is_spin(bad)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_maps_are_one_immutable_table_per_n(n):
    maps = _generator_maps(n)
    assert _generator_maps(n) is maps
    assert type(maps) is tuple and all(type(col) is tuple for col in maps)
    fresh = _generator_maps.__wrapped__(n)
    assert fresh is not maps and fresh == maps
    # the same signed permutations as the one-generator operators bit by bit
    d = 2 * n
    for k, col in enumerate(maps):
        apply = contract_apply if k < d else wedge_apply
        for m, image in enumerate(col):
            assert apply(n, k % d + 1, {m: 1}) == ({image[0]: image[1]} if image else {})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_source_terms_are_one_immutable_table_per_n(n):
    terms = _source_terms(n)
    assert _source_terms(n) is terms
    assert type(terms) is tuple and all(type(entry) is tuple for entry in terms)
    fresh = _source_terms.__wrapped__(n)
    assert fresh is not terms and fresh == terms
    # the same signed permutations as the one-generator operators bit by bit:
    # x_m has exactly 2n terms, one per generator that does not kill it
    d = 2 * n
    applies = [contract_apply if k < d else wedge_apply for k in range(2 * d)]
    assert len(terms) == 1 << d
    for m, entry in enumerate(terms):
        assert len(entry) == d
        got = {j % (2 * d): {row: -1 if j >= 2 * d else 1} for j, row in entry}
        want = {k: image for k, apply in enumerate(applies)
                if (image := apply(n, k % d + 1, {m: 1}))}
        assert got == want


def _sparse_vector(rng, size):
    v = [0] * size
    for _ in range(rng.randint(1, 3)):
        v[rng.randrange(size)] = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)])
    return v


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cor_apply_matches_column_route(rng, n):
    size = 1 << (2 * n)
    terms = _source_terms(n)
    coords = [[0] * (4 * n), [1] + [0] * (4 * n - 1)]
    for _ in range(3):
        coords.append([rng.randint(-3, 3) for _ in range(4 * n)])
        coords.append([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4 * n)])
    for c in coords:
        dense = cor_matrix_by_columns(n, c)
        vectors = [[0] * size] + [_sparse_vector(rng, size) for _ in range(4)]
        for v in vectors:
            want = xl.mul(dense, [[x] for x in v])[:, 0]
            assert _cor_apply(terms, _signed(c), v) == want


def test_lambda_vectors_of_the_wrong_length_are_rejected():
    # zip stops at the shorter list: the elimination in pure_spinor would
    # read [1, 0] as l_1
    for v in ([1, 0], [1, 2, 3, 4, 5]):
        with pytest.raises(ValueError, match=f"^a vector of Lambda has 4 entries for "
                                             f"n = 1, not {len(v)}$"):
            pure_spinor(1, [v])


@pytest.mark.parametrize("size", [4, 16])
def test_has_grade_matches_entrywise_rule(rng, size):
    # entry (i, j) may be nonzero only where popcount(i) + popcount(j) has the
    # parity of the grade; the zero matrix has both grades
    zero = [[0] * size for _ in range(size)]
    assert _has_grade(zero, 0) and _has_grade(zero, 1)
    for _ in range(40):
        rows = [row[:] for row in zero]
        for _ in range(rng.randint(1, 4)):
            rows[rng.randrange(size)][rng.randrange(size)] = rng.choice([-2, -1, 1, 3])
        for grade in (0, 1):
            expected = all(x == 0 or (popcount(i) + popcount(j)) % 2 == grade
                           for i, row in enumerate(rows) for j, x in enumerate(row))
            assert _has_grade(rows, grade) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_splitting_matches_the_block_construction(rng, n):
    # seeded splittings whose pairing is 1 (basis2 is the Q-dual basis) and
    # is not (either half given in another basis): basis1, basis2, w and
    # w_inv equal the matrices built by mat, block and the Q half swaps, and
    # share no row list
    d = 2 * n
    pairings = set()
    for _ in range(4):
        g = rand_q_isometry(rng, n)
        half1 = [g[:, i] for i in range(d)]
        half2 = [g[:, d + i] for i in range(d)]
        for basis1, basis2 in ((half1, half2), (half1, _mixed(rng, half2)),
                               (_mixed(rng, half1), half2)):
            pairings.add(q_gram(basis2, basis1) == xl.eye(d).rows)
            s = IsotropicSplitting(n, basis1, basis2)
            ref = splitting_by_blocks(basis1, basis2)
            rows = []
            for name, want in ref.items():
                got = getattr(s, name)
                assert got.shape == want.shape and xl.mat_eq(got, want), name
                assert all(type(x) is int for row in got.num for x in row), name
                rows += got.num
            assert len(set(map(id, rows))) == len(rows)
    assert pairings == {True, False}


def _graded(rng, size, grade):
    """A dense random size x size int matrix of the given grade: nonzero
    only where popcount(i) + popcount(j) has the parity of grade."""
    return [[rng.choice([-3, -1, 1, 2]) if (popcount(i) + popcount(j)) % 2 == grade else 0
             for j in range(size)] for i in range(size)]


@pytest.mark.parametrize("size", [1, 4, 16, 64])
def test_has_grade_matches_the_per_entry_reference(rng, size):
    # graded matrices of both grades, and each with one entry of the other
    # parity set; at size 1 the odd columns are none, the even ones one
    for grade in (0, 1):
        cases = [_graded(rng, size, grade)]
        wrong = [(i, j) for i in range(size) for j in range(size)
                 if (popcount(i) + popcount(j)) % 2 != grade]
        for i, j in rng.sample(wrong, min(len(wrong), 6)):
            rows = _graded(rng, size, grade)
            rows[i][j] = rng.choice([-1, 5])
            cases.append(rows)
        for k, rows in enumerate(cases):
            for g in (0, 1):
                assert _has_grade(rows, g) == has_grade_by_entries(rows, g)
                # past size 1 every entry of the grade's parity is nonzero
                assert size == 1 or _has_grade(rows, g) == (g == grade and k == 0)
    for rows, grades in (([[0]], (0, 1)), ([[7]], (0,)), ([[Fraction(1, 2)]], (0,))):
        assert [g for g in (0, 1) if _has_grade(rows, g)] == list(grades)


def _spoiled(base, partners, i, j):
    """The vectors base with base[i] replaced by base[i] + partners[j], where
    Q(base[k], partners[l]) = 1 for k = l and 0 otherwise and Q vanishes on
    base and on partners: then Q(u, v) is nonzero for exactly one unordered
    pair, base[j] with the new vector when i != j, the new vector with
    itself when i = j."""
    out = [list(v) for v in base]
    out[i] = [x + y for x, y in zip(base[i], partners[j])]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_isotropy_fails_at_exactly_one_pair(rng, n):
    # the one nonzero pair below the diagonal (i > j), above it (i < j) and
    # on it, at the first and the last vector too; the splitting and the
    # pure spinor both see it, on either half
    d = 2 * n
    for _ in range(2):
        s = rand_splitting(rng, n)
        half1 = [s.basis1[:, k] for k in range(d)]
        half2 = [s.basis2[:, k] for k in range(d)]
        assert is_isotropic(half1) and is_isotropic(half2)
        spots = {(0, 0), (d - 1, d - 1), (0, d - 1), (d - 1, 0), (rng.randrange(d),) * 2}
        if d > 2:
            i, j = sorted(rng.sample(range(d), 2))
            spots |= {(i, j), (j, i)}
        for i, j in spots:
            for base, partners, first in ((half1, half2, True), (half2, half1, False)):
                vectors = _spoiled(base, partners, i, j)
                gram = q_gram(vectors, vectors)
                assert {(a, b) for a, row in enumerate(gram) for b, x in enumerate(row)
                        if x} == {(i, j), (j, i)}
                assert is_isotropic(vectors) == is_isotropic_by_gram(vectors) is False
                halves = (vectors, partners) if first else (partners, vectors)
                with pytest.raises(NotIsotropic, match="^Q does not vanish on a splitting half$"):
                    IsotropicSplitting(n, *halves)
                with pytest.raises(NotIsotropic, match="^Q does not vanish on the vectors$"):
                    pure_spinor(n, vectors)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_meet_dim_reads_no_entry_type(rng, monkeypatch, n):
    # the integral Gram goes to rank as it is: no mat pass over its entries
    pairs = splitting_pairs(rng, n)
    want = [_meet_dim(s1, s2) for s1, s2, _ in pairs]

    def no_mat(rows):
        raise AssertionError("mat re-read an integral Gram matrix")

    monkeypatch.setattr(xl, "mat", no_mat)
    assert [_meet_dim(s1, s2) for s1, s2, _ in pairs] == want
