import pytest

from conftest import (elliptic_sample, gaussian_torus, ns_basis_by_all_entries,
                      rand_ns_form, rand_skew, well_becoming_sample)
from torusmirror import exactlin as xl
from torusmirror.errors import NotComplexStructure
from torusmirror.torus import (NSVector, Torus, check_polarization, dual_torus,
                               find_polarization, hom_space, make_torus,
                               is_ns_form, ns_basis, polarization_form)

J_SQUARE = xl.mat([[0, -1], [1, 0]])
PHI = xl.mat([[0, 1], [-1, 0]])


def test_make_torus_validates():
    make_torus(1, J_SQUARE)
    with pytest.raises(NotComplexStructure):
        make_torus(1, xl.eye(2))
    with pytest.raises(NotComplexStructure):
        make_torus(2, J_SQUARE)


def test_torus_validates_as_make_torus_does():
    # the constructor holds the checks, so a Torus is never made from a J
    # that make_torus rejects, and both raise the same error
    for n, J, message in ((1, xl.eye(2), "^J\\^2 != -identity$"), (1, xl.eye(3), "^J must be 2x2$"),
                          (2, J_SQUARE, "^J must be 4x4$")):
        for make in (Torus, make_torus):
            with pytest.raises(NotComplexStructure, match=message):
                make(n, J)
    with pytest.raises(NotComplexStructure, match="^J\\^2 != -identity$"):
        Torus(1, [[1, 0], [0, 1]])


def test_dual_torus_double_dual():
    A = make_torus(1, J_SQUARE)
    Ahat = dual_torus(A)
    assert xl.mat_eq(Ahat.J, -J_SQUARE.T)
    assert dual_torus(Ahat) == A


def test_ns_vectors_are_equal_exactly_when_their_forms_are():
    v = NSVector(PHI)
    assert v == NSVector(xl.mat(PHI.rows))
    assert v != NSVector(2 * PHI) and v != NSVector(xl.zeros(2))
    assert v != PHI


def test_ns_basis_square_torus():
    A = make_torus(1, J_SQUARE)
    basis = ns_basis(A)
    assert len(basis) == 1
    c = basis[0].c
    assert xl.mat_eq(c, PHI) or xl.mat_eq(c, -PHI)


def test_polarization_square_torus():
    A = make_torus(1, J_SQUARE)
    b = polarization_form(A, PHI)
    assert xl.mat_eq(b, xl.eye(2))
    assert check_polarization(A, PHI)
    assert not check_polarization(A, -PHI)
    assert xl.mat_eq(find_polarization(A).c, PHI)


def test_hom_space_square_torus_endomorphisms():
    A = make_torus(1, J_SQUARE)
    homs = hom_space(A, A)
    assert len(homs) == 2  # Z[i] as an order: 1 and J
    for f in homs:
        assert xl.mat_eq(xl.mul(A.J, f), xl.mul(f, A.J))


def test_hom_space_rational_elliptic_curves_isogenous(rng):
    from conftest import weak_pair_sample
    # rational 2x2 complex structures all satisfy x^2 + 1, so any two such
    # elliptic curves admit a nonzero (indeed invertible-over-Q) hom
    for _ in range(3):
        A = weak_pair_sample(rng, 1).torus
        B = weak_pair_sample(rng, 1).torus
        homs = hom_space(A, B)
        assert homs
        for f in homs:
            assert xl.mat_eq(xl.mul(B.J, f), xl.mul(f, A.J))
        assert any(xl.det(f) != 0 for f in homs)
    A = weak_pair_sample(rng, 1).torus
    assert any(xl.mat_eq(f, xl.eye(2)) for f in hom_space(A, A))


def test_ns_basis_members_are_ns_forms(rng):
    from conftest import weak_pair_sample
    for n in (1, 2):
        A = weak_pair_sample(rng, n).torus
        for v in ns_basis(A):
            assert is_ns_form(A, v.c)


def test_is_ns_form_matches_two_product_reference(rng):
    # one product, J^T c symmetric, against skew and J^T c J = c
    def reference(A, c):
        return xl.mat_eq(c, -c.T) and xl.mat_eq(xl.mul(A.J.T, xl.mul(c, A.J)), c)

    seen = set()
    for n in (1, 2, 3):
        A, _pol = gaussian_torus(rng, n)
        basis = ns_basis(A)
        # c = J^T gives J^T c = -1, symmetric, yet c is not skew unless J is
        for c in [rand_ns_form(rng, basis) for _ in range(3)] + [
                rand_skew(rng, 2 * n) for _ in range(6)] + [A.J.T, xl.eye(2 * n)]:
            want = reference(A, c)
            assert is_ns_form(A, c) == want
            seen.add(want)
    assert seen == {True, False}


def test_find_polarization_is_primitive_and_a_polarization(rng):
    from conftest import weak_pair_sample
    for n in (1, 2, 3, 4):
        for _ in range(3):
            A = weak_pair_sample(rng, n).torus
            c = find_polarization(A).c
            assert is_ns_form(A, c) and check_polarization(A, c)
            assert xl.is_integral(c) and xl.mat_eq(xl.primitive_int(c), c)
            # the primitive integral point on the ray of J^T - J
            assert xl.mat_eq(xl.primitive_int(A.J.T - A.J), c)


def test_ns_basis_has_rank_n_squared(rng):
    from conftest import weak_pair_sample
    for n in (1, 2, 3):
        for _ in range(2):
            assert len(ns_basis(weak_pair_sample(rng, n).torus)) == n * n
        assert len(ns_basis(gaussian_torus(rng, n)[0])) == n * n


def test_hom_space_between_tori_of_different_dimension(rng):
    from conftest import weak_pair_sample
    tori = [make_torus(1, J_SQUARE), gaussian_torus(rng, 2)[0],
            weak_pair_sample(rng, 1).torus, weak_pair_sample(rng, 2).torus,
            weak_pair_sample(rng, 3).torus]
    for A in tori:
        for B in tori:
            homs = hom_space(A, B)
            assert len(homs) == 2 * A.n * B.n
            for f in homs:
                assert f.shape == (2 * B.n, 2 * A.n) and xl.is_integral(f)
                assert xl.mat_eq(xl.mul(B.J, f), xl.mul(f, A.J))
            # independent over Q
            assert xl.rank([[x for row in f for x in row] for f in homs]) == len(homs)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ns_basis_matches_the_all_entries_route(rng, n):
    tori = [well_becoming_sample(rng, n)[0].torus, gaussian_torus(rng, n)[0]]
    if n < 4:
        tori.append(elliptic_sample(rng, n)[0])
    for A in tori:
        basis = ns_basis(A)
        assert len(basis) == n * n and basis == ns_basis_by_all_entries(A)
        assert all(v.c.den == 1 for v in basis)
