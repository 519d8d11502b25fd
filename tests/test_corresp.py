from functools import cache
from operator import itemgetter

import pytest

from conftest import (beta_explicit, contract_apply, diagram_classes_by_dicts,
                      diagram_classes_by_products, kernel_class, kernel_class_by_map,
                      merge_sign_by_bits, push_forward_by_merge_signs, verify_cor_diagram_by_dicts,
                      verify_cor_diagram_by_products, wedge_apply, xi_by_exponential)
from torusmirror import corresp as cp
from torusmirror import exactlin as xl
from torusmirror.clifford import SpinVec, _generator_maps, popcount


def all_monomials(n):
    return [SpinVec(n, {s: 1}) for s in range(1 << (2 * n))]


def correspondence_matrix(xi):
    size = 1 << (2 * xi.n)
    m = xl.zeros(1 << (2 * xi.m), size)
    for s in range(size):
        img = cp.push_forward_correspondence(xi, SpinVec(xi.n, {s: 1}))
        for t, c in img.coeffs.items():
            m[t, s] = c
    return m


def test_poincare_transform_curve_values():
    assert cp.phi_poincare(1, SpinVec(1, {1: 1})).coeffs == {2: 1}
    assert cp.phi_poincare(1, SpinVec(1, {0: 1})).coeffs == {3: -1}
    assert cp.phi_poincare(1, SpinVec(1, {3: 1})).coeffs == {0: 1}


def test_poincare_transform_is_a_lattice_isometry():
    for n in (1, 2):
        size = 1 << (2 * n)
        m = xl.zeros(size)
        for s in range(size):
            for t, c in cp.phi_poincare(n, SpinVec(n, {s: 1})).coeffs.items():
                m[t, s] = c
        assert xl.is_integral(m) and abs(xl.det(m)) == 1


def test_c1_exponential_integral_and_truncated():
    for n in (1, 2, 3):
        e = cp.pc_exp(cp.c1_poincare(n))
        assert all(isinstance(c, int) or c.denominator == 1 for c in e.coeffs.values())
        assert max(popcount(s) for s, _ in e.coeffs) == 2 * n


def test_c1_squared_expansion_surface():
    c1 = cp.c1_poincare(2)
    sq = cp.pc_mul(c1, c1)
    # (sum p*(x_i) q*(l_i))^2 = 2 * sum_{i<j} +- x_i x_j (x) l_i l_j
    for (s, t), c in sq.coeffs.items():
        assert s == t and popcount(s) == 2
        assert c in (2, -2)
    assert len(sq.coeffs) == 6


def test_transform_of_exponential_is_poincare_transform():
    for n in (1, 2, 3):
        e = cp.pc_exp(cp.c1_poincare(n))
        for v in all_monomials(n):
            assert cp.push_forward_correspondence(e, v) == cp.phi_poincare(n, v)


def test_reverse_then_forward_is_signed_degree_involution():
    for n in (1, 2):
        e = cp.pc_exp(cp.c1_poincare(n))
        for s in range(1 << (2 * n)):
            v = SpinVec(n, {s: 1})
            w = cp.reverse_correspondence(e, cp.push_forward_correspondence(e, v))
            assert w.coeffs == {s: (-1) ** ((n + popcount(s)) % 2)}


def test_top_class_kernel_extracts_constant_term():
    n = 1
    xi = cp.ProductClass(n, n, {(3, 0): 1})
    assert cp.push_forward_correspondence(xi, SpinVec(n, {0: 1})).coeffs == {0: 1}
    assert cp.push_forward_correspondence(xi, SpinVec(n, {1: 1})).coeffs == {}
    assert cp.push_forward_correspondence(xi, SpinVec(n, {3: 1})).coeffs == {}


def _triple_compose(first, second):
    """Kernel of the composed map v_second . v_first via the three-factor
    product: push p*_{YZ}(second) ^ p*_{XY}(first) down to X x Z."""
    n = first.n
    full = (1 << (2 * n)) - 1

    def tri_mul(a, b):
        out = {}
        for (s1, t1, u1), c1 in a.items():
            for (s2, t2, u2), c2 in b.items():
                if s1 & s2 or t1 & t2 or u1 & u2:
                    continue
                sign = (-1) ** (((popcount(t1) + popcount(u1)) * popcount(s2)
                                 + popcount(u1) * popcount(t2)) % 2)
                sign *= (merge_sign_by_bits(s1, s2) * merge_sign_by_bits(t1, t2)
                         * merge_sign_by_bits(u1, u2))
                key = (s1 | s2, t1 | t2, u1 | u2)
                out[key] = out.get(key, 0) + sign * c1 * c2
        return {k: v for k, v in out.items() if v != 0}

    lift_first = {(s, t, 0): c for (s, t), c in first.coeffs.items()}
    lift_second = {(0, s, t): c for (s, t), c in second.coeffs.items()}
    prod = tri_mul(lift_second, lift_first)
    out = {}
    for (s, t, u), c in prod.items():
        # integrate over the middle factor; the full monomial there has even
        # degree, so commuting it out adds no sign
        if t == full:
            out[(s, u)] = out.get((s, u), 0) + c
    return cp.ProductClass(n, n, out)


def test_kernel_composition_matches_matrix_product():
    n = 1
    first = cp.pc_exp(cp.c1_poincare(n))
    second = cp.xi_from_mirror(n)
    composed = _triple_compose(first, second)
    lhs = correspondence_matrix(composed)
    rhs = xl.mul(correspondence_matrix(second), correspondence_matrix(first))
    assert xl.mat_eq(lhs, rhs)


def test_beta_matrix_curve_table():
    b = beta_explicit(1)
    expect = xl.mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
    assert xl.mat_eq(b, expect)


def test_beta_matrix_is_signed_permutation():
    for n in (1, 2, 3):
        b = beta_explicit(n)
        for j in range(b.shape[1]):
            col = [b[i, j] for i in range(b.shape[0]) if b[i, j] != 0]
            assert len(col) == 1 and col[0] in (1, -1)
        assert abs(xl.det(b)) == 1


def test_mirror_kernel_reproduces_beta_matrix():
    for n in (1, 2, 3):
        xi = cp.xi_from_mirror(n)
        assert xl.mat_eq(correspondence_matrix(xi), beta_explicit(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_xi_matches_tau_times_the_exponential(n):
    xi = cp.xi_from_mirror(n)
    assert xi == xi_by_exponential(n)
    assert len(xi.coeffs) == 4 ** n
    assert all(type(c) is int for c in xi.coeffs.values())


def test_mirror_kernel_exponent_truncates():
    n = 3
    d = cp.ProductClass(n, n, {(1 << i, 1 << i): 1 for i in range(n)})
    e = cp.pc_exp(d)
    assert max(popcount(s) for (s, _t) in e.coeffs) == n


def test_diagram_verification_and_negative_control():
    for n in (1, 2, 3, 4):
        assert cp.verify_cor_diagram(n)
        assert not cp.verify_cor_diagram(n, mu_p1_sign=1)


@pytest.mark.parametrize("n, sign", [(n, sign) for n in (0, 1, 2, 3) for sign in (-2, -1, 0, 1, 2)]
                         + [(4, -1), (4, 1)])
def test_diagram_verification_matches_the_product_route(n, sign):
    assert cp.verify_cor_diagram(n, sign) == verify_cor_diagram_by_products(n, sign)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_diagram_verification_matches_the_dict_route(n):
    for sign in range(-3, 4):
        assert cp.verify_cor_diagram(n, sign) == verify_cor_diagram_by_dicts(n, sign), sign


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diagram_classes_are_their_products(n):
    full = (1 << (2 * n)) - 1
    eps = [merge_sign_by_bits(t, full ^ t) for t in range(full + 1)]
    maps = _generator_maps(n)
    for sign in (-2, -1, 0, 1, 2):
        got = list(diagram_classes_by_dicts(n, sign, eps))
        want = list(diagram_classes_by_products(n, sign))
        assert [k for k, _cls in got] == [k for k, _lam in want]
        for (k, cls), (_k, lam) in zip(got, want):
            assert cls == cp._to_mask(lam)
    for col in maps:
        assert kernel_class(n, col, eps) == cp._to_mask(kernel_class_by_map(n, col))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_classes_are_those_of_the_generator_maps(n):
    full = (1 << (2 * n)) - 1
    eps = [merge_sign_by_bits(t, full ^ t) for t in range(full + 1)]
    maps = _generator_maps(n)
    kernels = cp._kernel_classes(n)
    assert len(kernels) == len(maps) == 4 * n
    for k, col in enumerate(maps):
        assert kernels[k] == kernel_class(n, col, eps)


def test_diagram_tables_are_built_once_per_n_and_read_only(monkeypatch):
    for n in (1, 2, 3):
        full = (1 << (2 * n)) - 1
        eps = [merge_sign_by_bits(t, full ^ t) for t in range(full + 1)]
        maps = _generator_maps(n)
        layout = cp._diagram_layout(n)
        assert cp._diagram_layout(n) is layout
        counts, classes = layout
        assert type(counts) is tuple and type(classes) is tuple
        # per bit i, the wedge class (k = 2n + i) and then the contraction class (k = i)
        assert [k for k, *_rest in classes] == [k for i in range(2 * n) for k in (2 * n + i, i)]
        for k, keys, terms, expected in classes:
            assert type(keys) is tuple and type(terms) is itemgetter and type(expected) is tuple
            assert len(keys) == len(expected) == 1 << (2 * n - 1)
            # every key of the kernel class, with its value in the order of keys
            assert dict(zip(keys, expected)) == kernel_class(n, maps[k], eps)
    builds = []

    def counted_kernels(n, build=cp._kernel_classes):
        builds.append(("_kernel_classes", n))
        return build(n)

    def counted_layout(n, build=cp._diagram_layout.__wrapped__):
        builds.append(("_diagram_layout", n))
        return build(n)

    monkeypatch.setattr(cp, "_kernel_classes", counted_kernels)
    monkeypatch.setattr(cp, "_diagram_layout", cache(counted_layout))
    for _ in range(3):
        for n in (1, 2, 3):
            assert cp.verify_cor_diagram(n)
            # a zero (sign 0) or a power of 2 (|sign| >= 2) never reads as the kernel's +-1
            for sign in (-3, -2, 0, 1, 2, 3):
                assert not cp.verify_cor_diagram(n, sign), (n, sign)
    assert sorted(builds) == [(name, n) for name in ("_diagram_layout", "_kernel_classes")
                              for n in (1, 2, 3)]


def test_pc_mul_rejects_classes_on_different_products():
    with pytest.raises(ValueError, match=r"\(1, 1\) and \(2, 2\)"):
        cp.pc_mul(cp.c1_poincare(1), cp.c1_poincare(2))
    with pytest.raises(ValueError, match=r"\(1, 2\) and \(1, 1\)"):
        cp.pc_mul(cp.ProductClass(1, 2, {(1, 1): 1}), cp.ProductClass(1, 1, {(2, 2): 1}))


def test_push_forward_rejects_a_vector_of_another_size():
    xi = cp.xi_from_mirror(1)
    with pytest.raises(ValueError, match="1 and 2"):
        cp.push_forward_correspondence(xi, SpinVec(2, {0b1111: 1}))
    swapped = cp.ProductClass(1, 2, {(0b11, 0b1111): 1})
    with pytest.raises(ValueError, match="2 and 1"):
        cp.reverse_correspondence(swapped, SpinVec(1, {0b11: 1}))


def test_phi_poincare_rejects_a_vector_of_another_size():
    with pytest.raises(ValueError, match="1 and 2"):
        cp.phi_poincare(1, SpinVec(2, {0b1111: 1}))


@pytest.fixture
def fresh_layout():
    """An empty cache of corresp._diagram_layout before and after the test,
    so that the tables of an edited builder reach no other test."""
    cp._diagram_layout.cache_clear()
    yield
    cp._diagram_layout.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("change", ["gain", "lose", "flip"])
def test_diagram_verification_fails_on_one_term_more_or_less(monkeypatch, fresh_layout, n, change):
    # the kernel class of one generator gains a term that its diagram class
    # lacks, loses one it has, or has one value negated, the first or the last
    # in the order of the layout's keys; comparing only the layout's keys
    # misses the gain, and comparing a prefix of the values misses the last
    real = cp._kernel_classes
    layout_keys = {k: keys for k, keys, _terms, _expected in cp._diagram_layout(n)[1]}
    for target in range(4 * n):
        for where in (0, -1) if change == "flip" else (0,):
            def edited(n, target=target, key=layout_keys[target][where]):
                kernels = [dict(cls) for cls in real(n)]
                cls = kernels[target]
                if change == "gain":
                    cls[next(new for new in range(len(cls) + 1) if new not in cls)] = 1
                elif change == "lose":
                    del cls[key]
                else:
                    cls[key] = -cls[key]
                return tuple(kernels)

            monkeypatch.setattr(cp, "_kernel_classes", edited)
            cp._diagram_layout.cache_clear()
            assert not cp.verify_cor_diagram(n), (target, where)
    monkeypatch.setattr(cp, "_kernel_classes", real)
    cp._diagram_layout.cache_clear()
    assert cp.verify_cor_diagram(n)


def test_wedge_contract_helpers_are_adjoint_shapes():
    n = 2
    for s in range(16):
        w = wedge_apply(n, 1, {s: 1})
        for t in w:
            assert popcount(t) == popcount(s) + 1
        c = contract_apply(n, 1, {s: 1})
        for t in c:
            assert popcount(t) == popcount(s) - 1


def _rand_class(rng, n, m, terms):
    return cp.ProductClass(n, m, {(rng.randrange(1 << (2 * n)), rng.randrange(1 << (2 * m))):
                                  rng.randint(-3, 3) for _ in range(terms)})


def _rand_vec(rng, n, terms):
    return SpinVec(n, {rng.randrange(1 << (2 * n)): rng.randint(-3, 3) for _ in range(terms)})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_push_forward_signs_match_one_merge_sign_per_term(rng, n):
    # the kernel of beta, and random classes on A x B with B of another size,
    # pushed both ways on every monomial and on random sums
    xi = cp.xi_from_mirror(n)
    classes = [(xi, n)] + [(_rand_class(rng, n, m, 40), m) for m in (1, 2, 3) for _ in range(3)]
    for c, m in classes:
        swapped = cp.swap_factors(c)
        for v in all_monomials(n) + [_rand_vec(rng, n, 12) for _ in range(10)]:
            assert cp.push_forward_correspondence(c, v) == push_forward_by_merge_signs(c, v)
        for w in all_monomials(m) + [_rand_vec(rng, m, 12) for _ in range(10)]:
            assert cp.reverse_correspondence(c, w) == push_forward_by_merge_signs(swapped, w)


def test_product_class_from_map_rejects_masks_outside_their_factor():
    with pytest.raises(ValueError, match="^mask 16 does not fit n = 1: masks lie in 0..3$"):
        cp.product_class_from_map(1, 1, {0b10000: {1: 1}, 1: {0b100000: 2}})
    with pytest.raises(ValueError, match="^mask 32 does not fit m = 1: masks lie in 0..3$"):
        cp.product_class_from_map(1, 1, {1: {0b100000: 2}})
    with pytest.raises(ValueError, match="^mask -1 does not fit n = 2"):
        cp.product_class_from_map(2, 1, {-1: {1: 1}})
    assert cp.product_class_from_map(2, 1, {15: {3: 1}}).coeffs == {(0, 3): 1}


def test_xi_is_a_new_class_over_read_only_terms():
    xi = cp.xi_from_mirror(3)
    key = next(iter(xi.coeffs))
    xi.coeffs[key] = -xi.coeffs[key]
    del xi.coeffs[next(iter(xi.coeffs))]
    again = cp.xi_from_mirror(3)
    assert again is not xi and again.coeffs is not xi.coeffs
    assert again == xi_by_exponential(3)
    with pytest.raises(TypeError):
        cp._xi_terms(3)[key] = 0
