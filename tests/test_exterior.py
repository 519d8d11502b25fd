"""The one exterior algebra on {mask: coeff} dicts: clifford.wedge and
clifford.exterior_exp, and the Kunneth classes of corresp read on the
combined mask s | t << 2n, checked against the sign formulas they replaced."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (exterior_exp_by_fractions, merge_sign_by_bits,
                      product_class_from_map_by_merge_signs, wedge_by_pairs)
from torusmirror import clifford
from torusmirror import corresp as cp
from torusmirror.clifford import SpinVec, _merge_sign, exterior_exp, popcount, wedge

GENERATORS = 6
coeffs = st.integers(-3, 3) | st.fractions(min_value=-2, max_value=2, max_denominator=3)


def elements(masks=st.integers(0, (1 << GENERATORS) - 1), max_size=5):
    return st.dictionaries(masks, coeffs, max_size=max_size)


# two different factor sizes, so A's and B's generator counts differ
factor_sizes = st.sampled_from([(n, m) for n in (1, 2, 3) for m in (1, 2, 3) if n != m])


@st.composite
def product_classes(draw, n, m):
    keys = st.tuples(st.integers(0, (1 << (2 * n)) - 1), st.integers(0, (1 << (2 * m)) - 1))
    return cp.ProductClass(n, m, draw(st.dictionaries(keys, coeffs, max_size=6)))


def koszul(p, q):
    return -1 if popcount(p) * popcount(q) % 2 else 1


# ---------------------------------------------------------------------------
# the sign formulas of the per-factor products, kept as references


def pc_mul_by_factors(a, b):
    """Cup product; the B-part of a passes the A-part of b with a Koszul sign."""
    out = {}
    for (s1, t1), c1 in a.coeffs.items():
        for (s2, t2), c2 in b.coeffs.items():
            if s1 & s2 or t1 & t2:
                continue
            sign = koszul(t1, s2) * _merge_sign(s1, s2) * _merge_sign(t1, t2)
            key = (s1 | s2, t1 | t2)
            out[key] = out.get(key, 0) + sign * c1 * c2
    return cp.ProductClass(a.n, a.m, out)


def push_forward_by_factors(xi, v):
    out = {}
    full = (1 << (2 * xi.n)) - 1
    for sv, cv in v.coeffs.items():
        for (s, t), c in xi.coeffs.items():
            if s & sv or (s | sv) != full:
                continue
            out[t] = out.get(t, 0) + koszul(t, sv) * _merge_sign(s, sv) * c * cv
    return SpinVec(xi.m, out)


def product_class_from_map_by_factors(n, m, images):
    full = (1 << (2 * n)) - 1
    out = {}
    for alpha, image in images.items():
        comp = full ^ alpha
        base = _merge_sign(comp, alpha)
        for vmask, c in image.items():
            sign = koszul(vmask, alpha)
            out[(comp, vmask)] = out.get((comp, vmask), 0) + c * sign * base
    return cp.ProductClass(n, m, out)


def monomial_by_sign_loop(n, indices, coeff=1):
    mask, sign = 0, 1
    for i in indices:
        bit = i - 1
        if mask & (1 << bit):
            return SpinVec(n, {})
        # x_S ^ x_bit: x_bit moves left past the set bits above it
        sign *= -1 if popcount(mask >> (bit + 1)) % 2 else 1
        mask |= 1 << bit
    return SpinVec(n, {mask: sign * coeff})


# ---------------------------------------------------------------------------
# the bit helpers against their bit-by-bit references


def test_popcount_counts_the_set_bits():
    for m in list(range(1 << 12)) + [(1 << 64) - 1, 1 << 100, (1 << 200) // 3]:
        assert popcount(m) == bin(m).count("1")


def test_merge_sign_matches_the_bit_loop_on_all_disjoint_8_bit_pairs():
    for m1 in range(1 << 8):
        rest = 0xFF ^ m1
        m2 = rest
        while True:
            assert _merge_sign(m1, m2) == merge_sign_by_bits(m1, m2), (m1, m2)
            if not m2:
                break
            m2 = (m2 - 1) & rest


# up to 24 bits: the combined masks s | t << 2n of corresp at n = 3
disjoint_masks = st.tuples(st.integers(0, (1 << 24) - 1),
                           st.integers(0, (1 << 24) - 1)).map(lambda p: (p[0], p[1] & ~p[0]))


@settings(max_examples=500, deadline=None)
@given(disjoint_masks)
def test_merge_sign_matches_the_bit_loop_on_24_bit_masks(masks):
    assert _merge_sign(*masks) == merge_sign_by_bits(*masks)


# sparse masks up to 24 bits, so that pairs of terms are often disjoint
sparse_masks = st.lists(st.integers(0, 23), max_size=5).map(lambda bits: sum({1 << b for b in bits}))
wide_elements = st.dictionaries(st.integers(0, (1 << 24) - 1) | sparse_masks, coeffs, max_size=6)


def masked(x, bits):
    return {m & bits: c for m, c in x.items()}


@settings(max_examples=300, deadline=None)
@given(wide_elements, wide_elements, st.sampled_from([None, True, False]), st.integers(0, 24))
@example({}, {}, None, 0)
@example({}, {0b101: 2}, None, 0)
@example({0b101: 2}, {}, None, 0)
@example({1 << 23: 1, 1 << 20: -1}, {0b11: 1, 0b100: 2}, None, 0)
@example({0b11: 1, 0b100: 2}, {1 << 23: 1, 1 << 20: -1}, None, 0)
def test_wedge_matches_the_per_pair_merge_sign(a, b, a_high, cut):
    # a_high is None: the masks as drawn; True: every mask of a above every
    # mask of b; False: the reverse
    if a_high is not None:
        low = (1 << cut) - 1
        a, b = (masked(a, ~low), masked(b, low)) if a_high else (masked(a, low), masked(b, ~low))
    assert wedge(a, b) == wedge_by_pairs(a, b)


# ---------------------------------------------------------------------------
# the algebra


@settings(max_examples=150, deadline=None)
@given(elements(), elements(), elements())
def test_wedge_is_associative(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, (1 << GENERATORS) - 1), st.integers(0, (1 << GENERATORS) - 1),
       coeffs, coeffs)
def test_wedge_is_graded_commutative_on_monomials(m1, m2, c1, c2):
    a, b = {m1: c1}, {m2: c2}
    assert wedge(b, a) == {k: koszul(m1, m2) * v for k, v in wedge(a, b).items()}


even_masks = st.integers(1, (1 << GENERATORS) - 1).filter(lambda m: popcount(m) % 2 == 0)


@settings(max_examples=100, deadline=None)
@given(elements(even_masks))
def test_exp_of_minus_a_inverts_exp_of_a(a):
    assert wedge(exterior_exp(a), exterior_exp({m: -c for m, c in a.items()})) == {0: 1}


@settings(max_examples=100, deadline=None)
@given(elements(st.integers(1, (1 << GENERATORS) - 1)))
def test_exp_stores_integral_coefficients_as_int(a):
    for c in exterior_exp(a).values():
        assert type(c) is int or c.denominator > 1


def test_exp_divides_powers_by_factorials():
    # (x1 x2 + x3 x4)^2 = 2 x1 x2 x3 x4, so exp holds (2 / 2!) x1 x2 x3 x4
    assert exterior_exp({0b0011: 1, 0b1100: 1}) == {0: 1, 0b0011: 1, 0b1100: 1, 0b1111: 1}
    assert exterior_exp({0b0011: Fraction(1, 2)}) == {0: 1, 0b0011: Fraction(1, 2)}


@settings(max_examples=200, deadline=None)
@given(elements(st.integers(1, (1 << GENERATORS) - 1), max_size=7))
def test_exp_matches_the_per_term_fraction_route(a):
    # same values, same types and the same key order as one Fraction per term
    got, want = exterior_exp(a), exterior_exp_by_fractions(a)
    assert got == want and list(got) == list(want)
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


def test_exp_makes_no_fraction_for_integral_input(monkeypatch):
    # exp(x1 x2 + x3 x4 + x5 x6 + x1 x3) has K = 3 and terms over 2! and 3!
    a = {0b000011: 1, 0b001100: 1, 0b110000: 1, 0b000101: 1}
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    got = exterior_exp(a)
    xi = cp.xi_from_mirror(3)
    monkeypatch.undo()
    assert made == []
    assert got == exterior_exp_by_fractions(a) and all(type(c) is int for c in got.values())
    assert all(type(c) is int for c in xi.coeffs.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exp_of_a_nondegenerate_two_form_takes_n_wedges(monkeypatch, n):
    # x1 x2 + x3 x4 + ... has b^n = n! x_1...x_2n, and the degree bound
    # 2(n + 1) > 2n shows b^(n+1) = 0 without forming it
    form = {0b11 << 2 * i: 1 for i in range(n)}
    calls = []

    def counting_wedge(a, b):
        calls.append(b)
        return wedge(a, b)

    monkeypatch.setattr(clifford, "wedge", counting_wedge)
    got = exterior_exp(form)
    monkeypatch.undo()
    assert len(calls) == n
    assert got == exterior_exp_by_fractions(form) and got[(1 << 2 * n) - 1] == 1


def test_exp_rejects_a_constant_term():
    with pytest.raises(ValueError):
        exterior_exp({0: 1, 0b11: 1})
    with pytest.raises(ValueError):
        cp.pc_exp(cp.ProductClass(1, 1, {(0, 0): 1, (1, 1): 1}))
    # an explicit zero constant term is no constant term
    assert exterior_exp({0: 0, 0b11: 2}) == {0: 1, 0b11: 2}


# ---------------------------------------------------------------------------
# the Kunneth classes against the sign formulas they replaced


@settings(max_examples=150, deadline=None)
@given(st.data(), factor_sizes)
def test_pc_mul_matches_the_per_factor_koszul_sign(data, sizes):
    a = data.draw(product_classes(*sizes))
    b = data.draw(product_classes(*sizes))
    assert cp.pc_mul(a, b) == pc_mul_by_factors(a, b)


@settings(max_examples=150, deadline=None)
@given(st.data(), factor_sizes)
def test_push_forward_matches_the_per_factor_koszul_sign(data, sizes):
    n, m = sizes
    xi = data.draw(product_classes(n, m))
    v = SpinVec(n, data.draw(elements(st.integers(0, (1 << (2 * n)) - 1), max_size=8)))
    assert cp.push_forward_correspondence(xi, v) == push_forward_by_factors(xi, v)


@settings(max_examples=150, deadline=None)
@given(st.data(), factor_sizes)
def test_product_class_from_map_matches_the_per_factor_koszul_sign(data, sizes):
    n, m = sizes
    images = data.draw(st.dictionaries(
        st.integers(0, (1 << (2 * n)) - 1),
        elements(st.integers(0, (1 << (2 * m)) - 1), max_size=4), max_size=6))
    xi = cp.product_class_from_map(n, m, images)
    assert xi == product_class_from_map_by_factors(n, m, images)
    for alpha, image in images.items():
        want = SpinVec(m, image)
        assert cp.push_forward_correspondence(xi, SpinVec(n, {alpha: 1})) == want


@settings(max_examples=150, deadline=None)
@given(st.data(), factor_sizes)
def test_product_class_from_map_matches_one_merge_sign_per_term(data, sizes):
    # the same terms in the same order, and the same error when a source or
    # an image mask lies one past either end of its factor
    n, m = sizes
    images = data.draw(st.dictionaries(
        st.integers(0, (1 << (2 * n)) - 1),
        elements(st.integers(0, (1 << (2 * m)) - 1), max_size=4), max_size=6))
    stray_source = data.draw(st.sampled_from([None, None, None, -1, 1 << (2 * n)]))
    stray_image = data.draw(st.sampled_from([None, None, None, -1, 1 << (2 * m)]))
    if stray_source is not None:
        images[stray_source] = {0: 1}
    if stray_image is not None:
        images.setdefault(0, {})[stray_image] = 1

    def outcome(build):
        try:
            return list(build(n, m, images).coeffs.items())
        except ValueError as e:
            return str(e)

    assert outcome(cp.product_class_from_map) == outcome(product_class_from_map_by_merge_signs)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3), coeffs)
def test_monomial_matches_the_sign_loop(data, n, coeff):
    indices = data.draw(st.lists(st.integers(1, 2 * n), max_size=2 * n + 1))
    assert SpinVec.monomial(n, indices, coeff) == monomial_by_sign_loop(n, indices, coeff)
