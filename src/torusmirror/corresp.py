"""Cohomological correspondences on products: Kunneth classes, the Poincare
transform, the mirror kernel xi, and the cor diagram verification.

Orientation convention used throughout: the top class x_1 ^ ... ^ x_{2n}
integrates to +1, and pushforward along the second projection keeps the
second-factor part of any term whose first-factor part is the full monomial.
"""

from functools import cache
from operator import itemgetter, mul
from types import MappingProxyType

from .clifford import (SpinVec, _check_masks, _complement_signs, _generator_maps, _signed,
                       exterior_exp, popcount, wedge)


class ProductClass:
    """An integral class on H*(A x B) in the monomial Kunneth basis.

    coeffs maps (mask_A, mask_B) to a coefficient; the pair stands for
    p*(x_S) ^ q*(x_T) in that order.  Read on the combined mask s | t << 2n,
    with B's generators above A's, the class is an exterior element, so every
    sign of a product or push-forward is the _merge_sign rule.
    """

    def __init__(self, n, m, coeffs):
        self.n = n
        self.m = m
        self.coeffs = {k: v for k, v in coeffs.items() if v != 0}

    def __eq__(self, other):
        return (isinstance(other, ProductClass) and self.n == other.n
                and self.m == other.m and self.coeffs == other.coeffs)


def _to_mask(a):
    """The class on its combined masks, an exterior element on 2n + 2m generators."""
    shift = 2 * a.n
    return {s | t << shift: c for (s, t), c in a.coeffs.items()}


def _from_mask(n, m, coeffs):
    low = (1 << (2 * n)) - 1
    return ProductClass(n, m, {(k & low, k >> (2 * n)): c for k, c in coeffs.items()})


def _check_sizes(what, left, right):
    if left != right:
        raise ValueError(f"{what}: sizes {left} and {right} differ")


def pc_mul(a, b):
    """Cup product, the wedge product of the combined masks; both classes must
    live on the same product A x B (else ValueError)."""
    _check_sizes("pc_mul", (a.n, a.m), (b.n, b.m))
    return _from_mask(a.n, a.m, wedge(_to_mask(a), _to_mask(b)))


def pc_exp(a):
    """exp of a class without constant term (else ValueError); terms c^k/k!."""
    return _from_mask(a.n, a.m, exterior_exp(_to_mask(a)))


def c1_poincare(n):
    """c1 of the Poincare bundle on A x A-hat: sum over i of p*(x_i)^q*(l_i)."""
    return ProductClass(n, n, {(1 << i, 1 << i): 1 for i in range(2 * n)})


def push_forward_correspondence(xi, v):
    """The map v -> q_*(xi ^ p*(v)) induced by the kernel class xi; v must
    live on A, the first factor of xi (else ValueError).

    A term (s, t) meets v's term sv = full ^ s only.  Its sign,
    _merge_sign(s | t << 2n, sv), splits in two: s against sv is eps[s] of
    _complement_signs, and every bit of t lies above every bit of sv, which
    gives (-1)^{|t||sv|}."""
    _check_sizes("push_forward_correspondence", xi.n, v.n)
    out = {}
    full = (1 << (2 * xi.n)) - 1
    eps = _complement_signs(xi.n)
    vc = v.coeffs
    for (s, t), c in xi.coeffs.items():
        sv = full ^ s  # only v's term on the complement of s fills the first factor
        if sv in vc:
            sign = -eps[s] if popcount(t) & popcount(sv) & 1 else eps[s]
            out[t] = out.get(t, 0) + sign * c * vc[sv]
    return SpinVec(xi.m, out)


def swap_factors(xi):
    """The same class read on B x A; Koszul sign (-1)^{|S||T|} per term."""
    out = {}
    for (s, t), c in xi.coeffs.items():
        sign = -1 if (popcount(s) * popcount(t)) % 2 else 1
        out[(t, s)] = sign * c
    return ProductClass(xi.m, xi.n, out)


def reverse_correspondence(xi, w):
    """The map w -> p_*(xi ^ q*(w)) of the same kernel, other direction."""
    return push_forward_correspondence(swap_factors(xi), w)


def phi_poincare(n, v):
    """H^k(A) -> H^{2n-k}(A-hat): x_S -> (-1)^{sum of complement} l_{complement};
    v must live on A (else ValueError)."""
    _check_sizes("phi_poincare", n, v.n)
    full = (1 << (2 * n)) - 1
    out = {}
    for s, c in v.coeffs.items():
        comp = full ^ s
        eps = sum(i + 1 for i in range(2 * n) if comp & (1 << i))
        out[comp] = out.get(comp, 0) + c * (-1) ** (eps % 2)
    return SpinVec(n, out)


def product_class_from_map(n, m, images):
    """The kernel class of a linear map given by images[mask] in H*(B).

    images maps A-masks, in 0 .. 4^n - 1, to SpinVec-style coefficient dicts
    on B-masks, in 0 .. 4^m - 1 (else ValueError); the returned class xi
    satisfies push_forward_correspondence(xi, x_S) = images[S].

    The sign of the term (full ^ alpha, vmask), _merge_sign((full ^ alpha) |
    vmask << 2n, alpha), splits as in the push-forward: eps[full ^ alpha] of
    _complement_signs, times (-1)^{|vmask||alpha|}, as every bit of vmask << 2n
    lies above every bit of alpha.
    """
    _check_masks(images, n)
    _check_masks(set().union(*images.values()), m, "m")
    full = (1 << (2 * n)) - 1
    eps = _complement_signs(n)
    out = {}
    for alpha, image in images.items():
        comp = full ^ alpha
        sign = eps[comp]
        odd = popcount(alpha) & 1
        for vmask, c in image.items():
            key = (comp, vmask)
            out[key] = out.get(key, 0) + (-c if odd & popcount(vmask) else c) * sign
    return ProductClass(n, m, out)


@cache
def _xi_terms(n):
    """The 4^n terms of xi_from_mirror(n), built once per n and read-only.

    tau is the kernel class of the 2^n images x_low ^ x_R -> sign x_R, for R
    a subset of {n+1..2n}: its terms (high ^ R, R) lie on bits n..2n-1 of each
    factor.  D = sum_{i<=n} p*(x_i) ^ q*(x_i) is a sum of even terms on
    pairwise disjoint masks, so exp(s D) = prod_i (1 + s D_i) = sum over
    subsets U of {1..n} of s^|U| (-1)^{|U|(|U|-1)/2} x_{U | U << 2n}, the
    second sign sorting the interleaved pairs.  U lies on bits 0..n-1 of each
    factor, so every term of tau meets every U, no product vanishes and no
    key repeats.  On the combined masks, a | b << 2n against U | U << 2n,
    the bits of a lie above those of U and below those of U << 2n, and the
    bits of b << 2n above both (2|b||U| pairs, an even count), so the wedge
    sign is (-1)^{|a||U|}.
    """
    low = (1 << n) - 1  # indices 1..n
    images = {}
    tau_sign = (-1) ** ((n * (n - 1) // 2) % 2)
    for r in range(1 << n):
        rmask = r << n  # subsets of {n+1..2n}
        sign = tau_sign * ((-1) ** ((n * popcount(rmask)) % 2))
        images[low | rmask] = {rmask: sign}
    tau = [(a, b, c, popcount(a) & 1)
           for (a, b), c in product_class_from_map(n, n, images).coeffs.items()]
    s = -1 if n % 2 == 0 else 1
    out = {}
    for u in range(1 << n):
        k = popcount(u)
        even = s ** k * (-1 if k * (k - 1) // 2 % 2 else 1)
        odd = -even if k & 1 else even
        for a, b, c, a_odd in tau:
            out[(a | u, b | u)] = c * odd if a_odd else c * even
    return MappingProxyType(out)


def xi_from_mirror(n):
    """The class tau ^ exp(s D) realizing beta on the product, s = (-1)^{n-1}:
    a new class on a copy of the terms of _xi_terms(n)."""
    return ProductClass(n, n, _xi_terms(n))


def _kernel_classes(n):
    """Per generator e_k, the kernel class of its map on combined masks, as
    product_class_from_map builds it: sign * eps[full ^ s] at
    (full ^ s) | row << 2n for each s that _generator_maps(n)[k] sends to
    (row, sign) (the Koszul factor is 1, as |row| = |s| +- 1).  _diagram_layout reads
    them once per n into its expected values."""
    d = 2 * n
    full = (1 << d) - 1
    eps = _complement_signs(n)
    return tuple({(full ^ s) | term[0] << d: term[1] * eps[full ^ s]
                  for s, term in enumerate(col) if term is not None}
                 for col in _generator_maps(n))


@cache
def _diagram_layout(n):
    """The cor diagram's classes, built once per n: (counts, classes) with
    counts[t] = |t| for every mask t over 2n bits, and classes a tuple of
    (k, keys, terms, expected), one per class in the order that
    verify_cor_diagram checks them, k the generator whose kernel class the
    class must be.

    Per bit i come two classes, each with one term for each t without bit i,
    in ascending t: the wedge class p1*(x_i) ^ top, for k = 2n + i, at
    t | bit | (full ^ t) << 2n, then the contraction class, for k = i, at
    t | (full ^ t ^ bit) << 2n.  Each term is top's term for t, negated when
    the bits of t below i (wedge), or above i plus i (contraction), are odd in
    number.  The itemgetter terms reads these terms from _signed(top) at t, or
    at 4^n + t to negate.  expected holds the values of _kernel_classes(n)[k]
    at keys, in that order, or is None when the kernel class has other keys,
    so that no sign passes.  Tuples and itemgetters are read-only.
    """
    d = 2 * n
    full = (1 << d) - 1
    kernels = _kernel_classes(n)
    classes = []
    for i in range(d):
        bit = 1 << i
        below, above = bit - 1, full >> (i + 1) << (i + 1)
        masks = [t for t in range(full + 1) if not t & bit]
        for k, keys, negated in (
                (d + i, [t | bit | (full ^ t) << d for t in masks],
                 [popcount(t & below) & 1 for t in masks]),
                (i, [t | (full ^ t ^ bit) << d for t in masks],
                 [(popcount(t & above) + i) & 1 for t in masks])):
            kernel = kernels[k]
            expected = tuple(map(kernel.__getitem__, keys)) if kernel.keys() == set(keys) else None
            classes.append((k, tuple(keys),
                            itemgetter(*(t + (full + 1 if odd else 0)
                                         for t, odd in zip(masks, negated))),
                            expected))
    return tuple(map(popcount, range(full + 1))), tuple(classes)


def verify_cor_diagram(n, mu_p1_sign=-1):
    """Check that the product-side classes act as wedge(x_i) / contract(l_i).

    mu_p1_sign is the coefficient of p1*(x_j) in the pushforward rule
    mu_*(p2*(x_j)) = p2*(x_j) + mu_p1_sign * p1*(x_j); the correct value is
    -1, and any other choice makes the check fail (a usable negative control).
    For each i, the class mu_*(p1*(x_i) ^ p2*(top)) must act by wedging x_i,
    and mu_*((-1)^{i-1} p2*(top without x_i)) (1-based i) by contracting
    with l_i.  Each class must equal the kernel class of its generator map.

    The term of top = prod_j (p2*(x_j) + mu_p1_sign p1*(x_j)) that takes
    p1*(x_j) for j in T is mu_p1_sign^|T| eps[T] on T | (full ^ T) << 2n, with
    eps[T] = _merge_sign(T, full ^ T); it is read from a table of
    mu_p1_sign^k for k <= 2n, one entry per mask, and its negatives.  Each
    class of _diagram_layout(n) holds every key of its kernel class, which
    has no zero, so the class equals it exactly when the tuple of its values
    equals the expected tuple: one comparison per class, a zero term (from
    mu_p1_sign = 0) differing from the kernel's +-1.  The check stops at the
    first class that differs.
    """
    counts, classes = _diagram_layout(n)
    powers = [mu_p1_sign ** k for k in range(2 * n + 1)]
    signed = _signed(list(map(mul, map(powers.__getitem__, counts), _complement_signs(n))))
    return all(terms(signed) == expected for _k, _keys, terms, expected in classes)
