"""The integral Clifford algebra Cl(Lambda, Q) acting on H*(A,Z) = Wedge(Gamma*).

Basis monomials x_S of the spinor module are indexed by bitmasks over
{1..2n}; a lattice vector (l, x) acts by contraction with l plus wedge with
x (cor_A).  Clifford elements are carried as their spinor matrices, which is
faithful (the algebra is the full 2^{2n} matrix algebra over Z).  Exterior
elements are {mask: coeff} dicts; wedge and exterior_exp take every sign from
one _prefix per term of the right factor, the rule _merge_sign states.
"""

from fractions import Fraction
from functools import cache, lru_cache, reduce
from math import factorial, gcd, lcm
from operator import itemgetter, mul, or_

from . import exactlin as xl
from .errors import (FormMismatch, MixedParity, NoIntertwiner, NotEven, NotIsotropic,
                     NotSpin, SingularMatrix)
from .pairspace import is_isotropic, is_q_isometry, q_gram, q_swap


popcount = int.bit_count


def _prefix(m2, width):
    """The prefix-XOR of m2 << 1, exact on the low width bits: its bit a is the
    parity of the bits of m2 below a.  One doubling pass of ceil(log2 width)
    shifts, shared by every mask merged with m2 that fits in width bits."""
    p = m2 << 1
    shift = 1
    while shift < width:
        p ^= p << shift
        shift <<= 1
    return p


def _merge_sign(m1, m2):
    """Sign of sorting x_{m1} ^ x_{m2} (disjoint masks) into ascending order.

    It is (-1)^k for k the number of pairs a in m1, b in m2 with b < a; k is
    odd exactly when m1 & _prefix(m2, ...) has an odd number of bits.
    """
    return -1 if (m1 & _prefix(m2, m1.bit_length())).bit_count() & 1 else 1


def wedge(a, b):
    """Exterior product of two elements given as {mask: coeff} dicts.

    Each term m2 of b takes one prefix, wide enough for every mask of a, and
    the sign of each pair is the _merge_sign parity of m1 & prefix.
    """
    out = {}
    width = max(a, default=0).bit_length()
    for m2, c2 in b.items():
        p = _prefix(m2, width)
        for m1, c1 in a.items():
            if not m1 & m2:
                key = m1 | m2
                out[key] = out.get(key, 0) + (-c1 if (m1 & p).bit_count() & 1 else c1) * c2
    return {m: c for m, c in out.items() if c != 0}


def exterior_exp(a):
    """exp(a) = sum_k a^k / k! for an element a with no constant term (so a is
    nilpotent); exact, with every integral coefficient stored as an int.

    With a = b / q for b integral, it is _scaled_exp(b, q) divided once.
    """
    if a.get(0, 0) != 0:
        raise ValueError("exterior_exp needs an element without constant term")
    q, ints = xl._clear_denominators(a.values())
    den, total = _scaled_exp(dict(zip(a, ints)), q)
    return {m: c // den if c % den == 0 else Fraction(c, den) for m, c in total.items()}


def _scaled_exp(b, q):
    """(den, total) with exp(b / q) = total / den, for an integral element b
    without constant term and an int q > 0: total has int values, no zeros,
    and den = q^K K! > 0 for K the last nonzero power of b.  It sums the int
    terms b^k q^(K-k) K!/k!.

    Each term of b^k has at least k times the least degree of a nonzero term
    of b, and lies in the union of their masks, so b^k = 0 once that product
    exceeds the union's degree; no power past that bound is formed.
    """
    masks = [m for m, c in b.items() if c]
    bound = popcount(reduce(or_, masks)) // min(map(popcount, masks)) if masks else 0
    powers = [{0: 1}]
    while len(powers) <= bound:
        power = wedge(powers[-1], b)
        if not power:  # an odd b, or a degenerate one, ends below the bound
            break
        powers.append(power)
    last = len(powers) - 1
    den = q ** last * factorial(last)
    total = {}
    for k, power in enumerate(powers):
        scale = den // (q ** k * factorial(k))
        for m, c in power.items():
            total[m] = total.get(m, 0) + c * scale
    return den, {m: c for m, c in total.items() if c != 0}


def _check_masks(masks, n, name="n"):
    """Raise ValueError unless every mask lies in 0 .. 4^n - 1, the subsets of
    2n generators; one min and one max over the masks, not a test per mask."""
    if masks and (min(masks) < 0 or max(masks) >> 2 * n):
        bad = next(m for m in masks if not 0 <= m < 1 << 2 * n)
        raise ValueError(f"mask {bad} does not fit {name} = {n}: masks lie in "
                         f"0..{(1 << 2 * n) - 1}")


class SpinVec:
    """Element of H*(A,Z); coeffs maps subset bitmasks of {1..2n}, masks in
    0 .. 4^n - 1 (else ValueError), to coefficients."""

    def __init__(self, n, coeffs=None):
        coeffs = coeffs or {}
        _check_masks(coeffs, n)
        self.n = n
        self.coeffs = {m: c for m, c in coeffs.items() if c != 0}

    def __eq__(self, other):
        return isinstance(other, SpinVec) and self.n == other.n and self.coeffs == other.coeffs

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError(f"cannot add spinor vectors of sizes n = {self.n} and n = {other.n}")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return SpinVec(self.n, out)

    @classmethod
    def monomial(cls, n, indices, coeff=1):
        """x_{i1} ^ ... ^ x_{ik} for a sequence of distinct 1-based indices."""
        if any(not 1 <= i <= 2 * n for i in indices):
            raise ValueError(f"monomial index outside 1..{2 * n}")
        coeffs = {0: coeff}
        for i in indices:
            coeffs = wedge(coeffs, {1 << (i - 1): 1})
        return cls(n, coeffs)


@cache
def _generator_maps(n):
    """Column maps of cor(e_k) for the 4n basis vectors e_k of Lambda: each is a
    signed partial permutation of the monomials, maps[k][m] = (row, sign) when
    cor(e_k) x_m = sign * x_row and None when it kills x_m.  k < 2n contracts
    with l_{k+1}, k >= 2n wedges with x_{k-2n+1}.  Built once per n and shared
    by every caller, so it is a tuple of tuples that no caller can change."""
    d = 2 * n
    size = 1 << d
    parity = [0] * size
    for m in range(1, size):
        parity[m] = parity[m >> 1] ^ (m & 1)
    maps = []
    for k in range(2 * d):
        bit = k % d
        # contraction needs the bit set, wedge needs it clear
        need = 0 if k >= d else 1 << bit
        below = (1 << bit) - 1
        maps.append(tuple((m ^ (1 << bit), -1 if parity[m & below] else 1)
                          if m & (1 << bit) == need else None for m in range(size)))
    return tuple(maps)


@cache
def _source_terms(n):
    """Per source monomial m, the 2n generators e_k that do not kill x_m, as
    pairs (j, row) with cor(e_k) x_m = sign * x_row: j is k for sign +1 and
    4n + k for sign -1, an index into the coordinates followed by their
    negatives.  Built once per n from the generator maps, for _cor_apply."""
    maps = _generator_maps(n)
    return tuple(tuple((k if col[m][1] > 0 else 4 * n + k, col[m][0])
                       for k, col in enumerate(maps) if col[m] is not None)
                 for m in range(1 << (2 * n)))


def _signed(coords):
    """The coordinates of a vector of Lambda followed by their negatives, the
    list that _cor_apply reads; built once per vector that is applied."""
    return [*coords, *(-a for a in coords)]


def _cor_apply(terms, signed, v):
    """cor(lambda) v for lambda = sum_k coords_k e_k, from signed =
    _signed(coords) and the per-source table terms = _source_terms(n): 2n
    terms for each monomial in the support of v."""
    out = [0] * len(v)
    for m, x in enumerate(v):
        if x:
            for j, row in terms[m]:
                out[row] += signed[j] * x
    return out


def _transport_columns(terms, wedges, phi):
    """Yield, for S = 0, 1, ..., 4^n - 1, the column cor(w_{s_1}) ...
    cor(w_{s_k}) phi for S = {s_1 < ... < s_k}: the module map that sends the
    vacuum to phi and cor(x_{i+1}) to cor(w_i), column by column, each from
    the column of S minus its low bit."""
    signed = [_signed(w) for w in wedges]
    cols = [phi]
    yield phi
    for t_mask in range(1, len(phi)):
        low = (t_mask & -t_mask).bit_length() - 1
        col = _cor_apply(terms, signed[low], cols[t_mask ^ (1 << low)])
        cols.append(col)
        yield col


def _transport(terms, wedges, phi):
    """The matrix of the columns of _transport_columns.

    phi and the w_i must be int lists; every column is then an int list, so
    the matrix is wrapped as it is, without reading its 16^n entries again.
    """
    if any(type(x) is not int for v in [phi, *wedges] for x in v):
        raise TypeError("the transport takes an int vacuum and int wedge coordinates")
    return xl.from_int_rows(list(map(list, zip(*_transport_columns(terms, wedges, phi)))),
                            len(phi))


# ---------------------------------------------------------------------------
# isotropic splittings


_NOT_A_BASIS = "basis1 + basis2 is not a Z-basis of Lambda"


class IsotropicSplitting:
    """Lambda = M1 + M2 with both halves maximal Q-isotropic.

    basis2 is internally replaced by the Q-dual basis of basis1 (an integral
    change of basis, since the pairing between complementary isotropic halves
    of a unimodular lattice is unimodular); module coordinates are then the
    literal contraction/wedge coordinates: the realization of the splitting
    is the standard one transported by w = (basis1 | basis2), cor_s(lambda) =
    cor(w^-1 lambda).
    """

    def __init__(self, n, basis1, basis2):
        self.n = n
        d = 4 * n
        basis1, basis2 = list(basis1), list(basis2)
        if not (len(basis1) == len(basis2) == 2 * n
                and all(len(v) == d for v in basis1 + basis2)):
            lengths = sorted({len(v) for v in basis1 + basis2})
            raise ValueError(f"splitting bases for n = {n} must be {2 * n} vectors of length {d},"
                             f" not {len(basis1)} and {len(basis2)} of lengths {lengths}")
        m1, m2 = xl.mat(basis1), xl.mat(basis2)  # one basis vector per row
        if not (xl.is_integral(m1) and xl.is_integral(m2)):
            raise NotIsotropic(_NOT_A_BASIS)
        rows1, rows2 = m1.num, m2.num
        for vs in (rows1, rows2):
            if not is_isotropic(vs):
                if not xl.is_unimodular(xl.from_int_rows(rows1 + rows2, d)):
                    raise NotIsotropic(_NOT_A_BASIS)
                raise NotIsotropic("Q does not vanish on a splitting half")
        # for isotropic halves w^t Q w = [[0, P^t], [P, 0]] with the pairing
        # P[j, i] = Q(basis2_j, basis1_i), so |det w| = |det P|: w is a
        # Z-basis exactly when the integral P has an integral inverse
        pairing = q_gram(rows2, rows1)
        if all(x == (i == j) for j, row in enumerate(pairing) for i, x in enumerate(row)):
            # basis2 is the Q-dual basis of basis1 already
            dual = rows2
        else:
            try:
                pairing_inv = xl.invert(pairing)
            except SingularMatrix:
                raise NotIsotropic(_NOT_A_BASIS)
            if not xl.is_integral(pairing_inv):
                raise NotIsotropic(_NOT_A_BASIS)
            # the Q-dual basis of basis1
            dual = xl.mul(pairing_inv, m2).num
        # every part is built from the int rows: the basis vectors as columns,
        # w = (basis1 | basis2), and, as w^t Q w = Q now and Q^2 = 1,
        # w_inv = Q w^t Q, the rows of w^t with their halves and the halves
        # of each row swapped
        self.basis1 = xl.from_int_rows(list(map(list, zip(*rows1))), 2 * n)
        self.basis2 = xl.from_int_rows(list(map(list, zip(*dual))), 2 * n)
        self.w = xl.from_int_rows(list(map(list.__add__, self.basis1.num, self.basis2.num)), d)
        self.w_inv = xl.from_int_rows(list(map(q_swap, dual + rows1)), d)


# ---------------------------------------------------------------------------
# reversal involution


@cache
def _complement_signs(n):
    """eps[T] = _merge_sign(T, full ^ T) for every mask T over 2n bits: the
    sign of x_T ^ x_{full ^ T} against the top monomial.  Built once per n as
    a tuple shared by the involution, the cor diagram and chi."""
    full = (1 << (2 * n)) - 1
    return tuple(_merge_sign(t, full ^ t) for t in range(full + 1))


@cache
def _involution_form(n):
    """Signs sigma_S of the signed permutation B, B[S, full ^ S] = sigma_S, with
    B(z u, v) = B(u, z' v), i.e. z' = B^{-1} z^t B.  Built once per n as a tuple
    shared by clifford_involution and the spin check.

    sigma_S is the vacuum coefficient of the reversal of x_S l_1...l_2n applied
    to x_{full ^ S}: the reversed wedges give (-1)^{|S|(|S|-1)/2} x_S ^ x_{full ^ S},
    a signed top monomial, which l_1, ..., l_2n contract to 1 with sign +1.
    """
    return tuple((-1 if popcount(s) * (popcount(s) - 1) // 2 % 2 else 1) * eps
                 for s, eps in enumerate(_complement_signs(n)))


def _clifford_order(z):
    """n for a 4^n x 4^n matrix z, else ValueError."""
    n = z.shape[0].bit_length() // 2
    if z.shape != (1 << (2 * n), 1 << (2 * n)):
        raise ValueError(f"a Clifford element is a 4^n x 4^n matrix, not {z.shape}")
    return n


def clifford_involution(z):
    """The unique anti-automorphism of Cl(Lambda,Q) fixing Lambda pointwise."""
    z = xl.asmat(z)
    n = _clifford_order(z)
    # B^t z^t B relabels: z'[i, j] = sigma_c(i) sigma_c(j) z[c(j), c(i)], c(i) = full ^ i;
    # column c(i) of z read bottom up is column c(i) at rows c(0), c(1), ...
    sc = _involution_form(n)[::-1]
    return xl.mat([[x if si == sj else -x for sj, x in zip(sc, reversed(col))]
                   for si, col in zip(sc, reversed(list(zip(*z.rows))))])


# ---------------------------------------------------------------------------
# spin group membership


def _gather(cols):
    """The function that takes a row to the tuple of its entries at cols.
    itemgetter hands back one entry bare and takes no empty list, so those
    two sizes get a tuple of their own."""
    return itemgetter(*cols) if len(cols) > 1 else lambda row: tuple(row[j] for j in cols)


def _has_grade(rows, grade):
    """Is entry (i, j) zero wherever popcount(i) + popcount(j) does not have
    the parity of grade (0 even, 1 odd)?  The zero matrix has both grades.
    Each row's entries of the wrong parity are gathered by one call."""
    cols = [[], []]  # the columns of even and of odd popcount
    for j in range(len(rows[0]) if rows else 0):
        cols[popcount(j) & 1].append(j)
    # a row of popcount parity p reads the class 1 ^ p ^ grade
    gathers = [_gather(cols[1 ^ grade]), _gather(cols[grade])]
    return not any(any(gathers[popcount(i) & 1](row)) for i, row in enumerate(rows))


def _spin_conjugation(z):
    """Coefficient matrix R with z cor(e_k) z' = sum_i R[i,k] cor(e_i) when z
    is in Spin(Lambda,Q), else None.

    z is spin exactly when it is the module map of its rotation R: z cor(v) =
    cor(R v) z with R an integral Q-isometry, and z z' = 1.  Such a map is
    fixed by phi = z 1, column 0 of z: every cor(R l_i) kills phi, and column
    S of z is phi transported by the cor(R x_i), as in spin_lift.  Conversely
    a z built so intertwines R, since the cor(R e_k) satisfy the relations of
    the cor(e_k); so z z' commutes with every cor(R e_k) and is the scalar
    (z z')[0, 0].  R is read off row 0 and column 0 of z cor(e_k) z', where
    row a of z cor(e_k) is row a of z with its columns moved by cor(e_k).
    """
    z = xl.asmat(z)
    n = _clifford_order(z)  # first, as a shape that is not 4^n x 4^n is no Clifford element
    zr = z.num if z.den == 1 else z.rows
    if not _has_grade(zr, 0):
        raise NotEven("operator mixes the even/odd grading")
    d = 2 * n
    full = (1 << d) - 1
    units = [1 << i for i in range(d)]
    # z' is read only in column 0 and the unit columns: column j of z' is
    # row full ^ j of z read backwards, signed as in clifford_involution
    sc = _involution_form(n)[::-1]
    rev = {j: [x if si == sc[j] else -x for si, x in zip(sc, reversed(zr[full ^ j]))]
           for j in [0] + units}
    if sum(map(mul, zr[0], rev[0])) != 1:
        return None
    z0, rev0 = zr[0], rev[0]
    rev_units = [rev[unit] for unit in units]
    z_units = [zr[unit] for unit in units]
    r_cols = []
    for col in _generator_maps(n):
        # the nonzero entries of row 0 of z cor(e_k) and of column 0 of
        # cor(e_k) z', as their positions and their values
        top_at, top, bottom_at, bottom = [], [], [], []
        for m, term in enumerate(col):
            if term is None:
                continue
            image, sign = term
            if z0[image]:
                top_at.append(m)
                top.append(sign * z0[image])
            if rev0[m]:
                bottom_at.append(image)
                bottom.append(sign * rev0[m])
        # contraction l_{i+1}: x_{i+1} -> 1 (row 0); wedge x_{i+1}: 1 -> x_{i+1} (column 0)
        r_cols.append([sum(map(mul, top, map(v.__getitem__, top_at))) for v in rev_units]
                      + [sum(map(mul, bottom, map(v.__getitem__, bottom_at))) for v in z_units])
    r = xl.mat(zip(*r_cols))
    if not xl.is_integral(r):
        return None
    if not is_q_isometry(r):
        return None
    cols = [list(c) for c in zip(*r.num)]
    terms = _source_terms(n)
    zc = [list(c) for c in zip(*zr)]
    if any(any(_cor_apply(terms, _signed(u), zc[0])) for u in cols[:d]):
        return None
    # z is the transport of its column 0 by the cor(R x_i), compared column
    # by column: each column is built from one that has already been compared
    if any(col != z_col for col, z_col in zip(_transport_columns(terms, cols[d:], zc[0]), zc)):
        return None
    return r


@lru_cache(maxsize=1)
def _last_spin_conjugation(key):
    """_spin_conjugation of the matrix key = (den, ncols, rows), for rows a
    tuple of int row tuples.  It holds the last element checked, keyed by
    value, so is_spin and then r_of_z on equal entries run one check, while
    an element checked before another is checked again; an exception is
    raised again on every call, as lru_cache keeps no failed call."""
    den, ncols, rows = key
    return _spin_conjugation(xl._wrap(list(map(list, rows)), den, ncols))


def _spin_check(z):
    z = xl.asmat(z)
    return _last_spin_conjugation((z.den, z.ncols, tuple(map(tuple, z.num))))


def is_spin(z):
    """Membership in Spin(Lambda,Q): even, norm one, conjugation preserves Lambda."""
    return _spin_check(z) is not None


def r_of_z(z):
    """The conjugation action on Lambda of a spin element; lies in SO(Q).  A
    new matrix on each call, so the one the check keeps is never handed out."""
    r = _spin_check(z)
    if r is None:
        raise NotSpin("element is not in Spin(Lambda,Q)")
    return r.copy()


# ---------------------------------------------------------------------------
# the canonical module isomorphism beta


def pure_spinor(n, vectors):
    """The vacuum of L = span(vectors), the line that every cor(m) with m in L
    kills, as a primitive integral {mask: coeff} dict.  It works in the
    standard realization, where the module coordinates of a vector of Lambda
    are the vector itself.

    The vectors come from the caller, so this checks, in this order, that
    each has 4n entries (ValueError), that they span 2n dimensions
    (NoIntertwiner) and that Q vanishes on them (NotIsotropic); _vacuum then
    builds the line.
    """
    vectors = [list(v) for v in vectors]
    for v in vectors:
        # a vector of Lambda has 4n coordinates; zip would drop or ignore the rest
        if len(v) != 4 * n:
            raise ValueError(f"a vector of Lambda has {4 * n} entries for n = {n}, "
                             f"not {len(v)}")
    basis = _span_basis(n, vectors)
    if not is_isotropic(vectors):
        raise NotIsotropic("Q does not vanish on the vectors")
    return {m: x for m, x in enumerate(_vacuum(n, vectors, basis)) if x}


def _span_basis(n, vectors):
    """The fraction-free echelon basis {pivot: int row} of the span of the
    vectors of Lambda, contraction part first; NoIntertwiner unless it has
    2n rows."""
    ech = xl.Echelon()
    for v in vectors:
        ech.add({j: x for j, x in enumerate(v) if x})
    basis = ech.int_rows
    if len(basis) != 2 * n:
        raise NoIntertwiner(f"the vectors span {len(basis)} dimensions, not {2 * n}")
    return basis


def _vacuum(n, vectors, basis):
    """The primitive integral vacuum of the Lagrangian L = span(vectors), a
    dense int list over the 4^n monomials, from the echelon basis of L that
    _span_basis gives.  Q must vanish on L (the caller's to check).

    It is Chevalley's pure spinor exp(B) ^ theta_1 ^ ... ^ theta_k.  A row of
    the basis with its pivot c_a > 0 in contraction column r_a is c_a u_a,
    with u_a = (p_a, x_a) 1 at r_a and 0 at the other pivots; the rows with
    their pivot in the wedge part span L & W, and their wedge parts are
    positive multiples of the theta's.  B = sum_{a<b} -x_a(p_b) x_{r_a} ^
    x_{r_b} has i_{p_a} B = -x_a modulo the theta's (Q vanishes on L), so
    cor(u_a) kills exp(B) ^ theta.  That every cor(m), m a vector, kills the
    result is checked: RuntimeError if not.
    """
    d = 2 * n
    pivots = sorted(basis)
    theta = {0: 1}
    for p in pivots:
        if p >= d:
            theta = wedge(theta, {1 << (j - d): x for j, x in basis[p].items()})
    rows = [(p, basis[p]) for p in pivots if p < d]
    # the coefficients of B as int pairs: x_a(p_b) = pairing / (c_a c_b)
    two_form = {}
    for a, (ra, ua) in enumerate(rows):
        for rb, ub in rows[a + 1:]:
            pairing = sum(x * ub.get(j - d, 0) for j, x in ua.items() if j >= d)
            if pairing:
                two_form[1 << ra | 1 << rb] = (-pairing, ua[ra] * ub[rb])
    # exp(B) is total / den with den > 0, so total ^ theta spans phi's ray
    q = lcm(*(c for _, c in two_form.values()))
    _, total = _scaled_exp({m: x * (q // c) for m, (x, c) in two_form.items()}, q)
    phi = wedge(total, theta)
    phi = [phi.get(m, 0) for m in range(1 << d)]
    g = gcd(*phi)
    phi = [x // g for x in phi]
    terms = _source_terms(n)
    for v in vectors:
        if any(_cor_apply(terms, _signed(v), phi)):
            raise RuntimeError("pure spinor: cor(m) phi = 0 fails for a vector m of L")
    return phi


def _sign_normalize(m):
    # den > 0, so the first nonzero entry has the sign of its numerator
    for row in m.num:
        for x in row:
            if x != 0:
                return m if x > 0 else -m
    return m


def spin_lift(g):
    """The lift of an integral Q-isometry g of Lambda to the spinor module: the
    primitive integral 4^n x 4^n matrix z with z cor(mu) = cor(g mu) z for
    every mu in Lambda, unique up to sign, sign-normalized so that the first
    nonzero entry in row-major order is positive.

    g comes from the caller, so this checks it: FormMismatch when g is not an
    integral 4n x 4n matrix with g^t Q g = Q.  _lift then builds z with no
    further check on g, as the columns of a Q-isometry are independent and
    its first 2n columns isotropic.
    """
    g = xl.asmat(g)
    n = g.shape[0] // 4
    if g.shape != (4 * n, 4 * n):
        raise FormMismatch(f"a map of Lambda is a 4n x 4n matrix, not {g.shape}")
    if not xl.is_integral(g):
        raise FormMismatch("the map of Lambda is not integral")
    if not is_q_isometry(g):
        raise FormMismatch("the map of Lambda does not preserve Q")
    return _lift(g)


def _lift(g):
    """spin_lift of a 4n x 4n Matrix g that is known to be an integral
    Q-isometry, by vacuum transport: z sends the vacuum, the line that the
    cor(l_i) kill, to the vacuum of the columns g l_i, and x_S =
    cor(x_{s_1}) ... cor(x_{s_k}) 1 to cor(g x_{s_1}) ... cor(g x_{s_k}) of it.
    """
    n = len(g.num) // 4
    d = 2 * n
    cols = [list(c) for c in zip(*g.num)]
    lagrangian = cols[:d]
    # integral, and primitive since column 0 is the primitive vacuum
    return _sign_normalize(_transport(_source_terms(n), cols[d:],
                                      _vacuum(n, lagrangian, _span_basis(n, lagrangian))))


def beta_iso(s1, s2):
    """The unique-up-to-sign Cl-module isomorphism between the two spinor
    realizations, as a primitive integral matrix (module of s1 -> module of s2),
    sign-normalized so the first nonzero entry in row-major order is positive.

    With cor_s(lambda) = cor(w_s^-1 lambda), beta cor_{s1}(lambda) =
    cor_{s2}(lambda) beta says that beta is the lift of h = w_2^-1 w_1.  Each
    IsotropicSplitting has checked its halves and built w with w^t Q w = Q and
    w_inv = Q w^t Q, both integral, so h is an integral Q-isometry with no
    test here, and _lift builds its lift directly.
    """
    return _lift(xl.mul(s2.w_inv, s1.w))


def _meet_dim(s1, s2):
    """dim(M1 & M1') for the halves M1 = s1.basis1 and M1' = s2.basis1.

    Both are Lagrangian (IsotropicSplitting has checked it), so M1'^perp =
    M1', and the kernel of the pairing M1 -> Hom(M1', Z), the 2n x 2n matrix
    B1'^t Q B1, is M1 & M1'.
    """
    d = 2 * s1.n
    return d - xl.rank(xl.from_int_rows(q_gram(s2.basis1.T.num, s1.basis1.T.num), d))


def beta_parity(t, s1, s2):
    """Even/Odd per the grading of t; cross-checked against the intersection
    dimension of the two M1 halves mod 2.  ValueError unless both splittings
    have the same n and t is 4^n x 4^n."""
    t = xl.asmat(t)
    if s1.n != s2.n:
        raise ValueError(f"the splittings have sizes n = {s1.n} and n = {s2.n}")
    size = 1 << (2 * s1.n)
    if t.shape != (size, size):
        raise ValueError(f"an intertwiner for n = {s1.n} is {size}x{size}, "
                         f"not {t.shape[0]}x{t.shape[1]}")
    num = t.num
    first = next(((i, j) for i, row in enumerate(num) for j, x in enumerate(row) if x), None)
    if first is None:
        raise MixedParity("intertwiner is not graded")
    grade = popcount(first[0] ^ first[1]) & 1
    if not _has_grade(num, grade):
        raise MixedParity("intertwiner is not graded")
    if (grade == 0) != (_meet_dim(s1, s2) % 2 == 0):
        raise MixedParity("grading parity disagrees with the intersection rank")
    return "Odd" if grade else "Even"
