"""Shared fixtures, random generators and reference operators for the test
suite.

All sampling is driven by a single PRNG seeded from TORUS_MIRROR_SEED
(default 20260823) so runs are reproducible.  Hypothesis property tests run
under the "torusmirror" profile: derandomized and without an example
database, so they draw the same examples on every run.

Every test runs under a time limit of TIME_LIMIT_S seconds: past it, the
run stops with the traceback of every thread, so a test caught in an
endless loop ends the run instead of waiting for an outer timeout.
"""

import faulthandler
import os
import random
from fractions import Fraction
from itertools import combinations, product
from math import factorial, floor
from operator import mul

import numpy as np
import pytest
from hypothesis import settings

from torusmirror import corresp as cp
from torusmirror import exactlin as xl
from torusmirror import lefschetz as lf
from torusmirror.clifford import (IsotropicSplitting, SpinVec, _check_masks, _cor_apply,
                                  _generator_maps, _merge_sign, _sign_normalize, _signed,
                                  _source_terms, exterior_exp, popcount, wedge)
from torusmirror.errors import (FormMismatch, NoHardLefschetz, NoIntertwiner, NotInvertible,
                                NotIsotropic, SingularMatrix)
from torusmirror.mirror import WellBecomingWitness
from torusmirror.pairspace import i_omega, make_weak_pair, q_gram, q_left
from torusmirror.siegel import blocks
from torusmirror.torus import NSVector, make_torus, ns_basis

SEED = int(os.environ.get("TORUS_MIRROR_SEED", "20260823"))

settings.register_profile("torusmirror", derandomize=True, database=None)
settings.load_profile("torusmirror")

# 10 to 13 times the slowest test, 4.7 to 5.8 s (pytest --durations, 2 cores)
TIME_LIMIT_S = 60

# a copy of the terminal's stderr, taken in pytest_configure, when output is
# not captured: a test's captured output is lost when the limit ends the run
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.fixture(autouse=True)
def time_limit(request):
    faulthandler.dump_traceback_later(TIME_LIMIT_S, exit=True, file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng():
    return random.Random(SEED)


def rand_unimodular(rng, k, steps=6, bound=2):
    """Random element of GL_k(Z) as a product of elementary operations."""
    m = xl.eye(k)
    for _ in range(steps):
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        kind = rng.randrange(3)
        if kind == 0 and i != j:
            c = rng.randint(-bound, bound)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif kind == 1:
            m[[i, j]] = m[[j, i]]
        else:
            m[i] = [-a for a in m[i]]
    return m


def rand_symmetric_invertible(rng, k, bound=3):
    while True:
        a = np.array([[rng.randint(-bound, bound) for _ in range(k)]
                      for _ in range(k)], dtype=object)
        s = a + a.T
        for i in range(k):
            s[i, i] += rng.choice([-1, 1]) * rng.randint(1, bound)
        if xl.det(s) != 0:
            return s


def rand_rational(rng, den_bound=4, num_bound=5, nonzero=False):
    while True:
        q = Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
        if q != 0 or not nonzero:
            return q


def split_complex_structure(g, b):
    """J = [[0, b], [-b^{-1}, 0]] preserves phi = [[0, g], [-g, 0]] when g.b is
    symmetric; both off-diagonal blocks are invertible by construction."""
    k = g.shape[0]
    z = xl.zeros(k)
    return np.block([[z, b], [-xl.invert(b), z]])


def split_form(g):
    k = g.shape[0]
    z = xl.zeros(k)
    return np.block([[z, g], [-g, z]])


def well_becoming_sample(rng, n):
    """A random well-becoming weak pair together with its witness."""
    g = rand_symmetric_invertible(rng, n)
    s = rand_symmetric_invertible(rng, n)
    b = xl.mul(xl.invert(g), np.array([[Fraction(x) for x in row] for row in s],
                                      dtype=object))
    j0 = split_complex_structure(g, b)
    phi0 = split_form(g)
    t1 = rand_rational(rng)
    t2 = rand_rational(rng, nonzero=True)
    t = rand_unimodular(rng, 2 * n)
    t_inv = xl.to_int(xl.invert(t))
    A = make_torus(n, xl.mul(t_inv, xl.mul(j0, t)))
    phi = xl.mul(t.T, xl.mul(phi0, t))
    p = make_weak_pair(A, t1 * phi, t2 * phi)
    w = WellBecomingWitness([t_inv[:, i] for i in range(n)],
                            [t_inv[:, n + i] for i in range(n)])
    return p, w


def weak_pair_sample(rng, n):
    return well_becoming_sample(rng, n)[0]


def gaussian_torus(rng, n):
    """C/Z[i]^n, the product of n square elliptic curves, in a random basis
    of Gamma, with its principal polarization in that basis."""
    j0, pol = xl.zeros(2 * n), xl.zeros(2 * n)
    for i in range(0, 2 * n, 2):
        j0[i, i + 1], j0[i + 1, i] = -1, 1
        pol[i, i + 1], pol[i + 1, i] = 1, -1
    t = rand_unimodular(rng, 2 * n)
    A = make_torus(n, xl.mul(xl.to_int(xl.invert(t)), xl.mul(j0, t)))
    return A, xl.mul(t.T, xl.mul(pol, t))


def rand_ns_form(rng, basis):
    """A random rational combination of the NS classes in basis."""
    c = xl.zeros(basis[0].c.shape[0])
    for v in basis:
        c = c + rand_rational(rng) * v.c
    return c


def gaussian_pair(rng, n):
    """A weak pair on a Gaussian torus with phi1 and phi2 drawn independently
    from the rational NS classes; phi2 gets a random multiple (0 or +-8) of the
    principal polarization, so that definite phi2 occur at every n."""
    A, pol = gaussian_torus(rng, n)
    basis = ns_basis(A)
    while True:
        phi2 = rand_ns_form(rng, basis) + rng.choice([-8, 0, 8]) * pol
        if xl.det(phi2) != 0:
            return make_weak_pair(A, rand_ns_form(rng, basis), phi2)


def q_matrix(n):
    """The hyperbolic form Q on Lambda = Gamma + Gamma* as the matrix
    [[0, 1], [1, 0]] in blocks of size 2n, built with xl.block: the library
    never multiplies by Q, so the identities checked with it stay independent
    of pairspace's half swaps."""
    d = 2 * n
    z, e = xl.zeros(d), xl.eye(d)
    return xl.block([[z, e], [e, z]])


def jprod_matrix(A):
    """The product complex structure J + (-J^T) on Lambda, built with
    xl.block from the torus's J rather than read from the torus."""
    z = xl.zeros(2 * A.n)
    return xl.block([[A.J, z], [z, -A.J.T]])


def e_form(p):
    """Gram matrix of Q(c . , .) on Lambda with c = Jprod * I_omega: the
    classification of a pair read off Lambda, the reference for classify_pair."""
    c = xl.mul(jprod_matrix(p.torus), i_omega(p))
    e = xl.mul(c.T, q_matrix(p.torus.n))
    assert xl.mat_eq(e, e.T)
    return e


def classify_by_e_form(p):
    """The tag of p by Sylvester's criterion on the symmetric e_form and on
    its negative."""
    e = e_form(p)
    if xl.definiteness(e) == 1:
        return "AlgebraicPlus"
    if xl.definiteness(-e) == 1:
        return "AlgebraicMinus"
    return "WeakOnly"


def rand_q_isometry(rng, n, steps=4):
    """Random integral isometry of (Lambda, Q) as a word in standard generators."""
    d = 2 * n
    q = q_matrix(n)
    g = xl.eye(2 * d)
    for _ in range(steps):
        kind = rng.randrange(4)
        step = xl.eye(2 * d)
        if kind == 0:
            eta = rand_skew(rng, d)
            step[d:, :d] = eta
        elif kind == 1:
            eta = rand_skew(rng, d)
            step[:d, d:] = eta
        elif kind == 2:
            u = rand_unimodular(rng, d, steps=3)
            step[:d, :d] = u
            step[d:, d:] = xl.to_int(xl.invert(u)).T
        else:
            step = xl.zeros(2 * d)
            step[:d, d:] = xl.eye(d)
            step[d:, :d] = xl.eye(d)
        g = xl.mul(g, step)
    assert xl.mat_eq(xl.mul(g.T, xl.mul(q, g)), q)
    return g


def commutes_with_i_omega(g, p):
    """g I_omega = I_omega g for the weak pair p: g fixes omega."""
    iw, g = i_omega(p), xl.asmat(g)
    return xl.mat_eq(xl.mul(g, iw), xl.mul(iw, g))


def siegel_act_by_real_form(g, omega):
    """siegel_act as it once was: the blocks of g, four products and two sums
    for the real and imaginary parts of D = a + b.omega and N = c + d.omega,
    and the real-form system [[Dr^T, -Di^T], [Di^T, Dr^T]] [Xr^T; Xi^T] =
    [Nr^T; Ni^T] assembled by block from their transposes."""
    phi1, phi2 = xl.asmat(omega[0]), xl.asmat(omega[1])
    a, b, c, d = blocks(g)
    num = xl.block([[(c + xl.mul(d, phi1)).T], [xl.mul(d, phi2).T]])
    den_re, den_im = (a + xl.mul(b, phi1)).T, xl.mul(b, phi2).T
    try:
        x = xl.solve_right(xl.block([[den_re, -den_im], [den_im, den_re]]), num)
    except SingularMatrix:
        raise NotInvertible("a + b.omega is singular over Q(i)")
    re, im = x[:x.ncols].T, x[x.ncols:].T
    if not (xl.is_skew(re) and xl.is_skew(im)):
        raise FormMismatch("g.omega is not skew; g is not a Q-isometry of Lambda")
    return re, im


def rand_skew(rng, k, bound=2):
    m = xl.zeros(k)
    for i in range(k):
        for j in range(i + 1, k):
            v = rng.randint(-bound, bound)
            m[i, j] = v
            m[j, i] = -v
    return m


def standard_splitting(n):
    """The splitting Lambda = Gamma + Gamma* itself: the isotropic splitting
    of the standard basis of Lambda."""
    e = xl.eye(4 * n).rows
    return IsotropicSplitting(n, e[:2 * n], e[2 * n:])


def q_right(m):
    """m.Q for the hyperbolic form Q: m with its column halves swapped, in
    new row lists.  The library reads its inverses Q w^T Q off int rows;
    this is the matrix route they are checked against."""
    out = xl.asmat(m).copy()
    h = out.ncols // 2
    out.num = [row[h:] + row[:h] for row in out.num]
    return out


def splitting_by_blocks(basis1, basis2):
    """basis1, basis2, w and w_inv of IsotropicSplitting(n, basis1, basis2),
    for two isotropic halves, built as matrices: the Q-dual basis P^-1 basis2
    of basis1 for the pairing P, the transposes, w = (basis1 | basis2) by
    block, and w_inv = Q w^t Q by the Q half swaps."""
    rows1, rows2 = xl.mat(basis1), xl.mat(basis2)
    dual = xl.mul(xl.invert(q_gram(rows2.num, rows1.num)), rows2)
    w = xl.block([[rows1.T, dual.T]])
    return {"basis1": rows1.T, "basis2": dual.T, "w": w, "w_inv": q_left(q_right(w.T))}


def is_isotropic_by_gram(vs):
    """Does Q vanish on the vectors vs?  Every entry of their Gram square."""
    return not any(map(any, q_gram(vs, vs)))


def has_grade_by_entries(rows, grade):
    """Is entry (i, j) zero wherever popcount(i) + popcount(j) does not have
    the parity of grade?  Each wrong-parity entry read by its own index."""
    cols = [[], []]
    for j in range(len(rows[0]) if rows else 0):
        cols[popcount(j) & 1].append(j)
    return not any(any(row[j] for j in cols[1 ^ (popcount(i) & 1) ^ grade])
                   for i, row in enumerate(rows))


def rand_splitting(rng, n, steps=4):
    g = rand_q_isometry(rng, n, steps)
    return IsotropicSplitting(n, [g[:, i] for i in range(2 * n)],
                              [g[:, 2 * n + i] for i in range(2 * n)])


def rand_unit_pairing_vector(rng, n, norm):
    """Integer (l, x) in Lambda with l^t x = norm (so cor(v)^2 = norm)."""
    d = 2 * n
    while True:
        l = [rng.randint(-2, 2) for _ in range(d)]
        if l[0] == 0:
            l[0] = rng.choice([-1, 1])
        x = [rng.randint(-2, 2) for _ in range(d)]
        rest = sum(a * b for a, b in zip(l[1:], x[1:]))
        num = norm - rest
        if num % l[0] == 0:
            x[0] = num // l[0]
            return np.array(l + x, dtype=object)


def rand_spin(rng, n, pairs=2):
    """Random spin element as a product of 2*pairs unit-norm generators."""
    size = 1 << (2 * n)
    z = xl.eye(size)
    for _ in range(pairs):
        eps = rng.choice([-1, 1])
        for _ in range(2):
            v = rand_unit_pairing_vector(rng, n, eps)
            z = xl.mul(z, cor_matrix_by_columns(n, v))
    return z


# ---------------------------------------------------------------------------
# elimination over Q with a leading 1 in every row, the reference for the
# fraction-free exactlin.Echelon and its Bareiss det


def _subtract_multiple(row, f, other):
    """row -= f * other on sparse rows, in place; entries that cancel are dropped."""
    for c, v in other.items():
        nv = row.get(c, 0) - f * v
        if nv == 0:
            row.pop(c, None)
        else:
            row[c] = nv


class FractionEchelon:
    """Incremental Gaussian elimination over Q on sparse rows.

    A row is a dict {column: value} of nonzero entries.  `rows` maps each
    pivot column, in the order the pivots were found, to its fully reduced
    row: 1 at the pivot and 0 in every other pivot column.  `product` is the
    product of the pivot entries of the added rows before normalization; for
    the rows of a nonsingular square matrix added in order,
    det = sign(pivot order) * product.
    """

    def __init__(self):
        self.rows = {}
        self.product = Fraction(1)

    def reduce(self, row):
        """What is left of row after clearing every pivot column; {} if
        row lies in the span of the rows added."""
        row = dict(row)
        for q in [c for c in row if c in self.rows]:
            _subtract_multiple(row, row[q], self.rows[q])
        return row

    def add(self, row):
        """Add row to the span; False, changing nothing, if it is in it already."""
        row = self.reduce(row)
        if not row:
            return False
        p = min(row)
        lead = row[p]
        inv = Fraction(1) / lead
        row = {c: v * inv for c, v in row.items()}
        for other in self.rows.values():
            if p in other:
                _subtract_multiple(other, other[p], row)
        self.rows[p] = row
        self.product *= lead
        return True

    def kernel(self, ncols):
        """Basis of the right kernel, one vector per free column j, with 1 at j."""
        basis = []
        for j in range(ncols):
            if j in self.rows:
                continue
            v = [0] * ncols
            v[j] = Fraction(1)
            for p, row in self.rows.items():
                c = row.get(j, 0)
                if c != 0:
                    v[p] = -c
            basis.append(v)
        return basis


def fraction_echelon(rows):
    """FractionEchelon of dense rows, added top to bottom."""
    ech = FractionEchelon()
    for row in rows:
        ech.add({j: x for j, x in enumerate(row) if x})
    return ech


def fraction_solve_right(a, b):
    """a^-1 b read off the reference elimination of [a | b]; None if a is singular."""
    a, b = xl.asmat(a), xl.asmat(b)
    n = len(a.rows)
    ech = fraction_echelon(ra + rb for ra, rb in zip(a.rows, b.rows))
    if sorted(ech.rows) != list(range(n)):
        return None
    x = xl.zeros(n, b.ncols)
    for p, row in ech.rows.items():
        for c, v in row.items():
            if c >= n:
                x[p, c - n] = v
    return x


def gauss_jordan_solve(a, b):
    """a^-1 b by Gauss-Jordan elimination on dense rows of Fractions, with a
    row swap wherever a pivot is 0; raises SingularMatrix with the messages
    of exactlin.solve_right."""
    a, b = xl.asmat(a), xl.asmat(b)
    n, m = a.shape[0], b.ncols
    if a.ncols != n:
        raise SingularMatrix("matrix not square")
    rows = [[Fraction(x) for x in ra + rb] for ra, rb in zip(a.rows, b.rows)]
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            raise SingularMatrix("matrix is singular")
        rows[k], rows[p] = rows[p], rows[k]
        top = [x / rows[k][k] for x in rows[k]]
        rows[k] = top
        for i in range(n):
            if i != k and rows[i][k]:
                f = rows[i][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
    return [row[n:] for row in rows] if n else []


def fraction_det(m):
    """det as the signed product of the pivots of the reference elimination."""
    m = xl.asmat(m)
    n = len(m.rows)
    ech = fraction_echelon(m.rows)
    if len(ech.rows) < n:
        return Fraction(0)
    order = list(ech.rows)
    inversions = sum(1 for i in range(n) for j in range(i + 1, n) if order[i] > order[j])
    return -ech.product if inversions % 2 else ech.product


def smith_normal_form(m):
    """(U, D, V) with U m V = D diagonal with a divisibility chain and U, V
    unimodular, from exactlin._smith recording both U and V."""
    d = xl.to_int(m)
    u, v = xl.eye(d.shape[0]), xl.eye(d.shape[1])
    xl._smith(d.num, u.num, v.num)
    return u, d, v


def min_entry_by_full_scan(d, lo):
    """exactlin._min_entry scanning every entry, with no stop at |value| 1:
    the first minimal-|value| nonzero entry of d[lo:, lo:], row by row."""
    best, best_abs = None, None
    for i in range(lo, len(d)):
        row = d[i]
        for j in range(lo, len(row)):
            x = row[j]
            if x != 0 and (best is None or abs(x) < best_abs):
                best, best_abs = (i, j), abs(x)
    return best


def smith_by_full_scans(d, ur, vr=None):
    """exactlin._smith with min_entry_by_full_scan and a divisibility scan
    after every pivot, a pivot +-1 included, the reference for its stops."""
    n_rows, n_cols = len(d), len(d[0]) if d else 0
    col_rows = (d,) if vr is None else (d, vr)
    k = 0
    while True:
        pos = min_entry_by_full_scan(d, k)
        if pos is None:
            break
        i, j = pos
        if i != k:
            d[k], d[i] = d[i], d[k]
            ur[k], ur[i] = ur[i], ur[k]
        if j != k:
            for rows in col_rows:
                for row in rows:
                    row[k], row[j] = row[j], row[k]
        dirty = False
        for r in range(k + 1, n_rows):
            if d[r][k] != 0:
                q = d[r][k] // d[k][k]
                d[r] = [x - q * y for x, y in zip(d[r], d[k])]
                ur[r] = [x - q * y for x, y in zip(ur[r], ur[k])]
                if d[r][k] != 0:
                    dirty = True
        for c in range(k + 1, n_cols):
            if d[k][c] != 0:
                q = d[k][c] // d[k][k]
                for rows in col_rows:
                    for row in rows:
                        row[c] -= q * row[k]
                if d[k][c] != 0:
                    dirty = True
        if dirty:
            continue
        off = next(((r, c) for r in range(k + 1, n_rows) for c in range(k + 1, n_cols)
                    if d[r][c] % d[k][k] != 0), None)
        if off is not None:
            d[k] = [x + y for x, y in zip(d[k], d[off[0]])]
            ur[k] = [x + y for x, y in zip(ur[k], ur[off[0]])]
            continue
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            ur[k] = [-x for x in ur[k]]
        k += 1
        if k == min(n_rows, n_cols):
            break


# ---------------------------------------------------------------------------
# matrices as lists of rows of ints and Fractions, the reference for
# exactlin.Matrix held as one integer matrix over one denominator


def fraction_mul(a, b):
    """a @ b for row lists of ints and Fractions, entry by entry."""
    b_rows = [[(j, v) for j, v in enumerate(row) if v] for row in b]
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for k, x in enumerate(row):
            if x:
                for j, v in b_rows[k]:
                    acc[j] += x * v
        out.append(acc)
    return out


def fraction_add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def fraction_sub(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def fraction_mat_eq(a, b):
    """Equal shapes and equal entries, an int equal to an integral Fraction."""
    return ([len(row) for row in a] == [len(row) for row in b]
            and all(x == y for r, s in zip(a, b) for x, y in zip(r, s)))


# ---------------------------------------------------------------------------
# the bit-loop merge sign, the reference for clifford._merge_sign


def merge_sign_by_bits(m1, m2):
    """Sign of sorting x_{m1} ^ x_{m2} (disjoint masks) into ascending order:
    each bit of m2 moves left past the bits of m1 above it."""
    sign = 1
    rem = m2
    while rem:
        bit = (rem & -rem).bit_length() - 1
        if bin(m1 >> (bit + 1)).count("1") % 2:
            sign = -sign
        rem &= rem - 1
    return sign


def wedge_by_pairs(a, b):
    """Exterior product with one merge_sign_by_bits per pair of terms, the
    reference for clifford.wedge."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if not m1 & m2:
                out[m1 | m2] = out.get(m1 | m2, 0) + merge_sign_by_bits(m1, m2) * c1 * c2
    return {m: c for m, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# the one-generator operators bit by bit, the references for the generator
# maps clifford._generator_maps


def sign_below(mask, bit):
    """(-1)^{number of set bits of mask strictly below bit}."""
    return -1 if popcount(mask & ((1 << bit) - 1)) % 2 else 1


def wedge_apply(n, j, vec):
    """Wedge with x_j (1-based) on a coefficient dict."""
    out = {}
    bit = j - 1
    for m, c in vec.items():
        if not m & (1 << bit):
            out[m | (1 << bit)] = out.get(m | (1 << bit), 0) + sign_below(m, bit) * c
    return out


def contract_apply(n, i, vec):
    """Contraction with l_i (1-based) on a coefficient dict."""
    out = {}
    bit = i - 1
    for m, c in vec.items():
        if m & (1 << bit):
            out[m ^ (1 << bit)] = out.get(m ^ (1 << bit), 0) + sign_below(m, bit) * c
    return out


def cor_action(lambda_vec, v):
    """cor((l, x))(v) = contraction by l plus wedge by x."""
    n = v.n
    d = 2 * n
    out = {}
    for m, c in v.coeffs.items():
        for i in range(d):
            a = lambda_vec[i]
            if a != 0 and m & (1 << i):
                key = m ^ (1 << i)
                out[key] = out.get(key, 0) + a * sign_below(m, i) * c
        for j in range(d):
            b = lambda_vec[d + j]
            if b != 0 and not m & (1 << j):
                key = m | (1 << j)
                out[key] = out.get(key, 0) + b * sign_below(m, j) * c
    return SpinVec(n, out)


def cor_matrix_by_columns(n, lambda_vec):
    """The spinor matrix of cor(lambda) in standard coordinates: each column
    is cor_action on one monomial."""
    size = 1 << (2 * n)
    out = xl.zeros(size)
    for m in range(size):
        for key, c in cor_action(lambda_vec, SpinVec(n, {m: 1})).coeffs.items():
            out[key, m] = c
    return out


# ---------------------------------------------------------------------------
# the realization of a splitting: module coordinates w^-1 lambda


def splitting_coords(s, lambda_vec):
    """The module coordinates of a Lambda-vector in the realization of the
    splitting s, w^-1 lambda for w = (basis1 | basis2)."""
    return [sum(map(mul, row, lambda_vec)) for row in s.w_inv.num]


def splitting_cor(s, lambda_vec):
    """cor_s(lambda) = cor(w^-1 lambda), the spinor matrix of lambda in the
    realization of the splitting s."""
    return cor_matrix_by_columns(s.n, splitting_coords(s, lambda_vec))


# ---------------------------------------------------------------------------
# the vacuum as a common kernel, the reference for clifford.pure_spinor


def vacuum_kernel(s1, annihilators):
    """Common kernel of cor_{s1}(m) over the given Lambda-vectors; the rows of
    each cor_{s1}(m) go into the elimination as sparse rows."""
    ech = xl.Echelon()
    for m in annihilators:
        for row in splitting_cor(s1, m).rows:
            ech.add({c: v for c, v in enumerate(row) if v != 0})
    return ech.kernel(1 << (2 * s1.n))


def beta_iso_by_kernel(s1, s2):
    """beta_iso with its vacuum found as the one-dimensional common kernel in
    module 2 of the annihilators M1(s1), then transported the same way."""
    n = s1.n
    size = 1 << (2 * n)
    kernel = vacuum_kernel(s2, [s1.basis1[:, i] for i in range(2 * n)])
    if len(kernel) != 1:
        raise NoIntertwiner(f"vacuum kernel has dimension {len(kernel)}")
    terms = _source_terms(n)
    wedges = [_signed(splitting_coords(s2, s1.basis2[:, i])) for i in range(2 * n)]
    cols = [xl.primitive_int([kernel[0]]).rows[0]]
    for t_mask in range(1, size):
        low = (t_mask & -t_mask).bit_length() - 1
        cols.append(_cor_apply(terms, wedges[low], cols[t_mask ^ (1 << low)]))
    return _sign_normalize(xl.primitive_int(xl.mat(cols).T))


# ---------------------------------------------------------------------------
# the cor diagram by Kunneth products, the reference for corresp.verify_cor_diagram


def mu_expand(n, factors, p1_sign):
    """Product over j in factors of (p2*(x_j) + p1_sign * p1*(x_j)) by pc_mul."""
    acc = cp.ProductClass(n, n, {(0, 0): 1})
    for j in factors:
        lin = cp.ProductClass(n, n, {(0, 1 << j): 1, (1 << j, 0): p1_sign})
        acc = cp.pc_mul(acc, lin)
    return acc


def kernel_class_by_map(n, col):
    """The kernel class of the generator map col, by product_class_from_map."""
    images = {s: {image[0]: image[1]} for s, image in enumerate(col) if image}
    return cp.product_class_from_map(n, n, images)


def kernel_class(n, col, eps):
    """The kernel class of the generator map col (col[s] = (row, sign), or None
    for zero) on combined masks, as product_class_from_map builds it: sign
    times eps[full ^ s] (-1)^{|row||s|} at (full ^ s) | row << 2n, where the
    Koszul factor is 1, since |row| = |s| +- 1."""
    d = 2 * n
    full = (1 << d) - 1
    return {(full ^ s) | image[0] << d: image[1] * eps[full ^ s]
            for s, image in enumerate(col) if image}


def diagram_classes_by_products(n, p1_sign):
    """(k, class) for each class of the cor diagram, built by pc_mul, with the
    generator k whose kernel class it must be."""
    d = 2 * n
    top = mu_expand(n, range(d), p1_sign)
    for i in range(d):
        yield d + i, cp.pc_mul(cp.ProductClass(n, n, {(1 << i, 0): 1}), top)
        second = mu_expand(n, [j for j in range(d) if j != i], p1_sign)
        yield i, cp.ProductClass(n, n, {k: (-1) ** i * c for k, c in second.coeffs.items()})


def diagram_classes_by_dicts(n, p1_sign, eps):
    """(k, class) for each class of the cor diagram on combined masks
    s | t << 2n, zero terms left out: a dict per class from the keys and
    terms of corresp._diagram_layout(n), the reference for the tuple
    comparison of corresp.verify_cor_diagram.

    The term of top = prod_j (p2*(x_j) + p1_sign p1*(x_j)) that takes p1*(x_j)
    for j in T is p1_sign^|T| eps[T] on T | (full ^ T) << 2n, read from a
    table of p1_sign^k for k <= 2n, one entry per mask, and its negatives."""
    counts, classes = cp._diagram_layout(n)
    powers = [p1_sign ** k for k in range(2 * n + 1)]
    signed = _signed(list(map(mul, map(powers.__getitem__, counts), eps)))
    for k, keys, terms, _expected in classes:
        cls = dict(zip(keys, terms(signed)))
        if not p1_sign:  # p1_sign^|T| vanishes for every T but 0
            cls = {key: c for key, c in cls.items() if c}
        yield k, cls


def verify_cor_diagram_by_dicts(n, mu_p1_sign=-1):
    """verify_cor_diagram with each class a dict, compared whole with the
    kernel class of its generator."""
    kernels = cp._kernel_classes(n)
    return all(kernels[k] == cls
               for k, cls in diagram_classes_by_dicts(n, mu_p1_sign, cp._complement_signs(n)))


def push_forward_by_merge_signs(xi, v):
    """push_forward_correspondence with one _merge_sign of the whole term
    s | t << 2n against v's term per term, the reference for its sign from
    the complement-sign table."""
    out = {}
    shift = 2 * xi.n
    full = (1 << shift) - 1
    for (s, t), c in xi.coeffs.items():
        sv = full ^ s
        if sv in v.coeffs:
            out[t] = out.get(t, 0) + _merge_sign(s | t << shift, sv) * c * v.coeffs[sv]
    return SpinVec(xi.m, out)


def product_class_from_map_by_merge_signs(n, m, images):
    """product_class_from_map with one _merge_sign of the whole term
    (full ^ alpha) | vmask << 2n against alpha per term, the reference for
    its sign from the complement-sign table; the same masks are rejected."""
    _check_masks(images, n)
    _check_masks(set().union(*images.values()), m, "m")
    full = (1 << (2 * n)) - 1
    out = {}
    for alpha, image in images.items():
        comp = full ^ alpha
        for vmask, c in image.items():
            sign = _merge_sign(comp | vmask << (2 * n), alpha)
            out[(comp, vmask)] = out.get((comp, vmask), 0) + c * sign
    return cp.ProductClass(n, m, out)


def xi_by_exponential(n):
    """tau ^ exp(s D) by pc_exp and pc_mul, the reference for
    corresp.xi_from_mirror: tau is the kernel class of x_low ^ x_R -> sign x_R
    for R a subset of {n+1..2n}, and D = sum_{i<=n} p*(x_i) ^ q*(x_i)."""
    low = (1 << n) - 1
    tau_sign = (-1) ** ((n * (n - 1) // 2) % 2)
    images = {low | r << n: {r << n: tau_sign * (-1) ** (n * popcount(r) % 2)}
              for r in range(1 << n)}
    tau = cp.product_class_from_map(n, n, images)
    d = cp.ProductClass(n, n, {(1 << i, 1 << i): (-1) ** ((n - 1) % 2) for i in range(n)})
    return cp.pc_mul(tau, cp.pc_exp(d))


def verify_cor_diagram_by_products(n, mu_p1_sign=-1):
    """verify_cor_diagram with each class a chain of pc_mul products, compared
    with the kernel class of its generator map."""
    maps = _generator_maps(n)
    return all(lam == kernel_class_by_map(n, maps[k])
               for k, lam in diagram_classes_by_products(n, mu_p1_sign))


# ---------------------------------------------------------------------------
# exp by one Fraction per term, the reference for clifford.exterior_exp


def exterior_exp_by_fractions(a):
    """exp(a) = sum_k a^k / k!, each term divided by k! as a Fraction."""
    if a.get(0, 0) != 0:
        raise ValueError("exterior_exp needs an element without constant term")
    total = {0: 1}
    power = {0: 1}
    k = 0
    while power:
        k += 1
        power = wedge(power, a)
        for m, c in power.items():
            total[m] = total.get(m, 0) + Fraction(c, factorial(k))
    return {m: c.numerator if c.denominator == 1 else c
            for m, c in total.items() if c != 0}


# ---------------------------------------------------------------------------
# the system on all d^2 entries of c, the reference for torus.ns_basis


def ns_basis_by_all_entries(A):
    """Z-basis of the integral skew J-invariant forms from the equations
    c_ij + c_ji = 0, c_ii = 0 and (J^t c J - c)_ij = 0 for every i, j, in
    the d^2 unknowns c_ij ordered by i*d + j."""
    d = 2 * A.n
    J, d2 = A.J.num, A.J.den ** 2
    ech = xl.Echelon()
    for i in range(d):
        for j in range(d):
            if i < j:
                ech.add({i * d + j: 1, j * d + i: 1})
            elif i == j:
                ech.add({i * d + i: 1})
            row = {}
            for a in range(d):
                for b in range(d):
                    v = J[a][i] * J[b][j]
                    if v:
                        row[a * d + b] = row.get(a * d + b, 0) + v
            row[i * d + j] = row.get(i * d + j, 0) - d2
            ech.add({k: v for k, v in row.items() if v})
    basis = ech.kernel(d * d)
    if not basis:
        return []
    sat = xl.saturate_rows([xl.primitive_int([v]).rows[0] for v in basis])
    return [NSVector([v[r * d:(r + 1) * d] for r in range(d)]) for v in sat.rows]


def splitting_route(u, u_inv, w_first):
    """(w, w_inv) of the IsotropicSplitting of W = Gamma_1 + Gamma_2* and
    Sigma = Gamma_1* + Gamma_2, in the order (W, Sigma) or (Sigma, W), for a
    basis u = (Gamma_1 | Gamma_2) of Gamma with inverse u_inv: the columns of
    [[u, 0], [0, u^-T]] that g_mirror and elliptic_mirror once passed to
    IsotropicSplitting, the reference for mirror._adapted_splitting."""
    n = u.shape[0] // 2
    z = xl.zeros(2 * n)
    big_u = np.block([[u, z], [z, xl.mat(u_inv).T]])
    w_half = [big_u[:, i] for i in list(range(n)) + list(range(3 * n, 4 * n))]
    sigma = [big_u[:, i] for i in list(range(2 * n, 3 * n)) + list(range(n, 2 * n))]
    s = IsotropicSplitting(n, w_half, sigma) if w_first else IsotropicSplitting(n, sigma, w_half)
    return s.w, s.w_inv


def adapted_splitting_by_blocks(u, u_inv, w_first):
    """(w, alpha) of mirror._adapted_splitting built as matrices, as it once
    was: the columns of U = [[u, 0], [0, u^-T]] assembled with xl.block and
    selected by index, and alpha = Q w^T Q by the Q half swaps."""
    n = u.shape[0] // 2
    z = xl.zeros(2 * n)
    w_half = list(range(n)) + list(range(3 * n, 4 * n))
    sigma = list(range(2 * n, 3 * n)) + list(range(n, 2 * n))
    w = xl.block([[u, z], [z, xl.asmat(u_inv).T]])[:, w_half + sigma if w_first else sigma + w_half]
    return w, q_left(q_right(w.T))


def repair_candidates_by_norm(n, deltas, budget):
    """Integer matrices C with Delta.C symmetric, by increasing max-norm up to
    budget: the bounded search that mirror._repair_candidates once made, the
    reference for its norm-1 enumeration."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i <= j]
    for norm in range(0, budget + 1):
        for vals in product(range(-norm, norm + 1), repeat=len(pairs)):
            if norm > 0 and max(abs(v) for v in vals) != norm:
                continue
            c = [[0] * n for _ in range(n)]
            ok = True
            for (i, j), v in zip(pairs, vals):
                c[i][j] = v
                if i != j:
                    num = deltas[i] * v
                    if num % deltas[j]:
                        ok = False
                        break
                    c[j][i] = num // deltas[j]
            if ok:
                yield xl.mat(c)


def elliptic_sample(rng, n):
    """(A, tau, phi): a product of elliptic curves with a polarization phi of
    type Delta = diag(1, d_2, ..., d_n), d_i | d_(i+1), in a random basis."""
    deltas = [1]
    for _ in range(n - 1):
        deltas.append(deltas[-1] * rng.randint(1, 3))
    z = xl.zeros(n)
    delta = xl.zeros(n)
    for i in range(n):
        delta[i, i] = deltas[i]
    j0 = np.block([[z, xl.eye(n)], [-xl.eye(n), z]])
    phi0 = np.block([[z, delta], [-delta, z]])
    t = rand_unimodular(rng, 2 * n)
    A = make_torus(n, xl.mul(xl.to_int(xl.invert(t)), xl.mul(j0, t)))
    tau = (rand_rational(rng), rand_rational(rng, nonzero=True))
    return A, tau, xl.mul(t.T, xl.mul(phi0, t))


def adapted_halves(u, u_inv):
    """W = Gamma_1 + Gamma_2* and Sigma = Gamma_1* + Gamma_2 as column bases in
    the coordinates of Lambda_A, for a basis u = (Gamma_1 | Gamma_2) of Gamma
    with inverse u_inv: columns of U = [[u, 0], [0, u^-T]]."""
    n = u.shape[0] // 2
    z = xl.zeros(2 * n)
    big_u = xl.block([[u, z], [z, xl.mat(u_inv).T]])
    return (big_u[:, list(range(n)) + list(range(3 * n, 4 * n))],
            big_u[:, list(range(2 * n, 3 * n)) + list(range(n, 2 * n))])


def transversal(jprod_a, cols):
    """Is jprod_a.H transversal to the half H spanned by cols: does the stacked
    [H | jprod_a.H] have full rank?  The rank route that mirror.elliptic_mirror
    once took, the reference for the block test mirror._well_becoming."""
    stacked = xl.block([[cols, xl.mul(jprod_a, cols)]])
    return xl.rank(stacked) == stacked.shape[0]


def q_value(u, v):
    """Q(u, v) for the hyperbolic form Q, term by term."""
    d = len(u) // 2
    return sum(u[i] * v[d + i] + u[d + i] * v[i] for i in range(d))


# ---------------------------------------------------------------------------
# the pure spinor through Fraction coefficients, the reference for
# clifford.pure_spinor


def pure_spinor_by_fractions(n, vectors):
    """pure_spinor with B's coefficients -pairing / (c_a c_b) as Fractions,
    exp(B) ^ theta over Q, and the primitive integer vector on its ray."""
    d = 2 * n
    vectors = [list(v) for v in vectors]
    ech = xl.Echelon()
    for v in vectors:
        ech.add({j: x for j, x in enumerate(v) if x})
    basis = ech.int_rows
    if len(basis) != d:
        raise NoIntertwiner(f"the vectors span {len(basis)} dimensions, not {d}")
    if any(q_value(u, v) for i, u in enumerate(vectors) for v in vectors[i:]):
        raise NotIsotropic("Q does not vanish on the vectors")
    pivots = sorted(basis)
    theta = {0: 1}
    for p in pivots:
        if p >= d:
            theta = wedge(theta, {1 << (j - d): x for j, x in basis[p].items()})
    rows = [(p, basis[p]) for p in pivots if p < d]
    two_form = {}
    for a, (ra, ua) in enumerate(rows):
        for rb, ub in rows[a + 1:]:
            pairing = sum(x * ub.get(j - d, 0) for j, x in ua.items() if j >= d)
            if pairing:
                two_form[1 << ra | 1 << rb] = Fraction(-pairing, ua[ra] * ub[rb])
    phi = wedge(exterior_exp(two_form), theta)
    phi = xl.primitive_int([[phi.get(m, 0) for m in range(1 << d)]]).rows[0]
    return {m: x for m, x in enumerate(phi) if x}


# ---------------------------------------------------------------------------
# the explicit beta matrix, the reference for the lift of the half swap


def beta_explicit(n):
    """The signed permutation x_S ^ x_R -> (-1)^eps x_R ^ l_{S-bar}.

    Here S runs over {1..n}, R over {n+1..2n}, S-bar = {1..n} minus S, and
    eps = |S||R| + sum over i in S of (i-1); the answer is re-sorted so that
    the l part (bits 0..n-1) precedes the x part (bits n..2n-1).
    """
    size = 1 << (2 * n)
    low = (1 << n) - 1
    m = [[0] * size for _ in range(size)]
    for col in range(size):
        s = col & low
        r = col & ~low
        sbar = low ^ s
        eps = popcount(s) * popcount(r) + sum(i for i in range(n) if s & (1 << i))
        eps += popcount(r) * popcount(sbar)
        m[sbar | r][col] = (-1) ** (eps % 2)
    return xl.mat(m)


def half_swap(n):
    """The Q-isometry of Lambda that exchanges l_i and x_i for i = 1..n and
    fixes the other basis vectors."""
    d = 2 * n
    g = xl.eye(4 * n)
    for i in range(n):
        g[:, [i, d + i]] = g[:, [d + i, i]]
    return g


# ---------------------------------------------------------------------------
# the closure over every (basis, frontier) pair, the reference for
# lefschetz.generate_g_ns


def generate_g_ns_by_all_pairs(A, kappas):
    """(ops, brackets): the g_NS basis from the same generators as
    lefschetz.generate_g_ns, closed by bracketing each basis element with
    each frontier element in both orders, and the number of brackets taken."""
    gens = []
    for kappa in kappas:
        gens.append(lf.lefschetz_e(kappa))
        try:
            gens.append(lf.lefschetz_f(kappa))
        except NoHardLefschetz:
            pass
    gens.append(lf.grading_operator(A.n))
    size = 1 << (2 * A.n)
    echelon = xl.Echelon()
    basis = [g for g in gens if echelon.add(g.num)]
    frontier = list(basis)
    brackets = 0
    while frontier:
        new = []
        for a in basis:
            for b in frontier:
                num = lf._bracket(a, b)
                brackets += 1
                if echelon.add(num):
                    new.append(lf.GradedOperator(size, num, a.den * b.den, a.degree + b.degree))
        basis.extend(new)
        frontier = new
    return basis, brackets


def ops_echelon(ops):
    """The Echelon of the num of each operator, added in order: the span test
    that lefschetz.generate_g_ns and so_lambda_spinor_image build as they go."""
    ech = xl.Echelon()
    for op in ops:
        ech.add(op.num)
    return ech


def in_span(ech, mat):
    """Does the dense operator mat lie in the span of an ops_echelon?  The
    span is the same for mat and for its num."""
    mat = xl.asmat(mat)
    size = mat.ncols
    return not ech.reduce({i * size + j: x for i, row in enumerate(mat.num)
                           for j, x in enumerate(row) if x})


# ---------------------------------------------------------------------------
# the operators built per call, the references for the per-n tables of
# lefschetz (_half_brackets, _so_image and _grading_entries)


def so_image_by_products(n):
    """The so-image as so_lambda_spinor_image built it on every call: one
    _product per pair (a, b) of combinations(range(4n), 2), the pair (l_k, x_k)
    as 2 l_k x_k - 1 over den 2, each operator kept when the Echelon of those
    before it does not hold it."""
    d = 2 * n
    size = 1 << d
    gens = _generator_maps(n)
    deg = [-1 if k < d else 1 for k in range(2 * d)]
    echelon = xl.Echelon()
    ops = []
    for a, b in combinations(range(2 * d), 2):
        num, den = lf._product(gens[a], gens[b], size), 1
        if b == a + d:
            num, den = {m * size + m: 2 * num.get(m * size + m, 0) - 1 for m in range(size)}, 2
        if echelon.add(num):
            ops.append(lf.GradedOperator(size, num, den, deg[a] + deg[b]))
    return ops


def form_operator_by_products(c, gens, size, degree):
    """sum_{i<j} c_ij gens_i gens_j for 2n pairwise anticommuting generators
    given by their column maps, one _product per pair, over c.den."""
    num = {}
    for i, j in combinations(range(len(gens)), 2):
        cij = c.num[i][j]
        if cij:
            for key, v in lf._product(gens[i], gens[j], size).items():
                num[key] = num.get(key, 0) + cij * v
    return lf.GradedOperator(size, {key: v for key, v in num.items() if v}, c.den, degree)


def lefschetz_pair_by_products(kappa):
    """(e_kappa, f_kappa) by form_operator_by_products, f_kappa None when kappa
    is degenerate."""
    c = xl.asmat(kappa)
    d = c.shape[0]
    gens = _generator_maps(d // 2)
    e = form_operator_by_products(c, gens[d:], 1 << d, 2)
    try:
        inverse = xl.invert(c)
    except SingularMatrix:
        return e, None
    return e, form_operator_by_products(inverse, gens[:d], 1 << d, -2)


def grading_operator_by_masks(n):
    """h, which acts on H^k by k - n, built from every monomial."""
    size = 1 << (2 * n)
    return lf.GradedOperator(size, {m * size + m: popcount(m) - n for m in range(size)
                                    if popcount(m) != n}, 1, 0)


# ---------------------------------------------------------------------------
# the moduli of a pair at n = 1, the independent oracle for the mirror: the
# mirror exchanges the complex modulus tau and the Kahler modulus rho
# (Dijkgraaf; Polishchuk-Zaslow).  A point of the upper half plane is a pair
# (x, y) of Fractions for x + i y, y > 0.


def _upper(x, y):
    """x + i y, or its conjugate when y < 0: the point in the upper half plane."""
    return (Fraction(x), abs(Fraction(y)))


def elliptic_modulus(A):
    """tau = (i - p)/r for J = [[p, q], [r, s]], taken in the upper half plane:
    J acts on Gamma = Z^2 as multiplication by i on the complex line in which
    e_1 = 1 and e_2 = tau, as J e_1 = p e_1 + r e_2 = i."""
    p, r = Fraction(A.J[0, 0]), Fraction(A.J[1, 0])
    return _upper(-p / r, 1 / r)


def kahler_modulus(pair):
    """rho = f1 + i f2 for phi_k = f_k [[0, 1], [-1, 0]], taken in the upper
    half plane."""
    return _upper(pair.phi1[0, 1], pair.phi2[0, 1])


def reduce_modulus(z):
    """The point of the fundamental domain of SL_2(Z) in the orbit of z, found
    exactly: translate into -1/2 <= x < 1/2, invert z -> -1/z while |z| < 1,
    and on the unit circle, where -1/z = -conj(z), keep the point with x <= 0."""
    x, y = z
    while True:
        x -= floor(x + Fraction(1, 2))
        norm = x * x + y * y
        if norm >= 1:
            return (-x if norm == 1 and x > 0 else x, y)
        x, y = -x / norm, y / norm


def same_modulus(z, w):
    """Do z and w reduce to one point, up to the orientation reversal
    w -> -conj(w)?"""
    return reduce_modulus(z) in (reduce_modulus(w), reduce_modulus((-w[0], w[1])))


def general_modulus_sample(rng):
    """(A, rho, phi, w) at n = 1: A = C/(Z + Z tau) in a random basis of
    Gamma, for a rational tau = x + i y drawn until the reflection z -> -conj(z)
    does not fix its point of the fundamental domain; phi the principal
    polarization in that basis, rho = (f1, f2) with f2 != 0 for the pair
    (A, f1 phi, f2 phi), and w the witness (Gamma_1, Gamma_2) = (Z, Z tau).
    J = [[-x/y, -(x^2 + y^2)/y], [1/y, x/y]] in the basis (1, tau), which the
    witness shows well-becoming, as both off-diagonal entries are nonzero."""
    while True:
        x, y = rand_rational(rng), abs(rand_rational(rng, nonzero=True))
        z = reduce_modulus((x, y))
        if reduce_modulus((-z[0], z[1])) != z:
            break
    j0 = xl.mat([[-x / y, -(x * x + y * y) / y], [1 / y, x / y]])
    t = rand_unimodular(rng, 2)
    t_inv = xl.to_int(xl.invert(t))
    A = make_torus(1, xl.mul(t_inv, xl.mul(j0, t)))
    phi = xl.mul(t.T, xl.mul(xl.mat([[0, 1], [-1, 0]]), t))
    rho = (rand_rational(rng), rand_rational(rng, nonzero=True))
    return A, rho, phi, WellBecomingWitness([t_inv[:, 0]], [t_inv[:, 1]])
