"""Seeded input generators for the benchmark workloads.

Every generator draws from the `random.Random` it is given and returns plain
lists of ints and Fractions; the workloads turn them into the program's
numpy object arrays at the call boundary.  Preconditions of the program's
operations (invertibility, nondegeneracy) are checked here with the
benchmark's own arithmetic, never by calling the program.
"""

from fractions import Fraction

import qmat as qm


def rand_unimodular(rng, k, steps=2):
    """Random element of GL_k(Z): `steps` row additions with coefficient +-1,
    then a signed permutation.  Every step adds, so entry growth, and with it
    the cost of exact arithmetic on the result, varies little from seed to
    seed."""
    m = qm.eye(k)
    for _ in range(steps if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        c = rng.choice([-1, 1])
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    rng.shuffle(m)
    return [[-x for x in row] if rng.random() < 0.5 else row for row in m]


def rand_symmetric_invertible(rng, k):
    """P^t D P with D diagonal, |D_ii| in {1, 2, 3}, and P unimodular."""
    p = rand_unimodular(rng, k, steps=k)
    d = [[rng.choice([-3, -2, -1, 1, 2, 3]) if i == j else 0 for j in range(k)]
         for i in range(k)]
    return qm.mul(qm.transpose(p), qm.mul(d, p))


def rand_rational(rng):
    """A nonzero rational p/q with |p| <= 5, q <= 4."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))


def rand_skew(rng, k, bound=2):
    m = qm.zeros(k, k)
    for i in range(k):
        for j in range(i + 1, k):
            v = rng.randint(-bound, bound)
            m[i][j], m[j][i] = v, -v
    return m


def conjugate_by(t, j0, phi0):
    """J = t^-1 j0 t and phi = t^t phi0 t: the same structure in a new basis."""
    t_inv = qm.inverse(t)
    return qm.mul(t_inv, qm.mul(j0, t)), qm.mul(qm.transpose(t), qm.mul(phi0, t)), t_inv


def well_becoming(rng, n, adapted=False):
    """A weak pair (J, phi1, phi2) that is well-becoming, with its witness.

    In the adapted basis J0 = [[0, b], [-b^-1, 0]] with b = g^-1 s preserves
    phi0 = [[0, g], [-g, 0]] (g, s symmetric invertible), and the two
    coordinate halves are transverse Lagrangians for both forms.  Unless
    `adapted`, the pair is moved to a random basis of Gamma.
    """
    g = rand_symmetric_invertible(rng, n)
    s = rand_symmetric_invertible(rng, n)
    b = qm.mul(qm.inverse(g), s)
    z = qm.zeros(n, n)
    j0 = qm.block([[z, b], [qm.neg(qm.inverse(b)), z]])
    phi0 = qm.block([[z, g], [qm.neg(g), z]])
    t1, t2 = rand_rational(rng), rand_rational(rng)
    t = qm.eye(2 * n) if adapted else rand_unimodular(rng, 2 * n)
    J, phi, t_inv = conjugate_by(t, j0, phi0)
    gamma1 = [[row[i] for row in t_inv] for i in range(n)]
    gamma2 = [[row[n + i] for row in t_inv] for i in range(n)]
    return {"n": n, "J": J, "phi1": qm.scale(phi, t1), "phi2": qm.scale(phi, t2),
            "gamma1": gamma1, "gamma2": gamma2}


ISOMETRY_WORD = (0, 2, 1, 0)


def rand_q_isometry(rng, n):
    """Random integral isometry of (Lambda, Q): a shear of Gamma* by Gamma, a
    unimodular change of basis of Gamma, a shear of Gamma by Gamma*, and a
    second shear of Gamma* (ISOMETRY_WORD), each with random entries."""
    d = 2 * n
    g = qm.eye(2 * d)
    for kind in ISOMETRY_WORD:
        step = qm.eye(2 * d)
        if kind == 2:
            u = rand_unimodular(rng, d, steps=3)
            z = qm.zeros(d, d)
            step = qm.block([[u, z], [z, qm.transpose(qm.inverse(u))]])
        else:
            eta = rand_skew(rng, d, bound=1)
            for i in range(d):
                for j in range(d):
                    if kind == 0:
                        step[d + i][j] = eta[i][j]
                    else:
                        step[i][d + j] = eta[i][j]
        g = qm.mul(g, step)
    return g


def siegel_element(rng, pair):
    """A Q-isometry g with a + b.omega invertible over Q(i) for the pair."""
    n = pair["n"]
    d = 2 * n
    while True:
        g = rand_q_isometry(rng, n)
        a = qm.sub_block(g, 0, d, 0, d)
        b = qm.sub_block(g, 0, d, d, 2 * d)
        den = (qm.add(a, qm.mul(b, pair["phi1"])), qm.mul(b, pair["phi2"]))
        try:
            qm.cinverse(den)
        except ZeroDivisionError:
            continue
        return g


def elliptic_sample(rng, n):
    """(J, tau, phi) with phi a polarization type Delta of J, in a random basis.

    In the adapted basis phi0(J0 x, y) is definite, so the lower-left block of
    J in any symplectic basis of phi is invertible and the transversality
    search of the elliptic construction succeeds at its first candidate.
    """
    deltas = [1]
    for _ in range(n - 1):
        deltas.append(deltas[-1] * rng.randint(1, 3))
    delta = [[deltas[i] if i == j else 0 for j in range(n)] for i in range(n)]
    z = qm.zeros(n, n)
    j0 = qm.block([[z, qm.eye(n)], [qm.neg(qm.eye(n)), z]])
    phi0 = qm.block([[z, delta], [qm.neg(delta), z]])
    t = rand_unimodular(rng, 2 * n)
    J, phi, _ = conjugate_by(t, j0, phi0)
    tau = (rand_rational(rng), rand_rational(rng))
    return {"n": n, "J": J, "phi": phi, "tau": tau, "deltas": deltas}


def rand_splitting(rng, n):
    """Bases of the two isotropic halves g(M1), g(M2) for a random isometry g."""
    g = rand_q_isometry(rng, n)
    cols = qm.transpose(g)
    return {"n": n, "basis1": cols[:2 * n], "basis2": cols[2 * n:]}


def standard_splitting(n):
    e = qm.eye(4 * n)
    return {"n": n, "basis1": e[:2 * n], "basis2": e[2 * n:]}


def rand_unit_vector(rng, n, norm):
    """Integer (l, x) in Lambda with l.x = norm, so cor(v)^2 = norm."""
    d = 2 * n
    while True:
        l = [rng.randint(-2, 2) for _ in range(d)]
        if l[0] == 0:
            l[0] = rng.choice([-1, 1])
        x = [rng.randint(-2, 2) for _ in range(d)]
        rest = sum(a * b for a, b in zip(l[1:], x[1:]))
        if (norm - rest) % l[0] == 0:
            x[0] = (norm - rest) // l[0]
            return l + x


def spin_element(rng, n, pairs=2):
    """z = cor(v_1)...cor(v_2k) with unit vectors in pairs of equal norm.

    Returns the generating vectors with z; the checks rebuild r(z) from them.
    """
    vectors = []
    for _ in range(pairs):
        eps = rng.choice([-1, 1])
        vectors += [rand_unit_vector(rng, n, eps) for _ in range(2)]
    size = 1 << (2 * n)
    z = qm.eye(size)
    for v in vectors:
        z = qm.dense_times_columns(z, qm.cor_columns(n, v))
    return {"n": n, "z": z, "vectors": vectors}


def lefschetz_sample(rng, n, count=2):
    """A torus with `count` nondegenerate NS classes (hence hard Lefschetz).

    For J0 = [[0, I], [-I, 0]] every [[0, S], [-S, 0]] with S symmetric is a
    J0-invariant skew form; invertible S makes it symplectic.
    """
    z = qm.zeros(n, n)
    j0 = qm.block([[z, qm.eye(n)], [qm.neg(qm.eye(n)), z]])
    t = rand_unimodular(rng, 2 * n)
    kappas = []
    J = None
    for _ in range(count):
        s = rand_symmetric_invertible(rng, n)
        J, kappa, _ = conjugate_by(t, j0, qm.block([[z, s], [qm.neg(s), z]]))
        kappas.append(kappa)
    return {"n": n, "J": J, "kappas": kappas}
