"""The three workloads: seeded job lists, the calls into the program, and the
checks on every output.

A job is a `Job(kind, run, check)`: `run()` calls the program and returns its
output, `check(output)` raises `CheckFailed` when the output is wrong.  One
round is the fixed job list a seed gives; every run repeats whole rounds.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import check as ck
import gen
import qmat as qm

# (kind, n, jobs per round).  Sorted by time, a round falls into blocks of
# kinds of similar cost.  The counts put the median job and the tail job (ten
# jobs beyond it) at the middle of one block each, far from the boundary with
# the next kind, and keep every kind under half of a round's time:
#   mirror (72 jobs): median at the middle of wb1 (10 jobs), tail at the
#     middle of {wb3, wb4} (21 jobs, of like cost);
#   spinor (62 jobs): median at the middle of xi3 (10 jobs), tail at the
#     middle of spin2 (12 jobs).
# The cheap kinds below the median are there to put it in the middle.
MIRROR_MIX = [("ell", 1, 31), ("wb", 1, 10), ("ell", 2, 3), ("ell", 3, 3),
              ("wb", 2, 4), ("wb", 3, 10), ("wb", 4, 11)]
SPINOR_MIX = [("spin", 1, 26), ("xi", 3, 10), ("beta", 2, 6), ("lef", 2, 4),
              ("spin", 2, 12), ("beta", 3, 3), ("so", 3, 1)]

# Kinds left out of the warm-up pass: they fill no cache, their code paths are
# warmed by the smaller kinds, and each would add over a second to set-up.
NO_WARMUP = {"beta3", "so3"}
# cli documents per round: every command at n = 1, the heavier ones again at
# n = 2; each is called twice per round, so repeated calls can be compared.
CLI_N2 = ["ns-basis", "classify", "mirror-split", "g-mirror", "elliptic-mirror",
          "verify-mirror", "beta"]
CLI_COMMANDS = ["make-torus", "ns-basis", "classify", "i-omega", "mirror-split",
                "g-mirror", "elliptic-mirror", "verify-mirror", "beta", "xi",
                "phi-p", "gns", "siegel-act", "spin-check"]


class Job:
    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def interleave(groups):
    """Round-robin over the kinds, so that no kind runs as one long stretch."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out += [g[i] for g in groups if i < len(g)]
    return out


def arr(m):
    import numpy as np
    return np.array(m, dtype=object)


def vecs(vs):
    return [arr(v) for v in vs]


def pair_dict(p):
    return {"J": p.torus.J, "phi1": p.phi1, "phi2": p.phi2}


# ---------------------------------------------------------------------------
# mirror


def mirror_wb_job(s, g):
    from torusmirror import mirror as mi, pairspace as ps, siegel as sg, torus as ts
    n = s["n"]
    J, phi1, phi2, g_arr = arr(s["J"]), arr(s["phi1"]), arr(s["phi2"]), arr(g)
    gamma1, gamma2 = vecs(s["gamma1"]), vecs(s["gamma2"])

    def run():
        A = ts.make_torus(n, J)
        p = ps.make_weak_pair(A, phi1, phi2)
        pB, cert = mi.g_mirror(p, mi.WellBecomingWitness(gamma1, gamma2))
        mi.verify_mirror(p, pB, cert.alpha)
        tags = (ps.classify_pair(p), ps.classify_pair(pB))
        acted = sg.siegel_act(g_arr, (p.phi1, p.phi2))
        ns = ts.ns_basis(A) if n <= 3 else None
        return pB, cert.alpha, tags, acted, ns

    def check(out):
        pB, alpha, tags, acted, ns = out
        ck.check_mirror(s, pair_dict(pB), alpha)
        ck.require(tags[0] == tags[1] == ck.classify(s["J"], s["phi2"]),
                   "classify_pair on both sides = polarization sign")
        ck.check_siegel(g, s["phi1"], s["phi2"], qm.rows(acted[0]), qm.rows(acted[1]))
        if ns is not None:
            ck.check_ns_basis(s["J"], [v.c for v in ns])

    return Job(f"wb{n}", run, check)


def mirror_ell_job(e):
    from torusmirror import mirror as mi, torus as ts
    n = e["n"]
    J, phi = arr(e["J"]), arr(e["phi"])

    def run():
        A = ts.make_torus(n, J)
        pA, pB, cert = mi.elliptic_mirror(A, e["tau"], phi)
        factors, isogenies = mi.elliptic_factors(pB, e["deltas"])
        homs = [ts.hom_space(factors[0], f) for f in factors]
        return pA, pB, cert.alpha, factors, isogenies, homs

    def check(out):
        pA, pB, alpha, factors, isogenies, homs = out
        ck.check_elliptic(e, pair_dict(pA), pair_dict(pB), alpha,
                          [f.J for f in factors], isogenies)
        j0 = qm.rows(factors[0].J)
        for f, basis in zip(factors, homs):
            ck.check_hom_space(j0, qm.rows(f.J), [qm.rows(h) for h in basis])

    return Job(f"ell{n}", run, check)


def mirror_round(rng):
    groups = []
    for kind, n, count in MIRROR_MIX:
        jobs = []
        for _ in range(count):
            if kind == "wb":
                s = gen.well_becoming(rng, n)
                jobs.append(mirror_wb_job(s, gen.siegel_element(rng, s)))
            else:
                jobs.append(mirror_ell_job(gen.elliptic_sample(rng, n)))
        groups.append(jobs)
    return interleave(groups)


# ---------------------------------------------------------------------------
# spinor


def spinor_beta_job(a, b):
    from torusmirror import clifford as cl
    n = a["n"]
    a1, a2, b1, b2 = (vecs(a["basis1"]), vecs(a["basis2"]),
                      vecs(b["basis1"]), vecs(b["basis2"]))

    def run():
        s1 = cl.IsotropicSplitting(n, a1, a2)
        s2 = cl.IsotropicSplitting(n, b1, b2)
        beta = cl.beta_iso(s1, s2)
        return beta, cl.beta_parity(beta, s1, s2)

    def check(out):
        ck.check_beta(n, a, b, out[0], out[1])

    return Job(f"beta{n}", run, check)


def spinor_spin_job(s):
    from torusmirror import clifford as cl
    z = arr(s["z"])

    def run():
        return cl.is_spin(z), cl.r_of_z(z)

    def check(out):
        ck.check_spin(s, out[0], qm.rows(out[1]))

    return Job(f"spin{s['n']}", run, check)


def spinor_lef_job(L):
    from torusmirror import lefschetz as lf, torus as ts
    n = L["n"]
    J, kappas = arr(L["J"]), [arr(k) for k in L["kappas"]]

    def run():
        A = ts.make_torus(n, J)
        fs = [lf.lefschetz_f(k) for k in kappas]
        return fs, lf.generate_g_ns(A, kappas)

    def check(out):
        fs, g_ns = out
        for kappa, f in zip(L["kappas"], fs):
            ck.check_lefschetz_f(n, kappa, f.mat)
        ck.check_lie_closure(n, [op.mat for op in g_ns.ops], L["kappas"])

    return Job(f"lef{n}", run, check)


def spinor_so_job(L):
    from torusmirror import lefschetz as lf, torus as ts
    n = L["n"]
    J = arr(L["J"])

    def run():
        return lf.so_lambda_spinor_image(ts.make_torus(n, J))

    def check(out):
        ck.check_so_image(n, [op.mat for op in out.ops])

    return Job(f"so{n}", run, check)


def spinor_xi_job(n):
    from torusmirror import corresp as cr

    def run():
        return (cr.xi_from_mirror(n), cr.verify_cor_diagram(n),
                cr.verify_cor_diagram(n, mu_p1_sign=+1))

    def check(out):
        xi, ok, control = out
        ck.check_xi(n, xi.coeffs)
        ck.require(ok is True, "cor diagram verifies")
        ck.require(control is False, "cor diagram with mu_p1_sign = +1 fails")

    return Job(f"xi{n}", run, check)


def spinor_round(rng):
    groups = []
    for kind, n, count in SPINOR_MIX:
        jobs = []
        for _ in range(count):
            if kind == "beta":
                jobs.append(spinor_beta_job(gen.rand_splitting(rng, n),
                                            gen.rand_splitting(rng, n)))
            elif kind == "spin":
                jobs.append(spinor_spin_job(gen.spin_element(rng, n)))
            elif kind == "lef":
                jobs.append(spinor_lef_job(gen.lefschetz_sample(rng, n)))
            elif kind == "so":
                jobs.append(spinor_so_job(gen.lefschetz_sample(rng, n, count=1)))
            else:
                jobs.append(spinor_xi_job(n))
        groups.append(jobs)
    return interleave(groups)


# ---------------------------------------------------------------------------
# cli


def rat(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def enc(m):
    return [[rat(x) for x in row] for row in m]


def dec(m):
    return [[Fraction(x) for x in row] for row in m]


def pair_doc(s):
    return {"torus": {"n": s["n"], "J": enc(s["J"])},
            "phi1": enc(s["phi1"]), "phi2": enc(s["phi2"])}


def doc_pair(doc):
    return {"J": dec(doc["torus"]["J"]), "phi1": dec(doc["phi1"]), "phi2": dec(doc["phi2"])}


def sigma_splitting(n):
    """basis1 = (x_1..x_n, l_{n+1}..l_{2n}); basis2 pairs with it to Q = 1."""
    e = qm.eye(4 * n)
    return {"basis1": [e[2 * n + i] for i in range(n)] + [e[n + i] for i in range(n)],
            "basis2": [e[i] for i in range(n)] + [e[3 * n + i] for i in range(n)]}


def mirror_across(s, split):
    """The mirror of an adapted well-becoming pair across an invariant
    splitting, by the paper's formulas: alpha = W^-1, J_B the top-left block
    of alpha I_omega W, and omega_B read off alpha Jprod W."""
    n = s["n"]
    d = 2 * n
    w = qm.transpose(split["basis1"] + split["basis2"])
    alpha = qm.inverse(w)
    i_new = qm.mul(alpha, qm.mul(ck.i_omega(s["phi1"], s["phi2"]), w))
    jp = qm.mul(alpha, qm.mul(ck.jprod(s["J"]), w))
    i12_inv = qm.inverse(qm.sub_block(jp, 0, d, d, 2 * d))
    pair_b = {"n": n, "J": qm.sub_block(i_new, 0, d, 0, d),
              "phi1": qm.mul(qm.sub_block(jp, d, 2 * d, d, 2 * d), i12_inv),
              "phi2": qm.neg(i12_inv)}
    return pair_b, alpha


def cli_documents(rng):
    """[(name, command, document, checker)] for one round, n <= 2."""
    docs = []
    for n in (1, 2):
        for command in CLI_COMMANDS:
            if n == 2 and command not in CLI_N2:
                continue
            docs.append(cli_document(rng, command, n))
    return docs


def cli_document(rng, command, n):
    name = f"{command}:n{n}"
    if command in ("make-torus", "ns-basis", "classify", "i-omega", "siegel-act"):
        s = gen.well_becoming(rng, n)
        torus = {"n": n, "J": enc(s["J"])}
        if command == "make-torus":
            return name, command, torus, lambda out: ck.require(
                out == {"torus": torus}, "make-torus returns its torus")
        if command == "ns-basis":
            return name, command, {"torus": torus}, lambda out: ck.check_ns_basis(
                s["J"], [dec(m) for m in out["basis"]])
        if command == "classify":
            return name, command, pair_doc(s), lambda out: ck.require(
                out == {"tag": ck.classify(s["J"], s["phi2"])}, "classify = polarization sign")
        if command == "i-omega":
            return name, command, pair_doc(s), lambda out: ck.require(
                qm.eq(dec(out["I"]), ck.i_omega(s["phi1"], s["phi2"])), "I_omega block formula")
        g = gen.siegel_element(rng, s)
        return name, command, {"pair": pair_doc(s), "g": enc(g)}, lambda out: ck.check_siegel(
            g, s["phi1"], s["phi2"], dec(out["phi1"]), dec(out["phi2"]))
    if command in ("mirror-split", "g-mirror", "verify-mirror"):
        s = gen.well_becoming(rng, n, adapted=command != "g-mirror")

        def mirror_check(out):
            ck.check_mirror(s, doc_pair(out["pairB"]), dec(out["alpha"]))

        if command == "g-mirror":
            doc = {"pair": pair_doc(s), "gamma1": enc(s["gamma1"]), "gamma2": enc(s["gamma2"])}
            return name, command, doc, mirror_check
        split = sigma_splitting(n)
        if command == "mirror-split":
            doc = {"pair": pair_doc(s), "splitting": {k: enc(v) for k, v in split.items()}}
            return name, command, doc, mirror_check
        pair_b, alpha = mirror_across(s, split)
        ck.check_mirror(s, pair_b, alpha)
        doc = {"pairA": pair_doc(s), "pairB": pair_doc(pair_b), "alpha": enc(alpha)}
        return name, command, doc, lambda out: ck.require(out == {"ok": True}, "verify-mirror ok")
    if command == "elliptic-mirror":
        e = gen.elliptic_sample(rng, n)
        doc = {"torus": {"n": n, "J": enc(e["J"])}, "tau": [rat(t) for t in e["tau"]],
               "phi": enc(e["phi"])}

        def ell_check(out):
            pair_a = doc_pair(out["pairA"])
            ck.require(qm.eq(pair_a["J"], e["J"]), "source torus kept")
            t1, t2 = e["tau"]
            ck.require(qm.eq(pair_a["phi1"], qm.scale(e["phi"], t1))
                       and qm.eq(pair_a["phi2"], qm.scale(e["phi"], t2)), "source pair is tau.phi")
            ck.check_mirror(pair_a, doc_pair(out["pairB"]), dec(out["alpha"]))
        return name, command, doc, ell_check
    if command == "beta":
        a, b = gen.rand_splitting(rng, n), gen.rand_splitting(rng, n)
        doc = {"n": n, "s1": {"basis1": enc(a["basis1"]), "basis2": enc(a["basis2"])},
               "s2": {"basis1": enc(b["basis1"]), "basis2": enc(b["basis2"])}}
        return name, command, doc, lambda out: ck.check_beta(
            n, a, b, dec(out["beta"]), out["parity"])
    if command == "xi":
        def xi_check(out):
            coeffs = {}
            for t in out["xi"]:
                key = (sum(1 << (i - 1) for i in t["a_indices"]),
                       sum(1 << (i - 1) for i in t["b_indices"]))
                coeffs[key] = Fraction(t["coeff"])
            ck.check_xi(n, coeffs)
        return name, command, {"n": n}, xi_check
    if command == "phi-p":
        # terms of degree <= 1 only: the CLI reads a multi-index term with the
        # sign of its indices reversed (see CHANGES.md), on some seeds only
        terms, coeffs = [], {}
        for mask in rng.sample([0] + [1 << i for i in range(2 * n)], 2):
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            terms.append({"indices": [i + 1 for i in range(2 * n) if mask >> i & 1],
                          "coeff": str(c)})
            coeffs[mask] = c
        want = ck.poincare_image(n, coeffs)

        def phi_check(out):
            got = {sum(1 << (i - 1) for i in t["indices"]): Fraction(t["coeff"])
                   for t in out["image"]}
            ck.require(got == want, "phi-p is the Poincare map")
        return name, command, {"n": n, "v": terms}, phi_check
    if command == "gns":
        L = gen.lefschetz_sample(rng, n, count=1)
        doc = {"torus": {"n": n, "J": enc(L["J"])}, "kappas": [enc(L["kappas"][0])]}
        return name, command, doc, lambda out: ck.require(
            out["dim"] == 3 and sorted(out["degrees"]) == [-2, 0, 2],
            "one symplectic class generates sl2")
    # spin-check
    s = gen.spin_element(rng, n)
    return name, command, {"n": n, "z": enc(s["z"])}, lambda out: ck.check_spin(
        s, out["spin"], dec(out["r"]))


# Two malformed documents, fixed and independent of the seed.  The README's
# exit-code contract asks for exit 2 with "input error" on stderr and no
# traceback; both currently escape as uncaught exceptions.
MALFORMED = [
    ("malformed:zero-denominator", "classify",
     {"torus": {"n": 1, "J": [["0", "-1"], ["1", "0"]]},
      "phi1": [["0", "1/0"], ["-1/0", "0"]], "phi2": [["0", "1"], ["-1", "0"]]}),
    ("malformed:alpha-shape", "verify-mirror",
     {"pairA": {"torus": {"n": 1, "J": [["0", "-1"], ["1", "0"]]},
                "phi1": [["0", "0"], ["0", "0"]], "phi2": [["0", "1"], ["-1", "0"]]},
      "pairB": {"torus": {"n": 1, "J": [["0", "-1"], ["1", "0"]]},
                "phi1": [["0", "0"], ["0", "0"]], "phi2": [["0", "1"], ["-1", "0"]]},
      "alpha": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}),
]


class CliCall:
    """One `torusmirror <command>` call as a fresh interpreter."""

    def __init__(self, name, command, in_path, out_path, checker, env):
        self.kind = name
        self.command = command
        self.in_path = in_path
        self.out_path = out_path
        self.checker = checker
        self.env = env
        self.malformed = checker is None

    def argv(self):
        return [self.command, "--input", self.in_path, "--output", self.out_path]

    def run(self):
        """Returns (exit code, stderr text, output bytes, child rusage)."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        err_path = self.out_path + ".err"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "torusmirror.cli", *self.argv()],
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        output = b""
        if os.path.exists(self.out_path):
            with open(self.out_path, "rb") as fh:
                output = fh.read()
        return proc.returncode, stderr, output, usage

    def failed(self, result):
        """A malformed document fails unless it gets the exit-code contract."""
        code, stderr, _, _ = result
        if self.malformed:
            return not (code == 2 and "input error" in stderr and "Traceback" not in stderr)
        return code != 0

    def check(self, result):
        self.checker(json.loads(result[2]))


def cli_round(rng, workdir, env):
    """Each valid document twice per round (second pass in the same order),
    then the two malformed documents."""
    calls = []
    for name, command, doc, checker in cli_documents(rng) + [m + (None,) for m in MALFORMED]:
        stem = os.path.join(workdir, name.replace(":", "-"))
        with open(stem + ".in.json", "w") as fh:
            json.dump(doc, fh)
        calls.append(CliCall(name, command, stem + ".in.json", stem + ".out.json", checker, env))
    valid = [c for c in calls if not c.malformed]
    return valid + valid + [c for c in calls if c.malformed]


def build_round(workload, seed, workdir=None, env=None):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mirror":
        return mirror_round(rng)
    if workload == "spinor":
        return spinor_round(rng)
    return cli_round(rng, workdir, env)
