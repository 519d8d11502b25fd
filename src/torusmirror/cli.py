"""Command-line front end: one JSON document in, one JSON document out.

Exit codes: 0 success, 1 domain error (a machine-readable error object is
written to the output), 2 malformed input, 3 a broken invariant: a
RuntimeError naming an identity that failed, written to the output as an
error object too.
"""

import argparse
import json
import sys

from . import mirror as mi
from . import serialize as sz
from . import siegel as sg
from .clifford import IsotropicSplitting, SpinVec, beta_iso, beta_parity, r_of_z
from .corresp import phi_poincare, xi_from_mirror
from .errors import DomainError, NotSpin
from .lefschetz import generate_g_ns
from .pairspace import classify_pair, i_omega, make_weak_pair
from .torus import NSVector, make_torus, ns_basis


def _int_from_json(x):
    """A JSON integer; a float, a boolean or a string is an input error."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, not {x!r}")
    return x


def _n_from_json(obj, n_max):
    """The n of a JSON object, read and capped before any matrix of that
    object: a negative n is an input error, one above --n-max a domain error."""
    n = _int_from_json(obj["n"])
    if n < 0:
        raise ValueError(f"n = {n} is negative")
    if n > n_max:
        raise DomainError(f"n = {n} exceeds the safety cap --n-max = {n_max}")
    return n


def _torus_from_json(obj, n_max):
    return make_torus(_n_from_json(obj, n_max), sz.json_to_mat(obj["J"]))


def _torus_to_json(t):
    return {"n": t.n, "J": sz.mat_to_json(t.J)}


def _pair_from_json(obj, n_max):
    return make_weak_pair(_torus_from_json(obj["torus"], n_max),
                          sz.json_to_mat(obj["phi1"]), sz.json_to_mat(obj["phi2"]))


def _pair_to_json(p):
    return {"torus": _torus_to_json(p.torus),
            "phi1": sz.mat_to_json(p.phi1), "phi2": sz.mat_to_json(p.phi2)}


def _splitting_from_json(n, obj):
    return IsotropicSplitting(n, [sz.json_to_vec(v) for v in obj["basis1"]],
                              [sz.json_to_vec(v) for v in obj["basis2"]])


def _spinvec_from_json(n, terms):
    v = SpinVec(n, {})
    for t in terms:
        indices = [_int_from_json(i) for i in t["indices"]]
        v = v + SpinVec.monomial(n, indices, sz.str_to_rat(t["coeff"]))
    return v


def _spinvec_to_json(v):
    terms = []
    for mask in sorted(v.coeffs):
        indices = [i + 1 for i in range(2 * v.n) if mask & (1 << i)]
        terms.append({"indices": indices, "coeff": sz.rat_to_str(v.coeffs[mask])})
    return terms


def _product_class_to_json(pc):
    terms = []
    for (s, t) in sorted(pc.coeffs):
        terms.append({"a_indices": [i + 1 for i in range(2 * pc.n) if s & (1 << i)],
                      "b_indices": [i + 1 for i in range(2 * pc.m) if t & (1 << i)],
                      "coeff": sz.rat_to_str(pc.coeffs[(s, t)])})
    return terms


def _run_command(command, data, n_max):
    if command == "make-torus":
        t = _torus_from_json(data, n_max)
        return {"torus": _torus_to_json(t)}
    if command == "ns-basis":
        t = _torus_from_json(data["torus"], n_max)
        return {"basis": [sz.mat_to_json(v.c) for v in ns_basis(t)]}
    if command == "classify":
        p = _pair_from_json(data, n_max)
        return {"tag": classify_pair(p)}
    if command == "i-omega":
        p = _pair_from_json(data, n_max)
        return {"I": sz.mat_to_json(i_omega(p))}
    if command == "mirror-split":
        p = _pair_from_json(data["pair"], n_max)
        s = _splitting_from_json(p.torus.n, data["splitting"])
        pB, cert = mi.mirror_from_splitting(p, s)
        return {"pairB": _pair_to_json(pB), "alpha": sz.mat_to_json(cert.alpha)}
    if command == "g-mirror":
        p = _pair_from_json(data["pair"], n_max)
        w = mi.WellBecomingWitness([sz.json_to_vec(v) for v in data["gamma1"]],
                                   [sz.json_to_vec(v) for v in data["gamma2"]])
        pB, cert = mi.g_mirror(p, w)
        return {"pairB": _pair_to_json(pB), "alpha": sz.mat_to_json(cert.alpha)}
    if command == "elliptic-mirror":
        t = _torus_from_json(data["torus"], n_max)
        tau = (sz.str_to_rat(data["tau"][0]), sz.str_to_rat(data["tau"][1]))
        phi = NSVector(sz.json_to_mat(data["phi"]))
        pA, pB, cert = mi.elliptic_mirror(t, tau, phi)
        return {"pairA": _pair_to_json(pA), "pairB": _pair_to_json(pB),
                "alpha": sz.mat_to_json(cert.alpha)}
    if command == "verify-mirror":
        pA = _pair_from_json(data["pairA"], n_max)
        pB = _pair_from_json(data["pairB"], n_max)
        mi.verify_mirror(pA, pB, sz.json_to_mat(data["alpha"]))
        return {"ok": True}
    if command == "beta":
        n = _n_from_json(data, n_max)
        s1 = _splitting_from_json(n, data["s1"])
        s2 = _splitting_from_json(n, data["s2"])
        beta = beta_iso(s1, s2)
        return {"beta": sz.mat_to_json(beta),
                "parity": beta_parity(beta, s1, s2)}
    if command == "xi":
        n = _n_from_json(data, n_max)
        return {"xi": _product_class_to_json(xi_from_mirror(n))}
    if command == "phi-p":
        n = _n_from_json(data, n_max)
        v = _spinvec_from_json(n, data["v"])
        return {"image": _spinvec_to_json(phi_poincare(n, v))}
    if command == "gns":
        t = _torus_from_json(data["torus"], n_max)
        kappas = [NSVector(sz.json_to_mat(m)) for m in data["kappas"]]
        basis = generate_g_ns(t, kappas)
        return {"dim": basis.dim, "degrees": [op.degree for op in basis.ops]}
    if command == "siegel-act":
        p = _pair_from_json(data["pair"], n_max)
        g = sz.json_to_mat(data["g"])
        sg.require_q_isometry(g, p.torus.n)
        phi1, phi2 = sg.siegel_act(g, (p.phi1, p.phi2))
        return {"phi1": sz.mat_to_json(phi1), "phi2": sz.mat_to_json(phi2)}
    if command == "spin-check":
        n = _n_from_json(data, n_max)
        z = sz.json_to_mat(data["z"])
        if z.shape != (4 ** n, 4 ** n):
            raise ValueError(f"z must be {4 ** n}x{4 ** n} for n = {n}")
        try:
            r = r_of_z(z)
        except NotSpin:
            return {"spin": False}
        return {"spin": True, "r": sz.mat_to_json(r)}
    raise ValueError(f"unknown command {command!r}")


COMMANDS = ["make-torus", "ns-basis", "classify", "i-omega", "mirror-split",
            "g-mirror", "elliptic-mirror", "verify-mirror", "beta", "xi",
            "phi-p", "gns", "siegel-act", "spin-check"]


def main(argv=None):
    parser = argparse.ArgumentParser(prog="torusmirror")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--n-max", type=int, default=4)
    args = parser.parse_args(argv)
    # an unreadable or unwritable file, and a document nested too deeply for
    # the JSON decoder, are input errors too
    try:
        try:
            with open(args.input) as fh:
                data = json.load(fh)
            code, doc = 0, _run_command(args.command, data, args.n_max)
        except DomainError as err:
            code, doc = 1, err.payload()
        except RecursionError:
            # a RuntimeError, but from a document nested too deeply: an input error
            raise
        except RuntimeError as err:
            print(f"broken invariant: {err}", file=sys.stderr)
            code, doc = 3, {"error": "broken-invariant", "detail": str(err)}
        with open(args.output, "w") as fh:
            fh.write(sz.dumps(doc))
    except (json.JSONDecodeError, KeyError, ValueError, TypeError, IndexError,
            OSError, RecursionError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
