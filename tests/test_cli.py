import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import (classify_by_e_form, gaussian_pair, gaussian_torus, rand_ns_form,
                      rand_q_isometry, rand_rational, rand_skew, well_becoming_sample)

import torusmirror
from torusmirror import cli
from torusmirror import exactlin as xl
from torusmirror import serialize as sz
from torusmirror.cli import main
from torusmirror.torus import ns_basis


def run(tmp_path, command, payload, extra=()):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps(payload))
    code = main([command, "--input", str(inp), "--output", str(out), *extra])
    return code, out


TORUS_SQUARE = {"n": 1, "J": [["0", "-1"], ["1", "0"]]}
PAIR_SQUARE = {"torus": TORUS_SQUARE,
               "phi1": [["0", "0"], ["0", "0"]],
               "phi2": [["0", "1"], ["-1", "0"]]}


def test_make_torus_roundtrip(tmp_path):
    code, out = run(tmp_path, "make-torus", TORUS_SQUARE)
    assert code == 0
    assert json.loads(out.read_text())["torus"] == TORUS_SQUARE


def test_classify_and_i_omega(tmp_path):
    code, out = run(tmp_path, "classify", PAIR_SQUARE)
    assert code == 0
    assert json.loads(out.read_text()) == {"tag": "AlgebraicPlus"}
    code, out = run(tmp_path, "i-omega", PAIR_SQUARE)
    assert code == 0
    i = sz.json_to_mat(json.loads(out.read_text())["I"])
    assert i.shape == (4, 4)


def test_domain_error_exit_code_and_payload(tmp_path):
    bad = {"n": 1, "J": [["1", "0"], ["0", "1"]]}  # J^2 != -1
    code, out = run(tmp_path, "make-torus", bad)
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["error"] == "not-complex-structure"
    assert "detail" in doc


def test_malformed_input_exit_code(tmp_path, capsys):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text("{not json")
    assert main(["classify", "--input", str(inp), "--output", str(out)]) == 2
    inp.write_text(json.dumps({"n": 1}))  # missing J
    assert main(["make-torus", "--input", str(inp), "--output", str(out)]) == 2
    assert "input error" in capsys.readouterr().err


def test_deeply_nested_document_is_an_input_error(tmp_path, capsys):
    # json.dumps cannot write this depth, so the text is written by hand
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    depth = 100_000
    inp.write_text('{"n": 1, "J": ' + "[" * depth + "]" * depth + "}")
    assert main(["make-torus", "--input", str(inp), "--output", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload", [TORUS_SQUARE, {"n": 1, "J": [["1", "0"], ["0", "1"]]}],
                         ids=["success", "domain-error"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, payload):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    out = tmp_path / "missing" / "out.json"
    assert main(["make-torus", "--input", str(inp), "--output", str(out)]) == 2
    assert "input error" in capsys.readouterr().err


def _square_pair(n):
    """The product of n square elliptic curves with omega = i * phi."""
    j = [["0"] * (2 * n) for _ in range(2 * n)]
    phi = [["0"] * (2 * n) for _ in range(2 * n)]
    for i in range(0, 2 * n, 2):
        j[i][i + 1], j[i + 1][i] = "-1", "1"
        phi[i][i + 1], phi[i + 1][i] = "1", "-1"
    return {"torus": {"n": n, "J": j}, "phi1": [["0"] * (2 * n)] * (2 * n), "phi2": phi}


def test_n_max_cap(tmp_path):
    code, out = run(tmp_path, "xi", {"n": 3}, extra=["--n-max", "2"])
    assert code == 1
    assert json.loads(out.read_text())["error"] == "domain-error"
    # the cap holds for either pair of verify-mirror, each read before that
    # pair's matrices
    alpha = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    for pairs in ((_square_pair(5), PAIR_SQUARE), (PAIR_SQUARE, _square_pair(5))):
        doc = {"pairA": pairs[0], "pairB": pairs[1], "alpha": alpha}
        code, out = run(tmp_path, "verify-mirror", doc)
        assert code == 1
        assert json.loads(out.read_text())["error"] == "domain-error"


def test_output_is_deterministic(tmp_path):
    _, out1 = run(tmp_path, "ns-basis", {"torus": TORUS_SQUARE})
    text1 = out1.read_text()
    _, out2 = run(tmp_path, "ns-basis", {"torus": TORUS_SQUARE})
    assert out2.read_text() == text1
    assert text1.endswith("\n")


def test_g_mirror_then_verify(tmp_path):
    payload = {"pair": PAIR_SQUARE, "gamma1": [["1", "0"]], "gamma2": [["0", "1"]]}
    code, out = run(tmp_path, "g-mirror", payload)
    assert code == 0
    doc = json.loads(out.read_text())
    check = {"pairA": PAIR_SQUARE, "pairB": doc["pairB"], "alpha": doc["alpha"]}
    code, out = run(tmp_path, "verify-mirror", check)
    assert code == 0
    assert json.loads(out.read_text()) == {"ok": True}
    # tampering with alpha must be caught
    check["alpha"][0][0] = "5"
    code, out = run(tmp_path, "verify-mirror", check)
    assert code == 1


def test_mirror_split_then_verify(tmp_path):
    cols = lambda idx: [["1" if i == j else "0" for i in range(4)] for j in idx]
    # Sigma = Gamma_1* + Gamma_2 and W = Gamma_1 + Gamma_2* for the standard witness
    payload = {"pair": PAIR_SQUARE,
               "splitting": {"basis1": cols([2, 1]), "basis2": cols([0, 3])}}
    code, out = run(tmp_path, "mirror-split", payload)
    assert code == 0
    doc = json.loads(out.read_text())
    code, out = run(tmp_path, "g-mirror",
                    {"pair": PAIR_SQUARE, "gamma1": [["1", "0"]], "gamma2": [["0", "1"]]})
    assert json.loads(out.read_text()) == doc
    check = {"pairA": PAIR_SQUARE, "pairB": doc["pairB"], "alpha": doc["alpha"]}
    code, out = run(tmp_path, "verify-mirror", check)
    assert code == 0
    assert json.loads(out.read_text()) == {"ok": True}
    # the standard splitting Gamma + Gamma*: I_omega moves Gamma* into Gamma
    payload["splitting"] = {"basis1": cols([0, 1]), "basis2": cols([2, 3])}
    code, out = run(tmp_path, "mirror-split", payload)
    assert code == 1
    assert json.loads(out.read_text())["error"] == "not-invariant"


def test_elliptic_mirror_command(tmp_path):
    payload = {"torus": TORUS_SQUARE, "tau": ["0", "1"],
               "phi": [["0", "1"], ["-1", "0"]]}
    code, out = run(tmp_path, "elliptic-mirror", payload)
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"pairA", "pairB", "alpha"}


def test_beta_and_parity(tmp_path):
    e = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    cols = lambda idx: [[e[i][j] for i in range(4)] for j in idx]
    payload = {"n": 1,
               "s1": {"basis1": cols([0, 1]), "basis2": cols([2, 3])},
               "s2": {"basis1": cols([2, 3]), "basis2": cols([0, 1])}}
    code, out = run(tmp_path, "beta", payload)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["parity"] == "Even"
    assert len(doc["beta"]) == 4


def _splitting_doc(g, n, swap=()):
    """The splitting of a Q-isometry g: its first 2n columns, then the rest,
    with columns i and 2n + i exchanged for each i in swap."""
    cols = [[str(x) for x in g[:, i]] for i in range(4 * n)]
    for i in swap:
        cols[i], cols[2 * n + i] = cols[2 * n + i], cols[i]
    return {"basis1": cols[:2 * n], "basis2": cols[2 * n:]}


def beta_payloads():
    """A random pair of splittings at n = 1..3, a random splitting and its
    swap of one pair at n = 2 (an odd beta), and standard to random at n = 4;
    from a fixed seed, so the pinned digests below do not follow
    TORUS_MIRROR_SEED."""
    rng = random.Random(1998)
    docs = [{"n": n, "s1": _splitting_doc(rand_q_isometry(rng, n), n),
             "s2": _splitting_doc(rand_q_isometry(rng, n), n)} for n in (1, 2, 3)]
    g = rand_q_isometry(rng, 2)
    docs.append({"n": 2, "s1": _splitting_doc(g, 2), "s2": _splitting_doc(g, 2, swap=[1])})
    docs.append({"n": 4, "s1": _splitting_doc(xl.eye(16), 4),
                 "s2": _splitting_doc(rand_q_isometry(rng, 4), 4)})
    return docs


# the exact bytes of the beta output, one per beta_payloads document
BETA_SHA256 = [
    "790e3de84f68fbd7bd1068d6e7d4b178e2747ba03d50ed14f3f2752ab178b336",
    "8fbeabde640ac856202469a0c6edb4af0b27ace911d7d58aa057511d3641dd26",
    "1b00d4033053c78659592c9895454a957e82897920667652509958117efd5042",
    "2b84aeda23a04f4c124316ff0456a31e4c8a877f692b12dbb009ea1abb359a21",
    "60fe8bff006567a6d7982117b91a7999253f6529b1caf5395ce79908b8c24161",
]


def test_beta_output_is_pinned(tmp_path):
    for payload, digest in zip(beta_payloads(), BETA_SHA256, strict=True):
        code, out = run(tmp_path, "beta", payload)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _torus_json(A):
    return {"n": A.n, "J": sz.mat_to_json(A.J)}


def _pair_json(p):
    return {"torus": _torus_json(p.torus),
            "phi1": sz.mat_to_json(p.phi1), "phi2": sz.mat_to_json(p.phi2)}


def _columns(m, idx):
    return [[sz.rat_to_str(m[i, j]) for i in range(m.shape[0])] for j in idx]


def pinned_payloads():
    """(id, command, document) at n = 1, 2 for the commands on pairs, from a
    fixed seed: classify once per tag the n admits (pairs with independent
    phi1, phi2 on Gaussian tori) and once on a form that is not NS, i-omega,
    ns-basis, g-mirror, mirror-split across (Sigma, W), elliptic-mirror,
    siegel-act and gns."""
    rng = random.Random(2015)
    docs = []
    for n in (1, 2):
        tags = ["AlgebraicPlus", "AlgebraicMinus"] + (["WeakOnly"] if n > 1 else [])
        for tag in tags:
            p = gaussian_pair(rng, n)
            while classify_by_e_form(p) != tag:
                p = gaussian_pair(rng, n)
            docs.append((f"classify:{tag}:n{n}", "classify", _pair_json(p)))
        doc = _pair_json(gaussian_pair(rng, n))
        if n == 1:  # every skew 2x2 form is J-invariant; this one is not skew
            doc["phi1"] = [["0", "1"], ["1", "0"]]
        else:
            doc["phi1"] = sz.mat_to_json(rand_skew(rng, 2 * n))
        docs.append((f"classify:not-ns:n{n}", "classify", doc))
        docs.append((f"i-omega:n{n}", "i-omega", _pair_json(gaussian_pair(rng, n))))
        A, pol = gaussian_torus(rng, n)
        docs.append((f"ns-basis:n{n}", "ns-basis", {"torus": _torus_json(A)}))
        tau = [sz.rat_to_str(rand_rational(rng)), sz.rat_to_str(rand_rational(rng, nonzero=True))]
        docs.append((f"elliptic-mirror:n{n}", "elliptic-mirror",
                     {"torus": _torus_json(A), "tau": tau, "phi": sz.mat_to_json(pol)}))
        basis = ns_basis(A)
        kappas = [sz.mat_to_json(rand_ns_form(rng, basis)) for _ in range(2)]
        docs.append((f"gns:n{n}", "gns", {"torus": _torus_json(A), "kappas": kappas}))
        p, w = well_becoming_sample(rng, n)
        docs.append((f"g-mirror:n{n}", "g-mirror",
                     {"pair": _pair_json(p), "gamma1": _columns(w.gamma1, range(n)),
                      "gamma2": _columns(w.gamma2, range(n))}))
        # Sigma = Gamma_1* + Gamma_2 and W = Gamma_1 + Gamma_2*, the columns of
        # [[u, 0], [0, u^-T]] for the witness basis u = (Gamma_1 | Gamma_2)
        p, w = well_becoming_sample(rng, n)
        u = xl.block([[w.gamma1, w.gamma2]])
        z = xl.zeros(2 * n)
        big_u = xl.block([[u, z], [z, xl.to_int(xl.invert(u)).T]])
        splitting = {"basis1": _columns(big_u, [*range(2 * n, 3 * n), *range(n, 2 * n)]),
                     "basis2": _columns(big_u, [*range(n), *range(3 * n, 4 * n)])}
        docs.append((f"mirror-split:n{n}", "mirror-split",
                     {"pair": _pair_json(p), "splitting": splitting}))
        docs.append((f"siegel-act:n{n}", "siegel-act",
                     {"pair": _pair_json(gaussian_pair(rng, n)),
                      "g": sz.mat_to_json(rand_q_isometry(rng, n))}))
    return docs


# the exit code and the exact bytes of the output, one per pinned_payloads id
PINNED_SHA256 = {
    "classify:AlgebraicPlus:n1":
        (0, "6540c649485f5dd19ae544dc9ba8e5e09e02e33e165263e098880daff9d6f55a"),
    "classify:AlgebraicMinus:n1":
        (0, "ed578898f7393872f066acae230fc2886c8a9a62396eaf87a6704569da62d2eb"),
    "classify:not-ns:n1":
        (1, "c0e92266b84f26f6f3caf9b478154976b41f12d605f2fcddc0824852ca6f6711"),
    "i-omega:n1":
        (0, "233b28cb0791ab21afc8dad683bbaa506bfcdf714b019e86dcc359ef14bf00c2"),
    "ns-basis:n1":
        (0, "675823a3ab1765621bca76250ccbd250b729bd2cd3023f963acde86b135993ad"),
    "elliptic-mirror:n1":
        (0, "4b5e8456462a17ec4b8c03c61df3d8ae96c5be78efb4de620d5d18065850e9d3"),
    "gns:n1":
        (0, "f0a1acc93a635defa947c8c964f33a6811b2457852c9936d1c47508c79e768e9"),
    "g-mirror:n1":
        (0, "69ac2864e8c5c23f31987e54a9d20280d2a7e7a988986602e7f3706d62434908"),
    "mirror-split:n1":
        (0, "3db7d9774f429ab104dab4c460691057eb4434960026776cadf60eeb7add84a4"),
    "siegel-act:n1":
        (0, "2ef82981526fed044098ea07f0dacce39cdf54a40c612f5ecc61fd83755f9d51"),
    "classify:AlgebraicPlus:n2":
        (0, "6540c649485f5dd19ae544dc9ba8e5e09e02e33e165263e098880daff9d6f55a"),
    "classify:AlgebraicMinus:n2":
        (0, "ed578898f7393872f066acae230fc2886c8a9a62396eaf87a6704569da62d2eb"),
    "classify:WeakOnly:n2":
        (0, "e994ab016a82a789cfb912942a58a1e3bbc4bc5e30b16f60355f17058666b999"),
    "classify:not-ns:n2":
        (1, "c0e92266b84f26f6f3caf9b478154976b41f12d605f2fcddc0824852ca6f6711"),
    "i-omega:n2":
        (0, "ad8c6d5ad847c9c457738d6efb2b6cca41ee8d1ee5c89e75e93dbfb8dcc51a5f"),
    "ns-basis:n2":
        (0, "9ba10bede4689de17c4e39e415ebb30251d10926adc87627038f54ae671f3509"),
    "elliptic-mirror:n2":
        (0, "3967945336e4381b17e4f4353ef819ea75b30863588afdd1fd900aebbcc6d8ed"),
    "gns:n2":
        (0, "5745058cfaee07c1563436b2a5d2c694c06c2c1cb338bb096c6c0933026e5e0d"),
    "g-mirror:n2":
        (0, "ccd770a03f7952208460b9c051f33ff001406c841d50023a2cb0b4dea94c4a53"),
    "mirror-split:n2":
        (0, "6d72a0040ce1026115ef7b2e8b8514cdde954b82623e8ee32ceefaa7ad158d19"),
    "siegel-act:n2":
        (0, "9fec235791d7df2cfcfee4a75f41e24dd03252e6bde84bca7f5765c6ae5dc998"),
}


def test_pinned_outputs(tmp_path, capsys):
    docs = pinned_payloads()
    assert [d[0] for d in docs] == list(PINNED_SHA256)
    for name, command, payload in docs:
        code, out = run(tmp_path, command, payload)
        assert capsys.readouterr().err == ""
        text = out.read_bytes()
        assert (code, hashlib.sha256(text).hexdigest()) == PINNED_SHA256[name], name
        if command == "classify" and code == 0:
            assert json.loads(text) == {"tag": name.split(":")[1]}


# the exact bytes of the xi output, so that a reordering of its terms fails
XI_SHA256 = {
    1: "0c1f04cb6cdbf2110df24275a0a4a2d022d80653022726fd62093355f48a9038",
    2: "2a7b9787601c1e85408dc5b0ff2b36887ec936a320e358ede94c13370dddac9b",
    3: "f0c49ca8e86df7ca82a13365d424b9ce6b8cd636f5aa08b434dd663f81a22d22",
    4: "0479ebe5ec61b69fbb784edb9ac6ad69197e883e5b54e473a9a484f97e9db2aa",
}


def test_phi_p_and_xi(tmp_path):
    payload = {"n": 1, "v": [{"indices": [1], "coeff": "1"}]}
    code, out = run(tmp_path, "phi-p", payload)
    assert code == 0
    assert json.loads(out.read_text())["image"] == [
        {"indices": [2], "coeff": "1"}]
    payload = {"n": 1, "v": [{"indices": [1, 2], "coeff": "2"}]}
    code, out = run(tmp_path, "phi-p", payload)
    assert code == 0
    assert json.loads(out.read_text())["image"] == [
        {"indices": [], "coeff": "2"}]
    for n, digest in XI_SHA256.items():
        code, out = run(tmp_path, "xi", {"n": n})
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_gns_command(tmp_path):
    payload = {"torus": TORUS_SQUARE, "kappas": [[["0", "1"], ["-1", "0"]]]}
    code, out = run(tmp_path, "gns", payload)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 3
    assert sorted(doc["degrees"]) == [-2, 0, 2]


def test_gns_command_at_n4(tmp_path):
    # the product complex structure and its symplectic class, under the default --n-max 4
    j = [["0"] * 8 for _ in range(8)]
    kappa = [["0"] * 8 for _ in range(8)]
    for i in range(0, 8, 2):
        j[i][i + 1], j[i + 1][i] = "-1", "1"
        kappa[i][i + 1], kappa[i + 1][i] = "1", "-1"
    code, out = run(tmp_path, "gns", {"torus": {"n": 4, "J": j}, "kappas": [kappa]})
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 3
    assert sorted(doc["degrees"]) == [-2, 0, 2]


def test_siegel_act_command(tmp_path):
    g = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "1", "1", "0"], ["-1", "0", "0", "1"]]
    code, out = run(tmp_path, "siegel-act", {"pair": PAIR_SQUARE, "g": g})
    assert code == 0
    doc = json.loads(out.read_text())
    assert sz.json_to_mat(doc["phi1"])[0, 1] == 1
    assert doc["phi2"] == PAIR_SQUARE["phi2"]


def test_spin_check_command(tmp_path):
    e = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    code, out = run(tmp_path, "spin-check", {"n": 1, "z": e})
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["spin"] is True
    assert sz.json_to_mat(doc["r"]).shape == (4, 4)
    two = [[str(2 * (i == j)) for j in range(4)] for i in range(4)]
    code, out = run(tmp_path, "spin-check", {"n": 1, "z": two})
    assert code == 0
    assert json.loads(out.read_text()) == {"spin": False}


# (id, command, document, exit code, error code): inputs the commands must
# reject with exit 2 and "input error" on stderr, or exit 1 with the error
# payload, never a crash
MALFORMED = [
    ("zero-denominator", "classify",
     {"torus": TORUS_SQUARE, "phi1": [["0", "1/0"], ["-1/0", "0"]],
      "phi2": PAIR_SQUARE["phi2"]}, 2, None),
    ("alpha-shape", "verify-mirror",
     {"pairA": PAIR_SQUARE, "pairB": PAIR_SQUARE,
      "alpha": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}, 2, None),
    # pairs of different n are never mirrors, whichever pair alpha is sized for
    ("alpha-for-pairA", "verify-mirror",
     {"pairA": PAIR_SQUARE, "pairB": _square_pair(2),
      "alpha": [["1" if i == j else "0" for j in range(4)] for i in range(4)]},
     1, "form-mismatch"),
    ("alpha-for-pairB", "verify-mirror",
     {"pairA": PAIR_SQUARE, "pairB": _square_pair(2),
      "alpha": [["1" if i == j else "0" for j in range(8)] for i in range(8)]},
     1, "form-mismatch"),
    ("g-shape", "siegel-act", {"pair": PAIR_SQUARE, "g": [["1", "0"], ["0", "1"]]}, 2, None),
    ("z-shape", "spin-check",
     {"n": 1, "z": [["1" if i == j else "0" for j in range(3)] for i in range(3)]}, 2, None),
    ("z-size-not-n", "spin-check",
     {"n": 1, "z": [["1" if i == j else "0" for j in range(16)] for i in range(16)]}, 2, None),
    ("phi-p-index", "phi-p", {"n": 1, "v": [{"indices": [3], "coeff": "1"}]}, 2, None),
    # rationals are strings or JSON integers, n and indices JSON integers
    ("coeff-float", "phi-p", {"n": 1, "v": [{"indices": [1], "coeff": 0.1}]}, 2, None),
    ("coeff-bool", "phi-p", {"n": 1, "v": [{"indices": [1], "coeff": True}]}, 2, None),
    ("n-float", "xi", {"n": 1.9}, 2, None),
    ("index-bool", "phi-p", {"n": 1, "v": [{"indices": [True], "coeff": "1"}]}, 2, None),
    ("J-float", "make-torus", {"n": 1, "J": [["0", "-1"], [1.5, "0"]]}, 2, None),
    # fractions.Fraction reads each of these strings as 0, which would make
    # the square torus; only [+-]?digits and [+-]?digits/digits are rationals
    *((f"J-{name}", "make-torus", {"n": 1, "J": [["0", "-1"], ["1", entry]]}, 2, None)
      for name, entry in [("exponent", "0e5"), ("decimal", "0.0"), ("space", " 0"),
                          ("underscore", "0_0"), ("arabic-indic", "\u0660")]),
    # a negative n is an input error, read before any matrix of its object
    ("n-negative-torus", "make-torus", {"n": -1, "J": []}, 2, None),
    ("n-negative-beta", "beta",
     {"n": -1, "s1": {"basis1": [], "basis2": []}, "s2": {"basis1": [], "basis2": []}},
     2, None),
    # a splitting basis vector of 3 entries is a shape error, not a failure of isotropy
    ("beta-vector-length", "beta",
     {"n": 1, "s1": {"basis1": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
                     "basis2": [["0", "0", "1", "0"], ["0", "0", "0", "1"]]},
      "s2": {"basis1": [["1", "0", "0"], ["0", "1", "0", "0"]],
             "basis2": [["0", "0", "1", "0"], ["0", "0", "0", "1"]]}}, 2, None),
    ("split-vector-count", "mirror-split",
     {"pair": PAIR_SQUARE, "splitting": {"basis1": [["1", "0", "0", "0"]],
                                         "basis2": [["0", "0", "1", "0"], ["0", "0", "0", "1"]]}},
     2, None),
    ("phi2-degenerate", "classify",
     {"torus": TORUS_SQUARE, "phi1": PAIR_SQUARE["phi1"], "phi2": PAIR_SQUARE["phi1"]},
     1, "not-ns-form"),
    ("gns-not-ns", "gns", {"torus": TORUS_SQUARE, "kappas": [[["0", "1"], ["1", "0"]]]},
     1, "not-ns-form"),
    # diag(1, 1, 1, 2) is not a Q-isometry (g^T Q g != Q) and sends omega to a
    # matrix that is not skew
    ("siegel-not-isometry", "siegel-act",
     {"pair": PAIR_SQUARE, "g": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                 ["0", "0", "1", "0"], ["0", "0", "0", "2"]]},
     1, "form-mismatch"),
    # 2 * identity is not a Q-isometry either, though it fixes omega
    ("siegel-scaled", "siegel-act",
     {"pair": PAIR_SQUARE, "g": [["2" if i == j else "0" for j in range(4)] for i in range(4)]},
     1, "form-mismatch"),
]


@pytest.mark.parametrize("command,payload,expected,error",
                         [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_malformed_document_exit_code(tmp_path, capsys, command, payload, expected, error):
    code, out = run(tmp_path, command, payload)
    assert code == expected
    err = capsys.readouterr().err
    if expected == 2:
        assert "input error" in err
        assert not out.exists()
    else:
        assert err == ""
        assert json.loads(out.read_text())["error"] == error


def test_gns_kappa_checked_against_torus(tmp_path):
    # skew but not J-invariant for J = [[0,-1,0,0],[1,0,0,0],[0,0,0,-1],[0,0,1,0]]
    torus = {"n": 2, "J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                           ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]}
    kappa = [["0", "1", "0", "0"], ["-1", "0", "0", "0"],
             ["0", "0", "0", "0"], ["0", "0", "0", "0"]]
    code, out = run(tmp_path, "gns", {"torus": torus, "kappas": [kappa]})
    assert code == 0
    kappa[0][2], kappa[2][0] = "1", "-1"
    code, out = run(tmp_path, "gns", {"torus": torus, "kappas": [kappa]})
    assert code == 1
    assert json.loads(out.read_text())["error"] == "not-ns-form"


def test_malformed_documents_under_optimize(tmp_path):
    """The exit-code contract holds with assert statements stripped (-O)."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(torusmirror.__file__).parents[1]))
    for name, command, payload, expected, error in MALFORMED:
        inp = tmp_path / f"{name}.in.json"
        out = tmp_path / f"{name}.out.json"
        inp.write_text(json.dumps(payload))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "torusmirror.cli", command,
             "--input", str(inp), "--output", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == expected, (name, proc.stderr)
        assert "Traceback" not in proc.stderr, name
        if expected == 2:
            assert "input error" in proc.stderr, name
        else:
            assert json.loads(out.read_text())["error"] == error, name


# the [e, f] = h check of lefschetz_f made to fail: h is replaced by -h
BROKEN_H = """
import sys
from torusmirror import lefschetz as lf
from torusmirror.cli import main

h = lf.grading_operator
lf.grading_operator = lambda n: lf.GradedOperator(
    h(n).size, {k: -v for k, v in h(n).num.items()}, 1, 0)
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_broken_invariant_exits_3_with_a_payload(tmp_path, flags):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(torusmirror.__file__).parents[1]))
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    kappa = [["0", "1"], ["-1", "0"]]
    inp.write_text(json.dumps({"torus": TORUS_SQUARE, "kappas": [kappa]}))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", BROKEN_H, "gns", "--input", str(inp), "--output", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "[e_kappa, f_kappa] != h" in proc.stderr
    assert json.loads(out.read_text()) == {"error": "broken-invariant",
                                           "detail": "[e_kappa, f_kappa] != h"}


# the n = 2 elliptic_mirror input whose symplectic basis needs a correction
# C != 0: J = diag(R, R) for the square structure R
REPAIRED_ELLIPTIC = {
    "torus": {"n": 2, "J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                            ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]},
    "tau": ["1", "2"],
    "phi": [["0", "0", "1", "0"], ["0", "0", "0", "1"],
            ["-1", "0", "0", "1"], ["0", "-1", "-1", "0"]]}


# the exact bytes of the REPAIRED_ELLIPTIC output, as the bounded search with
# its default bound of 5 wrote them
REPAIRED_ELLIPTIC_SHA256 = "f01df0e190631225af8b45c422c644463d465f98bf9e0587dbe28c4d2db74280"


def test_repaired_elliptic_mirror_output_is_pinned(tmp_path, capsys):
    code, out = run(tmp_path, "elliptic-mirror", REPAIRED_ELLIPTIC)
    assert code == 0
    assert capsys.readouterr().err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPAIRED_ELLIPTIC_SHA256


def test_budget_is_not_an_option(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(torusmirror.__file__).parents[1]))
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps(REPAIRED_ELLIPTIC))
    proc = subprocess.run(
        [sys.executable, "-m", "torusmirror.cli", "elliptic-mirror",
         "--input", str(inp), "--output", str(out), "--budget", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "--budget" in proc.stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# the grammar of a rational, and the exit-code contract under mutated documents


def test_rationals_in_the_grammar_parse(tmp_path):
    assert [sz.str_to_rat(s) for s in ("3/4", "-3/4", "+2", "-0", "06/8", 7, -10 ** 30)] == [
        Fraction(3, 4), Fraction(-3, 4), 2, 0, Fraction(3, 4), 7, -10 ** 30]
    assert all(type(sz.str_to_rat(s)) is int for s in ("+2", "4/2", 7))
    doc = {"n": 1, "J": [["+0", -1], ["2/2", "0/5"]]}
    code, out = run(tmp_path, "make-torus", doc)
    assert code == 0
    assert json.loads(out.read_text())["torus"] == TORUS_SQUARE


def fuzz_seed_documents(tmp_path):
    """(command, document): valid documents for all 14 commands at n <= 2, as
    the tests above build them."""
    docs = [(command, doc) for _, command, doc in pinned_payloads()]
    docs += [("beta", doc) for doc in beta_payloads() if doc["n"] <= 2]
    e = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    g_mirror_doc = {"pair": PAIR_SQUARE, "gamma1": [["1", "0"]], "gamma2": [["0", "1"]]}
    code, out = run(tmp_path, "g-mirror", g_mirror_doc)
    assert code == 0
    mirror = json.loads(out.read_text())
    docs += [("make-torus", TORUS_SQUARE), ("xi", {"n": 1}), ("spin-check", {"n": 1, "z": e}),
             ("phi-p", {"n": 2, "v": [{"indices": [1, 3], "coeff": "2/3"}]}),
             ("g-mirror", g_mirror_doc),
             ("verify-mirror", {"pairA": PAIR_SQUARE, "pairB": mirror["pairB"],
                                "alpha": mirror["alpha"]})]
    return docs


def _leaf_paths(obj, path=()):
    """The key paths to the leaves of a JSON document: every value that is not
    a nonempty list or object."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


def _with_n(doc, n, paths):
    """A copy of the JSON document doc with the value at each key path set to n."""
    doc = json.loads(json.dumps(doc))
    for path in paths:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = n
    return doc


def _n_paths(obj, path=()):
    """The key paths to the values of the key "n" in the JSON document obj."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "n":
                yield path + (key,)
            else:
                yield from _n_paths(value, path + (key,))


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_n_of_a_document_is_capped(tmp_path, capsys, command):
    """Each n of each seed document of the command, alone and all of them
    together, set to --n-max + 1 is a domain error naming the cap (exit 1),
    and set to -1 an input error (exit 2): every parser reads its n through
    the cap, before the object's matrices, which are sized for another n."""
    n_max = 1
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    docs = [doc for c, doc in fuzz_seed_documents(tmp_path) if c == command]
    assert docs
    for doc in docs:
        paths = list(_n_paths(doc))
        assert paths
        for n, expected in ((n_max + 1, 1), (-1, 2)):
            for changed in [_with_n(doc, n, [path]) for path in paths] + [_with_n(doc, n, paths)]:
                inp.write_text(json.dumps(changed))
                out.unlink(missing_ok=True)
                capsys.readouterr()
                code = main([command, "--input", str(inp), "--output", str(out),
                             "--n-max", str(n_max)])
                err = capsys.readouterr().err
                assert code == expected, changed
                if expected == 1:
                    assert err == ""
                    assert json.loads(out.read_text()) == {
                        "error": "domain-error",
                        "detail": f"n = {n} exceeds the safety cap --n-max = {n_max}"}
                else:
                    assert err == f"input error: n = {n} is negative\n" and not out.exists()


FUZZ_LEAVES = [0, 1, -1, 2, True, False, None, [], {}, "x", "", "1/0", "1e400", "0.5",
               "-0", "3/4", 10 ** 30, -10 ** 30]


def test_mutated_documents_keep_the_exit_code_contract(tmp_path, capsys, rng):
    """One or two leaves of a valid document replaced by a value of another
    kind: the exit code is 0, 1, 2 or 3, exits 1 and 3 write an error payload,
    exit 1 writes nothing to stderr, and no exception leaves main."""
    seeds = fuzz_seed_documents(tmp_path)
    assert {command for command, _ in seeds} == set(cli.COMMANDS)
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    codes = set()
    for k in range(400):
        command, doc = seeds[k % len(seeds)]
        doc = json.loads(json.dumps(doc))
        paths = list(_leaf_paths(doc))
        for path in rng.sample(paths, min(len(paths), rng.choice([1, 2]))):
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = rng.choice(FUZZ_LEAVES)
        inp.write_text(json.dumps(doc))
        out.unlink(missing_ok=True)
        capsys.readouterr()
        code = main([command, "--input", str(inp), "--output", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (command, doc)
        if code in (1, 3):
            assert {"error", "detail"} <= json.loads(out.read_text()).keys(), (command, doc)
        if code == 1:
            assert err == "", (command, doc)
        codes.add(code)
    assert {0, 1, 2} <= codes
