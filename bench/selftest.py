"""Show that the benchmark's checks can fail: each check first passes on a real
output, then must reject a corrupted copy of it.

    python3 bench/selftest.py

Exits 0 when every corruption is caught, 1 otherwise.
"""

import copy
import json
import shutil
import sys

import check as ck
import run  # sets up sys.path and the environment like a benchmark run
import workloads as wl


def first(jobs, kind):
    return next(j for j in jobs if j.kind == kind)


def flip_last_nonzero(m):
    """Flip the sign of the last nonzero entry (not the leading one, whose
    sign the normalization fixes)."""
    m = m.copy()
    i, j = [(i, j) for i in range(m.shape[0]) for j in range(m.shape[1]) if m[i, j] != 0][-1]
    m[i, j] = -m[i, j]
    return m


def negate_last_nonzero(rows):
    i, j = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x != "0"][-1]
    rows[i][j] = rows[i][j][1:] if rows[i][j].startswith("-") else "-" + rows[i][j]


def bump(m, i=0, j=0):
    m = m.copy()
    m[i, j] = m[i, j] + 1
    return m


def swap_columns(m, a=0, b=1):
    m = m.copy()
    m[:, [a, b]] = m[:, [b, a]]
    return m


def mirror_cases(jobs):
    wb = first(jobs, "wb2")
    pB, alpha, tags, acted, ns = wb.run()
    ell = first(jobs, "ell2")
    pA_e, pB_e, alpha_e, factors, isogenies, homs = ell.run()
    other = "WeakOnly" if tags[0] != "WeakOnly" else "AlgebraicPlus"
    return [
        ("mirror: untouched g_mirror output", wb, (pB, alpha, tags, acted, ns), False),
        ("mirror: two columns of alpha swapped", wb,
         (pB, swap_columns(alpha), tags, acted, ns), True),
        ("mirror: one entry of alpha changed", wb, (pB, bump(alpha), tags, acted, ns), True),
        ("mirror: classification tag changed", wb, (pB, alpha, (other, other), acted, ns), True),
        ("mirror: siegel_act entry changed", wb,
         (pB, alpha, tags, (bump(acted[0], 0, 1), acted[1]), ns), True),
        ("mirror: one NS basis element dropped", wb, (pB, alpha, tags, acted, ns[1:]), True),
        ("mirror: untouched elliptic output", ell,
         (pA_e, pB_e, alpha_e, factors, isogenies, homs), False),
        ("mirror: isogeny scaled off the intertwiner", ell,
         (pA_e, pB_e, alpha_e, factors, [bump(f, 0, 1) for f in isogenies], homs), True),
    ]


def spinor_cases(jobs):
    beta = first(jobs, "beta2")
    b, parity = beta.run()
    spin = first(jobs, "spin2")
    ok, r = spin.run()
    lef = first(jobs, "lef2")
    fs, g_ns = lef.run()
    bad_f = copy.copy(fs[0])
    bad_f.mat = flip_last_nonzero(fs[0].mat)
    xi = first(jobs, "xi3")
    xi_out = xi.run()
    bad_xi = copy.copy(xi_out[0])
    key = next(iter(bad_xi.coeffs))
    bad_xi.coeffs = dict(bad_xi.coeffs)
    bad_xi.coeffs[key] = -bad_xi.coeffs[key]
    return [
        ("spinor: untouched beta", beta, (b, parity), False),
        ("spinor: sign of one beta entry flipped", beta, (flip_last_nonzero(b), parity), True),
        ("spinor: parity flipped", beta, (b, "Odd" if parity == "Even" else "Even"), True),
        ("spinor: untouched r(z)", spin, (ok, r), False),
        ("spinor: one entry of r(z) changed", spin, (ok, bump(r)), True),
        ("spinor: untouched f_kappa and g_NS", lef, (fs, g_ns), False),
        ("spinor: sign of one f_kappa entry flipped", lef, ([bad_f] + fs[1:], g_ns), True),
        ("spinor: untouched xi", xi, xi_out, False),
        ("spinor: sign of one xi coefficient flipped", xi, (bad_xi,) + xi_out[1:], True),
        ("spinor: negative control of the cor diagram passes", xi, xi_out[:2] + (True,), True),
    ]


def cli_cases(jobs):
    cases = []
    for kind, corrupt in (("i-omega:n1", lambda d: d["I"][0].__setitem__(0, "7")),
                          ("beta:n2", lambda d: negate_last_nonzero(d["beta"])),
                          ("g-mirror:n1", lambda d: d["alpha"].reverse())):
        call = first(jobs, kind)
        result = call.run()
        doc = json.loads(result[2])
        corrupt(doc)
        bad = (result[0], result[1], json.dumps(doc).encode(), result[3])
        cases.append((f"cli: untouched {kind}", call, result, False))
        cases.append((f"cli: corrupted {kind} output", call, bad, True))
    return cases


def main():
    workdir = run.make_workdir()
    missed = 0
    try:
        cases = []
        cases += mirror_cases(wl.build_round("mirror", 1))
        cases += spinor_cases(wl.build_round("spinor", 1))
        cases += cli_cases(wl.build_round("cli", 1, workdir, run.CHILD_ENV))
        for label, job, out, must_fail in cases:
            try:
                job.check(out)
                caught = False
            except ck.CheckFailed as err:
                caught, why = True, err
            if caught == must_fail:
                print(f"ok      {label}" + (f"  [{why}]" if caught else ""))
            else:
                missed += 1
                print(f"WRONG   {label}: check {'failed' if caught else 'passed'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(cases) - missed} of {len(cases)} cases as expected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
