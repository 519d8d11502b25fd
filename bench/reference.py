"""Reference table: per-operation times at n = 1..4, each case in its own
traced interpreter with a cap.  A case over its cap is killed and recorded as
over the cap, not dropped.

    python3 bench/reference.py [--cap SECONDS] [--seed N]

Prints a Markdown table and writes bench/out/reference.json.  Each time is
the operation's span in the layer trace, raw and normalized like the
benchmark's intervals; the child's memory is capped at 2 GiB.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import run  # sets up sys.path and the environment like a benchmark run
import gen
import workloads as wl
from layertrace import Tracer

OPS = ["g_mirror", "verify_mirror", "beta (random pair)", "beta (standard to random)",
       "spin-check", "so_lambda_spinor_image", "ns_basis"]


def case(op, n, seed):
    """Run one operation traced; its span time in seconds (spin-check: is_spin
    plus r_of_z, as the CLI command does)."""
    from torusmirror import clifford as cl, lefschetz as lf, mirror as mi
    from torusmirror import pairspace as ps, torus as ts
    rng = random.Random(f"reference:{op}:{n}:{seed}")
    arr, vecs = wl.arr, wl.vecs
    if op in ("g_mirror", "verify_mirror", "ns_basis"):
        s = gen.well_becoming(rng, n)
        A = ts.make_torus(n, arr(s["J"]))
        p = ps.make_weak_pair(A, arr(s["phi1"]), arr(s["phi2"]))
        w = mi.WellBecomingWitness(vecs(s["gamma1"]), vecs(s["gamma2"]))
        if op == "g_mirror":
            call = lambda: mi.g_mirror(p, w)  # noqa: E731
        elif op == "verify_mirror":
            pB, cert = mi.g_mirror(p, w)
            call = lambda: mi.verify_mirror(p, pB, cert.alpha)  # noqa: E731
        else:
            call = lambda: ts.ns_basis(A)  # noqa: E731
    elif op.startswith("beta"):
        a = gen.standard_splitting(n) if "standard" in op else gen.rand_splitting(rng, n)
        b = gen.rand_splitting(rng, n)
        s1 = cl.IsotropicSplitting(n, vecs(a["basis1"]), vecs(a["basis2"]))
        s2 = cl.IsotropicSplitting(n, vecs(b["basis1"]), vecs(b["basis2"]))
        call = lambda: cl.beta_iso(s1, s2)  # noqa: E731
    elif op == "spin-check":
        z = arr(gen.spin_element(rng, n)["z"])
        call = lambda: (cl.is_spin(z), cl.r_of_z(z))  # noqa: E731
    else:
        A = ts.make_torus(n, arr(gen.lefschetz_sample(rng, n, count=1)["J"]))
        call = lambda: lf.so_lambda_spinor_image(A)  # noqa: E731
    clock = run.Clock()
    before = clock.run_slice(run.SLICE_WINDOW)
    tracer = Tracer(record=True).install()
    try:
        t0 = time.perf_counter()
        call()
        raw = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    r = statistics.median(before + clock.run_slice(run.SLICE_WINDOW))
    top = sorted(((v[2], k) for k, v in tracer.stats.items()), reverse=True)[:2]
    return {"raw_s": raw, "norm_s": raw * run.R0 / r,
            "top_self": [[k, round(t, 4)] for t, k in top]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cap", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--case", help=argparse.SUPPRESS)
    parser.add_argument("--n", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.case:
        limit = 2 << 30
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        print(json.dumps(case(args.case, args.n, args.seed)))
        return 0
    rows = []
    for op in OPS:
        for n in (1, 2, 3, 4):
            argv = [sys.executable, os.path.abspath(__file__), "--case", op,
                    "--n", str(n), "--seed", str(args.seed)]
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    cwd=run.ROOT)
            try:
                out, err = proc.communicate(timeout=args.cap)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                rows.append({"op": op, "n": n, "status": f"over the {args.cap:.0f} s cap"})
            else:
                if proc.returncode != 0:
                    rows.append({"op": op, "n": n, "status": "failed: "
                                 + err.decode().strip().splitlines()[-1]})
                else:
                    rows.append({"op": op, "n": n, "status": "ok",
                                 **json.loads(out.decode().splitlines()[-1])})
            print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.OUT, "reference.json"), "w") as fh:
        json.dump({"cap_s": args.cap, "seed": args.seed, "rows": rows}, fh, indent=1)
    print("| operation | n=1 | n=2 | n=3 | n=4 |")
    print("|---|---|---|---|---|")
    for op in OPS:
        cells = []
        for row in rows:
            if row["op"] == op:
                cells.append(f"{row['norm_s']:.3g} s" if row["status"] == "ok" else row["status"])
        print(f"| {op} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
