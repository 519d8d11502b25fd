"""Benchmark of torusmirror: three workloads, checked outputs, normalized times.

    python3 bench/run.py --workload {mirror,spinor,cli} --seed N --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  Result
files and the spans of a traced run go to bench/out/.

Every timed interval t (one job, one CLI call, one set-up) is reported as
t * R0 / r.  Here r is the speed of this interpreter at that moment: the
median time of the recent runs of a fixed slice of Fraction arithmetic, one
run made just before each interval, and a burst just after every interval
longer than 0.1 s, averaged with the one before.  R0 is the slice's time at
the nominal speed, so values read as seconds at that speed however fast the
shared machine happens to be.  See bench/README.md.
"""

import os

# One thread only: the reference slice refuses to run beside another thread,
# and numpy starts a BLAS thread on import unless told not to.  CLI children
# get the caller's environment.
CHILD_ENV = dict(os.environ)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
CHILD_ENV["PYTHONPATH"] = SRC + (os.pathsep + CHILD_ENV["PYTHONPATH"]
                                 if CHILD_ENV.get("PYTHONPATH") else "")
sys.path.insert(0, SRC)

import check as ck  # noqa: E402
import workloads as wl  # noqa: E402

R0 = 0.00055         # seconds: one run of the reference slice at the nominal speed
SLICE_TERMS = 35
SLICE_CHECKSUM = 108
SLICE_RUNS = 3        # slice runs just before and just after every interval
SLICE_WINDOW = 45     # recent slice runs whose median sets r for long intervals
LONG_S = 0.1
SETUP_PROBES = 3      # fresh interpreters timed for setup_s; the median is reported
CLI_PROBES = 5        # launches per interpreter start-up probe
TAIL_BEYOND = 10      # job_tail_ms: the job time with ten jobs beyond it


def _slice_work():
    s = 0
    for i in range(1, SLICE_TERMS):
        a, b = Fraction(i, 2 * i + 1), Fraction(3 * i + 1, i + 2)
        s += (a * b - a / b + (a + b)).numerator % 7
    return s


def _threads():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def slice_runs(times=1):
    """Run the reference slice `times` times; the run times.  It refuses to
    run under a trace or profile hook or beside another thread, either of
    which could slow the slice alone."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise SystemExit("reference slice refused: a trace or profile hook is installed")
    if threading.active_count() != 1 or _threads() != 1:
        raise SystemExit("reference slice refused: the process has more than one thread")
    runs = []
    for _ in range(times):
        t0 = time.perf_counter()
        value = _slice_work()
        runs.append(time.perf_counter() - t0)
        if value != SLICE_CHECKSUM:
            raise SystemExit("reference slice computed a wrong value")
    return runs


class Clock:
    """Times intervals and normalizes them by the reference slice."""

    def __init__(self):
        self.recent = collections.deque(maxlen=SLICE_WINDOW)
        self.run_slice(SLICE_WINDOW)   # warm the slice's code paths, fill the window

    def run_slice(self, times=SLICE_RUNS):
        runs = slice_runs(times)
        self.recent.extend(runs)
        return runs

    def speed(self, before, after, raw):
        """r for an interval of `raw` seconds: the median of the slice runs
        next to it when it is short, since the interpreter's speed holds over
        tens of milliseconds, else of the recent window, which spans it."""
        return statistics.median(before + after if raw <= LONG_S else self.recent)

    def timed(self, fn):
        """(result, raw seconds, normalized seconds) of one call of fn."""
        before = self.run_slice()
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        return out, raw, raw * R0 / self.speed(before, self.run_slice(), raw)


def launch(argv, env=CHILD_ENV):
    """Run a child interpreter to its end: (stdout bytes, exit code, rusage)."""
    proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, env=env, cwd=ROOT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage


def make_workdir():
    path = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# set-up


def setup(args, workdir):
    """Imports, input generation and one untimed warm-up pass: the first job of
    every kind but those in NO_WARMUP (for cli, one call, which warms the
    interpreter's files)."""
    if args.workload != "cli":
        import torusmirror.cli  # noqa: F401  (imports the whole package)
    jobs = wl.build_round(args.workload, args.seed, workdir, CHILD_ENV)
    if args.workload == "cli":
        jobs[0].run()
        return jobs
    seen = set(wl.NO_WARMUP)
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            try:
                job.run()
            except Exception:  # noqa: BLE001  (counted as failed when the rounds run it)
                pass
    return jobs


def setup_probe(args):
    """Child side of a setup_s sample.  The child is the process whose speed
    matters, so it runs the slice itself, at its start and when set up; it
    prints the monotonic time when set up, the time its first slice runs
    took, and r."""
    t0 = time.monotonic()
    first = slice_runs(SLICE_WINDOW // 2)
    spent = time.monotonic() - t0
    workdir = make_workdir()
    try:
        setup(args, workdir)
        ready = time.monotonic()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    r = statistics.median(first + slice_runs(SLICE_WINDOW // 2))
    print(json.dumps({"ready": ready, "slices_s": spent, "r": r}), flush=True)


def measure_setup(args):
    """setup_s: process start to the first timed job, in fresh interpreters
    (CLOCK_MONOTONIC is shared by parent and child), less the child's slice
    runs, normalized by the child's r."""
    samples, raws = [], []
    argv = [os.path.join("bench", "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t_spawn = time.monotonic()
        out, code, _ = launch(argv, env=None)
        if code != 0:
            raise SystemExit(f"setup probe exited with {code}")
        probe = json.loads(out.decode().splitlines()[-1])
        raw = probe["ready"] - t_spawn - probe["slices_s"]
        raws.append(raw)
        samples.append(raw * R0 / probe["r"])
    return statistics.median(samples), raws


# ---------------------------------------------------------------------------
# running jobs


class Tally:
    def __init__(self, n_slots):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.norm = [[] for _ in range(n_slots)]
        self.raw = [[] for _ in range(n_slots)]
        self.child_peak_kb = 0
        self.child_cpu = []
        self.outputs = {}

    def record(self, slot, raw, norm):
        self.raw[slot].append(raw)
        self.norm[slot].append(norm)

    def fail(self, job, why):
        self.failed += 1
        if not getattr(job, "malformed", False):
            print(f"FAILED {job.kind}: {why}", file=sys.stderr)

    def check(self, job, fn, *args):
        try:
            fn(*args)
        except (ck.CheckFailed, ValueError, KeyError, TypeError) as err:
            self.correct = False
            print(f"CHECK FAILED {job.kind}: {err}", file=sys.stderr)


def step_job(clock, job, slot, tally):
    """One in-process job; returns its normalized time."""
    tally.attempted += 1
    try:
        out, raw, norm = clock.timed(job.run)
    except Exception as err:  # noqa: BLE001  (a failed operation is counted)
        tally.fail(job, f"{type(err).__name__}: {err}")
        return 0.0
    tally.record(slot, raw, norm)
    tally.check(job, job.check, out)
    return norm


def step_cli(clock, call, slot, tally):
    """One `torusmirror` call as a fresh process."""
    tally.attempted += 1
    result, raw, norm = clock.timed(call.run)
    code, _, output, usage = result
    tally.record(slot, raw, norm)
    tally.child_peak_kb = max(tally.child_peak_kb, usage.ru_maxrss)
    tally.child_cpu.append(usage.ru_utime + usage.ru_stime)
    if call.failed(result):
        tally.fail(call, f"exit {code}")
    elif not call.malformed:
        previous = tally.outputs.setdefault(call.kind, output)
        tally.check(call, ck.require, previous == output,
                    "repeated call gives byte-identical output")
        tally.check(call, call.check, result)
    return norm


def step_cli_main(clock, call, slot, tally):
    """cli.main in this process on the call's document."""
    from torusmirror import cli

    def main_once():
        try:
            return cli.main(call.argv())
        except Exception as err:  # noqa: BLE001  (the malformed documents' failure)
            return err
    tally.attempted += 1
    code, raw, norm = clock.timed(main_once)
    tally.record(slot, raw, norm)
    if call.malformed or code != 0:
        tally.fail(call, f"cli.main returned {code!r}")
    else:
        with open(call.out_path, "rb") as fh:
            tally.check(call, call.check, (code, "", fh.read(), None))
    return norm


def one_pass(clock, step, jobs, tally, tracer=None):
    """Total normalized time of one pass over the jobs."""
    if tracer is not None:
        tracer.install()
    try:
        return sum(step(clock, job, slot, tally) for slot, job in enumerate(jobs))
    finally:
        if tracer is not None:
            tracer.uninstall()


# ---------------------------------------------------------------------------
# end-to-end metrics


def end_to_end(args, clock, workdir):
    setup_s, setup_raw = measure_setup(args)
    jobs = setup(args, workdir)
    step = step_cli if args.workload == "cli" else step_job
    tally = Tally(len(jobs))
    t0 = time.monotonic()
    rounds = 0
    while rounds == 0 or time.monotonic() - t0 < args.seconds:
        one_pass(clock, step, jobs, tally)
        rounds += 1
    # one value per slot of the round, the median over rounds; each kind
    # weighs into jobs_per_s by its median, so one slow job cannot swing it
    slots = [(job.kind, statistics.median(v)) for job, v in zip(jobs, tally.norm) if v]
    by_kind = kinds(jobs, tally.norm)
    ordered = sorted(v for _, v in slots)
    if args.workload == "cli":
        peak_kb = tally.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(slots) / sum(statistics.median(by_kind[k]) for k, _ in slots), "1/s"),
        "job_p50_ms": (1000 * statistics.median(ordered), "ms"),
        "job_tail_ms": (1000 * ordered[-1 - TAIL_BEYOND], "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    raw = [t for v in tally.raw for t in v]
    detail = {"rounds": rounds, "jobs_per_round": len(jobs), "setup_raw_s": setup_raw,
              "jobs_raw_s": sum(raw), "job_raw_p50_ms": 1000 * statistics.median(raw),
              "kind_ms": {k: 1000 * statistics.median(v) for k, v in by_kind.items()},
              "kind_raw_ms": {k: 1000 * statistics.median(v)
                              for k, v in kinds(jobs, tally.raw).items()}}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:7s} {name:12s} {value:12.4f} {unit}")
    print(f"{args.workload:7s} raw: " + json.dumps(detail))
    detail["sorted_slots_ms"] = sorted((1000 * v, k) for k, v in slots)
    return tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def kinds(jobs, samples):
    out = {}
    for job, v in zip(jobs, samples):
        out.setdefault(job.kind, []).extend(v)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics


def cli_probes(clock):
    """Interpreter start-up, the numpy import and the package import, each in
    fresh interpreters, normalized by the slice around the launch."""
    script = ("import time; t0 = time.perf_counter(); import numpy; "
              "t1 = time.perf_counter(); import torusmirror.cli; "
              "t2 = time.perf_counter(); print(t1 - t0, t2 - t1)")
    starts, numpy_ms, package_ms = [], [], []
    for _ in range(CLI_PROBES):
        starts.append(clock.timed(lambda: launch(["-c", "pass"]))[2])
        (out, _, _), raw, norm = clock.timed(lambda: launch(["-c", script]))
        t_numpy, t_package = (float(x) for x in out.split())
        numpy_ms.append(t_numpy * norm / raw)
        package_ms.append(t_package * norm / raw)
    return {"cli.python_start_ms": 1000 * statistics.median(starts),
            "cli.numpy_import_ms": 1000 * statistics.median(numpy_ms),
            "cli.package_import_ms": 1000 * statistics.median(package_ms)}


def per_layer(args, clock, workdir, spans_path):
    """Alternate untraced and traced in-process passes for --seconds (at least
    one of each); report exact counts per pass, median self times per pass,
    and the traced/untraced time ratio."""
    from layertrace import LAYERS, Tracer
    jobs = setup(args, workdir)
    step = step_cli_main if args.workload == "cli" else step_job
    metrics = cli_probes(clock)
    tally = Tally(len(jobs))
    plain, traced, passes, spans = [], [], [], None
    t0 = time.monotonic()
    while not traced or time.monotonic() - t0 < args.seconds:
        plain.append(one_pass(clock, step, jobs, tally))
        tracer = Tracer(record=spans is None)
        traced.append(one_pass(clock, step, jobs, tally, tracer))
        scale = R0 / statistics.median(clock.recent)
        passes.append({k: (v[0], v[1], v[2] * scale) for k, v in tracer.stats.items()})
        spans = tracer.spans if spans is None else spans
    counts = {k: v[:2] for k, v in passes[0].items()}
    if any({k: v[:2] for k, v in p.items()} != counts for p in passes[1:]):
        raise SystemExit("traced passes differ in their call counts")
    with open(spans_path, "w") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps([name, round(start * 1e6, 1), round(end * 1e6, 1), parent]) + "\n")

    def self_ms(stem):
        return 1000 * statistics.median(
            sum(v[2] for k, v in p.items()
                if k == stem or (stem in LAYERS and k.startswith(stem + ".")))
            for p in passes)

    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics["cli.main_ms"] = metrics["cli.child_cpu_ms"] = 0.0
    if args.workload == "cli":
        metrics["cli.main_ms"] = 1000 * statistics.median(plain)
        calls = Tally(len(jobs))
        for slot, call in enumerate(c for c in dict.fromkeys(jobs) if not c.malformed):
            step_cli(clock, call, slot, calls)
        metrics["cli.child_cpu_ms"] = 1000 * statistics.median(calls.child_cpu)
    out = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer"]
    for m in declared:
        name = m["name"]
        stem, _, field = name.rpartition(".")
        if name in metrics:
            value = metrics[name]
        elif field == "self_ms":
            value = self_ms(stem)
        elif field in ("calls", "cells"):
            value = counts.get(stem, (0, 0))[0 if field == "calls" else 1]
        else:
            raise SystemExit(f"unknown per-layer metric {name}")
        out[name] = {"value": value, "unit": m["unit"]}
    return tally, out, {"passes": len(passes), "spans_first_pass": len(spans)}


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["mirror", "spinor", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "torusmirror", "cli.py")):
        print(f"torusmirror sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workdir = make_workdir()
    clock = Clock()
    try:
        if args.trace:
            tally, metrics, detail = per_layer(args, clock, workdir, stem + ".spans.jsonl")
        else:
            tally, metrics, detail = end_to_end(args, clock, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(stem + ".json", "w") as fh:
        json.dump({"args": vars(args), "result": result, "detail": detail}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
