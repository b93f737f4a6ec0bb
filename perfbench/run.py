"""Run one workload of the blowdyn benchmark and print its metrics.

    python3 perfbench/run.py --workload coxeter_ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload cli_verdicts --trace 1
    python3 perfbench/run.py --workload highk_permutation --selfcheck

Workloads are defined in workloads.py, expected answers in oracle.py, the
measured process in worker.py and the per-layer wrappers in tracer.py;
GLOSSARY.md explains every metric. The metric names and units are read
from BENCHMARK.json at the root of the checkout.

With ``--trace 0`` a fresh worker process runs whole passes of the seeded
job list, closed loop with one client, until ``--seconds`` have elapsed,
and the end-to-end metrics are printed. With ``--trace 1`` the worker runs
every job of one pass twice, once traced, and the per-layer metrics are
printed.
``--selfcheck`` runs two traced workers on one seed and fails unless every
exact counter repeats. The last line of standard output is the JSON result;
a stamped record goes to perfbench/out/.
"""

import argparse
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # gains claimed on DEFAULT_SEED must also hold here
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10  # the tail percentile keeps this many samples of a pass above it

# per-layer counters that must repeat exactly on one seed
EXACT_SUFFIXES = (".calls", ".max_dps", ".max_n", ".exact_one", ".rejected", ".entries",
                  ".iterations", "cyclotomic_degree_stripped", "endpoint_bits.max",
                  "bytes_out", "bytes_in")


def stamp() -> dict:
    import mpmath

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
    }


def worker(mode: str, args, workdir: Path) -> dict:
    """Run worker.py in a fresh interpreter and return its result record."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed),
           str(args.seconds), str(workdir)]
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("%s worker exceeded %d s" % (mode, WORKER_TIMEOUT_S))
    if code != 0:
        raise RuntimeError("%s worker exited with %d" % (mode, code))
    path = workdir / ("result-%s-%d.json" % (mode, proc.pid))
    return json.loads(path.read_text(encoding="utf-8"))


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of quantile q: a Beta((n+1)q, (n+1)(1-q))-weighted
    mean of all order statistics. A single order statistic is the time of one
    job at one moment, so it carries the host's momentary speed; this weighs
    the jobs ranked near q, run at many moments of the run."""
    import mpmath

    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    # the weights vanish (< 1e-15) more than ten standard deviations from q
    reach = 10 * math.sqrt(q * (1 - q) / (n + 2))
    lo, hi = max(0, math.floor((q - reach) * n)), min(n, math.ceil((q + reach) * n))
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(lo, hi + 1)]
    weights = [right - left for left, right in zip(cdf, cdf[1:])]
    return sum(w * x for w, x in zip(weights, xs[lo:hi])) / sum(weights)


def end_to_end(res: dict, setups, per_pass: int):
    """(metrics, tail description) of an untraced run."""
    rows = res["rows"]
    durs = [r[1] for r in rows]
    n = len(durs)
    beyond = TAIL_BEYOND * res["passes"] if per_pass > TAIL_BEYOND else 0
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": n / sum(durs),
        "job_s.p50": harrell_davis(durs, 0.5),
        "job_s.tail": harrell_davis(durs, (n - beyond) / n) if beyond else max(durs),
        "ok_frac": sum(1 for r in rows if r[2] is None) / n,
        "peak_rss_mb": res["peak_rss_mb"],
    }, {"tail_percentile": 100 * (n - beyond) // n, "samples": n, "beyond": beyond}


def per_layer(res: dict) -> dict:
    layers, counts, times = res["layers"], res["counts"], res["times"]
    out = {}
    for name, (calls, incl, own) in layers.items():
        out[name + ".calls"] = calls
        out[name + ".s"] = incl
        out[name + ".self_s"] = own
    for name, seconds in times.items():
        out[name + ".s"] = seconds
    out.update(counts)
    attempts = out.get("spectral.polyroots.calls", 0)
    out["spectral.certify_ratio"] = counts.get("spectral.certified", 0) / attempts if attempts else 0.0
    out["trace.overhead_frac"] = 1.0 - res["untraced_s"] / res["traced_s"]
    out["trace.self_coverage"] = sum(v[2] for v in layers.values()) / res["traced_s"]
    return out


def exact_counters(res: dict) -> dict:
    return {k: v for k, v in per_layer(res).items() if k.endswith(EXACT_SUFFIXES)}


def selfcheck(args, workdir: Path) -> int:
    first = worker("trace", args, workdir)
    second = worker("trace", args, workdir)
    a, b = exact_counters(first), exact_counters(second)
    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    for name in sorted(a):
        print("%-48s %14s %14s" % (name, a[name], b.get(name)))
    coverage = per_layer(second)["trace.self_coverage"]
    print("# layer self times cover %.1f%% of traced job wall time" % (100 * coverage))
    if diff:
        print("# exact counters differ between two traced runs: %s" % ", ".join(diff))
        return 1
    print("# %d exact counters repeat exactly on seed %d" % (len(a), args.seed))
    return 0


def main() -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "blowdyn" / "__init__.py").is_file():
        print("error: no blowdyn sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import oracle

    wl = workloads.generate(args.workload, args.seed)
    workdir = HERE / ".work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        with open(workdir / "expect.pkl", "wb") as handle:
            pickle.dump(oracle.expectations(wl, str(ROOT)), handle)
        if args.selfcheck:
            return selfcheck(args, workdir)
        setups = [worker("setup", args, workdir) for _ in range(SETUP_PROBES)]
        res = worker("trace" if args.trace else "run", args, workdir)
        outdir = HERE / "out"
        outdir.mkdir(exist_ok=True)
        if args.trace:
            shutil.copy(workdir / "spans.jsonl",
                        outdir / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = {wl.digest(), res["digest"]} | {s["digest"] for s in setups}
    defects = {job.id for job in wl.jobs if job.defect}
    failures, job_seconds = {}, {}
    for job_id, seconds, reason in res["rows"]:
        job_seconds.setdefault(job_id, []).append(seconds)
        if reason is not None:
            failures.setdefault(job_id, reason)
    unexpected = sorted(set(failures) - defects)
    if args.trace:
        values, listed, tail = per_layer(res), spec["per_layer"], None
    else:
        values, tail = end_to_end(res, [s["setup_s"] for s in setups + [res]], len(wl.jobs))
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in listed}
    result = {
        "correct": len(digests) == 1 and not unexpected,
        "attempted": len(res["rows"]),
        "failed": sum(1 for r in res["rows"] if r[2] is not None),
        "metrics": metrics,
    }
    env = stamp()
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, passes=res["passes"], env=env, tail=tail,
                  failures=failures, input_digest=wl.digest(),
                  job_seconds={k: statistics.median(v) for k, v in sorted(job_seconds.items())})
    (outdir / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("# workload %s, seed %d, %d passes of %d jobs, inputs %s"
          % (args.workload, args.seed, res["passes"], len(wl.jobs), wl.digest()))
    print("# env " + json.dumps(env))
    for name, m in metrics.items():
        print("%-48s %16.6g %s" % (name, m["value"], m["unit"]))
    if tail:
        print("# job_s.tail is p%(tail_percentile)d of %(samples)d samples, %(beyond)d beyond it" % tail)
    for job_id in sorted(failures):
        print("# %s job %s failed: %s" % ("known-defect" if job_id in defects else "UNEXPECTED",
                                          job_id, failures[job_id]))
    if len(digests) != 1:
        print("# UNEXPECTED: generated inputs differ between processes on one seed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
