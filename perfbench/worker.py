"""One measured process of the benchmark: set up, run passes, check answers.

Started by run.py in a fresh interpreter, so the workload process holds
only the package, the benchmark's own code and the generated inputs:

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR

MODE is ``setup`` (time the set-up only), ``run`` (as many whole passes as
fit in about SECONDS) or ``trace`` (one pass running every job twice, once
traced). The result is written as JSON to WORKDIR/result-MODE-<pid>.json.
Every answer is checked against the expectations run.py computed with the
oracle and pickled to WORKDIR/expect.pkl.
"""

import contextlib
import io
import json
import os
import pickle
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]


def setup(workload: str, seed: int, workdir: Path):
    """Import the package and build the workload's inputs; the timed part of
    every shell invocation of the program plus writing its documents."""
    sys.path.insert(0, str(ROOT / "src"))
    import blowdyn
    import blowdyn.cli

    if not Path(blowdyn.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("blowdyn imported from %s, not from this checkout" % blowdyn.__file__)
    import workloads

    wl = workloads.generate(workload, seed)
    docdir = workdir / ("docs-%d" % os.getpid())
    docdir.mkdir()
    paths = {}
    for name, text in wl.docs.items():
        path = docdir / (name + ".json")
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return wl, paths, docdir


class Modules:
    """Program entry points, looked up at call time so tracing wrappers apply."""

    def __init__(self):
        import blowdyn.actions
        import blowdyn.cli
        import blowdyn.gate
        import blowdyn.positivity
        import blowdyn.ring
        import blowdyn.spectral

        self.actions = blowdyn.actions
        self.cli = blowdyn.cli
        self.gate = blowdyn.gate
        self.positivity = blowdyn.positivity
        self.ring = blowdyn.ring
        self.spectral = blowdyn.spectral


def call(mods: Modules, job, paths, docdir: Path):
    """Run one job; returns (seconds, exit code, answer, stderr or error)."""
    if job.kind == "cli":
        argv = [paths.get(a[1:], str(docdir / (a[1:] + ".json"))) if a.startswith("@") else a
                for a in job.argv]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = mods.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught exception is exit 1, a failed job
            return time.perf_counter() - start, 1, out.getvalue(), "%s: %s" % (
                type(exc).__name__, str(exc)[:200])
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()[:300]
    start = time.perf_counter()
    try:
        ring = mods.ring.build_ring(mods.ring.BlowupConfig(job.k, job.dims))
        action = mods.actions.PullbackAction(ring, job.matrix, name="f")
        if job.kind == "validate":
            result = action.validate()
        elif job.kind == "dd":
            result = mods.spectral.dynamical_degrees(action, job.tol)
        elif job.kind == "dpr":
            result = mods.spectral.degree_properties_report(action, job.tol)
        elif job.kind == "chain":
            result = mods.gate.degree_chain_report(action, job.tol)
        elif job.kind == "fixed":
            assertion = mods.positivity.nef_necessary_check(-ring.canonical_class())
            result = mods.positivity.verify_fixed_nef_class(action, assertion, job.tol)
        else:
            raise ValueError("unknown job kind %r" % job.kind)
        # the entropy verdicts are lazy properties: part of producing the answer
        ds = _forward(job, result)
        flags = None if ds is None else (ds.zero_entropy_proved, ds.positive_entropy_proved)
    except Exception as exc:  # recorded as a failed job
        return time.perf_counter() - start, 1, None, "%s: %s" % (type(exc).__name__, str(exc)[:200])
    return time.perf_counter() - start, 0, (result, flags), ""


def _forward(job, result):
    """The degree sequence of f inside a library answer, if it has one."""
    if job.kind == "dd":
        return result
    if job.kind == "fixed":
        return result.degrees
    return getattr(result, "forward", None)


# ------------------------------------------------------------------ checks


def _horner_sign(coeffs, x: Fraction) -> int:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def root_in(lo: Fraction, hi: Fraction, spec) -> bool:
    """Is the oracle's root, isolated in [a, b], inside [lo, hi]?"""
    coeffs, a, b = spec
    if hi < a or lo > b:
        return False
    left = lo <= a or _horner_sign(coeffs, lo) in (0, _horner_sign(coeffs, a))
    right = hi >= b or _horner_sign(coeffs, hi) in (0, _horner_sign(coeffs, b))
    return left and right


def check_enclosures(encs, specs, tol, entropy, logs):
    """encs: (lo, hi) per degree; entropy: (lo, hi). Returns a reason or None."""
    if len(encs) != len(specs):
        return "%d degrees, expected %d" % (len(encs), len(specs))
    for i, ((lo, hi), spec) in enumerate(zip(encs, specs)):
        if spec is None:
            if not lo == hi == 1:
                return "lambda_%d not exactly 1" % i
        elif not root_in(lo, hi, spec):
            return "lambda_%d enclosure misses the oracle root" % i
        elif tol is not None and hi - lo > tol:
            return "lambda_%d width %.3g > tol" % (i, float(hi - lo))
    if entropy is not None:
        lo, hi = entropy
        if logs is None:
            if not lo == hi == 0:
                return "entropy not exactly 0"
        elif not (0 < lo <= logs[1] and hi >= logs[0]):
            return "entropy enclosure misses log(lambda)"
    return None


def _field(obj, dotted):
    for part in dotted.split("."):
        obj = obj[part] if isinstance(obj, dict) else getattr(obj, part)
    return obj


def _parse_text_enclosure(phrase: str):
    phrase = phrase.strip()
    if phrase.endswith("(exact)"):
        v = Fraction(phrase.lstrip("= ").split()[0])
        return v, v
    lo, hi = phrase[phrase.index("[") + 1:phrase.index("]")].split(",")
    return Fraction(lo.strip()), Fraction(hi.strip())


def check(job, expect, code, answer, err):
    """None if the answer is the expected one, else the reason it is not."""
    if code != expect["exit"]:
        return "exit %s, expected %d (%s)" % (code, expect["exit"], err.splitlines()[-1] if err else "")
    if job.kind == "cli":
        return _check_cli(expect["checks"], answer)
    answer, flags = answer
    for chk in expect["checks"]:
        tag = chk[0]
        if tag == "degrees":
            ds = _forward(job, answer)
            encs = [(e.lo, e.hi) for e in ds.degrees]
            reason = check_enclosures(encs, chk[1], chk[2], (ds.entropy.lo, ds.entropy.hi), chk[3])
            if reason is None and flags != (chk[3] is None, chk[3] is not None):
                reason = "zero/positive entropy proved: %s" % (flags,)
        elif tag == "backward":
            encs = [(e.lo, e.hi) for e in answer.backward.degrees]
            reason = check_enclosures(encs, chk[1], chk[2], None, None)
        else:
            value = _field(answer, chk[1])
            if chk[1] == "certificate":
                value = value is not None
            reason = None if value == chk[2] else "%s is %r, expected %r" % (chk[1], value, chk[2])
        if reason:
            return reason
    return None


def _check_cli(checks, out: str):
    lines = [line for line in out.splitlines() if line.strip()]
    data = None
    for chk in checks:
        tag = chk[0]
        if tag == "text":
            if chk[1] not in out:
                return "output lacks %r" % chk[1]
            continue
        if tag == "startswith":
            if not out.startswith(chk[1]):
                return "output does not start with %r" % chk[1]
            continue
        if data is None and out.lstrip().startswith("{"):
            data = json.loads(lines[-1])
        if tag == "json":
            value = _field(data, chk[1])
            if chk[1] == "certificate":
                value = value is not None
            if value != chk[2]:
                return "%s is %r, expected %r" % (chk[1], value, chk[2])
        elif tag == "degrees":
            if data is not None:
                encs = [(Fraction(str(d["lo"])), Fraction(str(d["hi"]))) for d in data["degrees"]]
                ent = data["entropy"]
                entropy = (Fraction(str(ent["lo"])), Fraction(str(ent["hi"])))
            else:
                encs = [_parse_text_enclosure(l.split(" ", 1)[1]) for l in lines
                        if l.startswith("lambda_")]
                entropy = _parse_text_enclosure(
                    next(l for l in lines if l.startswith("entropy "))[len("entropy "):])
            reason = check_enclosures(encs, chk[1], chk[2], entropy, chk[3])
            if reason:
                return reason
        elif tag == "entropy":
            if data is not None:
                entropy = (Fraction(str(data["entropy"]["lo"])), Fraction(str(data["entropy"]["hi"])))
            else:
                entropy = _parse_text_enclosure(lines[0].split(": ", 1)[1])
            reason = check_enclosures([], [], None, entropy, chk[1])
            if reason:
                return reason
    return None


# --------------------------------------------------------------------- run


def run_job(mods, job, expect, paths, docdir, tracer=None, cli_stats=None):
    """Run and check one job: (job id, seconds, failure reason or None)."""
    if tracer is not None:
        tracer.job = job.id
    seconds, code, answer, err = call(mods, job, paths, docdir)
    if tracer is not None:
        tracer.job = None  # checks call into the program too; do not trace them
    try:
        reason = check(job, expect[job.id], code, answer, err)
    except Exception as exc:  # a malformed answer is a wrong answer
        reason = "unreadable answer (%s: %s)" % (type(exc).__name__, exc)
    if cli_stats is not None and job.kind == "cli":
        cli_stats["cli.exit_code.%d" % code] += 1
        cli_stats["cli.bytes_out"] += len(answer.encode()) if answer else 0
    return job.id, seconds, reason


def run_pass(mods, wl, expect, paths, docdir):
    return [run_job(mods, job, expect, paths, docdir) for job in wl.jobs]


def main():
    mode, workload, seed, seconds, workdir = sys.argv[1:6]
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)
    wl, paths, docdir = setup(workload, seed, workdir)
    setup_s = time.perf_counter() - START
    result = {"setup_s": setup_s, "digest": wl.digest()}
    if mode != "setup":
        with open(workdir / "expect.pkl", "rb") as handle:
            expect = pickle.load(handle)
        mods = Modules()
        if mode == "run":
            # whole passes only, so every run measures the same job mix; the
            # first pass sets how many fit in SECONDS
            begin = time.perf_counter()
            rows = run_pass(mods, wl, expect, paths, docdir)
            passes = max(1, round(seconds / (time.perf_counter() - begin)))
            for _ in range(passes - 1):
                rows += run_pass(mods, wl, expect, paths, docdir)
            result.update(rows=rows, passes=passes)
        else:
            result.update(trace(mods, wl, expect, paths, docdir, workdir))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = workdir / ("result-%s-%d.json" % (mode, os.getpid()))
    out.write_text(json.dumps(result), encoding="utf-8")


def trace(mods, wl, expect, paths, docdir, workdir):
    """Every job twice, once traced; which copy runs first alternates from
    job to job, so cold-start costs fall on both sides alike."""
    from collections import defaultdict

    from tracer import Tracer

    tracer, cli_stats = Tracer(), defaultdict(int)
    untraced, traced = [], []
    for i, job in enumerate(wl.jobs):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                untraced.append(run_job(mods, job, expect, paths, docdir))
                continue
            tracer.install()
            try:
                traced.append(run_job(mods, job, expect, paths, docdir, tracer, cli_stats))
            finally:
                tracer.uninstall()
    t0 = min((s[2] for s in tracer.spans), default=0.0)
    with open(workdir / "spans.jsonl", "w", encoding="utf-8") as handle:
        for sid, name, start, end, parent, job in tracer.spans:
            handle.write(json.dumps({"id": sid, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "job": job}) + "\n")
    return {
        "rows": untraced + traced,
        "untraced_s": sum(r[1] for r in untraced),
        "traced_s": sum(r[1] for r in traced),
        "layers": {k: list(v) for k, v in tracer.layer_times().items()},
        "counts": dict(tracer.counts, **cli_stats),
        "times": dict(tracer.times),
        "passes": 2,
    }


if __name__ == "__main__":
    main()
