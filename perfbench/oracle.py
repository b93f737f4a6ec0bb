"""Expected answers for every benchmark job, computed without blowdyn.

Characteristic polynomials come from sympy's DomainMatrix, cyclotomic
factors from sympy's factorization, and the dominant root from sympy's
exact real-root isolation, refined far below the job's tolerance. Finite
order (M^n = I) proves that every dynamical degree is exactly 1. Closed
forms give ranks, the gate verdict, nef pairings, numerical dimensions and
(-K)^k. Nothing here imports the package under test.

An expectation is a dict with ``exit`` (the documented exit code) and
``checks``, a list of tuples the worker evaluates against the answer:

    ("degrees", specs, tol, log_interval)  enclosures of lambda_0..lambda_k
    ("entropy", log_interval)              None means exactly zero
    ("json", dotted_key, value)            a field of the JSON output
    ("text", substring) / ("startswith", prefix)
    ("report", attribute, value)           a field of a library result

A degree spec is None (exactly 1) or (core coefficients, a, b): the
squarefree non-cyclotomic core and an isolating interval [a, b] of its
largest real root, which is the spectral radius.
"""

import json
import math
import os
from fractions import Fraction

import mpmath
from sympy import ZZ, Poly, Rational, symbols
from sympy.polys.matrices import DomainMatrix

import workloads as W

_X = symbols("x")
GUARD = Fraction(1, 10**6)


def _mpf_fraction(v) -> Fraction:
    man, exp = int(v.man), int(v.exp)
    return Fraction(man * 2**exp) if exp >= 0 else Fraction(man, 2**-exp)


def _log_interval(a: Fraction, b: Fraction, eps: Fraction):
    """[La, Lb] with La <= ln a and ln b <= Lb, width about eps."""
    dps = int(-math.log10(eps)) + 20
    pad = Fraction(1, 10 ** (dps - 5))
    with mpmath.workdps(dps):
        la = mpmath.log(mpmath.mpf(a.numerator) / a.denominator)
        lb = mpmath.log(mpmath.mpf(b.numerator) / b.denominator)
        return _mpf_fraction(la) - pad, _mpf_fraction(lb) + pad


def finite_order(matrix, limit: int = 2520) -> bool:
    n = len(matrix)
    one = W.identity(n)
    power = matrix
    for _ in range(limit):
        if power == one:
            return True
        power = W.mat_mul(power, matrix)
    return False


class Oracle:
    def __init__(self):
        self._cache = {}

    def degree_one(self, matrix, eps: Fraction):
        """(spec, log interval) for the degree-1 spectral radius of an
        isometry of the Lorentzian lattice of a point blow-up of P^2."""
        key = (matrix, eps)
        if key not in self._cache:
            n = len(matrix)
            cp = DomainMatrix([[ZZ(v) for v in row] for row in matrix], (n, n), ZZ).charpoly()
            core = Poly(1, _X, domain=ZZ)
            for factor, _mult in Poly(cp, _X, domain=ZZ).factor_list()[1]:
                if not factor.is_cyclotomic:
                    core = core * factor
            if core.degree() == 0:
                self._cache[key] = (None, None)
            else:
                (a, b), _ = core.intervals(eps=Rational(eps.numerator, eps.denominator))[-1]
                a = Fraction(int(a.p), int(a.q))
                b = Fraction(int(b.p), int(b.q))
                if not a > 1:
                    raise AssertionError("dominant root not above 1")
                coeffs = tuple(int(c) for c in reversed(core.all_coeffs()))
                self._cache[key] = ((coeffs, a, b), _log_interval(a, b, eps))
        return self._cache[key]

    def degrees(self, k: int, matrix, tol: Fraction):
        """Degree specs and entropy interval for a validated candidate."""
        if k == 2:
            spec, logs = self.degree_one(matrix, tol * GUARD)
            return [None, spec, None], logs
        if not finite_order(matrix):
            raise AssertionError("no oracle for an infinite-order action with k > 2")
        return [None] * (k + 1), None


def ranks(k: int, dims) -> list:
    """Betti numbers of the blow-up: each center of dimension r adds the
    classes h^a e^j, 0 <= a <= r, 1 <= j <= k-r-1, in degree a + j."""
    out = [1] * (k + 1)
    for r in dims:
        for j in range(1, k - r):
            for a in range(r + 1):
                out[a + j] += 1
    return out


def gate(k: int, dims) -> str:
    return "AllAutomorphismsZeroEntropy" if k > 2 * max(dims, default=0) + 2 else "Inconclusive"


def nef_passes(k: int, dims, coeffs) -> bool:
    """x = c_h h + sum c_i e_i pairs c_h with a general line, -c_i with a
    fiber line of center i, and c_h + c_i with a line through point i."""
    ch = coeffs[0]
    return ch >= 0 and all(
        -c >= 0 and (r > 0 or ch + c >= 0) for c, r in zip(coeffs[1:], dims)
    )


def preserves_lorentz(matrix) -> bool:
    """M^T J M = J for J = diag(1, -1, ..., -1): the degree-1 validity test
    of a candidate on a point blow-up of P^2."""
    cols = W.transpose(matrix)
    return all(W.lorentz(u, v) == W.lorentz(e, f)
               for u, e in zip(cols, W.identity(len(cols)))
               for v, f in zip(cols, W.identity(len(cols))))


def minus_k(k: int, dims) -> tuple:
    return (k + 1,) + tuple(-(k - 1 - r) for r in dims)


def _library(oracle: Oracle, job) -> dict:
    if job.kind == "validate":
        if not finite_order(job.matrix):
            raise AssertionError("validate jobs use finite-order permutations")
        return {"exit": 0, "checks": [("report", "ok", True)]}
    specs, logs = oracle.degrees(job.k, job.matrix, job.tol)
    checks = [("degrees", specs, job.tol, logs)]
    verdict = gate(job.k, job.dims)
    if job.kind == "dpr":
        checks += [("report", "ok", True), ("backward", specs[::-1], job.tol)]
    elif job.kind == "chain":
        certified = verdict != "Inconclusive" and logs is not None
        checks += [("report", "gate.verdict", verdict), ("report", "overall", "pass"),
                   ("report", "certificate", certified), ("backward", specs[::-1], job.tol)]
    elif job.kind == "fixed":
        checks.append(("report", "status", "NotRealizable"))
    return {"exit": 0, "checks": checks}


def _is_json(argv) -> bool:
    return "--format" in argv and argv[argv.index("--format") + 1] == "json"


def _cli(oracle: Oracle, job, meta: dict, root: str) -> dict:
    tag, args = job.oracle[0], job.oracle[1:]
    as_json = _is_json(job.argv)
    if tag == "exit":
        return {"exit": args[0], "checks": []}

    def doc(name):
        if name in meta:
            return meta[name]
        with open(os.path.join(root, name), encoding="utf-8") as handle:
            data = json.load(handle)
        variety = data["variety"]
        dims = tuple(c["dim"] for c in variety.get("centers", []))
        acts = {a["name"]: tuple(tuple(r) for r in a["matrix"]) for a in data.get("actions", [])}
        classes = {c["name"]: tuple(c["coeffs"]) for c in data.get("classes", [])}
        return {"k": variety["k"], "dims": dims, "actions": acts, "classes": classes}

    def tol():
        if "--tol" in job.argv:
            return Fraction(job.argv[job.argv.index("--tol") + 1])
        return W.TOL_9

    if tag in ("ranks", "ranks_doc"):
        k, dims = args if tag == "ranks" else (doc(args[0])["k"], doc(args[0])["dims"])
        rk = ranks(k, dims)
        checks = ([("json", "ranks", rk)] if as_json
                  else [("text", "rank by degree: " + ", ".join(map(str, rk)))])
    elif tag == "text":
        checks = [("text", args[0])]
    elif tag == "top":
        checks = [("json", "top_integral", args[0])]
    elif tag in ("degrees", "entropy"):
        d = doc(args[0])
        specs, logs = oracle.degrees(d["k"], d["actions"][args[1]], tol())
        if tag == "degrees":
            checks = [("degrees", specs, tol() if as_json else None, logs)]
        else:
            checks = [("entropy", logs)]
    elif tag in ("gate", "gate_doc"):
        k, dims = args if tag == "gate" else (doc(args[0])["k"], doc(args[0])["dims"])
        v = gate(k, dims)
        checks = [("json", "verdict", v)] if as_json else [("startswith", v + "\n")]
    elif tag == "verify":
        name = job.argv[job.argv.index("--action") + 1]
        d = doc(job.argv[1].lstrip("@"))
        if d["k"] == 2 and preserves_lorentz(d["actions"][name]) != args[0]:
            raise AssertionError("generated candidate %r is not what the job expects" % name)
        if as_json:
            checks = [("json", "valid", args[0])]
            if args[0]:
                checks.append(("json", "properties.ok", True))
        else:
            checks = [("startswith", "action %r: %s" % (name, "valid" if args[0] else "INVALID"))]
            if args[0]:
                checks.append(("text", "): all pass"))
    elif tag in ("nef", "nef_doc"):
        if tag == "nef":
            k, dims, coeffs = args
        else:
            d = doc(args[0])
            k, dims = d["k"], d["dims"]
            coeffs = minus_k(k, dims) if args[1] == "-K" else d["classes"][args[1]]
        ok = nef_passes(k, dims, coeffs)
        checks = ([("json", "passed", ok), ("json", "asserted_nef", ok)] if as_json
                  else [("text", "nef-ness asserted: %s" % ok)])
    elif tag == "nu":
        cls, nu, nd = args
        checks = ([("json", "nu", nu), ("json", "numerical_dimension", nd)] if as_json else
                  [("text", "nu(%s) = %d against" % (cls, nu)),
                   ("text", "numerical dimension: %d" % nd)])
    elif tag == "chain":
        d = doc(args[0])
        _specs, logs = oracle.degrees(d["k"], d["actions"][args[1]], tol())
        v = gate(d["k"], d["dims"])
        certified = v != "Inconclusive" and logs is not None
        if as_json:
            checks = [("json", "gate.verdict", v), ("json", "overall", "pass"),
                      ("json", "certificate", certified)]
        else:
            checks = [("text", "): %s — " % v), ("text", "overall: [pass]"),
                      ("text", "non-realizability certificate" if certified
                       else "no non-realizability certificate")]
    elif tag == "fano":
        k, m = args
        top = (k + 1) ** k - m * (k - 1) ** k
        checks = ([("json", "top_intersection", top), ("json", "consistent", top > 0)]
                  if as_json else
                  [("text", "(-K)^k = %d (" % top),
                   ("text", "=> consistent" if top > 0 else "=> inconsistent")])
    else:
        raise ValueError("unknown cli oracle %r" % tag)
    return {"exit": 0, "checks": checks}


def expectations(workload, root: str) -> dict:
    """job id -> expectation, for every job of the workload's pass."""
    oracle = Oracle()
    meta = W.cli_meta(workload.seed) if workload.name == "cli_verdicts" else {}
    out = {}
    for job in workload.jobs:
        out[job.id] = _cli(oracle, job, meta, root) if job.kind == "cli" else _library(oracle, job)
    return out
