"""Seeded inputs for the blowdyn benchmark workloads.

Pure Python: nothing here imports blowdyn or sympy, so the matrices and
documents the program receives are built independently of the code under
test. ``generate(workload, seed)`` returns a ``Workload`` whose job list is
one *pass*; the runner repeats whole passes.

The seed relabels points and centers (conjugation by a seeded permutation),
chooses the permutation inside each group of equal-dimension centers, shuffles
the job order and draws the rejected unimodular candidates. The spectral mix
of each pass (which Salem/Pisot cores, cyclotomic factors and ranks occur) is
fixed by the menus below, so a pass costs the same on every seed and the
figures of different seeds can be compared.
"""

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("coxeter_ladder", "highk_permutation", "cli_verdicts")

TOL_9 = Fraction(1, 10**9)
TOL_60 = Fraction(1, 10**60)

Matrix = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class Job:
    """One verifier call with one expected answer.

    Library jobs (``kind`` in dd/dpr/chain/fixed/validate) carry the ring
    data and the candidate matrix; ``cli`` jobs carry an argv whose
    ``@name`` entries are replaced by the path of document ``name``.
    ``oracle`` names the facts the oracle computes for the answer check.
    """

    id: str
    kind: str
    k: int = 0
    dims: Tuple[int, ...] = ()
    matrix: Optional[Matrix] = None
    tol: Optional[Fraction] = None
    argv: Tuple[str, ...] = ()
    oracle: Tuple = ()
    defect: bool = False


@dataclass
class Workload:
    name: str
    seed: int
    jobs: List[Job]
    docs: Dict[str, str] = field(default_factory=dict)

    def digest(self) -> str:
        """Hash of every generated input, to check they depend only on the seed."""
        h = hashlib.sha256()
        h.update(repr((self.name, self.seed, self.jobs, sorted(self.docs.items()))).encode())
        return h.hexdigest()[:16]


# ---------------------------------------------------------------- matrices


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def lorentz(u, v) -> int:
    return u[0] * v[0] - sum(x * y for x, y in zip(u[1:], v[1:]))


def coxeter(m: int) -> Matrix:
    """Product of the reflections x -> x + <x, r> r in the roots
    h-e1-e2-e3, e1-e2, ..., e(m-1)-em, taken left to right."""
    roots = [(1, -1, -1, -1) + (0,) * (m - 3)]
    for i in range(1, m):
        v = [0] * (1 + m)
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v))
    out = [list(row) for row in identity(1 + m)]
    for r in roots:
        jr = (r[0],) + tuple(-x for x in r[1:])  # <x, r> = jr . x
        for row in out:  # row <- row + (row . r) jr
            c = sum(x * y for x, y in zip(row, r))
            if c:
                row[:] = [x + c * y for x, y in zip(row, jr)]
    return tuple(tuple(row) for row in out)


def point_perm(perm) -> Matrix:
    """Candidate sending e_(i+1) to e_(perm[i]+1) and fixing h."""
    n = 1 + len(perm)
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = 1
    for i, j in enumerate(perm):
        rows[1 + j][1 + i] = 1
    return tuple(tuple(r) for r in rows)


def _lift(perm) -> List[int]:
    return [0] + [1 + j for j in perm]


def relabel(a: Matrix, tau) -> Matrix:
    """P a P^-1 for the point permutation P of tau: same spectrum, new labels."""
    t = _lift(tau)
    out = [[0] * len(a) for _ in a]
    for i, row in enumerate(a):
        for j, v in enumerate(row):
            out[t[i]][t[j]] = v
    return tuple(tuple(r) for r in out)


def embed(a: Matrix, extra: int) -> Matrix:
    """a acting on 1+m coordinates, extended by the identity on ``extra`` more."""
    n = len(a)
    size = n + extra
    return tuple(
        tuple(a[i][j] if i < n and j < n else int(i == j) for j in range(size))
        for i in range(size)
    )


def shuffled(rng: random.Random, n: int) -> List[int]:
    out = list(range(n))
    rng.shuffle(out)
    return out


def menu_perm(m: int, menu_seed: int) -> List[int]:
    """A point permutation fixed by the menu, independent of the workload seed."""
    return shuffled(random.Random(menu_seed), m)


def weyl(m: int, menu_seed: Optional[int]) -> Matrix:
    """c_m, or c_m composed with the menu's point permutation."""
    c = coxeter(m)
    if menu_seed is None:
        return c
    t = _lift(menu_perm(m, menu_seed))  # c P: column t[i] of c becomes column i
    return tuple(tuple(row[t[i]] for i in range(len(row))) for row in c)


def group_cycles(rng: random.Random, dims) -> List[int]:
    """Permutation that cycles each group of equal-dimension centers once,
    visiting the members of a group in a seeded order."""
    perm = list(range(len(dims)))
    groups: Dict[int, List[int]] = {}
    for i, r in enumerate(dims):
        groups.setdefault(r, []).append(i)
    for r in sorted(groups):
        members = groups[r]
        rng.shuffle(members)
        for a, b in zip(members, members[1:] + members[:1]):
            perm[a] = b
    return perm


def random_unimodular(rng: random.Random, n: int, steps: int) -> Matrix:
    """Product of seeded elementary row operations: det 1, almost never an isometry."""
    rows = [list(r) for r in identity(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return tuple(tuple(r) for r in rows)


# ------------------------------------------------------------ coxeter_ladder

# (m, menu seed or None for c_m itself, core degree, job kinds); the core
# degree is the degree of the non-cyclotomic part of the char poly, recorded
# here so the menu's spectral mix can be read without running anything.
COXETER_MENU = (
    (10, None, 10, ("dd", "dpr", "chain", "dd60")),
    (10, 1, 10, ("dd", "dpr", "chain", "dd60")),
    (10, 0, 0, ("dd", "dpr", "chain", "dd60")),
    (12, None, 10, ("dd", "dpr", "chain")),
    (12, 5, 6, ("dd", "dpr", "chain", "dd60")),
    (12, 3, 8, ("dd", "dpr", "chain")),
    (14, 2, 12, ("dd", "dpr", "chain")),
    (14, 1, 0, ("dd", "dpr", "chain")),
    (14, 4, 10, ("dd", "dpr", "chain")),
    (16, None, 16, ("dd", "dpr")),
    (16, 6, 8, ("dd", "chain", "dd60")),
    (16, 3, 12, ("dd", "dpr", "chain")),
    (20, None, 20, ("dd",)),
    (20, 2, 8, ("dd", "dpr", "chain", "dd60")),
    (20, 6, 6, ("dd", "dpr", "chain", "dd60")),
    (20, 0, 0, ("dd", "dpr", "chain")),
    (30, None, 24, ("dd60",)),
    (30, 8, 12, ("dd",)),
    (40, None, 40, ("dd",)),
)

# c_10 embedded in 10 + j points fixes -K, keeps Lehmer's number, and is
# therefore a validated positive-entropy candidate with a fixed nef class.
FIXED_EXTRA = (1, 2, 3, 4, 5)


def _coxeter_ladder(rng: random.Random) -> List[Job]:
    jobs = []
    for m, menu_seed, _core, kinds in COXETER_MENU:
        mat = relabel(weyl(m, menu_seed), shuffled(rng, m))
        tag = "c%d" % m if menu_seed is None else "c%d.s%d" % (m, menu_seed)
        for kind in kinds:
            tol = TOL_60 if kind == "dd60" else TOL_9
            jobs.append(Job(
                id="%s/%s" % (tag, kind), kind=kind.replace("60", ""), k=2, dims=(0,) * m,
                matrix=mat, tol=tol,
            ))
    for extra in FIXED_EXTRA:
        m = 10 + extra
        mat = relabel(embed(coxeter(10), extra), shuffled(rng, m))
        jobs.append(Job(
            id="c10+%d/fixed" % extra, kind="fixed", k=2, dims=(0,) * m,
            matrix=mat, tol=TOL_9,
        ))
    return jobs


# --------------------------------------------------------- highk_permutation

# (k, center dimensions); every dimension occurs at least twice, and the gate
# k > 2r+2 is forced on some slots and inconclusive on the others.
HIGHK_MENU = (
    (8, (3, 3, 1, 1, 0, 0)),
    (9, (3, 3, 0, 0)),
    (10, (2, 2, 2, 0, 0)),
    (10, (3, 3, 1, 1)),
    (11, (5, 5, 1, 1)),
    (12, (5, 5, 2, 2, 0, 0, 0)),
    (12, (3, 3, 3, 0, 0)),
    (13, (4, 4, 2, 2)),
    (14, (4, 4, 1, 1, 1, 0, 0)),
    (14, (6, 6, 0, 0)),
    (15, (7, 7, 0, 0)),
    (16, (7, 7, 3, 3, 0, 0)),
    (16, (4, 4, 2, 2, 0, 0)),
    (17, (5, 5, 1, 1, 0, 0)),
    (18, (6, 6, 2, 2, 0, 0)),
    (19, (9, 9, 0, 0)),
    (20, (9, 9, 1, 1)),
    (21, (6, 6, 2, 2)),
    (22, (8, 8, 3, 3, 0, 0)),
    (23, (11, 11, 0, 0)),
    (24, (10, 10, 8, 8, 4, 4, 1, 1, 0, 0)),
)
# the k = 24 slot (max rank 57) skips the chain report, which alone would
# take half of a pass
HIGHK_HEAVY = 24


def _highk_permutation(rng: random.Random) -> List[Job]:
    jobs = []
    for slot, (k, menu_dims) in enumerate(HIGHK_MENU):
        dims = tuple(menu_dims[i] for i in shuffled(rng, len(menu_dims)))
        mat = point_perm(group_cycles(rng, dims))
        for kind in ("validate", "dd") if k == HIGHK_HEAVY else ("validate", "dd", "chain"):
            jobs.append(Job(
                id="s%02d.k%d/%s" % (slot, k, kind), kind=kind, k=k, dims=dims, matrix=mat,
                tol=TOL_9,
            ))
    return jobs


# -------------------------------------------------------------- cli_verdicts


def _doc(k: int, dims, actions=(), classes=(), raw_entry: Optional[str] = None) -> str:
    """Document text; ``raw_entry`` replaces the first matrix entry verbatim."""
    centers = ", ".join('{"dim": %d}' % r for r in dims)
    acts = []
    for name, mat in actions:
        rows = ", ".join("[%s]" % ", ".join(str(v) for v in row) for row in mat)
        acts.append('{"name": "%s", "matrix": [%s]}' % (name, rows))
    text = '{"variety": {"k": %d, "centers": [%s]}, "actions": [%s], "classes": [%s]}' % (
        k, centers, ", ".join(acts),
        ", ".join('{"name": "%s", "coeffs": [%s]}' % (n, ", ".join(str(c) for c in cs))
                  for n, cs in classes),
    )
    if raw_entry is not None:
        head, tail = text.split('"matrix": [[', 1)
        first, rest = tail.split(",", 1)
        text = '%s"matrix": [[%s,%s' % (head, raw_entry, rest)
    return text + "\n"


def _cli_verdicts(rng: random.Random):
    docs: Dict[str, str] = {}
    meta: Dict[str, dict] = {}

    def add_doc(name, k, dims, actions=(), classes=()):
        docs[name] = _doc(k, dims, actions, classes)
        meta[name] = {"k": k, "dims": tuple(dims), "actions": dict(actions),
                      "classes": dict(classes)}

    # P^2 at 12 points: a Salem candidate, a zero-entropy Weyl element, and
    # a rejected unimodular matrix.
    salem = relabel(weyl(12, 3), shuffled(rng, 12))
    flat = relabel(weyl(12, 0), shuffled(rng, 12))
    bad = random_unimodular(rng, 13, 40)
    add_doc("weyl12", 2, (0,) * 12, [("c", salem), ("z", flat), ("bad", bad)])
    # permutation actions on positive-dimensional centers
    for k, menu_dims in ((6, (2, 2, 1, 1, 0)), (9, (3, 3, 3, 1, 1)), (12, (5, 5, 0, 0))):
        dims = tuple(menu_dims[i] for i in shuffled(rng, len(menu_dims)))
        add_doc("perm%d" % k, k, dims, [("p", point_perm(group_cycles(rng, dims)))])
    # point blow-ups for products, nef checks, nu and fano
    for k, m in ((3, 5), (6, 3), (12, 4), (3, 9)):
        add_doc("pts%d_%d" % (k, m), k, (0,) * m, [],
                [("pencil", (1, -1) + (0,) * (m - 1)), ("bump", (0, 1) + (0,) * (m - 1))])
    # refusals: one malformed document per documented exit code
    docs["garbled"] = '{"variety": {"k": 2, "centers": [\n'
    docs["floaty"] = '{"variety": {"k": 2.5}}\n'
    docs["extra_field"] = '{"variety": {"k": 2}, "bogus": 1}\n'
    docs["k_string"] = '{"variety": {"k": "two"}}\n'
    docs["center_too_big"] = '{"variety": {"k": 3, "centers": [{"dim": 2}]}}\n'
    docs["short_matrix"] = '{"variety": {"k": 2, "centers": [{"dim": 0}]}, ' \
        '"actions": [{"name": "f", "matrix": [[1, 0]]}]}\n'
    # the reproduced defects: 100k-deep nesting and a 4301-digit literal
    docs["nested"] = "[" * 100000 + "]" * 100000 + "\n"
    docs["bigint"] = _doc(2, (0,), [("f", identity(2))], raw_entry="1" * 4301)

    e10, blline, blpt, f1 = ("demos/documents/%s.json" % n
                             for n in ("e10_coxeter", "blline_p3", "blpt_p3", "f1"))
    J = "--format", "json"
    spec = [
        # ring: ranks
        ("ring/blline", ("ring", blline), ("ranks", 3, (1,))),
        ("ring/f1.json", ("ring", f1) + J, ("ranks", 2, (0,))),
        ("ring/perm9", ("ring", "@perm9"), ("ranks_doc", "perm9")),
        ("ring/perm12.json", ("ring", "@perm12") + J, ("ranks_doc", "perm12")),
        # mul: closed-form top integrals
        ("mul/pencil2", ("mul", blline, "--class", "pencil", "--class", "pencil"),
         ("text", "pencil * pencil = 0")),
        ("mul/h^k.json", ("mul", "@pts6_3") + ("--class", "h") * 6 + J, ("top", 1)),
        ("mul/e^k.json", ("mul", "@pts3_5") + ("--class", "e2") * 3 + J, ("top", 1)),
        ("mul/h.e", ("mul", "@pts12_4", "--class", "h", "--class", "e1"),
         ("text", "h * e1 = 0")),
        # degrees and entropy: oracle enclosures
        ("degrees/e10", ("degrees", e10, "--action", "coxeter"), ("degrees", e10, "coxeter")),
        ("degrees/e10.json", ("degrees", e10, "--action", "coxeter") + J,
         ("degrees", e10, "coxeter")),
        ("degrees/weyl12.c.json", ("degrees", "@weyl12", "--action", "c") + J,
         ("degrees", "weyl12", "c")),
        ("degrees/weyl12.z", ("degrees", "@weyl12", "--action", "z"), ("degrees", "weyl12", "z")),
        ("degrees/perm9.json", ("degrees", "@perm9", "--action", "p") + J,
         ("degrees", "perm9", "p")),
        ("degrees/perm6", ("degrees", "@perm6", "--action", "p"), ("degrees", "perm6", "p")),
        ("entropy/e10.d20", ("entropy", e10, "--action", "coxeter", "--digits", "20"),
         ("entropy", e10, "coxeter")),
        ("entropy/weyl12.c.json", ("entropy", "@weyl12", "--action", "c") + J,
         ("entropy", "weyl12", "c")),
        ("entropy/f1", ("entropy", f1, "--action", "id"), ("text", "entropy of id: 0 (exact)")),
        ("entropy/perm12.json", ("entropy", "@perm12", "--action", "p") + J,
         ("entropy", "perm12", "p")),
        # gate: the k > 2r+2 formula
        ("gate/doc.json", ("gate", "@perm9") + J, ("gate_doc", "perm9")),
        ("gate/doc", ("gate", "@perm12"), ("gate_doc", "perm12")),
        # verify: accept and reject paths of validation
        ("verify/blpt", ("verify", blpt, "--action", "swap"), ("verify", True)),
        ("verify/weyl12.c.json", ("verify", "@weyl12", "--action", "c") + J, ("verify", True)),
        ("verify/weyl12.bad.json", ("verify", "@weyl12", "--action", "bad") + J,
         ("verify", False)),
        ("verify/perm6", ("verify", "@perm6", "--action", "p"), ("verify", True)),
        # nef-check: pairings with the standard curves
        ("nef/blline.json", ("nef-check", blline, "--class", "pencil") + J,
         ("nef", 3, (1,), (1, -1))),
        ("nef/pts3.pencil", ("nef-check", "@pts3_5", "--class", "pencil"), ("nef_doc", "pts3_5", "pencil")),
        ("nef/pts6.bump.json", ("nef-check", "@pts6_3", "--class", "bump") + J,
         ("nef_doc", "pts6_3", "bump")),
        ("nef/pts12.-K", ("nef-check", "@pts12_4", "--class=-K"), ("nef_doc", "pts12_4", "-K")),
        # nu against -K
        ("nu/blline", ("nu", blline, "--class", "pencil", "--ample=-K"), ("nu", "pencil", 1, 1)),
        ("nu/pts6.pencil.json", ("nu", "@pts6_3", "--class", "pencil", "--ample=-K") + J,
         ("nu", "pencil", 5, 5)),
        ("nu/pts3.h", ("nu", "@pts3_5", "--class", "h", "--ample=-K"), ("nu", "h", 3, 3)),
        # chain: gate verdict, overall status, no certificate
        ("chain/e10.json", ("chain", e10, "--action", "coxeter") + J, ("chain", e10, "coxeter")),
        ("chain/blpt", ("chain", blpt, "--action", "swap"), ("chain", blpt, "swap")),
        ("chain/perm9.json", ("chain", "@perm9", "--action", "p") + J, ("chain", "perm9", "p")),
        ("chain/weyl12.c", ("chain", "@weyl12", "--action", "c"), ("chain", "weyl12", "c")),
        # fano: (-K)^k = (k+1)^k - m (k-1)^k on point blow-ups
        ("fano/blpt.json", ("fano", blpt) + J, ("fano", 3, 1)),
        ("fano/pts6", ("fano", "@pts6_3"), ("fano", 6, 3)),
        ("fano/pts3_9.json", ("fano", "@pts3_9") + J, ("fano", 3, 9)),
        # documented refusals
        ("refuse/usage", ("gate", "--k", "two"), ("exit", 2)),
        ("refuse/parse", ("ring", "@garbled"), ("exit", 3)),
        ("refuse/float", ("ring", "@floaty"), ("exit", 3)),
        ("refuse/missing", ("ring", "@absent"), ("exit", 3)),
        ("refuse/schema", ("ring", "@extra_field"), ("exit", 4)),
        ("refuse/k_type", ("ring", "@k_string"), ("exit", 4)),
        ("refuse/center", ("ring", "@center_too_big"), ("exit", 5)),
        ("refuse/matrix", ("degrees", "@short_matrix", "--action", "f"), ("exit", 5)),
        ("refuse/action", ("degrees", "@perm6", "--action", "nope"), ("exit", 6)),
        ("refuse/class", ("nu", "@pts3_5", "--class", "nope", "--ample=-K"), ("exit", 6)),
        ("refuse/invalid", ("degrees", "@weyl12", "--action", "bad"), ("exit", 7)),
        ("refuse/not_ample", ("nu", "@pts3_9", "--class", "h", "--ample=-K"), ("exit", 7)),
    ]
    # gate from --k/--dims: seeded configurations on both sides of k = 2r+2
    for i in range(4):
        r = rng.randint(0, 5)
        k = 2 * r + 2 + (1 if i % 2 == 0 else -rng.randint(0, r))
        dims = sorted(rng.randint(0, r) for _ in range(rng.randint(0, 3))) + [r]
        dims = [d for d in dims if d <= k - 2] or [0]
        argv = ("gate", "--k", str(k), "--dims", ",".join(map(str, dims)))
        spec.append(("gate/kd%d%s" % (i, ".json" if i % 2 else ""),
                     argv + (J if i % 2 else ()), ("gate", k, tuple(dims))))
    # the reproduced defects, kept at full size
    defects = [
        ("defect/tol1e-300.json", ("degrees", e10, "--action", "coxeter", "--tol", "1e-300") + J,
         ("degrees", e10, "coxeter")),
        ("defect/nested100k", ("ring", "@nested"), ("exit", 3)),
        ("defect/int4301", ("degrees", "@bigint", "--action", "f"), ("exit", 3)),
    ]
    jobs = [Job(id=i, kind="cli", argv=argv, oracle=orc) for i, argv, orc in spec]
    jobs += [Job(id=i, kind="cli", argv=argv, oracle=orc, defect=True) for i, argv, orc in defects]
    return jobs, docs, meta


def generate(name: str, seed: int) -> Workload:
    """The seeded pass for workload ``name``; same seed, same inputs."""
    rng = random.Random("%s/%d" % (name, seed))
    docs: Dict[str, str] = {}
    if name == "coxeter_ladder":
        jobs = _coxeter_ladder(rng)
    elif name == "highk_permutation":
        jobs = _highk_permutation(rng)
    elif name == "cli_verdicts":
        jobs, docs, _meta = _cli_verdicts(rng)
    else:
        raise ValueError("unknown workload %r; choose from %s" % (name, ", ".join(WORKLOADS)))
    rng.shuffle(jobs)
    return Workload(name=name, seed=seed, jobs=jobs, docs=docs)


def cli_meta(seed: int) -> Dict[str, dict]:
    """Structure of the generated cli documents, for the oracle."""
    return _cli_verdicts(random.Random("%s/%d" % ("cli_verdicts", seed)))[2]
