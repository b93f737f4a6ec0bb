"""Command-line front end: every verifier in the package, wrapped over the
JSON document format.

    blowdyn gate --k 7 --dims 2,0
    blowdyn degrees doc.json --action coxeter --tol 1e-9
    blowdyn verify doc.json --action swap --format json

Text mode prints the human summaries; ``--format json`` emits one complete
JSON object per report line, with rationals as exact "p/q" strings and
enclosures carrying both exact endpoints and outward-rounded decimals.

Each command imports the library modules it calls once its input is
accepted, so a process loads only what its command needs: ``ring``, ``mul``
and a refused document never load the spectral, positivity or gate code.
"""

import argparse
import json
import sys
from fractions import Fraction

from .errors import (
    BlowdynError,
    ConsistencyError,
    ParseError,
    SchemaError,
    UnknownAction,
    UnknownClass,
)


# -------------------------------------------------------------- rendering


def render_class(x) -> str:
    """Human form of a GradedClass: ``3*h - e1 + 1/2*h^2``."""
    if x.is_zero:
        return "0"
    bits = []
    for p in x.degrees():
        for mono, c in zip(x.ring.basis(p), x.coefficients(p)):
            if not c:
                continue
            label = mono.label()
            mag = abs(c)
            if label == "1":
                body = str(mag)
            elif mag == 1:
                body = label
            else:
                body = "%s*%s" % (mag, label)
            if not bits:
                bits.append(("-" if c < 0 else "") + body)
            else:
                bits.append(("- " if c < 0 else "+ ") + body)
    return " ".join(bits)


def enc_json(e, digits: int) -> dict:
    from .document import emit_rational

    lo_dec, hi_dec = e.decimal_bounds(digits)
    return {
        "lo": emit_rational(e.lo),
        "hi": emit_rational(e.hi),
        "lo_dec": lo_dec,
        "hi_dec": hi_dec,
        "exact_one": e.exact_one,
    }


def enc_phrase(e, digits: int) -> str:
    from .document import emit_rational

    if e.exact:
        return "= %s (exact)" % emit_rational(e.lo)
    lo, hi = e.decimal_bounds(digits)
    return "in [%s, %s]" % (lo, hi)


def class_json(x) -> dict:
    from .document import emit_rational

    parts = []
    for p in x.degrees():
        parts.append({"degree": p, "coeffs": [emit_rational(c) for c in x.coefficients(p)]})
    return {"parts": parts, "rendered": render_class(x)}


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, separators=(", ", ": ")))
    else:
        print(text)


# ------------------------------------------------------------ doc plumbing


def _document(args):
    from .document import load

    if getattr(args, "doc", None) is None:
        raise ParseError("this command needs an input document")
    return load(args.doc)


def _action(args):
    """The input document and its action named by --action."""
    doc = _document(args)
    return doc, doc.action(doc.build_ring(), args.action)


def _tol(args, doc) -> Fraction:
    if getattr(args, "tol", None) is not None:
        try:
            value = Fraction(args.tol)
        except (ValueError, ZeroDivisionError):
            raise ParseError("--tol %r is not a rational or decimal" % args.tol)
        if value <= 0:
            raise ParseError("--tol must be positive")
        return value
    if doc is not None and doc.tol is not None:
        return doc.tol
    from .spectral import DEFAULT_TOL

    return DEFAULT_TOL


# ---------------------------------------------------------------- commands


def cmd_ring(args):
    from .document import emit_rational

    doc = _document(args)
    ring = doc.build_ring()
    k, m = ring.k, ring.m
    ranks = ring.ranks
    basis_labels = [[mono.label() for mono in ring.basis(p)] for p in range(k + 1)]
    row_heads = [mono.label() for mono in ring.basis(1)]
    col_heads = [mono.label() for mono in ring.basis(k - 1)]
    pairing = ring.pairing_matrix(1)
    payload = {
        "cmd": "ring",
        "k": k,
        "m": m,
        "centers": list(ring.config.centers),
        "ranks": list(ranks),
        "basis": basis_labels,
        "pairing": {
            "rows": row_heads,
            "cols": col_heads,
            "matrix": [[emit_rational(v) for v in row] for row in pairing],
        },
    }
    lines = [
        "blow-up of P^%d along %d center%s (dims: %s)"
        % (k, m, "" if m == 1 else "s", ", ".join(str(d) for d in ring.config.centers) or "-"),
        "rank by degree: %s" % ", ".join(str(r) for r in ranks),
    ]
    for p in range(k + 1):
        lines.append("  degree %d: %s" % (p, ", ".join(basis_labels[p])))
    lines.append("pairing (degree 1 x degree %d):" % (k - 1))
    widths = [max(len(h), 4) for h in col_heads]
    lines.append("  %-8s %s" % ("", "  ".join(h.ljust(w) for h, w in zip(col_heads, widths))))
    for head, row in zip(row_heads, pairing):
        lines.append(
            "  %-8s %s" % (head, "  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
        )
    _emit(args, payload, "\n".join(lines))


def cmd_mul(args):
    from .document import emit_rational

    doc = _document(args)
    ring = doc.build_ring()
    names = args.class_names
    factors = [doc.resolve_class(ring, name) for name in names]
    product = ring.one()
    for factor in factors:
        product = product * factor
    top = product.degree_part(ring.k)
    top_integral = ring.integrate(top) if not top.is_zero else None
    payload = {
        "cmd": "mul",
        "classes": names,
        "product": class_json(product),
        "top_integral": None if top_integral is None else emit_rational(top_integral),
    }
    lines = ["%s = %s" % (" * ".join(names), render_class(product))]
    if top_integral is not None:
        lines.append("integral of the degree-%d part: %s" % (ring.k, top_integral))
    _emit(args, payload, "\n".join(lines))


def _degree_lines(ds, digits):
    lines = []
    for i, enc in enumerate(ds.degrees):
        lines.append("lambda_%d %s" % (i, enc_phrase(enc, digits)))
    lines.append("entropy %s" % enc_phrase(ds.entropy, digits))
    if ds.zero_entropy_proved:
        lines.append("zero entropy: proved exactly (all degrees cyclotomic)")
    elif ds.positive_entropy_proved:
        lines.append("positive entropy: proved (a char poly is not a cyclotomic product)")
    return lines


def cmd_degrees(args):
    doc, action = _action(args)
    from .spectral import dynamical_degrees

    ds = dynamical_degrees(action, _tol(args, doc))
    payload = {
        "cmd": "degrees",
        "action": args.action,
        "k": ds.k,
        "degrees": [enc_json(e, args.digits) for e in ds.degrees],
        "entropy": enc_json(ds.entropy, args.digits),
        "zero_entropy_proved": ds.zero_entropy_proved,
        "positive_entropy_proved": ds.positive_entropy_proved,
    }
    text = "degrees of %s (k=%d)\n" % (args.action, ds.k) + "\n".join(
        _degree_lines(ds, args.digits)
    )
    _emit(args, payload, text)


def cmd_entropy(args):
    doc, action = _action(args)
    from .spectral import dynamical_degrees

    ds = dynamical_degrees(action, _tol(args, doc))
    payload = {
        "cmd": "entropy",
        "action": args.action,
        "entropy": enc_json(ds.entropy, args.digits),
        "zero_entropy_proved": ds.zero_entropy_proved,
        "positive_entropy_proved": ds.positive_entropy_proved,
    }
    phrase = enc_phrase(ds.entropy, args.digits).removeprefix("= ")
    _emit(args, payload, "entropy of %s: %s" % (args.action, phrase))


def cmd_gate(args):
    if args.doc is not None and args.k is not None:
        raise ParseError("give either a document or --k/--dims, not both")
    if args.doc is not None:
        doc = _document(args)
        k, dims = doc.variety.k, list(doc.variety.centers)
    elif args.k is not None:
        k = args.k
        dims = _parse_dims(args.dims)
    else:
        raise ParseError("gate needs an input document or --k (with optional --dims)")
    from .gate import decide

    verdict = decide(k, dims)
    payload = {
        "cmd": "gate",
        "k": verdict.k,
        "r": verdict.r,
        "dims": list(verdict.dims),
        "verdict": verdict.verdict,
        "margin": verdict.margin,
        "reason": verdict.reason,
    }
    text = "%s\nk=%d, r=%d, margin=%d\n%s" % (
        verdict.verdict, verdict.k, verdict.r, verdict.margin, verdict.reason,
    )
    _emit(args, payload, text)


def _parse_dims(raw):
    if raw is None or raw.strip() == "":
        return []
    try:
        return [int(part) for part in raw.split(",")]
    except ValueError:
        raise ParseError("--dims must be a comma-separated list of integers, got %r" % raw)


def cmd_verify(args):
    doc, action = _action(args)
    report = action.validate()
    payload = {
        "cmd": "verify",
        "action": args.action,
        "valid": report.ok,
        "validation": {
            "det": report.det,
            "det_ok": report.det_ok,
            "pairing_ok": report.pairing_ok,
            "top_ok": report.top_ok,
            "preserves_canonical": report.preserves_canonical,
            "pairing_failures": len(report.pairing_failures),
        },
        "properties": None,
    }
    lines = [report.summary()]
    if report.ok:
        from .spectral import degree_properties_report

        prop = degree_properties_report(action, _tol(args, doc))
        payload["properties"] = {
            "ok": prop.ok,
            "checks": [
                {"family": c.family, "description": c.description, "status": c.status}
                for c in prop.checks
            ],
        }
        lines.append(prop.summary())
    _emit(args, payload, "\n".join(lines))


def cmd_nef_check(args):
    from .document import emit_rational, load_curves

    doc = _document(args)
    ring = doc.build_ring()
    cls = doc.resolve_class(ring, args.class_name)
    extra = load_curves(args.curves, ring) if args.curves else ()
    from .positivity import nef_necessary_check

    assertion = nef_necessary_check(cls, extra_curves=extra)
    payload = {
        "cmd": "nef-check",
        "class": args.class_name,
        "asserted_nef": assertion.asserted_nef,
        "passed": assertion.report.passed,
        "checks": [
            {"label": c.label, "value": emit_rational(c.value), "ok": c.ok}
            for c in assertion.report.checks
        ],
    }
    text = "%s\n%s\nnef-ness asserted: %s" % (
        render_class(cls), assertion.report.summary(), assertion.asserted_nef,
    )
    _emit(args, payload, text)


def cmd_nu(args):
    doc = _document(args)
    ring = doc.build_ring()
    cls = doc.resolve_class(ring, args.class_name)
    ample = doc.resolve_class(ring, args.ample)
    from .positivity import kawamata_nu, numerical_dimension

    nu = kawamata_nu(cls, ample)
    dim = numerical_dimension(cls)
    payload = {
        "cmd": "nu",
        "class": args.class_name,
        "ample": args.ample,
        "nu": nu,
        "numerical_dimension": dim,
    }
    text = "nu(%s) = %d against ample candidate %s\nnumerical dimension: %d" % (
        args.class_name, nu, args.ample, dim,
    )
    _emit(args, payload, text)


def cmd_chain(args):
    doc, action = _action(args)
    from .gate import degree_chain_report

    report = degree_chain_report(action, _tol(args, doc))
    certificate = None
    if report.certificate is not None:
        certificate = {
            "k": report.certificate.k,
            "r": report.certificate.r,
            "entropy": enc_json(report.certificate.entropy, args.digits),
            "statement": report.certificate.statement,
        }
    payload = {
        "cmd": "chain",
        "action": args.action,
        "k": report.k,
        "r": report.r,
        "gate": {
            "verdict": report.gate.verdict,
            "margin": report.gate.margin,
            "reason": report.gate.reason,
        },
        "nodes": [
            {"label": n.label, "value": enc_json(n.value, args.digits)} for n in report.nodes
        ],
        "links": [
            {
                "lhs": l.lhs,
                "rhs": l.rhs,
                "status": l.status,
                "provable": l.provable,
                "justification": l.justification,
            }
            for l in report.links
        ],
        "per_degree": [
            {"side": c.side, "j": c.j, "status": c.status, "provable": c.provable}
            for c in report.per_degree
        ],
        "overall": report.overall,
        "certificate": certificate,
    }
    _emit(args, payload, report.summary())


def cmd_fano(args):
    from .document import emit_rational

    doc = _document(args)
    ring = doc.build_ring()
    from .positivity import weak_fano_report

    report = weak_fano_report(ring)
    payload = {
        "cmd": "fano",
        "k": ring.k,
        "anticanonical": [emit_rational(c) for c in report.anticanonical.coefficients(1)],
        "top_intersection": emit_rational(report.top_intersection),
        "big_ok": report.big_ok,
        "nef_passed": report.nef.report.passed,
        "consistent": report.consistent,
    }
    text = "-K = %s\n%s" % (render_class(report.anticanonical), report.summary())
    _emit(args, payload, text)


# ------------------------------------------------------------------ wiring


_COMMANDS = {
    "ring": cmd_ring,
    "mul": cmd_mul,
    "degrees": cmd_degrees,
    "entropy": cmd_entropy,
    "gate": cmd_gate,
    "verify": cmd_verify,
    "nef-check": cmd_nef_check,
    "nu": cmd_nu,
    "chain": cmd_chain,
    "fano": cmd_fano,
}


def _digits(text):
    """--digits: how many decimals to print, so a nonnegative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer, got %r" % text)
    return n


def _add_common(sub, doc="required"):
    if doc == "required":
        sub.add_argument("doc", help="input document (JSON)")
    elif doc == "optional":
        sub.add_argument("doc", nargs="?", help="input document (JSON)")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--digits", type=_digits, default=12, help="decimal digits for enclosures")


# CPython raises a plain ValueError, starting with this text, when int -> str
# (or str -> int) meets a number longer than sys.get_int_max_str_digits()
_INT_STR_LIMIT = "Exceeds the limit ("


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowdyn",
        description="intersection rings of blown-up projective spaces, "
        "dynamical degrees, and zero-entropy verdicts",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ring", help="basis, ranks, and pairing tables")
    _add_common(p)

    p = sub.add_parser("mul", help="multiply named classes")
    _add_common(p)
    p.add_argument("--class", dest="class_names", action="append", required=True,
                   metavar="NAME", help="repeatable; factors in order")

    p = sub.add_parser("degrees", help="dynamical degrees of an action")
    _add_common(p)
    p.add_argument("--action", required=True)
    p.add_argument("--tol")

    p = sub.add_parser("entropy", help="topological entropy of an action")
    _add_common(p)
    p.add_argument("--action", required=True)
    p.add_argument("--tol")

    p = sub.add_parser("gate", help="the k > 2r+2 zero-entropy gate")
    _add_common(p, doc="optional")
    p.add_argument("--k", type=int)
    p.add_argument("--dims", help="comma-separated center dimensions, e.g. 2,0")

    p = sub.add_parser("verify", help="validate an action and run the degree property suite")
    _add_common(p)
    p.add_argument("--action", required=True)
    p.add_argument("--tol")

    p = sub.add_parser("nef-check", help="necessary nef conditions for a class")
    _add_common(p)
    p.add_argument("--class", dest="class_name", required=True, metavar="NAME")
    p.add_argument("--curves", help="JSON file of extra curves [{label, coeffs}]")

    p = sub.add_parser("nu", help="numerical dimension against an ample candidate")
    _add_common(p)
    p.add_argument("--class", dest="class_name", required=True, metavar="NAME")
    p.add_argument("--ample", required=True, metavar="NAME",
                   help="ample candidate; write --ample=-K for the builtin")

    p = sub.add_parser("chain", help="the degree equality chain and certificates")
    _add_common(p)
    p.add_argument("--action", required=True)
    p.add_argument("--tol")

    p = sub.add_parser("fano", help="weak Fano consistency of the anticanonical class")
    _add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.cmd](args)
        return 0
    except ParseError as exc:
        return _fail(exc, 3)
    except SchemaError as exc:
        return _fail(exc, 4)
    except ConsistencyError as exc:
        return _fail(exc, 5)
    except (UnknownAction, UnknownClass) as exc:
        return _fail(exc, 6)
    except BlowdynError as exc:
        return _fail(exc, 7)
    except ValueError as exc:
        # only int <-> str refusing a number past the digit limit; any other
        # ValueError is a bug and keeps its traceback
        if not str(exc).startswith(_INT_STR_LIMIT):
            raise
        return _fail(
            "a number has more than %d decimal digits, Python's int/str conversion limit"
            % sys.get_int_max_str_digits(),
            7,
        )


def _fail(exc, code: int) -> int:
    print("error: %s" % exc, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
