"""Declarative JSON documents naming a variety, candidate actions, and
classes.

The format keeps everything exact: coefficients are integers or rational
strings "p/q", floating-point literals are rejected at parse time, and
``load(save(doc)) == doc`` holds for every valid document.

    {
      "variety": {"k": 2, "centers": [{"dim": 0, "label": "p1"}]},
      "actions": [{"name": "swap", "matrix": [[1, 0], [0, 1]]}],
      "classes": [{"name": "x", "coeffs": [1, "-1/2"]}],
      "options": {"tol": "1/1000000000"}
    }

Matrices act on the degree-1 basis [h, e_1, ..., e_m] in center-list
order; column j is the image of basis vector j.  Class coefficient
vectors use the same basis.
"""

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .actions import PullbackAction
from .errors import (
    ConsistencyError,
    InvalidConfig,
    ParseError,
    SchemaError,
    UnknownAction,
    UnknownClass,
)
from .ring import BlowupConfig, GradedClass, RingModel, build_ring

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9][0-9]*)?$")
_BUILTIN_E_RE = re.compile(r"^e([1-9][0-9]*)$")


@dataclass(frozen=True)
class NamedAction:
    name: str
    matrix: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class NamedClass:
    name: str
    coeffs: Tuple[Fraction, ...]


@dataclass(frozen=True)
class InputDocument:
    variety: BlowupConfig
    center_labels: Tuple[Optional[str], ...] = ()
    actions: Tuple[NamedAction, ...] = ()
    classes: Tuple[NamedClass, ...] = ()
    tol: Optional[Fraction] = None

    def build_ring(self) -> RingModel:
        try:
            return build_ring(self.variety)
        except InvalidConfig as exc:
            raise ConsistencyError("variety: %s" % exc)

    def action(self, ring: RingModel, name: str) -> PullbackAction:
        for na in self.actions:
            if na.name == name:
                return PullbackAction(ring, na.matrix, name=name)
        known = ", ".join(na.name for na in self.actions) or "(none)"
        raise UnknownAction("no action named %r in document; defined: %s" % (name, known))

    def resolve_class(self, ring: RingModel, name: str) -> GradedClass:
        """Document classes shadow the builtins h, e1..em, K, -K."""
        for nc in self.classes:
            if nc.name == name:
                return ring.parse_class(nc.coeffs)
        if name == "h":
            return ring.h()
        if name == "K":
            return ring.canonical_class()
        if name == "-K":
            return -ring.canonical_class()
        match = _BUILTIN_E_RE.match(name)
        if match and 1 <= int(match.group(1)) <= ring.m:
            return ring.e(int(match.group(1)))
        known = ", ".join(nc.name for nc in self.classes) or "(none)"
        raise UnknownClass(
            "no class named %r; document defines: %s; builtins: h, e1..e%d, K, -K"
            % (name, known, ring.m)
        )


# ----------------------------------------------------------------- parsing


def _reject_float(literal: str):
    raise ParseError(
        "floating-point literal %s is not accepted; write rationals as "
        'integers or "p/q" strings' % literal
    )


def rational(value, path: str) -> Fraction:
    """A document coefficient: an integer or a strict "p/q" string."""
    if isinstance(value, bool):
        raise SchemaError("%s: expected integer or rational string, got a boolean" % path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise SchemaError(
                '%s: %r is not a rational; write "p/q" with a positive '
                "denominator" % (path, value)
            )
        return Fraction(value)
    raise SchemaError("%s: expected integer or rational string, got %s" % (path, type(value).__name__))


def _expect_dict(value, path: str, allowed: Sequence[str], required: Sequence[str]) -> dict:
    if not isinstance(value, dict):
        raise SchemaError("%s: expected an object, got %s" % (path, type(value).__name__))
    for key in value:
        if key not in allowed:
            raise SchemaError("%s.%s: unexpected field" % (path, key))
    for key in required:
        if key not in value:
            raise SchemaError("%s: missing required field %r" % (path, key))
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError("%s: expected an array, got %s" % (path, type(value).__name__))
    return value


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError("%s: expected an integer, got %r" % (path, value))
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaError("%s: expected a nonempty string, got %r" % (path, value))
    return value


def from_json_data(data) -> InputDocument:
    """Validate parsed JSON data into an InputDocument.

    SchemaError carries the field path; ConsistencyError means a shape
    is internally valid but disagrees with the variety's dimensions.
    """
    root = _expect_dict(data, "$", ("variety", "actions", "classes", "options"), ("variety",))

    vnode = _expect_dict(root["variety"], "variety", ("k", "centers"), ("k",))
    k = _expect_int(vnode["k"], "variety.k")
    dims = []
    labels = []
    for i, cnode in enumerate(_expect_list(vnode.get("centers", []), "variety.centers")):
        path = "variety.centers[%d]" % i
        cdict = _expect_dict(cnode, path, ("dim", "label"), ("dim",))
        dims.append(_expect_int(cdict["dim"], path + ".dim"))
        labels.append(_expect_str(cdict["label"], path + ".label") if "label" in cdict else None)
    try:
        config = BlowupConfig(k, tuple(dims))
    except InvalidConfig as exc:
        raise ConsistencyError("variety: %s" % exc)
    n = 1 + config.m

    actions = []
    seen = set()
    for i, anode in enumerate(_expect_list(root.get("actions", []), "actions")):
        path = "actions[%d]" % i
        adict = _expect_dict(anode, path, ("name", "matrix"), ("name", "matrix"))
        name = _expect_str(adict["name"], path + ".name")
        if name in seen:
            raise SchemaError("%s.name: duplicate action name %r" % (path, name))
        seen.add(name)
        rows = _expect_list(adict["matrix"], path + ".matrix")
        if len(rows) != n:
            raise ConsistencyError(
                "%s.matrix: %d rows, but the variety has %d basis classes"
                % (path, len(rows), n)
            )
        matrix = []
        for ri, row in enumerate(rows):
            rpath = "%s.matrix[%d]" % (path, ri)
            entries = _expect_list(row, rpath)
            if len(entries) != n:
                raise ConsistencyError(
                    "%s: %d entries, but the variety has %d basis classes"
                    % (rpath, len(entries), n)
                )
            matrix.append(tuple(_expect_int(v, "%s[%d]" % (rpath, ci)) for ci, v in enumerate(entries)))
        actions.append(NamedAction(name, tuple(matrix)))

    classes = []
    seen = set()
    for i, cnode in enumerate(_expect_list(root.get("classes", []), "classes")):
        path = "classes[%d]" % i
        cdict = _expect_dict(cnode, path, ("name", "coeffs"), ("name", "coeffs"))
        name = _expect_str(cdict["name"], path + ".name")
        if name in seen:
            raise SchemaError("%s.name: duplicate class name %r" % (path, name))
        seen.add(name)
        entries = _expect_list(cdict["coeffs"], path + ".coeffs")
        if len(entries) != n:
            raise ConsistencyError(
                "%s.coeffs: %d entries, but the variety has %d basis classes"
                % (path, len(entries), n)
            )
        coeffs = tuple(rational(v, "%s.coeffs[%d]" % (path, ci)) for ci, v in enumerate(entries))
        classes.append(NamedClass(name, coeffs))

    tol = None
    if "options" in root:
        onode = _expect_dict(root["options"], "options", ("tol",), ())
        if "tol" in onode:
            tol = rational(onode["tol"], "options.tol")
            if tol <= 0:
                raise ConsistencyError("options.tol must be positive, got %s" % tol)

    return InputDocument(
        variety=config,
        center_labels=tuple(labels),
        actions=tuple(actions),
        classes=tuple(classes),
        tol=tol,
    )


def _decode_json(text: str):
    """json.loads with every decoder failure mapped to ParseError."""
    try:
        return json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError("line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg))
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply to decode")
    except ValueError:
        # the only other decoder ValueError: int() refusing a long literal
        raise ParseError(
            "integer literal longer than %d digits" % sys.get_int_max_str_digits()
        )


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc.strerror or exc))
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8: %s" % (path, exc))


def loads(text: str) -> InputDocument:
    return from_json_data(_decode_json(text))


def load(path: str) -> InputDocument:
    return loads(_read_text(path))


# ------------------------------------------------------------- serializing


def emit_rational(value: Fraction):
    """Integers as JSON numbers, everything else as exact "p/q" strings."""
    if value.denominator == 1:
        return int(value)
    return "%d/%d" % (value.numerator, value.denominator)


def to_json_data(doc: InputDocument) -> dict:
    centers = []
    for dim, label in zip(doc.variety.centers, doc.center_labels):
        node = {"dim": dim}
        if label is not None:
            node["label"] = label
        centers.append(node)
    data = {
        "variety": {"k": doc.variety.k, "centers": centers},
        "actions": [
            {"name": na.name, "matrix": [list(row) for row in na.matrix]}
            for na in doc.actions
        ],
        "classes": [
            {"name": nc.name, "coeffs": [emit_rational(c) for c in nc.coeffs]}
            for nc in doc.classes
        ],
    }
    if doc.tol is not None:
        data["options"] = {"tol": emit_rational(doc.tol)}
    return data


def _j(value) -> str:
    """Single-line JSON for leaves (proper escaping, spaced separators)."""
    return json.dumps(value, separators=(", ", ": "))


def dumps(doc: InputDocument) -> str:
    """Canonical text form: fixed key order, matrix rows kept on one line."""
    data = to_json_data(doc)
    out = ["{"]
    out.append(
        '  "variety": {"k": %d, "centers": [%s]},'
        % (data["variety"]["k"], ", ".join(_j(c) for c in data["variety"]["centers"]))
    )
    if data["actions"]:
        out.append('  "actions": [')
        for i, node in enumerate(data["actions"]):
            rows = ",\n".join("      %s" % _j(r) for r in node["matrix"])
            out.append(
                '    {"name": %s, "matrix": [\n%s\n    ]}%s'
                % (_j(node["name"]), rows, "," if i + 1 < len(data["actions"]) else "")
            )
        out.append("  ],")
    else:
        out.append('  "actions": [],')
    comma = "," if "options" in data else ""
    if data["classes"]:
        out.append('  "classes": [')
        for i, node in enumerate(data["classes"]):
            out.append(
                '    {"name": %s, "coeffs": %s}%s'
                % (_j(node["name"]), _j(node["coeffs"]), "," if i + 1 < len(data["classes"]) else "")
            )
        out.append("  ]%s" % comma)
    else:
        out.append('  "classes": []%s' % comma)
    if "options" in data:
        out.append('  "options": %s' % _j(data["options"]))
    out.append("}")
    return "\n".join(out) + "\n"


def save(doc: InputDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(doc))


# ------------------------------------------------------------- curve files


def load_curves(path: str, ring: RingModel) -> Tuple[Tuple[str, GradedClass], ...]:
    """Extra curves for nef checks: a JSON array of {label, coeffs} with
    coefficients in the degree-(k-1) basis of the ring."""
    entries = _expect_list(_decode_json(_read_text(path)), "$")
    p = ring.k - 1
    want = ring.rank(p)
    curves = []
    for i, node in enumerate(entries):
        path_i = "$[%d]" % i
        cdict = _expect_dict(node, path_i, ("label", "coeffs"), ("label", "coeffs"))
        label = _expect_str(cdict["label"], path_i + ".label")
        raw = _expect_list(cdict["coeffs"], path_i + ".coeffs")
        if len(raw) != want:
            raise ConsistencyError(
                "%s.coeffs: %d entries, but degree %d has rank %d"
                % (path_i, len(raw), p, want)
            )
        coeffs = [rational(v, "%s.coeffs[%d]" % (path_i, ci)) for ci, v in enumerate(raw)]
        curves.append((label, ring.from_basis_vector(p, coeffs)))
    return tuple(curves)
