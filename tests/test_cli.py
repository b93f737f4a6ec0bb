"""End-to-end CLI behavior: golden transcripts, exit codes, machine mode."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from blowdyn.cli import main
from blowdyn.document import dumps, load
from blowdyn.spectral import dynamical_degrees

from tests.golden.regen import CASES, DOCS, HERE as GOLDEN_DIR
from tests.oracles import LEHMER, bisect_largest_real_root


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def doc_argv(argv):
    """Resolve the document argument of a golden case to an absolute path."""
    if argv[0] != "gate" and not argv[1].startswith("--"):
        return [argv[0], str(DOCS / argv[1])] + argv[2:]
    return list(argv)


class TestGolden:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_transcript(self, name):
        code, out, err = run(doc_argv(CASES[name]))
        assert code == 0 and err == ""
        assert out == (GOLDEN_DIR / name).read_text()

    def test_gate_first_line(self):
        _, out, _ = run(["gate", "--k", "7", "--dims", "2,0"])
        assert out.splitlines()[0] == "AllAutomorphismsZeroEntropy"

    def test_identity_entropy_phrase(self):
        _, out, _ = run(["entropy", str(DOCS / "f1.json"), "--action", "id"])
        assert out == "entropy of id: 0 (exact)\n"


class TestDocumentsOnDisk:
    """The shipped documents are in canonical form and load cleanly."""

    @pytest.mark.parametrize("name", sorted(p.name for p in DOCS.glob("*.json")))
    def test_canonical_bytes(self, name):
        path = DOCS / name
        assert dumps(load(str(path))) == path.read_text()

    def test_corpus_size(self):
        assert len(list(DOCS.glob("*.json"))) == 4


class TestMachineMode:
    def test_every_line_is_json_with_cmd_first(self):
        for name, argv in CASES.items():
            if not name.endswith(".json"):
                continue
            _, out, _ = run(doc_argv(argv))
            for line in out.splitlines():
                obj = json.loads(line)
                assert line.startswith('{"cmd": ')
                assert "cmd" in obj

    def test_degrees_fields_reparse_exactly(self):
        doc = load(str(DOCS / "e10_coxeter.json"))
        ring = doc.build_ring()
        action = doc.action(ring, "coxeter")
        ds = dynamical_degrees(action, tol=doc.tol)
        _, out, _ = run(["degrees", str(DOCS / "e10_coxeter.json"),
                         "--action", "coxeter", "--format", "json"])
        payload = json.loads(out)
        lam1 = payload["degrees"][1]
        assert Fraction(lam1["lo"]) == ds.degrees[1].lo
        assert Fraction(lam1["hi"]) == ds.degrees[1].hi
        assert lam1["exact_one"] is False
        assert payload["degrees"][0]["exact_one"] is True
        ent = payload["entropy"]
        assert Fraction(ent["lo"]) == ds.entropy.lo
        assert Fraction(ent["hi"]) == ds.entropy.hi

    def test_digits_flag_widens_decimals(self):
        _, narrow, _ = run(["degrees", str(DOCS / "e10_coxeter.json"),
                            "--action", "coxeter", "--format", "json", "--digits", "4"])
        _, wide, _ = run(["degrees", str(DOCS / "e10_coxeter.json"),
                          "--action", "coxeter", "--format", "json", "--digits", "30"])
        lo4 = json.loads(narrow)["degrees"][1]["lo_dec"]
        lo30 = json.loads(wide)["degrees"][1]["lo_dec"]
        assert len(lo4.split(".")[1]) == 4
        assert len(lo30.split(".")[1]) == 30
        assert lo30.startswith("1.1762808182")

    def test_ring_json_lists_ranks(self):
        _, out, _ = run(["ring", str(DOCS / "f1.json"), "--format", "json"])
        payload = json.loads(out)
        assert payload["ranks"] == [1, 2, 1]
        assert payload["k"] == 2


class TestToleranceFlow:
    def test_flag_overrides_document(self):
        # The tolerance is a width ceiling, and the certifier stops at the
        # first precision rung under it.  The document's 1/10^9 settles far
        # short of 1/10^80, so only a winning flag can reach that width.
        _, default, _ = run(["degrees", str(DOCS / "e10_coxeter.json"),
                             "--action", "coxeter", "--format", "json"])
        _, forced, _ = run(["degrees", str(DOCS / "e10_coxeter.json"),
                            "--action", "coxeter", "--tol", "1e-80",
                            "--format", "json"])
        width = lambda d: Fraction(d["hi"]) - Fraction(d["lo"])  # noqa: E731
        wd = width(json.loads(default)["degrees"][1])
        wf = width(json.loads(forced)["degrees"][1])
        assert wd <= Fraction(1, 10**9)
        assert wd > Fraction(1, 10**80)
        assert wf <= Fraction(1, 10**80)

    def test_document_tol_honored_without_flag(self, tmp_path):
        import blowdyn.document as document

        doc = document.load(str(DOCS / "e10_coxeter.json"))
        tight = document.InputDocument(
            variety=doc.variety,
            center_labels=doc.center_labels,
            actions=doc.actions,
            classes=doc.classes,
            tol=Fraction(1, 10**80),
        )
        path = tmp_path / "tight.json"
        document.save(tight, str(path))
        _, out, _ = run(["degrees", str(path), "--action", "coxeter",
                         "--format", "json"])
        lam1 = json.loads(out)["degrees"][1]
        assert Fraction(lam1["hi"]) - Fraction(lam1["lo"]) <= Fraction(1, 10**80)

    def test_tol_1e_300_certifies_lehmer(self):
        code, out, err = run(["degrees", str(DOCS / "e10_coxeter.json"), "--action",
                              "coxeter", "--tol", "1e-300", "--format", "json"])
        assert code == 0 and err == ""
        lam1 = json.loads(out)["degrees"][1]
        lo, hi = Fraction(lam1["lo"]), Fraction(lam1["hi"])
        assert hi - lo <= Fraction(1, 10**300)
        # the oracle window is wider than the certified one, so it must
        # contain it
        a, b = bisect_largest_real_root(LEHMER, Fraction(1), Fraction(2), digits=320)
        assert a <= lo and hi <= b

    @pytest.mark.parametrize("spelling", ["1e-9", "0.000000001", "1/1000000000"])
    def test_tol_spellings(self, spelling):
        code, out, _ = run(["degrees", str(DOCS / "f1.json"), "--action", "id",
                            "--tol", spelling])
        assert code == 0


class TestExitCodes:
    def write(self, tmp_path, text, name="doc.json"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_ok_is_zero(self):
        code, _, _ = run(["gate", "--k", "7", "--dims", "2,0"])
        assert code == 0

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["degrees"])  # missing document and --action
        assert exc.value.code == 2

    def test_unknown_subcommand_is_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_parse_error_is_three(self, tmp_path):
        bad = self.write(tmp_path, '{"variety": {"k": 2, "centers": []}')
        code, _, err = run(["ring", bad])
        assert code == 3 and "error:" in err

    def test_float_literal_is_three(self, tmp_path):
        bad = self.write(
            tmp_path,
            '{"variety": {"k": 2, "centers": [{"dim": 0}]},'
            ' "classes": [{"name": "x", "coeffs": [0.5, 1]}]}',
        )
        code, _, err = run(["ring", bad])
        assert code == 3 and "floating-point" in err

    def test_missing_file_is_three(self, tmp_path):
        code, _, _ = run(["ring", str(tmp_path / "absent.json")])
        assert code == 3

    UNDECODABLE = {
        "nested100k": "[" * 100000 + "]" * 100000,
        "int4301": '{"variety": {"k": 2, "centers": [{"dim": 0}]}, "actions": '
                   '[{"name": "f", "matrix": [[%s, 0], [0, 1]]}]}' % ("1" * 4301),
    }

    @pytest.mark.parametrize("name", sorted(UNDECODABLE))
    def test_undecodable_document_is_three(self, tmp_path, name):
        bad = self.write(tmp_path, self.UNDECODABLE[name])
        code, out, err = run(["degrees", bad, "--action", "f"])
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(UNDECODABLE))
    def test_undecodable_curve_file_is_three(self, tmp_path, name):
        bad = self.write(tmp_path, self.UNDECODABLE[name], name="curves.json")
        code, out, err = run(["nef-check", str(DOCS / "blline_p3.json"),
                              "--class", "pencil", "--curves", bad])
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_schema_error_is_four(self, tmp_path):
        bad = self.write(tmp_path, '{"variety": {"k": 2, "centers": []}, "junk": 1}')
        code, _, err = run(["ring", bad])
        assert code == 4 and "$.junk" in err

    def test_consistency_error_is_five(self, tmp_path):
        bad = self.write(
            tmp_path,
            '{"variety": {"k": 2, "centers": [{"dim": 0}, {"dim": 0}]},'
            ' "actions": [{"name": "a", "matrix": [[1, 0], [0, 1]]}]}',
        )
        code, _, _ = run(["ring", bad])
        assert code == 5

    def test_unknown_action_is_six(self):
        code, _, err = run(["degrees", str(DOCS / "f1.json"), "--action", "nope"])
        assert code == 6 and "nope" in err

    def test_unknown_class_is_six(self):
        code, _, _ = run(["nef-check", str(DOCS / "f1.json"), "--class", "ghost"])
        assert code == 6

    def test_domain_error_is_seven(self):
        # e1 has negative top self-intersection, so it cannot be ample.
        code, _, err = run(["nu", str(DOCS / "blpt_p3.json"),
                            "--class", "h", "--ample=e1"])
        assert code == 7 and "ample" in err

    def big_class_doc(self, tmp_path):
        # a's coefficient fits the int/str digit limit, that of a * a does not
        digits = sys.get_int_max_str_digits() // 2 + 1
        return self.write(
            tmp_path,
            '{"variety": {"k": 2, "centers": [{"dim": 0}]},'
            ' "classes": [{"name": "a", "coeffs": [%s, -1]}]}' % ("7" * digits),
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_result_past_digit_limit_is_seven(self, tmp_path, fmt):
        doc = self.big_class_doc(tmp_path)
        code, out, err = run(["mul", doc, "--class", "a", "--class", "a", "--format", fmt])
        assert code == 7 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(sys.get_int_max_str_digits()) in err

    def test_result_within_digit_limit_prints(self, tmp_path):
        code, out, _ = run(["mul", self.big_class_doc(tmp_path), "--class", "a"])
        assert code == 0 and "7" * (sys.get_int_max_str_digits() // 2 + 1) in out

    def test_decimals_past_digit_limit_are_seven(self):
        code, out, err = run(["degrees", str(DOCS / "e10_coxeter.json"), "--action", "coxeter",
                              "--digits", str(sys.get_int_max_str_digits() + 1)])
        assert code == 7 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_negative_digits_is_two(self, fmt):
        err = io.StringIO()
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
            main(["degrees", str(DOCS / "e10_coxeter.json"), "--action", "coxeter",
                  "--digits", "-1", "--format", fmt])
        assert exc.value.code == 2
        assert err.getvalue().startswith("usage: ") and "--digits" in err.getvalue()
        assert "Traceback" not in err.getvalue()

    # two planes in P^4 always meet, so they cannot be disjoint centers; on
    # them products depended on the order of the factors (-h^2*e2 against 0)
    MEETING_PLANES = (
        '{"variety": {"k": 4, "centers": [{"dim": 2}, {"dim": 2}]},'
        ' "classes": [{"name": "a", "coeffs": [0, 1, 0]},'
        ' {"name": "b", "coeffs": [0, 0, 1]}]}'
    )

    @pytest.mark.parametrize("order", ["aab", "baa"])
    def test_centers_that_meet_are_five(self, tmp_path, order):
        doc = self.write(tmp_path, self.MEETING_PLANES)
        code, out, err = run(["mul", doc] + [a for c in order for a in ("--class", c)])
        assert code == 5 and out == ""
        assert err.startswith("error: variety: centers 1 and 2")

    def test_gate_on_centers_that_meet_still_decides(self, tmp_path):
        code, out, _ = run(["gate", self.write(tmp_path, self.MEETING_PLANES)])
        assert code == 0 and out.startswith("Inconclusive\nk=4, r=2")

    def test_gate_doc_and_k_conflict_is_three(self):
        code, _, _ = run(["gate", str(DOCS / "f1.json"), "--k", "7"])
        assert code == 3

    def test_gate_needs_doc_or_k(self):
        code, _, _ = run(["gate"])
        assert code == 3

    def test_gate_dims_without_k_is_three(self):
        code, _, _ = run(["gate", "--dims", "2,0"])
        assert code == 3

    def test_bad_tol_is_three(self):
        code, _, _ = run(["degrees", str(DOCS / "f1.json"), "--action", "id",
                          "--tol", "zero"])
        assert code == 3

    def test_nonpositive_tol_is_three(self):
        # --tol=-1/2 keeps argparse from eating the leading dash
        code, _, err = run(["degrees", str(DOCS / "f1.json"), "--action", "id",
                            "--tol=-1/2"])
        assert code == 3 and "positive" in err


class TestGateStandalone:
    def test_point_dims_default_to_empty(self):
        code, out, _ = run(["gate", "--k", "5"])
        assert code == 0
        assert out.splitlines()[0] == "AllAutomorphismsZeroEntropy"
        assert "r=0" in out

    def test_inconclusive_side(self):
        _, out, _ = run(["gate", "--k", "4", "--dims", "1"])
        assert out.splitlines()[0] == "Inconclusive"
        assert "margin=0" in out

    def test_document_form_agrees_with_flags(self):
        _, from_doc, _ = run(["gate", str(DOCS / "blpt_p3.json"), "--format", "json"])
        _, from_flags, _ = run(["gate", "--k", "3", "--dims", "0", "--format", "json"])
        assert json.loads(from_doc) == json.loads(from_flags)


class TestVerifyCommand:
    def test_invalid_action_reports_and_exits_zero(self, tmp_path):
        text = (
            '{"variety": {"k": 2, "centers": [{"dim": 0}]},'
            ' "actions": [{"name": "half", "matrix": [[2, 0], [0, 1]]}]}'
        )
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, _ = run(["verify", str(path), "--action", "half"])
        assert code == 0
        assert "INVALID" in out
        assert "expected 1" in out

    def test_verify_json_reports_property_counts(self):
        _, out, _ = run(["verify", str(DOCS / "e10_coxeter.json"),
                         "--action", "coxeter", "--format", "json"])
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["validation"]["det"] == 1
        props = payload["properties"]
        assert props["ok"] is True
        assert all(c["status"] == "pass" for c in props["checks"])
        families = {c["family"] for c in props["checks"]}
        assert families == {
            "lower-bound", "log-concavity", "first-dominates",
            "inverse-duality", "root-bound",
        }


_STARTUP_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(n for n in sys.modules if n.startswith("blowdyn."))

import blowdyn
steps = [["import blowdyn", None, loaded(), False, ""]]
from blowdyn.cli import main
steps.append(["import blowdyn.cli", None, loaded(), False, ""])
for argv in json.loads(sys.argv[1]):
    # hide an mpmath loaded by an earlier step: each step shows its own import
    hidden = {n: sys.modules.pop(n) for n in list(sys.modules) if n.split(".")[0] == "mpmath"}
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    steps.append([argv[0], code, loaded(), "mpmath" in sys.modules, out.getvalue()])
    sys.modules.update(hidden)
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def startup_steps():
    """One fresh process runs a command sequence; per step: (label, exit
    code, blowdyn modules loaded so far, did the step import mpmath, stdout)."""
    doc = str(DOCS / "blpt_p3.json")
    argvs = [
        ["ring", doc],
        ["mul", doc, "--class", "ample", "--class", "h"],
        ["degrees", str(DOCS / "no-such-document.json"), "--action", "swap"],
        ["verify", doc, "--action", "swap"],
        ["degrees", doc, "--action", "swap"],
        doc_argv(CASES["degrees_coxeter.txt"]),
        ["gate", doc],
    ]
    env = dict(os.environ, PYTHONPATH=str(GOLDEN_DIR.parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert [step[1] for step in steps] == [None, None, 0, 0, 3, 0, 0, 0, 0]
    return steps


def test_mpmath_loads_only_for_a_root_search(startup_steps):
    """A fresh process that builds a ring, multiplies, refuses a document,
    runs the gate, and verifies and takes the degrees of an action whose
    degrees are all exactly 1 never imports mpmath; the first
    non-cyclotomic degree does."""
    *light, coxeter, gate = startup_steps[2:]
    assert not any(step[3] for step in light + [gate])
    assert coxeter[3]
    assert coxeter[4] == (GOLDEN_DIR / "degrees_coxeter.txt").read_text()


def test_each_command_loads_only_the_modules_it_calls(startup_steps):
    """The package loads its errors only; the CLI adds itself; building a
    ring, multiplying and refusing a document need no spectral, polynomial,
    positivity or gate code; the degrees of an action need no positivity
    or gate code."""
    loaded = [set(step[2]) for step in startup_steps]
    assert loaded[0] == {"blowdyn.errors"}  # import blowdyn
    assert loaded[1] == {"blowdyn.errors", "blowdyn.cli"}  # import blowdyn.cli
    heavy = {"blowdyn.spectral", "blowdyn.polys", "blowdyn.positivity", "blowdyn.gate"}
    assert not loaded[4] & heavy  # after ring, mul and an exit-3 refusal
    assert not loaded[7] & {"blowdyn.positivity", "blowdyn.gate"}  # after degrees coxeter
    assert "blowdyn.gate" in loaded[8]
