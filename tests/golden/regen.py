"""Regenerate the golden CLI transcripts in this directory.

Run from anywhere:

    python3 tests/golden/regen.py          # rewrite every golden
    python3 tests/golden/regen.py --check  # list stale goldens, write nothing

Each golden file is the exact stdout of one CLI invocation against the
documents shipped in demos/documents/.  Tests compare byte-for-byte, so
regenerate only when an output change is intentional, and review the diff.
``--check`` prints the name of each golden whose current output differs
and exits 1 if any do.
"""

import argparse
import contextlib
import io
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DOCS = ROOT / "demos" / "documents"

# the checkout's own package, whatever the working directory
sys.path.insert(0, str(ROOT / "src"))
from blowdyn.cli import main  # noqa: E402

CASES = {
    "ring_blline.txt": ["ring", "blline_p3.json"],
    "ring_f1.json": ["ring", "f1.json", "--format", "json"],
    "mul_pencil_sq.txt": ["mul", "blline_p3.json", "--class", "pencil", "--class", "pencil"],
    "degrees_coxeter.txt": ["degrees", "e10_coxeter.json", "--action", "coxeter"],
    "degrees_coxeter.json": ["degrees", "e10_coxeter.json", "--action", "coxeter", "--format", "json"],
    "entropy_id.txt": ["entropy", "f1.json", "--action", "id"],
    "entropy_coxeter_20.txt": ["entropy", "e10_coxeter.json", "--action", "coxeter", "--digits", "20"],
    "gate_7_20.txt": ["gate", "--k", "7", "--dims", "2,0"],
    "gate_7_20.json": ["gate", "--k", "7", "--dims", "2,0", "--format", "json"],
    "verify_swap.txt": ["verify", "blpt_p3.json", "--action", "swap"],
    "nef_check_pencil.json": [
        "nef-check", "blline_p3.json", "--class", "pencil", "--format", "json",
    ],
    "nu_pencil.txt": ["nu", "blline_p3.json", "--class", "pencil", "--ample=-K"],
    "chain_swap.txt": ["chain", "blpt_p3.json", "--action", "swap"],
    "chain_coxeter.json": ["chain", "e10_coxeter.json", "--action", "coxeter", "--format", "json"],
    "fano_blpt.json": ["fano", "blpt_p3.json", "--format", "json"],
}


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit("golden command failed (%d): %s" % (code, argv))
    return buf.getvalue()


def main_regen(cli_args=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; list goldens whose output differs")
    check = parser.parse_args(cli_args).check
    stale = 0
    for name, argv in CASES.items():
        if argv[0] != "gate" and not argv[1].startswith("--"):
            argv = [argv[0], str(DOCS / argv[1])] + argv[2:]
        out = run(argv)
        if check:
            if (HERE / name).read_text() != out:
                print("differs: %s" % name)
                stale += 1
        else:
            (HERE / name).write_text(out)
            print("wrote %s (%d bytes)" % (name, len(out)))
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main_regen())
