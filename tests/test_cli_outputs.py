"""The CLI's outputs, pinned byte for byte.

``data/cli_outputs.txt`` records the exit code, stdout and stderr of
``cli.main`` on each argv list of ``INVOCATIONS``: ``classify`` on every
library table, ``library`` and each entry, ``enumerate`` of orders -1 to 4
with and without ``--count-only``, ``transform``, ``product``, text and
machine ``check`` (on the suite, and on synthetic reports in place of
``run_suite``'s), and the input errors these commands report. Input files
are written to a temporary working directory and named by relative path,
so no recorded byte depends on where it lies. The ``_report_machine``
record of a synthetic certificate with and without each optional field
follows. Flag errors that argparse itself reports are left out, since
their wording differs across Python versions. Run this file as a script
to rewrite the recording.
"""

import contextlib
import dataclasses
import io
from fractions import Fraction as F
from pathlib import Path

import pytest

from ifsemigroups import (
    Certificate,
    VerificationReport,
    builtin_library,
    format_cayley,
)
from ifsemigroups import cli
from ifsemigroups.cli import _report_machine

RECORDING = Path(__file__).parent / "data" / "cli_outputs.txt"
LIBRARY = [entry.name for entry in builtin_library()]
FILES = {
    **{f"{entry.name}.cayley": format_cayley(entry.semigroup) for entry in builtin_library()},
    "nonassoc.cayley": "2\n1 1\n0 0\n",
    "worked.ifs": "0 0.3 0.4\n1 0.1 0.25\n2 0.5 0.3\n",
    "step.ifs": "0 1 0\n1 1/2 1/3\n2 0 1\n",
}

INVOCATIONS = [
    *(["classify", f"{name}.cayley"] for name in LIBRARY),
    ["classify", "nonassoc.cayley"],
    ["classify", "missing.cayley"],
    ["library"],
    *(["library", name] for name in LIBRARY),
    ["library", "nosuch"],
    *(["enumerate", n, *flag] for n in ("1", "2", "3", "4", "0", "-1")
      for flag in ([], ["--count-only"])),
    ["transform", "worked.ifs", "--beta", "0.2", "--alpha", "0.04"],
    ["transform", "step.ifs", "--beta", "1/3", "--alpha", "0", "--cayley", "cyclic3.cayley"],
    ["transform", "worked.ifs", "--beta", "0.2", "--alpha", "0.06"],
    ["transform", "worked.ifs", "--beta", "0", "--alpha", "0"],
    ["transform", "worked.ifs", "--beta", "1", "--alpha", "0", "--cayley", "null2.cayley"],
    ["transform", "worked.ifs", "--beta", "1", "--alpha", "0", "--cayley", "nonassoc.cayley"],
    ["product", "semilattice3.cayley", "worked.ifs", "step.ifs"],
    ["product", "leftzero3.cayley", "step.ifs", "step.ifs"],
    ["product", "null2.cayley", "worked.ifs", "step.ifs"],
    ["check", "--orders", "1,2", "--all", "--grid-step", "1/2"],
    ["check", "--orders", "1,2,3", "--theorem", "fixedpoint", "--theorem", "regular_product",
     "--grid-step", "1/2", "--random-count", "3", "--seed", "5"],
    ["check", "--orders", "2", "--grid-step", "1/2", "--machine"],
    *(["check", "--orders", orders] for orders in ("x", "1,x", "", ",,", "5", "0", "2,1,2")),
    ["check", "--theorem", "nosuch"],
    ["check", "--grid-step", "2/5"],
]

_CERT = Certificate(
    "equiv_left_ideal", "order2/003", ((0, 0), (1, 1)), (F(1, 2), F(1)), (F(0), F(1, 3)),
    detail="a synthetic counterexample",
)
# (name, certificate): none, each and all of the optional fields
CERTIFICATES = [
    ("required fields only", _CERT),
    ("mu_b, nu_b", dataclasses.replace(_CERT, mu_b=(F(1), F(0)), nu_b=(F(0), F(1)))),
    ("beta, alpha", dataclasses.replace(_CERT, beta=F(1, 4), alpha=F(1, 8))),
    ("beta, alpha = 0", dataclasses.replace(_CERT, beta=F(1), alpha=F(0))),
    ("kind", dataclasses.replace(_CERT, kind="left_ideal")),
    ("points", dataclasses.replace(_CERT, points=(1, 0))),
    ("all fields", dataclasses.replace(
        _CERT, mu_b=(F(1), F(0)), nu_b=(F(0), F(1)), beta=F(1, 4), alpha=F(1, 8),
        kind="bi_ideal_pair", points=(0, 1, 1),
    )),
]
# what run_suite returns in the synthetic check invocations
REPORTS = [
    VerificationReport("fixedpoint", "order1/000", 1, 3, 0, "verified"),
    VerificationReport("equiv_left_ideal", "order2/003", 1, 5, 2, "counterexample", _CERT),
    VerificationReport("fixedpoint", "lib:null2", 1, 9, 0, "counterexample"),
]
SYNTHETIC_INVOCATIONS = [["check", "--orders", "2"], ["check", "--orders", "2", "--machine"]]


def _block(text: str) -> str:
    if text and not text.endswith("\n"):
        return f"{len(text.splitlines())} lines, no final newline\n{text}\n"
    return f"{len(text.splitlines())} lines\n{text}"


def _invoke(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return (f"$ ifsg {' '.join(repr(a) if not a or ' ' in a else a for a in argv)}\n"
            f"exit {code}\n--- stdout {_block(out.getvalue())}"
            f"--- stderr {_block(err.getvalue())}")


def _text(workdir: Path, patch) -> str:
    """The recording: run in ``workdir``, with ``patch`` (``MonkeyPatch.setattr``)
    standing in ``REPORTS`` for ``run_suite`` in the synthetic invocations."""
    for name, text in FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    parts = ["# invocations\n", *map(_invoke, INVOCATIONS)]
    patch(cli, "run_suite", lambda *args, **kwargs: REPORTS)
    parts.append("# invocations, run_suite returning the synthetic reports\n")
    parts.extend(map(_invoke, SYNTHETIC_INVOCATIONS))
    parts.append("# _report_machine on synthetic certificates\n")
    for name, cert in CERTIFICATES:
        report = VerificationReport(cert.theorem_id, cert.semigroup, 1, 4, 0,
                                    "counterexample", cert)
        parts.append(f"{name}: {_report_machine(report)}\n")
    return "".join(parts)


def test_cli_outputs_match_recording(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _text(tmp_path, monkeypatch.setattr) == RECORDING.read_text(encoding="utf-8")


if __name__ == "__main__":
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        text = _text(Path(tmp), mp.setattr)
    RECORDING.write_text(text, encoding="utf-8")
    sys.stdout.write(f"wrote {len(text.splitlines())} lines to {RECORDING}\n")
