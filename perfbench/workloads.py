"""The benchmark's workloads and the reduction of their output to text lines.

Each workload is one call into the package: ``run_suite`` for ``sweep`` and
``pairs``, ``cli.main`` for ``cli_library``. The workload seed reaches the
package only through ``SampleSpec(seed=..., random_count=...)`` (directly, or
through the CLI's ``--seed``/``--random-count`` flags).

Why these three:

- ``sweep``: the 13 single-subject theorems at the default 1/4 grid over all
  122 tables of order <= 3. The profile kernel runs millions of times and
  each subject's magnified variants are shared by all 113 order-3 tables;
  the pair layers do almost nothing.
- ``pairs``: the 4 pair theorems at a 1/2 grid and a pair cap of 8. The
  coarse grid makes the shared sweep a few percent of the time, so the time
  goes to the Fraction-valued pair phase (``check``, ``magnify``,
  ``if_product``, ``intersect``, ``ifs_leq``/``ifs_eq``).
- ``cli_library``: ``ifsg check --all --orders 1`` at a 1/3 grid through the
  CLI. Only 13 library tables (two of order 4, with 9744 grid subjects each),
  so each subject's variants are shared by 1 to 6 tables, carriers of size
  4 make every kernel and product call costlier, all 17 theorems run, and the
  CLI formats the output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass
from fractions import Fraction

PAIR_THEOREMS = (
    "semiprime_intersection",
    "product_bi_ideal",
    "product_one_two_ideal",
    "regular_product",
)

ORDERS = {"sweep": (1, 2, 3), "pairs": (1, 2, 3), "cli_library": (1,)}
WORKLOADS = tuple(ORDERS)


@dataclass
class Outcome:
    """What one workload call produced."""

    lines: list[str]  # one machine line per report, in report order
    reports: list  # VerificationReport objects
    output_bytes: int  # bytes the CLI printed (0 for library calls)


def single_subject_theorems(theorem_ids) -> tuple[str, ...]:
    return tuple(t for t in theorem_ids if t not in PAIR_THEOREMS)


def _value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(_value(x) for x in v)
    return str(v)


def machine_line(r) -> str:
    """One report in the documented ``# ifsg-reports v1`` record format.

    Written here from the README's schema rather than borrowed from the
    CLI's private formatter, so a refactor of ``cli`` cannot change what the
    reports are compared by.
    """
    fields = [
        f"theorem={r.theorem_id}",
        f"semigroup={r.semigroup}",
        f"semigroups={r.semigroups_checked}",
        f"subjects={r.subjects_checked}",
        f"skipped={r.hypothesis_skipped}",
        f"outcome={r.outcome}",
    ]
    c = r.certificate
    if c is not None:
        fields.append("cert.table=" + ";".join(_value(row) for row in c.table))
        fields.append("cert.mu_a=" + _value(c.mu_a))
        fields.append("cert.nu_a=" + _value(c.nu_a))
        if c.mu_b is not None:
            fields.append("cert.mu_b=" + _value(c.mu_b))
            fields.append("cert.nu_b=" + _value(c.nu_b))
        if c.beta is not None:
            fields.append(f"cert.beta={c.beta}")
            fields.append(f"cert.alpha={c.alpha}")
        if c.kind is not None:
            fields.append(f"cert.kind={c.kind}")
        if c.points:
            fields.append("cert.points=" + _value(c.points))
    return " ".join(fields)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def spec_for(pkg, name: str, seed: int):
    """The SampleSpec of one workload; the seed enters only here."""
    if name == "sweep":
        return pkg.SampleSpec(random_count=256, seed=seed)
    if name == "pairs":
        return pkg.SampleSpec(
            grade_grid_step=Fraction(1, 2), max_pair_subjects=8,
            random_count=64, seed=seed,
        )
    if name == "cli_library":
        return pkg.SampleSpec(
            grade_grid_step=Fraction(1, 3), random_count=256, seed=seed,
        )
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def uses_variants(name: str) -> bool:
    """Whether the workload's sweep builds magnified variants of each subject.

    The single-subject theorems consume them; the pair theorems choose
    their own parameters per pair, so ``pairs`` sweeps the subjects alone.
    """
    return name != "pairs"


def cli_argv(spec) -> list[str]:
    return [
        "check", "--all", "--orders", "1",
        "--grid-step", str(spec.grade_grid_step),
        "--random-count", str(spec.random_count),
        "--seed", str(spec.seed), "--machine",
    ]


def _plain_timer(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    return result, wall, wall


def run_workload(pkg, name: str, seed: int, timer=_plain_timer):
    """Run one workload call against the imported package ``pkg``.

    Returns (outcome, wall seconds of the call, seconds of the call outside
    the traced spans). Only the package call is timed: ``run_suite`` for
    the library workloads, ``cli.main`` for ``cli_library``. ``timer`` is
    called as ``timer(fn, *args, **kwargs)`` and returns the same triple
    with fn's result first.

    For ``cli_library`` the reports are captured by a pass-through wrapper
    around the ``run_suite`` that ``cli`` looks up at call time, so their
    witnesses can be replayed; the printed lines are what is compared.
    """
    spec = spec_for(pkg, name, seed)
    if name == "cli_library":
        return _run_cli(spec, timer)
    if name == "sweep":
        theorems = single_subject_theorems(pkg.THEOREM_IDS)
    else:
        theorems = PAIR_THEOREMS
    reports, wall, outside = timer(
        pkg.run_suite, list(ORDERS[name]), spec, theorems=theorems,
        include_library=False,
    )
    return Outcome([machine_line(r) for r in reports], reports, 0), wall, outside


def _run_cli(spec, timer):
    from ifsemigroups import cli

    captured: list = []
    inner = cli.run_suite

    def capture(*args, **kwargs):
        reports = inner(*args, **kwargs)
        captured.extend(reports)
        return reports

    buf = io.StringIO()
    cli.run_suite = capture
    try:
        with contextlib.redirect_stdout(buf):
            code, wall, outside = timer(cli.main, cli_argv(spec))
    finally:
        cli.run_suite = inner
    if code != 0:
        raise RuntimeError(f"ifsg check exited with code {code}")
    text = buf.getvalue()
    return Outcome(text.splitlines(), captured, len(text.encode())), wall, outside
