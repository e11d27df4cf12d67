"""Command-line front-end.

Subcommands: classify, transform, product, check, enumerate, library.
Exit codes: 0 success or all theorems verified, 1 a theorem check found a
counterexample, 2 usage or input error. All grades print as reduced p/q
rationals; every emitted table or grade map re-parses to an equal value.
"""

from __future__ import annotations

import argparse
import sys

from .errors import AlphaOutOfRange, CarrierMismatch, IfsgError, ParseError
from .harness import SampleSpec, VerificationReport, run_suite
from .composition import if_product
from .ifs import as_grade, format_ifs, parse_ifs
from .semigroups import (
    builtin_library,
    classify,
    enumerate_semigroups,
    format_cayley,
    library_entry,
    parse_cayley,
)
from .transforms import TransformParams, magnify

MACHINE_HEADER = "# ifsg-reports v1"
# a certificate's fields after cert.table, each printed unless None or empty
CERT_FIELDS = ("mu_a", "nu_a", "mu_b", "nu_b", "beta", "alpha", "kind", "points")
# the classification flags that classify prints and library lists
_FLAGS = ("regular", "intra_regular", "left_regular", "right_regular", "archimedean", "is_group")

_USAGE_ERROR = 2
_COUNTEREXAMPLE = 1


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 ({exc.reason} at byte {exc.start}): {path}") from None


def _load_cayley(path: str):
    return parse_cayley(_read(path))


def cmd_classify(args) -> int:
    S = _load_cayley(args.cayley)
    cls = classify(S)
    print(f"order: {S.order}")
    for flag in _FLAGS:
        label = flag.removeprefix("is_").replace("_", "-")
        print(f"{label}: {'yes' if getattr(cls, flag) else 'no'}")
    if cls.identity is not None:
        print(f"identity: {cls.identity}")
    return 0


def cmd_transform(args) -> int:
    A = parse_ifs(_read(args.ifs))
    if args.cayley is not None:
        S = _load_cayley(args.cayley)
        if S.order != A.carrier_order:
            raise CarrierMismatch(
                f"grade map has {A.carrier_order} points but table has order {S.order}"
            )
    beta = as_grade(args.beta, "beta")
    alpha = as_grade(args.alpha, "alpha")
    try:
        out = magnify(A, TransformParams(beta, alpha))
    except AlphaOutOfRange as exc:
        raise ValueError(f"alpha {alpha} too large; max alpha = {exc.bound}") from None
    sys.stdout.write(format_ifs(out))
    return 0


def cmd_product(args) -> int:
    S = _load_cayley(args.cayley)
    A = parse_ifs(_read(args.a))
    B = parse_ifs(_read(args.b))
    sys.stdout.write(format_ifs(if_product(S, A, B)))
    return 0


def _spec_from(args) -> SampleSpec:
    return SampleSpec(
        grade_grid_step=as_grade(args.grid_step, "grid step"),
        random_count=args.random_count,
        seed=args.seed,
    )


def _report_text(r: VerificationReport) -> str:
    mark = "ok " if r.outcome == "verified" else "FAIL"
    line = (
        f"[{mark}] {r.semigroup:<14} {r.theorem_id:<24} "
        f"subjects={r.subjects_checked} skipped={r.hypothesis_skipped}"
    )
    if r.certificate is not None:
        line += f"\n       counterexample: {r.certificate.detail}"
    return line


def _machine_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(_machine_value(x) for x in v)
    return str(v)


def _report_machine(r: VerificationReport) -> str:
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
        fields.append("cert.table=" + ";".join(_machine_value(row) for row in c.table))
        for name in CERT_FIELDS:
            v = getattr(c, name)
            if v is not None and v != ():
                fields.append(f"cert.{name}={_machine_value(v)}")
    return " ".join(fields)


def cmd_check(args) -> int:
    try:
        orders = sorted({int(tok) for tok in args.orders.split(",") if tok})
    except ValueError:
        raise ValueError(f"bad orders {args.orders!r}") from None
    if not orders:
        raise ValueError(f"no orders in {args.orders!r}")
    theorems = None if args.all or not args.theorem else args.theorem
    reports = run_suite(orders, _spec_from(args), theorems)
    failures = sum(1 for r in reports if r.outcome == "counterexample")
    if args.machine:
        print(MACHINE_HEADER)
    report = _report_machine if args.machine else _report_text
    for r in reports:
        print(report(r))
    enumerated = len({r.semigroup for r in reports if r.semigroup.startswith("order")})
    library = len({r.semigroup for r in reports if r.semigroup.startswith("lib:")})
    print(
        f"{enumerated} enumerated + {library} library semigroups, "
        f"{failures} counterexample{'' if failures == 1 else 's'}"
    )
    return _COUNTEREXAMPLE if failures else 0


def cmd_enumerate(args) -> int:
    if args.count_only:
        print(sum(1 for _ in enumerate_semigroups(args.order)))
        return 0
    sys.stdout.write("\n".join(map(format_cayley, enumerate_semigroups(args.order))))
    return 0


def cmd_library(args) -> int:
    if args.name is None:
        for entry in builtin_library():
            flags = " ".join(f for f in _FLAGS if getattr(entry.classification, f))
            print(f"{entry.name:<14} order={entry.semigroup.order} {flags}")
        return 0
    entry = library_entry(args.name)
    print(f"# {entry.name}: {entry.classification}")
    sys.stdout.write(format_cayley(entry.semigroup))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a ``ValueError``, which ``main`` prints as one
    line with exit code 2, in place of argparse's usage block and exit."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ifsg",
        description="Exact checks of fuzzy-subset transforms over finite semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a Cayley-table file")
    p.add_argument("cayley", help="path to a Cayley table")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("transform", help="magnify a grade-map file")
    p.add_argument("ifs", help="path to a grade map")
    p.add_argument("--beta", required=True, help="scaling in (0,1], exact rational")
    p.add_argument("--alpha", required=True, help="shift, exact rational")
    p.add_argument("--cayley", help="optional table to cross-check the carrier size")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("product", help="sup-min product of two grade maps")
    p.add_argument("cayley", help="path to a Cayley table")
    p.add_argument("a", help="left operand grade map")
    p.add_argument("b", help="right operand grade map")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("check", help="run theorem checks")
    p.add_argument("--orders", default="1,2", help="comma-separated orders in 1..3")
    p.add_argument("--theorem", action="append", help="theorem id (repeatable)")
    p.add_argument("--all", action="store_true", help="run every theorem")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-step", default="1/4", help="grade grid step, divides 1")
    p.add_argument("--random-count", type=int, default=0)
    p.add_argument("--machine", action="store_true", help="machine-readable reports")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="stream all labeled semigroups of an order")
    p.add_argument("order", type=int)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("library", help="list or print curated semigroups")
    p.add_argument("name", nargs="?", help="entry name; omit to list all")
    p.set_defaults(func=cmd_library)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OSError as exc:
        where = "" if exc.filename is None else f": {exc.filename}"
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return _USAGE_ERROR
    except (IfsgError, ValueError, KeyError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
