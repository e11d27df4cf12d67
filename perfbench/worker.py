"""One benchmark process: set up, run the workload, check it, report JSON.

``run.py`` starts this script as a fresh interpreter, so set-up is timed
from process start. It reads the reference lines of the workload and seed
as a JSON list on stdin (so that the reference file never counts in the
worker's peak memory) and prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload sweep --seed 3 --seconds 30 --trace 0 < want.json
    python3 perfbench/worker.py --workload sweep --setup-only
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import layers
import speed
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def setup(name: str):
    """Import the package, enumerate and classify the workload's tables and
    build the library.

    Returns (package, {carrier order: [tables swept]}, {classify calls,
    seconds}). These are the process's first ``classify`` calls, so they
    decide each table rather than hit ``classify``'s cache.
    """
    sys.path.insert(0, str(SRC))
    import ifsemigroups as pkg

    tables: dict[int, list] = {}
    for n in workloads.ORDERS[name]:
        tables[n] = list(pkg.enumerate_semigroups(n))
    library = pkg.builtin_library()
    if name == "cli_library":
        for entry in library:
            tables.setdefault(entry.semigroup.order, []).append(entry.semigroup)
    swept = [S for group in tables.values() for S in group]
    t0 = time.perf_counter()
    for S in swept:
        pkg.classify(S)
    classify = {"calls": len(swept), "s": time.perf_counter() - t0}
    return pkg, tables, classify


def _mismatches(got: list[str], want: list[str]) -> int:
    diff = sum(1 for g, w in zip(got, want) if g != w)
    return diff + abs(len(got) - len(want))


def _replay_failures(pkg, reports) -> tuple[int, int]:
    """(replayed, failed) over every certificate and witness."""
    certs = [r.certificate for r in reports if r.certificate is not None]
    certs += [w for r in reports for w in r.witnesses]
    return len(certs), sum(1 for c in certs if not pkg.replay_certificate(c))


def _sampled_call(pkg, name: str, seed: int):
    """One untraced call with the speed sampler running.

    Returns (outcome, {wall seconds less sampling, reference seconds,
    loop seconds, CPU over wall seconds of the sampled span, most threads
    seen, whether it was rescaled})."""
    with speed.Sampler() as sampler:
        out, wall, _ = workloads.run_workload(pkg, name, seed)
    return out, {
        "wall_s": wall - sum(sampler.samples),
        "ref_s": sampler.reference_seconds(wall),
        "loop_s": sampler.loop_seconds(),
        "cpu_wall": sampler.cpu_s / sampler.span_s,
        "threads": sampler.max_threads,
        "rescaled": sampler.rescalable(),
    }


def _evals(reports) -> int:
    return sum(r.subjects_checked + r.hypothesis_skipped for r in reports)


def run(name: str, seed: int, seconds: float, trace: bool, want: list[str]) -> dict:
    """Set up, run the closed loop and check every call against ``want``,
    the reference lines."""
    pkg, tables, classify = setup(name)
    setup_done = time.perf_counter()
    setup_loop_s = speed.median_loop_s()

    # closed loop, one caller: repeat the call while the next one is
    # expected to end within the run's time; always make at least one.
    # Each call is checked as soon as it ends and only its figures are
    # kept, so memory does not grow with the number of calls; the first
    # call's outcome is kept for the replay and the traced comparison.
    first = None
    calls = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        out, figures = _sampled_call(pkg, name, seed)
        attempted += len(want)
        failed += _mismatches(out.lines, want)
        figures["evals"] = _evals(out.reports)
        calls.append(figures)
        if first is None:
            first = out
        del out
        elapsed = time.perf_counter() - start
        if trace or elapsed + figures["wall_s"] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    replayed, bad = _replay_failures(pkg, first.reports)
    attempted += replayed
    failed += bad

    result = {
        "setup_done": setup_done,
        "setup_loop_s": setup_loop_s,
        **{key: [c[key] for c in calls] for key in calls[0]},
        "peak_rss_mb": peak_rss_mb,
        "digest": workloads.digest(first.lines),
    }
    if trace:
        # untraced calls on both sides of the traced one, so that a steady
        # drift in machine speed cancels out of the overhead
        tracer, traced, traced_s, outside_s = _traced_call(pkg, name, seed)
        after, after_figures = _sampled_call(pkg, name, seed)
        for out in (traced, after):
            attempted += len(first.lines)
            failed += _mismatches(out.lines, first.lines)
        s, n = tracer.self_s, tracer.calls
        cli_overhead = outside_s if name == "cli_library" else 0.0
        spec = workloads.spec_for(pkg, name, seed)
        result["layers"] = {
            "semigroups.enumerate_s": s["semigroups.enumerate"],
            "semigroups.classify_calls": classify["calls"],
            "semigroups.classify_s": classify["s"],
            "semigroups.accept_ratio": layers.accept_ratio(pkg, workloads.ORDERS[name]),
            "harness.subjects": tracer.subjects,
            # the suite's own self time, plus the benchmark's few
            # microseconds around it when no CLI is in between
            "harness.self_s": traced_s - cli_overhead - sum(
                v for k, v in s.items() if k != "harness.run_suite"),
            "harness.pair_calls": n["harness.pair"],
            "harness.pair_s": s["harness.pair"],
            "harness.replay_calls": n["harness.replay"],
            "harness.replay_s": s["harness.replay"],
            "harness.hypothesis_held_ratio": layers.hypothesis_held_ratio(first.reports),
            "predicates.check_calls": n["predicates.check"],
            "predicates.check_s": s["predicates.check"],
            "predicates.pattern_repeat_share": layers.pattern_repeat_share(
                pkg, name, spec, tables),
            "transforms.magnify_calls": n["transforms.magnify"],
            "transforms.magnify_s": s["transforms.magnify"],
            "composition.product_calls": n["composition.product"],
            "composition.product_s": s["composition.product"],
            "ifs.lattice_calls": n["ifs.lattice"],
            "ifs.lattice_s": s["ifs.lattice"],
            "cli.overhead_s": cli_overhead,
            "cli.output_bytes": traced.output_bytes,
            "trace.suite_s": traced_s,
            "trace.overhead_frac": traced_s / (
                (calls[0]["wall_s"] + after_figures["wall_s"]) / 2) - 1,
            **layers.microbenchmarks(pkg),
        }
    result["attempted"] = attempted
    result["failed"] = failed
    return result


def _traced_call(pkg, name, seed):
    """One workload call under the tracer: (tracer, outcome, wall, outside-span seconds)."""
    from ifsemigroups import cli, harness

    tracer = Tracer()
    tracer.install(harness, cli, pkg)
    try:
        out, wall, outside = workloads.run_workload(pkg, name, seed, tracer.timed)
    finally:
        tracer.remove()
    return tracer, out, wall, outside


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup(args.workload)
        result = {"setup_done": time.perf_counter(), "setup_loop_s": speed.median_loop_s()}
    else:
        want = json.load(sys.stdin)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), want)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
