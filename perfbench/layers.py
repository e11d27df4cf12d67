"""Per-layer figures that need no tracing: fixed-input microbenchmarks and
counters of waste and redundancy, all through the package's public API."""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import workloads

# a microbenchmark repeats its pass until both floors are reached and
# reports the median pass
_MIN_PASSES = 5
_MIN_SECONDS = 0.25


def _per_call_us(one_pass, calls_per_pass: int) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < _MIN_PASSES or time.perf_counter() - start < _MIN_SECONDS:
        t0 = time.perf_counter()
        one_pass()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / calls_per_pass * 1e6


def _fixed_subjects(pkg, n: int) -> list:
    """Every 128th grid subject at step 1/4, then 16 randoms of a fixed seed."""
    subjects = list(pkg.sample_ifs(n, pkg.SampleSpec(random_count=16, seed=0)))
    return subjects[:-16:128] + subjects[-16:]


def microbenchmarks(pkg) -> dict[str, float]:
    """Microseconds per call of four public layer functions on fixed inputs."""
    tables = {n: list(pkg.enumerate_semigroups(n)) for n in (1, 2, 3)}
    order3 = tables[3]
    subjects = _fixed_subjects(pkg, 3)
    pairs = list(zip(subjects, subjects[1:] + subjects[:1]))

    def profiles():
        for S in order3:
            for A in subjects:
                pkg.profile(S, A)

    def products():
        for S in order3:
            for A, B in pairs:
                pkg.if_product(S, A, B)

    # criterion 1's worked example
    worked = pkg.validate_ifs(3, ["0.3", "0.1", "0.5"], ["0.4", "0.25", "0.3"])
    params = pkg.TransformParams(Fraction(1, 5), Fraction(1, 25))

    def magnifies():
        for _ in range(2000):
            pkg.magnify(worked, params)

    # classify is memoised; time the decision itself, not the cache lookup
    classify = getattr(pkg.classify, "__wrapped__", pkg.classify)
    every_table = [S for n in (1, 2, 3) for S in tables[n]]

    def classifies():
        for S in every_table:
            classify(S)

    return {
        "predicates.profile_us": _per_call_us(profiles, len(order3) * len(subjects)),
        "composition.product_us": _per_call_us(products, len(order3) * len(pairs)),
        "transforms.magnify_us": _per_call_us(magnifies, 2000),
        "semigroups.classify_us": _per_call_us(classifies, len(every_table)),
    }


def _weak_order(values) -> tuple[int, ...]:
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(rank[v] for v in values)


def _pattern(pkg, A) -> tuple:
    return (
        _weak_order(A.mu),
        _weak_order(A.nu),
        not any(A.mu),
        pkg.max_alpha(A, Fraction(1)) == 0,
    )


def pattern_repeat_share(pkg, name: str, spec, tables: dict[int, list]) -> float:
    """Share of single-subject evaluations whose pattern a table already saw.

    Every table of one carrier order sweeps the same subject stream, so the
    share is counted once per order and weighted by the order's table count.
    A subject's evaluations are its own profile and, when the workload builds
    them, the profiles of its magnified variants.
    """
    evaluations = repeats = 0
    for n, group in tables.items():
        seen: set = set()
        evals = reps = 0
        for A in pkg.sample_ifs(n, spec):
            subjects = [A]
            if workloads.uses_variants(name):
                for beta in spec.beta_grid:
                    for alpha in pkg.alpha_samples(A, beta, spec.alpha_strategy):
                        subjects.append(pkg.magnify(A, pkg.TransformParams(beta, alpha)))
            for B in subjects:
                key = _pattern(pkg, B)
                evals += 1
                if key in seen:
                    reps += 1
                else:
                    seen.add(key)
        evaluations += evals * len(group)
        repeats += reps * len(group)
    return repeats / evaluations


def accept_ratio(pkg, orders) -> float:
    """Associative tables over the n**(n*n) candidate tables the enumerator tries."""
    accepted = sum(sum(1 for _ in pkg.enumerate_semigroups(n)) for n in orders)
    return accepted / sum(n ** (n * n) for n in orders)


def hypothesis_held_ratio(reports) -> float:
    checked = sum(r.subjects_checked for r in reports)
    return checked / sum(r.subjects_checked + r.hypothesis_skipped for r in reports)
