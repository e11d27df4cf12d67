"""Per-layer spans recorded from outside the package.

The tracer replaces module attributes that ``harness`` and ``cli`` look up
at call time with timing wrappers, and puts the originals back afterwards.
Nothing in the package changes. Every span records its self time: its wall
time minus the time of the wrapped calls made inside it. The self times of
all spans, plus the untraced remainder of the root call, add up to the
root call's wall time.

Spans, by layer (the module that defines the wrapped function):

- ``semigroups.enumerate``: each step of ``enumerate_semigroups``.
- ``predicates.check``: ``check``.
- ``transforms.magnify``: ``magnify``.
- ``composition.product``: ``if_product``.
- ``ifs.lattice``: ``intersect``, ``ifs_leq`` and ``ifs_eq``.
- ``harness.pair``: ``check_semiprime_intersection``,
  ``check_product_inclusions`` and ``check_regular_iff_product``;
  ``harness.replay``: ``replay_certificate``.
- ``harness.run_suite``: the suite call itself, so its self time is the
  sweep kernel plus the harness's bookkeeping.

``sample_ifs`` is wrapped to count the subjects it yields (``harness.subjects``)
without a span, so its time stays in the harness's self time. ``classify`` is
not wrapped: inside the suite it only reads its cache, which set-up filled, so
its lookups stay in the harness's self time too; the worker times the real
``classify`` calls in set-up instead.
"""

from __future__ import annotations

import time
from collections import defaultdict

_HARNESS_SPANS = {
    "enumerate_semigroups": "semigroups.enumerate",
    "check": "predicates.check",
    "magnify": "transforms.magnify",
    "if_product": "composition.product",
    "intersect": "ifs.lattice",
    "ifs_leq": "ifs.lattice",
    "ifs_eq": "ifs.lattice",
    "check_semiprime_intersection": "harness.pair",
    "check_product_inclusions": "harness.pair",
    "check_regular_iff_product": "harness.pair",
    "replay_certificate": "harness.replay",
}
_GENERATORS = {"enumerate_semigroups"}

SPANS = tuple(dict.fromkeys(_HARNESS_SPANS.values())) + ("harness.run_suite",)


class Tracer:
    """Installs the wrappers on ``install`` and removes them on ``remove``."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.subjects = 0
        # child-time accumulators of the open spans; the bottom one is the root
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    def install(self, harness, cli, package) -> None:
        for attr, span in _HARNESS_SPANS.items():
            wrap = self._generator if attr in _GENERATORS else self._function
            self._patch(harness, attr, wrap(getattr(harness, attr), span))
        self._patch(harness, "sample_ifs", self._counter(harness.sample_ifs))
        self._patch(cli, "run_suite", self._function(cli.run_suite, "harness.run_suite"))
        self._patch(package, "run_suite",
                    self._function(package.run_suite, "harness.run_suite"))

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def timed(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span; return (result, wall seconds, root self seconds)."""
        if len(self._stack) != 1:
            raise RuntimeError("timed() called inside an open span")
        self._stack[0] = 0.0
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        return result, wall, wall - self._stack[0]

    def _patch(self, module, attr, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _function(self, inner, span):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[span] += dt - stack.pop()
                calls[span] += 1
                stack[-1] += dt

        return wrapper

    def _generator(self, inner, span):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            it = iter(inner(*args, **kwargs))
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    self_s[span] += dt - stack.pop()
                    stack[-1] += dt
                calls[span] += 1
                yield item

        return wrapper

    def _counter(self, inner):
        def wrapper(*args, **kwargs):
            for item in inner(*args, **kwargs):
                self.subjects += 1
                yield item

        return wrapper
