"""The tracer accounts for all of a call's time and changes no output."""

import contextlib
import io

import ifsemigroups
from ifsemigroups import cli, harness

import workloads
from spans import SPANS, Tracer

ARGV = ["check", "--all", "--orders", "1,2", "--grid-step", "1",
        "--random-count", "4", "--seed", "3", "--machine"]


def _check(timer):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, wall, outside = timer(cli.main, ARGV)
    assert code == 0
    return buf.getvalue(), wall, outside


def test_self_times_sum_to_wall_and_output_is_unchanged():
    plain, _, _ = _check(workloads._plain_timer)
    tracer = Tracer()
    tracer.install(harness, cli, ifsemigroups)
    try:
        traced, wall, outside = _check(tracer.timed)
    finally:
        tracer.remove()
    assert traced == plain
    assert set(tracer.self_s) <= set(SPANS)
    assert abs(sum(tracer.self_s.values()) + outside - wall) < 1e-9
    assert tracer.calls["harness.run_suite"] == 1
    assert tracer.calls["harness.pair"] > 0
    assert tracer.subjects > 0
    # every wrapper is removed again
    assert cli.run_suite is harness.run_suite is ifsemigroups.run_suite
    assert harness.check is ifsemigroups.check
    assert harness.enumerate_semigroups is ifsemigroups.enumerate_semigroups
