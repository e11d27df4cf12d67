"""Theorem-sweep benchmark of the ifsemigroups package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 0

Workloads: ``sweep``, ``pairs``, ``cli_library`` (see ``workloads.py`` for
what each stresses and why). Each is a closed loop with one caller, in one
process, on one thread. The package is imported from ``src/`` of the
checkout; nothing is installed or built.

A run starts ``SETUP_RUNS`` fresh interpreters that only set up, then one
worker that sets up, calls the workload while the next call is expected to
end within ``--seconds`` (at least once), and checks every output against
the recorded reference (``golden.py``) and by replaying every certificate
and witness. With ``--trace 1`` the worker makes a traced call between two
untraced ones and reports the per-layer figures instead.

End-to-end metrics (``--trace 0``), each a median over the run's samples:

- ``setup_s``: process start until the package is imported, the workload's
  tables are enumerated and classified and the library is built;
- ``suite_s``: the workload call (``run_suite`` or ``cli.main``);
- ``evals_per_s``: sum of subjects checked and skipped over the reports,
  per second of ``suite_s``;
- ``peak_rss_mb``: peak resident memory of the worker;
- ``match_frac``: share of checked items that matched (1 - mismatches /
  attempted); the items are the output lines, compared with the reference,
  and the certificates and witnesses, replayed.

Times are in seconds at a reference machine speed (``speed.py``); the raw
wall seconds are in the context line, and so is, per call, the ratio of
the worker's CPU time to its wall time, its most threads, and whether the
call was rescaled.

stdout: one ``{"context": ...}`` line with the run context, then the
result line ``{"correct", "attempted", "failed", "metrics"}``.

The reference outputs exist for ``golden.SEED_COUNT`` seeds, so the
workload seed is ``--seed`` modulo that count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "ifsemigroups"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
import golden  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
DEADLINE_S = 170  # a run must end within 180 s


def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def package_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _worker(args: list[str], deadline: float, stdin: str = "") -> tuple[dict, float]:
    """Start a worker; return (its result, perf_counter at its start)."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, input=stdin, capture_output=True, text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def declared_units(kind: str) -> dict[str, str]:
    """{metric name: unit} of one metric list in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="theorem-sweep benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    if not golden.GOLDEN_PATH.is_file():
        print(f"error: reference outputs not found at {golden.GOLDEN_PATH}", file=sys.stderr)
        return 2

    seed = args.seed % golden.SEED_COUNT
    load_before = os.getloadavg()
    calib_before = speed.median_loop_s()

    setup_wall_s, setup_s = [], []
    for _ in range(SETUP_RUNS):
        res, started = _worker(["--workload", args.workload, "--setup-only"], deadline)
        setup_wall_s.append(res["setup_done"] - started)
        setup_s.append(speed.rescale(setup_wall_s[-1], res["setup_loop_s"]))
    want = golden.expected_lines(golden.load(), args.workload, seed)
    res, started = _worker(
        ["--workload", args.workload, "--seed", str(seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline, json.dumps(want),
    )
    setup_wall_s.append(res["setup_done"] - started)
    setup_s.append(speed.rescale(setup_wall_s[-1], res["setup_loop_s"]))

    calib_after = speed.median_loop_s()
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "package_sha256": package_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "calib_before_s": calib_before,
        "calib_after_s": calib_after,
        "setup_wall_s": setup_wall_s,
        "setup_s": setup_s,
        "suite_wall_s": res["wall_s"],
        "suite_s": res["ref_s"],
        "suite_loop_s": res["loop_s"],
        "suite_cpu_wall": res["cpu_wall"],
        "suite_threads": res["threads"],
        "suite_rescaled": res["rescaled"],
        "digest": res["digest"],
    }
    print(json.dumps({"context": context}))

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        values = dict(res["layers"])
        values["machine.calib_s"] = (calib_before + calib_after) / 2
        units = declared_units("per_layer")
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "suite_s": statistics.median(res["ref_s"]),
            "evals_per_s": statistics.median(
                e / s for e, s in zip(res["evals"], res["ref_s"])),
            "peak_rss_mb": res["peak_rss_mb"],
            "match_frac": 1 - failed / attempted,
        }
        units = declared_units("end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json's {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
