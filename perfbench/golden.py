"""Reference outputs of every workload, recorded from the package's own output.

``golden.json.gz`` holds, for each workload and each seed in
``range(SEED_COUNT)``, the machine lines of the workload's output and their
sha256. Seed 0's lines are stored in full; every other seed stores only the
lines that differ from seed 0 at the same position.

The file in the repository was recorded at the commit that introduced this
benchmark, so a later change to the package is compared against that
commit's output. Re-record it only when a change is meant to alter the
reports, and say so in the change:

    python3 perfbench/golden.py

It records with one process per core and takes about a quarter of an hour
on two cores.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json.gz"
SEED_COUNT = 32


def load() -> dict:
    with gzip.open(GOLDEN_PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def expected_lines(golden: dict, workload: str, seed: int) -> list[str]:
    """The lines recorded for one workload and seed."""
    entry = golden["workloads"][workload]
    lines = list(entry["base"])
    rec = entry["seeds"][str(seed)]
    for pos, line in rec["changed"].items():
        lines[int(pos)] = line
    return lines


def _record(task: tuple[str, int]) -> tuple[str, int, list[str], str]:
    workload, seed = task
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import ifsemigroups
    import workloads

    out, _, _ = workloads.run_workload(ifsemigroups, workload, seed)
    return workload, seed, out.lines, workloads.digest(out.lines)


def record() -> dict:
    import multiprocessing

    sys.path.insert(0, str(HERE))
    import workloads

    tasks = [(w, s) for w in workloads.WORKLOADS for s in range(SEED_COUNT)]
    results: dict[str, dict[int, tuple[list[str], str]]] = {}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count()) as pool:
        for workload, seed, lines, sha in pool.imap_unordered(_record, tasks):
            results.setdefault(workload, {})[seed] = (lines, sha)
            print(f"recorded {workload} seed {seed}", file=sys.stderr, flush=True)
    out: dict = {"seed_count": SEED_COUNT, "workloads": {}}
    for workload, by_seed in results.items():
        base = by_seed[0][0]
        seeds = {}
        for seed, (lines, sha) in sorted(by_seed.items()):
            if len(lines) != len(base):
                raise RuntimeError(f"{workload} seed {seed}: line count differs from seed 0")
            changed = {str(i): l for i, (l, b) in enumerate(zip(lines, base)) if l != b}
            seeds[str(seed)] = {"sha256": sha, "changed": changed}
        out["workloads"][workload] = {"base": base, "seeds": seeds}
    return out


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    data = record()
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    with gzip.GzipFile(GOLDEN_PATH, "wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
