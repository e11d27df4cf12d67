"""The workload seed reaches the work, in every workload.

Runs every workload three times (two to three minutes in all):

    python3 -m pytest perfbench/tests/test_seed.py -q
"""

import pytest

import golden
import ifsemigroups
import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_digest_other_seed_other_digest(name):
    def run(seed):
        out, _, _ = workloads.run_workload(ifsemigroups, name, seed)
        return workloads.digest(out.lines)

    first, again, other = run(5), run(5), run(6)
    assert first == again
    assert first != other


def test_recorded_seeds_give_distinct_outputs():
    data = golden.load()
    for name in workloads.WORKLOADS:
        shas = [data["workloads"][name]["seeds"][str(s)]["sha256"]
                for s in range(golden.SEED_COUNT)]
        assert len(set(shas)) == golden.SEED_COUNT, name
