"""The full `ifsg check --all --machine` output, pinned byte for byte.

The recorded file covers all 17 theorems on the 9 enumerated tables of
order <= 2 and the 13 library tables (order 3 and 4 entries included), at
grid step 1/2 plus 8 seeded random subjects. Any change to a report, a
certificate or the summary line shows up here.
"""

from pathlib import Path

from ifsemigroups.cli import main

GOLDEN = Path(__file__).parent / "data" / "check_all_orders12_grid2_r8_s5.txt"
ARGV = ["check", "--all", "--orders", "1,2", "--grid-step", "1/2",
        "--random-count", "8", "--seed", "5", "--machine"]


def test_check_all_machine_output_matches_recording(capsys):
    assert main(ARGV) == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")
