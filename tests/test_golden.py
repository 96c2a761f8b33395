"""Every golden command writes the data files recorded in ``golden.json``.

``record_golden.py`` writes the table; this test only reads it. A digest may
change only in a commit that states why.
"""

import json

import pytest

from antlion.cli import EXIT_OK, main
from record_golden import GOLDEN, golden_commands, run

with open(GOLDEN) as fh:
    RECORDED = json.load(fh)


def test_table_covers_every_golden_command():
    assert sorted(RECORDED) == sorted(golden_commands())


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_data_files_match_digests(tmp_path, command):
    assert run(main, command, tmp_path / "out") == (EXIT_OK, RECORDED[command])
