"""`voronoi` reports compared byte for byte with checked-in output.

``data/voronoi_golden.json`` holds, for each named call, the argument list
and the exact stdout, stderr and exit code of the command-line program.  A
change that alters a report on purpose edits that file by hand.
"""
import json
from pathlib import Path

import pytest

from voronoi_cells.cli import main

CASES = json.loads(
    (Path(__file__).parent / "data" / "voronoi_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_is_byte_identical(case, capsys, monkeypatch):
    monkeypatch.delenv("VORONOI_BUDGET", raising=False)
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["exit"], case["stdout"], case["stderr"])
