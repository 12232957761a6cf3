"""Byte identity of ``hopfc contract`` beyond the benchmark's N=8: the
reports of the 4 cases and of ``Iplus.standard --then-basis-change``, and
the divergence message of ``II.standard --force-exponent a=1``, at N=4, 10
and 16, against the sha256 pins in ``contract_pins.json``.

A report is hashed without its ``timing`` field, as the benchmark does.
``python3 tests/test_contract_pins.py`` (with ``src`` on ``PYTHONPATH``)
prints the pins of the code under test; the file holds those of the code
before the contraction ran on packed keys (N=4 and 10) and before monomial
images were built only down to the eps powers that the slice reads
(N=16)."""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hopfc.cli import main

PINS = Path(__file__).resolve().parent / "contract_pins.json"

GRID = {
    f"{' '.join(argv)} --order {n}": list(argv) + ["--order", str(n), "--format", "json"]
    for n in (4, 10, 16)
    for argv in (("II.standard",), ("II.nonstandard",), ("Iplus.standard",),
                 ("Iplus.nonstandard",), ("Iplus.standard", "--then-basis-change"),
                 ("II.standard", "--force-exponent", "a=1"))
}


def pin(argv):
    """{"exit", "stdout", "stderr"}: the exit code and the sha256 of the
    report without ``timing`` and of the error output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["contract"] + argv)
    report = out.getvalue()
    if report.strip():
        report = json.loads(report)
        report.pop("timing")
        report = json.dumps(report, sort_keys=True)
    return {"exit": code,
            "stdout": hashlib.sha256(report.encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("key", sorted(GRID))
def test_contract_output_matches_its_pin(key):
    assert pin(GRID[key]) == json.loads(PINS.read_text())[key]


def test_the_grid_reaches_every_outcome():
    pins = json.loads(PINS.read_text())
    assert sorted(pins) == sorted(GRID)
    assert {p["exit"] for p in pins.values()} == {0, 3}


if __name__ == "__main__":
    print(json.dumps({k: pin(argv) for k, argv in sorted(GRID.items())}, indent=1))
