"""What each cell of the low-precision grid prints and how it exits.

The grid, its one cached runner and the ledger
tests/data/low_precision.json live in tests/test_low_precision.py.  This
test pins each cell's exit code, stderr and the sha256 of its stdout, in
grid order; tests/test_precision_consistency.py pins its `lie` field.
Re-record with `PYTHONPATH=src python3 tests/test_low_precision.py --record`.
"""

import json

from test_low_precision import LEDGER, ledger


def printed(entry: dict) -> dict:
    """The entry without its `lie` field."""
    return {k: v for k, v in entry.items() if k != "lie"}


def test_low_precision_verdicts():
    recorded = json.loads(LEDGER.read_text())
    assert [entry["argv"] for entry in recorded] == [cell["argv"] for cell in ledger()]
    for entry, cell in zip(recorded, ledger()):
        assert printed(cell) == printed(entry)
