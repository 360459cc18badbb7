"""Where the low-precision grid lies: the `lie` field of the ledger.

A cell lies when it disagrees with its `-N 64` twin, as defined in
tests/test_low_precision.py, which also holds the grid, its one cached
runner and the ledger tests/data/low_precision.json.  Each test pins the
`lie` field, null or not, of every container cell (`log`, `mult`) or of
every verdict cell (`group`, `verify`), so a mended lie fails here as
surely as a new one.  Re-record with
`PYTHONPATH=src python3 tests/test_low_precision.py --record`.
"""

import json

from test_low_precision import LEDGER, VERDICTS, ledger


def lies(verdicts: bool) -> tuple:
    """({argv: lie} recorded, {argv: lie} computed) over the verdict cells,
    or over the container cells."""
    def pick(rows) -> dict:
        return {row["argv"]: row["lie"] for row in rows
                if (row["argv"].split()[2] in VERDICTS) == verdicts}
    return pick(json.loads(LEDGER.read_text())), pick(ledger())


def test_low_precision_containers_lie_only_where_listed():
    recorded, computed = lies(verdicts=False)
    assert computed == recorded


def test_low_precision_verdicts_differ_only_where_listed():
    recorded, computed = lies(verdicts=True)
    assert computed == recorded
