"""Report digests: the SHA-256 of the canonical report set of three fixed
runs, committed here, so that a change which alters any report (rather
than only its timing) fails until the digest is updated on purpose.

The canonical set is the ``reports`` list of ``run --json``, each report
without ``wallMillis``, serialized with sorted keys and no spaces; the
payload's ``startedAt`` is left out with everything else outside the
list.  A change that alters a report on purpose updates its digest here
(the failure message prints the new one) and says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from nc_capelli import cli

DIGESTS = {
    # the only run that reaches weyl.exact_divide at n = 4
    "cayley.scalar extended": (
        ["run", "--suite", "cayley.scalar", "--extended", "--workers", "1"], 4,
        "8503b591d3a1b8ae22f3bf9b4a62d110ba59ccfd0095e81e808b781c77287ae4"),
    "default": (
        ["run", "--workers", "1"], 90,
        "b7568c5cf734cd59782504948f15aca3f1c8faf7ed4303456c9c30c5995a3b77"),
    "max-n 3": (
        ["run", "--max-n", "3", "--workers", "1"], 128,
        "5bd24b9b034a865d55eb41f7352821c42b39b196a9c662f00ba520c94244236d"),
}


def report_digest(path):
    """(number of reports, SHA-256 of the canonical report set)."""
    reports = json.loads(path.read_text())["reports"]
    for r in reports:
        del r["wallMillis"]
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return len(reports), hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digest_unchanged(name, tmp_path, capsys):
    argv, count, digest = DIGESTS[name]
    path = tmp_path / "reports.json"
    assert cli.main([*argv, "--json", str(path)]) == 0
    capsys.readouterr()
    assert report_digest(path) == (count, digest)
