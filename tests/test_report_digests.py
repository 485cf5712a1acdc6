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
        "5ab73bd3e13d79dc559bb914d075d2b9204b3b4f61363bccfb5c2623a3b1e247"),
    "default": (
        ["run", "--workers", "1"], 90,
        "8ac02aced89756ab69ffeb8546c5652d9da4a3770ee3ef8ffd78feb3e6fbcec4"),
    "max-n 3": (
        ["run", "--max-n", "3", "--workers", "1"], 128,
        "56d0cefc858cb126e5e0132959c00c65a7f689c52795daccdf903add38cbe141"),
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
