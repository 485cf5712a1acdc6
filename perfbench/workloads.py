"""The benchmark's workloads: each is a closed loop of verifications run
one after another by a single caller.

A workload is a list of ``Verification`` items.  Running one item gives a
record: the report dicts it produced, or the error it raised.  The seed
fixes the order of the rectangular verifications and picks the instance
of each workload's false identity; the identities themselves are fixed (the
oracle verifiers inside the default suite use their built-in seeds).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from nc_capelli import cli, identities
from nc_capelli import matrixops as mo
from nc_capelli.scalars import Coefficient


@dataclass
class Verification:
    label: str
    run: Callable[[], list]  # returns a list of report dicts
    # "zero": a true identity; "nonzero": a false one that must fail
    expect: str = "zero"
    # verifications counted as failed when ``run`` raises
    weight: int = 1


def execute(verifications):
    """Run every verification in order; one record per item.  An
    exception is recorded, not raised, so the loop always reaches its
    end."""
    records = []
    for v in verifications:
        try:
            reports = v.run()
        except Exception as e:  # the benchmark counts it and carries on
            records.append({"label": v.label, "expect": v.expect,
                            "error": f"{type(e).__name__}: {e}",
                            "weight": v.weight})
        else:
            records.append({"label": v.label, "expect": v.expect,
                            "reports": reports})
    return records


def _dicts(report):
    return [report.to_dict()]


@contextlib.contextmanager
def _patched(module, name, value):
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


# ---------------------------------------------------------------------------
# False identities: each must come out with a nonzero residual
# ---------------------------------------------------------------------------

def _unshifted_capelli(kind):
    """coldet(Z D^t) = det(Z) det(D^t) without diag(n-1, ..., 0)."""
    zero_shifts = lambda n: [Coefficient.zero()] * n
    with _patched(identities, "capelli_shifts", zero_shifts):
        return _dicts(identities.verify_classical_capelli(kind, 2))


def _rect_shift_off_by_one(kind, i):
    """The r = 1 rectangular identity at I = J = (i,) with the Capelli
    shift 0 replaced by 1."""
    real = identities.capelli_shifts
    shifted = lambda n: [s + Coefficient.one() for s in real(n)]
    with _patched(identities, "capelli_shifts", shifted):
        return _dicts(identities.verify_rectangular(kind, 3, (i,), (i,)))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _cli_suite(json_path):
    """``nc-capelli run --workers 1 --json PATH`` on the default suite.
    An exception, a nonzero exit code or a missing JSON file fails the
    whole run (see the weight given in ``suite_default``)."""
    if os.path.exists(json_path):
        os.remove(json_path)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--workers", "1", "--json", json_path])
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    with open(json_path) as fh:
        reports = json.load(fh)["reports"]
    os.remove(json_path)
    return reports


def suite_default(rng, json_path):
    kind = rng.choice(("plain", "turnbull"))
    return [
        Verification("cli run", lambda: _cli_suite(json_path),
                     weight=len(identities.REGISTRY)),
        Verification(f"unshifted capelli.{kind} n=2",
                     lambda: _unshifted_capelli(kind), expect="nonzero"),
    ]


def rect_n3(rng):
    items = []
    for kind in ("capelli", "turnbull"):
        for r in (1, 2):
            for I in mo.multi_indexes(3, r):
                for J in mo.multi_indexes(3, r):
                    items.append(Verification(
                        f"rect.{kind} n=3 I={I} J={J}",
                        lambda k=kind, I=I, J=J: _dicts(
                            identities.verify_rectangular(k, 3, I, J))))
    rng.shuffle(items)
    kind, i = rng.choice(("capelli", "turnbull")), rng.randint(1, 3)
    items.append(Verification(
        f"rect.{kind} n=3 I=J=({i},) shift off by one",
        lambda: _rect_shift_off_by_one(kind, i), expect="nonzero"))
    return items


def build(workload, seed, json_path):
    """The verifications of one round of ``workload``."""
    rng = random.Random(seed)
    if workload == "suite-default":
        return suite_default(rng, json_path)
    if workload == "rect-n3":
        return rect_n3(rng)
    raise ValueError(f"unknown workload {workload!r}")
