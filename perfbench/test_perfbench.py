"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from nc_capelli import identities  # noqa: E402


def _nonzero_report():
    return identities.VerificationReport(
        identityName="capelli.plain", hostRing="weyl(x11,d11)",
        sizeParams={"n": 1}, residualIsZero=False, residualRendering="x11",
        lhsTermCount=2, rhsTermCount=1, wallMillis=0)


def _raise():
    raise ZeroDivisionError("verifier raised")


def _finish(records):
    attempted, failed, correct, _ = checks.tally(records)
    round_ = {"wall_s": 1.0, "peak_rss_mb": 20.0, "traced": False,
              "attempted": attempted, "failed": failed, "correct": correct}
    return run.summarize([round_], 0.1, trace=0)


def test_nonzero_residual_and_raising_verifier_each_fail_once():
    records = workloads.execute([
        workloads.Verification("good", lambda: workloads._dicts(
            identities.verify_classical_capelli("plain", 1))),
        workloads.Verification("nonzero", lambda: [_nonzero_report().to_dict()]),
        workloads.Verification("raises", _raise),
    ])
    result = _finish(records)
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert not result["correct"]
    assert set(result["metrics"]) == set(run.declared_metrics()[0])


def test_suite_abort_fails_every_verifier_id(monkeypatch, tmp_path):
    good = lambda config: [identities.verify_classical_capelli("plain", 1)]
    monkeypatch.setattr(identities, "REGISTRY",
                        {"capelli.plain": good, "boom": lambda c: _raise()})
    items = workloads.suite_default(random.Random(0), str(tmp_path / "r.json"))
    result = _finish(workloads.execute(items))
    # two verifier ids fail with the run; the false identity still fails
    # as it must, so it counts as passed
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert result["correct"]
    assert set(result["metrics"]) == set(run.declared_metrics()[0])


def test_self_times_add_up_to_the_traced_time():
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        identities.verify_classical_capelli("plain", 2)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert layers["weyl.mul_calls"] > 0 and layers["matrixops.coldet_calls"] == 3
    root = tracer.total_s["identities.verify"]
    assert abs(sum(tracer.self_s.values()) + tracer.scalar_s - root) < 1e-6
    assert root <= wall
    # uninstall put the program's own functions back
    assert identities.verify_classical_capelli.__name__ == "verify_classical_capelli"
    assert "wrapper" not in repr(identities.REGISTRY["capelli.plain"])
