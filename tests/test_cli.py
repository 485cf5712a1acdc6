"""CLI: suite running, exit codes, JSON reports, expression expansion."""

import json
import os
import subprocess
import sys
import time

import pytest

import nc_capelli
from nc_capelli import cli, identities


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_weyl(self, capsys):
        code, out, _ = run_cli(
            ["expand", "--context", "weyl", "dx11 * x11"], capsys)
        assert code == 0
        assert out.strip() == "x11*dx11 + 1"

    @pytest.mark.parametrize("text, expanded", [
        ("dx * x", "x*dx + 1"),
        ("delta * elta", "delta*elta"),
        ("elta * delta", "delta*elta"),
        ("delta * x", "delta*x"),
        ("dx^1500*x^2", "x^2*dx^1500 + 3000*x*dx^1499 + 2248500*dx^1498"),
    ])
    def test_weyl_derivative_names(self, capsys, text, expanded):
        """dX is a derivative only for a variable X of the expression
        named by a letter and an optional index; delta is a variable.
        A left derivative order may exceed the recursion limit."""
        code, out, _ = run_cli(["expand", "--context", "weyl", text], capsys)
        assert code == 0
        assert out.strip() == expanded

    def test_gl2(self, capsys):
        code, out, _ = run_cli(
            ["expand", "--context", "gl2", "E12*E21"], capsys)
        assert code == 0
        assert out.strip() == "E21*E12 + E11 - E22"

    def test_swap(self, capsys):
        code, out, _ = run_cli(
            ["expand", "--context", "swap", "psi_bar * psi"], capsys)
        assert code == 0
        assert out.strip() == "-psi*psi_bar"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(
            ["expand", "--context", "weyl", "x + + *"], capsys)
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("text, prefix", [
        pytest.param(text, prefix, id=text) for text, prefix in (
            ("x^99999999999", "parse error: "),
            ("(x*dx)^40000", "parse error: "),
            ("x^30000 * x^30000", "error: Weyl exponent above 32767"),
        )])
    def test_exponent_past_limit_exit_2(self, capsys, text, prefix):
        """An exponent past the Weyl field limit fails at once (a power
        raises before it multiplies) with one error line: a parse error
        for a literal exponent, an evaluation error for a product."""
        code, out, err = run_cli(["expand", "--context", "weyl", text],
                                 capsys)
        assert code == 2 and not out
        assert err.count("\n") == 1 and err.startswith(prefix)

    @pytest.mark.parametrize("context, text", [
        ("gl2", "E12^99999999999"),
        ("swap", "psi^99999999999"),
        ("weyl", "1^99999999999"),
    ])
    def test_huge_power_exit_2(self, capsys, context, text):
        """A power above EXP_LIMIT is refused before it multiplies, in
        every context."""
        t0 = time.monotonic()
        code, out, err = run_cli(["expand", "--context", context, text],
                                 capsys)
        assert code == 2 and not out
        assert err.count("\n") == 1 and err.startswith("parse error: ")
        assert time.monotonic() - t0 < 5

    @pytest.mark.parametrize("context, text", [
        ("weyl", "2^15000*x"),
        ("gl2", "2^15000*E12"),
        ("swap", "2^15000*psi"),
    ])
    def test_result_past_the_digit_limit_exit_2(self, capsys, context, text):
        """A value too long for Python's int-to-text conversion ends with
        one error line and exit 2, not a traceback."""
        code, out, err = run_cli(["expand", "--context", context, text],
                                 capsys)
        assert code == 2 and not out
        assert err == "error: the result holds a number too long to print\n"

    def test_power_at_limit(self, capsys):
        """A word power at EXP_LIMIT squares and multiplies, so it ends
        at once instead of rewriting ever longer words 32767 times."""
        t0 = time.monotonic()
        code, out, _ = run_cli(["expand", "--context", "gl2", "E12^32767"],
                               capsys)
        assert code == 0
        assert out.strip() == "E12^32767"
        assert time.monotonic() - t0 < 5

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("context, text, head", [
        ("swap", "psi^32767", b"psi*" * 5),
        ("weyl", "x", None),
    ], ids=["closed after 20 bytes", "closed before the start"])
    def test_reader_closing_early_exits_quietly(self, unbuffered, context,
                                                text, head):
        """``expand ... | head -c 20``: the command exits 1 with nothing
        on stderr (no BrokenPipeError), with standard output buffered
        (the default on a pipe) or not.  The 131 kB rendering of
        psi^32767 fills the pipe before the reader stops; the one line of
        ``x`` meets a pipe that no one reads, so a buffered run fails
        only when it flushes."""
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.path.dirname(
                       os.path.dirname(nc_capelli.__file__)))
        read_end, write_end = os.pipe()
        if head is None:
            os.close(read_end)
        proc = subprocess.Popen(
            [sys.executable, "-m", "nc_capelli.cli", "expand", "--context",
             context, text],
            stdout=write_end, stderr=subprocess.PIPE, env=env)
        os.close(write_end)
        if head is not None:
            with open(read_end, "rb") as reader:
                assert reader.read(len(head)) == head
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=30) == 1
        assert err == b""

    def test_deep_nesting_exit_2(self, capsys):
        text = "(" * 300 + "x" + ")" * 300
        code, _, err = run_cli(["expand", "--context", "weyl", text], capsys)
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("argv", [
        ["expand", "-x+y"],
        ["expand", "--context", "weyl", "-x+y"],
        ["expand", "-x+y", "--context", "weyl"],
        ["expand", "--", "-x+y"],
    ])
    def test_leading_minus(self, capsys, argv):
        """An expression that starts with "-" is not read as an option."""
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out.strip() == "-x + y"

    @pytest.mark.parametrize("argv", [
        ["expand"],
        ["expand", "--context", "weyl"],
        ["expand", "-x", "-y"],
        ["expand", "x", "-y"],
    ])
    def test_missing_or_extra_expression_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_long_sum(self, capsys):
        """A sum is parsed by a loop, not by recursion per term."""
        text = "+".join(["x"] * 2000)
        code, out, _ = run_cli(["expand", "--context", "weyl", text], capsys)
        assert code == 0
        assert out.strip() == "2000*x"


class TestRun:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(
            ["run", "--suite", "capelli.plain"], capsys)
        assert code == 0
        assert "2 reports, 0 failures" in out

    def test_unknown_id_exit_2(self, capsys):
        code, _, err = run_cli(["run", "--suite", "foo"], capsys)
        assert code == 2
        assert "unknown verifier ids" in err

    def test_bad_max_n_exit_2(self, capsys):
        code, _, err = run_cli(
            ["run", "--suite", "capelli.plain", "--max-n", "9"], capsys)
        assert code == 2

    def test_list(self, capsys):
        code, out, _ = run_cli(["run", "--list"], capsys)
        assert code == 0
        assert "capelli.plain" in out.split()

    def test_json_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["run", "--suite", "capelli.plain,center.hc",
             "--json", str(path)], capsys)
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["version"] == cli.VERSION
        assert payload["suite"] == ["capelli.plain", "center.hc"]
        assert "startedAt" in payload
        names = [r["identityName"] for r in payload["reports"]]
        assert names == sorted(names)
        for r in payload["reports"]:
            assert r["residualIsZero"] is True
            assert set(r) == {
                "identityName", "hostRing", "sizeParams", "residualIsZero",
                "residualRendering", "lhsTermCount", "rhsTermCount",
                "wallMillis", "conditional", "notes",
            }

    def test_deterministic_across_workers(self, tmp_path, capsys):
        paths = []
        for k, workers in enumerate(("1", "2")):
            path = tmp_path / f"r{k}.json"
            code, _, _ = run_cli(
                ["run", "--suite", "capelli.plain,factorization.local",
                 "--workers", workers, "--json", str(path)], capsys)
            assert code == 0
            paths.append(path)

        def normalize(path):
            payload = json.loads(path.read_text())
            payload.pop("startedAt")
            for r in payload["reports"]:
                r["wallMillis"] = 0
            return payload

        assert normalize(paths[0]) == normalize(paths[1])

    def test_reader_closing_early_keeps_json(self, tmp_path):
        """``run --json PATH | head -c 1`` with unbuffered output: the
        JSON file is written before the first progress line, so a reader
        that closes before it reads anything loses no report; the run
        exits 1 with nothing on stderr."""
        path = tmp_path / "r.json"
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.path.dirname(
                       os.path.dirname(nc_capelli.__file__)))
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.Popen(
            [sys.executable, "-m", "nc_capelli.cli", "run", "--suite",
             "capelli.plain,capelli.turnbull", "--workers", "1",
             "--json", str(path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env)
        os.close(write_end)
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""
        assert len(json.loads(path.read_text())["reports"]) == 4

    def test_signs_selection(self, capsys):
        code, out, _ = run_cli(
            ["run", "--suite", "factorization.local", "--signs", "plus"],
            capsys)
        assert code == 0
        assert "1 reports" in out


class TestReportRoundTrip:
    def test_schema_round_trip(self, tmp_path, capsys):
        from nc_capelli.identities import VerificationReport
        path = tmp_path / "r.json"
        run_cli(["run", "--suite", "capelli.plain", "--json", str(path)],
                capsys)
        payload = json.loads(path.read_text())
        for raw in payload["reports"]:
            report = VerificationReport(**raw)
            assert report.to_dict() == raw


def test_workers_below_one_exit_2(capsys):
    code, _, err = run_cli(["run", "--suite", "capelli.plain",
                            "--workers", "0"], capsys)
    assert code == 2
    assert "--workers must be >= 1" in err


def _fake_registry(monkeypatch, outcomes, calls=None):
    """Replace the registry by ids whose verifier passes ("ok"), fails
    ("fail"), fails a conditional report ("conditional") or raises
    ("raise"); each call appends its id to ``calls``."""
    def verifier(vid, outcome):
        def run(config):
            if calls is not None:
                calls.append(vid)
            if outcome == "raise":
                raise ValueError(f"{vid} exploded")
            return [identities.bool_report(
                vid, "test", {"n": 1}, outcome == "ok", time.monotonic(),
                conditional=outcome == "conditional")]
        return run
    monkeypatch.setattr(identities, "REGISTRY", {
        vid: verifier(vid, outcome) for vid, outcome in outcomes.items()})


def _reports(path):
    reports = json.loads(path.read_text())["reports"]
    for r in reports:
        r["wallMillis"] = 0
    return reports


def test_fail_fast_same_reports_across_workers(monkeypatch, tmp_path, capsys):
    _fake_registry(monkeypatch, {"a": "ok", "b": "fail", "c": "ok", "d": "ok"})
    runs = []
    for workers in ("1", "2"):
        path = tmp_path / f"w{workers}.json"
        code, out, _ = run_cli(
            ["run", "--fail-fast", "--workers", workers, "--json", str(path)],
            capsys)
        assert code == 1
        assert "2 reports, 1 failures" in out
        runs.append(_reports(path))
    assert runs[0] == runs[1]
    assert [r["identityName"] for r in runs[0]] == ["a", "b"]


@pytest.mark.parametrize("argv, code, flag", [
    ([], 0, "fail(conditional)"),
    (["--strict-conditional"], 1, "FAIL"),
])
def test_strict_conditional(monkeypatch, capsys, argv, code, flag):
    """A failing conditional report fails the run only under
    --strict-conditional."""
    _fake_registry(monkeypatch, {"a": "conditional"})
    got, out, _ = run_cli(["run", *argv], capsys)
    assert got == code
    assert f"[{flag}] a " in out
    assert f"1 reports, {code} failures" in out


def test_raising_verifier_is_a_failing_report(monkeypatch, tmp_path, capsys):
    _fake_registry(monkeypatch, {"a": "ok", "b": "raise"})
    path = tmp_path / "r.json"
    code, out, _ = run_cli(["run", "--json", str(path)], capsys)
    assert code == 1
    assert "2 reports, 1 failures" in out
    a, b = _reports(path)
    assert a["residualIsZero"] is True
    assert b["identityName"] == "b"
    assert b["residualIsZero"] is False
    assert b["residualRendering"] == "ValueError: b exploded"


def test_duplicate_suite_id_runs_once(monkeypatch, tmp_path, capsys):
    calls = []
    _fake_registry(monkeypatch, {"a": "ok", "b": "ok"}, calls)
    path = tmp_path / "r.json"
    code, out, _ = run_cli(
        ["run", "--suite", "b,a,b", "--json", str(path)], capsys)
    assert code == 0
    assert "2 reports, 0 failures" in out
    assert sorted(calls) == ["a", "b"]
    assert json.loads(path.read_text())["suite"] == ["b", "a"]


def test_unwritable_json_path_exit_2_before_any_verifier(
        monkeypatch, tmp_path, capsys):
    calls = []
    _fake_registry(monkeypatch, {"a": "ok"}, calls)
    path = tmp_path / "missing" / "r.json"
    code, _, err = run_cli(["run", "--json", str(path)], capsys)
    assert code == 2
    assert calls == []
    (line,) = err.strip().splitlines()
    assert line.startswith("error:") and str(path) in line


def test_import_leaves_out_multiprocessing():
    """Only a run with more than one worker loads the process pool, so
    importing the CLI does not import multiprocessing."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(nc_capelli.__file__)))
    code = ("import sys, nc_capelli.cli; "
            "assert 'multiprocessing' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
