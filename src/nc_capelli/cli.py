"""Command-line front end: run verifier suites, emit JSON reports and
human-readable summaries, and expand expressions to canonical form.

Exit codes: 0 all selected verifiers pass; 1 residual failure;
2 configuration or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
import traceback
from fractions import Fraction

from . import __version__, identities, pbw, swapalg, weyl
from .scalars import G_I

VERSION = __version__


# ---------------------------------------------------------------------------
# Expression grammar for `expand`
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()])")
# In the weyl context, dX is the derivative of X when X is a variable
# named by one letter and an optional index (x, y2, x11) that the
# expression also uses; every other name (delta, dx alone) is a variable.
_DERIVATIVE_RE = re.compile(r"d([A-Za-z]\d*)")


def _tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad character at position {pos}: {text[pos]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over +, -, *, / (constants only), ^ and
    parentheses; names resolve through the context."""

    def __init__(self, tokens, resolve, ring):
        self.tokens = tokens
        self.pos = 0
        self.resolve = resolve
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected or 'token'}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        out = self.sum()
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.peek()!r}")
        return out

    def sum(self):
        if self.peek() == "-":
            self.take()
            out = -self.product()
        else:
            if self.peek() == "+":
                self.take()
            out = self.product()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                out = out + self.product()
            else:
                out = out - self.product()
        return out

    def product(self):
        out = self.power()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                out = out * self.power()
            else:
                den = self.take()
                if not den.isdigit() or int(den) == 0:
                    raise ValueError("division only by nonzero integers")
                out = out.scale(Fraction(1, int(den)))
        return out

    def power(self):
        base = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            exp = int(self.take())
            # a power squares and multiplies, but its words and
            # exponents still grow with exp, so every context shares the
            # Weyl field limit
            if exp > weyl.EXP_LIMIT:
                raise ValueError(f"exponent {exp} above {weyl.EXP_LIMIT}")
            base = base ** exp
        return base

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            out = self.sum()
            self.take(")")
            return out
        if tok is None:
            raise ValueError("unexpected end of input")
        self.take()
        if tok.isdigit():
            return self.ring.one.scale(int(tok))
        if tok == "i":
            return self.ring.one.scale(G_I)
        return self.resolve(tok)


def expand(context, text):
    """Parse ``text`` with the names of ``context`` ("weyl", "gl2" or
    "swap") and return its canonical form."""
    tokens = _tokenize(text)
    if context == "weyl":
        known = {t for t in tokens if t[:1].isalpha() and t != "i"}
        derivs = {t: m[1] for t in known
                  if (m := _DERIVATIVE_RE.fullmatch(t)) and m[1] in known}
        gens = weyl.GeneratorSet(sorted(known - derivs.keys()))
        ring = weyl.weyl_ring(gens)

        def element(tok):
            if tok in derivs:
                return weyl.WeylElement.derivative(gens, derivs[tok])
            return weyl.WeylElement.variable(gens, tok)
    elif context in ("gl2", "swap"):
        table = pbw.build_gln(2) if context == "gl2" else swapalg.psi_phi_table()
        ring = table.ring()
        known, element = table.index, table.letter
    else:
        raise ValueError(f"unknown context {context!r}")

    def resolve(tok):
        if tok not in known:
            raise ValueError(f"unknown name {tok!r}")
        return element(tok)

    return _Parser(tokens, resolve, ring).parse()


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

def _run_one(args):
    """Run one verifier id.  A verifier that raises gives one failing
    report for the id, so the run still ends with a verdict and a JSON
    file."""
    verifier_id, config = args
    t0 = time.monotonic()
    try:
        reports = identities.REGISTRY[verifier_id](config)
    except Exception as e:
        reports = [identities.bool_report(
            verifier_id, "", {}, False, t0,
            detail=f"{type(e).__name__}: {e}",
            notes={"traceback": traceback.format_exc()},
        )]
    return verifier_id, [r.to_dict() for r in reports]


def _report_sort_key(d):
    return (d["identityName"], json.dumps(d["sizeParams"], sort_keys=True))


def run_suite(selection, config, workers=1, fail_fast=False,
              strict_conditional=False):
    """Run the selected verifiers (ids of identities.REGISTRY); returns
    (exit_code, report_dicts, lines), the lines being one progress line
    per report and a summary for the caller to print.  With fail_fast
    the run stops after the first id (in sorted order) with a hard
    failure, whatever the number of workers."""
    def hard_fail(r):
        return not r["residualIsZero"] and (strict_conditional or not r["conditional"])

    jobs = [(vid, config) for vid in sorted(selection)]
    results = {}
    pool = None
    if workers > 1:  # multiprocessing costs every import; load it only here
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for vid, reports in (pool.map if pool else map)(_run_one, jobs):
            results[vid] = reports
            if fail_fast and any(map(hard_fail, reports)):
                break
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    reports = sorted(
        (r for rs in results.values() for r in rs), key=_report_sort_key
    )
    lines, failed = [], 0
    for r in reports:
        flag = "ok" if r["residualIsZero"] else (
            "FAIL" if hard_fail(r) else "fail(conditional)")
        failed += hard_fail(r)
        params = json.dumps(r["sizeParams"], sort_keys=True)
        lines.append(f"  [{flag:>4}] {r['identityName']} {params} "
                     f"({r['wallMillis']} ms)")
    lines.append(f"{len(reports)} reports, {failed} failures")
    return (1 if failed else 0), reports, lines


def main(argv=None):
    try:  # `... | head` ends quietly, per SIGPIPE in the Python signal docs
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:  # devnull takes stdout's place for the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _main(argv):
    parser = argparse.ArgumentParser(
        prog="nc-capelli",
        description="Exact verification of noncommutative determinant identities.",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run verifier suites")
    runp.add_argument("--suite", default="all",
                      help="comma-separated verifier ids, or 'all'")
    runp.add_argument("--max-n", type=int, default=None, dest="max_n")
    runp.add_argument("--signs", choices=("plus", "minus", "both"),
                      default="both")
    runp.add_argument("--json", dest="json_path", default=None)
    runp.add_argument("--extended", action="store_true")
    runp.add_argument("--strict-conditional", action="store_true")
    runp.add_argument("--fail-fast", action="store_true")
    runp.add_argument("--workers", type=int, default=1)
    runp.add_argument("--list", action="store_true",
                      help="list verifier ids and exit")

    expp = sub.add_parser("expand", help="expand an expression")
    expp.add_argument("--context", choices=("weyl", "gl2", "swap"),
                      default="weyl")
    expp.add_argument("expression", nargs="?")

    args, extra = parser.parse_known_args(argv)
    if args.command == "expand" and args.expression is None and len(extra) == 1:
        # an expression such as "-x+y" reads as an unknown option; one
        # leftover word is the expression
        (args.expression,) = extra
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    elif args.command == "expand" and args.expression is None:
        expp.error("the following arguments are required: expression")

    if args.command == "expand":
        try:
            element = expand(args.context, args.expression)
        # RecursionError: nested too deep; OverflowError: an exponent
        # past the Weyl field limit
        except (ValueError, RecursionError, OverflowError) as e:
            print(f"parse error: {e}", file=sys.stderr)
            return 2
        try:
            text = element.render()
        except ValueError:  # an int past Python's int-to-text digit limit
            print("error: the result holds a number too long to print",
                  file=sys.stderr)
            return 2
        print(text)
        return 0

    if args.list:
        for vid in sorted(identities.REGISTRY):
            print(vid)
        return 0

    if args.suite == "all":
        selection = sorted(identities.REGISTRY)
    else:
        # an id named twice runs and is listed once, in first-seen order
        selection = list(dict.fromkeys(
            v.strip() for v in args.suite.split(",") if v.strip()))
        if not selection:
            print("error: empty suite selection", file=sys.stderr)
            return 2
        unknown = [v for v in selection if v not in identities.REGISTRY]
        if unknown:
            print(f"error: unknown verifier ids: {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    max_n = args.max_n if args.max_n is not None else (3 if args.extended else 2)
    if max_n < 1 or max_n > 3:
        print("error: --max-n must be between 1 and 3", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2

    if args.json_path:
        try:  # fail before the run; "a" keeps an existing file intact
            open(args.json_path, "a").close()
        except OSError as e:
            print(f"error: cannot write --json {args.json_path}: {e.strerror}",
                  file=sys.stderr)
            return 2

    config = {"max_n": max_n, "signs": args.signs, "extended": args.extended}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    code, reports, lines = run_suite(
        selection, config, workers=args.workers, fail_fast=args.fail_fast,
        strict_conditional=args.strict_conditional,
    )

    if args.json_path:
        payload = {
            "version": VERSION,
            "suite": selection,
            "startedAt": started,
            "reports": reports,
        }
        with open(args.json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    # printed after the JSON is saved, since the reader may close early
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
