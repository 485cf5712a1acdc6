"""Tracing from outside the program: wrap the public functions of each
module, record one span per call and derive the per-layer metrics.

A span is (name, start, end, parent).  Spans live in flat arrays while
the round runs and are written out when it ends.  The scalar layer is
the exception: its operations run millions of times per round,
so each call into it from another layer adds its duration to the
enclosing span's child time and to a per-layer total instead of being
stored.  A span's self time is its duration minus the time of its
children (child spans and scalar calls); it is summed per metric group
as spans close.
"""

from __future__ import annotations

import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter

from nc_capelli import cayley, cli, identities, matrixops, pbw, scalars
from nc_capelli import swapalg, weyl

_ELEMENT_OPS = ("__add__", "__sub__", "__neg__", "scale", "bar", "__pow__")


def _targets():
    """(owner, attribute, metric group) for every wrapped function."""
    out = []
    for cls in (scalars.GaussianRational, scalars.Coefficient):
        for attr in ("__add__", "__sub__", "__mul__", "__neg__", "__pow__",
                     "inverse", "__truediv__", "conjugate", "bar"):
            if attr in vars(cls):
                out.append((cls, attr, "scalars"))
    W = weyl.WeylElement
    out += [(W, "__mul__", "weyl.mul"), (W, "apply", "weyl.apply"),
            (weyl, "exact_divide", "weyl.exact_divide")]
    out += [(W, a, "weyl.other") for a in _ELEMENT_OPS]
    out += [(weyl, "wick", "weyl.other")]
    out += [(pbw.PbwElement, "__mul__", "pbw.mul"),
            (pbw.LieAlgebraSpec, "straighten", "pbw.straighten"),
            (pbw, "hc_projection", "pbw.other"),
            (pbw, "is_central", "pbw.other")]
    out += [(pbw.PbwElement, a, "pbw.other") for a in _ELEMENT_OPS]
    out += [(swapalg.SwapElement, "__mul__", "swapalg.mul"),
            (swapalg.ExteriorElement, "__mul__", "swapalg.ext_mul"),
            (swapalg.SwapTable, "normalize", "swapalg.normalize"),
            (swapalg, "psi_M", "swapalg.other"),
            (swapalg, "check_holfactpsi", "swapalg.other"),
            (swapalg, "check_coronfact", "swapalg.other")]
    out += [(swapalg.SwapElement, a, "swapalg.other") for a in _ELEMENT_OPS]
    out += [(swapalg.ExteriorElement, a, "swapalg.other")
            for a in ("__add__", "__sub__", "__neg__", "scale")]
    for name in ("coldet", "coldet_laplace", "matmul", "decomplexify"):
        out.append((matrixops, name, f"matrixops.{name}"))
    for name in ("transpose", "submatrix", "corr_tridiag", "diag",
                 "identity"):
        out.append((matrixops, name, "matrixops.other"))
    out += [(matrixops.RingMatrix, a, "matrixops.other")
            for a in ("__add__", "__sub__")]
    for name, fn in vars(identities).items():
        if not inspect.isfunction(fn) or fn.__module__ != identities.__name__:
            continue
        if name.startswith("verify_"):
            out.append((identities, name, "identities.verify"))
        elif name.startswith("check_") or name == "operator_action_oracle":
            out.append((identities, name, "identities.check"))
        elif name in ("classical_weyl", "complex_weyl", "gln_E_matrix",
                      "css_instance", "main_theorem_instances"):
            out.append((identities, name, "identities.build"))
    for name in ("cayley_scalar", "cayley_decomplexified",
                 "cayley_quaternion"):
        out.append((cayley, name, "cayley.step"))
    out.append((cayley, "interpolate", "cayley.interpolate"))
    for name in ("verify_cayley_scalar", "verify_cayley_decomplexified",
                 "verify_cayley_quaternion", "radial_identity",
                 "quaternion_commutation_check"):
        out.append((cayley, name, "cayley.verify"))
    out += [(cli, "main", "cli.main"), (cli, "run_suite", "cli.run_suite")]
    return out


def _label(owner, attr):
    if inspect.ismodule(owner):
        return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
    return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"


class Tracer:
    """Records spans and per-group totals for one traced round."""

    def __init__(self):
        self.names = []
        self.groups = []
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        # parallel stacks: open span index, child time accumulated so far
        self._open = [-1]
        self._child = [0.0]
        self._depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)  # outermost spans of the group
        self.max_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.scalar_s = 0.0
        self._in_scalar = False
        self.memo_owners = {}
        self._saved = []
        self._saved_registry = {}

    # --- wrapping -------------------------------------------------------

    def install(self):
        for owner, attr, group in _targets():
            fn = getattr(owner, attr)
            if group == "scalars":
                wrapper = self._scalar_wrapper(fn, _label(owner, attr))
            else:
                wrapper = self._span_wrapper(fn, _label(owner, attr), group)
            self._saved.append((owner, attr, inspect.getattr_static(owner, attr)))
            setattr(owner, attr, wrapper)
        # the registry holds the verifier functions themselves
        self._saved_registry.update(identities.REGISTRY)
        for vid, fn in self._saved_registry.items():
            identities.REGISTRY[vid] = self._span_wrapper(
                fn, f"registry.{vid}", "identities.registry")

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        identities.REGISTRY.update(self._saved_registry)

    def _scalar_wrapper(self, fn, label):
        counts = self.counts
        child = self._child
        tracer = self

        def wrapper(*args):
            counts[label] += 1
            if tracer._in_scalar:
                return fn(*args)
            tracer._in_scalar = True
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                tracer._in_scalar = False
                child[-1] += dt
                tracer.scalar_s += dt
        return wrapper

    def _span_wrapper(self, fn, label, group):
        nid = len(self.names)
        self.names.append(label)
        self.groups.append(group)
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        opened, child, depth = self._open, self._child, self._depth
        calls, self_s, total_s, max_s = (self.calls, self.self_s,
                                         self.total_s, self.max_s)
        measure = _MEASURES.get(group)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(opened[-1])
            span_end.append(0.0)
            opened.append(idx)
            child.append(0.0)
            depth[group] += 1
            start = perf_counter()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span_end[idx] = end
                opened.pop()
                dur = end - start
                self_s[group] += dur - child.pop()
                child[-1] += dur
                depth[group] -= 1
                calls[group] += 1
                if not depth[group]:
                    total_s[group] += dur
                if dur > max_s[group]:
                    max_s[group] = dur
            if measure is not None:
                measure(tracer, args, result)
            return result
        return wrapper

    # --- results --------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of the round, keyed by metric name."""
        c, sf, tot, mx = self.calls, self.self_s, self.total_s, self.max_s
        n = self.counts

        def ratio(hits, calls):
            return hits / calls if calls else 0.0

        pbw_memo = sum(len(o._memo) for o in self._owners(pbw.LieAlgebraSpec))
        swap_memo = sum(len(o._memo) for o in self._owners(swapalg.SwapTable))
        return {
            "scalars.gauss_mul_calls": n["scalars.GaussianRational.__mul__"],
            "scalars.coeff_mul_calls": n["scalars.Coefficient.__mul__"],
            "scalars.self_s": self.scalar_s,
            "weyl.mul_calls": c["weyl.mul"],
            "weyl.mul_term_pairs": n["weyl.mul_term_pairs"],
            "weyl.max_terms": n["weyl.max_terms"],
            "weyl.mul_self_s": sf["weyl.mul"],
            "weyl.apply_calls": c["weyl.apply"],
            "weyl.apply_term_pairs": n["weyl.apply_term_pairs"],
            "weyl.apply_self_s": sf["weyl.apply"],
            "weyl.exact_divide_self_s": sf["weyl.exact_divide"],
            "pbw.mul_calls": c["pbw.mul"],
            "pbw.straighten_calls": c["pbw.straighten"],
            "pbw.memo_entries": pbw_memo,
            # every miss stores exactly one memo entry
            "pbw.straighten_hit_ratio": ratio(
                c["pbw.straighten"] - pbw_memo, c["pbw.straighten"]),
            "pbw.mul_self_s": sf["pbw.mul"],
            "swapalg.mul_calls": c["swapalg.mul"],
            "swapalg.ext_mul_calls": c["swapalg.ext_mul"],
            "swapalg.memo_entries": swap_memo,
            "swapalg.normalize_hit_ratio": ratio(
                c["swapalg.normalize"] - swap_memo, c["swapalg.normalize"]),
            "swapalg.mul_self_s": sf["swapalg.mul"],
            "swapalg.ext_mul_self_s": sf["swapalg.ext_mul"],
            "matrixops.coldet_calls": c["matrixops.coldet"],
            "matrixops.max_det_terms": n["matrixops.max_det_terms"],
            "matrixops.coldet_self_s": sf["matrixops.coldet"],
            "matrixops.coldet_laplace_self_s": sf["matrixops.coldet_laplace"],
            "matrixops.matmul_self_s": sf["matrixops.matmul"],
            "matrixops.decomplexify_self_s": sf["matrixops.decomplexify"],
            "identities.verify_s": tot["identities.verify"],
            "identities.verify_max_s": mx["identities.verify"],
            "identities.check_s": tot["identities.check"],
            "cayley.step_max_s": mx["cayley.step"],
            "cayley.interpolate_s": tot["cayley.interpolate"],
            "cli.run_suite_s": tot["cli.run_suite"],
            "cli.overhead_s": tot["cli.main"] - tot["identities.registry"],
        }

    def _owners(self, cls):
        return [o for o in self.memo_owners.values() if isinstance(o, cls)]

    def write(self, path, origin):
        """Write every stored span; times in microseconds from ``origin``."""
        us = lambda t: round((t - origin) * 1e6)
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "groups": self.groups,
                "spans": {
                    "name": self.span_name.tolist(),
                    "start_us": [us(t) for t in self.span_start],
                    "end_us": [us(t) for t in self.span_end],
                    "parent": self.span_parent.tolist(),
                },
                "scalar_calls": {k: v for k, v in self.counts.items()
                                 if k.startswith("scalars.")},
                "scalar_s": self.scalar_s,
            }, fh, separators=(",", ":"))
            fh.write("\n")


# --- counters taken at the layer boundary ---------------------------------

def _weyl_mul(tracer, args, result):
    a, b = args
    n = tracer.counts
    n["weyl.mul_term_pairs"] += len(a.terms) * len(b.terms)
    if len(result.terms) > n["weyl.max_terms"]:
        n["weyl.max_terms"] = len(result.terms)


def _weyl_apply(tracer, args, result):
    op, p = args
    n = tracer.counts
    n["weyl.apply_term_pairs"] += len(op.terms) * len(p.terms)
    if len(result.terms) > n["weyl.max_terms"]:
        n["weyl.max_terms"] = len(result.terms)


def _memo_owner(tracer, args, result):
    owner = args[0]
    tracer.memo_owners.setdefault(id(owner), owner)


def _det_terms(tracer, args, result):
    n = tracer.counts
    if len(result.terms) > n["matrixops.max_det_terms"]:
        n["matrixops.max_det_terms"] = len(result.terms)


_MEASURES = {
    "weyl.mul": _weyl_mul,
    "weyl.apply": _weyl_apply,
    "pbw.straighten": _memo_owner,
    "swapalg.normalize": _memo_owner,
    "matrixops.coldet": _det_terms,
    "matrixops.coldet_laplace": _det_terms,
}
