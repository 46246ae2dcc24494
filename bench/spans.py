"""Span tracing for the benchmark, built only from wrappers placed by the bench.

Wrappers go on the attribute a caller looks up at call time: a module global
such as ``hamlab.lab.remainder_curve``, a class attribute such as
``CompiledField.__call__``, or ``numpy.linalg.eigvalsh``.  Installing the
wrappers never edits a file under ``src/``; uninstalling restores the
originals.

Two kinds of wrapper:

* a *span* wrapper records one span per call (name, module, start, end,
  parent, run id) for calls that cross from one hamlab module into another;
* a *leaf* wrapper does not record a span.  It adds a count and its summed
  time to the innermost open span.  Hot calls (exact arithmetic, eigvalsh,
  field evaluations, implicit steps, Diophantine shells) use it, so that
  tracing does not store one span per call.

Spans are kept in memory; ``Tracer.dump`` writes them out when the run ends.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("birkhoff", "exactnum", "poly", "diophantine", "sdm", "dynamics", "lab")

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "module", "parent", "run", "start", "end", "counters")

    def __init__(self, sid, name, module, parent, run):
        self.id = sid
        self.name = name
        self.module = module
        self.parent = parent
        self.run = run
        self.start = _clock()
        self.end = None
        self.counters = defaultdict(float)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "run": self.run,
            "start": self.start,
            "end": self.end,
            "counters": dict(self.counters),
        }


class Tracer:
    """Holds the spans of traced runs and the wrappers that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.run = None
        self.exact_depth = 0
        self._patches: list = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def open(self, name: str, module: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, module, parent, self.run)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span):
        span.end = _clock()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def begin_run(self, run_id: str) -> Span:
        """Open the root span of one traced workload iteration."""
        self.run = run_id
        return self.open("bench.unit", "bench")

    def run_spans(self, run_id: str) -> list:
        return [s for s in self.spans if s.run == run_id]

    def dump(self, path, extra: dict):
        with open(path, "w") as fh:
            json.dump(
                {**extra, "spans": [s.to_json() for s in self.spans]}, fh, indent=0
            )
            fh.write("\n")

    # -- wrappers ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_everywhere(self, original, wrapper):
        """Replace every hamlab module attribute bound to ``original``."""
        found = False
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hamlab" or modname.startswith("hamlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{original.__qualname__} is bound in no hamlab module")

    def span_wrapper(self, fn, name: str, module: str, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name, module)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span.counters, args, result)
                return result
            finally:
                tracer.close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf_wrapper(self, fn, key: str, on_call=None, module: str | None = None):
        """Count calls to ``fn`` and sum their time on the innermost span.

        With ``module`` set, only calls made while a span of that module is
        innermost are counted (used for numpy.linalg.eigvalsh inside sdm).
        """
        tracer = self
        key_s = key + "_s"

        def wrapper(*args, **kwargs):
            span = tracer.stack[-1] if tracer.stack else None
            if span is None or (module is not None and span.module != module):
                return fn(*args, **kwargs)
            t0 = _clock()
            result = fn(*args, **kwargs)
            c = span.counters
            c[key_s] += _clock() - t0
            c[key] += 1
            if on_call is not None:
                on_call(c, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def exact_wrapper(self, fn, kind: str):
        """ExactComplex arithmetic: count every call by kind, time only the
        outermost one (a division or subtraction calls other dunders)."""
        tracer = self
        key = f"exactnum.{kind}_calls"

        def wrapper(*args):
            c = tracer.stack[-1].counters
            c[key] += 1
            if tracer.exact_depth:
                return fn(*args)
            tracer.exact_depth = 1
            t0 = _clock()
            try:
                return fn(*args)
            finally:
                c["exactnum.s"] += _clock() - t0
                c["exactnum.ops"] += 1
                tracer.exact_depth = 0

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Place every wrapper; pair with ``uninstall``."""
        import numpy.linalg

        import hamlab.birkhoff as birkhoff
        import hamlab.diophantine as diophantine
        import hamlab.dynamics as dynamics
        import hamlab.lab as lab
        import hamlab.poly as poly
        import hamlab.sdm as sdm
        from hamlab.exactnum import ExactComplex

        spans = [
            (lab.run_experiment, "lab", None),
            (birkhoff.remainder_curve, "birkhoff", None),
            (birkhoff.birkhoff_normal_form, "birkhoff", _count_result_terms),
            (poly.complexify_unnormalized, "poly", None),
            (poly.realify_unnormalized, "poly", None),
            (diophantine.check_nonresonant, "diophantine", None),
            (diophantine.estimate_gamma, "diophantine", None),
            (diophantine.fit_tau, "diophantine", None),
            (sdm.prevalence_estimate, "sdm", None),
            (sdm.subspaces_up_to, "sdm", _count_subspaces),
            (sdm.check_sdm_polynomial, "sdm", None),
            (dynamics.ensemble_drift, "dynamics", _count_rows),
        ]
        for fn, module, on_result in spans:
            name = f"{module}.{fn.__name__}"
            self._set_everywhere(fn, self.span_wrapper(fn, name, module, on_result))

        leaves = [
            (diophantine.shell_array, "diophantine.shell_array_calls", _count_shell),
            (sdm.check_sdm_quadratic, "sdm.check_quadratic_calls", None),
            (dynamics._fixed_point_midpoint, "dynamics.batched_steps", _count_step),
            (dynamics._fixed_point_gauss4, "dynamics.batched_steps", _count_step),
            (lab.write_json, "lab.artifact_writes", _count_artifact),
            (lab.write_csv, "lab.artifact_writes", _count_artifact),
        ]
        for fn, key, on_call in leaves:
            self._set_everywhere(fn, self.leaf_wrapper(fn, key, on_call))
        self._set(
            numpy.linalg,
            "eigvalsh",
            self.leaf_wrapper(numpy.linalg.eigvalsh, "sdm.eigvalsh_calls", module="sdm"),
        )
        self._set(
            dynamics.CompiledField,
            "__call__",
            self.leaf_wrapper(
                dynamics.CompiledField.__call__, "dynamics.field_evals", _count_field
            ),
        )
        for attr, kind in (
            ("__mul__", "mul"),
            ("__rmul__", "mul"),
            ("__add__", "add"),
            ("__radd__", "add"),
            ("__sub__", "add"),
            ("__rsub__", "add"),
            ("__truediv__", "div"),
            ("__rtruediv__", "div"),
        ):
            self._set(ExactComplex, attr, self.exact_wrapper(vars(ExactComplex)[attr], kind))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- counters filled from arguments and results -------------------------------


def _count_result_terms(c, args, res):
    c["birkhoff.result_terms"] += len(res.remainder.terms) + sum(
        len(g.terms) for g in res.generators
    )


def _count_subspaces(c, args, subs):
    c["sdm.subspaces"] += len(subs)


def _count_rows(c, args, summary):
    c["dynamics.rows"] += len(summary.statuses)
    c["dynamics.rows_ok"] += sum(s == "ok" for s in summary.statuses)


def _count_shell(c, args, ks):
    c["diophantine.shell_vectors"] += ks.shape[0]


def _count_step(c, args, result):
    c["dynamics.traj_steps"] += args[1].shape[0]


def _count_artifact(c, args, result):
    if isinstance(args[0], (str, os.PathLike)):
        c["lab.artifact_bytes"] += os.path.getsize(args[0])


def _count_field(c, args, result):
    field, z = args
    terms, dim = field.E.shape
    points = z.size // dim
    c["dynamics.field_points"] += points
    c["dynamics.field_terms"] = terms
    # bytes of the arrays one evaluation reads and writes: input, the
    # (points, terms, dim) power array, monomials, scaled monomials, output,
    # plus the exponent, coefficient and selection arrays (computed, not
    # measured: cache traffic is not counted)
    c["dynamics.field_bytes"] += 8 * (
        2 * points * dim + points * terms * dim + 2 * points * terms + 2 * terms * dim + terms
    )


# -- per-layer metrics from the spans of one traced iteration -------------------


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics (name -> value) from the spans of one traced run."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(float)
    totals = defaultdict(float)
    for s in spans:
        if s.parent in by_id:
            children[s.parent] += s.duration
        for k, v in s.counters.items():
            totals[k] += v

    m = {}
    for mod in MODULES:
        mine = [s for s in spans if s.module == mod]
        outermost = [s for s in mine if not _has_ancestor(s, mod, by_id)]
        m[f"{mod}.calls"] = len(mine)
        m[f"{mod}.total_s"] = sum(s.duration for s in outermost)
        m[f"{mod}.self_s"] = sum(
            s.duration - children[s.id] - s.counters.get("exactnum.s", 0.0)
            for s in mine
        )
    # exact arithmetic has no spans: its calls and time sit on the caller's span
    m["exactnum.calls"] = totals["exactnum.ops"]
    m["exactnum.total_s"] = m["exactnum.self_s"] = totals["exactnum.s"]

    def span_time(name):
        return sum(s.duration for s in spans if s.name == name)

    def ratio(num, den):
        return num / den if den else 0.0

    m["birkhoff.remainder_curve_s"] = span_time("birkhoff.remainder_curve")
    m["birkhoff.normal_form_s"] = span_time("birkhoff.birkhoff_normal_form")
    m["birkhoff.result_terms"] = totals["birkhoff.result_terms"]
    for kind in ("mul", "add", "div"):
        m[f"exactnum.{kind}_calls"] = totals[f"exactnum.{kind}_calls"]
    m["exactnum.ns_per_op"] = ratio(1e9 * totals["exactnum.s"], totals["exactnum.ops"])
    m["poly.realify_s"] = span_time("poly.realify_unnormalized")
    m["poly.complexify_s"] = span_time("poly.complexify_unnormalized")
    m["dynamics.field_evals"] = totals["dynamics.field_evals"]
    m["dynamics.batched_steps"] = totals["dynamics.batched_steps"]
    m["dynamics.field_evals_per_step"] = ratio(
        totals["dynamics.field_evals"], totals["dynamics.batched_steps"]
    )
    m["dynamics.field_eval_s"] = totals["dynamics.field_evals_s"]
    m["dynamics.field_eval_us_per_point"] = ratio(
        1e6 * totals["dynamics.field_evals_s"], totals["dynamics.field_points"]
    )
    m["dynamics.field_terms"] = max(
        (s.counters.get("dynamics.field_terms", 0) for s in spans), default=0
    )
    m["dynamics.field_bytes_per_eval"] = ratio(
        totals["dynamics.field_bytes"], totals["dynamics.field_evals"]
    )
    m["dynamics.traj_steps"] = totals["dynamics.traj_steps"]
    m["dynamics.rows_ok_frac"] = ratio(totals["dynamics.rows_ok"], totals["dynamics.rows"])
    m["sdm.eigvalsh_calls"] = totals["sdm.eigvalsh_calls"]
    m["sdm.check_quadratic_calls"] = totals["sdm.check_quadratic_calls"]
    m["sdm.subspaces"] = totals["sdm.subspaces"]
    m["sdm.prevalence_s"] = span_time("sdm.prevalence_estimate")
    m["diophantine.shell_array_calls"] = totals["diophantine.shell_array_calls"]
    m["diophantine.shell_vectors"] = totals["diophantine.shell_vectors"]
    m["diophantine.vectors_per_s"] = ratio(
        totals["diophantine.shell_vectors"], totals["diophantine.shell_array_calls_s"]
    )
    m["lab.artifact_write_s"] = totals["lab.artifact_writes_s"]
    m["lab.artifact_bytes"] = totals["lab.artifact_bytes"]
    return m


def _has_ancestor(span, module, by_id) -> bool:
    p = by_id.get(span.parent)
    while p is not None:
        if p.module == module:
            return True
        p = by_id.get(p.parent)
    return False
