"""Traced runs: spans around the public functions of each segrecusp module.

The program has no spans of its own, so the tracer patches them in from the
outside.  Every wrapped call becomes a span (name, start, end, parent, item)
kept in memory, except the hot leaf ``fields.pgcd``, which is only timed.
Operators of RatFuncElem and QuadExtElem and Jet multiplications are only
counted.  Self time of a span is its duration minus the time its direct
child spans cover.  ``Tracer.metrics`` turns the spans and counters into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name, field tag).  A dotted attribute is a method
# patched on its class.  The field tag "eqs" names the span after the field
# of hensel_solve's first equation.
TIMED = [
    ("lines", "enumerate_lines", "lines.census", None),
    ("lines", "coordinate_lines", "lines.exact_scan", None),
    ("lines", "lines_through_singular_point", "lines.exact_scan", None),
    ("lines", "count_lines_through_singular_point", "lines.exact_scan", None),
    ("jets", "hensel_solve", "jets.hensel_solve", "eqs"),
    ("jets", "splitting_reduce", "jets.splitting_reduce", None),
    ("jets", "Jet.substitute", "jets.substitute", None),
    ("fields", "pgcd", "fields.pgcd", None),
    ("cusplocus", "line_report", "cusplocus.line_report", None),
    ("cusplocus", "line_chart", "cusplocus.line_chart", None),
    ("cusplocus", "classify_plane_germ", "cusplocus.classify_plane_germ", None),
    ("cusplocus", "hessian_form_at", "cusplocus.hessian_form_at", None),
    ("cusplocus", "point_case", "cusplocus.point_case", None),
    ("surface", "AdaptedChart.solve_graph", "surface.solve_graph", None),
    ("surface", "sample_rational_points", "surface.sample_rational_points", None),
    ("surface", "SurfaceInstance.singularities", "surface.singularities", None),
    ("pencil", "QuadricPencil.segre_symbol", "pencil.segre_symbol", None),
    ("linalg", "rational_roots", "linalg.rational_roots", None),
    ("appendix", "verify_appendix", "appendix.verify", None),
]

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__neg__", "__truediv__", "__rtruediv__", "__pow__",
             "inverse")

FIELD_KEYS = ("Q", "Qsqrt", "Qx")
# span names reported as calls / total / self: every timed name once, a name
# tagged "eqs" once per field; point_case only feeds point_case_yield
SPAN_METRICS = list(dict.fromkeys(
    f"{name}.{fk}" if tag == "eqs" else name
    for _, _, name, tag in TIMED if name != "cusplocus.point_case"
    for fk in (FIELD_KEYS if tag == "eqs" else (None,))))
# timed but not kept as spans: tens of thousands of calls per second
UNRECORDED = {"fields.pgcd"}


def field_key(field):
    name = type(field).__name__
    return {"Rationals": "Q", "QuadraticExtension": "Qsqrt",
            "RationalFunctions": "Qx"}.get(name, name)


def metric_names(name):
    """Total, self and calls metric names of a span.  A field suffix stays
    last: 'jets.hensel_solve.Qx' reports as jets.hensel_solve_s.Qx,
    jets.hensel_solve_self_s.Qx and jets.hensel_solve_calls.Qx."""
    base, tail = name, ""
    if name.rpartition(".")[2] in FIELD_KEYS:
        base, _, fk = name.rpartition(".")
        tail = "." + fk
    return f"{base}_s{tail}", f"{base}_self_s{tail}", f"{base}_calls{tail}"


class Tracer:
    """Spans and counters for one traced run.  ``item`` tags every span with
    the id of the workload item (or 'setup') that caused it."""

    def __init__(self):
        self.spans = []          # (id, parent id, item, name, start, end)
        self.counts = Counter()
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.item = "setup"
        self._stack = []         # [span id, name, start, child time]
        self._active = Counter()
        self._undo = []

    # ------------------------------------------------------------ spans

    def _enter(self, name):
        sid = None
        if name not in UNRECORDED:
            sid = len(self.spans)
            self.spans.append(None)
        self._stack.append([sid, name, time.perf_counter(), 0.0])
        self._active[name] += 1

    def _exit(self):
        sid, name, start, child = self._stack.pop()
        end = time.perf_counter()
        dur = end - start
        if sid is not None:
            parent = self._stack[-1][0] if self._stack else None
            self.spans[sid] = (sid, parent, self.item, name, start, end)
        self._active[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        if name == "jets.hensel_solve.Qx" and self._active["cusplocus.line_report"]:
            self.counts["line_report_hensel_qx"] += 1
        if self._active[name]:      # nested in a span of the same name
            return
        self.total[name] += dur
        if name == "lines.exact_scan" and self._active["lines.census"]:
            self.total["lines.exact_scan_in_census"] += dur

    def _wrap(self, fn, name, field_arg):
        tracer = self

        def traced(*args, **kwargs):
            full = name
            if field_arg == "eqs":
                eqs = args[0] if args else kwargs["equations"]
                full = f"{name}.{field_key(eqs[0].field)}"
            tracer._enter(full)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, key, by_field=False):
        counts = self.counts

        def counted(self_, *args):
            counts[f"{key}.{field_key(self_.field)}" if by_field else key] += 1
            return fn(self_, *args)
        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def item_span(self, item):
        """The root span of one workload item; its spans carry ``item``."""
        self.item = item
        self._enter("item")
        try:
            yield
        finally:
            self._exit()

    # ---------------------------------------------------------- patching

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Patch the wrappers in.  Callers must look the functions up on
        their segrecusp module at call time: only segrecusp's own
        namespaces are rebound."""
        import segrecusp
        from segrecusp import fields, jets
        modules = [m for name, m in sys.modules.items()
                   if name == "segrecusp" or name.startswith("segrecusp.")]
        for mod_name, attr, name, field_arg in TIMED:
            mod = getattr(segrecusp, mod_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(cls.__dict__[meth], name,
                                                field_arg))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(original, name, field_arg)
            # rebind every `from .mod import name` copy as well
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)
        for cls, key in ((fields.RatFuncElem, "fields.ratfunc_ops"),
                         (fields.QuadExtElem, "fields.quadext_ops")):
            for op in OPERATORS:
                if op in cls.__dict__:
                    self._set(cls, op, self._count(cls.__dict__[op], key))
        self._set(jets.Jet, "__mul__", self._count(
            jets.Jet.__dict__["__mul__"], "jets.jet_mul_calls", by_field=True))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ----------------------------------------------------------- metrics

    def metrics(self):
        """Per-layer metrics from the recorded spans and counters."""
        out = {}
        for name in SPAN_METRICS:
            total_n, self_n, calls_n = metric_names(name)
            out[total_n] = (self.total[name], "s")
            out[self_n] = (self.self_time[name], "s")
            out[calls_n] = (self.calls[name], "count")
        out["lines.search_s"] = (
            self.total["lines.census"] - self.total["lines.exact_scan_in_census"], "s")
        for fk in FIELD_KEYS:
            out[f"jets.jet_mul_calls.{fk}"] = (self.counts[f"jets.jet_mul_calls.{fk}"], "count")
        out["fields.ratfunc_ops"] = (self.counts["fields.ratfunc_ops"], "count")
        out["fields.quadext_ops"] = (self.counts["fields.quadext_ops"], "count")
        reports = self.calls["cusplocus.line_report"]
        out["cusplocus.line_report_attempts"] = (
            self.counts["line_report_hensel_qx"] / reports if reports else 0.0, "ratio")
        return out
