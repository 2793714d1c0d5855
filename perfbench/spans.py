"""Span tracing around fusionkit's layer boundaries, from outside.

:meth:`Tracer.install` replaces the public functions of each layer, in
every fusionkit module that holds a reference to them, with wrappers
that record a span (name, start, end, parent span, job id) and the
counts read off the call's inputs and outputs.  Nothing under ``src/``
changes, and :meth:`Tracer.uninstall` restores the originals.

Canonical naming and expression parsing are called up to a few hundred
thousand times per job, so they are leaves: each parent span keeps a
call count and total time per leaf instead of one record per call.
Every other call gets its own span.  Spans stay in memory and are
written out by :meth:`Tracer.write` when the run ends.

A span's self time is its duration minus the time of its child spans
and leaves.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "job", "kind", "parent", "start", "end",
                 "child_s", "counts", "leaves")

    def __init__(self, sid, name, job, kind, parent):
        self.id, self.name, self.job, self.kind, self.parent = sid, name, job, kind, parent
        self.child_s = 0.0
        self.counts = None
        self.leaves = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "job": self.job, "kind": self.kind,
            "parent": self.parent.id if self.parent else None,
            "start": self.start, "end": self.end, "self_s": self.self_s,
            "counts": self.counts or {},
            "leaves": {k: {"calls": n, "s": s} for k, (n, s) in self.leaves.items()},
        }


# --- counts read at each boundary ----------------------------------------------


def _terms(sources) -> int:
    return math.prod(len(s.entries) for s in sources)


def _pairs(args) -> dict:
    return {"pairs": len(args[0].entries) * len(args[1].entries)}


def _conjunctive(args, result) -> dict:
    return {"product_terms": _terms(args), "ledger_entries": len(result[1].entries)}


def _klaw3_terms(args, _) -> dict:
    k = len(args[0])
    return {"monomials": 3 ** k - 3 * 2 ** k + 3}


def _segment(args, result) -> dict:
    return {"segment_regions": result.n_objects,
            "segment_dams": int((result.labels == -1).sum())}


#: (module, attribute, span name, counts(args, result) or None).
#: Span names are "<layer>.<function>"; cli.load.* and cli.emit.* mark
#: scenario loading and output formatting.
TARGETS = [
    ("rules", "conjunctive", "rules.conjunctive", _conjunctive),
    ("rules", "disjunctive", "rules.disjunctive",
     lambda a, r: {"product_terms": _terms(a)}),
    ("rules", "exclusive_disjunctive", "rules.exclusive_disjunctive",
     lambda a, r: {"product_terms": _terms(a)}),
    ("rules", "mixed", "rules.mixed", lambda a, r: {"product_terms": _terms(a[0])}),
    ("rules", "murphy_average", "rules.murphy_average", None),
    ("rules", "pcr5", "rules.pcr5", None),
    ("rules", "combine", "rules.combine", None),
    ("rules", "fuse_many", "rules.fuse_many", None),
    ("uft", "uft_fuse", "uft.uft_fuse", lambda a, r: {"audit_records": len(r.audit)}),
    ("tcn", "tcn_conjunctive", "tcn.tcn_conjunctive", lambda a, r: _pairs(a)),
    ("tcn", "tn_family", "tcn.tn_family", None),
    ("tcn", "tcn_pcr5_original", "tcn.tcn_pcr5_original", lambda a, r: _pairs(a)),
    ("tcn", "pcr5v2_tn", "tcn.pcr5v2_tn", lambda a, r: _pairs(a)),
    ("tcn", "ufr_combine", "tcn.ufr_combine", lambda a, r: _pairs(a)),
    ("neutro", "ns_combine_graded", "neutro.ns_combine_graded",
     lambda a, r: {"monomials": 3 ** (len(a) - 1)}),
    ("neutro", "klaw_mixed", "neutro.klaw_mixed",
     lambda a, r: {"monomials": 2 ** len(a[0]) - 2}),
    ("neutro", "klaw3", "neutro.klaw3", _klaw3_terms),
    ("neutro", "n_norm", "neutro.n_norm", None),
    ("neutro", "n_conorm", "neutro.n_conorm", None),
    ("neutro", "ns_not", "neutro.ns_not", None),
    ("mass", "make_bba", "mass.make_bba", lambda a, r: {"focal_sets": len(r.entries)}),
    ("nimage", "load_pgm", "nimage.load_pgm", lambda a, r: {"pixels": r.pixels.size}),
    ("nimage", "save_pgm", "nimage.save_pgm", None),
    ("nimage", "_to_ns_array", "nimage.to_ns", None),
    ("nimage", "denoise_detailed", "nimage.denoise_detailed",
     lambda a, r: {"denoise_passes": r.iterations}),
    ("nimage", "fit_abc", "nimage.fit_abc",
     lambda a, r: {"fit_abc_candidates": int(r.c - r.a) - 1}),
    ("nimage", "segment", "nimage.segment", _segment),
    ("cli", "main", "cli.main", None),
    ("cli", "_load_json", "cli.load.json", None),
    ("uft", "fusion_inputs_from_json", "cli.load.fusion_inputs", None),
    ("uft", "scenario_from_json", "cli.load.scenario", None),
    ("cli", "emit_table", "cli.emit.table", None),
]
#: (module, class, method, span name) for methods.
METHOD_TARGETS = [
    ("mass", "Bba", "to_json", "cli.emit.bba_json"),
    ("rules", "ConflictLedger", "to_json", "cli.emit.ledger_json"),
    ("uft", "UftResult", "to_json", "cli.emit.uft_json"),
]
#: Span name -> the per-layer metric that sums its self time.
SELF_TIME_METRICS = {
    "mass.make_bba": "mass.make_bba_s",
    "nimage.load_pgm": "nimage.pgm_io_s",
    "nimage.save_pgm": "nimage.pgm_io_s",
    "nimage.to_ns": "nimage.to_ns_s",
    "nimage.denoise_detailed": "nimage.denoise_s",
    "nimage.fit_abc": "nimage.fit_abc_s",
}
LEAF_NAME = "algebra.name_of"
LEAF_PARSE = "algebra.parse_expr"


class Tracer:
    """Records spans for the calls made while a job is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job = None
        self.kind = None
        self.name_keys: set = set()
        self._next_id = 0
        self._patches: list = []

    # --- job bracketing ---

    def begin_job(self, job: int, kind: str) -> None:
        self.job, self.kind = job, kind

    def end_job(self) -> None:
        self.job = self.kind = None

    # --- wrappers ---

    def _span(self, name, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(tracer._next_id, name, tracer.job, tracer.kind, parent)
            tracer._next_id += 1
            tracer.stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                tracer.spans.append(span)
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return wrapper

    def _leaf(self, name, fn, key=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                parent = tracer.stack[-1] if tracer.stack else None
                if parent is not None:
                    n, s = parent.leaves.get(name, (0, 0.0))
                    parent.leaves[name] = (n + 1, s + dt)
                    parent.child_s += dt
                if key is not None:
                    tracer.name_keys.add(key(args))

        return wrapper

    # --- installation ---

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "fusionkit" and not modname.startswith("fusionkit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import importlib

        from fusionkit.algebra import AtomSet, EmptinessModel, Frame

        for modname, attr, name, counts in TARGETS:
            mod = importlib.import_module(f"fusionkit.{modname}")
            original = getattr(mod, attr)
            self._replace_everywhere(original, self._span(name, original, counts))
        for modname, cls_name, method, name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(f"fusionkit.{modname}"), cls_name)
            self._patch_class(cls, method, self._span(name, getattr(cls, method), None))

        def bits(a):
            return a.bits if isinstance(a, AtomSet) else a

        self._patch_class(Frame, "name_of", self._leaf(
            LEAF_NAME, Frame.name_of, lambda a: (a[0].labels, bits(a[1]), 0)))
        self._patch_class(EmptinessModel, "name_of", self._leaf(
            LEAF_NAME, EmptinessModel.name_of,
            lambda a: (a[0].frame.labels, bits(a[1]) & ~a[0].forced_empty_bits,
                       a[0].forced_empty_bits)))
        algebra = importlib.import_module("fusionkit.algebra")
        self._replace_everywhere(algebra.parse_expr,
                                 self._leaf(LEAF_PARSE, algebra.parse_expr))

    def _patch_class(self, cls, method, replacement) -> None:
        self._patches.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- output ---

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times over every recorded span."""
        m: dict = {}

        def add(key, value):
            m[key] = m.get(key, 0) + value

        for span in self.spans:
            layer = span.name.split(".")[0]
            add(f"{layer}.calls", 1)
            add(f"{layer}.self_s", span.self_s)
            for key, value in (span.counts or {}).items():
                add(f"{layer}.{key}", value)
            for leaf, (n, s) in span.leaves.items():
                short = "name" if leaf == LEAF_NAME else "parse"
                add(f"algebra.{short}_calls", n)
                add(f"algebra.{short}_s", s)
            group = ".".join(span.name.split(".")[:2])
            parent_group = (".".join(span.parent.name.split(".")[:2])
                            if span.parent else None)
            if group in ("cli.load", "cli.emit") and parent_group != group:
                add(f"{group}_s", span.duration)
            if span.name == "nimage.segment":
                which = "grid" if span.kind == "segment_grid" else "blobs"
                add(f"nimage.segment_{which}_s", span.self_s)
            elif span.name in SELF_TIME_METRICS:
                add(SELF_TIME_METRICS[span.name], span.self_s)
            if span.name == "mass.make_bba":
                add("mass.make_bba_calls", 1)
        calls = m.get("algebra.name_calls", 0)
        m["algebra.name_distinct_ratio"] = len(self.name_keys) / calls if calls else 0.0
        rules_s = m.get("rules.self_s", 0.0)
        m["rules.product_terms_per_s"] = (
            m.get("rules.product_terms", 0) / rules_s if rules_s else 0.0)
        return m
