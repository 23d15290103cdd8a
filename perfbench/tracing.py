"""Span tracing by rebinding gordian's functions from outside.

``Tracer.install`` replaces each traced function, in every gordian module
namespace that holds it (and on the class for methods), with a wrapper that
records a span: name, start, end, parent and the operation it belongs to.
No file of the program is edited, and ``uninstall`` puts the originals back.

Self time is computed as spans close: a span's duration minus the time its
traced children cover.  Spans are kept in memory up to SPAN_CAP (later
ones are counted, not kept) and written out by ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# layer name -> where the function lives ("module:qualified.name").  Not all
# are reported: gram_matrix and run_suite are traced so that their own work
# is not counted as self time of cli.main.
TARGETS = {
    "laurent.mul": ("gordian.laurent:LaurentPoly.__mul__", "gordian.laurent:LaurentPoly.__rmul__"),
    "laurent.evaluate": ("gordian.laurent:LaurentPoly.evaluate",),
    "laurent.divmod_rational": ("gordian.laurent:divmod_rational",),
    "laurent.is_multiple": ("gordian.laurent:is_multiple",),
    "laurent.parse": ("gordian.laurent:LaurentPoly.parse",),
    "seifert.det_int": ("gordian.seifert:det_int",),
    "seifert.det_laurent": ("gordian.seifert:det_laurent",),
    "seifert.signature": ("gordian.seifert:signature",),
    "seifert.validate": ("gordian.seifert:SeifertMatrix.__init__",),
    "seifert.alexander": ("gordian.seifert:alexander",),
    "blanchfield.adjugate_laurent": ("gordian.blanchfield:adjugate_laurent",),
    "blanchfield.pairing": ("gordian.blanchfield:pairing",),
    "blanchfield.fractions_equal": ("gordian.blanchfield:fractions_equal",),
    "blanchfield.gram_matrix": ("gordian.blanchfield:gram_matrix",),
    "obstruct.cc_bar_witness_search": ("gordian.obstruct:cc_bar_witness_search",),
    "obstruct.quadform_represents": ("gordian.obstruct:quadform_represents",),
    "obstruct.murakami_obstruction": ("gordian.obstruct:murakami_obstruction",),
    "obstruct.parity_criterion": ("gordian.obstruct:parity_criterion",),
    "obstruct.constant_residue": ("gordian.obstruct:constant_residue",),
    "obstruct.build_report": ("gordian.obstruct:build_report",),
    "obstruct.format": ("gordian.obstruct:ObstructionReport.format",),
    "verify.run_suite": ("gordian.verify:run_suite",),
    "cli.main": ("gordian.cli:main",),
    "tables.load_entries": ("gordian.tables:load_entries",),
}

CC_SEARCH = "obstruct.cc_bar_witness_search"
SPAN_CAP = 100_000
REPORT = "obstruct.build_report"


def _inside(tracer, layer):
    # the caller's span is still open when a hook runs
    return any(name == layer for _, name, _ in tracer.stack)


def _on_is_multiple(tracer, args, result):
    if _inside(tracer, CC_SEARCH):
        tracer.counters["cc.candidates"] += 1
        tracer.counters["cc.true"] += bool(result)


def _on_cc_search(tracer, args, result):
    tracer.counters["cc.witness"] += result is not None


def _on_quadform(tracer, args, result):
    tracer.counters["quad.inconclusive"] += result.outcome == "inconclusive"


def _on_alexander(tracer, args, result):
    if _inside(tracer, REPORT):
        tracer.counters["report.alexander"] += 1


def _on_report(tracer, args, result):
    tracer.counters["report.matrix_sides"] += sum(type(a).__name__ == "SeifertMatrix" for a in args[:2])


HOOKS = {
    "laurent.is_multiple": _on_is_multiple,
    CC_SEARCH: _on_cc_search,
    "obstruct.quadform_represents": _on_quadform,
    "seifert.alexander": _on_alexander,
    REPORT: _on_report,
}


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TARGETS}  # calls, total s, self s
        self.counters = Counter()
        self.spans = []  # (id, parent id, name, start, end, operation)
        self.dropped = 0
        self.stack = []  # open spans: (id, name, [child seconds])
        self.op = None  # index of the operation being run, set by the caller
        self._next_id = 0
        self._patches = []

    def _wrap(self, name, fn):
        stack, spans, entry = self.stack, self.spans, self.stats[name]
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1][0] if stack else 0
            child = [0.0]
            stack.append((sid, name, child))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - child[0]
                if stack:
                    stack[-1][2][0] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent, name, start, end, tracer.op))
                else:
                    tracer.dropped += 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "gordian" or n.startswith("gordian.")]
        for name, specs in TARGETS.items():
            for spec in specs:
                module_name, qualname = spec.split(":")
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                if path:  # a method: patch the class
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._patches.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, value))
                            setattr(module, key, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def calls(self, name):
        return self.stats[name][0]

    def self_s(self, name):
        return self.stats[name][2]

    def write(self, path, header):
        """Spans as JSON lines, after one header line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(header, spans=len(self.spans), dropped=self.dropped)) + "\n")
            for sid, parent, name, start, end, op in self.spans:
                handle.write(json.dumps([sid, parent, name, start, end, op]) + "\n")
