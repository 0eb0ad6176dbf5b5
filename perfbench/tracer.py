"""Module-boundary tracing of `intervalmc`, from the benchmark's side.

`Tracer.installed()` replaces, for its duration, the attributes through
which one module of the package calls into another (`cli` calling
`logic.parse_formula`, `descriptor_checker` calling `concat_desc`, ...)
with wrappers, and puts the originals back afterwards. Nothing inside
`src/` changes. Coarse calls record a span (request, name, start, end,
parent); hot calls only bump a counter. A call site that a version of the
package no longer has is listed in `missing`, so that a renamed or inlined
call reads as a broken trace rather than as a metric dropping to 0. The
`tracknfa` entry points are looked up wherever they are called from, and
are not expected anywhere.
"""

from __future__ import annotations

import sys
import time
import types
from contextlib import contextmanager

PKG = "intervalmc"

# (span name, calling module, attribute path as seen from the caller).
# A dotted path is a call through a module object (`model.parse_kripke`).
SPANS = (
    ("logic.parse_formula", "cli", "logic.parse_formula"),
    ("logic.classify", "cli", "logic.classify"),
    ("logic.classify", "descriptor_checker", "classify"),
    ("logic.classify", "class_checker", "classify"),
    ("logic.negate_to_exists", "descriptor_checker", "negate_to_exists"),
    ("model.parse_kripke", "cli", "model.parse_kripke"),
    ("model.shortest_witness", "descriptor_checker", "shortest_witness"),
    ("descriptor_checker.model_check_univ", "cli", "descriptor_checker.model_check_univ"),
    ("class_checker.check_ab", "cli", "class_checker.check_ab"),
    ("oracle.model_check_bounded", "cli", "oracle.model_check_bounded"),
    ("reductions.parse", "cli", "reductions.parse_dimacs"),
    ("reductions.parse", "cli", "reductions.parse_qdimacs"),
    ("reductions.build", "cli", "reductions.build_sat_instance"),
    ("reductions.build", "cli", "reductions.build_qbf_instance"),
)

# (counter name, calling module, attribute path): calls too frequent for spans.
COUNTS = (
    ("logic.is_propositional.calls", "descriptor_checker", "is_propositional"),
    ("logic.val.calls", "descriptor_checker", "val"),
    ("model.concat_desc.calls", "descriptor_checker", "concat_desc"),
    ("model.track_label.calls", "oracle", "track_label"),
)

# Public entry points of the track automata, counted from whichever module
# calls them; no module does at the seed commit.
TRACKNFA_ENTRIES = ("compile_positive", "accepts_track", "find_satisfying_track")


class _ModuleView:
    """Stands in for a module object in one caller's namespace, so that
    wrapped attributes affect that caller only."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans and counters of the calls between the package's modules."""

    def __init__(self):
        self.request = None
        self._stack: list = []
        self._undo: list = []
        self.missing: list = []
        self.reset()

    def reset(self):
        """Forget the spans, counts and formulas recorded so far. Call it
        outside `installed()`: the wrappers hold on to the counters."""
        self.spans = []
        self.counts = {}
        self.desugared = []

    @contextmanager
    def span(self, name):
        rec = [self.request, name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _keep_wrapper(self, name, fn, keep):
        """A span that also hands the result to `keep`, after the span ends."""
        spanned = self._span_wrapper(name, fn)

        def wrapper(*args, **kwargs):
            out = spanned(*args, **kwargs)
            keep(out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yield_counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                cell[0] += 1
                yield item

        return wrapper

    def _patch(self, caller, path, make):
        holder = sys.modules.get(f"{PKG}.{caller}")
        head, _, attr = path.rpartition(".")
        if head:
            module = getattr(holder, head, None)
            if isinstance(module, types.ModuleType):
                view = _ModuleView(module)
                self._set(holder, head, view)
                holder = view
            elif isinstance(module, _ModuleView):
                holder = module
            else:
                self.missing.append(f"{caller}: {path}")
                return
        original = getattr(holder, attr, None)
        if original is None:
            self.missing.append(f"{caller}: {path}")
            return
        self._set(holder, attr, make(original))

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
        setattr(obj, attr, value)

    @contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block. Spans and
        counts add up over installations until `reset`."""
        self.missing = []
        try:
            for name, caller, path in SPANS:
                self._patch(caller, path, lambda fn, name=name: self._span_wrapper(name, fn))
            descriptors = self.counts.setdefault("model.descriptors", [0])

            def add_descriptors(found):
                descriptors[0] += len(found)

            self._patch(
                "descriptor_checker",
                "witnessed_descriptors",
                lambda fn: self._keep_wrapper("model.witnessed_descriptors", fn, add_descriptors),
            )
            self._patch(
                "cli", "logic.desugar", lambda fn: self._keep_wrapper("logic.desugar", fn, self.desugared.append)
            )
            for name, caller, path in COUNTS:
                self._patch(caller, path, lambda fn, name=name: self._count_wrapper(name, fn))
            self._patch(
                "oracle", "enumerate_tracks", lambda fn: self._yield_counter("oracle.initial_tracks", fn)
            )
            self._wrap_class_engine()
            self._wrap_tracknfa()
            yield self
        finally:
            for obj, attr, old in reversed(self._undo):
                if old is _MISSING:
                    delattr(obj, attr)
                else:
                    setattr(obj, attr, old)
            self._undo = []

    def _wrap_class_engine(self):
        module = sys.modules.get(f"{PKG}.class_checker")
        base = getattr(module, "ClassEngine", None)
        if base is None:
            self.missing.append("class_checker: ClassEngine")
            return
        tracer = self

        class TracedClassEngine(base):
            def __init__(self, *args, **kwargs):
                with tracer.span("class_checker.build"):
                    super().__init__(*args, **kwargs)

            def find_initial_track(self, *args, **kwargs):
                with tracer.span("class_checker.find_track"):
                    return super().find_initial_track(*args, **kwargs)

        self._set(module, "ClassEngine", TracedClassEngine)

    def _wrap_tracknfa(self):
        target = sys.modules.get(f"{PKG}.tracknfa")
        if target is None:
            return
        entries = {id(getattr(target, entry)): entry for entry in TRACKNFA_ENTRIES}
        for full in [m for m in sys.modules if m.startswith(PKG + ".")]:
            caller = full[len(PKG) + 1:]
            if caller in ("tracknfa", "__main__"):
                continue
            paths = []
            for attr, value in vars(sys.modules[full]).items():
                if value is target:
                    paths += [(f"{attr}.{entry}", entry) for entry in TRACKNFA_ENTRIES]
                elif id(value) in entries:
                    paths.append((attr, entries[id(value)]))
            for path, entry in paths:
                self._patch(caller, path, lambda fn, entry=entry: self._tracknfa_wrapper(entry, fn))

    def _tracknfa_wrapper(self, entry, fn):
        counted = self._count_wrapper("tracknfa.calls", fn)
        if entry == "find_satisfying_track":
            return self._span_wrapper("tracknfa.find_satisfying_track", counted)
        return counted

    def count(self, name):
        cell = self.counts.get(name)
        return cell[0] if cell else 0


_MISSING = object()
