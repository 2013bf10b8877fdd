"""Spans around the library's public functions, for the per-layer figures.

``Tracer.install`` wraps every public function of every library module (the
names in its ``__all__`` that it defines) and the public methods listed in
``METHODS``, and rebinds each wrapper in every module that binds the
original, since ``from .elements import bracket`` copies the binding.  A span
records its name, its parent, its start, its duration and its self time (the
duration minus the time covered by its child spans) on the host clock's work
time, which stops while the reference computation runs.  Totals per name are
kept for every span; single spans, except scalar operations, are kept in
memory up to ``SPAN_LIMIT`` and written out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json

MODULES = ["scalars", "elements", "linalg", "morphisms", "dixmier", "liestruct",
           "sl2orbits", "cli"]
METHODS = {
    ("scalars", "Scalar"): ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                            "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                            "__pow__", "inverse", "conjugate"],
    ("elements", "WeylElement"): ["__mul__"],
    ("elements", "ElementSpan"): ["insert", "contains", "express", "row_coordinates",
                                  "reduced_basis"],
    ("morphisms", "WeylMorphism"): ["__init__", "__call__"],
    ("liestruct", "LieAlgebraStruct"): ["__init__"],
}
SPAN_LIMIT = 200_000


class Tracer:
    def __init__(self, clock):
        self.now = clock.work_time
        self.stack: list[list] = []      # [span id, name, child seconds]
        self.totals: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- extra counts, taken where the work happens ---------------------------------

    def _count(self, key: str, amount: int):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _extra(self, name, args, kwargs, result):
        if name == "elements.WeylElement.__mul__" and hasattr(args[1], "terms"):
            self._count("product_term_pairs", len(args[0].terms) * len(args[1].terms))
        elif name == "elements.ElementSpan.insert":
            self._count("span_grew", result is not None)
        elif name == "linalg.rref":
            a = args[0]
            self._count("rref_cells", len(a) * len(a[0]) if a else 0)
        elif name == "dixmier.eigenvectors_truncated":
            d = args[2] if len(args) > 2 else kwargs["max_degree"]
            self._count("eigvec_unknowns", (d + 1) * (d + 2) // 2)
        elif name == "elements.bracket":
            if any(frame[1] == "liestruct.lie_closure" for frame in self.stack):
                self._count("closure_brackets", 1)

    # -- wrapping -------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        keep = not name.startswith("scalars.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = tracer.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.now() - start
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                own = duration - frame[2]
                total = tracer.totals.get(name)
                if total is None:
                    total = tracer.totals[name] = [0, 0.0]
                total[0] += 1
                total[1] += own
                if keep and len(tracer.spans) < SPAN_LIMIT:
                    tracer.spans.append((span_id, stack[-1][0] if stack else None,
                                         name, start, duration, own))
            tracer._extra(name, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        mods = {m: importlib.import_module(f"weylkit.{m}") for m in MODULES}
        mods["__init__"] = importlib.import_module("weylkit")
        for m in MODULES:
            mod = mods[m]
            for name in getattr(mod, "__all__", ["main"]):
                obj = getattr(mod, name, None)
                if not callable(obj) or isinstance(obj, type) or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._wrap(f"{m}.{name}", obj)
                for other in mods.values():
                    if getattr(other, name, None) is obj:
                        self._undo.append((other, name, obj))
                        setattr(other, name, wrapper)
        for (m, cls_name), names in METHODS.items():
            cls = getattr(mods[m], cls_name)
            for name in names:
                obj = cls.__dict__[name]
                self._undo.append((cls, name, obj))
                setattr(cls, name, self._wrap(f"{m}.{cls_name}.{name}", obj))

    def uninstall(self):
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    # -- results --------------------------------------------------------------------

    def take(self) -> tuple[dict, dict]:
        """Totals and counters since the last call; resets both."""
        totals, counters = self.totals, self.counters
        self.totals, self.counters = {}, {}
        return totals, counters

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for span_id, parent, name, start, duration, own in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "duration": duration,
                                     "self": own}) + "\n")


def layer_metrics(totals: dict, counters: dict) -> dict:
    """Per-layer figures from one round's totals (calls, self seconds)."""
    def calls(*names):
        return sum(totals.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    def prefixed(prefix):
        return [n for n in totals if n.startswith(prefix)]

    span = prefixed("elements.ElementSpan.")
    inserts = calls("elements.ElementSpan.insert")
    eigen = ["linalg.eigenvalues", "linalg.eigen_decomposition", "linalg.charpoly"]
    return {
        "scalars.calls": calls(*prefixed("scalars.Scalar.")),
        "scalars.self_s": self_s(*prefixed("scalars.")),
        "elements.product_calls": calls("elements.WeylElement.__mul__"),
        "elements.product_term_pairs": counters.get("product_term_pairs", 0),
        "elements.product_self_s": self_s("elements.WeylElement.__mul__"),
        "elements.bracket_calls": calls("elements.bracket"),
        "elements.bracket_self_s": self_s("elements.bracket"),
        "elements.span_inserts": inserts,
        "elements.span_growth_ratio": counters.get("span_grew", 0) / inserts if inserts else 0.0,
        "elements.span_self_s": self_s(*span),
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_cells": counters.get("rref_cells", 0),
        "linalg.rref_self_s": self_s("linalg.rref"),
        "linalg.eigen_calls": calls("linalg.eigenvalues"),
        "linalg.eigen_self_s": self_s(*eigen),
        "morphisms.construct_calls": calls("morphisms.WeylMorphism.__init__"),
        "morphisms.construct_self_s": self_s("morphisms.WeylMorphism.__init__"),
        "morphisms.apply_calls": calls("morphisms.WeylMorphism.__call__"),
        "morphisms.apply_self_s": self_s("morphisms.WeylMorphism.__call__", "morphisms.apply"),
        "liestruct.closure_brackets": counters.get("closure_brackets", 0),
        "liestruct.struct_self_s": self_s("liestruct.LieAlgebraStruct.__init__"),
        "liestruct.recognize_self_s": self_s("liestruct.recognize"),
        "dixmier.eigvec_unknowns": counters.get("eigvec_unknowns", 0),
        "dixmier.eigvec_self_s": self_s("dixmier.eigenvectors_truncated"),
        "sl2orbits.triplet_checks": calls("sl2orbits.triplet_check"),
        "sl2orbits.group_act_self_s": self_s("sl2orbits.group_act"),
        "sl2orbits.s11_self_s": self_s("sl2orbits.s11_test"),
    }
