"""The benchmark's tracer (perfbench/tracing.py) installs on the library and
restores it, so a refactor that breaks one of its bindings fails here."""

import importlib
import importlib.util
from pathlib import Path

from weylkit import Scalar, elements, linalg
from weylkit.elements import p, q

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _StubClock:
    """A work clock that advances one microsecond per reading."""

    def __init__(self):
        self.t = 0.0

    def work_time(self):
        self.t += 1e-6
        return self.t


def _bindings(tracing):
    """Every callable the tracer may rebind: module globals and listed methods."""
    mods = [importlib.import_module(f"weylkit.{m}") for m in tracing.MODULES]
    mods.append(importlib.import_module("weylkit"))
    out = {(mod.__name__, name): obj for mod in mods
           for name, obj in vars(mod).items() if callable(obj)}
    for (m, cls_name), names in tracing.METHODS.items():
        cls = getattr(importlib.import_module(f"weylkit.{m}"), cls_name)
        for name in names:
            out[(m, cls_name, name)] = cls.__dict__[name]
    return out


def test_tracer_records_spans_and_restores_the_library():
    tracing = _load_tracing()
    before = _bindings(tracing)
    tracer = tracing.Tracer(_StubClock())
    tracer.install()
    try:
        elements.bracket(p, q)
        linalg.integer_kernel([{0: (1, 0), 1: (2, 0)}, {0: (2, 0), 1: (4, 0)}])
        # bracket and the kernel run on integers, so time one Scalar operation too
        Scalar(1) / Scalar(3)
        totals, counters = tracer.take()
    finally:
        tracer.uninstall()
    assert totals["elements.bracket"][0] == 1
    assert totals["linalg.integer_kernel"][0] == 1
    assert {name for _, _, name, *_ in tracer.spans} >= {"elements.bracket",
                                                          "linalg.integer_kernel"}
    metrics = tracing.layer_metrics(totals, counters)
    assert metrics["elements.bracket_calls"] == 1
    assert metrics["scalars.calls"] > 0
    assert _bindings(tracing) == before
