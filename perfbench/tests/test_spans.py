import importlib
import sys
import types

import pytest

import layers
import spans
from spans import Tracer, self_times_ns


def _span(span_id, parent, start, end):
    return [span_id, parent, f"s{span_id}", start, end, "measure", 1]


def test_self_time_subtracts_direct_children_only():
    nested = [
        _span(0, -1, 0, 100),
        _span(1, 0, 10, 30),
        _span(2, 0, 40, 70),
        _span(3, 2, 45, 50),  # grandchild: counts against span 2, not span 0
    ]
    assert self_times_ns(nested) == {0: 50, 1: 20, 2: 25, 3: 5}


def test_self_time_counts_overlapping_children_once():
    overlapping = [_span(0, -1, 0, 100), _span(1, 0, 10, 60), _span(2, 0, 40, 90)]
    assert self_times_ns(overlapping)[0] == 20


def test_tracer_records_parents_and_self_time(monkeypatch):
    clock = iter(range(0, 1000, 10))
    monkeypatch.setattr(spans.time, "perf_counter_ns", lambda: next(clock))
    tracer = Tracer("t")
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    with tracer.span("op"):
        assert outer(1) == 4
    names = {s[0]: (s[2], s[1]) for s in tracer.spans}
    assert names == {0: ("op", -1), 1: ("outer", 0), 2: ("inner", 1)}
    assert self_times_ns(tracer.spans) == {0: 20, 1: 20, 2: 10}
    assert {s[6] for s in tracer.spans} == {1}


def test_counts_are_kept_in_the_measured_phase_only():
    tracer = Tracer("t")
    f = tracer.wrap("f", lambda: 3, count=lambda c, a, k, r: c.update({"f.items": r}))
    f()
    tracer.phase = "measure"
    f()
    assert tracer.counts["f.items"] == 3


def test_install_patches_every_lookup_and_uninstall_restores():
    def f():
        return "real"

    home = types.ModuleType("home")
    caller = types.ModuleType("caller")
    home.f = f
    caller.f = f  # as after `from home import f`
    caller.alias = f
    tracer = Tracer("t")
    assert tracer.install(f, "home.f", [home, caller]) == 3
    assert caller.f() == "real" and caller.alias() == "real"
    assert [s[2] for s in tracer.spans] == ["home.f", "home.f"]
    tracer.uninstall()
    assert home.f is f and caller.f is f and caller.alias is f


def _program_namespaces():
    return [m for name, m in sys.modules.items() if name == "mal2gcn" or name.startswith("mal2gcn.")]


def _wrapped_lookups():
    return [
        (ns.__name__, attr)
        for ns in _program_namespaces()
        for attr, value in vars(ns).items()
        if callable(value) and hasattr(value, "__wrapped__") and getattr(value, "__module__", "").startswith("spans")
    ]


def test_traced_run_wraps_callers_lookups_and_untraced_run_stays_unwrapped():
    pytest.importorskip("numpy")
    import workloads  # imports every mal2gcn module

    original = importlib.import_module("mal2gcn.gcn").batch_loss_and_gradients
    assert _wrapped_lookups() == []
    assert workloads.Run(None, 0, 1.0, None).tracer is None

    tracer = Tracer("t")
    layers.install(tracer)
    try:
        train_mod = importlib.import_module("mal2gcn.train")
        assert train_mod.batch_loss_and_gradients.__wrapped__ is original
        assert importlib.import_module("mal2gcn.attack").prepare_fcg.__wrapped__ is not None
        assert importlib.import_module("mal2gcn.cli").score_prepared.__wrapped__ is not None
        assert importlib.import_module("mal2gcn.gcn").score_prepared.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert importlib.import_module("mal2gcn.train").batch_loss_and_gradients is original
    assert _wrapped_lookups() == []
