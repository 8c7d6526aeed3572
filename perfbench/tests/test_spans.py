"""Self time of nested spans, phases, and wrapper installation."""

import sys
import types

import pytest

from spans import Probe, Tracer, install, layer_self_times, untraced_by_phase


class StepClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_span_self_time():
    clock = StepClock()
    tracer = Tracer(clock=clock)
    with tracer.phase("train"):
        clock.now = 1.0
        with tracer.span("outer"):
            clock.now = 3.0
            with tracer.span("inner"):
                clock.now = 4.0
                with tracer.span("leaf"):
                    clock.now = 4.5
                clock.now = 6.0
            clock.now = 7.0
            with tracer.span("inner"):
                clock.now = 8.0
            clock.now = 11.0
        clock.now = 12.0
    self_time = layer_self_times(tracer.spans)
    assert self_time["outer"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_time["inner"] == pytest.approx(3.0 - 0.5 + 1.0)
    assert self_time["leaf"] == pytest.approx(0.5)
    # The self times partition the outermost span exactly.
    assert sum(self_time.values()) == pytest.approx(10.0)
    # Phase wall 12 s, top-level span 10 s: 2 s no layer span covers.
    assert untraced_by_phase(tracer) == {"train": pytest.approx(2.0)}
    parents = {s.name: s.parent for s in tracer.spans}
    assert parents["outer"] is None
    assert parents["leaf"] == tracer.spans[1].id
    assert {s.phase for s in tracer.spans} == {"train"}


def test_chrome_trace_carries_parent_and_phase():
    clock = StepClock()
    tracer = Tracer(clock=clock)
    with tracer.phase("serve.dense"):
        with tracer.span("serve.batch"):
            clock.now = 0.002
    events = tracer.chrome_trace()["traceEvents"]
    span = next(e for e in events if e["name"] == "serve.batch")
    assert span["ph"] == "X"
    assert span["dur"] == pytest.approx(2000.0)
    assert span["args"] == {"id": 0, "parent": None, "phase": "serve.dense"}


class Model:
    def score(self, x):
        return x * 2

    @classmethod
    def load(cls, x):
        return cls()


class Fast(Model):
    pass


def helper(x):
    return x + 1


def test_install_wraps_at_the_lookup_attribute_and_restores():
    module = types.ModuleType("fake_layer")
    module.helper = helper
    module.Model = Model
    module.Fast = Fast
    sys.modules["fake_layer"] = module
    try:
        raw_load = vars(Model)["load"]
        tracer = Tracer()
        counted = []
        remove = install(tracer, [
            Probe("fake_layer:helper", "kg.helper",
                  on_return=lambda t, a, k, r: counted.append(r)),
            Probe("fake_layer:Fast.score", "models.forward",
                  parent="kg.helper"),
            Probe("fake_layer:Model.load", "serve.load"),
        ])
        assert module.helper(1) == 2
        assert counted == [2]
        # Outside a kg.helper span the parent-gated probe is inert.
        assert Fast().score(3) == 6
        assert [s.name for s in tracer.spans] == ["kg.helper"]
        with tracer.span("kg.helper"):
            Fast().score(3)
            Model().score(3)  # the base class was not patched
        assert isinstance(Fast.load(1), Fast)
        assert [s.name for s in tracer.spans] == [
            "kg.helper", "kg.helper", "models.forward", "serve.load"]
        remove()
        assert module.helper is helper
        assert "score" not in vars(Fast)
        assert vars(Model)["load"] is raw_load
        n = len(tracer.spans)
        module.helper(1)
        Model.load(1)
        assert len(tracer.spans) == n
    finally:
        del sys.modules["fake_layer"]
