"""Span bookkeeping: self time, step ids, patch undo."""

import pytest

from tracing import UNATTRIBUTED, Instrumentation, Patches, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_nested_and_siblings():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.root("repeat"):
        clock.advance(1.0)                      # root only
        step = tracer.begin("step", "engine.step_self_s", step=True)
        clock.advance(0.5)                      # step only
        a = tracer.begin("sample", "sampling.sample_s")
        clock.advance(2.0)
        inner = tracer.begin("cache", "sampling.sample_s")
        clock.advance(3.0)
        tracer.end(inner)
        tracer.end(a)
        b = tracer.begin("read", "featurestore.read_s")   # sibling of a
        clock.advance(4.0)
        tracer.end(b)
        tracer.end(step)
        clock.advance(0.25)                     # root only

    assert a.self_s == pytest.approx(2.0)
    assert inner.self_s == pytest.approx(3.0)
    assert b.self_s == pytest.approx(4.0)
    assert step.self_s == pytest.approx(0.5)
    times = tracer.self_times()
    assert times[UNATTRIBUTED] == pytest.approx(1.25)
    assert times["sampling.sample_s"] == pytest.approx(5.0)
    assert sum(times.values()) == pytest.approx(tracer.wall_s) == pytest.approx(10.75)
    # spans inside the step carry its id; the nested same-layer call is
    # not a call into the layer
    assert a.step == inner.step == b.step == step.id
    assert a.outer and not inner.outer


def test_out_of_order_end_is_refused():
    tracer = Tracer()
    outer = tracer.begin("a", "x_s")
    tracer.begin("b", "y_s")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_chrome_events_keep_parent_and_step():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.root("setup"):
        clock.advance(1.0)
        span = tracer.begin("step", "engine.step_self_s", step=True)
        clock.advance(1.0)
        tracer.end(span)
    events = tracer.chrome_events(origin=0.0, tid=0)
    assert [e["name"] for e in events] == ["setup", "step"]
    assert events[1]["args"]["parent"] == events[0]["args"]["id"]
    assert events[1]["args"]["step"] == span.id
    assert events[1]["ts"] == pytest.approx(1e6)
    assert events[1]["dur"] == pytest.approx(1e6)


def test_patches_restore_originals():
    class Owner:
        @classmethod
        def build(cls):
            return "built"

        def method(self):
            return 1

    raw_build, raw_method = Owner.__dict__["build"], Owner.__dict__["method"]
    patches = Patches()
    patches.wrap(Owner, "build", lambda f: (lambda cls: f(cls) + "!"))
    patches.wrap(Owner, "method", lambda f: (lambda self: f(self) + 1))
    assert Owner.build() == "built!"
    assert Owner().method() == 2
    patches.undo()
    assert Owner.__dict__["build"] is raw_build
    assert Owner.__dict__["method"] is raw_method


def test_instrumentation_uninstalls():
    from repro.engine.nfp import NFPStrategy
    from repro.tensor.tensor import Tensor

    before = (Tensor.__dict__["backward"], NFPStrategy.__dict__["execute_batch"])
    with Instrumentation():
        assert Tensor.__dict__["backward"] is not before[0]
    assert (Tensor.__dict__["backward"], NFPStrategy.__dict__["execute_batch"]) == before
