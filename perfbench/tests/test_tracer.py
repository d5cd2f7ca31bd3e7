"""Self-time arithmetic of the layer tracer, on fake layers and real ones."""

import importlib

import pytest

from perfbench.tracer import LAYERS, UNATTRIBUTED, EngineCounts, LayerTracer


class FakeClock:
    """A clock that only moves when a fake layer does work."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_nested_layers_split_self_time():
    clock = FakeClock()
    tracer = LayerTracer(clock)

    def inner():
        clock.work(2.0)

    def outer():
        clock.work(1.0)
        inner_traced()
        clock.work(3.0)
        inner_traced()

    inner_traced = tracer.wrap("inner", inner)
    outer_traced = tracer.wrap("outer", outer)
    with tracer.root() as wall:
        clock.work(0.5)
        outer_traced()
    assert wall == [8.5]
    assert tracer.self_s == {"inner": 4.0, "outer": 4.0, UNATTRIBUTED: 0.5}
    assert tracer.calls["inner"] == 2
    assert tracer.calls["outer"] == 1
    assert sum(tracer.self_s.values()) == wall[0]


def test_only_the_outermost_call_into_a_layer_is_timed():
    clock = FakeClock()
    tracer = LayerTracer(clock)

    def size(depth):
        clock.work(1.0)
        return 1 if depth == 0 else 1 + size_traced(depth - 1)

    def resident():
        # like resident_bytes_extra, which calls approx_size per block
        return sum(size_traced(1) for _ in range(3))

    size_traced = tracer.wrap("memory.size", size)
    resident_traced = tracer.wrap("memory.size", resident)
    with tracer.root() as wall:
        assert resident_traced() == 6
    assert tracer.calls["memory.size"] == 1
    assert tracer.self_s["memory.size"] == 6.0
    assert tracer.self_s[UNATTRIBUTED] == 0.0
    assert wall == [6.0]


def test_a_layer_reentered_below_another_layer_opens_a_new_span():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    a = tracer.wrap("a", lambda: (clock.work(1.0), b()))
    b = tracer.wrap("b", lambda: (clock.work(2.0), c()))
    c = tracer.wrap("a", lambda: clock.work(4.0))
    with tracer.root() as wall:
        a()
    assert tracer.self_s == {"a": 5.0, "b": 2.0, UNATTRIBUTED: 0.0}
    assert tracer.calls["a"] == 2
    assert sum(tracer.self_s.values()) == wall[0] == 7.0


def test_calls_outside_a_pass_are_not_timed():
    tracer = LayerTracer(FakeClock())
    assert tracer.wrap("x", lambda: 3)() == 3
    assert tracer.self_s == {}


def test_an_exception_still_closes_the_span():
    clock = FakeClock()
    tracer = LayerTracer(clock)

    def boom():
        clock.work(1.0)
        raise ValueError("boom")

    traced = tracer.wrap("x", boom)
    with tracer.root() as wall:
        with pytest.raises(ValueError):
            traced()
    assert tracer.self_s["x"] == 1.0
    assert sum(tracer.self_s.values()) == wall[0]


def test_generator_functions_are_refused():
    def gen():
        yield 1

    with pytest.raises(TypeError):
        LayerTracer().wrap("x", gen)


def test_install_rebinds_every_import_by_name_and_undo_restores():
    version = importlib.import_module("repro.memory.version")
    original = version.approx_size
    importers = [
        importlib.import_module(name)
        for name in (
            "repro.memory.heap",
            "repro.closures.log",
            "repro.harness.pipeline",
            "repro.harness.scenarios",
        )
    ]
    assert all(module.approx_size is original for module in importers)
    patches = LayerTracer().install(LAYERS)
    try:
        wrapped = version.approx_size
        assert wrapped is not original
        assert all(module.approx_size is wrapped for module in importers)
    finally:
        patches.undo()
    assert version.approx_size is original
    assert all(module.approx_size is original for module in importers)


def test_every_layer_has_entry_points():
    tracer = LayerTracer()
    for layer, targets in LAYERS:
        patches = tracer.install(((layer, targets),))
        try:
            assert patches._undo, layer
        finally:
            patches.undo()


def test_engine_counts_read_events_and_instructions():
    from repro.harness.pipeline import PipelineConfig, run_vanilla_server
    from repro.harness.scenarios import memcached_scenario

    counts = EngineCounts()
    patches = counts.install()
    try:
        run_vanilla_server(memcached_scenario(), 40, PipelineConfig(seed=1))
        events, instructions = counts.take()
    finally:
        patches.undo()
    assert events > 0 and instructions > 0
    assert counts.take() == (0, 0)
