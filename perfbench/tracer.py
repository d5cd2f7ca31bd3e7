"""Outside-in layer tracer for the wall-time benchmark.

The tracer times the simulator from the outside: it wraps the public
entry points of each layer (:data:`LAYERS`) for the duration of a traced
run and puts nothing inside ``src/``.  Three rules keep the arithmetic
honest:

* only the outermost call into a layer opens a span.  ``approx_size`` and
  ``serialize`` recurse, and ``resident_bytes_extra`` calls
  ``approx_size`` once per block; the inner calls run unwrapped inside the
  outer span, so each layer's time is counted once;
* a layer's *self* time is its span's duration minus the time of the
  spans it encloses, and a pass is itself a root span whose self time is
  reported as ``unattributed``.  The self times of all layers plus
  ``unattributed`` therefore sum to the traced pass wall time;
* a module-level function is replaced under every name that refers to it
  in every loaded ``repro`` module, because ``from m import f`` binds
  ``f`` at import time (``approx_size`` is bound in ``memory/heap.py``,
  ``closures/log.py``, ``harness/pipeline.py`` and
  ``harness/scenarios.py``).  Code that imports inside a function body,
  like ``apps/lsmtree/server.py``, reads the defining module at call time
  and sees the wrapper there.  Methods are replaced on their class.

The untraced run times nothing.  It only installs :class:`EngineCounts`,
which wraps two constructors to register each DES engine and machine a
pass creates, so the pass can read their event and instruction counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Callable

#: self time of the pass root span: benchmark code between layer calls
UNATTRIBUTED = "unattributed"

#: (layer, entry points).  ``module:name`` is a function, ``module:Cls.m``
#: one method, ``module:Cls.*`` every public plain method Cls defines.
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("memory.size", (
        "repro.memory.version:approx_size",
        "repro.closures.log:ClosureLog.approx_bytes",
        "repro.apps.lsmtree.server:LsmTreeServer.resident_bytes_extra",
    )),
    ("memory.checksum", (
        "repro.memory.checksum:crc16",
        "repro.memory.checksum:checksum_of",
        "repro.memory.checksum:serialize",
    )),
    ("memory.heap", (
        "repro.memory.heap:VersionedHeap.*",
        "repro.memory.heap:PrivateHeap.*",
    )),
    ("closures", ("repro.closures.context:ExecutionContext.*",)),
    ("runtime", ("repro.runtime.orthrus:OrthrusRuntime.run_closure",)),
    ("runtime.sampler", (
        "repro.runtime.sampling:sampler_decision",
        "repro.runtime.sampling:AdaptiveSampler.*",
    )),
    ("apps", ("repro.apps.common:AppServer.handle",)),
    ("validation", ("repro.validation.validator:Validator.*",)),
    ("validation.queues", ("repro.validation.queues:QueueSet.*",)),
    ("validation.watchdog", (
        "repro.validation.watchdog:ValidationWatchdog.*",
        "repro.validation.watchdog:ValidationLedger.*",
    )),
    ("response", ("repro.response.coordinator:ResponseCoordinator.*",)),
    ("baselines.rbv", ("repro.baselines.rbv:RbvValidator.*",)),
    ("harness.vanilla", ("repro.harness.pipeline:run_vanilla_server",)),
    ("harness.orthrus", ("repro.harness.pipeline:run_orthrus_server",)),
    ("harness.rbv", ("repro.harness.pipeline:run_rbv_server",)),
    ("harness.chaos", ("repro.harness.chaos:run_chaos_server",)),
    ("obs.metrics", (
        "repro.obs.metrics:MetricsRegistry.*",
        "repro.obs.metrics:MetricFamily.*",
        "repro.obs.metrics:Counter.*",
        "repro.obs.metrics:Gauge.*",
        "repro.obs.metrics:StreamingHistogram.*",
    )),
    ("obs.trace", ("repro.obs.trace:Tracer.*",)),
    ("obs.spans", ("repro.obs.spans:SpanTracer.*",)),
    ("obs.timeline", (
        "repro.obs.timeseries:TimeSeriesRecorder.*",
        "repro.obs.timeseries:TimeSeries.*",
    )),
    ("obs.slo", ("repro.obs.slo:SloMonitor.*",)),
    ("obs.audit", (
        "repro.obs.audit:DriftMonitor.*",
        "repro.obs.exposure:ExposureLedger.*",
    )),
    ("obs.canary", (
        "repro.obs.canary:CanaryScheduler.*",
        "repro.obs.canary:LivenessMonitor.*",
    )),
    ("fleet.plan", ("repro.fleet.runner:plan_fleet",)),
    ("fleet.ring", (
        "repro.fleet.ring:ConsistentHashRing.__init__",
        "repro.fleet.ring:ConsistentHashRing.*",
    )),
    ("fleet.chaos", ("repro.fleet.chaos:compile_fleet_chaos",)),
    ("fleet.shard", ("repro.fleet.shardsim:simulate_shard",)),
    ("fleet.merge", (
        "repro.fleet.merge:merge_events",
        "repro.fleet.merge:fleet_digest",
        "repro.fleet.merge:merge_registries",
        "repro.fleet.merge:merge_timelines",
        "repro.fleet.merge:merge_audit",
    )),
    # run_fleet's self time is the parent waiting on the supervised
    # fan-out, plus topology and report assembly
    ("fleet.fanout", ("repro.fleet.runner:run_fleet",)),
)

#: the scenario's ``make_ops`` hook; wrapped per scenario instance by the
#: workload, since it is a closure, not a module attribute
WORKLOADS_LAYER = "workloads"

LAYER_NAMES: tuple[str, ...] = tuple(name for name, _ in LAYERS) + (WORKLOADS_LAYER,)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def set_everywhere(self, original: Callable, replacement: Callable) -> int:
        """Rebind every name of a ``repro`` module that refers to ``original``."""
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, replacement)
                    bound += 1
        return bound

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _entry_points(target: str):
    """Yield ``(owner, name, function, is_method)`` for one target spec."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if not owner_name:
        yield module, attr, getattr(module, attr), False
        return
    owner = getattr(module, owner_name)
    if attr == "*":
        for name, value in vars(owner).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(value)
                and not inspect.isgeneratorfunction(value)
            ):
                yield owner, name, value, True
        return
    value = vars(owner)[attr]
    if not inspect.isfunction(value):
        raise TypeError(f"{target} is not a plain function")
    yield owner, attr, value, True


class LayerTracer:
    """Self-time accounting over nested layer spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        #: open spans, innermost last: [layer, seconds spent in children]
        self._stack: list[list] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """Return ``fn`` timed as ``layer`` when called inside a pass."""
        if inspect.isgeneratorfunction(fn):
            # its body runs later, when the engine resumes it
            raise TypeError(f"{fn.__qualname__} is a generator function")
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack or stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, clock() - start)

        return traced

    def _close(self, frame: list, elapsed: float) -> None:
        self._stack.pop()
        layer = frame[0]
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - frame[1]
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._stack:
            self._stack[-1][1] += elapsed

    @contextmanager
    def root(self):
        """Time one pass; yields a list that receives its wall seconds."""
        if self._stack:
            raise RuntimeError("a traced pass is already open")
        wall: list[float] = []
        frame = [UNATTRIBUTED, 0.0]
        self._stack.append(frame)
        start = self._clock()
        try:
            yield wall
        finally:
            elapsed = self._clock() - start
            self._close(frame, elapsed)
            wall.append(elapsed)

    def install(self, layers=LAYERS) -> Patches:
        """Wrap every entry point of ``layers``; undo with ``.undo()``."""
        patches = Patches()
        try:
            for layer, targets in layers:
                for target in targets:
                    for owner, name, fn, is_method in _entry_points(target):
                        wrapped = self.wrap(layer, fn)
                        if is_method:
                            patches.set(owner, name, wrapped)
                        elif not patches.set_everywhere(fn, wrapped):
                            raise LookupError(f"{target} is bound nowhere")
        except BaseException:
            patches.undo()
            raise
        return patches


class EngineCounts:
    """Collects the DES engines and machines each pass creates.

    Patches only the two constructors, so a pass pays one list append per
    engine or machine; the per-event and per-instruction paths are
    untouched.  :meth:`take` sums the engines' retired events and the
    machines' executed instructions, then forgets them.
    """

    def __init__(self):
        self._envs: list = []
        self._machines: list = []

    def install(self) -> Patches:
        from repro.machine.cpu import Machine
        from repro.sim.events import Environment

        patches = Patches()
        for cls, sink in ((Environment, self._envs), (Machine, self._machines)):
            patches.set(cls, "__init__", _registering(cls.__init__, sink))
        return patches

    def take(self) -> tuple[int, int]:
        events = sum(env.events_processed for env in self._envs)
        instructions = sum(
            core.instructions for machine in self._machines for core in machine.cores
        )
        self._envs.clear()
        self._machines.clear()
        return events, instructions


def _registering(init: Callable, sink: list) -> Callable:
    @functools.wraps(init)
    def register(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sink.append(self)

    return register
