"""Virtual-time drivers: vanilla, Orthrus, and RBV deployments of a scenario.

Each driver wires a scenario into the discrete-event engine:

* **application threads** are closed-loop clients pinned to distinct app
  cores; a request's service time is the cycles its control+data path
  actually executed on the simulated machine, plus the deployment's
  bookkeeping costs (:mod:`repro.sim.costs`);
* **Orthrus validator cores** consume closure logs through a pluggable
  validation plane, applying the sampler under queueing-delay or
  memory-budget feedback.  One driver serves both planes: the reliable
  :class:`SharedStorePlane` (work-conserving, equivalent to per-core
  queues with stealing) and the fault-tolerant plane in
  :mod:`repro.harness.chaos` (bounded queues, faultable validators,
  watchdog, degradation ladder);
* **the RBV replica** replays full requests *in submission order* on a
  separate healthy server, paying serialization + network transfer per
  batch and stalling the primary when the replication lag bound is hit.

Functional execution (what values are computed, what gets detected) and
timing (when it happens in virtual seconds) are decoupled: closures run
instantaneously in Python while the engine advances virtual time by their
measured cycle cost.  This is the substitution that makes the paper's
wall-clock figures reproducible on a laptop (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.closures.log import ClosureLog
from repro.errors import ConfigurationError
from repro.machine.cpu import Machine
from repro.memory.version import approx_size
from repro.obs.audit import AuditConfig, DriftMonitor
from repro.obs.canary import CanaryScheduler, LivenessMonitor, is_canary_log
from repro.obs.exposure import ExposureLedger
from repro.obs.profiling import activation, active, make_profiler
from repro.obs.slo import SloMonitor, default_objectives
from repro.obs.timeseries import (
    TimeSeriesRecorder,
    install_audit_probes,
    install_canary_probes,
    install_default_probes,
    install_span_probes,
)
from repro.response.coordinator import ResponseCoordinator
from repro.runtime.orthrus import OrthrusRuntime
from repro.runtime.safemode import SafeModePolicy
from repro.runtime.sampling import AdaptiveSampler, SamplerConfig, sampler_decision
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.events import Environment, SimClock, Store
from repro.sim.metrics import RunMetrics

_SENTINEL = object()


@dataclass
class PipelineConfig:
    """Shared knobs for the timing drivers."""

    app_threads: int = 2
    validation_cores: int = 2
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    sampler: Any = None  # sampler instance; overrides sampler_factory
    #: called with (sampler_seed) to build the run's sampler; default
    #: builds an AdaptiveSampler
    sampler_factory: Any = None
    #: decorrelates sampler decisions across fault-injection trials while
    #: the workload seed stays fixed (the golden run must match)
    sampler_seed: int | None = None
    safe_mode: bool = False
    #: §3.5 dynamic scaling: start with a single validation thread and let
    #: the scheduler launch more (up to ``validation_cores``) when a
    #: closure's recent validation latency runs 50% above the global
    #: average.  False = all validation cores run from the start.
    dynamic_scaling: bool = False
    #: switch the sampling trigger from queueing delay to a memory budget
    #: (bytes of versions + pending logs) — the Fig 10 experiment
    memory_budget_bytes: float | None = None
    #: pre-armed machine (fault-injection trials); topology must fit
    machine: Machine | None = None
    #: (core_id, Fault) pairs armed *after* application setup/preload —
    #: the campaign injects into the serving phase, not the bulk load
    deferred_faults: tuple = ()
    #: how long validators may keep draining after the application
    #: finishes, as a fraction of the run's duration.  Detection past this
    #: window is not *timely* — the corrupted result has long been
    #: externalized — so remaining logs are dropped, exactly as a
    #: terminating production instance would drop them.
    drain_grace_fraction: float = 0.25
    #: versions reclaimed in batches of this size (§3.6); a huge value
    #: effectively disables the GC (the reclamation ablation)
    reclaim_batch: int = 16
    #: an ``repro.obs.Observability`` handle; None (the default) runs the
    #: pipeline fully uninstrumented
    obs: Any = None
    #: a ``repro.response.ResponseConfig``; when set the Orthrus driver
    #: attaches a ResponseCoordinator (arbitration + quarantine + repair)
    #: and the finalized IncidentReport lands on ``RunResult.incident``
    response: Any = None
    #: a ``repro.obs.TimeSeriesConfig``; with ``obs`` also set, the Orthrus
    #: driver runs a virtual-time sampling process over the registry and
    #: lands the recorder on ``RunResult.timeline``
    timeseries: Any = None
    #: list of ``repro.obs.SloObjective`` evaluated on every telemetry
    #: tick; None picks :func:`repro.obs.slo.default_objectives`, [] turns
    #: SLO evaluation off.  The terminal report lands on ``RunResult.slo``
    slos: Any = None
    #: a ``repro.runtime.degradation.FaultToleranceConfig``; when set the
    #: Orthrus driver runs on the fault-tolerant validation plane (bounded
    #: per-core queues, watchdog re-dispatch, degradation ladder,
    #: :mod:`repro.harness.chaos`) instead of the reliable shared store
    fault_tolerance: Any = None
    #: a ``repro.faultinject.ValidatorChaosConfig``; arms chaos faults on
    #: validation cores (implies the fault-tolerant validation plane)
    validator_faults: Any = None
    #: a ``repro.obs.CanaryConfig``; when set the Orthrus driver injects
    #: known-corrupt canary closures on its period and hold them to its
    #: detection deadline — the liveness summary lands on
    #: ``RunResult.canary`` and misses on the DetectionReport
    canary: Any = None
    #: wall-clock self-profiling (``repro.obs.profiling``): None/False =
    #: off, True = a fresh driver-owned Profiler (payload lands on
    #: ``RunResult.profile``), a ``ProfileConfig`` = owned with knobs
    #: (e.g. the sys.setprofile sampler), a ``Profiler`` instance =
    #: shared across runs — the caller installs/stops/exports it.
    #: Profiling observes wall time only; it never touches virtual time
    #: or digests (parity-tested in tests/harness/test_profile_parity.py).
    profile: Any = None
    #: an ``repro.obs.AuditConfig`` (or True for defaults); when set the
    #: Orthrus driver runs runtime drift probes (declared vs observed
    #: behavior, DESIGN §14) plus an ExposureLedger, and the terminal
    #: ``orthrus-audit/1`` payload lands on ``RunResult.audit``.
    #: Observational only: no RNG, no virtual-time perturbation of the
    #: functional path — digests are identical with auditing on or off.
    audit: Any = None
    #: closure names the sampler is *declared* to target; the static
    #: auditor cross-checks them against the closure registry (a target
    #: no app registers would be waited on forever)
    sampler_targets: tuple = ()
    seed: int = 1

    def make_sampler(self):
        if self.sampler is not None:
            return self.sampler
        seed = self.sampler_seed if self.sampler_seed is not None else self.seed
        if self.sampler_factory is not None:
            return self.sampler_factory(seed)
        return AdaptiveSampler(SamplerConfig(), seed=seed)

    def build_machine(self, extra_cores: int = 0) -> Machine:
        if self.machine is not None:
            return self.machine
        cores = self.app_threads + max(1, self.validation_cores) + extra_cores
        return Machine(cores_per_node=cores, numa_nodes=1, seed=self.seed)


@dataclass
class RunResult:
    """Metrics plus the functional state a campaign needs to classify."""

    metrics: RunMetrics
    runtime: OrthrusRuntime | None = None
    responses: list[Any] = field(default_factory=list)
    digest: int | None = None
    crashed: bool = False
    crash_reason: str = ""
    rbv_detections: int = 0
    #: finalized ``repro.response.IncidentReport`` when the run was
    #: configured with a response layer (``PipelineConfig.response``)
    incident: Any = None
    #: ``repro.obs.TimeSeriesRecorder`` when the run was configured with
    #: ``PipelineConfig.timeseries`` (and obs); None otherwise
    timeline: Any = None
    #: terminal ``repro.obs.SloReport`` for the same runs
    slo: Any = None
    #: ``repro.harness.chaos.FaultToleranceReport`` when the run used the
    #: fault-tolerant validation plane; None otherwise
    ft: Any = None
    #: canary liveness summary dict (``LivenessMonitor.summary()``) when
    #: the run was configured with ``PipelineConfig.canary``
    canary: Any = None
    #: ``orthrus-profile/1`` payload when the run owned its profiler
    #: (``PipelineConfig.profile`` of True/ProfileConfig); None otherwise
    profile: Any = None
    #: ``orthrus-audit/1`` payload (drift-probe findings + exposure
    #: ledger) when the run was configured with ``PipelineConfig.audit``
    audit: Any = None

    @property
    def detections(self) -> int:
        if self.runtime is not None:
            return self.runtime.detections
        return self.rbv_detections

    def fail(self, exc: BaseException, where: str = "") -> "RunResult":
        """Mark the run crashed (fail-stop) by ``exc``."""
        self.crashed = True
        self.crash_reason = f"{where}{type(exc).__name__}: {exc}"
        return self


def _with_profiler(config: PipelineConfig, label: str, body: Callable[[], RunResult]):
    """Run a driver body under the configured self-profiler.

    An *owned* profiler (``config.profile`` of True/ProfileConfig) is
    created, activated, stopped, and exported to ``result.profile`` here;
    a *shared* one (a Profiler instance, e.g. spanning a whole campaign)
    is only activated — its creator installs/stops/exports it.  With
    profiling off the body still runs under the *ambient* profiler's
    ``label`` scope, so a profiled benchmark sees its driver runs.
    """
    prof = make_profiler(config.profile)
    if not prof.enabled:
        with active().scope(label):
            return body()
    owned = prof is not config.profile
    with activation(prof):
        if owned and prof.sampler is not None:
            prof.sampler.install()
        try:
            with prof.scope(label):
                result = body()
        finally:
            if owned:
                prof.stop()
    if owned:
        result.profile = prof.to_payload()
    return result


def _runtime(env, machine, config, orthrus: bool, validation_cores,
             reclaim_batch: int) -> OrthrusRuntime:
    """One deployment's runtime on ``machine``: the Orthrus one checksums,
    holds versions for validation and reports to ``config.obs``; the
    vanilla and RBV ones do neither."""
    return OrthrusRuntime(
        machine=machine,
        app_cores=list(range(config.app_threads)),
        validation_cores=validation_cores,
        clock=SimClock(env),
        mode="external",
        checksums=orthrus,
        hold_versions=orthrus,
        reclaim_batch=reclaim_batch,
        obs=config.obs if orthrus else None,
    )


def _setup(scenario, server, runtime=None) -> RunResult | None:
    """Run the scenario's pre-load; a failure becomes the run's crash
    result, None means the server is ready."""
    try:
        scenario.setup(server)
    except Exception as exc:
        return RunResult(metrics=RunMetrics(), runtime=runtime).fail(exc, "setup: ")
    return None


def _serve(runtime, server, op, core, costs: CostModel):
    """Handle one request on ``core``: ``(response, error, cycles)``, where
    ``cycles`` is what the request executed plus the control path."""
    before = core.total_cycles
    response = error = None
    with runtime.bind_core(core.core_id):
        try:
            response = server.handle(op)
        except Exception as exc:
            error = exc
    return response, error, core.total_cycles - before + costs.control_path_cycles


def _finish(result: RunResult, env: Environment, responses, server,
            machines) -> RunResult:
    """Close a run: its responses, the state digest (None after a crash),
    and the run's throughput counters folded into the active profiler."""
    result.responses = responses
    result.digest = server.state_digest() if not result.crashed else None
    prof = active()
    if prof.enabled:
        prof.add_events(env.events_processed)
        prof.add_instructions(
            sum(core.instructions for machine in machines for core in machine.cores)
        )
    return result


def _orthrus_overhead_cycles(log: ClosureLog, costs: CostModel) -> float:
    """Per-closure bookkeeping the modified application pays (§4.2)."""
    versions = len(log.output_versions)
    tracked_accesses = len(log.inputs) + versions
    cycles = costs.log_base_cycles
    cycles += costs.log_per_version_cycles * versions
    cycles += costs.pointer_indirection_cycles * tracked_accesses
    # CRC generation per created version, plus one boundary probe for the
    # payload that entered the closure from the control path (§3.4).
    cycles += costs.checksum_cycles(64) * (versions + 1)
    return cycles


def _profiled_environment() -> Environment:
    """A fresh engine that reports to the active self-profiler, if any."""
    prof = active()
    env = Environment()
    if prof.enabled:
        env.profiler = prof
    return env


def _track_memory(prof, metrics: RunMetrics, heap, server, pending_bytes=0) -> None:
    """Raise the run's peak live and versioned footprints to the current
    ones: the heap, the app's own resident extras, and queued logs."""
    t0 = prof.now() if prof.enabled else 0
    extra = (
        server.resident_bytes_extra()
        if hasattr(server, "resident_bytes_extra")
        else 0
    )
    metrics.peak_live_bytes = max(metrics.peak_live_bytes, heap.live_bytes + extra)
    metrics.peak_versioned_bytes = max(
        metrics.peak_versioned_bytes, heap.versioned_bytes + pending_bytes + extra
    )
    if prof.enabled:
        prof.lap("memory.size", t0)


class OrthrusRun:
    """The state one Orthrus run shares between the driver and its plane.

    The driver owns the application side: app threads, canaries, audit
    and telemetry processes, and finalization.  A validation plane
    (:class:`SharedStorePlane`, or
    :class:`repro.harness.chaos.FaultTolerantPlane`) owns what happens to
    a closure log between ``submit`` and its verdict.
    """

    def __init__(self, env, config, scenario, machine, runtime, server, sampler,
                 metrics, val_cores):
        self.env = env
        self.config = config
        self.machine = machine
        self.runtime = runtime
        self.obs = runtime.obs
        self.server = server
        self.sampler = sampler
        self.metrics = metrics
        self.val_cores = val_cores
        #: strict safe mode (§3.5); the degradation ladder may engage it
        self.safe_policy = SafeModePolicy(
            enabled=config.safe_mode,
            externalizing=frozenset(scenario.externalizing),
        )
        #: bytes of logs queued for validation
        self.pending_bytes = 0
        #: seq -> event a safe-mode hold waits on; fired at settlement
        self.done_events: dict[int, Any] = {}
        #: end of the timely-detection window, set once the apps finish
        self.deadline = float("inf")
        self.apps_done = False
        #: drift monitor and exposure ledger; None with auditing off
        self.drift = None
        self.exposure = None
        #: the exposure window one skipped validation opens: the key stays
        #: unprotected until its next validation opportunity, which the
        #: sampler bounds by its staleness threshold (DESIGN §14)
        self.stale_s = float(
            getattr(getattr(sampler, "config", None), "staleness_threshold", 2e-3)
        )
        self.dispatch_s = config.costs.seconds(config.costs.validation_dispatch_cycles)
        self.prof = active()

    def track_memory(self) -> None:
        _track_memory(
            self.prof, self.metrics, self.runtime.heap, self.server,
            self.pending_bytes,
        )

    def memory_in_use(self) -> float:
        return self.runtime.heap.versioned_bytes + self.pending_bytes

    def release(self, log) -> None:
        """Fire the event a safe-mode hold on ``log`` waits for."""
        event = self.done_events.pop(log.seq, None)
        if event is not None:
            event.succeed()

    # -- validator-loop steps both planes share, in the order they run --
    def decide(self, log, now: float):
        """Feed the sampler its load signal, then ask it about ``log`` (§3.5)."""
        prof, sampler, config = self.prof, self.sampler, self.config
        t0 = prof.now() if prof.enabled else 0
        if config.memory_budget_bytes is not None:
            sampler.observe_memory(self.memory_in_use(), config.memory_budget_bytes)
        else:
            sampler.observe_delay(now - log.enqueue_time)
        decision = sampler_decision(sampler, log, now)
        if prof.enabled:
            prof.lap("sampler.decide", t0)
        return decision

    def decision_metrics(self, log, now: float, decision) -> None:
        """Queue delay at dispatch, plus the sampler verdict (None: a canary)."""
        registry = self.obs.registry
        registry.histogram(
            "orthrus_queue_delay_seconds",
            help="log age (enqueue to dequeue) at each validator dispatch",
        ).record(now - log.enqueue_time)
        if decision is not None:
            registry.counter(
                "orthrus_sampler_decisions_total",
                {
                    "decision": "validate" if decision.validate else "skip",
                    "reason": decision.reason,
                },
                help="sampler verdicts by outcome and reason",
            ).inc()

    def output_bytes(self, log) -> int:
        """The log plus the versions it created: what the comparison reads.

        Significant for Phoenix's container-sized outputs, negligible for
        KV items.  Taken before re-execution, which may reclaim the versions.
        """
        heap = self.runtime.heap
        output_bytes = log.approx_bytes()
        for vid in log.output_versions:
            try:
                output_bytes += heap.version(vid).size
            except Exception:
                pass
        return output_bytes

    def validation_cycles(self, core, log, work_cycles, output_bytes) -> float:
        """Busy cycles for one validation on ``core``: dispatch, the
        re-execution work, a bitwise compare of the outputs, and a
        cross-NUMA penalty when the log and its versions are cold in this
        core's L3 (§3.5 prefers same-node placement).  Canary probes carry
        a synthetic app core (-1), so no NUMA placement applies to them."""
        costs = self.config.costs
        busy = costs.validation_dispatch_cycles + work_cycles
        busy += costs.compare_cycles_per_byte * output_bytes
        if log.core_id >= 0 and (
            self.machine.core(log.core_id).numa_node != core.numa_node
        ):
            busy += costs.cross_numa_penalty_cycles
        return busy

    def credit(self, log) -> None:
        """An organic log's verdict just landed: feed the sampler, the
        latency-driven scaling stats and the coverage metrics."""
        now = self.env.now
        self.sampler.on_validated(log, now)
        latency = now - log.enqueue_time
        self.metrics.validation_latency.add(latency)
        self.runtime.latency.record(log.closure_name, latency)
        self.metrics.validated += 1

    def verdict_spans(self, log, now: float, core_id: int, passed, **attrs) -> None:
        """The causal chain from dequeue (``now``) to the verdict (now)
        tiles: dispatch covers the fixed dispatch cost, validate the
        re-execution and comparison (plus any cross-NUMA penalty)."""
        spans, end = self.obs.spans, self.env.now
        dispatched = now + self.dispatch_s
        spans.record(
            "dispatch", log.seq, now, dispatched,
            closure=log.closure_name, core=core_id,
        )
        spans.record(
            "validate", log.seq, dispatched, end,
            closure=log.closure_name, core=core_id, **attrs,
        )
        spans.record(
            "verdict", log.seq, end, end, closure=log.closure_name, passed=passed
        )


# ----------------------------------------------------------------------
# Vanilla
# ----------------------------------------------------------------------
def run_vanilla_server(scenario, n_ops: int, config: PipelineConfig) -> RunResult:
    """The unmodified application: no logging, no checksums, no validator."""
    return _with_profiler(
        config, "driver.vanilla", lambda: _run_vanilla_impl(scenario, n_ops, config)
    )


def _run_vanilla_impl(scenario, n_ops: int, config: PipelineConfig) -> RunResult:
    prof, env = active(), _profiled_environment()
    machine = config.build_machine()
    runtime = _runtime(env, machine, config, False, [config.app_threads], 64)
    server = scenario.build(runtime)
    crash = _setup(scenario, server, runtime)
    if crash is not None:
        return crash
    for core_id, fault in config.deferred_faults:
        machine.arm(core_id, fault)
    ops = scenario.make_ops(n_ops, config.seed)
    costs = config.costs
    metrics = RunMetrics()
    result = RunResult(metrics=metrics, runtime=runtime)
    responses: list[Any] = [None] * len(ops)

    def app_thread(thread_id: int):
        core = machine.core(thread_id)
        for index in range(thread_id, len(ops), config.app_threads):
            began = env.now
            response, error, cycles = _serve(runtime, server, ops[index], core, costs)
            if error is not None:
                result.fail(error)
                return
            responses[index] = response
            yield env.timeout(costs.seconds(cycles))
            metrics.request_latency.add(env.now - began)
            metrics.operations += 1
            _track_memory(prof, metrics, runtime.heap, server)

    threads = [env.process(app_thread(i)) for i in range(config.app_threads)]
    env.run(until=env.all_of(threads))
    metrics.duration = env.now
    return _finish(result, env, responses, server, [machine])


# ----------------------------------------------------------------------
# Orthrus
# ----------------------------------------------------------------------
class SharedStorePlane:
    """The reliable validation plane: one work-conserving shared store
    (equivalent to per-core queues with stealing) drained by immortal
    validator processes, with §3.5 dynamic scaling.  Shutdown hands each
    validator a sentinel; logs dequeued past the drain deadline are
    skipped."""

    label = "driver.orthrus"

    def __init__(self, run: OrthrusRun):
        self.run = run
        self.store = Store(run.env)
        self.validators: list[Any] = []
        if run.obs.enabled:
            # The shared log store is the pipeline's (work-conserving)
            # analogue of the per-core queues; expose its depth the same way.
            run.obs.registry.gauge(
                "orthrus_log_store_depth",
                help="pending closure logs in the shared validation store",
            ).set_function(lambda: float(len(self.store)))

    def submit(self, log, **where):
        run = self.run
        now = run.env.now
        log.enqueue_time = now
        run.pending_bytes += log.approx_bytes()
        self.store.put(log)
        obs = run.obs
        if obs.enabled:
            # Closure execution plus the control path up to the simulated
            # enqueue, so queue.wait tiles against it exactly.
            obs.spans.record(
                "closure.run", log.seq, log.start_time, now,
                closure=log.closure_name, **where,
            )
            if not is_canary_log(log):
                # only organic traffic counts as queue pushes
                obs.registry.counter(
                    "orthrus_queue_pushes_total", {"queue": "store"},
                    help="closure logs enqueued for validation",
                ).inc()
                obs.tracer.emit(
                    "queue.push",
                    ts=now,
                    queue="store",
                    seq=log.seq,
                    closure=log.closure_name,
                    depth=len(self.store),
                )
        yield from ()  # never blocks: the store is unbounded

    def _spawn(self, core_id: int) -> None:
        run = self.run
        self.validators.append(
            run.env.process(self._validator(run.machine.core(core_id)))
        )

    def _validator(self, core):
        """One validation core: dequeue → sample → re-execute (§3.3).

        Ends when it dequeues the shutdown sentinel.  Logs dequeued past
        ``run.deadline`` (the end of the timely-detection window) are skipped
        unvalidated.  The verdict comes first and the core then stays busy
        for its cost.
        """
        run, log_store = self.run, self.store
        env, runtime, metrics, obs = run.env, run.runtime, run.metrics, run.obs
        release, track_memory = run.release, run.track_memory
        drift, exposure, stale_s = run.drift, run.exposure, run.stale_s
        costs = run.config.costs
        while True:
            log = yield log_store.get()
            if log is _SENTINEL:
                return
            run.pending_bytes -= log.approx_bytes()
            now = env.now
            if now > run.deadline:
                if obs.enabled:
                    obs.registry.counter(
                        "orthrus_deadline_drops_total",
                        help="logs dropped past the timely-detection window",
                    ).inc()
                    obs.spans.record(
                        "queue.wait", log.seq, log.enqueue_time, now,
                        closure=log.closure_name,
                    )
                    obs.spans.record(
                        "drop", log.seq, now, now,
                        closure=log.closure_name, reason="deadline",
                    )
                runtime.validator.skip(log)
                metrics.skipped += 1
                if exposure is not None:
                    exposure.record(
                        log.closure_name,
                        "deadline",
                        (now - log.enqueue_time) + stale_s,
                    )
                release(log)
                continue
            if is_canary_log(log):
                # Canary probes bypass the sampler — a skipped canary proves
                # nothing — and stay out of the run's coverage metrics.
                outcome = runtime.validator.validate(log, core)
                if drift is not None:
                    drift.verdict(core.core_id)
                busy = run.validation_cycles(
                    core, log, outcome.val_cycles, log.approx_bytes()
                )
                yield env.timeout(costs.seconds(busy))
                log.validated_time = env.now
                if obs.enabled:
                    obs.spans.record(
                        "queue.wait", log.seq, log.enqueue_time, now,
                        closure=log.closure_name,
                    )
                    run.verdict_spans(log, now, core.core_id, outcome.passed)
                release(log)
                track_memory()
                continue
            decision = run.decide(log, now)
            if obs.enabled:
                run.decision_metrics(log, now, decision)
                obs.tracer.emit(
                    "sampler.decision",
                    ts=now,
                    closure=log.closure_name,
                    caller=log.caller,
                    seq=log.seq,
                    validate=decision.validate,
                    reason=decision.reason,
                    rate=getattr(run.sampler, "rate", 1.0),
                )
                obs.spans.record(
                    "queue.wait", log.seq, log.enqueue_time, now,
                    closure=log.closure_name,
                )
            if decision.validate:
                output_bytes = run.output_bytes(log)
                outcome = runtime.validator.validate(log, core)
                if drift is not None:
                    drift.verdict(core.core_id)
                if runtime.responder is not None:
                    runtime.responder.on_outcome(outcome)
                busy = run.validation_cycles(core, log, outcome.val_cycles, output_bytes)
                yield env.timeout(costs.seconds(busy))
                log.validated_time = env.now
                run.credit(log)
                if obs.enabled:
                    run.verdict_spans(log, now, core.core_id, outcome.passed)
            else:
                runtime.validator.skip(log)
                if exposure is not None:
                    exposure.record(log.closure_name, "sampled-out", stale_s)
                if obs.enabled:
                    obs.spans.record(
                        "skip", log.seq, now, now,
                        closure=log.closure_name, reason=decision.reason,
                    )
                yield env.timeout(costs.seconds(costs.skip_cycles))
                metrics.skipped += 1
            release(log)
            track_memory()

    def start(self) -> None:
        run = self.run
        if not run.config.dynamic_scaling:
            for core_id in run.val_cores:
                self._spawn(core_id)
            return
        # §3.5 dynamic scaling: one validation thread to start; the
        # scheduler launches another whenever some closure's recent
        # validation latency runs 50% above the global average, up to the
        # configured core budget.
        self._spawn(run.val_cores[0])
        reserve = list(run.val_cores[1:])

        def scaling_monitor():
            while reserve and not run.apps_done:
                yield run.env.timeout(5e-6)
                if run.runtime.latency.closures_needing_help():
                    self._spawn(reserve.pop(0))

        run.env.process(scaling_monitor())

    def probes_done(self, canaries_outstanding: int = 0) -> bool:
        return self.run.apps_done and canaries_outstanding == 0

    def drain(self):
        for _ in self.validators:
            self.store.put(_SENTINEL)
        yield self.run.env.all_of(self.validators)

    def finish(self, result: RunResult) -> None:
        pass


def run_orthrus_server(scenario, n_ops: int, config: PipelineConfig) -> RunResult:
    """The Orthrus deployment: logging + asynchronous sampled validation,
    on the validation plane :func:`validation_plane` selects."""
    return _run_orthrus(scenario, n_ops, config)


def validation_plane(config: PipelineConfig, plane=None):
    """The validation plane class an Orthrus run uses, checked against
    ``config``.

    ``fault_tolerance`` or ``validator_faults`` selects the fault-tolerant
    plane (:mod:`repro.harness.chaos`); otherwise validators drain the
    reliable shared store.  ``plane`` overrides the choice.
    """
    if plane is None:
        if config.fault_tolerance is None and config.validator_faults is None:
            plane = SharedStorePlane
        else:
            from repro.harness.chaos import FaultTolerantPlane as plane
    if config.validation_cores < 1:
        raise ConfigurationError("Orthrus needs at least one validation core")
    if config.dynamic_scaling and plane is not SharedStorePlane:
        raise ConfigurationError(
            "dynamic_scaling needs the shared validation plane; the "
            "fault-tolerant plane runs every validation core from the start"
        )
    return plane


def _run_orthrus(scenario, n_ops: int, config: PipelineConfig,
                 plane=None) -> RunResult:
    """Run the Orthrus deployment on ``plane`` (default: the selected one)."""
    plane = validation_plane(config, plane)
    return _with_profiler(
        config, plane.label,
        lambda: _run_orthrus_impl(scenario, n_ops, config, plane),
    )


def _run_orthrus_impl(scenario, n_ops: int, config: PipelineConfig, plane_cls):
    env = _profiled_environment()
    machine = config.build_machine()
    val_cores = [config.app_threads + i for i in range(config.validation_cores)]
    runtime = _runtime(env, machine, config, True, val_cores, config.reclaim_batch)
    sampler = config.make_sampler()
    obs = runtime.obs
    responder = None
    if config.response is not None:
        responder = ResponseCoordinator(runtime, config.response)
    server = scenario.build(runtime)
    runtime._hold_versions = False  # setup closures are not validated
    crash = _setup(scenario, server, runtime)
    if crash is not None:
        return crash
    runtime._hold_versions = True
    for core_id, fault in config.deferred_faults:
        machine.arm(core_id, fault)
    ops = scenario.make_ops(n_ops, config.seed)
    costs = config.costs
    metrics = RunMetrics()
    result = RunResult(metrics=metrics, runtime=runtime)
    responses: list[Any] = [None] * len(ops)
    request_logs: list[ClosureLog] = []
    runtime._on_log = request_logs.append

    run = OrthrusRun(
        env, config, scenario, machine, runtime, server, sampler, metrics, val_cores
    )
    plane = plane_cls(run)
    drift = exposure = None
    if config.audit is not None:
        # The declared coverage floor defaults to the sampler's configured
        # minimum rate: the contract the drift probe holds observed
        # organic coverage against.
        audit_cfg = AuditConfig() if config.audit is True else config.audit
        exposure = ExposureLedger(registry=obs.registry if obs.enabled else None)
        drift = DriftMonitor(
            audit_cfg,
            declared_pool=config.validation_cores,
            coverage_floor=float(
                getattr(getattr(sampler, "config", None), "min_rate", 0.0)
            ),
            metrics=metrics,
            obs=obs,
            exposure=exposure,
        )
    run.drift, run.exposure = drift, exposure
    done_events = run.done_events
    safe_policy = run.safe_policy
    recorder = None
    slo_monitor = None
    if config.timeseries is not None and obs.enabled:
        recorder = TimeSeriesRecorder(obs.registry, config.timeseries)
        install_default_probes(recorder)
        if obs.spans.enabled:
            install_span_probes(recorder)
        if config.canary is not None:
            install_canary_probes(recorder)
        if drift is not None:
            install_audit_probes(recorder)
        slo_monitor = SloMonitor(
            recorder,
            objectives=(
                config.slos if config.slos is not None else default_objectives()
            ),
            tracer=obs.tracer,
            report=runtime.report,
        )

    def app_thread(thread_id: int):
        core = machine.core(thread_id)
        submit = plane.submit
        for index in range(thread_id, len(ops), config.app_threads):
            began = env.now
            response, error, cycles = _serve(runtime, server, ops[index], core, costs)
            if error is not None:
                result.fail(error)
                return
            responses[index] = response
            logs = list(request_logs)
            request_logs.clear()
            cycles += sum(_orthrus_overhead_cycles(log, costs) for log in logs)
            yield env.timeout(costs.seconds(cycles))
            hold: list[Any] = []
            for log in logs:
                event = env.event()
                done_events[log.seq] = event
                if safe_policy.must_hold(log.closure_name):
                    hold.append(event)
                yield from submit(log, core=thread_id)
            if hold:
                # Safe mode (static or SAFE_HOLD-engaged): withhold
                # externalizing results until their logs settle (§3.5).
                yield env.all_of(hold)
            metrics.request_latency.add(env.now - began)
            metrics.operations += 1
            if obs.enabled:
                obs.registry.counter(
                    "orthrus_requests_total", help="completed application requests"
                ).inc()
                obs.registry.histogram(
                    "orthrus_request_latency_seconds",
                    help="request begin to response (incl. safe-mode holds)",
                ).record(env.now - began)
            run.track_memory()

    threads = [env.process(app_thread(i)) for i in range(config.app_threads)]
    plane.start()

    if recorder is not None:
        # A dedicated virtual-time sampling process: telemetry must tick
        # even while every app thread is blocked (safe-mode holds,
        # backpressure) — that is exactly when queue depth and lag are
        # interesting.  The loop is simply abandoned when the coordinator
        # fires; its one pending timeout dies with the environment.
        def telemetry_process():
            while True:
                recorder.sample(env.now)
                yield env.timeout(recorder.cadence)

        env.process(telemetry_process())

    canary_monitor = None
    if config.canary is not None:
        canary_sched = CanaryScheduler(config.canary, seed=config.seed)
        canary_monitor = LivenessMonitor(config.canary, runtime.report, obs=obs)
        if drift is not None:
            drift.attach_canary(canary_monitor)

        def canary_issuer():
            # Mint known-corrupt probes through the same plane the organic
            # traffic uses: liveness of the whole validation plane — not
            # just of one component — is what the canary measures, and
            # whatever strands real logs strands them too.
            while True:
                yield env.timeout(config.canary.period)
                if run.apps_done:
                    return
                runtime._seq += 1
                log = canary_sched.next_log(runtime._seq, env.now)
                canary_monitor.issue(log, env.now)
                done_events[log.seq] = env.event()
                yield from plane.submit(log)

        def canary_poller():
            step = config.canary.deadline / 4
            while True:
                yield env.timeout(step)
                canary_monitor.poll(env.now)
                if plane.probes_done(canary_monitor.outstanding):
                    return

        env.process(canary_issuer())
        env.process(canary_poller())

    if drift is not None:
        # Drift probes ride their own virtual-time cadence, like
        # telemetry: declared-vs-observed contradictions must surface even
        # while the app threads are blocked.  Abandoned at teardown.
        def audit_probe_process():
            while True:
                yield env.timeout(drift.config.cadence)
                drift.probe(env.now)
                if plane.probes_done():
                    return

        env.process(audit_probe_process())

    def coordinator():
        yield env.all_of(threads)
        run.apps_done = True
        metrics.duration = env.now
        run.deadline = env.now * (1 + config.drain_grace_fraction)
        yield from plane.drain()

    env.run(until=env.process(coordinator()))
    metrics.detections = runtime.detections
    if canary_monitor is not None:
        # Settle overdue canaries before the final telemetry flush so the
        # last timeline sample sees every miss.
        canary_monitor.finalize(env.now)
        result.canary = canary_monitor.summary()
    if drift is not None:
        # One terminal probe (so the last timeline sample sees every
        # violation counter), then freeze the audit payload.
        result.audit = drift.finalize(env.now)
    if recorder is not None:
        # Final flush: one forced sample so the tail of the run (the drain
        # phase) is in the series, then freeze the SLO verdicts.
        recorder.sample(env.now, force=True)
        result.timeline = recorder
        result.slo = slo_monitor.finalize(env.now)
    if responder is not None and not result.crashed:
        result.incident = responder.finalize()
    plane.finish(result)
    return _finish(result, env, responses, server, [machine])


# ----------------------------------------------------------------------
# RBV
# ----------------------------------------------------------------------
def run_rbv_server(scenario, n_ops: int, config: PipelineConfig) -> RunResult:
    """Replication-based validation: full re-execution on a replica server.

    The replica gets the same number of cores as the application (§4.2)
    but data dependencies force it to replay requests sequentially; the
    primary pays serialization + batched network forwarding and stalls at
    the replication-lag bound.
    """
    return _with_profiler(
        config, "driver.rbv", lambda: _run_rbv_impl(scenario, n_ops, config)
    )


def _run_rbv_impl(scenario, n_ops: int, config: PipelineConfig) -> RunResult:
    env = _profiled_environment()
    costs = config.costs
    primary_machine = config.build_machine()
    replica_machine = Machine(
        cores_per_node=config.app_threads + 1, numa_nodes=1, seed=config.seed + 7919
    )
    instances = []
    for machine in (primary_machine, replica_machine):
        runtime = _runtime(env, machine, config, False, [config.app_threads], 64)
        server = scenario.build(runtime)
        crash = _setup(scenario, server)
        if crash is not None:
            return crash
        instances.append((runtime, server))
    (primary_runtime, primary), (replica_runtime, replica) = instances
    for core_id, fault in config.deferred_faults:
        primary_machine.arm(core_id, fault)

    ops = scenario.make_ops(n_ops, config.seed)
    metrics = RunMetrics()
    result = RunResult(metrics=metrics, runtime=None)
    responses: list[Any] = [None] * len(ops)
    repl_store = Store(env)
    inflight = [0]
    stall_events: list[Any] = []
    detections = [0]

    def app_thread(thread_id: int):
        core = primary_machine.core(thread_id)
        for index in range(thread_id, len(ops), config.app_threads):
            began = env.now
            op = ops[index]
            response, error, cycles = _serve(primary_runtime, primary, op, core, costs)
            responses[index] = response
            payload = approx_size(response) + approx_size(op.value) + 64
            # Forward at execution time so the replica replays requests in
            # the primary's processing order (§4.1) — forwarding after the
            # service delay would let two primary threads reorder.
            repl_store.put((op, response, error, env.now, payload))
            cycles += costs.rbv_primary_overhead_cycles
            cycles += costs.serialize_cycles_per_byte * payload
            yield env.timeout(costs.seconds(cycles))
            inflight[0] += 1
            if inflight[0] > costs.rbv_max_lag:
                # Replication backpressure: the bounded queue is full; the
                # primary blocks until the replica drains half the window
                # (hysteresis — stalled requests wait out whole batch
                # rounds), the source of RBV's enormous tail latencies.
                gate = env.event()
                stall_events.append(gate)
                yield gate
            metrics.request_latency.add(env.now - began)
            metrics.operations += 1
            metrics.peak_live_bytes = max(
                metrics.peak_live_bytes, primary_runtime.heap.live_bytes
            )
            # RBV's memory cost: the full replica state plus the in-flight
            # replication buffer.
            metrics.peak_versioned_bytes = max(
                metrics.peak_versioned_bytes,
                primary_runtime.heap.live_bytes + replica_runtime.heap.live_bytes,
            )
            if error is not None:
                result.fail(error)
                return

    def replica_process():
        # Response comparison is per-request; full state digests are only
        # comparable at quiescence (the coordinator's final check) because
        # the primary keeps executing while the replica replays.
        replica_core = replica_machine.core(0)
        while True:
            first = yield repl_store.get()
            if first is _SENTINEL:
                return
            batch = [first]
            stop = False
            while len(batch) < costs.rbv_batch_size and len(repl_store):
                item = yield repl_store.get()
                if item is _SENTINEL:
                    stop = True
                    break
                batch.append(item)
            total_bytes = sum(item[4] for item in batch)
            yield env.timeout(costs.network_transfer_s(total_bytes))
            for op, primary_response, primary_error, completed_at, _ in batch:
                replica_response, replica_error, cycles = _serve(
                    replica_runtime, replica, op, replica_core, costs
                )
                yield env.timeout(costs.seconds(cycles))
                diverged = (
                    type(primary_error) is not type(replica_error)
                    or primary_response != replica_response
                )
                if diverged:
                    detections[0] += 1
                metrics.validation_latency.add(env.now - completed_at)
                metrics.validated += 1
                inflight[0] -= 1
                if inflight[0] <= costs.rbv_max_lag // 2:
                    while stall_events:
                        stall_events.pop(0).succeed()
            if stop:
                return

    threads = [env.process(app_thread(i)) for i in range(config.app_threads)]
    replica_proc = env.process(replica_process())

    def coordinator():
        yield env.all_of(threads)
        metrics.duration = env.now
        repl_store.put(_SENTINEL)
        yield replica_proc
        if not result.crashed and primary.state_digest() != replica.state_digest():
            detections[0] += 1

    env.run(until=env.process(coordinator()))
    metrics.detections = detections[0]
    result.rbv_detections = detections[0]
    return _finish(result, env, responses, primary, [primary_machine, replica_machine])
