"""Chaos driver: the Orthrus deployment under validation-plane faults.

:func:`run_chaos_server` is the fault-tolerant sibling of
:func:`repro.harness.pipeline.run_orthrus_server`.  Where the plain driver
models the validation plane as a reliable shared store drained by
immortal validator processes, this driver models what production actually
has — per-core *bounded* queues with work stealing, validator cores that
crash / hang / slow down / lose verdicts (chaos-injected via
:mod:`repro.faultinject.validator_faults`), a
:class:`~repro.validation.watchdog.ValidationWatchdog` that re-dispatches
stranded logs, and a
:class:`~repro.runtime.degradation.DegradationController` that walks the
explicit degradation ladder instead of letting coverage rot silently.

The driver's contract is *conservation*: every closure log produced by
the application reaches exactly one terminal state — validated, skipped
by the sampler, dropped with a reason counter, or degraded to a CRC
checksum fallback — no matter which validator faults fire.  The
:class:`~repro.validation.watchdog.ValidationLedger` enforces it and the
chaos tests assert it.

Liveness under total validation-plane death (every validator crashed or
quarantined) is handled by the watchdog tick: pending logs are settled as
checksum fallbacks so application threads blocked on safe-mode holds are
always released.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.detection import DetectionEvent
from repro.errors import ConfigurationError
from repro.faultinject.validator_faults import (
    ValidatorFaultBox,
    ValidatorFaultKind,
)
from repro.harness.pipeline import (
    PipelineConfig,
    RunResult,
    _audit_setup,
    _exposure_staleness,
    _finish_profile,
    _orthrus_overhead_cycles,
    _with_profiler,
)
from repro.memory.checksum import checksum_of
from repro.obs.canary import CanaryScheduler, LivenessMonitor, is_canary_log
from repro.obs.profiling import active as profiling_active
from repro.obs.slo import SloMonitor, default_objectives
from repro.obs.timeseries import (
    TimeSeriesRecorder,
    install_audit_probes,
    install_canary_probes,
    install_default_probes,
    install_span_probes,
)
from repro.response.coordinator import ResponseCoordinator
from repro.response.quarantine import QuarantineManager
from repro.runtime.degradation import (
    DegradationController,
    DegradationLevel,
    FaultToleranceConfig,
)
from repro.runtime.orthrus import OrthrusRuntime
from repro.runtime.safemode import SafeModePolicy
from repro.runtime.sampling import COVERAGE_REASONS, sampler_decision
from repro.sim.events import Environment, SimClock, Store
from repro.sim.metrics import RunMetrics
from repro.validation.queues import QueueSet
from repro.validation.watchdog import ValidationLedger, ValidationWatchdog

#: wake-channel token: "one accepted push happened, somebody dequeue"
_TOKEN = object()


@dataclass
class FaultToleranceReport:
    """Everything a chaos run reports about its validation plane."""

    ledger: dict = field(default_factory=dict)
    conserved: bool = True
    #: watchdog counters
    dispatches: int = 0
    timeouts: int = 0
    redispatches: int = 0
    duplicates: int = 0
    exhausted: int = 0
    #: degradation ladder (None when the controller was disabled)
    degradation: dict | None = None
    terminal_level: str = "normal"
    peak_level: str = "normal"
    #: validation cores the watchdog fed into quarantine
    quarantined_validators: list[int] = field(default_factory=list)
    #: armed chaos plan, by kind
    faulted_cores: dict[str, list[int]] = field(default_factory=dict)
    #: digest of the chaos config — the replay handle
    chaos_digest: str | None = None
    queue_drops: dict[str, int] = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "conserved": self.conserved,
            "ledger": self.ledger,
            "watchdog": {
                "dispatches": self.dispatches,
                "timeouts": self.timeouts,
                "redispatches": self.redispatches,
                "duplicates": self.duplicates,
                "exhausted": self.exhausted,
            },
            "degradation": self.degradation,
            "terminal_level": self.terminal_level,
            "peak_level": self.peak_level,
            "quarantined_validators": self.quarantined_validators,
            "faulted_cores": self.faulted_cores,
            "chaos_digest": self.chaos_digest,
            "queue_drops": self.queue_drops,
        }


def run_chaos_server(scenario, n_ops: int, config: PipelineConfig) -> RunResult:
    """Run the Orthrus deployment with a fault-tolerant validation plane."""
    if config.validation_cores < 1:
        raise ConfigurationError("Orthrus needs at least one validation core")
    return _with_profiler(
        config, "driver.chaos", lambda: _run_chaos_impl(scenario, n_ops, config)
    )


def _run_chaos_impl(scenario, n_ops: int, config: PipelineConfig) -> RunResult:
    ft = (
        config.fault_tolerance
        if config.fault_tolerance is not None
        else FaultToleranceConfig()
    )
    prof = profiling_active()
    env = Environment()
    if prof.enabled:
        env.profiler = prof
    machine = config.build_machine()
    app_cores = list(range(config.app_threads))
    val_cores = [config.app_threads + i for i in range(config.validation_cores)]
    runtime = OrthrusRuntime(
        machine=machine,
        app_cores=app_cores,
        validation_cores=val_cores,
        clock=SimClock(env),
        mode="external",
        checksums=True,
        reclaim_batch=config.reclaim_batch,
        obs=config.obs,
    )
    sampler = config.make_sampler()
    obs = runtime.obs
    responder = None
    if config.response is not None:
        responder = ResponseCoordinator(runtime, config.response)
    server = scenario.build(runtime)
    runtime._hold_versions = False  # setup closures are not validated
    try:
        scenario.setup(server)
    except Exception as exc:
        return RunResult(
            metrics=RunMetrics(),
            runtime=runtime,
            crashed=True,
            crash_reason=f"setup: {type(exc).__name__}: {exc}",
        )
    runtime._hold_versions = True
    for core_id, fault in config.deferred_faults:
        machine.arm(core_id, fault)

    # ------------------------------------------------------------------
    # validation-plane machinery
    # ------------------------------------------------------------------
    queues = QueueSet(
        len(val_cores),
        capacity=ft.queue_capacity,
        policy=ft.overflow_policy,
        obs=obs,
    )
    queue_index_by_core = {core_id: i for i, core_id in enumerate(val_cores)}
    ledger = ValidationLedger()
    safe_policy = SafeModePolicy(
        enabled=config.safe_mode,
        externalizing=frozenset(scenario.externalizing),
    )
    controller = None
    if ft.degradation is not None:
        controller = DegradationController(
            ft.degradation,
            obs=obs,
            # A user-requested safe mode always holds; only let the ladder
            # drive the policy when it is not statically on.
            safe_mode=None if config.safe_mode else safe_policy,
        )
    quarantine = (
        responder.quarantine
        if responder is not None
        else QuarantineManager(
            machine=machine,
            scheduler=runtime.scheduler,
            heap=runtime.heap,
            obs=obs,
        )
    )
    chaos = config.validator_faults
    box = ValidatorFaultBox(chaos.plan(val_cores) if chaos is not None else ())
    #: validator cores still consuming work (not crashed/hung/quarantined)
    alive: set[int] = set(val_cores)

    def on_offender(core_id: int, when: float) -> None:
        # An offender already represents ``offender_threshold`` missed
        # deadlines; record them as that many faults so the health score
        # crosses the quarantine threshold in one report.
        newly = False
        for _ in range(max(1, watchdog.config.offender_threshold)):
            newly = quarantine.record_fault(core_id, when) or newly
        if responder is not None:
            responder.report.add(
                when,
                "watchdog-offender",
                f"validation core {core_id} repeatedly missed deadlines"
                + (" -> quarantined" if newly else ""),
            )
        if newly:
            alive.discard(core_id)
            # Hand the quarantined core's backlog to the healthy queues.
            for orphan in queues.drain_queue(queue_index_by_core[core_id]):
                enqueue(orphan, when)

    watchdog = ValidationWatchdog(ft.watchdog, obs=obs, on_offender=on_offender)

    ops = scenario.make_ops(n_ops, config.seed)
    metrics = RunMetrics()
    result = RunResult(metrics=metrics, runtime=runtime)
    responses_by_index: dict[int, Any] = {}
    pending_bytes = [0]
    request_logs: list[Any] = []
    runtime._on_log = request_logs.append
    done_events: dict[int, Any] = {}
    deadline = [float("inf")]
    redispatch_pending = [0]
    apps_done = [False]
    stop = [False]

    drift, exposure = _audit_setup(config, sampler, metrics, obs)
    if drift is not None:
        # The conservation ledger is the residual-drift signal: work
        # outstanding while nothing settles means the plane is wedged.
        drift.attach_ledger(ledger)
    stale_s = _exposure_staleness(sampler)

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

    def track_memory() -> None:
        t0 = prof.now() if prof.enabled else 0
        extra = (
            server.resident_bytes_extra()
            if hasattr(server, "resident_bytes_extra")
            else 0
        )
        metrics.peak_live_bytes = max(
            metrics.peak_live_bytes, runtime.heap.live_bytes + extra
        )
        metrics.peak_versioned_bytes = max(
            metrics.peak_versioned_bytes,
            runtime.heap.versioned_bytes + pending_bytes[0] + extra,
        )
        if prof.enabled:
            prof.lap("memory.size", t0)

    def memory_in_use() -> float:
        return runtime.heap.versioned_bytes + pending_bytes[0]

    # ------------------------------------------------------------------
    # terminal-state settlement (the conservation contract)
    # ------------------------------------------------------------------
    def release(log) -> None:
        event = done_events.pop(log.seq, None)
        if event is not None:
            event.succeed()

    def settle_drop(log, reason: str, now: float) -> None:
        """Account a dropped log: window closed, waiter released."""
        ledger.dropped(log.seq, reason)
        runtime.validator.drop(log, reason)
        if exposure is not None:
            # A drop exposes the key for the queue time already burned
            # plus the span until its next validation opportunity.
            waited = max(0.0, now - log.enqueue_time) if log.enqueue_time else 0.0
            exposure.record(log.closure_name, reason, waited + stale_s)
        release(log)

    def checksum_fallback(log, now: float) -> None:
        """Degraded validation: verify the §3.4 CRC boundary checksums of
        the log's output versions instead of re-executing.  Honest reduced
        coverage — accounted separately from both validation and drops."""
        for vid in log.output_versions:
            if not runtime.heap.has_version(vid):
                continue
            version = runtime.heap.version(vid)
            if version.checksum is None:
                continue
            if checksum_of(version.value) != version.checksum:
                runtime._on_detection(
                    DetectionEvent(
                        kind="checksum",
                        closure=log.closure_name,
                        seq=log.seq,
                        time=now,
                        detail="degraded-mode CRC boundary check failed",
                        app_core=log.core_id,
                    )
                )
        ledger.fallback(log.seq)
        runtime.reclaimer.closure_finished(log.seq)
        if exposure is not None:
            # CRC checks catch bit-flips but not mercurial compute errors:
            # partial coverage, honestly accounted as exposure.
            exposure.record(log.closure_name, "checksum-only", stale_s)
        if obs.enabled:
            obs.registry.counter(
                "orthrus_checksum_fallbacks_total",
                help="logs settled by CRC fallback instead of re-execution",
            ).inc()
            obs.spans.record(
                "fallback", log.seq, now, now, closure=log.closure_name
            )
        release(log)

    def enqueue(log, now: float):
        """Push into the bounded queues; settle whatever falls out."""
        outcome = queues.push(log, now)
        if outcome.accepted:
            pending_bytes[0] += log.approx_bytes()
            wake.put(_TOKEN)
        if outcome.dropped is not None:
            if outcome.reason == "evicted-oldest":
                pending_bytes[0] -= outcome.dropped.approx_bytes()
            settle_drop(outcome.dropped, outcome.reason, now)
        return outcome

    wake = Store(env)

    # ------------------------------------------------------------------
    # application threads
    # ------------------------------------------------------------------
    def submit(log):
        """Enqueue one log, honoring block-producer backpressure."""
        while True:
            outcome = enqueue(log, env.now)
            if not outcome.would_block:
                return
            if not alive:
                # Nobody will ever free queue space: shed explicitly.
                settle_drop(log, "no-capacity", env.now)
                return
            yield env.timeout(ft.block_poll)

    def app_thread(thread_id: int):
        core = machine.core(thread_id)
        for index in range(thread_id, len(ops), config.app_threads):
            began = env.now
            before = core.total_cycles
            with runtime.bind_core(thread_id):
                try:
                    responses_by_index[index] = server.handle(ops[index])
                except Exception as exc:
                    result.crashed = True
                    result.crash_reason = f"{type(exc).__name__}: {exc}"
                    return
            logs = list(request_logs)
            request_logs.clear()
            cycles = core.total_cycles - before + config.costs.control_path_cycles
            cycles += sum(_orthrus_overhead_cycles(log, config.costs) for log in logs)
            yield env.timeout(config.costs.seconds(cycles))
            hold: list[Any] = []
            for log in logs:
                ledger.enqueue(log.seq)
                event = env.event()
                done_events[log.seq] = event
                if safe_policy.must_hold(log.closure_name):
                    hold.append(event)
                yield from submit(log)
                if obs.enabled:
                    # Execution plus control path plus any producer
                    # backpressure stall; queue.wait starts exactly where
                    # this ends (queues.push stamps enqueue_time at accept).
                    obs.spans.record(
                        "closure.run",
                        log.seq,
                        log.start_time,
                        env.now,
                        closure=log.closure_name,
                        core=thread_id,
                    )
            if hold:
                # Safe mode (static or SAFE_HOLD-engaged): withhold
                # externalizing results until their logs settle.
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
            track_memory()

    # ------------------------------------------------------------------
    # validator processes (chaos-faultable)
    # ------------------------------------------------------------------
    def validator_process(core):
        core_id = core.core_id
        queue_index = queue_index_by_core[core_id]
        dispatch_s = config.costs.seconds(config.costs.validation_dispatch_cycles)
        while True:
            token = yield wake.get()
            if not runtime.scheduler.in_service(core_id):
                # Quarantined: hand the token to a healthy peer and leave.
                alive.discard(core_id)
                wake.put(token)
                return
            now = env.now
            fault = box.fault_for(core_id, now)
            kind = fault.kind if fault is not None else None
            log = queues.pop(queue_index, allow_steal=True)
            if kind is ValidatorFaultKind.CRASH:
                # Die mid-dispatch: the popped log is stranded in flight
                # until the watchdog expires it.
                alive.discard(core_id)
                if log is not None:
                    pending_bytes[0] -= log.approx_bytes()
                    watchdog.dispatched(log, core_id, now)
                return
            if log is None:
                # Orphan token (its log was evicted, redistributed, or
                # stolen); nothing to do.
                continue
            pending_bytes[0] -= log.approx_bytes()
            if obs.enabled:
                obs.spans.record(
                    "queue.wait",
                    log.seq,
                    log.enqueue_time,
                    now,
                    closure=log.closure_name,
                )
            if now > deadline[0]:
                # Past the timely-detection window (drain grace).
                if obs.enabled:
                    obs.registry.counter(
                        "orthrus_deadline_drops_total",
                        help="logs dropped past the timely-detection window",
                    ).inc()
                    obs.spans.record(
                        "drop", log.seq, now, now,
                        closure=log.closure_name, reason="deadline",
                    )
                metrics.skipped += 1
                settle_drop(log, "deadline", now)
                continue
            if kind is ValidatorFaultKind.HANG:
                # Block forever holding the dispatched log.
                alive.discard(core_id)
                watchdog.dispatched(log, core_id, now)
                yield env.event()
                return  # pragma: no cover — the event never fires
            is_canary = is_canary_log(log)
            if is_canary:
                # Canary probes bypass the sampler and its coverage
                # accounting: a skipped canary would prove nothing about
                # plane liveness.  They still ride the watchdog dispatch
                # path so a hung or crashed validator strands them — that
                # stranding is precisely the signal the LivenessMonitor
                # turns into ``canary.missed``.
                decision = None
            else:
                t0 = prof.now() if prof.enabled else 0
                if config.memory_budget_bytes is not None:
                    sampler.observe_memory(
                        memory_in_use(), config.memory_budget_bytes
                    )
                else:
                    sampler.observe_delay(now - log.enqueue_time)
                decision = sampler_decision(sampler, log, now)
                if prof.enabled:
                    prof.lap("sampler.decide", t0)
            if obs.enabled:
                obs.registry.histogram(
                    "orthrus_queue_delay_seconds",
                    help="log age (enqueue to dequeue) at each validator dispatch",
                ).record(now - log.enqueue_time)
                if decision is not None:
                    obs.registry.counter(
                        "orthrus_sampler_decisions_total",
                        {
                            "decision": "validate" if decision.validate else "skip",
                            "reason": decision.reason,
                        },
                        help="sampler verdicts by outcome and reason",
                    ).inc()
            if controller is not None and controller.checksum_only:
                # CHECKSUM_ONLY rung: CRC boundary checks, no re-execution.
                busy = sum(
                    config.costs.checksum_cycles(64)
                    for _ in range(max(1, len(log.output_versions)))
                )
                yield env.timeout(config.costs.seconds(busy))
                checksum_fallback(log, env.now)
                on_step()
                continue
            shed_for_coverage = (
                decision is not None
                and controller is not None
                and controller.coverage_only
                and decision.reason not in COVERAGE_REASONS
            )
            if decision is not None and (not decision.validate or shed_for_coverage):
                runtime.validator.skip(log)
                ledger.skipped(log.seq)
                metrics.skipped += 1
                if exposure is not None:
                    exposure.record(
                        log.closure_name,
                        "coverage-shed" if shed_for_coverage else "sampled-out",
                        stale_s,
                    )
                if obs.enabled:
                    obs.spans.record(
                        "skip", log.seq, now, now,
                        closure=log.closure_name,
                        reason="coverage-shed" if shed_for_coverage
                        else decision.reason,
                    )
                yield env.timeout(config.costs.seconds(config.costs.skip_cycles))
                release(log)
                on_step()
                continue
            # -- dispatch under the watchdog's deadline ------------------
            watchdog.dispatched(log, core_id, now)
            output_bytes = log.approx_bytes()
            for vid in log.output_versions:
                try:
                    output_bytes += runtime.heap.version(vid).size
                except Exception:
                    pass
            # The re-execution costs about what the APP run cost; the
            # functional replay happens at completion time below.
            busy = config.costs.validation_dispatch_cycles + log.app_cycles
            busy += config.costs.compare_cycles_per_byte * output_bytes
            if log.core_id >= 0:
                # Canary probes carry a synthetic app core (-1): no NUMA
                # placement applies to them.
                app_core = machine.core(log.core_id)
                if app_core.numa_node != core.numa_node:
                    busy += config.costs.cross_numa_penalty_cycles
            if kind is ValidatorFaultKind.SLOWDOWN:
                busy *= fault.slowdown_factor
            yield env.timeout(config.costs.seconds(busy))
            if kind is ValidatorFaultKind.VERDICT_LOSS:
                # The work happened; the verdict evaporated.  Leave the
                # dispatch in flight for the watchdog to expire.
                on_step()
                continue
            if not watchdog.completed(log.seq, env.now):
                # The watchdog already expired this dispatch and handed the
                # log to another core: this verdict is a duplicate.
                on_step()
                continue
            outcome = runtime.validator.validate(log, core)
            if drift is not None:
                drift.verdict(core_id)
            if responder is not None:
                responder.on_outcome(outcome)
            if not is_canary:
                # Canaries stay out of the sampler's feedback loop, the
                # latency-driven scaling stats, and the coverage metrics.
                sampler.on_validated(log, env.now)
                latency = env.now - log.enqueue_time
                metrics.validation_latency.add(latency)
                runtime.latency.record(log.closure_name, latency)
                metrics.validated += 1
            ledger.validated(log.seq)
            if obs.enabled:
                level = (
                    controller.level.label if controller is not None else "normal"
                )
                obs.spans.record(
                    "dispatch", log.seq, now, now + dispatch_s,
                    closure=log.closure_name, core=core_id,
                )
                obs.spans.record(
                    "validate", log.seq, now + dispatch_s, env.now,
                    closure=log.closure_name, core=core_id, level=level,
                )
                obs.spans.record(
                    "verdict", log.seq, env.now, env.now,
                    closure=log.closure_name, passed=outcome.passed,
                )
            release(log)
            on_step()

    on_step = track_memory

    # ------------------------------------------------------------------
    # watchdog / degradation tick
    # ------------------------------------------------------------------
    def redispatch_later(log, delay: float):
        yield env.timeout(delay)
        redispatch_pending[0] -= 1
        if ledger.is_terminal(log.seq):
            return  # settled while backing off (e.g. total-death sweep)
        enqueue(log, env.now)

    def ticker():
        prev_drops = prev_attempts = prev_timeouts = prev_dispatches = 0
        while not stop[0]:
            yield env.timeout(ft.check_interval)
            now = env.now
            for dispatch in watchdog.expired(now):
                if obs.enabled:
                    # The dead time on the faulted core, from dispatch to
                    # the watchdog noticing.
                    obs.spans.record(
                        "stalled",
                        dispatch.log.seq,
                        dispatch.dispatched_at,
                        now,
                        closure=dispatch.log.closure_name,
                        core=dispatch.core_id,
                        attempt=dispatch.attempt,
                    )
                delay = watchdog.plan_redispatch(dispatch, now)
                if delay is None:
                    # Retry budget exhausted: degrade, don't strand.
                    checksum_fallback(dispatch.log, now)
                else:
                    redispatch_pending[0] += 1
                    if exposure is not None:
                        # The backoff delay is pure exposure: the log sits
                        # unprotected until its re-enqueue.
                        exposure.record(
                            dispatch.log.closure_name, "redispatch", delay
                        )
                    if obs.enabled:
                        # Backoff before the re-enqueue; the next queue.wait
                        # starts where this ends.
                        obs.spans.record(
                            "redispatch",
                            dispatch.log.seq,
                            now,
                            now + delay,
                            closure=dispatch.log.closure_name,
                        )
                    env.process(redispatch_later(dispatch.log, delay))
            if not alive and (queues.pending or watchdog.in_flight):
                # Total validation-plane death: settle everything via the
                # CRC fallback so blocked producers are released.
                for log in queues.drain():
                    pending_bytes[0] -= log.approx_bytes()
                    checksum_fallback(log, now)
                for dispatch in watchdog.abandon(now):
                    checksum_fallback(dispatch.log, now)
            if controller is not None:
                drops = queues.dropped_total
                attempts = queues.accepted_total + drops
                timeouts = watchdog.timeouts_total
                dispatches = watchdog.dispatches_total
                d_attempts = attempts - prev_attempts
                d_drops = drops - prev_drops
                d_timeouts = timeouts - prev_timeouts
                d_dispatches = dispatches - prev_dispatches
                controller.observe(
                    now,
                    utilization=queues.utilization,
                    drop_rate=(d_drops / d_attempts) if d_attempts else 0.0,
                    timeout_rate=(
                        d_timeouts / max(1, d_dispatches)
                        if (d_timeouts or d_dispatches)
                        else 0.0
                    ),
                )
                prev_drops, prev_attempts = drops, attempts
                prev_timeouts, prev_dispatches = timeouts, dispatches

    # ------------------------------------------------------------------
    threads = [env.process(app_thread(i)) for i in range(config.app_threads)]
    for core_id in val_cores:
        env.process(validator_process(machine.core(core_id)))
    env.process(ticker())

    if recorder is not None:
        def telemetry_process():
            while True:
                recorder.sample(env.now)
                yield env.timeout(recorder.cadence)

        env.process(telemetry_process())

    canary_monitor = None
    if config.canary is not None:
        canary_sched = CanaryScheduler(config.canary, seed=config.seed)
        canary_monitor = LivenessMonitor(config.canary, runtime.report, obs=obs)

        def canary_issuer():
            # Probes ride the same bounded queues and watchdog dispatch as
            # organic traffic: whatever strands real logs strands them too.
            while True:
                yield env.timeout(config.canary.period)
                if apps_done[0] or stop[0]:
                    return
                runtime._seq += 1
                log = canary_sched.next_log(runtime._seq, env.now)
                canary_monitor.issue(log, env.now)
                ledger.enqueue(log.seq)
                done_events[log.seq] = env.event()
                yield from submit(log)
                if obs.enabled:
                    obs.spans.record(
                        "closure.run",
                        log.seq,
                        log.start_time,
                        env.now,
                        closure=log.closure_name,
                    )

        def canary_poller():
            step = config.canary.deadline / 4
            while not stop[0]:
                yield env.timeout(step)
                canary_monitor.poll(env.now)

        env.process(canary_issuer())
        env.process(canary_poller())
        if drift is not None:
            drift.attach_canary(canary_monitor)

    if drift is not None:
        # Drift probes ride their own virtual-time cadence so
        # declared-vs-observed contradictions surface even while the app
        # threads are blocked on backpressure or safe-mode holds.
        def audit_probe_process():
            while not stop[0]:
                yield env.timeout(drift.config.cadence)
                drift.probe(env.now)

        env.process(audit_probe_process())

    def coordinator():
        yield env.all_of(threads)
        apps_done[0] = True
        metrics.duration = env.now
        deadline[0] = env.now * (1 + config.drain_grace_fraction)
        hard_stop = deadline[0] + 64 * ft.check_interval
        while env.now < hard_stop:
            settled = ledger.outstanding == 0 and redispatch_pending[0] == 0
            recovered = (
                controller is None
                or controller.level is DegradationLevel.NORMAL
                or not alive
            )
            if settled and recovered:
                break
            yield env.timeout(ft.check_interval)
        stop[0] = True
        # Final sweep: whatever is still unsettled is accounted, never
        # silently stranded.
        queues.shutdown()
        for log in queues.drain():
            pending_bytes[0] -= log.approx_bytes()
            settle_drop(log, "shutdown-drain", env.now)
        for dispatch in watchdog.abandon(env.now):
            checksum_fallback(dispatch.log, env.now)

    env.run(until=env.process(coordinator()))
    metrics.detections = runtime.detections
    result.responses = [responses_by_index.get(i) for i in range(len(ops))]
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
        recorder.sample(env.now, force=True)
        result.timeline = recorder
        result.slo = slo_monitor.finalize(env.now)
    if responder is not None and not result.crashed:
        result.incident = responder.finalize()

    faulted: dict[str, list[int]] = {}
    for fault in box.faults:
        faulted.setdefault(fault.kind.value, []).append(fault.core_id)
    result.ft = FaultToleranceReport(
        ledger=ledger.summary(),
        conserved=ledger.conserved,
        dispatches=watchdog.dispatches_total,
        timeouts=watchdog.timeouts_total,
        redispatches=watchdog.redispatches_total,
        duplicates=watchdog.duplicates_total,
        exhausted=watchdog.exhausted_total,
        degradation=controller.summary() if controller is not None else None,
        terminal_level=(
            controller.level.label if controller is not None else "normal"
        ),
        peak_level=(
            controller.peak.label if controller is not None else "normal"
        ),
        quarantined_validators=sorted(
            c for c in quarantine.quarantined if c in val_cores
        ),
        faulted_cores=faulted,
        chaos_digest=chaos.digest() if chaos is not None else None,
        queue_drops=queues.drops,
    )
    result.digest = server.state_digest() if not result.crashed else None
    if prof.enabled:
        _finish_profile(prof, env, [machine])
    return result
