"""The fault-tolerant validation plane of the Orthrus driver.

:class:`FaultTolerantPlane` plugs into the one Orthrus driver in
:mod:`repro.harness.pipeline` in place of the reliable shared store.  It
models what production actually has — per-core *bounded* queues with
work stealing, validator cores that crash / hang / slow down / lose
verdicts (chaos-injected via :mod:`repro.faultinject.validator_faults`),
a :class:`~repro.validation.watchdog.ValidationWatchdog` that
re-dispatches stranded logs, and a
:class:`~repro.runtime.degradation.DegradationController` that walks the
explicit degradation ladder instead of letting coverage rot silently.
:func:`~repro.harness.pipeline.validation_plane` selects it for both
``run_orthrus_server`` and the Phoenix job when
``PipelineConfig.fault_tolerance`` or ``validator_faults`` is set;
:func:`run_chaos_server` always uses it.

The plane's contract is *conservation*: every closure log produced by
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

from repro.detection import DetectionEvent
from repro.faultinject.validator_faults import (
    ValidatorFaultBox,
    ValidatorFaultKind,
)
from repro.harness.pipeline import OrthrusRun, PipelineConfig, RunResult, _run_orthrus
from repro.memory.checksum import checksum_of
from repro.obs.canary import is_canary_log
from repro.response.quarantine import QuarantineManager
from repro.runtime.degradation import (
    DegradationController,
    DegradationLevel,
    FaultToleranceConfig,
)
from repro.runtime.sampling import COVERAGE_REASONS
from repro.sim.events import Store
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
    """Run the Orthrus deployment on the fault-tolerant validation plane.

    Unlike :func:`~repro.harness.pipeline.run_orthrus_server`, this uses
    the fault-tolerant plane even when ``config.fault_tolerance`` is None
    (it then runs the :class:`FaultToleranceConfig` defaults).
    """
    return _run_orthrus(scenario, n_ops, config, FaultTolerantPlane)


class FaultTolerantPlane:
    """Per-core bounded queues with work stealing, validators that chaos
    faults can crash, hang, slow or rob of verdicts, a watchdog that
    re-dispatches stranded logs, and the degradation ladder.

    A validator waits the re-execution's cost (about what the app run
    cost) and then validates; a log dequeued past the drain deadline is
    dropped through the ledger.  Shutdown is a settle loop bounded by a
    hard stop, followed by a final sweep that accounts whatever is left.
    """

    label = "driver.chaos"

    def __init__(self, run: OrthrusRun):
        self.run = run
        config, obs = run.config, run.obs
        self.ft = ft = (
            config.fault_tolerance
            if config.fault_tolerance is not None
            else FaultToleranceConfig()
        )
        val_cores = run.val_cores
        self.queues = QueueSet(
            len(val_cores),
            capacity=ft.queue_capacity,
            policy=ft.overflow_policy,
            obs=obs,
        )
        self.queue_index_by_core = {core_id: i for i, core_id in enumerate(val_cores)}
        self.ledger = ValidationLedger()
        self.controller = None
        if ft.degradation is not None:
            self.controller = DegradationController(
                ft.degradation,
                obs=obs,
                # A user-requested safe mode always holds; only let the
                # ladder drive the policy when it is not statically on.
                safe_mode=None if config.safe_mode else run.safe_policy,
            )
        runtime = run.runtime
        self.quarantine = (
            runtime.responder.quarantine
            if runtime.responder is not None
            else QuarantineManager(
                machine=run.machine,
                scheduler=runtime.scheduler,
                heap=runtime.heap,
                obs=obs,
            )
        )
        chaos = config.validator_faults
        self.box = ValidatorFaultBox(chaos.plan(val_cores) if chaos is not None else ())
        #: validator cores still consuming work (not crashed/hung/quarantined)
        self.alive: set[int] = set(val_cores)
        self.watchdog = ValidationWatchdog(
            ft.watchdog, obs=obs, on_offender=self._on_offender
        )
        #: wake channel: one token per accepted push
        self.wake = Store(run.env)
        self.redispatch_pending = 0
        self.stop = False

    # ------------------------------------------------------------------
    # terminal-state settlement (the conservation contract)
    # ------------------------------------------------------------------
    def _settle_drop(self, log, reason: str, now: float) -> None:
        """Account a dropped log: window closed, waiter released."""
        run = self.run
        self.ledger.dropped(log.seq, reason)
        run.runtime.validator.drop(log, reason)
        if run.exposure is not None:
            # A drop exposes the key for the queue time already burned
            # plus the span until its next validation opportunity.
            waited = max(0.0, now - log.enqueue_time) if log.enqueue_time else 0.0
            run.exposure.record(log.closure_name, reason, waited + run.stale_s)
        run.release(log)

    def _checksum_fallback(self, log, now: float) -> None:
        """Degraded validation: verify the §3.4 CRC boundary checksums of
        the log's output versions instead of re-executing.  Honest reduced
        coverage — accounted separately from both validation and drops."""
        run = self.run
        runtime = run.runtime
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
        self.ledger.fallback(log.seq)
        runtime.reclaimer.closure_finished(log.seq)
        if run.exposure is not None:
            # CRC checks catch bit-flips but not mercurial compute errors:
            # partial coverage, honestly accounted as exposure.
            run.exposure.record(log.closure_name, "checksum-only", run.stale_s)
        obs = run.obs
        if obs.enabled:
            obs.registry.counter(
                "orthrus_checksum_fallbacks_total",
                help="logs settled by CRC fallback instead of re-execution",
            ).inc()
            obs.spans.record(
                "fallback", log.seq, now, now, closure=log.closure_name
            )
        run.release(log)

    def _enqueue(self, log, now: float):
        """Push into the bounded queues; settle whatever falls out."""
        outcome = self.queues.push(log, now)
        run = self.run
        if outcome.accepted:
            run.pending_bytes += log.approx_bytes()
            self.wake.put(_TOKEN)
        if outcome.dropped is not None:
            if outcome.reason == "evicted-oldest":
                run.pending_bytes -= outcome.dropped.approx_bytes()
            self._settle_drop(outcome.dropped, outcome.reason, now)
        return outcome

    def _on_offender(self, core_id: int, when: float) -> None:
        # An offender already represents ``offender_threshold`` missed
        # deadlines; record them as that many faults so the health score
        # crosses the quarantine threshold in one report.
        newly = False
        for _ in range(max(1, self.watchdog.config.offender_threshold)):
            newly = self.quarantine.record_fault(core_id, when) or newly
        responder = self.run.runtime.responder
        if responder is not None:
            responder.report.add(
                when,
                "watchdog-offender",
                f"validation core {core_id} repeatedly missed deadlines"
                + (" -> quarantined" if newly else ""),
            )
        if newly:
            self.alive.discard(core_id)
            # Hand the quarantined core's backlog to the healthy queues.
            for orphan in self.queues.drain_queue(self.queue_index_by_core[core_id]):
                self._enqueue(orphan, when)

    # ------------------------------------------------------------------
    # the plane interface
    # ------------------------------------------------------------------
    def submit(self, log, **where):
        """Enqueue one log, honoring block-producer backpressure."""
        env = self.run.env
        self.ledger.enqueue(log.seq)
        while True:
            outcome = self._enqueue(log, env.now)
            if not outcome.would_block:
                break
            if not self.alive:
                # Nobody will ever free queue space: shed explicitly.
                self._settle_drop(log, "no-capacity", env.now)
                break
            yield env.timeout(self.ft.block_poll)
        obs = self.run.obs
        if obs.enabled:
            # Execution plus control path plus any producer backpressure
            # stall; queue.wait starts exactly where this ends
            # (queues.push stamps enqueue_time at accept).
            obs.spans.record(
                "closure.run", log.seq, log.start_time, env.now,
                closure=log.closure_name, **where,
            )

    def start(self) -> None:
        run = self.run
        if run.drift is not None:
            # The conservation ledger is the residual-drift signal: work
            # outstanding while nothing settles means the plane is wedged.
            run.drift.attach_ledger(self.ledger)
        for core_id in run.val_cores:
            run.env.process(self._validator(run.machine.core(core_id)))
        run.env.process(self._ticker())

    def probes_done(self, canaries_outstanding: int = 0) -> bool:
        return self.stop

    def drain(self):
        run = self.run
        env, ledger, controller = run.env, self.ledger, self.controller
        hard_stop = run.deadline + 64 * self.ft.check_interval
        while env.now < hard_stop:
            settled = ledger.outstanding == 0 and self.redispatch_pending == 0
            recovered = (
                controller is None
                or controller.level is DegradationLevel.NORMAL
                or not self.alive
            )
            if settled and recovered:
                break
            yield env.timeout(self.ft.check_interval)
        self.stop = True
        # Final sweep: whatever is still unsettled is accounted, never
        # silently stranded.
        self.queues.shutdown()
        for log in self.queues.drain():
            run.pending_bytes -= log.approx_bytes()
            self._settle_drop(log, "shutdown-drain", env.now)
        for dispatch in self.watchdog.abandon(env.now):
            self._checksum_fallback(dispatch.log, env.now)

    def finish(self, result: RunResult) -> None:
        controller, watchdog = self.controller, self.watchdog
        chaos = self.run.config.validator_faults
        faulted: dict[str, list[int]] = {}
        for fault in self.box.faults:
            faulted.setdefault(fault.kind.value, []).append(fault.core_id)
        result.ft = FaultToleranceReport(
            ledger=self.ledger.summary(),
            conserved=self.ledger.conserved,
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
                c for c in self.quarantine.quarantined if c in self.run.val_cores
            ),
            faulted_cores=faulted,
            chaos_digest=chaos.digest() if chaos is not None else None,
            queue_drops=self.queues.drops,
        )

    # ------------------------------------------------------------------
    # validator processes (chaos-faultable)
    # ------------------------------------------------------------------
    def _validator(self, core):
        run = self.run
        env, runtime, metrics, obs = run.env, run.runtime, run.metrics, run.obs
        queues, wake, box = self.queues, self.wake, self.box
        watchdog, ledger, controller = self.watchdog, self.ledger, self.controller
        alive = self.alive
        drift, exposure, stale_s = run.drift, run.exposure, run.stale_s
        track_memory, costs = run.track_memory, run.config.costs
        core_id = core.core_id
        queue_index = self.queue_index_by_core[core_id]
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
                    run.pending_bytes -= log.approx_bytes()
                    watchdog.dispatched(log, core_id, now)
                return
            if log is None:
                # Orphan token (its log was evicted, redistributed, or
                # stolen); nothing to do.
                continue
            run.pending_bytes -= log.approx_bytes()
            if obs.enabled:
                obs.spans.record(
                    "queue.wait", log.seq, log.enqueue_time, now,
                    closure=log.closure_name,
                )
            if now > run.deadline:
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
                self._settle_drop(log, "deadline", now)
                continue
            if kind is ValidatorFaultKind.HANG:
                # Block forever holding the dispatched log.
                alive.discard(core_id)
                watchdog.dispatched(log, core_id, now)
                yield env.event()
                return  # pragma: no cover — the event never fires
            # Canary probes bypass the sampler and its coverage accounting:
            # a skipped canary would prove nothing about plane liveness.
            # They still ride the watchdog dispatch path so a hung or
            # crashed validator strands them — that stranding is precisely
            # the signal the LivenessMonitor turns into ``canary.missed``.
            is_canary = is_canary_log(log)
            decision = None if is_canary else run.decide(log, now)
            if obs.enabled:
                run.decision_metrics(log, now, decision)
            if controller is not None and controller.checksum_only:
                # CHECKSUM_ONLY rung: CRC boundary checks, no re-execution.
                busy = sum(
                    costs.checksum_cycles(64)
                    for _ in range(max(1, len(log.output_versions)))
                )
                yield env.timeout(costs.seconds(busy))
                self._checksum_fallback(log, env.now)
                track_memory()
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
                yield env.timeout(costs.seconds(costs.skip_cycles))
                run.release(log)
                track_memory()
                continue
            # -- dispatch under the watchdog's deadline ------------------
            watchdog.dispatched(log, core_id, now)
            # The re-execution costs about what the app run cost; the
            # functional replay happens at completion time below.
            busy = run.validation_cycles(
                core, log, log.app_cycles, run.output_bytes(log)
            )
            if kind is ValidatorFaultKind.SLOWDOWN:
                busy *= fault.slowdown_factor
            yield env.timeout(costs.seconds(busy))
            if kind is ValidatorFaultKind.VERDICT_LOSS:
                # The work happened; the verdict evaporated.  Leave the
                # dispatch in flight for the watchdog to expire.
                track_memory()
                continue
            if not watchdog.completed(log.seq, env.now):
                # The watchdog already expired this dispatch and handed the
                # log to another core: this verdict is a duplicate.
                track_memory()
                continue
            outcome = runtime.validator.validate(log, core)
            if drift is not None:
                drift.verdict(core_id)
            if runtime.responder is not None:
                runtime.responder.on_outcome(outcome)
            if not is_canary:
                # Canaries stay out of the sampler's feedback loop, the
                # latency-driven scaling stats, and the coverage metrics.
                run.credit(log)
            ledger.validated(log.seq)
            if obs.enabled:
                run.verdict_spans(
                    log, now, core_id, outcome.passed,
                    level=controller.level.label if controller is not None else "normal",
                )
            run.release(log)
            track_memory()

    # ------------------------------------------------------------------
    # watchdog / degradation tick
    # ------------------------------------------------------------------
    def _redispatch_later(self, log, delay: float):
        yield self.run.env.timeout(delay)
        self.redispatch_pending -= 1
        if self.ledger.is_terminal(log.seq):
            return  # settled while backing off (e.g. total-death sweep)
        self._enqueue(log, self.run.env.now)

    def _ticker(self):
        run = self.run
        env, obs, exposure = run.env, run.obs, run.exposure
        queues, watchdog, controller = self.queues, self.watchdog, self.controller
        prev_drops = prev_attempts = prev_timeouts = prev_dispatches = 0
        while not self.stop:
            yield env.timeout(self.ft.check_interval)
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
                    self._checksum_fallback(dispatch.log, now)
                else:
                    self.redispatch_pending += 1
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
                    env.process(self._redispatch_later(dispatch.log, delay))
            if not self.alive and (queues.pending or watchdog.in_flight):
                # Total validation-plane death: settle everything via the
                # CRC fallback so blocked producers are released.
                for log in queues.drain():
                    run.pending_bytes -= log.approx_bytes()
                    self._checksum_fallback(log, now)
                for dispatch in watchdog.abandon(now):
                    self._checksum_fallback(dispatch.log, now)
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
