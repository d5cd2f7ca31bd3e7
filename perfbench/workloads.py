"""The benchmark's four workloads and one timed pass of each.

Every workload runs in one process and drives the simulator only through
its public drivers: ``repro.harness.pipeline`` (vanilla / Orthrus / RBV),
``repro.harness.chaos`` and ``repro.fleet.run_fleet``.  Drivers are looked
up on their module at call time, so the traced run's wrappers are the
ones called.  Application threads are closed-loop clients simulated in
virtual time; the only host parallelism is ``run_fleet(workers=2)``.

A pass returns a :class:`PassOutcome`: the virtual-time *fingerprint*
that must not move, the work it simulated, and the problems found by the
workload's own correctness checks (crashes, arms that disagree, broken
conservation ledgers).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable

#: sizes are fixed here, not on the command line, so every run of a
#: workload measures the same amount of work
KV_READ_OPS = 2500
KV_WRITE_OPS = 600
KV_OBSERVED_OPS = 4000
FLEET_SHAPE = dict(
    hosts=128, shards=256, scale=0.02, epochs=32, ground_shards=4,
    load_factor=30.0, min_coverage=0.5,
)
#: crash onsets (each host stays down FLEET_OUTAGE epochs) and partition
#: onsets (each link stays down FLEET_CUT epochs).  The timing is fixed so
#: that every seed rebuilds the ring for the same number of dead-host
#: sets, which makes a pass cost the same on every seed; the seed picks
#: the victims and the cut links.
FLEET_CRASH_EPOCHS = (4, 12, 20)
FLEET_OUTAGE = 5
FLEET_PARTITION_EPOCHS = (6, 18)
FLEET_CUT = 8
FLEET_WORKERS = 2


@dataclass
class PassOutcome:
    """What one pass simulated, and what it must reproduce exactly."""

    fingerprint: dict
    #: simulated requests completed
    ops: int
    #: simulated events: DES events (kv) or shard-epoch steps (fleet)
    events: int
    instructions: int
    #: virtual-time results, as paper users read them
    virt: dict
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """One workload; README.md and BENCHMARK.json say why it is here."""

    name: str
    #: seed -> inputs: scenario, configs and fault plans
    build: Callable[[int], Any]
    #: (inputs, counts, wrap) -> PassOutcome; ``wrap(layer, fn)`` lets a
    #: traced run time the scenario's ``make_ops`` hook
    run_pass: Callable[..., PassOutcome]
    #: a pass that keeps in this process the work ``run_pass`` fans out to
    #: workers; the traced run takes ``inline_layers`` from it
    inline_pass: Callable[..., PassOutcome] | None = None
    inline_layers: frozenset = frozenset()
    #: scale times by the host-speed kernel (calibrate.py).  Off for a
    #: workload whose pass lasts as long as a host-speed episode: kernel
    #: readings at the ends of such a pass do not show the speed it ran at
    calibrated: bool = True


def _no_wrap(layer, fn):
    return fn


def _digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _run_metrics(metrics) -> dict:
    return {
        "operations": metrics.operations,
        "duration": metrics.duration,
        "validated": metrics.validated,
        "skipped": metrics.skipped,
        "detections": metrics.detections,
        "peak_versioned_bytes": metrics.peak_versioned_bytes,
        "peak_live_bytes": metrics.peak_live_bytes,
        "request_latency": metrics.request_latency.summary(),
        "validation_latency": metrics.validation_latency.summary(),
    }


def _arm_fingerprint(result, counts) -> dict:
    events, instructions = counts.take()
    return {
        "digest": result.digest,
        "responses": _digest(result.responses),
        "crashed": result.crashed,
        "metrics": _run_metrics(result.metrics),
        "events": events,
        "instructions": instructions,
    }


def _with_ops_hook(scenario, seed: int, wrap):
    """The scenario with its op stream pinned to the benchmark's seed.

    The drivers ask ``make_ops(n_ops, config.seed)``; the benchmark
    answers with the stream its own seed generates, and keeps each stream
    it hands out so the responses can be checked against it.
    """
    generate = scenario.make_ops
    streams: list[list] = []

    def make_ops(n_ops, _driver_seed):
        ops = generate(n_ops, seed)
        streams.append(ops)
        return ops

    return dataclasses.replace(scenario, make_ops=wrap("workloads", make_ops)), streams


#: responses a write or delete may return, whatever the interleaving
_ACKS = {"set": {"STORED"}, "put": {"STORED"}, "remove": {"DELETED", "NOT_FOUND"}}


def bad_responses(ops, responses) -> int:
    """Responses no interleaving of the closed-loop clients can produce.

    Two clients race on shared keys, and each deployment paces them
    differently, so arms may legitimately disagree on a read.  A read
    must still return nothing or a value some write of that key stored,
    and a write or delete must be acknowledged.
    """
    written: dict = {}
    for op in ops:
        if op.kind.value in ("set", "put"):
            written.setdefault(op.key, set()).add(op.value)
    if len(responses) != len(ops):
        return abs(len(responses) - len(ops))
    bad = 0
    for op, response in zip(ops, responses):
        kind = op.kind.value
        if kind == "get":
            bad += response is not None and response not in written.get(op.key, ())
        else:
            bad += response not in _ACKS[kind]
    return bad


def _response_problems(arm: str, ops, result) -> list[str]:
    bad = bad_responses(ops, result.responses)
    return [f"{arm} arm returned {bad} impossible responses"] if bad else []


# ----------------------------------------------------------------------
# kv-read / kv-write: the Fig 6 triple
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TripleInputs:
    scenario: Any
    n_ops: int
    seed: int

    def config(self):
        from repro.harness.pipeline import PipelineConfig

        return PipelineConfig(app_threads=2, validation_cores=2, seed=self.seed)


def _build_triple(scenario_factory, n_ops):
    def build(seed: int) -> TripleInputs:
        inputs = TripleInputs(scenario=scenario_factory(), n_ops=n_ops, seed=seed)
        inputs.config()
        return inputs

    return build


def _triple_pass(inputs: TripleInputs, counts, wrap=_no_wrap) -> PassOutcome:
    from repro.harness import pipeline
    from repro.sim.metrics import slowdown

    scenario, streams = _with_ops_hook(inputs.scenario, inputs.seed, wrap)
    results, arms = {}, {}
    problems = []
    for arm in ("vanilla", "orthrus", "rbv"):
        driver = getattr(pipeline, f"run_{arm}_server")
        results[arm] = driver(scenario, inputs.n_ops, inputs.config())
        arms[arm] = _arm_fingerprint(results[arm], counts)
        problems += _response_problems(arm, streams[-1], results[arm])
    vanilla, orthrus = results["vanilla"], results["orthrus"]

    problems += [f"{arm} arm crashed" for arm, r in results.items() if r.crashed]
    # no fault is armed, so any detection is a false positive
    problems += [
        f"{arm} arm reported {r.detections} detections"
        for arm, r in results.items() if r.detections
    ]
    metrics = orthrus.metrics
    return PassOutcome(
        fingerprint={"arms": arms},
        ops=sum(r.metrics.operations for r in results.values()),
        events=sum(a["events"] for a in arms.values()),
        instructions=sum(a["instructions"] for a in arms.values()),
        virt={
            "val_p95_us": metrics.validation_latency.p95 * 1e6,
            "coverage": metrics.sampling_fraction,
            "orthrus_overhead_pct": 100 * slowdown(
                vanilla.metrics.throughput, metrics.throughput
            ),
            "mem_overhead_pct": 100 * metrics.memory_overhead,
        },
        problems=problems,
    )


# ----------------------------------------------------------------------
# kv-observed: memcached through the fault-tolerant plane, telemetry on
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObservedInputs:
    scenario: Any
    n_ops: int
    seed: int
    #: validator chaos plan: which validation core hangs
    chaos: Any

    def config(self):
        from repro.harness.pipeline import PipelineConfig
        from repro.obs import CanaryConfig, Observability, TimeSeriesConfig
        from repro.response import ResponseConfig
        from repro.runtime.degradation import FaultToleranceConfig
        from repro.validation.watchdog import WatchdogConfig

        deadline = 80e-6
        plane = FaultToleranceConfig(
            queue_capacity=64,
            overflow_policy="drop-oldest",
            watchdog=WatchdogConfig(deadline=deadline),
            # a tick fast enough to notice the deadline expire
            check_interval=min(FaultToleranceConfig().check_interval, deadline / 8),
        )
        return PipelineConfig(
            app_threads=4,
            validation_cores=2,
            seed=self.seed,
            fault_tolerance=plane,
            validator_faults=self.chaos,
            response=ResponseConfig(),
            obs=Observability(),
            timeseries=TimeSeriesConfig(),
            canary=CanaryConfig(),
            audit=True,
        )


def _build_observed(seed: int) -> ObservedInputs:
    from repro.faultinject.validator_faults import ValidatorChaosConfig
    from repro.harness import chaos  # noqa: F401  (imported as set-up)
    from repro.harness.scenarios import memcached_scenario

    inputs = ObservedInputs(
        scenario=memcached_scenario(),
        n_ops=KV_OBSERVED_OPS,
        seed=seed,
        chaos=ValidatorChaosConfig.parse(["hang=1"], seed=seed),
    )
    inputs.config()
    return inputs


def _observed_pass(inputs: ObservedInputs, counts, wrap=_no_wrap) -> PassOutcome:
    from repro.harness import chaos

    scenario, streams = _with_ops_hook(inputs.scenario, inputs.seed, wrap)
    result = chaos.run_chaos_server(scenario, inputs.n_ops, inputs.config())
    arm = _arm_fingerprint(result, counts)
    ledger = result.ft.ledger
    problems = _response_problems("chaos", streams[-1], result)
    if result.crashed:
        problems.append(f"chaos arm crashed: {result.crash_reason}")
    if not result.ft.conserved or ledger.get("outstanding"):
        problems.append(f"validation ledger not conserved: {ledger}")
    # hangs delay verdicts but corrupt nothing: organic detections are
    # false positives
    organic = result.runtime.report.count_organic()
    if organic:
        problems.append(f"{organic} organic detections without a corruption fault")
    metrics = result.metrics
    return PassOutcome(
        fingerprint={"arms": {"chaos": arm}, "ledger": ledger},
        ops=metrics.operations,
        events=arm["events"],
        instructions=arm["instructions"],
        virt={
            "val_p95_us": metrics.validation_latency.p95 * 1e6,
            "coverage": metrics.sampling_fraction,
        },
        problems=problems,
    )


# ----------------------------------------------------------------------
# fleet-chaos: 128 hosts, seeded crashes and partitions, two workers
# ----------------------------------------------------------------------
def _build_fleet(seed: int):
    from repro.faultinject.fleet_faults import FleetFaultPlan, HostCrash, LinkPartition
    from repro.fleet import FleetConfig, runner  # noqa: F401  (imported as set-up)

    hosts = FLEET_SHAPE["hosts"]
    rng = random.Random(seed)
    victims = rng.sample(range(hosts), len(FLEET_CRASH_EPOCHS))
    cut = [rng.randrange(hosts) for _ in FLEET_PARTITION_EPOCHS]
    plan = FleetFaultPlan(
        crashes=tuple(
            HostCrash(host=host, at_epoch=epoch, restart_after=FLEET_OUTAGE)
            for host, epoch in zip(victims, FLEET_CRASH_EPOCHS)
        ),
        partitions=tuple(
            LinkPartition(host_a=a, host_b=(a + 1) % hosts, at_epoch=epoch,
                          duration=FLEET_CUT)
            for a, epoch in zip(cut, FLEET_PARTITION_EPOCHS)
        ),
    )
    return FleetConfig(**FLEET_SHAPE, faults=plan, seed=seed)


def _fleet_pass(config, counts, wrap=_no_wrap, workers=FLEET_WORKERS) -> PassOutcome:
    from repro import fleet

    report = fleet.run_fleet(config, workers=workers)
    # engine counts are left out of the fingerprint: grounded shards run
    # in workers, so the parent sees them only at workers=1
    _, instructions = counts.take()
    rollup = report.rollup
    conservation = rollup["conservation"]
    problems = []
    if not (conservation["balanced"] and conservation["re_homed_split_ok"]):
        problems.append(f"fleet conservation broken: {conservation}")
    problems += [
        f"host group {record['group']} {record['status']}: {record['error']}"
        for record in report.fan_out if record["status"] != "ok"
    ]
    fingerprint = {"digest": report.digest, "event_count": len(report.events)}
    for key in ("ops", "validated", "skipped", "dropped", "checksum_only",
                "coverage", "validation_lag", "degradation", "failover",
                "conservation"):
        fingerprint[key] = rollup[key]
    return PassOutcome(
        fingerprint=fingerprint,
        ops=rollup["ops"],
        events=config.shards * config.epochs,
        instructions=instructions,
        virt={
            "val_p95_us": rollup["validation_lag"]["p95"] * 1e6,
            "coverage": rollup["coverage"],
        },
        problems=problems,
    )


def _scenario(name):
    def factory():
        from repro.harness import scenarios

        return getattr(scenarios, name)()

    return factory


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "kv-read",
            _build_triple(_scenario("memcached_scenario"), KV_READ_OPS),
            _triple_pass,
        ),
        Workload(
            "kv-write",
            _build_triple(_scenario("lsmtree_scenario"), KV_WRITE_OPS),
            _triple_pass,
        ),
        Workload(
            "kv-observed",
            _build_observed,
            _observed_pass,
        ),
        Workload(
            "fleet-chaos",
            _build_fleet,
            _fleet_pass,
            inline_pass=functools.partial(_fleet_pass, workers=1),
            inline_layers=frozenset({"fleet.shard"}),
            # ten runs of 10 s passes: 8% spread raw, 22-25% scaled
            calibrated=False,
        ),
    )
}
