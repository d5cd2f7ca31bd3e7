"""Refactor gate: the drivers' virtual-time output is pinned.

Every case below runs one deployment and reduces it to a
fingerprint: the state digest, a hash of the responses, the ``RunMetrics``
summary fields, the DES events and machine instructions the run
executed, and hashes of everything the run reports (fault-tolerance
summary, canary, audit, incident, SLO verdicts, span export, trace events,
metrics snapshot and timeline).  ``tests/fixtures/driver_parity.json``
holds the fingerprints each case had before the refactor that added it
(two Orthrus drivers becoming one; every driver moving onto shared
helpers and Phoenix onto the validation plane); a refactor of the drivers
must reproduce them exactly.  The cases cover both planes and what
``perfbench/golden.json`` does not: safe mode, dynamic scaling, the
memory-budget trigger, full telemetry on the shared plane, the
fault-tolerant plane's crash, hang, quarantine, overload and total-death
paths, vanilla and RBV, an app crash under each server deployment, and
the Phoenix job under every variant.

To print the current fingerprints as fixture JSON::

    PYTHONPATH=src python tests/harness/test_driver_parity.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.faultinject.validator_faults import ValidatorChaosConfig
from repro.harness.chaos import run_chaos_server
from repro.harness.phoenix import run_phoenix
from repro.harness.pipeline import (
    PipelineConfig,
    run_orthrus_server,
    run_rbv_server,
    run_vanilla_server,
)
from repro.harness.scenarios import (
    lsmtree_scenario,
    masstree_scenario,
    memcached_scenario,
    phoenix_scenario,
)
from repro.machine.cpu import Machine
from repro.machine.faults import Fault, FaultKind
from repro.machine.instruction import Site
from repro.machine.units import Unit
from repro.obs import CanaryConfig, Observability, TimeSeriesConfig
from repro.response import ResponseConfig
from repro.runtime.degradation import DegradationConfig, FaultToleranceConfig
from repro.runtime.sampling import AlwaysSampler
from repro.sim.events import Environment
from repro.validation.watchdog import WatchdogConfig

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "driver_parity.json"


def _hash(value) -> str | None:
    if value is None:
        return None
    text = json.dumps(value, sort_keys=False, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@contextmanager
def _engine_counts():
    """Register every Environment and Machine built inside the block."""
    envs: list = []
    machines: list = []
    originals = {Environment: Environment.__init__, Machine: Machine.__init__}

    def registering(init, sink):
        def register(self, *args, **kwargs):
            init(self, *args, **kwargs)
            sink.append(self)

        return register

    Environment.__init__ = registering(originals[Environment], envs)
    Machine.__init__ = registering(originals[Machine], machines)
    try:
        yield envs, machines
    finally:
        for cls, init in originals.items():
            cls.__init__ = init


def _fingerprint(run) -> dict:
    with _engine_counts() as (envs, machines):
        result = run()
    metrics = result.metrics
    obs = result.runtime.obs if result.runtime is not None else None
    telemetry = obs is not None and obs.enabled
    fp = {
        "digest": result.digest,
        "responses": _hash(result.responses),
        "crashed": result.crashed,
        "metrics": {
            "operations": metrics.operations,
            "duration": metrics.duration,
            "validated": metrics.validated,
            "skipped": metrics.skipped,
            "detections": metrics.detections,
            "peak_versioned_bytes": metrics.peak_versioned_bytes,
            "peak_live_bytes": metrics.peak_live_bytes,
            "request_latency": metrics.request_latency.summary(),
            "validation_latency": metrics.validation_latency.summary(),
        },
        "events": sum(env.events_processed for env in envs),
        "instructions": sum(
            core.instructions for machine in machines for core in machine.cores
        ),
        "ft": _hash(result.ft.summary()) if result.ft is not None else None,
        "canary": _hash(result.canary),
        "audit": _hash(result.audit),
        "incident": (
            _hash(result.incident.to_dict()) if result.incident is not None else None
        ),
        "slo": _hash(result.slo.summary_lines()) if result.slo is not None else None,
        "spans": _hash([s.as_dict() for s in obs.spans]) if telemetry else None,
        "trace": _hash([e.as_dict() for e in obs.tracer]) if telemetry else None,
        "registry": _hash(obs.registry.snapshot()) if telemetry else None,
        "timeline": (
            _hash(result.timeline.to_dict()) if result.timeline is not None else None
        ),
    }
    # the fixture is JSON: compare in its normal form (tuples become lists)
    return json.loads(json.dumps(fp))


def _telemetry() -> dict:
    return dict(
        obs=Observability(),
        timeseries=TimeSeriesConfig(),
        canary=CanaryConfig(),
        audit=True,
        response=ResponseConfig(),
    )


def _driver(runner):
    def case(scenario, n_ops, config):
        # the config is built per run: samplers and Observability carry state
        return lambda: runner(scenario(), n_ops, config())

    return case


_orthrus = _driver(run_orthrus_server)
_chaos = _driver(run_chaos_server)
_vanilla = _driver(run_vanilla_server)
_rbv = _driver(run_rbv_server)


def _kv_crash() -> PipelineConfig:
    # flips the dispatch comparison: the app fails on a served request
    return PipelineConfig(
        seed=2,
        deferred_faults=((0, Fault(
            unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=0,
            site=Site("mc.control.dispatch", "eq", 1),
        )),),
    )


def _phoenix(variant, n_words=3200, **config):
    def run():
        return run_phoenix(
            phoenix_scenario(words_per_chunk=800, vocabulary_size=100),
            n_words,
            PipelineConfig(app_threads=4, seed=2, **config),
            variant=variant,
        )

    return run


def _phoenix_crash() -> tuple:
    # corrupts a map task's partition index into an unusable value
    return ((0, Fault(
        unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=62,
        site=Site("phx.map_task", "mod", 0),
    )),)


def _crash_hang() -> PipelineConfig:
    return PipelineConfig(
        seed=2, validation_cores=4, sampler=AlwaysSampler(),
        fault_tolerance=FaultToleranceConfig(
            watchdog=WatchdogConfig(deadline=80e-6), check_interval=10e-6,
        ),
        validator_faults=ValidatorChaosConfig.parse(
            ["crash=0.25", "hang=0.25"], seed=5
        ),
    )


def _verdict_loss() -> PipelineConfig:
    return PipelineConfig(
        seed=2, validation_cores=4, sampler=AlwaysSampler(),
        fault_tolerance=FaultToleranceConfig(
            watchdog=WatchdogConfig(deadline=80e-6, offender_threshold=2),
            check_interval=10e-6,
        ),
        validator_faults=ValidatorChaosConfig.parse(["verdict-loss=1"], seed=7),
    )


def _overload_ladder() -> PipelineConfig:
    return PipelineConfig(
        seed=3, app_threads=4, validation_cores=2, sampler=AlwaysSampler(),
        obs=Observability(), timeseries=TimeSeriesConfig(cadence=10e-6),
        fault_tolerance=FaultToleranceConfig(
            queue_capacity=16,
            overflow_policy="drop-oldest",
            watchdog=WatchdogConfig(deadline=80e-6),
            degradation=DegradationConfig(escalate_after=1, recover_after=12),
            check_interval=10e-6,
        ),
        validator_faults=ValidatorChaosConfig.parse(["hang=1"], seed=3),
    )


def _total_death() -> PipelineConfig:
    return PipelineConfig(
        seed=4, app_threads=4, validation_cores=2, sampler=AlwaysSampler(),
        fault_tolerance=FaultToleranceConfig(
            queue_capacity=8, overflow_policy="block-producer",
            check_interval=10e-6,
        ),
        validator_faults=ValidatorChaosConfig.parse(["crash=2"], seed=3),
    )


def _overload_deadline(**plane) -> PipelineConfig:
    return PipelineConfig(
        seed=5, app_threads=4, validation_cores=1, sampler=AlwaysSampler(),
        drain_grace_fraction=0.05, obs=Observability(), **plane,
    )


def _safe_mode_slowdown() -> PipelineConfig:
    return PipelineConfig(
        seed=6, safe_mode=True, validation_cores=3,
        fault_tolerance=FaultToleranceConfig(
            watchdog=WatchdogConfig(deadline=80e-6), check_interval=10e-6,
        ),
        validator_faults=ValidatorChaosConfig.parse(["slowdown=1"], seed=2),
    )


def _kv_observed() -> PipelineConfig:
    # perfbench's kv-observed configuration
    deadline = 80e-6
    return PipelineConfig(
        app_threads=4, validation_cores=2, seed=7,
        fault_tolerance=FaultToleranceConfig(
            queue_capacity=64,
            overflow_policy="drop-oldest",
            watchdog=WatchdogConfig(deadline=deadline),
            check_interval=min(FaultToleranceConfig().check_interval, deadline / 8),
        ),
        validator_faults=ValidatorChaosConfig.parse(["hang=1"], seed=7),
        **_telemetry(),
    )


#: case name -> zero-argument run
CASES = {
    # -- shared-store plane -------------------------------------------
    "shared-memcached": _orthrus(
        memcached_scenario, 300, lambda: PipelineConfig(seed=1)
    ),
    "shared-lsmtree": _orthrus(lsmtree_scenario, 200, lambda: PipelineConfig(seed=1)),
    "shared-safe-mode": _orthrus(
        memcached_scenario, 300, lambda: PipelineConfig(seed=2, safe_mode=True)
    ),
    "shared-dynamic-scaling": _orthrus(
        masstree_scenario, 400, lambda: PipelineConfig(
            seed=3, app_threads=4, validation_cores=4, dynamic_scaling=True
        ),
    ),
    "shared-memory-budget": _orthrus(
        memcached_scenario, 400, lambda: PipelineConfig(
            seed=4, app_threads=4, validation_cores=1,
            memory_budget_bytes=12 * 1024,
        ),
    ),
    "shared-overload-deadline": _orthrus(memcached_scenario, 300, _overload_deadline),
    "shared-telemetry": _orthrus(
        memcached_scenario, 1500, lambda: PipelineConfig(seed=5, **_telemetry())
    ),
    "shared-phoenix": _phoenix("orthrus"),
    # -- fault-tolerant plane -----------------------------------------
    "ft-clean": _orthrus(
        memcached_scenario, 200,
        lambda: PipelineConfig(seed=2, fault_tolerance=FaultToleranceConfig()),
    ),
    "ft-crash-hang": _orthrus(memcached_scenario, 300, _crash_hang),
    "ft-verdict-loss-quarantine": _orthrus(memcached_scenario, 300, _verdict_loss),
    "ft-overload-ladder": _chaos(
        lambda: memcached_scenario(n_keys=40), 400, _overload_ladder
    ),
    "ft-total-death-block-producer": _orthrus(memcached_scenario, 150, _total_death),
    "ft-overload-deadline": _orthrus(
        memcached_scenario, 300,
        lambda: _overload_deadline(
            fault_tolerance=FaultToleranceConfig(degradation=None)
        ),
    ),
    "ft-safe-mode-slowdown": _orthrus(memcached_scenario, 300, _safe_mode_slowdown),
    "ft-kv-observed": _chaos(memcached_scenario, 2000, _kv_observed),
    # -- vanilla and RBV, and app crashes under each deployment -------
    "vanilla-memcached": _vanilla(
        memcached_scenario, 300, lambda: PipelineConfig(seed=1)
    ),
    "vanilla-lsmtree": _vanilla(lsmtree_scenario, 200, lambda: PipelineConfig(seed=1)),
    "rbv-memcached": _rbv(memcached_scenario, 300, lambda: PipelineConfig(seed=1)),
    "rbv-lsmtree": _rbv(lsmtree_scenario, 200, lambda: PipelineConfig(seed=1)),
    "vanilla-crash": _vanilla(lambda: memcached_scenario(n_keys=40), 150, _kv_crash),
    "shared-crash": _orthrus(lambda: memcached_scenario(n_keys=40), 150, _kv_crash),
    "rbv-crash": _rbv(lambda: memcached_scenario(n_keys=40), 150, _kv_crash),
    "phoenix-vanilla": _phoenix("vanilla"),
    "phoenix-rbv": _phoenix("rbv"),
    "phoenix-crash": _phoenix(
        "orthrus", n_words=6400, deferred_faults=_phoenix_crash()
    ),
    "shared-phoenix-12000": _phoenix("orthrus", n_words=12000, validation_cores=2),
}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fingerprint_matches_recorded(case, recorded):
    assert _fingerprint(CASES[case]) == recorded[case]


if __name__ == "__main__":
    json.dump(
        {name: _fingerprint(run) for name, run in CASES.items()},
        sys.stdout,
        indent=1,
    )
    sys.stdout.write("\n")
