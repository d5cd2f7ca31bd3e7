"""Dynamic validator scaling in the timing harness (§3.5)."""

import pytest

from repro.errors import ConfigurationError
from repro.faultinject.validator_faults import ValidatorChaosConfig
from repro.harness.chaos import run_chaos_server
from repro.harness.pipeline import PipelineConfig, run_orthrus_server
from repro.harness.scenarios import masstree_scenario, memcached_scenario
from repro.runtime.degradation import FaultToleranceConfig


def test_dynamic_scaling_matches_static_results():
    scenario = memcached_scenario(n_keys=50)
    static = run_orthrus_server(
        scenario, 400, PipelineConfig(app_threads=2, validation_cores=2, seed=3)
    )
    dynamic = run_orthrus_server(
        scenario, 400,
        PipelineConfig(app_threads=2, validation_cores=2, seed=3,
                       dynamic_scaling=True),
    )
    assert dynamic.responses == static.responses
    assert dynamic.digest == static.digest
    assert dynamic.detections == static.detections == 0


def test_dynamic_scaling_adds_capacity_under_pressure():
    scenario = masstree_scenario(n_keys=80)
    frozen_one = run_orthrus_server(
        scenario, 800, PipelineConfig(app_threads=4, validation_cores=1, seed=3)
    )
    dynamic = run_orthrus_server(
        scenario, 800,
        PipelineConfig(app_threads=4, validation_cores=4, seed=3,
                       dynamic_scaling=True),
    )
    assert dynamic.metrics.validated >= frozen_one.metrics.validated
    assert (
        dynamic.metrics.validation_latency.mean
        <= frozen_one.metrics.validation_latency.mean
    )


def test_dynamic_scaling_never_exceeds_core_budget():
    scenario = memcached_scenario(n_keys=50)
    result = run_orthrus_server(
        scenario, 300,
        PipelineConfig(app_threads=2, validation_cores=3, seed=3,
                       dynamic_scaling=True),
    )
    # All logs accounted for, none lost by the spawning machinery.
    assert result.metrics.validated + result.metrics.skipped == 300


@pytest.mark.parametrize(
    "plane",
    [
        {"fault_tolerance": FaultToleranceConfig()},
        {"validator_faults": ValidatorChaosConfig.parse(["hang=1"], seed=1)},
    ],
    ids=["fault_tolerance", "validator_faults"],
)
@pytest.mark.parametrize("runner", [run_orthrus_server, run_chaos_server])
def test_dynamic_scaling_rejected_on_fault_tolerant_plane(plane, runner):
    # The fault-tolerant plane runs every validation core from the start;
    # a scaling request there must fail loudly, not run unscaled.
    config = PipelineConfig(
        app_threads=4, validation_cores=4, seed=3, dynamic_scaling=True, **plane
    )
    with pytest.raises(ConfigurationError, match="dynamic_scaling"):
        runner(masstree_scenario(n_keys=80), 800, config)
