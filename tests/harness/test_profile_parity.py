"""Profiler on/off parity: wall-clock measurement never moves a digest.

The self-profiler reads ``perf_counter_ns`` — the one clock that differs
between any two runs — so the load-bearing property is that nothing it
observes feeds back into simulation state.  These tests run the same
seeded workload with profiling off, on, and sampling-on through the
library runtime (plain orthrus driver) AND the chaos driver, and require
byte-identical digests and verdict counts every time.
"""

import pytest

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
    memcached_scenario,
    phoenix_scenario,
)
from repro.obs import NULL_PROFILER, PROFILE_FORMAT, ProfileConfig, active
from repro.runtime.degradation import FaultToleranceConfig


def run(runner=run_orthrus_server, profile=None, **extra):
    config = PipelineConfig(
        app_threads=2, validation_cores=2, seed=7, profile=profile, **extra
    )
    return runner(memcached_scenario(), 300, config)


class TestPipelineParity:
    def test_orthrus_digest_identical_with_profiler(self):
        bare = run()
        profiled = run(profile=True)
        assert bare.digest is not None
        assert bare.digest == profiled.digest
        assert bare.metrics.validated == profiled.metrics.validated
        assert bare.metrics.skipped == profiled.metrics.skipped
        assert bare.detections == profiled.detections

    def test_orthrus_digest_identical_with_sampling_profiler(self):
        bare = run()
        sampled = run(profile=ProfileConfig(sample=True, sample_budget=0.5))
        assert bare.digest == sampled.digest
        assert sampled.profile["sampler"]["frames"] >= 0

    def test_vanilla_and_rbv_digests_unmoved(self):
        for runner in (run_vanilla_server, run_rbv_server):
            bare = run(runner=runner)
            profiled = run(runner=runner, profile=True)
            assert bare.digest == profiled.digest

    def test_profiled_run_attaches_payload(self):
        result = run(profile=True)
        payload = result.profile
        assert payload["format"] == PROFILE_FORMAT
        names = {s["name"] for s in payload["subsystems"]}
        # the canonical subsystems all saw work in a 300-op orthrus run
        assert {
            "driver.orthrus",
            "machine.execute",
            "validate.compare",
            "memory.version",
            "sim.queue.push",
            "sim.queue.pop",
            "sampler.decide",
        } <= names
        assert payload["events"] > 0
        assert payload["instructions"] > 0
        assert payload["events_per_s"] > 0

    def test_unprofiled_run_attaches_nothing(self):
        result = run()
        assert result.profile is None

    def test_ambient_profiler_restored_after_run(self):
        run(profile=True)
        assert active() is NULL_PROFILER

    def test_rbv_profile_counts_both_machines(self):
        # The RBV arm executes every op twice (primary + replica); its
        # instruction meter must see both.
        orthrus = run(profile=True)
        rbv = run(runner=run_rbv_server, profile=True)
        assert rbv.profile["instructions"] > orthrus.profile["instructions"]


class TestPhoenixParity:
    @pytest.mark.parametrize("variant", ["orthrus", "vanilla", "rbv"])
    def test_phoenix_digest_identical_with_profiler(self, variant):
        def job(profile):
            config = PipelineConfig(app_threads=4, seed=2, profile=profile)
            return run_phoenix(phoenix_scenario(), 4000, config, variant=variant)

        bare, profiled = job(None), job(True)
        assert bare.digest is not None
        assert bare.digest == profiled.digest
        assert bare.metrics.duration == profiled.metrics.duration
        assert bare.metrics.validated == profiled.metrics.validated
        assert bare.profile is None
        payload = profiled.profile
        assert payload["format"] == PROFILE_FORMAT
        roots = {node["path"].split(";")[0] for node in payload["nodes"]}
        assert roots == {"driver.phoenix"}
        assert payload["events"] > 0
        assert payload["instructions"] > 0


class TestChaosParity:
    def test_chaos_digest_identical_with_profiler(self):
        ft = FaultToleranceConfig()
        bare = run(fault_tolerance=ft)
        profiled = run(fault_tolerance=ft, profile=True)
        assert bare.digest is not None
        assert bare.digest == profiled.digest
        assert bare.metrics.validated == profiled.metrics.validated

    def test_chaos_driver_direct_parity(self):
        config = PipelineConfig(
            app_threads=2, validation_cores=2, seed=7,
            fault_tolerance=FaultToleranceConfig(),
        )
        bare = run_chaos_server(memcached_scenario(), 300, config)
        config_on = PipelineConfig(
            app_threads=2, validation_cores=2, seed=7,
            fault_tolerance=FaultToleranceConfig(), profile=True,
        )
        profiled = run_chaos_server(memcached_scenario(), 300, config_on)
        assert bare.digest == profiled.digest
        assert profiled.profile["format"] == PROFILE_FORMAT
        assert "driver.chaos" in {
            s["name"] for s in profiled.profile["subsystems"]
        }

    def test_orthrus_delegation_labels_chaos_driver(self):
        # run_orthrus_server runs the fault-tolerant plane when fault
        # tolerance is configured; the profile root must say so.
        result = run(fault_tolerance=FaultToleranceConfig(), profile=True)
        roots = {
            node["path"].split(";")[0] for node in result.profile["nodes"]
        }
        assert roots == {"driver.chaos"}


class TestMemoryLayerScopes:
    """memory.size (track_memory) and memory.checksum (version CRC and the
    first-load probe) are profiled subsystems; naming them moves nothing."""

    MEMORY = {"memory.size", "memory.checksum", "memory.version"}

    def _lsm(self, runner, **extra):
        config = PipelineConfig(app_threads=2, validation_cores=2, seed=7, **extra)
        return runner(lsmtree_scenario(), 300, config)

    @pytest.mark.parametrize(
        "runner", [run_orthrus_server, run_chaos_server], ids=["orthrus", "chaos"]
    )
    def test_lsmtree_names_memory_scopes_with_digest_parity(self, runner):
        bare = self._lsm(runner)
        profiled = self._lsm(runner, profile=True)
        assert bare.digest is not None
        assert bare.digest == profiled.digest
        assert bare.metrics.peak_versioned_bytes == profiled.metrics.peak_versioned_bytes
        names = {s["name"] for s in profiled.profile["subsystems"]}
        assert self.MEMORY <= names

    def test_vanilla_names_memory_size(self):
        bare = self._lsm(run_vanilla_server)
        profiled = self._lsm(run_vanilla_server, profile=True)
        assert bare.digest == profiled.digest
        assert "memory.size" in {s["name"] for s in profiled.profile["subsystems"]}
