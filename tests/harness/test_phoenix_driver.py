"""Phoenix batch-driver tests."""

import pytest

from repro.errors import ConfigurationError
from repro.faultinject.validator_faults import ValidatorChaosConfig
from repro.harness.phoenix import run_phoenix
from repro.harness.pipeline import PipelineConfig
from repro.harness.scenarios import phoenix_scenario
from repro.machine.faults import Fault, FaultKind
from repro.machine.units import Unit
from repro.obs import Observability
from repro.obs.latency import attribute
from repro.runtime.degradation import FaultToleranceConfig
from repro.workloads.wordcount import WordCountCorpus

N_WORDS = 6400
SCEN_KW = dict(words_per_chunk=800, vocabulary_size=100)


@pytest.fixture(scope="module")
def runs():
    scenario = phoenix_scenario(**SCEN_KW)
    return {
        variant: run_phoenix(
            scenario, N_WORDS, PipelineConfig(app_threads=4, seed=2), variant=variant
        )
        for variant in ("vanilla", "orthrus", "rbv")
    }


class TestFunctional:
    def test_all_variants_compute_reference_counts(self, runs):
        reference = WordCountCorpus(n_words=N_WORDS, seed=2, **SCEN_KW).reference_counts()
        for variant, result in runs.items():
            assert result.responses[0] == reference, variant

    def test_clean_runs_have_no_detections(self, runs):
        assert runs["orthrus"].detections == 0
        assert runs["rbv"].rbv_detections == 0

    def test_operations_count_tasks(self, runs):
        chunks = (N_WORDS + SCEN_KW["words_per_chunk"] - 1) // SCEN_KW["words_per_chunk"]
        assert runs["orthrus"].metrics.operations == chunks + 8  # maps + reduces


class TestTimingShape:
    def test_orthrus_overhead_tiny(self, runs):
        ratio = runs["orthrus"].metrics.duration / runs["vanilla"].metrics.duration
        assert 1.0 <= ratio < 1.10  # paper: <2%

    def test_rbv_substantially_slower(self, runs):
        ratio = runs["rbv"].metrics.duration / runs["vanilla"].metrics.duration
        assert ratio > 1.3  # paper: ~2x (51% throughput drop)

    def test_orthrus_validation_latency_below_rbv(self, runs):
        assert (
            runs["orthrus"].metrics.validation_latency.mean
            < runs["rbv"].metrics.validation_latency.mean
        )

    def test_phoenix_memory_overhead_small(self, runs):
        # Big batches, few versions: the paper reports 2.6%.
        assert runs["orthrus"].metrics.memory_overhead < 0.25


class TestFaults:
    def test_fp_fault_detected(self):
        scenario = phoenix_scenario(**SCEN_KW)
        config = PipelineConfig(app_threads=4, seed=2)
        config.deferred_faults = (
            (0, Fault(unit=Unit.FPU, kind=FaultKind.BITFLIP, bit=52)),
        )
        result = run_phoenix(scenario, N_WORDS, config, variant="orthrus")
        assert result.detections > 0

    def test_crashing_fault_is_fail_stop(self):
        scenario = phoenix_scenario(**SCEN_KW)
        config = PipelineConfig(app_threads=4, seed=2)
        # Corrupt the partition index into an unusable value.
        from repro.machine.instruction import Site

        config.deferred_faults = (
            (0, Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=62,
                      site=Site("phx.map_task", "mod", 0))),
        )
        result = run_phoenix(scenario, N_WORDS, config, variant="orthrus")
        assert result.crashed

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_phoenix(phoenix_scenario(), 100, PipelineConfig(), variant="hybrid")


def _plane_run(**config):
    """The Orthrus job on 4 app threads x 2 validation cores, 3200 words."""
    return run_phoenix(
        phoenix_scenario(**SCEN_KW),
        3200,
        PipelineConfig(app_threads=4, validation_cores=2, seed=2, **config),
        variant="orthrus",
    )


class TestValidationPlane:
    """The Orthrus job runs on the same validation planes as the servers."""

    @pytest.fixture(scope="class")
    def shared(self):
        return _plane_run()

    def test_safe_mode_merge_waits_for_every_validation(self, shared):
        safe = _plane_run(safe_mode=True)
        logs = shared.metrics.validated + shared.metrics.skipped
        assert shared.metrics.skipped > 0  # the drain window drops some
        assert safe.metrics.validated == logs and safe.metrics.skipped == 0
        assert safe.metrics.duration > shared.metrics.duration
        assert safe.digest == shared.digest
        assert safe.responses == shared.responses

    def test_fault_tolerance_conserves_with_the_same_digest(self, shared):
        result = _plane_run(fault_tolerance=FaultToleranceConfig())
        assert shared.ft is None
        assert result.ft is not None and result.ft.conserved
        assert result.ft.ledger["enqueued"] == (
            shared.metrics.validated + shared.metrics.skipped
        )
        assert result.digest == shared.digest

    def test_crashed_validator_keeps_the_ledger_conserved(self, shared):
        result = _plane_run(
            validator_faults=ValidatorChaosConfig.parse(["crash=1"], seed=3)
        )
        assert result.ft.conserved
        assert len(result.ft.faulted_cores["crash"]) == 1
        assert result.digest == shared.digest

    def test_dynamic_scaling_starts_with_one_validator(self):
        def validating_cores(**config):
            result = _plane_run(safe_mode=True, obs=Observability(), **config)
            return {
                span.args["core"]
                for span in result.runtime.obs.spans if span.stage == "validate"
            }

        assert validating_cores() == {4, 5}
        assert validating_cores(dynamic_scaling=True) == {4}

    def test_spans_cover_every_log_and_reconcile(self):
        result = _plane_run(obs=Observability())
        obs = result.runtime.obs
        runs = [span.seq for span in obs.spans if span.stage == "closure.run"]
        logs = result.metrics.validated + result.metrics.skipped
        assert len(runs) == len(set(runs)) == logs
        assert sum(1 for e in obs.tracer if e.kind == "queue.push") == logs
        assert attribute(obs.spans).reconciliation()["reconciled"]

    @pytest.mark.parametrize("config", [
        dict(validation_cores=0),
        dict(dynamic_scaling=True, fault_tolerance=FaultToleranceConfig()),
    ])
    def test_orthrus_config_checks_apply(self, config):
        with pytest.raises(ConfigurationError):
            run_phoenix(
                phoenix_scenario(**SCEN_KW), 3200, PipelineConfig(**config),
                variant="orthrus",
            )
