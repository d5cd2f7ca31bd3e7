"""The report names every metric with its unit, and BENCHMARK.json
matches what the benchmark measures."""

import io
import json
from types import SimpleNamespace

from perfbench import run
from perfbench.tracer import LAYER_NAMES, UNATTRIBUTED
from perfbench.workloads import WORKLOADS, PassOutcome

SPEC = run.load_spec()


def test_spec_lists_the_workloads_and_every_layer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    expected = {
        f"{layer}.{kind}" for layer in LAYER_NAMES for kind in ("calls", "self_s", "share")
    }
    expected |= {f"{UNATTRIBUTED}.self_s", f"{UNATTRIBUTED}.share",
                 "sim.events", "machine.instructions", "trace.overhead"}
    assert {m["name"] for m in SPEC["per_layer"]} == expected
    assert len(SPEC["per_layer"]) <= 128


def test_report_prints_every_metric_with_its_unit():
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    samples = {name: [1.0 + i, 2.0 + i] for i, name in enumerate(units)}
    out = io.StringIO()
    run.print_report("kv-read", samples, units, attempted=4, failed=0, out=out)
    lines = out.getvalue().splitlines()
    assert "failed_frac 0" in lines[0]
    for name, unit in units.items():
        (line,) = [line for line in lines if line.split()[0] == name]
        assert line.split()[2] == unit
    summary = run.summarize(samples, units)
    assert {name: m["unit"] for name, m in summary.items()} == units
    json.dumps(summary)


def test_end_to_end_samples_cover_the_spec(monkeypatch):
    """A stub workload drives the real end-to-end path in well under a second."""
    outcome = PassOutcome(
        fingerprint={"digest": 1}, ops=30, events=90, instructions=10,
        virt={"val_p95_us": 0.5, "coverage": 1.0},
    )
    workload = SimpleNamespace(
        name="stub", build=lambda seed: seed, calibrated=True,
        run_pass=lambda inputs, counts, wrap: outcome,
    )
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: [0.1, 0.2, 0.3])
    passes = run.Passes(workload, counts=None)
    args = SimpleNamespace(workload="stub", seed=5, seconds=0.01)
    samples = run.end_to_end(passes, args, {1: {"digest": 1}})
    assert passes.failed == 0 and passes.attempted >= 2
    for metric in SPEC["end_to_end"]:
        assert samples[metric["name"]], metric["name"]
        assert all(value > 0 for value in samples[metric["name"]])
    # calibrated: each pass is scaled by the kernel readings around it
    assert len(samples["kernel_s"]) == len(samples["pass_s"]) + 1
    assert samples["pass_s"] != samples["pass_wall_s"]


def test_a_moved_default_seed_fingerprint_fails_the_run(monkeypatch):
    outcome = PassOutcome(
        fingerprint={"digest": 2}, ops=1, events=1, instructions=1,
        virt={"val_p95_us": 0.5, "coverage": 1.0},
    )
    workload = SimpleNamespace(
        name="stub", build=lambda seed: seed, calibrated=False,
        run_pass=lambda inputs, counts, wrap: outcome,
    )
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: [0.1])
    passes = run.Passes(workload, counts=None)
    args = SimpleNamespace(workload="stub", seed=5, seconds=0.01)
    run.end_to_end(passes, args, {1: {"digest": 1}})
    assert passes.failed == 1
