"""Unit taxonomy tests."""

from repro.machine.units import ALIBABA_FAULT_RATIO, CYCLE_COST, Unit


def test_all_units_have_cycle_costs():
    for unit in Unit:
        assert CYCLE_COST[unit] >= 1


def test_all_units_have_fault_ratio():
    for unit in Unit:
        assert ALIBABA_FAULT_RATIO[unit] >= 1


def test_alibaba_ratio_is_1_2_2_1():
    assert ALIBABA_FAULT_RATIO[Unit.ALU] == 1
    assert ALIBABA_FAULT_RATIO[Unit.SIMD] == 2
    assert ALIBABA_FAULT_RATIO[Unit.FPU] == 2
    assert ALIBABA_FAULT_RATIO[Unit.CACHE] == 1


def test_fp_and_vector_are_error_prone():
    assert Unit.FPU.error_prone
    assert Unit.SIMD.error_prone
    assert not Unit.ALU.error_prone
    assert not Unit.CACHE.error_prone


def test_cache_instructions_cost_most():
    assert CYCLE_COST[Unit.CACHE] > CYCLE_COST[Unit.FPU] > CYCLE_COST[Unit.ALU]


def test_unit_hash_is_the_c_level_identity_hash():
    assert Unit.__hash__ is object.__hash__
    assert {unit: unit.value for unit in Unit}[Unit.SIMD] == "simd"
    assert Unit("fpu") is Unit.FPU


def test_issuing_an_instruction_runs_no_python_hash_frame():
    import sys

    from repro.machine.core import Core

    core = Core(0)
    core.begin("f")
    frames = []

    def hook(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        core.alu.add(1, 2)
        core.fpu.fmul(1.0, 2.0)
    finally:
        sys.setprofile(None)
    core.end()
    assert "__hash__" not in frames
    assert frames.count("_issue") == 2
