"""Core execution, tracing, and mercurial behaviour."""

import pytest

from repro.machine.core import AtomicCell, Core
from repro.machine.faults import Fault, FaultKind
from repro.machine.instruction import Site
from repro.machine.units import Unit


@pytest.fixture
def core():
    return Core(core_id=0)


class TestHealthyOps:
    def test_alu_arithmetic(self, core):
        core.begin("f")
        assert core.alu.add(2, 3) == 5
        assert core.alu.sub(7, 3) == 4
        assert core.alu.mul(4, 5) == 20
        assert core.alu.div(17, 5) == 3
        assert core.alu.mod(17, 5) == 2
        core.end()

    def test_alu_logic(self, core):
        core.begin("f")
        assert core.alu.xor(0b1100, 0b1010) == 0b0110
        assert core.alu.and_(0b1100, 0b1010) == 0b1000
        assert core.alu.or_(0b1100, 0b1010) == 0b1110
        assert core.alu.shl(1, 4) == 16
        assert core.alu.shr(16, 2) == 4
        core.end()

    def test_alu_compare(self, core):
        core.begin("f")
        assert core.alu.lt(1, 2) is True
        assert core.alu.lt(2, 1) is False
        assert core.alu.le(2, 2) is True
        assert core.alu.eq("a", "a") is True
        core.end()

    def test_fpu(self, core):
        core.begin("f")
        assert core.fpu.fadd(1.5, 2.5) == 4.0
        assert core.fpu.fmul(3.0, 2.0) == 6.0
        assert core.fpu.fdiv(1.0, 4.0) == 0.25
        core.end()

    def test_simd(self, core):
        core.begin("f")
        assert core.simd.vadd((1, 2), (3, 4)) == (4, 6)
        assert core.simd.vmul((2, 3), (4, 5)) == (8, 15)
        assert core.simd.vdot((1, 2), (3, 4)) == 11.0
        assert core.simd.vsum((1, 2, 3)) == 6.0
        core.end()

    def test_cache_atomics(self, core):
        cell = AtomicCell(10)
        core.begin("f")
        assert core.cache.atomic_read(cell) == 10
        core.cache.atomic_write(cell, 20)
        assert cell.value == 20
        assert core.cache.atomic_add(cell, 5) == 25
        assert core.cache.cas(cell, 25, 30) is True
        assert cell.value == 30
        assert core.cache.cas(cell, 999, 0) is False
        assert cell.value == 30
        core.end()

    def test_hash64_deterministic_and_spread(self, core):
        core.begin("f")
        h1 = core.alu.hash64("key-1")
        core.end()
        core.begin("f")
        h2 = core.alu.hash64("key-1")
        h3 = core.alu.hash64("key-2")
        core.end()
        assert h1 == h2
        assert h1 != h3
        assert 0 <= h1 < 2**64

    def test_copy_is_identity_when_healthy(self, core):
        core.begin("f")
        assert core.alu.copy(b"payload") == b"payload"
        core.end()

    def test_division_by_zero_raises(self, core):
        core.begin("f")
        with pytest.raises(ZeroDivisionError):
            core.alu.div(1, 0)
        core.end()


class TestTracing:
    def test_trace_counts_units(self, core):
        trace = core.begin("f")
        core.alu.add(1, 2)
        core.alu.add(3, 4)
        core.fpu.fadd(1.0, 2.0)
        core.simd.vadd((1,), (2,))
        core.end()
        assert trace.count(Unit.ALU) == 2
        assert trace.count(Unit.FPU) == 1
        assert trace.count(Unit.SIMD) == 1
        assert trace.count(Unit.CACHE) == 0

    def test_trace_cycles_accumulate(self, core):
        trace = core.begin("f")
        core.alu.add(1, 2)
        core.fpu.fadd(1.0, 2.0)
        core.end()
        assert trace.cycles == 1 + 4

    def test_site_recording(self, core):
        from repro.machine.instruction import Trace

        trace = core.begin("f", Trace(record_sites=True))
        core.alu.add(1, 2)
        core.alu.add(3, 4)
        core.alu.mul(2, 2)
        core.end()
        assert Site("f", "add", 0) in trace.sites
        assert Site("f", "add", 1) in trace.sites
        assert Site("f", "mul", 0) in trace.sites

    def test_occurrence_counters_reset_per_execution(self, core):
        from repro.machine.instruction import Trace

        trace1 = core.begin("f", Trace(record_sites=True))
        core.alu.add(1, 2)
        core.end()
        trace2 = core.begin("f", Trace(record_sites=True))
        core.alu.add(1, 2)
        core.end()
        assert trace1.sites == trace2.sites

    def test_total_cycles_accumulate_across_executions(self, core):
        core.begin("f")
        core.alu.add(1, 2)
        core.end()
        before = core.total_cycles
        core.begin("g")
        core.alu.add(1, 2)
        core.end()
        assert core.total_cycles == before + 1


class TestMercurialBehaviour:
    def test_sitewide_fault_corrupts_every_matching_op(self):
        core = Core(0)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=0))
        core.begin("f")
        assert core.alu.add(2, 2) == 5  # 4 ^ 1
        core.end()

    def test_fault_is_reproducible(self):
        core = Core(0)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=2))
        results = set()
        for _ in range(5):
            core.begin("f")
            results.add(core.alu.add(10, 10))
            core.end()
        assert results == {20 ^ 4}  # every execution corrupted identically

    def test_site_pinned_fault_hits_only_that_occurrence(self):
        core = Core(0)
        site = Site("f", "add", 1)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, site=site, bit=0))
        core.begin("f")
        first = core.alu.add(4, 4)
        second = core.alu.add(4, 4)
        core.end()
        assert first == 8
        assert second == 9

    def test_fault_in_other_unit_does_not_fire(self):
        core = Core(0)
        core.arm(Fault(unit=Unit.FPU, kind=FaultKind.BITFLIP, bit=0))
        core.begin("f")
        assert core.alu.add(2, 2) == 4
        core.end()

    def test_nop_returns_first_operand(self):
        core = Core(0)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.NOP))
        core.begin("f")
        assert core.alu.add(7, 3) == 7
        core.end()

    def test_trigger_rate_zero_never_fires(self):
        core = Core(0, seed=42)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=0, trigger_rate=0.0))
        core.begin("f")
        assert all(core.alu.add(2, 2) == 4 for _ in range(20))
        core.end()

    def test_trigger_rate_partial_fires_sometimes(self):
        core = Core(0, seed=7)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=0, trigger_rate=0.5))
        core.begin("f")
        results = [core.alu.add(2, 2) for _ in range(100)]
        core.end()
        assert 4 in results and 5 in results

    def test_disarm_restores_health(self):
        core = Core(0)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=0))
        core.disarm()
        assert not core.is_mercurial
        core.begin("f")
        assert core.alu.add(2, 2) == 4
        core.end()

    def test_branch_condition_corruption(self):
        core = Core(0)
        core.arm(Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=0))
        core.begin("f")
        assert core.alu.lt(1, 2) is False  # inverted by the fault
        core.end()

    def test_cache_fault_corrupts_atomics(self):
        core = Core(0)
        core.arm(Fault(unit=Unit.CACHE, kind=FaultKind.BITFLIP, bit=0))
        cell = AtomicCell(4)
        core.begin("f")
        assert core.cache.atomic_read(cell) == 5
        core.end()


def _program(core: Core, trace=None) -> list:
    """A small closure with nested scopes; returns every op result."""
    results = []
    core.begin("outer", trace)
    results.append(core.alu.add(3, 4))
    results.append(core.alu.add(5, 6))
    results.append(core.fpu.fmul(1.5, 2.0))
    with core.scope("inner"):
        results.append(core.alu.add(7, 8))
        results.append(core.simd.vadd((1, 2), (3, 4)))
    results.append(core.alu.add(9, 10))
    results.append(core.cache.atomic_add(AtomicCell(1), 2))
    core.end()
    return results


#: the program's dynamic instruction sites, in issue order
_PROGRAM_SITES = [
    (Site("outer", "add", 0), Unit.ALU),
    (Site("outer", "add", 1), Unit.ALU),
    (Site("outer", "fmul", 0), Unit.FPU),
    (Site("inner", "add", 0), Unit.ALU),
    (Site("inner", "vadd", 0), Unit.SIMD),
    (Site("outer", "add", 2), Unit.ALU),
    (Site("outer", "atomic_add", 0), Unit.CACHE),
]


class TestLazySites:
    """Sites are built only when read; what reads them sees the same sites."""

    @pytest.mark.parametrize("index", range(len(_PROGRAM_SITES)))
    def test_site_pinned_fault_corrupts_exactly_its_site(self, index):
        healthy = _program(Core(0))
        site, unit = _PROGRAM_SITES[index]
        core = Core(0)
        core.arm(Fault(unit=unit, kind=FaultKind.BITFLIP, site=site, bit=0))
        faulty = _program(core)
        differs = [i for i, (a, b) in enumerate(zip(healthy, faulty)) if a != b]
        assert differs == [index]

    def test_fault_on_an_unexecuted_site_never_fires(self):
        core = Core(0)
        core.arm(
            Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, site=Site("outer", "add", 3))
        )
        assert _program(core) == _program(Core(0))

    def test_core_site_recording_is_exact(self):
        core = Core(0)
        core.record_sites = True
        _program(core)
        _program(core)
        assert core.site_units == dict(_PROGRAM_SITES)
        assert core.site_counts == {site: 2 for site, _ in _PROGRAM_SITES}

    def test_trace_site_recording_is_exact(self):
        from repro.machine.instruction import Trace

        trace = Trace(record_sites=True)
        _program(Core(0), trace)
        # the nested scope has its own trace; the outer one sees its own sites
        assert trace.sites == {s for s, _ in _PROGRAM_SITES if s.function == "outer"}

    def test_recording_with_an_armed_fault_matches_recording_without(self):
        plain, armed = Core(0), Core(0)
        for core in (plain, armed):
            core.record_sites = True
        armed.arm(Fault(unit=Unit.FPU, kind=FaultKind.BITFLIP, site=Site("x", "f", 0)))
        _program(plain)
        _program(armed)
        assert plain.site_counts == armed.site_counts
        assert plain.site_units == armed.site_units

    def test_unrecorded_unarmed_run_still_counts_everything(self):
        from repro.machine.instruction import Trace

        core = Core(0)
        trace = Trace()
        _program(core, trace)
        assert core.instructions == len(_PROGRAM_SITES)
        assert core.site_counts == {} and trace.sites == set()
        assert trace.count(Unit.ALU) == 3  # the nested scope's add is its own
        assert trace.count(Unit.CACHE) == 1
